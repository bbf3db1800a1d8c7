"""The exit-code contract, fuzzed: every config text, finite-model file and flag value ends
in an exit code of README's table and a message with a documented prefix, never a
traceback; a run that fails leaves no output file behind, and one that fails on its
output path has printed nothing."""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bell_lab.cli import _CONFIG_KEYS, main
from bell_lab.core import SettingQuad
from bell_lab.models import FAMILIES, BellDeterministic
from bell_lab.oracle import discretize_model, finite_model_to_json_obj

EXIT_CODES = {0, 2, 3, 4, 5}  # README's table
# The first words of each message ``main`` prints for a nonzero exit code.
PREFIXES = ("config error: ", "output error: ", "worker error: ", "memory error: ", "model error: ",
            "table precondition failed: ", "size guard: ", "error: ")

QUAD = {"quad.a_deg": "0", "quad.b_deg": "45", "quad.c_deg": "135", "quad.d_deg": "90"}
OUTPUTS = {"outputs.trial_log": "trials.csv", "outputs.report": "report.json", "outputs.table": "table.json"}
VALID = {
    "model.kind": sorted(FAMILIES),
    "model.epsilon": ["0.3"],
    "model.source.kind": ["uniform_angle", "discrete"],
    "model.source.size": ["16", "5000"],
    "model.source.weights": ["0.25 0 0.75", "1"],
    **{key: [value] for key, value in QUAD.items()},
    **{key: [value, "."] for key, value in OUTPUTS.items()},  # "." names a directory
    "n_trials": ["3", "1000", "10000"],
    "seed": ["7"],
}
# Non-ASCII text includes U+2028, a line break to str.splitlines, and Arabic-Indic
# digits, which int() and float() read.
EDGE = ["nan", "-0", "1e400", "1_000", "1" * 30, "-" + "9" * 30, "\0", "a\0b", "\0.json", "λ",
        "é seed = 1", "١٠٠٠٠٠", "", " ", "1 # a comment", "a = b",
        "0.25, -0.5", "inf inf", "0x10"]
BASE = ("model.kind = bell_deterministic\n" + "".join(f"{k} = {v}\n" for k, v in QUAD.items())
        + "seed = 7\nn_trials = 1000\n")
KEYS = sorted(_CONFIG_KEYS) + ["model.unknown", "quad.e_deg", "Seed"]
# Where --out points: a directory still to be made, or an existing file (no output can go under it).
OUT = ["dir", "file"]


def at_most_10k(value: str) -> bool:
    """Whether a value, read as ``n_trials`` or ``model.source.size``, asks for at most 10**4."""
    try:
        return int(value) <= 10**4
    except ValueError:
        return True


def values(key: str) -> st.SearchStrategy[str]:
    pool = VALID.get(key, []) + EDGE
    if key in ("n_trials", "model.source.size"):  # a run of at most 10**4 trials over at most 10**4 values
        pool = [value for value in pool if at_most_10k(value)]
    return st.sampled_from(pool)


@st.composite
def config_texts(draw) -> str:
    """A valid config that names every output, then up to three edits, in any line order:
    a key (known or not) set to a value or added once more, a key dropped, or a line
    without '='."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    entries = [("model.kind", family), *QUAD.items(), *OUTPUTS.items(), ("seed", "7"),
               ("n_trials", draw(st.sampled_from(["1000", "10000"])))]
    if family == "factorizable_instrument":
        entries.append(("model.epsilon", "0.3"))
    source = draw(st.sampled_from(["", "model.source.size", "model.source.weights"]))
    if source:
        entries += [("model.source.kind", "discrete"), (source, draw(st.sampled_from(VALID[source])))]
    for _ in range(draw(st.integers(0, 3))):
        edit, key = draw(st.sampled_from(["set", "add", "drop", "line"])), draw(st.sampled_from(KEYS))
        if edit in ("set", "drop"):
            entries = [entry for entry in entries if entry[0] != key]
        if edit in ("set", "add"):
            entries.append((key, draw(values(key))))
        if edit == "line":
            entries.append((None, draw(st.sampled_from(EDGE + KEYS))))
    order = draw(st.permutations(range(len(entries))))
    return "\n".join(value if key is None else f"{key} = {value}" for key, value in (entries[i] for i in order)) + "\n"


_quad = SettingQuad.from_degrees(*map(float, QUAD.values()))
MODEL = finite_model_to_json_obj(discretize_model(BellDeterministic(), [_quad.a, _quad.b, _quad.c, _quad.d], grid=4))
# What an edit puts in place of an item of the model file: another type, a boolean, a huge
# integer, a non-finite float, an outcome off +-1.
LEAVES = ["x", None, {}, [], [1, -1], 0, 2, -1.0, 0.5, True, False, 10**30, -(10**400), 1e308, float("nan")]


@st.composite
def model_texts(draw) -> str:
    """The valid finite-model file of ``MODEL``, then up to three edits, each at an item
    reached by walking down from the top: the item replaced by one of ``LEAVES``, or
    dropped, which leaves a key missing or an array ragged."""
    obj = copy.deepcopy(MODEL)
    for _ in range(draw(st.integers(0, 3))):
        node = obj
        while node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            if not (isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans())):
                break
            node = node[key]
        if node:
            if draw(st.booleans()):
                node[key] = draw(st.sampled_from(LEAVES))
            else:
                del node[key]
    return json.dumps(obj)


ANGLES = list(QUAD.values()) + ["-0", "360.5", "1e-300", "1e300", "1e400", "nan", "inf"]
quads = st.one_of(st.just(list(QUAD.values())), st.lists(st.sampled_from(ANGLES), min_size=4, max_size=4))


def run(argv, out, files=()):
    """Run ``main`` in process in a fresh directory, with ``files`` (name, text) written
    there first and ``--out`` naming a directory still to be made or an existing file (or
    left out when ``out`` is None); return the exit code, stdout, stderr and the files
    written under the output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files:
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [os.path.join(tmp, arg) if arg in dict(files) else arg for arg in argv]
        out_dir = os.path.join(tmp, "out")
        if out == "file":
            open(out_dir, "w").close()
        if out is not None:
            argv += ["--out", out_dir]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        written = [name for _, _, names in os.walk(out_dir) for name in names]
    return code, stdout.getvalue(), stderr.getvalue(), written


def check_exit(code, out, err, written):
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err
    if code:
        assert err.startswith(PREFIXES), err
        assert written == [], (code, err, written)
    else:
        assert err == ""
    if err.startswith("output error: "):  # the output path is checked before the command runs or prints
        assert out == "", (err, out)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["simulate", "check", "tables"]), config=config_texts(),
       threads=st.sampled_from(["1", "2"]), max_rows=st.sampled_from(["-1", "0", "3"]),
       key_mode=st.sampled_from(["lambda", "lambda-time"]), out=st.sampled_from(OUT))
# A trial log that cannot be written, named after a report that can.
@example("simulate", BASE + "outputs.trial_log = .\n", "1", "0", "lambda", "dir")
# An output directory that is a file: refused before the verdicts or the table print.
@example("check", BASE, "1", "0", "lambda", "file")
@example("tables", BASE, "1", "0", "lambda-time", "file")
def test_every_config_ends_in_a_documented_exit_code(command, config, threads, max_rows, key_mode, out):
    argv = [command, "--config", "run.cfg", "--threads", threads]
    if command == "tables":
        argv += ["--max-rows", max_rows, "--key-mode", key_mode]
    check_exit(*run(argv, out, [("run.cfg", config)]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(operation=st.sampled_from(["enumerate", "quantum", "exact"]), out=st.sampled_from([None, *OUT]),
       data=st.data())
def test_every_oracle_call_ends_in_a_documented_exit_code(operation, out, data):
    argv, files = ["oracle", operation], []
    if operation == "enumerate":
        # (settings1 + settings2) * m above 32 is the size guard's refusal
        argv += ["--m", data.draw(st.sampled_from(["-1", "0", "1", "4", "8", "9", "1000000"]))]
        for flag in ("--settings1", "--settings2"):
            argv += [flag, data.draw(st.sampled_from(["-1", "0", "1", "2", "3", "5"]))]
    else:
        argv += ["--quad-deg", *data.draw(quads)]
    if operation == "exact":
        files.append(("model.json", data.draw(model_texts())))
        argv += ["--model", "model.json"]
        if data.draw(st.booleans()):
            files += [(f"pair{k}.json", data.draw(model_texts())) for k in range(4)]
            argv += ["--per-pair", *(name for name, _ in files[1:])]
    check_exit(*run(argv, out, files))
