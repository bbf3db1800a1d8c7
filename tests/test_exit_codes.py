"""The exit-code contract, fuzzed: every config text and flag value ends in an exit code
of README's table and a message with a documented prefix, never a traceback, and a
run that fails leaves no output file behind."""

import contextlib
import io
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bell_lab.cli import _CONFIG_KEYS, main
from bell_lab.models import FAMILIES

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
        "é seed = 1", "١٠٠٠٠٠", "", " ", "1 # a comment", "a = b",
        "0.25, -0.5", "inf inf", "0x10"]
KEYS = sorted(_CONFIG_KEYS) + ["model.unknown", "quad.e_deg", "Seed"]


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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["simulate", "check", "tables"]), config=config_texts(),
       threads=st.sampled_from(["1", "2"]), max_rows=st.sampled_from(["-1", "0", "3"]))
# A trial log that cannot be written, named after a report that can.
@example("simulate", "model.kind = bell_deterministic\n" + "".join(f"{k} = {v}\n" for k, v in QUAD.items())
         + "seed = 7\nn_trials = 1000\noutputs.trial_log = .\n", "1", "0")
def test_every_config_ends_in_a_documented_exit_code(command, config, threads, max_rows):
    with tempfile.TemporaryDirectory() as tmp:
        path, out_dir = os.path.join(tmp, "run.cfg"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config)
        argv = [command, "--config", path, "--out", out_dir, "--threads", threads]
        if command == "tables":
            argv += ["--max-rows", max_rows]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        written = [name for _, _, names in os.walk(out_dir) for name in names]
    err = stderr.getvalue()
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err
    if code:
        assert err.startswith(PREFIXES), err
        assert written == [], (code, err, written)
    else:
        assert err == ""
