"""CLI: config schema, exit codes, frozen output formats."""

import dataclasses
import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bell_lab.cli import (
    _ARRAY_MARK,
    ExperimentConfig,
    _Keyed,
    _write_json,
    config_digest,
    main,
    parse_config_text,
    serialize_config,
)
from bell_lab.errors import (
    AnticorrelationViolated,
    BellLabError,
    ConfigError,
    ContinuousLambdaUnorderable,
    InsufficientData,
    InvalidSpec,
    TooLarge,
    UnknownSetting,
    WorkerFailed,
)
from bell_lab.models import FAMILIES, BellDeterministic, DiscreteSource, UniformAngleSource
from bell_lab.simulate import _CSV_BLOCK_ROWS, TrialLog, run_experiment
from bell_lab.tables import KeyMode, Sum, Undefined, build_reordered_table, row_sums

DATA = Path(__file__).parent / "data"

MINIMAL = """
model.kind = bell_deterministic
quad.a_deg = 0
quad.b_deg = 45
quad.c_deg = 135
quad.d_deg = 90
n_trials = 1000
seed = 7
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- parsing -------------------------------------------------------------------


def test_parse_minimal():
    cfg = parse_config_text(MINIMAL)
    assert type(cfg.model) is BellDeterministic
    assert isinstance(cfg.model.source, UniformAngleSource)
    assert cfg.quad_deg == (0.0, 45.0, 135.0, 90.0)
    assert cfg.n_trials == 1000
    assert cfg.seed == 7
    assert cfg.outputs == {}


def test_parse_discrete_source_and_outputs():
    text = MINIMAL + "\nmodel.source.kind = discrete\nmodel.source.size = 16\noutputs.report = r.json\n"
    cfg = parse_config_text(text)
    assert cfg.model.source == DiscreteSource.uniform(16)
    assert cfg.outputs == {"report": "r.json"}


def test_parse_comments_and_blank_lines():
    cfg = parse_config_text("# header\n\n" + MINIMAL + "seed_comment_test = nothing".replace("seed_comment_test = nothing", "# trailing"))
    assert cfg.seed == 7


@pytest.mark.parametrize(
    "mutation,needle",
    [
        ("typo.key = 1", "typo.key"),
        ("n_trials = -5", "n_trials"),
        ("n_trials = many", "n_trials"),
        ("seed = -1", "seed"),
        ("quad.a_deg = inf", "quad.a_deg"),
        ("model.epsilon = 0.5", "model.epsilon"),  # not factorizable
        ("model.source.size = 4", "model.source.size"),  # without discrete kind
    ],
)
def test_parse_rejections_name_the_key(mutation, needle):
    lines = [ln for ln in MINIMAL.splitlines() if ln.strip()]
    if mutation.startswith(("n_trials", "seed")):
        lines = [ln for ln in lines if not ln.startswith(mutation.split(" ")[0])]
    if mutation.startswith("quad.a_deg"):
        lines = [ln for ln in lines if not ln.startswith("quad.a_deg")]
    text = "\n".join(lines + [mutation])
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert needle in str(exc.value)


def test_parse_duplicate_key():
    with pytest.raises(ConfigError) as exc:
        parse_config_text(MINIMAL + "\nseed = 8\n")
    assert "duplicate" in str(exc.value)
    assert "seed" in str(exc.value)


def test_parse_missing_required():
    text = "\n".join(ln for ln in MINIMAL.splitlines() if not ln.startswith("seed"))
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert "seed" in str(exc.value)


def test_parse_discrete_needs_exactly_one_of_size_weights():
    base = MINIMAL + "\nmodel.source.kind = discrete\n"
    with pytest.raises(ConfigError):
        parse_config_text(base)
    with pytest.raises(ConfigError):
        parse_config_text(base + "model.source.size = 4\nmodel.source.weights = 0.5 0.5\n")
    with pytest.raises(ConfigError):
        parse_config_text(base + "model.source.weights = 0.5 0.6\n")


def test_parse_epsilon_for_factorizable():
    text = MINIMAL.replace("bell_deterministic", "factorizable_instrument") + "\nmodel.epsilon = 0.25\n"
    cfg = parse_config_text(text)
    assert cfg.model.epsilon == 0.25
    with pytest.raises(ConfigError):
        parse_config_text(text.replace("0.25", "1.5"))


def test_round_trip_is_fixed_point():
    texts = [
        MINIMAL,
        MINIMAL + "\nmodel.source.kind = discrete\nmodel.source.weights = 0.125 0.375 0.5\noutputs.table = t.json\n",
        MINIMAL.replace("bell_deterministic", "factorizable_instrument") + "\nmodel.epsilon = 0.3\n",
        MINIMAL.replace("quad.a_deg = 0", "quad.a_deg = 33.125"),
    ]
    for text in texts:
        cfg = parse_config_text(text)
        cfg2 = parse_config_text(serialize_config(cfg))
        assert cfg2 == cfg
        assert serialize_config(cfg2) == serialize_config(cfg)
        assert config_digest(cfg2) == config_digest(cfg)


_SOURCES = st.one_of(
    st.just(UniformAngleSource()),
    st.integers(1, 64).map(DiscreteSource.uniform),
    st.lists(st.integers(0, 9), min_size=1, max_size=8)
    .filter(any)
    .map(lambda counts: DiscreteSource(tuple(k / sum(counts) for k in counts))),
)
_MODELS = st.builds(
    lambda family, source, epsilon: family(source, **{name: epsilon for name in family.parameters()}),
    st.sampled_from([FAMILIES[name] for name in sorted(FAMILIES)]),
    _SOURCES,
    st.floats(0.0, 1.0),
)
_CONFIGS = st.builds(
    ExperimentConfig,
    model=_MODELS,
    quad_deg=st.tuples(*[st.floats(-720.0, 720.0)] * 4),
    n_trials=st.integers(1, 10**9),
    seed=st.integers(0, 2**64 - 1),
    outputs=st.dictionaries(st.sampled_from(["trial_log", "report", "table"]), st.text("abc._-/", min_size=1)),
)


@settings(max_examples=200, deadline=None)
@given(_CONFIGS)
def test_config_digest_is_the_sha256_of_the_config_text(cfg):
    # hashlib is the oracle here: the package hashes with CPython's built-in sha256
    expected = hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
    assert config_digest(cfg) == "sha256:" + expected


@pytest.mark.parametrize(
    "weights",
    [
        (0.1,) * 5 + (0.0, 0.5, 0.0, -0.0, 0.0),  # repeated values, 0.0 and -0.0
        DiscreteSource.uniform(1000).weights,
    ],
    ids=["mixed", "uniform-1000"],
)
def test_serialized_weights_are_the_repr_of_each_weight(weights):
    cfg = parse_config_text(MINIMAL + "model.source.kind = discrete\nmodel.source.size = 2\n")
    cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, source=DiscreteSource(weights)))
    lines = [line for line in serialize_config(cfg).splitlines() if line.startswith("model.source.weights = ")]
    assert lines == ["model.source.weights = " + " ".join(repr(w) for w in weights)]


# Per family: its parameter lines, their report JSON, and the config digest of
# MINIMAL with that family and each source of FAMILY_SOURCES, as written before
# the families became classes.
FAMILY_CASES = {
    "bell_deterministic": ("", {}, {
        "angle": "sha256:81e09a40a54a4a70a9e8099c3302db49d62e4e34c3dab0044860dca6f2cbfc65",
        "discrete": "sha256:5a48a00bcb12faa53cd6554c70a57dd51daf8f32c4cdffa692144cdec36fdff9",
    }),
    "factorizable_instrument": ("model.epsilon = 0.3\n", {"epsilon": 0.3}, {
        "angle": "sha256:afcf2f74c056d5b6156cc0146ad969805e59cfcc1fa954a57b9fb0e955441b93",
        "discrete": "sha256:ac281c44a953247e591c873a08982afc28ce1304e7baad7567ad213a252b78f9",
    }),
    "time_tagged_anticorrelated": ("", {}, {
        "angle": "sha256:5e4b478754c18a8ff8f015b5e11487e876ff75ca83a0be312ac2a3432f347757",
        "discrete": "sha256:7f094c3749d2b18bdfbea36be7a3b087f354905f777c38c31a36ac6e4fdf5d5d",
    }),
    "setting_pair_dependent": ("", {}, {
        "angle": "sha256:bd27cd4ed29f1db9d34cf02d6291c700158d357e17ec3a6b03a1e031ddc4fe5c",
        "discrete": "sha256:6fdd3b98f7de4c4087c18d5b5bef7e96b7622700582cd1a52cafbab3c1a4779a",
    }),
}
FAMILY_SOURCES = {
    "angle": ("", {"kind": "uniform_angle"}),
    "discrete": (
        "model.source.kind = discrete\nmodel.source.weights = 0.25 0.75\n",
        {"kind": "discrete", "weights": [0.25, 0.75]},
    ),
}


@pytest.mark.parametrize("source", sorted(FAMILY_SOURCES))
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_family_round_trips_reports_its_parameters_and_owns_its_keys(tmp_path, capsys, name, source):
    param_lines, param_json, digests = FAMILY_CASES[name]
    source_lines, source_json = FAMILY_SOURCES[source]
    text = MINIMAL.replace("bell_deterministic", name) + param_lines + source_lines
    cfg = parse_config_text(text)
    assert parse_config_text(serialize_config(cfg)) == cfg
    assert serialize_config(parse_config_text(serialize_config(cfg))) == serialize_config(cfg)

    out = tmp_path / "out"
    assert main(["simulate", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["model"] == {"kind": name, "source": source_json, **param_json}
    assert report["config_digest"] == digests[source]

    if name != "factorizable_instrument":
        capsys.readouterr()
        bad = write_cfg(tmp_path, text + "model.epsilon = 0.25\n", "bad.cfg")
        assert main(["simulate", "--config", bad]) == 2
        line = len(text.splitlines()) + 1
        assert capsys.readouterr().err == (
            f"config error: only valid for model.kind = factorizable_instrument (key 'model.epsilon', line {line})\n"
        )


# --- exit codes ------------------------------------------------------------------


def test_simulate_minimal_exit_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["estimates"]) == 4
    assert report["seed"] == 7
    assert report["version"]
    assert report["config_digest"].startswith("sha256:")


def test_config_error_exit_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL.replace("n_trials = 1000", "n_trials = -1"))
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "n_trials" in err


def test_one_bad_weight_of_many_gives_a_short_error(tmp_path, capsys):
    weights = ["0.0001"] * 10**4
    weights[4321] = "-0.0001"
    source = "model.source.kind = discrete\nmodel.source.weights = " + " ".join(weights) + "\n"
    cfg = write_cfg(tmp_path, MINIMAL + source)
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert len(err) < 300 and len(err.strip().splitlines()) == 1, err
    assert "index 4321" in err and "model.source.weights" in err


def test_missing_config_file_exit_two(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize("command", ["simulate", "check", "tables"])
def test_config_file_that_is_not_text_exit_two(tmp_path, capsys, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"model.kind = bell_deterministic\nquad.a_deg = 0\xff\n")
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {str(cfg)!r}: ") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("key", ["trial_log", "report", "table"])
def test_a_nul_byte_in_an_output_path_is_a_config_error(key):
    with pytest.raises(ConfigError, match=f"NUL byte .key 'outputs.{key}', line 9"):
        parse_config_text(MINIMAL + f"outputs.{key} = a\0b.out\n")


@pytest.mark.parametrize("command", ["simulate", "check", "tables"])
def test_a_nul_byte_in_an_output_path_exits_two_without_traceback(tmp_path, command):
    cfg = tmp_path / "nul.cfg"
    cfg.write_text(MINIMAL + "outputs.report = a\0b.json\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    argv = [sys.executable, "-m", "bell_lab.cli", command, "--config", str(cfg), "--out", str(tmp_path / command)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "config error: an output path must not contain a NUL byte (key 'outputs.report', line 9)\n"


def test_check_premise_failure_exit_three(tmp_path, capsys, monkeypatch):
    # The pilot runs before any run of the model's trials, so a model that fails it
    # costs no run however long n_trials is.
    from bell_lab import simulate

    def no_run(*args):
        raise AssertionError("check ran the model's trials before its pilot")

    monkeypatch.setattr(simulate, "_run_blocks", no_run)
    text = MINIMAL.replace("bell_deterministic", "factorizable_instrument") + "\nmodel.epsilon = 0.5\n"
    cfg = write_cfg(tmp_path, text)
    assert main(["check", "--config", cfg]) == 3
    assert capsys.readouterr() == (
        "bell-lab check: factorizable_instrument\n",
        "model error: anticorrelation violated in 362 of 1000 pilot trials; the three-setting inequality "
        "presupposes A = -B at equal settings\n(the three-setting inequality is derived assuming perfect "
        "anticorrelation; a model that violates it at equal settings has no such statistic)\n",
    )


def test_check_refuses_setting_pair_dependent_exit_three(tmp_path, capsys, monkeypatch):
    # Its instruments read the trial's setting pair, which the equal-settings
    # pilot does not have: check refuses the model before any run, and writes no report.
    from bell_lab import simulate

    def no_run(*args):
        raise AssertionError("check ran the model's trials")

    monkeypatch.setattr(simulate, "_run_blocks", no_run)
    cfg = write_cfg(tmp_path, MINIMAL.replace("bell_deterministic", "setting_pair_dependent"))
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr() == (
        "bell-lab check: setting_pair_dependent\n",
        "model error: setting_pair_dependent has no equal-settings semantics; anticorrelation is not defined for it\n",
    )
    assert not (out / "check.json").exists()


def forbid_runs(monkeypatch):
    from bell_lab import simulate

    def no_run(*args):
        raise AssertionError("the command ran the model's trials")

    monkeypatch.setattr(simulate, "_run_blocks", no_run)


def test_tables_continuous_lambda_exit_four(tmp_path, capsys, monkeypatch):
    # The config names the source, so the precondition is checked before the run, whose
    # log alone would take 51 TB at 10**12 trials, and before the output path: an input
    # bad in both ways exits 4.
    forbid_runs(monkeypatch)
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    for n_trials in (1000, 10**12):
        cfg = write_cfg(tmp_path, MINIMAL.replace("n_trials = 1000", f"n_trials = {n_trials}"))
        assert main(["tables", "--config", cfg, "--key-mode", "lambda", "--out", str(a_file)]) == 4
        assert capsys.readouterr() == (
            "",
            "table precondition failed: lambda-keyed reordering needs a discrete source whose value set is much "
            "smaller than the number of trials; a continuous lambda never repeats\n",  # the cardinality precondition
        )


DISCRETE_16 = MINIMAL + "model.source.kind = discrete\nmodel.source.size = 16\n"
PILOT_FAILS = MINIMAL.replace("bell_deterministic", "factorizable_instrument") + "model.epsilon = 0.5\n"


@pytest.mark.parametrize(
    "config, argv",
    [
        (DISCRETE_16, ["simulate", "--sweep", "sweep.csv"]),
        (DISCRETE_16, ["check"]),
        (DISCRETE_16, ["check", "--quantum-reference"]),
        (PILOT_FAILS, ["check"]),  # the output path comes before the pilot: exit 2, not 3
        (DISCRETE_16, ["tables", "--key-mode", "lambda"]),
        (DISCRETE_16, ["tables", "--key-mode", "lambda-time"]),
        (None, ["oracle", "enumerate", "--m", "4"]),
        (None, ["oracle", "quantum", "--quad-deg", "0", "45", "135", "90"]),
        (None, ["oracle", "exact", "--model", "model.json", "--quad-deg", "0", "45", "135", "90"]),
    ],
    ids=["simulate", "check", "check-quantum", "check-pilot-fails", "tables-lambda", "tables-lambda-time",
         "oracle-enumerate", "oracle-quantum", "oracle-exact"],
)
def test_an_output_path_that_cannot_be_written_fails_before_the_command_runs_or_prints(
    tmp_path, capsys, monkeypatch, config, argv
):
    from bell_lab.core import SettingQuad
    from bell_lab.oracle import discretize_model, finite_model_to_json_obj

    forbid_runs(monkeypatch)
    monkeypatch.chdir(tmp_path)
    quad = SettingQuad.from_degrees(0, 45, 135, 90)
    fm = discretize_model(BellDeterministic(), [quad.a, quad.b, quad.c, quad.d], grid=8)
    (tmp_path / "model.json").write_text(json.dumps(finite_model_to_json_obj(fm)))
    if config is not None:
        argv = [argv[0], "--config", write_cfg(tmp_path, config), *argv[1:]]
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    assert main([*argv, "--out", str(a_file)]) == 2
    assert capsys.readouterr() == ("", f"output error: [Errno 17] File exists: {str(a_file)!r}\n")
    assert sorted(os.listdir(tmp_path)) == ["a-file", *(["exp.cfg"] if config else []), "model.json"]


def test_oracle_guard_exit_five(capsys):
    assert main(["oracle", "enumerate", "--m", "1000000"]) == 5


class _FutureError(BellLabError):
    """A BellLabError subtype that README's table does not name."""


@pytest.mark.parametrize(
    "error, code, stderr",
    [
        (ConfigError("bad value", key="seed", line=3), 2, "config error: bad value (key 'seed', line 3)\n"),
        (IsADirectoryError(21, "Is a directory", "out/."), 2, "output error: [Errno 21] Is a directory: 'out/.'\n"),
        (WorkerFailed("a worker process ended without its result (signal 9)"), 2,
         "worker error: a worker process ended without its result (signal 9)\n"),
        (MemoryError(), 2, "memory error: not enough memory for this run (allocation failed)\n"),
        (MemoryError("Unable to allocate 74.5 GiB"), 2,
         "memory error: not enough memory for this run (Unable to allocate 74.5 GiB)\n"),
        (AnticorrelationViolated(362, 1000), 3,
         "model error: anticorrelation violated in 362 of 1000 pilot trials; the three-setting inequality "
         "presupposes A = -B at equal settings\n(the three-setting inequality is derived assuming perfect "
         "anticorrelation; a model that violates it at equal settings has no such statistic)\n"),
        (InvalidSpec("epsilon must be in [0, 1)"), 3, "model error: epsilon must be in [0, 1)\n"),
        (InsufficientData(1, 1), 3,
         "model error: pair_id 1 has 1 trial(s); need at least 2 for a standard error\n"),
        (UnknownSetting("no detector column for setting 30 deg"), 3,
         "model error: no detector column for setting 30 deg\n"),
        (ContinuousLambdaUnorderable("a continuous lambda never repeats"), 4,
         "table precondition failed: a continuous lambda never repeats\n"),
        (TooLarge("too many cells"), 5, "size guard: too many cells\n"),
        (_FutureError("something new"), 3, "error: something new\n"),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, BaseException) else None,
)
def test_each_error_ends_in_its_exit_code_and_message(monkeypatch, capsys, error, code, stderr):
    # README's exit-code table, row by row: a command that raises the error exits with its
    # code and prints exactly its message, and nothing on stdout.
    from bell_lab import cli

    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_oracle", failing)
    assert main(["oracle", "quantum", "--quad-deg", "0", "45", "135", "90"]) == code
    assert capsys.readouterr() == ("", stderr)


@pytest.mark.parametrize(
    "case",
    [
        "threads-zero",
        "env-threads-text",
        "env-threads-zero",
        "model-missing",
        "model-not-json",
        "model-wrong-schema",
        "per-pair-missing",
        "model-weights-sum-0.9",
        "model-a-table-shape",
        "model-a-table-entry-2",
        "model-a-table-entry-300",
        "per-pair-invalid",
        "out-is-a-file",
        "quad-deg-nan",
        "enumerate-m-zero",
        "enumerate-m-negative",
        "enumerate-one-setting",
        "tables-max-rows-negative",
        "simulate-trials-1e15",
        "check-trials-1e15",
        "tables-trials-1e15",
        "source-size-1e15",
    ],
)
def test_bad_threads_and_oracle_files_exit_two_without_traceback(tmp_path, case):
    from bell_lab.core import SettingQuad
    from bell_lab.oracle import discretize_model, finite_model_to_json_obj

    cfg = write_cfg(tmp_path, MINIMAL)
    quad = SettingQuad.from_degrees(0, 45, 135, 90)
    valid = tmp_path / "valid.json"
    fm = discretize_model(BellDeterministic(), [quad.a, quad.b, quad.c, quad.d], grid=8)
    valid.write_text(json.dumps(finite_model_to_json_obj(fm)))
    invalid = {}  # a finite model that parses as JSON but is not a valid model
    for name, edit in {
        "weights": lambda obj: obj["lambda_weights"].__setitem__(0, obj["lambda_weights"][0] - 0.1),
        "shape": lambda obj: obj["a_table"][0].pop(),
        "entry-2": lambda obj: obj["a_table"][0][0].__setitem__(0, 2),
        "entry-300": lambda obj: obj["a_table"][0][0].__setitem__(0, 300),
    }.items():
        obj = finite_model_to_json_obj(fm)
        edit(obj)
        invalid[name] = tmp_path / f"invalid-{name}.json"
        invalid[name].write_text(json.dumps(obj))
    not_json = tmp_path / "not.json"
    not_json.write_text("{ not json")
    wrong_schema = tmp_path / "wrong.json"
    wrong_schema.write_text('{"schema": "bell-lab.report.v1"}')
    missing = tmp_path / "missing.json"
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    quad_args = ["--quad-deg", "0", "45", "135", "90"]
    # 10**15 trials exceed the config's bound on the run length; 10**15 source
    # values exceed the address space, so their allocation fails at once.
    huge = write_cfg(tmp_path, MINIMAL.replace("n_trials = 1000", f"n_trials = {10**15}"), "huge.cfg")
    huge_source = write_cfg(
        tmp_path, MINIMAL + f"model.source.kind = discrete\nmodel.source.size = {10**15}\n", "huge-source.cfg"
    )
    memory = "memory error: not enough memory for this run"
    too_long = (
        "config error: n_trials must be between 1 and 1,000,000,000,000, got 1000000000000000 (key 'n_trials', line 7)"
    )

    simulate = ["simulate", "--config", cfg]
    argv, env_threads, named = {
        "threads-zero": (simulate + ["--threads", "0"], None, None),
        "env-threads-text": (simulate, "x", None),
        "env-threads-zero": (simulate, "0", None),
        "model-missing": (["oracle", "exact", "--model", str(missing), *quad_args], None, missing),
        "model-not-json": (["oracle", "exact", "--model", str(not_json), *quad_args], None, not_json),
        "model-wrong-schema": (["oracle", "exact", "--model", str(wrong_schema), *quad_args], None, wrong_schema),
        "per-pair-missing": (
            ["oracle", "exact", "--model", str(valid), *quad_args, "--per-pair", str(valid), str(missing),
             str(valid), str(valid)],
            None,
            missing,
        ),
        "model-weights-sum-0.9": (
            ["oracle", "exact", "--model", str(invalid["weights"]), *quad_args], None, invalid["weights"]
        ),
        "model-a-table-shape": (["oracle", "exact", "--model", str(invalid["shape"]), *quad_args], None, invalid["shape"]),
        "model-a-table-entry-2": (
            ["oracle", "exact", "--model", str(invalid["entry-2"]), *quad_args], None, invalid["entry-2"]
        ),
        "model-a-table-entry-300": (
            ["oracle", "exact", "--model", str(invalid["entry-300"]), *quad_args], None, invalid["entry-300"]
        ),
        "per-pair-invalid": (
            ["oracle", "exact", "--model", str(valid), *quad_args, "--per-pair", str(valid), str(valid),
             str(invalid["entry-2"]), str(valid)],
            None,
            invalid["entry-2"],
        ),
        "out-is-a-file": (simulate + ["--out", str(a_file)], None, a_file),
        "quad-deg-nan": (["oracle", "quantum", "--quad-deg", "0", "45", "nan", "90"], None, None),
        "enumerate-m-zero": (["oracle", "enumerate", "--m", "0"], None, None),
        "enumerate-m-negative": (["oracle", "enumerate", "--m", "-3"], None, None),
        "enumerate-one-setting": (["oracle", "enumerate", "--m", "2", "--settings1", "1"], None, None),
        "tables-max-rows-negative": (["tables", "--config", cfg, "--max-rows", "-1"], None, None),
        "simulate-trials-1e15": (["simulate", "--config", huge], None, too_long),
        "check-trials-1e15": (["check", "--config", huge], None, too_long),
        "tables-trials-1e15": (["tables", "--config", huge], None, too_long),
        "source-size-1e15": (["simulate", "--config", huge_source], None, memory),
    }[case]
    env = {k: v for k, v in os.environ.items() if k != "BELL_LAB_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
    if env_threads is not None:
        env["BELL_LAB_THREADS"] = env_threads
    proc = subprocess.run(
        [sys.executable, "-m", "bell_lab.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    if named is not None:
        assert str(named) in proc.stderr


# --- command outputs -----------------------------------------------------------------


_NO_OPENSSL_SCRIPT = """
import json, sys
from bell_lab.cli import main

for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded = sorted({"_hashlib", "_ssl", "ssl"} & sys.modules.keys())
    assert not loaded, f"{argv} loaded {loaded}"
"""


def test_no_command_loads_openssl(tmp_path):
    from bell_lab.core import SettingQuad
    from bell_lab.oracle import discretize_model, finite_model_to_json_obj

    quad = SettingQuad.from_degrees(0, 45, 135, 90)
    model = tmp_path / "model.json"
    fm = discretize_model(BellDeterministic(), [quad.a, quad.b, quad.c, quad.d], grid=8)
    model.write_text(json.dumps(finite_model_to_json_obj(fm)))
    # more trials than one runner block, so --threads 2 forks
    text = MINIMAL.replace("n_trials = 1000", "n_trials = 20000")
    cfg = write_cfg(tmp_path, text + "model.source.kind = discrete\nmodel.source.size = 16\noutputs.trial_log = t.csv\n")
    check_cfg = write_cfg(tmp_path, MINIMAL.replace("bell_deterministic", "time_tagged_anticorrelated"), "check.cfg")
    quad_args = ["--quad-deg", "0", "45", "135", "90"]
    commands = [
        *(
            ["simulate", "--config", cfg, "--out", str(tmp_path / f"s{threads}"), "--threads", str(threads),
             "--sweep", str(tmp_path / f"sweep{threads}.csv"), "--convergence", str(tmp_path / f"conv{threads}.csv")]
            for threads in (1, 2)
        ),
        ["check", "--config", check_cfg, "--out", str(tmp_path / "c")],
        *(["tables", "--config", cfg, "--out", str(tmp_path / mode), "--key-mode", mode]
          for mode in ("lambda", "lambda-time")),
        ["oracle", "enumerate", "--m", "2"],
        ["oracle", "quantum", *quad_args],
        ["oracle", "exact", "--model", str(model), *quad_args],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    argv = [sys.executable, "-c", _NO_OPENSSL_SCRIPT, json.dumps(commands)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_MODULES_SCRIPT = """
import json, os, sys, traceback
from bell_lab.cli import main

lazy = {"bell_lab.oracle", "bell_lab.tables"}
assert not lazy & sys.modules.keys(), sorted(lazy & sys.modules.keys())
failed = []
for argv, expected in json.loads(sys.argv[1]):
    pid = os.fork()  # each command starts from the modules that importing cli loaded
    if pid == 0:
        code = 1
        try:
            rc = main(argv)
            loaded = sorted(lazy & sys.modules.keys())
            if rc == 0 and loaded == expected:
                code = 0
            else:
                print(f"{argv}: exit {rc}, loaded {loaded}, expected {expected}", file=sys.stderr)
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _pid, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status):
        failed.append(argv)
assert not failed, failed
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    from bell_lab.core import SettingQuad
    from bell_lab.oracle import discretize_model, finite_model_to_json_obj

    quad = SettingQuad.from_degrees(0, 45, 135, 90)
    model = tmp_path / "model.json"
    fm = discretize_model(BellDeterministic(), [quad.a, quad.b, quad.c, quad.d], grid=8)
    model.write_text(json.dumps(finite_model_to_json_obj(fm)))
    # more trials than one runner block, so --threads 2 forks
    text = MINIMAL.replace("n_trials = 1000", "n_trials = 20000")
    cfg = write_cfg(tmp_path, text + "model.source.kind = discrete\nmodel.source.size = 16\noutputs.trial_log = t.csv\n")
    check_cfg = write_cfg(tmp_path, MINIMAL.replace("bell_deterministic", "time_tagged_anticorrelated"), "check.cfg")
    quad_args = ["--quad-deg", "0", "45", "135", "90"]
    oracle, tables = ["bell_lab.oracle"], ["bell_lab.tables"]
    commands = [
        *(
            (["simulate", "--config", cfg, "--out", str(tmp_path / f"s{threads}"), "--threads", str(threads),
              "--sweep", str(tmp_path / f"sweep{threads}.csv"), "--convergence", str(tmp_path / f"conv{threads}.csv")],
             [])
            for threads in (1, 2)
        ),
        (["check", "--config", check_cfg, "--out", str(tmp_path / "c")], []),
        (["check", "--config", check_cfg, "--out", str(tmp_path / "q"), "--quantum-reference"], oracle),
        *((["tables", "--config", cfg, "--out", str(tmp_path / mode), "--key-mode", mode], tables)
          for mode in ("lambda", "lambda-time")),
        (["oracle", "enumerate", "--m", "2"], oracle),
        (["oracle", "quantum", *quad_args], oracle),
        (["oracle", "exact", "--model", str(model), *quad_args], oracle),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    argv = [sys.executable, "-c", _MODULES_SCRIPT, json.dumps(commands)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def unfreeze():
    yield
    gc.unfreeze()


def test_command_entry_freezes_the_heap_before_main(monkeypatch, unfreeze):
    from bell_lab import cli

    counts = []

    def main(argv=None):
        counts.append(gc.get_freeze_count())
        return 7

    monkeypatch.setattr(cli, "main", main)
    assert cli.entry() == 7
    assert len(counts) == 1 and counts[0] > 0


def test_main_never_freezes_the_heap(tmp_path, capsys):
    before = gc.get_freeze_count()
    assert main(["oracle", "quantum", "--quad-deg", "0", "45", "135", "90"]) == 0
    assert main(["simulate", "--config", write_cfg(tmp_path, MINIMAL), "--out", str(tmp_path / "out")]) == 0
    assert gc.get_freeze_count() == before


def test_module_entry_runs_cli_once():
    # runpy warns, and runs cli's body a second time, if importing the package has already imported cli
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "bell_lab.cli", "oracle", "quantum",
            "--quad-deg", "0", "45", "135", "90"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["operation"] == "quantum"


def test_setting_pair_dependent_report(tmp_path):
    text = MINIMAL.replace("bell_deterministic", "setting_pair_dependent").replace(
        "n_trials = 1000", "n_trials = 64"
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["chsh"]["value"] == 4.0
    assert report["chsh"]["std_error"] == 0.0
    assert report["chsh"]["flags"]["setting_dependent_distribution"] is True


def test_check_deterministic_model_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL.replace("n_trials = 1000", "n_trials = 20000"))
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 2
    report = json.loads((out / "check.json").read_text())
    assert report["bell"]["verdict"] == "PASS"
    assert report["chsh"]["verdict"] == "PASS"


def test_check_quantum_reference_violates(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--quantum-reference", "--out", str(out)]) == 0
    report = json.loads((out / "check.json").read_text())
    assert report["chsh"]["verdict"] == "VIOLATION"
    assert report["chsh"]["value"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert report["bell"]["verdict"] == "VIOLATION"


def test_check_quantum_reference_negative_side_violates(tmp_path, capsys):
    # S = -2*sqrt(2) breaks the two-sided local bound |S| <= 2
    cfg = write_cfg(tmp_path, MINIMAL.replace("quad.b_deg = 45", "quad.b_deg = 225").replace(
        "quad.c_deg = 135", "quad.c_deg = 315"))
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--quantum-reference", "--out", str(out)]) == 0
    report = json.loads((out / "check.json").read_text())
    assert report["chsh"]["value"] == pytest.approx(-2 * math.sqrt(2), abs=1e-12)
    assert report["chsh"]["verdict"] == "VIOLATION"
    assert "four-term bound <= 2: VIOLATION" in capsys.readouterr().out


def _separate_runs(spec, runs, threads=None):
    """check's runs evaluated apart: one ``run_sums`` call, and one pass, per run."""
    from bell_lab import simulate

    return [simulate.run_sums(spec, pairs, len(trials), seed, threads)[-1] for pairs, trials, seed in runs]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("source", ["", "model.source.kind = discrete\nmodel.source.size = 16\n"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_check_shared_pass_equals_separate_runs(tmp_path, capsys, monkeypatch, family, source, threads):
    # check evaluates its three-pair and four-pair runs in one pass over shared blocks;
    # its report, stdout, stderr and exit code are those of two separate runs.
    from bell_lab import cli

    text = MINIMAL.replace("bell_deterministic", family).replace("n_trials = 1000", "n_trials = 20001") + source
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"

    def check() -> tuple:
        code = main(["check", "--config", cfg, "--out", str(out), "--threads", str(threads)])
        report = out / "check.json"
        return code, capsys.readouterr(), report.read_bytes() if report.exists() else None

    shared = check()
    with monkeypatch.context() as m:
        m.setattr(cli, "run_sums_each", _separate_runs)
        assert check() == shared
    assert shared[0] == (3 if family == "setting_pair_dependent" else 0)


@pytest.mark.parametrize("family", ["bell_deterministic", "factorizable_instrument", "time_tagged_anticorrelated"])
def test_check_hashes_each_die_and_source_word_once(tmp_path, capsys, monkeypatch, family):
    # One pass: every trial's die and source words are hashed once, although two runs
    # read them; the instrument words are those of two separate runs.
    from bell_lab import cli, rng

    n = 20001
    cfg = write_cfg(tmp_path, MINIMAL.replace("bell_deterministic", family).replace("n_trials = 1000", f"n_trials = {n}"))
    hash_words = rng.hash_words

    def traced() -> tuple[Counter, Counter]:
        per_label, per_word = Counter(), Counter()

        def counting(seed, label, indices, draw=0):
            words = hash_words(seed, label, indices, draw)
            per_label[label] += words.size
            if seed == 7 and label in ("die", "source"):  # the config's seed, not the pilot's
                per_word.update((label, i) for i in np.ravel(indices).tolist())
            return words

        with monkeypatch.context() as m:
            m.setattr(rng, "hash_words", counting)
            assert main(["check", "--config", cfg, "--threads", "1"]) == 0
        return per_label, per_word

    per_label, per_word = traced()
    assert per_word == Counter((label, i) for label in ("die", "source") for i in range(n))
    with monkeypatch.context() as m:
        m.setattr(cli, "run_sums_each", _separate_runs)
        separate, _ = traced()
    assert separate["die"] == separate["source"] - 1000 == 2 * n  # the pilot draws 1000 source words
    assert {k: v for k, v in per_label.items() if k not in ("die", "source")} == {
        k: v for k, v in separate.items() if k not in ("die", "source")
    }


def test_tables_command_discrete(tmp_path, capsys):
    text = MINIMAL + "\nmodel.source.kind = discrete\nmodel.source.size = 4\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["tables", "--config", cfg, "--key-mode", "lambda", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "row-sum histogram" in stdout
    assert "balance check: max |z|" in stdout
    obj = json.loads((out / "table.json").read_text())
    assert obj["table"]["schema"] == "bell-lab.outcome-table.v2"
    assert obj["lln_balance"] is not None
    assert set(obj["row_sum_histogram"]) <= {"-2", "2"}


def test_tables_command_lambda_time(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["tables", "--config", cfg, "--key-mode", "lambda-time", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "undefined row sums: 1000" in stdout
    obj = json.loads((out / "table.json").read_text())
    assert obj["table"]["complete_rows"] == 0
    assert obj["undefined_row_sums"] == 1000


@pytest.mark.parametrize(
    "source, mode, counts",
    [("discrete", "lambda", 1), ("discrete", "lambda-time", 1), ("angle", "lambda-time", 0)],
)
def test_tables_counts_the_lambda_pair_groups_once(tmp_path, capsys, monkeypatch, source, mode, counts):
    # lln_balance_check is the one (lambda, pair) counter: a lambda-mode table is cut from
    # its report, and the command reads the report from the table instead of counting again.
    from bell_lab import tables

    counted = []
    balance_check = tables.lln_balance_check
    monkeypatch.setattr(tables, "lln_balance_check", lambda log: counted.append(len(log)) or balance_check(log))
    cfg = write_cfg(tmp_path, MINIMAL + _TABLE_SOURCES[source])
    assert main(["tables", "--config", cfg, "--key-mode", mode, "--out", str(tmp_path)]) == 0
    assert counted == [1000] * counts
    assert ("balance check: max |z|" in capsys.readouterr().out) == bool(counts)


@pytest.mark.parametrize(
    "name, source, mode",
    [
        (name, source, mode)
        for name in sorted(FAMILIES)
        for source in ("angle", "discrete")
        for mode in ("lambda", "lambda-time")
        if (source, mode) != ("angle", "lambda")  # exit 4: a continuous lambda never repeats
    ],
)
def test_tables_json_counts_are_a_count_over_row_sums(tmp_path, name, source, mode):
    text = MINIMAL.replace("bell_deterministic", name) + FAMILY_CASES[name][0]
    if source == "discrete":
        text += "model.source.kind = discrete\nmodel.source.size = 16\n"
    out = tmp_path / "out"
    assert main(["tables", "--config", write_cfg(tmp_path, text), "--key-mode", mode, "--out", str(out)]) == 0
    obj = json.loads((out / "table.json").read_text())
    cfg = parse_config_text(text)
    sums = row_sums(build_reordered_table(run_experiment(cfg.model, cfg.quad, cfg.n_trials, cfg.seed), KeyMode(mode)))
    assert obj["row_sum_histogram"] == dict(Counter(str(s.value) for s in sums if isinstance(s, Sum)))
    assert obj["undefined_row_sums"] == sum(isinstance(s, Undefined) for s in sums)


_TABLE_SOURCES = {
    "angle": "",
    "discrete": "model.source.kind = discrete\nmodel.source.size = 16\n",
    "discrete-5000": "model.source.kind = discrete\nmodel.source.size = 5000\n",  # "1000" sorts before "2"
    "zero-weight": "model.source.kind = discrete\nmodel.source.weights = 0.25 0 0.75\n",  # lambda = 1 never drawn
}


@pytest.mark.parametrize("n_trials", [3, 2 * _CSV_BLOCK_ROWS + 3], ids=["3", "two-blocks-and-3"])
@pytest.mark.parametrize(
    "name, source, mode",
    [
        ("bell_deterministic", "discrete", "lambda"),
        ("bell_deterministic", "discrete", "lambda-time"),
        ("factorizable_instrument", "angle", "lambda-time"),
        ("setting_pair_dependent", "discrete", "lambda"),
        ("setting_pair_dependent", "discrete", "lambda-time"),
        ("bell_deterministic", "discrete-5000", "lambda"),
        ("bell_deterministic", "discrete-5000", "lambda-time"),
        ("bell_deterministic", "zero-weight", "lambda"),
        ("bell_deterministic", "zero-weight", "lambda-time"),
    ],
)
def test_table_json_is_the_compact_dump_of_the_table_lists(tmp_path, name, source, mode, n_trials):
    text = MINIMAL.replace("bell_deterministic", name).replace("n_trials = 1000", f"n_trials = {n_trials}")
    text += FAMILY_CASES[name][0] + _TABLE_SOURCES[source]
    out = tmp_path / "out"
    assert main(["tables", "--config", write_cfg(tmp_path, text), "--key-mode", mode, "--out", str(out)]) == 0
    written = (out / "table.json").read_text()

    cfg = parse_config_text(text)
    log = run_experiment(cfg.model, cfg.quad, cfg.n_trials, cfg.seed)
    table = build_reordered_table(log, KeyMode(mode))
    reference = json.loads(written)
    reference["table"] = {
        "schema": "bell-lab.outcome-table.v2",
        "key_mode": mode,
        "complete_rows": table.complete_rows,
        "leftover_trials": table.leftover_trials,
        "n_trials": n_trials,
        "lambda": table.lam.tolist(),
        "cells": table.rows.tolist(),
    }
    if table.t is not None:
        reference["table"]["t"] = table.t.tolist()
    assert written == json.dumps(reference, separators=(",", ":"), sort_keys=True) + "\n"
    if mode == "lambda" and n_trials == 3:
        assert '"cells":[]' in written  # no lambda value met all four pairs
    if (name, mode) == ("setting_pair_dependent", "lambda") and n_trials > 3:
        assert reference["row_sum_histogram"] == {"4": table.complete_rows} and table.complete_rows > 0
    if source != "angle":  # each lambda value's trials on each pair, counted from the log itself
        groups = Counter(zip(log.lam.tolist(), log.pair_id.tolist()))
        counts = {str(v): [groups[v, k] for k in range(4)] for v in set(log.lam.tolist())}
        assert reference["lln_balance"]["per_key_pair_counts"] == counts
        keys = [int(k) for k in counts]
        if source == "discrete-5000" and n_trials > 3:
            assert sorted(keys, key=str) != sorted(keys)  # so the file's key order is not numeric
        if source == "zero-weight":
            assert 1 not in keys


def _as_lists(value):
    """What ``_write_json`` writes for an array or a keyed object, as Python lists and dicts."""
    if isinstance(value, _Keyed):
        return dict(zip(map(str, value.keys.tolist()), value.values.tolist()))
    return value.tolist()


def test_compact_json_writes_each_array_as_the_dump_of_its_list(tmp_path):
    rows = 2 * _CSV_BLOCK_ROWS + 3
    keys = np.array([-10, 2, -1, 10, 0, 1000, -(2**63), 2**63 - 1, 7, -2], dtype=np.int64)
    obj = {
        "e": "text",
        "floats": np.array([0.1, -0.0, 0.0, 1e300, 2.5, 5e-324, 1 / 3]),
        "repeated": np.tile([0.1, -0.0, 0.0, 6.0], rows),  # few distinct values: formatted once each
        "nested": [np.arange(5, dtype=np.int64), {"empty": np.zeros((0, 4), dtype=np.int8)}],
        "cells": np.tile(np.array([[1, -1, 0, 0], [0, 0, -1, 1]], dtype=np.int8), (rows, 1)),
        "lam": np.arange(rows, dtype=np.int64) % 16,
        # 2-D blocks whose rows are all distinct, and ones with three distinct rows
        "int8 rows": np.random.default_rng(5).permutation(2**16)[:rows].astype(np.uint16).view(np.int8).reshape(rows, 2),
        "int64 rows": np.arange(4 * rows, dtype=np.int64).reshape(rows, 4) * -(2**40) + 3,
        "float rows": np.random.default_rng(6).normal(size=(rows, 3)) * 10.0 ** np.arange(-4, 2, 2),
        "three int8 rows": np.array([[1, -1], [-128, 127], [0, 0]], dtype=np.int8)[np.arange(rows) % 3],
        "three int64 rows": np.array([[-(2**63), 0, 9], [2**63 - 1, -1, 10], [7, 7, 7]], dtype=np.int64)[np.arange(rows) % 3],
        "three float rows": np.array([[0.1, -0.0], [0.0, 5e-324], [1e16, 1e-5]])[np.arange(rows) % 3],
        # keyed objects: keys in text order, "-1" < "-10" < "-2" < "0" < "10" < "1000" < "2"
        "keyed rows": _Keyed(keys, np.arange(4 * len(keys), dtype=np.int64).reshape(-1, 4) - 7),
        "keyed numbers": _Keyed(keys[::-1], np.linspace(-1, 1, len(keys))),
        "keyed across blocks": _Keyed(np.arange(rows, dtype=np.int64)[::-1] - rows // 2, np.arange(rows) % 3),
        "keyed empty": [_Keyed(np.zeros(0, dtype=np.int64), np.zeros((0, 4), dtype=np.int64))],
    }
    path = tmp_path / "obj.json"
    _write_json(str(path), obj, compact=True)
    expected = json.dumps(obj, separators=(",", ":"), sort_keys=True, default=_as_lists)
    assert '"keyed empty":[{}]' in expected
    for name in ("int8 rows", "int64 rows", "float rows"):
        assert len(np.unique(obj[name], axis=0)) == rows, name
    assert path.read_text() == expected + "\n"
    with pytest.raises(ValueError, match="array mark"):
        _write_json(str(path), {"s": _ARRAY_MARK, "a": np.zeros(1)}, compact=True)
    with pytest.raises(TypeError, match="not JSON serializable"):
        _write_json(str(path), {"s": {1, 2}}, compact=True)


def test_indented_json_writes_each_array_as_the_dump_of_its_list(tmp_path):
    rows = 2 * _CSV_BLOCK_ROWS + 3
    floats = np.array([0.1, -0.0, 0.0, 1e300, 2.5, 5e-324, 1 / 3])
    obj = {
        "e": "text",
        "floats": floats,
        "ints": np.arange(-3, 4, dtype=np.int64),
        "empty": np.zeros(0),
        "long": np.tile(floats, rows),
        "nested": [np.arange(5, dtype=np.int64), {"deeper": {"floats": floats, "empty": np.zeros(0, dtype=np.int64)}}],
        "keyed": {
            "numbers": _Keyed(np.array([10, -3, 2, -30]), floats[:4]),
            "empty": _Keyed(np.zeros(0, dtype=np.int64), floats[:0]),
        },
    }
    path = tmp_path / "obj.json"
    _write_json(str(path), obj)
    assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True, default=_as_lists) + "\n"


@pytest.mark.parametrize(
    "source",
    ["model.source.weights = -0 1", "model.source.weights = 0.25 0 0.75", "model.source.size = 100000"],
)
@pytest.mark.parametrize("command, report", [("simulate", "report.json"), ("check", "check.json")])
def test_reports_are_the_indented_dump_of_their_own_text(tmp_path, capsys, command, report, source):
    cfg = write_cfg(tmp_path, MINIMAL + "model.source.kind = discrete\n" + source + "\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / report).read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_oracle_enumerate_certificate(tmp_path, capsys):
    assert main(["oracle", "enumerate", "--m", "4", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert (tmp_path / "oracle-enumerate.json").read_text() == printed  # the same text, serialized once
    record = json.loads(printed)
    assert record["operation"] == "enumerate"
    assert record["value"] == 2.0
    assert record["inputs_digest"].startswith("sha256:")
    assert record["certificate"]["vertices_scanned"] == 16
    assert [facet["max"] for facet in record["certificate"]["facets"]] == [2] * 8


def test_oracle_out_goes_after_the_operation(tmp_path, capsys):
    # The oracle group takes no options of its own, so --out before the
    # operation is a usage error, not a run that exits 0 and writes nothing.
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--out", str(tmp_path), "enumerate", "--m", "2"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []
    assert main(["oracle", "enumerate", "--m", "2", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "oracle-enumerate.json").read_text() == capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--m", "2"], ["quantum", "--quad-deg", "0", "45", "135", "90"]],
    ids=["enumerate", "quantum"],
)
def test_oracle_operations_take_no_threads(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", *argv, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_oracle_quantum_certificate(capsys):
    assert main(["oracle", "quantum", "--quad-deg", "0", "45", "135", "90"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)


def test_oracle_exact_with_model_file(tmp_path, capsys):
    from bell_lab.core import SettingQuad
    from bell_lab.oracle import discretize_model, finite_model_to_json_obj

    quad = SettingQuad.from_degrees(0, 45, 135, 90)
    fm = discretize_model(BellDeterministic(), [quad.a, quad.b, quad.c, quad.d], grid=360)
    path = tmp_path / "fm.json"
    path.write_text(json.dumps(finite_model_to_json_obj(fm)))
    assert main(["oracle", "exact", "--model", str(path), "--quad-deg", "0", "45", "135", "90"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == 2.0


def test_oracle_exact_digest_identifies_the_loaded_models(tmp_path, capsys):
    from bell_lab.core import SettingQuad
    from bell_lab.oracle import discretize_model, finite_model_to_json_obj

    quad = SettingQuad.from_degrees(0, 45, 135, 90)
    fm = discretize_model(BellDeterministic(DiscreteSource.uniform(8)), [quad.a, quad.b, quad.c, quad.d])
    text = json.dumps(finite_model_to_json_obj(fm))
    paths = []
    for sub in ("one", "two"):
        (tmp_path / sub).mkdir()
        paths.append(tmp_path / sub / "fm.json")
        paths[-1].write_text(text)

    def digest(model, *per_pair) -> str:
        argv = ["oracle", "exact", "--model", str(model), "--quad-deg", "0", "45", "135", "90"]
        assert main(argv + (["--per-pair", *map(str, per_pair)] if per_pair else [])) == 0
        return json.loads(capsys.readouterr().out)["inputs_digest"]

    # The same model in two directories, as the model or as an override, gives one digest.
    assert digest(paths[0]) == digest(paths[1])
    assert digest(paths[0], *[paths[0]] * 4) == digest(paths[1], paths[0], paths[1], paths[0], paths[1])
    assert digest(paths[0], *[paths[0]] * 4) != digest(paths[0])
    # A file edited in place gives a new digest.
    before = digest(paths[0])
    obj = json.loads(text)
    obj["a_table"][0][0][0] = -obj["a_table"][0][0][0]
    paths[0].write_text(json.dumps(obj))
    assert digest(paths[0]) != before


def test_oracle_exact_matches_settings_modulo_full_turn(tmp_path, capsys):
    from bell_lab.core import SettingQuad
    from bell_lab.oracle import discretize_model, finite_model_to_json_obj

    # radians(361) normalizes to a float a few ulps away from radians(1)
    quad = SettingQuad.from_degrees(1, 45, 135, 90)
    fm = discretize_model(BellDeterministic(DiscreteSource.uniform(8)), [quad.a, quad.b, quad.c, quad.d])
    path = tmp_path / "fm.json"
    path.write_text(json.dumps(finite_model_to_json_obj(fm)))
    values = []
    for a_deg in ("1", "361"):
        assert main(["oracle", "exact", "--model", str(path), "--quad-deg", a_deg, "45", "135", "90"]) == 0
        values.append(json.loads(capsys.readouterr().out)["value"])
    assert values[0] == values[1]


def test_oracle_exact_refuses_a_model_file_with_two_columns_on_one_setting(tmp_path, capsys):
    from bell_lab.core import SettingQuad
    from bell_lab.oracle import discretize_model, finite_model_to_json_obj

    quad = SettingQuad.from_degrees(1, 45, 135, 90)
    obj = finite_model_to_json_obj(discretize_model(BellDeterministic(), [quad.a, quad.b, quad.c, quad.d], grid=8))
    obj["b_settings_rad"].append(math.radians(405))  # the grid point of 45 deg
    obj["b_table"].append(obj["b_table"][0])
    path = tmp_path / "fm.json"
    path.write_text(json.dumps(obj))
    assert main(["oracle", "exact", "--model", str(path), "--quad-deg", "1", "45", "135", "90"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err and "b_settings_rad has two columns at 45 deg" in captured.err


_BOOLEAN = "the file holds a boolean (true or false) where a number belongs"


def _set_first_a_cell(value):
    return lambda obj: obj["a_table"][0][0].__setitem__(0, value)


@pytest.mark.parametrize(
    "edit, what",
    [
        (_set_first_a_cell(1.9), "a_table[Setting(angle=0.0)] entries must be +1 or -1"),
        (_set_first_a_cell(-1.5), "a_table[Setting(angle=0.0)] entries must be +1 or -1"),
        (_set_first_a_cell(True), _BOOLEAN),
        (lambda obj: obj.__setitem__("lambda_weights", [True, False]), _BOOLEAN),
        (lambda obj: obj.__setitem__("ip1_weights", [[True], [True]]), _BOOLEAN),
        (lambda obj: obj["a_settings_rad"].__setitem__(1, True), _BOOLEAN),
    ],
    ids=["cell-1.9", "cell-minus-1.5", "cell-true", "lambda-weights-true-false", "ip1-weights-true", "setting-true"],
)
def test_oracle_exact_refuses_a_model_file_with_a_float_cell_or_a_boolean(tmp_path, capsys, edit, what):
    from bell_lab.core import SettingQuad
    from bell_lab.oracle import discretize_model, finite_model_to_json_obj

    # two lambda values, so that [true, false] sums to 1 as weights; the 45 deg column
    # of a_table, which station 1 never reads, is the one whose angle becomes true
    quad = SettingQuad.from_degrees(0, 45, 135, 90)
    fm = discretize_model(BellDeterministic(DiscreteSource.uniform(2)), [quad.a, quad.b, quad.c, quad.d])
    obj = finite_model_to_json_obj(fm)
    edit(obj)
    path = tmp_path / "fm.json"
    path.write_text(json.dumps(obj))
    assert main(["oracle", "exact", "--model", str(path), "--quad-deg", "0", "45", "135", "90"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err and what in captured.err


def test_plot_data_emission(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL.replace("n_trials = 1000", "n_trials = 4000"))
    sweep = tmp_path / "sweep.csv"
    conv = tmp_path / "conv.csv"
    assert main(["simulate", "--config", cfg, "--sweep", str(sweep), "--convergence", str(conv)]) == 0
    sweep_lines = sweep.read_text().splitlines()
    assert sweep_lines[0] == "angle_deg,mc_mean,mc_std_error,classical_closed_form,singlet_reference"
    assert len(sweep_lines) == 1 + 37  # 0..180 step 5
    conv_lines = conv.read_text().splitlines()
    assert conv_lines[0] == "n_trials,chsh_value,chsh_std_error"
    assert conv_lines[-1].startswith("4000,")


def test_convergence_rows_are_numpy_statistics_of_prefix_slices(tmp_path):
    # Each row is the closed-form statistic of that prefix slice of the run.
    from bell_lab.core import SettingQuad
    from bell_lab.simulate import CorrelationEstimate, chsh_statistic, run_experiment

    text = MINIMAL.replace("bell_deterministic", "factorizable_instrument\nmodel.epsilon = 0.5")
    conv = tmp_path / "conv.csv"
    cfg = write_cfg(tmp_path, text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--convergence", str(conv)]) == 0
    quad = SettingQuad.from_degrees(0, 45, 135, 90)
    log = run_experiment(FAMILIES["factorizable_instrument"](epsilon=0.5), quad, 1000, seed=7)
    rows = ["n_trials,chsh_value,chsh_std_error"]
    for n in (16, 32, 64, 128, 256, 512, 1000):
        products = log.a[:n] * log.b[:n]
        per_pair = [products[log.pair_id[:n] == pid] for pid in range(4)]
        if min(map(len, per_pair)) < 2:
            continue
        sums = [(len(p), int(p.sum(dtype=np.int64))) for p in per_pair]
        stat = chsh_statistic(
            [CorrelationEstimate(pid, s / c, math.sqrt((c * c - s * s) / (c * c * (c - 1))), c)
             for pid, (c, s) in enumerate(sums)]
        )
        rows.append(f"{n},{stat.value!r},{stat.std_error!r}")
    assert conv.read_text().splitlines() == rows


# --- reproducibility and golden formats ---------------------------------------------


def test_byte_identical_outputs_across_runs_and_threads(tmp_path):
    text = (
        MINIMAL
        + "\nmodel.source.kind = discrete\nmodel.source.size = 8\n"
        + "outputs.report = report.json\noutputs.trial_log = trials.csv\n"
    )
    cfg = write_cfg(tmp_path, text)
    blobs = []
    for sub, threads in (("r1", "1"), ("r2", "1"), ("r4", "4")):
        out = tmp_path / sub
        assert main(["simulate", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
        run = [(out / "report.json").read_bytes(), (out / "trials.csv").read_bytes()]
        for mode in ("lambda", "lambda-time"):
            table_out = out / mode
            argv = ["tables", "--config", cfg, "--out", str(table_out), "--threads", threads, "--key-mode", mode]
            assert main(argv) == 0
            run.append((table_out / "table.json").read_bytes())
        blobs.append(run)
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("family", ["factorizable_instrument", "time_tagged_anticorrelated"])
def test_outputs_do_not_depend_on_the_block_schedule(tmp_path, monkeypatch, family):
    """Blocks of 7 and 64 trials at 1 and 2 threads give the default run's bytes:
    the trial log, the report estimates, the sweep rows and the convergence rows,
    on the full-log and on the report-only path."""
    from bell_lab import simulate

    text = MINIMAL.replace("bell_deterministic", family).replace("n_trials = 1000", "n_trials = 300")
    report_cfg = write_cfg(tmp_path, text)
    log_cfg = write_cfg(tmp_path, text + "outputs.trial_log = t.csv\n", "log.cfg")

    def outputs(tag: str, threads: int) -> dict[str, bytes]:
        out = tmp_path / tag
        common = ["--threads", str(threads), "--convergence"]
        assert main(["simulate", "--config", log_cfg, "--out", str(out / "log"), *common,
                     str(out / "log" / "convergence.csv")]) == 0
        # The sweep takes the same report-only path with or without a log.
        assert main(["simulate", "--config", report_cfg, "--out", str(out / "report"), *common,
                     str(out / "report" / "convergence.csv"), "--sweep", str(out / "report" / "sweep.csv")]) == 0
        files = {f"{path.parent.name}/{path.name}": path.read_bytes() for path in out.glob("*/*")}
        assert len(files) == 6  # report and convergence files of each run, the log and the sweep
        return files

    default = outputs("default", 1)
    for block in (7, 64):
        monkeypatch.setattr(simulate, "_BLOCK_TRIALS", block)
        for threads in (1, 2):
            assert outputs(f"{block}-{threads}", threads) == default, (block, threads)


def _bits(estimates) -> list[tuple]:
    return [(e.pair_id, e.mean.hex(), e.std_error.hex(), e.count) for e in estimates]


def test_report_paths_never_build_the_trial_log(tmp_path, monkeypatch):
    from bell_lab import simulate
    from bell_lab.core import SettingQuad

    quad = SettingQuad.from_degrees(0, 45, 135, 90)
    for family in FAMILIES.values():
        log = simulate.run_experiment(family(), quad, 2_000, seed=3, threads=2)
        sums = simulate.run_sums(family(), simulate.experiment_pairs(quad), 2_000, seed=3, threads=2)
        assert np.array_equal(sums, log.pair_sums()) and sums.dtype == np.int64
        assert _bits(simulate.estimate_correlations(sums[-1])) == _bits(simulate.estimate_correlations(log))

    def no_log(*args, **kwargs):
        raise AssertionError("a report path built the nine-column trial log")

    monkeypatch.setattr(simulate, "run_pairs", no_log)
    text = MINIMAL.replace("bell_deterministic", "time_tagged_anticorrelated")
    cfg = write_cfg(tmp_path, text)
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "check"), "--threads", "2"]) == 0
    argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "sim"), "--threads", "2",
            "--sweep", str(tmp_path / "sweep.csv"), "--convergence", str(tmp_path / "convergence.csv")]
    assert main(argv) == 0
    with pytest.raises(AssertionError, match="trial log"):
        main(["simulate", "--config", write_cfg(tmp_path, text + "outputs.trial_log = t.csv\n", "log.cfg")])


def test_golden_report_and_log(tmp_path):
    """Freeze the report schema and CSV column order against tests/data."""
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(DATA / "golden.cfg"), "--out", str(out)])
    assert rc == 0
    got_report = (out / "golden-report.json").read_bytes()
    got_csv = (out / "golden-trials.csv").read_bytes()
    if os.environ.get("REGEN_GOLDEN"):
        (DATA / "golden-report.json").write_bytes(got_report)
        (DATA / "golden-trials.csv").write_bytes(got_csv)
    assert got_report == (DATA / "golden-report.json").read_bytes()
    assert got_csv == (DATA / "golden-trials.csv").read_bytes()


def test_csv_reload_matches_cli_output(tmp_path):
    out = tmp_path / "out"
    main(["simulate", "--config", str(DATA / "golden.cfg"), "--out", str(out)])
    log = TrialLog.from_csv(out / "golden-trials.csv")
    assert len(log) == 64
    assert log.lambda_kind == "discrete"
    again = tmp_path / "again.csv"
    log.to_csv(again)
    assert again.read_bytes() == (out / "golden-trials.csv").read_bytes()


def test_experiment_config_quad_property():
    cfg = parse_config_text(MINIMAL)
    assert isinstance(cfg, ExperimentConfig)
    quad = cfg.quad
    assert quad.b.degrees == pytest.approx(45.0)


# --- README ---------------------------------------------------------------------------


def test_readme_python_blocks_run_and_its_config_parses(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", readme, flags=re.M | re.S)
    python = [code for lang, code in blocks if lang == "python"]
    ini = [code for lang, code in blocks if lang == "ini"]
    assert python and len(ini) == 1
    for code in python:
        exec(compile(code, "README.md", "exec"), {})
    cfg = parse_config_text(ini[0])
    assert isinstance(cfg.model, BellDeterministic) and cfg.model.source == DiscreteSource.uniform(16)
