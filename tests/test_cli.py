"""CLI: config schema, exit codes, frozen output formats."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bell_lab.cli import (
    ExperimentConfig,
    config_digest,
    main,
    parse_config_text,
    serialize_config,
)
from bell_lab.errors import ConfigError
from bell_lab.models import FAMILIES, BellDeterministic, DiscreteSource, UniformAngleSource
from bell_lab.simulate import TrialLog

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


def test_missing_config_file_exit_two(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_check_premise_failure_exit_three(tmp_path, capsys):
    text = MINIMAL.replace("bell_deterministic", "factorizable_instrument") + "\nmodel.epsilon = 0.5\n"
    cfg = write_cfg(tmp_path, text)
    assert main(["check", "--config", cfg]) == 3
    assert "anticorrelation" in capsys.readouterr().err


def test_tables_continuous_lambda_exit_four(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    assert main(["tables", "--config", cfg, "--key-mode", "lambda"]) == 4
    err = capsys.readouterr().err
    assert "much smaller" in err  # quotes the cardinality precondition


def test_oracle_guard_exit_five(capsys):
    assert main(["oracle", "enumerate", "--m", "1000000"]) == 5


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
        "out-is-a-file",
        "quad-deg-nan",
        "enumerate-m-zero",
        "enumerate-m-negative",
        "enumerate-one-setting",
        "tables-max-rows-negative",
    ],
)
def test_bad_threads_and_oracle_files_exit_two_without_traceback(tmp_path, case):
    from bell_lab.core import SettingQuad
    from bell_lab.models import bell_deterministic
    from bell_lab.oracle import discretize_model, finite_model_to_json_obj

    cfg = write_cfg(tmp_path, MINIMAL)
    quad = SettingQuad.from_degrees(0, 45, 135, 90)
    valid = tmp_path / "valid.json"
    fm = discretize_model(bell_deterministic(), [quad.a, quad.b, quad.c, quad.d], grid=8)
    valid.write_text(json.dumps(finite_model_to_json_obj(fm)))
    not_json = tmp_path / "not.json"
    not_json.write_text("{ not json")
    wrong_schema = tmp_path / "wrong.json"
    wrong_schema.write_text('{"schema": "bell-lab.report.v1"}')
    missing = tmp_path / "missing.json"
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    quad_args = ["--quad-deg", "0", "45", "135", "90"]

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
        "out-is-a-file": (simulate + ["--out", str(a_file)], None, a_file),
        "quad-deg-nan": (["oracle", "quantum", "--quad-deg", "0", "45", "nan", "90"], None, None),
        "enumerate-m-zero": (["oracle", "enumerate", "--m", "0"], None, None),
        "enumerate-m-negative": (["oracle", "enumerate", "--m", "-3"], None, None),
        "enumerate-one-setting": (["oracle", "enumerate", "--m", "2", "--settings1", "1"], None, None),
        "tables-max-rows-negative": (["tables", "--config", cfg, "--max-rows", "-1"], None, None),
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


def test_oracle_enumerate_certificate(capsys):
    assert main(["oracle", "enumerate", "--m", "4"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["operation"] == "enumerate"
    assert record["value"] == 2.0
    assert record["inputs_digest"].startswith("sha256:")
    assert record["certificate"]["total_strategies"] == 2**16


def test_oracle_out_goes_after_the_operation(tmp_path, capsys):
    # The oracle group takes no options of its own, so --out before the
    # operation is a usage error, not a run that exits 0 and writes nothing.
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--out", str(tmp_path), "enumerate", "--m", "2"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []
    assert main(["oracle", "enumerate", "--m", "2", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "oracle-enumerate.json").read_text()) == json.loads(capsys.readouterr().out)


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
    from bell_lab.models import bell_deterministic
    from bell_lab.oracle import discretize_model, finite_model_to_json_obj

    quad = SettingQuad.from_degrees(0, 45, 135, 90)
    fm = discretize_model(bell_deterministic(), [quad.a, quad.b, quad.c, quad.d], grid=360)
    path = tmp_path / "fm.json"
    path.write_text(json.dumps(finite_model_to_json_obj(fm)))
    assert main(["oracle", "exact", "--model", str(path), "--quad-deg", "0", "45", "135", "90"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == 2.0


def test_oracle_exact_matches_settings_modulo_full_turn(tmp_path, capsys):
    from bell_lab.core import SettingQuad
    from bell_lab.models import DiscreteSource, bell_deterministic
    from bell_lab.oracle import discretize_model, finite_model_to_json_obj

    # radians(361) normalizes to a float a few ulps away from radians(1)
    quad = SettingQuad.from_degrees(1, 45, 135, 90)
    fm = discretize_model(bell_deterministic(DiscreteSource.uniform(8)), [quad.a, quad.b, quad.c, quad.d])
    path = tmp_path / "fm.json"
    path.write_text(json.dumps(finite_model_to_json_obj(fm)))
    values = []
    for a_deg in ("1", "361"):
        assert main(["oracle", "exact", "--model", str(path), "--quad-deg", a_deg, "45", "135", "90"]) == 0
        values.append(json.loads(capsys.readouterr().out)["value"])
    assert values[0] == values[1]


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
        products = simulate.run_experiment_products(family(), quad, 2_000, seed=3, threads=2)
        assert np.array_equal(products.products, log.products) and products.products.dtype == np.int8
        assert _bits(simulate.estimate_correlations(products)) == _bits(simulate.estimate_correlations(log))

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
