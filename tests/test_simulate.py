"""Experiment runner: determinism, statistics, serialization."""

import math
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bell_lab import simulate
from bell_lab.core import Setting, SettingQuad, chsh_pairs
from bell_lab.errors import AnticorrelationViolated, InsufficientData, InvalidSpec
from bell_lab.models import DiscreteSource, UniformAngleSource, bell_deterministic, factorizable_instrument
from bell_lab.simulate import (
    TrialLog,
    bell_statistic,
    chsh_statistic,
    CorrelationEstimate,
    estimate_correlations,
    resolve_threads,
    run_experiment,
    run_pairs,
)

QUAD = SettingQuad.from_degrees(0.0, 45.0, 135.0, 90.0)


def test_single_trial_log():
    log = run_experiment(bell_deterministic(), QUAD, 1, seed=1)
    assert len(log) == 1
    assert np.array_equal(log.t, [0])
    assert log.a[0] in (-1, 1) and log.b[0] in (-1, 1)


def test_same_arguments_identical_logs():
    a = run_experiment(bell_deterministic(), QUAD, 5_000, seed=7)
    b = run_experiment(bell_deterministic(), QUAD, 5_000, seed=7)
    assert a == b


def test_parallelism_invariance():
    spec = factorizable_instrument(0.3)
    one = run_experiment(spec, QUAD, 30_000, seed=9, threads=1)
    four = run_experiment(spec, QUAD, 30_000, seed=9, threads=4)
    assert one == four


def test_threads_env_var(monkeypatch):
    monkeypatch.setenv("BELL_LAB_THREADS", "3")
    assert resolve_threads(None) == 3
    monkeypatch.delenv("BELL_LAB_THREADS")
    assert resolve_threads(None) == 1
    assert resolve_threads(2) == 2
    with pytest.raises(ValueError):
        resolve_threads(0)


def test_thread_count_is_capped_at_core_count(monkeypatch):
    # A serial stand-in for the pool records what the runner asks for and
    # starts no thread, so the uncapped request is never made for real. The
    # block size is patched small so that there are more blocks than cores.
    requested, blocks = [], []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            blocks.append(len(items))
            return map(fn, items)

    spec = factorizable_instrument(0.3)
    serial = run_experiment(spec, QUAD, 1_000, seed=5, threads=1)
    monkeypatch.setattr(simulate, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(simulate, "_BLOCK_TRIALS", 100)
    before = threading.active_count()
    capped = run_experiment(spec, QUAD, 1_000, seed=5, threads=10**5)
    assert threading.active_count() == before
    assert requested == [3] and blocks == [10]
    assert capped == serial


def test_pair_choice_uniformity():
    log = run_experiment(bell_deterministic(), QUAD, 1_000_000, seed=13)
    counts = np.bincount(log.pair_id, minlength=4)
    n = len(log)
    sd = math.sqrt(n * 0.25 * 0.75)
    for k in range(4):
        assert abs(counts[k] - n / 4) < 4 * sd, counts


def test_trial_records_match_pair_settings():
    log = run_experiment(bell_deterministic(), QUAD, 200, seed=5)
    pairs = chsh_pairs(QUAD)
    assert np.array_equal(log.setting_1, [pairs[p][0].angle for p in log.pair_id])
    assert np.array_equal(log.setting_2, [pairs[p][1].angle for p in log.pair_id])
    assert np.array_equal(log.t, np.arange(len(log)))


def test_n_trials_validation():
    with pytest.raises(InvalidSpec):
        run_experiment(bell_deterministic(), QUAD, 0, seed=1)


# --- estimates ---------------------------------------------------------------


def test_equal_settings_estimate_is_exactly_minus_one():
    log = run_pairs(bell_deterministic(), [(Setting(0.7), Setting(0.7))], 5_000, seed=3)
    (est,) = estimate_correlations(log)
    assert est.mean == -1.0
    assert est.std_error == 0.0
    assert est.count == 5_000


def test_calibration_estimate_within_band():
    theta = math.pi / 4
    log = run_pairs(bell_deterministic(), [(Setting(0.0), Setting(theta))], 200_000, seed=17)
    (est,) = estimate_correlations(log)
    expected = -1.0 + 2.0 * theta / math.pi
    assert abs(est.mean - expected) < 4 * est.std_error


def test_insufficient_data():
    # hand-built log: all trials on pair 0, four pairs declared
    n = 10
    log = TrialLog(
        t=np.arange(n),
        pair_id=np.zeros(n, dtype=np.int8),
        setting_1=np.zeros(n),
        setting_2=np.zeros(n),
        lam=np.zeros(n),
        ip_1=np.zeros(n),
        ip_2=np.zeros(n),
        a=np.ones(n, dtype=np.int8),
        b=np.ones(n, dtype=np.int8),
        lambda_kind="discrete",
        n_pairs=4,
    )
    with pytest.raises(InsufficientData) as exc:
        estimate_correlations(log)
    assert exc.value.pair_id == 1


def test_chsh_statistic_algebra():
    def est(pid, mean):
        return CorrelationEstimate(pair_id=pid, mean=mean, std_error=0.1, count=100)

    stat = chsh_statistic([est(0, 1.0), est(1, -1.0), est(2, -1.0), est(3, -1.0)])
    assert stat.value == 4.0
    assert stat.std_error == pytest.approx(0.2, abs=1e-15)

    stat0 = chsh_statistic([est(i, 0.0) for i in range(4)])
    assert stat0.value == 0.0

    with pytest.raises(ValueError):
        chsh_statistic([est(0, 0.0)])


def test_chsh_statistic_carries_flags():
    ests = [CorrelationEstimate(i, 0.0, 0.0, 10) for i in range(4)]
    stat = chsh_statistic(ests, {"setting_dependent_distribution": True})
    assert stat.flags == {"setting_dependent_distribution": True}
    assert chsh_statistic(ests).flags == {}


def test_chsh_on_canonical_quad_within_band():
    spec = bell_deterministic()
    log = run_experiment(spec, QUAD, 200_000, seed=23)
    estimates = estimate_correlations(log)
    # closed forms at relative angles (135, 45, 45, 45) degrees
    for est, expected in zip(estimates, (0.5, -0.5, -0.5, -0.5)):
        assert abs(est.mean - expected) < 4 * est.std_error, est
    stat = chsh_statistic(estimates, spec.flags)
    assert abs(stat.value - 2.0) < 4 * stat.std_error


@pytest.mark.parametrize(
    "spec",
    [bell_deterministic(), factorizable_instrument(0.3), bell_deterministic(DiscreteSource.uniform(16))],
    ids=["sign-model", "noisy", "discrete"],
)
@pytest.mark.parametrize("quad_deg", [(0, 45, 135, 90), (0, 45, 10, 90)], ids=["saturating", "mixed"])
def test_statistical_bound_for_factorizable_models(spec, quad_deg):
    # statistical form of the local bound: value <= 2 + 4 sigma at N = 1e6
    quad = SettingQuad.from_degrees(*quad_deg)
    log = run_experiment(spec, quad, 1_000_000, seed=101)
    stat = chsh_statistic(estimate_correlations(log), spec.flags)
    assert stat.value <= 2.0 + 4 * stat.std_error


# --- three-setting inequality ---------------------------------------------------


def test_bell_statistic_collapses_at_equal_settings():
    s = Setting(0.4)
    stat = bell_statistic(bell_deterministic(), s, s, s, 1_000, seed=5)
    assert stat.lhs == 0.0
    assert stat.rhs == 0.0
    assert stat.margin == 0.0


def test_bell_statistic_holds_for_deterministic_model():
    # angles (0, pi/3, 2pi/3): the closed forms make lhs = rhs = 2/3, margin 0
    stat = bell_statistic(
        bell_deterministic(), Setting(0.0), Setting(math.pi / 3), Setting(2 * math.pi / 3), 200_000, seed=29
    )
    assert stat.margin >= -4 * stat.std_error
    assert stat.lhs == pytest.approx(2 / 3, abs=4 * stat.std_error)
    assert stat.rhs == pytest.approx(2 / 3, abs=4 * stat.std_error)


def test_bell_statistic_refuses_without_anticorrelation():
    with pytest.raises(AnticorrelationViolated):
        bell_statistic(
            factorizable_instrument(0.5), Setting(0.0), Setting(1.0), Setting(2.0), 1_000, seed=31
        )


# --- serialization ----------------------------------------------------------------


@pytest.mark.parametrize("source", [None, DiscreteSource.uniform(16)], ids=["angle", "discrete"])
def test_csv_round_trip_bit_identical(tmp_path, source):
    spec = bell_deterministic(source)
    # two full blocks of the writer and a partial third
    log = run_experiment(spec, QUAD, 2 * simulate._CSV_BLOCK_ROWS + 3, seed=37)
    path = tmp_path / "log.csv"
    log.to_csv(path)
    again = TrialLog.from_csv(path)
    assert again == log
    assert again.lambda_kind == log.lambda_kind
    # and the bytes themselves are stable under re-serialization
    path2 = tmp_path / "log2.csv"
    again.to_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_header_frozen(tmp_path):
    log = run_experiment(bell_deterministic(), QUAD, 2, seed=1)
    path = tmp_path / "log.csv"
    log.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "index,t,pair_id,setting_1,setting_2,lambda,ip_1,ip_2,A,B"


def test_csv_reload_keeps_four_pairs_when_one_is_never_drawn(tmp_path):
    # pair 3 is never drawn in these eight trials (pair counts 2, 3, 3, 0)
    log = run_experiment(bell_deterministic(DiscreteSource.uniform(4)), QUAD, 8, seed=16)
    assert np.bincount(log.pair_id, minlength=4).tolist() == [2, 3, 3, 0]
    path = tmp_path / "log.csv"
    log.to_csv(path)
    again = TrialLog.from_csv(path)
    assert again.n_pairs == 4
    assert again == log
    assert again != replace(log, n_pairs=3)
    with pytest.raises(InsufficientData) as exc:
        estimate_correlations(again)
    assert exc.value.pair_id == 3


DISCRETE_4 = DiscreteSource.uniform(4)
ANGLE = UniformAngleSource()


def _cell(header, text):
    k = simulate.CSV_COLUMNS.index(header)
    return lambda cells: [*cells[:k], text, *cells[k + 1 :]]


@pytest.mark.parametrize(
    "line, edit, source",
    [
        (2, lambda cells: cells[:-1], None),
        (4, lambda cells: cells[:-1], None),
        (2, lambda cells: ["7", *cells[1:]], None),
        (3, lambda cells: [*cells[:2], "9", *cells[3:]], None),
        (3, lambda cells: [*cells[:8], "3", cells[9]], None),
        (2, lambda cells: [*cells[:9], "0"], None),
        (3, lambda cells: [*cells[:2], "1.5", *cells[3:]], None),
        # a discrete log's lambda is written through int64: only whole numbers >= 0 round-trip
        (3, _cell("lambda", "2.5"), DISCRETE_4),
        (2, _cell("lambda", "nan"), DISCRETE_4),
        (4, _cell("lambda", "-1"), DISCRETE_4),
        (5, _cell("lambda", "inf"), DISCRETE_4),
        (3, _cell("lambda", "100000000000000000000"), DISCRETE_4),
        # an angle log's float columns must be finite (line 2 would read "nan" as a discrete lambda)
        (3, _cell("lambda", "nan"), ANGLE),
        (4, _cell("setting_1", "inf"), ANGLE),
        (3, _cell("setting_2", "nan"), ANGLE),
        (2, _cell("ip_1", "-inf"), ANGLE),
        (5, _cell("ip_2", "nan"), ANGLE),
    ],
    ids=[
        "short-first-row", "short-later-row", "index-7", "pair-id-9", "a-3", "b-0", "pair-id-1.5",
        "discrete-lambda-2.5", "discrete-lambda-nan-first", "discrete-lambda-negative",
        "discrete-lambda-inf", "discrete-lambda-1e20",
        "angle-lambda-nan", "setting-1-inf", "setting-2-nan", "ip-1-minus-inf", "ip-2-nan",
    ],
)
def test_csv_reader_rejects_malformed_rows(tmp_path, line, edit, source):
    path = tmp_path / "log.csv"
    run_experiment(bell_deterministic(source), QUAD, 5, seed=1).to_csv(path)
    lines = path.read_text().splitlines()
    lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        TrialLog.from_csv(path)
    if source is DISCRETE_4:
        assert str(exc.value).startswith(f"trial log line {line}: a discrete lambda")
    if source is ANGLE:
        assert str(exc.value).startswith(f"trial log line {line}: ") and str(exc.value).endswith(" must be finite")


def test_csv_header_only_loads_as_empty_log(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(",".join(simulate.CSV_COLUMNS) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = TrialLog.from_csv(path)
    assert len(log) == 0 and log.n_pairs == 4
