"""Experiment runner: determinism, statistics, serialization."""

import math
import threading
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bell_lab import simulate
from bell_lab.core import Setting, SettingQuad, chsh_pairs
from bell_lab.errors import AnticorrelationViolated, InsufficientData, InvalidSpec
from bell_lab.models import BellDeterministic, DiscreteSource, FactorizableInstrument, UniformAngleSource
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
    log = run_experiment(BellDeterministic(), QUAD, 1, seed=1)
    assert len(log) == 1
    assert np.array_equal(log.t, [0])
    assert log.a[0] in (-1, 1) and log.b[0] in (-1, 1)


def test_same_arguments_identical_logs():
    a = run_experiment(BellDeterministic(), QUAD, 5_000, seed=7)
    b = run_experiment(BellDeterministic(), QUAD, 5_000, seed=7)
    assert a == b


def test_parallelism_invariance():
    spec = FactorizableInstrument(epsilon=0.3)
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


@pytest.fixture
def serial_pool(monkeypatch):
    """A serial stand-in for the runner's pool: it records the worker count and
    the number of blocks of each pooled run, and starts no thread."""
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

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", SerialPool)
    return requested, blocks


def test_thread_count_is_capped_at_core_count(monkeypatch, serial_pool):
    # The stand-in pool never makes the uncapped request for real. The block
    # size is patched small so that there are more blocks than cores.
    requested, blocks = serial_pool
    spec = FactorizableInstrument(epsilon=0.3)
    serial = run_experiment(spec, QUAD, 1_000, seed=5, threads=1)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(simulate, "_BLOCK_TRIALS", 100)
    before = threading.active_count()
    capped = run_experiment(spec, QUAD, 1_000, seed=5, threads=10**5)
    assert threading.active_count() == before
    assert requested == [3] and blocks == [10]
    assert capped == serial


def test_run_shorter_than_a_block_per_worker_is_split_over_the_workers(monkeypatch, serial_pool):
    # 50,000 trials (one --sweep point) fit in one full block; at two threads
    # on two cores they are cut into one block per worker.
    requested, blocks = serial_pool
    spec = FactorizableInstrument(epsilon=0.3)
    serial = run_experiment(spec, QUAD, 50_000, seed=5, threads=1)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    split = run_experiment(spec, QUAD, 50_000, seed=5, threads=2)
    assert requested == [2] and blocks == [2]
    assert split == serial


def test_long_runs_reach_the_pool_a_window_of_blocks_at_a_time(monkeypatch, serial_pool):
    # The pool keeps a future per block it is given, so a long run hands it
    # windows of _WINDOW_BLOCKS blocks; the outputs do not change.
    requested, blocks = serial_pool
    spec = FactorizableInstrument(epsilon=0.3)
    pairs = simulate.experiment_pairs(QUAD)
    serial_log = run_experiment(spec, QUAD, 1_000, seed=5, threads=1)
    serial_sums = simulate.run_sums(spec, pairs, 1_000, 5, 1, [16, 500, 1_000])
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(simulate, "_BLOCK_TRIALS", 100)
    monkeypatch.setattr(simulate, "_WINDOW_BLOCKS", 3)
    assert run_experiment(spec, QUAD, 1_000, seed=5, threads=2) == serial_log
    assert np.array_equal(simulate.run_sums(spec, pairs, 1_000, 5, 2, [16, 500, 1_000]), serial_sums)
    assert requested == [2, 2] and blocks == [3, 3, 3, 1] * 2


def test_pair_choice_uniformity():
    log = run_experiment(BellDeterministic(), QUAD, 1_000_000, seed=13)
    counts = np.bincount(log.pair_id, minlength=4)
    n = len(log)
    sd = math.sqrt(n * 0.25 * 0.75)
    for k in range(4):
        assert abs(counts[k] - n / 4) < 4 * sd, counts


def test_trial_records_match_pair_settings():
    log = run_experiment(BellDeterministic(), QUAD, 200, seed=5)
    pairs = chsh_pairs(QUAD)
    assert np.array_equal(log.setting_1, [pairs[p][0].angle for p in log.pair_id])
    assert np.array_equal(log.setting_2, [pairs[p][1].angle for p in log.pair_id])
    assert np.array_equal(log.t, np.arange(len(log)))


def test_n_trials_validation():
    with pytest.raises(InvalidSpec):
        run_experiment(BellDeterministic(), QUAD, 0, seed=1)


# --- estimates ---------------------------------------------------------------


def test_equal_settings_estimate_is_exactly_minus_one():
    log = run_pairs(BellDeterministic(), [(Setting(0.7), Setting(0.7))], 5_000, seed=3)
    (est,) = estimate_correlations(log)
    assert est.mean == -1.0
    assert est.std_error == 0.0
    assert est.count == 5_000


def test_calibration_estimate_within_band():
    theta = math.pi / 4
    log = run_pairs(BellDeterministic(), [(Setting(0.0), Setting(theta))], 200_000, seed=17)
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
        lam=np.zeros(n, dtype=np.int64),
        ip_1=np.zeros(n),
        ip_2=np.zeros(n),
        a=np.ones(n, dtype=np.int8),
        b=np.ones(n, dtype=np.int8),
        n_pairs=4,
    )
    with pytest.raises(InsufficientData) as exc:
        estimate_correlations(log)
    assert exc.value.pair_id == 1


def _closed_form(pid: int, products: np.ndarray) -> CorrelationEstimate:
    """The reference: s / n and sqrt((n^2 - s^2) / (n^2 (n - 1))) of the +/-1 products,
    with n and s counted by numpy."""
    n, s = len(products), int(np.sum(products, dtype=np.int64))
    return CorrelationEstimate(pid, s / n, math.sqrt((n * n - s * s) / (n * n * (n - 1))), n)


def _hex(estimates) -> list[tuple]:
    return [(e.pair_id, e.mean.hex(), e.std_error.hex(), e.count) for e in estimates]


def _one_pair_log(products: np.ndarray) -> TrialLog:
    """A hand-built one-pair log whose trials have these outcome products A*B."""
    n = len(products)
    zeros = np.zeros(n)
    return TrialLog(
        t=np.arange(n), pair_id=np.zeros(n, dtype=np.int8), setting_1=zeros, setting_2=zeros,
        lam=np.zeros(n, dtype=np.int64), ip_1=zeros, ip_2=zeros, a=products, b=np.ones(n, dtype=np.int8), n_pairs=1,
    )


@pytest.mark.parametrize(
    "lam, dtype, kind",
    [
        (np.arange(3, dtype=np.int32), np.int64, "discrete"),
        (np.arange(3, dtype=np.uint8), np.int64, "discrete"),
        ([0, 1, 2], np.int64, "discrete"),
        (np.zeros(3, dtype=np.float32), np.float64, "angle"),
        ([0.5, 1.7, 2.2], np.float64, "angle"),
    ],
    ids=["int32", "uint8", "int-list", "float32", "float-list"],
)
def test_trial_log_kind_follows_the_lambda_dtype(lam, dtype, kind):
    log = replace(_one_pair_log(np.ones(3, dtype=np.int8)), lam=lam)
    assert log.lam.dtype == dtype and log.lambda_kind == kind
    assert np.array_equal(log.lam, lam)


@pytest.mark.parametrize("dtype", [np.bool_, np.complex128, np.uint64, np.str_])
def test_trial_log_rejects_a_lambda_that_is_neither_int64_nor_float(dtype):
    # a uint64 above 2**63 - 1 would wrap to a negative int64
    with pytest.raises(ValueError, match="lambda must hold integers that fit int64, or floats"):
        replace(_one_pair_log(np.ones(3, dtype=np.int8)), lam=np.zeros(3, dtype=dtype))


def test_trial_log_rejects_columns_of_unequal_length():
    log = _one_pair_log(np.ones(3, dtype=np.int8))
    with pytest.raises(ValueError, match="^column pair_id has 2 rows, t has 3$"):
        replace(log, pair_id=log.pair_id[:2], ip_2=log.ip_2[:1])


@settings(max_examples=80, deadline=None)
@given(
    length=st.sampled_from([*range(2, 10), 127, 128, 129, 2**16 - 1, 2**16 + 1]),
    plus_fraction=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimate_is_numpy_mean_and_std_bit_for_bit(length, plus_fraction, seed):
    # The mean is numpy's mean bit for bit; the standard error is the closed
    # form's, which is within a few ulps of numpy's std(ddof=1) / sqrt(n).
    # plus_fraction 0 and 1 give arrays whose entries are all equal.
    draw = np.random.default_rng(seed).random(length)
    products = np.where(draw < plus_fraction, 1, -1).astype(np.int8)
    (got,) = estimate_correlations(_one_pair_log(products))
    assert _hex([got]) == _hex([_closed_form(0, products)])
    p = products.astype(np.float64)
    assert got.mean.hex() == float(p.mean()).hex()
    assert got.std_error == pytest.approx(float(p.std(ddof=1) / math.sqrt(length)), rel=1e-13, abs=0.0)


def _is_nearest(x: float, exact: Fraction) -> bool:
    """No double next to x is closer to ``exact`` than x is."""
    err = abs(Fraction(x) - exact)
    return all(abs(Fraction(math.nextafter(x, toward)) - exact) >= err for toward in (-math.inf, math.inf))


def _is_nearest_root(r: float, v: Fraction) -> bool:
    """No double next to r >= 0 is closer to sqrt(v) than r is: sqrt(v) lies
    between the midpoints of r and its neighbours, compared by squaring."""
    below = (Fraction(r) + Fraction(math.nextafter(r, -math.inf))) / 2
    above = (Fraction(r) + Fraction(math.nextafter(r, math.inf))) / 2
    return r >= 0.0 and (below <= 0 or below * below <= v) and v <= above * above


@settings(max_examples=300, deadline=None)
@given(count=st.integers(2, 10**12), data=st.data())
def test_closed_form_steps_are_correctly_rounded(count, data):
    # s = (number of +1) - (number of -1) has the parity of n.
    total = 2 * data.draw(st.integers(0, count), label="plus") - count
    (est,) = estimate_correlations(np.array([[count, total]], dtype=np.int64))
    assert est.count == count
    assert _is_nearest(est.mean, Fraction(total, count))
    quotient = Fraction(count * count - total * total, count * count * (count - 1))
    rounded = float(quotient)
    assert _is_nearest(rounded, quotient)
    assert _is_nearest_root(est.std_error, Fraction(rounded))
    assert est.std_error == math.sqrt(rounded)


@pytest.mark.parametrize("block", [7, 64, simulate._BLOCK_TRIALS])
def test_pair_sums_of_a_run_are_its_prefix_sums(monkeypatch, block):
    # Small blocks put several checkpoints inside one block and others on block edges.
    monkeypatch.setattr(simulate, "_BLOCK_TRIALS", block)
    log = run_experiment(FactorizableInstrument(epsilon=0.5), QUAD, 1_000, seed=47)
    products = log.a * log.b
    lengths = [4, 8, 16, 64, 100, 128, 999, 1_000]
    expected = [
        [[np.count_nonzero(log.pair_id[:n] == pid), int(products[:n][log.pair_id[:n] == pid].sum())]
         for pid in range(4)]
        for n in lengths
    ]
    for threads in (1, 2):
        sums = simulate.run_sums(FactorizableInstrument(epsilon=0.5), simulate.experiment_pairs(QUAD), 1_000, 47,
                                 threads, lengths)
        assert sums.dtype == np.int64 and sums.tolist() == expected
    assert log.pair_sums(lengths).tolist() == expected


def test_prefix_correlations_are_numpy_estimates_of_prefix_slices(monkeypatch):
    # The estimates at each checkpoint are the closed form on that prefix slice;
    # a prefix with fewer than 2 trials of some pair has none.
    monkeypatch.setattr(simulate, "_BLOCK_TRIALS", 64)
    log = run_experiment(FactorizableInstrument(epsilon=0.5), QUAD, 1_000, seed=47)
    lengths = [4, 8, 16, 100, 128, 999, 1_000]
    sums = simulate.run_sums(FactorizableInstrument(epsilon=0.5), simulate.experiment_pairs(QUAD), 1_000, 47, 2,
                             lengths)
    expected, got = [], []
    for n, prefix in zip(lengths, sums):
        pair_id, products = log.pair_id[:n], log.a[:n] * log.b[:n]
        if min(np.count_nonzero(pair_id == pid) for pid in range(4)) >= 2:
            expected.append((n, _hex(_closed_form(pid, products[pair_id == pid]) for pid in range(4))))
        try:
            got.append((n, _hex(estimate_correlations(prefix))))
        except InsufficientData:
            continue
    assert got == expected
    assert got[0][0] > lengths[0]  # the shortest prefix lacks a pair, so it is left out


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


def test_chsh_on_canonical_quad_within_band():
    spec = BellDeterministic()
    log = run_experiment(spec, QUAD, 200_000, seed=23)
    estimates = estimate_correlations(log)
    # closed forms at relative angles (135, 45, 45, 45) degrees
    for est, expected in zip(estimates, (0.5, -0.5, -0.5, -0.5)):
        assert abs(est.mean - expected) < 4 * est.std_error, est
    stat = chsh_statistic(estimates)
    assert abs(stat.value - 2.0) < 4 * stat.std_error


@pytest.mark.parametrize(
    "spec",
    [BellDeterministic(), FactorizableInstrument(epsilon=0.3), BellDeterministic(DiscreteSource.uniform(16))],
    ids=["sign-model", "noisy", "discrete"],
)
@pytest.mark.parametrize("quad_deg", [(0, 45, 135, 90), (0, 45, 10, 90)], ids=["saturating", "mixed"])
def test_statistical_bound_for_factorizable_models(spec, quad_deg):
    # statistical form of the local bound: value <= 2 + 4 sigma at N = 1e6
    quad = SettingQuad.from_degrees(*quad_deg)
    log = run_experiment(spec, quad, 1_000_000, seed=101)
    stat = chsh_statistic(estimate_correlations(log))
    assert stat.value <= 2.0 + 4 * stat.std_error


# --- three-setting inequality ---------------------------------------------------


def test_bell_statistic_collapses_at_equal_settings():
    s = Setting(0.4)
    stat = bell_statistic(BellDeterministic(), s, s, s, 1_000, seed=5)
    assert stat.lhs == 0.0
    assert stat.rhs == 0.0
    assert stat.margin == 0.0


def test_bell_statistic_holds_for_deterministic_model():
    # angles (0, pi/3, 2pi/3): the closed forms make lhs = rhs = 2/3, margin 0
    stat = bell_statistic(
        BellDeterministic(), Setting(0.0), Setting(math.pi / 3), Setting(2 * math.pi / 3), 200_000, seed=29
    )
    assert stat.margin >= -4 * stat.std_error
    assert stat.lhs == pytest.approx(2 / 3, abs=4 * stat.std_error)
    assert stat.rhs == pytest.approx(2 / 3, abs=4 * stat.std_error)


def test_bell_statistic_refuses_without_anticorrelation():
    with pytest.raises(AnticorrelationViolated):
        bell_statistic(
            FactorizableInstrument(epsilon=0.5), Setting(0.0), Setting(1.0), Setting(2.0), 1_000, seed=31
        )


# --- serialization ----------------------------------------------------------------


@pytest.mark.parametrize("source", [UniformAngleSource(), DiscreteSource.uniform(16)], ids=["angle", "discrete"])
def test_csv_round_trip_bit_identical(tmp_path, source):
    spec = BellDeterministic(source)
    # Setting a = -0.0 and d = 0.0 put equal values with different bits in one
    # column: each must keep its own text.
    for quad in (QUAD, SettingQuad.from_degrees(-0.0, 45.0, 135.0, 0.0)):
        # two full blocks of the writer and a partial third
        log = run_experiment(spec, quad, 2 * simulate._CSV_BLOCK_ROWS + 3, seed=37)
        path = tmp_path / "log.csv"
        log.to_csv(path)
        again = TrialLog.from_csv(path)
        assert again == log
        assert again.lambda_kind == log.lambda_kind
        assert again.lam.dtype == log.lam.dtype == (np.int64 if isinstance(source, DiscreteSource) else np.float64)
        for name, (_header, dtype) in simulate._COLUMNS.items():
            bits = f"u{dtype.itemsize}"
            assert np.array_equal(getattr(again, name).view(bits), getattr(log, name).view(bits)), name
        # and the bytes themselves are stable under re-serialization
        path2 = tmp_path / "log2.csv"
        again.to_csv(path2)
        assert path.read_bytes() == path2.read_bytes()
    assert set(np.signbit(log.setting_1).tolist()) == {True, False}
    cells = [line.split(",")[simulate.CSV_COLUMNS.index("setting_1")] for line in path.read_text().splitlines()[1:]]
    assert cells == [str(v) for v in log.setting_1.tolist()]


def test_csv_header_frozen(tmp_path):
    log = run_experiment(BellDeterministic(), QUAD, 2, seed=1)
    path = tmp_path / "log.csv"
    log.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "index,t,pair_id,setting_1,setting_2,lambda,ip_1,ip_2,A,B"


def test_csv_reload_keeps_four_pairs_when_one_is_never_drawn(tmp_path):
    # pair 3 is never drawn in these eight trials (pair counts 2, 3, 3, 0)
    log = run_experiment(BellDeterministic(DiscreteSource.uniform(4)), QUAD, 8, seed=16)
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
        # parsed as float64, 2**53 + 1 would load as 2**53
        (3, _cell("lambda", str(2**53 + 1)), DISCRETE_4),
        (4, _cell("lambda", str(2**53)), DISCRETE_4),
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
        "discrete-lambda-inf", "discrete-lambda-1e20", "discrete-lambda-2**53+1", "discrete-lambda-2**53",
        "angle-lambda-nan", "setting-1-inf", "setting-2-nan", "ip-1-minus-inf", "ip-2-nan",
    ],
)
def test_csv_reader_rejects_malformed_rows(tmp_path, line, edit, source):
    path = tmp_path / "log.csv"
    run_experiment(BellDeterministic(source or ANGLE), QUAD, 5, seed=1).to_csv(path)
    lines = path.read_text().splitlines()
    lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        TrialLog.from_csv(path)
    if source is DISCRETE_4:
        assert str(exc.value).startswith(f"trial log line {line}: a discrete lambda")
    if source is ANGLE:
        assert str(exc.value).startswith(f"trial log line {line}: ") and str(exc.value).endswith(" must be finite")


def test_csv_largest_discrete_lambda_round_trips(tmp_path):
    path = tmp_path / "log.csv"
    run_experiment(BellDeterministic(DISCRETE_4), QUAD, 5, seed=1).to_csv(path)
    lines = path.read_text().splitlines()
    lines[2] = ",".join(_cell("lambda", str(2**53 - 1))(lines[2].split(",")))
    path.write_text("\n".join(lines) + "\n")
    log = TrialLog.from_csv(path)
    assert log.lam[1] == 2**53 - 1 and log.lambda_kind == "discrete"
    again = tmp_path / "again.csv"
    log.to_csv(again)
    assert again.read_bytes() == path.read_bytes()


def test_csv_header_only_loads_as_empty_log(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(",".join(simulate.CSV_COLUMNS) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = TrialLog.from_csv(path)
    assert len(log) == 0 and log.n_pairs == 4
