"""Reordering tables: the regrouping argument and its time-tag obstruction."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bell_lab.cli import _write_json
from bell_lab.core import CHSH_SIGNS, SettingQuad
from bell_lab.errors import ContinuousLambdaUnorderable
from bell_lab.models import (
    BellDeterministic,
    DiscreteSource,
    FactorizableInstrument,
    SettingPairDependent,
    TimeTaggedAnticorrelated,
)
from bell_lab.simulate import _BLOCK_TRIALS, TrialLog, chsh_statistic, estimate_correlations, run_experiment
from bell_lab.tables import (
    KeyMode,
    Sum,
    Undefined,
    build_reordered_table,
    lln_balance_check,
    render_table,
    row_sums,
    table_to_json_obj,
)

QUAD = SettingQuad.from_degrees(0.0, 45.0, 135.0, 90.0)
# non-saturating quad (statistic ~ 0.22 for the sign model): rows mix both signs
MIXED_QUAD = SettingQuad.from_degrees(0.0, 45.0, 10.0, 90.0)


def _hand_log(pair_ids, lams, a, b, n_pairs=4):
    n = len(pair_ids)
    return TrialLog(
        t=np.arange(n),
        pair_id=np.asarray(pair_ids, dtype=np.int8),
        setting_1=np.zeros(n),
        setting_2=np.zeros(n),
        lam=np.asarray(lams, dtype=np.int64),
        ip_1=np.zeros(n),
        ip_2=np.zeros(n),
        a=np.asarray(a, dtype=np.int8),
        b=np.asarray(b, dtype=np.int8),
        n_pairs=n_pairs,
    )


def test_four_matching_trials_make_one_row():
    log = _hand_log([0, 1, 2, 3], [5, 5, 5, 5], [1, 1, 1, 1], [1, 1, 1, 1])
    table = build_reordered_table(log, KeyMode.LAMBDA_ONLY)
    assert table.complete_rows == 1
    assert table.leftover_trials == 0
    assert table.lam.tolist() == [5]
    assert table.t is None
    # products all +1, signed by (+,-,-,-)
    assert table.rows.tolist() == [[1, -1, -1, -1]]
    (s,) = row_sums(table)
    assert s == Sum(-2)


def test_partition_property():
    spec = BellDeterministic(DiscreteSource.uniform(8))
    for n in (1, 97, 20_000):
        log = run_experiment(spec, QUAD, n, seed=43)
        table = build_reordered_table(log, KeyMode.LAMBDA_ONLY)
        assert 4 * table.complete_rows + table.leftover_trials == n
        assert table.complete_rows == len(table.rows) == len(table.lam)
        assert np.all(table.rows != 0)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 5), st.sampled_from([-1, 1]), st.sampled_from([-1, 1])),
        min_size=1,
        max_size=200,
    )
)
def test_partition_property_holds_for_arbitrary_logs(trials):
    pair_ids = [t[0] for t in trials]
    lams = [t[1] for t in trials]
    a = [t[2] for t in trials]
    b = [t[3] for t in trials]
    log = _hand_log(pair_ids, lams, a, b)
    table = build_reordered_table(log, KeyMode.LAMBDA_ONLY)
    assert 4 * table.complete_rows + table.leftover_trials == len(trials)
    # greedy matching consumes min-over-pairs rows per lambda value
    expected = 0
    for v in set(lams):
        counts = [sum(1 for p, w in zip(pair_ids, lams) if w == v and p == k) for k in range(4)]
        expected += sum(counts) - 4 * min(counts)
    assert table.leftover_trials == expected
    signed = [CHSH_SIGNS[p] * x * y for p, x, y in zip(pair_ids, a, b)]
    got = list(zip(table.lam.tolist(), table.rows.tolist()))
    assert got == _first_fit_rows(pair_ids, lams, signed)


def _first_fit_rows(pair_ids, lams, signed):
    """Plain-Python greedy matcher: each trial, in index order, takes the first
    row of its lambda whose column is still empty; complete rows are kept,
    ordered by lambda and then by opening order."""
    open_rows: dict[int, list[list]] = {}
    for pid, lam, s in zip(pair_ids, lams, signed):
        rows = open_rows.setdefault(lam, [])
        for cells in rows:
            if cells[pid] is None:
                cells[pid] = s
                break
        else:
            cells = [None] * 4
            cells[pid] = s
            rows.append(cells)
    return [(lam, cells) for lam in sorted(open_rows) for cells in open_rows[lam] if None not in cells]


def test_rows_match_first_fit_oracle_on_a_run():
    # A run long enough that every (lambda, pair) group holds trials of both
    # signs, so any reordering inside a group shows up in the cells.
    spec = FactorizableInstrument(DiscreteSource.uniform(4), epsilon=0.5)
    log = run_experiment(spec, MIXED_QUAD, 3_000, seed=41)
    table = build_reordered_table(log, KeyMode.LAMBDA_ONLY)
    pair_ids = log.pair_id.tolist()
    signed = [CHSH_SIGNS[p] * x * y for p, x, y in zip(pair_ids, log.a.tolist(), log.b.tolist())]
    expected = _first_fit_rows(pair_ids, log.lam.astype(int).tolist(), signed)
    assert list(zip(table.lam.tolist(), table.rows.tolist())) == expected


def test_leftover_count_matches_counting_oracle():
    # Independent oracle: the greedy matcher consumes min-over-pairs rows per
    # lambda, so leftovers = sum_lam (n_lam - 4 * min_k count(lam, k)).
    spec = BellDeterministic(DiscreteSource.uniform(8))
    log = run_experiment(spec, QUAD, 20_000, seed=47)
    table = build_reordered_table(log, KeyMode.LAMBDA_ONLY)
    lam = log.lam.astype(int)
    expected_leftover = 0
    for v in np.unique(lam):
        counts = [int(np.count_nonzero((lam == v) & (log.pair_id == k))) for k in range(4)]
        expected_leftover += sum(counts) - 4 * min(counts)
    assert table.leftover_trials == expected_leftover


def _whole_log_placement(log):
    """Reference lambda-mode table, placed by one stable sort of the whole log: each
    trial's (lambda index * 4 + pair) group, and its rank among its group's trials."""
    signed = np.asarray(CHSH_SIGNS, dtype=np.int8)[log.pair_id] * log.a * log.b
    values, lam_idx = np.unique(log.lam, return_inverse=True)
    group = lam_idx * 4 + log.pair_id
    counts = np.bincount(group, minlength=4 * len(values)).reshape(-1, 4)
    order = np.argsort(group, kind="stable")
    sorted_group = group[order]
    flat = counts.ravel()
    rank = np.arange(len(log)) - (np.cumsum(flat) - flat)[sorted_group]
    rows_per_lam = counts.min(axis=1)
    lam_sorted = sorted_group // 4
    used = rank < rows_per_lam[lam_sorted]
    row_index = (np.cumsum(rows_per_lam) - rows_per_lam)[lam_sorted[used]] + rank[used]
    rows = np.zeros((int(rows_per_lam.sum()), 4), dtype=np.int8)
    rows[row_index, sorted_group[used] % 4] = signed[order[used]]
    return np.repeat(values, rows_per_lam), rows, len(log) - 4 * len(rows)


@pytest.mark.parametrize("n", [_BLOCK_TRIALS - 1, _BLOCK_TRIALS, _BLOCK_TRIALS + 1, 3 * _BLOCK_TRIALS + 1])
@pytest.mark.parametrize(
    "source", [DiscreteSource((0.25, 0.0, 0.75)), DiscreteSource.uniform(5_000)], ids=["zero-weight", "5000"]
)
def test_block_wise_placement_matches_whole_log_sort(n, source):
    # Across the block edges, and with lambda values that get no rows (5,000 values
    # hold about n / 5,000 trials each), the block-wise table is the whole-log one.
    log = run_experiment(FactorizableInstrument(source, epsilon=0.5), MIXED_QUAD, n, seed=59)
    table = build_reordered_table(log, KeyMode.LAMBDA_ONLY)
    lam, rows, leftover = _whole_log_placement(log)
    assert table.lam.dtype == lam.dtype and np.array_equal(table.lam, lam)
    assert np.array_equal(table.rows, rows) and table.leftover_trials == leftover
    # each lambda has as many rows as its rarest pair has trials in the balance counts
    report = lln_balance_check(log)
    rarest = dict(zip(report.values.tolist(), report.counts.min(axis=1).tolist()))
    assert (0 in rarest.values()) == (len(source.weights) == 5_000)
    held = dict(zip(*(a.tolist() for a in np.unique(table.lam, return_counts=True))))
    assert {v: held.get(v, 0) for v in rarest} == rarest


def test_block_wise_placement_matches_whole_log_sort_past_2_16_groups():
    # Half the trials take one of four values and fill rows; the other half each take
    # their own value, out to the ends of int64, so the groups outnumber 2**16.
    gen = np.random.default_rng(67)
    n = 5 * _BLOCK_TRIALS + 1
    lams = gen.integers(0, 4, n)
    lams[1::2] = np.concatenate(([-(2**62), 2**62], gen.integers(-(2**40), 2**40, n // 2 - 2)))
    log = _hand_log(gen.integers(0, 4, n), lams, gen.choice([-1, 1], n), gen.choice([-1, 1], n))
    table = build_reordered_table(log, KeyMode.LAMBDA_ONLY)
    lam, rows, leftover = _whole_log_placement(log)
    assert len(lln_balance_check(log).values) > 2**14 and len(rows) > 0
    assert np.array_equal(table.lam, lam) and np.array_equal(table.rows, rows) and table.leftover_trials == leftover


def test_lambda_table_build_holds_no_trial_long_array():
    # The table itself is about 3 B/trial (a row of four int8 cells and an int64 lambda
    # per four trials); a trial-long int64 temporary alone would add 8 B/trial.
    n = 1 << 20
    log = run_experiment(BellDeterministic(DiscreteSource.uniform(16)), QUAD, n, seed=61)
    tracemalloc.start()
    try:
        build_reordered_table(log, KeyMode.LAMBDA_ONLY)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n, f"{peak / n:.1f} B/trial"


def test_row_sums_pm2_for_deterministic_model():
    spec = BellDeterministic(DiscreteSource.uniform(8))
    log = run_experiment(spec, MIXED_QUAD, 20_000, seed=53)
    table = build_reordered_table(log, KeyMode.LAMBDA_ONLY)
    values = {s.value for s in row_sums(table) if isinstance(s, Sum)}
    assert values <= {-2, 2}
    assert values == {-2, 2}  # mixed quad realizes both signs


def test_table_mean_tracks_statistic():
    spec = BellDeterministic(DiscreteSource.uniform(8))
    log = run_experiment(spec, MIXED_QUAD, 40_000, seed=59)
    table = build_reordered_table(log, KeyMode.LAMBDA_ONLY)
    sums = [s.value for s in row_sums(table) if isinstance(s, Sum)]
    table_mean = sum(sums) / len(sums)
    assert -2.0 <= table_mean <= 2.0
    stat = chsh_statistic(estimate_correlations(log))
    assert abs(table_mean - stat.value) < 4 * stat.std_error


def test_setting_pair_dependent_rows_reach_four():
    # the escape: reordered rows of the diagnostic model sum to +4
    spec = SettingPairDependent(DiscreteSource.uniform(2))
    log = run_experiment(spec, QUAD, 4_000, seed=61)
    table = build_reordered_table(log, KeyMode.LAMBDA_ONLY)
    assert table.complete_rows > 0
    values = {s.value for s in row_sums(table) if isinstance(s, Sum)}
    assert values == {4}


def test_lambda_time_obstruction():
    specs = [
        BellDeterministic(),
        BellDeterministic(DiscreteSource.uniform(4)),
        FactorizableInstrument(epsilon=0.5),
        TimeTaggedAnticorrelated(),
        SettingPairDependent(),
    ]
    for spec in specs:
        for n in (1, 1_000):
            log = run_experiment(spec, QUAD, n, seed=67)
            table = build_reordered_table(log, KeyMode.LAMBDA_TIME)
            assert table.complete_rows == 0
            assert table.leftover_trials == n
            assert len(table.rows) == n
            sums = row_sums(table)
            assert all(isinstance(s, Undefined) for s in sums)
            assert np.all(np.count_nonzero(table.rows, axis=1) == 1)


def test_lambda_time_keys_are_unique():
    log = run_experiment(BellDeterministic(DiscreteSource.uniform(2)), QUAD, 500, seed=71)
    table = build_reordered_table(log, KeyMode.LAMBDA_TIME)
    assert table.t is not None
    assert table.lam.dtype == np.int64 and table.t.dtype == np.int64
    keys = list(zip(table.lam.tolist(), table.t.tolist()))
    assert len(set(keys)) == len(keys) == 500


def test_continuous_lambda_refused():
    log = run_experiment(BellDeterministic(), QUAD, 100, seed=73)
    with pytest.raises(ContinuousLambdaUnorderable):
        build_reordered_table(log, KeyMode.LAMBDA_ONLY)
    with pytest.raises(ContinuousLambdaUnorderable):
        lln_balance_check(log)


def test_undefined_cannot_become_a_number():
    u = Undefined()
    with pytest.raises(TypeError):
        int(u)  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        float(u)  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        u + 1  # type: ignore[operator]
    with pytest.raises(TypeError):
        sum([u, 1])  # type: ignore[list-item]
    assert not hasattr(u, "value")


def test_lln_balance_check():
    spec = BellDeterministic(DiscreteSource.uniform(4))
    log = run_experiment(spec, QUAD, 400_000, seed=79)
    report = lln_balance_check(log)
    assert report.values.tolist() == [0, 1, 2, 3] and report.counts.shape == (4, 4)
    assert report.max_abs_z <= 4.0
    assert report.counts.dtype == np.int64 and int(report.counts.sum()) == len(log)


def test_lln_single_lambda_reduces_to_pair_counts():
    spec = BellDeterministic(DiscreteSource((1.0,)))
    log = run_experiment(spec, QUAD, 10_000, seed=83)
    report = lln_balance_check(log)
    assert report.values.tolist() == [0]
    assert report.counts.tolist() == [[int(np.count_nonzero(log.pair_id == k)) for k in range(4)]]


def test_lambda_table_keeps_the_balance_report_it_was_cut_from():
    log = run_experiment(BellDeterministic(DiscreteSource.uniform(16)), QUAD, 10_000, seed=89)
    table = build_reordered_table(log, KeyMode.LAMBDA_ONLY)
    report = lln_balance_check(log)
    assert np.array_equal(table.balance.values, report.values) and np.array_equal(table.balance.counts, report.counts)
    assert table.balance.max_abs_z == report.max_abs_z
    rows = dict(zip(*(a.tolist() for a in np.unique(table.lam, return_counts=True))))
    assert rows == {v: c for v, c in zip(report.values.tolist(), report.counts.min(axis=1).tolist()) if c}
    assert build_reordered_table(log, KeyMode.LAMBDA_TIME).balance is None


def test_lln_flags_adversarial_log():
    n = 4_096
    log = _hand_log([0] * n, [0] * n, [1] * n, [1] * n)
    report = lln_balance_check(log)
    # all trials on one pair: z = sqrt(3n) >> 4
    assert report.max_abs_z == pytest.approx(math.sqrt(3 * n), rel=1e-12)
    assert report.max_abs_z > 100


def test_json_round_trip(tmp_path):
    spec = BellDeterministic(DiscreteSource.uniform(4))
    log = run_experiment(spec, QUAD, 200, seed=89)
    for mode in (KeyMode.LAMBDA_ONLY, KeyMode.LAMBDA_TIME):
        table = build_reordered_table(log, mode)
        # the object holds the table's arrays; the compact writer turns them into lists
        path = tmp_path / f"{mode.value}.json"
        _write_json(str(path), table_to_json_obj(table), compact=True)
        obj = json.loads(path.read_text())
        assert obj["schema"] == "bell-lab.outcome-table.v2"
        assert KeyMode(obj["key_mode"]) is mode
        for key in ("complete_rows", "leftover_trials", "n_trials"):
            assert obj[key] == getattr(table, key)
        assert np.array_equal(np.asarray(obj["lambda"], dtype=table.lam.dtype), table.lam)
        assert np.array_equal(np.asarray(obj["cells"], dtype=np.int8), table.rows)
        if table.t is None:
            assert "t" not in obj
        else:
            assert np.array_equal(np.asarray(obj["t"], dtype=np.int64), table.t)


def test_json_cell_tags_explicit():
    log = run_experiment(BellDeterministic(DiscreteSource.uniform(2)), QUAD, 40, seed=97)
    table = build_reordered_table(log, KeyMode.LAMBDA_TIME)
    obj = table_to_json_obj(table)
    cells = obj["cells"]
    assert cells is table.rows and obj["lambda"] is table.lam and obj["t"] is table.t
    assert cells.shape == (40, 4) and cells.dtype == np.int8
    assert set(cells.ravel().tolist()) <= {-1, 0, 1}
    # 0 tags the counterfactual cells; exactly one factual +/-1 per row
    assert np.all(np.count_nonzero(cells, axis=1) == 1)


def test_render_table_views():
    spec = BellDeterministic(DiscreteSource.uniform(2))
    log = run_experiment(spec, QUAD, 400, seed=101)
    t12 = render_table(build_reordered_table(log, KeyMode.LAMBDA_ONLY), max_rows=6)
    assert "lam=" in t12
    assert "complete rows:" in t12
    t13 = render_table(build_reordered_table(log, KeyMode.LAMBDA_TIME), max_rows=6)
    assert "*" in t13  # factual cells starred in counterfactual mode
    assert "?" in t13


def test_tables_require_four_pair_logs():
    log = _hand_log([0, 0, 1, 1], [0, 0, 0, 0], [1, 1, 1, 1], [1, 1, 1, 1], n_pairs=2)
    with pytest.raises(ValueError):
        build_reordered_table(log, KeyMode.LAMBDA_ONLY)
