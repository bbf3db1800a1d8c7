"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (visible with -s / -rP);
a failure reads as the criterion number plus the violated bound.
"""

import itertools
import json
import math

import numpy as np
import pytest

from bell_lab.cli import main
from bell_lab.core import Setting, SettingQuad, row_identity, row_sum
from bell_lab.models import (
    BellDeterministic,
    DiscreteSource,
    FactorizableInstrument,
    SettingPairDependent,
    Station,
    TimeTaggedAnticorrelated,
    check_anticorrelation,
    instrument_arrays,
)
from bell_lab.oracle import (
    enumerate_deterministic_strategies,
    exact_chsh,
    forced_product_overrides,
    singlet_chsh,
)
from bell_lab.simulate import chsh_statistic, estimate_correlations, run_experiment, run_pairs
from bell_lab.tables import (
    KeyMode,
    Sum,
    Undefined,
    build_reordered_table,
    lln_balance_check,
    row_sums,
)
from test_oracle import random_finite_model

PM1 = (-1, 1)
CANONICAL_QUAD = SettingQuad.from_degrees(0.0, 45.0, 135.0, 90.0)
EIGHT_SETTINGS = [Setting(k * math.pi / 4) for k in range(8)]


def test_criterion_01_row_identity_exhaustive():
    for x, y, z in itertools.product(PM1, repeat=3):
        lhs, rhs = row_identity(x, y, z)
        assert lhs == rhs, (x, y, z)
    print("ACCEPTANCE 01 PASS - row identity |xz-yz| = 1-xy holds on all 8 triples")


def test_criterion_02_row_sum_exhaustive():
    values = {row_sum(*t) for t in itertools.product(PM1, repeat=4)}
    assert values == {-2, 2}
    print("ACCEPTANCE 02 PASS - all 16 four-term rows sum to -2 or +2 exactly")


def test_criterion_03_local_bound_certificate():
    for m in (1, 2, 4, 8):
        result = enumerate_deterministic_strategies(2, 2, m)
        assert result.max_abs_chsh == 2.0, m
    gen = np.random.default_rng(20240917)
    worst = -math.inf
    for _ in range(1000):
        fm = random_finite_model(gen, m=4, n_ip1=2, n_ip2=2, quad=CANONICAL_QUAD)
        value = exact_chsh(fm, CANONICAL_QUAD)
        worst = max(worst, value)
        assert value <= 2.0 + 1e-12
    print(f"ACCEPTANCE 03 PASS - strategy maximum 2 exactly (m=1,2,4,8); 1000 random models max {worst:.12f} <= 2+1e-12")


def test_criterion_04_setting_dependent_escape(tmp_path):
    cfg = tmp_path / "spd.cfg"
    cfg.write_text(
        "model.kind = setting_pair_dependent\n"
        "quad.a_deg = 0\nquad.b_deg = 45\nquad.c_deg = 135\nquad.d_deg = 90\n"
        "n_trials = 64\nseed = 123\n"
        "outputs.report = report.json\n"
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    counts = [e["count"] for e in report["estimates"]]
    assert all(c >= 2 for c in counts), "all four pairs must be sampled"
    assert report["chsh"]["value"] == 4.0
    assert report["chsh"]["std_error"] == 0.0
    assert report["chsh"]["flags"]["setting_dependent_distribution"] is True

    assert exact_chsh(None, CANONICAL_QUAD, forced_product_overrides(CANONICAL_QUAD)) == 4.0
    print("ACCEPTANCE 04 PASS - pair-dependent distribution drives the statistic to 4.0 exactly (simulated and exact)")


def test_criterion_05_classical_calibration():
    spec = BellDeterministic()
    n = 1_000_000
    details = []
    for k, theta in enumerate((0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi)):
        log = run_pairs(spec, [(Setting(0.0), Setting(theta))], n, seed=500 + k)
        (est,) = estimate_correlations(log)
        expected = -1.0 + 2.0 * theta / math.pi
        if theta == 0.0:
            assert est.mean == -1.0
            assert est.std_error == 0.0
        elif est.std_error == 0.0:
            assert est.mean == expected
        else:
            assert abs(est.mean - expected) < 4 * est.std_error, (theta, est)
        details.append(f"{math.degrees(theta):.0f}deg:{est.mean:+.4f}")
    print(f"ACCEPTANCE 05 PASS - sign-model calibration within 4 sigma of -1+2*theta/pi at N=1e6 ({', '.join(details)})")


def test_criterion_06_time_tagged_anticorrelation():
    spec = TimeTaggedAnticorrelated()
    report = check_anticorrelation(spec, EIGHT_SETTINGS, 100_000, seed=606)
    assert report.trials == 100_000
    assert report.violations == 0
    # the instrument stream genuinely varies with (setting, t)
    idx = np.arange(1000, dtype=np.uint64)
    distinct_flips = set()
    for s in EIGHT_SETTINGS:
        ips = instrument_arrays(spec, 606, idx, np.full(1000, s.angle), Station.S1)
        distinct_flips.update(np.unique(ips < 0.5).tolist())
    assert len(distinct_flips) == 2
    print("ACCEPTANCE 06 PASS - time-tagged model: 0 violations in 1e5 equal-setting trials; flip stream non-constant")


def test_criterion_07_quantum_reference_exceeds_local_bound():
    value = singlet_chsh(CANONICAL_QUAD)
    assert abs(value - 2.0 * math.sqrt(2.0)) <= 1e-12
    certified = enumerate_deterministic_strategies(2, 2, 4).max_abs_chsh
    assert certified == 2.0
    assert value > certified
    print(f"ACCEPTANCE 07 PASS - singlet statistic {value:.12f} = 2*sqrt(2) within 1e-12, above the certified bound 2")


def test_criterion_08_reordering_table():
    spec = BellDeterministic(DiscreteSource.uniform(16))
    n = 100_000
    log = run_experiment(spec, CANONICAL_QUAD, n, seed=808)
    table = build_reordered_table(log, KeyMode.LAMBDA_ONLY)
    assert 4 * table.complete_rows + table.leftover_trials == n
    leftover_fraction = table.leftover_trials / n
    assert leftover_fraction <= 0.05, leftover_fraction

    sums = row_sums(table)
    values = [s.value for s in sums if isinstance(s, Sum)]
    assert len(values) == table.complete_rows
    assert set(values) <= {-2, 2}

    table_mean = sum(values) / len(values)
    stat = chsh_statistic(estimate_correlations(log))
    assert abs(table_mean - stat.value) < 4 * stat.std_error

    balance = lln_balance_check(log)
    assert balance.max_abs_z <= 4.0
    print(
        f"ACCEPTANCE 08 PASS - reordering: leftover {leftover_fraction:.3%} <= 5%, sums in {{-2,+2}}, "
        f"table mean {table_mean:+.4f} vs statistic {stat.value:+.4f} within 4 sigma, max |z| {balance.max_abs_z:.2f} <= 4"
    )


def test_criterion_09_time_tag_obstruction():
    specs = [
        BellDeterministic(),
        BellDeterministic(DiscreteSource.uniform(16)),
        FactorizableInstrument(epsilon=0.5),
        TimeTaggedAnticorrelated(),
        SettingPairDependent(),
    ]
    for spec in specs:
        for n in (1, 1_000, 100_000):
            log = run_experiment(spec, CANONICAL_QUAD, n, seed=909)
            table = build_reordered_table(log, KeyMode.LAMBDA_TIME)
            assert table.complete_rows == 0, (spec.name, n)
            sums = row_sums(table)
            assert len(sums) == n
            assert all(isinstance(s, Undefined) for s in sums)

    undefined = Undefined()
    with pytest.raises(TypeError):
        int(undefined)  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        float(undefined)  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        undefined + 2  # type: ignore[operator]
    with pytest.raises(TypeError):
        sum([undefined, Undefined()])  # type: ignore[list-item]
    print("ACCEPTANCE 09 PASS - (lambda, t) keys: 0 complete rows for every model at N=1,1e3,1e5; Undefined is not a number")


def test_criterion_10_byte_identical_reproducibility(tmp_path, monkeypatch):
    cfg = tmp_path / "rep.cfg"
    cfg.write_text(
        "model.kind = factorizable_instrument\nmodel.epsilon = 0.25\n"
        "model.source.kind = discrete\nmodel.source.size = 8\n"
        "quad.a_deg = 0\nquad.b_deg = 45\nquad.c_deg = 135\nquad.d_deg = 90\n"
        "n_trials = 20000\nseed = 1010\n"
        "outputs.report = report.json\noutputs.trial_log = trials.csv\n"
    )
    blobs = []
    for sub, threads in (("a", None), ("b", None), ("c", 4)):
        out = tmp_path / sub
        argv = ["simulate", "--config", str(cfg), "--out", str(out)]
        if threads:
            argv += ["--threads", str(threads)]
        assert main(argv) == 0
        blobs.append(((out / "report.json").read_bytes(), (out / "trials.csv").read_bytes()))
    # and once more with parallelism from the environment
    monkeypatch.setenv("BELL_LAB_THREADS", "8")
    out = tmp_path / "d"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    blobs.append(((out / "report.json").read_bytes(), (out / "trials.csv").read_bytes()))
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]
    print("ACCEPTANCE 10 PASS - byte-identical CSV log and JSON report across runs at parallelism 1, 4, and 8")
