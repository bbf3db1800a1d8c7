"""Model families: detector laws, anticorrelation, factorization witnesses."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bell_lab import models, oracle
from bell_lab.core import TAU, Setting, SettingQuad
from bell_lab.errors import AnticorrelationViolated, InvalidSpec
from bell_lab.models import (
    BellDeterministic,
    DiscreteSource,
    FactorizableInstrument,
    SettingPairDependent,
    Station,
    TimeTaggedAnticorrelated,
    UniformAngleSource,
    check_anticorrelation,
    instrument_arrays,
    midpoint_angles,
    outcome_arrays,
    sign_law,
    source_arrays,
)
from bell_lab.simulate import bell_statistic, run_experiment

EIGHT_SETTINGS = [Setting(k * math.pi / 4) for k in range(8)]
QUAD = SettingQuad.from_degrees(0.0, 45.0, 135.0, 90.0)


def closed_form_correlation(theta: float) -> float:
    """Deterministic sign model at relative angle theta in [0, pi]."""
    return -1.0 + 2.0 * theta / math.pi


def quadrature_correlation(theta_a: float, theta_b: float, n: int = 2_000_001) -> float:
    """Independent midpoint-quadrature oracle for the sign model correlation."""
    lam = (np.arange(n) + 0.5) * (2 * math.pi / n)
    sa = np.where(np.cos(theta_a - lam) >= 0, 1, -1)
    sb = -np.where(np.cos(theta_b - lam) >= 0, 1, -1)
    return float(np.mean(sa * sb))


@pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 3, math.pi / 2, 3 * math.pi / 4, math.pi])
def test_closed_form_matches_quadrature_oracle(theta):
    assert quadrature_correlation(0.0, theta) == pytest.approx(closed_form_correlation(theta), abs=2e-6)


# --- spec validation ---------------------------------------------------------


def test_discrete_source_validation():
    with pytest.raises(InvalidSpec):
        DiscreteSource(())
    with pytest.raises(InvalidSpec):
        DiscreteSource((0.5, 0.6))
    with pytest.raises(InvalidSpec):
        DiscreteSource((-0.1, 1.1))
    src = DiscreteSource.uniform(4)
    assert src.size == 4
    assert math.fsum(src.weights) == pytest.approx(1.0, abs=1e-15)


def test_model_spec_validation():
    with pytest.raises(TypeError):  # epsilon is a parameter of factorizable_instrument only
        BellDeterministic(UniformAngleSource(), epsilon=0.5)  # type: ignore[call-arg]
    with pytest.raises(InvalidSpec):
        FactorizableInstrument(UniformAngleSource(), epsilon=1.5)
    spec = FactorizableInstrument(epsilon=0.25)
    assert spec.epsilon == 0.25
    assert not spec.setting_dependent_distribution
    assert SettingPairDependent().setting_dependent_distribution


# --- source sampling ---------------------------------------------------------


def test_sample_source_point_mass():
    spec = BellDeterministic(DiscreteSource((1.0,)))
    lam, angle = source_arrays(spec, 5, np.arange(20, dtype=np.uint64))
    assert lam.tolist() == [0.0] * 20
    assert angle.tolist() == [math.pi] * 20


def test_sample_source_uniform_discrete_frequencies():
    spec = BellDeterministic(DiscreteSource.uniform(4))
    n = 1_000_000
    lam, _ = source_arrays(spec, 123, np.arange(n, dtype=np.uint64))
    counts = np.bincount(lam.astype(int), minlength=4)
    sd = math.sqrt(n * 0.25 * 0.75)
    for k in range(4):
        assert abs(counts[k] - n / 4) < 4 * sd, counts


def test_sample_source_deterministic_given_substream():
    spec = BellDeterministic()
    a, a_angle = source_arrays(spec, 99, np.asarray([17], dtype=np.uint64))
    b, _ = source_arrays(spec, 99, np.asarray([17], dtype=np.uint64))
    batch, _ = source_arrays(spec, 99, np.arange(20, dtype=np.uint64))
    assert a[0] == b[0] == batch[17]
    # an angle source logs the angle itself
    assert spec.lambda_kind == "angle" and a[0] == a_angle[0] and 0.0 <= a[0] < TAU


def test_sample_source_weighted():
    spec = BellDeterministic(DiscreteSource((0.9, 0.1)))
    n = 100_000
    lam, _ = source_arrays(spec, 3, np.arange(n, dtype=np.uint64))
    frac1 = float(np.mean(lam == 1))
    sd = math.sqrt(0.1 * 0.9 / n)
    assert abs(frac1 - 0.1) < 4 * sd


# --- detectors ----------------------------------------------------------------


def test_detector_examples_bell_deterministic():
    spec = BellDeterministic()
    zero = np.zeros(3)
    a = outcome_arrays(spec, Station.S1, zero, np.array([0.0, math.pi, math.pi / 2]), zero)
    # the last case, x = -fl(pi/2), has the positive cosine 6.1e-17
    assert a.tolist() == [1, -1, 1]
    assert outcome_arrays(spec, Station.S2, zero[:1], zero[:1], zero[:1]).tolist() == [-1]


def test_detector_b_negates_a_at_equal_settings():
    spec = BellDeterministic()
    theta = np.full(50, 1.234)
    lam = np.arange(50) * 0.13
    ip = np.zeros(50)
    a = outcome_arrays(spec, Station.S1, theta, lam, ip)
    b = outcome_arrays(spec, Station.S2, theta, lam, ip)
    assert np.array_equal(a, -b)


def test_discrete_lambda_feeds_midpoint_angle():
    spec = BellDeterministic(DiscreteSource.uniform(4))
    index, angle = source_arrays(spec, 0, np.arange(64, dtype=np.uint64))
    assert np.array_equal(angle, midpoint_angles(index, 4))
    a = outcome_arrays(spec, Station.S1, np.zeros(64), angle, np.zeros(64))
    assert np.any(index == 0) and np.any(index == 2)
    # index 0 -> angle pi/4: detector at setting 0 sees cos(pi/4) > 0
    assert np.all(a[index == 0] == 1)
    # index 2 -> angle 5pi/4: cos < 0
    assert np.all(a[index == 2] == -1)


# --- the sign law ----------------------------------------------------------------


def cos_sign_law(station, theta_local, lam_angle):
    """Reference law: the sign of np.cos(theta - lambda), +1 when it is >= 0, negated at station 2."""
    sign = np.where(np.cos(np.asarray(theta_local) - np.asarray(lam_angle)) >= 0.0, 1, -1).astype(np.int8)
    return sign if station is Station.S1 else -sign


def assert_sign_law_matches_cos(theta, lam):
    for station in Station:
        signs = sign_law(station, theta, lam)
        assert signs.dtype == np.int8
        assert np.array_equal(signs, cos_sign_law(station, theta, lam)), station


def test_sign_law_at_zero_and_tiny_differences():
    # x = theta - lambda = +0, -0, 1e-300, -1e-300: cos(x) = 1, so +1 at station 1
    theta = np.array([0.0, -0.0, 1e-300, 0.0])
    lam = np.array([0.0, 0.0, 0.0, 1e-300])
    assert sign_law(Station.S1, theta, lam).tolist() == [1, 1, 1, 1]
    assert_sign_law_matches_cos(theta, lam)


@pytest.mark.parametrize("crossing", [math.pi / 2, 3 * math.pi / 2])
def test_sign_law_matches_cos_within_50_ulps_of_each_crossing(crossing):
    # x + j * ulp(x) stays in x's binade for |j| <= 50, so every x is exact
    x = crossing + np.arange(-50, 51) * np.spacing(crossing)
    zero = np.zeros_like(x)
    assert_sign_law_matches_cos(x, zero)  # theta - lambda = +x
    assert_sign_law_matches_cos(zero, x)  # theta - lambda = -x


@given(st.lists(st.tuples(st.floats(0.0, TAU, exclude_max=True), st.floats(0.0, TAU, exclude_max=True)), min_size=1))
def test_sign_law_matches_cos_on_drawn_angles(pairs):
    theta, lam = np.array(pairs).T
    assert_sign_law_matches_cos(theta, lam)


@pytest.mark.parametrize("size", [16, 360])
def test_sign_law_matches_cos_on_the_midpoint_grid(size):
    lam = midpoint_angles(np.arange(size), size)
    for degrees in (0.0, 90.0, 180.0, 270.0):
        assert_sign_law_matches_cos(np.full(size, Setting.from_degrees(degrees).angle), lam)


SHIPPED_SPECS = [
    spec
    for source in (UniformAngleSource(), DiscreteSource.uniform(16))
    for spec in (
        BellDeterministic(source),
        FactorizableInstrument(source, epsilon=0.25),
        TimeTaggedAnticorrelated(source),
        SettingPairDependent(source),
    )
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("spec", SHIPPED_SPECS, ids=lambda s: f"{s.name}-{s.lambda_kind}")
def test_runs_equal_the_cos_reference_runs(spec, threads, monkeypatch):
    log = run_experiment(spec, QUAD, 20_000, seed=17, threads=threads)
    monkeypatch.setattr(models, "sign_law", cos_sign_law)
    assert run_experiment(spec, QUAD, 20_000, seed=17, threads=threads) == log


@pytest.mark.parametrize(
    "spec",
    [s for s in SHIPPED_SPECS if isinstance(s, (BellDeterministic, FactorizableInstrument))],
    ids=lambda s: f"{s.name}-{s.lambda_kind}",
)
def test_discretized_tables_equal_the_cos_reference_tables(spec, monkeypatch):
    settings = [Setting.from_degrees(d) for d in range(360)]
    fm = oracle.discretize_model(spec, settings)
    monkeypatch.setattr(oracle, "sign_law", cos_sign_law)
    reference = oracle.discretize_model(spec, settings)
    for table, reference_table in ((fm.a_table, reference.a_table), (fm.b_table, reference.b_table)):
        assert table.keys() == reference_table.keys()
        for s in settings:
            assert table[s].dtype == reference_table[s].dtype and np.array_equal(table[s], reference_table[s])


# --- instrument parameters -----------------------------------------------------


def test_bell_deterministic_instruments_constant_zero():
    trials = np.asarray([0, 5, 999], dtype=np.uint64)
    ip = instrument_arrays(BellDeterministic(), 7, trials, np.full(3, 0.3), Station.S1)
    assert ip.tolist() == [0.0, 0.0, 0.0]


def test_instrument_values_canonical_range():
    idx = np.arange(1000, dtype=np.uint64)
    theta = np.full(1000, 0.7)
    for spec in (FactorizableInstrument(epsilon=0.5), TimeTaggedAnticorrelated()):
        for station in (Station.S1, Station.S2):
            ip = instrument_arrays(spec, 3, idx, theta, station)
            assert ip.min() >= 0.0 and ip.max() < 1.0


def test_zero_noise_reduces_to_deterministic_outcomes():
    noisy = FactorizableInstrument(epsilon=0.0)
    clean = BellDeterministic()
    log_a = run_experiment(noisy, QUAD, 10_000, seed=11)
    log_b = run_experiment(clean, QUAD, 10_000, seed=11)
    assert np.array_equal(log_a.a, log_b.a)
    assert np.array_equal(log_a.b, log_b.b)


def test_factorization_witness_instrument_stream_ignores_remote_setting():
    # Permuting the remote station's settings must not change the local
    # instrument-value stream, bit for bit, at fixed substreams.
    quad_swapped = SettingQuad.from_degrees(0.0, 135.0, 45.0, 90.0)  # b <-> c
    for spec in (BellDeterministic(), FactorizableInstrument(epsilon=0.35)):
        log1 = run_experiment(spec, QUAD, 5_000, seed=21)
        log2 = run_experiment(spec, quad_swapped, 5_000, seed=21)
        assert np.array_equal(log1.ip_1, log2.ip_1)


def test_time_tagged_instruments_shared_at_equal_inputs():
    spec = TimeTaggedAnticorrelated()
    t = np.arange(10, dtype=np.uint64)
    theta = np.full(10, 0.5)
    ip1 = instrument_arrays(spec, 4, t, theta, Station.S1)
    ip2 = instrument_arrays(spec, 4, t, theta, Station.S2)
    assert np.array_equal(ip1, ip2)


def test_time_tagged_instruments_vary_with_setting_and_time():
    spec = TimeTaggedAnticorrelated()
    idx = np.arange(200, dtype=np.uint64)
    theta = np.full(200, 0.5)
    flips_t = instrument_arrays(spec, 4, idx, theta, Station.S1) < 0.5
    assert len(np.unique(flips_t)) == 2  # varies with t
    theta2 = np.full(200, 1.5)
    flips_s = instrument_arrays(spec, 4, idx, theta2, Station.S1) < 0.5
    assert not np.array_equal(flips_t, flips_s)  # varies with setting


def test_setting_pair_dependent_requires_pair_context():
    spec = SettingPairDependent()
    zero = np.zeros(1, dtype=np.uint64)
    with pytest.raises(InvalidSpec):
        instrument_arrays(spec, 1, zero, np.zeros(1), Station.S1)
    with pytest.raises(InvalidSpec):
        check_anticorrelation(spec, [Setting(0.0)], 10, seed=1)


# --- anticorrelation -----------------------------------------------------------


def test_anticorrelation_bell_deterministic_exact():
    report = check_anticorrelation(BellDeterministic(), EIGHT_SETTINGS, 10_000, seed=2)
    assert report.violations == 0
    assert report.trials == 10_000


def test_anticorrelation_time_tagged_exact():
    report = check_anticorrelation(TimeTaggedAnticorrelated(), EIGHT_SETTINGS, 100_000, seed=3)
    assert report.violations == 0


def test_anticorrelation_noise_rate_matches_binomial_oracle():
    # P(A != -B) = eps*(1-eps) + eps^2/2 = eps - eps^2/2 (case enumeration:
    # one station replaced -> coin wrong half the time; both replaced -> half).
    eps = 0.5
    n = 100_000
    report = check_anticorrelation(FactorizableInstrument(epsilon=eps), EIGHT_SETTINGS, n, seed=4)
    rate = eps - eps**2 / 2
    sd = math.sqrt(n * rate * (1 - rate))
    assert report.violations > 0
    assert abs(report.violations - n * rate) < 4 * sd


def test_check_anticorrelation_validates_inputs():
    with pytest.raises(InvalidSpec):
        check_anticorrelation(BellDeterministic(), EIGHT_SETTINGS, 0, seed=1)
    with pytest.raises(InvalidSpec):
        check_anticorrelation(BellDeterministic(), [], 10, seed=1)


# --- one trial through the kernels agrees with the vectorized runner -------------


@pytest.mark.parametrize(
    "spec",
    [
        BellDeterministic(),
        BellDeterministic(DiscreteSource.uniform(8)),
        FactorizableInstrument(epsilon=0.4),
        TimeTaggedAnticorrelated(),
        SettingPairDependent(),
    ],
    ids=lambda s: s.name + ("_discrete" if s.lambda_kind == "discrete" else ""),
)
def test_scalar_api_reconstructs_logged_trials(spec):
    seed = 31
    log = run_experiment(spec, QUAD, 50, seed=seed)
    assert np.array_equal(log.t, np.arange(len(log)))
    for i in range(len(log)):
        # one trial: the kernels called on length-1 arrays
        trial = np.asarray([i], dtype=np.uint64)
        t = log.t[i : i + 1].astype(np.uint64)
        pair_id = log.pair_id[i : i + 1]
        theta_1, theta_2 = log.setting_1[i : i + 1], log.setting_2[i : i + 1]
        lam, lam_angle = source_arrays(spec, seed, trial)
        assert lam[0] == log.lam[i]
        ip1 = instrument_arrays(spec, seed, t, theta_1, Station.S1, pair_id=pair_id)
        ip2 = instrument_arrays(spec, seed, t, theta_2, Station.S2, pair_id=pair_id)
        assert ip1[0] == log.ip_1[i]
        assert ip2[0] == log.ip_2[i]
        assert outcome_arrays(spec, Station.S1, theta_1, lam_angle, ip1)[0] == log.a[i]
        assert outcome_arrays(spec, Station.S2, theta_2, lam_angle, ip2)[0] == log.b[i]


# --- custom model families ----------------------------------------------------------


class _CoinFamily:
    """Trivial custom family: fair independent coins at both stations."""

    lambda_kind = "angle"

    def source_arrays(self, seed, indices):
        from bell_lab import rng

        angle = rng.uniforms(seed, "source", indices) * (2 * math.pi)
        return angle, angle

    def instrument_arrays(self, seed, t, theta_local, station, pair_id=None):
        from bell_lab import rng

        return rng.uniforms(seed, f"coin.{station.value}", t)

    def outcome_arrays(self, station, theta_local, lam_angle, ip):
        return np.where(np.asarray(ip) < 0.5, 1, -1).astype(np.int8)


def test_register_custom_family():
    fam = _CoinFamily()
    log = run_experiment(fam, QUAD, 2_000, seed=8)
    # independent coins: correlation ~ 0
    products = log.a.astype(float) * log.b.astype(float)
    assert abs(products.mean()) < 4 / math.sqrt(len(log))
    # custom families share the runner's code path, so criterion 10 holds for them too
    one = run_experiment(fam, QUAD, 20_000, seed=8, threads=1)
    two = run_experiment(fam, QUAD, 20_000, seed=8, threads=2)
    for col in ("t", "pair_id", "setting_1", "setting_2", "lam", "ip_1", "ip_2", "a", "b"):
        assert getattr(one, col).tobytes() == getattr(two, col).tobytes(), col


def test_custom_family_runs_the_equal_settings_pilot():
    # independent coins give A != -B at equal settings on about half the pilot trials
    with pytest.raises(AnticorrelationViolated):
        bell_statistic(_CoinFamily(), *EIGHT_SETTINGS[:3], 1_000, seed=8)


def test_custom_family_goes_through_the_module_dispatchers(monkeypatch):
    # The runner and the pilot reach every family's laws through the three
    # module-level dispatchers, so a custom family is traced like a shipped one.
    calls = {}

    def counting(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args, **kwargs)

        return wrapper

    for name in ("source_arrays", "instrument_arrays", "outcome_arrays"):
        monkeypatch.setattr(models, name, counting(name, getattr(models, name)))
    run_experiment(_CoinFamily(), QUAD, 100, seed=8, threads=1)
    assert calls == {"source_arrays": 1, "instrument_arrays": 2, "outcome_arrays": 2}
    calls.clear()
    check_anticorrelation(_CoinFamily(), EIGHT_SETTINGS, 100, seed=8)
    assert calls == {"source_arrays": 1, "instrument_arrays": 2, "outcome_arrays": 2}
