"""Model families: detector laws, anticorrelation, factorization witnesses."""

import math

import numpy as np
import pytest

from bell_lab.core import DiscreteIndex, PlanarAngle, Setting, SettingQuad
from bell_lab.errors import InvalidSpec
from bell_lab.models import (
    DiscreteSource,
    ModelKind,
    ModelSpec,
    Station,
    UniformAngleSource,
    bell_deterministic,
    check_anticorrelation,
    detector_a,
    detector_b,
    factorizable_instrument,
    instrument_arrays,
    sample_instrument_params,
    sample_source,
    setting_pair_dependent,
    source_arrays,
    time_tagged_anticorrelated,
)
from bell_lab.simulate import run_experiment

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
    with pytest.raises(InvalidSpec):
        ModelSpec(ModelKind.BELL_DETERMINISTIC, UniformAngleSource(), epsilon=0.5)
    with pytest.raises(InvalidSpec):
        ModelSpec(ModelKind.FACTORIZABLE_INSTRUMENT, UniformAngleSource(), epsilon=1.5)
    with pytest.raises(InvalidSpec):
        ModelSpec("not a kind", UniformAngleSource())  # type: ignore[arg-type]
    spec = factorizable_instrument(0.25)
    assert spec.epsilon == 0.25
    assert not spec.setting_dependent_distribution
    assert setting_pair_dependent().setting_dependent_distribution


# --- source sampling ---------------------------------------------------------


def test_sample_source_point_mass():
    spec = bell_deterministic(DiscreteSource((1.0,)))
    for trial in range(20):
        assert sample_source(spec, 5, trial) == DiscreteIndex(0)


def test_sample_source_uniform_discrete_frequencies():
    spec = bell_deterministic(DiscreteSource.uniform(4))
    n = 1_000_000
    lam, _ = source_arrays(spec, 123, np.arange(n, dtype=np.uint64))
    counts = np.bincount(lam.astype(int), minlength=4)
    sd = math.sqrt(n * 0.25 * 0.75)
    for k in range(4):
        assert abs(counts[k] - n / 4) < 4 * sd, counts


def test_sample_source_deterministic_given_substream():
    spec = bell_deterministic()
    a = sample_source(spec, 99, 17)
    b = sample_source(spec, 99, 17)
    assert a == b
    assert isinstance(a, PlanarAngle)


def test_sample_source_weighted():
    spec = bell_deterministic(DiscreteSource((0.9, 0.1)))
    n = 100_000
    lam, _ = source_arrays(spec, 3, np.arange(n, dtype=np.uint64))
    frac1 = float(np.mean(lam == 1))
    sd = math.sqrt(0.1 * 0.9 / n)
    assert abs(frac1 - 0.1) < 4 * sd


# --- detectors ----------------------------------------------------------------


def test_detector_examples_bell_deterministic():
    spec = bell_deterministic()
    zero = Setting(0.0)
    assert detector_a(spec, zero, PlanarAngle(0.0), 0.0, 0) == 1
    assert detector_a(spec, zero, PlanarAngle(math.pi), 0.0, 0) == -1
    # tie at relative angle pi/2 resolves to +1 (sign(0) := +1)
    assert detector_a(spec, zero, PlanarAngle(math.pi / 2), 0.0, 0) == 1
    assert detector_b(spec, zero, PlanarAngle(0.0), 0.0, 0) == -1


def test_detector_b_negates_a_at_equal_settings():
    spec = bell_deterministic()
    s = Setting(1.234)
    for k in range(50):
        lam = PlanarAngle(k * 0.13)
        assert detector_a(spec, s, lam, 0.0, k) == -detector_b(spec, s, lam, 0.0, k)


def test_discrete_lambda_feeds_midpoint_angle():
    spec = bell_deterministic(DiscreteSource.uniform(4))
    # index 0 -> angle pi/4: detector at setting 0 sees cos(pi/4) > 0
    assert detector_a(spec, Setting(0.0), DiscreteIndex(0), 0.0, 0) == 1
    # index 2 -> angle 5pi/4: cos < 0
    assert detector_a(spec, Setting(0.0), DiscreteIndex(2), 0.0, 0) == -1


# --- instrument parameters -----------------------------------------------------


def test_bell_deterministic_instruments_constant_zero():
    spec = bell_deterministic()
    for trial in (0, 5, 999):
        ip = sample_instrument_params(spec, Setting(0.3), trial, PlanarAngle(0.1), 7, trial, Station.S1)
        assert ip == 0.0


def test_instrument_values_canonical_range():
    idx = np.arange(1000, dtype=np.uint64)
    theta = np.full(1000, 0.7)
    for spec in (factorizable_instrument(0.5), time_tagged_anticorrelated()):
        for station in (Station.S1, Station.S2):
            ip = instrument_arrays(spec, 3, idx, idx, theta, station)
            assert ip.min() >= 0.0 and ip.max() < 1.0


def test_zero_noise_reduces_to_deterministic_outcomes():
    noisy = factorizable_instrument(0.0)
    clean = bell_deterministic()
    log_a = run_experiment(noisy, QUAD, 10_000, seed=11)
    log_b = run_experiment(clean, QUAD, 10_000, seed=11)
    assert np.array_equal(log_a.a, log_b.a)
    assert np.array_equal(log_a.b, log_b.b)


def test_factorization_witness_instrument_stream_ignores_remote_setting():
    # Permuting the remote station's settings must not change the local
    # instrument-value stream, bit for bit, at fixed substreams.
    quad_swapped = SettingQuad.from_degrees(0.0, 135.0, 45.0, 90.0)  # b <-> c
    for spec in (bell_deterministic(), factorizable_instrument(0.35)):
        log1 = run_experiment(spec, QUAD, 5_000, seed=21)
        log2 = run_experiment(spec, quad_swapped, 5_000, seed=21)
        assert np.array_equal(log1.ip_1, log2.ip_1)


def test_time_tagged_instruments_shared_at_equal_inputs():
    spec = time_tagged_anticorrelated()
    s = Setting(0.5)
    for t in range(10):
        ip1 = sample_instrument_params(spec, s, t, PlanarAngle(0.0), 4, t, Station.S1)
        ip2 = sample_instrument_params(spec, s, t, PlanarAngle(0.0), 4, t, Station.S2)
        assert ip1 == ip2


def test_time_tagged_instruments_vary_with_setting_and_time():
    spec = time_tagged_anticorrelated()
    idx = np.arange(200, dtype=np.uint64)
    theta = np.full(200, 0.5)
    flips_t = instrument_arrays(spec, 4, idx, idx, theta, Station.S1) < 0.5
    assert len(np.unique(flips_t)) == 2  # varies with t
    theta2 = np.full(200, 1.5)
    flips_s = instrument_arrays(spec, 4, idx, idx, theta2, Station.S1) < 0.5
    assert not np.array_equal(flips_t, flips_s)  # varies with setting


def test_setting_pair_dependent_requires_pair_context():
    spec = setting_pair_dependent()
    with pytest.raises(InvalidSpec):
        sample_instrument_params(spec, Setting(0.0), 0, PlanarAngle(0.0), 1, 0, Station.S1)
    with pytest.raises(InvalidSpec):
        check_anticorrelation(spec, [Setting(0.0)], 10, seed=1)


# --- anticorrelation -----------------------------------------------------------


def test_anticorrelation_bell_deterministic_exact():
    report = check_anticorrelation(bell_deterministic(), EIGHT_SETTINGS, 10_000, seed=2)
    assert report.violations == 0
    assert report.trials == 10_000


def test_anticorrelation_time_tagged_exact():
    report = check_anticorrelation(time_tagged_anticorrelated(), EIGHT_SETTINGS, 100_000, seed=3)
    assert report.violations == 0


def test_anticorrelation_noise_rate_matches_binomial_oracle():
    # P(A != -B) = eps*(1-eps) + eps^2/2 = eps - eps^2/2 (case enumeration:
    # one station replaced -> coin wrong half the time; both replaced -> half).
    eps = 0.5
    n = 100_000
    report = check_anticorrelation(factorizable_instrument(eps), EIGHT_SETTINGS, n, seed=4)
    rate = eps - eps**2 / 2
    sd = math.sqrt(n * rate * (1 - rate))
    assert report.violations > 0
    assert abs(report.violations - n * rate) < 4 * sd


def test_check_anticorrelation_validates_inputs():
    with pytest.raises(InvalidSpec):
        check_anticorrelation(bell_deterministic(), EIGHT_SETTINGS, 0, seed=1)
    with pytest.raises(InvalidSpec):
        check_anticorrelation(bell_deterministic(), [], 10, seed=1)


# --- scalar API agrees with the vectorized runner --------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        bell_deterministic(),
        bell_deterministic(DiscreteSource.uniform(8)),
        factorizable_instrument(0.4),
        time_tagged_anticorrelated(),
        setting_pair_dependent(),
    ],
    ids=lambda s: s.kind.value + ("_discrete" if s.source_size else ""),
)
def test_scalar_api_reconstructs_logged_trials(spec):
    seed = 31
    log = run_experiment(spec, QUAD, 50, seed=seed)
    assert np.array_equal(log.t, np.arange(len(log)))
    for i in range(len(log)):
        t, pair_id = int(log.t[i]), int(log.pair_id[i])
        setting_1, setting_2 = Setting(float(log.setting_1[i])), Setting(float(log.setting_2[i]))
        lam = sample_source(spec, seed, i)
        logged_lam = DiscreteIndex(int(log.lam[i])) if log.lambda_kind == "discrete" else PlanarAngle(float(log.lam[i]))
        assert lam == logged_lam
        ip1 = sample_instrument_params(spec, setting_1, t, lam, seed, i, Station.S1, pair_id=pair_id)
        ip2 = sample_instrument_params(spec, setting_2, t, lam, seed, i, Station.S2, pair_id=pair_id)
        assert ip1 == log.ip_1[i]
        assert ip2 == log.ip_2[i]
        assert detector_a(spec, setting_1, lam, ip1, t) == log.a[i]
        assert detector_b(spec, setting_2, lam, ip2, t) == log.b[i]


# --- custom model families ----------------------------------------------------------


class _CoinFamily:
    """Trivial custom family: fair independent coins at both stations."""

    lambda_kind = "angle"
    source_size = None
    flags = {"setting_dependent_distribution": False}

    def source_arrays(self, seed, indices):
        from bell_lab import rng

        angle = rng.uniforms(seed, "source", indices) * (2 * math.pi)
        return angle, angle

    def instrument_arrays(self, seed, indices, t, theta_local, station, pair_id=None):
        from bell_lab import rng

        return rng.uniforms(seed, f"coin.{station.value}", indices)

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
