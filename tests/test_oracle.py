"""Exact oracles: finite models, strategy enumeration, quantum reference."""

import itertools
import math

import numpy as np
import pytest

from bell_lab.core import Setting, SettingQuad, chsh_pairs
from bell_lab.errors import InvalidSpec, TooLarge, UnknownSetting
from bell_lab.models import DiscreteSource, bell_deterministic, factorizable_instrument, time_tagged_anticorrelated
from bell_lab.oracle import (
    FiniteModel,
    discretize_model,
    enumerate_deterministic_strategies,
    exact_chsh,
    exact_correlation,
    finite_model_from_json_obj,
    finite_model_to_json_obj,
    forced_product_overrides,
    singlet_chsh,
    singlet_correlation,
)
from bell_lab.simulate import estimate_correlations, run_experiment

QUAD = SettingQuad(Setting(0.0), Setting(math.pi / 4), Setting(3 * math.pi / 4), Setting(math.pi / 2))


def _tiny_model(a_val=1, b_val=-1, setting=Setting(0.0)):
    return FiniteModel(
        lambda_weights=(1.0,),
        ip1_weights=((1.0,),),
        ip2_weights=((1.0,),),
        a_table={setting: np.full((1, 1), a_val, dtype=np.int8)},
        b_table={setting: np.full((1, 1), b_val, dtype=np.int8)},
    )


def random_finite_model(gen: np.random.Generator, m: int, n_ip1: int, n_ip2: int, quad: SettingQuad) -> FiniteModel:
    """Arbitrary valid finite model over the quad's settings."""

    def norm(v):
        v = np.abs(v) + 1e-3
        return tuple((v / v.sum()).tolist())

    def pm1(shape):
        return (gen.integers(0, 2, size=shape) * 2 - 1).astype(np.int8)

    settings = {quad.a, quad.b, quad.c, quad.d}
    return FiniteModel(
        lambda_weights=norm(gen.random(m)),
        ip1_weights=tuple(norm(gen.random(n_ip1)) for _ in range(m)),
        ip2_weights=tuple(norm(gen.random(n_ip2)) for _ in range(m)),
        a_table={s: pm1((m, n_ip1)) for s in settings},
        b_table={s: pm1((m, n_ip2)) for s in settings},
    )


# --- exact correlation ----------------------------------------------------------


def test_exact_correlation_anticorrelated_case():
    assert exact_correlation(_tiny_model(1, -1), (Setting(0.0), Setting(0.0))) == -1.0


def test_exact_correlation_constant_plus_one():
    assert exact_correlation(_tiny_model(1, 1), (Setting(0.0), Setting(0.0))) == 1.0


def test_exact_correlation_bounded():
    gen = np.random.default_rng(7)
    for _ in range(200):
        fm = random_finite_model(gen, m=3, n_ip1=2, n_ip2=3, quad=QUAD)
        value = exact_correlation(fm, (QUAD.a, QUAD.b))
        assert abs(value) <= 1.0 + 1e-15


def test_exact_correlation_unknown_setting():
    with pytest.raises(UnknownSetting):
        exact_correlation(_tiny_model(), (Setting(1.0), Setting(0.0)))


def test_exact_correlation_factorizes_instrument_noise():
    # coin replacement with prob eps shrinks the deterministic correlation
    # by (1-eps)^2: the cross terms have mean zero.
    eps = 0.4
    spec = factorizable_instrument(eps, DiscreteSource.uniform(8))
    clean = bell_deterministic(DiscreteSource.uniform(8))
    fm_noisy = discretize_model(spec, [QUAD.a, QUAD.b])
    fm_clean = discretize_model(clean, [QUAD.a, QUAD.b])
    pair = (QUAD.a, QUAD.b)
    assert exact_correlation(fm_noisy, pair) == pytest.approx(
        (1 - eps) ** 2 * exact_correlation(fm_clean, pair), abs=1e-14
    )


# --- exact statistic --------------------------------------------------------------


def test_exact_chsh_bounded_for_shared_model():
    gen = np.random.default_rng(11)
    for _ in range(300):
        fm = random_finite_model(gen, m=4, n_ip1=2, n_ip2=2, quad=QUAD)
        assert exact_chsh(fm, QUAD) <= 2.0 + 1e-12


def test_exact_chsh_with_overrides_reaches_four():
    assert exact_chsh(None, QUAD, forced_product_overrides(QUAD)) == 4.0


def test_exact_chsh_override_arity():
    with pytest.raises(ValueError):
        exact_chsh(None, QUAD, [None, None])
    with pytest.raises(ValueError):
        exact_chsh(None, QUAD, None)


def test_exact_chsh_grid_saturates():
    fm = discretize_model(bell_deterministic(), [QUAD.a, QUAD.b, QUAD.c, QUAD.d], grid=360)
    value = exact_chsh(fm, QUAD)
    assert abs(value - 2.0) <= 2 * math.pi / 360
    assert value == 2.0  # midpoint grid avoids every sign boundary at this quad


def test_oracle_matches_monte_carlo_for_factorizable_models():
    specs = [
        bell_deterministic(DiscreteSource.uniform(12)),
        factorizable_instrument(0.3, DiscreteSource.uniform(8)),
    ]
    for spec in specs:
        fm = discretize_model(spec, [QUAD.a, QUAD.b, QUAD.c, QUAD.d])
        log = run_experiment(spec, QUAD, 200_000, seed=103)
        for est, (s1, s2, _sign) in zip(estimate_correlations(log), chsh_pairs(QUAD)):
            exact = exact_correlation(fm, (s1, s2))
            assert abs(est.mean - exact) < 4 * est.std_error, (spec.name, est.pair_id)


def test_discretize_rejects_non_factorizable_kinds():
    with pytest.raises(InvalidSpec):
        discretize_model(time_tagged_anticorrelated(), [QUAD.a])


# --- strategy enumeration -----------------------------------------------------------


def brute_force_max_chsh(m: int) -> float:
    """Direct scan over all deterministic strategies, two settings per side."""
    best = 0
    side = list(itertools.product((-1, 1), repeat=2 * m))
    for a_flat in side:
        a0, a1 = a_flat[:m], a_flat[m:]
        for b_flat in side:
            b0, b1 = b_flat[:m], b_flat[m:]
            # columns (a,c), (a,b), (d,b), (d,c); side-2 rows are [b, c]
            total = 0
            for lam in range(m):
                total += a0[lam] * b1[lam] - a0[lam] * b0[lam] - a1[lam] * b0[lam] - a1[lam] * b1[lam]
            best = max(best, abs(total))
    return best / m


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_enumeration_matches_brute_force(m):
    assert enumerate_deterministic_strategies(2, 2, m).max_abs_chsh == brute_force_max_chsh(m)


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_enumeration_returns_two_exactly(m):
    result = enumerate_deterministic_strategies(2, 2, m)
    assert result.max_abs_chsh == 2.0
    assert result.total_strategies == 2 ** (4 * m)
    assert result.per_lambda_max == tuple([2] * m)
    assert result.a_table.shape == (2, m)
    assert set(np.unique(result.a_table)) <= {-1, 1}


def test_enumeration_argmax_achieves_maximum():
    result = enumerate_deterministic_strategies(2, 2, 4)
    a, b = result.a_table, result.b_table
    delta = float(np.mean(a[0] * b[1] - a[0] * b[0] - a[1] * b[0] - a[1] * b[1]))
    assert delta == result.max_abs_chsh


def test_enumeration_pads_unread_settings():
    # Only the first two settings per side enter the statistic; the rest are
    # padded with -1, so 16 x 16 settings cost what 2 x 2 does.
    small = enumerate_deterministic_strategies(2, 2, 1)
    big = enumerate_deterministic_strategies(16, 16, 1)
    assert big.max_abs_chsh == small.max_abs_chsh
    assert big.per_lambda_max == small.per_lambda_max
    assert big.total_strategies == 2**32
    assert np.array_equal(big.a_table[:2], small.a_table)
    assert np.array_equal(big.b_table[:2], small.b_table)
    assert np.all(big.a_table[2:] == -1) and np.all(big.b_table[2:] == -1)
    assert big.a_table.shape == (16, 1) and big.b_table.shape == (16, 1)


def test_enumeration_guard():
    with pytest.raises(TooLarge):
        enumerate_deterministic_strategies(2, 2, 9)  # 36 bits
    with pytest.raises(TooLarge):
        enumerate_deterministic_strategies(2, 2, 1_000_000)
    with pytest.raises(ValueError):
        enumerate_deterministic_strategies(1, 2, 4)
    with pytest.raises(ValueError):
        enumerate_deterministic_strategies(2, 2, 0)


# --- quantum reference ----------------------------------------------------------------


def test_singlet_correlation_values():
    s = Setting(0.7)
    assert singlet_correlation(s, s) == -1.0
    assert singlet_correlation(Setting(0.0), Setting(math.pi / 2)) == pytest.approx(0.0, abs=1e-12)
    assert singlet_correlation(Setting(0.0), Setting(math.pi)) == 1.0


def test_singlet_chsh_is_two_root_two():
    value = singlet_chsh(QUAD)
    assert abs(value - 2.0 * math.sqrt(2.0)) < 1e-12
    assert value > 2.0


# --- validation and serialization ---------------------------------------------------------


def test_finite_model_validation():
    with pytest.raises(InvalidSpec):
        FiniteModel((0.5, 0.6), ((1.0,), (1.0,)), ((1.0,), (1.0,)))
    with pytest.raises(InvalidSpec):
        FiniteModel((1.0,), ((0.9,),), ((1.0,),))
    with pytest.raises(InvalidSpec):
        FiniteModel(
            (1.0,),
            ((1.0,),),
            ((1.0,),),
            a_table={Setting(0.0): np.zeros((1, 1), dtype=np.int8)},
        )
    with pytest.raises(InvalidSpec):
        FiniteModel(
            (1.0,),
            ((1.0,),),
            ((1.0,),),
            a_table={Setting(0.0): np.ones((2, 1), dtype=np.int8)},
        )


def test_finite_model_json_round_trip():
    gen = np.random.default_rng(13)
    fm = random_finite_model(gen, m=3, n_ip1=2, n_ip2=2, quad=QUAD)
    again = finite_model_from_json_obj(finite_model_to_json_obj(fm))
    assert again.lambda_weights == fm.lambda_weights
    assert again.ip1_weights == fm.ip1_weights
    for s in fm.a_table:
        assert np.array_equal(again.a_table[s], fm.a_table[s])
    # evaluation agrees bit for bit after the round trip
    assert exact_chsh(again, QUAD) == exact_chsh(fm, QUAD)
