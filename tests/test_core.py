"""Core value types and the exhaustive row algebra."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bell_lab.core import (
    CHSH_SIGNS,
    TAU,
    Setting,
    SettingQuad,
    bad_outcomes,
    chsh_pairs,
    normalize_angle,
    quantize_angle,
    require_outcome,
    row_identity,
    row_sum,
)
from bell_lab.models import midpoint_angles

PM1 = (-1, 1)


def test_row_identity_exhaustive():
    for x in PM1:
        for y in PM1:
            for z in PM1:
                lhs, rhs = row_identity(x, y, z)
                assert lhs == rhs, (x, y, z)


def test_row_identity_examples():
    assert row_identity(1, 1, 1) == (0, 0)
    assert row_identity(1, -1, 1) == (2, 2)


def test_row_identity_rejects_non_outcomes():
    with pytest.raises(ValueError):
        row_identity(0, 1, 1)
    with pytest.raises(ValueError):
        row_identity(1, 1, 2)
    with pytest.raises(ValueError):
        row_sum(0, 1, 1, 1)
    with pytest.raises(ValueError):
        row_sum(1, 1, 1, -2)
    # outcomes are signed integers: a bool or a float equal to +/-1 is not one
    with pytest.raises(ValueError):
        row_identity(True, 1, 1.0)
    with pytest.raises(ValueError):
        row_identity(1, -1.0, 1)
    with pytest.raises(ValueError):
        row_sum(1, 1, np.True_, 1)
    assert row_sum(np.int8(1), 1, 1, -1) == -2  # a numpy integer is one


def test_row_sum_exhaustive_in_pm2():
    values = set()
    for a_a in PM1:
        for a_d in PM1:
            for b_b in PM1:
                for b_c in PM1:
                    values.add(row_sum(a_a, a_d, b_b, b_c))
    assert values == {-2, 2}


def test_row_sum_examples():
    assert row_sum(1, 1, 1, 1) == -2
    assert row_sum(1, 1, -1, 1) == 2


def test_chsh_pairs_canonical_order_and_signs():
    quad = SettingQuad(Setting(0.0), Setting(math.pi / 4), Setting(3 * math.pi / 4), Setting(math.pi / 2))
    pairs = chsh_pairs(quad)
    assert [(p[0].angle, p[1].angle) for p in pairs] == [
        (0.0, 3 * math.pi / 4),
        (0.0, math.pi / 4),
        (math.pi / 2, math.pi / 4),
        (math.pi / 2, 3 * math.pi / 4),
    ]
    assert [p[2] for p in pairs] == [1, -1, -1, -1]
    assert sum(p[2] for p in pairs) == -2
    assert CHSH_SIGNS == (1, -1, -1, -1)


def test_chsh_pairs_degenerate_quad():
    quad = SettingQuad(*[Setting(0.0)] * 4)
    pairs = chsh_pairs(quad)
    assert all(p[0] == Setting(0.0) and p[1] == Setting(0.0) for p in pairs)
    assert [p[2] for p in pairs] == [1, -1, -1, -1]


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_normalize_angle_idempotent(theta):
    once = normalize_angle(theta)
    assert 0.0 <= once < TAU
    assert normalize_angle(once) == once


def test_normalize_angle_edge_cases():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(TAU) == 0.0
    assert normalize_angle(-1e-20) in (0.0, normalize_angle(-1e-20))
    assert 0.0 <= normalize_angle(-1e-20) < TAU
    with pytest.raises(ValueError):
        normalize_angle(float("nan"))
    with pytest.raises(ValueError):
        normalize_angle(float("inf"))


def test_setting_equality_after_normalization():
    assert Setting(0.5) == Setting(0.5 + TAU)
    assert Setting(0.5) == Setting(0.5 - TAU)
    assert Setting.from_degrees(90.0).angle == pytest.approx(math.pi / 2, abs=0)


def test_a_setting_a_full_turn_on_is_the_same_setting():
    # radians(d + 360) normalizes to a float a few ulps from radians(d) for most d
    for d in range(360):
        s, turned = Setting.from_degrees(d), Setting.from_degrees(d + 360)
        assert s == turned and hash(s) == hash(turned), d


_ANGLE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(_ANGLE, st.one_of(st.integers(-3, 3).map(lambda k: k * TAU), st.floats(-2e-9, 2e-9), _ANGLE))
def test_settings_are_equal_exactly_when_their_grid_points_are(x, shift):
    # x and x + k * 2pi usually share a grid point, but a normalized angle within
    # ~1e-15 of a half-point may round either way, so the test compares grid points
    s, t = Setting(x), Setting(x + shift)
    same = quantize_angle(normalize_angle(x)) == quantize_angle(normalize_angle(x + shift))
    assert (s == t) == same and (s != t) != same
    if same:
        assert hash(s) == hash(t)


def test_a_setting_keeps_its_normalized_angle():
    turned = Setting.from_degrees(361.0)
    assert turned == Setting.from_degrees(1.0)
    assert turned.angle == normalize_angle(math.radians(361.0))
    assert Setting(0.5) != 0.5 and Setting(0.5) != (0.5,)


def test_require_outcome():
    assert require_outcome(1) == 1
    assert require_outcome(-1) == -1
    for bad in (0, 2, -2):
        with pytest.raises(ValueError):
            require_outcome(bad)


def _is_outcome(value) -> bool:
    """The outcome rule in pure Python: an int that is not a bool, equal to -1 or 1."""
    return isinstance(value, int) and not isinstance(value, bool) and value in (-1, 1)


@st.composite
def _arrays_around_pm1(draw) -> np.ndarray:
    """An int8, int64, uint8, bool, float64 or object array of values around +-1: the
    integers -3..3 (uint8 holds -1 as 255), or their halves as floats. An object array
    holds the Python floats or bools of such an array; one of Python ints is tested below."""
    ints = np.array(draw(st.lists(st.integers(-3, 3), max_size=8)), dtype=np.int64)
    dtype = draw(st.sampled_from([np.int8, np.int64, np.uint8, np.bool_, np.float64, object]))
    halves = draw(st.booleans())
    if dtype is object:
        return (ints / 2 if halves else ints.astype(bool)).astype(object)
    return (ints / 2 if halves and dtype is np.float64 else ints).astype(dtype)


@given(_arrays_around_pm1())
def test_bad_outcomes_flags_what_the_pure_python_rule_refuses(values):
    assert bad_outcomes(values).tolist() == [not _is_outcome(v) for v in values.tolist()]


def test_an_array_of_objects_holds_no_outcomes_whatever_its_values():
    assert bad_outcomes(np.array([1, -1], dtype=object)).tolist() == [True, True]
    assert bad_outcomes(np.array([[1, -1], [0, 1]], dtype=np.int8)).tolist() == [[False, False], [True, False]]


def test_require_outcome_is_the_scalar_form_of_the_rule():
    for good in (1, -1, np.int8(-1), np.uint8(1), np.int64(1)):
        assert require_outcome(good) == good
    for bad in (True, False, np.True_, 1.0, np.float64(-1.0), np.uint8(255), 2**64, "1", None):
        with pytest.raises(ValueError, match=r"^outcome must be \+1 or -1, got "):
            require_outcome(bad)


def test_discrete_lambda_angle_midpoints():
    assert midpoint_angles(np.array([0, 3]), 4) == pytest.approx([TAU / 8, 7 * TAU / 8])
