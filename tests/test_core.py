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
    chsh_pairs,
    normalize_angle,
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


def test_require_outcome():
    assert require_outcome(1) == 1
    assert require_outcome(-1) == -1
    for bad in (0, 2, -2):
        with pytest.raises(ValueError):
            require_outcome(bad)


def test_discrete_lambda_angle_midpoints():
    assert midpoint_angles(np.array([0, 3]), 4) == pytest.approx([TAU / 8, 7 * TAU / 8])
