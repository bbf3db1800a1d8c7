"""Foundational value types and the exhaustively checkable row algebra.

Settings are planar angles: every statistic in this laboratory depends only
on relative angles, so full 3-vectors would add nothing. Outcomes are the
signed integers +1/-1 (never booleans) because products and sums of outcomes
appear in every downstream statistic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

TAU = 2.0 * math.pi

# Canonical four-term sign pattern: +E(a,c) - E(a,b) - E(d,b) - E(d,c).
# Every statistic, table column, and report in the package uses this order.
CHSH_SIGNS = (1, -1, -1, -1)


def normalize_angle(theta: float) -> float:
    """Map an angle to [0, 2*pi). Idempotent, including float edge cases."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta}")
    a = math.fmod(theta, TAU)
    if a < 0.0:
        a += TAU
    if a >= TAU:  # rounding of a tiny negative can land exactly on 2*pi
        a = 0.0
    return a


@dataclass(frozen=True)
class Setting:
    """A measurement direction: one station's macroscopic knob."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", normalize_angle(self.angle))

    @classmethod
    def from_degrees(cls, degrees: float) -> "Setting":
        return cls(math.radians(degrees))

    @property
    def degrees(self) -> float:
        return math.degrees(self.angle)


@dataclass(frozen=True)
class SettingQuad:
    """The four knobs a, b, c, d from which the four canonical pairs derive."""

    a: Setting
    b: Setting
    c: Setting
    d: Setting

    @classmethod
    def from_degrees(cls, a: float, b: float, c: float, d: float) -> "SettingQuad":
        return cls(
            Setting.from_degrees(a),
            Setting.from_degrees(b),
            Setting.from_degrees(c),
            Setting.from_degrees(d),
        )


def chsh_pairs(quad: SettingQuad) -> list[tuple[Setting, Setting, int]]:
    """The four setting pairs with their canonical signs.

    Order and signs are fixed: [(a,c,+1), (a,b,-1), (d,b,-1), (d,c,-1)].
    """
    return [
        (quad.a, quad.c, CHSH_SIGNS[0]),
        (quad.a, quad.b, CHSH_SIGNS[1]),
        (quad.d, quad.b, CHSH_SIGNS[2]),
        (quad.d, quad.c, CHSH_SIGNS[3]),
    ]


def require_outcome(value: int) -> int:
    """Validate a detector outcome: must be the integer +1 or -1, not a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value not in (-1, 1):
        raise ValueError(f"outcome must be +1 or -1, got {value!r}")
    return value


# --- Row algebra -----------------------------------------------------------


def row_identity(x: int, y: int, z: int) -> tuple[int, int]:
    """Evaluate both sides of the three-outcome row identity.

    Returns (|xz - yz|, 1 - xy); the two are equal for all x, y, z in {-1,+1},
    which the caller asserts (and the test suite certifies exhaustively).
    """
    for v in (x, y, z):
        require_outcome(v)
    return abs(x * z - y * z), 1 - x * y


def row_sum(a_a: int, a_d: int, b_b: int, b_c: int) -> int:
    """Signed four-term row combination; always -2 or +2.

    Computes A_a*B_c - A_a*B_b - A_d*B_b - A_d*B_c, i.e. one table row with
    the canonical signs applied.
    """
    for v in (a_a, a_d, b_b, b_c):
        require_outcome(v)
    return a_a * b_c - a_a * b_b - a_d * b_b - a_d * b_c
