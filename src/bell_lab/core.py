"""Foundational value types and the exhaustively checkable row algebra.

Settings are planar angles: every statistic in this laboratory depends only
on relative angles, so full 3-vectors would add nothing. Outcomes are the
signed integers +1/-1 (never booleans or floats) because products and sums of
outcomes appear in every downstream statistic. ``bad_outcomes`` is the one
test of what an outcome is: the runner, every trial log, the equal-settings
pilot and the exact oracle's tables all apply it.

A setting's identity is its normalized angle's point on a 1e-9 rad grid
(``quantize_angle``): settings compare and hash by it, the time-tagged instrument
law keys its draws on it, and the exact oracle finds detector columns by it. So
1 deg and 361 deg are one setting although their normalized floats differ.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * math.pi

# Canonical four-term sign pattern: +E(a,c) - E(a,b) - E(d,b) - E(d,c).
# Every statistic, table column, and report in the package uses this order.
CHSH_SIGNS = (1, -1, -1, -1)

# The setting grid: a setting is its angle rounded to a multiple of this.
_ANGLE_QUANTUM = 1e-9


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


def quantize_angle(theta: np.ndarray) -> np.ndarray:
    """Angles as integer multiples of the 1e-9 rad quantum: the identity of a setting."""
    return np.round(np.asarray(theta, dtype=np.float64) / _ANGLE_QUANTUM).astype(np.uint64)


@dataclass(frozen=True, eq=False)
class Setting:
    """A measurement direction: one station's macroscopic knob. It keeps its
    normalized angle, and equals and hashes as its grid point (``quantize_angle``)."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", normalize_angle(self.angle))
        object.__setattr__(self, "_point", int(quantize_angle(self.angle)))  # its identity

    def __eq__(self, other) -> bool:
        return self._point == other._point if isinstance(other, Setting) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._point)

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


class KeyMode(enum.Enum):
    """The row key of an outcome table (``tables.build_reordered_table``). It lives here,
    not in ``tables``, so that the CLI lists the ``--key-mode`` choices without loading
    the table code."""

    LAMBDA_ONLY = "lambda"
    LAMBDA_TIME = "lambda-time"


def bad_outcomes(values) -> np.ndarray:
    """The outcome rule, as a mask: True where a value is not an outcome. Only an
    integer array holds outcomes, the values -1 and 1; an array of booleans, floats
    or objects fails as a whole, whatever its values."""
    values = np.asarray(values)
    return np.abs(values) != 1 if values.dtype.kind in "iu" else np.ones(values.shape, dtype=bool)


def require_outcome(value: int) -> int:
    """Validate one detector outcome by ``bad_outcomes``: the integer +1 or -1, not a bool or a float."""
    if bad_outcomes(value):
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
