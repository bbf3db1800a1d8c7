"""Local hidden-variable model families.

Four families are shipped, bracketing the space the laboratory explores:

* ``bell_deterministic`` — outcomes are pure functions of (setting, lambda);
  no instrument randomness at all.
* ``factorizable_instrument`` — each station independently replaces its
  deterministic outcome with a fair coin with probability ``epsilon``. The
  two stations' instrument values are conditionally independent given lambda
  by construction (they come from disjoint substreams that never see the
  remote setting).
* ``time_tagged_anticorrelated`` — each station's instrument value is a
  deterministic function of (local setting, shared clock tick); the station
  output is that flip times the deterministic sign, with station 2 globally
  negated. Equal settings at equal ticks therefore give A = -B on every
  trial even though the instrument values genuinely vary with setting and
  time.
* ``setting_pair_dependent`` — a diagnostic construction whose instrument
  value reads the trial's full setting pair and forces the product +1 on the
  first canonical pair and -1 on the other three. It is flagged as
  distribution-level setting dependence and is not offered as a physical
  model; it exists to exhibit the algebraic maximum of the four-term
  statistic.

Each family is three kernels, vectorized over trials. All randomness enters
through ``source_arrays`` and ``instrument_arrays``; ``outcome_arrays`` is
pure in (setting, lambda angle, instrument value). One trial is the same call
on length-1 arrays.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from . import rng
from .core import TAU, Setting
from .errors import InvalidSpec

WEIGHT_TOLERANCE = 1e-12

# Setting angles are quantized to this grid when they key a hash or look up a
# finite model's detector table; equal normalized angles always collide, which
# is all correctness requires.
_ANGLE_QUANTUM = 1e-9


class ModelKind(enum.Enum):
    BELL_DETERMINISTIC = "bell_deterministic"
    FACTORIZABLE_INSTRUMENT = "factorizable_instrument"
    TIME_TAGGED_ANTICORRELATED = "time_tagged_anticorrelated"
    SETTING_PAIR_DEPENDENT = "setting_pair_dependent"


class Station(enum.Enum):
    S1 = "s1"
    S2 = "s2"


def check_weights(weights, what: str) -> None:
    """Raise InvalidSpec unless ``weights`` is a non-empty probability vector."""
    if len(weights) == 0:
        raise InvalidSpec(f"{what} must be non-empty")
    if any((not math.isfinite(w)) or w < 0.0 for w in weights):
        raise InvalidSpec(f"{what} must be finite and >= 0, got {tuple(weights)}")
    total = math.fsum(weights)
    if abs(total - 1.0) > WEIGHT_TOLERANCE:
        raise InvalidSpec(f"{what} must sum to 1 within {WEIGHT_TOLERANCE}, got {total!r}")


@dataclass(frozen=True)
class DiscreteSource:
    """Finite source space with explicit weights over m values."""

    weights: tuple[float, ...]

    def __post_init__(self):
        check_weights(self.weights, "source weights")

    @classmethod
    def uniform(cls, size: int) -> "DiscreteSource":
        if size < 1:
            raise InvalidSpec(f"discrete source size must be >= 1, got {size}")
        return cls(tuple([1.0 / size] * size))

    @property
    def size(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class UniformAngleSource:
    """Source value uniform on the circle [0, 2*pi)."""


SourceDistribution = DiscreteSource | UniformAngleSource


@dataclass(frozen=True)
class ModelSpec:
    """A model family plus its source distribution and parameters."""

    kind: ModelKind
    source: SourceDistribution = field(default_factory=UniformAngleSource)
    epsilon: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, ModelKind):
            raise InvalidSpec(f"unknown model kind {self.kind!r}")
        if not isinstance(self.source, (DiscreteSource, UniformAngleSource)):
            raise InvalidSpec(f"unknown source distribution {self.source!r}")
        if not (math.isfinite(self.epsilon) and 0.0 <= self.epsilon <= 1.0):
            raise InvalidSpec(f"epsilon must be in [0, 1], got {self.epsilon!r}")
        if self.epsilon != 0.0 and self.kind is not ModelKind.FACTORIZABLE_INSTRUMENT:
            raise InvalidSpec(f"epsilon applies only to factorizable_instrument, not {self.kind.value}")

    @property
    def lambda_kind(self) -> str:
        """'discrete' or 'angle': how the source value is represented."""
        return "discrete" if isinstance(self.source, DiscreteSource) else "angle"

    @property
    def setting_dependent_distribution(self) -> bool:
        """True for the flagged non-factorizable diagnostic family."""
        return self.kind is ModelKind.SETTING_PAIR_DEPENDENT

    @property
    def flags(self) -> dict[str, bool]:
        return {"setting_dependent_distribution": self.setting_dependent_distribution}

    # The ModelFamily methods (typed on the protocol). Each calls the
    # module-level kernel of the same name, looked up at call time.

    def source_arrays(self, seed, indices):
        return source_arrays(self, seed, indices)

    def instrument_arrays(self, seed, indices, t, theta_local, station, pair_id=None):
        return instrument_arrays(self, seed, indices, t, theta_local, station, pair_id=pair_id)

    def outcome_arrays(self, station, theta_local, lam_angle, ip):
        return outcome_arrays(self, station, theta_local, lam_angle, ip)


def bell_deterministic(source: SourceDistribution | None = None) -> ModelSpec:
    return ModelSpec(ModelKind.BELL_DETERMINISTIC, source or UniformAngleSource())


def factorizable_instrument(epsilon: float, source: SourceDistribution | None = None) -> ModelSpec:
    return ModelSpec(ModelKind.FACTORIZABLE_INSTRUMENT, source or UniformAngleSource(), epsilon=epsilon)


def time_tagged_anticorrelated(source: SourceDistribution | None = None) -> ModelSpec:
    return ModelSpec(ModelKind.TIME_TAGGED_ANTICORRELATED, source or UniformAngleSource())


def setting_pair_dependent(source: SourceDistribution | None = None) -> ModelSpec:
    return ModelSpec(ModelKind.SETTING_PAIR_DEPENDENT, source or UniformAngleSource())


# --- Model laws --------------------------------------------------------------
#
# The midpoint grid and the sign tie rule. The kernels below and the exact
# oracle's discretization both call them, so simulation and exact integration
# see identical detector inputs.


def midpoint_angles(index: np.ndarray, size: int) -> np.ndarray:
    """Angle of each discrete source value: the midpoint grid 2*pi*(i + 0.5)/size."""
    return TAU * (index + 0.5) / size


def pm1_signs(x: np.ndarray) -> np.ndarray:
    """Elementwise sign as +1/-1 int8, with the tie rule sign(0) := +1."""
    return np.where(x >= 0.0, 1, -1).astype(np.int8)


# --- Vectorized kernels ------------------------------------------------------
#
# The single implementation of each family. bench/layers.py wraps them by
# name, so renaming one is a benchmark change.


def source_arrays(spec: ModelSpec, seed: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample the source value for each trial index.

    Returns (lam_repr, lam_angle): the logged representation (discrete index
    as a float, or the angle itself) and the angle fed to the detectors.
    """
    u = rng.uniforms(seed, "source", indices)
    if isinstance(spec.source, DiscreteSource):
        cumulative = np.cumsum(spec.source.weights)
        idx = np.minimum(
            np.searchsorted(cumulative, u, side="right"),
            len(cumulative) - 1,
        )
        return idx.astype(np.float64), midpoint_angles(idx, spec.source.size)
    angle = u * TAU
    return angle, angle


def quantize_angle(theta: np.ndarray) -> np.ndarray:
    """Angles as integer multiples of the 1e-9 rad quantum: the identity of a setting."""
    return np.round(np.asarray(theta, dtype=np.float64) / _ANGLE_QUANTUM).astype(np.uint64)


def instrument_arrays(
    spec: ModelSpec,
    seed: int,
    indices: np.ndarray,
    t: np.ndarray,
    theta_local: np.ndarray,
    station: Station,
    pair_id: np.ndarray | None = None,
) -> np.ndarray:
    """Instrument parameter values in [0, 1), one per trial.

    What each family does with the uniform canonical representation:

    * bell_deterministic: constant 0.0 (no instrument randomness).
    * factorizable_instrument: a station-local uniform keyed only by
      (seed, trial, station) — never by the remote setting.
    * time_tagged_anticorrelated: a deterministic hash of (local setting,
      shared tick); both stations compute the same value for equal inputs.
    * setting_pair_dependent: pair_id / 4 — the instrument reads the trial's
      full setting pair, the explicitly flagged locality-of-distribution
      violation.
    """
    kind = spec.kind
    if kind is ModelKind.BELL_DETERMINISTIC:
        return np.zeros(np.broadcast(np.asarray(indices), np.asarray(t)).shape, dtype=np.float64)
    if kind is ModelKind.FACTORIZABLE_INSTRUMENT:
        return rng.uniforms(seed, f"ip.{station.value}", indices)
    if kind is ModelKind.TIME_TAGGED_ANTICORRELATED:
        return rng.uniforms(seed, "ttac.flip", np.asarray(t), draw=quantize_angle(theta_local))
    if kind is ModelKind.SETTING_PAIR_DEPENDENT:
        if pair_id is None:
            raise InvalidSpec(
                "setting_pair_dependent instruments need the trial's setting pair; "
                "this model only runs inside a paired experiment"
            )
        return np.asarray(pair_id, dtype=np.float64) / 4.0
    raise InvalidSpec(f"unknown model kind {kind!r}")


def outcome_arrays(
    spec: ModelSpec,
    station: Station,
    theta_local: np.ndarray,
    lam_angle: np.ndarray,
    ip: np.ndarray,
) -> np.ndarray:
    """Detector outputs (+1/-1 int8), one per trial."""
    kind = spec.kind
    negate = -1 if station is Station.S2 else 1

    if kind is ModelKind.SETTING_PAIR_DEPENDENT:
        ip = np.asarray(ip)
        if station is Station.S1:
            return np.ones(ip.shape, dtype=np.int8)
        return np.where(ip < 0.25, 1, -1).astype(np.int8)

    base = pm1_signs(np.cos(np.asarray(theta_local) - np.asarray(lam_angle)))
    if kind is ModelKind.BELL_DETERMINISTIC:
        return (negate * base).astype(np.int8)
    if kind is ModelKind.FACTORIZABLE_INSTRUMENT:
        eps = spec.epsilon
        ip = np.asarray(ip)
        coin = np.where(ip < eps / 2.0, 1, -1).astype(np.int8)
        return np.where(ip < eps, coin, (negate * base).astype(np.int8))
    if kind is ModelKind.TIME_TAGGED_ANTICORRELATED:
        flip = np.where(np.asarray(ip) < 0.5, 1, -1).astype(np.int8)
        return (negate * flip * base).astype(np.int8)
    raise InvalidSpec(f"unknown model kind {kind!r}")


# --- Anticorrelation check ---------------------------------------------------


@dataclass(frozen=True)
class AnticorrelationReport:
    trials: int
    violations: int


def check_anticorrelation(
    spec: ModelSpec, settings: list[Setting], n_trials: int, seed: int
) -> AnticorrelationReport:
    """Count trials where A != -B with equal settings and a shared tick.

    Settings cycle deterministically over the supplied list, one per trial.
    """
    if n_trials < 1:
        raise InvalidSpec(f"n_trials must be >= 1, got {n_trials}")
    if not settings:
        raise InvalidSpec("need at least one setting")
    if spec.kind is ModelKind.SETTING_PAIR_DEPENDENT:
        raise InvalidSpec(
            "setting_pair_dependent has no equal-settings semantics; "
            "anticorrelation is not defined for it"
        )
    indices = np.arange(n_trials, dtype=np.uint64)
    t = indices
    theta = np.asarray([s.angle for s in settings])[np.arange(n_trials) % len(settings)]
    _, lam_angle = source_arrays(spec, seed, indices)
    ip1 = instrument_arrays(spec, seed, indices, t, theta, Station.S1)
    ip2 = instrument_arrays(spec, seed, indices, t, theta, Station.S2)
    a = outcome_arrays(spec, Station.S1, theta, lam_angle, ip1)
    b = outcome_arrays(spec, Station.S2, theta, lam_angle, ip2)
    violations = int(np.count_nonzero(a != -b))
    return AnticorrelationReport(trials=n_trials, violations=violations)


# --- Model family interface --------------------------------------------------


class ModelFamily(Protocol):
    """What the experiment runner needs from a model family.

    ``ModelSpec`` implements it for the shipped families; any other object
    with these members runs through the same code path.
    """

    lambda_kind: str  # "discrete" or "angle"

    def source_arrays(self, seed: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...

    def instrument_arrays(
        self,
        seed: int,
        indices: np.ndarray,
        t: np.ndarray,
        theta_local: np.ndarray,
        station: Station,
        pair_id: np.ndarray | None,
    ) -> np.ndarray: ...

    def outcome_arrays(
        self, station: Station, theta_local: np.ndarray, lam_angle: np.ndarray, ip: np.ndarray
    ) -> np.ndarray: ...
