"""Local hidden-variable model families.

Each shipped family is one ``ModelSpec`` subclass holding its config ``name``,
its parameters (dataclass fields after ``source``) and its two vectorized laws,
instrument value and outcome. ``FAMILIES`` maps each name to its class:
``BellDeterministic``, ``FactorizableInstrument``, ``TimeTaggedAnticorrelated``
and ``SettingPairDependent``. Randomness enters only through ``source_arrays``
and the instrument law. The runner, the equal-settings pilot and
``bell_statistic`` accept any ``ModelFamily``, shipped or not.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from typing import ClassVar, Protocol

import numpy as np

from . import rng
from .core import TAU, Setting
from .errors import InvalidSpec

WEIGHT_TOLERANCE = 1e-12

# Setting angles are quantized to this grid when they key a hash or look up a
# finite model's detector table; equal normalized angles always collide, which
# is all correctness requires.
_ANGLE_QUANTUM = 1e-9


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
    """A shipped model family: a subclass sets ``name``, declares its parameters as
    dataclass fields after ``source`` and implements ``instrument_law`` and ``outcome_law``."""

    name: ClassVar[str]  # the config file's model.kind
    setting_dependent_distribution: ClassVar[bool] = False  # the flagged non-factorizable diagnostic
    source: SourceDistribution = field(default_factory=UniformAngleSource)

    def __post_init__(self):
        if not isinstance(self.source, (DiscreteSource, UniformAngleSource)):
            raise InvalidSpec(f"unknown source distribution {self.source!r}")

    @classmethod
    def parameters(cls) -> tuple[str, ...]:
        """Names of the family's own parameters: its dataclass fields after ``source``."""
        return tuple(f.name for f in fields(cls)[1:])

    @property
    def lambda_kind(self) -> str:
        """'discrete' or 'angle': how the source value is represented."""
        return "discrete" if isinstance(self.source, DiscreteSource) else "angle"

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


@dataclass(frozen=True)
class BellDeterministic(ModelSpec):
    """Outcomes are pure functions of (setting, lambda): no instrument randomness."""

    name = "bell_deterministic"

    def instrument_law(self, seed, indices, t, theta_local, station, pair_id):
        return np.zeros(np.broadcast(np.asarray(indices), np.asarray(t)).shape, dtype=np.float64)

    def outcome_law(self, station, theta_local, lam_angle, ip):
        return sign_law(station, theta_local, lam_angle)


@dataclass(frozen=True)
class FactorizableInstrument(ModelSpec):
    """Each station replaces its deterministic outcome with a fair coin with
    probability ``epsilon``. The instrument value is a station-local uniform
    that never sees the remote setting, so the two are independent given lambda."""

    name = "factorizable_instrument"
    epsilon: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.epsilon) and 0.0 <= self.epsilon <= 1.0):
            raise InvalidSpec(f"epsilon must be in [0, 1], got {self.epsilon!r}")

    def instrument_law(self, seed, indices, t, theta_local, station, pair_id):
        return rng.uniforms(seed, f"ip.{station.value}", indices)

    def outcome_law(self, station, theta_local, lam_angle, ip):
        ip = np.asarray(ip)
        coin = np.where(ip < self.epsilon / 2.0, 1, -1).astype(np.int8)
        return np.where(ip < self.epsilon, coin, sign_law(station, theta_local, lam_angle))


@dataclass(frozen=True)
class TimeTaggedAnticorrelated(ModelSpec):
    """The instrument value hashes (local setting, shared tick) and flips the
    deterministic sign, so equal settings at equal ticks give A = -B on every
    trial although the instrument values vary with setting and time."""

    name = "time_tagged_anticorrelated"

    def instrument_law(self, seed, indices, t, theta_local, station, pair_id):
        return rng.uniforms(seed, "ttac.flip", np.asarray(t), draw=quantize_angle(theta_local))

    def outcome_law(self, station, theta_local, lam_angle, ip):
        flip = np.where(np.asarray(ip) < 0.5, 1, -1).astype(np.int8)
        return flip * sign_law(station, theta_local, lam_angle)


@dataclass(frozen=True)
class SettingPairDependent(ModelSpec):
    """A flagged diagnostic, not a physical model: the instrument value
    pair_id / 4 reads the trial's full setting pair, and the outcomes force the
    products (+1, -1, -1, -1), the four-term statistic's algebraic maximum."""

    name = "setting_pair_dependent"
    setting_dependent_distribution = True

    def instrument_law(self, seed, indices, t, theta_local, station, pair_id):
        if pair_id is None:
            raise InvalidSpec(
                "setting_pair_dependent instruments need the trial's setting pair; "
                "this model only runs inside a paired experiment"
            )
        return np.asarray(pair_id, dtype=np.float64) / 4.0

    def outcome_law(self, station, theta_local, lam_angle, ip):
        ip = np.asarray(ip)
        if station is Station.S1:
            return np.ones(ip.shape, dtype=np.int8)
        return np.where(ip < 0.25, 1, -1).astype(np.int8)


_SHIPPED = (BellDeterministic, FactorizableInstrument, TimeTaggedAnticorrelated, SettingPairDependent)
FAMILIES: dict[str, type[ModelSpec]] = {family.name: family for family in _SHIPPED}


def bell_deterministic(source: SourceDistribution | None = None) -> ModelSpec:
    return BellDeterministic(source or UniformAngleSource())


def factorizable_instrument(epsilon: float, source: SourceDistribution | None = None) -> ModelSpec:
    return FactorizableInstrument(source or UniformAngleSource(), epsilon=epsilon)


def time_tagged_anticorrelated(source: SourceDistribution | None = None) -> ModelSpec:
    return TimeTaggedAnticorrelated(source or UniformAngleSource())


def setting_pair_dependent(source: SourceDistribution | None = None) -> ModelSpec:
    return SettingPairDependent(source or UniformAngleSource())


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


def sign_law(station: Station, theta_local: np.ndarray, lam_angle: np.ndarray) -> np.ndarray:
    """The deterministic outcome sign(cos(setting - lambda)), negated at station 2."""
    base = pm1_signs(np.cos(np.asarray(theta_local) - np.asarray(lam_angle)))
    return -base if station is Station.S2 else base


# --- Vectorized kernels ------------------------------------------------------
#
# The source law and thin dispatchers to each family's two laws. bench/layers.py
# wraps them by name, so renaming one is a benchmark change.


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
    """Instrument parameter values in [0, 1), one per trial: the family's instrument law."""
    return spec.instrument_law(seed, indices, t, theta_local, station, pair_id)


def outcome_arrays(
    spec: ModelSpec,
    station: Station,
    theta_local: np.ndarray,
    lam_angle: np.ndarray,
    ip: np.ndarray,
) -> np.ndarray:
    """Detector outputs (+1/-1 int8), one per trial: the family's outcome law."""
    return spec.outcome_law(station, theta_local, lam_angle, ip)


# --- Anticorrelation check ---------------------------------------------------


@dataclass(frozen=True)
class AnticorrelationReport:
    trials: int
    violations: int


def check_anticorrelation(
    spec: ModelFamily, settings: list[Setting], n_trials: int, seed: int
) -> AnticorrelationReport:
    """Count trials where A != -B with equal settings and a shared tick.

    Settings cycle deterministically over the supplied list, one per trial.
    """
    if n_trials < 1:
        raise InvalidSpec(f"n_trials must be >= 1, got {n_trials}")
    if not settings:
        raise InvalidSpec("need at least one setting")
    if isinstance(spec, ModelSpec) and spec.setting_dependent_distribution:
        raise InvalidSpec(f"{spec.name} has no equal-settings semantics; anticorrelation is not defined for it")
    indices = np.arange(n_trials, dtype=np.uint64)
    t = indices
    theta = np.asarray([s.angle for s in settings])[np.arange(n_trials) % len(settings)]
    _, lam_angle = spec.source_arrays(seed, indices)
    ip1 = spec.instrument_arrays(seed, indices, t, theta, Station.S1, None)
    ip2 = spec.instrument_arrays(seed, indices, t, theta, Station.S2, None)
    a = spec.outcome_arrays(Station.S1, theta, lam_angle, ip1)
    b = spec.outcome_arrays(Station.S2, theta, lam_angle, ip2)
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
