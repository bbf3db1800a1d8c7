"""Local hidden-variable model families.

A family is its three vectorized laws, the ``ModelFamily`` methods
``source_arrays``, ``instrument_arrays`` and ``outcome_arrays``. Each shipped
family is one ``ModelSpec`` subclass holding its config ``name``, its parameters
(dataclass fields after ``source``) and its instrument and outcome laws;
``ModelSpec.source_arrays`` is the source law they share. The class is the
family's one constructor; ``FAMILIES`` maps each name to its class. Randomness
enters only through the source and instrument laws. ``trial_arrays`` is the one
trial kernel (tick t = index, source, two instruments, two outcomes): the
runner's blocks and the equal-settings pilot both call it, and it reaches every
family, shipped or not, through the module-level dispatchers of the same three names.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from typing import ClassVar, Protocol

import numpy as np

from . import rng
from .core import TAU, Setting, bad_outcomes, quantize_angle
from .errors import InvalidSpec

WEIGHT_TOLERANCE = 1e-12


class Station(enum.Enum):
    S1 = "s1"
    S2 = "s2"


def check_weights(weights, what: str) -> np.ndarray:
    """Raise InvalidSpec unless ``weights`` is a non-empty probability vector; return
    them as a new float64 array."""
    if len(weights) == 0:
        raise InvalidSpec(f"{what} must be non-empty")
    values = np.array(weights, dtype=np.float64)
    bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0.0)))
    if bad.size:
        first = int(bad[0])
        raise InvalidSpec(
            f"{what} must be finite and >= 0: {bad.size} of {values.size} are not,"
            f" the first at index {first} ({float(values[first])!r})"
        )
    total = math.fsum(weights)
    if abs(total - 1.0) > WEIGHT_TOLERANCE:
        raise InvalidSpec(f"{what} must sum to 1 within {WEIGHT_TOLERANCE}, got {total!r}")
    return values


@dataclass(frozen=True)
class DiscreteSource:
    """Finite source space with explicit weights over m values."""

    weights: tuple[float, ...]
    # The weights as one read-only float64 array, which the reports and the config text
    # are written from, and their cumulative sums, the sampler's lookup table: each
    # computed once per source, as converting 10**6 weights takes about 0.045 s.
    weight_array: np.ndarray = field(init=False, repr=False, compare=False)
    cumulative: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weight_array = check_weights(self.weights, "source weights")
        cumulative = np.cumsum(weight_array)
        weight_array.flags.writeable = cumulative.flags.writeable = False
        object.__setattr__(self, "weight_array", weight_array)
        object.__setattr__(self, "cumulative", cumulative)

    @classmethod
    def uniform(cls, size: int) -> "DiscreteSource":
        if size < 1:
            raise InvalidSpec(f"discrete source size must be >= 1, got {size}")
        return cls((1.0 / size,) * size)

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
    dataclass fields after ``source`` and implements ``instrument_arrays`` and
    ``outcome_arrays``. ``source_arrays`` is the source law of every shipped family."""

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
    def flags(self) -> dict[str, bool]:
        return {"setting_dependent_distribution": self.setting_dependent_distribution}

    def source_arrays(self, seed, indices):
        """Sample the source value for each trial index.

        Returns (lam_repr, lam_angle): the logged representation (the int64
        discrete index, or the angle itself) and the angle fed to the detectors.
        """
        u = rng.uniforms(seed, "source", indices)
        if isinstance(self.source, DiscreteSource):
            idx = np.minimum(np.searchsorted(self.source.cumulative, u, side="right"), self.source.size - 1)
            return idx, midpoint_angles(idx, self.source.size)
        angle = u * TAU
        return angle, angle


@dataclass(frozen=True)
class BellDeterministic(ModelSpec):
    """Outcomes are pure functions of (setting, lambda): no instrument randomness."""

    name = "bell_deterministic"

    def instrument_arrays(self, seed, t, theta_local, station, pair_id=None):
        return np.zeros(np.shape(t))

    def outcome_arrays(self, station, theta_local, lam_angle, ip):
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

    def instrument_arrays(self, seed, t, theta_local, station, pair_id=None):
        return rng.uniforms(seed, f"ip.{station.value}", t)

    def outcome_arrays(self, station, theta_local, lam_angle, ip):
        ip = np.asarray(ip)
        return np.where(ip < self.epsilon, pm1(ip < self.epsilon / 2.0), sign_law(station, theta_local, lam_angle))


@dataclass(frozen=True)
class TimeTaggedAnticorrelated(ModelSpec):
    """The instrument value hashes (local setting, shared tick) and flips the
    deterministic sign, so equal settings at equal ticks give A = -B on every
    trial although the instrument values vary with setting and time."""

    name = "time_tagged_anticorrelated"

    def instrument_arrays(self, seed, t, theta_local, station, pair_id=None):
        return rng.uniforms(seed, "ttac.flip", np.asarray(t), draw=quantize_angle(theta_local))

    def outcome_arrays(self, station, theta_local, lam_angle, ip):
        return pm1(np.asarray(ip) < 0.5) * sign_law(station, theta_local, lam_angle)


@dataclass(frozen=True)
class SettingPairDependent(ModelSpec):
    """A flagged diagnostic, not a physical model: the instrument value
    pair_id / 4 reads the trial's full setting pair, and the outcomes force the
    products (+1, -1, -1, -1), the four-term statistic's algebraic maximum."""

    name = "setting_pair_dependent"
    setting_dependent_distribution = True

    def instrument_arrays(self, seed, t, theta_local, station, pair_id=None):
        if pair_id is None:  # the equal-settings pilot: there is no setting pair
            raise InvalidSpec(f"{self.name} has no equal-settings semantics; anticorrelation is not defined for it")
        return np.asarray(pair_id, dtype=np.float64) / 4.0

    def outcome_arrays(self, station, theta_local, lam_angle, ip):
        ip = np.asarray(ip)
        if station is Station.S1:
            return np.ones(ip.shape, dtype=np.int8)
        return pm1(ip < 0.25)


_SHIPPED = (BellDeterministic, FactorizableInstrument, TimeTaggedAnticorrelated, SettingPairDependent)
FAMILIES: dict[str, type[ModelSpec]] = {family.name: family for family in _SHIPPED}


# --- Model laws --------------------------------------------------------------
#
# The midpoint grid, the +/-1 outcome of a boolean and the sign law. The
# laws above and the exact oracle's discretization both call them, so
# simulation and exact integration see identical detector inputs.


def midpoint_angles(index: np.ndarray, size: int) -> np.ndarray:
    """Angle of each discrete source value: the midpoint grid 2*pi*(i + 0.5)/size."""
    return TAU * (index + 0.5) / size


def pm1(mask: np.ndarray) -> np.ndarray:
    """+1 where ``mask`` is true and -1 where it is false, as int8."""
    s = np.asarray(mask, dtype=np.bool_).view(np.int8)
    return s + s - 1


def sign_law(station: Station, theta_local: np.ndarray, lam_angle: np.ndarray) -> np.ndarray:
    """The deterministic outcome sign(cos(setting - lambda)), +1 where the cosine is
    >= 0, negated at station 2; both angles lie in [0, 2*pi). The doubles nearest
    pi/2 and 3*pi/2 lie below them, so two comparisons give the exact sign of the
    cosine of the rounded difference, whatever the platform's cos."""
    x = np.abs(np.asarray(theta_local) - np.asarray(lam_angle))
    nonneg = (x <= 1.5707963267948966) | (x > 4.71238898038469)
    return pm1(nonneg if station is Station.S1 else ~nonneg)


# --- Vectorized kernels ------------------------------------------------------
#
# One dispatcher per law, each calling the family's method of the same name,
# and the trial kernel that calls them: every family, shipped or custom,
# reaches its laws through these. bench/layers.py wraps the three dispatchers
# by name, so renaming one is a benchmark change.


def source_arrays(spec: ModelFamily, seed: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam_repr, lam_angle), one pair per trial index: the family's source law."""
    return spec.source_arrays(seed, indices)


def instrument_arrays(
    spec: ModelFamily,
    seed: int,
    t: np.ndarray,
    theta_local: np.ndarray,
    station: Station,
    pair_id: np.ndarray | None = None,
) -> np.ndarray:
    """Instrument parameter values in [0, 1), one per tick: the family's instrument law."""
    return spec.instrument_arrays(seed, t, theta_local, station, pair_id)


def outcome_arrays(
    spec: ModelFamily,
    station: Station,
    theta_local: np.ndarray,
    lam_angle: np.ndarray,
    ip: np.ndarray,
) -> np.ndarray:
    """Detector outputs (+1/-1 int8), one per trial: the family's outcome law."""
    return spec.outcome_arrays(station, theta_local, lam_angle, ip)


def trial_arrays(
    spec: ModelFamily, seed: int, indices, lam_angle, theta1, theta2, pair_id: np.ndarray | None
) -> tuple:
    """The one trial kernel, t = index: (ip1, ip2, a, b) from the family's instrument
    and outcome laws, given the angles ``lam_angle`` that ``source_arrays`` drew for the
    same indices. The source draw is the caller's, so that experiments over the same
    trials draw it once. ``pair_id`` is None outside a paired experiment; a law that
    needs it raises."""
    t = indices
    ip1 = instrument_arrays(spec, seed, t, theta1, Station.S1, pair_id)
    ip2 = instrument_arrays(spec, seed, t, theta2, Station.S2, pair_id)
    a = outcome_arrays(spec, Station.S1, theta1, lam_angle, ip1)
    b = outcome_arrays(spec, Station.S2, theta2, lam_angle, ip2)
    return ip1, ip2, a, b


# --- Anticorrelation check ---------------------------------------------------


@dataclass(frozen=True)
class AnticorrelationReport:
    trials: int
    violations: int


def check_anticorrelation(
    spec: ModelFamily, settings: list[Setting], n_trials: int, seed: int
) -> AnticorrelationReport:
    """Count trials where A != -B with equal settings and a shared tick.

    Settings cycle deterministically over the supplied list, one per trial. The
    trials have no setting pair, so an instrument law that reads one raises. An
    outcome that fails ``core.bad_outcomes`` (0 = -0 and 2 = -(-2) would count as
    anticorrelated) raises InvalidSpec naming the first pilot trial that made one.
    """
    if n_trials < 1:
        raise InvalidSpec(f"n_trials must be >= 1, got {n_trials}")
    if not settings:
        raise InvalidSpec("need at least one setting")
    indices = np.arange(n_trials, dtype=np.uint64)
    indices.flags.writeable = False  # as in the runner, so that draws of one label share a hash base
    theta = np.asarray([s.angle for s in settings])[np.arange(n_trials) % len(settings)]
    _lam, lam_angle = source_arrays(spec, seed, indices)
    *_, a, b = trial_arrays(spec, seed, indices, lam_angle, theta, theta, None)
    if (bad := bad_outcomes(a) | bad_outcomes(b)).any():
        raise InvalidSpec(f"equal-settings pilot trial {int(np.argmax(bad))}: A and B must be -1 or 1")
    return AnticorrelationReport(trials=n_trials, violations=int(np.count_nonzero(a != -b)))


# --- Model family interface --------------------------------------------------


class ModelFamily(Protocol):
    """What the experiment runner needs from a model family: its three laws. The
    logged lambda takes its type from what ``source_arrays`` returns (int64 for
    integers, float64 for floats); the shipped ``ModelSpec`` subclasses and any
    other object with these methods run through the same code path. The index
    arrays that the laws receive (``indices`` and ``t``) are read-only: a law that
    writes one in place gets numpy's ValueError, because the draws that hash the
    same array with the same seed and label share its hash base (``rng.hash_words``).
    ``outcome_arrays`` returns an integer array of -1 and 1 (``core.bad_outcomes``): a
    float or bool array, even of +-1 values, raises ValueError in the runner and
    InvalidSpec in the equal-settings pilot."""

    def source_arrays(self, seed: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...

    def instrument_arrays(
        self, seed: int, t: np.ndarray, theta_local: np.ndarray, station: Station, pair_id: np.ndarray | None = None
    ) -> np.ndarray: ...

    def outcome_arrays(
        self, station: Station, theta_local: np.ndarray, lam_angle: np.ndarray, ip: np.ndarray
    ) -> np.ndarray: ...
