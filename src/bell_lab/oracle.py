"""Exact computations on finite spaces: ground truth for the Monte Carlo side.

A FiniteModel is a fully enumerated local model: weighted lambda values,
per-station instrument spaces with conditional weights (a product form, so
conditional independence holds by construction), and total +/-1 detector
tables. Correlations are exact sums, not samples; accumulation uses
math.fsum, which returns the correctly rounded sum, so the 1e-12
certificates in the test suite are honest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import CHSH_SIGNS, Setting, SettingQuad, bad_outcomes, chsh_pairs
from .errors import InvalidSpec, TooLarge, UnknownSetting
from .models import (
    BellDeterministic,
    DiscreteSource,
    FactorizableInstrument,
    ModelSpec,
    Station,
    UniformAngleSource,
    check_weights,
    midpoint_angles,
    sign_law,
)

# The enumeration certificate's argmax tables hold (n1 + n2) * m cells, one
# +/-1 entry (one bit) each; a request for more cells than this is refused.
ENUMERATION_GUARD_BITS = 32


@dataclass(frozen=True)
class FiniteModel:
    """Finite lambda and instrument spaces with total detector tables.

    ``a_table[s]`` is an integer array of shape (m, n_ip1) with entries +/-1 (it
    passes ``core.bad_outcomes``); ``b_table[s]`` likewise with n_ip2 columns.
    ``ip1_weights[lam]`` are the station-1 instrument weights conditional on lambda
    (and ``ip2_weights`` station 2's); the joint instrument distribution is their product.
    """

    lambda_weights: tuple[float, ...]
    ip1_weights: tuple[tuple[float, ...], ...]
    ip2_weights: tuple[tuple[float, ...], ...]
    a_table: dict[Setting, np.ndarray] = field(default_factory=dict)
    b_table: dict[Setting, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        m = len(self.lambda_weights)
        check_weights(self.lambda_weights, "lambda weights")
        for name, rows in (("ip1", self.ip1_weights), ("ip2", self.ip2_weights)):
            if len(rows) != m:
                raise InvalidSpec(f"{name} weights need one row per lambda value ({m})")
            for lam, row in enumerate(rows):
                check_weights(row, f"{name} weights for lambda {lam}")
        n1 = len(self.ip1_weights[0])
        n2 = len(self.ip2_weights[0])
        if any(len(r) != n1 for r in self.ip1_weights) or any(len(r) != n2 for r in self.ip2_weights):
            raise InvalidSpec("instrument spaces must have the same size for every lambda")
        for name, table, n_ip in (("a_table", self.a_table, n1), ("b_table", self.b_table, n2)):
            for s, arr in table.items():
                arr = np.asarray(arr)
                if arr.shape != (m, n_ip):
                    raise InvalidSpec(f"{name}[{s}] must have shape ({m}, {n_ip}), got {arr.shape}")
                if bad_outcomes(arr).any():
                    raise InvalidSpec(f"{name}[{s}] entries must be +1 or -1")

    @property
    def m(self) -> int:
        return len(self.lambda_weights)


def _mean_responses(table: dict[Setting, np.ndarray], ip_weights, setting: Setting) -> list[float]:
    """Each lambda's mean detector output at ``setting``: its column is ``table[setting]``,
    so 361 deg finds the column built at 1 deg (settings are equal by grid point)."""
    if setting not in table:
        raise UnknownSetting(f"no detector column for setting {setting.degrees:.6g} deg")
    return [math.fsum(w * int(v) for w, v in zip(weights, row)) for weights, row in zip(ip_weights, table[setting])]


def exact_correlation(fm: FiniteModel, pair: tuple[Setting, Setting]) -> float:
    """E(A*B) for one setting pair: an exact weighted sum, no sampling.

    Conditional independence factorizes the instrument sums per lambda:
    E = sum_lam w_lam * <A>_lam * <B>_lam.
    """
    s1, s2 = pair
    abar = _mean_responses(fm.a_table, fm.ip1_weights, s1)
    bbar = _mean_responses(fm.b_table, fm.ip2_weights, s2)
    return math.fsum(w * a * b for w, a, b in zip(fm.lambda_weights, abar, bbar))


def exact_chsh(
    fm: FiniteModel | None,
    quad: SettingQuad,
    per_pair_distributions: list[FiniteModel | None] | None = None,
) -> float:
    """Canonical signed combination of exact correlations.

    With ``per_pair_distributions`` each column integrates against its own
    model — the setting-dependent-distribution case. Columns left as None
    fall back to the shared ``fm``.
    """
    overrides: list[FiniteModel | None] = per_pair_distributions or [None] * 4
    if len(overrides) != 4:
        raise ValueError(f"need 4 per-pair overrides, got {len(overrides)}")
    terms = []
    for (s1, s2, sign), override in zip(chsh_pairs(quad), overrides):
        model = override if override is not None else fm
        if model is None:
            raise ValueError("no model supplied for a column (fm is None and no override)")
        terms.append(sign * exact_correlation(model, (s1, s2)))
    return math.fsum(terms)


# --- The local polytope ---------------------------------------------------------

# The local polytope of the two-setting scenario (Fine, PRL 48, 291, 1982):
# its vertices are the 16 deterministic assignments (A_a, A_d, B_b, B_c) of
# +/-1, its facets the 8 sign vectors with an odd number of -1s, each bounding
# the signed sum of the four products by 2. CHSH_SIGNS is one of them.
_VERTICES = np.array(list(itertools.product((-1, 1), repeat=4)), dtype=np.int64)
# Each vertex's products in chsh_pairs order: (a,c), (a,b), (d,b), (d,c).
_VERTEX_PRODUCTS = _VERTICES[:, [0, 0, 1, 1]] * _VERTICES[:, [3, 2, 2, 3]]
_FACET_SIGNS = tuple(s for s in itertools.product((1, -1), repeat=4) if s.count(-1) % 2)


@dataclass(frozen=True)
class EnumerationResult:
    max_abs_chsh: float
    a_table: np.ndarray  # shape (n_settings_1, m), entries +/-1
    b_table: np.ndarray  # shape (n_settings_2, m)
    vertices_scanned: int
    facets: tuple[tuple[tuple[int, ...], int], ...]  # (sign vector, its maximum over the vertices)


def enumerate_deterministic_strategies(
    n_settings_1: int, n_settings_2: int, m: int
) -> EnumerationResult:
    """Maximum of |Delta| over deterministic strategies, from the local polytope.

    A deterministic strategy with a shared lambda averages, over lambda, the
    four products of one vertex (A_a, A_d, B_b, B_c); the statistic reads only
    the first two settings per side. So every facet's maximum over all
    strategies, for any m, is its maximum over the 16 vertices, and the value
    is the largest |canonical facet| at a vertex: 2. The argmax tables repeat
    the first vertex that maximizes the canonical facet in every lambda
    column and set every further setting to -1.
    """
    if n_settings_1 < 2 or n_settings_2 < 2:
        raise ValueError("the four-term statistic needs at least two settings per side")
    if m < 1:
        raise ValueError(f"lambda space size must be >= 1, got {m}")
    cells = (n_settings_1 + n_settings_2) * m
    if cells > ENUMERATION_GUARD_BITS:
        raise TooLarge(
            f"the argmax tables would hold {cells} cells, above the {ENUMERATION_GUARD_BITS}-cell guard"
        )

    values = _VERTEX_PRODUCTS @ np.array(_FACET_SIGNS).T  # (16, 8): each facet at each vertex
    canonical = values[:, _FACET_SIGNS.index(CHSH_SIGNS)]
    a_a, a_d, b_b, b_c = _VERTICES[int(np.argmax(canonical))].tolist()
    a_best = (a_a, a_d) + (-1,) * (n_settings_1 - 2)
    b_best = (b_b, b_c) + (-1,) * (n_settings_2 - 2)
    return EnumerationResult(
        max_abs_chsh=float(np.abs(canonical).max()),
        a_table=np.tile(np.asarray(a_best, dtype=np.int8).reshape(-1, 1), (1, m)),
        b_table=np.tile(np.asarray(b_best, dtype=np.int8).reshape(-1, 1), (1, m)),
        vertices_scanned=len(_VERTICES),
        facets=tuple(zip(_FACET_SIGNS, values.max(axis=0).tolist())),
    )


# --- Quantum reference and discretization ------------------------------------


def singlet_correlation(a: Setting, b: Setting) -> float:
    """Spin-1/2 singlet reference correlation: -cos(angle difference)."""
    return -math.cos(a.angle - b.angle)


def singlet_chsh(quad: SettingQuad) -> float:
    """Four-term statistic of the singlet reference at a quad."""
    return math.fsum(sign * singlet_correlation(s1, s2) for s1, s2, sign in chsh_pairs(quad))


def discretize_model(spec: ModelSpec, settings: list[Setting], grid: int = 360) -> FiniteModel:
    """Exact finite form of a factorizable model family.

    Discrete sources keep their own weights and midpoint angles exactly;
    continuous sources use a ``grid``-point midpoint grid (the documented
    reproducible default is 360). Only the factorizable families have a
    single setting-independent joint distribution, so only they discretize.
    """
    if not isinstance(spec, (BellDeterministic, FactorizableInstrument)):
        raise InvalidSpec(f"{spec.name} has no setting-independent finite form")
    if isinstance(spec.source, DiscreteSource):
        weights = spec.source.weights
        m = len(weights)
    else:
        assert isinstance(spec.source, UniformAngleSource)
        m = grid
        weights = tuple([1.0 / m] * m)
    angles = midpoint_angles(np.arange(m), m)

    eps = spec.epsilon if isinstance(spec, FactorizableInstrument) else 0.0
    if eps == 0.0:
        ip_w = tuple((1.0,) for _ in range(m))
        forced = []
    else:
        # instrument space: {deterministic, forced +1, forced -1}
        ip_w = tuple((1.0 - eps, eps / 2.0, eps / 2.0) for _ in range(m))
        forced = [np.ones(m, np.int8), -np.ones(m, np.int8)]

    a_table = {s: np.stack([sign_law(Station.S1, s.angle, angles), *forced], axis=1) for s in settings}
    b_table = {s: np.stack([sign_law(Station.S2, s.angle, angles), *forced], axis=1) for s in settings}
    return FiniteModel(
        lambda_weights=weights,
        ip1_weights=ip_w,
        ip2_weights=ip_w,
        a_table=a_table,
        b_table=b_table,
    )


def forced_product_overrides(quad: SettingQuad) -> list[FiniteModel]:
    """Per-column models forcing products (+1, -1, -1, -1): the escape case.

    Each column gets its own single-lambda model whose detectors output the
    product that, with the canonical signs, contributes +1 — driving the
    four-term statistic to its algebraic maximum of 4.
    """
    overrides = []
    for (s1, s2, sign) in chsh_pairs(quad):
        a_val = 1
        b_val = sign  # product = sign, so sign * product = +1
        overrides.append(
            FiniteModel(
                lambda_weights=(1.0,),
                ip1_weights=((1.0,),),
                ip2_weights=((1.0,),),
                a_table={s1: np.full((1, 1), a_val, dtype=np.int8)},
                b_table={s2: np.full((1, 1), b_val, dtype=np.int8)},
            )
        )
    return overrides


# --- Serialization ------------------------------------------------------------


def finite_model_to_json_obj(fm: FiniteModel) -> dict:
    """Angles are stored in radians: JSON floats round-trip exactly, so the
    reloaded Setting keys compare equal to the originals."""

    def table_json(table: dict[Setting, np.ndarray]) -> tuple[list[float], list[list[list[int]]]]:
        settings = sorted(table, key=lambda s: s.angle)
        return (
            [s.angle for s in settings],
            [[[int(v) for v in row] for row in np.asarray(table[s])] for s in settings],
        )

    a_settings, a_rows = table_json(fm.a_table)
    b_settings, b_rows = table_json(fm.b_table)
    return {
        "schema": "bell-lab.finite-model.v1",
        "lambda_weights": list(fm.lambda_weights),
        "ip1_weights": [list(r) for r in fm.ip1_weights],
        "ip2_weights": [list(r) for r in fm.ip2_weights],
        "a_settings_rad": a_settings,
        "a_table": a_rows,
        "b_settings_rad": b_settings,
        "b_table": b_rows,
    }


def finite_model_from_json_obj(obj: dict) -> FiniteModel:
    """A FiniteModel from parsed finite-model JSON. Its cells reach ``FiniteModel`` as
    parsed, so a float such as 1.9 fails the outcome rule there instead of being cast
    to 1. A JSON boolean anywhere in the file raises InvalidSpec: numpy and ``Setting``
    would read true as 1, among integer cells, weights or angles alike."""
    schema = obj.get("schema") if isinstance(obj, dict) else None
    if schema != "bell-lab.finite-model.v1":
        raise ValueError(f"unexpected finite-model schema {schema!r}")
    # One pass over the parsed values, a nesting level at a time, with no numpy call per cell
    level = list(obj.values())
    while level and bool not in set(map(type, level)):
        level = [item for value in level if type(value) is list for item in value]
    if level:
        raise InvalidSpec("the file holds a boolean (true or false) where a number belongs")
    a_table, b_table = {}, {}
    for name, table in (("a", a_table), ("b", b_table)):
        for setting, rows in zip(map(Setting, obj[f"{name}_settings_rad"]), obj[f"{name}_table"]):
            if setting in table:  # one key, so one column would be dropped silently
                raise InvalidSpec(f"{name}_settings_rad has two columns at {setting.degrees:.6g} deg")
            table[setting] = np.asarray(rows)
    return FiniteModel(
        lambda_weights=tuple(obj["lambda_weights"]),
        ip1_weights=tuple(tuple(r) for r in obj["ip1_weights"]),
        ip2_weights=tuple(tuple(r) for r in obj["ip2_weights"]),
        a_table=a_table,
        b_table=b_table,
    )
