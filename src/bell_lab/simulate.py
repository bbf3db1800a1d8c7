"""Seeded Monte Carlo experiment runner.

One trial = one correlated pair: a tetrahedral-die choice among the four
canonical setting pairs, a shared clock tick t equal to the trial index, a
source draw, one instrument value per station, and two +/-1 outcomes.

Every random quantity is a pure function of (seed, trial index, stream
label), so the log for a given (spec, quad, n_trials, seed) is bit-identical
no matter how many worker threads evaluate it or in which order chunks
complete.

Logs are stored column-wise (numpy arrays); ``TrialRecord`` objects are cheap
per-trial views materialized on demand.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .core import (
    CHSH_SIGNS,
    DiscreteIndex,
    HiddenVariable,
    PlanarAngle,
    Setting,
    SettingQuad,
    chsh_pairs,
)
from .errors import AnticorrelationViolated, InsufficientData, InvalidSpec
from .models import ModelFamily, ModelSpec, Station, check_anticorrelation

CSV_COLUMNS = ("index", "t", "pair_id", "setting_1", "setting_2", "lambda", "ip_1", "ip_2", "A", "B")

_DEFAULT_PILOT_TRIALS = 1000


def resolve_threads(threads: int | None = None) -> int:
    """Worker-thread count: explicit argument, else BELL_LAB_THREADS, else 1."""
    if threads is None:
        env = os.environ.get("BELL_LAB_THREADS", "").strip()
        if env and not env.isdecimal():
            raise ValueError(f"BELL_LAB_THREADS must be a positive integer, got {env!r}")
        threads = int(env) if env else 1
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    return threads


@dataclass(frozen=True)
class TrialRecord:
    """One experimental run, as logged."""

    index: int
    t: int
    pair_id: int
    setting_1: Setting
    setting_2: Setting
    lam: HiddenVariable
    ip_1: float
    ip_2: float
    a: int
    b: int


class TrialLog:
    """Column-oriented log of an experiment.

    Equality compares the logged columns and the lambda representation —
    exactly what the CSV round-trips.
    """

    def __init__(
        self,
        *,
        t: np.ndarray,
        pair_id: np.ndarray,
        setting_1: np.ndarray,
        setting_2: np.ndarray,
        lam: np.ndarray,
        ip_1: np.ndarray,
        ip_2: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        lambda_kind: str,
        n_pairs: int,
    ):
        self.t = np.asarray(t, dtype=np.int64)
        self.pair_id = np.asarray(pair_id, dtype=np.int8)
        self.setting_1 = np.asarray(setting_1, dtype=np.float64)
        self.setting_2 = np.asarray(setting_2, dtype=np.float64)
        self.lam = np.asarray(lam, dtype=np.float64)
        self.ip_1 = np.asarray(ip_1, dtype=np.float64)
        self.ip_2 = np.asarray(ip_2, dtype=np.float64)
        self.a = np.asarray(a, dtype=np.int8)
        self.b = np.asarray(b, dtype=np.int8)
        if lambda_kind not in ("discrete", "angle"):
            raise ValueError(f"lambda_kind must be 'discrete' or 'angle', got {lambda_kind!r}")
        self.lambda_kind = lambda_kind
        self.n_pairs = n_pairs

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> TrialRecord:
        lam: HiddenVariable
        if self.lambda_kind == "discrete":
            lam = DiscreteIndex(int(self.lam[i]))
        else:
            lam = PlanarAngle(float(self.lam[i]))
        return TrialRecord(
            index=i,
            t=int(self.t[i]),
            pair_id=int(self.pair_id[i]),
            setting_1=Setting(float(self.setting_1[i])),
            setting_2=Setting(float(self.setting_2[i])),
            lam=lam,
            ip_1=float(self.ip_1[i]),
            ip_2=float(self.ip_2[i]),
            a=int(self.a[i]),
            b=int(self.b[i]),
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialLog):
            return NotImplemented
        return (
            self.lambda_kind == other.lambda_kind
            and len(self) == len(other)
            and bool(np.array_equal(self.t, other.t))
            and bool(np.array_equal(self.pair_id, other.pair_id))
            and bool(np.array_equal(self.setting_1, other.setting_1))
            and bool(np.array_equal(self.setting_2, other.setting_2))
            and bool(np.array_equal(self.lam, other.lam))
            and bool(np.array_equal(self.ip_1, other.ip_1))
            and bool(np.array_equal(self.ip_2, other.ip_2))
            and bool(np.array_equal(self.a, other.a))
            and bool(np.array_equal(self.b, other.b))
        )

    # -- serialization --------------------------------------------------

    def to_csv(self, path) -> None:
        """Write the frozen CSV schema; floats use shortest round-trip repr."""
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            discrete = self.lambda_kind == "discrete"
            for i in range(len(self)):
                lam_cell = str(int(self.lam[i])) if discrete else repr(float(self.lam[i]))
                fh.write(
                    f"{i},{int(self.t[i])},{int(self.pair_id[i])},"
                    f"{float(self.setting_1[i])!r},{float(self.setting_2[i])!r},"
                    f"{lam_cell},"
                    f"{float(self.ip_1[i])!r},{float(self.ip_2[i])!r},"
                    f"{int(self.a[i])},{int(self.b[i])}\n"
                )

    @classmethod
    def from_csv(cls, path) -> "TrialLog":
        with open(path, newline="") as fh:
            header = fh.readline().rstrip("\n")
            if tuple(header.split(",")) != CSV_COLUMNS:
                raise ValueError(f"unexpected CSV header {header!r}")
            rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
        n = len(rows)
        lambda_kind = "angle"
        if n and not any(ch in rows[0][5] for ch in ".e"):
            lambda_kind = "discrete"
        cols = list(zip(*rows)) if rows else [[]] * len(CSV_COLUMNS)
        t = np.array([int(v) for v in cols[1]], dtype=np.int64)
        pair_id = np.array([int(v) for v in cols[2]], dtype=np.int8)
        n_pairs = int(pair_id.max()) + 1 if n else 0
        return cls(
            t=t,
            pair_id=pair_id,
            setting_1=np.array([float(v) for v in cols[3]]),
            setting_2=np.array([float(v) for v in cols[4]]),
            lam=np.array([float(v) for v in cols[5]]),
            ip_1=np.array([float(v) for v in cols[6]]),
            ip_2=np.array([float(v) for v in cols[7]]),
            a=np.array([int(v) for v in cols[8]], dtype=np.int8),
            b=np.array([int(v) for v in cols[9]], dtype=np.int8),
            lambda_kind=lambda_kind,
            n_pairs=n_pairs,
        )


# --- Running experiments ----------------------------------------------------


def run_pairs(
    spec: ModelFamily,
    pairs: list[tuple[Setting, Setting]],
    n_trials: int,
    seed: int,
    threads: int | None = None,
) -> TrialLog:
    """Core runner: per-trial uniform choice among ``pairs``, shared tick t=index.

    ``spec`` is a ModelSpec or any other object satisfying the ModelFamily
    protocol; both run through the same calls.
    """
    if n_trials < 1:
        raise InvalidSpec(f"n_trials must be >= 1, got {n_trials}")
    n_pairs = len(pairs)
    theta1_by_pair = np.asarray([p[0].angle for p in pairs])
    theta2_by_pair = np.asarray([p[1].angle for p in pairs])

    pair_id = np.empty(n_trials, dtype=np.int8)
    lam = np.empty(n_trials, dtype=np.float64)
    ip_1 = np.empty(n_trials, dtype=np.float64)
    ip_2 = np.empty(n_trials, dtype=np.float64)
    a = np.empty(n_trials, dtype=np.int8)
    b = np.empty(n_trials, dtype=np.int8)

    def fill(lo: int, hi: int) -> None:
        idx = np.arange(lo, hi, dtype=np.uint64)
        t = idx
        if n_pairs == 4:
            pid = rng.choice_of_4(seed, "die", idx)
        else:
            pid = rng.integers_below(seed, "die", idx, n_pairs)
        th1 = theta1_by_pair[pid]
        th2 = theta2_by_pair[pid]
        lrep, lang = spec.source_arrays(seed, idx)
        i1 = spec.instrument_arrays(seed, idx, t, th1, Station.S1, pid)
        i2 = spec.instrument_arrays(seed, idx, t, th2, Station.S2, pid)
        sl = slice(lo, hi)
        pair_id[sl] = pid
        lam[sl] = lrep
        ip_1[sl] = i1
        ip_2[sl] = i2
        a[sl] = spec.outcome_arrays(Station.S1, th1, lang, i1)
        b[sl] = spec.outcome_arrays(Station.S2, th2, lang, i2)

    # More workers than cores only adds OS threads: the results never depend
    # on the thread count, so it is capped at the core count.
    workers = min(resolve_threads(threads), os.cpu_count() or 1)
    if workers == 1:
        fill(0, n_trials)
    else:
        chunk = -(-n_trials // workers)  # ceil division
        bounds = [(lo, min(lo + chunk, n_trials)) for lo in range(0, n_trials, chunk)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda br: fill(*br), bounds))

    t_col = np.arange(n_trials, dtype=np.int64)
    return TrialLog(
        t=t_col,
        pair_id=pair_id,
        setting_1=theta1_by_pair[pair_id],
        setting_2=theta2_by_pair[pair_id],
        lam=lam,
        ip_1=ip_1,
        ip_2=ip_2,
        a=a,
        b=b,
        lambda_kind=spec.lambda_kind,
        n_pairs=n_pairs,
    )


def run_experiment(
    spec: ModelFamily, quad: SettingQuad, n_trials: int, seed: int, threads: int | None = None
) -> TrialLog:
    """Run n_trials over the four canonical pairs of ``quad``.

    ``spec`` may be a shipped ModelSpec or a custom model family.
    """
    pairs = [(s1, s2) for s1, s2, _sign in chsh_pairs(quad)]
    return run_pairs(spec, pairs, n_trials, seed, threads=threads)


# --- Statistics -------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationEstimate:
    pair_id: int
    mean: float
    std_error: float
    count: int


@dataclass(frozen=True)
class ChshStatistic:
    value: float
    std_error: float
    per_pair: tuple[CorrelationEstimate, ...]
    flags: dict


@dataclass(frozen=True)
class BellStatistic:
    lhs: float
    rhs: float
    margin: float
    std_error: float
    per_pair: tuple[CorrelationEstimate, ...]


def estimate_correlations(log: TrialLog) -> list[CorrelationEstimate]:
    """Per-pair sample mean and standard error of the outcome product."""
    products = (log.a.astype(np.float64)) * (log.b.astype(np.float64))
    estimates = []
    for pid in range(log.n_pairs):
        mask = log.pair_id == pid
        count = int(np.count_nonzero(mask))
        if count < 2:
            raise InsufficientData(pid, count)
        p = products[mask]
        mean = float(p.mean())
        std_error = float(p.std(ddof=1) / math.sqrt(count))
        estimates.append(CorrelationEstimate(pair_id=pid, mean=mean, std_error=std_error, count=count))
    return estimates


def chsh_statistic(estimates: list[CorrelationEstimate], flags: dict | None = None) -> ChshStatistic:
    """Signed four-term combination +E0 - E1 - E2 - E3 with propagated error.

    The per-pair estimates come from disjoint trial subsets, so independent
    error propagation is exact for this design.
    """
    if len(estimates) != 4:
        raise ValueError(f"need exactly 4 estimates in canonical order, got {len(estimates)}")
    value = math.fsum(sign * e.mean for sign, e in zip(CHSH_SIGNS, estimates))
    std_error = math.sqrt(math.fsum(e.std_error**2 for e in estimates))
    return ChshStatistic(
        value=value,
        std_error=std_error,
        per_pair=tuple(estimates),
        flags=dict(flags or {}),
    )


def bell_statistic(
    spec: ModelSpec,
    a: Setting,
    b: Setting,
    c: Setting,
    n_trials: int,
    seed: int,
    threads: int | None = None,
    pilot_trials: int = _DEFAULT_PILOT_TRIALS,
) -> BellStatistic:
    """Three-setting inequality estimate |E(a,b) - E(a,c)| <= 1 - E(A_b A_c).

    A pilot equal-settings run must show perfect anticorrelation first: the
    inequality's derivation presupposes A = -B at equal settings, which also
    licenses the A-only rewrite E(A_x A_y) = -E(A_x B_y). In measured form
    lhs = |E(A_a B_b) - E(A_a B_c)| and rhs = 1 + E(A_b B_c).
    """
    pilot_seed = int(rng.hash_words(seed, "pilot", 0))
    pilot = check_anticorrelation(spec, [a, b, c], pilot_trials, pilot_seed)
    if pilot.violations > 0:
        raise AnticorrelationViolated(pilot.violations, pilot.trials)
    log = run_pairs(spec, [(a, b), (a, c), (b, c)], n_trials, seed, threads=threads)
    e_ab, e_ac, e_bc = estimate_correlations(log)
    lhs = abs(e_ab.mean - e_ac.mean)
    rhs = 1.0 + e_bc.mean
    std_error = math.sqrt(e_ab.std_error**2 + e_ac.std_error**2 + e_bc.std_error**2)
    return BellStatistic(
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
        std_error=std_error,
        per_pair=(e_ab, e_ac, e_bc),
    )
