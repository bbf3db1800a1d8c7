"""Seeded Monte Carlo experiment runner.

One trial = one correlated pair: a tetrahedral-die choice among the four
canonical setting pairs, a shared clock tick t equal to the trial index, a
source draw, one instrument value per station, and two +/-1 outcomes.

The runner splits [0, n_trials) into fixed 65,536-trial blocks and hands
them to min(threads, cores, blocks) worker threads. Every random quantity is a
pure function of (seed, trial index, stream label), so the log for a given
(spec, quad, n_trials, seed) is bit-identical no matter how many worker
threads evaluate it or in which order blocks complete.

Logs are stored column-wise (numpy arrays), one array per logged column:
51 bytes per trial. A report reads only each trial's pair and outcome product,
so the report paths keep ``PairProducts``, 2 bytes per trial.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import rng
from .core import CHSH_SIGNS, Setting, SettingQuad, chsh_pairs
from .errors import AnticorrelationViolated, InsufficientData, InvalidSpec
from .models import ModelFamily, Station, check_anticorrelation

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


def _column(dtype, header: str | None = None):
    """A logged column: its dtype, and its CSV header where that differs from its name."""
    return field(metadata={"dtype": np.dtype(dtype), "header": header})


@dataclass(kw_only=True, eq=False)
class TrialLog:
    """Column-oriented log of an experiment: one numpy array per logged column.

    Equality compares every column, the lambda representation and the pair
    count — exactly what the CSV round-trips.
    """

    t: np.ndarray = _column(np.int64)
    pair_id: np.ndarray = _column(np.int8)
    setting_1: np.ndarray = _column(np.float64)
    setting_2: np.ndarray = _column(np.float64)
    lam: np.ndarray = _column(np.float64, "lambda")
    ip_1: np.ndarray = _column(np.float64)
    ip_2: np.ndarray = _column(np.float64)
    a: np.ndarray = _column(np.int8, "A")
    b: np.ndarray = _column(np.int8, "B")
    lambda_kind: str
    n_pairs: int

    def __post_init__(self):
        for name, (_header, dtype) in _COLUMNS.items():
            setattr(self, name, np.ascontiguousarray(getattr(self, name), dtype=dtype))
        if self.lambda_kind not in ("discrete", "angle"):
            raise ValueError(f"lambda_kind must be 'discrete' or 'angle', got {self.lambda_kind!r}")

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialLog):
            return NotImplemented
        return (self.lambda_kind, self.n_pairs) == (other.lambda_kind, other.n_pairs) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS
        )

    def head(self, n: int) -> "TrialLog":
        """The first ``n`` trials, as views of this log's columns."""
        return replace(self, **{name: getattr(self, name)[:n] for name in _COLUMNS})

    @property
    def products(self) -> np.ndarray:
        """The outcome product A*B of each trial (int8)."""
        return self.a * self.b

    # -- serialization --------------------------------------------------

    def to_csv(self, path) -> None:
        """Write the frozen CSV schema; floats use shortest round-trip repr."""
        lam = self.lam.astype(np.int64) if self.lambda_kind == "discrete" else self.lam
        columns = [lam if name == "lam" else getattr(self, name) for name in _COLUMNS]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            # str of a Python float is its shortest round-trip repr. Formatting
            # a block of rows at a time bounds the text held in memory.
            for lo in range(0, len(self), _CSV_BLOCK_ROWS):
                hi = min(lo + _CSV_BLOCK_ROWS, len(self))
                cells = [map(str, range(lo, hi))] + [map(str, col[lo:hi].tolist()) for col in columns]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")

    @classmethod
    def from_csv(cls, path) -> "TrialLog":
        """Read a log that ``to_csv`` wrote; a malformed row raises ValueError.

        ``pair_id`` indexes the four canonical pairs, so the log has
        ``n_pairs = 4`` whichever of them its trials drew.
        """
        with open(path, newline="") as fh:
            header = fh.readline().rstrip("\n")
            if tuple(header.split(",")) != CSV_COLUMNS:
                raise ValueError(f"unexpected CSV header {header!r}")
            body = fh.tell()
            first = fh.readline().split(",")
            if first == [""]:  # header only; loadtxt would warn about an empty input
                rows = np.empty(0, dtype=_CSV_DTYPE)
            elif len(first) != len(CSV_COLUMNS):
                raise ValueError(f"trial log line 2: expected {len(CSV_COLUMNS)} cells, got {len(first)}")
            else:
                fh.seek(body)
                rows = np.loadtxt(fh, delimiter=",", dtype=_CSV_DTYPE, comments=None, ndmin=1)
        _reject_rows(rows["index"] != np.arange(len(rows)), "index must count the rows from 0")
        _reject_rows((rows["pair_id"] < 0) | (rows["pair_id"] > 3), "pair_id must be 0, 1, 2 or 3")
        _reject_rows((np.abs(rows["A"]) != 1) | (np.abs(rows["B"]) != 1), "A and B must be -1 or 1")
        discrete = len(rows) > 0 and not any(ch in first[CSV_COLUMNS.index("lambda")] for ch in ".e")
        if discrete:
            # to_csv writes a discrete lambda through int64, so only whole numbers round-trip.
            lam = rows["lambda"]
            whole = (lam >= 0.0) & (lam < 2.0**63) & (lam == np.floor(lam))
            _reject_rows(~whole, "a discrete lambda must be a whole number in [0, 2**63)")
        for header, dtype in _COLUMNS.values():
            if dtype.kind == "f":
                _reject_rows(~np.isfinite(rows[header]), f"{header} must be finite")
        return cls(
            **{name: rows[header] for name, (header, _dtype) in _COLUMNS.items()},
            lambda_kind="discrete" if discrete else "angle",
            n_pairs=4,
        )


# Attribute -> (CSV header, dtype) of each logged column, in CSV order after "index".
_COLUMNS = {f.name: (f.metadata["header"] or f.name, f.metadata["dtype"]) for f in fields(TrialLog) if f.metadata}
CSV_COLUMNS = ("index", *(header for header, _dtype in _COLUMNS.values()))
_CSV_DTYPE = np.dtype([("index", np.int64), *_COLUMNS.values()])
_CSV_BLOCK_ROWS = 1 << 14


@dataclass(eq=False)
class PairProducts:
    """What a report reads of a run: each trial's pair index and outcome product A*B (int8)."""

    pair_id: np.ndarray
    products: np.ndarray
    n_pairs: int

    def __len__(self) -> int:
        return len(self.pair_id)

    def head(self, n: int) -> "PairProducts":
        return replace(self, pair_id=self.pair_id[:n], products=self.products[:n])


def _reject_rows(bad: np.ndarray, what: str) -> None:
    if bad.any():
        raise ValueError(f"trial log line {int(np.argmax(bad)) + 2}: {what}")


# --- Running experiments ----------------------------------------------------


# Trials per block: the runner's unit of work. Every kernel temporary is one
# block long whatever n_trials is, so it stays cache-sized.
_BLOCK_TRIALS = 1 << 16


def _run_blocks(spec: ModelFamily, pairs, n_trials: int, seed: int, threads: int | None, columns: dict) -> dict:
    """The runner: fill ``columns`` (name -> dtype; a ``TrialLog`` column or ``products``, A*B)
    block by block on min(threads, cores, blocks) workers. A one-worker run starts no thread."""
    if n_trials < 1:
        raise InvalidSpec(f"n_trials must be >= 1, got {n_trials}")
    n_pairs = len(pairs)
    theta1_by_pair = np.asarray([p[0].angle for p in pairs])
    theta2_by_pair = np.asarray([p[1].angle for p in pairs])
    out = {name: np.empty(n_trials, dtype=dtype) for name, dtype in columns.items()}

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
        a = spec.outcome_arrays(Station.S1, th1, lang, i1)
        b = spec.outcome_arrays(Station.S2, th2, lang, i2)
        block = dict(t=t, pair_id=pid, setting_1=th1, setting_2=th2, lam=lrep, ip_1=i1, ip_2=i2, a=a, b=b)
        for name, column in out.items():
            column[lo:hi] = block[name] if name != "products" else a * b

    bounds = [(lo, min(lo + _BLOCK_TRIALS, n_trials)) for lo in range(0, n_trials, _BLOCK_TRIALS)]
    # More workers than cores only adds OS threads: the results never depend
    # on the thread count, so it is capped at the core count.
    workers = min(resolve_threads(threads), os.cpu_count() or 1, len(bounds))
    if workers == 1:
        for lo, hi in bounds:
            fill(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda br: fill(*br), bounds))
    return out


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
    columns = _run_blocks(spec, pairs, n_trials, seed, threads, {k: dt for k, (_h, dt) in _COLUMNS.items()})
    return TrialLog(**columns, lambda_kind=spec.lambda_kind, n_pairs=len(pairs))


def run_pair_products(
    spec: ModelFamily, pairs: list[tuple[Setting, Setting]], n_trials: int, seed: int, threads: int | None = None
) -> PairProducts:
    """``run_pairs`` keeping only what a report reads: 2 bytes per trial."""
    columns = _run_blocks(spec, pairs, n_trials, seed, threads, {"pair_id": np.int8, "products": np.int8})
    return PairProducts(**columns, n_pairs=len(pairs))


def _experiment_pairs(quad: SettingQuad) -> list[tuple[Setting, Setting]]:
    return [(s1, s2) for s1, s2, _sign in chsh_pairs(quad)]


def run_experiment(
    spec: ModelFamily, quad: SettingQuad, n_trials: int, seed: int, threads: int | None = None
) -> TrialLog:
    """Run n_trials over the four canonical pairs of ``quad``.

    ``spec`` may be a shipped ModelSpec or a custom model family.
    """
    return run_pairs(spec, _experiment_pairs(quad), n_trials, seed, threads=threads)


def run_experiment_products(
    spec: ModelFamily, quad: SettingQuad, n_trials: int, seed: int, threads: int | None = None
) -> PairProducts:
    """``run_experiment`` keeping only what a report reads: 2 bytes per trial."""
    return run_pair_products(spec, _experiment_pairs(quad), n_trials, seed, threads=threads)


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


def estimate_correlations(result: TrialLog | PairProducts) -> list[CorrelationEstimate]:
    """Per-pair sample mean and standard error of the outcome product."""
    products = result.products
    estimates = []
    for pid in range(result.n_pairs):
        mask = result.pair_id == pid
        count = int(np.count_nonzero(mask))
        if count < 2:
            raise InsufficientData(pid, count)
        p = products[mask].astype(np.float64)
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
    spec: ModelFamily,
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
    lhs = |E(A_a B_b) - E(A_a B_c)| and rhs = 1 + E(A_b B_c). ``spec`` may be
    a shipped ModelSpec or a custom model family.
    """
    pilot_seed = int(rng.hash_words(seed, "pilot", 0))
    pilot = check_anticorrelation(spec, [a, b, c], pilot_trials, pilot_seed)
    if pilot.violations > 0:
        raise AnticorrelationViolated(pilot.violations, pilot.trials)
    products = run_pair_products(spec, [(a, b), (a, c), (b, c)], n_trials, seed, threads=threads)
    e_ab, e_ac, e_bc = estimate_correlations(products)
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
