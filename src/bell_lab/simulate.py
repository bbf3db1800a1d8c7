"""Seeded Monte Carlo experiment runner.

One trial = one correlated pair: a tetrahedral-die choice among the four
canonical setting pairs, then ``models.trial_arrays``, the one trial kernel:
a shared clock tick t equal to the trial index, a source draw, one instrument
value per station, and two +/-1 outcomes.

With w = min(threads, cores), the runner splits [0, n_trials) into blocks of
min(65,536, ceil(n_trials / w)) trials on min(w, blocks) worker threads.
Every random quantity is a pure function of (seed, trial index, stream
label), so the log for a given (spec, quad, n_trials, seed) is bit-identical
no matter how many worker threads evaluate it or in which order blocks
complete.

Logs are stored column-wise (numpy arrays), one array per logged column:
51 bytes per trial. A report reads only each pair's trial count n and the sum
s of its outcome products A*B. ``run_sums`` reduces each block to those int64
sums as it goes, so a report holds no array as long as the run, and
``TrialLog.pair_sums`` takes the same sums from a log's columns. Checkpoints
(the convergence prefixes) are given up front: a block adds its partial sums
at each checkpoint it contains.

A pair's mean is s / n and its standard error sqrt((n^2 - s^2) / (n^2 (n - 1))).
Each is one correctly rounded operation on exact integers (a true division of
Python ints, then ``math.sqrt``), so every estimate is the same on every
platform and numpy version.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import rng
from .core import CHSH_SIGNS, Setting, SettingQuad, chsh_pairs
from .errors import AnticorrelationViolated, InsufficientData, InvalidSpec
from .models import ModelFamily, check_anticorrelation, trial_arrays

# Length of the equal-settings pilot that bell_statistic runs first.
_PILOT_TRIALS = 1000


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
    """Column-oriented log of an experiment: one numpy array per logged column,
    all as long as ``t``. ``lam``'s dtype is the log's kind: int64 for a discrete
    source's index, float64 for an angle. Equality compares every column, the kind
    and the pair count — exactly what the CSV round-trips.
    """

    t: np.ndarray = _column(np.int64)
    pair_id: np.ndarray = _column(np.int8)
    setting_1: np.ndarray = _column(np.float64)
    setting_2: np.ndarray = _column(np.float64)
    lam: np.ndarray = _column(np.float64, "lambda")  # or int64: see lambda_kind
    ip_1: np.ndarray = _column(np.float64)
    ip_2: np.ndarray = _column(np.float64)
    a: np.ndarray = _column(np.int8, "A")
    b: np.ndarray = _column(np.int8, "B")
    n_pairs: int

    def __post_init__(self):
        for name, (_header, dtype) in _COLUMNS.items():
            column = np.asarray(getattr(self, name))
            if name == "lam":
                dtype = np.int64 if column.dtype.kind in "iu" else dtype
                if column.dtype.kind == "b" or not np.can_cast(column.dtype, dtype):
                    raise ValueError(f"lambda must hold integers that fit int64, or floats; got dtype {column.dtype}")
            setattr(self, name, np.ascontiguousarray(column, dtype=dtype))
            if len(column) != len(self.t):
                raise ValueError(f"column {name} has {len(column)} rows, t has {len(self.t)}")

    @property
    def lambda_kind(self) -> str:
        """'discrete' for an int64 lambda, 'angle' for a float64 one."""
        return "discrete" if self.lam.dtype == np.int64 else "angle"

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialLog):
            return NotImplemented
        return (self.lambda_kind, self.n_pairs) == (other.lambda_kind, other.n_pairs) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS
        )

    def pair_sums(self, checkpoints=None) -> np.ndarray:
        """``run_sums`` of this log, from its columns: each pair's (count, sum of A*B)
        over the first c trials for each c of ``checkpoints`` (default: the whole log)."""
        checkpoints = [len(self)] if checkpoints is None else checkpoints
        total = np.zeros((len(checkpoints), self.n_pairs, 2), dtype=np.int64)
        for lo in range(0, len(self), _BLOCK_TRIALS):
            hi = lo + _BLOCK_TRIALS
            total += _pair_sums(self.pair_id[lo:hi], self.a[lo:hi] == self.b[lo:hi], self.n_pairs, lo, checkpoints)
        return total

    # -- serialization --------------------------------------------------

    def to_csv(self, path) -> None:
        """Write the frozen CSV schema; floats use shortest round-trip repr."""
        columns = [getattr(self, name) for name in _COLUMNS]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            # str of a Python float is its shortest round-trip repr. Formatting
            # a block of rows at a time bounds the text held in memory.
            for lo in range(0, len(self), _CSV_BLOCK_ROWS):
                hi = min(lo + _CSV_BLOCK_ROWS, len(self))
                cells = [map(str, range(lo, hi))] + [_cell_texts(col[lo:hi]) for col in columns]
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
        columns = {name: rows[header] for name, (header, _dtype) in _COLUMNS.items()}
        if len(rows) > 0 and not any(ch in first[CSV_COLUMNS.index("lambda")] for ch in ".e"):
            # Parsed as float64, a whole number is exact below 2**53 and may be rounded above.
            lam = columns["lam"]
            whole = (lam >= 0.0) & (lam < 2.0**53) & (lam == np.floor(lam))
            _reject_rows(~whole, "a discrete lambda must be a whole number in [0, 2**53)")
            columns["lam"] = lam.astype(np.int64)
        for header, dtype in _COLUMNS.values():
            if dtype.kind == "f":
                _reject_rows(~np.isfinite(rows[header]), f"{header} must be finite")
        return cls(**columns, n_pairs=4)


# Attribute -> (CSV header, dtype) of each logged column, in CSV order after "index".
_COLUMNS = {f.name: (f.metadata["header"] or f.name, f.metadata["dtype"]) for f in fields(TrialLog) if f.metadata}
CSV_COLUMNS = ("index", *(header for header, _dtype in _COLUMNS.values()))
_CSV_DTYPE = np.dtype([("index", np.int64), *_COLUMNS.values()])
_CSV_BLOCK_ROWS = 1 << 14


def _cell_texts(values: np.ndarray):
    """The CSV text of each value. When at most half of them are distinct, each
    distinct value is formatted once and indexed; values are told apart by bit
    pattern, so -0.0 and 0.0 keep their own text."""
    bits = values.view(f"u{values.itemsize}")
    ordered = np.sort(bits)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    if 2 * len(distinct) > len(bits):
        return map(str, values.tolist())
    texts = np.array([str(v) for v in distinct.view(values.dtype).tolist()], dtype=object)
    return texts[np.searchsorted(distinct, bits)].tolist()


def _reject_rows(bad: np.ndarray, what: str) -> None:
    if bad.any():
        raise ValueError(f"trial log line {int(np.argmax(bad)) + 2}: {what}")


# --- Running experiments ----------------------------------------------------


# Most trials per block, the runner's unit of work: every kernel temporary is
# at most one block long whatever n_trials is, so it stays cache-sized.
_BLOCK_TRIALS = 1 << 16

# Most blocks handed to the worker pool at once. The pool keeps a future per
# block it is given, about 2 KB each, so without a window a run's memory would
# grow with its length (30 GB at 10**12 trials).
_WINDOW_BLOCKS = 1024


def _run_blocks(spec: ModelFamily, pairs, n_trials: int, seed: int, threads: int | None, reduce):
    """The runner: evaluate [0, n_trials) block by block on min(threads, cores, blocks)
    workers and return the sum over blocks of ``reduce(lo, block)``, where ``block``
    maps each ``TrialLog`` column name to the values of trials lo, lo + 1, ... A
    one-worker run starts no thread."""
    if n_trials < 1:
        raise InvalidSpec(f"n_trials must be >= 1, got {n_trials}")
    n_pairs = len(pairs)
    theta1_of_pair = np.asarray([p[0].angle for p in pairs])
    theta2_of_pair = np.asarray([p[1].angle for p in pairs])

    def run(lo: int):
        idx = np.arange(lo, min(lo + size, n_trials), dtype=np.uint64)
        if n_pairs == 4:
            pid = rng.choice_of_4(seed, "die", idx)
        else:
            pid = rng.integers_below(seed, "die", idx, n_pairs)
        th1 = theta1_of_pair[pid]
        th2 = theta2_of_pair[pid]
        lrep, i1, i2, a, b = trial_arrays(spec, seed, idx, th1, th2, pid)
        return reduce(lo, dict(t=idx, pair_id=pid, setting_1=th1, setting_2=th2, lam=lrep, ip_1=i1, ip_2=i2, a=a, b=b))

    # More workers than cores only adds OS threads: the results never depend
    # on the thread count, so it is capped at the core count. Blocks shrink to
    # n / workers so that a short run, such as one --sweep point, uses every worker.
    workers = min(resolve_threads(threads), os.cpu_count() or 1)
    size = min(_BLOCK_TRIALS, -(-n_trials // workers))
    starts = range(0, n_trials, size)
    workers = min(workers, len(starts))
    if workers == 1:
        return sum(map(run, starts))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        windows = (starts[i : i + _WINDOW_BLOCKS] for i in range(0, len(starts), _WINDOW_BLOCKS))
        return sum(sum(pool.map(run, window)) for window in windows)


def _pair_sums(pair_id: np.ndarray, agree: np.ndarray, n_pairs: int, lo: int, checkpoints) -> np.ndarray:
    """Each pair's (count, sum of A*B) over the trials lo, lo + 1, ... that ``pair_id``
    and ``agree`` (A == B) describe, counting for each c of ``checkpoints`` only the
    trials before c: int64 of shape (len(checkpoints), n_pairs, 2)."""
    key = 2 * pair_id.astype(np.intp) + agree

    def tally(keys: np.ndarray) -> np.ndarray:
        minus, plus = np.bincount(keys, minlength=2 * n_pairs).reshape(n_pairs, 2).T
        return np.stack((minus + plus, plus - minus), axis=1)

    whole = tally(key)
    return np.stack([whole if c >= lo + len(key) else tally(key[: max(c - lo, 0)]) for c in checkpoints])


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
    # The runner itself rejects n_trials < 1.
    columns = {name: np.empty(max(n_trials, 0), dtype=dtype) for name, (_header, dtype) in _COLUMNS.items()}
    columns["lam"] = np.empty(max(n_trials, 0), dtype={"discrete": np.int64, "angle": np.float64}[spec.lambda_kind])

    def fill(lo: int, block: dict) -> int:
        for name, column in columns.items():
            column[lo : lo + len(block["t"])] = block[name]
        return 0  # a log keeps its trials, so there is nothing to add up

    _run_blocks(spec, pairs, n_trials, seed, threads, fill)
    return TrialLog(**columns, n_pairs=len(pairs))


def run_sums(
    spec: ModelFamily,
    pairs: list[tuple[Setting, Setting]],
    n_trials: int,
    seed: int,
    threads: int | None = None,
    checkpoints=None,
) -> np.ndarray:
    """What a report reads of ``run_pairs``: each pair's (count, sum of A*B) over the
    first c trials for each increasing c of ``checkpoints`` (default: n_trials), as
    int64 of shape (len(checkpoints), len(pairs), 2). No array is as long as the run."""
    checkpoints = [n_trials] if checkpoints is None else checkpoints

    def tally(lo: int, block: dict) -> np.ndarray:
        return _pair_sums(block["pair_id"], block["a"] == block["b"], len(pairs), lo, checkpoints)

    return _run_blocks(spec, pairs, n_trials, seed, threads, tally)


def experiment_pairs(quad: SettingQuad) -> list[tuple[Setting, Setting]]:
    """The four canonical setting pairs of ``quad``, in pair_id order."""
    return [(s1, s2) for s1, s2, _sign in chsh_pairs(quad)]


def run_experiment(
    spec: ModelFamily, quad: SettingQuad, n_trials: int, seed: int, threads: int | None = None
) -> TrialLog:
    """Run n_trials over the four canonical pairs of ``quad``.

    ``spec`` may be a shipped ModelSpec or a custom model family.
    """
    return run_pairs(spec, experiment_pairs(quad), n_trials, seed, threads=threads)


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


@dataclass(frozen=True)
class BellStatistic:
    lhs: float
    rhs: float
    margin: float
    std_error: float
    per_pair: tuple[CorrelationEstimate, ...]


def _estimate(pid: int, count: int, total: int) -> CorrelationEstimate:
    """Mean and standard error of a pair's ``count`` +/-1 products with sum ``total``:
    s / n and sqrt((n^2 - s^2) / (n^2 (n - 1))). Each quotient is one true division of
    Python ints and the root one ``math.sqrt``, so each step is correctly rounded."""
    if count < 2:
        raise InsufficientData(pid, count)
    std_error = math.sqrt((count * count - total * total) / (count * count * (count - 1)))
    return CorrelationEstimate(pair_id=pid, mean=total / count, std_error=std_error, count=count)


def estimate_correlations(result: TrialLog | np.ndarray) -> list[CorrelationEstimate]:
    """Per-pair sample mean and standard error of the outcome product, from a trial
    log or from one checkpoint's per-pair (count, sum of A*B) rows of ``run_sums``."""
    sums = result.pair_sums()[-1] if isinstance(result, TrialLog) else result
    return [_estimate(pid, count, total) for pid, (count, total) in enumerate(sums.tolist())]


def chsh_statistic(estimates: list[CorrelationEstimate]) -> ChshStatistic:
    """Signed four-term combination +E0 - E1 - E2 - E3 with propagated error.

    The per-pair estimates come from disjoint trial subsets, so independent
    error propagation is exact for this design.
    """
    if len(estimates) != 4:
        raise ValueError(f"need exactly 4 estimates in canonical order, got {len(estimates)}")
    value = math.fsum(sign * e.mean for sign, e in zip(CHSH_SIGNS, estimates))
    std_error = math.sqrt(math.fsum(e.std_error**2 for e in estimates))
    return ChshStatistic(value=value, std_error=std_error, per_pair=tuple(estimates))


def three_setting_statistic(
    e_ab: CorrelationEstimate, e_ac: CorrelationEstimate, e_bc: CorrelationEstimate
) -> BellStatistic:
    """lhs = |E(a,b) - E(a,c)|, rhs = 1 + E(b,c) and margin = rhs - lhs, with
    propagated error: the three-setting inequality at three pair estimates."""
    lhs = abs(e_ab.mean - e_ac.mean)
    rhs = 1.0 + e_bc.mean
    std_error = math.sqrt(e_ab.std_error**2 + e_ac.std_error**2 + e_bc.std_error**2)
    return BellStatistic(lhs=lhs, rhs=rhs, margin=rhs - lhs, std_error=std_error, per_pair=(e_ab, e_ac, e_bc))


def bell_statistic(
    spec: ModelFamily,
    a: Setting,
    b: Setting,
    c: Setting,
    n_trials: int,
    seed: int,
    threads: int | None = None,
) -> BellStatistic:
    """Three-setting inequality estimate |E(a,b) - E(a,c)| <= 1 - E(A_b A_c).

    A pilot equal-settings run must show perfect anticorrelation first: the
    inequality's derivation presupposes A = -B at equal settings, which also
    licenses the A-only rewrite E(A_x A_y) = -E(A_x B_y). In measured form
    lhs = |E(A_a B_b) - E(A_a B_c)| and rhs = 1 + E(A_b B_c). ``spec`` may be
    a shipped ModelSpec or a custom model family.
    """
    pilot_seed = int(rng.hash_words(seed, "pilot", 0))
    pilot = check_anticorrelation(spec, [a, b, c], _PILOT_TRIALS, pilot_seed)
    if pilot.violations > 0:
        raise AnticorrelationViolated(pilot.violations, pilot.trials)
    sums = run_sums(spec, [(a, b), (a, c), (b, c)], n_trials, seed, threads=threads)
    return three_setting_statistic(*estimate_correlations(sums[-1]))
