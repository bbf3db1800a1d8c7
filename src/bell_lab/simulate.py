"""Seeded Monte Carlo experiment runner.

One trial = one correlated pair: a tetrahedral-die choice among the four
canonical setting pairs, a source draw, then ``models.trial_arrays``, the one
trial kernel: a shared clock tick t equal to the trial index, one instrument
value per station, and two +/-1 outcomes.

A run is a range of trial indices, its setting pairs and its seed. One call of the
runner evaluates one run (``run_pairs``) or a list of runs (``run_sums_each``, which
``run_sums`` calls with the segments of one run, and ``check`` with its three-pair and
four-pair experiments). Runs of the same range and seed share one pass: each block
hashes their die word and draws their source values once. With w = min(threads, cores),
the runner cuts every run into near-equal blocks of at most min(8,192, ceil(total trials
/ w)) trials, numbers the blocks of all its runs in run order and puts one ticket per
chunk of them into a pipe; W = min(w, blocks) worker processes, this one and W - 1
children made by ``os.fork``, claim the tickets until none is left, and each child
sends back one sum per run through a pipe of its own (a forking ``run_pairs`` puts its
columns in shared memory, so the children write the log in place). A call forks nothing
when W = 1, where ``os.fork`` does not exist, or while another Python thread is running.
Every random quantity is a pure function of (seed, trial index, stream label), so the
log for a given (spec, quad, n_trials, seed) is bit-identical no matter how many workers
evaluate it or which evaluates which block.

Logs are stored column-wise (numpy arrays), one array per logged column: 51 bytes per
trial. A report reads only each pair's trial count n and the sum s of its outcome
products A*B. ``run_sums`` reduces each block to those int64 sums as it goes, so a
report holds no array as long as the run, and ``TrialLog.pair_sums`` takes the same sums
from a log's columns. Checkpoints (the convergence prefixes) cut the trials into
segments, each tallied once: a checkpoint's sums are the running total of the segments'.

A pair's mean is s / n and its standard error sqrt((n^2 - s^2) / (n^2 (n - 1))).
Each is one correctly rounded operation on exact integers (a true division of
Python ints, then ``math.sqrt``), so every estimate is the same on every
platform and numpy version.
"""

from __future__ import annotations

import bisect
import ctypes
import functools
import itertools
import math
import mmap
import os
import pickle
import select
import signal
import sys
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from . import models, rng
from .core import CHSH_SIGNS, Setting, SettingQuad, chsh_pairs
from .errors import AnticorrelationViolated, InsufficientData, InvalidSpec, WorkerFailed
from .models import ModelFamily, check_anticorrelation

# Length of the equal-settings pilot that require_anticorrelation runs.
_PILOT_TRIALS = 1000


def resolve_threads(threads: int | None = None) -> int:
    """Worker count, the most processes a run may use: explicit argument, else
    BELL_LAB_THREADS, else 1. The runner caps it at the core count."""
    if threads is None:
        env = os.environ.get("BELL_LAB_THREADS", "").strip()
        if env and not env.isdecimal():
            raise ValueError(f"BELL_LAB_THREADS must be a positive integer, got {env!r}")
        threads = int(env) if env else 1
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    return threads


def _lambda_dtype(dtype: np.dtype) -> np.dtype:
    """The logged dtype of lambda values of ``dtype``: int64 for integers, float64 for
    floats. A boolean, or an integer dtype that does not fit int64, raises ValueError."""
    logged = np.dtype(np.int64 if dtype.kind in "iu" else np.float64)
    if dtype.kind == "b" or not np.can_cast(dtype, logged):
        raise ValueError(f"lambda must hold integers that fit int64, or floats; got dtype {dtype}")
    return logged


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
                dtype = _lambda_dtype(column.dtype)
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
        over the first c trials for each c of ``checkpoints`` (default: the whole log),
        the running total of the sums of its segments (``_segments``)."""
        cuts = [slice(segment.start, segment.stop) for segment in _segments(len(self), checkpoints)]
        return np.cumsum([_pair_sums(self.pair_id[c], self.a[c], self.b[c], self.n_pairs) for c in cuts], axis=0)

    # -- serialization --------------------------------------------------

    def to_csv(self, path) -> None:
        """Write the frozen CSV schema; floats use shortest round-trip repr. A discrete
        lambda that ``from_csv`` would refuse raises ValueError before the file is opened."""
        if self.lambda_kind == "discrete":
            _reject_rows((self.lam < 0) | (self.lam >= 2**53), "a discrete lambda must be a whole number in [0, 2**53)")
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
# Rows per block of the text writers (``to_csv`` and the compact JSON writer): a block's
# text, not the whole file's, is what they hold in memory.
_CSV_BLOCK_ROWS = 1 << 12


def _cell_texts(values: np.ndarray):
    """The CSV text of each value: str of its Python value. When at most half of
    them are distinct, each distinct value is formatted once and indexed; values
    are told apart by bit pattern, so -0.0 and 0.0 keep their own text."""
    bits = values.view(f"u{values.itemsize}")
    distinct = _distinct(bits)
    if 2 * len(distinct) > len(bits):
        return map(str, values.tolist())
    texts = np.array([str(v) for v in distinct.view(values.dtype).tolist()], dtype=object)
    return texts[np.searchsorted(distinct, bits)].tolist()


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of an array, sorted. One ``np.sort`` and a mask: on 8,192
    int64 values that took 34 us, against 272 us for ``np.unique``, and on 10**6 of them
    26 ms against 794 ms (numpy 2.4.6, a 2-vCPU Xeon)."""
    ordered = np.sort(values)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


def _reject_rows(bad: np.ndarray, what: str) -> None:
    if bad.any():
        raise ValueError(f"trial log line {int(np.argmax(bad)) + 2}: {what}")


# --- Running experiments ----------------------------------------------------


# Most trials per block, the runner's unit of work: every kernel temporary is
# at most one block long whatever n_trials is. At 2**14 trials a float64 or
# uint64 temporary is 128 KiB, glibc's default mmap threshold: the temporaries a
# block frees then exceed the heap's trim threshold, so every block faults in
# fresh pages (200-300 minor faults a block). At 2**13 the heap keeps them.
_BLOCK_TRIALS = 1 << 13

# Most tickets of one call of the runner: each is four bytes, so that all of them
# fit in one page, which a pipe always holds.
_TICKETS = 1 << 10

# prctl(PR_SET_PDEATHSIG, signal): the kernel sends the signal to this process
# when its parent ends.
_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>

if sys.platform.startswith("linux"):
    _LIBC = ctypes.CDLL(None, use_errno=True)
    _PRCTL = _LIBC.prctl
    _PRCTL.argtypes = [ctypes.c_int, ctypes.c_ulong]
    _PRCTL.restype = ctypes.c_int

# A block's temporaries take at most about 0.8 MB. glibc gives the free memory at the
# top of its heap back to the system once it exceeds the trim threshold, 128 KiB at
# first, and whether a block's frees end at the top depends on the heap's layout: in
# some layouts each block of a 10**6-trial check faulted its pages in afresh, 15,000
# faults in all. When glibc frees a chunk that it had mapped, it raises its mmap
# threshold to the chunk's size and the trim threshold to twice that (mallopt(3)).
# Freeing one chunk of this size puts the trim threshold above a block's temporaries;
# a mallopt call would do it too, but would also stop glibc adjusting its thresholds
# for larger arrays, which then fault their pages in on every allocation.
_HEAP_PRIMER_BYTES = 1 << 20


@functools.cache
def _raise_the_trim_threshold() -> None:
    """Free one mapped chunk of _HEAP_PRIMER_BYTES, once, under glibc; elsewhere do nothing."""
    if sys.platform.startswith("linux") and hasattr(_LIBC, "gnu_get_libc_version"):
        _LIBC.malloc.restype = ctypes.c_void_p
        _LIBC.free.argtypes = [ctypes.c_void_p]
        _LIBC.free(_LIBC.malloc(_HEAP_PRIMER_BYTES))


def _workers(threads: int | None, tasks: int) -> int:
    """How many processes share ``tasks`` tasks: min(threads, cores, tasks), or 1
    where forking is impossible (no ``os.fork``) or unsafe (another Python thread
    is running, and a child would start with any lock that thread holds)."""
    workers = min(resolve_threads(threads), os.cpu_count() or 1, max(tasks, 1))
    return workers if hasattr(os, "fork") and threading.active_count() == 1 else 1


def _fork_shares(share, workers: int) -> list:
    """[share(0, poll), share(1, poll), ..., share(workers - 1, poll)]. Share 0 runs in
    this process, every other share in a child made by ``os.fork``, which sends its
    result (or its exception, raised here with its own type) back pickled through a
    pipe. A share calls ``poll()`` before each unit of its work: in this process it
    collects every child that has finished, so that a child's failure ends the run
    within one unit of share 0, not after all of it; in a child it does nothing. A
    child that ends without its result raises ``WorkerFailed``. Every child is reaped
    before this returns or raises, and killed first if it is still running.
    """
    parent = os.getpid()
    children = {}  # the read end of each child's pipe -> (its share, its pid), until reaped
    results = [None] * workers
    poller = select.poll() if workers > 1 else None

    def collect(ready) -> None:
        for read_end in ready:
            w, pid = children[read_end]
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[read_end]
            poller.unregister(read_end)
            os.close(read_end)
            try:
                ok, value = pickle.loads(data)
            except Exception:  # it ended before it wrote all of its result, or any
                raise WorkerFailed(f"a worker process ended without its result ({_ending(status)})") from None
            if not ok:
                raise value
            results[w] = value

    def poll() -> None:
        if children:
            collect([read_end for read_end, _event in poller.poll(0)])

    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(read_end)
                os.close(write_end)
                raise WorkerFailed(f"cannot start a worker process: {exc}") from None
            if pid == 0:
                _child(share, w, write_end, parent)  # never returns
            os.close(write_end)
            children[read_end] = (w, pid)
            poller.register(read_end, select.POLLIN)
        results[0] = share(0, poll)
        collect(list(children))
        return results
    finally:
        for read_end, (_w, pid) in children.items():
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(share, w: int, write_end: int, parent: int):
    """A forked worker's whole life: run its share ``w``, send the outcome through
    ``write_end`` and leave by ``os._exit``, which flushes none of the buffers the
    parent had filled when it forked and returns to none of its callers."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_DFL)  # Ctrl-C ends the whole run
        # A parent ended by a signal it does not handle, such as SIGTERM, cannot
        # kill its children; on Linux the kernel does it for them.
        if sys.platform.startswith("linux"):
            _PRCTL(_PR_SET_PDEATHSIG, signal.SIGKILL)  # fails only for an invalid signal
        if os.getppid() != parent:  # the parent ended before that took effect
            return
        try:
            outcome = (True, share(w, lambda: None))
        except BaseException as exc:
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome)
            pickle.loads(data)  # an exception whose __init__ takes other arguments fails here
        except Exception as exc:
            what = f"{type(outcome[1]).__name__}: {outcome[1]}" if not outcome[0] else "its result"
            data = pickle.dumps((False, WorkerFailed(f"a worker process could not send {what} ({exc})")))
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _ending(status: int) -> str:
    """How a child with wait status ``status`` ended, in words."""
    code = os.waitstatus_to_exitcode(status)
    if code >= 0:
        return f"exit code {code}"
    try:
        return f"killed by {signal.Signals(-code).name}"
    except ValueError:
        return f"killed by signal {-code}"


def _run_blocks(spec: ModelFamily, runs, workers: int, reduce) -> list:
    """The runner: evaluate each run (pairs, trials, seed) of ``runs``, ``trials`` a
    nonempty range of trial indices, block by block and return, for each run k, the sum
    over its blocks of ``reduce(k, lo, block)``, where ``block`` maps each ``TrialLog``
    column name to the values of run k's trials lo, lo + 1, ... Runs of equal (trials,
    seed) form a group, in order of first appearance, and share its blocks: a block
    hashes the die word and draws the source once, and each run of the group maps the
    die to its own pairs (``rng.words_below``) and evaluates its trials on that source.
    A group of n trials is cut into ceil(n / size) blocks, size = min(_BLOCK_TRIALS,
    ceil(total trials of the groups / workers)), so that a short run uses every worker;
    all but the last are ceil(n / blocks) trials long. The blocks of all groups are
    numbered in group order and cut into at most _TICKETS near-equal chunks, one ticket
    each, which go into a pipe before W = min(workers, blocks) workers start: this
    process and W - 1 forked ones (``_fork_shares``). Each worker takes the next ticket
    and evaluates its chunk until the pipe is empty, so a worker that runs slower
    evaluates fewer blocks and the workers end within about one chunk of each other.
    A block's trial indices are read-only, so its instrument draws of one label share
    one hash base (``rng.hash_words``)."""
    shared: dict[tuple[range, int], list[int]] = {}
    for k, (_pairs, trials, seed) in enumerate(runs):
        shared.setdefault((trials, seed), []).append(k)
    groups = list(shared.items())
    size = min(_BLOCK_TRIALS, -(-sum(len(trials) for (trials, _seed), _ks in groups) // workers))
    starts = [trials[:: -(-len(trials) // -(-len(trials) // size))] for (trials, _seed), _ks in groups]
    firsts = list(itertools.accumulate(map(len, starts), initial=0))  # each group's first block, then the count
    blocks = firsts[-1]
    workers = min(workers, max(blocks, 1))
    tickets = min(blocks, _TICKETS)
    angles = [tuple(np.asarray([pair[i].angle for pair in pairs]) for i in (0, 1)) for pairs, _n, _seed in runs]
    _raise_the_trim_threshold()

    def run(k: int, lo: int, idx, die, lrep, lam_angle):
        # A function of its own, so that run k's temporaries are freed before the next
        # run of the group makes its own: the heap then reuses their pages.
        pid = rng.words_below(die, len(runs[k][0]))
        th1, th2 = angles[k][0][pid], angles[k][1][pid]
        i1, i2, a, b = models.trial_arrays(spec, runs[k][2], idx, lam_angle, th1, th2, pid)
        return reduce(k, lo, dict(t=idx, pair_id=pid, setting_1=th1, setting_2=th2, lam=lrep, ip_1=i1, ip_2=i2, a=a, b=b))

    def run_block(b: int, totals: list) -> None:
        g = bisect.bisect_right(firsts, b) - 1
        (trials, seed), ks = groups[g]
        lo = starts[g][b - firsts[g]]
        idx = np.arange(lo, min(lo + starts[g].step, trials.stop), dtype=np.uint64)
        idx.flags.writeable = False
        # words_below gives a one-pair run zeros whatever it reads, so such runs hash no die
        die = rng.hash_words(seed, "die", idx) if any(len(runs[k][0]) > 1 for k in ks) else idx
        lrep, lam_angle = models.source_arrays(spec, seed, idx)
        for k in ks:
            totals[k] += run(k, lo, idx, die, lrep, lam_angle)

    def share(_w: int, poll) -> list:
        totals = [0] * len(runs)
        while ticket := os.read(read_end, 4):  # empty once every ticket is taken
            j = int.from_bytes(ticket, "little")
            for b in range(j * blocks // tickets, (j + 1) * blocks // tickets):
                poll()
                run_block(b, totals)
        return totals

    read_end, write_end = os.pipe()
    try:
        # At most a page of tickets, which a pipe always holds, so this write returns at
        # once; the write end closes before the fork, so the pipe reads empty once drained.
        with open(write_end, "wb", buffering=0) as pipe:
            pipe.write(b"".join(j.to_bytes(4, "little") for j in range(tickets)))
        return [sum(run_totals) for run_totals in zip(*_fork_shares(share, workers))]
    finally:
        os.close(read_end)


def _pair_sums(pair_id: np.ndarray, a: np.ndarray, b: np.ndarray, n_pairs: int) -> np.ndarray:
    """Each pair's (count, sum of A*B) over the trials of the columns ``pair_id``, ``a`` and
    ``b``, int64 of shape (n_pairs, 2), tallied a block at a time to bound the temporaries."""
    total = np.zeros((n_pairs, 2), dtype=np.int64)
    for lo in range(0, len(pair_id), _BLOCK_TRIALS):
        hi = lo + _BLOCK_TRIALS
        key = 2 * pair_id[lo:hi].astype(np.intp) + (a[lo:hi] == b[lo:hi])
        minus, plus = np.bincount(key, minlength=2 * n_pairs).reshape(n_pairs, 2).T
        total += np.stack((minus + plus, plus - minus), axis=1)
    return total


def _segments(n_trials: int, checkpoints=None) -> list[range]:
    """The trials between checkpoints: range(c', c) for each c of the nondecreasing
    ``checkpoints`` (default: n_trials) clipped to [0, n_trials], c' the one before it, or 0."""
    ends = [min(max(c, 0), n_trials) for c in ([n_trials] if checkpoints is None else checkpoints)]
    return [range(lo, hi) for lo, hi in itertools.pairwise([0, *ends])]


def run_pairs(
    spec: ModelFamily,
    pairs: list[tuple[Setting, Setting]],
    n_trials: int,
    seed: int,
    threads: int | None = None,
) -> TrialLog:
    """Core runner: per-trial uniform choice among ``pairs``, shared tick t=index.

    ``spec`` is a ModelSpec or any other object satisfying the ModelFamily
    protocol; both run through the same calls. The lambda column takes its type
    from the source law's output for no trials (``_lambda_dtype``).
    """
    if n_trials < 1:
        raise InvalidSpec(f"n_trials must be >= 1, got {n_trials}")
    dtypes = {name: dtype for name, (_header, dtype) in _COLUMNS.items()}
    lam, _lam_angle = spec.source_arrays(seed, np.empty(0, dtype=np.uint64))
    dtypes["lam"] = _lambda_dtype(np.asarray(lam).dtype)
    # Forked workers need the columns in shared memory, whose pages cost more
    # to fault in than private ones: a one-process run allocates them privately.
    workers = _workers(threads, n_trials)
    allocate = _shared_empty if workers > 1 else np.empty
    columns = {name: allocate(n_trials, dtype) for name, dtype in dtypes.items()}

    def fill(_k: int, lo: int, block: dict) -> int:
        for name, column in columns.items():
            column[lo : lo + len(block["t"])] = block[name]
        return 0  # a log keeps its trials, so there is nothing to add up

    _run_blocks(spec, [(pairs, range(n_trials), seed)], workers, fill)
    return TrialLog(**columns, n_pairs=len(pairs))


def _shared_empty(n: int, dtype) -> np.ndarray:
    """An uninitialised array of ``n`` items in anonymous shared memory, so that what
    a forked worker writes into it reaches this process too."""
    dtype = np.dtype(dtype)
    try:
        buffer = mmap.mmap(-1, max(n, 1) * dtype.itemsize)
    except OSError as exc:  # ENOMEM: the failure that np.empty reports as MemoryError
        raise MemoryError(str(exc)) from None
    return np.frombuffer(buffer, dtype=dtype, count=n)


def run_sums(
    spec: ModelFamily,
    pairs: list[tuple[Setting, Setting]],
    n_trials: int,
    seed: int,
    threads: int | None = None,
    checkpoints=None,
) -> np.ndarray:
    """What a report reads of ``run_pairs``: each pair's (count, sum of A*B) over the
    first c trials for each nondecreasing c of ``checkpoints`` (default: n_trials), as
    int64 of shape (len(checkpoints), len(pairs), 2), the running total of the sums of
    its segments (``_segments``), all run by one ``run_sums_each``; an empty one adds zeros."""
    if n_trials < 1:
        raise InvalidSpec(f"n_trials must be >= 1, got {n_trials}")
    segments = _segments(n_trials, checkpoints)
    sums = iter(run_sums_each(spec, [(pairs, segment, seed) for segment in segments if segment], threads))
    return np.cumsum([next(sums) if s else np.zeros((len(pairs), 2), dtype=np.int64) for s in segments], axis=0)


def run_sums_each(spec: ModelFamily, runs, threads: int | None = None) -> list[np.ndarray]:
    """Each pair's (count, sum of A*B), int64 of shape (len(pairs), 2), for each run
    (pairs, trials, seed) of ``runs`` in order, ``trials`` a range of consecutive trial
    indices: many short runs, such as the --sweep points or one run's segments, or
    several experiments over the same trials, such as check's. The blocks of all the
    runs are claimed by one set of workers, so a set of runs forks once, and runs of the
    same trials and seed share each block's die and source words (``_run_blocks``)."""
    runs = list(runs)
    for _pairs, trials, _seed in runs:
        if len(trials) < 1:
            raise InvalidSpec(f"n_trials must be >= 1, got {len(trials)}")

    def tally(k: int, _lo: int, block: dict) -> np.ndarray:
        return _pair_sums(block["pair_id"], block["a"], block["b"], len(runs[k][0]))

    return _run_blocks(spec, runs, _workers(threads, sum(len(trials) for _pairs, trials, _seed in runs)), tally)


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


@dataclass(frozen=True)
class BellStatistic:
    lhs: float
    rhs: float
    margin: float
    std_error: float


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
    return ChshStatistic(value=value, std_error=std_error)


def three_setting_statistic(
    e_ab: CorrelationEstimate, e_ac: CorrelationEstimate, e_bc: CorrelationEstimate
) -> BellStatistic:
    """lhs = |E(a,b) - E(a,c)|, rhs = 1 + E(b,c) and margin = rhs - lhs, with
    propagated error: the three-setting inequality at three pair estimates."""
    lhs = abs(e_ab.mean - e_ac.mean)
    rhs = 1.0 + e_bc.mean
    std_error = math.sqrt(e_ab.std_error**2 + e_ac.std_error**2 + e_bc.std_error**2)
    return BellStatistic(lhs=lhs, rhs=rhs, margin=rhs - lhs, std_error=std_error)


def three_setting_pairs(a: Setting, b: Setting, c: Setting) -> list[tuple[Setting, Setting]]:
    """The three-setting inequality's pairs (a, b), (a, c) and (b, c), in pair_id order."""
    return [(a, b), (a, c), (b, c)]


def require_anticorrelation(spec: ModelFamily, a: Setting, b: Setting, c: Setting, seed: int) -> None:
    """The three-setting inequality's premise: an equal-settings pilot of
    ``_PILOT_TRIALS`` trials over a, b and c must show A = -B on every trial, or this
    raises ``AnticorrelationViolated`` (an instrument law that reads the setting pair,
    which the pilot does not have, raises ``InvalidSpec``)."""
    pilot = check_anticorrelation(spec, [a, b, c], _PILOT_TRIALS, int(rng.hash_words(seed, "pilot", 0)))
    if pilot.violations > 0:
        raise AnticorrelationViolated(pilot.violations, pilot.trials)


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

    A pilot equal-settings run must show perfect anticorrelation first
    (``require_anticorrelation``): the inequality's derivation presupposes A = -B at
    equal settings, which also licenses the A-only rewrite E(A_x A_y) = -E(A_x B_y).
    In measured form lhs = |E(A_a B_b) - E(A_a B_c)| and rhs = 1 + E(A_b B_c).
    ``spec`` may be a shipped ModelSpec or a custom model family.
    """
    require_anticorrelation(spec, a, b, c, seed)
    sums = run_sums(spec, three_setting_pairs(a, b, c), n_trials, seed, threads=threads)
    return three_setting_statistic(*estimate_correlations(sums[-1]))
