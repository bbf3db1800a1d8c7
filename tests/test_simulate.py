"""Experiment runner: determinism, statistics, serialization."""

import errno
import inspect
import json
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bell_lab import cli, errors, models, rng, simulate
from bell_lab.core import Setting, SettingQuad, chsh_pairs
from bell_lab.errors import AnticorrelationViolated, ConfigError, InsufficientData, InvalidSpec, WorkerFailed
from bell_lab.models import (
    FAMILIES,
    BellDeterministic,
    DiscreteSource,
    FactorizableInstrument,
    Station,
    UniformAngleSource,
    check_anticorrelation,
    source_arrays,
    trial_arrays,
)
from bell_lab.simulate import (
    TrialLog,
    bell_statistic,
    chsh_statistic,
    CorrelationEstimate,
    estimate_correlations,
    resolve_threads,
    run_experiment,
    run_pairs,
)

QUAD = SettingQuad.from_degrees(0.0, 45.0, 135.0, 90.0)


def test_single_trial_log():
    log = run_experiment(BellDeterministic(), QUAD, 1, seed=1)
    assert len(log) == 1
    assert np.array_equal(log.t, [0])
    assert log.a[0] in (-1, 1) and log.b[0] in (-1, 1)


def test_same_arguments_identical_logs():
    a = run_experiment(BellDeterministic(), QUAD, 5_000, seed=7)
    b = run_experiment(BellDeterministic(), QUAD, 5_000, seed=7)
    assert a == b


def test_parallelism_invariance():
    spec = FactorizableInstrument(epsilon=0.3)
    one = run_experiment(spec, QUAD, 30_000, seed=9, threads=1)
    four = run_experiment(spec, QUAD, 30_000, seed=9, threads=4)
    assert one == four


def test_threads_env_var(monkeypatch):
    monkeypatch.setenv("BELL_LAB_THREADS", "3")
    assert resolve_threads(None) == 3
    monkeypatch.delenv("BELL_LAB_THREADS")
    assert resolve_threads(None) == 1
    assert resolve_threads(2) == 2
    with pytest.raises(ValueError):
        resolve_threads(0)


def _no_child_left():
    """Every child process of this one has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_thread_count_is_capped_at_core_count(monkeypatch, forks):
    # With three cores, 10**5 workers are three processes: this one and two
    # children. The block size is patched small so that there are more blocks
    # than cores.
    spec = FactorizableInstrument(epsilon=0.3)
    pairs = simulate.experiment_pairs(QUAD)
    serial_log = run_experiment(spec, QUAD, 1_000, seed=5, threads=1)
    serial_sums = simulate.run_sums(spec, pairs, 1_000, 5, 1, [16, 500, 1_000])
    assert forks == []
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(simulate, "_BLOCK_TRIALS", 100)
    assert run_experiment(spec, QUAD, 1_000, seed=5, threads=10**5) == serial_log
    assert len(forks) == 2
    assert np.array_equal(simulate.run_sums(spec, pairs, 1_000, 5, 10**5, [16, 500, 1_000]), serial_sums)
    assert len(forks) == 4
    _no_child_left()


def test_run_shorter_than_a_block_per_worker_is_split_over_the_workers(monkeypatch, forks):
    # 50,000 trials (one --sweep point) fit in one full block; at two workers
    # on two cores they are cut into one block per worker.
    spec = FactorizableInstrument(epsilon=0.3)
    serial = run_experiment(spec, QUAD, 50_000, seed=5, threads=1)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    assert run_experiment(spec, QUAD, 50_000, seed=5, threads=2) == serial
    assert len(forks) == 1
    _no_child_left()


class _WritesItsBlocks(FactorizableInstrument):
    """A family that appends "<process id> <seed> <first trial>" to ``path`` for each
    block it evaluates, and sleeps for 0.1 s in each block of process ``slow``."""

    path = None
    slow = None

    def instrument_arrays(self, seed, t, theta_local, station, pair_id=None):
        if station is Station.S1:
            with open(self.path, "a") as fh:
                fh.write(f"{os.getpid()} {seed} {t[0]}\n")
            if os.getpid() == self.slow:
                time.sleep(0.1)
        return super().instrument_arrays(seed, t, theta_local, station, pair_id)


@pytest.mark.parametrize("block", [simulate._BLOCK_TRIALS, 1_000])
def test_runs_of_a_set_share_one_set_of_workers(monkeypatch, forks, tmp_path, block):
    # The blocks of all the runs are claimed by one set of workers, which the set
    # forks once. At 1,000-trial blocks each run has several, of near-equal
    # length. A run is a range of trial indices, and all but the first start after
    # trial 0. Workers claim blocks as they go: this process, slowed by the family,
    # evaluates fewer blocks than the two children do on average.
    spec = FactorizableInstrument(epsilon=0.3)
    runs = [([(Setting(0.0), Setting(0.1 * k))], range(5 * k, 5 * k + 3_000 + k), 40 + k) for k in range(7)]
    serial = []
    for pairs, trials, seed in runs:  # the run's trials of a serial log
        log = run_pairs(spec, pairs, trials.stop, seed, threads=1)
        serial.append([[len(trials), int(np.sum(log.a[trials.start :] * log.b[trials.start :], dtype=np.int64))]])
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(simulate, "_BLOCK_TRIALS", block)
    monkeypatch.setattr(_WritesItsBlocks, "path", tmp_path / "blocks.txt")
    monkeypatch.setattr(_WritesItsBlocks, "slow", os.getpid())
    got = simulate.run_sums_each(_WritesItsBlocks(epsilon=0.3), runs, threads=4)
    assert len(forks) == 2
    assert [g.tolist() for g in got] == serial
    _no_child_left()
    blocks = [line.split() for line in (tmp_path / "blocks.txt").read_text().splitlines()]
    # ceil(n / size) blocks of one run, 7,007 = ceil(21,021 trials / 3 workers)
    count = {seed: -(-len(trials) // min(block, 7_007)) for _pairs, trials, seed in runs}
    lengths = {  # (seed, first trial) -> trials in that block
        (seed, lo): min(lo + -(-len(trials) // count[seed]), trials.stop) - lo
        for _pairs, trials, seed in runs
        for lo in trials[:: -(-len(trials) // count[seed])]
    }
    # Every block runs exactly once.
    assert sorted((int(seed), int(lo)) for _pid, seed, lo in blocks) == sorted(lengths)
    for seed in count:
        run_lengths = [n for (s, _lo), n in lengths.items() if s == seed]
        assert max(run_lengths) - min(run_lengths) < count[seed]  # only the last is short, and by little
    by_worker = {}
    for pid, _seed, _lo in blocks:
        by_worker[int(pid)] = by_worker.get(int(pid), 0) + 1
    assert set(by_worker) <= {os.getpid(), *forks}
    assert 2 * by_worker.get(os.getpid(), 0) < len(blocks) - by_worker.get(os.getpid(), 0)


def test_runs_of_more_blocks_than_tickets_claim_chunks_of_blocks(monkeypatch, forks):
    # 10,000 trials in blocks of 7 are 1,429 blocks, more than the runner's 1,024
    # tickets: a ticket stands for a chunk of one or two blocks, and a chunk may
    # end in a segment other than the one it starts in.
    spec = FactorizableInstrument(epsilon=0.3)
    pairs = simulate.experiment_pairs(QUAD)
    checkpoints = [16, 4_999, 10_000]
    serial_log = run_experiment(spec, QUAD, 10_000, seed=5, threads=1)
    serial_sums = simulate.run_sums(spec, pairs, 10_000, 5, 1, checkpoints)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(simulate, "_BLOCK_TRIALS", 7)
    assert -(-10_000 // 7) > simulate._TICKETS
    assert np.array_equal(simulate.run_sums(spec, pairs, 10_000, 5, 2, checkpoints), serial_sums)
    assert run_experiment(spec, QUAD, 10_000, seed=5, threads=2) == serial_log
    assert len(forks) == 2
    _no_child_left()


@pytest.mark.parametrize("why", ["a running thread", "a thread that ends before the blocks run", "no os.fork"])
def test_runs_fork_nothing_where_forking_is_unsafe_or_impossible(monkeypatch, forks, why):
    # A thread that ends after run_pairs allocated private columns must not let
    # the runner fork: the children's blocks would never reach the log.
    spec = FactorizableInstrument(epsilon=0.3)
    serial = run_experiment(spec, QUAD, 1_000, seed=5, threads=1)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(simulate, "_BLOCK_TRIALS", 100)
    done = threading.Event()
    waiter = threading.Thread(target=done.wait, args=(60,))
    if why == "no os.fork":
        monkeypatch.delattr(simulate.os, "fork")
    elif why == "a thread that ends before the blocks run":
        counts = iter([2])
        monkeypatch.setattr(simulate.threading, "active_count", lambda: next(counts, 1))
    else:
        waiter.start()
    try:
        assert run_experiment(spec, QUAD, 1_000, seed=5, threads=2) == serial
    finally:
        done.set()
        if waiter.is_alive():
            waiter.join(timeout=60)
    assert forks == []


class _TwoArgumentError(Exception):
    """An error that pickle cannot rebuild: its __init__ takes more than its message."""

    def __init__(self, what: str, where: str):
        super().__init__(f"{what} in {where}")


# The error that _FailsInAChild raises, by the name of its class.
_CHILD_ERRORS = {
    "InvalidSpec": lambda: InvalidSpec(f"a block failed in process {os.getpid()}"),
    "InsufficientData": lambda: InsufficientData(1, 1),
    "AnticorrelationViolated": lambda: AnticorrelationViolated(3, 1_000),
    "_TwoArgumentError": lambda: _TwoArgumentError("a block failed", "a child"),
}


class _FailsInAChild(FactorizableInstrument):
    """A family whose instrument law fails in every block that a process other than
    ``spared`` evaluates: it raises an error of _CHILD_ERRORS, or is killed by SIGKILL.
    The spared process sleeps in each of its blocks, so that a child claims a block
    before the spared process has claimed them all. With ``spared`` None, every
    block fails, as it must in a run at one worker."""

    how = "InvalidSpec"
    spared = None  # the test's process in a forked run

    def instrument_arrays(self, seed, t, theta_local, station, pair_id=None):
        if os.getpid() == self.spared:
            if station is Station.S1:
                time.sleep(0.05)
        elif self.how != "sigkill":
            raise _CHILD_ERRORS[self.how]()
        else:
            assert self.spared is not None, "the test's process would kill itself"
            os.kill(os.getpid(), signal.SIGKILL)
        return super().instrument_arrays(seed, t, theta_local, station, pair_id)


def _simulate(monkeypatch, tmp_path, capsys, threads: str) -> tuple[int, str]:
    """Exit code and stderr of a 1,000-trial ``simulate`` of _FailsInAChild, which spares
    this process at two workers and fails in it at one."""
    monkeypatch.setitem(FAMILIES, "factorizable_instrument", _FailsInAChild)
    monkeypatch.setattr(_FailsInAChild, "spared", os.getpid() if threads != "1" else None)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.kind = factorizable_instrument\nmodel.epsilon = 0.3\nquad.a_deg = 0\nquad.b_deg = 45\n"
                   "quad.c_deg = 135\nquad.d_deg = 90\nn_trials = 1000\nseed = 5\n")
    capsys.readouterr()
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--threads", threads])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("how", ["InvalidSpec", "InsufficientData", "AnticorrelationViolated", "sigkill"])
def test_a_failing_worker_ends_the_run_with_an_error(monkeypatch, forks, tmp_path, capsys, how):
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(simulate, "_BLOCK_TRIALS", 100)
    monkeypatch.setattr(_FailsInAChild, "how", how)
    spec = _FailsInAChild(epsilon=0.3)
    pairs = simulate.experiment_pairs(QUAD)
    if how == "sigkill":
        monkeypatch.setattr(_FailsInAChild, "spared", os.getpid())
        with pytest.raises(WorkerFailed, match=r"^a worker process ended without its result \(killed by SIGKILL\)$"):
            run_experiment(spec, QUAD, 1_000, seed=5, threads=2)
    else:
        # A child's error is raised here with its own type, message and attributes.
        expected = _CHILD_ERRORS[how]()
        for threads in (2, 1):
            monkeypatch.setattr(_FailsInAChild, "spared", os.getpid() if threads == 2 else None)
            match = r"^a block failed in process \d+$" if how == "InvalidSpec" else None
            with pytest.raises(type(expected), match=match) as exc:
                simulate.run_sums(spec, pairs, 1_000, 5, threads=threads)
            if how == "InvalidSpec":  # raised in the child at two workers, here at one
                assert (int(str(exc.value).split()[-1]) == os.getpid()) == (threads == 1)
            else:
                assert (str(exc.value), vars(exc.value)) == (str(expected), vars(expected))
    assert len(forks) == 1
    _no_child_left()

    # The command line ends with the exit code and the whole stderr of a run at one worker.
    for threads in ("2", "1") if how != "sigkill" else ("2",):
        code, err = _simulate(monkeypatch, tmp_path, capsys, threads)
        if how == "sigkill":
            assert code == 2
            assert err == "worker error: a worker process ended without its result (killed by SIGKILL)\n"
        elif how == "InvalidSpec":
            assert code == 3 and re.fullmatch(r"model error: a block failed in process \d+\n", err)
        elif how == "InsufficientData":
            assert (code, err) == (3, f"model error: {expected}\n")
        else:
            note = ("(the three-setting inequality is derived assuming perfect anticorrelation; "
                    "a model that violates it at equal settings has no such statistic)")
            assert (code, err) == (3, f"model error: {expected}\n{note}\n")
    _no_child_left()


def test_an_error_that_cannot_cross_the_pipe_ends_the_run_with_a_worker_error(monkeypatch, forks, tmp_path, capsys):
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(simulate, "_BLOCK_TRIALS", 100)
    monkeypatch.setattr(_FailsInAChild, "how", "_TwoArgumentError")
    monkeypatch.setattr(_FailsInAChild, "spared", os.getpid())
    pairs = simulate.experiment_pairs(QUAD)
    sent = r"^a worker process could not send _TwoArgumentError: a block failed in a child \(.+\)$"
    with pytest.raises(WorkerFailed, match=sent):
        simulate.run_sums(_FailsInAChild(epsilon=0.3), pairs, 1_000, 5, threads=2)
    assert len(forks) == 1
    code, err = _simulate(monkeypatch, tmp_path, capsys, "2")
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("worker error: a worker process could not send _TwoArgumentError: ")
    _no_child_left()


def test_a_worker_that_cannot_start_ends_the_run_with_a_worker_error(monkeypatch, forks, tmp_path, capsys):
    # Of the two children of a three-worker run, the first starts and the second
    # cannot: the first is killed and reaped. Later forks fail at once, so the
    # test starts one real child.
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
    counting_fork, real = simulate.os.fork, iter([True])
    kills, real_kill = [], os.kill

    def fork_once():
        if next(real, False):
            return counting_fork()
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def recording_kill(pid, sig):
        kills.append((pid, sig))
        real_kill(pid, sig)

    monkeypatch.setattr(simulate.os, "fork", fork_once)
    monkeypatch.setattr(simulate.os, "kill", recording_kill)
    spec = FactorizableInstrument(epsilon=0.3)
    with pytest.raises(WorkerFailed, match=r"^cannot start a worker process: \[Errno \d+\] "):
        simulate.run_sums(spec, simulate.experiment_pairs(QUAD), 100_000, 5, threads=3)
    assert len(forks) == 1 and kills == [(forks[0], signal.SIGKILL)]
    _no_child_left()

    code, err = _simulate(monkeypatch, tmp_path, capsys, "3")  # its first fork fails: no block runs
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("worker error: cannot start a worker process: ")
    assert len(forks) == 1
    _no_child_left()


# One instance of each class of bell_lab.errors whose __init__ takes more than a message.
_ERROR_EXAMPLES = {
    InsufficientData: lambda: InsufficientData(2, 1),
    AnticorrelationViolated: lambda: AnticorrelationViolated(3, 1_000),
    ConfigError: lambda: ConfigError("unknown config key", key="model.x", line=4),
}


@pytest.mark.parametrize(
    "cls", [cls for _name, cls in inspect.getmembers(errors, inspect.isclass) if cls.__module__ == errors.__name__]
)
def test_every_error_crosses_the_pipe_unchanged(cls):
    # A forked worker sends its error to the parent pickled.
    error = _ERROR_EXAMPLES.get(cls, lambda: cls(f"an example {cls.__name__}"))()
    back = pickle.loads(pickle.dumps(error))
    assert (type(back), str(back), vars(back)) == (cls, str(error), vars(error))


def test_a_failing_child_ends_the_run_before_the_parent_share_is_done(monkeypatch):
    # The run's 2,000 blocks of 100 trials take the parent at least 2 ms each; the
    # child fails in its first block, once the parent has begun its own first block
    # (a byte through a pipe), and the parent notices before its next block.
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(simulate, "_BLOCK_TRIALS", 100)
    parent, parent_blocks = os.getpid(), []
    begun_read, begun_write = os.pipe()

    class SlowParentFailingChild(FactorizableInstrument):
        def instrument_arrays(self, seed, t, theta_local, station, pair_id=None):
            if os.getpid() == parent and station is Station.S1:
                parent_blocks.append(int(t[0]))
                if len(parent_blocks) == 1:
                    os.write(begun_write, b"x")
                time.sleep(0.002)
            elif os.getpid() != parent:
                os.read(begun_read, 1)
                raise InvalidSpec("a block failed in a child")
            return super().instrument_arrays(seed, t, theta_local, station, pair_id)

    try:
        with pytest.raises(InvalidSpec, match="a block failed in a child"):
            simulate.run_sums(SlowParentFailingChild(epsilon=0.3), simulate.experiment_pairs(QUAD), 200_000, 5, 2)
    finally:
        os.close(begun_read)
        os.close(begun_write)
    assert 0 < len(parent_blocks) < 500
    _no_child_left()


def _running(pid: int) -> bool:
    """Process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the kernel kills the children on Linux only")
def test_workers_end_with_a_parent_ended_by_sigterm(tmp_path):
    # SIGTERM ends the parent before its finally clause can kill the children.
    script = (
        "import os, sys, time\n"
        "from bell_lab import simulate\n"
        "def share(w, poll):\n"
        "    if w:\n"
        f"        open({str(tmp_path / 'child')!r}, 'w').write(str(os.getpid()))\n"
        "    time.sleep(60)\n"
        "simulate._fork_shares(share, 2)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    parent = subprocess.Popen([sys.executable, "-c", script], env=env)
    try:
        deadline = time.monotonic() + 30
        while not (tmp_path / "child").exists() or not (tmp_path / "child").read_text():
            assert time.monotonic() < deadline and parent.poll() is None
            time.sleep(0.05)
        child = int((tmp_path / "child").read_text())
        assert _running(child)
    finally:
        parent.terminate()
        parent.wait(timeout=30)
    deadline = time.monotonic() + 10
    while _running(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = _running(child)
    if left:
        os.kill(child, signal.SIGKILL)
    assert not left


def test_one_pair_runs_equal_runs_that_draw_the_die():
    # A one-pair run's pair_id is 0 for every trial without drawing the die; the
    # drawn die is the floor formula, not integers_below's shortcut for one face.
    pair = (Setting(0.0), Setting(0.9))
    idx = np.arange(5_000, dtype=np.uint64)
    for family in FAMILIES.values():
        pid = np.minimum((rng.uniforms(11, "die", idx) * 1).astype(np.int64), 0)
        theta1, theta2 = np.full(len(idx), pair[0].angle)[pid], np.full(len(idx), pair[1].angle)[pid]
        _lam, lam_angle = source_arrays(family(), 11, idx)
        _ip1, _ip2, a, b = trial_arrays(family(), 11, idx, lam_angle, theta1, theta2, pid)
        drawn = [[len(idx), int(np.sum(a * b, dtype=np.int64))]]
        assert simulate.run_sums(family(), [pair], len(idx), 11, threads=1)[-1].tolist() == drawn, family.name


def test_a_check_block_computes_three_hash_bases(monkeypatch):
    # check's two experiments share each block's die and source words, and the
    # block's trial indices are read-only: the four "ttac.flip" draws (two stations
    # of two experiments) share one base, so a block computes the die's, the
    # source's and the flips' bases, where it computed six when each draw hashed
    # its own.
    computed = []
    real_base = rng._base

    def counting_base(seed, label, idx):
        computed.append(label)
        return real_base(seed, label, idx)

    spec = FAMILIES["time_tagged_anticorrelated"]()
    three = simulate.three_setting_pairs(QUAD.a, QUAD.b, QUAD.c)
    runs = [(pairs, range(3 * simulate._BLOCK_TRIALS), 7) for pairs in (three, simulate.experiment_pairs(QUAD))]
    expected = simulate.run_sums_each(spec, runs, threads=1)
    monkeypatch.setattr(rng, "_base", counting_base)
    assert [s.tolist() for s in simulate.run_sums_each(spec, runs, threads=1)] == [s.tolist() for s in expected]
    assert computed == ["die", "source", "ttac.flip"] * 3


class _WritesItsTicks(FactorizableInstrument):
    """A family whose instrument law writes its ticks in place."""

    def instrument_arrays(self, seed, t, theta_local, station, pair_id=None):
        t += 0
        return super().instrument_arrays(seed, t, theta_local, station, pair_id)


def test_a_law_that_writes_its_indices_gets_a_value_error():
    # The runner's and the pilot's index arrays are read-only, so a law cannot change
    # the indices whose hash base rng.hash_words keeps for the next draw.
    spec = _WritesItsTicks(epsilon=0.3)
    with pytest.raises(ValueError, match="read-only"):
        simulate.run_sums(spec, simulate.experiment_pairs(QUAD), 1_000, 5, threads=1)
    with pytest.raises(ValueError, match="read-only"):
        check_anticorrelation(spec, [QUAD.a, QUAD.b], 100, 5)


def test_block_buffered_stdout_is_written_once(tmp_path):
    # A child leaves by os._exit, so it never flushes the copy of the parent's
    # stdout buffer that it was forked with.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.kind = time_tagged_anticorrelated\nquad.a_deg = 0\nquad.b_deg = 45\nquad.c_deg = 135\n"
                   "quad.d_deg = 90\nn_trials = 40000\nseed = 5\n")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "BELL_LAB_THREADS")}
    env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
    out = tmp_path / "stdout.txt"
    with open(out, "wb") as fh:
        argv = [sys.executable, "-m", "bell_lab.cli", "check", "--config", str(cfg), "--threads", "2"]
        proc = subprocess.run(argv, env=env, stdout=fh, stderr=subprocess.PIPE, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "bell-lab check: time_tagged_anticorrelated"
    assert lines.count(lines[0]) == 1 and len(lines) == 3


_FAULTS_SCRIPT = """
import json, resource
from bell_lab import simulate
from bell_lab.core import SettingQuad
from bell_lab.models import FAMILIES

quad = SettingQuad.from_degrees(0, 45, 135, 90)
three = [(quad.a, quad.b), (quad.a, quad.c), (quad.b, quad.c)]
n = 10**6

def faults(spec, pairs):
    simulate.run_sums_each(spec, [(p, range(10**5), 5) for p in pairs], 1)  # the heap's first growth
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    simulate.run_sums_each(spec, [(p, range(n), 7) for p in pairs], 1)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

found = {name: faults(family(), [simulate.experiment_pairs(quad)]) for name, family in FAMILIES.items()}
found["check"] = faults(FAMILIES["time_tagged_anticorrelated"](), [three, simulate.experiment_pairs(quad)])
print(json.dumps({"blocks": -(-n // simulate._BLOCK_TRIALS), "faults": found}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
def test_blocks_fault_in_no_fresh_pages():
    # A block's temporaries stay under the trim threshold that the runner raises once,
    # so its blocks reuse the heap's pages, each family's and check's shared pair of
    # runs alike. Blocks of 2**15 trials exceed it and fault in about 500 pages each.
    env = {k: v for k, v in os.environ.items() if k != "BELL_LAB_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert all(f <= 8 * result["blocks"] for f in result["faults"].values()), result


@pytest.mark.parametrize("experiment", ["factorizable_instrument", "check"])
def test_a_block_holds_under_100_bytes_a_trial(experiment):
    # The blocks trade memory for speed: at 2**14 trials a block's traced peak was 84 B a
    # trial. A one-worker run evaluates one block at a time, after a warm-up run.
    three = [(QUAD.a, QUAD.b), (QUAD.a, QUAD.c), (QUAD.b, QUAD.c)]
    if experiment == "check":  # its shared pair of runs
        spec, pair_lists = FAMILIES["time_tagged_anticorrelated"](), [three, simulate.experiment_pairs(QUAD)]
    else:
        spec, pair_lists = FactorizableInstrument(epsilon=0.25), [simulate.experiment_pairs(QUAD)]
    runs = [(pairs, range(10**5), 7) for pairs in pair_lists]
    simulate.run_sums_each(spec, runs, 1)
    tracemalloc.start()
    try:
        simulate.run_sums_each(spec, runs, 1)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * simulate._BLOCK_TRIALS, f"{peak / simulate._BLOCK_TRIALS:.1f} B a block trial"


def test_pair_choice_uniformity():
    log = run_experiment(BellDeterministic(), QUAD, 1_000_000, seed=13)
    counts = np.bincount(log.pair_id, minlength=4)
    n = len(log)
    sd = math.sqrt(n * 0.25 * 0.75)
    for k in range(4):
        assert abs(counts[k] - n / 4) < 4 * sd, counts


def test_trial_records_match_pair_settings():
    log = run_experiment(BellDeterministic(), QUAD, 200, seed=5)
    pairs = chsh_pairs(QUAD)
    assert np.array_equal(log.setting_1, [pairs[p][0].angle for p in log.pair_id])
    assert np.array_equal(log.setting_2, [pairs[p][1].angle for p in log.pair_id])
    assert np.array_equal(log.t, np.arange(len(log)))


def test_n_trials_validation():
    with pytest.raises(InvalidSpec):
        run_experiment(BellDeterministic(), QUAD, 0, seed=1)


# --- estimates ---------------------------------------------------------------


def test_equal_settings_estimate_is_exactly_minus_one():
    log = run_pairs(BellDeterministic(), [(Setting(0.7), Setting(0.7))], 5_000, seed=3)
    (est,) = estimate_correlations(log)
    assert est.mean == -1.0
    assert est.std_error == 0.0
    assert est.count == 5_000


def test_calibration_estimate_within_band():
    theta = math.pi / 4
    log = run_pairs(BellDeterministic(), [(Setting(0.0), Setting(theta))], 200_000, seed=17)
    (est,) = estimate_correlations(log)
    expected = -1.0 + 2.0 * theta / math.pi
    assert abs(est.mean - expected) < 4 * est.std_error


def test_insufficient_data():
    # hand-built log: all trials on pair 0, four pairs declared
    n = 10
    log = TrialLog(
        t=np.arange(n),
        pair_id=np.zeros(n, dtype=np.int8),
        setting_1=np.zeros(n),
        setting_2=np.zeros(n),
        lam=np.zeros(n, dtype=np.int64),
        ip_1=np.zeros(n),
        ip_2=np.zeros(n),
        a=np.ones(n, dtype=np.int8),
        b=np.ones(n, dtype=np.int8),
        n_pairs=4,
    )
    with pytest.raises(InsufficientData) as exc:
        estimate_correlations(log)
    assert exc.value.pair_id == 1


def _closed_form(pid: int, products: np.ndarray) -> CorrelationEstimate:
    """The reference: s / n and sqrt((n^2 - s^2) / (n^2 (n - 1))) of the +/-1 products,
    with n and s counted by numpy."""
    n, s = len(products), int(np.sum(products, dtype=np.int64))
    return CorrelationEstimate(pid, s / n, math.sqrt((n * n - s * s) / (n * n * (n - 1))), n)


def _hex(estimates) -> list[tuple]:
    return [(e.pair_id, e.mean.hex(), e.std_error.hex(), e.count) for e in estimates]


def _one_pair_log(products: np.ndarray) -> TrialLog:
    """A hand-built one-pair log whose trials have these outcome products A*B."""
    n = len(products)
    zeros = np.zeros(n)
    return TrialLog(
        t=np.arange(n), pair_id=np.zeros(n, dtype=np.int8), setting_1=zeros, setting_2=zeros,
        lam=np.zeros(n, dtype=np.int64), ip_1=zeros, ip_2=zeros, a=products, b=np.ones(n, dtype=np.int8), n_pairs=1,
    )


@pytest.mark.parametrize(
    "lam, dtype, kind",
    [
        (np.arange(3, dtype=np.int32), np.int64, "discrete"),
        (np.arange(3, dtype=np.uint8), np.int64, "discrete"),
        ([0, 1, 2], np.int64, "discrete"),
        (np.zeros(3, dtype=np.float32), np.float64, "angle"),
        ([0.5, 1.7, 2.2], np.float64, "angle"),
    ],
    ids=["int32", "uint8", "int-list", "float32", "float-list"],
)
def test_trial_log_kind_follows_the_lambda_dtype(lam, dtype, kind):
    log = replace(_one_pair_log(np.ones(3, dtype=np.int8)), lam=lam)
    assert log.lam.dtype == dtype and log.lambda_kind == kind
    assert np.array_equal(log.lam, lam)


@pytest.mark.parametrize("dtype", [np.bool_, np.complex128, np.uint64, np.str_])
def test_trial_log_rejects_a_lambda_that_is_neither_int64_nor_float(dtype):
    # a uint64 above 2**63 - 1 would wrap to a negative int64
    with pytest.raises(ValueError, match="lambda must hold integers that fit int64, or floats"):
        replace(_one_pair_log(np.ones(3, dtype=np.int8)), lam=np.zeros(3, dtype=dtype))


def test_trial_log_rejects_columns_of_unequal_length():
    log = _one_pair_log(np.ones(3, dtype=np.int8))
    with pytest.raises(ValueError, match="^column pair_id has 2 rows, t has 3$"):
        replace(log, pair_id=log.pair_id[:2], ip_2=log.ip_2[:1])


@settings(max_examples=80, deadline=None)
@given(
    length=st.sampled_from([*range(2, 10), 127, 128, 129, 2**16 - 1, 2**16 + 1]),
    plus_fraction=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimate_is_numpy_mean_and_std_bit_for_bit(length, plus_fraction, seed):
    # The mean is numpy's mean bit for bit; the standard error is the closed
    # form's, which is within a few ulps of numpy's std(ddof=1) / sqrt(n).
    # plus_fraction 0 and 1 give arrays whose entries are all equal.
    draw = np.random.default_rng(seed).random(length)
    products = np.where(draw < plus_fraction, 1, -1).astype(np.int8)
    (got,) = estimate_correlations(_one_pair_log(products))
    assert _hex([got]) == _hex([_closed_form(0, products)])
    p = products.astype(np.float64)
    assert got.mean.hex() == float(p.mean()).hex()
    assert got.std_error == pytest.approx(float(p.std(ddof=1) / math.sqrt(length)), rel=1e-13, abs=0.0)


def _is_nearest(x: float, exact: Fraction) -> bool:
    """No double next to x is closer to ``exact`` than x is."""
    err = abs(Fraction(x) - exact)
    return all(abs(Fraction(math.nextafter(x, toward)) - exact) >= err for toward in (-math.inf, math.inf))


def _is_nearest_root(r: float, v: Fraction) -> bool:
    """No double next to r >= 0 is closer to sqrt(v) than r is: sqrt(v) lies
    between the midpoints of r and its neighbours, compared by squaring."""
    below = (Fraction(r) + Fraction(math.nextafter(r, -math.inf))) / 2
    above = (Fraction(r) + Fraction(math.nextafter(r, math.inf))) / 2
    return r >= 0.0 and (below <= 0 or below * below <= v) and v <= above * above


@settings(max_examples=300, deadline=None)
@given(count=st.integers(2, 10**12), data=st.data())
def test_closed_form_steps_are_correctly_rounded(count, data):
    # s = (number of +1) - (number of -1) has the parity of n.
    total = 2 * data.draw(st.integers(0, count), label="plus") - count
    (est,) = estimate_correlations(np.array([[count, total]], dtype=np.int64))
    assert est.count == count
    assert _is_nearest(est.mean, Fraction(total, count))
    quotient = Fraction(count * count - total * total, count * count * (count - 1))
    rounded = float(quotient)
    assert _is_nearest(rounded, quotient)
    assert _is_nearest_root(est.std_error, Fraction(rounded))
    assert est.std_error == math.sqrt(rounded)


@pytest.mark.parametrize("block", [7, 64, simulate._BLOCK_TRIALS])
def test_pair_sums_of_a_run_are_its_prefix_sums(monkeypatch, block):
    # Small blocks put several checkpoints inside one block and others on block edges.
    # A checkpoint of 0, a repeated one and those past the last trial make empty
    # segments, which add zeros and are never run.
    monkeypatch.setattr(simulate, "_BLOCK_TRIALS", block)
    log = run_experiment(FactorizableInstrument(epsilon=0.5), QUAD, 1_000, seed=47)
    products = log.a * log.b
    lengths = [0, 4, 8, 16, 16, 64, 100, 128, 999, 1_000, 1_000, 1_500, 2_000]
    expected = [
        [[np.count_nonzero(log.pair_id[:n] == pid), int(products[:n][log.pair_id[:n] == pid].sum())]
         for pid in range(4)]
        for n in lengths
    ]
    run_blocks, runs = simulate._run_blocks, []

    def recorded(spec, block_runs, workers, reduce):
        runs.extend(trials for _pairs, trials, _seed in block_runs)
        return run_blocks(spec, block_runs, workers, reduce)

    monkeypatch.setattr(simulate, "_run_blocks", recorded)
    for threads in (1, 2):
        sums = simulate.run_sums(FactorizableInstrument(epsilon=0.5), simulate.experiment_pairs(QUAD), 1_000, 47,
                                 threads, lengths)
        assert sums.dtype == np.int64 and sums.tolist() == expected
    assert log.pair_sums(lengths).tolist() == expected
    segments = [range(0, 4), range(4, 8), range(8, 16), range(16, 64), range(64, 100), range(100, 128),
                range(128, 999), range(999, 1_000)]
    assert runs == segments * 2


def test_prefix_correlations_are_numpy_estimates_of_prefix_slices(monkeypatch):
    # The estimates at each checkpoint are the closed form on that prefix slice;
    # a prefix with fewer than 2 trials of some pair has none.
    monkeypatch.setattr(simulate, "_BLOCK_TRIALS", 64)
    log = run_experiment(FactorizableInstrument(epsilon=0.5), QUAD, 1_000, seed=47)
    lengths = [4, 8, 16, 100, 128, 999, 1_000]
    sums = simulate.run_sums(FactorizableInstrument(epsilon=0.5), simulate.experiment_pairs(QUAD), 1_000, 47, 2,
                             lengths)
    expected, got = [], []
    for n, prefix in zip(lengths, sums):
        pair_id, products = log.pair_id[:n], log.a[:n] * log.b[:n]
        if min(np.count_nonzero(pair_id == pid) for pid in range(4)) >= 2:
            expected.append((n, _hex(_closed_form(pid, products[pair_id == pid]) for pid in range(4))))
        try:
            got.append((n, _hex(estimate_correlations(prefix))))
        except InsufficientData:
            continue
    assert got == expected
    assert got[0][0] > lengths[0]  # the shortest prefix lacks a pair, so it is left out


def test_chsh_statistic_algebra():
    def est(pid, mean):
        return CorrelationEstimate(pair_id=pid, mean=mean, std_error=0.1, count=100)

    stat = chsh_statistic([est(0, 1.0), est(1, -1.0), est(2, -1.0), est(3, -1.0)])
    assert stat.value == 4.0
    assert stat.std_error == pytest.approx(0.2, abs=1e-15)

    stat0 = chsh_statistic([est(i, 0.0) for i in range(4)])
    assert stat0.value == 0.0

    with pytest.raises(ValueError):
        chsh_statistic([est(0, 0.0)])


def test_chsh_on_canonical_quad_within_band():
    spec = BellDeterministic()
    log = run_experiment(spec, QUAD, 200_000, seed=23)
    estimates = estimate_correlations(log)
    # closed forms at relative angles (135, 45, 45, 45) degrees
    for est, expected in zip(estimates, (0.5, -0.5, -0.5, -0.5)):
        assert abs(est.mean - expected) < 4 * est.std_error, est
    stat = chsh_statistic(estimates)
    assert abs(stat.value - 2.0) < 4 * stat.std_error


@pytest.mark.parametrize(
    "spec",
    [BellDeterministic(), FactorizableInstrument(epsilon=0.3), BellDeterministic(DiscreteSource.uniform(16))],
    ids=["sign-model", "noisy", "discrete"],
)
@pytest.mark.parametrize("quad_deg", [(0, 45, 135, 90), (0, 45, 10, 90)], ids=["saturating", "mixed"])
def test_statistical_bound_for_factorizable_models(spec, quad_deg):
    # statistical form of the local bound: value <= 2 + 4 sigma at N = 1e6
    quad = SettingQuad.from_degrees(*quad_deg)
    log = run_experiment(spec, quad, 1_000_000, seed=101)
    stat = chsh_statistic(estimate_correlations(log))
    assert stat.value <= 2.0 + 4 * stat.std_error


# --- three-setting inequality ---------------------------------------------------


def test_bell_statistic_collapses_at_equal_settings():
    s = Setting(0.4)
    stat = bell_statistic(BellDeterministic(), s, s, s, 1_000, seed=5)
    assert stat.lhs == 0.0
    assert stat.rhs == 0.0
    assert stat.margin == 0.0


def test_bell_statistic_holds_for_deterministic_model():
    # angles (0, pi/3, 2pi/3): the closed forms make lhs = rhs = 2/3, margin 0
    stat = bell_statistic(
        BellDeterministic(), Setting(0.0), Setting(math.pi / 3), Setting(2 * math.pi / 3), 200_000, seed=29
    )
    assert stat.margin >= -4 * stat.std_error
    assert stat.lhs == pytest.approx(2 / 3, abs=4 * stat.std_error)
    assert stat.rhs == pytest.approx(2 / 3, abs=4 * stat.std_error)


def test_bell_statistic_refuses_without_anticorrelation():
    with pytest.raises(AnticorrelationViolated):
        bell_statistic(
            FactorizableInstrument(epsilon=0.5), Setting(0.0), Setting(1.0), Setting(2.0), 1_000, seed=31
        )


# --- serialization ----------------------------------------------------------------


@pytest.mark.parametrize("source", [UniformAngleSource(), DiscreteSource.uniform(16)], ids=["angle", "discrete"])
def test_csv_round_trip_bit_identical(tmp_path, source):
    spec = BellDeterministic(source)
    # Setting a = -0.0 and d = 0.0 put equal values with different bits in one
    # column: each must keep its own text.
    for quad in (QUAD, SettingQuad.from_degrees(-0.0, 45.0, 135.0, 0.0)):
        # two full blocks of the writer and a partial third
        log = run_experiment(spec, quad, 2 * simulate._CSV_BLOCK_ROWS + 3, seed=37)
        path = tmp_path / "log.csv"
        log.to_csv(path)
        again = TrialLog.from_csv(path)
        assert again == log
        assert again.lambda_kind == log.lambda_kind
        assert again.lam.dtype == log.lam.dtype == (np.int64 if isinstance(source, DiscreteSource) else np.float64)
        for name, (_header, dtype) in simulate._COLUMNS.items():
            bits = f"u{dtype.itemsize}"
            assert np.array_equal(getattr(again, name).view(bits), getattr(log, name).view(bits)), name
        # and the bytes themselves are stable under re-serialization
        path2 = tmp_path / "log2.csv"
        again.to_csv(path2)
        assert path.read_bytes() == path2.read_bytes()
    assert set(np.signbit(log.setting_1).tolist()) == {True, False}
    cells = [line.split(",")[simulate.CSV_COLUMNS.index("setting_1")] for line in path.read_text().splitlines()[1:]]
    assert cells == [str(v) for v in log.setting_1.tolist()]


def test_csv_header_frozen(tmp_path):
    log = run_experiment(BellDeterministic(), QUAD, 2, seed=1)
    path = tmp_path / "log.csv"
    log.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "index,t,pair_id,setting_1,setting_2,lambda,ip_1,ip_2,A,B"


def test_csv_writes_a_t_that_is_not_the_row_index(tmp_path):
    # A runner's log has t = index, and the writer then reuses the index texts for t.
    # Here t is the index in the first block only: off by one in the last row of the
    # second, and reversed and beyond 2**32 in the partial third.
    block = simulate._CSV_BLOCK_ROWS
    log = run_experiment(BellDeterministic(DISCRETE_4), QUAD, 2 * block + 3, seed=3)
    t = np.arange(len(log), dtype=np.int64)
    t[2 * block - 1] += 1
    t[2 * block :] = [2**40 + 2, 2**40 + 1, 2**40]
    moved = replace(log, t=t)
    path = tmp_path / "log.csv"
    moved.to_csv(path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == [str(i) for i in range(len(log))]
    assert [row[1] for row in rows] == [str(v) for v in t.tolist()]
    assert TrialLog.from_csv(path) == moved


def test_csv_reload_keeps_four_pairs_when_one_is_never_drawn(tmp_path):
    # pair 3 is never drawn in these eight trials (pair counts 2, 3, 3, 0)
    log = run_experiment(BellDeterministic(DiscreteSource.uniform(4)), QUAD, 8, seed=16)
    assert np.bincount(log.pair_id, minlength=4).tolist() == [2, 3, 3, 0]
    path = tmp_path / "log.csv"
    log.to_csv(path)
    again = TrialLog.from_csv(path)
    assert again.n_pairs == 4
    assert again == log
    assert again != replace(log, n_pairs=3)
    with pytest.raises(InsufficientData) as exc:
        estimate_correlations(again)
    assert exc.value.pair_id == 3


DISCRETE_4 = DiscreteSource.uniform(4)
ANGLE = UniformAngleSource()


def _cell(header, text):
    k = simulate.CSV_COLUMNS.index(header)
    return lambda cells: [*cells[:k], text, *cells[k + 1 :]]


@pytest.mark.parametrize(
    "line, edit, source",
    [
        (2, lambda cells: cells[:-1], None),
        (4, lambda cells: cells[:-1], None),
        (2, lambda cells: ["7", *cells[1:]], None),
        (3, lambda cells: [*cells[:2], "9", *cells[3:]], None),
        (3, lambda cells: [*cells[:8], "3", cells[9]], None),
        (2, lambda cells: [*cells[:9], "0"], None),
        (3, lambda cells: [*cells[:2], "1.5", *cells[3:]], None),
        # a discrete log's lambda is written through int64: only whole numbers >= 0 round-trip
        (3, _cell("lambda", "2.5"), DISCRETE_4),
        (2, _cell("lambda", "nan"), DISCRETE_4),
        (4, _cell("lambda", "-1"), DISCRETE_4),
        (5, _cell("lambda", "inf"), DISCRETE_4),
        (3, _cell("lambda", "100000000000000000000"), DISCRETE_4),
        # parsed as float64, 2**53 + 1 would load as 2**53
        (3, _cell("lambda", str(2**53 + 1)), DISCRETE_4),
        (4, _cell("lambda", str(2**53)), DISCRETE_4),
        # an angle log's float columns must be finite (line 2 would read "nan" as a discrete lambda)
        (3, _cell("lambda", "nan"), ANGLE),
        (4, _cell("setting_1", "inf"), ANGLE),
        (3, _cell("setting_2", "nan"), ANGLE),
        (2, _cell("ip_1", "-inf"), ANGLE),
        (5, _cell("ip_2", "nan"), ANGLE),
    ],
    ids=[
        "short-first-row", "short-later-row", "index-7", "pair-id-9", "a-3", "b-0", "pair-id-1.5",
        "discrete-lambda-2.5", "discrete-lambda-nan-first", "discrete-lambda-negative",
        "discrete-lambda-inf", "discrete-lambda-1e20", "discrete-lambda-2**53+1", "discrete-lambda-2**53",
        "angle-lambda-nan", "setting-1-inf", "setting-2-nan", "ip-1-minus-inf", "ip-2-nan",
    ],
)
def test_csv_reader_rejects_malformed_rows(tmp_path, line, edit, source):
    path = tmp_path / "log.csv"
    run_experiment(BellDeterministic(source or ANGLE), QUAD, 5, seed=1).to_csv(path)
    lines = path.read_text().splitlines()
    lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        TrialLog.from_csv(path)
    if source is DISCRETE_4:
        assert str(exc.value).startswith(f"trial log line {line}: a discrete lambda")
    if source is ANGLE:
        assert str(exc.value).startswith(f"trial log line {line}: ") and str(exc.value).endswith(" must be finite")


def test_csv_largest_discrete_lambda_round_trips(tmp_path):
    path = tmp_path / "log.csv"
    run_experiment(BellDeterministic(DISCRETE_4), QUAD, 5, seed=1).to_csv(path)
    lines = path.read_text().splitlines()
    lines[2] = ",".join(_cell("lambda", str(2**53 - 1))(lines[2].split(",")))
    path.write_text("\n".join(lines) + "\n")
    log = TrialLog.from_csv(path)
    assert log.lam[1] == 2**53 - 1 and log.lambda_kind == "discrete"
    again = tmp_path / "again.csv"
    log.to_csv(again)
    assert again.read_bytes() == path.read_bytes()


class _LambdaAtTrial2:
    """A custom family: bell_deterministic over four values, whose source law returns
    ``lam`` as trial 2's lambda."""

    def __init__(self, lam):
        self.spec, self.lam = BellDeterministic(DISCRETE_4), lam

    def source_arrays(self, seed, indices):
        index, angle = self.spec.source_arrays(seed, indices)
        return np.where(indices == 2, self.lam, index), angle

    def instrument_arrays(self, *args, **kwargs):
        return self.spec.instrument_arrays(*args, **kwargs)

    def outcome_arrays(self, *args):
        return self.spec.outcome_arrays(*args)


@pytest.mark.parametrize("lam", [-1, 2**53], ids=["negative", "2**53"])
def test_csv_writer_refuses_a_discrete_lambda_the_reader_refuses(tmp_path, lam):
    log = run_experiment(_LambdaAtTrial2(lam), QUAD, 5, seed=1)
    assert log.lambda_kind == "discrete" and log.lam[2] == lam
    path = tmp_path / "log.csv"
    with pytest.raises(ValueError, match=re.escape("trial log line 4: a discrete lambda must be a whole number")):
        log.to_csv(path)
    assert not path.exists()
    # the largest lambda the reader takes is written
    run_experiment(_LambdaAtTrial2(2**53 - 1), QUAD, 5, seed=1).to_csv(path)
    assert TrialLog.from_csv(path).lam[2] == 2**53 - 1


class _OutcomeZero(BellDeterministic):
    """A custom family whose outcome law returns 0, which is not an outcome."""

    def outcome_arrays(self, station, theta_local, lam_angle, ip):
        return np.zeros(np.shape(ip), dtype=np.int8)


class _InstrumentNaN(BellDeterministic):
    """A custom family whose instrument law returns NaN."""

    def instrument_arrays(self, seed, t, theta_local, station, pair_id=None):
        return np.full(np.shape(t), np.nan)


@pytest.mark.parametrize(
    "spec, what",
    [(_OutcomeZero(), "A and B must be -1 or 1"), (_InstrumentNaN(), "ip_1 must be finite")],
    ids=["outcome-0", "instrument-nan"],
)
def test_the_runner_refuses_a_row_the_csv_reader_refuses(spec, what):
    with pytest.raises(ValueError, match=f"^{re.escape(f'trial log line 2: {what}')}$"):
        run_experiment(spec, QUAD, 5, seed=1)


@dataclass(frozen=True)
class _OutcomeAtTrial(BellDeterministic):
    """A custom family whose station-1 outcome is ``value`` (int64) at trial ``trial``
    and 1 elsewhere: its instrument value is the trial index."""

    trial: int = 0
    value: int = 1

    def instrument_arrays(self, seed, t, theta_local, station, pair_id=None):
        return np.asarray(t, dtype=np.float64)

    def outcome_arrays(self, station, theta_local, lam_angle, ip):
        if station is Station.S2:
            return np.ones(np.shape(ip), dtype=np.int8)
        return np.where(np.asarray(ip) == self.trial, self.value, 1).astype(np.int64)


_CHECK_RUNS = [
    (simulate.three_setting_pairs(QUAD.a, QUAD.b, QUAD.c), range(50_000), 9),
    (simulate.experiment_pairs(QUAD), range(50_000), 9),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("value", [0, 257, -255], ids=["0", "257", "minus-255"])
@pytest.mark.parametrize(
    "call",
    [
        lambda spec, threads: simulate.run_sums(spec, simulate.experiment_pairs(QUAD), 50_000, 9, threads, [10, 50_000]),
        lambda spec, threads: simulate.run_sums_each(spec, _CHECK_RUNS, threads),
        lambda spec, threads: run_experiment(spec, QUAD, 50_000, 9, threads),
    ],
    ids=["run_sums", "run_sums_each-check", "run_experiment"],
)
def test_every_runner_path_refuses_an_outcome_at_the_trial_that_made_it(call, value, threads):
    # an int8 cast would wrap 257 and -255 to 1, and a count of A == B would take them as outcomes
    with pytest.raises(ValueError, match="^trial log line 40002: A and B must be -1 or 1$"):
        call(_OutcomeAtTrial(trial=40_000, value=value), threads)


@dataclass(frozen=True)
class _OutcomeCast(BellDeterministic):
    """A custom family whose outcome law returns its +-1 signs cast to ``dtype``: float64
    -1.0 and 1.0, or bool, where both signs are True."""

    dtype: type = np.float64

    def outcome_arrays(self, station, theta_local, lam_angle, ip):
        return super().outcome_arrays(station, theta_local, lam_angle, ip).astype(self.dtype)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("spec", [_OutcomeCast(), _OutcomeCast(dtype=np.bool_)], ids=["float64", "bool"])
@pytest.mark.parametrize(
    "call",
    [
        lambda spec, threads: simulate.run_sums(spec, simulate.experiment_pairs(QUAD), 50_000, 9, threads),
        lambda spec, threads: simulate.run_sums_each(spec, _CHECK_RUNS, threads),
        lambda spec, threads: run_experiment(spec, QUAD, 50_000, 9, threads),
    ],
    ids=["run_sums", "run_sums_each-check", "run_experiment"],
)
def test_every_runner_path_refuses_outcomes_that_are_not_integers(call, spec, threads):
    # +-1.0 and True pass a test of |A| == 1; the rule takes outcomes from integer arrays only
    with pytest.raises(ValueError, match=r"^trial log line (\d+): A and B must be -1 or 1$") as info:
        call(spec, threads)
    line = int(re.search(r"line (\d+)", str(info.value)).group(1))
    assert line == 2 if threads == 1 else 2 <= line <= 50_001


@pytest.mark.parametrize("threads", [1, 2])
def test_sums_refuse_an_outcome_law_that_returns_zero(threads):
    # at two workers the first bad block that a worker meets names its first trial
    with pytest.raises(ValueError, match=r"^trial log line (\d+): A and B must be -1 or 1$") as info:
        simulate.run_sums(_OutcomeZero(), simulate.experiment_pairs(QUAD), 1_000, 5, threads)
    line = int(re.search(r"line (\d+)", str(info.value)).group(1))
    assert line == 2 if threads == 1 else 2 <= line <= 1_001


@pytest.mark.parametrize("threads", [1, 2])
def test_bell_statistic_refuses_an_outcome_law_that_returns_zero(threads):
    # 0 = -0 at equal settings, so a pilot that only counted A != -B would pass; it refuses the outcome
    with pytest.raises(InvalidSpec, match=r"^equal-settings pilot trial 0: A and B must be -1 or 1$"):
        bell_statistic(_OutcomeZero(), QUAD.a, QUAD.b, QUAD.c, 1_000, seed=5, threads=threads)


@pytest.mark.parametrize(
    "column, values, what",
    [
        ("pair_id", [0, 0, 1], "pair_id must be from 0 to 0"),
        ("a", [1, -1, 0], "A and B must be -1 or 1"),
        ("b", [1, 2], "A and B must be -1 or 1"),
        ("setting_2", [0.0, 0.0, -np.inf], "setting_2 must be finite"),
        ("lam", [0.0, np.nan], "lambda must be finite"),
        # int64 values that an int8 cast would wrap into range: 257 -> 1, -255 -> 1, 256 -> 0
        ("a", np.array([-1, 1, 257], dtype=np.int64), "A and B must be -1 or 1"),
        ("b", np.array([1, -255], dtype=np.int64), "A and B must be -1 or 1"),
        ("pair_id", np.array([0, 256], dtype=np.int64), "pair_id must be from 0 to 0"),
        # a column that is not an integer array is bad from its first row: an int8 or int64
        # cast would truncate 0.5 to 0 and read True as 1, and |True| == 1
        ("pair_id", [0.5], "pair_id must be integers"),
        ("pair_id", [0.0], "pair_id must be integers"),
        ("pair_id", [True], "pair_id must be integers"),
        ("t", [0.5], "t must be integers"),
        ("a", [True], "A and B must be -1 or 1"),
        ("b", [-1.0], "A and B must be -1 or 1"),
        # a uint64 t that an int64 cast would wrap to -2**63
        ("t", np.array([0, 1, 2**63], dtype=np.uint64), "t must be below 2**63"),
    ],
)
def test_trial_log_refuses_a_bad_row_from_a_caller(column, values, what):
    # the last of ``values`` is the first bad row
    log = _one_pair_log(np.ones(4, dtype=np.int8))
    bad = getattr(log, column).astype(np.asarray(values).dtype)
    bad[: len(values)] = values
    line = 1 + len(values)
    with pytest.raises(ValueError, match=f"^{re.escape(f'trial log line {line}: {what}')}$"):
        replace(log, **{column: bad})


def test_trial_log_holds_at_most_128_pairs():
    log = _one_pair_log(np.ones(4, dtype=np.int8))
    assert replace(log, n_pairs=128).n_pairs == 128
    # an int8 cast would store pair_id 130 and 199 as -126 and -57
    with pytest.raises(ValueError, match=r"^a trial log holds at most 128 pairs, got 200$"):
        replace(log, pair_id=np.array([0, 130, 199, 5]), n_pairs=200)


def test_run_pairs_refuses_more_pairs_than_a_log_holds_before_its_first_block(monkeypatch):
    blocks = []
    trial_arrays = models.trial_arrays
    monkeypatch.setattr(models, "trial_arrays", lambda *args: blocks.append(args) or trial_arrays(*args))
    pairs = simulate.experiment_pairs(QUAD) * 32
    log = run_pairs(BellDeterministic(), pairs, 1_000, 3, threads=1)
    assert log.n_pairs == 128 and set(log.pair_id.tolist()) <= set(range(128)) and blocks
    blocks.clear()
    with pytest.raises(InvalidSpec, match=r"^a trial log holds at most 128 pairs, got 129$"):
        run_pairs(BellDeterministic(), [*pairs, pairs[0]], 1_000, 3, threads=1)
    assert blocks == []


def test_csv_writer_refuses_a_pair_id_the_reader_refuses(tmp_path):
    pairs = [*simulate.experiment_pairs(QUAD), (Setting(0.0), Setting(0.0))]
    log = run_pairs(BellDeterministic(), pairs, 50, seed=1)
    assert log.n_pairs == 5 and len(estimate_correlations(log)) == 5
    path = tmp_path / "log.csv"
    line = int(np.argmax(log.pair_id == 4)) + 2
    with pytest.raises(ValueError, match=f"^trial log line {line}: pair_id must be from 0 to 3$"):
        log.to_csv(path)
    assert not path.exists()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _valid_logs(draw) -> TrialLog:
    """A log the constructor accepts, of one to four pairs, with at least one row (a
    header-only CSV loads as an angle log) and a discrete lambda in [0, 2**53) or an
    angle one."""
    n, n_pairs = draw(st.integers(1, 12)), draw(st.integers(1, 4))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    lam = st.integers(0, 2**53 - 1) if draw(st.booleans()) else _FINITE
    signs = st.sampled_from([-1, 1])
    return TrialLog(
        t=column(st.integers(-(2**63), 2**63 - 1)), pair_id=column(st.integers(0, n_pairs - 1)),
        setting_1=column(_FINITE), setting_2=column(_FINITE), lam=column(lam),
        ip_1=column(_FINITE), ip_2=column(_FINITE), a=column(signs), b=column(signs), n_pairs=n_pairs,
    )


@settings(max_examples=60, deadline=None)
@given(log=_valid_logs())
def test_every_valid_log_round_trips_through_the_csv(tmp_path_factory, log):
    path = tmp_path_factory.mktemp("round-trip") / "log.csv"
    log.to_csv(path)
    # a reloaded log covers the four canonical pairs
    assert TrialLog.from_csv(path) == replace(log, n_pairs=4)


def test_csv_header_only_loads_as_empty_log(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(",".join(simulate.CSV_COLUMNS) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = TrialLog.from_csv(path)
    assert len(log) == 0 and log.n_pairs == 4
