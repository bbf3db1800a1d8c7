"""bell-lab benchmark: the real CLI, run as child processes one at a time.

Usage (from the repository root):

    python3 bench/run.py --workload mc_runner|log_tables --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics. It repeats the workload's
command sequence while the next repetition, as long as the median one so
far, would end within ``--seconds``, checks every output, and times twelve
fresh set-up processes (import the CLI, parse the workload's configs) spread
over the same window:

* trials_per_s  trials requested by the workload's configs / wall time of the
                command sequences, summed over the repetitions (checks
                excluded)
* peak_rss_mb   largest ru_maxrss of any child process (os.wait4), median
                over the repetitions
* setup_s       wall time of the set-up process, median over the processes
* output_mb     bytes the commands write to files, median over the
                repetitions

``--trace 1`` makes the separate traced in-process run of ``layers.py`` and
reports the per-layer metrics. Both modes print one environment line and then,
as the last line of stdout, the result object; the full record, with every
repetition, goes to ``bench/_work/results/``. A command fails on a non-zero
exit code or on a failed output check; ``failed`` / ``attempted`` is the
failed-operation share.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "_work")

SETUP_REPEATS = 12
CHILD_TIMEOUT_S = 120.0
MB = 1e6
E2E_UNITS = {"trials_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s", "output_mb": "MB"}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "BELL_LAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR])
    return env


def run_child(step: workloads.Step, stdout=subprocess.DEVNULL) -> tuple[int, float]:
    """Run ``python -m <module> <argv>`` to completion; return (exit code, peak RSS MB).

    The child is reaped with os.wait4 for its own ru_maxrss, and killed if it
    outlives CHILD_TIMEOUT_S.
    """
    log_path = os.path.join(WORK, "logs", f"{step.module}.{step.name}.stderr")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    with open(log_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", step.module, *step.argv], cwd=ROOT, env=child_env(), stdout=stdout, stderr=err
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path) as fh:
            sys.stderr.write(fh.read()[-2000:])
    return proc.returncode, usage.ru_maxrss / 1024.0


class SetupProbe:
    """Fresh set-up processes: import the CLI and parse the workload's configs.

    The first process, which may compile bytecode, is a discarded warm-up.
    """

    def __init__(self, configs: list[str]):
        self.step = workloads.Step("setup", "setup_probe", configs, 0, lambda: [])
        self.out_path = os.path.join(WORK, "logs", "setup_probe.stdout")
        os.makedirs(os.path.dirname(self.out_path), exist_ok=True)
        self.walls: list[float] = []
        self.inner: list[tuple[float, float]] = []  # (import, parse) seconds reported by the process
        self.timed = self.failed = 0
        self._run(keep=False)

    @property
    def attempted(self) -> int:
        return self.timed + 1

    def _run(self, keep: bool) -> None:
        with open(self.out_path, "w") as out:
            t0 = time.perf_counter()
            rc, _ = run_child(self.step, stdout=out)
            wall = time.perf_counter() - t0
        if rc != 0:
            self.failed += 1
        elif keep:
            with open(self.out_path) as fh:
                import_s, parse_s = (float(v) for v in fh.read().split())
            self.walls.append(wall)
            self.inner.append((import_s, parse_s))

    def fill(self, count: int = SETUP_REPEATS) -> None:
        """Run timed processes until ``count`` have been run."""
        while self.timed < count:
            self.timed += 1
            self._run(keep=True)


def measure(workload: workloads.Workload, seconds: float, setup: SetupProbe) -> list[workloads.Rep]:
    """Repeat the workload while the next repetition, as long as the median
    one so far, would end within ``seconds``; run at least one.

    The set-up processes are spread over the same window, so that both
    figures sample the same stretch of machine load.
    """
    reps = []
    durations = []
    start = time.perf_counter()
    while True:
        setup.fill(min(SETUP_REPEATS, 1 + int(SETUP_REPEATS * (time.perf_counter() - start) / seconds)))
        t0 = time.perf_counter()
        reps.append(workloads.run_rep(workload, run_child))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            setup.fill()
            return reps


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """sha256 over the package sources: names the code measured when there is no commit."""
    h = hashlib.sha256()
    for d, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "sha256:" + h.hexdigest()


def environment(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": _commit(),
        "src_digest": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: workloads.Workload, seconds: float) -> dict:
    setup = SetupProbe(workload.configs)
    reps = measure(workload, seconds, setup)
    values = {
        "trials_per_s": sum(r.trials for r in reps) / sum(r.wall_s for r in reps),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
        "setup_s": statistics.median(setup.walls) if setup.walls else float("nan"),
        "output_mb": statistics.median(r.output_bytes / MB for r in reps),
    }
    metrics = {name: _metric(values[name], unit) for name, unit in E2E_UNITS.items()}
    return {
        "metrics": metrics,
        "attempted": sum(r.attempted for r in reps) + setup.attempted,
        "failed": sum(r.failed for r in reps) + setup.failed,
        "problems": [p for r in reps for p in r.problems],
        "setup_walls_s": setup.walls,
        "reps": [vars(r) for r in reps],
    }


def per_layer(workload: workloads.Workload, seed: int) -> dict:
    import layers

    setup = SetupProbe(workload.configs)
    setup.fill()
    sys.path.insert(0, SRC)
    result = layers.profile(seed, WORK)
    values = dict(result["metrics"])
    values["cli.import_s"] = statistics.median(i for i, _ in setup.inner) if setup.inner else float("nan")
    values["cli.parse_config_file.s"] = statistics.median(p for _, p in setup.inner) if setup.inner else float("nan")
    result["metrics"] = {name: _metric(values[name], spec[0]) for name, spec in layers.LAYER_METRICS.items()}
    result["targets"] = {
        name: {"moves": spec[2], "measured_on": list(spec[3])} for name, spec in layers.LAYER_METRICS.items()
    }
    result["attempted"] += setup.attempted
    result["failed"] += setup.failed
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bell_lab", "cli.py")):
        print(f"bell_lab sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, WORK)
    env = environment(args)
    t0 = time.perf_counter()
    result = per_layer(workload, args.seed) if args.trace else end_to_end(workload, args.seconds)
    env["run_wall_s"] = time.perf_counter() - t0
    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)

    record_dir = os.path.join(WORK, "results")
    os.makedirs(record_dir, exist_ok=True)
    record_path = os.path.join(record_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump({"env": env, "ops_failed_frac": result["failed"] / result["attempted"], **result}, fh, indent=2)

    print(json.dumps({"env": env}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
