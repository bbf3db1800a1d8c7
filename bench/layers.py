"""Traced in-process run: the benchmark's per-layer numbers.

Spans are recorded from the benchmark's own code. For the traced pass only,
the public functions of each bell_lab layer (rng, models, simulate, tables,
cli) are replaced by timing wrappers wherever a bell_lab module holds a
reference to them, and put back afterwards; the package carries no span code.

A span's parent is the innermost open span of the same thread. A span opened
in a worker thread with nothing open there belongs to the innermost open span
of the thread that made the tracer (the runner's thread pool is started from
inside ``run_pairs``). Self time is a span's duration minus the part of its
interval that its children cover, so spans of two worker threads under one
``run_pairs`` call are counted once in its self time, and ``busy_s`` figures
summed over worker threads are thread-seconds.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

import workloads

# name -> (unit, better, the end-to-end metric it should move, parts whose
# traced pass gives its value; workloads.BY_NAME says which workload runs each
# part). "setup" is the fresh set-up process of the workload being run;
# "pair" is the threads=1 / threads=2 pair of runs on the mc_runner simulate
# config.
LAYER_METRICS = {
    "cli.import_s": ("s", "lower", "setup_s", ("setup",)),
    "cli.parse_config_file.s": ("s", "lower", "setup_s", ("setup",)),
    "cli.self_s": ("s", "lower", "trials_per_s", ("tables", "mc_runner")),
    "cli.json_bytes": ("B", "lower", "output_mb", ("tables",)),
    "rng.words": ("count", "lower", "trials_per_s", ("mc_runner",)),
    "rng.busy_s": ("s", "lower", "trials_per_s", ("mc_runner",)),
    "rng.ns_per_word": ("ns", "lower", "trials_per_s", ("mc_runner",)),
    "models.source_arrays.busy_s": ("s", "lower", "trials_per_s", ("mc_runner",)),
    "models.instrument_arrays.busy_s": ("s", "lower", "trials_per_s", ("mc_runner",)),
    "models.outcome_arrays.busy_s": ("s", "lower", "trials_per_s", ("mc_runner",)),
    "models.check_anticorrelation.busy_s": ("s", "lower", "trials_per_s", ("mc_runner",)),
    "simulate.run_pairs.calls": ("count", "lower", "trials_per_s", ("mc_runner",)),
    "simulate.run_pairs.trials": ("count", "lower", "trials_per_s", ("mc_runner",)),
    "simulate.run_pairs.self_s": ("s", "lower", "trials_per_s", ("mc_runner",)),
    "simulate.estimate_correlations.calls": ("count", "lower", "trials_per_s", ("mc_runner",)),
    "simulate.estimate_correlations.busy_s": ("s", "lower", "trials_per_s", ("mc_runner",)),
    "simulate.thread_speedup": ("x", "higher", "trials_per_s", ("pair",)),
    "simulate.log_bytes_per_trial": ("B", "lower", "peak_rss_mb", ("pair",)),
    "simulate.to_csv.busy_s": ("s", "lower", "trials_per_s", ("log_io",)),
    "simulate.to_csv.mb_per_s": ("MB/s", "higher", "trials_per_s", ("log_io",)),
    "simulate.from_csv.busy_s": ("s", "lower", "trials_per_s", ("log_io",)),
    "simulate.from_csv.mb_per_s": ("MB/s", "higher", "trials_per_s", ("log_io",)),
    "tables.build_reordered_table.busy_s": ("s", "lower", "trials_per_s", ("tables",)),
    "tables.rows": ("count", "lower", "peak_rss_mb", ("tables",)),
    "tables.row_sums.busy_s": ("s", "lower", "trials_per_s", ("tables",)),
    "tables.lln_balance_check.busy_s": ("s", "lower", "trials_per_s", ("tables",)),
    "tables.table_to_json_obj.busy_s": ("s", "lower", "trials_per_s", ("tables",)),
    "tables.used_frac": ("ratio", "higher", "trials_per_s", ("tables",)),
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "items", "info")

    def __init__(self, name: str, parent: Span | None):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.items = 0
        self.info = None


class Tracer:
    """In-memory span recorder; ``wrap`` returns a timing wrapper for a function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()

    def _parent(self, tid: int, stack: list[Span]) -> Span | None:
        if stack:
            return stack[-1]
        home = self._stacks.get(self._home)
        return home[-1] if home and tid != self._home else None

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            span = Span(name, self._parent(tid, stack))
            self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(span, args, result)
            return result

        return traced


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


@dataclass
class LayerStat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    items: int = 0


def summarize(spans: list[Span]) -> dict[str, LayerStat]:
    """Per span name: calls, inclusive time, self time and items.

    ``rng`` is added as the time in outermost rng calls, with the words drawn
    as its items.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    stats: dict[str, LayerStat] = defaultdict(LayerStat)
    for s in spans:
        st = stats[s.name]
        st.calls += 1
        st.busy_s += s.end - s.start
        st.self_s += (s.end - s.start) - _covered(
            [(max(c.start, s.start), min(c.end, s.end)) for c in children[id(s)]]
        )
        st.items += s.items
        if s.name.startswith("rng.") and not (s.parent and s.parent.name.startswith("rng.")):
            stats["rng"].calls += 1
            stats["rng"].busy_s += s.end - s.start
    stats["rng"].items = stats["rng.hash_words"].items
    return stats


# --- Patching ----------------------------------------------------------------


def _count_words(span, args, words):
    span.items = words.size


def _count_trials(span, args, log):
    span.items = len(log)


def _count_file_bytes(span, args, result):
    span.items = os.path.getsize(args[1])


def _note_table(span, args, table):
    span.items = len(table.rows)
    span.info = (table.key_mode.value, table.complete_rows, table.n_trials)


def _targets():
    from bell_lab import cli, models, rng, simulate, tables

    return [
        (rng, "hash_words", _count_words),
        (rng, "uniforms", None),
        (rng, "uniform", None),
        (rng, "choice_of_4", None),
        (rng, "integers_below", None),
        (models, "source_arrays", None),
        (models, "instrument_arrays", None),
        (models, "outcome_arrays", None),
        (models, "check_anticorrelation", None),
        (simulate, "run_pairs", _count_trials),
        (simulate, "run_experiment", None),
        (simulate, "estimate_correlations", None),
        (simulate, "bell_statistic", None),
        (simulate.TrialLog, "to_csv", _count_file_bytes),
        (simulate.TrialLog, "from_csv", _count_file_bytes),
        (tables, "build_reordered_table", _note_table),
        (tables, "row_sums", None),
        (tables, "lln_balance_check", None),
        (tables, "table_to_json_obj", None),
        (cli, "main", None),
        (cli, "parse_config_file", None),
    ]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every bell_lab reference to a target through the tracer."""
    import bell_lab
    from bell_lab import cli, core, models, oracle, rng, simulate, tables

    modules = (bell_lab, cli, core, models, oracle, rng, simulate, tables)
    undo = []
    try:
        for owner, attr, observe in _targets():
            raw = vars(owner)[attr]
            if isinstance(owner, type):
                name = f"{owner.__module__.rsplit('.', 1)[-1]}.{attr}"
                if isinstance(raw, classmethod):
                    new = classmethod(tracer.wrap(name, raw.__func__, observe))
                else:
                    new = tracer.wrap(name, raw, observe)
                setattr(owner, attr, new)
                undo.append((owner, attr, raw))
                continue
            new = tracer.wrap(f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}", raw, observe)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        setattr(mod, key, new)
                        undo.append((mod, key, raw))
        yield
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


# --- The traced run ----------------------------------------------------------


def run_in_process(step: workloads.Step) -> tuple[int, float]:
    """Call the step's ``main`` in this process, its stdout discarded."""
    main = importlib.import_module(step.module).main
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            rc = main(step.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed step, reported and counted
            traceback.print_exc(file=sys.stderr)
            rc = 1
    return rc, 0.0


def _columns_bytes(log) -> list[tuple[str, bytes]]:
    return [(k, v.dtype.str.encode() + v.tobytes()) for k, v in sorted(vars(log).items()) if hasattr(v, "tobytes")]


def thread_pair(config_path: str) -> dict:
    """run_experiment at 1 and at 2 threads on one config, untraced.

    The two logs must be bit-identical (the thread-count reproducibility
    invariant); the same pair gives the speedup and the log's bytes per trial.
    """
    from bell_lab import cli, simulate

    cfg = cli.parse_config_file(config_path)
    walls, logs = [], []
    for threads in (1, 2):
        t0 = time.perf_counter()
        logs.append(simulate.run_experiment(cfg.model, cfg.quad, cfg.n_trials, cfg.seed, threads=threads))
        walls.append(time.perf_counter() - t0)
    one, two = logs
    return {
        "identical": _columns_bytes(one) == _columns_bytes(two),
        "wall_s": walls,
        "speedup": walls[0] / walls[1],
        "log_bytes_per_trial": sum(v.nbytes for v in vars(one).values() if hasattr(v, "nbytes")) / len(one),
    }


def _split(stats: dict[str, LayerStat]) -> dict[str, float]:
    """Self time per layer (thread-seconds where a thread pool ran)."""
    by_layer: dict[str, float] = defaultdict(float)
    for name, st in stats.items():
        if name == "rng":
            continue
        layer = name.split(".", 1)[0]
        by_layer[layer] += st.self_s
    return dict(sorted(by_layer.items()))


def _ratio(a: float, b: float) -> float:
    return a / b if b else float("nan")


def profile(seed: int, work_dir: str) -> dict:
    """Run every part in process, untraced then traced, and the thread pair.

    Returns the per-layer metrics (all but the set-up ones), a record of each
    pass, and the attempted and failed counts.
    """
    stats: dict[str, dict[str, LayerStat]] = {}
    passes: dict[str, dict] = {}
    attempted = failed = 0
    problems: list[str] = []
    json_bytes = 0
    used_frac: list[float] = []
    for name in workloads.PARTS:
        wl = workloads.build(name, seed, work_dir)
        plain = workloads.run_rep(wl, run_in_process)
        tracer = Tracer()
        with patched(tracer):
            traced = workloads.run_rep(wl, run_in_process)
        if name == "tables":
            json_bytes = workloads.tree_bytes(wl.out_root, ".json")
            used_frac = [
                4 * complete / n
                for mode, complete, n in (s.info for s in tracer.spans if s.name == "tables.build_reordered_table")
                if mode == "lambda"
            ]
        stats[name] = summarize(tracer.spans)
        for rep in (plain, traced):
            attempted += rep.attempted
            failed += rep.failed
            problems += rep.problems
        passes[name] = {
            "untraced_wall_s": plain.wall_s,
            "traced_wall_s": traced.wall_s,
            "tracing_overhead_s": traced.wall_s - plain.wall_s,
            "self_s_by_layer": _split(stats[name]),
            "rng_busy_s": stats[name]["rng"].busy_s,
            "spans": len(tracer.spans),
        }
        print(
            f"{name}: untraced {plain.wall_s:.3f} s, traced {traced.wall_s:.3f} s; self seconds by layer "
            + ", ".join(f"{k} {v:.3f}" for k, v in passes[name]["self_s_by_layer"].items()),
            file=sys.stderr,
        )
    pair = thread_pair(workloads.build("mc_runner", seed, work_dir).configs[0])
    attempted += 1
    if not pair["identical"]:
        failed += 1
        problems.append("mc_runner simulate log differs between threads=1 and threads=2")

    mc, lio, tb = stats["mc_runner"], stats["log_io"], stats["tables"]
    metrics = {
        "cli.self_s": mc["cli.main"].self_s + tb["cli.main"].self_s,
        "cli.json_bytes": json_bytes,
        "rng.words": mc["rng"].items,
        "rng.busy_s": mc["rng"].busy_s,
        "rng.ns_per_word": _ratio(mc["rng"].busy_s * 1e9, mc["rng"].items),
        "simulate.run_pairs.calls": mc["simulate.run_pairs"].calls,
        "simulate.run_pairs.trials": mc["simulate.run_pairs"].items,
        "simulate.run_pairs.self_s": mc["simulate.run_pairs"].self_s,
        "simulate.estimate_correlations.calls": mc["simulate.estimate_correlations"].calls,
        "simulate.estimate_correlations.busy_s": mc["simulate.estimate_correlations"].busy_s,
        "simulate.thread_speedup": pair["speedup"],
        "simulate.log_bytes_per_trial": pair["log_bytes_per_trial"],
        "tables.rows": tb["tables.build_reordered_table"].items,
        "tables.used_frac": used_frac[0] if used_frac else float("nan"),
    }
    # The model kernels' figures are self time: without the rng calls they make.
    for kernel in ("source_arrays", "instrument_arrays", "outcome_arrays", "check_anticorrelation"):
        metrics[f"models.{kernel}.busy_s"] = mc[f"models.{kernel}"].self_s
    for fn in ("to_csv", "from_csv"):
        st = lio[f"simulate.{fn}"]
        metrics[f"simulate.{fn}.busy_s"] = st.busy_s
        metrics[f"simulate.{fn}.mb_per_s"] = _ratio(st.items / 1e6, st.busy_s)
    for fn in ("build_reordered_table", "row_sums", "lln_balance_check", "table_to_json_obj"):
        metrics[f"tables.{fn}.busy_s"] = tb[f"tables.{fn}"].busy_s
    return {
        "metrics": metrics,
        "passes": passes,
        "thread_pair": pair,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
