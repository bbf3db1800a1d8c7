"""Self-test of the benchmark's failure accounting and of BENCHMARK.json.

Usage (from the repository root): python3 bench/self_test.py

Shows that a clean run counts no failure, that a corrupted output and a
non-zero exit code each count as a failed command, and that the metric names
in BENCHMARK.json match the ones the benchmark reports. Exits 0 when all of
that holds, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import os
import sys

import layers
import run
import workloads

def _simulate_only(work: str) -> workloads.Workload:
    wl = workloads.build("log_io", 1, work)
    wl.steps = wl.steps[:1]
    return wl


def _rewrite_json(path: str, edit) -> None:
    with open(path) as fh:
        obj = json.load(fh)
    edit(obj)
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _drop_one_count(report: dict) -> None:
    report["estimates"][0]["count"] -= 1


def _flip_first_outcome(log_path: str) -> None:
    with open(log_path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][-1] = str(-int(rows[1][-1]))
    with open(log_path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def main() -> int:
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    work = os.path.join(run.WORK, "self_test")

    wl = _simulate_only(work)
    rep = workloads.run_rep(wl, run.run_child)
    expect(rep.failed == 0 and rep.attempted == 1, "a clean simulate counts no failure")

    report_path = os.path.join(wl.out_root, "log_io", "simulate", "report.json")

    def run_then_corrupt(step):
        rc, rss = run.run_child(step)
        _rewrite_json(report_path, _drop_one_count)
        return rc, rss

    rep = workloads.run_rep(wl, run_then_corrupt)
    expect(rep.failed == 1 and "counts sum" in rep.problems[0], "a corrupted report counts as failed")

    bad_cfg = os.path.join(work, "bad.cfg")
    with open(bad_cfg, "w") as fh:
        fh.write("model.kind = no_such_family\n")
    wl.steps = [workloads.Step("bad-config", "bell_lab.cli", ["simulate", "--config", bad_cfg], 1, lambda: [])]
    rep = workloads.run_rep(wl, run.run_child)
    expect(rep.failed == 1 and rep.problems == ["log_io/bad-config: exit code 2"], "a non-zero exit counts as failed")

    wl = workloads.build("log_io", 1, work)
    log_path = os.path.join(wl.out_root, "log_io", "simulate", "trials.csv")

    def corrupt_log_before_reload(step):
        if step.name == "reload":
            _flip_first_outcome(log_path)
        return run.run_child(step)

    rep = workloads.run_rep(wl, corrupt_log_before_reload)
    expect(rep.failed == 1 and rep.problems[0].startswith("log_io/reload"), "a corrupted trial log fails the reload")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    reported = {name: spec[:2] for name, spec in layers.LAYER_METRICS.items()}
    expect(declared == reported, "BENCHMARK.json per_layer matches the traced run's metrics")
    expect({w["name"] for w in bench["workloads"]} == set(workloads.BY_NAME), "BENCHMARK.json lists every workload")
    expect(
        {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS,
        "BENCHMARK.json end_to_end matches the untraced run's metrics",
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
