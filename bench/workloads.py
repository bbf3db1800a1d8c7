"""Benchmark workloads: seeded configs, the CLI commands that run them, and
format-independent checks of what those commands write.

Every config is generated from the benchmark seed into the work directory;
the program under test only ever sees the generated files. A check reads
numbers out of the outputs (counts, verdicts, statistics), never bytes, so a
later change of output format does not fail it as long as the numbers stay
right.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Callable

QUAD_DEG = (0, 45, 135, 90)
EPSILON = 0.25
SIGMA_BAND = 4.0


@dataclass
class Step:
    """One command of a workload: ``python -m <module> <argv>``."""

    name: str
    module: str
    argv: list[str]
    trials: int
    check: Callable[[], list[str]]


@dataclass
class Workload:
    name: str
    steps: list[Step]
    configs: list[str]
    out_root: str


Part = tuple[list[Step], list[str]]  # a part's steps and the configs they read


def derive_seed(seed: int, label: str) -> int:
    """Per-command config seed: a stable 63-bit hash of (benchmark seed, label)."""
    digest = hashlib.sha256(f"bell-lab-bench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _write_config(path: str, kind: str, n_trials: int, seed: int, extra: tuple[str, ...] = ()) -> str:
    lines = [f"model.kind = {kind}", *extra]
    lines += [f"quad.{name}_deg = {deg}" for name, deg in zip("abcd", QUAD_DEG)]
    lines += [f"n_trials = {n_trials}", f"seed = {seed}"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# --- Checks ------------------------------------------------------------------


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _checked(fn: Callable[[], list[str]]) -> Callable[[], list[str]]:
    """Turn a missing or malformed output into a reported problem."""

    def check() -> list[str]:
        try:
            return fn()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    return check


def counts_sum_to(report: dict, n_trials: int) -> list[str]:
    total = sum(e["count"] for e in report["estimates"])
    if total != n_trials:
        return [f"per-pair counts sum to {total}, not {n_trials}"]
    return []


def factorizable_statistic_ok(report: dict, epsilon: float) -> list[str]:
    """|S - 2(1 - eps)^2| <= 4 sigma for the sign model with eps coin noise at each station."""
    chsh = report["chsh"]
    expected = 2.0 * (1.0 - epsilon) ** 2
    if abs(chsh["value"] - expected) > SIGMA_BAND * chsh["std_error"]:
        return [f"statistic {chsh['value']!r} is not within 4 sigma of {expected!r}"]
    return []


def verdicts_pass(report: dict) -> list[str]:
    return [
        f"{name} verdict is {report[name]['verdict']}"
        for name in ("bell", "chsh")
        if report[name]["verdict"] != "PASS"
    ]


def max_z_bound(cells: int) -> float:
    """Bound on the largest of ``cells`` |z| scores with the false-alarm rate of one 4-sigma test.

    A 4-sigma bound on the maximum over all (lambda, pair) cells would fail on
    about one seed in 250 with nothing wrong; this Bonferroni bound (about
    4.9 for 64 cells) keeps that rate at one in 16,000.
    """
    normal = statistics.NormalDist()
    alpha = 2.0 * (1.0 - normal.cdf(SIGMA_BAND))
    return normal.inv_cdf(1.0 - alpha / (2.0 * cells))


def lambda_table_ok(report: dict) -> list[str]:
    problems = []
    keys = set(report["row_sum_histogram"])
    if not keys <= {"-2", "2"}:
        problems.append(f"row sums outside {{-2, +2}}: {sorted(keys)}")
    if report["leftover_fraction"] > 0.05:
        problems.append(f"leftover fraction {report['leftover_fraction']} > 0.05")
    balance = report["lln_balance"]
    bound = max_z_bound(4 * len(balance["per_key_pair_counts"]))
    if balance["max_abs_z"] > bound:
        problems.append(f"balance max |z| {balance['max_abs_z']} > {bound:.3f}")
    return problems


def lambda_time_table_ok(report: dict, n_trials: int) -> list[str]:
    if report["undefined_row_sums"] != n_trials:
        return [f"{report['undefined_row_sums']} undefined row sums, not {n_trials}"]
    return []


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


# --- Parts -------------------------------------------------------------------
#
# A part is a command sequence with a purpose of its own; a workload runs one
# or more parts in each repetition. The traced run profiles each part
# separately.


def _cli(name: str, argv: list[str], trials: int, check: Callable[[], list[str]]) -> Step:
    return Step(name, "bell_lab.cli", argv, trials, _checked(check))


def mc_runner(seed: int, cfg_dir: str, out_root: str) -> Part:
    n = 4_000_000
    sim_cfg = _write_config(
        os.path.join(cfg_dir, "simulate.cfg"),
        "factorizable_instrument",
        n,
        derive_seed(seed, "mc_runner.simulate"),
        (f"model.epsilon = {EPSILON}",),
    )
    chk_cfg = _write_config(
        os.path.join(cfg_dir, "check.cfg"),
        "time_tagged_anticorrelated",
        n,
        derive_seed(seed, "mc_runner.check"),
    )
    sim_out = os.path.join(out_root, "simulate")
    chk_out = os.path.join(out_root, "check")
    sweep = os.path.join(sim_out, "sweep.csv")
    convergence = os.path.join(sim_out, "convergence.csv")

    def check_simulate() -> list[str]:
        report = _load_json(os.path.join(sim_out, "report.json"))
        problems = counts_sum_to(report, n) + factorizable_statistic_ok(report, EPSILON)
        if len(_csv_rows(sweep)) != 37:
            problems.append("sweep does not have 37 angles")
        if int(_csv_rows(convergence)[-1][0]) != n:
            problems.append("convergence does not end at n_trials")
        return problems

    def check_check() -> list[str]:
        report = _load_json(os.path.join(chk_out, "check.json"))
        return counts_sum_to(report, n) + verdicts_pass(report)

    steps = [
        _cli(
            "simulate",
            ["simulate", "--config", sim_cfg, "--out", sim_out, "--threads", "2",
             "--sweep", sweep, "--convergence", convergence],
            n,
            check_simulate,
        ),
        _cli("check", ["check", "--config", chk_cfg, "--out", chk_out, "--threads", "2"], n, check_check),
    ]
    return steps, [sim_cfg, chk_cfg]


def log_io(seed: int, cfg_dir: str, out_root: str) -> Part:
    n = 200_000
    cfg = _write_config(
        os.path.join(cfg_dir, "simulate.cfg"),
        "factorizable_instrument",
        n,
        derive_seed(seed, "log_io.simulate"),
        (f"model.epsilon = {EPSILON}", "outputs.trial_log = trials.csv"),
    )
    sim_out = os.path.join(out_root, "simulate")
    log_path = os.path.join(sim_out, "trials.csv")

    def check_simulate() -> list[str]:
        report = _load_json(os.path.join(sim_out, "report.json"))
        return counts_sum_to(report, n) + factorizable_statistic_ok(report, EPSILON)

    steps = [
        _cli("simulate", ["simulate", "--config", cfg, "--out", sim_out, "--threads", "1"], n, check_simulate),
        # The reload process compares the log with a fresh in-memory run and
        # exits non-zero on any difference.
        Step("reload", "reload_log", [cfg, log_path], 0, lambda: []),
    ]
    return steps, [cfg]


def tables(seed: int, cfg_dir: str, out_root: str) -> Part:
    n = 100_000
    cfg = _write_config(
        os.path.join(cfg_dir, "tables.cfg"),
        "bell_deterministic",
        n,
        derive_seed(seed, "tables"),
        ("model.source.kind = discrete", "model.source.size = 16"),
    )
    lam_out = os.path.join(out_root, "lambda")
    time_out = os.path.join(out_root, "lambda-time")
    steps = [
        _cli(
            "tables-lambda",
            ["tables", "--config", cfg, "--out", lam_out, "--threads", "1", "--key-mode", "lambda"],
            n,
            lambda: lambda_table_ok(_load_json(os.path.join(lam_out, "table.json"))),
        ),
        _cli(
            "tables-lambda-time",
            ["tables", "--config", cfg, "--out", time_out, "--threads", "1", "--key-mode", "lambda-time"],
            n,
            lambda: lambda_time_table_ok(_load_json(os.path.join(time_out, "table.json")), n),
        ),
    ]
    return steps, [cfg]


PARTS = {"mc_runner": mc_runner, "log_io": log_io, "tables": tables}

# Benchmark workloads: name -> the parts one repetition runs, in order.
# log_io and tables share a workload: both are pure-Python paths whose speed
# swings with the shared host's load, and as one workload each run can measure
# them for a full minute within the benchmark's limit on its total time.
BY_NAME = {"mc_runner": ("mc_runner",), "log_tables": ("log_io", "tables")}


def build(name: str, seed: int, work_dir: str) -> Workload:
    """Generate the configs of workload ``name`` (or of the single part
    ``name``) under ``work_dir`` and return its steps."""
    root = os.path.join(work_dir, name)
    steps: list[Step] = []
    configs: list[str] = []
    for part in BY_NAME.get(name, (name,)):
        cfg_dir = os.path.join(root, "configs", part)
        os.makedirs(cfg_dir, exist_ok=True)
        part_steps, part_configs = PARTS[part](seed, cfg_dir, os.path.join(root, "out", part))
        steps += part_steps
        configs += part_configs
    return Workload(name, steps, configs, os.path.join(root, "out"))


# --- Running one repetition --------------------------------------------------


@dataclass
class Rep:
    """One pass over a workload's steps."""

    wall_s: float
    trials: int
    peak_rss_mb: float
    output_bytes: int
    attempted: int
    failed: int
    problems: list[str]


def tree_bytes(root: str, suffix: str = "") -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files if f.endswith(suffix)
    )


def run_rep(workload: Workload, execute: Callable[[Step], tuple[int, float]]) -> Rep:
    """Run every step once through ``execute`` (which returns exit code and peak RSS
    in MB) and check its outputs. Wall time covers the steps, not the checks; a
    step fails on a non-zero exit code or on a failed check."""
    shutil.rmtree(workload.out_root, ignore_errors=True)
    os.makedirs(workload.out_root)
    wall = 0.0
    peak_rss = 0.0
    failed = 0
    problems: list[str] = []
    for step in workload.steps:
        t0 = time.perf_counter()
        rc, rss = execute(step)
        wall += time.perf_counter() - t0
        peak_rss = max(peak_rss, rss)
        step_problems = [f"exit code {rc}"] if rc != 0 else step.check()
        if step_problems:
            failed += 1
            problems += [f"{workload.name}/{step.name}: {p}" for p in step_problems]
    return Rep(
        wall_s=wall,
        trials=sum(s.trials for s in workload.steps),
        peak_rss_mb=peak_rss,
        output_bytes=tree_bytes(workload.out_root),
        attempted=len(workload.steps),
        failed=failed,
        problems=problems,
    )
