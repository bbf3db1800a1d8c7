"""Reload a trial log from CSV and compare it with a fresh in-memory run.

Usage: python -m reload_log CONFIG LOG_CSV   (with src/ and bench/ on PYTHONPATH)

Exits 0 when the reloaded log equals the log ``run_experiment`` produces for
the config, 1 when it differs.
"""

from __future__ import annotations

import sys

from bell_lab import cli, simulate


def main(argv: list[str]) -> int:
    config_path, log_path = argv
    cfg = cli.parse_config_file(config_path)
    reloaded = simulate.TrialLog.from_csv(log_path)
    expected = simulate.run_experiment(cfg.model, cfg.quad, cfg.n_trials, cfg.seed, threads=1)
    if reloaded != expected:
        print(f"reloaded log {log_path} differs from the in-memory run", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
