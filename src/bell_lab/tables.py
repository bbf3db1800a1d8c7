"""Reordered outcome tables and the counterfactual obstruction.

``build_reordered_table`` regroups a trial log into four-column rows:

* keyed by lambda alone, the god's-eye regrouping available when the source
  space is small and discrete — complete rows appear and (for models whose
  outcomes are deterministic given setting and lambda) every row sum is +/-2;
* keyed by (lambda, t), the honest key once instruments depend on time —
  keys are unique per trial, no row can ever fill its four columns, and row
  sums are Undefined.

A table is columnar: one key entry per row in ``lam`` (and ``t``), and an
(n, 4) int8 array ``rows`` of signed outcome products in which 0 marks a
counterfactual cell — a setting pair that was not measured for that key.

Undefined is a first-class tag, not NaN or None: it supports no arithmetic
and no numeric coercion, so nothing downstream can total it up by accident.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CHSH_SIGNS, KeyMode
from .errors import ContinuousLambdaUnorderable
from .simulate import _BLOCK_TRIALS, TrialLog
from .text import _distinct


@dataclass(frozen=True, eq=False)
class OutcomeTable:
    """Row keys and cells as parallel arrays.

    ``lam`` is int64 for a discrete source and float64 for an angle source;
    ``t`` is the int64 tick in lambda-time mode and None in lambda mode.
    ``rows[i, k]`` is the signed product of column k in row i, or 0 where
    that cell is counterfactual. ``balance`` is the balance report whose counts a
    lambda-mode table was cut from, and None in lambda-time mode.
    """

    key_mode: KeyMode
    lam: np.ndarray
    t: np.ndarray | None
    rows: np.ndarray
    leftover_trials: int
    n_trials: int
    balance: BalanceReport | None = None

    @property
    def complete_rows(self) -> int:
        return int(np.count_nonzero(self.rows.all(axis=1)))


@dataclass(frozen=True)
class Sum:
    """A defined row sum; for deterministic-outcome models always +/-2."""

    value: int


@dataclass(frozen=True)
class Undefined:
    """A row sum that must not be computed: the row has counterfactual cells.

    Deliberately supports no arithmetic and no conversion to int/float.
    """


RowSum = Sum | Undefined


def _require_four_columns(log: TrialLog) -> None:
    if log.n_pairs != 4:
        raise ValueError(f"outcome tables need a four-pair log, got {log.n_pairs} pairs")


def require_orderable(key_mode: KeyMode, discrete: bool) -> None:
    """Refuse lambda-keyed reordering unless the source is ``discrete``: ``tables`` asks
    this of its config before the run, ``build_reordered_table`` of its log."""
    if key_mode is KeyMode.LAMBDA_ONLY and not discrete:
        raise ContinuousLambdaUnorderable(
            "lambda-keyed reordering needs a discrete source whose value set is "
            "much smaller than the number of trials; a continuous lambda never repeats"
        )


def build_reordered_table(log: TrialLog, key_mode: KeyMode) -> OutcomeTable:
    """Greedily regroup trials into four-column rows by the chosen key.

    Lambda-only keys require a discrete source: a continuous lambda never repeats, so
    regrouping by equal value would be vacuous, and binning it would manufacture the very
    argument under test. Matching is greedy first-fit in trial-index order, which makes
    leftover counts reproducible. Lambda mode takes its (lambda, pair) counts from
    ``lln_balance_check``, keeps that report as the table's ``balance`` and places the
    trials a block at a time: beyond the log and the table it holds no array as long as
    the log.
    """
    _require_four_columns(log)
    require_orderable(key_mode, log.lambda_kind == "discrete")
    n = len(log)
    signs = np.asarray(CHSH_SIGNS, dtype=np.int8)

    if key_mode is KeyMode.LAMBDA_TIME:
        # (lambda, t) is unique per trial: no key can ever fill four columns.
        rows = np.zeros((n, 4), dtype=np.int8)
        rows[np.arange(n), log.pair_id] = signs[log.pair_id] * log.a * log.b
        return OutcomeTable(key_mode, log.lam, log.t, rows, leftover_trials=n, n_trials=n)

    # The j-th trial (in index order) of each (lambda, pair) group fills row j
    # of that lambda; a lambda has as many rows as its rarest pair has trials.
    balance = lln_balance_check(log)
    values, counts = balance.values, balance.counts
    rows_per_lam = counts.min(axis=1)
    first_row = np.cumsum(rows_per_lam) - rows_per_lam
    rows = np.zeros((int(rows_per_lam.sum()), 4), dtype=np.int8)
    placed = np.zeros(counts.size, dtype=np.int64)  # each group's trials in earlier blocks
    for c in (slice(lo, lo + _BLOCK_TRIALS) for lo in range(0, n, _BLOCK_TRIALS)):
        # in the narrowest type that holds the groups: up to 2**16 groups argsort by radix
        group = (4 * np.searchsorted(values, log.lam[c]) + log.pair_id[c]).astype(np.min_scalar_type(counts.size))
        order = np.argsort(group, kind="stable")
        group = group[order]
        rank = placed[group] + np.arange(len(group)) - np.searchsorted(group, group)
        np.add.at(placed, group, 1)
        used = rank < rows_per_lam[group // 4]
        signed = signs[log.pair_id[c]] * log.a[c] * log.b[c]
        rows[first_row[group[used] // 4] + rank[used], group[used] % 4] = signed[order[used]]
    lam = np.repeat(values, rows_per_lam)
    return OutcomeTable(key_mode, lam, None, rows, leftover_trials=n - 4 * len(rows), n_trials=n, balance=balance)


def row_sums(table: OutcomeTable) -> list[RowSum]:
    """Sum each complete row; rows with any counterfactual cell stay Undefined.

    For models whose outcomes are deterministic given (setting, lambda), every
    defined sum is +/-2 — the caller asserts that where it applies. The
    setting-pair-dependent diagnostic produces defined sums of +4, which is
    the point of that construction, so this function reports values honestly
    rather than enforcing the +/-2 band.
    """
    complete = table.rows.all(axis=1).tolist()
    totals = table.rows.sum(axis=1, dtype=np.int64).tolist()
    undefined = Undefined()
    return [Sum(s) if ok else undefined for s, ok in zip(totals, complete)]


@dataclass(frozen=True, eq=False)
class BalanceReport:
    """Each lambda value's trial count on each setting pair, and the largest standardized
    deviation: ``counts[i, k]`` is the number of trials with lambda ``values[i]`` on pair
    k, with ``values`` the sorted distinct lambda values and ``counts`` a (values, 4) int64
    array."""

    values: np.ndarray
    counts: np.ndarray
    max_abs_z: float


def lln_balance_check(log: TrialLog) -> BalanceReport:
    """How evenly each lambda value spreads over the setting pairs.

    Under the multinomial null (pair choice independent of lambda, uniform
    over pairs), each count c is Binomial(n_lam, 1/4); z standardizes against
    that. Returns the counts and the worst |z| over all (lambda, pair). The trials are
    counted a block at a time: no temporary is as long as the log.
    """
    if log.lambda_kind != "discrete":
        raise ContinuousLambdaUnorderable(
            "the balance check counts repeats of lambda values; a continuous source has none"
        )
    _require_four_columns(log)
    cuts = [slice(lo, lo + _BLOCK_TRIALS) for lo in range(0, len(log), _BLOCK_TRIALS)]
    values = _distinct(np.concatenate([log.lam[:0], *(_distinct(log.lam[c]) for c in cuts)]))
    counts = np.zeros(4 * len(values), dtype=np.int64)
    for c in cuts:
        np.add.at(counts, 4 * np.searchsorted(values, log.lam[c]) + log.pair_id[c], 1)
    counts = counts.reshape(-1, 4)
    p = 1.0 / log.n_pairs
    n_lam = counts.sum(axis=1, keepdims=True)
    z = np.abs(counts - n_lam * p) / np.sqrt(n_lam * p * (1.0 - p))
    return BalanceReport(values, counts, max_abs_z=float(z.max(initial=0.0)))


# --- Serialization and rendering --------------------------------------------


def table_to_json_obj(table: OutcomeTable) -> dict:
    """``bell-lab.outcome-table.v2``: the parallel key arrays and the (n, 4) cell array,
    as the table's own numpy arrays; the compact JSON writer streams them as lists."""
    obj = {
        "schema": "bell-lab.outcome-table.v2",
        "key_mode": table.key_mode.value,
        "complete_rows": table.complete_rows,
        "leftover_trials": table.leftover_trials,
        "n_trials": table.n_trials,
        "lambda": table.lam,
        "cells": table.rows,
    }
    if table.t is not None:
        obj["t"] = table.t
    return obj


_COLUMN_HEADS = ("+(a,c)", "-(a,b)", "-(d,b)", "-(d,c)")


def render_table(table: OutcomeTable, max_rows: int = 24) -> str:
    """Plain-text view: complete rows sum to a number, partial rows to '?'.

    In (lambda, t) mode the one factual cell per row is starred — the column
    actually measured at that tick; the rest were never measured.
    """
    lines = []
    head = "  ".join(f"{h:>7}" for h in _COLUMN_HEADS)
    lines.append(f"{'key':>16}  {head}   sum")
    shown = table.rows[:max_rows].tolist()
    lams = table.lam[:max_rows].tolist()
    ticks = table.t[:max_rows].tolist() if table.t is not None else [None] * len(shown)
    for cells, lam, t in zip(shown, lams, ticks):
        complete = all(cells)
        key_txt = f"lam={lam}" if isinstance(lam, int) else f"lam={lam:.4f}"
        if t is not None:
            key_txt += f" t={t}"
        mark = " " if complete else "*"
        cells_txt = [f"{mark}{c:+d}".rjust(7) if c else f"{'?':>7}" for c in cells]
        sum_txt = f"{sum(cells):+d}" if complete else "?"
        lines.append(f"{key_txt:>16}  {'  '.join(cells_txt)}   {sum_txt}")
    if len(table.rows) > max_rows:
        lines.append(f"... ({len(table.rows) - max_rows} more rows)")
    lines.append(
        f"complete rows: {table.complete_rows}   leftover trials: {table.leftover_trials}"
        f"   total trials: {table.n_trials}"
    )
    return "\n".join(lines)
