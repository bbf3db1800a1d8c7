"""Command-line surface: config-driven batch runs with frozen output schemas.

Config files are flat ``key = value`` text with dotted sections, angles in
degrees, and a strict schema: unknown or duplicate keys fail loudly with the
key and line named, because a silently ignored misspelling in a
correctness-critical tool is worse than an error.

Exit codes are fixed and scriptable (``_EXITS`` gives each error's code and message):

* 0 — success (a bound VIOLATION verdict is a result, not an error)
* 2 — ``config error:``, ``output error:``, ``worker error:`` or ``memory
  error:``: an invalid config, thread count, oracle or table argument or input
  file, an output path that cannot be written, a worker process that ended
  without its result (e.g. killed by a signal), or a run too large for memory
* 3 — ``model error:`` or ``error:``: model error or failed premise (e.g.
  anticorrelation pilot)
* 4 — ``table precondition failed:`` lambda-keyed reordering of a continuous source
* 5 — ``size guard:`` enumeration size guard
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

# CPython's built-in sha256: importing hashlib maps OpenSSL's libcrypto, 3.7 MB of
# every command's peak RSS.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # a build without CPython's own hashes

import numpy as np

from . import __version__, rng
from .core import KeyMode, Setting, SettingQuad, chsh_pairs
from .errors import (
    AnticorrelationViolated,
    BellLabError,
    ConfigError,
    ContinuousLambdaUnorderable,
    InsufficientData,
    InvalidSpec,
    TooLarge,
    UnknownSetting,
    WorkerFailed,
)
from .models import (
    FAMILIES,
    DiscreteSource,
    ModelSpec,
    UniformAngleSource,
)
from .simulate import (
    _CSV_BLOCK_ROWS,
    CorrelationEstimate,
    chsh_statistic,
    estimate_correlations,
    experiment_pairs,
    require_anticorrelation,
    resolve_threads,
    run_experiment,
    run_sums,
    run_sums_each,
    three_setting_pairs,
    three_setting_statistic,
)

# ``oracle`` and ``tables`` are imported inside the commands that use them, so that
# ``simulate`` and ``check`` never compile or run them.
if TYPE_CHECKING:
    from .oracle import FiniteModel

CHSH_LOCAL_BOUND = 2.0
SIGMA_BAND = 4.0

# Largest n_trials a config may ask for: about a day of a no-log simulate at
# the 1.2e7 trials/s that two worker processes reach on a 2-vCPU host (Xeon,
# 2 MB L2 per core, factorizable_instrument). A run holds no array as long as
# itself unless it writes a trial log or a table, so without this bound a
# mistyped exponent would run for years instead of failing.
MAX_TRIALS = 10**12

_PARAM_KEYS = {f"model.{name}" for family in FAMILIES.values() for name in family.parameters()}
_CONFIG_KEYS = frozenset(
    {
        "model.kind",
        "model.source.kind",
        "model.source.size",
        "model.source.weights",
        *_PARAM_KEYS,
        "quad.a_deg",
        "quad.b_deg",
        "quad.c_deg",
        "quad.d_deg",
        "n_trials",
        "seed",
        "outputs.trial_log",
        "outputs.report",
        "outputs.table",
    }
)


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    quad_deg: tuple[float, float, float, float]
    n_trials: int
    seed: int
    outputs: dict[str, str] = field(default_factory=dict)

    @property
    def quad(self) -> SettingQuad:
        return SettingQuad.from_degrees(*self.quad_deg)


# --- Config parsing -----------------------------------------------------------


def _split_entries(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", line=lineno)
        if key not in _CONFIG_KEYS:
            raise ConfigError("unknown config key", key=key, line=lineno)
        if key in entries:
            raise ConfigError("duplicate config key", key=key, line=lineno)
        if not value:
            raise ConfigError("empty value", key=key, line=lineno)
        entries[key] = (value, lineno)
    return entries


def _require(entries: dict[str, tuple[str, int]], key: str) -> tuple[str, int]:
    got = entries.get(key)
    if got is None:
        raise ConfigError("missing required key", key=key)
    return got


def _forbid(entries: dict[str, tuple[str, int]], key: str, why: str) -> None:
    got = entries.get(key)
    if got is not None:
        raise ConfigError(why, key=key, line=got[1])


def _as_int(key: str, raw: tuple[str, int]) -> int:
    value, lineno = raw
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"expected an integer, got {value!r}", key=key, line=lineno) from None


def _as_float(key: str, raw: tuple[str, int]) -> float:
    value, lineno = raw
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"expected a number, got {value!r}", key=key, line=lineno) from None
    if not math.isfinite(out):
        raise ConfigError(f"expected a finite number, got {value!r}", key=key, line=lineno)
    return out


def _as_float_list(key: str, raw: tuple[str, int]) -> tuple[float, ...]:
    value, lineno = raw
    parts = value.replace(",", " ").split()
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"expected a list of numbers, got {value!r}", key=key, line=lineno) from None


def parse_config_text(text: str) -> ExperimentConfig:
    entries = _split_entries(text)

    kind_raw = _require(entries, "model.kind")
    family = FAMILIES.get(kind_raw[0])
    if family is None:
        raise ConfigError(
            f"unknown model kind {kind_raw[0]!r}; expected one of {sorted(FAMILIES)}",
            key="model.kind",
            line=kind_raw[1],
        )

    source_kind_raw = entries.get("model.source.kind")
    source_kind = source_kind_raw[0] if source_kind_raw else "uniform_angle"
    if source_kind == "uniform_angle":
        _forbid(entries, "model.source.size", "only valid for a discrete source")
        _forbid(entries, "model.source.weights", "only valid for a discrete source")
        source = UniformAngleSource()
    elif source_kind == "discrete":
        size_raw = entries.get("model.source.size")
        weights_raw = entries.get("model.source.weights")
        if (size_raw is None) == (weights_raw is None):
            raise ConfigError(
                "a discrete source needs exactly one of model.source.size or model.source.weights",
                key="model.source.kind",
            )
        try:
            if size_raw is not None:
                source = DiscreteSource.uniform(_as_int("model.source.size", size_raw))
            else:
                source = DiscreteSource(_as_float_list("model.source.weights", weights_raw))
        except InvalidSpec as exc:
            key = "model.source.size" if size_raw is not None else "model.source.weights"
            raise ConfigError(str(exc), key=key) from None
    else:
        raise ConfigError(
            f"unknown source kind {source_kind!r}; expected 'uniform_angle' or 'discrete'",
            key="model.source.kind",
            line=source_kind_raw[1] if source_kind_raw else None,
        )

    params = {}
    for key in sorted(_PARAM_KEYS & entries.keys()):
        name = key.removeprefix("model.")
        if name not in family.parameters():
            owners = " or ".join(n for n, other in FAMILIES.items() if name in other.parameters())
            raise ConfigError(f"only valid for model.kind = {owners}", key=key, line=entries[key][1])
        params[name] = _as_float(key, entries[key])

    try:
        model = family(source, **params)
    except InvalidSpec as exc:
        raise ConfigError(str(exc), key="model.kind") from None

    quad_deg = tuple(_as_float(k, _require(entries, k)) for k in ("quad.a_deg", "quad.b_deg", "quad.c_deg", "quad.d_deg"))

    n_raw = _require(entries, "n_trials")
    n_trials = _as_int("n_trials", n_raw)
    if not 1 <= n_trials <= MAX_TRIALS:
        message = f"n_trials must be between 1 and {MAX_TRIALS:,}, got {n_trials}"
        raise ConfigError(message, key="n_trials", line=n_raw[1])

    seed_raw = _require(entries, "seed")
    seed = _as_int("seed", seed_raw)
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must fit in 64 unsigned bits", key="seed", line=seed_raw[1])

    outputs = {}
    for name in ("trial_log", "report", "table"):
        got = entries.get(f"outputs.{name}")
        if got is not None:
            if "\0" in got[0]:  # no file system takes a NUL byte in a path
                raise ConfigError("an output path must not contain a NUL byte", key=f"outputs.{name}", line=got[1])
            outputs[name] = got[0]

    return ExperimentConfig(
        model=model, quad_deg=quad_deg, n_trials=n_trials, seed=seed, outputs=outputs
    )


def parse_config_file(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return parse_config_text(text)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical config text; parse(serialize(parse(x))) is a fixed point."""
    lines = [f"model.kind = {cfg.model.name}"]
    if isinstance(cfg.model.source, DiscreteSource):
        lines.append("model.source.kind = discrete")
        from . import text  # the number text kernel, loaded where an array is written

        lines.append("model.source.weights = " + text.join(text.cells(cfg.model.source.weight_array), b" ").decode())
    else:
        lines.append("model.source.kind = uniform_angle")
    for name in cfg.model.parameters():
        lines.append(f"model.{name} = {getattr(cfg.model, name)!r}")
    for name, value in zip(("a", "b", "c", "d"), cfg.quad_deg):
        lines.append(f"quad.{name}_deg = {value!r}")
    lines.append(f"n_trials = {cfg.n_trials}")
    lines.append(f"seed = {cfg.seed}")
    for name in sorted(cfg.outputs):
        lines.append(f"outputs.{name} = {cfg.outputs[name]}")
    return "\n".join(lines) + "\n"


def config_digest(cfg: ExperimentConfig) -> str:
    return "sha256:" + sha256(serialize_config(cfg).encode("utf-8")).hexdigest()


# --- Shared report plumbing ---------------------------------------------------


def _model_json(model: ModelSpec) -> dict:
    source: dict = {"kind": "uniform_angle"}
    if isinstance(model.source, DiscreteSource):
        source = {"kind": "discrete", "weights": model.source.weight_array}
    params = {name: getattr(model, name) for name in model.parameters()}
    return {"kind": model.name, "source": source, **params}


def _report_header(cfg: ExperimentConfig) -> dict:
    return {
        "tool": "bell-lab",
        "version": __version__,
        "config_digest": config_digest(cfg),
        "seed": cfg.seed,
        "n_trials": cfg.n_trials,
        "model": _model_json(cfg.model),
        "quad_deg": list(cfg.quad_deg),
    }


def _estimates_json(cfg: ExperimentConfig, estimates) -> list[dict]:
    pairs = chsh_pairs(cfg.quad)
    out = []
    for est, (s1, s2, sign) in zip(estimates, pairs):
        out.append(
            {
                "pair_id": est.pair_id,
                "sign": sign,
                "setting_1_deg": s1.degrees,
                "setting_2_deg": s2.degrees,
                "mean": est.mean,
                "std_error": est.std_error,
                "count": est.count,
            }
        )
    return out


def _make_parent(path: str | None) -> str | None:
    """Create the directory that ``path`` (None for no output) names a file in, if it is
    missing, and return ``path``; a path that names a directory is an ``IsADirectoryError``,
    as ``open`` would raise. Each command checks each output path so before it runs or prints."""
    if path:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return path


# Stands in for each numpy array in the text; json.dumps writes it as "\u0000ndarray\u0000".
_ARRAY_MARK = "\0ndarray\0"


class _Keyed:
    """A JSON object held as two arrays: key ``str(keys[i])``, of an integer array, holds
    item i of ``values``, a number of a 1-D array or a row of a 2-D one. A plain class,
    not a dataclass, so that importing ``cli`` generates no code for it."""

    __slots__ = ("keys", "values")

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        self.keys, self.values = keys, values


def _write_json(path: str, obj: dict, compact: bool = False) -> None:
    """Write ``obj`` with sorted keys, indented by two spaces, or on one line without
    spaces if ``compact``: the text of ``json.dumps`` with ``sort_keys=True`` and
    ``indent=2`` or ``separators=(",", ":")``.

    The object may hold numpy arrays of integers or finite floats, 1-D in either layout
    and 2-D (a list of rows) in a compact file, and ``_Keyed`` objects of such arrays:
    ``json.dumps`` writes a mark for each, and ``_write_json_array`` writes the array, or
    the object, in its place, a block of rows at a time, as the text ``json.dumps`` gives
    its ``tolist()`` (or its dict). So no array becomes a list of Python numbers, which
    the pure-Python encoder that ``indent`` runs would write one at a time.
    """
    arrays = []

    def mark(value):
        if not isinstance(value, (np.ndarray, _Keyed)):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        arrays.append((value.values, value.keys) if isinstance(value, _Keyed) else (value, None))
        return _ARRAY_MARK

    layout = {"separators": (",", ":")} if compact else {"indent": 2}
    pieces = json.dumps(obj, sort_keys=True, default=mark, **layout).split(json.dumps(_ARRAY_MARK))
    if len(pieces) != len(arrays) + 1:
        raise ValueError(f"a string of the object equals the array mark {_ARRAY_MARK!r}")
    with open(path, "w") as fh:
        fh.write(pieces[0])
        for (array, keys), before, after in zip(arrays, pieces, pieces[1:]):
            line = before.rpartition("\n")[2]  # the mark's line, up to the mark
            _write_json_array(fh, array, None if compact else len(line) - len(line.lstrip(" ")), keys)
            fh.write(after)
        fh.write("\n")


def _write_json_array(fh, array: np.ndarray, indent: int | None = None, keys: np.ndarray | None = None) -> None:
    """Write a 1-D array as a JSON list, or a 2-D one as a list of row lists, a block of
    rows at a time. Each value's text is ``str`` of its value (``text.cells``), which is
    its JSON text for integers and finite floats. With an ``indent``, the indent of the
    line that holds the list, a non-empty 1-D list puts each item on its own line
    ``indent + 2`` spaces in and its closing bracket on one of its own, as
    ``json.dumps(indent=2)``. With ``keys``, it writes the JSON object whose key
    ``str(keys[i])`` holds item i instead, keys in the order of their text, as
    ``json.dumps(sort_keys=True)`` orders them: "10" before "2"."""
    from . import text  # the number text kernel, loaded where an array is written

    pad = "" if indent is None or not len(array) else "\n" + " " * (indent + 2)
    order = None if keys is None else text.order(keys)
    fh.write(("[" if keys is None else "{") + pad)
    for lo in range(0, len(array), _CSV_BLOCK_ROWS):
        rows = slice(lo, lo + _CSV_BLOCK_ROWS) if order is None else order[lo : lo + _CSV_BLOCK_ROWS]
        block = array[rows]
        if block.ndim == 1:
            cells = text.cells(block)
        else:  # each row as its columns' cells in brackets
            cells = text.rows([text.cells(column) for column in block.T], start=b"[", end=b"]")
        if keys is not None:  # each item as "key":item, or "key": item when indented
            cells = text.rows([text.cells(keys[rows]), cells], sep=b'":' if indent is None else b'": ', start=b'"')
        fh.write(("," + pad if lo else "") + text.join(cells, ("," + pad).encode()).decode())
    fh.write(pad[:-2] + ("]" if keys is None else "}"))  # the closing bracket's line is ``indent`` spaces in


def _resolve_output(cfg: ExperimentConfig, out_dir: str | None, name: str, default: str | None) -> str | None:
    """Config path wins (joined under --out if relative; the join keeps an absolute one);
    --out alone uses defaults. Checked by ``_make_parent``."""
    path = cfg.outputs.get(name, None if out_dir is None else default)
    return _make_parent(path if path is None or out_dir is None else os.path.join(out_dir, path))


# --- simulate ------------------------------------------------------------------


def _sweep_rows(cfg: ExperimentConfig, threads: int) -> list[tuple[float, float, float, float, float]]:
    """Angle-vs-correlation plot data: MC estimate plus both references."""
    n = min(cfg.n_trials, 50_000)
    angles = range(0, 181, 5)
    runs = [
        ([(Setting(0.0), Setting(math.radians(angle_deg)))], range(n), int(rng.hash_words(cfg.seed, "sweep", k)))
        for k, angle_deg in enumerate(angles)
    ]
    rows = []
    for angle_deg, sums in zip(angles, run_sums_each(cfg.model, runs, threads)):
        theta = math.radians(angle_deg)
        est = estimate_correlations(sums)[0]
        classical = -1.0 + 2.0 * theta / math.pi
        rows.append((float(angle_deg), est.mean, est.std_error, classical, -math.cos(theta)))
    return rows


def _write_csv(path: str, header: str, rows) -> None:
    """Write the ``header`` line, then each row's values as ``repr`` texts joined by commas."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def _convergence_checkpoints(n_trials: int) -> list[int]:
    """The convergence prefixes: 16, 32, 64, ... below n_trials, then n_trials."""
    return [16 << k for k in range((n_trials - 1).bit_length() - 4)] + [n_trials]


def _convergence_rows(checkpoints: list[int], sums):
    """One row per prefix; a prefix with fewer than 2 trials of some pair is left out."""
    for n, prefix in zip(checkpoints, sums):
        try:
            stat = chsh_statistic(estimate_correlations(prefix))
        except InsufficientData:
            continue
        yield n, stat.value, stat.std_error


def _threads(args) -> int:
    """``--threads`` or BELL_LAB_THREADS, validated; a bad value is a ConfigError."""
    try:
        return resolve_threads(args.threads)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_simulate(args) -> int:
    cfg = parse_config_file(args.config)
    threads = _threads(args)
    report_path = _resolve_output(cfg, args.out, "report", "report.json")
    log_path = _resolve_output(cfg, args.out, "trial_log", None)
    _make_parent(args.sweep)
    _make_parent(args.convergence)
    checkpoints = _convergence_checkpoints(cfg.n_trials) if args.convergence else [cfg.n_trials]
    # Only the trial log needs every column; the reports read each pair's sums.
    if log_path:
        log = run_experiment(cfg.model, cfg.quad, cfg.n_trials, cfg.seed, threads=threads)
        sums = log.pair_sums(checkpoints)
    else:
        sums = run_sums(cfg.model, experiment_pairs(cfg.quad), cfg.n_trials, cfg.seed, threads, checkpoints)
    estimates = estimate_correlations(sums[-1])
    stat = chsh_statistic(estimates)

    report = _report_header(cfg)
    report["schema"] = "bell-lab.report.v1"
    report["estimates"] = _estimates_json(cfg, estimates)
    report["chsh"] = {"value": stat.value, "std_error": stat.std_error, "flags": cfg.model.flags}

    print(f"bell-lab simulate: {cfg.model.name}, n_trials={cfg.n_trials}, seed={cfg.seed}")
    for e in report["estimates"]:
        print(
            f"  pair {e['pair_id']} ({e['setting_1_deg']:g}, {e['setting_2_deg']:g}) deg, sign {e['sign']:+d}: "
            f"E = {e['mean']:+.6f} +/- {e['std_error']:.6f}  (n={e['count']})"
        )
    print(f"  four-term statistic = {stat.value:+.6f} +/- {stat.std_error:.6f}")
    if cfg.model.setting_dependent_distribution:
        print("  flag: setting_dependent_distribution = true")

    if report_path:
        _write_json(report_path, report)
        print(f"  report -> {report_path}")
    if log_path:
        log.to_csv(log_path)
        print(f"  trial log -> {log_path}")
    if args.sweep:
        header = "angle_deg,mc_mean,mc_std_error,classical_closed_form,singlet_reference"
        _write_csv(args.sweep, header, _sweep_rows(cfg, threads))
        print(f"  correlation sweep -> {args.sweep}")
    if args.convergence:
        _write_csv(args.convergence, "n_trials,chsh_value,chsh_std_error", _convergence_rows(checkpoints, sums))
        print(f"  convergence data -> {args.convergence}")
    return 0


# --- check ----------------------------------------------------------------------


def _verdict_line(name: str, ok: bool, detail: str) -> str:
    return f"  {name}: {'PASS' if ok else 'VIOLATION'} ({detail})"


def cmd_check(args) -> int:
    cfg = parse_config_file(args.config)
    threads = _threads(args)
    report_path = _resolve_output(cfg, args.out, "report", "check.json")
    report = _report_header(cfg)
    report["schema"] = "bell-lab.check.v1"
    quad = cfg.quad

    print(f"bell-lab check: {'quantum reference' if args.quantum_reference else cfg.model.name}")

    if args.quantum_reference:
        from .oracle import singlet_correlation

        # Exact singlet reference: no sampling, zero standard error.
        def exact(pairs):
            return [CorrelationEstimate(i, singlet_correlation(s1, s2), 0.0, 0) for i, (s1, s2) in enumerate(pairs)]

        estimates = exact(experiment_pairs(quad))
        bell = three_setting_statistic(*exact(three_setting_pairs(quad.a, quad.b, quad.c)))
        flags = {"setting_dependent_distribution": False}
    else:
        # The pilot tests the inequality's premise, so a model that fails it ends the
        # command before any run. The three-pair and four-pair runs share their seed and
        # trials, so one pass evaluates both on the same die and source words; the
        # three-pair estimates come first, as in bell_statistic.
        require_anticorrelation(cfg.model, quad.a, quad.b, quad.c, cfg.seed)
        pairs = (three_setting_pairs(quad.a, quad.b, quad.c), experiment_pairs(quad))
        three, four = run_sums_each(cfg.model, [(p, range(cfg.n_trials), cfg.seed) for p in pairs], threads)
        bell = three_setting_statistic(*estimate_correlations(three))
        estimates = estimate_correlations(four)
        flags = cfg.model.flags
    report["estimates"] = _estimates_json(cfg, estimates)
    stat = chsh_statistic(estimates)
    lhs, rhs, margin, bell_se = bell.lhs, bell.rhs, bell.margin, bell.std_error
    chsh_value, chsh_se = stat.value, stat.std_error
    bell_ok = margin >= -SIGMA_BAND * bell_se
    chsh_excess = abs(chsh_value) - CHSH_LOCAL_BOUND
    chsh_ok = chsh_excess <= SIGMA_BAND * chsh_se

    def sigmas(x: float, se: float) -> str:
        if se == 0.0:
            return "exact"
        return f"{x / se:+.2f} sigma"

    print(
        _verdict_line(
            "three-setting inequality",
            bell_ok,
            f"lhs={lhs:.6f} rhs={rhs:.6f} margin={margin:+.6f}, {sigmas(margin, bell_se)}",
        )
    )
    print(
        _verdict_line(
            "four-term bound <= 2",
            chsh_ok,
            f"value={chsh_value:+.6f} excess={chsh_excess:+.6f}, {sigmas(chsh_excess, chsh_se)}",
        )
    )

    report["bell"] = {
        "settings_deg": [quad.a.degrees, quad.b.degrees, quad.c.degrees],
        "lhs": lhs,
        "rhs": rhs,
        "margin": margin,
        "std_error": bell_se,
        "verdict": "PASS" if bell_ok else "VIOLATION",
    }
    report["chsh"] = {
        "value": chsh_value,
        "std_error": chsh_se,
        "bound": CHSH_LOCAL_BOUND,
        "flags": flags,
        "verdict": "PASS" if chsh_ok else "VIOLATION",
    }
    if report_path:
        _write_json(report_path, report)
        print(f"  report -> {report_path}")
    return 0


# --- tables ----------------------------------------------------------------------


def cmd_tables(args) -> int:
    from .tables import build_reordered_table, lln_balance_check, render_table, require_orderable, table_to_json_obj

    if args.max_rows < 0:
        raise ConfigError(f"--max-rows must be >= 0, got {args.max_rows}")
    cfg = parse_config_file(args.config)
    threads = _threads(args)
    key_mode = KeyMode(args.key_mode)
    discrete = isinstance(cfg.model.source, DiscreteSource)
    require_orderable(key_mode, discrete)  # before the output path: an input bad in both ways exits 4
    table_path = _resolve_output(cfg, args.out, "table", "table.json")
    log = run_experiment(cfg.model, cfg.quad, cfg.n_trials, cfg.seed, threads=threads)
    table = build_reordered_table(log, key_mode)
    complete = table.rows.all(axis=1)
    sums, sum_counts = np.unique(table.rows[complete].sum(axis=1, dtype=np.int64), return_counts=True)
    undefined = len(complete) - int(np.count_nonzero(complete))

    leftover_fraction = table.leftover_trials / table.n_trials
    print(f"bell-lab tables: key mode {key_mode.value}")
    print(render_table(table, max_rows=args.max_rows))
    print(f"  leftover fraction: {leftover_fraction:.4f}")
    if undefined:
        print(f"  undefined row sums: {undefined} (rows with counterfactual cells)")
    if len(sums):
        hist_txt = ", ".join(f"{k:+d}: {v}" for k, v in zip(sums.tolist(), sum_counts.tolist()))
        print(f"  row-sum histogram: {hist_txt}")

    lln_json = None
    if discrete:
        balance = table.balance or lln_balance_check(log)  # a lambda-mode table holds its counts
        print(f"  balance check: max |z| = {balance.max_abs_z:.3f} over {len(balance.values)} lambda values")
        lln_json = {"max_abs_z": balance.max_abs_z, "per_key_pair_counts": _Keyed(balance.values, balance.counts)}
    else:
        print("  balance check: skipped (continuous lambda never repeats)")

    if table_path:
        obj = _report_header(cfg)
        obj["schema"] = "bell-lab.table-report.v1"
        obj["table"] = table_to_json_obj(table)
        obj["row_sum_histogram"] = _Keyed(sums, sum_counts)
        obj["undefined_row_sums"] = undefined
        obj["leftover_fraction"] = leftover_fraction
        obj["lln_balance"] = lln_json
        _write_json(table_path, obj, compact=True)
        print(f"  table -> {table_path}")
    return 0


# --- oracle ----------------------------------------------------------------------


def _digest_inputs(obj) -> str:
    return "sha256:" + sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def _load_finite_model(path: str) -> FiniteModel:
    """Read a finite-model JSON file; a missing, malformed or invalid file is a ConfigError naming it."""
    from .oracle import finite_model_from_json_obj

    try:
        with open(path) as fh:
            return finite_model_from_json_obj(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError, OverflowError, InvalidSpec) as exc:
        raise ConfigError(f"cannot load finite-model file {path!r} ({type(exc).__name__}: {exc})") from None


def cmd_oracle(args) -> int:
    from .oracle import (
        enumerate_deterministic_strategies,
        exact_chsh,
        finite_model_to_json_obj,
        singlet_chsh,
        singlet_correlation,
    )

    if args.oracle_op == "enumerate":
        try:
            result = enumerate_deterministic_strategies(args.settings1, args.settings2, args.m)
        except ValueError as exc:  # too few settings or lambda values
            raise ConfigError(str(exc)) from None
        inputs = {"n_settings_1": args.settings1, "n_settings_2": args.settings2, "m": args.m}
        value = result.max_abs_chsh
        certificate = {
            "vertices_scanned": result.vertices_scanned,
            "facets": [{"signs": list(signs), "max": top} for signs, top in result.facets],
            "argmax_a": result.a_table.tolist(),
            "argmax_b": result.b_table.tolist(),
        }
    else:
        try:
            quad = SettingQuad.from_degrees(*args.quad_deg)
        except ValueError as exc:  # a non-finite angle
            raise ConfigError(f"--quad-deg: {exc}") from None
        inputs = {"quad_deg": args.quad_deg}
        if args.oracle_op == "quantum":
            value = singlet_chsh(quad)
            per_pair = [
                {"setting_1_deg": s1.degrees, "setting_2_deg": s2.degrees, "sign": sign,
                 "correlation": singlet_correlation(s1, s2)}
                for s1, s2, sign in chsh_pairs(quad)
            ]
            certificate = {"per_pair": per_pair}
        else:
            fm = _load_finite_model(args.model)
            overrides = [_load_finite_model(path) for path in args.per_pair] if args.per_pair else None
            value = exact_chsh(fm, quad, per_pair_distributions=overrides)
            inputs["model"] = finite_model_to_json_obj(fm)
            inputs["per_pair"] = [finite_model_to_json_obj(m) for m in overrides] if overrides else None
            certificate = {"m": fm.m, "per_pair_overrides": bool(overrides)}

    record = {"operation": args.oracle_op, "inputs_digest": _digest_inputs(inputs), "value": value,
              "certificate": certificate}
    path = _make_parent(os.path.join(args.out, f"oracle-{args.oracle_op}.json") if args.out else None)
    text = json.dumps(record, indent=2, sort_keys=True)
    print(text)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return 0


# --- entry point -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every argument that ``float`` reads as a value, never
    as an option: argparse itself takes -10 and -1.5 for numbers but -1e1 and -inf for
    unknown options, so ``--quad-deg -1e1 45 135 90`` would lack an angle. Subparsers
    are made of the same class."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bell-lab",
        description="Simulation and verification laboratory for two-station correlation experiments",
    )
    parser.add_argument("--version", action="version", version=f"bell-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--out", default=None, help="directory for output files")
        p.add_argument(
            "--threads", type=int, default=None,
            help="worker processes, at most one per core (default: BELL_LAB_THREADS or 1)",
        )

    p_sim = sub.add_parser("simulate", help="run an experiment and report per-pair correlations")
    add_common(p_sim)
    p_sim.add_argument("--sweep", default=None, help="write angle-vs-correlation CSV plot data here")
    p_sim.add_argument("--convergence", default=None, help="write statistic-vs-N CSV plot data here")
    p_sim.set_defaults(func=cmd_simulate)

    p_check = sub.add_parser("check", help="evaluate the inequality verdicts")
    add_common(p_check)
    p_check.add_argument(
        "--quantum-reference",
        action="store_true",
        help="use the exact singlet reference correlation instead of simulating",
    )
    p_check.set_defaults(func=cmd_check)

    p_tab = sub.add_parser("tables", help="build the reordered outcome table")
    add_common(p_tab)
    p_tab.add_argument(
        "--key-mode",
        choices=[m.value for m in KeyMode],
        default=KeyMode.LAMBDA_ONLY.value,
        help="row key: lambda (reordering) or lambda-time (the obstruction)",
    )
    p_tab.add_argument("--max-rows", type=int, default=24, help="rows to print in the text view")
    p_tab.set_defaults(func=cmd_tables)

    p_orc = sub.add_parser("oracle", help="exact finite-space computations")
    orc_sub = p_orc.add_subparsers(dest="oracle_op", required=True)

    p_enum = orc_sub.add_parser("enumerate", help="local bound from the 16 local-polytope vertices and 8 facets")
    p_enum.add_argument("--m", type=int, required=True, help="lambda space size")
    p_enum.add_argument("--settings1", type=int, default=2)
    p_enum.add_argument("--settings2", type=int, default=2)
    p_enum.add_argument("--out", default=None, help="directory for the certificate file")
    p_enum.set_defaults(func=cmd_oracle)

    p_exact = orc_sub.add_parser("exact", help="exact statistic of a finite model")
    p_exact.add_argument("--model", required=True, help="finite-model JSON file")
    p_exact.add_argument("--quad-deg", type=float, nargs=4, required=True, metavar=("A", "B", "C", "D"))
    p_exact.add_argument("--per-pair", nargs=4, default=None, metavar=("M0", "M1", "M2", "M3"),
                         help="per-column finite-model JSON overrides")
    p_exact.add_argument("--out", default=None, help="directory for the certificate file")
    p_exact.set_defaults(func=cmd_oracle)

    p_quant = orc_sub.add_parser("quantum", help="singlet reference statistic")
    p_quant.add_argument("--quad-deg", type=float, nargs=4, required=True, metavar=("A", "B", "C", "D"))
    p_quant.add_argument("--out", default=None, help="directory for the certificate file")
    p_quant.set_defaults(func=cmd_oracle)

    return parser


# README's exit-code table: an error type, its exit code and its stderr message. The first row
# an error matches wins, so ConfigError and WorkerFailed stay above their base class BellLabError.
_EXITS = (
    (ConfigError, 2, "config error: {}"),
    (OSError, 2, "output error: {}"),  # unreadable inputs are ConfigErrors: this is an output write
    (WorkerFailed, 2, "worker error: {}"),  # e.g. the OOM killer's SIGKILL
    (MemoryError, 2, "memory error: not enough memory for this run ({})"),  # e.g. a source too large to allocate
    (AnticorrelationViolated, 3, "model error: {}\n(the three-setting inequality is derived assuming perfect "
     "anticorrelation; a model that violates it at equal settings has no such statistic)"),
    ((InvalidSpec, InsufficientData, UnknownSetting), 3, "model error: {}"),
    (ContinuousLambdaUnorderable, 4, "table precondition failed: {}"),
    (TooLarge, 5, "size guard: {}"),
    (BellLabError, 3, "error: {}"),  # any future subtype: treat as model error
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BellLabError, OSError, MemoryError) as exc:
        code, message = next((code, message) for kinds, code, message in _EXITS if isinstance(exc, kinds))
        detail = "allocation failed" if isinstance(exc, MemoryError) and not str(exc) else exc
        print(message.format(detail), file=sys.stderr)
        return code


def entry() -> int:
    """The command entry of ``python -m bell_lab.cli`` and the ``bell-lab`` script.

    It moves every object alive after the imports, numpy's included, into the
    collector's permanent generation (``gc.freeze``) and then runs ``main``. No later
    collection walks those objects: not this process's, its final one at exit
    included, and not a forked worker's, which so leaves their pages shared with the
    parent. ``main`` itself never freezes: called in process, a freeze would make its
    caller's garbage permanent."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
