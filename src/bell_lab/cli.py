"""Command-line surface: config-driven batch runs with frozen output schemas.

Config files are flat ``key = value`` text with dotted sections, angles in
degrees, and a strict schema: unknown or duplicate keys fail loudly with the
key and line named, because a silently ignored misspelling in a
correctness-critical tool is worse than an error.

Exit codes are fixed and scriptable:

* 0 — success (a bound VIOLATION verdict is a result, not an error)
* 2 — invalid config, thread count, oracle or table argument or input file,
  an output path that cannot be written, a run too large for memory, or a
  worker process that ended without its result (e.g. killed by a signal)
* 3 — model error or failed premise (e.g. anticorrelation pilot)
* 4 — table precondition (lambda-keyed reordering of a continuous source)
* 5 — enumeration size guard
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, rng
from .core import Setting, SettingQuad, chsh_pairs
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
from .oracle import (
    FiniteModel,
    enumerate_deterministic_strategies,
    exact_chsh,
    finite_model_from_json_obj,
    finite_model_to_json_obj,
    singlet_chsh,
    singlet_correlation,
)
from .simulate import (
    CorrelationEstimate,
    bell_statistic,
    chsh_statistic,
    estimate_correlations,
    experiment_pairs,
    resolve_threads,
    run_experiment,
    run_sums,
    run_sums_each,
    three_setting_statistic,
)
from .tables import (
    KeyMode,
    build_reordered_table,
    lln_balance_check,
    render_table,
    table_to_json_obj,
)

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
            outputs[name] = got[0]

    return ExperimentConfig(
        model=model, quad_deg=quad_deg, n_trials=n_trials, seed=seed, outputs=outputs
    )


def parse_config_file(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return parse_config_text(text)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical config text; parse(serialize(parse(x))) is a fixed point."""
    lines = [f"model.kind = {cfg.model.name}"]
    if isinstance(cfg.model.source, DiscreteSource):
        lines.append("model.source.kind = discrete")
        lines.append("model.source.weights = " + " ".join(repr(w) for w in cfg.model.source.weights))
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
    return "sha256:" + hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()


# --- Shared report plumbing ---------------------------------------------------


def _model_json(model: ModelSpec) -> dict:
    source: dict = {"kind": "uniform_angle"}
    if isinstance(model.source, DiscreteSource):
        source = {"kind": "discrete", "weights": list(model.source.weights)}
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


def _make_parent(path: str) -> None:
    """Create the directory that ``path`` names a file in, if it is missing."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)


def _write_json(path: str, obj: dict, compact: bool = False) -> None:
    """Write ``obj`` with sorted keys, indented, or on one line without spaces if ``compact``."""
    _make_parent(path)
    with open(path, "w") as fh:
        if compact:
            # json.dumps without indent runs the C encoder; json.dump never does.
            fh.write(json.dumps(obj, separators=(",", ":"), sort_keys=True))
        else:
            json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_output(cfg: ExperimentConfig, out_dir: str | None, name: str, default: str | None) -> str | None:
    """Config path wins (joined under --out if relative); --out alone uses defaults."""
    configured = cfg.outputs.get(name)
    if configured is not None:
        if out_dir is not None and not os.path.isabs(configured):
            return os.path.join(out_dir, configured)
        return configured
    if out_dir is not None and default is not None:
        return os.path.join(out_dir, default)
    return None


# --- simulate ------------------------------------------------------------------


def _sweep_rows(cfg: ExperimentConfig, threads: int) -> list[tuple[float, float, float, float, float]]:
    """Angle-vs-correlation plot data: MC estimate plus both references."""
    n = min(cfg.n_trials, 50_000)
    angles = range(0, 181, 5)
    runs = [
        ([(Setting(0.0), Setting(math.radians(angle_deg)))], n, int(rng.hash_words(cfg.seed, "sweep", k)))
        for k, angle_deg in enumerate(angles)
    ]
    rows = []
    for angle_deg, sums in zip(angles, run_sums_each(cfg.model, runs, threads)):
        theta = math.radians(angle_deg)
        est = estimate_correlations(sums[-1])[0]
        classical = -1.0 + 2.0 * theta / math.pi
        rows.append((float(angle_deg), est.mean, est.std_error, classical, -math.cos(theta)))
    return rows


def _write_csv(path: str, header: str, rows) -> None:
    """Write the ``header`` line, then each row's values as ``repr`` texts joined by commas."""
    _make_parent(path)
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
    log_path = _resolve_output(cfg, args.out, "trial_log", None)
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

    report_path = _resolve_output(cfg, args.out, "report", "report.json")
    if report_path:
        _write_json(report_path, report)
        print(f"  report -> {report_path}")
    if log_path:
        _make_parent(log_path)
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
    report = _report_header(cfg)
    report["schema"] = "bell-lab.check.v1"
    quad = cfg.quad

    print(f"bell-lab check: {'quantum reference' if args.quantum_reference else cfg.model.name}")

    if args.quantum_reference:
        # Exact singlet reference: no sampling, zero standard error.
        def exact(pairs):
            return [CorrelationEstimate(i, singlet_correlation(s1, s2), 0.0, 0) for i, (s1, s2) in enumerate(pairs)]

        estimates = exact((s1, s2) for s1, s2, _sign in chsh_pairs(quad))
        bell = three_setting_statistic(*exact([(quad.a, quad.b), (quad.a, quad.c), (quad.b, quad.c)]))
        flags = {"setting_dependent_distribution": False}
    else:
        estimates = estimate_correlations(
            run_sums(cfg.model, experiment_pairs(quad), cfg.n_trials, cfg.seed, threads=threads)[-1]
        )
        bell = bell_statistic(cfg.model, quad.a, quad.b, quad.c, cfg.n_trials, cfg.seed, threads=threads)
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
    report_path = _resolve_output(cfg, args.out, "report", "check.json")
    if report_path:
        _write_json(report_path, report)
        print(f"  report -> {report_path}")
    return 0


# --- tables ----------------------------------------------------------------------


def cmd_tables(args) -> int:
    if args.max_rows < 0:
        raise ConfigError(f"--max-rows must be >= 0, got {args.max_rows}")
    cfg = parse_config_file(args.config)
    threads = _threads(args)
    key_mode = KeyMode(args.key_mode)
    log = run_experiment(cfg.model, cfg.quad, cfg.n_trials, cfg.seed, threads=threads)
    table = build_reordered_table(log, key_mode)
    complete = table.rows.all(axis=1)
    values, counts = np.unique(table.rows[complete].sum(axis=1, dtype=np.int64), return_counts=True)
    histogram = dict(zip(values.tolist(), counts.tolist()))
    undefined = len(table.rows) - table.complete_rows

    leftover_fraction = table.leftover_trials / table.n_trials if table.n_trials else 0.0
    print(f"bell-lab tables: key mode {key_mode.value}")
    print(render_table(table, max_rows=args.max_rows))
    print(f"  leftover fraction: {leftover_fraction:.4f}")
    if undefined:
        print(f"  undefined row sums: {undefined} (rows with counterfactual cells)")
    if histogram:
        hist_txt = ", ".join(f"{k:+d}: {v}" for k, v in sorted(histogram.items()))
        print(f"  row-sum histogram: {hist_txt}")

    lln_json = None
    if log.lambda_kind == "discrete":
        balance = lln_balance_check(log)
        print(f"  balance check: max |z| = {balance.max_abs_z:.3f} over {len(balance.per_key_pair_counts)} lambda values")
        lln_json = {
            "max_abs_z": balance.max_abs_z,
            "per_key_pair_counts": {str(k): list(v) for k, v in balance.per_key_pair_counts.items()},
        }
    else:
        print("  balance check: skipped (continuous lambda never repeats)")

    table_path = _resolve_output(cfg, args.out, "table", "table.json")
    if table_path:
        obj = _report_header(cfg)
        obj["schema"] = "bell-lab.table-report.v1"
        obj["table"] = table_to_json_obj(table)
        obj["row_sum_histogram"] = {str(k): v for k, v in sorted(histogram.items())}
        obj["undefined_row_sums"] = undefined
        obj["leftover_fraction"] = leftover_fraction
        obj["lln_balance"] = lln_json
        _write_json(table_path, obj, compact=True)
        print(f"  table -> {table_path}")
    return 0


# --- oracle ----------------------------------------------------------------------


def _digest_inputs(obj) -> str:
    return "sha256:" + hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def _emit_certificate(args, record: dict) -> None:
    text = json.dumps(record, indent=2, sort_keys=True)
    print(text)
    if args.out:
        path = os.path.join(args.out, f"oracle-{record['operation']}.json")
        _write_json(path, record)


def _load_finite_model(path: str) -> FiniteModel:
    """Read a finite-model JSON file; a missing, malformed or invalid file is a ConfigError naming it."""
    try:
        with open(path) as fh:
            return finite_model_from_json_obj(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError, OverflowError, InvalidSpec) as exc:
        raise ConfigError(f"cannot load finite-model file {path!r} ({type(exc).__name__}: {exc})") from None


def cmd_oracle(args) -> int:
    if args.oracle_op == "enumerate":
        try:
            result = enumerate_deterministic_strategies(args.settings1, args.settings2, args.m)
        except ValueError as exc:  # too few settings or lambda values
            raise ConfigError(str(exc)) from None
        record = {
            "operation": "enumerate",
            "inputs_digest": _digest_inputs(
                {"n_settings_1": args.settings1, "n_settings_2": args.settings2, "m": args.m}
            ),
            "value": result.max_abs_chsh,
            "certificate": {
                "vertices_scanned": result.vertices_scanned,
                "facets": [{"signs": list(signs), "max": top} for signs, top in result.facets],
                "argmax_a": result.a_table.tolist(),
                "argmax_b": result.b_table.tolist(),
            },
        }
        _emit_certificate(args, record)
        return 0

    quad_deg = args.quad_deg
    try:
        quad = SettingQuad.from_degrees(*quad_deg)
    except ValueError as exc:  # a non-finite angle
        raise ConfigError(f"--quad-deg: {exc}") from None
    if args.oracle_op == "quantum":
        value = singlet_chsh(quad)
        record = {
            "operation": "quantum",
            "inputs_digest": _digest_inputs({"quad_deg": quad_deg}),
            "value": value,
            "certificate": {
                "per_pair": [
                    {"setting_1_deg": s1.degrees, "setting_2_deg": s2.degrees, "sign": sign,
                     "correlation": singlet_correlation(s1, s2)}
                    for s1, s2, sign in chsh_pairs(quad)
                ],
            },
        }
        _emit_certificate(args, record)
        return 0

    # exact
    fm = _load_finite_model(args.model)
    overrides = [_load_finite_model(path) for path in args.per_pair] if args.per_pair else None
    value = exact_chsh(fm, quad, per_pair_distributions=overrides)
    record = {
        "operation": "exact",
        "inputs_digest": _digest_inputs(
            {
                "model": finite_model_to_json_obj(fm),
                "per_pair": [finite_model_to_json_obj(m) for m in overrides] if overrides else None,
                "quad_deg": quad_deg,
            }
        ),
        "value": value,
        "certificate": {"m": fm.m, "per_pair_overrides": bool(overrides)},
    }
    _emit_certificate(args, record)
    return 0


# --- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # unreadable inputs are ConfigErrors: this is an output write
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except WorkerFailed as exc:  # e.g. the OOM killer's SIGKILL
        print(f"worker error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. n_trials or model.source.size too large to allocate
        detail = str(exc) or "allocation failed"
        print(f"memory error: not enough memory for this run ({detail})", file=sys.stderr)
        return 2
    except AnticorrelationViolated as exc:
        print(
            f"model error: {exc}\n"
            "(the three-setting inequality is derived assuming perfect anticorrelation; "
            "a model that violates it at equal settings has no such statistic)",
            file=sys.stderr,
        )
        return 3
    except (InvalidSpec, InsufficientData, UnknownSetting) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except ContinuousLambdaUnorderable as exc:
        print(f"table precondition failed: {exc}", file=sys.stderr)
        return 4
    except TooLarge as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 5
    except BellLabError as exc:  # any future subtype: treat as model error
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
