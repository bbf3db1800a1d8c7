"""bell-lab: simulation and verification laboratory for two-station
correlation experiments under local hidden-variable models.

The package's names load their module on first use (PEP 562): ``import bell_lab``
imports no submodule and no numpy, so a command that never builds a table or runs
an oracle never loads ``tables`` or ``oracle``.
"""

import importlib

__version__ = "0.2.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "core": ("CHSH_SIGNS", "KeyMode", "Setting", "SettingQuad", "chsh_pairs", "row_identity", "row_sum"),
    "errors": (
        "BellLabError", "InvalidSpec", "InsufficientData", "AnticorrelationViolated",
        "ContinuousLambdaUnorderable", "UnknownSetting", "TooLarge", "ConfigError", "WorkerFailed",
    ),
    "models": (
        "FAMILIES", "ModelSpec", "BellDeterministic", "FactorizableInstrument",
        "TimeTaggedAnticorrelated", "SettingPairDependent", "DiscreteSource",
        "UniformAngleSource", "Station", "AnticorrelationReport", "check_anticorrelation",
    ),
    "simulate": (
        "TrialLog", "CorrelationEstimate", "ChshStatistic", "BellStatistic",
        "run_experiment", "run_pairs", "run_sums", "experiment_pairs",
        "estimate_correlations", "chsh_statistic", "bell_statistic",
    ),
    "tables": (
        "OutcomeTable", "Sum", "Undefined", "BalanceReport", "build_reordered_table",
        "row_sums", "lln_balance_check", "render_table", "table_to_json_obj",
    ),
    "oracle": (
        "FiniteModel", "EnumerationResult", "exact_correlation", "exact_chsh",
        "enumerate_deterministic_strategies", "singlet_correlation", "singlet_chsh",
        "discretize_model", "forced_product_overrides",
    ),
    "rng": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    """A submodule, or a public name read from its module. The name is not cached
    here: it is the module's attribute at each use, so it follows a patched or
    restored function. The module import itself is cached in ``sys.modules``."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
