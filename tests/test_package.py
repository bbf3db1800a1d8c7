"""The package namespace: every public name loads its module on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bell_lab

SUBMODULES = ("core", "errors", "models", "oracle", "rng", "simulate", "tables")

# The public names, by defining module.
PUBLIC = {
    "core": ("CHSH_SIGNS", "KeyMode", "Setting", "SettingQuad", "chsh_pairs", "row_identity", "row_sum"),
    "errors": ("AnticorrelationViolated", "BellLabError", "ConfigError", "ContinuousLambdaUnorderable",
               "InsufficientData", "InvalidSpec", "TooLarge", "UnknownSetting", "WorkerFailed"),
    "models": ("AnticorrelationReport", "BellDeterministic", "DiscreteSource", "FAMILIES", "FactorizableInstrument",
               "ModelSpec", "SettingPairDependent", "Station", "TimeTaggedAnticorrelated", "UniformAngleSource",
               "check_anticorrelation"),
    "simulate": ("BellStatistic", "ChshStatistic", "CorrelationEstimate", "TrialLog", "bell_statistic",
                 "chsh_statistic", "estimate_correlations", "experiment_pairs", "run_experiment", "run_pairs",
                 "run_sums"),
    "tables": ("BalanceReport", "OutcomeTable", "Sum", "Undefined", "build_reordered_table", "lln_balance_check",
               "render_table", "row_sums", "table_to_json_obj"),
    "oracle": ("EnumerationResult", "FiniteModel", "discretize_model", "enumerate_deterministic_strategies",
               "exact_chsh", "exact_correlation", "forced_product_overrides", "singlet_chsh",
               "singlet_correlation"),
}


def test_all_lists_every_public_name_once():
    names = [name for names in PUBLIC.values() for name in names]
    assert sorted(bell_lab.__all__) == sorted(["__version__", *names])
    assert len(set(bell_lab.__all__)) == len(bell_lab.__all__)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_defining_modules_object(module):
    owner = importlib.import_module(f"bell_lab.{module}")
    for name in PUBLIC[module]:
        value = getattr(bell_lab, name)
        assert value is getattr(owner, name), name
        if hasattr(value, "__qualname__"):
            assert value.__module__ == owner.__name__, name


def test_submodules_are_attributes():
    for name in SUBMODULES:
        assert getattr(bell_lab, name) is sys.modules[f"bell_lab.{name}"]
    assert bell_lab.tables.KeyMode is bell_lab.core.KeyMode


def test_star_import_binds_all():
    namespace = {}
    exec("from bell_lab import *", namespace)
    assert set(bell_lab.__all__) <= namespace.keys()
    assert namespace["run_pairs"] is bell_lab.simulate.run_pairs


def test_dir_lists_names_and_submodules():
    assert {*bell_lab.__all__, *SUBMODULES} <= set(dir(bell_lab))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        bell_lab.no_such_name  # noqa: B018
    # a submodule outside the table still imports by its own name
    from bell_lab import cli

    assert cli is sys.modules["bell_lab.cli"]


def test_a_name_follows_its_modules_attribute(monkeypatch):
    # Nothing is cached in the package: a patched function, and the original once the
    # patch is undone, is what the package gives.
    original = bell_lab.simulate.run_pairs
    with monkeypatch.context() as patch:
        patch.setattr(bell_lab.simulate, "run_pairs", lambda *args: None)
        assert bell_lab.run_pairs is bell_lab.simulate.run_pairs is not original
    assert bell_lab.run_pairs is original


def test_import_loads_no_submodule_and_no_numpy():
    script = (
        "import sys, bell_lab; "
        "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'bell_lab.'))); "
        "assert not loaded, loaded; "
        "assert bell_lab.__version__"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
