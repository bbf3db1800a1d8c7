"""bell-lab: simulation and verification laboratory for two-station
correlation experiments under local hidden-variable models."""

__version__ = "0.2.0"

from .core import (
    CHSH_SIGNS,
    Setting,
    SettingQuad,
    chsh_pairs,
    row_identity,
    row_sum,
)
from .errors import (
    AnticorrelationViolated,
    BellLabError,
    ConfigError,
    ContinuousLambdaUnorderable,
    InsufficientData,
    InvalidSpec,
    TooLarge,
    UnknownSetting,
)
from .models import (
    AnticorrelationReport,
    FAMILIES,
    BellDeterministic,
    DiscreteSource,
    FactorizableInstrument,
    ModelSpec,
    SettingPairDependent,
    Station,
    TimeTaggedAnticorrelated,
    UniformAngleSource,
    check_anticorrelation,
)
from .oracle import (
    EnumerationResult,
    FiniteModel,
    discretize_model,
    enumerate_deterministic_strategies,
    exact_chsh,
    exact_correlation,
    forced_product_overrides,
    singlet_chsh,
    singlet_correlation,
)
from .simulate import (
    BellStatistic,
    ChshStatistic,
    CorrelationEstimate,
    TrialLog,
    bell_statistic,
    chsh_statistic,
    estimate_correlations,
    experiment_pairs,
    run_experiment,
    run_pairs,
    run_sums,
)
from .tables import (
    BalanceReport,
    KeyMode,
    OutcomeTable,
    Sum,
    Undefined,
    build_reordered_table,
    lln_balance_check,
    render_table,
    row_sums,
    table_to_json_obj,
)

__all__ = [
    "__version__",
    # core
    "CHSH_SIGNS", "Setting", "SettingQuad", "chsh_pairs", "row_identity", "row_sum",
    # errors
    "BellLabError", "InvalidSpec", "InsufficientData", "AnticorrelationViolated",
    "ContinuousLambdaUnorderable", "UnknownSetting", "TooLarge", "ConfigError",
    # models
    "FAMILIES", "ModelSpec", "BellDeterministic", "FactorizableInstrument",
    "TimeTaggedAnticorrelated", "SettingPairDependent", "DiscreteSource",
    "UniformAngleSource", "Station", "AnticorrelationReport", "check_anticorrelation",
    # simulate
    "TrialLog", "CorrelationEstimate", "ChshStatistic", "BellStatistic",
    "run_experiment", "run_pairs", "run_sums", "experiment_pairs",
    "estimate_correlations", "chsh_statistic", "bell_statistic",
    # tables
    "KeyMode", "OutcomeTable", "Sum", "Undefined", "BalanceReport", "build_reordered_table",
    "row_sums", "lln_balance_check", "render_table", "table_to_json_obj",
    # oracle
    "FiniteModel", "EnumerationResult", "exact_correlation", "exact_chsh",
    "enumerate_deterministic_strategies", "singlet_correlation", "singlet_chsh",
    "discretize_model", "forced_product_overrides",
]
