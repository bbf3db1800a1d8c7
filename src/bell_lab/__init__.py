"""bell-lab: simulation and verification laboratory for two-station
correlation experiments under local hidden-variable models."""

__version__ = "0.1.0"

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
    DiscreteSource,
    ModelSpec,
    Station,
    UniformAngleSource,
    bell_deterministic,
    check_anticorrelation,
    factorizable_instrument,
    setting_pair_dependent,
    time_tagged_anticorrelated,
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
    PairProducts,
    TrialLog,
    bell_statistic,
    chsh_statistic,
    estimate_correlations,
    run_experiment,
    run_experiment_products,
    run_pair_products,
    run_pairs,
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
    "FAMILIES", "ModelSpec", "DiscreteSource", "UniformAngleSource", "Station",
    "AnticorrelationReport", "bell_deterministic", "factorizable_instrument",
    "time_tagged_anticorrelated", "setting_pair_dependent", "check_anticorrelation",
    # simulate
    "TrialLog", "PairProducts", "CorrelationEstimate", "ChshStatistic", "BellStatistic",
    "run_experiment", "run_pairs", "run_experiment_products", "run_pair_products",
    "estimate_correlations", "chsh_statistic", "bell_statistic",
    # tables
    "KeyMode", "OutcomeTable", "Sum", "Undefined", "BalanceReport", "build_reordered_table",
    "row_sums", "lln_balance_check", "render_table", "table_to_json_obj",
    # oracle
    "FiniteModel", "EnumerationResult", "exact_correlation", "exact_chsh",
    "enumerate_deterministic_strategies", "singlet_correlation", "singlet_chsh",
    "discretize_model", "forced_product_overrides",
]
