"""fsp: few-shot personalization of black-box predictors.

Adapts an arbitrary query-only predictor to a target nonparametric
regression task under a fixed labeling budget: variance-aware sample
retrieval, locally-smoothed bias correction, and cross-validated
selection of the smoothing parameters, plus a simulation harness with
reproducible seeds.
"""

from .core import (
    BudgetError,
    ConfigError,
    DataError,
    Domain,
    DomainError,
    EnvelopeError,
    HolderParams,
    QueryError,
    SampleSet,
    SeparationError,
    derive_seed,
    load_csv,
    rng_stream,
)
from .blackbox import (
    BernoulliNoise,
    BlackBoxModel,
    ExpressionModel,
    ExternalOracle,
    ExternalProcessModel,
    FunctionModel,
    GaussianNoise,
    KernelSmoothModel,
    PoolOracle,
    SyntheticOracle,
    TableModel,
    model_from_spec,
)
from .smoothing import SmoothedView, check_local_smooth, local_smooth
from .estimator import PersonalizedEstimator, VarianceField, pilot_bandwidth
from .sampling import (
    LogisticFit,
    RetrievalResult,
    SamplingDensity,
    fit_density_ratio,
    plug_in_density,
    rejection_sample,
    retrieve_budgeted,
    retrieve_from_pool,
    retrieve_uniform_small_domain,
    uniform_density,
)
from .adaptation import (
    FitConfig,
    FitResult,
    ThetaGrid,
    build_grid,
    fit_personalized,
    fit_personalized_pool,
    fit_personalized_small_domain,
    fit_single_task,
    select_theta,
    select_theta_h,
)
from .simulation import (
    ExperimentResult,
    Scenario,
    mce,
    mse,
    rate_slope_experiment,
    run_experiment,
    scenario_adversarial,
    scenario_classification,
    scenario_regression,
    single_task_estimator,
)

__version__ = "0.1.0"
