"""fairprice: parity-constrained personalized pricing and auditing tools."""

__version__ = "0.1.0"

from .audit import (
    AUDIT_METRIC_NAMES,
    AuditReport,
    DecompositionReport,
    access_metrics,
    attribute_gap_decomposition,
    concordance_lower_bound,
    concordance_oracle,
    conditional_parity_gap,
    distributional_parity_stat,
    marginal_price_disparity,
    run_audit,
    suboptimality_decomposition,
    takeup_conditional_parity,
    two_sample_distribution_test,
)
from .demand import (
    FitDiagnostics,
    LatentValuationModel,
    LogisticDemand,
    NOISE_FAMILIES,
    PartiallyLinearDemand,
    Population,
    RecordTable,
    fit_logistic,
    fit_partially_linear,
    model_from_dict,
    model_to_dict,
    population_from_dict,
    population_to_dict,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DecompositionError,
    DegenerateDemandError,
    DimensionMismatchError,
    EmptyWeightError,
    FairPriceError,
    InvalidRecordError,
    MissingFieldError,
    MissingSupportError,
    NoComputableMetricError,
    NoQualifyingPairsError,
    PerfectSeparationError,
    PreconditionError,
    SingularDesignError,
    UnenforceableConstraintError,
    UnknownGroupError,
    UpwardSlopeError,
)
from .optimize import (
    PriceInterval,
    ScalarizationWeights,
    monopoly_price_linear,
    scalarized_objective,
)
from .parity import (
    ATTRIBUTE_BASED,
    ATTRIBUTE_BLIND,
    ModeComparison,
    ParitySolution,
    compare_parity_modes,
    expected_revenue,
    most_group_leaning_index,
    parity_weight,
    policy_disparity,
    revenue_loss_bound,
    solve_attribute_based_parity,
    solve_attribute_blind_parity,
)
from .policies import (
    ConstantPolicy,
    GroupPolicy,
    LinearPolicy,
    TabularPolicy,
    policy_from_dict,
    policy_to_dict,
)
from .share import (
    GROUP_SCOPE,
    POPULATION_SCOPE,
    SensitivityReport,
    SharePenalty,
    sensitivity_at_zero,
    share_frontier,
)
from .sim import (
    PolicySearchResult,
    ScenarioConfig,
    generate_population,
    log_interactions,
    ope_bootstrap_se,
    ope_estimate,
    optimize_linear_policy,
    read_records_csv,
    run_pricing_experiment,
    simulate,
    write_records_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
