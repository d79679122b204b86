"""Exception taxonomy shared across the package.

Every failure mode that callers are expected to branch on gets its own class,
carrying the CLI's exit status for it.
"""

from __future__ import annotations


class FairPriceError(Exception):
    """Base class for all errors raised by this package."""

    #: short machine-readable token, emitted by the CLI as ``error_code=...``
    code = "error"
    #: the CLI's exit status: 3-5 mark the failure modes scripts branch on
    exit_status = 2


class DimensionMismatchError(FairPriceError):
    """Covariate vector length does not match the model or population."""

    code = "dimension_mismatch"


class UnknownGroupError(FairPriceError):
    """A group label was requested that the model or population does not carry."""

    code = "unknown_group"


class MissingSupportError(FairPriceError):
    """Operation needs a discrete covariate support but the population has none."""

    code = "missing_support"


class MissingFieldError(FairPriceError):
    """Records lack a column (outcome, valuation, ...) the operation needs."""

    code = "missing_field"


class InvalidRecordError(FairPriceError):
    """A record or model field holds a value outside its documented domain."""

    code = "invalid_value"


class PerfectSeparationError(FairPriceError):
    """Logistic likelihood is unbounded because the classes are separable."""

    code = "perfect_separation"


class SingularDesignError(FairPriceError):
    """Design matrix is rank deficient; some coefficient is unidentified."""

    code = "singular_design"


class ConvergenceError(FairPriceError):
    """Iterative solver stopped without meeting its tolerance."""

    code = "no_convergence"


class UpwardSlopeError(FairPriceError):
    """Fitted or supplied price response slopes upward (demand must fall in price)."""

    code = "upward_slope"
    exit_status = 3


class UnenforceableConstraintError(FairPriceError):
    """The parity constraint binds but the policy class cannot move the disparity."""

    code = "unenforceable_constraint"
    exit_status = 4


class DegenerateDemandError(FairPriceError):
    """Demand curve admits no positive revenue or no interior optimum."""

    code = "degenerate_demand"


class PreconditionError(FairPriceError):
    """Structural precondition of a closed-form result does not hold."""

    code = "precondition"


class DecompositionError(FairPriceError):
    """Price-gap decomposition is inapplicable (e.g. linear estimated demand)."""

    code = "decomposition_inapplicable"


class NoQualifyingPairsError(FairPriceError):
    """Pair-based estimator found no pairs satisfying its conditioning event."""

    code = "no_qualifying_pairs"


class NoComputableMetricError(FairPriceError):
    """None of the requested audit metrics could be computed from the input."""

    code = "no_computable_metric"
    exit_status = 5


class ConfigError(FairPriceError):
    """Scenario or policy configuration could not be parsed."""

    code = "config_parse"

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmptyWeightError(FairPriceError):
    """All importance weights vanished; the estimate is undefined."""

    code = "empty_weights"
