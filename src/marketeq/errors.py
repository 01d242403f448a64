"""Exception types shared across the package."""


class MarketEqError(Exception):
    """Base class for all marketeq errors."""


class InvalidArgument(MarketEqError):
    """Bad shapes, counts, or out-of-domain inputs."""


class DegenerateBudget(MarketEqError):
    """A buyer context with zero norm; budgets must be strictly positive."""


class InvalidPrices(MarketEqError):
    """Prices (or multipliers standing in for prices) that are not strictly positive."""


class ConstraintViolation(MarketEqError):
    """A candidate pair handed to nash_gap without clearing/price feasibility.

    Callers should run metrics.project first.
    """


class ProjectionUndefined(MarketEqError):
    """Projection scaling factors cannot be formed (zero column sum or zero priced supply)."""


class UnsupportedRegime(MarketEqError):
    """Operation not defined for the requested utility regime."""


class NumericFailure(MarketEqError):
    """Non-finite value encountered mid-computation; carries diagnostics when available."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history


class OracleFailure(MarketEqError):
    """Reference-equilibrium computation could not certify its result."""


class ConditioningWarning(UserWarning):
    """The requested parameters sit near a removable singularity of a closed form."""
