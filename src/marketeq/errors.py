"""Exception types shared across the package, and the checks of numeric settings."""

import math

import numpy as np


class MarketEqError(Exception):
    """Base class for all marketeq errors; a failed solver attaches its finished epochs."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history


class InvalidArgument(MarketEqError):
    """Bad shapes, counts, or out-of-domain inputs."""


class DegenerateBudget(MarketEqError):
    """A buyer context with zero norm; budgets must be strictly positive."""


class InvalidPrices(MarketEqError):
    """Prices (or multipliers standing in for prices) that are not finite and strictly positive."""


class ConstraintViolation(MarketEqError):
    """A candidate pair handed to nash_gap without clearing/price feasibility.

    Callers should run metrics.project first.
    """


class ProjectionUndefined(MarketEqError):
    """Projection scaling factors cannot be formed (zero column sum or zero priced supply)."""


class UnsupportedRegime(MarketEqError):
    """Operation not defined for the requested utility regime."""


class NumericFailure(MarketEqError):
    """Non-finite value encountered mid-computation."""


class OracleFailure(MarketEqError):
    """Reference-equilibrium computation could not certify its result."""


class ConditioningWarning(UserWarning):
    """The requested parameters sit near a removable singularity of a closed form."""


def check_range(name: str, value, low: float, high: float = math.inf, *, open_low: bool = False) -> None:
    """Raise InvalidArgument unless low <= value < high (low < value with
    `open_low`); NaN lies in no range.  The one check of the numeric settings."""
    if not (low < value < high if open_low else low <= value < high):
        raise InvalidArgument(
            f"{name} must lie in {'(' if open_low else '['}{low:g}, {high:g}), got {value!r}")


def check_integer(name: str, value, low: int) -> None:
    """Raise InvalidArgument unless `value` is an int or numpy integer (a bool
    is not) of at least `low`.  The one check of a count or seed."""
    if type(value) is not int and not isinstance(value, np.integer):
        raise InvalidArgument(f"{name} must be an integer, got {value!r}")
    check_range(name, value, low)


_MAX_BYTES = np.iinfo(np.intp).max


def check_size(name: str, *shape) -> None:
    """Raise InvalidArgument unless numpy can index an array of this shape and
    8-byte items, at most `_MAX_BYTES` (past it numpy raises a ValueError, not
    a MemoryError).  The one check of an array's size."""
    if math.prod(map(int, shape)) * 8 > _MAX_BYTES:
        raise InvalidArgument(
            f"{name} ({' x '.join(map(str, map(int, shape)))} numbers) would take 2^63 bytes or more")
