"""CES utility family: evaluation, gradients, and fixed-price closed forms.

The family is u(x) = (sum_j (v_j x_j)^alpha)^(1/alpha) with alpha <= 1, split
into four regimes with their own closed forms:

* linear (alpha = 1):        u = sum_j v_j x_j
* general (alpha < 1, != 0): the displayed power form
* cobb-douglas (alpha = 0):  log u = (1/v_t) sum_j v_j log x_j, v_t = sum_j v_j
* leontief (alpha = -inf):   u = min_j v_j x_j

All utilities are homogeneous of degree 1 in the bundle.  The log-utility
functions broadcast over leading axes, so a single buyer is shape (m,) and a
batch is (n, m); the fixed-price kernels take a batch.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningWarning, InvalidArgument, InvalidPrices

# Below this distance from the removable singularities at alpha=0 / alpha=1 the
# general-regime closed forms lose precision; callers should pick the exact regime.
_ALPHA_CONDITIONING_TOL = 1e-6

# buyers per chunk of the n-by-m passes that build, check and score a market's
# arrays; the desk market (n = 4096) is one chunk
_CHUNK_ROWS = 2**14


def _row_chunks(n: int):
    """Slices of at most `_CHUNK_ROWS` consecutive rows that cover range(n)."""
    for lo in range(0, n, _CHUNK_ROWS):
        yield slice(lo, min(lo + _CHUNK_ROWS, n))


class Regime(enum.Enum):
    LINEAR = "linear"
    GENERAL = "general"
    COBB_DOUGLAS = "cobb-douglas"
    LEONTIEF = "leontief"


@dataclass(frozen=True)
class CesSpec:
    """Utility regime tag plus the substitution parameter for the general case."""

    regime: Regime
    alpha: float | None = None

    def __post_init__(self):
        if self.regime is Regime.GENERAL:
            if self.alpha is None:
                raise InvalidArgument("general CES regime requires alpha")
            if not np.isfinite(self.alpha) or self.alpha >= 1.0 or self.alpha == 0.0:
                raise InvalidArgument(
                    f"general CES regime requires alpha < 1 and alpha != 0, got {self.alpha}"
                )
            if abs(self.alpha) < _ALPHA_CONDITIONING_TOL or abs(1.0 - self.alpha) < _ALPHA_CONDITIONING_TOL:
                warnings.warn(
                    f"alpha={self.alpha} is close to a removable singularity; "
                    "use the cobb-douglas or linear regime instead",
                    ConditioningWarning,
                    stacklevel=2,
                )
        elif self.alpha is not None:
            raise InvalidArgument(f"alpha is only meaningful for the general regime, got {self.regime}")

    @classmethod
    def linear(cls) -> "CesSpec":
        return cls(Regime.LINEAR)

    @classmethod
    def general(cls, alpha: float) -> "CesSpec":
        return cls(Regime.GENERAL, float(alpha))

    @classmethod
    def cobb_douglas(cls) -> "CesSpec":
        return cls(Regime.COBB_DOUGLAS)

    @classmethod
    def leontief(cls) -> "CesSpec":
        return cls(Regime.LEONTIEF)

    @classmethod
    def from_alpha(cls, alpha: float) -> "CesSpec":
        """Map a raw substitution parameter onto its regime (1, 0 and -inf are special)."""
        if alpha == 1.0:
            return cls.linear()
        if alpha == 0.0:
            return cls.cobb_douglas()
        if alpha == -np.inf:
            return cls.leontief()
        return cls.general(alpha)

    @classmethod
    def from_label(cls, alpha: float | str) -> "CesSpec":
        """Inverse of `alpha_label`: a real (1, 0 and -inf are special), its
        string form, or "leontief"."""
        if alpha == "leontief":
            return cls.leontief()
        try:
            value = float(alpha)
        except (TypeError, ValueError) as err:
            raise InvalidArgument(f"alpha must be a real number or -inf, got {alpha!r}") from err
        return cls.from_alpha(value)

    @property
    def alpha_label(self) -> str:
        if self.regime is Regime.LINEAR:
            return "1"
        if self.regime is Regime.COBB_DOUGLAS:
            return "0"
        if self.regime is Regime.LEONTIEF:
            return "-inf"
        return repr(self.alpha)


def _check_prices(prices, m: int) -> np.ndarray:
    """The one check of a price vector (or of multipliers standing in for
    prices), as a float array: InvalidArgument unless it is 1-d of length m,
    InvalidPrices unless every entry is finite and > 0."""
    prices = np.asarray(prices, dtype=float)
    if prices.shape != (m,):
        raise InvalidArgument(f"prices must be a 1-d vector of length {m}, got shape {prices.shape}")
    if not np.all((prices > 0) & (prices < np.inf)):  # NaN fails both comparisons
        raise InvalidPrices("prices must be finite and strictly positive")
    return prices


def _check_bundle(values, bundle):
    """(values, bundle) as float arrays and the bundle's smallest entry;
    InvalidArgument on a length mismatch or a negative component.  The
    smallest entry comes from one reduction that skips NaN, as `bundle <= t`
    scans do, without forming their mask (+inf if only NaN is left)."""
    values = np.asarray(values, dtype=float)
    bundle = np.asarray(bundle, dtype=float)
    if values.shape[-1] != bundle.shape[-1]:
        raise InvalidArgument(
            f"values/bundle length mismatch: {values.shape[-1]} vs {bundle.shape[-1]}"
        )
    smallest = np.fmin.reduce(bundle, axis=None, initial=np.inf)
    if smallest < 0:
        raise InvalidArgument("bundle components must be nonnegative")
    return values, bundle, smallest


_SINGULAR_GRADIENT = "gradient is singular at boundary bundles in this regime"

# the smallest normal float64
_TINY = np.finfo(float).tiny


def _log_utility_terms(values, bundle, spec: CesSpec, grad: bool, out=None):
    """(log u, d log u / dx): each regime's two formulas, the one place they
    are written.  log u is -inf where the utility is zero.

    A negative component is an InvalidArgument.  The gradient is None unless
    `grad`, and where it is singular: at a zero component in the general and
    cobb-douglas regimes, which the one scan rejecting negative components
    finds too.  `out`, a float array of the broadcast shape of `values` and
    `bundle` that overlaps neither, is the n-by-m buffer the formulas work in
    and the gradient returned; its content is unspecified where no gradient
    is returned.  Without it the buffers are allocated.
    """
    values, bundle, smallest = _check_bundle(values, bundle)
    if smallest <= 0 and spec.regime in (Regime.GENERAL, Regime.COBB_DOUGLAS):
        grad = False
    if spec.regime is Regime.GENERAL:
        # log u = (1/alpha) logsumexp(alpha log(v x)); zero components give
        # -inf logs, which the inf arithmetic maps to u = 0 for alpha < 0 (limit
        # convention) and simply drops for alpha > 0
        w = np.multiply(values, bundle, out=out)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.log(w, out=w)
            w *= spec.alpha
            log_sum, total, hi = _logsumexp_weights(w)
            log_u = log_sum / spec.alpha
        if not grad:
            return log_u, None
        # d log u / dx_j = s_j / (x_j sum_k s_k) with s = (v x)^alpha; the
        # log-sum-exp weights are s scaled by exp(-hi), so they give it without
        # overflow, normalized and divided by x in their own buffer.  Weights
        # below the smallest normal lost digits, yet w_j / x_j can be large: those
        # entries are exp(alpha log(v_j x_j) - hi - log sum_k w_k - log x_j);
        # their mask is formed only when a reduction finds one
        lost = w < _TINY if np.fmin.reduce(w, axis=None, initial=np.inf) < _TINY else None
        w /= total[..., None]
        w /= bundle
        if lost is not None:
            v, x, shift = (np.broadcast_to(a, w.shape)[lost]
                           for a in (values, bundle, (hi + np.log(total))[..., None]))
            w[lost] = np.exp(spec.alpha * np.log(v * x) - shift - np.log(x))
        return log_u, w
    with np.errstate(divide="ignore", invalid="ignore"):
        if spec.regime is Regime.LINEAR:
            total = _sum_last(np.multiply(values, bundle, out=out))
            return np.log(total), (np.divide(np.broadcast_to(values, bundle.shape),
                                             total[..., None], out=out) if grad else None)
        if spec.regime is Regime.LEONTIEF:
            vx = np.multiply(values, bundle, out=out)
            u = np.min(vx, axis=-1)
            if not grad:
                return np.log(u), None
            # the subgradient concentrated on the lowest index attaining the min,
            # formed in v x's buffer
            j_star = np.argmin(vx, axis=-1)
            at_min = (*np.indices(j_star.shape), j_star)
            vx.fill(0.0)
            vx[at_min] = np.broadcast_to(values, vx.shape)[at_min] / u
            return np.log(u), vx
        weights = values / _sum_last(values)[..., None]  # cobb-douglas
        logs = np.log(bundle, out=out)  # -inf on zero components
        # weighted in place, unless the values broadcast over a smaller bundle
        logs = np.multiply(logs, weights, out=logs if logs.shape == weights.shape else None)
        return _sum_last(logs), (np.divide(weights, bundle, out=out) if grad else None)


def log_utility(values, bundle, spec: CesSpec):
    """log u(bundle); -inf where the utility is zero.

    Broadcasts over leading axes of `values`/`bundle`.
    """
    return _log_utility_terms(values, bundle, spec, grad=False)[0]


def _sum_last(a):
    # np.sum(a, axis=-1), added column by column in index order for every m,
    # so that no per-buyer sum depends on the memory layout: numpy adds a
    # C-order row of eight or more terms pairwise but a column-major one in
    # order.  Below eight terms both add in index order, as this does.  A
    # scalar for one buyer, as np.sum gives
    total = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        total += a[..., j]
    return total[()]


def _max_last(a):
    # np.max(a, axis=-1), taken one column at a time: the same exact maxima,
    # without a reduction's per-row overhead on a few goods
    hi = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(hi, a[..., j], out=hi)
    return hi


def _logsumexp_weights(a):
    """(logsumexp, total, hi) over the last axis of `a`, which it consumes:
    `a` becomes the weights w_j = exp(a_j - hi) in its own buffer, hi the
    largest exponent (0 where it is not finite), total = sum_j w_j.  Callers
    silence the warnings of the inf arithmetic (np.errstate)."""
    hi = _max_last(a)
    hi = np.where(np.isfinite(hi), hi, 0.0)
    a -= hi[..., None]
    np.exp(a, out=a)
    total = _sum_last(a)
    return hi + np.log(total), total, hi


def log_utility_gradient(values, bundle, spec: CesSpec):
    """d log u / dx_j, the marginal utilities divided by u: the form the
    stationarity checks and the Lagrangian gradients use.  A boundary bundle
    is an InvalidArgument where the gradient is singular there.
    """
    grad = _log_utility_terms(values, bundle, spec, grad=True)[1]
    if grad is None:
        raise InvalidArgument(_SINGULAR_GRADIENT)
    return grad


def log_utility_and_gradient(values, bundle, spec: CesSpec, out=None):
    """(log u, d log u / dx) from one validation and one pass over v x.

    Each result equals `log_utility` / `log_utility_gradient` bit for bit.
    A negative component is an InvalidArgument.  Where the gradient is
    singular (a zero component in the general and cobb-douglas regimes) it
    is None, and log u is still returned: a caller decides whether a zero
    utility or the boundary is its failure.  `out`, a float array of the
    broadcast shape of `values` and `bundle` that overlaps neither, is
    worked in and returned as the gradient, so a loop can reuse one buffer;
    where the gradient is None its content is unspecified.
    """
    return _log_utility_terms(values, bundle, spec, grad=True, out=out)


def _fixed_price_terms(values, budgets, prices, spec: CesSpec, demand: bool):
    """The fixed-price log utility (n,) or, with `demand`, the demand (n, m) of
    a chunk of buyers: each regime's two closed forms, the one place they are
    written.  The demand spends each budget exactly, its utility is the
    fixed-price one, and linear ties break toward the lowest index."""
    if spec.regime is Regime.LINEAR:
        bang = values / prices
        if not demand:
            return np.log(budgets) + np.log(np.max(bang, axis=-1))
        j_star = np.argmax(bang, axis=-1)
        x = np.zeros_like(values)
        x[np.arange(len(values)), j_star] = budgets / prices[j_star]
        return x
    if spec.regime is Regime.COBB_DOUGLAS:
        v_t = _sum_last(values)[:, None]
        if demand:
            return values / v_t * budgets[:, None] / prices  # the weights v / v_t spent
        # sum_j w_j log(v_j / (p_j v_t)), the log and its weighting formed in
        # one buffer; w = v / v_t is formed after the log pass, which on a
        # column-major chunk costs about 10 % less than forming it before
        logs = np.multiply(prices, v_t)
        np.log(np.divide(values, logs, out=logs), out=logs)
        logs *= values / v_t
        return np.log(budgets) + _sum_last(logs)
    if spec.regime is Regime.LEONTIEF:
        cost = _sum_last(prices / values)
        if not demand:
            return np.log(budgets) - np.log(cost)
        return (budgets / cost)[:, None] / values
    r = spec.alpha / (1.0 - spec.alpha)
    log_v, log_p = np.log(values), np.log(prices)
    # r (log v - log p), shifted in log_v's buffer unless the demand reads log v
    shifted = np.subtract(log_v, log_p, out=None if demand else log_v)
    shifted *= r
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_c0 = _logsumexp_weights(shifted)[0]
    if not demand:
        return np.log(budgets) + log_c0 / r
    # x_j = v_j^r / p_j^(r+1) * B / c0, with 1/(1-alpha) = r + 1; log_v turns
    # into log x in place, in the order r log_v - (r+1) log_p + log B - log c0
    log_v *= r
    log_v -= (r + 1.0) * log_p
    log_v += np.log(budgets)[:, None]
    log_v -= log_c0[:, None]
    return np.exp(log_v, out=log_v)


def _fixed_price_pass(values, budgets, prices, spec: CesSpec, demand: bool):
    # one shape and price check, then `_fixed_price_terms` over buyer chunks
    # into one C-order output, the only full-size array this allocates
    values = np.asarray(values, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    if values.ndim != 2 or budgets.shape != values.shape[:1]:
        raise InvalidArgument(f"values must be (n, m) and budgets (n,), got shapes "
                              f"{values.shape} and {budgets.shape}")
    prices = _check_prices(prices, values.shape[-1])
    out = np.empty(values.shape if demand else values.shape[:1])
    for rows in _row_chunks(len(values)):
        out[rows] = _fixed_price_terms(values[rows], budgets[rows], prices, spec, demand)
    return out


def fixed_price_log_utility_matrix(values, budgets, prices, spec: CesSpec):
    """log of each buyer's best utility affordable at the prices (supply
    ignored): values (n, m), budgets (n,), prices (m,) -> (n,)."""
    return _fixed_price_pass(values, budgets, prices, spec, demand=False)


def demand_matrix(values, budgets, prices, spec: CesSpec):
    """Each buyer's utility-maximizing bundle at the prices: values (n, m),
    budgets (n,), prices (m,) -> (n, m), in C order whatever the layout of
    the values."""
    return _fixed_price_pass(values, budgets, prices, spec, demand=True)


def regime_supports_gradient(spec: CesSpec) -> bool:
    """True where du/dx is usable for stationarity checks (everything but leontief)."""
    return spec.regime is not Regime.LEONTIEF


__all__ = [
    "Regime",
    "CesSpec",
    "log_utility",
    "log_utility_gradient",
    "log_utility_and_gradient",
    "fixed_price_log_utility_matrix",
    "demand_matrix",
    "regime_supports_gradient",
]
