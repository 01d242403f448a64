"""Equilibrium certification: welfare metrics, projections, and KKT residuals.

The central quantity is the Nash gap NG = LFW(p) - LNW(x), the difference
between the budget-weighted log welfare buyers could reach at prices p and the
welfare the allocation x actually delivers.  NG is only meaningful on pairs
that satisfy market clearance (sum_i x_ij = Y_j) and the price identity
(sum_j p_j Y_j = sum_i B_i); `project` rescales any positive pair onto that
set and reports how far it had to move (VoA, VoP).  On the projected set
NG >= 0 always, with equality exactly at market equilibrium.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import ces
from .errors import (
    ConstraintViolation,
    InvalidArgument,
    ProjectionUndefined,
    UnsupportedRegime,
)
from .market import Market, read_json

# relative feasibility tolerance for nash_gap preconditions
FEASIBILITY_RTOL = 1e-9

# KKT's active set: x_ij > KKT_ACTIVE_RTOL * B_i / p_j
KKT_ACTIVE_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class EquilibriumCandidate:
    """An allocation matrix and a price vector, the object every solver emits;
    `==` is identity."""

    allocation: np.ndarray  # (n, m), nonnegative
    prices: np.ndarray  # (m,)

    def __post_init__(self):
        allocation = np.asarray(self.allocation, dtype=float)
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "allocation", allocation)
        object.__setattr__(self, "prices", prices)
        if allocation.ndim != 2 or prices.ndim != 1 or allocation.shape[1] != prices.shape[0]:
            raise InvalidArgument("allocation must be (n, m) with prices of length m")
        # a nonpositive price may stand here; every scorer refuses it as InvalidPrices
        if not np.all(np.isfinite(prices)):
            raise InvalidArgument("candidate prices must be finite")
        _scan_allocation(allocation)

    def to_json(self) -> dict:
        return {
            "version": 1,
            "allocation": self.allocation.tolist(),
            "prices": self.prices.tolist(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "EquilibriumCandidate":
        try:
            return cls(np.asarray(doc["allocation"], dtype=float), np.asarray(doc["prices"], dtype=float))
        except (KeyError, TypeError, ValueError) as err:  # a missing key, or no number array
            raise InvalidArgument(f"bad candidate document ({type(err).__name__}: {err})") from err

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json()) + "\n")

    @classmethod
    def load(cls, path) -> "EquilibriumCandidate":
        return cls.from_json(read_json(path))


@dataclass(frozen=True)
class MetricsReport:
    """All certification numbers for one candidate.

    lnw/lfw/ng/wsw/kkt are computed on the projected pair; voa/vop/price_residual
    describe the raw pair.  `degenerate_lnw` flags a zero-utility buyer (lnw is
    then the -inf sentinel rather than an error, so early training iterates can
    still be logged).
    """

    lnw: float
    lfw: float
    ng: float
    voa: float
    vop: float
    wsw: float
    price_residual: float
    kkt_max_residual: float
    degenerate_lnw: bool = False

    def to_json(self) -> dict:
        return asdict(self)


def _check_allocation(market: Market, x) -> np.ndarray:
    # C order, so that column sums and chunk reductions (and their rounding)
    # do not depend on the caller's memory layout; no copy for C input
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape != (market.n, market.m):
        raise InvalidArgument(f"allocation shape {x.shape} does not match market ({market.n}, {market.m})")
    _scan_allocation(x)
    return x


def _scan_allocation(x) -> None:
    # chunk by chunk, so the masks are never n-by-m
    for rows in ces._row_chunks(len(x)):
        chunk = x[rows]
        if np.any(chunk < 0) or not np.all(np.isfinite(chunk)):
            raise InvalidArgument("allocation must be finite and nonnegative")


def _score(market: Market, x=None, scale=1.0, prices=None, kkt=False) -> MetricsReport:
    """The one pass that scores a pair, in fixed order over buyer chunks: LNW
    and WSW of the validated `x` times the per-good `scale`, LFW at `prices`
    and, with `kkt`, the KKT residual of the two.  Scores without their input
    are meaningless; VoA, VoP and the price residual are left NaN."""
    values, budgets = market.values, market.budgets
    sums = np.zeros(3)  # B_i times: log u_i, u_i, fixed-price log u_i
    peaks = np.full(3, -np.inf)  # one-sided, active-set and budget KKT residuals
    zero_utility = False
    # each chunk's scaled bundle is copied column-major, as the values are, so
    # the CES kernels and the per-good maxima run along chunk-long columns
    buffer = np.empty((min(market.n, ces._CHUNK_ROWS), market.m), order="F")
    for rows in ces._row_chunks(market.n):
        b = budgets[rows]
        if prices is not None:
            sums[2] += np.dot(b, ces.fixed_price_log_utility_matrix(values[rows], b, prices, market.ces))
        if x is not None:
            scaled = x[rows] * scale
            # the spending is a matrix-vector product, which BLAS rounds by
            # memory layout: it is taken on the C-order rows
            spent = scaled @ prices if kkt else None
            bundle = buffer[:len(b)]
            bundle[...] = scaled
            del scaled
            log_u = _chunk_log_utility(market.ces, values[rows], b, bundle,
                                       prices if kkt else None, spent, peaks)
            sums[0] += np.dot(b, log_u)
            sums[1] += np.dot(b, np.exp(log_u))
            zero_utility = zero_utility or bool(np.any(np.isneginf(log_u)))
    log_sum, util_sum, fixed_sum = (float(s) for s in sums / market.total_budget)
    if zero_utility:
        log_sum = float("-inf")
    nan = float("nan")
    return MetricsReport(lnw=log_sum, lfw=fixed_sum, ng=fixed_sum - log_sum, voa=nan, vop=nan,
                         wsw=util_sum, price_residual=nan,
                         kkt_max_residual=float(max(peaks)) if kkt else nan,
                         degenerate_lnw=not np.isfinite(log_sum))


def _chunk_log_utility(spec, values, budgets, bundle, prices, spent, peaks):
    # log u_i of one chunk's column-major bundles from one CES kernel call;
    # given `prices` and the spending <p, x_i>, the chunk's KKT maxima go
    # into `peaks`
    if prices is None:
        return ces.log_utility(values, bundle, spec)
    budget_res = (np.abs(spent - budgets) / budgets).max()
    threshold = np.divide(budgets[:, None], prices, out=np.empty_like(bundle))
    threshold *= KKT_ACTIVE_RTOL
    inactive = bundle <= threshold
    del threshold  # not kept alive through the kernel call
    with np.errstate(divide="ignore", invalid="ignore"):
        log_u, gap = ces.log_utility_and_gradient(values, bundle, spec)
    if gap is None:
        # a zero component where the gradient is singular: its one-sided
        # residual, and with it the KKT peak, is an honest +inf
        np.maximum(peaks, np.inf, out=peaks)
        return log_u
    # (B_i/u_i) du/dx = B_i dlog(u)/dx; dividing its gap to p_j by p_j > 0 is
    # monotone, so the maxima are taken per good first
    gap *= budgets[:, None]
    gap -= prices
    one_sided = (np.maximum(gap.max(axis=0), 0.0) / prices).max()
    np.abs(gap, out=gap)
    np.copyto(gap, 0.0, where=inactive)
    np.maximum(peaks, (one_sided, (gap.max(axis=0) / prices).max(), budget_res), out=peaks)
    return log_u


def lnw(market: Market, x) -> float:
    """Log Nash welfare: budget-weighted mean of log u_i(x_i).

    Returns -inf when some buyer has zero utility (log undefined); callers that
    need a hard error should check `np.isfinite` on the result.
    """
    return _score(market, _check_allocation(market, x)).lnw


def lfw(market: Market, p) -> float:
    """Log fixed-price welfare: budget-weighted mean of the fixed-price log utilities."""
    return _score(market, prices=ces._check_prices(p, market.m)).lfw


def nash_gap(market: Market, x, p, kkt: bool = False):
    """LFW(p) - LNW(x) for a clearance- and price-feasible pair; >= 0 up to rounding.

    Raises ConstraintViolation when the pair is off the feasible set; run
    `project` first in that case.  Both scores come from one `_score` pass.
    With `kkt` the result is (NG, KKT residual), the residual `kkt_residuals`
    gives taken in that same pass (NaN in the leontief regime, as in
    `evaluate`), which is how the oracle certifies a pair.
    """
    x = _check_allocation(market, x)
    p = ces._check_prices(p, market.m)
    supplies = market.supplies
    col = x.sum(axis=0)
    if np.any(np.abs(col - supplies) > FEASIBILITY_RTOL * supplies):
        raise ConstraintViolation(
            "allocation does not clear the market to relative 1e-9; project first"
        )
    total = market.total_budget
    if abs(float(p @ supplies) - total) > FEASIBILITY_RTOL * total:
        raise ConstraintViolation(
            "prices do not satisfy sum_j p_j Y_j = sum_i B_i to relative 1e-9; project first"
        )
    report = _score(market, x, prices=p, kkt=kkt and ces.regime_supports_gradient(market.ces))
    return (report.ng, report.kkt_max_residual) if kkt else report.ng


def project(market: Market, x, p):
    """Rescale (x, p) onto the feasible set.

    Returns (x_tilde, p_tilde, voa, vop): per-good clearance scaling
    alpha_j = Y_j / sum_i x_ij applied to columns of x, one global price scaling
    beta = sum_i B_i / sum_j Y_j p_j, with VoA = mean_j |log alpha_j| and
    VoP = |log beta|.
    """
    x, alpha, beta, voa, vop = _projection(market, x, p)
    return x * alpha, beta * np.asarray(p, dtype=float), voa, vop


def _projection(market: Market, x, p):
    # `project` without forming the projected allocation: the validated x,
    # then alpha, beta, VoA and VoP
    x = _check_allocation(market, x)
    p = np.asarray(p, dtype=float)
    if p.shape != (market.m,) or np.any(p < 0) or not np.all(np.isfinite(p)):
        raise InvalidArgument("prices must be m finite nonnegative reals")
    supplies = market.supplies
    col = x.sum(axis=0)
    if np.any(col <= 0):
        raise ProjectionUndefined("a good has zero total allocation; clearance scaling undefined")
    priced_supply = float(p @ supplies)
    if priced_supply <= 0:
        raise ProjectionUndefined("priced supply is zero; price scaling undefined")
    alpha = supplies / col
    beta = market.total_budget / priced_supply
    voa = float(np.mean(np.abs(np.log(alpha))))
    vop = float(abs(np.log(beta)))
    return x, alpha, beta, voa, vop


def wsw(market: Market, x) -> float:
    """Budget-weighted arithmetic mean of utilities; no feasibility requirement."""
    return _score(market, _check_allocation(market, x)).wsw


def price_residual(market: Market, p) -> float:
    """Signed relative residual of the price identity sum_j p_j Y_j = sum_i B_i."""
    p = ces._check_prices(p, market.m)
    total = market.total_budget
    return float((p @ market.supplies - total) / total)


def kkt_residuals(market: Market, candidate: EquilibriumCandidate) -> float:
    """Max relative KKT residual of the buyer optimality conditions.

    Stationarity requires (B_i/u_i) du_i/dx_ij <= p_j with equality where
    x_ij > 0; we test the one-sided part everywhere and the equality on the
    active set x_ij > KKT_ACTIVE_RTOL * B_i / p_j, plus the budget residuals
    |<p, x_i> - B_i| / B_i.  All pieces are measured relative to p_j or B_i.
    """
    if not ces.regime_supports_gradient(market.ces):
        raise UnsupportedRegime("KKT residuals need a usable utility gradient (not leontief)")
    x = _check_allocation(market, candidate.allocation)
    p = ces._check_prices(candidate.prices, market.m)
    return _score(market, x, prices=p, kkt=True).kkt_max_residual


def evaluate(market: Market, x, p, kkt: bool = True) -> MetricsReport:
    """Certify a pair: project it, then score the projected pair, in one
    validation of `x` and one `_score` pass that never forms the projected
    allocation.  KKT is NaN without `kkt` and in the leontief regime."""
    p = ces._check_prices(p, market.m)
    x, alpha, beta, voa, vop = _projection(market, x, p)
    report = _score(market, x, alpha, beta * p, kkt and ces.regime_supports_gradient(market.ces))
    return replace(report, voa=voa, vop=vop, price_residual=price_residual(market, p))


__all__ = [
    "FEASIBILITY_RTOL",
    "KKT_ACTIVE_RTOL",
    "EquilibriumCandidate",
    "MetricsReport",
    "lnw",
    "lfw",
    "nash_gap",
    "project",
    "wsw",
    "price_residual",
    "kkt_residuals",
    "evaluate",
]
