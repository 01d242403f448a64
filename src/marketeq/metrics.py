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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ces
from .errors import (
    ConstraintViolation,
    InvalidArgument,
    InvalidPrices,
    ProjectionUndefined,
    UnsupportedRegime,
)
from .market import Market

# relative feasibility tolerance for nash_gap preconditions
FEASIBILITY_RTOL = 1e-9

# CSV column order is part of the external interface; keep stable.
CSV_COLUMNS = ("lnw", "lfw", "ng", "voa", "vop", "wsw", "price_residual", "kkt_max_residual")


@dataclass(frozen=True)
class EquilibriumCandidate:
    """An allocation matrix and a price vector, the object every solver emits."""

    allocation: np.ndarray  # (n, m), nonnegative
    prices: np.ndarray  # (m,)

    def __post_init__(self):
        allocation = np.asarray(self.allocation, dtype=float)
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "allocation", allocation)
        object.__setattr__(self, "prices", prices)
        if allocation.ndim != 2 or prices.ndim != 1 or allocation.shape[1] != prices.shape[0]:
            raise InvalidArgument("allocation must be (n, m) with prices of length m")
        if not (np.all(np.isfinite(allocation)) and np.all(np.isfinite(prices))):
            raise InvalidArgument("candidate entries must be finite")
        if np.any(allocation < 0):
            raise InvalidArgument("allocation must be nonnegative")

    def to_json(self) -> dict:
        return {
            "version": 1,
            "allocation": self.allocation.tolist(),
            "prices": self.prices.tolist(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "EquilibriumCandidate":
        return cls(np.asarray(doc["allocation"], dtype=float), np.asarray(doc["prices"], dtype=float))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json()) + "\n")

    @classmethod
    def load(cls, path) -> "EquilibriumCandidate":
        return cls.from_json(json.loads(Path(path).read_text()))


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
        return {col: getattr(self, col) for col in CSV_COLUMNS} | {
            "degenerate_lnw": self.degenerate_lnw
        }

    @staticmethod
    def csv_header() -> str:
        return ",".join(CSV_COLUMNS)

    def csv_row(self) -> str:
        return ",".join(repr(float(getattr(self, col))) for col in CSV_COLUMNS)


def _check_allocation(market: Market, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (market.n, market.m):
        raise InvalidArgument(f"allocation shape {x.shape} does not match market ({market.n}, {market.m})")
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise InvalidArgument("allocation must be finite and nonnegative")
    return x


def lnw(market: Market, x) -> float:
    """Log Nash welfare: budget-weighted mean of log u_i(x_i).

    Returns -inf when some buyer has zero utility (log undefined); callers that
    need a hard error should check `np.isfinite` on the result.
    """
    x = _check_allocation(market, x)
    log_u = ces.log_utility(market.values, x, market.ces)
    if np.any(np.isneginf(log_u)):
        return float("-inf")
    return float(np.dot(market.budgets, log_u) / market.total_budget)


def lfw(market: Market, p) -> float:
    """Log fixed-price welfare: budget-weighted mean of the fixed-price log utilities."""
    p = np.asarray(p, dtype=float)
    if p.shape != (market.m,):
        raise InvalidArgument("price vector length must equal m")
    if np.any(p <= 0) or not np.all(np.isfinite(p)):
        raise InvalidPrices("prices must be finite and strictly positive")
    log_fixed = ces.fixed_price_log_utility_matrix(market.values, market.budgets, p, market.ces)
    return float(np.dot(market.budgets, log_fixed) / market.total_budget)


def nash_gap(market: Market, x, p) -> float:
    """LFW(p) - LNW(x) for a clearance- and price-feasible pair; >= 0 up to rounding.

    Raises ConstraintViolation when the pair is off the feasible set; run
    `project` first in that case.
    """
    x = _check_allocation(market, x)
    p = np.asarray(p, dtype=float)
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
    return lfw(market, p) - lnw(market, x)


def project(market: Market, x, p):
    """Rescale (x, p) onto the feasible set.

    Returns (x_tilde, p_tilde, voa, vop): per-good clearance scaling
    alpha_j = Y_j / sum_i x_ij applied to columns of x, one global price scaling
    beta = sum_i B_i / sum_j Y_j p_j, with VoA = mean_j |log alpha_j| and
    VoP = |log beta|.
    """
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
    x_t = x * alpha
    p_t = beta * p
    voa = float(np.mean(np.abs(np.log(alpha))))
    vop = float(abs(np.log(beta)))
    return x_t, p_t, voa, vop


def wsw(market: Market, x) -> float:
    """Budget-weighted arithmetic mean of utilities; no feasibility requirement."""
    x = _check_allocation(market, x)
    u = ces.utility(market.values, x, market.ces)
    return float(np.dot(market.budgets, u) / market.total_budget)


def price_residual(market: Market, p) -> float:
    """Signed relative residual of the price identity sum_j p_j Y_j = sum_i B_i."""
    p = np.asarray(p, dtype=float)
    total = market.total_budget
    return float((p @ market.supplies - total) / total)


def kkt_residuals(market: Market, candidate: EquilibriumCandidate, active_rtol: float = 1e-8) -> float:
    """Max relative KKT residual of the buyer optimality conditions.

    Stationarity requires (B_i/u_i) du_i/dx_ij <= p_j with equality where
    x_ij > 0; we test the one-sided part everywhere and the equality on the
    active set x_ij > active_rtol * B_i / p_j, plus the budget residuals
    |<p, x_i> - B_i| / B_i.  All pieces are measured relative to p_j or B_i.
    """
    if not ces.regime_supports_gradient(market.ces):
        raise UnsupportedRegime("KKT residuals need a usable utility gradient (not leontief)")
    x = _check_allocation(market, candidate.allocation)
    p = np.asarray(candidate.prices, dtype=float)
    if np.any(p <= 0):
        raise InvalidPrices("KKT residuals need strictly positive prices")
    budgets = market.budgets
    # (B_i/u_i) du/dx = B_i dlog(u)/dx; singular entries (x_ij = 0 off the
    # linear regime) legitimately produce +inf residuals.
    with np.errstate(divide="ignore", invalid="ignore"):
        marginal = _log_gradient_allowing_boundary(market, x) * budgets[:, None]
    gap = marginal - p[None, :]
    one_sided = np.maximum(gap, 0.0) / p[None, :]
    active = x > active_rtol * (budgets[:, None] / p[None, :])
    equality = np.where(active, np.abs(gap) / p[None, :], 0.0)
    budget_res = np.abs(x @ p - budgets) / budgets
    return float(max(one_sided.max(), equality.max(), budget_res.max()))


def _log_gradient_allowing_boundary(market: Market, x: np.ndarray) -> np.ndarray:
    # like ces.log_utility_gradient but maps boundary singularities to +inf
    # instead of raising, so bad candidates get an honest (infinite) residual
    spec = market.ces
    if spec.regime is ces.Regime.LINEAR or np.all(x > 0):
        return ces.log_utility_gradient(market.values, x, spec)
    safe = np.where(x > 0, x, 1.0)
    grad = ces.log_utility_gradient(market.values, safe, spec)
    return np.where(x > 0, grad, np.inf)


@dataclass(frozen=True)
class ProjectedGap:
    """The pair `project` makes of a candidate, with the distances it moved
    (VoA, VoP) and the Nash gap NG = LFW - LNW measured on it."""

    allocation: np.ndarray | None
    prices: np.ndarray | None
    voa: float
    vop: float
    lnw: float
    lfw: float

    @property
    def ng(self) -> float:
        return self.lfw - self.lnw


# the score of a pair that is not projected
NAN_GAP = ProjectedGap(None, None, float("nan"), float("nan"), float("nan"), float("nan"))


def projected_gap(market: Market, x, p) -> ProjectedGap:
    """`project` (x, p), then measure NG on the projected pair: the per-epoch
    score of both solvers and the core of `evaluate`.  A pair with a
    nonpositive price (a multiplier that cannot stand as a price) gets NAN_GAP."""
    if np.any(np.asarray(p) <= 0):
        return NAN_GAP
    x_t, p_t, voa, vop = project(market, x, p)
    return ProjectedGap(x_t, p_t, voa, vop, lnw(market, x_t), lfw(market, p_t))


def evaluate(market: Market, x, p, kkt: bool = True) -> MetricsReport:
    """Full certification pipeline: project, then all metrics on the projected pair."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise InvalidPrices("prices must be strictly positive to certify a candidate")
    gap = projected_gap(market, x, p)
    kkt_value = float("nan")
    if kkt and ces.regime_supports_gradient(market.ces):
        kkt_value = kkt_residuals(market, EquilibriumCandidate(gap.allocation, gap.prices))
    return MetricsReport(
        lnw=gap.lnw,
        lfw=gap.lfw,
        ng=gap.ng,
        voa=gap.voa,
        vop=gap.vop,
        wsw=wsw(market, gap.allocation),
        price_residual=price_residual(market, p),
        kkt_max_residual=kkt_value,
        degenerate_lnw=not np.isfinite(gap.lnw),
    )


__all__ = [
    "CSV_COLUMNS",
    "FEASIBILITY_RTOL",
    "NAN_GAP",
    "EquilibriumCandidate",
    "MetricsReport",
    "ProjectedGap",
    "lnw",
    "lfw",
    "nash_gap",
    "project",
    "projected_gap",
    "wsw",
    "price_residual",
    "kkt_residuals",
    "evaluate",
]
