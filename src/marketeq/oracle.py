"""Reference equilibria for testing: closed forms where they exist, a
high-precision numeric solve with KKT certification elsewhere.

Every result returned here is certified, not assumed: clearance and the price
identity hold, NG is evaluated after projection, and (where the regime has a
usable gradient) the stationarity residuals are checked.  Certification
failure raises instead of returning, so tests cannot silently pass on an
unconverged reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ces, metrics
from .baselines import EgConfig, descend
from .errors import (
    InvalidArgument,
    NumericFailure,
    OracleFailure,
    ProjectionUndefined,
    UnsupportedRegime,
)
from .market import Market
from .trainer import solution_pair

MAX_NUMERIC_BUYERS = 200
MAX_NUMERIC_GOODS = 10
NUMERIC_NG_TOL = 1e-6
NUMERIC_KKT_TOL = 1e-4
NUMERIC_REFERENCE_KKT = 1e-10  # a pair this stationary returns at any epoch
_EPOCH_ITERS = 50  # descent iterations between two dual steps
_SEGMENT_EPOCHS = 600  # the loose tolerances are accepted once per segment
_MAX_SEGMENTS = 30


@dataclass(frozen=True, eq=False)  # `==` is identity: the candidate holds arrays
class OracleResult:
    candidate: metrics.EquilibriumCandidate
    certified_ng: float
    kkt_residual: float
    method: str  # "closed-form" | "numeric"


def _certify(market: Market, x, p, max_ng: float, max_kkt: float | None, method: str) -> OracleResult:
    # NG and, where the regime has a gradient, KKT of the projected pair come
    # from one scoring pass
    x_t, p_t, _, _ = metrics.project(market, x, p)
    ng, kkt = metrics.nash_gap(market, x_t, p_t, kkt=True)
    if not (abs(ng) <= max_ng):
        raise OracleFailure(f"{method} oracle: NG {ng:.3e} above tolerance {max_ng:.1e}")
    identity = abs(float(p_t @ market.supplies) - market.total_budget)
    if identity > 1e-8 * market.total_budget:
        raise OracleFailure(f"{method} oracle: price identity residual {identity:.3e}")
    if max_kkt is not None and ces.regime_supports_gradient(market.ces) and not (kkt <= max_kkt):
        raise OracleFailure(f"{method} oracle: KKT residual {kkt:.3e} above {max_kkt:.1e}")
    return OracleResult(metrics.EquilibriumCandidate(x_t, p_t), float(max(ng, 0.0)), kkt, method)


def cobb_douglas_equilibrium(market: Market) -> OracleResult:
    """Closed-form equilibrium for the cobb-douglas regime.

    Budget shares are price-independent, so clearance pins the prices:
    p_j = (1/Y_j) sum_i B_i v_ij / v_ti, then x_ij = (v_ij/v_ti) B_i / p_j.
    """
    if market.ces.regime is not ces.Regime.COBB_DOUGLAS:
        raise UnsupportedRegime("closed-form equilibrium requires the cobb-douglas regime")
    weights = market.values / ces._sum_last(market.values)[:, None]
    # b_ij: money buyer i puts on good j; C order, so that the prices below
    # add up the buyers one at a time
    spend = np.multiply(market.budgets[:, None], weights, order="C")
    p = spend.sum(axis=0) / market.supplies
    x = spend / p[None, :]
    return _certify(market, x, p, max_ng=1e-10, max_kkt=1e-8, method="closed-form")


def numeric_equilibrium(market: Market) -> OracleResult:
    """High-precision EG-momentum solve, certified before returning.

    A test oracle, not a production solver: enforces n <= 200, m <= 10.
    Tightened configuration: an inexact method of multipliers (a constant
    dual step after every _EPOCH_ITERS descent iterations), a step size that
    scales with n like the tuned table does, and a demand-based warm start
    for the curved regimes.  Certification is attempted after every epoch:
    the pair returns as soon as it certifies with KKT within
    NUMERIC_REFERENCE_KKT, the reference target.  The loose tolerances (NG
    within NUMERIC_NG_TOL, KKT within NUMERIC_KKT_TOL) are accepted only at
    the end of each _SEGMENT_EPOCHS-epoch segment, so a market that never
    reaches the target keeps iterating to a segment end and returns the pair
    certified there.  At a segment end where the descent's pair fails, the
    curved regimes try each buyer's fixed-price demand at the descent's
    prices instead; linear markets get their vanishing allocations snapped
    to exact zeros first (a strictly dominated good sheds its last mass only
    asymptotically under softplus parameters).  A diverged descent retries
    at half the step size, at most twice; a budget that runs out uncertified
    raises at once, since the descent is deterministic and would only
    repeat.
    """
    if market.n > MAX_NUMERIC_BUYERS or market.m > MAX_NUMERIC_GOODS:
        raise InvalidArgument(
            f"numeric oracle limited to n <= {MAX_NUMERIC_BUYERS}, m <= {MAX_NUMERIC_GOODS}")
    if not ces.regime_supports_gradient(market.ces):
        raise UnsupportedRegime("numeric oracle needs a differentiable regime (not leontief)")
    linear = market.ces.regime is ces.Regime.LINEAR
    eta_scale = 0.5 if linear else 1.5
    config = EgConfig(
        step_size=eta_scale * market.n,  # gradients carry a 1/n factor
        momentum=0.9,
        rho=2.0,
        constant_beta=1.0,
        epochs=_MAX_SEGMENTS * _SEGMENT_EPOCHS,
        inner_iters=_EPOCH_ITERS,
    )
    last_error = None
    for _ in range(3):  # divergence retries at halved step size
        try:
            for epoch, x_hat, lam, _, _ in descend(market, config, _warm_start(market)):
                x, p = solution_pair(x_hat, lam, market)
                if np.any(p <= 0):
                    continue
                segment_end = epoch % _SEGMENT_EPOCHS == 0
                max_kkt = NUMERIC_KKT_TOL if segment_end else NUMERIC_REFERENCE_KKT
                for trial in _trial_allocations(market, x, p, segment_end):
                    try:
                        return _certify(market, trial, p, NUMERIC_NG_TOL, max_kkt, method="numeric")
                    except (OracleFailure, ProjectionUndefined) as err:
                        last_error = err
        except NumericFailure as err:
            last_error = err
            config = replace(config, step_size=config.step_size / 2.0)
        else:
            break  # the budget ran out; the same deterministic descent would only repeat
    raise OracleFailure(f"numeric oracle failed to certify: {last_error}")


def _warm_start(market: Market) -> np.ndarray | None:
    """The normalized allocation the oracle's descent starts from: None (the
    naive allocation) for linear markets, else each buyer's fixed-price demand
    at the naive prices, floored so that a coordinate parked near zero can
    still climb back if the duals move."""
    if market.ces.regime is ces.Regime.LINEAR:
        return None
    y_norm = market.supplies / market.n
    p0 = market.total_budget / (market.m * market.supplies)
    x_hat = ces.demand_matrix(market.values, market.budgets, p0, market.ces) / y_norm
    floor = 1e-4 * market.budgets[:, None] / (market.m * p0[None, :] * y_norm)
    return np.maximum(x_hat, floor)


def _trial_allocations(market: Market, x: np.ndarray, p: np.ndarray, segment_end: bool):
    """The allocations certified at the descent's prices, in turn: the
    descent's own (in linear markets with dominated goods snapped to zero),
    then, at a segment end in the curved regimes, each buyer's fixed-price
    demand, formed only if the descent's pair failed."""
    if market.ces.regime is ces.Regime.LINEAR:
        yield _snap_dominated(market, x, p)
        return
    yield x
    if segment_end:
        yield ces.demand_matrix(market.values, market.budgets, p, market.ces)


def _snap_dominated(market: Market, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Zero out allocations that are tiny and strictly dominated at these prices."""
    x = x.copy()
    marginal = market.budgets[:, None] * ces.log_utility_gradient(market.values, np.maximum(x, 1e-300), market.ces)
    dominated = marginal < p[None, :] * (1.0 - 10.0 * NUMERIC_KKT_TOL)
    tiny = x < 1e-3 * market.budgets[:, None] / (market.m * p[None, :])
    x[dominated & tiny] = 0.0
    return x


__all__ = [
    "OracleResult",
    "cobb_douglas_equilibrium",
    "numeric_equilibrium",
    "MAX_NUMERIC_BUYERS",
    "MAX_NUMERIC_GOODS",
    "NUMERIC_NG_TOL",
    "NUMERIC_KKT_TOL",
    "NUMERIC_REFERENCE_KKT",
]
