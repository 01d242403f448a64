"""Direct solvers on the full allocation matrix: the naive rule and EG descent.

The EG solvers hold one raw parameter per (buyer, good) pair, map it through
softplus to keep allocations positive, and minimize the penalized Lagrangian

    L(x; lam) = -(1/n) sum_i B_i log u_i(x_i)
                + sum_j lam_j ((1/n) sum_i x_ij - 1)
                + (rho/2) sum_j ((1/n) sum_i x_ij - 1)^2

by full-batch gradient descent (optionally with heavy-ball momentum), with one
dual ascent step on the multipliers per epoch.  Per-iteration cost is O(n*m),
which is what the batched network method is designed to avoid.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import ces, metrics
from .errors import InvalidArgument, NumericFailure, check_integer, check_range
from .market import Market, softplus_and_slope
from .trainer import multiplier_update, run_epochs

_RAW_AT_ONE = math.log(math.e - 1.0)  # softplus(_RAW_AT_ONE) = 1
_ZERO_UTILITY = "a buyer reached zero utility during descent"


def step_size_for(market: Market) -> float:
    """Tuned full-batch step size: grows with n (gradients carry a 1/n factor)
    and differs between the linear and curved regimes."""
    linear = market.ces.regime is ces.Regime.LINEAR
    if market.n > 1000:
        return 1e2 if linear else 1e3
    return 0.1 if linear else 1.0


@dataclass(frozen=True)
class EgConfig:
    """Knobs for eg_solve / eg_momentum_solve.

    step_size / inner_iters default to None, meaning "pick from the market
    size" (the tuned table above; 1000 inner iterations when n > 1000, else
    100).  beta_schedule is "inv_sqrt" (beta_t = beta_scale/sqrt(t)) or
    "constant" (beta_t = beta_scale); the latter is what the high-precision
    reference configuration uses.  eg_solve takes momentum 0 and
    eg_momentum_solve a positive momentum.
    """

    step_size: float | None = None
    momentum: float = 0.0
    inner_iters: int | None = None
    epochs: int = 30
    rho: float = 0.2
    beta_schedule: str = "inv_sqrt"
    beta_scale: float = 1.0
    ng_stop: float | None = 1e-3  # early stop once projected NG drops below

    def __post_init__(self):
        if self.step_size is not None:
            check_range("step_size", self.step_size, 0.0, open_low=True)
        check_range("momentum", self.momentum, 0.0, 1.0)
        check_range("rho", self.rho, 0.0, open_low=True)
        check_integer("epochs", self.epochs, 1)
        if self.inner_iters is not None:
            check_integer("inner_iters", self.inner_iters, 1)
        if self.ng_stop is not None:
            check_range("ng_stop", self.ng_stop, 0.0, open_low=True)
        if self.beta_schedule not in ("inv_sqrt", "constant"):
            raise InvalidArgument("beta_schedule must be 'inv_sqrt' or 'constant'")
        check_range("beta_scale", self.beta_scale, 0.0)

    def beta(self, epoch: int) -> float:
        if self.beta_schedule == "constant":
            return self.beta_scale
        return self.beta_scale / math.sqrt(epoch)


def naive(market: Market) -> metrics.EquilibriumCandidate:
    """Even allocation, budget-proportional prices; feasible by construction.

    x_ij = Y_j / n (one normalized unit each) and p_j = sum_i B_i / (m Y_j),
    so VoA = VoP = 0 exactly; only buyer optimality is violated.
    """
    supplies = market.supplies
    x = np.tile(supplies / market.n, (market.n, 1))
    p = market.total_budget / (market.m * supplies)
    return metrics.EquilibriumCandidate(x, p)


def eg_solve(market: Market, config: EgConfig | None = None):
    """Plain full-batch EG descent; returns (candidate, history)."""
    config = config or EgConfig()
    if config.momentum != 0.0:
        raise InvalidArgument("eg_solve is the momentum-free variant; use eg_momentum_solve")
    return _solve(market, config)


def eg_momentum_solve(market: Market, config: EgConfig | None = None):
    """Heavy-ball variant; momentum defaults to 0.9."""
    config = config or EgConfig(momentum=0.9)
    if config.momentum == 0.0:
        raise InvalidArgument("eg_momentum_solve needs momentum > 0; use eg_solve")
    return _solve(market, config)


def _solve(market: Market, config: EgConfig):
    """Descend from the naive start, scoring every epoch by its projected NG."""
    _, candidate, history = run_epochs(market, descend(market, config), config.epochs, True,
                                       config.ng_stop)
    return candidate, history


def descend(market: Market, config: EgConfig, start: np.ndarray | None = None):
    """The EG descent loop from the normalized allocation `start` (None: the
    naive all-ones allocation).  Each epoch runs `inner_iters` gradient steps
    on the penalized Lagrangian and one dual step on the multipliers, then
    yields (epoch, normalized allocation, multipliers, loss, train_seconds)
    for epochs 1..config.epochs, the tuple `trainer.run_epochs` consumes.
    The softplus parameters behind the allocation never leave the loop: each
    yielded allocation is a fresh C-ordered array, and `start` is never
    written.  Every n-by-m array of the loop is buyer-contiguous, as the
    market's cached values already are (they are read, not copied), so each
    element-wise pass, per-buyer reduction over goods and per-good mean runs
    along n-long vectors.  Those arrays are allocated once per call, and
    every gradient step runs in them: the softplus and CES kernels write into
    the loop's buffers.  `ng_stop` is left to the caller; a buyer reaching
    zero utility or diverging parameters raise NumericFailure."""
    eta = config.step_size if config.step_size is not None else step_size_for(market)
    inner = config.inner_iters if config.inner_iters is not None else (
        1000 if market.n > 1000 else 100)
    y_norm = market.supplies / market.n
    # the default supply Y_j = n scales by exactly 1, which leaves every bit
    unit_supply = bool(np.all(y_norm == 1.0))
    budgets = market.budgets
    values = market.values
    spec = market.ces
    if start is None:
        raw = np.full((market.n, market.m), _RAW_AT_ONE, order="F")
    else:  # softplus inverted; above 30 the allocation itself, within 1e-13
        with np.errstate(over="ignore"):
            raw = np.where(start > 30.0, start, np.log(np.expm1(np.minimum(start, 30.0))))
        raw = np.asfortranarray(raw, dtype=float)
    velocity = np.zeros_like(raw)
    lam = np.ones(market.m)
    finite = np.empty_like(raw, dtype=bool)
    # softplus value, slope and scratch; the physical bundle; the gradient
    softplus_buffers = tuple(np.empty_like(raw) for _ in range(3))
    x_phys = None if unit_supply else np.empty_like(raw)
    grad_buffer = np.empty_like(raw)

    for epoch in range(1, config.epochs + 1):
        t_start = time.perf_counter()
        for _ in range(inner):
            x_hat, slope = softplus_and_slope(raw, out=softplus_buffers)
            resid = np.add.reduce(x_hat, axis=0) / market.n - 1.0  # x_hat.mean(axis=0)
            bundle = x_hat if unit_supply else np.multiply(x_hat, y_norm, out=x_phys)
            log_u, grad = ces.log_utility_and_gradient(values, bundle, spec, out=grad_buffer)
            # a buyer left with zero utility is the descent's failure, and
            # outranks a bundle on the boundary, where the gradient is singular
            if not np.all(np.isfinite(log_u)):
                raise NumericFailure(_ZERO_UTILITY)
            if grad is None:
                raise InvalidArgument(ces._SINGULAR_GRADIENT)
            # grad_raw = (lam + rho * resid - (B * dlog_u) * y_norm) / n * slope,
            # formed in the gradient's own buffer
            np.multiply(budgets[:, None], grad, out=grad)
            if not unit_supply:
                grad *= y_norm
            np.subtract((lam + config.rho * resid)[None, :], grad, out=grad)
            grad /= market.n
            grad *= slope
            if config.momentum:
                velocity *= config.momentum
                velocity += grad
                raw -= np.multiply(eta, velocity, out=grad)
            else:
                raw -= np.multiply(eta, grad, out=grad)
            if not np.isfinite(raw, out=finite).all():
                raise NumericFailure("parameters diverged; lower the step size")
        loss = float(
            -(budgets @ log_u) / market.n + lam @ resid + config.rho / 2.0 * resid @ resid
        )
        # the dual step reads the column-major allocation, so its per-good
        # means add up in the loop's order
        x_hat, _ = softplus_and_slope(raw, out=softplus_buffers)
        lam = multiplier_update(lam, x_hat, config.rho, config.beta(epoch))
        yield epoch, x_hat.copy(order="C"), lam, loss, time.perf_counter() - t_start


__all__ = ["EgConfig", "naive", "eg_solve", "eg_momentum_solve", "descend", "step_size_for"]
