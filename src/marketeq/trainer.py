"""Train the allocation network with the augmented Lagrangian method of multipliers.

The solver alternates K adaptive-moment steps on a minibatch estimate of the
penalized Lagrangian with one dual ascent step per epoch on the multipliers,
which become the prices.  The estimator pairs two independent half-batches so
the quadratic penalty term stays unbiased: with 2M sampled buyers the
objective and multiplier terms use the first half only, while the penalty term
multiplies residuals from opposite halves,

    (rho / 2M) * sum_j sum_{i<=M} (x(b_i, g_j) - 1) * (x(b_{i+M}, g_j) - 1).

Per-epoch cost is independent of the buyer count for fixed batch size; only
the population passes (exact multipliers, scores, the candidate) touch all n.
"""

from __future__ import annotations

import csv
import math
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ces, metrics
from .errors import InvalidArgument, InvalidPrices, NumericFailure, check_integer, check_range, check_size
from .market import Market
from .net import AdamState, AllocationNet, adam_step, check_architecture

CURVE_COLUMNS = ("epoch", "ng", "voa", "vop", "loss")
SOLUTION_VERSION = 1
_HEADER_KEYS = ("version", "context_dim", "hidden_depth", "hidden_width")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for `train`."""

    batch_size_loss: int = 512  # M1, buyers per half-batch
    batch_size_multiplier: int | None = None  # None -> exact full-population pass
    rho: float = 0.2
    inner_iters: int = 100  # K optimizer steps per epoch
    epochs: int = 30
    learning_rate: float = 1e-4
    hidden_depth: int = 5
    hidden_width: int = 256
    seed: int = 0
    eval_each_epoch: bool = True
    checkpoint_dir: str | None = None  # when set, each epoch writes solution file net_epoch_###.npz

    def __post_init__(self):
        for name in ("batch_size_loss", "inner_iters", "epochs"):
            check_integer(name, getattr(self, name), 1)
        # each step draws 2M buyer indices; the net of context_dim 1 is the smallest
        check_size("the sample of 2 * batch_size_loss buyer indices", 2, self.batch_size_loss)
        check_architecture(1, self.hidden_depth, self.hidden_width)
        check_range("rho", self.rho, 0.0, open_low=True)
        check_range("learning_rate", self.learning_rate, 0.0, open_low=True)
        if self.batch_size_multiplier is not None:
            check_integer("batch_size_multiplier", self.batch_size_multiplier, 1)
        check_integer("seed", self.seed, 0)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float  # fcnet: mean minibatch Lagrangian estimate over the epoch; EG: at its last step
    ng: float  # scores of the epoch's pair; NaN when unscored or a multiplier is nonpositive
    voa: float
    vop: float
    train_seconds: float  # inner loop (EG: plus dual step); excludes fcnet's population pass
    eval_seconds: float  # the rest of the epoch's wall time: population pass, scores, checkpoint


def write_curve(path, history) -> None:
    """Curve file of EpochRecords: one row per epoch, columns (epoch, ng, voa, vop, loss)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CURVE_COLUMNS)
        for rec in history:
            writer.writerow([rec.epoch, repr(rec.ng), repr(rec.voa), repr(rec.vop), repr(rec.loss)])


def _norm_supply(market: Market) -> np.ndarray:
    # per-buyer normalized supply Y_j / n; identically 1 under the default
    return market.supplies / market.n


def lagrangian_step(net: AllocationNet, multipliers, rho: float, buyer_idx, market: Market):
    """One training step's minibatch Lagrangian: ((objective, multiplier,
    quadratic) terms of the unbiased estimate, flat parameter gradient of
    their sum), laid out like `net.get_flat()`.

    `buyer_idx` holds the market indices of 2M sampled buyers; the two halves
    must be independent draws.  Only the first half feeds the objective and
    multiplier terms.  `train` takes this step, and the unbiasedness and
    gradient checks test it.
    """
    buyer_idx = np.asarray(buyer_idx)
    if buyer_idx.ndim != 1 or buyer_idx.size == 0 or buyer_idx.size % 2 != 0:
        raise InvalidArgument("buyer sample must be a 1-D array of 2M buyer indices")
    if not np.issubdtype(buyer_idx.dtype, np.integer):
        raise InvalidArgument(f"buyer indices must be integers, got dtype {buyer_idx.dtype}")
    if buyer_idx.min() < 0 or buyer_idx.max() >= market.n:
        raise InvalidArgument(f"buyer indices must lie in [0, {market.n})")
    x_hat, cache = net.forward_step(market.buyers[buyer_idx], market.goods)
    terms, grad_x = _lagrangian_terms_from_outputs(
        x_hat, buyer_idx, np.asarray(multipliers, dtype=float), rho, market)
    return terms, net.backward(cache, grad_x.reshape(-1))


def _lagrangian_terms_from_outputs(x_hat, buyer_idx, lam, rho, market):
    """Terms and d/dx_hat of the 2M-sample estimate on the outputs `x_hat`
    of the buyers `buyer_idx`."""
    two_m = x_hat.shape[0]
    half = two_m // 2
    # only the first half's budgets and values enter the estimate
    budgets = market.budgets[buyer_idx[:half]]
    values = market.values[buyer_idx[:half]]
    y_norm = _norm_supply(market)
    x_phys = x_hat * y_norm  # physical bundles; identical to x_hat by default
    x1, x2 = x_hat[:half], x_hat[half:]

    log_u, dlog_u = ces.log_utility_and_gradient(values, x_phys[:half], market.ces)
    if not np.all(np.isfinite(log_u)):
        raise NumericFailure("a sampled buyer has zero or non-finite utility")
    obj = -float(budgets @ log_u) / half
    resid1 = x1.mean(axis=0) - 1.0
    mult = float(lam @ resid1)
    quad = rho / (2.0 * half) * float(np.sum((x1 - 1.0) * (x2 - 1.0)))
    if not np.isfinite(obj + mult + quad):
        raise NumericFailure("the Lagrangian estimate overflowed")
    if dlog_u is None:
        # a bundle on the boundary: zero utility and overflow outrank it
        raise InvalidArgument(ces._SINGULAR_GRADIENT)

    grad = np.empty_like(x_hat)
    grad[:half] = (
        -(budgets[:, None] * dlog_u) * y_norm / half
        + lam[None, :] / half
        + rho / (2.0 * half) * (x2 - 1.0)
    )
    grad[half:] = rho / (2.0 * half) * (x1 - 1.0)
    return (obj, mult, quad), grad


def multiplier_update(multipliers, allocation, rho: float, beta_t: float) -> np.ndarray:
    """Dual ascent step: lambda_j += beta_t * rho * (mean_i allocation_ij - 1).

    `allocation` holds the normalized rows to average: the whole population or
    a sample of buyers.  fcnet, the EG descent and the numeric oracle all take
    this step; beta_t = 0 leaves the multipliers unchanged."""
    lam = np.asarray(multipliers, dtype=float)
    if np.ndim(allocation) != 2 or np.shape(allocation)[1:] != lam.shape:
        raise InvalidArgument("allocation must be 2-D with one column per multiplier")
    check_range("beta_t", beta_t, 0.0)
    return lam + beta_t * rho * (np.mean(allocation, axis=0) - 1.0)


def train(market: Market, config: TrainConfig):
    """Run the full training loop; returns (net, multipliers, candidate, history).

    Deterministic given the config seed: network init, the uniform
    with-replacement draw of buyer indices and all reductions are fixed-order.
    """
    init_ss, sample_ss = np.random.SeedSequence(config.seed).spawn(2)
    net = AllocationNet.initialize(market.k, config.hidden_depth, config.hidden_width, init_ss)
    lam, candidate, history = run_epochs(market, _train_epochs(net, market, config, sample_ss),
                                         config.epochs, config.eval_each_epoch)
    return net, lam, candidate, history


def _train_epochs(net: AllocationNet, market: Market, config: TrainConfig, sample_ss):
    """`net`'s epochs for `run_epochs`.  One population forward feeds an
    epoch's exact dual step and scores; the last epoch's is the candidate.
    The step workspace is released before it, so one set of layer buffers
    is live at a time."""
    adam = AdamState.for_net(net, lr=config.learning_rate)
    sampler = np.random.Generator(np.random.Philox(sample_ss))
    lam = np.ones(market.m)
    exact_pass = config.batch_size_multiplier is None or config.batch_size_multiplier >= market.n
    for epoch in range(1, config.epochs + 1):
        t_start = time.perf_counter()
        loss_sum = 0.0
        for _ in range(config.inner_iters):
            idx = sampler.integers(0, market.n, size=2 * config.batch_size_loss)
            terms, grad = lagrangian_step(net, lam, config.rho, idx, market)
            loss_sum += sum(terms)
            adam_step(adam, net, grad)
        train_seconds = time.perf_counter() - t_start
        # the last step's gradient and cache are dead: freed, their memory
        # serves the population pass, which then peaks alone
        grad = None
        net.release_workspace()

        beta_t = 1.0 / math.sqrt(epoch)
        population = (net.forward_batch(market.buyers, market.goods)
                      if exact_pass or config.eval_each_epoch or epoch == config.epochs else None)
        if exact_pass:
            lam = multiplier_update(lam, population, config.rho, beta_t)
        else:
            idx = sampler.integers(0, market.n, size=config.batch_size_multiplier)
            lam = multiplier_update(lam, net.forward_batch(market.buyers[idx], market.goods),
                                    config.rho, beta_t)
        if config.checkpoint_dir is not None:
            path = Path(config.checkpoint_dir)
            path.mkdir(parents=True, exist_ok=True)
            save_solution(path / f"net_epoch_{epoch:03d}.npz", net, lam)
        yield epoch, population, lam, loss_sum / config.inner_iters, train_seconds
        population = None  # the next epoch's pass must not find this one alive


def run_epochs(market: Market, epochs, last_epoch: int, score: bool, ng_stop: float | None = None):
    """The one epoch driver of fcnet and EG; returns (multipliers, candidate, history).

    `epochs` yields (epoch, normalized population, or None in an unscored
    epoch before `last_epoch`, multipliers, loss, train_seconds).  The rest
    of an epoch's wall time is its `eval_seconds`.  The candidate is the pair
    of the last epoch, or of the first whose NG falls below `ng_stop`.  A
    NumericFailure or nonpositive final multipliers raise with the history."""
    history = []
    t_start = time.perf_counter()
    try:
        for epoch, population, lam, loss, train_seconds in epochs:
            ng = voa = vop = math.nan
            if score or epoch == last_epoch:
                x, p = solution_pair(population, lam, market)
            if score:
                ng, voa, vop = epoch_scores(market, x, p)
            t_end = time.perf_counter()
            history.append(EpochRecord(epoch=epoch, loss=loss, ng=ng, voa=voa, vop=vop,
                                       train_seconds=train_seconds,
                                       eval_seconds=t_end - t_start - train_seconds))
            t_start = t_end
            if epoch == last_epoch or (ng_stop is not None and ng < ng_stop):
                break
            population = x = None  # the next epoch's pass must not find this one alive
    except NumericFailure as err:
        raise NumericFailure(f"epoch {len(history) + 1}: {err}", history) from err
    if not np.all(lam > 0):
        raise InvalidPrices("a multiplier ended nonpositive; it cannot stand as a price", history)
    return lam, metrics.EquilibriumCandidate(x, p), history


def epoch_scores(market: Market, x, p):
    """(NG, VoA, VoP) of an epoch's pair, from `metrics.evaluate` without KKT;
    NaN while a multiplier is nonpositive and cannot stand as a price."""
    if np.any(np.asarray(p) <= 0):
        return math.nan, math.nan, math.nan
    report = metrics.evaluate(market, x, p, kkt=False)
    return report.ng, report.voa, report.vop


def solution_pair(allocation, multipliers, market: Market):
    """Physical (x, p) of a normalized state: x_ij = allocation_ij * Y_j/n,
    scaled in `allocation`'s own buffer, and p_j = lambda_j * n/Y_j.

    Multipliers price the normalized (per-buyer) units; both factors are 1
    under the default supply.  Every solver maps its state to a pair here."""
    y_norm = _norm_supply(market)
    x = np.multiply(allocation, y_norm, out=allocation)
    return x, np.asarray(multipliers, dtype=float) / y_norm


def save_solution(path, net: AllocationNet, multipliers) -> None:
    """Write the trained pair as one versioned .npz file: the header (version
    and architecture), the flat parameters, then the multipliers."""
    np.savez(path, version=SOLUTION_VERSION, context_dim=net.context_dim,
             hidden_depth=net.hidden_depth, hidden_width=net.hidden_width,
             params=net.get_flat(), multipliers=np.asarray(multipliers, dtype=float))


def load_solution(path):
    """Inverse of save_solution; returns (net, multipliers).

    Raises InvalidArgument unless the file is a marketeq solution: every
    header field an integer scalar, finite numeric parameters and
    multipliers, and as many parameters as the header's architecture holds,
    which the network's constructor checks before it allocates anything."""
    try:
        with np.load(path) as blob:
            arrays = dict(blob)
    except (ValueError, TypeError, zipfile.BadZipFile) as err:
        # text or pickled data, a bare .npy array, or a damaged archive
        raise InvalidArgument(f"{path} is not a marketeq solution (.npz archive)") from err
    missing = [key for key in _HEADER_KEYS + ("params", "multipliers") if key not in arrays]
    if missing:
        raise InvalidArgument(f"{path} is not a marketeq solution: it lacks {missing}")
    for key in _HEADER_KEYS:
        if arrays[key].shape != () or arrays[key].dtype.kind not in "iu":
            raise InvalidArgument(f"{path}: {key} must be an integer scalar, got {arrays[key]!r}")
    if int(arrays["version"]) != SOLUTION_VERSION:
        raise InvalidArgument(f"unsupported solution version {arrays['version']}")
    for key in ("params", "multipliers"):
        if arrays[key].dtype.kind not in "iuf" or not np.all(np.isfinite(arrays[key])):
            raise InvalidArgument(f"{path} holds non-numeric or non-finite {key}")
    net = AllocationNet(*(int(arrays[key]) for key in _HEADER_KEYS[1:]), arrays["params"])
    return net, arrays["multipliers"]


def extract_solution(net: AllocationNet, multipliers, market: Market) -> metrics.EquilibriumCandidate:
    """Materialize the candidate: the net's allocation over the whole
    population and the multipliers, mapped by `solution_pair`."""
    lam = ces._check_prices(multipliers, market.m)
    x, p = solution_pair(net.forward_batch(market.buyers, market.goods), lam, market)
    return metrics.EquilibriumCandidate(x, p)


__all__ = [
    "TrainConfig",
    "EpochRecord",
    "write_curve",
    "CURVE_COLUMNS",
    "lagrangian_step",
    "multiplier_update",
    "solution_pair",
    "train",
    "run_epochs",
    "extract_solution",
    "save_solution",
    "load_solution",
]
