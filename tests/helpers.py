"""Shared test fixtures: hand-built markets with exact value/budget matrices,
and the references the package is checked against."""

import tracemalloc
from dataclasses import astuple

import numpy as np

from marketeq import ces, oracle
from marketeq.ces import CesSpec, Regime
from marketeq.market import ContextDistribution, Market, generate_market, softplus
from marketeq.net import AllocationNet


def inv_softplus(v):
    """z with softplus(z) = v."""
    return np.log(np.expm1(np.asarray(v, dtype=float)))


def market_from_values(values, budgets, spec, supplies=None):
    """Build a market whose derived budgets/values equal the given matrices exactly.

    Buyer i gets context B_i * e_i (k = n), and good j's context solves
    softplus(<b_i, g_j>) = v_ij component-wise, so the derived quantities hit
    the targets to machine precision.
    """
    values = np.asarray(values, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    n, m = values.shape
    buyers = np.diag(budgets)
    goods = (inv_softplus(values) / budgets[:, None]).T  # (m, n)
    return Market(n=n, m=m, k=n, buyers=buyers, goods=goods, ces=spec,
                  supply_override=None if supplies is None else np.asarray(supplies, float))


def random_market(rng, n, m, spec, dist=ContextDistribution.STANDARD_NORMAL, k=5):
    return generate_market(n, m, k, dist, spec, int(rng.integers(2**31)))


def peak_bytes(fn, *args):
    """tracemalloc's peak of the allocations made while `fn(*args)` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_problem(rng, m):
    """Strictly positive (values, budget, prices) with a few decades of spread."""
    values = np.exp(rng.uniform(-2.0, 2.0, size=m))
    prices = np.exp(rng.uniform(-2.0, 2.0, size=m))
    budget = float(np.exp(rng.uniform(-1.0, 1.0)))
    return values, budget, prices


ALL_SPECS = [
    CesSpec.linear(),
    CesSpec.general(0.5),
    CesSpec.cobb_douglas(),
    CesSpec.general(-1.0),
    CesSpec.leontief(),
]


def budget(b) -> float:
    """||b||_2, the reference for `Market.budgets`."""
    return float(np.linalg.norm(np.asarray(b, dtype=float)))


def valuation(b, g) -> float:
    """log(1 + exp(<b, g>)), the reference for `Market.values`."""
    return float(np.logaddexp(0.0, np.dot(b, g)))


def utility(values, bundle, spec):
    """u(bundle), each regime's formula written out directly: the reference
    the log-utility and fixed-price kernels are checked against.  Broadcasts
    over leading axes."""
    values = np.asarray(values, dtype=float)
    bundle = np.asarray(bundle, dtype=float)
    if spec.regime is Regime.LINEAR:
        return np.sum(values * bundle, axis=-1)
    if spec.regime is Regime.LEONTIEF:
        return np.min(values * bundle, axis=-1)
    if spec.regime is Regime.COBB_DOUGLAS:
        return np.prod(bundle ** (values / np.sum(values, axis=-1, keepdims=True)), axis=-1)
    with np.errstate(divide="ignore"):  # 0 ** alpha is inf for alpha < 0, so u = 0
        return np.sum((values * bundle) ** spec.alpha, axis=-1) ** (1.0 / spec.alpha)


def utility_gradient(values, bundle, spec):
    """Marginal utilities du/dx_j = u d log u / dx_j, from `ces.log_utility_gradient`
    and the reference `utility`; InvalidArgument where that gradient is singular."""
    return ces.log_utility_gradient(values, bundle, spec) * utility(values, bundle, spec)[..., None]


def exact_lagrangian_terms(net, multipliers, rho, market):
    """(objective, multiplier, quadratic) terms of the full-population
    Lagrangian: the value the minibatch estimate is unbiased for."""
    lam = np.asarray(multipliers, dtype=float)
    x_hat = net.forward_batch(market.buyers, market.goods)
    log_u = ces.log_utility(market.values, x_hat * (market.supplies / market.n), market.ces)
    assert np.all(np.isfinite(log_u))
    resid = x_hat.mean(axis=0) - 1.0
    return (-float(market.budgets @ log_u) / market.n, float(lam @ resid),
            rho / 2.0 * float(np.sum(resid * resid)))


def plain_layers(net, buyers, goods):
    """Each layer's input and pre-activation for the buyer-major pairs
    [b_i; g_j], row-major, each bias added after its product, as first
    written: the reference for the network's forwards and `backward`."""
    m = goods.shape[0]
    h = np.hstack([np.repeat(buyers, m, axis=0), np.tile(goods, (buyers.shape[0], 1))])
    acts, pre_acts = [], []
    for w, b in zip(net.weights, net.biases):
        acts.append(h)
        pre_acts.append(h @ w + b)
        h = np.maximum(pre_acts[-1], 0.0)
    return acts, pre_acts


def plain_forward(net, buyers, goods):
    """The allocation matrix (M, m) from `plain_layers`."""
    _, pre_acts = plain_layers(net, buyers, goods)
    return softplus(pre_acts[-1][:, 0]).reshape(buyers.shape[0], goods.shape[0])


def assert_same_report(report, other):
    """The two `MetricsReport`s agree in the repr of every field."""
    assert [repr(float(v)) for v in astuple(report)] == [repr(float(v)) for v in astuple(other)]


def with_params(net, flat):
    """A network of `net`'s architecture holding the parameters `flat`, in
    `get_flat()` order (for finite differences)."""
    return AllocationNet(net.context_dim, net.hidden_depth, net.hidden_width, flat)


def single_pair_equilibrium(market):
    """The 1x1 market's equilibrium: the buyer takes the whole supply Y at
    p = B/Y.  Certified as the oracle certifies a closed form, with NG within
    1e-12, KKT within 1e-10 where the regime has a gradient, and the price
    identity to 1e-8; returns the `oracle.OracleResult`."""
    assert (market.n, market.m) == (1, 1)
    y = market.supplies[0]
    x, p = np.array([[y]]), np.array([market.total_budget / y])
    return oracle._certify(market, x, p, max_ng=1e-12, max_kkt=1e-10, method="closed-form")
