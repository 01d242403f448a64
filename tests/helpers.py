"""Shared test fixtures: hand-built markets with exact value/budget matrices."""

import tracemalloc

import numpy as np

from marketeq.ces import CesSpec
from marketeq.market import ContextDistribution, Market, generate_market


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
