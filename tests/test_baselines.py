import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from marketeq import ces, metrics
from marketeq.baselines import (
    _RAW_AT_ONE,
    EgConfig,
    descend,
    eg_momentum_solve,
    eg_solve,
    naive,
    step_size_for,
)
from marketeq.ces import CesSpec
from marketeq.errors import InvalidArgument, InvalidPrices, NumericFailure
from marketeq.market import ContextDistribution, generate_market, softplus, softplus_and_slope
from marketeq.oracle import cobb_douglas_equilibrium

from helpers import market_from_values, random_market


def test_naive_symmetric_market():
    mkt = market_from_values(np.ones((2, 2)), [1.0, 1.0], CesSpec.cobb_douglas())
    cand = naive(mkt)
    np.testing.assert_allclose(cand.allocation, np.ones((2, 2)))
    np.testing.assert_allclose(cand.prices, [0.5, 0.5])


def test_naive_feasible_by_construction():
    # feasibility is exact in exact arithmetic; the dot products in the
    # projection leave at most an ulp or two
    rng = np.random.default_rng(0)
    for _ in range(20):
        mkt = random_market(rng, int(rng.integers(2, 40)), int(rng.integers(2, 6)),
                            CesSpec.general(0.5))
        cand = naive(mkt)
        _, _, voa, vop = metrics.project(mkt, cand.allocation, cand.prices)
        assert voa == 0.0
        assert vop <= 1e-14
        assert abs(metrics.price_residual(mkt, cand.prices)) <= 1e-15


def test_step_size_regimes():
    big_linear = generate_market(1001, 2, 2, ContextDistribution.UNIFORM01, CesSpec.linear(), 1)
    big_curved = generate_market(1001, 2, 2, ContextDistribution.UNIFORM01, CesSpec.general(0.5), 1)
    small_linear = generate_market(10, 2, 2, ContextDistribution.UNIFORM01, CesSpec.linear(), 1)
    small_curved = generate_market(10, 2, 2, ContextDistribution.UNIFORM01, CesSpec.cobb_douglas(), 1)
    assert step_size_for(big_linear) == 1e2
    assert step_size_for(big_curved) == 1e3
    assert step_size_for(small_linear) == 0.1
    assert step_size_for(small_curved) == 1.0


def test_eg_single_pair_converges():
    mkt = market_from_values([[1.0]], [1.0], CesSpec.linear())
    cand, history = eg_solve(mkt, EgConfig(epochs=200, ng_stop=1e-4))
    assert cand.allocation[0, 0] == pytest.approx(1.0, abs=1e-2)
    assert cand.prices[0] == pytest.approx(1.0, abs=5e-2)
    assert list(history)[-1].ng <= 1e-3


def test_eg_variants_match_closed_form_prices():
    mkt = generate_market(50, 5, 5, ContextDistribution.STANDARD_NORMAL,
                          CesSpec.cobb_douglas(), 555)
    closed = cobb_douglas_equilibrium(mkt)
    for solver in (eg_solve, eg_momentum_solve):
        config = EgConfig(momentum=0.0 if solver is eg_solve else 0.9,
                          epochs=80, ng_stop=1e-5)
        cand, _ = solver(mkt, config)
        _, p_t, _, _ = metrics.project(mkt, cand.allocation, cand.prices)
        rel = np.max(np.abs(p_t - closed.candidate.prices) / closed.candidate.prices)
        assert rel <= 1e-2


def test_eg_oracle_agreement_small_markets():
    rng = np.random.default_rng(1)
    for alpha in (0.0, 0.5):
        spec = CesSpec.cobb_douglas() if alpha == 0.0 else CesSpec.general(alpha)
        for trial in range(5):
            mkt = random_market(rng, int(rng.integers(5, 101)), int(rng.integers(2, 6)), spec)
            for solver, momentum in ((eg_solve, 0.0), (eg_momentum_solve, 0.9)):
                cand, history = solver(mkt, EgConfig(momentum=momentum, epochs=150))
                assert list(history)[-1].ng <= 1e-3


def test_eg_descent_property():
    # freeze the multipliers (zero dual step) and take one gradient step per
    # epoch, so the recorded losses trace the exact Lagrangian along descent
    rng = np.random.default_rng(2)
    fractions = []
    for trial in range(3):
        mkt = random_market(rng, 20, 3, CesSpec.general(0.5))
        config = EgConfig(inner_iters=1, epochs=150, beta_schedule="constant",
                          beta_scale=0.0, ng_stop=None)
        _, history = eg_solve(mkt, config)
        losses = np.array([rec.loss for rec in history])
        drops = np.diff(losses) <= 1e-12
        fractions.append(drops.mean())
    assert min(fractions) >= 0.95


def test_eg_early_stop():
    mkt = generate_market(64, 3, 5, ContextDistribution.STANDARD_NORMAL,
                          CesSpec.cobb_douglas(), 9)
    cand, history = eg_momentum_solve(mkt, EgConfig(momentum=0.9, epochs=150, ng_stop=1e-3))
    assert len(history) < 150
    assert list(history)[-1].ng < 1e-3


def test_eg_rejects_momentum_mismatch():
    mkt = market_from_values([[1.0]], [1.0], CesSpec.linear())
    with pytest.raises(InvalidArgument):
        eg_solve(mkt, EgConfig(momentum=0.5))
    with pytest.raises(InvalidArgument):
        eg_momentum_solve(mkt, EgConfig(epochs=2))
    with pytest.raises(InvalidArgument):
        EgConfig(inner_iters=0)


def test_eg_nonpositive_multiplier_raises():
    # one near-worthless good: its allocation drops below target in epoch one,
    # and an oversized dual step then drives the multiplier negative
    mkt = market_from_values([[1.0, 1e-3], [1.0, 1e-3]], [1.0, 1.0], CesSpec.cobb_douglas())
    with pytest.raises(InvalidPrices):
        eg_solve(mkt, EgConfig(epochs=1, beta_schedule="constant", beta_scale=1e4,
                               ng_stop=None))


@pytest.mark.parametrize("spec, error", [
    (CesSpec.cobb_douglas(), NumericFailure),  # zero utility outranks the boundary
    (CesSpec.general(-1.0), NumericFailure),
    (CesSpec.general(0.5), InvalidArgument),  # a zero component alone is a boundary
])
def test_eg_boundary_error_precedence(spec, error):
    market = generate_market(6, 3, 3, ContextDistribution.STANDARD_NORMAL, spec, 1)
    config = EgConfig(step_size=1e3, inner_iters=50, epochs=2, ng_stop=None)
    with pytest.raises(error) as info:
        eg_solve(market, config)
    if error is NumericFailure:
        assert "zero utility" in str(info.value) and info.value.history is not None


LAYOUT_CONFIG = EgConfig(step_size=1.0, momentum=0.9, inner_iters=20, epochs=3, ng_stop=None)


def _epochs(mkt, start):
    return [(epoch, x_hat, lam, loss)
            for epoch, x_hat, lam, loss, _ in descend(mkt, LAYOUT_CONFIG, start)]


def test_descend_owns_a_column_major_copy():
    # the softplus parameters stay inside the loop: each epoch yields a fresh
    # C-ordered allocation, also where one good makes its column-major buffer
    # C-contiguous too, and the start is only read
    rng = np.random.default_rng(31)
    for m in (10, 1):
        mkt = random_market(rng, 40, m, CesSpec.general(0.5))
        start = rng.uniform(0.9, 1.1, size=(mkt.n, mkt.m))
        before = start.copy()
        yields = []
        for _, x_hat, _, _, _ in descend(mkt, LAYOUT_CONFIG, start):
            assert x_hat.flags.c_contiguous and x_hat.flags.owndata
            assert not any(np.shares_memory(x_hat, other) for other in [start, *yields])
            yields.append(x_hat)
        assert len(yields) == LAYOUT_CONFIG.epochs
        assert np.array_equal(start, before)


@pytest.mark.parametrize("spec", [CesSpec.general(0.5), CesSpec.linear(), CesSpec.cobb_douglas()],
                         ids=lambda s: s.alpha_label)
def test_descend_epochs_do_not_depend_on_input_layout(spec):
    rng = np.random.default_rng(32)
    mkt = random_market(rng, 40, 10, spec)
    start = rng.uniform(0.9, 1.1, size=(mkt.n, mkt.m))
    from_c, from_f = _epochs(mkt, start), _epochs(mkt, np.asfortranarray(start))
    for (epoch, x_c, lam_c, loss_c), (_, x_f, lam_f, loss_f) in zip(from_c, from_f):
        assert np.array_equal(x_c, x_f) and np.array_equal(lam_c, lam_f), epoch
        assert loss_c == loss_f, epoch


def test_eg_solvers_return_c_contiguous_allocations():
    mkt = generate_market(40, 10, 5, ContextDistribution.STANDARD_NORMAL, CesSpec.general(0.5), 33)
    for solver, momentum in ((eg_solve, 0.0), (eg_momentum_solve, 0.9)):
        cand, _ = solver(mkt, EgConfig(momentum=momentum, inner_iters=10, epochs=2, ng_stop=None))
        assert cand.allocation.flags.c_contiguous


def _row_mean(a):
    # a per-good mean summed one buyer row at a time
    total = a[0].copy()
    for row in a[1:]:
        total += row
    return total / len(a)


@pytest.mark.parametrize("spec", [CesSpec.general(0.5), CesSpec.cobb_douglas(), CesSpec.linear()],
                         ids=lambda s: s.alpha_label)
def test_small_market_multipliers_match_row_by_row_reference(spec):
    # below eight buyers the per-good means of the column-major loop add in
    # buyer order, so a C-ordered reference loop gives the same bits; with the
    # default supply (Y_j / n = 1, whose products the loop skips) and with an
    # override
    rng = np.random.default_rng(34)
    mkt = random_market(rng, 7, 3, spec)
    supplied = replace(mkt, supply_override=mkt.n * rng.uniform(0.5, 2.0, size=mkt.m))
    for market in (mkt, supplied):
        _check_against_row_by_row_reference(market)


def _check_against_row_by_row_reference(mkt):
    config = LAYOUT_CONFIG
    y_norm = mkt.supplies / mkt.n
    raw = np.full((mkt.n, mkt.m), _RAW_AT_ONE)
    velocity, lam = np.zeros_like(raw), np.ones(mkt.m)
    for epoch, got_x, got_lam, _, _ in descend(mkt, config):
        for _ in range(config.inner_iters):
            x_hat, slope = softplus_and_slope(raw)
            resid = _row_mean(x_hat) - 1.0
            _, grad = ces.log_utility_and_gradient(mkt.values, x_hat * y_norm, mkt.ces)
            grad = (lam + config.rho * resid - mkt.budgets[:, None] * grad * y_norm) / mkt.n * slope
            velocity = config.momentum * velocity + grad
            raw = raw - config.step_size * velocity
        x_hat = softplus(raw)
        lam = lam + config.beta(epoch) * config.rho * (_row_mean(x_hat) - 1.0)
        assert np.array_equal(got_lam, lam), epoch
        assert np.array_equal(got_x, x_hat), epoch


@pytest.mark.parametrize("spec", [CesSpec.general(0.5), CesSpec.cobb_douglas()],
                         ids=lambda s: s.alpha_label)
def test_descend_iterations_allocate_no_full_arrays(spec):
    # the loop's n-by-m buffers are allocated before its first epoch; what a
    # later epoch allocates (the kernels' per-buyer vectors, and the copy of
    # the allocation it yields) stays under 2.5 n-by-m arrays for a consumer
    # that drops each yield before asking for the next
    mkt = generate_market(4096, 5, 5, ContextDistribution.STANDARD_NORMAL, spec, 7)
    config = EgConfig(momentum=0.9, inner_iters=20, epochs=3, ng_stop=None)
    epochs = descend(mkt, config)
    next(epochs)
    seen = []
    tracemalloc.start()
    try:
        for item in epochs:
            seen.append(item[0])
            del item  # held, this yield would sit beside the next one
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seen == [2, 3]
    assert peak < 2.5 * mkt.n * mkt.m * 8, peak / (mkt.n * mkt.m * 8)
