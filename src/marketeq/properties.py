"""Cross-module property runner: every structural invariant in one place.

Each property draws randomized instances (seeded, so failures replay), checks
an invariant end to end, and reports a PropertyOutcome.  The quick profile
shrinks trial counts roughly tenfold for laptop-speed runs; full is the
reference setting.  Failures never raise: they come back as data, with the
worst witness serialized so it can be replayed as a standalone regression.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from . import ces, metrics
from .baselines import EgConfig, eg_momentum_solve, eg_solve, naive
from .ces import CesSpec
from .errors import MarketEqError
from .market import ContextDistribution, Market, generate_market, softplus
from .net import AllocationNet
from .oracle import cobb_douglas_equilibrium, numeric_equilibrium
from .trainer import (
    TrainConfig,
    estimate_lagrangian,
    estimate_lagrangian_terms,
    exact_lagrangian,
    exact_lagrangian_terms,
    train,
)

PROFILES = ("quick", "full")


@dataclass
class PropertyOutcome:
    name: str
    trials: int
    failures: int
    worst_witness: dict | None = None
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass
class _Check:
    """Collects trial results and the first/worst failing witness."""

    trials: int = 0
    failures: int = 0
    worst_witness: dict | None = None
    worst_margin: float = 0.0

    def record(self, ok: bool, margin: float = 0.0, witness=None):
        self.trials += 1
        if not ok:
            self.failures += 1
            if self.worst_witness is None or margin > self.worst_margin:
                self.worst_margin = margin
                self.worst_witness = witness if witness is not None else {}


def _scaled(profile: str, full: int) -> int:
    return max(1, full // 10) if profile == "quick" else full


def _witness_market(market: Market, **extra):
    doc = market.to_json()
    doc.update(extra)
    return doc


# --- ces ---------------------------------------------------------------------

def prop_ces_consistency(rng, profile):
    check = _Check()
    per_regime = _scaled(profile, 200)
    for spec in (CesSpec.linear(), CesSpec.general(0.5), CesSpec.cobb_douglas(),
                 CesSpec.general(-1.0), CesSpec.leontief()):
        for _ in range(per_regime):
            m = int(rng.integers(2, 8))
            values = np.exp(rng.uniform(-2, 2, m))
            prices = np.exp(rng.uniform(-2, 2, m))
            budget = float(np.exp(rng.uniform(-1, 1)))
            problem = ces.BuyerProblem(values, budget, prices)
            x = ces.demand(problem, spec)
            u_star = float(np.exp(ces.fixed_price_log_utility(problem, spec)))
            spend_err = abs(float(prices @ x) - budget) / budget
            util_err = abs(float(ces.utility(values, x, spec)) - u_star) / u_star
            ok = spend_err <= 1e-10 and util_err <= 1e-8
            check.record(ok, max(spend_err, util_err),
                         {"spec": spec.regime.value, "values": values.tolist(),
                          "budget": budget, "prices": prices.tolist()})
    return check


def prop_ces_optimality(rng, profile):
    check = _Check()
    per_regime = _scaled(profile, 200)
    for spec in (CesSpec.linear(), CesSpec.general(0.5), CesSpec.cobb_douglas(),
                 CesSpec.general(-1.0), CesSpec.leontief()):
        for _ in range(per_regime):
            m = int(rng.integers(2, 8))
            values = np.exp(rng.uniform(-2, 2, m))
            prices = np.exp(rng.uniform(-2, 2, m))
            budget = float(np.exp(rng.uniform(-1, 1)))
            problem = ces.BuyerProblem(values, budget, prices)
            u_star = float(np.exp(ces.fixed_price_log_utility(problem, spec)))
            bundles = rng.dirichlet(np.ones(m), size=500) * budget / prices
            best = float(np.max(ces.utility(values, bundles, spec)))
            check.record(best <= u_star + 1e-9, best - u_star,
                         {"spec": spec.regime.value, "values": values.tolist(),
                          "budget": budget, "prices": prices.tolist()})
    return check


def prop_ces_homogeneity(rng, profile):
    check = _Check()
    for spec in (CesSpec.linear(), CesSpec.general(0.5), CesSpec.cobb_douglas(),
                 CesSpec.general(-1.0), CesSpec.leontief()):
        for _ in range(_scaled(profile, 100)):
            m = int(rng.integers(2, 8))
            values = np.exp(rng.uniform(-2, 2, m))
            x = np.exp(rng.uniform(-2, 2, m))
            u = float(ces.utility(values, x, spec))
            worst = max(
                abs(float(ces.utility(values, lam * x, spec)) - lam * u) / (lam * u)
                for lam in (0.5, 2.0, 10.0))
            check.record(worst <= 1e-12, worst, {"values": values.tolist(), "x": x.tolist()})
    return check


def prop_ces_euler_identity(rng, profile):
    check = _Check()
    for spec in (CesSpec.linear(), CesSpec.general(0.5), CesSpec.cobb_douglas(),
                 CesSpec.general(-1.0), CesSpec.leontief()):
        for _ in range(_scaled(profile, 100)):
            m = int(rng.integers(2, 8))
            values = np.exp(rng.uniform(-2, 2, m))
            x = np.exp(rng.uniform(-2, 2, m))
            u = float(ces.utility(values, x, spec))
            err = abs(float(ces.utility_gradient(values, x, spec) @ x) - u) / u
            check.record(err <= 1e-8, err, {"values": values.tolist(), "x": x.tolist()})
    return check


def prop_ces_gradient_finite_difference(rng, profile):
    check = _Check()
    h = 1e-6
    for spec in (CesSpec.general(0.5), CesSpec.general(-1.0), CesSpec.cobb_douglas()):
        for _ in range(_scaled(profile, 50)):
            m = int(rng.integers(2, 6))
            values = np.exp(rng.uniform(-1, 1, m))
            x = np.exp(rng.uniform(-1, 1, m))
            grad = ces.utility_gradient(values, x, spec)
            worst = 0.0
            for j in range(m):
                e = np.zeros(m)
                e[j] = h
                fd = (ces.utility(values, x + e, spec) - ces.utility(values, x - e, spec)) / (2 * h)
                worst = max(worst, abs(grad[j] - fd) / max(abs(fd), 1e-12))
            check.record(worst <= 1e-5, worst, {"values": values.tolist(), "x": x.tolist()})
    return check


# --- market ------------------------------------------------------------------

def prop_market_determinism(rng, profile):
    check = _Check()
    for _ in range(_scaled(profile, 50)):
        seed = int(rng.integers(2**31))
        dist = rng.choice(list(ContextDistribution))
        a = generate_market(17, 4, 3, dist, CesSpec.general(0.5), seed)
        b = generate_market(17, 4, 3, dist, CesSpec.general(0.5), seed)
        same = np.array_equal(a.buyers, b.buyers) and np.array_equal(a.goods, b.goods)
        check.record(same, witness={"seed": seed, "dist": dist.value})
    return check


def prop_market_positivity(rng, profile):
    check = _Check()
    for _ in range(_scaled(profile, 50)):
        seed = int(rng.integers(2**31))
        dist = rng.choice(list(ContextDistribution))
        market = generate_market(int(rng.integers(1, 64)), int(rng.integers(1, 8)), 5,
                                 dist, CesSpec.linear(), seed)
        ok = bool(np.all(market.budgets > 0) and np.all(market.values > 0))
        check.record(ok, witness=_witness_market(market))
    return check


def prop_softplus_stability(rng, profile):
    check = _Check()
    z = rng.uniform(-700, 700, size=_scaled(profile, 20000))
    reference = np.logaddexp(0.0, z)
    rel = np.abs(softplus(z) - reference) / reference
    check.record(bool(np.all(rel <= 1e-12)), float(rel.max()), {"worst_z": float(z[np.argmax(rel)])})
    return check


# --- metrics -----------------------------------------------------------------

def prop_nash_gap_nonnegative(rng, profile):
    check = _Check()
    per_regime = _scaled(profile, 1000)
    for alpha in (0.0, 0.5):
        spec = CesSpec.from_alpha(alpha)
        for _ in range(per_regime):
            market = generate_market(int(rng.integers(2, 51)), int(rng.integers(2, 6)), 5,
                                     ContextDistribution.STANDARD_NORMAL, spec,
                                     int(rng.integers(2**31)))
            x = rng.uniform(0.05, 3.0, size=(market.n, market.m))
            p = rng.uniform(0.05, 3.0, size=market.m)
            x_t, p_t, _, _ = metrics.project(market, x, p)
            ng = metrics.nash_gap(market, x_t, p_t)
            check.record(ng >= -1e-9, -ng,
                         _witness_market(market, x=x.tolist(), p=p.tolist()))
    return check


def prop_nash_gap_zero_iff_equilibrium(rng, profile):
    check = _Check()
    for _ in range(_scaled(profile, 30)):
        market = generate_market(int(rng.integers(2, 20)), int(rng.integers(2, 5)), 5,
                                 ContextDistribution.STANDARD_NORMAL, CesSpec.cobb_douglas(),
                                 int(rng.integers(2**31)))
        res = cobb_douglas_equilibrium(market)
        ok = res.certified_ng <= 1e-6
        # a tiny perturbation keeps NG below 1e-8: stationarity must stay tight
        x = res.candidate.allocation * (1.0 + 1e-5 * rng.standard_normal(res.candidate.allocation.shape))
        x_t, p_t, _, _ = metrics.project(market, x, res.candidate.prices)
        ng = metrics.nash_gap(market, x_t, p_t)
        if ng <= 1e-8:
            kkt = metrics.kkt_residuals(market, metrics.EquilibriumCandidate(x_t, p_t))
            ok = ok and kkt <= 1e-3
        check.record(ok, witness=_witness_market(market))
    return check


def prop_projection_idempotent(rng, profile):
    check = _Check()
    for _ in range(_scaled(profile, 200)):
        market = generate_market(int(rng.integers(2, 40)), int(rng.integers(2, 6)), 4,
                                 ContextDistribution.STANDARD_NORMAL, CesSpec.general(0.5),
                                 int(rng.integers(2**31)))
        x = rng.uniform(0.05, 3.0, size=(market.n, market.m))
        p = rng.uniform(0.05, 3.0, size=market.m)
        x1, p1, _, _ = metrics.project(market, x, p)
        x2, p2, _, _ = metrics.project(market, x1, p1)
        err = max(float(np.max(np.abs(x2 - x1))), float(np.max(np.abs(p2 - p1))))
        check.record(err <= 1e-12, err, _witness_market(market))
    return check


def prop_equilibrium_scaling_covariance(rng, profile):
    # scaling all budgets by beta scales equilibrium prices by beta and leaves
    # allocations fixed (checked on the cobb-douglas closed form)
    check = _Check()
    for _ in range(_scaled(profile, 50)):
        n, m = int(rng.integers(2, 30)), int(rng.integers(2, 6))
        market = generate_market(n, m, 5, ContextDistribution.STANDARD_NORMAL,
                                 CesSpec.cobb_douglas(), int(rng.integers(2**31)))
        beta = float(np.exp(rng.uniform(-1.5, 1.5)))
        scaled = Market(n=n, m=m, k=market.k, buyers=market.buyers * beta, goods=market.goods / beta,
                        ces=market.ces)
        # same inner products, budgets scaled by beta exactly
        base = cobb_douglas_equilibrium(market)
        bumped = cobb_douglas_equilibrium(scaled)
        p_err = float(np.max(np.abs(bumped.candidate.prices - beta * base.candidate.prices)
                             / (beta * base.candidate.prices)))
        x_err = float(np.max(np.abs(bumped.candidate.allocation - base.candidate.allocation)
                             / np.maximum(base.candidate.allocation, 1e-300)))
        check.record(p_err <= 1e-10 and x_err <= 1e-10, max(p_err, x_err),
                     _witness_market(market, beta=beta))
    return check


def prop_saddle_point(rng, profile):
    # feasible prices never undercut the optimum that feasible allocations reach
    check = _Check()
    trials = _scaled(profile, 1000)
    market = generate_market(8, 3, 5, ContextDistribution.STANDARD_NORMAL,
                             CesSpec.cobb_douglas(), int(rng.integers(2**31)))
    opt = cobb_douglas_equilibrium(market)
    opt_value = metrics.lnw(market, opt.candidate.allocation)
    best_lnw = -np.inf
    worst_lfw = np.inf
    for _ in range(trials):
        x = rng.uniform(0.05, 3.0, size=(market.n, market.m))
        p = rng.uniform(0.05, 3.0, size=market.m)
        x_t, p_t, _, _ = metrics.project(market, x, p)
        best_lnw = max(best_lnw, metrics.lnw(market, x_t))
        worst_lfw = min(worst_lfw, metrics.lfw(market, p_t))
    ok = (worst_lfw >= best_lnw - 1e-9
          and best_lnw <= opt_value + 1e-9
          and worst_lfw >= opt_value - 1e-9)
    check.record(ok, witness=_witness_market(market, best_lnw=best_lnw,
                                             worst_lfw=worst_lfw, opt=opt_value))
    return check


def prop_curvature_order(rng, profile):
    # LFW grows quadratically along price perturbations that respect the
    # price identity: log-log slope 2 +- 0.3
    check = _Check()
    for _ in range(_scaled(profile, 10)):
        market = generate_market(3, 3, 4, ContextDistribution.STANDARD_NORMAL,
                                 CesSpec.cobb_douglas(), int(rng.integers(2**31)))
        res = cobb_douglas_equilibrium(market)
        p_star = res.candidate.prices
        opt = metrics.lfw(market, p_star)
        direction = rng.standard_normal(market.m)
        supplies = market.supplies
        direction -= supplies * (direction @ supplies) / (supplies @ supplies)
        direction /= np.linalg.norm(direction)
        ts = np.logspace(-3, -1, 7) * float(np.min(p_star))
        gaps = np.array([metrics.lfw(market, p_star + t * direction) - opt for t in ts])
        slope = np.polyfit(np.log(ts), np.log(gaps), 1)[0]
        check.record(abs(slope - 2.0) <= 0.3, abs(slope - 2.0),
                     _witness_market(market, slope=float(slope)))
    return check


# --- oracle ------------------------------------------------------------------

def prop_oracle_price_identity(rng, profile):
    check = _Check()
    for _ in range(_scaled(profile, 20)):
        market = generate_market(int(rng.integers(2, 40)), int(rng.integers(2, 6)), 5,
                                 ContextDistribution.STANDARD_NORMAL, CesSpec.cobb_douglas(),
                                 int(rng.integers(2**31)))
        res = cobb_douglas_equilibrium(market)
        err = abs(float(res.candidate.prices @ market.supplies) - market.total_budget)
        check.record(err <= 1e-8 * market.total_budget, err, _witness_market(market))
    return check


def prop_oracle_price_positivity(rng, profile):
    check = _Check()
    for _ in range(_scaled(profile, 20)):
        market = generate_market(int(rng.integers(2, 40)), int(rng.integers(2, 6)), 5,
                                 ContextDistribution.STANDARD_NORMAL, CesSpec.cobb_douglas(),
                                 int(rng.integers(2**31)))
        res = cobb_douglas_equilibrium(market)
        check.record(bool(np.all(res.candidate.prices > 0)), witness=_witness_market(market))
    return check


def prop_oracle_cross_agreement(rng, profile):
    check = _Check()
    for _ in range(_scaled(profile, 20)):
        market = generate_market(int(rng.integers(5, 101)), int(rng.integers(2, 6)), 5,
                                 ContextDistribution.STANDARD_NORMAL, CesSpec.cobb_douglas(),
                                 int(rng.integers(2**31)))
        closed = cobb_douglas_equilibrium(market)
        numeric = numeric_equilibrium(market)
        rel = float(np.max(np.abs(numeric.candidate.prices - closed.candidate.prices)
                           / closed.candidate.prices))
        check.record(rel <= 1e-5, rel, _witness_market(market))
    return check


# --- allocation net / trainer -------------------------------------------------

def prop_net_positivity(rng, profile):
    check = _Check()
    trials = _scaled(profile, 10000)
    nets = [AllocationNet.initialize(3, 2, 16, seed=int(rng.integers(2**31))) for _ in range(10)]
    per_net = trials // len(nets)
    for net in nets:
        inputs = rng.standard_normal((per_net, 6)) * 3.0
        out = net.forward_pairs(inputs)
        check.record(bool(np.all(out > 0)), witness=None)
    return check


def prop_net_determinism(rng, profile):
    check = _Check()
    for _ in range(_scaled(profile, 20)):
        seed = int(rng.integers(2**31))
        a = AllocationNet.initialize(4, 2, 8, seed=seed)
        b = AllocationNet.initialize(4, 2, 8, seed=seed)
        x = rng.standard_normal((5, 8))
        ok = np.array_equal(a.get_flat(), b.get_flat()) and np.array_equal(
            a.forward_pairs(x), b.forward_pairs(x))
        check.record(ok, witness={"seed": seed})
    return check


def prop_estimator_unbiased(rng, profile):
    import itertools
    check = _Check()
    for n in (2, 3):
        market = generate_market(n, 2, 3, ContextDistribution.STANDARD_NORMAL,
                                 CesSpec.general(0.5), int(rng.integers(2**31)))
        net = AllocationNet.initialize(market.k, 2, 8, seed=int(rng.integers(2**31)))
        lam = rng.uniform(0.5, 2.0, size=market.m)
        rho = float(rng.uniform(0.1, 1.0))
        sums = np.zeros(3)
        count = 0
        for i, j in itertools.product(range(n), repeat=2):
            sums += estimate_lagrangian_terms(net, lam, rho, market.buyers[[i, j]], market)
            count += 1
        exact = np.array(exact_lagrangian_terms(net, lam, rho, market))
        err = float(np.max(np.abs(sums / count - exact)))
        check.record(err <= 1e-12, err, _witness_market(market))
    return check


def prop_estimator_mc_sanity(rng, profile):
    check = _Check()
    market = generate_market(100, 3, 5, ContextDistribution.STANDARD_NORMAL,
                             CesSpec.general(0.5), int(rng.integers(2**31)))
    net = AllocationNet.initialize(market.k, 2, 16, seed=int(rng.integers(2**31)))
    lam = np.ones(market.m)
    exact = exact_lagrangian(net, lam, 0.2, market)
    draws = np.empty(_scaled(profile, 10000))
    for t in range(draws.size):
        idx = rng.integers(0, market.n, size=100)
        draws[t] = estimate_lagrangian(net, lam, 0.2, market.buyers[idx], market)
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    err = abs(draws.mean() - exact)
    check.record(err < 4 * se + 1e-12, err / max(se, 1e-300), _witness_market(market))
    return check


def prop_estimator_gradient(rng, profile):
    # reverse-mode gradient of the composed minibatch loss vs central differences
    check = _Check()
    market = generate_market(32, 3, 4, ContextDistribution.STANDARD_NORMAL,
                             CesSpec.general(0.5), int(rng.integers(2**31)))
    net = AllocationNet.initialize(market.k, 2, 12, seed=int(rng.integers(2**31)))
    lam = rng.uniform(0.5, 2.0, size=market.m)
    rho = 0.3
    idx = rng.integers(0, market.n, size=16)
    contexts = market.buyers[idx]
    from .trainer import _lagrangian_terms_from_outputs

    x_hat, cache = net.forward_step(contexts, market.goods)
    _, grad_x = _lagrangian_terms_from_outputs(x_hat, contexts, lam, rho, market, want_grad=True)
    grads = net.backward(cache, grad_x.reshape(-1))
    flat_grad = np.concatenate([a.ravel() for pair in zip(*grads) for a in pair])

    params = net.get_flat()
    h = 1e-5
    picks = rng.choice(params.size, size=min(100, params.size), replace=False)
    worst = 0.0
    for pick in picks:
        for sign, store in ((+1, "up"), (-1, "down")):
            bumped = params.copy()
            bumped[pick] += sign * h
            net.set_flat(bumped)
            value = estimate_lagrangian(net, lam, rho, contexts, market)
            if store == "up":
                up = value
            else:
                down = value
        net.set_flat(params)
        fd = (up - down) / (2 * h)
        worst = max(worst, abs(flat_grad[pick] - fd) / max(1e-6, abs(flat_grad[pick]), abs(fd)))
    check.record(worst <= 1e-4, worst, None)
    return check


def prop_training_determinism(rng, profile):
    check = _Check()
    market = generate_market(64, 2, 3, ContextDistribution.STANDARD_NORMAL,
                             CesSpec.general(0.5), int(rng.integers(2**31)))
    config = TrainConfig(batch_size_loss=16, hidden_width=8, hidden_depth=2,
                         inner_iters=10, epochs=2, seed=int(rng.integers(2**31)) % 1000)
    _, lam_a, hist_a = train(market, config)
    _, lam_b, hist_b = train(market, config)
    same = np.array_equal(lam_a, lam_b) and all(
        (ra.loss, ra.ng) == (rb.loss, rb.ng) for ra, rb in zip(hist_a, hist_b))
    check.record(same, witness=_witness_market(market))
    return check


def prop_epoch_cost_independence(rng, profile):
    # fixed batch size: inner-loop epoch cost must not scale with n
    check = _Check()
    small_n, big_n = (2**10, 2**14) if profile == "quick" else (2**12, 2**16)
    config = TrainConfig(batch_size_loss=128, hidden_width=64, hidden_depth=3,
                         inner_iters=20, epochs=3, eval_each_epoch=False, seed=0)
    timings = {}
    for n in (small_n, big_n):
        market = generate_market(n, 10, 5, ContextDistribution.STANDARD_NORMAL,
                                 CesSpec.general(0.5), 17)
        _, _, history = train(market, config)
        timings[n] = float(np.median([rec.train_seconds for rec in history]))
    ratio = timings[big_n] / timings[small_n]
    check.record(ratio < 2.0, ratio, {"timings": {str(k): v for k, v in timings.items()}})
    return check


# --- baselines ----------------------------------------------------------------

def prop_naive_feasibility(rng, profile):
    check = _Check()
    for _ in range(_scaled(profile, 100)):
        market = generate_market(int(rng.integers(2, 64)), int(rng.integers(2, 8)), 5,
                                 ContextDistribution.STANDARD_NORMAL, CesSpec.general(0.5),
                                 int(rng.integers(2**31)))
        cand = naive(market)
        _, _, voa, vop = metrics.project(market, cand.allocation, cand.prices)
        check.record(voa == 0.0 and vop <= 1e-14, max(voa, vop), _witness_market(market))
    return check


def prop_eg_descent(rng, profile):
    check = _Check()
    for _ in range(_scaled(profile, 10)):
        market = generate_market(20, 3, 5, ContextDistribution.STANDARD_NORMAL,
                                 CesSpec.general(0.5), int(rng.integers(2**31)))
        config = EgConfig(inner_iters=1, epochs=150, beta_schedule="constant",
                          beta_scale=0.0, ng_stop=None, eval_each_epoch=False)
        _, history = eg_solve(market, config)
        losses = np.array([rec.loss for rec in history])
        frac = float(np.mean(np.diff(losses) <= 1e-12))
        check.record(frac >= 0.95, 1.0 - frac, _witness_market(market))
    return check


def prop_eg_oracle_agreement(rng, profile):
    check = _Check()
    for _ in range(_scaled(profile, 20)):
        alpha = float(rng.choice([0.0, 0.5]))
        market = generate_market(int(rng.integers(5, 101)), int(rng.integers(2, 6)), 5,
                                 ContextDistribution.STANDARD_NORMAL, CesSpec.from_alpha(alpha),
                                 int(rng.integers(2**31)))
        ok = True
        worst = 0.0
        for solver, momentum in ((eg_solve, 0.0), (eg_momentum_solve, 0.9)):
            _, history = solver(market, EgConfig(momentum=momentum, epochs=150))
            ng = list(history)[-1].ng
            ok = ok and ng <= 1e-3
            worst = max(worst, ng)
        check.record(ok, worst, _witness_market(market, alpha=alpha))
    return check


PROPERTIES = {
    "ces-demand-indirect-utility-consistency": prop_ces_consistency,
    "ces-demand-optimality": prop_ces_optimality,
    "ces-homogeneity-degree-one": prop_ces_homogeneity,
    "ces-euler-identity": prop_ces_euler_identity,
    "ces-gradient-finite-difference": prop_ces_gradient_finite_difference,
    "market-generation-determinism": prop_market_determinism,
    "market-derived-positivity": prop_market_positivity,
    "softplus-stability": prop_softplus_stability,
    "nash-gap-nonnegative-on-projected-pairs": prop_nash_gap_nonnegative,
    "nash-gap-zero-iff-equilibrium": prop_nash_gap_zero_iff_equilibrium,
    "projection-idempotent": prop_projection_idempotent,
    "equilibrium-scaling-covariance": prop_equilibrium_scaling_covariance,
    "welfare-saddle-point": prop_saddle_point,
    "fixed-price-welfare-curvature-order": prop_curvature_order,
    "certified-price-identity": prop_oracle_price_identity,
    "certified-price-positivity": prop_oracle_price_positivity,
    "closed-form-vs-numeric-equilibrium": prop_oracle_cross_agreement,
    "allocation-net-positivity": prop_net_positivity,
    "allocation-net-determinism": prop_net_determinism,
    "lagrangian-estimator-unbiased": prop_estimator_unbiased,
    "lagrangian-estimator-mc-sanity": prop_estimator_mc_sanity,
    "lagrangian-estimator-gradient": prop_estimator_gradient,
    "training-determinism": prop_training_determinism,
    "epoch-cost-independent-of-buyers": prop_epoch_cost_independence,
    "naive-rule-feasibility": prop_naive_feasibility,
    "eg-descent-monotone": prop_eg_descent,
    "eg-reaches-oracle-gap": prop_eg_oracle_agreement,
}


def run_all(seed: int = 0, profile: str = "quick", names=None) -> list[PropertyOutcome]:
    """Execute the registered properties; failures are data, not exceptions."""
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {PROFILES}")
    outcomes = []
    selected = PROPERTIES if names is None else {k: PROPERTIES[k] for k in names}
    for name, fn in selected.items():
        name_key = zlib.crc32(name.encode())  # stable across processes
        rng = np.random.default_rng(np.random.SeedSequence((seed, name_key)))
        started = time.perf_counter()
        try:
            check = fn(rng, profile)
            outcome = PropertyOutcome(name, check.trials, check.failures,
                                      check.worst_witness, time.perf_counter() - started)
        except MarketEqError as err:
            outcome = PropertyOutcome(name, 1, 1, {"error": f"{type(err).__name__}: {err}"},
                                      time.perf_counter() - started)
        outcomes.append(outcome)
    return outcomes


def write_junit(outcomes, path) -> None:
    """JUnit-style XML so CI dashboards can ingest the run."""
    lines = [
        '<?xml version="1.0" encoding="utf-8"?>',
        f'<testsuite name="marketeq-properties" tests="{len(outcomes)}" '
        f'failures="{sum(1 for o in outcomes if not o.passed)}">',
    ]
    for outcome in outcomes:
        attrs = f'name="{escape(outcome.name)}" time="{outcome.seconds:.3f}"'
        if outcome.passed:
            lines.append(f"  <testcase {attrs}/>")
        else:
            witness = escape(json.dumps(outcome.worst_witness or {})[:2000])
            lines.append(f"  <testcase {attrs}>")
            lines.append(f'    <failure message="{outcome.failures}/{outcome.trials} trials failed">'
                         f"{witness}</failure>")
            lines.append("  </testcase>")
    lines.append("</testsuite>")
    Path(path).write_text("\n".join(lines) + "\n")


def format_summary(outcomes) -> str:
    width = max(len(o.name) for o in outcomes)
    rows = [
        f"{o.name:<{width}}  {'PASS' if o.passed else 'FAIL'}  "
        f"{o.trials - o.failures}/{o.trials} trials  {o.seconds:6.2f}s"
        for o in outcomes
    ]
    failed = sum(1 for o in outcomes if not o.passed)
    rows.append(f"{len(outcomes)} properties, {failed} failing")
    return "\n".join(rows)


__all__ = ["PropertyOutcome", "PROPERTIES", "PROFILES", "run_all", "write_junit", "format_summary"]
