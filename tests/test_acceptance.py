"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
and timings.  The desk-scale solver runs are shared across criteria through
module-scoped fixtures; the determinism criterion re-runs them from scratch.
"""

import itertools
import time

import numpy as np
import pytest

from marketeq import ces, metrics
from marketeq.baselines import EgConfig
from marketeq.ces import CesSpec
from marketeq.harness import ExperimentConfig, MarketSpec, run_experiment
from marketeq.market import ContextDistribution, generate_market
from marketeq.net import AllocationNet
from marketeq.oracle import cobb_douglas_equilibrium, numeric_equilibrium
from marketeq.trainer import TrainConfig, lagrangian_step, train

from helpers import (exact_lagrangian_terms, market_from_values, single_pair_equilibrium,
                     utility, with_params)

DESK_MARKET = MarketSpec(n=4096, m=5, k=5, dist="normal", alpha=0.5, seed=20260808)
DESK_FCNET = TrainConfig(batch_size_loss=256, hidden_width=128, hidden_depth=3,
                         learning_rate=3e-4, inner_iters=100, epochs=10, seed=1)
DESK_EGM = EgConfig(momentum=0.9)


def _report(criterion, label, passed, started, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {criterion:>2}] {label}: {status} "
          f"({time.perf_counter() - started:.1f}s) {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def oracle_results():
    """Certified reference equilibria used by criteria 4 and 5."""
    rng = np.random.default_rng(55)
    results = []
    for _ in range(10):
        market = generate_market(int(rng.integers(2, 51)), int(rng.integers(2, 6)), 5,
                                 ContextDistribution.STANDARD_NORMAL, CesSpec.cobb_douglas(),
                                 int(rng.integers(2**31)))
        results.append((market, cobb_douglas_equilibrium(market)))
    for _ in range(3):
        market = generate_market(int(rng.integers(3, 21)), int(rng.integers(2, 5)), 5,
                                 ContextDistribution.STANDARD_NORMAL, CesSpec.general(0.5),
                                 int(rng.integers(2**31)))
        results.append((market, numeric_equilibrium(market)))
    single = market_from_values([[2.0]], [3.0], CesSpec.general(0.5))
    results.append((single, single_pair_equilibrium(single)))
    return results


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """Criterion 7's three solver runs, reused by criterion 10."""
    root = tmp_path_factory.mktemp("desk")
    records = {}
    for method, config in (("naive", None), ("fcnet", DESK_FCNET), ("eg-m", DESK_EGM)):
        out = root / f"{method}_a"
        experiment = ExperimentConfig(market=DESK_MARKET, method=method,
                                      method_config=config, out_dir=str(out))
        records[method] = (run_experiment(experiment), out)
    return records


def test_criterion_1_closed_form_certification():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    specs = [CesSpec.linear(), CesSpec.general(0.5), CesSpec.cobb_douglas(),
             CesSpec.general(-1.0), CesSpec.leontief()]
    worst = ""
    ok = True
    for spec in specs:
        for _ in range(100):
            m = int(rng.integers(2, 8))
            values = np.exp(rng.uniform(-2, 2, m))
            prices = np.exp(rng.uniform(-2, 2, m))
            budget = float(np.exp(rng.uniform(-1, 1)))
            # the matrix kernels on a one-buyer market
            one = (values[None, :], np.array([budget]), prices, spec)
            x = ces.demand_matrix(*one)[0]
            u_star = float(np.exp(ces.fixed_price_log_utility_matrix(*one)[0]))
            bundles = rng.dirichlet(np.ones(m), size=500) * budget / prices
            best_random = float(np.max(utility(values, bundles, spec)))
            checks = (
                best_random <= u_star + 1e-9 * max(1.0, u_star),
                abs(float(utility(values, x, spec)) - u_star) <= 1e-8 * u_star,
                abs(float(prices @ x) - budget) <= 1e-10 * budget,
            )
            if not all(checks):
                ok = False
                worst = f"regime={spec.regime.value} checks={checks}"
    _report(1, "fixed-price closed forms beat random bundles and match demand",
            ok, started, worst)


def test_criterion_2_estimator_unbiasedness():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_err = 0.0
    for n in (2, 3):
        market = generate_market(n, 2, 3, ContextDistribution.STANDARD_NORMAL,
                                 CesSpec.general(0.5), int(rng.integers(2**31)))
        net = AllocationNet.initialize(market.k, 2, 8, seed=int(rng.integers(2**31)))
        lam = rng.uniform(0.5, 2.0, size=market.m)
        rho = float(rng.uniform(0.1, 1.0))
        total = np.zeros(3)
        count = 0
        for i, j in itertools.product(range(n), repeat=2):
            total += lagrangian_step(net, lam, rho, np.array([i, j]), market)[0]
            count += 1
        exact = np.array(exact_lagrangian_terms(net, lam, rho, market))
        worst_err = max(worst_err, float(np.max(np.abs(total / count - exact))))
    _report(2, "estimator mean equals exact Lagrangian term-by-term",
            worst_err <= 1e-12, started, f"max |err| = {worst_err:.2e}")


def test_criterion_3_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    market = generate_market(64, 4, 5, ContextDistribution.STANDARD_NORMAL,
                             CesSpec.general(0.5), 7)
    net = AllocationNet.initialize(market.k, hidden_depth=3, hidden_width=32, seed=3)
    lam = rng.uniform(0.5, 2.0, size=market.m)
    rho = 0.2
    idx = rng.integers(0, market.n, size=32)
    _, flat_grad = lagrangian_step(net, lam, rho, idx, market)

    params = net.get_flat()
    h = 1e-5
    picks = rng.choice(params.size, size=120, replace=False)
    worst = 0.0
    for pick in picks:
        bumped = params.copy()
        bumped[pick] += h
        up = sum(lagrangian_step(with_params(net, bumped), lam, rho, idx, market)[0])
        bumped[pick] -= 2 * h
        down = sum(lagrangian_step(with_params(net, bumped), lam, rho, idx, market)[0])
        fd = (up - down) / (2 * h)
        worst = max(worst, abs(flat_grad[pick] - fd) / max(1e-6, abs(flat_grad[pick]), abs(fd)))
    _report(3, "reverse-mode gradient of the composed loss matches finite differences",
            worst <= 1e-4, started, f"worst rel err = {worst:.2e} over {picks.size} params")


def test_criterion_4_nash_gap_nonnegativity(oracle_results):
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    min_ng = np.inf
    count = 0
    for alpha in (0.0, 0.5):
        spec = CesSpec.cobb_douglas() if alpha == 0.0 else CesSpec.general(alpha)
        for _ in range(50):
            market = generate_market(int(rng.integers(2, 51)), int(rng.integers(2, 6)), 5,
                                     ContextDistribution.STANDARD_NORMAL, spec,
                                     int(rng.integers(2**31)))
            for _ in range(10):
                x = rng.uniform(0.05, 3.0, size=(market.n, market.m))
                p = rng.uniform(0.05, 3.0, size=market.m)
                x_t, p_t, _, _ = metrics.project(market, x, p)
                min_ng = min(min_ng, metrics.nash_gap(market, x_t, p_t))
                count += 1
    oracle_ng = max(res.certified_ng for _, res in oracle_results)
    ok = min_ng >= -1e-9 and oracle_ng <= 1e-6
    _report(4, "nash gap nonnegative on projected pairs, zero at equilibria",
            ok, started,
            f"min NG over {count} candidates = {min_ng:.2e}; max oracle NG = {oracle_ng:.2e}")


def test_criterion_5_price_identity_and_positivity(oracle_results):
    started = time.perf_counter()
    worst_identity = 0.0
    all_positive = True
    for market, res in oracle_results:
        identity = abs(float(res.candidate.prices @ market.supplies) - market.total_budget)
        worst_identity = max(worst_identity, identity / market.total_budget)
        all_positive = all_positive and bool(np.all(res.candidate.prices > 0))
    ok = worst_identity <= 1e-8 and all_positive
    _report(5, "certified equilibria satisfy the price identity with positive prices",
            ok, started, f"worst relative identity residual = {worst_identity:.2e}")


def test_criterion_6_cobb_douglas_cross_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(20):
        market = generate_market(int(rng.integers(5, 101)), int(rng.integers(2, 6)), 5,
                                 ContextDistribution.STANDARD_NORMAL, CesSpec.cobb_douglas(),
                                 int(rng.integers(2**31)))
        closed = cobb_douglas_equilibrium(market)
        numeric = numeric_equilibrium(market)
        rel = float(np.max(np.abs(numeric.candidate.prices - closed.candidate.prices)
                           / closed.candidate.prices))
        worst = max(worst, rel)
    _report(6, "numeric equilibrium prices match the closed form",
            worst <= 1e-5, started, f"worst relative price error = {worst:.2e} over 20 markets")


def test_criterion_7_desk_scale_comparison(desk_runs):
    started = time.perf_counter()
    naive_ng = desk_runs["naive"][0].report.ng
    fc_ng = desk_runs["fcnet"][0].report.ng
    egm_ng = desk_runs["eg-m"][0].report.ng
    ok = fc_ng <= 5e-2 and fc_ng <= naive_ng / 5.0 and egm_ng <= 1e-2
    # the emitted curves trend downward over the run
    for method in ("fcnet", "eg-m"):
        lines = (desk_runs[method][1] / "curve.csv").read_text().strip().splitlines()[1:]
        ngs = [float(line.split(",")[1]) for line in lines]
        ok = ok and ngs[-1] < ngs[0]
    _report(7, "desk-scale run: network beats naive by 5x, eg-m under 1e-2",
            ok, started,
            f"NG naive={naive_ng:.3e} fcnet={fc_ng:.3e} eg-m={egm_ng:.3e}")


def test_criterion_8_scaling_trend():
    started = time.perf_counter()
    fc_config = TrainConfig(batch_size_loss=128, hidden_width=64, hidden_depth=3,
                            inner_iters=20, epochs=7, seed=3)
    eg_config = EgConfig(inner_iters=100, epochs=3, ng_stop=None)
    fc_secs = {}
    eg_secs = {}
    for n in (2**12, 2**16):
        market = generate_market(n, 10, 5, ContextDistribution.STANDARD_NORMAL,
                                 CesSpec.general(0.5), 99)
        _, _, _, fc_hist = train(market, fc_config)
        fc_secs[n] = float(np.median([r.train_seconds for r in fc_hist]))
        from marketeq.baselines import eg_solve
        _, eg_hist = eg_solve(market, eg_config)
        eg_secs[n] = float(np.median([r.train_seconds for r in eg_hist]))
    fc_ratio = fc_secs[2**16] / fc_secs[2**12]
    eg_ratio = eg_secs[2**16] / eg_secs[2**12]
    ok = fc_ratio < 2.0 and eg_ratio >= 8.0
    _report(8, "epoch cost: network flat in n, direct solver scales with n",
            ok, started, f"fcnet ratio = {fc_ratio:.2f} (<2), eg ratio = {eg_ratio:.1f} (>=8)")


def test_criterion_9_curvature_order():
    started = time.perf_counter()
    rng = np.random.default_rng(109)
    market = generate_market(3, 3, 4, ContextDistribution.STANDARD_NORMAL,
                             CesSpec.cobb_douglas(), 17)
    res = cobb_douglas_equilibrium(market)
    p_star = res.candidate.prices
    opt = metrics.lfw(market, p_star)
    supplies = market.supplies
    direction = rng.standard_normal(market.m)
    direction -= supplies * (direction @ supplies) / (supplies @ supplies)
    direction /= np.linalg.norm(direction)
    ts = np.logspace(-3, -1, 7) * float(np.min(p_star))
    gaps = np.array([metrics.lfw(market, p_star + t * direction) - opt for t in ts])
    slope = float(np.polyfit(np.log(ts), np.log(gaps), 1)[0])
    _report(9, "welfare gap grows quadratically in the price perturbation",
            abs(slope - 2.0) <= 0.3, started, f"log-log slope = {slope:.3f}")


def test_criterion_10_determinism(desk_runs, tmp_path):
    started = time.perf_counter()
    identical = True
    detail = []
    for method, config in (("fcnet", DESK_FCNET), ("eg-m", DESK_EGM)):
        _, first_dir = desk_runs[method]
        rerun_dir = tmp_path / f"{method}_b"
        experiment = ExperimentConfig(market=DESK_MARKET, method=method,
                                      method_config=config, out_dir=str(rerun_dir))
        run_experiment(experiment)
        # every artifact but summary.json, which holds the timings
        for name in sorted(path.name for path in first_dir.iterdir() if path.name != "summary.json"):
            same = (first_dir / name).read_bytes() == (rerun_dir / name).read_bytes()
            identical = identical and same
            detail.append(f"{method} {name}: {'identical' if same else 'DIFFERS'}")
    _report(10, "re-running the desk-scale experiments reproduces their artifacts",
            identical, started, "; ".join(detail))
