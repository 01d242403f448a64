import tracemalloc

import numpy as np
import pytest

from marketeq import ces, metrics
from marketeq.baselines import naive
from marketeq.ces import CesSpec
from marketeq.errors import (
    ConstraintViolation,
    InvalidArgument,
    InvalidPrices,
    ProjectionUndefined,
    UnsupportedRegime,
)
from marketeq.metrics import EquilibriumCandidate
from marketeq.net import AllocationNet
from marketeq.oracle import cobb_douglas_equilibrium
from marketeq.trainer import epoch_scores, extract_solution

from helpers import ALL_SPECS, market_from_values, random_market, utility


def unit_market():
    # 1x1, B = 1, v = 1, linear utility, Y = 1
    return market_from_values([[1.0]], [1.0], CesSpec.linear())


def symmetric_cd():
    # 2x2, budgets (1,1), all values 1, Y = (2,2)
    return market_from_values(np.ones((2, 2)), [1.0, 1.0], CesSpec.cobb_douglas())


def asymmetric_cd():
    return market_from_values([[1.0, 3.0], [3.0, 1.0]], [1.0, 1.0], CesSpec.cobb_douglas())


def test_lnw_unit_market():
    assert metrics.lnw(unit_market(), [[1.0]]) == pytest.approx(0.0, abs=1e-12)


def test_lnw_symmetric_cd():
    assert metrics.lnw(symmetric_cd(), np.ones((2, 2))) == pytest.approx(0.0, abs=1e-12)


def test_lnw_matches_direct_recomputation():
    rng = np.random.default_rng(3)
    mkt = random_market(rng, 3, 3, CesSpec.cobb_douglas())
    x = rng.uniform(0.5, 2.0, size=(3, 3))
    got = metrics.lnw(mkt, x)
    expected = 0.0
    for i in range(3):
        w = mkt.values[i] / mkt.values[i].sum()
        expected += mkt.budgets[i] * float(w @ np.log(x[i]))
    expected /= mkt.budgets.sum()
    assert got == pytest.approx(expected, rel=1e-12)


def test_lnw_zero_utility_sentinel():
    mkt = symmetric_cd()
    x = np.ones((2, 2))
    x[0, 1] = 0.0
    assert metrics.lnw(mkt, x) == float("-inf")


def test_lfw_unit_market():
    assert metrics.lfw(unit_market(), [1.0]) == pytest.approx(0.0, abs=1e-12)


def test_lfw_symmetric_cd():
    assert metrics.lfw(symmetric_cd(), [0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)


def test_lfw_equals_lnw_at_oracle():
    rng = np.random.default_rng(4)
    mkt = random_market(rng, 5, 4, CesSpec.cobb_douglas())
    res = cobb_douglas_equilibrium(mkt)
    lfw = metrics.lfw(mkt, res.candidate.prices)
    lnw = metrics.lnw(mkt, res.candidate.allocation)
    assert lfw == pytest.approx(lnw, abs=1e-6)


def test_lfw_rejects_nonpositive_price():
    with pytest.raises(InvalidPrices):
        metrics.lfw(unit_market(), [0.0])


# one price rule wherever prices go in: a vector that is not 1-d of length m
# is an InvalidArgument, a non-finite or nonpositive entry an InvalidPrices
_BAD_PRICES = {"short": InvalidArgument, "nan": InvalidPrices, "inf": InvalidPrices,
               "zero": InvalidPrices, "negative": InvalidPrices}


def _bad_prices(kind, p):
    if kind == "short":
        return p[:-1]
    q = p.copy()
    q[1] = {"nan": np.nan, "inf": np.inf, "zero": 0.0, "negative": -1.0}[kind]
    return q


def _price_takers():
    mkt = random_market(np.random.default_rng(31), 6, 3, CesSpec.general(0.5))
    x = naive(mkt).allocation  # clears the market, so only the prices can fail
    net = AllocationNet.initialize(mkt.k, 1, 4, seed=0)
    return mkt, {
        "lfw": lambda p: metrics.lfw(mkt, p),
        "nash_gap": lambda p: metrics.nash_gap(mkt, x, p),
        "evaluate": lambda p: metrics.evaluate(mkt, x, p),
        "fixed_price_log_utility_matrix": lambda p: ces.fixed_price_log_utility_matrix(
            mkt.values, mkt.budgets, p, mkt.ces),
        "demand_matrix": lambda p: ces.demand_matrix(mkt.values, mkt.budgets, p, mkt.ces),
        "extract_solution": lambda p: extract_solution(net, p, mkt),
        "kkt_residuals": lambda p: metrics.kkt_residuals(mkt, EquilibriumCandidate(x, p)),
        "price_residual": lambda p: metrics.price_residual(mkt, p),
    }


# a candidate holds only finite m-vectors, so kkt_residuals meets 0 and -1 alone
_PRICE_CASES = [(name, kind) for name in _price_takers()[1] for kind in _BAD_PRICES
                if name != "kkt_residuals" or kind in ("zero", "negative")]


@pytest.mark.parametrize("name, kind", _PRICE_CASES)
def test_every_price_taker_applies_one_price_rule(name, kind):
    mkt, takers = _price_takers()
    good = mkt.total_budget / (mkt.m * mkt.supplies)
    takers[name](good)
    with pytest.raises(_BAD_PRICES[kind]):
        takers[name](_bad_prices(kind, good))


def test_nash_gap_zero_at_oracle():
    rng = np.random.default_rng(5)
    mkt = random_market(rng, 4, 3, CesSpec.cobb_douglas())
    res = cobb_douglas_equilibrium(mkt)
    ng = metrics.nash_gap(mkt, res.candidate.allocation, res.candidate.prices)
    assert abs(ng) <= 1e-6


def test_nash_gap_requires_feasibility():
    mkt = symmetric_cd()
    with pytest.raises(ConstraintViolation):
        metrics.nash_gap(mkt, 2.0 * np.ones((2, 2)), [0.5, 0.5])
    with pytest.raises(ConstraintViolation):
        metrics.nash_gap(mkt, np.ones((2, 2)), [0.7, 0.5])


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.regime.value + s.alpha_label)
def test_nash_gap_with_kkt_is_both_scores_from_one_pass(spec):
    # the oracle's certification reads NG and KKT from one pass: the bits of
    # nash_gap and kkt_residuals, with zero components where the gradient is
    # singular, and KKT NaN in the leontief regime
    rng = np.random.default_rng(6)
    mkt = random_market(rng, 30, 4, spec)
    x = rng.uniform(0.1, 2.0, size=(mkt.n, mkt.m))
    x[::7, 1] = 0.0
    x_t, p_t, _, _ = metrics.project(mkt, x, rng.uniform(0.5, 2.0, size=mkt.m))
    ng, kkt = metrics.nash_gap(mkt, x_t, p_t, kkt=True)
    assert ng == metrics.nash_gap(mkt, x_t, p_t)
    if ces.regime_supports_gradient(spec):
        assert kkt == metrics.kkt_residuals(mkt, EquilibriumCandidate(x_t, p_t))
    else:
        assert np.isnan(kkt)
    with pytest.raises(ConstraintViolation):
        metrics.nash_gap(mkt, 2.0 * x_t, p_t, kkt=True)


def test_nash_gap_naive_on_asymmetric_market():
    mkt = asymmetric_cd()
    cand = naive(mkt)
    ng = metrics.nash_gap(mkt, cand.allocation, cand.prices)
    # independent recomputation: LNW = 0 at the even allocation (u_i = 1);
    # LFW from the fixed-price closed form at p = (1/2, 1/2)
    expected = 0.0
    for i in range(2):
        w = mkt.values[i] / mkt.values[i].sum()
        expected += 0.5 * float(w @ np.log(mkt.values[i] / (0.5 * mkt.values[i].sum())))
    assert ng == pytest.approx(expected, rel=1e-10)
    assert ng > 0.1


def test_project_identity_on_feasible_pair():
    mkt = symmetric_cd()
    x = np.ones((2, 2))
    p = np.array([0.5, 0.5])
    x_t, p_t, voa, vop = metrics.project(mkt, x, p)
    assert voa == 0.0 and vop == 0.0
    np.testing.assert_array_equal(x_t, x)
    np.testing.assert_array_equal(p_t, p)


def test_project_doubled_allocation():
    mkt = symmetric_cd()
    x_t, p_t, voa, vop = metrics.project(mkt, 2.0 * np.ones((2, 2)), np.array([0.5, 0.5]))
    assert voa == pytest.approx(np.log(2.0), rel=1e-12)
    np.testing.assert_allclose(x_t, np.ones((2, 2)))


def test_project_price_scaling():
    # sum B = 2, Y = (1, 1), p = (1, 3): beta = 2/4 = 1/2
    mkt = market_from_values(np.ones((2, 2)), [1.0, 1.0], CesSpec.cobb_douglas(),
                             supplies=[1.0, 1.0])
    x = np.full((2, 2), 0.5)
    x_t, p_t, voa, vop = metrics.project(mkt, x, np.array([1.0, 3.0]))
    np.testing.assert_allclose(p_t, [0.5, 1.5])
    assert vop == pytest.approx(np.log(2.0), rel=1e-12)


def test_project_idempotent():
    rng = np.random.default_rng(8)
    mkt = random_market(rng, 6, 4, CesSpec.general(0.5))
    x = rng.uniform(0.1, 3.0, size=(6, 4))
    p = rng.uniform(0.1, 3.0, size=4)
    x1, p1, _, _ = metrics.project(mkt, x, p)
    x2, p2, voa2, vop2 = metrics.project(mkt, x1, p1)
    np.testing.assert_allclose(x2, x1, atol=1e-12)
    np.testing.assert_allclose(p2, p1, atol=1e-12)
    assert voa2 <= 1e-12 and vop2 <= 1e-12
    for _ in range(20):
        mkt = random_market(rng, int(rng.integers(2, 40)), int(rng.integers(2, 6)),
                            CesSpec.general(0.5), k=4)
        x = rng.uniform(0.05, 3.0, size=(mkt.n, mkt.m))
        p = rng.uniform(0.05, 3.0, size=mkt.m)
        x1, p1, _, _ = metrics.project(mkt, x, p)
        x2, p2, _, _ = metrics.project(mkt, x1, p1)
        assert max(np.max(np.abs(x2 - x1)), np.max(np.abs(p2 - p1))) <= 1e-12


def test_project_undefined_cases():
    mkt = symmetric_cd()
    x = np.ones((2, 2))
    x[:, 0] = 0.0
    with pytest.raises(ProjectionUndefined):
        metrics.project(mkt, x, np.array([0.5, 0.5]))
    with pytest.raises(ProjectionUndefined):
        metrics.project(mkt, np.ones((2, 2)), np.array([0.0, 0.0]))


def test_wsw_values():
    assert metrics.wsw(symmetric_cd(), np.ones((2, 2))) == pytest.approx(1.0, rel=1e-12)
    mkt = unit_market()
    assert metrics.wsw(mkt, [[1.0]]) == pytest.approx(1.0, rel=1e-12)
    rng = np.random.default_rng(9)
    rmkt = random_market(rng, 3, 3, CesSpec.general(0.5))
    x = rng.uniform(0.5, 2.0, size=(3, 3))
    expected = float(rmkt.budgets @ utility(rmkt.values, x, rmkt.ces)) / rmkt.budgets.sum()
    assert metrics.wsw(rmkt, x) == pytest.approx(expected, rel=1e-12)


def test_kkt_residuals_at_oracle_and_perturbed():
    rng = np.random.default_rng(10)
    mkt = random_market(rng, 5, 3, CesSpec.cobb_douglas())
    res = cobb_douglas_equilibrium(mkt)
    assert metrics.kkt_residuals(mkt, res.candidate) <= 1e-6

    x = res.candidate.allocation.copy()
    x[0, 0] *= 1.1
    x_t, p_t, _, _ = metrics.project(mkt, x, res.candidate.prices)
    assert metrics.kkt_residuals(mkt, EquilibriumCandidate(x_t, p_t)) > 1e-3

    # NG is second order in the distance to equilibrium: a 1e-5 relative
    # perturbation of the allocation keeps it below 1e-8, and stationarity
    # must then still hold to 1e-3
    for _ in range(30):
        mkt = random_market(rng, int(rng.integers(2, 20)), int(rng.integers(2, 5)),
                            CesSpec.cobb_douglas())
        res = cobb_douglas_equilibrium(mkt)
        x_star = res.candidate.allocation
        x = x_star * (1.0 + 1e-5 * rng.standard_normal(x_star.shape))
        x_t, p_t, _, _ = metrics.project(mkt, x, res.candidate.prices)
        assert metrics.nash_gap(mkt, x_t, p_t) <= 1e-8
        assert metrics.kkt_residuals(mkt, EquilibriumCandidate(x_t, p_t)) <= 1e-3


def test_welfare_saddle_point():
    # over projected pairs, LNW never exceeds and LFW never undercuts the
    # optimum LNW(x*) = LFW(p*)
    rng = np.random.default_rng(14)
    for _ in range(3):
        mkt = random_market(rng, 8, 3, CesSpec.cobb_douglas())
        opt = metrics.lnw(mkt, cobb_douglas_equilibrium(mkt).candidate.allocation)
        best_lnw, worst_lfw = -np.inf, np.inf
        for _ in range(400):
            x = rng.uniform(0.05, 3.0, size=(mkt.n, mkt.m))
            p = rng.uniform(0.05, 3.0, size=mkt.m)
            x_t, p_t, _, _ = metrics.project(mkt, x, p)
            best_lnw = max(best_lnw, metrics.lnw(mkt, x_t))
            worst_lfw = min(worst_lfw, metrics.lfw(mkt, p_t))
        assert worst_lfw >= best_lnw - 1e-9
        assert best_lnw <= opt + 1e-9
        assert worst_lfw >= opt - 1e-9


def test_kkt_residuals_naive_positive():
    mkt = asymmetric_cd()
    cand = naive(mkt)
    assert metrics.kkt_residuals(mkt, cand) > 0.1


def test_kkt_rejects_leontief():
    mkt = market_from_values(np.ones((2, 2)), [1.0, 1.0], CesSpec.leontief())
    with pytest.raises(UnsupportedRegime):
        metrics.kkt_residuals(mkt, naive(mkt))


def test_evaluate_report_roundtrip():
    rng = np.random.default_rng(11)
    mkt = random_market(rng, 4, 3, CesSpec.general(0.5))
    cand = naive(mkt)
    report = metrics.evaluate(mkt, cand.allocation, cand.prices)
    assert report.voa == 0.0 and report.vop == 0.0
    assert report.price_residual == 0.0
    assert report.ng == pytest.approx(report.lfw - report.lnw)
    assert report.ng > 0
    assert list(report.to_json()) == ["lnw", "lfw", "ng", "voa", "vop", "wsw", "price_residual",
                                      "kkt_max_residual", "degenerate_lnw"]


def test_epoch_scores_are_the_evaluate_gap():
    # the solvers' per-epoch score is evaluate's; a nonpositive price gets a
    # NaN score, and evaluate refuses it as a certificate
    rng = np.random.default_rng(12)
    mkt = random_market(rng, 6, 3, CesSpec.general(-1.0))
    x = rng.uniform(0.1, 2.0, size=(6, 3))
    p = rng.uniform(0.1, 2.0, size=3)
    report = metrics.evaluate(mkt, x, p, kkt=False)
    assert epoch_scores(mkt, x, p) == (report.ng, report.voa, report.vop)
    assert np.isnan(report.kkt_max_residual)
    x_t, p_t, voa, vop = metrics.project(mkt, x, p)
    assert (report.lnw, report.lfw, report.voa, report.vop) == (
        metrics.lnw(mkt, x_t), metrics.lfw(mkt, p_t), voa, vop)
    assert report.ng == metrics.nash_gap(mkt, x_t, p_t)
    for bad in (0.0, -0.5):
        q = p.copy()
        q[1] = bad
        assert all(np.isnan(v) for v in epoch_scores(mkt, x, q))
        with pytest.raises(InvalidPrices):
            metrics.evaluate(mkt, x, q)


# three full buyer chunks of the scoring pass plus a remainder
MULTI_CHUNK_N = 3 * ces._CHUNK_ROWS + 4096


def _chunked_pair(spec, n):
    rng = np.random.default_rng(21)
    mkt = random_market(rng, n, 10, spec)
    x = rng.uniform(0.1, 2.0, size=(n, 10))
    # zero entries in a later chunk and in the last one: KKT is +inf at
    # alpha = 0.5, where the gradient is singular there
    x[min(2 * ces._CHUNK_ROWS + 7, n - 2), 3] = 0.0
    x[n - 1, 0] = 0.0
    return mkt, x, rng.uniform(0.5, 2.0, size=10)


def _whole_array_report(mkt, x_t, p_t):
    # the projected pair's scores from whole-array ces kernels, unchunked
    budgets, total = mkt.budgets, mkt.total_budget
    log_u = ces.log_utility(mkt.values, x_t, mkt.ces)
    inner = x_t > 0
    with np.errstate(divide="ignore"):
        grad = ces.log_utility_gradient(mkt.values, np.where(inner, x_t, 1.0), mkt.ces)
    gap = np.where(inner, grad, np.inf) * budgets[:, None] - p_t
    active = x_t > 1e-8 * (budgets[:, None] / p_t)
    kkt = max((np.maximum(gap, 0.0) / p_t).max(),
              np.where(active, np.abs(gap) / p_t, 0.0).max(),
              (np.abs(x_t @ p_t - budgets) / budgets).max())
    lnw = budgets @ log_u / total
    lfw = budgets @ ces.fixed_price_log_utility_matrix(mkt.values, budgets, p_t, mkt.ces) / total
    return {"lnw": lnw, "lfw": lfw, "ng": lfw - lnw, "kkt_max_residual": kkt,
            "wsw": budgets @ utility(mkt.values, x_t, mkt.ces) / total}


@pytest.mark.parametrize("n", [MULTI_CHUNK_N, 1000])
@pytest.mark.parametrize("spec", [CesSpec.linear(), CesSpec.general(0.5)],
                         ids=lambda s: s.alpha_label)
def test_evaluate_matches_public_functions_across_chunks(spec, n):
    mkt, x, p = _chunked_pair(spec, n)
    report = metrics.evaluate(mkt, x, p)
    x_t, p_t, voa, vop = metrics.project(mkt, x, p)
    public = {
        "lnw": metrics.lnw(mkt, x_t), "lfw": metrics.lfw(mkt, p_t),
        "ng": metrics.nash_gap(mkt, x_t, p_t), "voa": voa, "vop": vop,
        "wsw": metrics.wsw(mkt, x_t), "price_residual": metrics.price_residual(mkt, p),
        "kkt_max_residual": metrics.kkt_residuals(mkt, EquilibriumCandidate(x_t, p_t)),
    }
    for name, value in public.items():
        assert getattr(report, name) == value, name
    whole = _whole_array_report(mkt, x_t, p_t)
    for name, value in whole.items():
        got = getattr(report, name)
        assert got == value or abs(got - value) <= 1e-12 * abs(value), name
    if n <= ces._CHUNK_ROWS:
        # one chunk: the pass makes exactly the whole-array sums
        assert (report.lnw, report.lfw) == (whole["lnw"], whole["lfw"])
    assert np.isfinite(report.lnw) and not report.degenerate_lnw
    if spec.regime is ces.Regime.LINEAR:
        assert np.isfinite(report.kkt_max_residual)
    else:
        assert report.kkt_max_residual == np.inf


def test_evaluate_validates_the_allocation_once(monkeypatch):
    mkt, x, p = _chunked_pair(CesSpec.general(0.5), MULTI_CHUNK_N)
    check = metrics._check_allocation
    calls = []
    monkeypatch.setattr(metrics, "_check_allocation",
                        lambda market, a: calls.append(1) or check(market, a))
    metrics.evaluate(mkt, x, p)
    assert len(calls) == 1
    calls.clear()
    metrics.evaluate(mkt, x, p, kkt=False)
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [-1e-300, np.nan, np.inf])
def test_invalid_entry_in_last_chunk_rejected(bad):
    rng = np.random.default_rng(22)
    n = 2 * ces._CHUNK_ROWS + 5
    mkt = random_market(rng, n, 3, CesSpec.general(0.5))
    x, p = np.ones((n, 3)), np.ones(3)
    x[n - 1, 2] = bad
    with pytest.raises(InvalidArgument):
        metrics.evaluate(mkt, x, p)
    with pytest.raises(InvalidArgument):
        metrics.lnw(mkt, x)


def test_evaluate_peak_memory_below_one_allocation():
    # the pass never forms the projected n-by-m allocation; its temporaries
    # are a few chunk-by-m arrays
    mkt, x, p = _chunked_pair(CesSpec.general(0.5), MULTI_CHUNK_N)
    metrics.evaluate(mkt, x, p)  # fills the market's cached values
    tracemalloc.start()
    try:
        report = metrics.evaluate(mkt, x, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.kkt_max_residual == np.inf
    assert peak < x.nbytes


def test_candidate_validation_and_io(tmp_path):
    with pytest.raises(InvalidArgument):
        EquilibriumCandidate(np.array([[-0.1]]), np.array([1.0]))
    with pytest.raises(InvalidArgument):
        EquilibriumCandidate(np.ones((2, 2)), np.ones(3))
    cand = EquilibriumCandidate(np.ones((2, 2)), np.array([0.5, 0.5]))
    path = tmp_path / "cand.json"
    cand.save(path)
    again = EquilibriumCandidate.load(path)
    np.testing.assert_array_equal(again.allocation, cand.allocation)
    np.testing.assert_array_equal(again.prices, cand.prices)


def _layouts(x):
    # the same entries as a Fortran-ordered copy and as a strided view
    strided = np.zeros((x.shape[0], 2 * x.shape[1]))
    strided[:, ::2] = x
    return {"fortran": np.asfortranarray(x), "strided": strided[:, ::2]}


@pytest.mark.parametrize("m", [5, 10])
@pytest.mark.parametrize("spec", [CesSpec.general(0.5), CesSpec.linear(), CesSpec.cobb_douglas()],
                         ids=lambda s: s.alpha_label)
def test_results_do_not_depend_on_memory_order(spec, m):
    rng = np.random.default_rng(23)
    mkt = random_market(rng, 5000, m, spec)
    x = rng.uniform(0.1, 2.0, size=(mkt.n, m))
    p = rng.uniform(0.5, 2.0, size=m)
    x_t, p_t, voa, vop = metrics.project(mkt, x, p)
    assert x_t.flags.c_contiguous
    expected = {
        "evaluate": metrics.evaluate(mkt, x, p).to_json(),
        "lnw": metrics.lnw(mkt, x), "wsw": metrics.wsw(mkt, x),
        "nash_gap": metrics.nash_gap(mkt, x_t, p_t),
        "kkt": metrics.kkt_residuals(mkt, EquilibriumCandidate(x_t, p_t)),
    }
    for (layout, x_other), x_t_other in zip(_layouts(x).items(), _layouts(x_t).values()):
        got_t, got_p, got_voa, got_vop = metrics.project(mkt, x_other, p)
        assert np.array_equal(got_t, x_t) and np.array_equal(got_p, p_t), layout
        assert (got_voa, got_vop) == (voa, vop), layout
        got = {
            "evaluate": metrics.evaluate(mkt, x_other, p).to_json(),
            "lnw": metrics.lnw(mkt, x_other), "wsw": metrics.wsw(mkt, x_other),
            "nash_gap": metrics.nash_gap(mkt, x_t_other, p_t),
            "kkt": metrics.kkt_residuals(mkt, EquilibriumCandidate(x_t_other, p_t)),
        }
        assert got == expected, layout
