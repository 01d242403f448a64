import hashlib

import numpy as np
import pytest

from marketeq import ces, oracle
from marketeq.ces import CesSpec
from marketeq.errors import InvalidArgument, NumericFailure, OracleFailure, UnsupportedRegime
from marketeq.market import ContextDistribution, Market, generate_market
from marketeq.oracle import cobb_douglas_equilibrium, numeric_equilibrium

from helpers import market_from_values, random_market, single_pair_equilibrium


def test_cobb_douglas_symmetric():
    mkt = market_from_values(np.ones((2, 2)), [1.0, 1.0], CesSpec.cobb_douglas())
    res = cobb_douglas_equilibrium(mkt)
    np.testing.assert_allclose(res.candidate.prices, [0.5, 0.5])
    np.testing.assert_allclose(res.candidate.allocation, np.ones((2, 2)))
    assert res.certified_ng <= 1e-10
    assert res.method == "closed-form"


def test_cobb_douglas_asymmetric():
    mkt = market_from_values([[1.0, 3.0], [3.0, 1.0]], [1.0, 1.0], CesSpec.cobb_douglas())
    res = cobb_douglas_equilibrium(mkt)
    # column sums of B_i * w_ij are symmetric here, so prices match
    np.testing.assert_allclose(res.candidate.prices, [0.5, 0.5], rtol=1e-12)
    np.testing.assert_allclose(res.candidate.allocation.sum(axis=0), [2.0, 2.0], rtol=1e-12)
    assert res.certified_ng <= 1e-10


def test_cobb_douglas_single_buyer():
    values = np.array([[1.0, 2.0, 3.0]])
    budgets = np.array([2.0])
    mkt = market_from_values(values, budgets, CesSpec.cobb_douglas())
    res = cobb_douglas_equilibrium(mkt)
    v_t = values.sum()
    expected = budgets[0] * values[0] / (v_t * mkt.supplies)
    np.testing.assert_allclose(res.candidate.prices, expected, rtol=1e-12)


def test_equilibrium_scaling_covariance():
    # scaling every budget by beta scales the equilibrium prices by beta and
    # leaves the allocation fixed
    rng = np.random.default_rng(6)
    for _ in range(20):
        n, m = int(rng.integers(2, 30)), int(rng.integers(2, 6))
        mkt = random_market(rng, n, m, CesSpec.cobb_douglas())
        beta = float(np.exp(rng.uniform(-1.5, 1.5)))
        # same inner products, so the same values; budgets scale by beta
        scaled = Market(n=n, m=m, k=mkt.k, buyers=mkt.buyers * beta, goods=mkt.goods / beta,
                        ces=mkt.ces)
        base = cobb_douglas_equilibrium(mkt).candidate
        bumped = cobb_douglas_equilibrium(scaled).candidate
        p_err = np.max(np.abs(bumped.prices - beta * base.prices) / (beta * base.prices))
        x_err = np.max(np.abs(bumped.allocation - base.allocation)
                       / np.maximum(base.allocation, 1e-300))
        assert p_err <= 1e-10 and x_err <= 1e-10


def test_cobb_douglas_regime_check():
    mkt = market_from_values(np.ones((2, 2)), [1.0, 1.0], CesSpec.linear())
    with pytest.raises(UnsupportedRegime):
        cobb_douglas_equilibrium(mkt)


@pytest.mark.parametrize("spec", [CesSpec.linear(), CesSpec.general(0.5),
                                  CesSpec.cobb_douglas(), CesSpec.leontief()])
def test_single_pair_any_regime(spec):
    mkt = market_from_values([[1.0]], [1.0], spec)
    res = single_pair_equilibrium(mkt)
    assert res.candidate.allocation[0, 0] == pytest.approx(1.0)
    assert res.candidate.prices[0] == pytest.approx(1.0)
    assert res.certified_ng <= 1e-12


def test_single_pair_scaled():
    mkt = market_from_values([[2.0]], [3.0], CesSpec.linear(), supplies=[2.0])
    res = single_pair_equilibrium(mkt)
    assert res.candidate.allocation[0, 0] == pytest.approx(2.0)
    assert res.candidate.prices[0] == pytest.approx(1.5)


def test_numeric_matches_closed_form_cobb_douglas():
    rng = np.random.default_rng(3)
    mkt = random_market(rng, 5, 3, CesSpec.cobb_douglas())
    closed = cobb_douglas_equilibrium(mkt)
    num = numeric_equilibrium(mkt)
    rel = np.max(np.abs(num.candidate.prices - closed.candidate.prices) / closed.candidate.prices)
    assert rel <= 1e-5
    assert num.method == "numeric"


def test_numeric_half_alpha_certifies():
    rng = np.random.default_rng(4)
    mkt = random_market(rng, 3, 2, CesSpec.general(0.5))
    res = numeric_equilibrium(mkt)
    assert res.certified_ng <= 1e-6
    assert res.kkt_residual <= 1e-4


def test_numeric_linear_with_zero_allocations():
    # distinct bang-per-buck ratios force true zeros in the allocation
    mkt = market_from_values([[2.0, 1.0], [1.0, 2.0]], [1.0, 1.0], CesSpec.linear())
    res = numeric_equilibrium(mkt)
    assert res.certified_ng <= 1e-6
    assert res.kkt_residual <= 1e-4
    assert np.sum(res.candidate.allocation == 0.0) >= 2
    assert res.candidate.allocation.flags.c_contiguous


def test_numeric_certified_results_satisfy_price_identity():
    rng = np.random.default_rng(5)
    for spec in (CesSpec.cobb_douglas(), CesSpec.general(0.5)):
        mkt = random_market(rng, 10, 3, spec)
        res = numeric_equilibrium(mkt)
        identity = abs(res.candidate.prices @ mkt.supplies - mkt.total_budget)
        assert identity <= 1e-8 * mkt.total_budget
        assert np.all(res.candidate.prices > 0)
        assert res.candidate.allocation.flags.c_contiguous  # the descent's state is not


def test_numeric_size_guard():
    mkt = generate_market(201, 2, 2, ContextDistribution.UNIFORM01, CesSpec.cobb_douglas(), 1)
    with pytest.raises(InvalidArgument):
        numeric_equilibrium(mkt)


def test_numeric_rejects_leontief():
    mkt = market_from_values(np.ones((2, 2)), [1.0, 1.0], CesSpec.leontief())
    with pytest.raises(UnsupportedRegime):
        numeric_equilibrium(mkt)


def test_numeric_matches_closed_form_to_reference_precision():
    # the first loosely certified pair (KKT about 1e-4) is off by about as much
    # in price; the reference target keeps the error near 1e-10
    rng = np.random.default_rng(17)
    for _ in range(5):
        mkt = random_market(rng, int(rng.integers(2, 41)), int(rng.integers(2, 6)),
                            CesSpec.cobb_douglas())
        closed = cobb_douglas_equilibrium(mkt).candidate.prices
        num = numeric_equilibrium(mkt).candidate.prices
        assert np.max(np.abs(num - closed) / closed) <= 1e-8


def _record_descents(monkeypatch):
    """Wrap the oracle's descent; returns the last epoch each descent yielded."""
    last_epochs = []
    real = oracle.descend

    def recording(market, config, start):
        last_epochs.append(0)
        for item in real(market, config, start):
            last_epochs[-1] = item[0]
            yield item

    monkeypatch.setattr(oracle, "descend", recording)
    return last_epochs


# an easy market shaped like perfbench's oracle-ref inputs
_EASY = dict(n=6, m=3, k=5, dist=ContextDistribution.STANDARD_NORMAL, ces=CesSpec.general(0.5),
             seed=7)
# SHA-256 of the prices and allocation the loose tolerances certify at epoch 600
_EASY_SEGMENT_DIGEST = "609f2cf7e23818cb024a1bf91b1a445e47969f2cfc6d08b78b3db22f40c0efff"


def test_numeric_returns_once_reference_precision_is_reached(monkeypatch):
    last_epochs = _record_descents(monkeypatch)
    res = numeric_equilibrium(generate_market(**_EASY))
    assert len(last_epochs) == 1 and last_epochs[0] < oracle._SEGMENT_EPOCHS
    # a bound on the work that holds whatever the machine's speed
    assert last_epochs[0] * oracle._EPOCH_ITERS <= 2000
    assert res.kkt_residual <= oracle.NUMERIC_REFERENCE_KKT


def test_numeric_segment_end_acceptance_is_unchanged(monkeypatch):
    monkeypatch.setattr(oracle, "NUMERIC_REFERENCE_KKT", 0.0)
    last_epochs = _record_descents(monkeypatch)
    res = numeric_equilibrium(generate_market(**_EASY))
    assert last_epochs == [oracle._SEGMENT_EPOCHS]
    pair = res.candidate.prices.tobytes() + res.candidate.allocation.tobytes()
    assert hashlib.sha256(pair).hexdigest() == _EASY_SEGMENT_DIGEST


def test_numeric_segment_end_certifies_the_demand_at_the_descent_prices(monkeypatch):
    # with segments of 6 epochs, the descent's pair at epoch 6 misses KKT 1e-4,
    # and each buyer's demand at the descent's prices certifies instead
    monkeypatch.setattr(oracle, "NUMERIC_REFERENCE_KKT", 0.0)
    monkeypatch.setattr(oracle, "_SEGMENT_EPOCHS", 6)
    real = oracle._certify
    attempts = []

    def recording(market, x, p, *args, **kwargs):
        attempts.append((x, p))
        return real(market, x, p, *args, **kwargs)

    monkeypatch.setattr(oracle, "_certify", recording)
    last_epochs = _record_descents(monkeypatch)
    market = generate_market(**_EASY)
    res = numeric_equilibrium(market)
    assert last_epochs == [6] and len(attempts) == 7  # epochs 1-5, then two pairs at epoch 6
    (x_descent, p), (x_demand, p_demand) = attempts[-2:]
    assert p_demand is p
    tolerances = (oracle.NUMERIC_NG_TOL, oracle.NUMERIC_KKT_TOL)
    with pytest.raises(OracleFailure, match="KKT"):
        real(market, x_descent, p, *tolerances, method="numeric")
    np.testing.assert_array_equal(
        x_demand, ces.demand_matrix(market.values, market.budgets, p, market.ces))
    certified = real(market, x_demand, p, *tolerances, method="numeric")
    np.testing.assert_array_equal(res.candidate.allocation, certified.candidate.allocation)
    np.testing.assert_array_equal(res.candidate.prices, certified.candidate.prices)
    assert res.kkt_residual <= oracle.NUMERIC_KKT_TOL


def test_numeric_exhausted_budget_descends_once(monkeypatch):
    def never_certified(*args, **kwargs):
        raise OracleFailure("forced")

    monkeypatch.setattr(oracle, "_certify", never_certified)
    monkeypatch.setattr(oracle, "_SEGMENT_EPOCHS", 2)
    monkeypatch.setattr(oracle, "_MAX_SEGMENTS", 1)
    last_epochs = _record_descents(monkeypatch)
    with pytest.raises(OracleFailure, match="forced"):
        numeric_equilibrium(generate_market(**_EASY))
    assert last_epochs == [2]


def test_numeric_divergence_retries_at_half_the_step(monkeypatch):
    step_sizes = []

    def diverging(market, config, start):
        step_sizes.append(config.step_size)
        raise NumericFailure("forced")
        yield  # a generator, like descend

    monkeypatch.setattr(oracle, "descend", diverging)
    with pytest.raises(OracleFailure, match="forced"):
        numeric_equilibrium(generate_market(**_EASY))
    assert step_sizes == [9.0, 4.5, 2.25]  # 1.5 n, then halved twice
