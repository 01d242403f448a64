import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from marketeq.baselines import EgConfig, eg_solve
from marketeq.ces import CesSpec
from marketeq.errors import InvalidArgument, InvalidPrices, NumericFailure
from marketeq.market import ContextDistribution, generate_market
from marketeq.net import AdamState, AllocationNet, adam_step
from marketeq.trainer import (
    CURVE_COLUMNS,
    TrainConfig,
    epoch_scores,
    extract_solution,
    lagrangian_step,
    load_solution,
    multiplier_update,
    save_solution,
    solution_pair,
    train,
    write_curve,
)

from helpers import (
    exact_lagrangian_terms,
    inv_softplus,
    market_from_values,
    peak_bytes,
    plain_forward,
    random_market,
)


def constant_net(k, value):
    net = AllocationNet.initialize(k, hidden_depth=2, hidden_width=4, seed=0)
    for w in net.weights:
        w[...] = 0.0
    for b in net.biases:
        b[...] = 0.0
    net.biases[-1][...] = inv_softplus(value)
    return net


def enumeration_mean_terms(net, lam, rho, market):
    """Average the M=1 estimator over every ordered (b1, b2) buyer tuple."""
    sums = np.zeros(3)
    count = 0
    for i, j in itertools.product(range(market.n), repeat=2):
        sums += lagrangian_step(net, lam, rho, np.array([i, j]), market)[0]
        count += 1
    return sums / count


@pytest.mark.parametrize("n", [2, 3])
def test_estimator_unbiased_by_enumeration(n):
    rng = np.random.default_rng(n)
    market = random_market(rng, n, 2, CesSpec.general(0.5))
    net = AllocationNet.initialize(market.k, hidden_depth=2, hidden_width=8, seed=4)
    lam = rng.uniform(0.5, 2.0, size=market.m)
    rho = 0.7
    mean_terms = enumeration_mean_terms(net, lam, rho, market)
    exact_terms = np.array(exact_lagrangian_terms(net, lam, rho, market))
    np.testing.assert_allclose(mean_terms, exact_terms, rtol=0, atol=1e-12)


def test_estimator_clearance_exact_net():
    rng = np.random.default_rng(0)
    market = random_market(rng, 6, 3, CesSpec.cobb_douglas())
    net = constant_net(market.k, 1.0)
    lam = rng.uniform(0.5, 2.0, size=3)
    sample = rng.integers(0, 6, size=8)
    (obj, mult, quad), _ = lagrangian_step(net, lam, 0.4, sample, market)
    assert mult == pytest.approx(0.0, abs=1e-12)
    assert quad == pytest.approx(0.0, abs=1e-12)
    # objective is -(mean of B log u(ones)) over the first half
    half = market.buyers[sample[:4]]
    budgets = np.linalg.norm(half, axis=1)
    from marketeq import ces
    from marketeq.market import softplus
    values = softplus(half @ market.goods.T)
    expected = -float(budgets @ ces.log_utility(values, np.ones((4, 3)), market.ces)) / 4
    assert obj == pytest.approx(expected, rel=1e-12)


def test_estimator_rho_zero_drops_quadratic():
    rng = np.random.default_rng(1)
    market = random_market(rng, 5, 2, CesSpec.linear())
    net = AllocationNet.initialize(market.k, 2, 8, seed=1)
    lam = np.ones(2)
    sample = rng.integers(0, 5, size=6)
    terms, _ = lagrangian_step(net, lam, 1e-12, sample, market)
    obj, mult, quad = terms
    full = sum(terms)
    assert quad == pytest.approx(0.0, abs=1e-10)
    assert full == pytest.approx(obj + mult, abs=1e-10)


def test_estimator_rejects_odd_sample():
    # and every other malformed array of buyer indices
    rng = np.random.default_rng(2)
    market = random_market(rng, 4, 2, CesSpec.linear())
    net = AllocationNet.initialize(market.k, 2, 4, seed=0)
    for sample in (
        np.arange(3),  # odd count
        np.arange(0),  # empty
        np.zeros((2, 5), dtype=int),  # 2-D (k = 5 wide)
        np.array([0.0, 1.0]),  # not integers
        np.array([0, 4]),  # index n
        np.array([-1, 0]),  # negative: numpy would wrap it to n - 1
    ):
        with pytest.raises(InvalidArgument):
            lagrangian_step(net, np.ones(2), 0.2, sample, market)


def test_estimator_monte_carlo_sanity():
    rng = np.random.default_rng(3)
    market = random_market(rng, 100, 3, CesSpec.general(0.5))
    net = AllocationNet.initialize(market.k, 2, 16, seed=5)
    lam = np.ones(3)
    rho = 0.2
    exact = sum(exact_lagrangian_terms(net, lam, rho, market))
    draws = np.empty(2000)
    m_half = 50
    for t in range(draws.size):
        idx = rng.integers(0, market.n, size=2 * m_half)
        draws[t] = sum(lagrangian_step(net, lam, rho, idx, market)[0])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - exact) < 4 * se + 1e-12


def test_multiplier_update_fixed_points():
    rng = np.random.default_rng(4)
    market = random_market(rng, 5, 3, CesSpec.linear())
    lam = np.ones(3)
    exactly_one = constant_net(market.k, 1.0).forward_batch(market.buyers, market.goods)
    np.testing.assert_allclose(multiplier_update(lam, exactly_one, 0.2, 1.0), lam, atol=1e-12)
    exactly_two = constant_net(market.k, 2.0).forward_batch(market.buyers, market.goods)
    np.testing.assert_allclose(
        multiplier_update(lam, exactly_two, 0.2, 1.0), lam + 0.2, atol=1e-10)


def test_multiplier_update_step_size():
    lam = np.array([0.8, 1.3])
    rows = np.array([[0.5, 2.0], [1.5, 0.25]])
    np.testing.assert_array_equal(multiplier_update(lam, rows, 0.5, 0.0), lam)
    for beta_t in (math.nan, math.inf, -0.5):
        with pytest.raises(InvalidArgument):
            multiplier_update(lam, rows, 0.5, beta_t)


def test_multiplier_update_full_batch_equals_exact():
    rng = np.random.default_rng(5)
    market = random_market(rng, 3, 2, CesSpec.cobb_douglas())
    config = TrainConfig(batch_size_loss=1, rho=0.5, hidden_width=8, hidden_depth=2,
                         inner_iters=2, epochs=2, seed=6)
    _, exact, _, exact_history = train(market, config)
    _, full, _, full_history = train(market, replace(config, batch_size_multiplier=market.n))
    np.testing.assert_array_equal(full, exact)
    np.testing.assert_array_equal(*(
        [(r.epoch, r.loss, r.ng, r.voa, r.vop) for r in history]
        for history in (full_history, exact_history)))
    # below n the update averages the rows the sampler draws after the inner loop
    config = replace(config, batch_size_multiplier=2, epochs=1)
    net, sampled, _, _ = train(market, config)
    sampler = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed).spawn(2)[1]))
    for _ in range(config.inner_iters):
        sampler.integers(0, market.n, size=2 * config.batch_size_loss)
    rows = market.buyers[sampler.integers(0, market.n, size=2)]
    resid = net.forward_batch(rows, market.goods).mean(axis=0) - 1.0
    np.testing.assert_array_equal(sampled, np.ones(2) + 1.0 * 0.5 * resid)
    # a sampled run reproduces its multipliers
    market = random_market(rng, 64, 2, CesSpec.general(0.5))
    config = TrainConfig(batch_size_loss=8, batch_size_multiplier=8, hidden_width=8,
                         hidden_depth=2, inner_iters=5, epochs=3, seed=0)
    _, first, _, _ = train(market, config)
    _, rerun, _, _ = train(market, config)
    np.testing.assert_array_equal(first, rerun)


def test_train_takes_the_shared_lagrangian_step(monkeypatch):
    # replay the first epoch's sampler and optimizer: its loss is the mean of
    # the step's summed terms over the indices drawn, bit for bit
    rng = np.random.default_rng(11)
    market = random_market(rng, 12, 3, CesSpec.general(0.5))
    config = TrainConfig(batch_size_loss=4, rho=0.3, hidden_width=8, hidden_depth=2,
                         learning_rate=1e-3, inner_iters=5, epochs=2, seed=3)
    calls = []

    def counted_step(*args):
        calls.append(1)
        return lagrangian_step(*args)

    monkeypatch.setattr("marketeq.trainer.lagrangian_step", counted_step)
    _, _, _, history = train(market, config)
    assert len(calls) == config.epochs * config.inner_iters
    init_ss, sample_ss = np.random.SeedSequence(config.seed).spawn(2)
    net = AllocationNet.initialize(market.k, config.hidden_depth, config.hidden_width, init_ss)
    adam = AdamState.for_net(net, lr=config.learning_rate)
    sampler = np.random.Generator(np.random.Philox(sample_ss))
    loss_sum = 0.0
    for _ in range(config.inner_iters):
        idx = sampler.integers(0, market.n, size=2 * config.batch_size_loss)
        terms, grad = lagrangian_step(net, np.ones(market.m), config.rho, idx, market)
        loss_sum += sum(terms)
        adam_step(adam, net, grad)
    assert history[0].loss == loss_sum / config.inner_iters


def test_shared_population_forward_is_bitwise():
    # train() feeds one full-population forward to both the multiplier
    # update and the evaluation sweep; it must score like the candidate
    # extract_solution materializes (16,458 pair rows: two forward slices)
    rng = np.random.default_rng(9)
    market = random_market(rng, 8229, 2, CesSpec.general(0.5))
    net = AllocationNet.initialize(market.k, 2, 8, seed=7)
    lam = np.array([0.8, 1.3])
    population = net.forward_batch(market.buyers, market.goods)
    own = extract_solution(net, lam, market)
    assert (epoch_scores(market, *solution_pair(population, lam, market))
            == epoch_scores(market, own.allocation, own.prices))
    for wrong in (np.ones((3, 3)), np.ones(2)):
        with pytest.raises(InvalidArgument):
            multiplier_update(lam, wrong, 0.5, 0.7)


@pytest.mark.parametrize("spec, error", [
    (CesSpec.cobb_douglas(), NumericFailure),  # zero utility outranks the boundary
    (CesSpec.general(-1.0), NumericFailure),
    (CesSpec.general(0.5), InvalidArgument),  # a zero component alone is a boundary
])
def test_lagrangian_boundary_error_precedence(spec, error):
    from marketeq.trainer import _lagrangian_terms_from_outputs

    market = random_market(np.random.default_rng(10), 6, 3, spec)
    idx = np.arange(4)
    x_hat = np.ones((4, 3))
    x_hat[0, 1] = 0.0
    with np.errstate(divide="ignore"), pytest.raises(error):
        _lagrangian_terms_from_outputs(x_hat, idx, np.ones(3), 0.2, market)


def test_train_single_pair_market():
    market = market_from_values([[1.0]], [1.0], CesSpec.linear())
    config = TrainConfig(batch_size_loss=8, hidden_width=16, hidden_depth=2, rho=1.0,
                         learning_rate=3e-3, inner_iters=50, epochs=40, seed=0)
    _, lam, cand, _ = train(market, config)
    assert cand.allocation[0, 0] == pytest.approx(1.0, abs=2e-2)
    assert lam[0] == pytest.approx(1.0, abs=5e-2)


def test_train_small_cobb_douglas_ng():
    market = generate_market(256, 3, 5, ContextDistribution.UNIFORM01,
                             CesSpec.cobb_douglas(), 77)
    config = TrainConfig(batch_size_loss=128, hidden_width=64, hidden_depth=3,
                         learning_rate=1e-3, inner_iters=100, epochs=15, seed=1)
    _, _, _, history = train(market, config)
    final = list(history)[-1]
    assert final.ng <= 1e-2
    assert len(history) == 15


def test_train_deterministic_histories():
    market = generate_market(64, 2, 3, ContextDistribution.STANDARD_NORMAL,
                             CesSpec.general(0.5), 10)
    config = TrainConfig(batch_size_loss=16, hidden_width=8, hidden_depth=2,
                         inner_iters=10, epochs=3, seed=9)
    _, lam_a, _, hist_a = train(market, config)
    _, lam_b, _, hist_b = train(market, config)
    assert np.array_equal(lam_a, lam_b)
    for ra, rb in zip(hist_a, hist_b):
        assert (ra.loss, ra.ng, ra.voa, ra.vop) == (rb.loss, rb.ng, rb.voa, rb.vop)


def test_train_holds_one_set_of_network_buffers():
    # desk shape: the step workspace (three 129-row activations of 2 x 256 x 5
    # pair columns, backward's deltas written into them) is released before
    # the population pass (two 129-row activations of 4080 columns), so a run
    # peaks at one of the two, below five arrays of rows x width; holding
    # both reads about 9.5
    market = generate_market(4096, 5, 5, ContextDistribution.STANDARD_NORMAL,
                             CesSpec.general(0.5), 1)
    market.values, market.budgets  # built once, before the measurement
    config = TrainConfig(batch_size_loss=256, hidden_width=128, hidden_depth=3,
                         learning_rate=3e-4, inner_iters=3, epochs=1, seed=1)
    rows = 2 * config.batch_size_loss * market.m
    peak = peak_bytes(train, market, config)
    assert peak < 5 * rows * config.hidden_width * 8, peak / (rows * config.hidden_width * 8)


def test_train_aborts_with_history_on_blowup():
    market = generate_market(32, 2, 3, ContextDistribution.STANDARD_NORMAL,
                             CesSpec.general(0.5), 11)
    config = TrainConfig(batch_size_loss=8, hidden_width=8, hidden_depth=5,
                         learning_rate=1e40, inner_iters=50, epochs=10, seed=2)
    with pytest.raises(NumericFailure) as excinfo:
        with np.errstate(over="ignore", invalid="ignore"):
            train(market, config)
    assert excinfo.value.history is not None


def test_train_epoch_end_failure_keeps_epoch_and_history(monkeypatch):
    # a failure after the inner loop (here the population forward of the dual
    # step) is reported with its epoch and the history before it
    market = generate_market(32, 2, 3, ContextDistribution.STANDARD_NORMAL,
                             CesSpec.general(0.5), 11)
    config = TrainConfig(batch_size_loss=8, hidden_width=8, hidden_depth=2,
                         inner_iters=5, epochs=4, seed=2)
    steps = []

    def poisoned_step(state, net, flat):
        adam_step(state, net, flat)
        steps.append(1)
        if len(steps) == 2 * config.inner_iters:  # the last step of epoch 2
            net.params[0] = np.inf

    monkeypatch.setattr("marketeq.trainer.adam_step", poisoned_step)
    with pytest.raises(NumericFailure, match=r"^epoch 2: non-finite pre-activation") as excinfo:
        train(market, config)
    assert len(excinfo.value.history) == 1


def test_epoch_timers_leave_the_population_pass_and_the_scores_out_of_training(monkeypatch):
    # criterion 8 reads train_seconds: fcnet's population pass and EG's scores
    # belong to eval_seconds
    market = generate_market(32, 2, 3, ContextDistribution.UNIFORM01, CesSpec.general(0.5), 3)
    pause = 0.1
    forward_batch = AllocationNet.forward_batch

    def slow_forward(net, buyers, goods):
        time.sleep(pause)
        return forward_batch(net, buyers, goods)

    def slow_scores(*args):
        time.sleep(pause)
        return epoch_scores(*args)

    monkeypatch.setattr(AllocationNet, "forward_batch", slow_forward)
    _, _, _, fcnet_history = train(market, TrainConfig(
        batch_size_loss=8, hidden_width=8, hidden_depth=2, inner_iters=2, epochs=2, seed=0))
    monkeypatch.undo()
    monkeypatch.setattr("marketeq.trainer.epoch_scores", slow_scores)
    _, eg_history = eg_solve(market, EgConfig(inner_iters=2, epochs=2, ng_stop=None))
    for rec in fcnet_history + eg_history:
        assert rec.eval_seconds >= pause > rec.train_seconds


def test_extract_solution_contract():
    rng = np.random.default_rng(6)
    market = random_market(rng, 4, 2, CesSpec.linear())
    net = AllocationNet.initialize(market.k, 2, 8, seed=7)
    with pytest.raises(InvalidPrices):
        extract_solution(net, np.array([1.0, -0.5]), market)
    cand = extract_solution(net, np.array([1.0, 2.0]), market)
    # batch extraction equals entrywise forward calls of the reference
    for i in range(market.n):
        for j in range(market.m):
            assert cand.allocation[i, j] == pytest.approx(
                plain_forward(net, market.buyers[i: i + 1], market.goods[j: j + 1])[0, 0],
                rel=1e-12)
    np.testing.assert_array_equal(cand.prices, [1.0, 2.0])


def test_solution_checkpoint_roundtrip_and_version(tmp_path):
    net = AllocationNet.initialize(3, 2, 8, seed=8)
    path = tmp_path / "solution.npz"
    save_solution(path, net, [0.5, 2.0])
    loaded, lam = load_solution(path)
    np.testing.assert_array_equal(loaded.get_flat(), net.get_flat())
    np.testing.assert_array_equal(lam, [0.5, 2.0])
    with np.load(path) as blob:
        assert blob.files == ["version", "context_dim", "hidden_depth", "hidden_width",
                              "params", "multipliers"]
        arrays = dict(blob)
    arrays["version"] = 2
    np.savez(path, **arrays)
    with pytest.raises(InvalidArgument):
        load_solution(path)


def test_history_curve_csv(tmp_path):
    market = generate_market(32, 2, 3, ContextDistribution.UNIFORM01, CesSpec.linear(), 3)
    config = TrainConfig(batch_size_loss=8, hidden_width=8, hidden_depth=2,
                         inner_iters=5, epochs=2, seed=0)
    _, _, _, history = train(market, config)
    path = tmp_path / "curve.csv"
    write_curve(path, history)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CURVE_COLUMNS)
    assert len(lines) == 3
    assert history[0].epoch == 1 and history[0].train_seconds >= 0.0
