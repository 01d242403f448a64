import numpy as np
import pytest
from scipy.optimize import minimize

from marketeq import ces
from marketeq.ces import CesSpec, Regime
from marketeq.errors import ConditioningWarning, InvalidArgument, InvalidPrices

from helpers import ALL_SPECS, peak_bytes, random_problem, utility, utility_gradient


def test_spec_construction():
    assert CesSpec.from_alpha(1.0).regime is Regime.LINEAR
    assert CesSpec.from_alpha(0.0).regime is Regime.COBB_DOUGLAS
    assert CesSpec.from_alpha(-np.inf).regime is Regime.LEONTIEF
    assert CesSpec.from_alpha(0.5).alpha == 0.5
    # from_label inverts alpha_label and takes reals in either form
    for spec in ALL_SPECS:
        assert CesSpec.from_label(spec.alpha_label) == spec
    for label in (1, "1", 1.0, "1.0"):
        assert CesSpec.from_label(label) == CesSpec.linear()
    for label in (0, "0", 0.0, "0.0"):
        assert CesSpec.from_label(label) == CesSpec.cobb_douglas()
    for label in (-np.inf, "-inf", "leontief"):
        assert CesSpec.from_label(label) == CesSpec.leontief()
    assert CesSpec.from_label("0.5") == CesSpec.from_label(0.5) == CesSpec.general(0.5)
    for bad in ("bogus", None, "inf", 2.0):
        with pytest.raises(InvalidArgument):
            CesSpec.from_label(bad)
    with pytest.raises(InvalidArgument):
        CesSpec.general(1.0)
    with pytest.raises(InvalidArgument):
        CesSpec.general(0.0)
    with pytest.raises(InvalidArgument):
        CesSpec(Regime.LINEAR, alpha=0.3)
    with pytest.warns(ConditioningWarning):
        CesSpec.general(1e-9)
    with pytest.warns(ConditioningWarning):
        CesSpec.general(1.0 - 1e-9)


def utilities(values, bundle, spec):
    """u from the package's log utility and from the reference formula."""
    return np.exp(ces.log_utility(values, bundle, spec)), utility(values, bundle, spec)


def test_utility_unit_symmetric_half():
    # (1^0.5 + 1^0.5)^2 = 4
    for u in utilities([1.0, 1.0], [1.0, 1.0], CesSpec.general(0.5)):
        assert u == pytest.approx(4.0)


def test_utility_leontief_zero():
    for u in utilities([2.0, 3.0], [1.0, 0.0], CesSpec.leontief()):
        assert u == 0.0


def test_utility_cobb_douglas_value():
    # exp((1*log2 + 2*log1)/3) = 2^(1/3)
    for u in utilities([1.0, 2.0], [2.0, 1.0], CesSpec.cobb_douglas()):
        assert u == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)


def test_utility_zero_bundle_conventions():
    x = np.array([1.0, 0.0])
    v = np.array([1.0, 1.0])
    for kind in range(2):  # the package's, then the reference
        assert utilities(v, x, CesSpec.general(-1.0))[kind] == 0.0
        assert utilities(v, x, CesSpec.cobb_douglas())[kind] == 0.0
        assert utilities(v, x, CesSpec.general(0.5))[kind] == pytest.approx(1.0)
        assert utilities(v, x, CesSpec.linear())[kind] == pytest.approx(1.0)
    assert np.isneginf(ces.log_utility(v, x, CesSpec.cobb_douglas()))


def test_utility_rejects_negative_bundle():
    with pytest.raises(InvalidArgument):
        ces.log_utility([1.0, 1.0], [1.0, -0.1], CesSpec.linear())


def test_gradient_linear():
    grad = utility_gradient([1.0, 1.0], [1.0, 1.0], CesSpec.linear())
    np.testing.assert_allclose(grad, [1.0, 1.0])


def test_gradient_half_euler():
    spec = CesSpec.general(0.5)
    v = np.array([1.0, 1.0])
    x = np.array([1.0, 1.0])
    u = float(utility(v, x, spec))
    grad = utility_gradient(v, x, spec)
    assert u == pytest.approx(4.0, rel=1e-12)
    assert float(grad @ x) == pytest.approx(u, rel=1e-12)  # Euler: <grad, x> = u


def test_gradient_leontief_unique_min():
    # min attained at index 1 only -> subgradient (0, v_1)
    grad = utility_gradient([1.0, 2.0], [4.0, 1.0], CesSpec.leontief())
    np.testing.assert_allclose(grad, [0.0, 2.0])


def test_gradient_leontief_tie_lowest_index():
    grad = utility_gradient([1.0, 1.0], [1.0, 1.0], CesSpec.leontief())
    np.testing.assert_allclose(grad, [1.0, 0.0])


def test_gradient_boundary_raises():
    for spec in (CesSpec.general(0.5), CesSpec.cobb_douglas()):
        with pytest.raises(InvalidArgument):
            utility_gradient([1.0, 1.0], [1.0, 0.0], spec)


@pytest.mark.parametrize("spec", [CesSpec.general(0.5), CesSpec.general(-1.0), CesSpec.cobb_douglas()])
def test_gradient_matches_finite_differences(spec):
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(20):
        m = int(rng.integers(2, 6))
        v = np.exp(rng.uniform(-1, 1, m))
        x = np.exp(rng.uniform(-1, 1, m))
        grad = utility_gradient(v, x, spec)
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            fd = (utility(v, x + e, spec) - utility(v, x - e, spec)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-5)


def test_euler_identity_interior():
    rng = np.random.default_rng(6)
    for spec in ALL_SPECS:
        for _ in range(40):
            m = int(rng.integers(2, 7))
            v = np.exp(rng.uniform(-2, 2, m))
            x = np.exp(rng.uniform(-2, 2, m))
            u = utility(v, x, spec)
            grad = utility_gradient(v, x, spec)
            assert float(grad @ x) == pytest.approx(float(u), rel=1e-8)


def test_homogeneity():
    rng = np.random.default_rng(7)
    for spec in ALL_SPECS:
        for _ in range(20):
            m = int(rng.integers(2, 7))
            v = np.exp(rng.uniform(-2, 2, m))
            x = np.exp(rng.uniform(-2, 2, m))
            for kind, u in enumerate(utilities(v, x, spec)):
                for lam in (0.5, 2.0, 10.0):
                    scaled = utilities(v, lam * x, spec)[kind]
                    assert scaled == pytest.approx(lam * u, rel=1e-12)
                    # relative, without approx's 1e-12 absolute floor
                    assert abs(scaled - lam * u) <= 1e-12 * lam * u


def one_buyer(kernel, values, budget, prices, spec):
    """A fixed-price kernel on a one-row market: the buyer's row of the result."""
    return kernel(np.asarray(values, dtype=float)[None, :], np.array([budget]),
                  np.asarray(prices, dtype=float), spec)[0]


def fixed_price(values, budget, prices, spec):
    return float(one_buyer(ces.fixed_price_log_utility_matrix, values, budget, prices, spec))


def demand(values, budget, prices, spec):
    return one_buyer(ces.demand_matrix, values, budget, prices, spec)


def test_fixed_price_linear_best_bang():
    assert fixed_price([2.0, 1.0], 1.0, [1.0, 1.0], CesSpec.linear()) == pytest.approx(np.log(2.0))


def test_fixed_price_cobb_douglas_symmetric():
    got = fixed_price([1.0, 1.0], 1.0, [1.0, 1.0], CesSpec.cobb_douglas())
    assert got == pytest.approx(np.log(0.5), rel=1e-12)


def test_fixed_price_half_matches_numeric_maximizer():
    values, budget, prices = np.array([1.0, 1.0]), 1.0, np.array([1.0, 1.0])
    spec = CesSpec.general(0.5)
    got = fixed_price(values, budget, prices, spec)
    assert got == pytest.approx(np.log(2.0), rel=1e-12)
    # independent constrained maximizer over the budget hyperplane
    res = minimize(
        lambda x: -utility(values, np.abs(x), spec),
        x0=np.array([0.4, 0.6]),
        constraints={"type": "eq", "fun": lambda x: prices @ np.abs(x) - budget},
    )
    assert np.log(-res.fun) == pytest.approx(got, abs=1e-8)


def test_fixed_price_rejects_bad_prices():
    for kernel in (ces.fixed_price_log_utility_matrix, ces.demand_matrix):
        with pytest.raises(InvalidPrices):
            one_buyer(kernel, [1.0], 1.0, [0.0], CesSpec.linear())
        with pytest.raises(InvalidPrices):
            kernel(np.ones((1, 2)), np.ones(1), np.array([1.0, -1.0]), CesSpec.linear())


def test_fixed_price_kernels_reject_misshapen_markets():
    # a buyer's row without its batch axis, or budgets that do not match the rows
    values, prices = np.array([[2.0, 1.0, 3.0]]), np.ones(3)
    for kernel in (ces.fixed_price_log_utility_matrix, ces.demand_matrix):
        for v, b in ((values[0], np.ones(1)), (values[0], np.array(1.0)), (values, np.ones(3)),
                     (values, np.array(1.0)), (values[None], np.ones(1))):
            with pytest.raises(InvalidArgument):
                kernel(v, b, prices, CesSpec.linear())


def test_demand_linear_unique_argmax():
    np.testing.assert_allclose(demand([2.0, 1.0], 1.0, [1.0, 1.0], CesSpec.linear()), [1.0, 0.0])


def test_demand_linear_tie_breaks_low_index():
    np.testing.assert_allclose(demand([1.0, 1.0], 1.0, [1.0, 1.0], CesSpec.linear()), [1.0, 0.0])


def test_demand_leontief_symmetric():
    np.testing.assert_allclose(demand([1.0, 1.0], 1.0, [1.0, 1.0], CesSpec.leontief()), [0.5, 0.5])


def test_demand_cobb_douglas_budget_shares():
    values, prices = np.array([1.0, 3.0]), np.array([1.0, 2.0])
    x = demand(values, 2.0, prices, CesSpec.cobb_douglas())
    np.testing.assert_allclose(x, [0.5, 0.75])
    assert float(prices @ x) == pytest.approx(2.0, rel=1e-12)
    # first-order condition: v_j/(v_t x_j) proportional to p_j
    ratio = values / (x * values.sum())
    np.testing.assert_allclose(ratio / prices, (ratio / prices)[0], rtol=1e-10)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.regime.value + s.alpha_label)
def test_demand_consistency_and_optimality(spec):
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(2, 7))
        values, budget, prices = random_problem(rng, m)
        x = demand(values, budget, prices, spec)
        log_u_star = fixed_price(values, budget, prices, spec)
        # budget exhaustion
        assert float(prices @ x) == pytest.approx(budget, rel=1e-10)
        # indirect utility consistency
        assert float(utility(values, x, spec)) == pytest.approx(
            float(np.exp(log_u_star)), rel=1e-8)
        # no random feasible bundle does better
        shares = rng.dirichlet(np.ones(m), size=100)
        bundles = shares * budget / prices
        best = float(np.max(utility(values, bundles, spec)))
        assert best <= np.exp(log_u_star) + 1e-9


def test_demand_matrix_general_in_place():
    rng = np.random.default_rng(12)
    for alpha in (0.9, 0.5, 0.2, -0.3, -1.0, -3.0):
        for _ in range(20):
            n, m = int(rng.integers(1, 30)), int(rng.integers(1, 9))
            values = np.exp(rng.uniform(-3.0, 3.0, size=(n, m)))
            budgets = np.exp(rng.uniform(-1.0, 1.0, size=n))
            prices = np.exp(rng.uniform(-2.0, 2.0, size=m))
            # the explicit formula, evaluated in the same order
            r = alpha / (1.0 - alpha)
            log_v, log_p = np.log(values), np.log(prices)
            log_c0 = ces._logsumexp_weights(r * (log_v - log_p))[0]
            ref = np.exp(r * log_v - (r + 1.0) * log_p + np.log(budgets)[:, None]
                         - log_c0[:, None])
            got = ces.demand_matrix(values, budgets, prices, CesSpec.general(alpha))
            np.testing.assert_array_equal(got, ref)
    # the result and a few chunk-by-m temporaries
    n, m = 2**16, 10
    values = np.exp(rng.uniform(-3.0, 3.0, size=(n, m)))
    budgets, prices = np.ones(n), np.exp(rng.uniform(-2.0, 2.0, size=m))
    peak = peak_bytes(ces.demand_matrix, values, budgets, prices, CesSpec.general(0.5))
    assert peak <= 2.5 * values.nbytes


CHUNK = ces._CHUNK_ROWS
# two full buyer chunks and a one-row remainder, and the rows around each edge
EDGE_N = 2 * CHUNK + 1
EDGE_ROWS = (0, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.alpha_label)
def test_demand_matrix_rows_at_chunk_edges(spec):
    rng = np.random.default_rng(14)
    values = np.exp(rng.uniform(-3.0, 3.0, size=(EDGE_N, 6)))
    budgets = np.exp(rng.uniform(-1.0, 1.0, size=EDGE_N))
    prices = np.exp(rng.uniform(-2.0, 2.0, size=6))
    for kernel, is_demand in ((ces.demand_matrix, True), (ces.fixed_price_log_utility_matrix, False)):
        got = kernel(values, budgets, prices, spec)
        # the regime's formula on the whole array at once, unchunked
        np.testing.assert_array_equal(
            got, ces._fixed_price_terms(values, budgets, prices, spec, is_demand))
        for i in EDGE_ROWS:
            np.testing.assert_array_equal(got[i], one_buyer(kernel, values[i], budgets[i], prices, spec))


@pytest.mark.parametrize("spec", ALL_SPECS + [CesSpec.general(0.9), CesSpec.general(-5.0)],
                         ids=lambda s: s.regime.value + s.alpha_label)
@pytest.mark.parametrize("order", ["C", "F"])
def test_fixed_price_kernels_agree_on_a_multi_chunk_market(spec, order):
    # the demand attains the fixed-price log utility and spends each budget,
    # and a whole-market call equals the per-chunk calls of the certifier
    rng = np.random.default_rng(18)
    m = 7
    values = np.asarray(np.exp(rng.uniform(-3.0, 3.0, size=(EDGE_N, m))), order=order)
    budgets = np.exp(rng.uniform(-1.0, 1.0, size=EDGE_N))
    prices = np.exp(rng.uniform(-2.0, 2.0, size=m))
    fixed = ces.fixed_price_log_utility_matrix(values, budgets, prices, spec)
    x = ces.demand_matrix(values, budgets, prices, spec)
    attained = np.abs(ces.log_utility(values, x, spec) - fixed)
    assert np.all(attained <= 1e-12 * np.maximum(1.0, np.abs(fixed)))
    assert np.all(np.abs(x @ prices - budgets) <= 1e-12 * budgets)
    for rows in ces._row_chunks(EDGE_N):
        np.testing.assert_array_equal(
            fixed[rows], ces.fixed_price_log_utility_matrix(values[rows], budgets[rows], prices, spec))


def test_demand_matrix_peak_memory_one_output():
    rng = np.random.default_rng(15)
    n, m = 2**17, 10
    values = np.exp(rng.uniform(-3.0, 3.0, size=(n, m)))
    budgets, prices = np.ones(n), np.exp(rng.uniform(-2.0, 2.0, size=m))
    peak = peak_bytes(ces.demand_matrix, values, budgets, prices, CesSpec.general(0.5))
    assert peak <= values.nbytes + 4 * CHUNK * m * values.itemsize


def test_demand_matrix_checks_prices_before_any_chunk(monkeypatch):
    def no_chunks(n):
        raise AssertionError("chunk work before the price check")

    monkeypatch.setattr(ces, "_row_chunks", no_chunks)
    values, budgets = np.ones((EDGE_N, 3)), np.ones(EDGE_N)
    for prices in ([1.0, 0.0, 1.0], [1.0, np.nan, 1.0], [1.0, np.inf, 1.0]):
        for spec in ALL_SPECS:
            with pytest.raises(InvalidPrices):
                ces.demand_matrix(values, budgets, np.array(prices), spec)


def test_cobb_douglas_log_utility_in_place():
    rng = np.random.default_rng(13)
    spec = CesSpec.cobb_douglas()
    values = rng.uniform(0.01, 3.0, size=(200, 6))
    bundle = rng.uniform(1e-3, 5.0, size=(200, 6))
    bundle[rng.random(bundle.shape) < 0.1] = 0.0
    weights = values / np.sum(values, axis=-1, keepdims=True)
    logs = np.where(bundle > 0, np.log(np.where(bundle > 0, bundle, 1.0)), -np.inf)
    np.testing.assert_array_equal(ces.log_utility(values, bundle, spec),
                                  np.sum(weights * logs, axis=-1))
    n, m = 2**16, 10
    values = rng.uniform(0.01, 3.0, size=(n, m))
    bundle = rng.uniform(1e-3, 5.0, size=(n, m))
    assert peak_bytes(ces.log_utility, values, bundle, spec) <= 2.5 * values.nbytes


FUSED_SPECS = [CesSpec.linear(), CesSpec.general(0.5), CesSpec.general(-1.0),
               CesSpec.general(-5.0), CesSpec.cobb_douglas(), CesSpec.leontief()]


def _assert_out_form_matches(v, x, spec):
    # the `out` form, twice into one reused column-major buffer filled with
    # NaN, gives the allocating call's bits, and its gradient is the buffer
    log_u, grad = ces.log_utility_and_gradient(v, x, spec)
    out = np.full(np.broadcast_shapes(np.shape(v), np.shape(x)), np.nan, order="F")
    for _ in range(2):
        got_log_u, got_grad = ces.log_utility_and_gradient(v, x, spec, out=out)
        np.testing.assert_array_equal(got_log_u, log_u)
        if grad is None:
            assert got_grad is None
        else:
            assert got_grad is out
            np.testing.assert_array_equal(got_grad, grad)


@pytest.mark.parametrize("spec", FUSED_SPECS, ids=lambda s: s.regime.value + s.alpha_label)
def test_fused_log_utility_and_gradient_bitwise(spec):
    rng = np.random.default_rng(11)
    values = rng.uniform(0.01, 3.0, size=(40, 4))
    bundle = rng.uniform(1e-3, 5.0, size=(40, 4))
    bundle[0] = [1e-70, 1.0, 2.0, 3.0]  # (v x)^alpha overflows for alpha = -5
    bundle[1, 0] = 1e200
    for v, x in ((values, bundle), (values[0], bundle), (values[3], bundle[3])):
        log_u, grad = ces.log_utility_and_gradient(v, x, spec)
        np.testing.assert_array_equal(log_u, ces.log_utility(v, x, spec))
        np.testing.assert_array_equal(grad, ces.log_utility_gradient(v, x, spec))
        _assert_out_form_matches(v, x, spec)


@pytest.mark.parametrize("spec", FUSED_SPECS, ids=lambda s: s.regime.value + s.alpha_label)
def test_fused_kernel_raises_like_separate_calls(spec):
    # a negative component is rejected with log_utility's message; at a zero
    # component the fused call returns log_utility's log u and, exactly where
    # log_utility_gradient rejects the boundary, no gradient
    values = np.array([[1.0, 2.0, 0.5]])
    negative = [[1.0, -1e-9, 2.0]]
    with pytest.raises(InvalidArgument) as separate:
        ces.log_utility(values, negative, spec)
    for call in (ces.log_utility_gradient, ces.log_utility_and_gradient):
        with pytest.raises(InvalidArgument) as fused:
            call(values, negative, spec)
        assert str(fused.value) == str(separate.value)
    rng = np.random.default_rng(12)
    n = 2**14 + 3  # more rows than one chunk of the certifier
    many_values = rng.uniform(0.01, 3.0, size=(n, 3))
    mixed = rng.uniform(1e-3, 5.0, size=(n, 3))
    mixed[::97, 1] = 0.0
    mixed[5::1000] = 0.0
    interior = np.all(mixed > 0, axis=1)
    singular = spec.regime in (Regime.GENERAL, Regime.COBB_DOUGLAS)
    # a NaN component is neither negative nor on the boundary; beside a zero,
    # the zero decides
    for v, x in ((values, np.array([[1.0, 0.0, 2.0]])), (many_values, mixed),
                 (many_values[interior], mixed[interior]),
                 (values, np.array([[1.0, np.nan, 2.0]])),
                 (values, np.array([[np.nan, 0.0, 2.0]]))):
        log_u, grad = ces.log_utility_and_gradient(v, x, spec)
        np.testing.assert_array_equal(log_u, ces.log_utility(v, x, spec))
        at_boundary = singular and np.any(x == 0)
        if at_boundary:
            with pytest.raises(InvalidArgument, match="singular at boundary bundles"):
                ces.log_utility_gradient(v, x, spec)
            assert grad is None
        else:
            np.testing.assert_array_equal(grad, ces.log_utility_gradient(v, x, spec))
    # boundary rows do not change the log u of the interior rows beside them
    np.testing.assert_array_equal(ces.log_utility(many_values, mixed, spec)[interior],
                                  ces.log_utility(many_values[interior], mixed[interior], spec))


@pytest.mark.parametrize("alpha", [-5.0, -1.0, 0.5])
def test_general_gradient_finite_when_power_overflows(alpha):
    # (1e-70)^-5 overflows; the gradient is still the normalized weights over x
    spec = CesSpec.general(alpha)
    values = np.ones(3)
    bundle = np.array([1e-70, 1.0, 2.0])
    grad = ces.log_utility_gradient(values, bundle, spec)
    assert np.all(np.isfinite(grad))
    log_s = alpha * np.log(bundle)
    share = np.exp(log_s - log_s.max()) / np.sum(np.exp(log_s - log_s.max()))
    np.testing.assert_allclose(grad, share / bundle, rtol=1e-14)
    if alpha == -5.0:
        np.testing.assert_allclose(grad, [1e70, 0.0, 0.0], rtol=1e-14, atol=1e-300)


@pytest.mark.parametrize("alpha", [-5.0, -3.0, -1.0, -0.2, 0.3, 0.5, 0.9])
def test_general_gradient_matches_long_double_on_wide_bundles(alpha):
    # on bundles spanning 1e+-80 the weights exp(alpha log(v x) - max) fall
    # below the smallest normal where s_j / (x_j sum_k s_k) is still large
    spec = CesSpec.general(alpha)
    rng = np.random.default_rng(17)
    values = rng.uniform(0.1, 3.0, size=(200, 6))
    bundle = 10.0 ** rng.uniform(-80.0, 80.0, size=(200, 6))
    grad = ces.log_utility_gradient(values, bundle, spec)
    _, fused = ces.log_utility_and_gradient(values, bundle, spec)
    np.testing.assert_array_equal(fused, grad)
    _assert_out_form_matches(values, bundle, spec)

    v, x = values.astype(np.longdouble), bundle.astype(np.longdouble)
    log_s = alpha * (np.log(v) + np.log(x))
    s = np.exp(log_s - log_s.max(axis=-1, keepdims=True))
    reference = s / (x * s.sum(axis=-1, keepdims=True))
    normal = reference >= np.finfo(float).tiny
    assert normal.sum() > normal.size // 2
    rel = np.abs((grad[normal] - reference[normal]) / reference[normal])
    assert rel.max() <= 1e-12


@pytest.mark.parametrize("m", [3, 8, 10, 17])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.regime.value + s.alpha_label)
def test_kernels_do_not_depend_on_layout(spec, m):
    # every per-buyer sum over goods adds column by column, so C- and
    # F-ordered inputs give the same bits, also at m >= 8
    rng = np.random.default_rng(16)
    n = 300
    values = np.exp(rng.uniform(-3.0, 3.0, size=(n, m)))
    bundle = np.exp(rng.uniform(-3.0, 3.0, size=(n, m)))
    budgets = np.exp(rng.uniform(-1.0, 1.0, size=n))
    prices = np.exp(rng.uniform(-2.0, 2.0, size=m))

    def results(v, x):
        log_u, grad = ces.log_utility_and_gradient(v, x, spec)
        demand = ces.demand_matrix(v, budgets, prices, spec)
        assert demand.flags.c_contiguous
        return [ces.log_utility(v, x, spec), log_u, grad,
                ces.fixed_price_log_utility_matrix(v, budgets, prices, spec), demand]

    expected = results(values, bundle)
    for v, x in ((np.asfortranarray(values), bundle), (values, np.asfortranarray(bundle)),
                 (np.asfortranarray(values), np.asfortranarray(bundle))):
        for got, want in zip(results(v, x), expected):
            np.testing.assert_array_equal(got, want)


def test_cobb_douglas_fixed_price_in_place():
    rng = np.random.default_rng(17)
    spec = CesSpec.cobb_douglas()
    values = rng.uniform(0.01, 3.0, size=(200, 6))
    budgets = rng.uniform(0.5, 2.0, size=200)
    prices = rng.uniform(0.5, 2.0, size=6)
    v_t = np.sum(values, axis=-1, keepdims=True)
    expected = np.log(budgets) + np.sum(values / v_t * np.log(values / (prices * v_t)), axis=-1)
    np.testing.assert_array_equal(
        ces.fixed_price_log_utility_matrix(values, budgets, prices, spec), expected)
    n, m = 2**16, 10
    values = rng.uniform(0.01, 3.0, size=(n, m))
    budgets, prices = np.ones(n), rng.uniform(0.5, 2.0, size=m)
    peak = peak_bytes(ces.fixed_price_log_utility_matrix, values, budgets, prices, spec)
    assert peak <= 2.5 * values.nbytes
