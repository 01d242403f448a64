import json

import numpy as np
import pytest
from scipy.special import ndtri

from marketeq import ces
from marketeq.ces import CesSpec
from marketeq.errors import DegenerateBudget, InvalidArgument
from marketeq.market import (
    ContextDistribution,
    Market,
    generate_market,
    softplus,
    softplus_and_slope,
    _sample_contexts,
)

from helpers import budget, peak_bytes, valuation


def one_pair(b, g):
    """The market of one buyer with context b and one good with context g."""
    return Market(n=1, m=1, k=len(b), buyers=[b], goods=[g], ces=CesSpec.linear())


def test_budget_examples():
    for b, expected in (([3.0, 4.0], 5.0), ([1.0], 1.0), ([0.3, -0.4, 1.2], 1.3)):
        assert budget(b) == pytest.approx(expected)
        assert one_pair(b, np.zeros(len(b))).budgets[0] == pytest.approx(expected)


def test_budget_zero_vector_rejected():
    with pytest.raises(DegenerateBudget):
        one_pair([0.0, 0.0], [1.0, 1.0]).budgets
    with pytest.raises(InvalidArgument):
        one_pair([np.inf, 1.0], [1.0, 1.0])


def test_valuation_examples():
    b = np.array([1.0, 0.0])
    for g, expected, tol in (([0.0, 5.0], np.log(2.0), None), ([50.0, 0.0], 50.0, 1e-12),
                             ([-1.0, 0.0], np.log(1 + np.exp(-1.0)), None)):
        assert valuation(b, g) == pytest.approx(expected, abs=tol)
        assert one_pair(b, g).values[0, 0] == pytest.approx(expected, abs=tol)
    with pytest.raises(InvalidArgument):
        Market(n=1, m=1, k=1, buyers=[[1.0]], goods=[[1.0, 2.0]], ces=CesSpec.linear())


def test_softplus_stability_wide_range():
    z = np.linspace(-700.0, 700.0, 2001)
    reference = np.logaddexp(0.0, z)  # independent formulation
    got = softplus(z)
    np.testing.assert_allclose(got, reference, rtol=1e-12)
    assert np.all(got > 0)


def _masked_sigmoid(z):
    # the two-branch stable sigmoid the solvers used before the shared-e helper
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _assert_out_form_matches(z, value, slope):
    # the `out` form, twice into one reused column-major workspace filled
    # with NaN, gives the allocating call's bits and returns its buffers
    out = tuple(np.full(z.shape, np.nan, order="F") for _ in range(3))
    for _ in range(2):
        got = softplus_and_slope(z, out=out)
        assert got[0] is out[0] and got[1] is out[1]
        np.testing.assert_array_equal(got[0], value)
        np.testing.assert_array_equal(got[1], slope)
        assert np.all(np.signbit(got[0]) == np.signbit(value))


def test_softplus_and_slope_bitwise():
    edges = np.array([0.0, 1e-300, 40.0, 745.0, 800.0])
    z = np.concatenate([edges, -edges, np.random.default_rng(0).standard_normal(1000) * 50.0])
    value, slope = softplus_and_slope(z)
    np.testing.assert_array_equal(value, softplus(z))
    np.testing.assert_array_equal(slope, _masked_sigmoid(z))
    assert np.all(np.signbit(value) == np.signbit(softplus(z)))
    _assert_out_form_matches(z, value, slope)
    grid = np.arange(12.0).reshape(3, 4) - 6.0
    value, slope = softplus_and_slope(grid)
    assert value.shape == slope.shape == (3, 4)
    np.testing.assert_array_equal(slope, _masked_sigmoid(grid))
    _assert_out_form_matches(grid, value, slope)


def test_generate_deterministic():
    spec = CesSpec.general(0.5)
    for dist in ContextDistribution:
        a = generate_market(20, 4, 3, dist, spec, 123)
        b = generate_market(20, 4, 3, dist, spec, 123)
        assert np.array_equal(a.buyers, b.buyers)
        assert np.array_equal(a.goods, b.goods)


def test_generate_entity_streams_independent_of_n():
    # buyer i's context must not change when the market grows
    spec = CesSpec.cobb_douglas()
    small = generate_market(7, 3, 4, ContextDistribution.UNIFORM01, spec, 5)
    big = generate_market(50, 9, 4, ContextDistribution.UNIFORM01, spec, 5)
    np.testing.assert_array_equal(small.buyers, big.buyers[:7])
    np.testing.assert_array_equal(small.goods, big.goods[:3])


def test_generate_single_pair_budget():
    mkt = generate_market(1, 1, 1, ContextDistribution.UNIFORM01, CesSpec.linear(), 7)
    assert mkt.budgets[0] == pytest.approx(abs(mkt.buyers[0, 0]))
    assert mkt.budgets[0] > 0


def test_generate_table_scale_configuration():
    mkt = generate_market(2**20, 10, 5, ContextDistribution.STANDARD_NORMAL,
                          CesSpec.general(0.5), 1)
    assert (mkt.n, mkt.m, mkt.k) == (2**20, 10, 5)
    assert mkt.supplies[3] == 1048576.0


def test_generate_exponential_values_above_log2():
    # nonnegative contexts make <b,g> >= 0, so softplus >= log 2
    mkt = generate_market(4, 3, 2, ContextDistribution.EXPONENTIAL_UNIT_RATE,
                          CesSpec.cobb_douglas(), 42)
    assert np.all(mkt.values >= np.log(2.0) - 1e-15)


def test_generate_positivity():
    for dist in ContextDistribution:
        mkt = generate_market(50, 5, 5, dist, CesSpec.linear(), 9)
        assert np.all(mkt.budgets > 0)
        assert np.all(mkt.values > 0)


def test_generate_rejects_zero_counts():
    with pytest.raises(InvalidArgument):
        generate_market(0, 1, 1, ContextDistribution.UNIFORM01, CesSpec.linear(), 1)
    with pytest.raises(InvalidArgument):
        generate_market(1, 0, 1, ContextDistribution.UNIFORM01, CesSpec.linear(), 1)
    with pytest.raises(InvalidArgument):
        generate_market(1, 1, 0, ContextDistribution.UNIFORM01, CesSpec.linear(), 1)
    for seed in (-1, None):  # a seedless draw would not be reproducible
        with pytest.raises(InvalidArgument):
            generate_market(1, 1, 1, ContextDistribution.UNIFORM01, CesSpec.linear(), seed)


def test_recipe_counts_and_seed_are_integers():
    uniform, linear = ContextDistribution.UNIFORM01, CesSpec.linear()
    for bad in ("8", 8.5, True):
        with pytest.raises(InvalidArgument):
            generate_market(bad, 2, 2, uniform, linear, 3)
    with pytest.raises(InvalidArgument):
        generate_market(5, 2, 2, uniform, linear, 1.5)
    numpy_ints = generate_market(np.int64(5), np.int32(2), np.int64(2), uniform, linear,
                                 np.int64(3))
    np.testing.assert_array_equal(numpy_ints.values,
                                  generate_market(5, 2, 2, uniform, linear, 3).values)


def test_supply_default_and_override():
    mkt = generate_market(5, 2, 2, ContextDistribution.UNIFORM01, CesSpec.linear(), 3)
    assert mkt.supplies[1] == 5.0
    override = Market(n=mkt.n, m=mkt.m, k=mkt.k, buyers=mkt.buyers, goods=mkt.goods,
                      ces=mkt.ces, supply_override=np.array([2.0, 3.0]))
    assert override.supplies[0] == 2.0
    with pytest.raises(InvalidArgument):
        Market(n=mkt.n, m=mkt.m, k=mkt.k, buyers=mkt.buyers, goods=mkt.goods,
               ces=mkt.ces, supply_override=np.array([1.0, 0.0]))


def test_json_roundtrip_regenerates_from_seed(tmp_path):
    mkt = generate_market(10, 3, 4, ContextDistribution.STANDARD_NORMAL, CesSpec.general(-1.0), 77)
    path = tmp_path / "market.json"
    mkt.save(path)
    doc = json.loads(path.read_text())
    assert "buyers" not in doc  # compact form regenerates from the seed
    again = Market.load(path)
    assert np.array_equal(again.buyers, mkt.buyers)
    assert again.ces == mkt.ces


def test_json_roundtrip_with_contexts(tmp_path):
    mkt = generate_market(4, 2, 3, ContextDistribution.UNIFORM01, CesSpec.leontief(), 8)
    path = tmp_path / "market.json"
    mkt.save(path, include_contexts=True)
    again = Market.load(path)
    assert np.array_equal(again.buyers, mkt.buyers)
    assert np.array_equal(again.goods, mkt.goods)


def test_market_values_match_pointwise():
    mkt = generate_market(6, 4, 3, ContextDistribution.STANDARD_NORMAL, CesSpec.linear(), 12)
    for i in (0, 5):
        for j in (0, 3):
            assert mkt.values[i, j] == pytest.approx(valuation(mkt.buyers[i], mkt.goods[j]))


def test_sample_contexts_in_place():
    n, k = 2**16, 5
    for dist in ContextDistribution:
        seed = np.random.SeedSequence(31)
        u = np.random.Generator(np.random.Philox(seed)).random((n, k))
        # the transforms written as whole expressions
        expected = {
            ContextDistribution.UNIFORM01: u,
            ContextDistribution.EXPONENTIAL_UNIT_RATE: -np.log1p(-u),
            ContextDistribution.STANDARD_NORMAL:
                ndtri(np.clip(u + 2.0**-54, 2.0**-54, np.nextafter(1.0, 0.0))),
        }[dist]
        np.testing.assert_array_equal(_sample_contexts(seed, n, k, dist), expected)
        peak = peak_bytes(_sample_contexts, seed, n, k, dist)
        assert peak <= 1.5 * u.nbytes, dist


@pytest.mark.parametrize("n", [ces._CHUNK_ROWS + 1, 3 * ces._CHUNK_ROWS + 4097])
def test_values_bitwise_across_chunks(n):
    mkt = generate_market(n, 10, 5, ContextDistribution.STANDARD_NORMAL, CesSpec.linear(), 13)
    np.testing.assert_array_equal(mkt.values, softplus(mkt.buyers @ mkt.goods.T))


def test_values_column_major_read_only():
    mkt = generate_market(300, 7, 4, ContextDistribution.STANDARD_NORMAL, CesSpec.general(0.5), 15)
    values = mkt.values
    assert values.flags.f_contiguous and not values.flags.writeable
    np.testing.assert_array_equal(values, softplus(mkt.buyers @ mkt.goods.T))


def test_values_peak_memory_one_output():
    n, m = 2**17, 10
    mkt = generate_market(n, m, 5, ContextDistribution.STANDARD_NORMAL, CesSpec.linear(), 14)
    peak = peak_bytes(lambda: mkt.values)
    assert peak <= (n + 4 * ces._CHUNK_ROWS) * m * 8


def test_cached_arrays_are_read_only():
    mkt = generate_market(5, 2, 2, ContextDistribution.UNIFORM01, CesSpec.linear(), 3)
    for array in (mkt.budgets, mkt.values, mkt.supplies):
        with pytest.raises(ValueError):
            array[0] = 0.0
    # an explicit supply is the caller's array, kept as given
    supplies = np.array([2.0, 3.0])
    override = Market(n=mkt.n, m=mkt.m, k=mkt.k, buyers=mkt.buyers, goods=mkt.goods,
                      ces=mkt.ces, supply_override=supplies)
    assert override.supplies is supplies and supplies.flags.writeable
