import copy
import hashlib
import pickle

import numpy as np
import pytest

from marketeq import ces
from marketeq import net as net_module
from marketeq.errors import InvalidArgument, NumericFailure
from marketeq.market import softplus
from marketeq.net import AdamState, AllocationNet, adam_step
from marketeq.trainer import TrainConfig, load_solution, save_solution

from helpers import peak_bytes, plain_forward, plain_layers, with_params


def small_net(seed=0, depth=2, width=8, k=3):
    return AllocationNet.initialize(k, hidden_depth=depth, hidden_width=width, seed=seed)


def test_zeroed_output_layer_gives_log2():
    net = small_net()
    net.weights[-1][...] = 0.0
    net.biases[-1][...] = 0.0
    rng = np.random.default_rng(0)
    x = net.forward_batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 3)))
    np.testing.assert_allclose(x, np.log(2.0), rtol=1e-15, atol=0)


def test_forward_golden_value():
    # frozen at the first correct build; guards against silent arithmetic drift
    net = AllocationNet.initialize(3, hidden_depth=2, hidden_width=8, seed=2024)
    got = net.forward_batch(np.array([[0.5, -1.0, 2.0]]), np.array([[1.5, 0.25, -0.75]]))
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(1.432152687936893, rel=1e-14)


def test_forward_batch_matches_single_calls():
    net = small_net(seed=3)
    rng = np.random.default_rng(1)
    buyers = rng.standard_normal((3, 3))
    goods = rng.standard_normal((2, 3))
    batch = net.forward_batch(buyers, goods)
    assert batch.shape == (3, 2)
    # BLAS may reorder accumulation between shapes; 1e-12 agreement is the contract
    for i in range(3):
        for j in range(2):
            single = plain_forward(net, buyers[i: i + 1], goods[j: j + 1])[0, 0]
            assert batch[i, j] == pytest.approx(single, rel=1e-12)
    one = net.forward_batch(buyers[:1], goods[:1])
    assert one.shape == (1, 1)
    assert one[0, 0] == pytest.approx(plain_forward(net, buyers[:1], goods[:1])[0, 0], rel=1e-12)


def test_forward_batch_slices_pair_rows(monkeypatch):
    # slices hold whole buyers, a multiple of 8 pair columns: 2800 x 3 runs in
    # slices of 328 and 1360 buyers, then in one; 5 x 3 has fewer buyers than
    # one 8-column block needs; 3 x 5000 has more goods than 1000 or 4096
    # columns, so those slices hold one buyer each
    net = small_net(seed=5, k=5)
    rng = np.random.default_rng(2)
    for n, m in ((2800, 3), (5, 3), (3, 5000)):
        buyers, goods = rng.standard_normal((n, 5)), rng.standard_normal((m, 5))
        outputs = []
        for rows in (1000, 4096, 16384, 65536):
            monkeypatch.setattr(net_module, "_BATCH_ROWS", rows)
            outputs.append(net.forward_batch(buyers, goods))
        # the slice size does not change a bit of the output, nor does one
        # training-step forward over the same buyers
        for batch in outputs[1:]:
            np.testing.assert_array_equal(batch, outputs[0])
        np.testing.assert_array_equal(net.forward_step(buyers, goods)[0], outputs[0])
        np.testing.assert_allclose(outputs[0], plain_forward(net, buyers, goods), rtol=1e-12, atol=0)


def test_forward_batch_memory_is_bounded():
    # a population forward holds its output and one slice of pair rows, not
    # a buyer chunk's worth: 2^16 x 10 pairs through a width-128 net
    width = 128
    net = AllocationNet.initialize(5, hidden_depth=3, hidden_width=width, seed=0)
    rng = np.random.default_rng(3)
    buyers, goods = rng.standard_normal((2**16, 5)), rng.standard_normal((10, 5))
    output = buyers.shape[0] * goods.shape[0] * 8
    assert peak_bytes(net.forward_batch, buyers, goods) <= output + 3 * ces._CHUNK_ROWS * width * 8


def test_forward_positivity_many_random():
    net = small_net(seed=4)
    rng = np.random.default_rng(2)
    x = net.forward_batch(rng.standard_normal((100, 3)) * 3.0, rng.standard_normal((100, 3)) * 3.0)
    assert np.all(x > 0.0)


def test_initialization_deterministic():
    a, b = small_net(seed=11), small_net(seed=11)
    assert np.array_equal(a.get_flat(), b.get_flat())
    pair = np.linspace(-1, 1, 6).reshape(2, 1, 3)
    np.testing.assert_array_equal(a.forward_batch(*pair), b.forward_batch(*pair))
    c = small_net(seed=12)
    assert not np.array_equal(a.get_flat(), c.get_flat())


def test_dimension_checks():
    net = small_net()
    with pytest.raises(InvalidArgument):
        net.forward_batch(np.ones((1, 2)), np.ones((1, 3)))
    # the parameters are one vector, as long as the declared architecture's count
    flat = net.get_flat()
    for wrong in (flat[:-1], np.append(flat, 1.0), flat.reshape(1, -1), flat.reshape(-1, 1)):
        with pytest.raises(InvalidArgument):
            AllocationNet(3, 2, 8, wrong)


def test_backward_matches_finite_differences():
    net = small_net(seed=5)
    rng = np.random.default_rng(3)
    buyers, goods = rng.standard_normal((4, 3)), rng.standard_normal((3, 3))
    target = rng.uniform(0.5, 2.0, size=(4, 3))

    def loss(y):
        return float(np.sum((y - target) ** 2))

    y, cache = net.forward_step(buyers, goods)
    flat_grad = net.backward(cache, (2.0 * (y - target)).reshape(-1))
    assert flat_grad.shape == (net.n_params,)
    params = net.get_flat()
    h = 1e-5
    picks = rng.choice(params.size, size=min(120, params.size), replace=False)
    for idx in picks:
        bumped = params.copy()
        bumped[idx] += h
        up = loss(with_params(net, bumped).forward_batch(buyers, goods))
        bumped[idx] -= 2 * h
        down = loss(with_params(net, bumped).forward_batch(buyers, goods))
        fd = (up - down) / (2 * h)
        err = abs(flat_grad[idx] - fd) / max(1e-6, abs(flat_grad[idx]), abs(fd))
        assert err <= 1e-4


def test_zero_loss_zero_gradient():
    net = small_net(seed=6)
    rng = np.random.default_rng(4)
    _, cache = net.forward_step(rng.standard_normal((5, 3)), rng.standard_normal((1, 3)))
    grad = net.backward(cache, np.zeros(5))
    assert grad.shape == (net.n_params,)
    assert np.all(grad == 0)


def test_saturated_output_kills_gradient():
    net = small_net(seed=7)
    net.biases[-1][...] = -60.0  # softplus'(-60) ~ 8.8e-27
    _, cache = net.forward_step(np.zeros((2, 3)), np.zeros((2, 3)))
    grad = net.backward(cache, np.ones(4))
    assert np.max(np.abs(grad)) < 1e-20  # weights and biases alike


def test_forward_step_rejects_nonfinite():
    net = small_net(seed=8)
    net.weights[0][0, 0] = np.inf
    with pytest.raises(NumericFailure):
        net.forward_step(np.ones((2, 3)), np.ones((1, 3)))


def test_adam_first_step_moves_by_lr():
    net = small_net(seed=9)
    state = AdamState.for_net(net, lr=1e-3)
    before = net.get_flat()
    adam_step(state, net, np.full(net.n_params, 3.0))
    delta = net.get_flat() - before
    # first bias-corrected step is -lr * g/(|g| + eps) ~ -lr
    np.testing.assert_allclose(delta, -1e-3, rtol=1e-6)
    assert state.step == 1


def test_adam_zero_gradient_no_move():
    net = small_net(seed=10)
    state = AdamState.for_net(net)
    before = net.get_flat()
    grad = np.zeros(net.n_params)
    adam_step(state, net, grad)
    adam_step(state, net, grad)
    np.testing.assert_array_equal(net.get_flat(), before)
    assert state.step == 2
    with pytest.raises(InvalidArgument):
        adam_step(state, net, np.zeros(net.n_params - 1))


def test_checkpoint_roundtrip(tmp_path):
    net = small_net(seed=13)
    multipliers = np.linspace(0.5, 1.5, 5)
    path = tmp_path / "ckpt.npz"
    save_solution(path, net, multipliers)
    loaded, lam = load_solution(path)
    assert np.array_equal(loaded.get_flat(), net.get_flat())
    np.testing.assert_array_equal(lam, multipliers)
    rng = np.random.default_rng(5)
    buyers, goods = rng.standard_normal((3, 3)), rng.standard_normal((2, 3))
    np.testing.assert_array_equal(loaded.forward_batch(buyers, goods), net.forward_batch(buyers, goods))


def test_initialize_sizes_are_integers():
    for sizes in ((5.5, 2, 8), (3, 2.0, 8), (3, 2, 8.0), (3, True, 8), (0, 2, 8), (3, 2, 0)):
        with pytest.raises(InvalidArgument):
            AllocationNet.initialize(*sizes)
    # numpy integers are counts too, and build the same net
    net = AllocationNet.initialize(np.int64(3), np.int32(2), np.int64(8), seed=1)
    np.testing.assert_array_equal(net.get_flat(), small_net(seed=1).get_flat())


def test_initialization_digest():
    # Philox draws, layer by layer, with no BLAS: the same bits on every platform
    seed = np.random.SeedSequence(1).spawn(2)[0]
    params = AllocationNet.initialize(5, 3, 128, seed).get_flat()
    assert hashlib.sha256(params.tobytes()).hexdigest()[:16] == "8a7691e5650739f1"


def test_constructor_owns_its_parameters():
    flat = np.arange(small_net().n_params)  # integers, copied into float64
    net = AllocationNet(3, 2, 8, flat)
    flat[0] = 99
    assert net.params.dtype == np.float64 and net.get_flat()[0] == 0.0


def test_architectures_no_array_could_hold_are_refused():
    # 2^60 wide: its parameters would take more than 2^63 bytes
    with pytest.raises(InvalidArgument):
        AllocationNet.initialize(3, 2, 2**60)
    with pytest.raises(InvalidArgument):
        TrainConfig(hidden_width=2**60)


def test_parameter_count():
    net = AllocationNet.initialize(5, hidden_depth=5, hidden_width=256, seed=0)
    dims = [10] + [256] * 5 + [1]
    expected = sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    assert net.n_params == expected


def _plain_step(net, buyers, goods, grad_output):
    """Allocating forward and backward pass, layer by layer, as first written."""
    acts, pre_acts = plain_layers(net, buyers, goods)
    zl = pre_acts[-1][:, 0]
    y = softplus(zl)
    sig = np.where(zl >= 0, 1.0 / (1.0 + np.exp(-np.abs(zl))),
                   np.exp(-np.abs(zl)) / (1.0 + np.exp(-np.abs(zl))))
    delta = (grad_output * sig)[:, None]
    grad_w, grad_b = [None] * len(net.weights), [None] * len(net.weights)
    for li in range(len(net.weights) - 1, -1, -1):
        grad_w[li] = acts[li].T @ delta
        grad_b[li] = delta.sum(axis=0)
        if li > 0:
            delta = (delta @ net.weights[li].T) * (pre_acts[li - 1] > 0)
    return y, grad_w, grad_b


def test_workspace_step_matches_plain_passes():
    net = AllocationNet.initialize(4, hidden_depth=3, hidden_width=16, seed=21)
    rng = np.random.default_rng(6)
    goods = rng.standard_normal((3, 4))
    for rows in (7, 7, 5, 7):  # reuses, replaces and rebuilds the workspace
        buyers = rng.standard_normal((rows, 4))
        grad_output = rng.standard_normal(rows * 3)
        x_hat, cache = net.forward_step(buyers, goods)
        grad = net.backward(cache, grad_output)
        y, ref_w, ref_b = _plain_step(net, buyers, goods, grad_output)
        # the step adds each bias inside its layer's product, which BLAS rounds
        # differently from the reference's separate add: 1e-12 is the contract
        np.testing.assert_allclose(x_hat, y.reshape(rows, 3), rtol=1e-12, atol=0)
        # every forward runs the same products, so they agree bit for bit
        np.testing.assert_array_equal(x_hat, net.forward_batch(buyers, goods))
        # get_flat() order: each layer's weights, then its biases
        offset = 0
        for li, (ref_wl, ref_bl) in enumerate(zip(ref_w, ref_b)):
            ref = np.concatenate([ref_wl.ravel(), ref_bl])
            err = np.max(np.abs(grad[offset: offset + ref.size] - ref))
            assert err <= 1e-12 * np.max(np.abs(ref)), (li, err)
            offset += ref.size
        assert offset == grad.size
    goods = rng.standard_normal((3, 4))  # new goods in the same workspace
    x_hat, _ = net.forward_step(buyers, goods)
    np.testing.assert_array_equal(x_hat, net.forward_batch(buyers, goods))


def test_training_step_memory_is_bounded():
    # the first step allocates its workspace: each hidden activation once (the
    # bias row of ones included) and one bool mask; backward writes its deltas
    # into the activation rows it has read, so less than four arrays of
    # rows x width, with no separate pre-activations or delta buffers
    width, rows = 128, 512 * 5
    net = AllocationNet.initialize(5, hidden_depth=3, hidden_width=width, seed=0)
    rng = np.random.default_rng(9)
    buyers, goods = rng.standard_normal((512, 5)), rng.standard_normal((5, 5))
    grad_output = rng.standard_normal(rows)

    def step():
        _, cache = net.forward_step(buyers, goods)
        net.backward(cache, grad_output)

    peak = peak_bytes(step)
    assert peak < 4 * rows * width * 8, peak / (rows * width * 8)


@pytest.mark.parametrize("buyers_shape, goods_shape", [
    ((2, 5, 1), (3, 5)),
    ((2, 5), (3, 5, 2)),
    ((2, 5, 1), (3, 5, 2)),
    ((2, 4), (3, 5)),
    ((2, 5), (3, 4)),
    ((0, 5), (3, 5)),
    ((3, 5), (0, 5)),
])
@pytest.mark.parametrize("method", ["forward_batch", "forward_step"])
def test_malformed_contexts_raise_invalid_argument(method, buyers_shape, goods_shape):
    net = small_net(k=5)
    with pytest.raises(InvalidArgument):
        getattr(net, method)(np.ones(buyers_shape), np.ones(goods_shape))


def test_backward_returns_fresh_flat_gradients():
    net = small_net(seed=14)
    rng = np.random.default_rng(7)
    buyers, goods = rng.standard_normal((4, 3)), rng.standard_normal((2, 3))
    _, cache = net.forward_step(buyers, goods)
    first = net.backward(cache, np.ones(8))
    # backward consumes its cache: the second gradient takes a fresh forward
    _, cache = net.forward_step(buyers, goods)
    second = net.backward(cache, 2.0 * np.ones(8))
    assert type(first) is np.ndarray and first.shape == (net.n_params,)
    assert not np.shares_memory(first, second)
    np.testing.assert_array_equal(second, 2.0 * first)


def test_backward_refuses_a_used_or_stale_cache():
    net = small_net(seed=18)
    rng = np.random.default_rng(10)
    buyers, goods = rng.standard_normal((4, 3)), rng.standard_normal((2, 3))
    grad_output = np.ones(8)
    _, cache = net.forward_step(buyers, goods)
    net.backward(cache, grad_output)
    with pytest.raises(InvalidArgument):
        net.backward(cache, grad_output)  # used
    for rows in (4, 3):  # a later forward in the same workspace, and in a new one
        _, stale = net.forward_step(buyers, goods)
        _, cache = net.forward_step(buyers[:rows], goods)
        with pytest.raises(InvalidArgument):
            net.backward(stale, grad_output)
        net.backward(cache, np.ones(rows * 2))  # the latest cache still works
    _, stale = net.forward_step(buyers, goods)
    net.release_workspace()
    with pytest.raises(InvalidArgument):
        net.backward(stale, grad_output)
    # a refused cache leaves the latest one usable
    _, cache = net.forward_step(buyers, goods)
    with pytest.raises(InvalidArgument):
        net.backward(stale, grad_output)
    fresh = small_net(seed=18)
    _, fresh_cache = fresh.forward_step(buyers, goods)
    np.testing.assert_array_equal(net.backward(cache, grad_output),
                                  fresh.backward(fresh_cache, grad_output))


def test_get_flat_returns_a_copy():
    net = small_net(seed=15)
    flat = net.get_flat()
    flat[:] = 7.0
    assert not np.any(net.get_flat() == 7.0)
    assert not np.shares_memory(flat, net.weights[0])


def _assert_views(net):
    flat = net.params
    assert all(np.shares_memory(a, flat) for a in net.weights + net.biases)
    assert net.get_flat().size == net.n_params == flat.size
    net.weights[0][0, 0] = 123.0
    assert net.get_flat()[0] == 123.0


def test_parameters_stay_views(tmp_path):
    net = small_net(seed=16)
    _assert_views(net)
    net = with_params(net, np.arange(net.n_params, dtype=float))
    _assert_views(net)
    assert net.weights[0][0, 1] == 1.0
    save_solution(tmp_path / "net.npz", net, [1.0])
    loaded, _ = load_solution(tmp_path / "net.npz")
    _assert_views(loaded)
    copied = copy.deepcopy(net)
    _assert_views(copied)
    assert not np.shares_memory(copied.params, net.params)
    _assert_views(pickle.loads(pickle.dumps(net)))


def test_adam_step_matches_allocating_update():
    net = small_net(seed=17)
    state = AdamState.for_net(net, lr=1e-2)
    ref_m, ref_v = np.zeros(net.n_params), np.zeros(net.n_params)
    ref_params = net.get_flat()
    rng = np.random.default_rng(8)
    for step in range(1, 4):
        _, cache = net.forward_step(rng.standard_normal((3, 3)), rng.standard_normal((2, 3)))
        flat = net.backward(cache, rng.standard_normal(6))
        ref_m = 0.9 * ref_m + (1.0 - 0.9) * flat
        ref_v = 0.999 * ref_v + (1.0 - 0.999) * flat * flat
        m_hat = ref_m / (1.0 - 0.9 ** step)
        v_hat = ref_v / (1.0 - 0.999 ** step)
        ref_params = ref_params - 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
        adam_step(state, net, flat)
        np.testing.assert_array_equal(net.get_flat(), ref_params)
        np.testing.assert_array_equal(state.m, ref_m)
        np.testing.assert_array_equal(state.v, ref_v)
