"""Feedforward allocation function x(b, g) > 0 with reverse-mode gradients.

A plain fully connected net on the concatenated contexts [b; g]: relu hidden
layers, a single softplus output so the allocation is strictly positive, all
arithmetic in float64.  Backprop and the adaptive-moment optimizer are written
out by hand; no autograd framework behind this module.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field

import numpy as np

from .ces import _row_chunks
from .errors import InvalidArgument, NumericFailure
from .market import softplus, softplus_and_slope

CHECKPOINT_VERSION = 1
_CHECKPOINT_KEYS = ("version", "context_dim", "hidden_depth", "hidden_width", "params")

# Adam's moment decay rates and denominator guard, fixed for every run
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _layer_views(flat: np.ndarray, dims):
    """Per-layer (weights, biases) views of a flat buffer laid out like get_flat()."""
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(flat[offset: offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
        biases.append(flat[offset: offset + fan_out])
        offset += fan_out
    return weights, biases


def _fill_pairs(inputs: np.ndarray, buyers: np.ndarray, goods: np.ndarray, goods_too: bool = True):
    """Write the rows [b_i; g_j], buyer-major, into `inputs` of shape (M*m, 2k)."""
    k = buyers.shape[1]
    pairs = inputs.reshape(buyers.shape[0], goods.shape[0], 2 * k)
    pairs[:, :, :k] = buyers[:, None, :]
    if goods_too:
        pairs[:, :, k:] = goods


class _StepWorkspace:
    """Buffers of the training step for one row count: the pair inputs, each
    layer's pre-activation, activation and finiteness mask, and backward's
    two delta buffers."""

    def __init__(self, dims, rows: int):
        width = max(dims[1:])
        self.rows = rows
        self.inputs = np.empty((rows, dims[0]))
        self.goods = None  # the goods currently filled into the inputs' right half
        self.pre = [np.empty((rows, d)) for d in dims[1:]]
        self.act = [np.empty((rows, d)) for d in dims[1:-1]]
        self.finite = np.empty((rows, width), dtype=bool)
        self.delta = (np.empty((rows, width)), np.empty((rows, width)))

    def fill_pairs(self, buyers: np.ndarray, goods: np.ndarray) -> np.ndarray:
        refill = self.goods is None or not np.array_equal(self.goods, goods)
        _fill_pairs(self.inputs, buyers, goods, goods_too=refill)
        if refill:
            self.goods = goods.copy()
        return self.inputs


@dataclass
class AllocationNet:
    """Weights and biases of the allocation network.

    `weights[i]` has shape (fan_in, fan_out); layer order is input -> hidden
    (depth of them, relu) -> scalar output (softplus).  All parameters live in
    one flat buffer in `get_flat()` order, and `weights`/`biases` are views of
    it; write them in place.  Treat instances as owned by one trainer:
    `forward_pairs`/`forward_batch` are safe to share read-only, but the
    training step's cached forward and `backward` use a workspace kept on the
    net.
    """

    context_dim: int
    hidden_depth: int
    hidden_width: int
    weights: list = field(repr=False)
    biases: list = field(repr=False)

    def __post_init__(self):
        self._params = np.concatenate(
            [np.asarray(arr, dtype=float).ravel() for pair in zip(self.weights, self.biases)
             for arr in pair])
        self._dims = [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]
        self.weights, self.biases = _layer_views(self._params, self._dims)
        self._workspace = None

    # copies and pickles carry the flat buffer and rebuild the views onto it
    def __getstate__(self):
        state = dict(self.__dict__, _workspace=None)
        del state["weights"], state["biases"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.weights, self.biases = _layer_views(self._params, self._dims)

    @classmethod
    def initialize(cls, context_dim: int, hidden_depth: int = 5, hidden_width: int = 256,
                   seed: int | np.random.SeedSequence = 0) -> "AllocationNet":
        """He-style init: N(0, 2/fan_in) weights, zero biases."""
        if context_dim < 1 or hidden_depth < 1 or hidden_width < 1:
            raise InvalidArgument("architecture dimensions must be >= 1")
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        gen = np.random.Generator(np.random.Philox(seed))
        dims = [2 * context_dim] + [hidden_width] * hidden_depth + [1]
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(gen.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in))
            biases.append(np.zeros(fan_out))
        return cls(context_dim, hidden_depth, hidden_width, weights, biases)

    @property
    def input_dim(self) -> int:
        return 2 * self.context_dim

    @property
    def n_params(self) -> int:
        return self._params.size

    # ---- forward -----------------------------------------------------------

    def forward_pairs(self, inputs: np.ndarray) -> np.ndarray:
        """Outputs for a (rows, 2k) batch of concatenated [b; g] inputs; shape (rows,)."""
        y, _ = self._forward_cached(np.asarray(inputs, dtype=float), keep=False)
        return y

    def forward(self, b, g) -> float:
        b = np.asarray(b, dtype=float)
        g = np.asarray(g, dtype=float)
        if b.shape != (self.context_dim,) or g.shape != (self.context_dim,):
            raise InvalidArgument(
                f"contexts must have dimension {self.context_dim}, got {b.shape} and {g.shape}"
            )
        return float(self.forward_pairs(np.concatenate([b, g])[None, :])[0])

    def _check_contexts(self, buyers, goods):
        buyers = np.atleast_2d(np.asarray(buyers, dtype=float))
        goods = np.atleast_2d(np.asarray(goods, dtype=float))
        if buyers.shape[1] != self.context_dim or goods.shape[1] != self.context_dim:
            raise InvalidArgument("context dimension mismatch with network input")
        return buyers, goods

    def forward_batch(self, buyers: np.ndarray, goods: np.ndarray) -> np.ndarray:
        """Allocation matrix (M, m) for M buyer contexts against m good contexts; its M*m
        buyer-major pair rows go through the network in `ces._row_chunks` slices."""
        buyers, goods = self._check_contexts(buyers, goods)
        m = goods.shape[0]
        out = np.empty(buyers.shape[0] * m)
        for rows in _row_chunks(out.size):
            first, lead = divmod(rows.start, m)  # the slice's first buyer and its pairs before it
            touched = buyers[first: -(-rows.stop // m)]
            inputs = np.empty((touched.shape[0] * m, self.input_dim))
            _fill_pairs(inputs, touched, goods)
            out[rows] = self.forward_pairs(inputs[lead: lead + rows.stop - rows.start])
        return out.reshape(buyers.shape[0], m)

    def forward_step(self, buyers: np.ndarray, goods: np.ndarray):
        """Allocation matrix (M, m) plus the cache `backward` needs, for one
        training step.  The pair inputs and every layer buffer live in the
        net's workspace for this row count, so the cache stays valid until the
        next cached forward pass with the same number of rows."""
        buyers, goods = self._check_contexts(buyers, goods)
        workspace = self._step_workspace(buyers.shape[0] * goods.shape[0])
        y, cache = self._forward_cached(workspace.fill_pairs(buyers, goods))
        return y.reshape(buyers.shape[0], goods.shape[0]), cache

    def _step_workspace(self, rows: int) -> _StepWorkspace:
        if self._workspace is None or self._workspace.rows != rows:
            self._workspace = _StepWorkspace(self._dims, rows)
        return self._workspace

    def _forward_cached(self, inputs, keep=True):
        if inputs.ndim != 2 or inputs.shape[1] != self.input_dim:
            raise InvalidArgument(f"inputs must be (rows, {self.input_dim})")
        rows = inputs.shape[0]
        last = len(self.weights) - 1
        if keep:
            workspace = self._step_workspace(rows)
            pre, act, finite = workspace.pre, workspace.act, workspace.finite
        else:
            # two transient buffers taking turns; relu overwrites z in place
            width = max(self._dims[1:-1])
            turns = (np.empty((rows, width)), np.empty((rows, width)))
            act = [turns[li % 2] for li in range(last)]
            pre = act + [np.empty((rows, self._dims[-1]))]
            finite = np.empty((rows, max(self._dims[1:])), dtype=bool)
        h = inputs
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = np.matmul(h, w, out=pre[li])
            z += b
            if not np.isfinite(z, out=finite[:, : z.shape[1]]).all():
                raise NumericFailure(f"non-finite pre-activation in layer {li}")
            if li < last:
                h = np.maximum(z, 0.0, out=act[li])
        if not keep:
            return softplus(z[:, 0]), None
        y, slope = softplus_and_slope(z[:, 0])
        return y, ([inputs] + act, pre, slope)

    # ---- backward ----------------------------------------------------------

    def backward(self, cache, grad_output: np.ndarray) -> np.ndarray:
        """Parameter gradient of sum(grad_output * output) for a cached forward
        pass, as one fresh flat array laid out like `get_flat()`."""
        acts, pre_acts, slope = cache
        workspace = self._step_workspace(acts[0].shape[0])
        flat = np.empty(self.n_params)
        grad_w, grad_b = _layer_views(flat, self._dims)
        # d softplus(z) / dz = sigmoid(z), kept by the forward pass
        delta = (grad_output * slope)[:, None]
        for li in range(len(self.weights) - 1, -1, -1):
            np.matmul(acts[li].T, delta, out=grad_w[li])
            np.sum(delta, axis=0, out=grad_b[li])
            if li > 0:
                w = self.weights[li]
                out = workspace.delta[li % 2][:, : w.shape[0]]
                if w.shape[1] == 1:  # a one-wide layer's delta @ w.T is an outer product
                    np.multiply(delta, w.T, out=out)
                else:
                    np.matmul(delta, w.T, out=out)
                mask = np.greater(pre_acts[li - 1], 0, out=workspace.finite[:, : w.shape[0]])
                delta = np.multiply(out, mask, out=out)
        return flat

    # ---- flat parameter view (checkpoints, finite differences) -------------

    def get_flat(self) -> np.ndarray:
        """A copy of all parameters, layer by layer (weights, then biases)."""
        return self._params.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.n_params,):
            raise InvalidArgument(f"expected {self.n_params} parameters, got {flat.shape}")
        self._params[...] = flat


def save_checkpoint(path, net: AllocationNet, **arrays) -> None:
    """Write the net's architecture and parameters, then `arrays` by name,
    as one versioned .npz file (the format of every marketeq checkpoint)."""
    np.savez(path, version=CHECKPOINT_VERSION, context_dim=net.context_dim,
             hidden_depth=net.hidden_depth, hidden_width=net.hidden_width,
             params=net.get_flat(), **arrays)


def load_checkpoint(path):
    """Inverse of save_checkpoint: returns (net, every array in the file by name).

    Raises InvalidArgument unless the file is a marketeq checkpoint with finite parameters."""
    try:
        with np.load(path) as blob:
            arrays = dict(blob)
    except (ValueError, TypeError, zipfile.BadZipFile) as err:
        # text or pickled data, a bare .npy array, or a damaged archive
        raise InvalidArgument(f"{path} is not a marketeq checkpoint (.npz archive)") from err
    missing = [key for key in _CHECKPOINT_KEYS if key not in arrays]
    if missing:
        raise InvalidArgument(f"{path} is not a marketeq checkpoint: it lacks {missing}")
    if int(arrays["version"]) != CHECKPOINT_VERSION:
        raise InvalidArgument(f"unsupported checkpoint version {arrays['version']}")
    net = AllocationNet.initialize(
        int(arrays["context_dim"]), int(arrays["hidden_depth"]), int(arrays["hidden_width"])
    )
    net.set_flat(arrays["params"])
    if not np.all(np.isfinite(net._params)):
        raise InvalidArgument(f"{path} holds non-finite network parameters")
    return net, arrays


@dataclass
class AdamState:
    """Flat first/second moment accumulators, step count and learning rate;
    the decay rates and guard are the module's ADAM_* constants."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-4
    _buffers: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def for_net(cls, net: AllocationNet, lr: float = 1e-4) -> "AdamState":
        return cls(m=np.zeros(net.n_params), v=np.zeros(net.n_params), lr=lr)


def adam_step(state: AdamState, net: AllocationNet, flat: np.ndarray) -> None:
    """One adaptive-moment descent step with bias correction on the flat
    gradient `flat` (laid out like `get_flat()`); updates in place."""
    if flat.shape != state.m.shape:
        raise InvalidArgument("gradient shape does not match optimizer state")
    if state._buffers is None or state._buffers.shape != (2,) + flat.shape:
        state._buffers = np.empty((2,) + flat.shape)
    update, denom = state._buffers
    state.step += 1
    # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g
    state.m *= ADAM_BETA1
    state.m += np.multiply(1.0 - ADAM_BETA1, flat, out=update)
    np.multiply(1.0 - ADAM_BETA2, flat, out=update)
    update *= flat
    state.v *= ADAM_BETA2
    state.v += update
    # params -= lr m_hat / (sqrt(v_hat) + eps), bias-corrected moments
    np.divide(state.m, 1.0 - ADAM_BETA1 ** state.step, out=update)
    update *= state.lr
    np.divide(state.v, 1.0 - ADAM_BETA2 ** state.step, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update /= denom
    net._params -= update


__all__ = ["AllocationNet", "AdamState", "adam_step",
           "save_checkpoint", "load_checkpoint", "CHECKPOINT_VERSION"]
