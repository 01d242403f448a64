"""Feedforward allocation function x(b, g) > 0 with reverse-mode gradients.

A plain fully connected net on the concatenated contexts [b; g]: relu hidden
layers, a single softplus output so the allocation is strictly positive, all
arithmetic in float64.  Backprop and the adaptive-moment optimizer are written
out by hand; no autograd framework behind this module.

Activations are feature-major: a layer's input is a (fan_in + 1, rows) buffer
whose last row is ones, so each layer is one product by its [W; b] block of
the flat parameters, with relu applied in place, and backward's one product
per layer writes the weight and bias gradients together.  The training step
keeps one set of layer buffers on the net, and its cache lives until its
backward or the next cached forward.  Backward writes each layer's delta into
the rows of the activation it has just read, so a step holds no buffers beyond
its forward's; the trainer releases them before a population pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, NumericFailure, check_integer, check_size
from .market import softplus, softplus_and_slope

# Adam's moment decay rates and denominator guard, fixed for every run
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# most pair columns in one slice of a population forward (`forward_batch`)
_BATCH_ROWS = 4096


def check_architecture(context_dim, hidden_depth, hidden_width) -> int:
    """The parameter count of an architecture, each of whose three sizes is
    checked to be an integer of at least 1.  Counted in closed form, as a
    depth-long list of widths may not fit in memory, and checked to fit in
    one float64 array.  The one check of an architecture."""
    check_integer("context_dim", context_dim, 1)
    check_integer("hidden_depth", hidden_depth, 1)
    check_integer("hidden_width", hidden_width, 1)
    k, depth, width = int(context_dim), int(hidden_depth), int(hidden_width)
    count = (2 * k + 1) * width + (depth - 1) * (width + 1) * width + (width + 1)
    check_size("the network's parameters", count)
    return count


def _layer_views(flat: np.ndarray, dims):
    """Per-layer [W; b] views of a flat buffer laid out like get_flat(): each
    layer's (fan_in, fan_out) weights row by row, then its fan_out biases, which
    together are one contiguous (fan_in + 1, fan_out) block."""
    views, offset = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        size = (fan_in + 1) * fan_out
        views.append(flat[offset: offset + size].reshape(fan_in + 1, fan_out))
        offset += size
    return views


def _with_ones(fan: int, cols: int) -> np.ndarray:
    """A feature-major (fan + 1, cols) buffer whose last row is ones, so that a
    layer's [W; b] maps its first fan rows h to W.T h + b in one product."""
    buf = np.empty((fan + 1, cols))
    buf[fan] = 1.0
    return buf


def _fill_pairs(pairs: np.ndarray, buyers: np.ndarray, goods: np.ndarray):
    """Write the pair columns [b_i; g_j], buyer-major, into the first 2k rows of
    `pairs`, a (2k + 1, M, m) view of feature-major inputs."""
    k = buyers.shape[1]
    pairs[:k] = buyers.T[:, :, None]
    pairs[k: 2 * k] = goods.T[:, None, :]


class _Buffers:
    """Feature-major buffers of one forward pass over at most `cols` pair
    columns: the pair inputs and each hidden layer's output (each with a last
    row of ones), the output layer's pre-activation and a bool mask (finiteness in the
    forward, relu's in backward).  With `turns`, for a forward that no
    backward reads, the hidden layers take turns in two buffers.  `live` is
    the cache of the training step's latest forward until its backward."""

    def __init__(self, dims, cols: int, turns: bool = False):
        self.cols = cols
        self.inputs = _with_ones(dims[0], cols)
        hidden = [_with_ones(d, cols) for d in dims[1:-1][: 2 if turns else None]]
        self.acts = [hidden[li % len(hidden)] for li in range(len(dims) - 2)]
        self.z = np.empty((dims[-1], cols))
        self.finite = np.empty((max(dims[1:]), cols), dtype=bool)
        self.live = None


@dataclass(eq=False)
class AllocationNet:
    """The allocation network: its architecture and its flat parameters.

    Layers run input -> hidden (depth of them, relu) -> scalar output
    (softplus).  The constructor copies `params`, laid out like `get_flat()`,
    into a float64 buffer of the net's own; `weights[i]` (fan_in, fan_out)
    and `biases[i]` are views of it, written in place.  Treat instances as
    owned by one trainer: `forward_batch` is safe to share read-only, but the
    training step's cached forward and `backward` use a workspace kept on the
    net.  `==` is identity.
    """

    context_dim: int
    hidden_depth: int
    hidden_width: int
    params: np.ndarray = field(repr=False)

    def __post_init__(self):
        count = check_architecture(self.context_dim, self.hidden_depth, self.hidden_width)
        self.params = np.array(self.params, dtype=float)
        if self.params.shape != (count,):
            raise InvalidArgument(f"expected {count} parameters, got {self.params.shape}")
        self._dims = [2 * self.context_dim] + [self.hidden_width] * self.hidden_depth + [1]
        self._bind_views()
        self._workspace = None

    def _bind_views(self):
        self._layers = _layer_views(self.params, self._dims)
        self.weights = [wb[:-1] for wb in self._layers]
        self.biases = [wb[-1] for wb in self._layers]

    # copies and pickles carry the flat buffer and rebuild the views onto it
    def __getstate__(self):
        state = dict(self.__dict__, _workspace=None)
        del state["weights"], state["biases"], state["_layers"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind_views()

    @classmethod
    def initialize(cls, context_dim: int, hidden_depth: int = 5, hidden_width: int = 256,
                   seed: int | np.random.SeedSequence = 0) -> "AllocationNet":
        """He-style init: N(0, 2/fan_in) weights, zero biases."""
        net = cls(context_dim, hidden_depth, hidden_width,
                  np.zeros(check_architecture(context_dim, hidden_depth, hidden_width)))
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        gen = np.random.Generator(np.random.Philox(seed))
        for w in net.weights:
            w[...] = gen.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])
        return net

    @property
    def n_params(self) -> int:
        return self.params.size

    # ---- forward -----------------------------------------------------------

    def _check_contexts(self, buyers, goods):
        buyers = np.atleast_2d(np.asarray(buyers, dtype=float))
        goods = np.atleast_2d(np.asarray(goods, dtype=float))
        if buyers.ndim != 2 or goods.ndim != 2:
            raise InvalidArgument(
                f"contexts must be (rows, {self.context_dim}) arrays, "
                f"got {buyers.shape} and {goods.shape}")
        if buyers.shape[1] != self.context_dim or goods.shape[1] != self.context_dim:
            raise InvalidArgument("context dimension mismatch with network input")
        if buyers.shape[0] == 0 or goods.shape[0] == 0:
            raise InvalidArgument(f"contexts must not be empty, got {buyers.shape} and {goods.shape}")
        return buyers, goods

    def forward_batch(self, buyers: np.ndarray, goods: np.ndarray) -> np.ndarray:
        """Allocation matrix (M, m) for M buyer contexts against m good contexts.
        Whole buyers go through the network in slices, in buffers allocated once
        per call: a multiple of 8 buyer-major pair columns, at most
        `_BATCH_ROWS`, or one buyer when lcm(m, 8) is larger.  So each column
        keeps its place in BLAS's column blocks: the output does not depend on
        the slice size and equals `forward_step`'s bit for bit, or to about
        1e-15 relative in one-buyer slices of an unaligned m."""
        buyers, goods = self._check_contexts(buyers, goods)
        n, m = buyers.shape[0], goods.shape[0]
        align = 8 // math.gcd(m, 8)  # fewest buyers whose pairs fill whole 8-column blocks
        per = min(n, max(_BATCH_ROWS // m // align * align, 1))
        out = np.empty((n, m))
        buffers = _Buffers(self._dims, per * m, turns=True)
        pairs = buffers.inputs.reshape(-1, per, m)
        for start in range(0, n, per):
            rows = buyers[start: start + per]
            _fill_pairs(pairs[:, : rows.shape[0]], rows, goods)
            z, _ = self._forward_cached(buffers, rows.shape[0] * m)
            out[start: start + per] = softplus(z[0]).reshape(-1, m)
        return out

    def forward_step(self, buyers: np.ndarray, goods: np.ndarray):
        """Allocation matrix (M, m) plus the cache `backward` needs, for one
        training step.  The pair inputs and every layer buffer live in the
        net's workspace for this row count, kept between steps.  The cache
        lives until its `backward`, the next `forward_step` or
        `release_workspace`, whichever comes first; `backward` refuses it after."""
        buyers, goods = self._check_contexts(buyers, goods)
        rows = buyers.shape[0] * goods.shape[0]
        if self._workspace is None or self._workspace.cols != rows:
            self._workspace = _Buffers(self._dims, rows)
        workspace = self._workspace
        workspace.live = None  # the earlier cache's buffers are overwritten from here
        _fill_pairs(workspace.inputs.reshape(-1, buyers.shape[0], goods.shape[0]), buyers, goods)
        z, acts = self._forward_cached(workspace, rows)
        y, slope = softplus_and_slope(z[0])
        cache = workspace.live = (acts, slope)
        return y.reshape(buyers.shape[0], goods.shape[0]), cache

    def release_workspace(self) -> None:
        """Free the training step's buffers, and with them any live cache; the
        next `forward_step` allocates them again.  The trainer calls this
        before each population pass, so a run holds one set of layer buffers
        at a time."""
        self._workspace = None

    def _forward_cached(self, buffers: _Buffers, cols: int):
        """Run the first cols pair columns of `buffers.inputs` (feature-major,
        last row ones) through every layer, each writing the first cols
        columns of its buffer: one product by [W; b], then relu in place.
        Returns the output layer's (1, cols) pre-activation and the
        activations backward reads, inputs first."""
        acts, last = [buffers.inputs[:, :cols]], len(self._layers) - 1
        for li, wb in enumerate(self._layers):
            z = buffers.z[:, :cols] if li == last else buffers.acts[li][:-1, :cols]
            np.matmul(wb.T, acts[-1], out=z)
            if not np.isfinite(z, out=buffers.finite[: z.shape[0], :cols]).all():
                raise NumericFailure(f"non-finite pre-activation in layer {li}")
            if li < last:
                np.maximum(z, 0.0, out=z)
                acts.append(buffers.acts[li][:, :cols])
        return z, acts

    # ---- backward ----------------------------------------------------------

    def backward(self, cache, grad_output: np.ndarray) -> np.ndarray:
        """Parameter gradient of sum(grad_output * output) for the cache of
        the latest `forward_step`, as one fresh flat array laid out like
        `get_flat()`.  It consumes the cache: each layer's delta goes into the
        rows of the activation it has just read.  A cache that a backward has
        used, or that a later `forward_step` or `release_workspace` made
        stale, is an InvalidArgument."""
        workspace = self._workspace
        if workspace is None or workspace.live is not cache:
            raise InvalidArgument("backward takes the cache of the latest forward_step, once")
        workspace.live = None
        acts, slope = cache
        flat = np.empty(self.n_params)
        grads = _layer_views(flat, self._dims)
        # d softplus(z) / dz = sigmoid(z), kept by the forward pass
        delta = (grad_output * slope)[None, :]
        for li in range(len(self._layers) - 1, -1, -1):
            # one product gives [dW; db]: the activations' ones row sums delta
            np.matmul(acts[li], delta.T, out=grads[li])
            if li > 0:
                w = self.weights[li]
                # relu output is above zero exactly where its input was
                mask = np.greater(acts[li][:-1], 0, out=workspace.finite[: w.shape[0]])
                out = acts[li][:-1]  # read for the last time above: the delta goes here
                if w.shape[1] == 1:  # a one-wide layer's w @ delta is an outer product
                    np.multiply(w, delta, out=out)
                else:
                    np.matmul(w, delta, out=out)
                delta = np.multiply(out, mask, out=out)
        return flat

    # ---- flat parameter view (solution files) -------------------------------

    def get_flat(self) -> np.ndarray:
        """A copy of all parameters, layer by layer (weights, then biases)."""
        return self.params.copy()


@dataclass(eq=False)
class AdamState:
    """Flat first/second moment accumulators, step count and learning rate;
    the decay rates and guard are the module's ADAM_* constants."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-4
    _buffers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # adam_step's two work buffers come with the moments, before any step
        # workspace: made at the first step, they would outlive the workspace
        # above it in the heap and keep that memory from the population pass
        self._buffers = np.empty((2,) + np.shape(self.m))

    @classmethod
    def for_net(cls, net: AllocationNet, lr: float = 1e-4) -> "AdamState":
        return cls(m=np.zeros(net.n_params), v=np.zeros(net.n_params), lr=lr)


def adam_step(state: AdamState, net: AllocationNet, flat: np.ndarray) -> None:
    """One adaptive-moment descent step with bias correction on the flat
    gradient `flat` (laid out like `get_flat()`); updates in place."""
    if flat.shape != state.m.shape:
        raise InvalidArgument("gradient shape does not match optimizer state")
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
    net.params -= update


__all__ = ["AllocationNet", "AdamState", "adam_step", "check_architecture"]
