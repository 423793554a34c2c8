"""Minimal dense-network substrate with hand-written gradients.

Parameters hold float32 values in float64 arrays: the passes multiply
float64 operands with no cast, and every update rounds back to float32. A
network keeps one parameter layout for life (see `Network`): `trace` takes
the first layer's product on an input's nonzero columns only, and one fused
step does backward pass and SGD update, online (`reinforce_step`) and in
`fit`; the backward passes return the same gradient as entries for
`apply_update`. Also here: relu/tanh/identity layers, softmax and per-unit
sigmoid heads, and a bit-exact checkpoint format written through
`replacing`. Tensors may carry a leading stack axis of heads that share no
entry and run in one pass, each computing bit for bit what it computes alone.
"""

from __future__ import annotations

import contextlib
import copy
import math
import numbers
import os
import re
import struct
from array import array
from dataclasses import dataclass
from math import exp
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

try:  # numpy >= 2
    from numpy._core.umath import clip as _clip
except ImportError:
    from numpy.core.umath import clip as _clip

ACTIVATIONS = ("relu", "tanh", "identity")
HEADS = ("softmax", "sigmoid")

CHECKPOINT_MAGIC = b"NARL"
CHECKPOINT_VERSION = 1

_ONE_LESS = 1.0 - 1e-12

_LAYER_NAME = re.compile(r"^L(\d+)\.(relu|tanh|identity)\.(W|b)$")


class CheckpointFormatError(Exception):
    """Raised when a checkpoint file has bad magic, version, or layout."""


class TrainingFault(RuntimeError):
    """Raised when a parameter update produces non-finite values."""


class ParamTensor:
    """Named parameter array: `values` is a float64 array of float32 numbers,
    input rounded through float32 into a C-contiguous array unless it is a
    C-contiguous float64 array that qualifies. A `Network` seats it in its
    layout, where the first layer's weight is not C-contiguous."""

    __slots__ = ("name", "values")

    def __init__(self, name: str, values):
        values = np.asarray(values)
        exact = np.ascontiguousarray(values, dtype=np.float32).astype(np.float64)
        keep = values.dtype == np.float64 and values.flags.c_contiguous and np.array_equal(values, exact)
        self.name = name
        self.values = values if keep else exact

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


# One entry of a backward pass's gradient: a tensor, the index into its `values`
# that it covers (`...` for all), and the float32 gradient there; zero elsewhere.
GradEntry = tuple[ParamTensor, object, np.ndarray]


def _float32(g: np.ndarray) -> np.ndarray:
    "The float64 gradient `g` in float32, as adding it to a zero float32 array gives it, -0.0 included."
    return np.add(g, 0.0, out=np.empty(g.shape, dtype=np.float32), casting="same_kind")


def _aligned(n: int) -> np.ndarray:
    "A float64 array of `n` zeros whose data starts on a 64-byte boundary."
    raw = np.zeros(n + 7)
    return raw[-raw.ctypes.data % 64 // 8 :][:n]


def flat_views(buf: np.ndarray, params: Sequence[ParamTensor]) -> list[np.ndarray]:
    "Consecutive views of the flat array `buf`, one shaped as each of `params`."
    ends = np.cumsum([p.values.size for p in params]).tolist()
    return [buf[e - p.values.size : e].reshape(p.shape) for p, e in zip(params, ends)]


@dataclass
class Layer:
    w: ParamTensor
    b: ParamTensor
    activation: str

    @classmethod
    def named(cls, i: int, activation: str, w, b) -> "Layer":
        "Layer `i` of a network, its tensors named as its checkpoint stores them."
        return cls(ParamTensor(f"L{i:02d}.{activation}.W", w), ParamTensor(f"L{i:02d}.{activation}.b", b), activation)


def _activate(z: np.ndarray, tag: str) -> np.ndarray:
    if tag == "relu":
        return np.maximum(z, 0.0)
    if tag == "tanh":
        return np.tanh(z)
    return z


def _activate_grad(g: np.ndarray, z: np.ndarray, tag: str, out: np.ndarray) -> np.ndarray:
    "`g` times the activation's derivative at `z`, written into `out`: the products g * 1.0 and g * 0.0, in one call for relu."
    if tag == "relu":
        return np.multiply(g, z > 0.0, out=out)
    if tag == "tanh":
        return np.multiply(g, 1.0 - np.tanh(z) ** 2, out=out)
    out[...] = g
    return out


def softmax(u: np.ndarray) -> np.ndarray:
    "Numerically stable softmax over the last axis of a logit array."
    # the method forms run the same reduction without np.max's per-call wrapper
    e = np.exp(u - u.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(u: np.ndarray) -> np.ndarray:
    """Elementwise logistic of a float64 array, clipped into the open
    interval (0, 1): 1 / (1 + exp(-u)) where u >= 0, else exp(u) / (1 + exp(u)),
    so that no exp overflows."""
    e = np.exp(np.minimum(u, -u))
    # the clip ufunc, as np.clip's Python wrapper costs about as much as the rest on a small array
    return _clip(np.where(u >= 0, 1.0, e) / (1.0 + e), 1e-12, 1.0 - 1e-12)


def _head_one(h: np.ndarray, head: str) -> np.ndarray:
    """`softmax(h)` or `sigmoid(h)` of one example's head input, stacked or
    not, in Python floats: the same max shift, branches, clip and order of
    every sum, at a fraction of the numpy calls. libm's exp may differ from
    numpy's in the last bit. numpy adds fewer than eight terms left to
    right, so a wider softmax stays with numpy."""
    out = []
    if head == "sigmoid":
        for v in h.ravel().tolist():
            e = exp(min(v, -v))
            p = 1.0 / (1.0 + e) if v >= 0 else e / (1.0 + e)
            # comparisons with NaN fail, so NaN passes as np.minimum/np.maximum pass it
            out.append(1e-12 if p < 1e-12 else _ONE_LESS if p > _ONE_LESS else p)
    elif h.shape[-1] >= 8:
        return softmax(h)
    else:
        for row in (h.tolist(),) if h.ndim == 1 else h.reshape(-1, h.shape[-1]).tolist():
            # a NaN anywhere makes the sum, and so every probability, NaN, whichever max is picked
            m = max(row)
            e = [exp(v - m) for v in row]
            s = 0.0  # not sum(), which compensates its float sums from Python 3.12 on
            for x in e:
                s += x
            for x in e:
                out.append(x / s)
    probs = np.array(out)
    return probs if h.ndim == 1 else probs.reshape(h.shape)


class Trace(NamedTuple):
    """`Network.trace` of one input: the head's probabilities, each layer's pre-activation and
    input (the first's as the entries at `cols`), and the first layer's weights on `cols`."""

    probs: np.ndarray
    zs: list
    hs: list
    cols: np.ndarray
    block: np.ndarray  # (heads..., len(cols), out)


class Network:
    """Dense layers followed by a softmax head (a distribution over output
    units) or a sigmoid head (a Bernoulli probability per unit). The
    constructor copies the layers' values into a layout of its own, both
    parts 64-byte aligned: the first layer's weight input column first,
    `(heads..., in, out)`, and every other tensor a view into one flat
    buffer. `params()` views it in the `(heads..., out, in)` shapes that
    checkpoints store."""

    def __init__(self, layers: list[Layer], head: str):
        if head not in HEADS:
            raise ValueError(f"unknown head {head!r}, expected one of {HEADS}")
        if not layers:
            raise ValueError("network needs at least one layer")
        for lo, hi in zip(layers, layers[1:]):
            if lo.w.shape[-2] != hi.w.shape[-1]:
                raise ValueError(f"layer dims do not chain: {lo.w.shape[-2]} -> {hi.w.shape[-1]}")
        for layer in layers:
            if layer.activation not in ACTIVATIONS:
                raise ValueError(f"unknown activation {layer.activation!r}")
        # tensors of its own, so that no other network's tensor is re-seated
        self.layers = [Layer(copy.copy(l.w), copy.copy(l.b), l.activation) for l in layers]
        self.head = head
        first, *rest = self.params()
        w = first.values
        self._w0t = _aligned(w.size).reshape(*w.shape[:-2], w.shape[-1], w.shape[-2])
        self._w0t[...] = np.swapaxes(w, -1, -2)
        first.values = np.swapaxes(self._w0t, -1, -2)
        size = sum(p.values.size for p in rest)
        self._flat = _aligned(size)
        for p, v in zip(rest, flat_views(self._flat, rest)):
            v[...] = p.values
            p.values = v
        self._grad = self._new = np.empty(0)
        self._scratch(size)

    def _scratch(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """A step's scratch, laid out as [flat | block] and `size` long: the
        gradient, which `_backprop` writes into the flat part's views, and
        the float32 values. It grows to the widest block a step has met, as
        an input's nonzero columns are few."""
        if len(self._grad) < size:
            self._grad, self._new = np.empty(size), np.empty(size, dtype=np.float32)
            self._grads = [None, *flat_views(self._grad, self.params()[1:])]
        return self._grad[:size], self._new[:size]

    def __reduce__(self):
        "Pickling builds the network again from its layers, and so a layout of its own."
        return Network, (self.layers, self.head)

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        dims: Sequence[int],
        head: str = "softmax",
        activations: Sequence[str] | None = None,
        rng: np.random.Generator | None = None,
        init_scale: float = 1.0,
    ) -> "Network":
        """Build a network with layer sizes `dims` ([in, hidden..., out]).

        Hidden layers default to relu, the last layer to identity. With
        `rng=None` all weights start at zero, which makes the softmax head
        exactly uniform.
        """
        if len(dims) < 2:
            raise ValueError("dims must list at least input and output size")
        n_layers = len(dims) - 1
        if activations is None:
            activations = ["relu"] * (n_layers - 1) + ["identity"]
        if len(activations) != n_layers:
            raise ValueError("one activation tag per layer required")
        layers = []
        for i, shape in enumerate(zip(dims[1:], dims)):
            w = np.zeros(shape) if rng is None else rng.normal(0.0, init_scale / np.sqrt(shape[1]), size=shape)
            layers.append(Layer.named(i, activations[i], w, np.zeros(shape[0])))
        return cls(layers, head)

    @classmethod
    def stack(cls, nets: Sequence["Network"]) -> "Network":
        "One network holding `nets`, which must share head, activations and shapes, along a new leading axis."
        layout = [(l.activation, l.w.shape) for l in nets[0].layers]
        if any(n.head != nets[0].head or [(l.activation, l.w.shape) for l in n.layers] != layout for n in nets):
            raise ValueError("stacked networks must share head, activations and shapes")
        return nets[0]._relaid(np.stack([p.values for p in ps]) for ps in zip(*(n.params() for n in nets)))

    def unstack(self) -> list["Network"]:
        "The heads along the leading stack axis, each a copy in a network of its own."
        return [self._relaid(p.values[k] for p in self.params()) for k in range(self.stack_shape[0])]

    def copy(self, memo=None) -> "Network":
        "A copy in a layout of its own; `copy.deepcopy` makes it too."
        return Network(self.layers, self.head)

    __deepcopy__ = copy

    def _relaid(self, arrays: Iterable[np.ndarray]) -> "Network":
        "A network of this one's activations and head on `arrays`, one per tensor in `params()` order."
        arrays = iter(arrays)
        return Network([Layer.named(i, l.activation, next(arrays), next(arrays)) for i, l in enumerate(self.layers)], self.head)

    # -- shape info ------------------------------------------------------

    @property
    def input_dim(self) -> int:
        return self.layers[0].w.shape[-1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].w.shape[-2]

    @property
    def stack_shape(self) -> tuple[int, ...]:
        "Leading axes of every tensor: () for a single network, (heads,) for a stack."
        return self.layers[0].w.shape[:-2]

    def params(self) -> list[ParamTensor]:
        return [p for layer in self.layers for p in (layer.w, layer.b)]

    # -- forward ---------------------------------------------------------

    def _input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 0 or x.shape[-1] != self.input_dim:
            raise ValueError(f"input of shape {x.shape} does not match network input dim {self.input_dim}")
        return x

    def trace(self, x: np.ndarray) -> Trace:
        "The forward pass of the input vector `np.ravel(x)`, the first layer's product on its nonzero columns only."
        x = self._input(np.ravel(x))
        cols = np.flatnonzero(x)
        return self._trace_at(cols, x[cols])

    def _trace_at(self, cols: np.ndarray, vals: np.ndarray) -> Trace:
        "`trace` of the input whose entries at columns `cols` are `vals`, every other entry zero."
        # each head's rows contiguous, so that its product is the one it takes alone
        block = self._w0t.take(cols, axis=-2)
        zs, hs = self._pass(vals, np.matmul(vals, block) + self.layers[0].b.values)
        return Trace(_head_one(hs[-1], self.head), zs, hs, cols, block)

    def _pass(self, x: np.ndarray, z: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        "The pre-activations and the inputs of the input `x`, the head's last, given its first layer's pre-activation `z`."
        zs, hs = [], [x]
        for i, layer in enumerate(self.layers):
            if i:
                z = np.matmul(layer.w.values, hs[-1][..., None])[..., 0] + layer.b.values
            zs.append(z)
            hs.append(_activate(z, layer.activation))
        return zs, hs

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Map an input vector, or a batch along leading axes, to the head's
        probabilities. The first layer's product is dense, one per row (a 1 x
        in matrix) and head, so a row of a batch gets the bytes it gets alone;
        `trace`'s sparse product may differ in the last bits."""
        x = self._input(x)
        rows = x.reshape(x.shape[:-1] + (1,) * len(self.stack_shape) + (1, x.shape[-1]))
        z = np.matmul(rows, self._w0t)[..., 0, :] + self.layers[0].b.values
        h = self._pass(x, z)[1][-1]
        return softmax(h) if self.head == "softmax" else sigmoid(h)

    # -- backward --------------------------------------------------------

    def _backprop(self, g: np.ndarray, trace: Trace) -> np.ndarray:
        """Write the float64 gradient at `trace` for dLoss/d(pre-head output) `g`
        into the flat gradient buffer, and return the first layer's bias
        gradient, which times the input is the first layer's weight's."""
        for i in range(len(self.layers) - 1, -1, -1):
            g = _activate_grad(g, trace.zs[i], self.layers[i].activation, self._grads[2 * i + 1])
            if i:
                np.multiply(g[..., :, None], trace.hs[i][..., None, :], out=self._grads[2 * i])
                g = np.matmul(np.swapaxes(self.layers[i].w.values, -1, -2), g[..., None])[..., 0]
        return g

    def _entries(self, g_head: np.ndarray, trace: Trace) -> list[GradEntry]:
        "`_backprop`'s gradient as entries for `apply_update`, one per tensor in `params()` order."
        gz = self._backprop(g_head, trace)
        first, *rest = self.params()
        # the input's zero columns get an exactly zero gradient, so the
        # first layer's entry covers the trace's columns only
        w0 = (first, (..., trace.cols), _float32(gz[..., :, None] * trace.hs[0]))
        return [w0, *((p, ..., g) for p, g in zip(rest, flat_views(_float32(self._grad[: self._flat.size]), rest)))]

    def _target(self, target) -> np.ndarray:
        "A one-hot vector for a softmax index, or the 0/1 bits shaped as one input's probabilities."
        if self.head == "softmax":
            a = int(target)
            if a < 0 or a >= self.output_dim:
                raise ValueError(f"index {a} out of range for {self.output_dim} outputs")
            onehot = np.zeros(self.output_dim)
            onehot[a] = 1.0
            return onehot
        shape = self.stack_shape + (self.output_dim,)
        bits = np.asarray(target, dtype=np.float64)
        if bits.size != math.prod(shape):
            raise ValueError(f"target length {bits.size} != output size {math.prod(shape)}")
        if not ((bits == 0.0) | (bits == 1.0)).all():
            raise ValueError("sigmoid-head target must be a 0/1 vector")
        return bits.reshape(shape)

    def reinforce_backward(self, x: np.ndarray, action, reward: float, trace: Trace | None = None) -> list[GradEntry]:
        """The gradient of -reward * ln pi(action | x), as entries for `apply_update`.

        For the softmax head `action` is a class index; for the sigmoid head
        it is a 0/1 vector and ln pi sums the per-unit Bernoulli log-probs.
        A zero reward has no gradient: it returns no entries. `trace`, if
        given, must be `self.trace(x)` on the current parameters, as the
        caller computed it to sample `action`.
        """
        if reward == 0.0:
            return []
        trace = trace if trace is not None else self.trace(x)
        # d(-R ln pi)/d(head input) = R * (p - target), identical in form for
        # the softmax-categorical and the factored-Bernoulli log-likelihood.
        return self._entries(reward * (trace.probs - self._target(action)), trace)

    def reinforce_step(self, x: np.ndarray, action, reward: float, opt: SGD, trace: Trace | None = None) -> None:
        """`apply_update(self.reinforce_backward(x, action, reward, trace), opt)`
        as one fused `_step`: the same bytes and the same TrainingFault."""
        if reward == 0.0:
            return
        trace = trace if trace is not None else self.trace(x)
        self._step(trace, reward * (trace.probs - self._target(action)), opt.learning_rate)

    def supervised_backward(self, x: np.ndarray, label) -> list[GradEntry]:
        """The cross-entropy gradient against a gold label, as entries for `apply_update`.

        Softmax head: categorical cross-entropy with an index label.
        Sigmoid head: summed per-unit binary cross-entropy with a bit vector.
        """
        trace = self.trace(x)
        return self._entries(trace.probs - self._target(label), trace)

    def _step(self, trace: Trace, g_head: np.ndarray, lr: float) -> None:
        """One SGD step at rate `lr` for dLoss/d(pre-head output) `g_head` at
        `trace` of the current parameters: the gradient goes into the scratch
        laid out as [flat | block], and `sgd_write` takes the step. A -0.0
        input entry's gradient is +0.0, which moves no weight."""
        block, n = trace.block, self._flat.size
        grad, new = self._scratch(n + block.size)  # before `_backprop` writes into it
        gz = self._backprop(g_head, trace)
        np.multiply(trace.hs[0][:, None], gz[..., None, :], out=grad[n:].reshape(block.shape))
        sgd_write(self._flat, self._w0t, trace.cols, block, grad, new, lr, self.params)


# -- optimizer -----------------------------------------------------------


@dataclass
class SGD:
    """Plain SGD: the learning rate."""

    learning_rate: float = 0.05

    def __post_init__(self) -> None:
        if not isinstance(self.learning_rate, numbers.Real) or not 0.0 < self.learning_rate < float("inf"):
            raise ValueError(f"lr must be positive and finite, got {self.learning_rate!r}")
        # a Python float, which scales a float32 gradient in float32 whatever type of rate was given
        self.learning_rate = float(self.learning_rate)


def _fault(steps: Iterable[tuple[ParamTensor, np.ndarray]]) -> TrainingFault:
    "The TrainingFault naming the first tensor of the (tensor, updated values) pairs `steps` with a non-finite value."
    bad = next(p for p, new in steps if not np.isfinite(new).all())
    return TrainingFault(f"non-finite values in tensor {bad.name!r} after update")


def sgd_write(flat, table, rows, block, grad, new, lr: float, params) -> None:
    """`apply_update`'s step at rate `lr`, fused, on parameters laid out as
    [flat | block]: the flat buffer `flat`, then `block`, the rows `rows` of
    `table`'s second-to-last axis. `grad` is their float64 gradient in that
    layout and `new` a float32 array as long. The gradient rounds to float32
    once, as `_float32` rounds it, and the step is taken in float32. One
    check before any write raises the TrainingFault naming the first
    non-finite tensor of `params()`, called only then: the table's, then
    those `flat` lays out. Then `table[..., rows, :]` and `flat` are written."""
    n = flat.size
    step = lr * np.add(grad, 0.0, out=new, casting="same_kind")  # `lr * _float32(grad)`
    new[:n], new[n:] = flat, block.ravel()
    np.subtract(new, step, out=new, dtype=np.float32)
    if not np.isfinite(new).all():
        first, *rest = params()
        raise _fault([(first, new[n:]), *zip(rest, flat_views(new, rest))])
    table[..., rows, :] = new[n:].reshape(block.shape)
    flat[...] = new[:n]


def apply_update(grads: Iterable[GradEntry], opt: SGD) -> None:
    """Apply `values[index] -= lr * block` for each (tensor, index, block)
    entry of a backward pass; entries outside the index have zero gradient
    and do not move.

    Raises TrainingFault, naming the first tensor with a non-finite updated
    value and changing no tensor, if any updated value is non-finite; the
    run must abort rather than continue from poisoned parameters.
    """
    # a float32 subtraction, as the values are float32 numbers
    steps = [(p, at, np.subtract(p.values[at], opt.learning_rate * g, dtype=np.float32)) for p, at, g in grads]
    # one check over every step; the tensor to name is looked for only on failure
    if steps and not np.isfinite(np.concatenate([new.ravel() for _, _, new in steps])).all():
        raise _fault((p, new) for p, _, new in steps)
    for p, at, new in steps:
        p.values[at] = new


class PackedRows:
    """Input rows and their targets, packed row by row into flat arrays. Row
    i's entries are `cols`/`vals`[bounds[i]:bounds[i + 1]]: the columns
    (int16 when the width allows) that hold anything but +0.0, and their
    float64 values."""

    def __init__(self, rows: Iterable[np.ndarray], targets: Sequence, width: int):
        cols, vals, bounds = array("q"), array("d"), array("q", [0])
        for row in rows:
            row = np.asarray(row, dtype=np.float64).ravel()
            if row.size != width:
                raise ValueError(f"a row of {row.size} entries does not match width {width}")
            at = np.flatnonzero(row.view(np.int64))  # +0.0 is the one float64 whose bits are all zero
            cols.frombytes(at.astype(np.int64).tobytes())
            vals.frombytes(row[at].tobytes())
            bounds.append(len(cols))
        self.width, self.targets = width, list(targets)
        self.cols = np.array(cols, dtype=np.int16 if width <= np.iinfo(np.int16).max else np.intp)
        self.vals, self.bounds = np.frombuffer(vals), np.frombuffer(bounds, dtype=np.int64)
        if len(self.targets) != len(self.bounds) - 1:
            raise ValueError(f"{len(self.targets)} targets for {len(self.bounds) - 1} rows")


def holdout_split(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(held out, trained on) of n rows: the first fifth, rounded, of one
    `rng.permutation(n)`, then the rest. The rest is never empty for n >= 1."""
    order = rng.permutation(n)
    n_hold = round(0.2 * n)
    return order[:n_hold], order[n_hold:]


def fit(net: Network, data: PackedRows, rows, epochs: int, opt: SGD, rng: np.random.Generator) -> None:
    """Supervised cross-entropy training: each epoch, the step of
    `supervised_backward` and `apply_update` on row `i` of `data` and its
    target for each `i` of `rng.permutation(rows)`; `rows` is an array of
    row indices, or a count n for rows 0..n-1. The epoch count, which may
    be 0, the width, every index of `rows` and every target are checked
    before the first step.

    Each step is the network's fused `_step` on the row's packed entries,
    -0.0 ones included; a TrainingFault stops the fit with every tensor as
    the faulting step found it.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    if data.width != net.input_dim:
        raise ValueError(f"rows of width {data.width} do not match network input dim {net.input_dim}")
    n = len(data.targets)
    index = np.arange(rows) if np.ndim(rows) == 0 else np.asarray(rows)
    outside = index[(index < 0) | (index >= n)]
    if outside.size:
        raise ValueError(f"row index {outside[0]} out of range for {n} rows")
    targets = np.array([net._target(t) for t in data.targets])
    # numpy would widen narrow indices on every use, and slice bounds read from an array cost a conversion each
    bounds, cols, vals, lr = data.bounds.tolist(), data.cols.astype(np.intp), data.vals, opt.learning_rate
    for _ in range(epochs):
        for i in rng.permutation(rows).tolist():
            trace = net._trace_at(cols[bounds[i] : bounds[i + 1]], vals[bounds[i] : bounds[i + 1]])
            net._step(trace, trace.probs - targets[i], lr)


# -- checkpoint format ---------------------------------------------------
#
# Little-endian layout:
#   magic "NARL" | u32 version | u32 tensor count
#   per tensor: u32 name length | UTF-8 name | u32 rank | u64 dims... |
#               raw float32 payload, every value finite


def _read_exact(f, n: int) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise CheckpointFormatError(f"truncated checkpoint: wanted {n} bytes, got {len(buf)}")
    return buf


@contextlib.contextmanager
def replacing(path, mode: str = "w", **kwargs):
    """Open a temporary file beside `path` for writing, and move it onto
    `path` when the block ends: `path` holds either its old bytes or all of
    the new ones. If the block raises, the temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    "Write named float32 arrays in the checkpoint container format, replacing `path` whole."
    with replacing(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype="<f4")
            raw_name = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw_name)))
            f.write(raw_name)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(arr.tobytes())


def read_tensors(path) -> dict[str, np.ndarray]:
    """Read a checkpoint container; raises CheckpointFormatError on bad files,
    a NaN or an infinity in a payload included."""
    tensors: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        if _read_exact(f, 4) != CHECKPOINT_MAGIC:
            raise CheckpointFormatError("bad magic bytes")
        version, count = struct.unpack("<II", _read_exact(f, 8))
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(f, 4))
            try:
                name = _read_exact(f, name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointFormatError(f"tensor name is not UTF-8: {exc}") from None
            if name in tensors:
                raise CheckpointFormatError(f"tensor {name!r} appears twice")
            (rank,) = struct.unpack("<I", _read_exact(f, 4))
            if rank > 8:
                raise CheckpointFormatError(f"implausible tensor rank {rank}")
            dims = struct.unpack(f"<{rank}Q", _read_exact(f, 8 * rank)) if rank else ()
            size = math.prod(dims)  # a Python int, which cannot overflow
            if any(d <= 0 for d in dims) or size > 1 << 30:
                raise CheckpointFormatError(f"bad tensor shape {dims} for {name!r}")
            payload = _read_exact(f, 4 * size)
            arr = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)
            if not np.isfinite(arr).all():
                raise CheckpointFormatError(f"non-finite values in tensor {name!r}")
            tensors[name] = arr
        if f.read(1):
            raise CheckpointFormatError("trailing bytes after last tensor")
    return tensors


def save_checkpoint(net: Network, path) -> None:
    """Persist a network; layer order, activation tags, and the head type are
    encoded in the tensor names so the file alone reconstructs the model."""
    tensors = {p.name: p.values for p in net.params()}  # named by Layer.named
    tensors["head"] = np.array([float(HEADS.index(net.head))], dtype=np.float32)
    write_tensors(path, tensors)


def load_checkpoint(path) -> Network:
    "Inverse of save_checkpoint; bit-exact on the stored float32 values."
    tensors = read_tensors(path)
    if "head" not in tensors:
        raise CheckpointFormatError("missing head marker tensor")
    head = tensors.pop("head")
    if head.shape != (1,) or head[0] not in (0.0, 1.0):
        raise CheckpointFormatError(f"head marker must be one value, 0.0 or 1.0, not {head.tolist()}")
    by_index: dict[int, dict[str, np.ndarray]] = {}
    acts: dict[int, str] = {}
    for name, arr in tensors.items():
        m = _LAYER_NAME.match(name)
        if m is None:
            raise CheckpointFormatError(f"unrecognized tensor name {name!r}")
        idx, act, kind = int(m.group(1)), m.group(2), m.group(3)
        if acts.setdefault(idx, act) != act:
            raise CheckpointFormatError(f"layer {idx} mixes activation tags {acts[idx]!r} and {act!r}")
        if kind in by_index.setdefault(idx, {}):
            raise CheckpointFormatError(f"layer {idx} has two {kind} tensors")
        by_index[idx][kind] = arr
    if not by_index or sorted(by_index) != list(range(len(by_index))):
        raise CheckpointFormatError("layer indices are not contiguous from zero")
    layers = []
    for idx in range(len(by_index)):
        entry = by_index[idx]
        if set(entry) != {"W", "b"}:
            raise CheckpointFormatError(f"layer {idx} must have exactly W and b tensors")
        w, b = entry["W"], entry["b"]
        if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise CheckpointFormatError(f"layer {idx} tensor shapes are inconsistent")
        layers.append(Layer.named(idx, acts[idx], w, b))
    try:
        return Network(layers, HEADS[int(head[0])])
    except ValueError as exc:
        raise CheckpointFormatError(str(exc)) from exc
