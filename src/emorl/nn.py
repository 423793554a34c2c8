"""Minimal dense-network substrate with hand-written gradients.

Parameters hold float32 values in float64 arrays, so the forward and
backward passes multiply float64 operands with no cast, and every update
rounds its result back to float32; this keeps finite-difference checks of
the analytic gradients stable and the checkpoints float32. An update of the
first layer touches only the input columns its backward passes wrote.
Supported pieces: dense layers with relu/tanh/identity activations, a
softmax or per-unit sigmoid output head, cross-entropy and policy-gradient
(score-function) losses, plain SGD, and a binary checkpoint format with a
bit-exact round-trip guarantee. Tensors may carry a leading stack axis of
heads that share no entry and run in one pass, each computing bit for bit
what it computes alone; the forward pass also takes a batch of inputs.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

ACTIVATIONS = ("relu", "tanh", "identity")
HEADS = ("softmax", "sigmoid")

CHECKPOINT_MAGIC = b"NARL"
CHECKPOINT_VERSION = 1

_LAYER_NAME = re.compile(r"^L(\d+)\.(relu|tanh|identity)\.(W|b)$")


class CheckpointFormatError(Exception):
    """Raised when a checkpoint file has bad magic, version, or layout."""


class TrainingFault(RuntimeError):
    """Raised when a parameter update produces non-finite values."""


@dataclass
class ParamTensor:
    """Named parameter array with a same-shape float32 gradient buffer.

    `values` is a C-contiguous float64 array whose entries are all float32
    numbers: other input is rounded through float32, and a float64 array
    that already qualifies is kept as it is, so views stay views.

    `cols`, when set, names the last-axis columns outside which `grad` is
    zero, so that an update can skip the rest. Only `_backprop` sets it, on
    the first layer, whose gradient it writes on the input's nonzero columns
    alone; `copy()` and `unstack()` carry it, and an update and `zero_grad`
    clear it. Code that writes `grad` directly leaves it unset and gets the
    whole-tensor update.
    """

    name: str
    values: np.ndarray
    grad: np.ndarray = field(default=None)  # type: ignore[assignment]
    cols: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        exact = np.ascontiguousarray(values, dtype=np.float32).astype(np.float64)
        keep = values.dtype == np.float64 and values.flags.c_contiguous and np.array_equal(values, exact)
        self.values = values if keep else exact
        if self.grad is None:
            self.grad = np.zeros(self.values.shape, dtype=np.float32)
        else:
            self.grad = np.ascontiguousarray(self.grad, dtype=np.float32)
        if self.grad.shape != self.values.shape:
            raise ValueError(f"grad shape {self.grad.shape} != values shape {self.values.shape}")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0
        self.cols = None


@dataclass
class Layer:
    w: ParamTensor
    b: ParamTensor
    activation: str

    @property
    def out_dim(self) -> int:
        return self.w.shape[-2]

    @property
    def in_dim(self) -> int:
        return self.w.shape[-1]


def _activate(z: np.ndarray, tag: str) -> np.ndarray:
    if tag == "relu":
        return np.maximum(z, 0.0)
    if tag == "tanh":
        return np.tanh(z)
    return z


def _activate_prime(z: np.ndarray, tag: str) -> np.ndarray:
    if tag == "relu":
        return (z > 0.0).astype(np.float64)
    if tag == "tanh":
        return 1.0 - np.tanh(z) ** 2
    return np.ones_like(z)


def softmax(u: np.ndarray) -> np.ndarray:
    "Numerically stable softmax over the last axis of a logit array."
    e = np.exp(u - np.max(u, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def sigmoid(u: np.ndarray) -> np.ndarray:
    "Elementwise logistic, clipped into the open interval (0, 1)."
    out = np.empty_like(u, dtype=np.float64)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return np.clip(out, 1e-12, 1.0 - 1e-12)


class Network:
    """Fully-connected network: dense layers followed by a probability head.

    `head="softmax"` yields a distribution over output units; `head="sigmoid"`
    yields an independent Bernoulli probability per unit.
    """

    def __init__(self, layers: list[Layer], head: str):
        if head not in HEADS:
            raise ValueError(f"unknown head {head!r}, expected one of {HEADS}")
        if not layers:
            raise ValueError("network needs at least one layer")
        for lo, hi in zip(layers, layers[1:]):
            if lo.out_dim != hi.in_dim:
                raise ValueError(f"layer dims do not chain: {lo.out_dim} -> {hi.in_dim}")
        for layer in layers:
            if layer.activation not in ACTIVATIONS:
                raise ValueError(f"unknown activation {layer.activation!r}")
        self.layers = layers
        self.head = head

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
        for i in range(n_layers):
            fan_in, fan_out = dims[i], dims[i + 1]
            if rng is None:
                w = np.zeros((fan_out, fan_in), dtype=np.float32)
            else:
                w = rng.normal(0.0, init_scale / np.sqrt(fan_in), size=(fan_out, fan_in))
            layers.append(
                Layer(
                    w=ParamTensor(f"L{i:02d}.{activations[i]}.W", w),
                    b=ParamTensor(f"L{i:02d}.{activations[i]}.b", np.zeros(fan_out, dtype=np.float32)),
                    activation=activations[i],
                )
            )
        return cls(layers, head)

    @classmethod
    def stack(cls, nets: Sequence["Network"]) -> "Network":
        "One network holding `nets`, which must share head, activations and shapes, along a new leading axis."
        layout = [(l.activation, l.w.shape) for l in nets[0].layers]
        if any(n.head != nets[0].head or [(l.activation, l.w.shape) for l in n.layers] != layout for n in nets):
            raise ValueError("stacked networks must share head, activations and shapes")
        return nets[0]._relaid(
            (np.stack([p.values for p in ps]), None, None) for ps in zip(*(n.params() for n in nets))
        )

    def unstack(self) -> list["Network"]:
        "The heads along the leading stack axis, as networks that view this one's arrays."
        return [
            self._relaid((p.values[k], p.grad[k], p.cols) for p in self.params()) for k in range(self.stack_shape[0])
        ]

    def copy(self) -> "Network":
        return self._relaid((p.values.copy(), p.grad.copy(), p.cols) for p in self.params())

    def _relaid(self, tensors: Iterable[tuple[np.ndarray, np.ndarray | None, np.ndarray | None]]) -> "Network":
        "This network's layout around new (values, grad, cols) triples, one per tensor in `params()` order."
        triples = iter(tensors)
        layers = [
            Layer(ParamTensor(l.w.name, *next(triples)), ParamTensor(l.b.name, *next(triples)), l.activation)
            for l in self.layers
        ]
        return Network(layers, self.head)

    # -- shape info ------------------------------------------------------

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def stack_shape(self) -> tuple[int, ...]:
        "Leading axes of every tensor: () for a single network, (heads,) for a stack."
        return self.layers[0].w.shape[:-2]

    def params(self) -> list[ParamTensor]:
        out = []
        for layer in self.layers:
            out.append(layer.w)
            out.append(layer.b)
        return out

    # -- forward ---------------------------------------------------------

    def _trace(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 0 or x.shape[-1] != self.input_dim:
            raise ValueError(f"input of shape {x.shape} does not match network input dim {self.input_dim}")
        # one singleton axis per stack axis, so that batch axes lead the result
        h = x.reshape(x.shape[:-1] + (1,) * len(self.stack_shape) + x.shape[-1:])
        zs, hs = [], [x]
        for layer in self.layers:
            z = np.matmul(layer.w.values, h[..., None])[..., 0] + layer.b.values
            h = _activate(z, layer.activation)
            zs.append(z)
            hs.append(h)
        probs = softmax(h) if self.head == "softmax" else sigmoid(h)
        return probs, zs, hs

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Map an input vector, or a batch along leading axes, to the head's probabilities."""
        probs, _, _ = self._trace(x)
        return probs

    # -- backward --------------------------------------------------------

    def _backprop(self, g_head: np.ndarray, zs: list[np.ndarray], hs: list[np.ndarray]) -> None:
        """Accumulate parameter gradients of one input given dLoss/d(pre-head output)."""
        g = g_head
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            gz = g * _activate_prime(zs[i], layer.activation)
            layer.b.grad += gz
            if i > 0:
                layer.w.grad += gz[..., :, None] * hs[i][..., None, :]
                g = np.matmul(np.swapaxes(layer.w.values, -1, -2), gz[..., None])[..., 0]
            else:
                # the input is sparse and its zero columns get an exactly zero
                # gradient, so only its nonzero columns are written, and the
                # update is told which they are
                cols = np.flatnonzero(hs[0])
                layer.w.grad[..., cols] += gz[..., :, None] * hs[0][cols]
                layer.w.cols = cols if layer.w.cols is None else np.union1d(layer.w.cols, cols)

    def _target(self, probs: np.ndarray, target) -> np.ndarray:
        "A one-hot vector for a softmax index, or the 0/1 bits shaped as `probs`."
        if self.head == "softmax":
            a = int(target)
            if a < 0 or a >= self.output_dim:
                raise ValueError(f"index {a} out of range for {self.output_dim} outputs")
            onehot = np.zeros(self.output_dim)
            onehot[a] = 1.0
            return onehot
        bits = np.asarray(target, dtype=np.float64)
        if bits.size != probs.size:
            raise ValueError(f"target length {bits.size} != output size {probs.size}")
        if not np.all((bits == 0.0) | (bits == 1.0)):
            raise ValueError("sigmoid-head target must be a 0/1 vector")
        return bits.reshape(probs.shape)

    def reinforce_backward(self, x: np.ndarray, action, reward: float) -> None:
        """Accumulate the gradient of -reward * ln pi(action | x).

        For the softmax head `action` is a class index; for the sigmoid head
        it is a 0/1 vector and ln pi sums the per-unit Bernoulli log-probs.
        A zero reward contributes nothing and leaves gradients untouched.
        """
        if reward == 0.0:
            return
        probs, zs, hs = self._trace(np.ravel(x))
        # d(-R ln pi)/d(head input) = R * (p - target), identical in form for
        # the softmax-categorical and the factored-Bernoulli log-likelihood.
        self._backprop(reward * (probs - self._target(probs, action)), zs, hs)

    def supervised_backward(self, x: np.ndarray, label) -> np.ndarray:
        """Accumulate the cross-entropy gradient against a gold label, and
        return the head's probabilities for `x` that the gradient used.

        Softmax head: categorical cross-entropy with an index label.
        Sigmoid head: summed per-unit binary cross-entropy with a bit vector.
        """
        probs, zs, hs = self._trace(np.ravel(x))
        self._backprop(probs - self._target(probs, label), zs, hs)
        return probs

    def zero_grads(self) -> None:
        for p in self.params():
            p.zero_grad()


def log_prob(probs: np.ndarray, action, head: str) -> float:
    "ln pi(action) under a head's probability vector."
    if head == "softmax":
        return float(np.log(max(probs[int(action)], 1e-300)))
    bits = np.asarray(action, dtype=np.float64).ravel()
    p = np.clip(np.ravel(probs), 1e-300, 1.0 - 1e-16)
    return float(np.sum(bits * np.log(p) + (1.0 - bits) * np.log(1.0 - p)))


# -- optimizer -----------------------------------------------------------


@dataclass
class SGD:
    """Plain SGD: the learning rate."""

    learning_rate: float = 0.05

    def __post_init__(self) -> None:
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")


def apply_update(params: Sequence[ParamTensor], opt: SGD) -> None:
    """Apply `values -= lr * grad`, then zero grads.

    A tensor whose `cols` is set is updated on those columns only; every
    other entry has zero gradient and would not move.

    Raises TrainingFault, naming the tensor and leaving it unchanged, if any
    updated value is non-finite; the run must abort rather than continue
    from poisoned parameters.
    """
    for p in params:
        at = ... if p.cols is None else (..., p.cols)
        # a float32 subtraction, as the values are float32 numbers
        new = np.subtract(p.values[at], opt.learning_rate * p.grad[at], dtype=np.float32)
        if not np.isfinite(new).all():
            raise TrainingFault(f"non-finite values in tensor {p.name!r} after update")
        p.values[at] = new
        p.grad[at] = 0.0
        p.cols = None


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


def write_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    "Write named float32 arrays in the checkpoint container format."
    with open(path, "wb") as f:
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
    tensors: dict[str, np.ndarray] = {}
    for i, layer in enumerate(net.layers):
        tensors[f"L{i:02d}.{layer.activation}.W"] = layer.w.values
        tensors[f"L{i:02d}.{layer.activation}.b"] = layer.b.values
    tensors["head"] = np.array([float(HEADS.index(net.head))], dtype=np.float32)
    write_tensors(path, tensors)


def load_checkpoint(path) -> Network:
    "Inverse of save_checkpoint; bit-exact on the stored float32 values."
    tensors = read_tensors(path)
    if "head" not in tensors:
        raise CheckpointFormatError("missing head marker tensor")
    head_code = int(tensors.pop("head").ravel()[0])
    if head_code not in (0, 1):
        raise CheckpointFormatError(f"bad head code {head_code}")
    by_index: dict[int, dict[str, np.ndarray]] = {}
    acts: dict[int, str] = {}
    for name, arr in tensors.items():
        m = _LAYER_NAME.match(name)
        if m is None:
            raise CheckpointFormatError(f"unrecognized tensor name {name!r}")
        idx, act, kind = int(m.group(1)), m.group(2), m.group(3)
        by_index.setdefault(idx, {})[kind] = arr
        acts[idx] = act
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
        layers.append(
            Layer(
                w=ParamTensor(f"L{idx:02d}.{acts[idx]}.W", w),
                b=ParamTensor(f"L{idx:02d}.{acts[idx]}.b", b),
                activation=acts[idx],
            )
        )
    try:
        return Network(layers, HEADS[head_code])
    except ValueError as exc:
        raise CheckpointFormatError(str(exc)) from exc


# -- gradient verification ------------------------------------------------


def _loss(net: Network, x: np.ndarray, mode: str, target, reward: float) -> float:
    scale = reward if mode == "reinforce" else 1.0
    return -scale * log_prob(net.forward(x), target, net.head)


def gradient_check(
    net: Network,
    x: np.ndarray,
    target,
    mode: str = "reinforce",
    reward: float = 1.0,
    h: float = 1e-4,
) -> float:
    """Compare analytic gradients against central finite differences.

    Returns the maximum relative error over every parameter entry. The
    division uses the realized float32 step, not the nominal one, so
    parameter quantization does not inflate the error estimate.
    """
    if mode not in ("reinforce", "supervised"):
        raise ValueError(f"unknown mode {mode!r}")
    work = net.copy()
    work.zero_grads()
    if mode == "reinforce":
        work.reinforce_backward(x, target, reward)
    else:
        work.supervised_backward(x, target)
    worst = 0.0
    for p in work.params():
        flat_v = p.values.ravel()
        flat_g = p.grad.ravel()
        for i in range(flat_v.shape[0]):
            orig = flat_v[i]
            flat_v[i] = np.float32(orig + h)
            hi_val = float(flat_v[i])
            hi = _loss(work, x, mode, target, reward)
            flat_v[i] = np.float32(orig - h)
            lo_val = float(flat_v[i])
            lo = _loss(work, x, mode, target, reward)
            flat_v[i] = orig
            fd = (hi - lo) / (hi_val - lo_val)
            ana = float(flat_g[i])
            denom = max(abs(fd), abs(ana), 1e-6)
            worst = max(worst, abs(fd - ana) / denom)
    return worst
