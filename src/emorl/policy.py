"""Intent policies learned online with score-function (REINFORCE) updates.

Two agents share one interface: a 3-way softmax policy for multi-class
intents and one stacked network of six independent sigmoid heads for
multi-label intents (one Bernoulli head per action bit, no shared entries).
Acting samples from the current policy; evaluation uses argmax /
0.5-thresholded bits. A reward of zero, or absent feedback, changes nothing.
Updates are on-policy, one per interaction, so `learn` takes the gradient
on the forward pass that `act` sampled with instead of running it again.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .nn import SGD, CheckpointFormatError, Network, PackedRows, fit, load_checkpoint, replacing, save_checkpoint
from .nn import apply_update  # noqa: F401  the benchmark's span tracer wraps it at this name

# an action is a class index (multiclass) or a 6-bit tuple (multilabel)
IntentAction = int | tuple[int, ...]

DEFAULT_VALID_COMBOS: tuple[tuple[int, ...], ...] = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (1, 1, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0),
)

MULTICLASS_ACTIONS = ("modify", "cancel", "other")


def _sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    c = probs.cumsum()
    return min(int(np.searchsorted(c, rng.random(), side="right")), len(probs) - 1)


class _Policy:
    "Learning shared by both agents: one fused backward pass and update of `net` per step."

    # (net, state, trace) of the last `act`, until the next `learn` or
    # `pretrain` takes it: an update makes the trace stale
    _acted: tuple | None = None

    def _act_probs(self, state: np.ndarray) -> np.ndarray:
        "The head's probabilities for `state`, keeping their forward pass for `learn`."
        trace = self.net.trace(state)
        self._acted = (self.net, state, trace)
        return trace.probs

    def learn(self, record) -> None:
        """One REINFORCE step from an interaction record.

        Absent feedback and zero reward are both exact no-ops: no gradient
        noise may leak into the parameters from uninformative turns. The
        forward pass of the last `act` is reused when `record.state` is the
        very state object it acted on and `net` the same network; either way
        it is then dropped. Code that changes `net`'s parameters itself
        between `act` and `learn` must hand `learn` a copy of the state.
        """
        acted, self._acted = self._acted, None
        if not record.feedback_present or record.reward == 0.0:
            return
        trace = None
        if acted is not None and acted[0] is self.net and acted[1] is record.state:
            trace = acted[2]
        self.net.reinforce_step(record.state, record.action, record.reward, self.opt, trace)

    def pretrain(
        self,
        examples: Sequence[tuple[np.ndarray, IntentAction]],
        epochs: int,
        rng: np.random.Generator,
    ) -> None:
        """Supervised cross-entropy pass over a labeled subset, `epochs` times;
        `rng`, not the agent's sampling stream, orders the epochs."""
        if not examples:
            raise ValueError("pretraining needs a non-empty labeled subset")
        self._acted = None
        states, labels = zip(*examples)
        data = PackedRows(states, labels, self.net.input_dim)
        fit(self.net, data, len(examples), epochs, self.opt, rng)


def _batch(examples: Sequence[tuple[np.ndarray, IntentAction]]) -> tuple[np.ndarray, np.ndarray]:
    if not examples:
        raise ValueError("evaluation set is empty")
    states, labels = zip(*examples)
    return np.stack(states), np.array(labels)


class MulticlassPolicy(_Policy):
    """Softmax policy over a small fixed set of intent classes."""

    task = "multiclass"

    def __init__(
        self,
        input_dim: int,
        n_actions: int = 3,
        hidden: tuple[int, ...] = (64,),
        lr: float = 0.05,
        seed: int = 0,
        init_scale: float = 0.5,
    ):
        init_rng = np.random.default_rng([seed, 0])
        self.net = Network.build([input_dim, *hidden, n_actions], head="softmax", rng=init_rng, init_scale=init_scale)
        self.opt = SGD(learning_rate=lr)
        self.rng = np.random.default_rng([seed, 1])

    def act(self, state: np.ndarray, rng: np.random.Generator | None = None) -> int:
        "Sample an action on-policy."
        rng = rng if rng is not None else self.rng
        return _sample_index(self._act_probs(state), rng)

    def evaluate(self, examples: Sequence[tuple[np.ndarray, int]]) -> float:
        "Argmax accuracy on labeled (state, intent) pairs."
        states, labels = _batch(examples)
        hits = np.argmax(self.net.forward(states), axis=-1) == labels
        return int(hits.sum()) / len(examples)

    def networks(self) -> list[Network]:
        return [self.net]


class MultilabelPolicy(_Policy):
    """Six independent Bernoulli heads; an action is the sampled bit vector.
    Head k is slice k of every stacked tensor, initialised from stream `[seed, 10 + k]`."""

    task = "multilabel"

    def __init__(
        self,
        input_dim: int,
        n_bits: int = 6,
        hidden: tuple[int, ...] = (32,),
        lr: float = 0.05,
        seed: int = 0,
        init_scale: float = 0.5,
        valid_combos: tuple[tuple[int, ...], ...] = DEFAULT_VALID_COMBOS,
    ):
        rngs = [np.random.default_rng([seed, 10 + k]) for k in range(n_bits)]
        heads = [Network.build([input_dim, *hidden, 1], head="sigmoid", rng=r, init_scale=init_scale) for r in rngs]
        self.net = Network.stack(heads)
        self.opt = SGD(learning_rate=lr)
        self.rng = np.random.default_rng([seed, 1])
        self.valid_combos = tuple(tuple(int(b) for b in combo) for combo in valid_combos)

    @property
    def n_bits(self) -> int:
        return self.net.stack_shape[0]

    def bit_probs(self, state: np.ndarray) -> np.ndarray:
        "Each head's probability of bit 1, for a state or a batch of them."
        return self.net.forward(state)[..., 0]

    def act(self, state: np.ndarray, rng: np.random.Generator | None = None) -> tuple[int, ...]:
        """Sample each bit from its own head; invalid combinations are not
        masked, the environment simply judges them incorrect."""
        rng = rng if rng is not None else self.rng
        probs = self._act_probs(state)[..., 0]
        draws = rng.random(self.n_bits)
        return tuple((draws < probs).astype(int).tolist())

    def evaluate(self, examples: Sequence[tuple[np.ndarray, tuple[int, ...]]]) -> float:
        "Exact-match accuracy of the thresholded bit vector."
        states, labels = _batch(examples)
        hits = np.all((self.bit_probs(states) >= 0.5) == labels, axis=-1)
        return int(hits.sum()) / len(examples)

    def networks(self) -> list[Network]:
        "One network per head, a copy of its slice of the stacked arrays; for `save_agent`."
        return self.net.unstack()


PolicyAgent = MulticlassPolicy | MultilabelPolicy


def save_agent(agent: PolicyAgent, out_dir) -> None:
    "Persist an agent as one checkpoint per head plus a JSON manifest."
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    heads = []
    for k, net in enumerate(agent.networks()):
        name = f"head{k}.ckpt"
        save_checkpoint(net, out / name)
        heads.append(name)
    manifest = {
        "task": agent.task,
        "heads": heads,
        "input_dim": agent.net.input_dim,
        "valid_combos": [list(c) for c in getattr(agent, "valid_combos", ())],
    }
    with replacing(out / "agent.json", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(manifest, indent=2) + "\n")


def load_agent(in_dir, lr: float = 0.05, seed: int = 0) -> PolicyAgent:
    """Inverse of save_agent. Raises CheckpointFormatError, naming the file,
    on a malformed `agent.json`: one that is not a JSON object of exactly
    `task` ("multiclass" or "multilabel"), `heads` (file names, one for a
    multiclass agent), `input_dim` (the heads' input size) and
    `valid_combos` (lists of one 0/1 bit per head, none for a multiclass
    agent); and on a head checkpoint that is malformed, of the wrong kind
    for the task, or unlike the other heads."""
    in_dir = Path(in_dir)
    path = in_dir / "agent.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"{path}: not a JSON agent manifest: {exc}") from None
    keys = sorted(manifest) if isinstance(manifest, dict) else type(manifest).__name__
    if keys != ["heads", "input_dim", "task", "valid_combos"]:
        raise CheckpointFormatError(f"{path}: an agent manifest holds task, heads, input_dim and valid_combos, not {keys}")
    task, heads, dim, combos = manifest["task"], manifest["heads"], manifest["input_dim"], manifest["valid_combos"]
    if task not in ("multiclass", "multilabel"):
        raise CheckpointFormatError(f"{path}: unknown task {task!r}")
    if not isinstance(heads, list) or not heads or not all(isinstance(h, str) for h in heads):
        raise CheckpointFormatError(f"{path}: heads must be a non-empty list of file names, not {heads!r}")
    if task == "multiclass" and len(heads) != 1:
        raise CheckpointFormatError(f"{path}: a multiclass agent has one head, not {len(heads)}")
    bits = isinstance(combos, list) and all(
        isinstance(c, list) and len(c) == len(heads) and all(type(b) is int and b in (0, 1) for b in c) for c in combos
    )
    if not bits or (task == "multiclass" and combos):
        raise CheckpointFormatError(f"{path}: valid_combos must be lists of one bit per head, and none for a multiclass agent")
    nets = [load_checkpoint(in_dir / name) for name in heads]
    for name, net in zip(heads, nets):
        if type(dim) is not int or net.input_dim != dim:
            raise CheckpointFormatError(f"{path}: input_dim {dim!r} does not match head {name}'s {net.input_dim}")
        # a multiclass head is a softmax, a multilabel head one sigmoid unit
        if net.head != ("softmax" if task == "multiclass" else "sigmoid") or (task == "multilabel" and net.output_dim != 1):
            raise CheckpointFormatError(f"{path}: head {name} is a {net.head} head over {net.output_dim} outputs")
    if task == "multiclass":
        agent = MulticlassPolicy(dim, n_actions=nets[0].output_dim, lr=lr, seed=seed)
        agent.net = nets[0]
        return agent
    try:
        net = Network.stack(nets)
    except ValueError as exc:
        raise CheckpointFormatError(f"{in_dir}: {exc}") from exc
    agent = MultilabelPolicy(dim, n_bits=len(nets), lr=lr, seed=seed, valid_combos=tuple(map(tuple, combos)))
    agent.net = net
    return agent
