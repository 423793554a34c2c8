"""Intent policies learned online with score-function (REINFORCE) updates.

Two agents share one interface: a 3-way softmax policy for multi-class
intents and one stacked network of six independent sigmoid heads for
multi-label intents (one Bernoulli head per action bit, no shared entries).
Acting samples from the current policy; evaluation uses argmax /
0.5-thresholded bits. A reward of zero, or absent feedback, changes nothing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .nn import SGD, CheckpointFormatError, Network, apply_update, load_checkpoint, log_prob, save_checkpoint

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
    c = np.cumsum(probs)
    return min(int(np.searchsorted(c, rng.random(), side="right")), len(probs) - 1)


class _Policy:
    "Learning shared by both agents: one backward pass and one update of `net` per step."

    def learn(self, record) -> None:
        """One REINFORCE step from an interaction record.

        Absent feedback and zero reward are both exact no-ops: no gradient
        noise may leak into the parameters from uninformative turns.
        """
        if not record.feedback_present or record.reward == 0.0:
            return
        self.net.reinforce_backward(record.state, record.action, record.reward)
        apply_update(self.net.params(), self.opt)

    def pretrain(
        self,
        examples: Sequence[tuple[np.ndarray, IntentAction]],
        epochs: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        "Supervised cross-entropy pass over a labeled subset, `epochs` times."
        if not examples:
            raise ValueError("pretraining needs a non-empty labeled subset")
        rng = rng if rng is not None else self.rng
        for _ in range(epochs):
            for i in rng.permutation(len(examples)):
                state, label = examples[i]
                self.net.supervised_backward(state, label)
                apply_update(self.net.params(), self.opt)


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
        zero_init: bool = False,
    ):
        init_rng = None if zero_init else np.random.default_rng([seed, 0])
        self.net = Network.build(
            [input_dim, *hidden, n_actions], head="softmax", rng=init_rng, init_scale=init_scale
        )
        self.opt = SGD(learning_rate=lr)
        self.rng = np.random.default_rng([seed, 1])

    @property
    def n_actions(self) -> int:
        return self.net.output_dim

    def action_probs(self, state: np.ndarray) -> np.ndarray:
        return self.net.forward(state)

    def act(self, state: np.ndarray, rng: np.random.Generator | None = None) -> tuple[int, float]:
        "Sample an action on-policy; returns (action, ln pi(action|state))."
        rng = rng if rng is not None else self.rng
        probs = self.net.forward(state)
        action = _sample_index(probs, rng)
        return action, log_prob(probs, action, "softmax")

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
        zero_init: bool = False,
        valid_combos: tuple[tuple[int, ...], ...] = DEFAULT_VALID_COMBOS,
    ):
        rngs = [None if zero_init else np.random.default_rng([seed, 10 + k]) for k in range(n_bits)]
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

    def act(
        self, state: np.ndarray, rng: np.random.Generator | None = None
    ) -> tuple[tuple[int, ...], float]:
        """Sample each bit from its own head; invalid combinations are not
        masked, the environment simply judges them incorrect."""
        rng = rng if rng is not None else self.rng
        probs = self.bit_probs(state)
        draws = rng.random(self.n_bits)
        bits = tuple(int(d < p) for d, p in zip(draws, probs))
        return bits, log_prob(probs, bits, "sigmoid")

    def predict(self, state: np.ndarray) -> tuple[int, ...]:
        return tuple(int(p >= 0.5) for p in self.bit_probs(state))

    def evaluate(self, examples: Sequence[tuple[np.ndarray, tuple[int, ...]]]) -> float:
        "Exact-match accuracy of the thresholded bit vector."
        states, labels = _batch(examples)
        hits = np.all((self.bit_probs(states) >= 0.5) == labels, axis=-1)
        return int(hits.sum()) / len(examples)

    def networks(self) -> list[Network]:
        "One network per head, viewing the stacked arrays; for `save_agent`."
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
        "input_dim": agent.networks()[0].input_dim,
        "valid_combos": [list(c) for c in getattr(agent, "valid_combos", ())],
    }
    (out / "agent.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def load_agent(in_dir, lr: float = 0.05, seed: int = 0) -> PolicyAgent:
    in_dir = Path(in_dir)
    manifest = json.loads((in_dir / "agent.json").read_text(encoding="utf-8"))
    nets = [load_checkpoint(in_dir / name) for name in manifest["heads"]]
    if manifest["task"] == "multiclass":
        agent = MulticlassPolicy(manifest["input_dim"], n_actions=nets[0].output_dim, lr=lr, seed=seed)
        agent.net = nets[0]
        return agent
    combos = tuple(tuple(c) for c in manifest["valid_combos"])
    try:
        net = Network.stack(nets)
    except ValueError as exc:
        raise CheckpointFormatError(f"{in_dir}: {exc}") from exc
    agent = MultilabelPolicy(manifest["input_dim"], n_bits=len(nets), lr=lr, seed=seed, valid_combos=combos)
    agent.net = net
    return agent
