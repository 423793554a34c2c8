"""Correctness checks of one benchmark round, computed apart from the program.

Nothing here imports emorl. Weights are read back from the checkpoint bytes
with this module's own parser, accuracy comes from this module's own numpy
forward pass, and the reward table is written out again from the paper's
definition. Each check is a pure function of the program's outputs, so the
self-tests can feed it deliberately wrong outputs.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

# the paper's emotion -> reward mapping, keyed by label name
REWARD = {"POSITIVE": 1.0, "NEGATIVE": -1.0, "NEUTRAL": 0.0}

# z-score of the binomial bounds; a correct run falls outside with p < 1e-6
BINOMIAL_Z = 5.0

# criterion 8's bar for the offline scope and emotion models
OFFLINE_ACCURACY = 0.90


# -- weights and the forward pass ---------------------------------------------


def read_checkpoint(path) -> dict[str, np.ndarray]:
    "Parse the NARL container: magic, u32 version, u32 count, named float32 tensors."
    buf = Path(path).read_bytes()
    if buf[:4] != b"NARL":
        raise ValueError(f"{path}: bad magic")
    _, count = struct.unpack_from("<II", buf, 4)
    pos = 12
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", buf, pos)
        name = buf[pos + 4 : pos + 4 + name_len].decode("utf-8")
        pos += 4 + name_len
        (rank,) = struct.unpack_from("<I", buf, pos)
        dims = struct.unpack_from(f"<{rank}Q", buf, pos + 4)
        pos += 4 + 8 * rank
        size = math.prod(dims)
        tensors[name] = np.frombuffer(buf, dtype="<f4", count=size, offset=pos).reshape(dims)
        pos += 4 * size
    if pos != len(buf):
        raise ValueError(f"{path}: trailing bytes")
    return tensors


def head_layers(tensors: dict[str, np.ndarray]) -> tuple[list[tuple[np.ndarray, np.ndarray, str]], str]:
    "Layers as (W, b, activation) in order, and the head kind, from `L<ii>.<act>.<W|b>` names."
    layers = []
    while True:
        prefix = f"L{len(layers):02d}."
        names = [n for n in tensors if n.startswith(prefix) and n.endswith(".W")]
        if not names:
            break
        act = names[0].split(".")[1]
        layers.append((tensors[names[0]], tensors[f"{prefix}{act}.b"], act))
    kind = ("softmax", "sigmoid")[int(tensors["head"][0])]
    return layers, kind


def read_agent(agent_dir) -> tuple[list, str]:
    "Every head's layers, and the head kind, of an agent directory."
    agent_dir = Path(agent_dir)
    manifest = json.loads((agent_dir / "agent.json").read_text(encoding="utf-8"))
    heads, kinds = [], set()
    for name in manifest["heads"]:
        layers, kind = head_layers(read_checkpoint(agent_dir / name))
        heads.append(layers)
        kinds.add(kind)
    if len(kinds) != 1:
        raise ValueError(f"{agent_dir}: heads of mixed kinds {kinds}")
    return heads, kinds.pop()


def logits(layers, states: np.ndarray) -> np.ndarray:
    "Pre-head outputs for a batch of states, in float64."
    h = states
    for w, b, act in layers:
        h = h @ w.astype(np.float64).T + b
        if act == "relu":
            h = np.maximum(h, 0.0)
        elif act == "tanh":
            h = np.tanh(h)
    return h


def accuracy(heads, kind: str, eval_set) -> float:
    """Argmax accuracy (softmax) or exact match of the bits thresholded at
    probability 0.5, that is at logit 0 (one sigmoid unit per head)."""
    states = np.stack([s for s, _ in eval_set]).astype(np.float64)
    if kind == "softmax":
        preds = np.argmax(logits(heads[0], states), axis=1)
        hits = sum(int(p == y) for p, (_, y) in zip(preds, eval_set))
    else:
        bits = np.concatenate([logits(layers, states) >= 0.0 for layers in heads], axis=1).astype(int)
        hits = sum(int(tuple(row) == tuple(y)) for row, (_, y) in zip(bits.tolist(), eval_set))
    return hits / len(eval_set)


# -- per-interaction checks -------------------------------------------------


def reward_ok(present: bool, observed: str, reward: float) -> bool:
    "The reward is the mapping of the observed label; absent feedback is Neutral."
    return reward == REWARD[observed] and (present or observed == "NEUTRAL")


def correct_ok(action, gold, correct: bool) -> bool:
    return correct == (action == gold)


# -- per-round checks ----------------------------------------------------------


def final_success_ok(flags, step: int, window: int, final_success: float) -> bool:
    "Rolling success over the trailing window of the step the last curve row reports."
    tail = flags[max(0, step - window) : step]
    return len(flags) >= step and sum(tail) / len(tail) == final_success


def share_ok(present: int, n: int, p: float) -> bool:
    "Feedback-present count within binomial bounds of n * p."
    return abs(present - n * p) <= BINOMIAL_Z * math.sqrt(n * p * (1.0 - p))


def above_baseline_ok(final_eval: float, baseline: float) -> bool:
    return final_eval > baseline


def left_chance_ok(final_eval: float, n_actions: int, eval_size: int) -> bool:
    "Eval accuracy above a uniform guess by more than the binomial bound."
    chance = 1.0 / n_actions
    return final_eval > chance + BINOMIAL_Z * math.sqrt(chance * (1.0 - chance) / eval_size)


def offline_ok(hits: int, total: int) -> bool:
    return total > 0 and hits / total >= OFFLINE_ACCURACY


def identical_ok(files_a: dict[str, bytes], files_b: dict[str, bytes]) -> bool:
    return files_a == files_b
