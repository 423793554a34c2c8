"""Sentence relevance filter.

A lightweight three-part model: each sentence is summarized as the mean of
its token embeddings, a linear mixer combines the sentence vector with its
neighbors inside a +/-window, and a logistic head scores whether the
sentence belongs to the assistant's task scope (task content or emotion
directed at the task). Sentences scoring >= 0.5 are kept.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .nn import SGD, CheckpointFormatError, ParamTensor, apply_update, read_tensors, sigmoid, write_tensors
from .text import Sentence, Vocabulary, tokenize


@dataclass
class ScopedMessage:
    """A message's sentences together with the filter's keep decisions."""

    sentences: list[Sentence]
    keep_mask: list[bool]

    def __post_init__(self) -> None:
        if len(self.sentences) != len(self.keep_mask):
            raise ValueError("keep_mask length must equal sentence count")

    @property
    def kept_sentences(self) -> list[Sentence]:
        return [s for s, keep in zip(self.sentences, self.keep_mask) if keep]

    @property
    def kept_texts(self) -> list[str]:
        return [s.text for s in self.kept_sentences]


class ScopeModel:
    """Embedding table + windowed context mixer + per-sentence logistic head."""

    def __init__(
        self,
        vocab: Vocabulary,
        dim: int = 32,
        window: int = 1,
        seed: int = 0,
    ):
        if window < 0:
            raise ValueError("window must be non-negative")
        rng = np.random.default_rng(seed)
        self.vocab = vocab
        self.dim = dim
        self.window = window
        self.embed = ParamTensor("embed", rng.normal(0.0, 0.1, (vocab.size, dim)))
        self.mix = ParamTensor("mix", rng.normal(0.0, 0.1, (2 * window + 1, dim)))
        self.bias = ParamTensor("bias", np.zeros(1, dtype=np.float32))
        # token ids depend on the vocabulary alone, so training leaves this table valid
        self._token_ids: dict[str, tuple[int, ...]] = {}

    def params(self) -> list[ParamTensor]:
        return [self.embed, self.mix, self.bias]

    # -- inference ---------------------------------------------------------

    def sentences(self, message) -> list[Sentence]:
        """`segment(message.text, self.vocab)`, built from the message's own
        labeled sentences, each distinct sentence text tokenized once.

        Equal because each labeled sentence is a stripped segment of a
        template ending with splitting punctuation, and the text joins them
        with single spaces.
        """
        out, start = [], 0
        for s in message.sentences:
            ids = self._token_ids.get(s.text)
            if ids is None:
                ids = self._token_ids[s.text] = self.vocab.ids(tokenize(s.text))
            end = start + len(s.text)
            out.append(Sentence(text=s.text, token_ids=ids, span=(start, end)))
            start = end + 1
        return out

    def sentence_matrix(self, token_ids: Sequence[Sequence[int]]) -> np.ndarray:
        "Stack of mean token embeddings, one row per sentence."
        rows = np.zeros((len(token_ids), self.dim), dtype=np.float64)
        for i, ids in enumerate(token_ids):
            if ids:
                rows[i] = self.embed.values[list(ids)].mean(axis=0)
        return rows

    @staticmethod
    @functools.cache
    def _offsets(window: int, n: int) -> tuple[tuple[int, slice, slice], ...]:
        """(mixer row j, rows, neighbours) for each offset k of a +/-window
        that fits in n sentences: row i mixes in sentence i + k with mixer
        row j. Cached, as every scored message rebuilds the same few."""
        out = []
        for j, k in enumerate(range(-window, window + 1)):
            lo, hi = max(0, -k), min(n, n - k)
            if lo < hi:
                out.append((j, slice(lo, hi), slice(lo + k, hi + k)))
        return tuple(out)

    def _logits(self, sent_vecs: np.ndarray) -> np.ndarray:
        logits = np.full(sent_vecs.shape[0], float(self.bias.values[0]))
        mix = self.mix.values
        for j, rows, nbrs in self._offsets(self.window, len(logits)):
            logits[rows] += sent_vecs[nbrs] @ mix[j]
        return logits

    def scores(self, token_ids: Sequence[Sequence[int]]) -> np.ndarray:
        "Keep probability per sentence."
        if not token_ids:
            return np.zeros(0, dtype=np.float64)
        return sigmoid(self._logits(self.sentence_matrix(token_ids)))

    def scope(self, sentences: Iterable[Sentence]) -> ScopedMessage:
        """Apply the filter: keep sentences whose score is at least 0.5.

        Deterministic for a fixed model; original sentence order is kept.
        """
        sents = list(sentences)
        if not sents:
            return ScopedMessage([], [])
        scores = self.scores([s.token_ids for s in sents])
        return ScopedMessage(sents, [bool(v >= 0.5) for v in scores])

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        write_tensors(
            path,
            {"embed": self.embed.values, "mix": self.mix.values, "bias": self.bias.values},
        )

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> "ScopeModel":
        """Inverse of save; raises CheckpointFormatError on a malformed file
        and ValueError on one made for another vocabulary size."""
        tensors = read_tensors(path)
        if sorted(tensors) != ["bias", "embed", "mix"]:
            raise CheckpointFormatError(f"scope checkpoint must hold embed, mix and bias, not {sorted(tensors)}")
        embed, mix, bias = tensors["embed"], tensors["mix"], tensors["bias"]
        # one embedding row per token, 2 * window + 1 mixer rows as wide, one bias
        odd_mix = mix.ndim == 2 and mix.shape[0] % 2 == 1
        if embed.ndim != 2 or not odd_mix or mix.shape[1] != embed.shape[1] or bias.shape != (1,):
            raise CheckpointFormatError(
                f"scope tensor shapes are inconsistent: embed {embed.shape}, mix {mix.shape}, bias {bias.shape}"
            )
        if embed.shape[0] != vocab.size:
            raise ValueError(f"checkpoint vocab size {embed.shape[0]} != vocabulary {vocab.size}")
        model = cls(vocab, dim=embed.shape[1], window=(mix.shape[0] - 1) // 2)
        model.embed.values[...] = embed
        model.mix.values[...] = mix
        model.bias.values[...] = bias
        return model


def in_gold_scope(sentence) -> bool:
    "Whether a perfect filter keeps a labeled sentence: task content or emotion directed at the task."
    return sentence.task_relevant or sentence.directed != "none"


def keep_labels(message) -> list[int]:
    "Gold keep label per sentence."
    return [int(in_gold_scope(s)) for s in message.sentences]


def gold_scope_texts(message) -> list[str]:
    "Sentences a perfect scope filter would keep."
    return [s.text for s in message.sentences if in_gold_scope(s)]


def train_scope(
    model: ScopeModel,
    corpus: Sequence,
    epochs: int = 6,
    lr: float = 0.5,
    seed: int = 0,
) -> dict:
    """Train the filter with per-message SGD on mean binary cross-entropy.

    `corpus` holds messages with per-sentence gold flags; a fifth of them
    is held out. Returns training BCE per epoch plus held-out F1/accuracy
    for the keep class; warns if the training loss fails to decrease
    monotonically over the first 3 epochs.
    """
    if not corpus:
        raise ValueError("cannot train the scope filter on an empty corpus")
    data = []
    for message in corpus:
        ids = [s.token_ids for s in model.sentences(message)]
        data.append((ids, np.array(keep_labels(message), dtype=np.float64)))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(data))
    # round(0.2 * n) < n for every n >= 1, so some message is always trained on
    n_hold = int(round(0.2 * len(data)))
    hold_idx, train_idx = order[:n_hold], order[n_hold:]

    opt = SGD(learning_rate=lr)
    epoch_bce: list[float] = []
    for _ in range(epochs):
        total, count = 0.0, 0
        for i in rng.permutation(train_idx):
            ids, y = data[i]
            n = len(ids)
            if n == 0:
                continue
            vecs = model.sentence_matrix(ids)
            p = sigmoid(model._logits(vecs))
            total += float(-np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
            count += n
            g = (p - y) / n
            # head and mixer gradients
            mix_grad = np.zeros_like(model.mix.values, dtype=np.float64)
            d_vecs = np.zeros_like(vecs)
            for j, rows, nbrs in model._offsets(model.window, n):
                mix_grad[j] = g[rows] @ vecs[nbrs]
                d_vecs[nbrs] += g[rows, None] * model.mix.values[j]
            # embeddings: each token in sentence i receives d_vecs[i] / len(sent)
            emb_grad = np.zeros_like(model.embed.values, dtype=np.float64)
            for i_s, sent_ids in enumerate(ids):
                if sent_ids:
                    np.add.at(emb_grad, list(sent_ids), d_vecs[i_s] / len(sent_ids))
            # float32 blocks plus 0.0, so that a gradient rounded to -0.0 steps as 0.0
            grads = [(model.embed, ..., emb_grad), (model.mix, ..., mix_grad), (model.bias, ..., np.array([g.sum()]))]
            apply_update([(p, at, d.astype(np.float32) + 0.0) for p, at, d in grads], opt)
        epoch_bce.append(total / max(count, 1))
    first = epoch_bce[: min(3, len(epoch_bce))]
    if any(b >= a for a, b in zip(first, first[1:])):
        warnings.warn("scope training BCE did not decrease monotonically over the first epochs")

    metrics = {"train_bce": epoch_bce}
    metrics.update(_holdout_metrics(model, data, hold_idx))
    return metrics


def _holdout_metrics(model: ScopeModel, data, hold_idx) -> dict:
    tp = fp = fn = hits = total = 0
    for i in hold_idx:
        ids, y = data[i]
        if len(ids) == 0:
            continue
        pred = model.scores(ids) >= 0.5
        gold = y >= 0.5
        tp += int(np.sum(pred & gold))
        fp += int(np.sum(pred & ~gold))
        fn += int(np.sum(~pred & gold))
        hits += int(np.sum(pred == gold))
        total += len(ids)
    f1 = 2.0 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    accuracy = hits / total if total else 0.0
    return {"holdout_f1": f1, "holdout_accuracy": accuracy}
