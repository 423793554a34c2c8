"""Sentence relevance filter.

A lightweight three-part model: each sentence is summarized as the mean of
its token embeddings, a linear mixer combines the sentence vector with its
neighbors inside a +/-window, and a logistic head scores whether the
sentence belongs to the assistant's task scope (task content or emotion
directed at the task). Sentences scoring >= 0.5 are kept.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .nn import SGD, CheckpointFormatError, ParamTensor, apply_update, read_tensors, sigmoid, write_tensors
from .text import Sentence, Vocabulary


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
        if dim < 1:
            raise ValueError(f"dim must be at least 1, got {dim}")
        rng = np.random.default_rng(seed)
        self.vocab = vocab
        self.dim = dim
        self.window = window
        self.embed = ParamTensor("embed", rng.normal(0.0, 0.1, (vocab.size, dim)))
        self.mix = ParamTensor("mix", rng.normal(0.0, 0.1, (2 * window + 1, dim)))
        self.bias = ParamTensor("bias", np.zeros(1, dtype=np.float32))
        # sentence text -> `_row(text)`, from embed and mix as they were when
        # the text was first met; train_scope empties it
        self._rows: dict[str, tuple[np.ndarray, tuple[float, ...]]] = {}

    def params(self) -> list[ParamTensor]:
        return [self.embed, self.mix, self.bias]

    # -- inference ---------------------------------------------------------

    def sentences(self, message) -> list[Sentence]:
        """`segment(message.text, self.vocab)`, built from the message's own
        labeled sentences.

        Equal because each labeled sentence is a stripped segment of a
        template ending with splitting punctuation, and the text joins them
        with single spaces.
        """
        out, start = [], 0
        for s in message.sentences:
            end = start + len(s.text)
            out.append(Sentence(text=s.text, token_ids=self.vocab.text_ids(s.text), span=(start, end)))
            start = end + 1
        return out

    def sentence_matrix(self, token_ids: Sequence[Sequence[int]]) -> np.ndarray:
        "Stack of mean token embeddings, one row per sentence; an empty sentence's row is zero."
        lens = np.fromiter(map(len, token_ids), dtype=np.intp, count=len(token_ids))
        ids = np.fromiter(itertools.chain.from_iterable(token_ids), dtype=np.intp, count=int(lens.sum()))
        return _means(self.embed.values, ids, np.add.accumulate(lens) - lens, lens)

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

    def keep(self, sent_vecs: np.ndarray) -> np.ndarray:
        """Keep mask of a message's `sentence_matrix`: a score of at least 0.5.

        Not `logits >= 0`: a logit just below zero (about -1e-17) scores
        exactly 0.5, because its exp rounds to 1.
        """
        return sigmoid(self._logits(sent_vecs)) >= 0.5

    def keep_mask(self, texts: Sequence[str]) -> list[bool]:
        """`keep`'s mask of the message whose sentence texts are `texts`, each
        tokenized with this model's vocabulary: by `_certified_keep` from the
        texts' logit terms, else by `keep` on their rows. Both are kept per
        text: after the first call, only `train_scope` may change embed or mix."""
        facts = [self._rows.get(t) or self._row(t) for t in texts]
        keep = self._certified_keep([terms for _, terms in facts])
        if keep is None:
            # np.array stacks the rows as np.stack does, at a third of its cost
            keep = self.keep(np.array([row for row, _ in facts])).tolist()
        return keep

    def _row(self, text: str) -> tuple[np.ndarray, tuple[float, ...]]:
        """A sentence text's `sentence_matrix` row and the row's terms for
        `_certified_keep`: `mix[j] @ row` for each mixer row j, then
        `|mix[j]| @ |row|` for each."""
        row = self.sentence_matrix([self.vocab.text_ids(text)])[0]
        mix = self.mix.values
        self._rows[text] = facts = (row, (*(mix @ row).tolist(), *(np.abs(mix) @ np.abs(row)).tolist()))
        return facts

    def _certified_keep(self, terms: Sequence[tuple[float, ...]]) -> list[bool] | None:
        """`keep`'s mask of a message from its sentences' logit terms (`_row`),
        or None where this cannot prove it equal.

        Sentence i's logit l_i is the bias b plus the term c_j of each
        neighbour that `_offsets` gives, added in j order as `_logits` adds
        them, and m_i = |b| + sum of their a_j = |mix[j]| @ |row|. Let
        n = dim + 2 * window + 1 and u = 2**-53. A dot product of length dim
        in any order is within gamma_dim * (|x| @ |y|) of its real value
        (gamma_k = k * u / (1 - k * u); Higham, Accuracy and Stability of
        Numerical Algorithms, ch. 3), and adding at most 2 * window + 1
        terms to b costs gamma_(2 * window + 1) more, so this l_i and the
        one `_logits` computes with its own matrix products each lie within
        gamma_n * m_i of the real logit; the computed m_i, the margin and
        its product round by a few u more. If |l_i| > (n + 2) * 2**-50 *
        (1 + m_i), the two logits therefore differ by less than half the
        margin: `_logits`' logit has l_i's sign and is at least
        1.5 * 2**-50 (about 1.3e-15) from zero. A positive logit scores at
        least 0.5; a logit below -1.3e-15 scores below 0.5, as its exp
        lies an ulp or more below 1. So keep_i is l_i > 0. A NaN or
        infinity among the values a sentence mixes in makes its m_i NaN or
        infinite, and the comparison fails.
        """
        n, width = len(terms), 2 * self.window + 1
        bias = float(self.bias.values[0])
        logits, sizes = [bias] * n, [abs(bias)] * n
        for j, rows, nbrs in self._offsets(self.window, n):
            for i, t in zip(range(n)[rows], terms[nbrs]):
                logits[i] += t[j]
                sizes[i] += t[width + j]
        margin = (self.dim + width + 2) * 2.0**-50
        keep = []
        for logit, size in zip(logits, sizes):
            if not abs(logit) > margin * (1.0 + size):
                return None
            keep.append(logit > 0.0)
        return keep

    def scope(self, sentences: Iterable[Sentence]) -> ScopedMessage:
        """Apply the filter: keep sentences whose score is at least 0.5.

        Decided from each sentence's text, tokenized with this model's
        vocabulary (`keep_mask`). Deterministic for a fixed model; original
        sentence order is kept.
        """
        sents = list(sentences)
        return ScopedMessage(sents, self.keep_mask([s.text for s in sents]))

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        write_tensors(path, {p.name: p.values for p in self.params()})

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
        if embed.ndim != 2 or embed.shape[1] < 1 or not odd_mix or mix.shape[1] != embed.shape[1] or bias.shape != (1,):
            raise CheckpointFormatError(
                f"scope tensor shapes are inconsistent: embed {embed.shape}, mix {mix.shape}, bias {bias.shape}"
            )
        if embed.shape[0] != vocab.size:
            raise ValueError(f"checkpoint vocab size {embed.shape[0]} != vocabulary {vocab.size}")
        model = cls(vocab, dim=embed.shape[1], window=(mix.shape[0] - 1) // 2)
        for p in model.params():
            p.values[...] = tensors[p.name]
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


def _means(values: np.ndarray, ids: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """One row per sentence: the mean of `values[ids]` over the sentence's run
    of `lens[i]` ids from `starts[i]`, or zero for an empty sentence.

    `np.add.reduceat` adds a run's rows one after another along axis 0, as
    `values[run].mean(axis=0)` does before it divides, so each row equals the
    sentence's own mean bit for bit.
    """
    if lens.all():
        return np.add.reduceat(values[ids], starts, axis=0) / lens[:, None]
    rows = np.zeros((len(lens), values.shape[1]))
    full = lens > 0
    if ids.size:
        rows[full] = np.add.reduceat(values[ids], starts[full], axis=0) / lens[full, None]
    return rows


class _Packs:
    """A corpus's sentence token ids, packed once into flat arrays.

    Per sentence: the offset of its first token in its message, its length
    and its gold keep label. Per token: its id, in sentence order. Per
    message: its touched embedding rows, sorted, and where each row's run
    starts in the message's tokens ordered stably by id, with the index of
    each token's sentence in that order. The integer arrays are int16 when
    that holds their values. `packs[i]` is message i's
    (ids, starts, lens, labels, rows, row_starts, token_sentence), as views.
    """

    def __init__(self, model: ScopeModel, corpus: Sequence):
        flat = itertools.chain.from_iterable
        token_ids = [[s.token_ids for s in model.sentences(m)] for m in corpus]
        counts, sizes = [len(t) for t in token_ids], [sum(map(len, t)) for t in token_ids]
        touched = [len(set(flat(t))) for t in token_ids]
        narrow = np.int16 if max([model.vocab.size, *counts, *sizes]) <= np.iinfo(np.int16).max else np.intp
        self.ids = np.fromiter(flat(flat(token_ids)), narrow, sum(sizes))
        self.lens = np.fromiter((len(ids) for t in token_ids for ids in t), narrow, sum(counts))
        self.labels = np.fromiter((k for m in corpus for k in keep_labels(m)), np.float64, sum(counts))
        self.starts, self.token_sentence = np.empty_like(self.lens), np.empty_like(self.ids)
        self.rows, self.row_starts = np.empty(sum(touched), narrow), np.empty(sum(touched), narrow)
        # message by message, so that no temporary spans the corpus
        s0 = t0 = r0 = 0
        for count, size, n_rows in zip(counts, sizes, touched):
            ids, lens = self.ids[t0 : t0 + size], self.lens[s0 : s0 + count]
            self.starts[s0 : s0 + count] = np.add.accumulate(lens) - lens
            # the message's tokens ordered stably by id: a run of one id is one touched row
            order = np.argsort(ids, kind="stable")
            by_id = ids[order]
            first = np.flatnonzero(np.diff(by_id, prepend=-1))
            self.rows[r0 : r0 + n_rows], self.row_starts[r0 : r0 + n_rows] = by_id[first], first
            self.token_sentence[t0 : t0 + size] = np.repeat(np.arange(count), lens)[order]
            s0, t0, r0 = s0 + count, t0 + size, r0 + n_rows
        self.offsets = np.cumsum(np.transpose([[0, *counts], [0, *sizes], [0, *touched]]), axis=0)

    def __getitem__(self, i: int) -> tuple[np.ndarray, ...]:
        (s0, t0, r0), (s1, t1, r1) = self.offsets[i : i + 2].tolist()
        return (
            self.ids[t0:t1], self.starts[s0:s1], self.lens[s0:s1], self.labels[s0:s1],
            self.rows[r0:r1], self.row_starts[r0:r1], self.token_sentence[t0:t1],
        )


def train_scope(
    model: ScopeModel,
    corpus: Sequence,
    epochs: int = 6,
    lr: float = 0.5,
    seed: int = 0,
) -> dict:
    """Train the filter with per-message SGD on mean binary cross-entropy.

    `corpus` holds messages with per-sentence gold flags; a fifth of them
    is held out. The token ids are packed once, before the epochs, and a
    step moves only the embedding rows of its message's tokens: the other
    rows have zero gradient, and v - lr * 0 = v, -0.0 included. Returns
    training BCE per epoch plus held-out F1/accuracy for the keep class;
    warns if the training loss fails to decrease monotonically over the
    first 3 epochs.
    """
    if not corpus:
        raise ValueError("cannot train the scope filter on an empty corpus")
    packs = _Packs(model, corpus)
    model._rows.clear()  # the steps move embed and mix
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(corpus))
    # round(0.2 * n) < n for every n >= 1, so some message is always trained on
    n_hold = int(round(0.2 * len(corpus)))
    hold_idx, train_idx = order[:n_hold], order[n_hold:]

    opt = SGD(learning_rate=lr)
    epoch_bce: list[float] = []
    for _ in range(epochs):
        total, count = 0.0, 0
        for i in rng.permutation(train_idx):
            ids, starts, lens, y, touched, row_starts, token_sentence = packs[i]
            n = len(y)
            if n == 0:
                continue
            vecs = _means(model.embed.values, ids, starts, lens)
            p = sigmoid(model._logits(vecs))
            total += float(-np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
            count += n
            g = (p - y) / n
            # head and mixer gradients
            mix_grad = np.zeros(model.mix.values.shape)
            d_vecs = np.zeros(vecs.shape)
            for j, rows, nbrs in model._offsets(model.window, n):
                mix_grad[j] = g[rows] @ vecs[nbrs]
                d_vecs[nbrs] += g[rows, None] * model.mix.values[j]
            # embeddings: each token of sentence i adds d_vecs[i] / lens[i] to its row.
            # reduceat sums a row's tokens in message order, as np.add.at onto zeros
            # does but for the leading 0.0; that changes only the sign of a zero sum,
            # which the + 0.0 below clears. An empty sentence's divisor of 1 is never read.
            shares = (d_vecs / np.maximum(lens, 1)[:, None])[token_sentence]
            emb_grad = np.add.reduceat(shares, row_starts, axis=0)
            # float32 blocks plus 0.0, so that a gradient rounded to -0.0 steps as 0.0
            grads = [(model.embed, touched, emb_grad), (model.mix, ..., mix_grad), (model.bias, ..., np.array([g.sum()]))]
            apply_update([(p, at, d.astype(np.float32) + 0.0) for p, at, d in grads], opt)
        epoch_bce.append(total / max(count, 1))
    first = epoch_bce[: min(3, len(epoch_bce))]
    if any(b >= a for a, b in zip(first, first[1:])):
        warnings.warn("scope training BCE did not decrease monotonically over the first epochs")

    metrics = {"train_bce": epoch_bce}
    metrics.update(_holdout_metrics(model, packs, hold_idx))
    return metrics


def _holdout_metrics(model: ScopeModel, packs: _Packs, hold_idx) -> dict:
    tp = fp = fn = hits = total = 0
    for i in hold_idx:
        ids, starts, lens, y = packs[i][:4]
        if len(y) == 0:
            continue
        pred = model.keep(_means(model.embed.values, ids, starts, lens))
        gold = y >= 0.5
        tp += int(np.sum(pred & gold))
        fp += int(np.sum(pred & ~gold))
        fn += int(np.sum(~pred & gold))
        hits += int(np.sum(pred == gold))
        total += len(y)
    f1 = 2.0 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    accuracy = hits / total if total else 0.0
    return {"holdout_f1": f1, "holdout_accuracy": accuracy}
