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
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .nn import SGD, CheckpointFormatError, ParamTensor, flat_views, holdout_split, read_tensors, sgd_write, sigmoid, write_tensors
from .nn import apply_update  # noqa: F401  the benchmark's span tracer wraps it at this name
from .text import Vocabulary


@dataclass
class ScopedMessage:
    """A message's sentences together with the filter's keep decisions.

    A sentence is any record with a `text`: `segment`'s `Sentence` or a
    message's own `LabeledSentence`.
    """

    sentences: list
    keep_mask: list[bool]

    def __post_init__(self) -> None:
        if len(self.sentences) != len(self.keep_mask):
            raise ValueError("keep_mask length must equal sentence count")

    @property
    def kept_texts(self) -> list[str]:
        return [s.text for s, keep in zip(self.sentences, self.keep_mask) if keep]


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
        # mix and bias as views of one flat buffer, for the model's life, as `Network` holds its tensors
        self._flat = np.concatenate((self.mix.values, self.bias.values), axis=None)
        self.mix.values, self.bias.values = flat_views(self._flat, [self.mix, self.bias])
        # sentence text -> its `_products` row, for `keep_mask`
        self._rows: dict[str, tuple[float, ...]] = {}

    def __reduce__(self):
        "Copying and pickling build the model again from its tensors, and so a flat buffer of its own."
        return ScopeModel._of, (self.vocab, {p.name: p.values for p in self.params()})

    @classmethod
    def _of(cls, vocab: Vocabulary, tensors: dict[str, np.ndarray]) -> "ScopeModel":
        "A model on `vocab` holding the embed, mix and bias arrays of `tensors`."
        model = cls(vocab, dim=tensors["embed"].shape[1], window=(tensors["mix"].shape[0] - 1) // 2)
        for p in model.params():
            p.values[...] = tensors[p.name]
        return model

    def params(self) -> list[ParamTensor]:
        return [self.embed, self.mix, self.bias]

    # -- inference ---------------------------------------------------------

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

    def _products(self, sent_vecs: np.ndarray) -> np.ndarray:
        """`sent_vecs[i] @ mix[j]` for each sentence i and mixer row j, shape
        (n, 2 * window + 1). Not by BLAS, which may round a row of a matrix
        product otherwise than the row alone: `np.add.reduce` adds each
        product's terms along their contiguous axis in an order fixed by dim."""
        return np.add.reduce(sent_vecs[:, None, :] * self.mix.values, axis=2)

    def _logits(self, sent_vecs: np.ndarray) -> np.ndarray:
        logits = np.full(sent_vecs.shape[0], float(self.bias.values[0]))
        products = self._products(sent_vecs)
        for j, rows, nbrs in self._offsets(self.window, len(logits)):
            logits[rows] += products[nbrs, j]
        return logits

    def keep_mask(self, texts: Sequence[str]) -> list[bool]:
        """Keep mask of the message whose sentence texts are `texts`, each
        tokenized with this model's vocabulary: a score of at least 0.5.

        A text's `_products` row is kept from its first call on; after it,
        only `train_scope`, which empties the cache, may change embed or
        mix. Added onto the bias in `_logits`' order, the rows give its
        logits bit for bit. A logit of at least 0 scores at least 0.5; a NaN
        one, or one below -1e-15, less, as its exp lies an ulp or more below
        1. Between, `sigmoid` decides: a logit of -1e-17 scores exactly 0.5.
        """
        cache = self._rows
        for t in texts:
            if t not in cache:
                cache[t] = tuple(self._products(self.sentence_matrix([self.vocab.text_ids(t)]))[0].tolist())
        terms = [cache[t] for t in texts]
        n = len(terms)
        logits = [float(self.bias.values[0])] * n
        for j, rows, nbrs in self._offsets(self.window, n):
            for i, t in zip(range(n)[rows], terms[nbrs]):
                logits[i] += t[j]
        return [l >= 0.0 or (l >= -1e-15 and bool(sigmoid(np.array([l]))[0] >= 0.5)) for l in logits]

    def scope(self, sentences: Iterable) -> ScopedMessage:
        """Apply the filter: keep sentences whose score is at least 0.5.

        A sentence is any record with a `text`, such as `segment`'s
        `Sentence` or a message's own `LabeledSentence`. Decided from each
        text, tokenized with this model's vocabulary (`keep_mask`).
        Deterministic for a fixed model; original sentence order is kept.
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
        return cls._of(vocab, tensors)


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
    if np.logical_and.reduce(lens):  # lens.all(), without its Python wrapper
        return np.add.reduceat(values[ids], starts, axis=0) / lens[:, None]
    rows = np.zeros((len(lens), values.shape[1]))
    full = lens > 0
    if ids.size:
        rows[full] = np.add.reduceat(values[ids], starts[full], axis=0) / lens[full, None]
    return rows


class _Packs:
    """A corpus's sentence token ids, packed once into flat arrays.

    The integers are int16 when that holds their values. Per token: its id,
    in sentence order. Per sentence: its length and its gold keep label.
    Per message, one run of:
    - its tokens' sentence indices, ordered stably by id;
    - its touched embedding rows, in id order;
    - where each row starts among those indices;
    - per sentence, the offset of its first token.
    `packs[i]` is message i's (ids, starts, lens, labels, rows,
    token_sentence, row_starts), the indices widened to intp once.
    """

    def __init__(self, model: ScopeModel, corpus: Sequence):
        flat = itertools.chain.from_iterable
        token_ids = [[model.vocab.text_ids(s.text) for s in m.sentences] for m in corpus]
        counts, sizes = [len(t) for t in token_ids], [sum(map(len, t)) for t in token_ids]
        narrow = np.int16 if max([model.vocab.size, *counts, *sizes]) <= np.iinfo(np.int16).max else np.intp
        self.ids = np.fromiter(flat(flat(token_ids)), narrow, sum(sizes))
        self.lens = np.fromiter((len(ids) for t in token_ids for ids in t), narrow, sum(counts))
        self.labels = np.fromiter((k for m in corpus for k in keep_labels(m)), np.float64, sum(counts))
        # a run is at most a message's sentences and three times its tokens long
        runs, touched = np.empty(sum(counts) + 3 * sum(sizes), narrow), []
        # message by message, so that no temporary spans the corpus
        s0 = t0 = at = 0
        for count, size in zip(counts, sizes):
            ids, lens = self.ids[t0 : t0 + size], self.lens[s0 : s0 + count]
            order = ids.argsort(kind="stable")
            rows, row_starts = np.unique(ids[order], return_index=True)
            run = np.concatenate((np.repeat(np.arange(count), lens)[order], rows, row_starts, np.add.accumulate(lens) - lens))
            runs[at : at + len(run)] = run
            touched.append(len(rows))
            s0, t0, at = s0 + count, t0 + size, at + len(run)
        self.runs = runs[:at]
        self.offsets = np.cumsum(np.transpose([[0, *counts], [0, *sizes], [0, *touched]]), axis=0)

    def __getitem__(self, i: int) -> tuple:
        (s0, t0, r0), (s1, t1, r1) = self.offsets[i : i + 2].tolist()
        run = self.runs[s0 + t0 + 2 * r0 : s1 + t1 + 2 * r1].astype(np.intp)
        # where the run's rows, row starts and sentence starts begin
        a, b, c = t1 - t0, t1 - t0 + r1 - r0, t1 - t0 + 2 * (r1 - r0)
        return self.ids[t0:t1].astype(np.intp), run[c:], self.lens[s0:s1], self.labels[s0:s1], run[a:b], run[:a], run[b:c]


def train_scope(
    model: ScopeModel,
    corpus: Sequence,
    epochs: int = 6,
    lr: float = 0.5,
    seed: int = 0,
) -> dict:
    """Train the filter with per-message SGD on mean binary cross-entropy.

    `corpus` holds messages with per-sentence gold flags; `nn.holdout_split`
    holds a fifth of them out. The token ids are packed once, before the
    epochs, and a step moves only the embedding rows of its message's
    tokens: the other rows have zero gradient, and v - lr * 0 = v, -0.0
    included. Each step is `nn.sgd_write`'s on the gradient laid out as
    [mix | bias | rows], which raises `apply_update`'s TrainingFault.
    Returns training BCE per epoch plus held-out F1/accuracy for the keep
    class, scored on the trained model's `scope` of each held-out message;
    warns if the training loss fails to decrease monotonically over the
    first 3 epochs.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    if not corpus:
        raise ValueError("cannot train the scope filter on an empty corpus")
    packs = _Packs(model, corpus)
    model._rows.clear()  # the steps move embed and mix
    rng = np.random.default_rng(seed)
    hold_idx, train_idx = holdout_split(len(corpus), rng)

    lr = SGD(learning_rate=lr).learning_rate
    embed, mix, flat = model.embed.values, model.mix.values, model._flat
    m = mix.size
    epoch_bce: list[float] = []
    for _ in range(epochs):
        total, count = 0.0, 0
        for i in rng.permutation(train_idx).tolist():
            ids, starts, lens, y, touched, token_sentence, row_starts = packs[i]
            n = len(y)
            if n == 0:
                continue
            vecs = _means(embed, ids, starts, lens)
            p = sigmoid(model._logits(vecs))
            # each term is y * log(p) + (1 - y) * log(1 - p), whose other half is a zero
            total -= float(np.add.reduce(np.log(np.where(y, p, 1.0 - p))))
            count += n
            g = (p - y) / n
            # [mix | bias | rows]: head and mixer gradients, then the embeddings'
            grad = np.zeros(m + 1 + len(touched) * model.dim)
            mix_grad, g_col = grad[:m].reshape(mix.shape), g[:, None]
            d_vecs = np.zeros(vecs.shape)
            for j, rows, nbrs in model._offsets(model.window, n):
                np.matmul(g[rows], vecs[nbrs], out=mix_grad[j])
                to = d_vecs[nbrs]
                to += g_col[rows] * mix[j]
            grad[m] = np.add.reduce(g)
            # each token of sentence i adds d_vecs[i] / lens[i] to its row: a row's
            # tokens in message order, as np.add.at onto zeros adds them but for the
            # leading 0.0; that changes only the sign of a zero sum, which the
            # float32 rounding's + 0.0 clears. A row of one token takes its share
            # as it is. An empty sentence's divisor of 1 is never read.
            shares = (d_vecs / np.maximum(lens, 1)[:, None]).take(token_sentence, axis=0)
            np.add.reduceat(shares, row_starts, axis=0, out=grad[m + 1 :].reshape(len(touched), model.dim))
            new = np.empty(len(grad), np.float32)
            sgd_write(flat, embed, touched, embed.take(touched, axis=0), grad, new, lr, model.params)
        epoch_bce.append(total / max(count, 1))
    first = epoch_bce[: min(3, len(epoch_bce))]
    if any(b >= a for a, b in zip(first, first[1:])):
        warnings.warn("scope training BCE did not decrease monotonically over the first epochs")

    return {"train_bce": epoch_bce, **_holdout_metrics(model, [corpus[i] for i in hold_idx])}


def _holdout_metrics(model: ScopeModel, messages: Sequence) -> dict:
    "F1 and accuracy for the keep class: `scope`'s keep masks of `messages` against their gold keep labels."
    pairs = Counter(pair for m in messages for pair in zip(model.scope(m.sentences).keep_mask, keep_labels(m)))
    tp, fp, fn = pairs[True, 1], pairs[True, 0], pairs[False, 1]
    f1 = 2.0 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    accuracy = (tp + pairs[False, 0]) / sum(pairs.values()) if pairs else 0.0
    return {"holdout_f1": f1, "holdout_accuracy": accuracy}
