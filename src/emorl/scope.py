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

from .nn import SGD, CheckpointFormatError, ParamTensor, _fault, holdout_split, read_tensors, sigmoid, write_tensors
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
    def kept_sentences(self) -> list:
        return [s for s, keep in zip(self.sentences, self.keep_mask) if keep]

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
        self.mix.values, self.bias.values = self._flat[: self.mix.values.size].reshape(self.mix.shape), self._flat[-1:]
        # sentence text -> `_row(text)`, from embed and mix as they were when
        # the text was first met; train_scope empties it
        self._rows: dict[str, tuple[np.ndarray, tuple[float, ...]]] = {}

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
    - its tokens' sentence indices, ordered stably by id, those of the
      tokens that alone touch their embedding row first;
    - its touched embedding rows in that order;
    - where each row touched by more than one token starts among those
      tokens' indices;
    - per sentence, the offset of its first token.
    `packs[i]` is message i's (ids, starts, lens, labels, rows, singles,
    token_sentence, shared_starts), the indices widened to intp once, where
    `singles` counts the rows touched by one token.
    """

    def __init__(self, model: ScopeModel, corpus: Sequence):
        flat = itertools.chain.from_iterable
        token_ids = [[model.vocab.text_ids(s.text) for s in m.sentences] for m in corpus]
        counts, sizes = [len(t) for t in token_ids], [sum(map(len, t)) for t in token_ids]
        narrow = np.int16 if max([model.vocab.size, *counts, *sizes]) <= np.iinfo(np.int16).max else np.intp
        self.ids = np.fromiter(flat(flat(token_ids)), narrow, sum(sizes))
        self.lens = np.fromiter((len(ids) for t in token_ids for ids in t), narrow, sum(counts))
        self.labels = np.fromiter((k for m in corpus for k in keep_labels(m)), np.float64, sum(counts))
        # a run is at most a message's sentences and twice its tokens long, as
        # a row touched by several tokens is touched by at least two
        runs, touched, singles = np.empty(sum(counts) + 2 * sum(sizes), narrow), [], []
        # message by message, so that no temporary spans the corpus
        s0 = t0 = at = 0
        for count, size in zip(counts, sizes):
            ids, lens = self.ids[t0 : t0 + size].astype(np.intp), self.lens[s0 : s0 + count]
            uses = np.bincount(ids)
            alone, shared = (uses == 1).nonzero()[0], (uses > 1).nonzero()[0]
            # ordered stably by id, the tokens that alone touch their row first
            order = (ids + (uses[ids] > 1) * len(uses)).argsort(kind="stable")
            run = np.concatenate((
                np.repeat(np.arange(count), lens)[order], alone, shared,
                np.add.accumulate(uses[shared]) - uses[shared], np.add.accumulate(lens) - lens,
            ))
            runs[at : at + len(run)] = run
            touched.append(len(alone) + len(shared))
            singles.append(len(alone))
            s0, t0, at = s0 + count, t0 + size, at + len(run)
        self.runs = runs[:at]
        self.offsets = np.cumsum(np.transpose([[0, *counts], [0, *sizes], [0, *touched], [0, *singles]]), axis=0)

    @staticmethod
    def _at(sentences: int, tokens: int, rows: int, singles: int) -> int:
        "The start of the run of the message whose offsets these are."
        return sentences + tokens + 2 * rows - singles

    def __getitem__(self, i: int) -> tuple:
        (s0, t0, r0, u0), (s1, t1, r1, u1) = self.offsets[i : i + 2].tolist()
        run = self.runs[self._at(s0, t0, r0, u0) : self._at(s1, t1, r1, u1)].astype(np.intp)
        # where the run's rows, shared row starts and sentence starts begin
        rows_at = t1 - t0
        shared_at = rows_at + r1 - r0
        starts_at = shared_at + (r1 - r0) - (u1 - u0)
        return (
            self.ids[t0:t1].astype(np.intp), run[starts_at:], self.lens[s0:s1], self.labels[s0:s1],
            run[rows_at:shared_at], u1 - u0, run[:rows_at], run[shared_at:starts_at],
        )


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
    included. Each step is `apply_update`'s on the three tensors, fused:
    one float32 rounding of the gradient laid out as [mix | bias | rows],
    one check before any write, which raises its TrainingFault, and one
    write each of the flat buffer and the rows. Returns training BCE per
    epoch plus held-out F1/accuracy for the keep class, scored on the
    trained model's `scope` of each held-out message; warns if the training
    loss fails to decrease monotonically over the first 3 epochs.
    """
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
            ids, starts, lens, y, touched, singles, token_sentence, shared_starts = packs[i]
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
            # leading 0.0; that changes only the sign of a zero sum, which the + 0.0
            # below clears. An empty sentence's divisor of 1 is never read.
            shares = d_vecs / np.maximum(lens, 1)[:, None]
            rows_grad = grad[m + 1 :].reshape(len(touched), model.dim)
            shares.take(token_sentence[:singles], axis=0, out=rows_grad[:singles])
            if singles < len(touched):
                np.add.reduceat(shares[token_sentence[singles:]], shared_starts, axis=0, out=rows_grad[singles:])
            # float32 plus 0.0, so that a gradient rounded to -0.0 steps as 0.0
            new = np.subtract(
                np.concatenate((flat, embed.take(touched, axis=0)), axis=None),
                lr * (grad.astype(np.float32) + 0.0),
                dtype=np.float32,
            )
            if not np.isfinite(new).all():
                new_rows = new[m + 1 :].reshape(len(touched), model.dim)
                raise _fault([(model.embed, new_rows), (model.mix, new[:m]), (model.bias, new[m : m + 1])])
            flat[...] = new[: m + 1]
            embed[touched] = new[m + 1 :].reshape(len(touched), model.dim)
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
