"""Deterministic text front-end.

Sentence segmentation splits immediately after any of the five marks
comma, period, colon, question mark, exclamation mark. Tokenization is
lowercased whitespace splitting. Features are L1-normalized bag-of-words
counts over a frequency-built vocabulary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .nn import replacing

SPLIT_PUNCT = frozenset(",.:?!")

UNK_TOKEN = "<unk>"
UNK_ID = 0


@dataclass(frozen=True)
class Sentence:
    """One segment of a message: its text, token ids, and source span."""

    text: str
    token_ids: tuple[int, ...]
    span: tuple[int, int]


def tokenize(text: str) -> list[str]:
    return text.lower().split()


def insertion_positions(text: str) -> list[int]:
    "Offsets immediately after each splitting punctuation character."
    return [i + 1 for i, ch in enumerate(text) if ch in SPLIT_PUNCT]


def segment(text: str, vocab: "Vocabulary | None" = None) -> list[Sentence]:
    """Split `text` after each punctuation mark in the splitting set.

    Whitespace-only pieces are dropped; each kept sentence records the span
    of its trimmed text in the source, so the source string can be
    reconstructed from spans plus the skipped delimiters.
    """
    pieces: list[tuple[int, str]] = []
    start = 0
    for i, ch in enumerate(text):
        if ch in SPLIT_PUNCT:
            pieces.append((start, text[start : i + 1]))
            start = i + 1
    if start < len(text):
        pieces.append((start, text[start:]))
    out: list[Sentence] = []
    for offset, raw in pieces:
        stripped = raw.strip()
        if not stripped:
            continue
        lead = len(raw) - len(raw.lstrip())
        begin = offset + lead
        ids = vocab.text_ids(stripped) if vocab is not None else ()
        out.append(Sentence(text=stripped, token_ids=ids, span=(begin, begin + len(stripped))))
    return out


class Vocabulary:
    """Frequency-ranked token table with a reserved unknown id 0. It never
    changes, so it keeps each distinct text's token ids once computed."""

    def __init__(self, tokens: Sequence[str]):
        if not tokens or tokens[0] != UNK_TOKEN:
            raise ValueError("vocabulary must start with the unknown token")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocabulary tokens must be unique")
        self.id_to_token: list[str] = list(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(tokens)}
        # text -> (its token ids, its in-vocabulary token ids)
        self._memo: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def ids(self, tokens: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.token_to_id.get(t, UNK_ID) for t in tokens)

    def text_ids(self, text: str) -> tuple[int, ...]:
        "`ids(tokenize(text))`, computed once per distinct text."
        entry = self._memo.get(text)
        if entry is None:
            ids = self.ids(tokenize(text))
            entry = self._memo[text] = (ids, tuple(i for i in ids if i != UNK_ID))
        return entry[0]

    def counted_ids(self, text: str) -> tuple[int, ...]:
        "The ids of `text_ids(text)` but the unknown id, in order: those `count_features` counts."
        self.text_ids(text)
        return self._memo[text][1]

    def save(self, path) -> None:
        "Persist as lexicographically sorted `token<TAB>id` UTF-8 lines, replacing `path` whole."
        lines = sorted(f"{tok}\t{i}" for i, tok in enumerate(self.id_to_token))
        with replacing(path, encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        entries: dict[int, str] = {}
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.rstrip("\n")
                if not line:
                    continue
                tok, _, id_str = line.rpartition("\t")
                entries[int(id_str)] = tok
        if sorted(entries) != list(range(len(entries))):
            raise ValueError("vocabulary ids must be contiguous from zero")
        return cls([entries[i] for i in range(len(entries))])


def build_vocab(corpus: Iterable[str], max_size: int = 2048) -> Vocabulary:
    """Keep the `max_size - 1` most frequent tokens, ties broken
    lexicographically; id 0 is always the unknown token."""
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    counts: Counter[str] = Counter()
    for doc in corpus:
        counts.update(tokenize(doc))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, _ in ranked[: max_size - 1]]
    return Vocabulary([UNK_TOKEN] + kept)


def count_features(ids: Sequence[int], size: int) -> np.ndarray:
    """L1-normalized counts of in-vocabulary token ids over `size` slots, or
    the zero vector for none: small integer counts, exact in float64."""
    vec = np.bincount(np.asarray(ids, dtype=np.intp), minlength=size).astype(np.float64)
    if len(ids):
        vec /= len(ids)
    return vec


def featurize_texts(texts: Iterable[str], vocab: Vocabulary) -> np.ndarray:
    """L1-normalized bag-of-words counts of the in-vocabulary tokens of `texts`.

    Order-invariant over texts and tokens; an empty or fully
    out-of-vocabulary input yields the zero vector.
    """
    return count_features([i for text in texts for i in vocab.counted_ids(text)], vocab.size)
