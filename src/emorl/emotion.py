"""Three-class emotion recognition and the emotion-to-reward mapping.

The classifier runs on the scoped sentences of a message: kept texts are
featurized as one bag-of-words vector and fed to a small softmax network.
An empty scope is Neutral by definition, because emotion that cannot be
attributed to the assistant's task must not generate a learning signal.
"""

from __future__ import annotations

import enum
from typing import Callable, Sequence

import numpy as np

from .nn import CheckpointFormatError, Network, PackedRows, SGD, fit, holdout_split, load_checkpoint, save_checkpoint
from .nn import apply_update  # noqa: F401  the benchmark's span tracer wraps it at this name
from .scope import gold_scope_texts
from .text import Vocabulary, featurize_texts


class EmotionLabel(enum.Enum):
    POSITIVE = 1
    NEGATIVE = -1
    NEUTRAL = 0


LABEL_ORDER = (EmotionLabel.POSITIVE, EmotionLabel.NEGATIVE, EmotionLabel.NEUTRAL)
LABEL_INDEX = {label: i for i, label in enumerate(LABEL_ORDER)}
_NEUTRAL_IDX = LABEL_INDEX[EmotionLabel.NEUTRAL]


def reward_of(label: EmotionLabel) -> float:
    "Map an emotion label to its scalar reward: +1, -1, or 0."
    return float(label.value)


class EmotionModel:
    """Bag-of-words softmax classifier over {positive, negative, neutral}.

    A single dense layer: the scoped bag-of-words classes are close to
    linearly separable, and the linear model trains stably where a small
    relu net plateaus.
    """

    def __init__(self, vocab: Vocabulary, seed: int = 0):
        self.vocab = vocab
        self.net = Network.build(
            [vocab.size, len(LABEL_ORDER)],
            head="softmax",
            rng=np.random.default_rng(seed),
            init_scale=0.5,
        )

    def distribution(self, texts: Sequence[str]) -> np.ndarray:
        return self.net.forward(featurize_texts(texts, self.vocab))

    def classify_texts(self, texts: Sequence[str]) -> tuple[EmotionLabel, np.ndarray]:
        """Classify kept sentence texts; empty input is Neutral by definition.

        Exact probability ties break toward Neutral (a zero reward is the
        safest outcome for the learner), then follow label order.
        """
        texts = [t for t in texts if t.strip()]
        if not texts:
            probs = np.zeros(len(LABEL_ORDER))
            probs[_NEUTRAL_IDX] = 1.0
            return EmotionLabel.NEUTRAL, probs
        probs = self.distribution(texts)
        top = probs.max()
        tied = [i for i in range(len(LABEL_ORDER)) if probs[i] == top]
        return LABEL_ORDER[_NEUTRAL_IDX if _NEUTRAL_IDX in tied else tied[0]], probs

    def save(self, path) -> None:
        save_checkpoint(self.net, path)

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> "EmotionModel":
        """Inverse of save; raises CheckpointFormatError on a malformed file or
        a network that is not a softmax over the labels, and ValueError on one
        made for another vocabulary size."""
        net = load_checkpoint(path)
        if net.head != "softmax" or net.output_dim != len(LABEL_ORDER):
            raise CheckpointFormatError(
                f"{path} is not an emotion model: a {net.head} head over {net.output_dim} outputs, "
                f"where an emotion model is a softmax over {len(LABEL_ORDER)}"
            )
        if net.input_dim != vocab.size:
            raise ValueError(f"checkpoint input dim {net.input_dim} != vocabulary {vocab.size}")
        model = cls(vocab)
        model.net = net
        return model


def classify_emotion(model: EmotionModel, scoped) -> tuple[EmotionLabel, np.ndarray]:
    "Classify a ScopedMessage's kept sentences."
    return model.classify_texts(scoped.kept_texts)


def all_texts(message) -> list[str]:
    return [s.text for s in message.sentences]


def confusion_matrix(y_true: Sequence[int], y_pred: Sequence[int], n_classes: int) -> np.ndarray:
    mat = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        mat[t, p] += 1
    return mat


def macro_f1(y_true: Sequence[int], y_pred: Sequence[int], n_classes: int) -> float:
    "Unweighted mean of per-class F1; a class with empty denominator scores 0."
    mat = confusion_matrix(y_true, y_pred, n_classes)
    scores = []
    for c in range(n_classes):
        tp = mat[c, c]
        fp = mat[:, c].sum() - tp
        fn = mat[c, :].sum() - tp
        denom = 2 * tp + fp + fn
        scores.append(2.0 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


def train_emotion(
    model: EmotionModel,
    corpus: Sequence,
    epochs: int = 12,
    lr: float = 0.5,
    seed: int = 0,
    scoper: Callable[[object], list[str]] | None = None,
) -> dict:
    """Supervised training on a labeled synthetic corpus.

    `scoper` maps a corpus message to the sentence texts the classifier
    should see; the default uses the gold relevance flags. Raises if any
    emotion class is absent (macro-F1 would be undefined). `nn.holdout_split`
    holds a fifth of the corpus out; the rest trains the model for `epochs`
    passes of `nn.fit`. Returns `evaluate_emotion`'s accuracy and macro-F1
    on the held-out messages, and their count.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    if not corpus:
        raise ValueError("cannot train the emotion model on an empty corpus")
    scoper = scoper or gold_scope_texts
    labels = [LABEL_INDEX[m.gold_emotion] for m in corpus]
    present = set(labels)
    if present != set(range(len(LABEL_ORDER))):
        missing = [LABEL_ORDER[i].name for i in range(len(LABEL_ORDER)) if i not in present]
        raise ValueError(f"corpus is missing emotion classes: {', '.join(missing)}")

    # packed as featurized: no dense corpus matrix. Whitespace-only texts have
    # no tokens, so these are the vectors classify_texts reads
    data = PackedRows((featurize_texts(scoper(m), model.vocab) for m in corpus), labels, model.vocab.size)
    rng = np.random.default_rng(seed)
    # all three classes make n >= 3, so both splits are non-empty
    hold_idx, train_idx = holdout_split(len(corpus), rng)
    fit(model.net, data, train_idx, epochs, SGD(learning_rate=lr), rng)
    return {**evaluate_emotion(model, [corpus[i] for i in hold_idx], scoper), "holdout_size": len(hold_idx)}


def evaluate_emotion(model: EmotionModel, corpus: Sequence, scoper: Callable | None = None) -> dict:
    "Accuracy and macro-F1 of the trained model on a labeled corpus."
    scoper = scoper or gold_scope_texts
    golds = [LABEL_INDEX[m.gold_emotion] for m in corpus]
    preds = [LABEL_INDEX[model.classify_texts(scoper(m))[0]] for m in corpus]
    return {
        "accuracy": float(np.mean([p == g for p, g in zip(preds, golds)])),
        "macro_f1": macro_f1(golds, preds, len(LABEL_ORDER)),
    }
