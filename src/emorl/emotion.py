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

from .nn import Network, SGD, apply_update, load_checkpoint, save_checkpoint
from .scope import gold_scope_texts
from .text import Vocabulary, featurize_texts


class EmotionLabel(enum.Enum):
    POSITIVE = 1
    NEGATIVE = -1
    NEUTRAL = 0


LABEL_ORDER = (EmotionLabel.POSITIVE, EmotionLabel.NEGATIVE, EmotionLabel.NEUTRAL)
LABEL_INDEX = {label: i for i, label in enumerate(LABEL_ORDER)}
_NEUTRAL_IDX = LABEL_INDEX[EmotionLabel.NEUTRAL]

_REWARDS = {
    EmotionLabel.POSITIVE: 1.0,
    EmotionLabel.NEGATIVE: -1.0,
    EmotionLabel.NEUTRAL: 0.0,
}


def reward_of(label: EmotionLabel) -> float:
    "Map an emotion label to its scalar reward: +1, -1, or 0."
    return _REWARDS[label]


class EmotionModel:
    """Bag-of-words softmax classifier over {positive, negative, neutral}.

    A single dense layer is the default: the scoped bag-of-words classes
    are close to linearly separable, and the linear model trains stably
    where a small relu net plateaus.
    """

    def __init__(self, vocab: Vocabulary, hidden: tuple[int, ...] = (), seed: int = 0):
        self.vocab = vocab
        self.net = Network.build(
            [vocab.size, *hidden, len(LABEL_ORDER)],
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
        idx = _NEUTRAL_IDX if _NEUTRAL_IDX in tied else tied[0]
        return LABEL_ORDER[idx], probs

    def save(self, path) -> None:
        save_checkpoint(self.net, path)

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> "EmotionModel":
        net = load_checkpoint(path)
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
    holdout_frac: float = 0.2,
    seed: int = 0,
    scoper: Callable[[object], list[str]] | None = None,
) -> dict:
    """Supervised training on a labeled synthetic corpus.

    `scoper` maps a corpus message to the sentence texts the classifier
    should see; the default uses the gold relevance flags. Raises if any
    emotion class is absent (macro-F1 would be undefined). Returns held-out
    accuracy and macro-F1 plus the per-epoch training cross-entropy.
    """
    if not corpus:
        raise ValueError("cannot train the emotion model on an empty corpus")
    scoper = scoper or gold_scope_texts
    labels = [LABEL_INDEX[m.gold_emotion] for m in corpus]
    present = set(labels)
    if present != set(range(len(LABEL_ORDER))):
        missing = [LABEL_ORDER[i].name for i in range(len(LABEL_ORDER)) if i not in present]
        raise ValueError(f"corpus is missing emotion classes: {', '.join(missing)}")

    X = np.stack([featurize_texts(scoper(m), model.vocab) for m in corpus])
    y = np.array(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(corpus))
    n_hold = int(round(holdout_frac * len(corpus)))
    hold_idx, train_idx = order[:n_hold], order[n_hold:]
    if len(train_idx) == 0:
        raise ValueError("holdout fraction leaves no training data")

    opt = SGD(learning_rate=lr)
    train_ce: list[float] = []
    for _ in range(epochs):
        total = 0.0
        for i in rng.permutation(train_idx):
            probs = model.net.supervised_backward(X[i], y[i])
            total += -float(np.log(max(probs[y[i]], 1e-300)))
            apply_update(model.net.params(), opt)
        train_ce.append(total / len(train_idx))

    preds = [int(np.argmax(model.net.forward(X[i]))) for i in hold_idx]
    golds = [int(y[i]) for i in hold_idx]
    accuracy = float(np.mean([p == g for p, g in zip(preds, golds)])) if golds else 0.0
    return {
        "accuracy": accuracy,
        "macro_f1": macro_f1(golds, preds, len(LABEL_ORDER)) if golds else 0.0,
        "train_ce": train_ce,
        "holdout_size": len(hold_idx),
    }


def evaluate_emotion(model: EmotionModel, corpus: Sequence, scoper: Callable | None = None) -> dict:
    "Accuracy and macro-F1 of the trained model on a labeled corpus."
    scoper = scoper or gold_scope_texts
    golds = [LABEL_INDEX[m.gold_emotion] for m in corpus]
    preds = [LABEL_INDEX[model.classify_texts(scoper(m))[0]] for m in corpus]
    return {
        "accuracy": float(np.mean([p == g for p, g in zip(preds, golds)])),
        "macro_f1": macro_f1(golds, preds, len(LABEL_ORDER)),
    }
