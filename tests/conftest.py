import warnings

import numpy as np
import pytest

from emorl.emotion import EmotionModel, train_emotion
from emorl.envsim import build_offline_corpus, config_vocab, default_config
from emorl.nn import sigmoid
from emorl.scope import ScopeModel, train_scope


def exact_keep(model: ScopeModel, sent_vecs: np.ndarray) -> np.ndarray:
    """The filter's keep rule on a message's `sentence_matrix`: a score of at
    least 0.5, the reference for `ScopeModel.keep_mask`. Not `logits >= 0`:
    a logit just below zero (about -1e-17) scores exactly 0.5, because its
    exp rounds to 1."""
    return sigmoid(model._logits(sent_vecs)) >= 0.5


@pytest.fixture(scope="session")
def gen_config():
    return default_config()


@pytest.fixture(scope="session")
def vocab(gen_config):
    return config_vocab(gen_config)


@pytest.fixture(scope="session")
def corpus3000(gen_config):
    return build_offline_corpus(gen_config, np.random.default_rng(7), 3000)


@pytest.fixture(scope="session")
def scope_training(vocab, corpus3000):
    model = ScopeModel(vocab, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        metrics = train_scope(model, corpus3000, epochs=6, lr=0.5, seed=0)
    return model, metrics


@pytest.fixture(scope="session")
def trained_scope(scope_training):
    return scope_training[0]


@pytest.fixture(scope="session")
def emotion_training(vocab, corpus3000):
    model = EmotionModel(vocab, seed=0)
    metrics = train_emotion(model, corpus3000, epochs=12, lr=0.5, seed=0)
    return model, metrics


@pytest.fixture(scope="session")
def trained_emotion(emotion_training):
    return emotion_training[0]
