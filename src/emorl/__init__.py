"""emorl: online improvement of intent models from implicit emotion feedback.

A small numpy library plus CLI: a synthetic email environment produces user
messages and emotionally colored replies; a scope filter keeps the
task-relevant sentences; a three-class emotion model turns scoped replies
into {+1, -1, 0} rewards; and REINFORCE policy-gradient updates improve the
intent policy online, from scratch or from a supervised pretrained
baseline, under full, partial, or noisy feedback.
"""

__version__ = "0.1.0"

from .emotion import EmotionLabel, EmotionModel, classify_emotion, reward_of
from .envsim import (
    EmailMessage,
    Environment,
    FeedbackRegime,
    GeneratorConfig,
    InteractionRecord,
    apply_regime,
    build_offline_corpus,
    config_vocab,
    default_config,
    generate_email,
    respond,
)
from .harness import ExperimentConfig, LearningCurve, run_grid, run_online
from .nn import Network, SGD, apply_update, load_checkpoint, save_checkpoint
from .policy import DEFAULT_VALID_COMBOS, MulticlassPolicy, MultilabelPolicy
from .scope import ScopeModel, ScopedMessage, train_scope
from .text import Vocabulary, build_vocab, insertion_positions, segment

__all__ = [
    "EmotionLabel",
    "EmotionModel",
    "classify_emotion",
    "reward_of",
    "EmailMessage",
    "Environment",
    "FeedbackRegime",
    "GeneratorConfig",
    "InteractionRecord",
    "apply_regime",
    "build_offline_corpus",
    "config_vocab",
    "default_config",
    "generate_email",
    "respond",
    "ExperimentConfig",
    "LearningCurve",
    "run_grid",
    "run_online",
    "Network",
    "SGD",
    "apply_update",
    "load_checkpoint",
    "save_checkpoint",
    "DEFAULT_VALID_COMBOS",
    "MulticlassPolicy",
    "MultilabelPolicy",
    "ScopeModel",
    "ScopedMessage",
    "train_scope",
    "Vocabulary",
    "build_vocab",
    "insertion_positions",
    "segment",
    "__version__",
]
