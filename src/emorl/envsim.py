"""Synthetic email environment.

Generates user emails from phrase templates (task content plus distractor
sub-conversations), reacts to agent actions with replies that may carry
implicit emotion, and degrades the resulting feedback through the full /
partial / partial-noisy regimes. Emotion phrases come in two disjoint
registers: "directed" phrases reacting to the assistant's action (these set
the message's gold emotion) and "general" phrases about unrelated matters,
which leave the gold label Neutral. Every emotion phrase is spliced in at a
position immediately after one of the splitting punctuation marks of the
pre-injection text, and each message records its splices so corpora can be
audited. A generated message keeps only what was drawn; its text is built
when, and if, something reads it.

The environment exposes two emotion channels: "oracle" reads the reply's
gold label (isolating the policy-learning loop), "learned" runs the trained
scope filter and emotion classifier end to end.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from importlib import resources

import numpy as np

from .emotion import EmotionLabel, EmotionModel, classify_emotion, reward_of
from .nn import replacing
from .policy import DEFAULT_VALID_COMBOS, MULTICLASS_ACTIONS
from .scope import ScopedMessage, ScopeModel, gold_scope_texts, in_gold_scope
from .text import SPLIT_PUNCT, Vocabulary, build_vocab, count_features, featurize_texts, segment


class ProtocolError(RuntimeError):
    """Raised when step() is called without a previously served email."""


@dataclass(frozen=True)
class Injection:
    """Audit record of one emotion phrase splice into a base message."""

    phrase: str
    offset: int  # position in the pre-injection text, just after punctuation
    register: str  # "directed" | "general"
    polarity: str  # "pos" | "neg"


@dataclass(frozen=True)
class LabeledSentence:
    text: str
    task_relevant: bool
    directed: str = "none"  # "pos" | "neg" | "none"
    general: str = "none"


@dataclass(frozen=True, eq=False)
class Group:
    """A template's segments, all sharing the template's flags.

    One record per (template, flags) per process (`_instantiate`), so it is
    hashed and compared by identity.
    """

    template: str
    sentences: tuple[LabeledSentence, ...]
    n_task: int  # how many of the sentences are task-relevant: all or none


class EmailMessage:
    """A user email or reply: its gold labels and its sentences.

    A generated message is its draws: `groups`, the template groups of the
    message before any splice, in order; `inserts`, the offline corpus's
    (sentence position, group) inserts into them, in draw order; and
    `picks`, the emotion phrases as (slot, group, register, polarity), the
    slot counting task sentences for a directed phrase and all sentences
    for a general one. `sentences`, `injections` and `base_text` are
    rendered from the draws on first read, so a reader of the gold labels
    or the groups alone builds no text.

    A message built from sentences (a loaded corpus, a test) holds them as
    given; its groups are None, its base text is its text, and it has no
    injections.
    """

    def __init__(self, sentences, gold_intent, gold_emotion, *, groups=None, inserts=(), picks=()):
        self.gold_intent = gold_intent
        self.gold_emotion = gold_emotion
        self.groups = groups
        self.inserts = inserts
        self.picks = picks
        if groups is None:
            self.sentences = sentences

    def _base(self) -> list[LabeledSentence]:
        "The sentences before the emotion splices, in a list of their own."
        if self.groups is None:
            return list(self.sentences)
        base = [s for g in self.groups for s in g.sentences]
        for pos, g in self.inserts:
            base[pos:pos] = g.sentences
        return base

    def _splices(self, base: list[LabeledSentence]) -> list[tuple[int, Group, str, str]]:
        "The picks, each slot resolved to the index in `base` of the sentence its phrase follows."
        out = []
        for slot, group, register, polarity in self.picks:
            if register == "directed":
                slot = [i for i, s in enumerate(base) if s.task_relevant][slot]
            out.append((slot, group, register, polarity))
        return out

    @functools.cached_property
    def sentences(self) -> list[LabeledSentence]:
        sentences = self._base()
        for idx, group, _, _ in sorted(self._splices(sentences), key=lambda p: p[0], reverse=True):
            sentences[idx + 1 : idx + 1] = group.sentences
        return sentences

    @functools.cached_property
    def injections(self) -> list[Injection]:
        base = self._base()
        # the offset just after sentence idx's final punctuation in the base text
        return [
            Injection(group.template, len(" ".join(s.text for s in base[: idx + 1])), register, polarity)
            for idx, group, register, polarity in self._splices(base)
        ]

    @functools.cached_property
    def base_text(self) -> str:
        "The text before the emotion splices."
        return " ".join(s.text for s in self._base())

    @property
    def text(self) -> str:
        return " ".join(s.text for s in self.sentences)


# the tasks, feedback regime kinds and emotion channels a run may name
TASKS = ("multiclass", "multilabel")
REGIME_KINDS = ("full", "partial", "partial_noisy")
CHANNELS = ("oracle", "learned")


@dataclass(frozen=True)
class FeedbackRegime:
    """Availability/quality model of the implicit feedback signal."""

    kind: str
    p: float = 1.0
    wrong_frac: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in REGIME_KINDS:
            raise ValueError(f"unknown regime kind {self.kind!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("feedback probability must lie in (0, 1]")
        if not 0.0 <= self.wrong_frac < 1.0:
            raise ValueError("wrong fraction must lie in [0, 1)")

    @classmethod
    def full(cls) -> "FeedbackRegime":
        return cls("full")

    @classmethod
    def partial(cls, p: float = 0.15) -> "FeedbackRegime":
        return cls("partial", p=p)

    @classmethod
    def partial_noisy(cls, p: float = 0.15, wrong_frac: float = 1.0 / 3.0) -> "FeedbackRegime":
        return cls("partial_noisy", p=p, wrong_frac=wrong_frac)


@dataclass
class InteractionRecord:
    """One online turn; the unit the learning curve is computed from."""

    state: np.ndarray
    action: "int | tuple[int, ...]"
    gold: "int | tuple[int, ...]"
    feedback_present: bool
    observed: EmotionLabel
    reward: float
    correct: bool


# how far from 1 the weights of rng.choice's `p` may sum (numpy's own tolerance)
_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))

# the GeneratorConfig fields that are probabilities in [0, 1]
RATE_FIELDS = (
    "distractor_rate",
    "extra_task_rate",
    "general_rate",
    "corpus_followup_rate",
    "corpus_other_rate",
    "q_pos",
    "q_neg",
    "pretrain_template_frac",
)


@dataclass
class GeneratorConfig:
    """Everything the synthetic generator needs: templates, lexicons, rates."""

    task: str = "multiclass"
    intent_templates: dict = field(default_factory=dict)  # name -> [templates]
    multiclass_intents: tuple[str, ...] = MULTICLASS_ACTIONS
    bit_templates: list = field(default_factory=list)  # one pool per action bit
    valid_combos: tuple[tuple[int, ...], ...] = DEFAULT_VALID_COMBOS
    intent_prior: tuple[float, ...] | None = None
    distractor_templates: list = field(default_factory=list)
    followup_templates: list = field(default_factory=list)
    directed_pos: list = field(default_factory=list)
    directed_neg: list = field(default_factory=list)
    general_pos: list = field(default_factory=list)
    general_neg: list = field(default_factory=list)
    distractor_rate: float = 0.5
    max_distractors: int = 3
    extra_task_rate: float = 0.35
    general_rate: float = 0.3
    corpus_followup_rate: float = 0.5
    corpus_other_rate: float = 0.35
    q_pos: float = 0.8
    q_neg: float = 0.9
    vocab_size: int = 2048
    pretrain_template_frac: float = 0.45
    pretrain_intent_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        for name in RATE_FIELDS:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        directed = set(self.directed_pos) | set(self.directed_neg)
        general = set(self.general_pos) | set(self.general_neg)
        if directed & general:
            raise ValueError("directed and general emotion lexicons must be disjoint")
        for template in self.all_template_text():
            if not template or template[-1] not in SPLIT_PUNCT:
                raise ValueError(f"template must end with splitting punctuation: {template!r}")
        if self.max_distractors < 0:
            raise ValueError(f"max_distractors must be at least 0, got {self.max_distractors}")
        if self.vocab_size < 1:
            raise ValueError(f"vocab_size must be at least 1, got {self.vocab_size}")
        if self.intent_prior is not None and len(self.intent_prior) != self.n_intents:
            raise ValueError(
                f"intent_prior needs {self.n_intents} entries, one per {self.task} intent, got {len(self.intent_prior)}"
            )
        # the length of pretrain_intent_weights is ExperimentConfig's to settle
        for name in ("intent_prior", "pretrain_intent_weights"):
            weights = getattr(self, name)
            if weights is None:
                continue
            if not all(math.isfinite(w) and w >= 0.0 for w in weights) or abs(math.fsum(weights) - 1.0) > _SUM_TOLERANCE:
                raise ValueError(f"{name} must be finite non-negative weights summing to 1, got {weights}")

    @property
    def n_intents(self) -> int:
        "How many intents the task draws from: the multiclass intents, or the valid multilabel combinations."
        return len(self.multiclass_intents) if self.task == "multiclass" else len(self.valid_combos)

    def all_template_text(self) -> list[str]:
        "Every template of every pool, in pool order."
        pools = [self.intent_templates[n] for n in self.multiclass_intents if n in self.intent_templates]
        pools += list(self.bit_templates)
        pools += [
            self.distractor_templates,
            self.followup_templates,
            self.directed_pos,
            self.directed_neg,
            self.general_pos,
            self.general_neg,
        ]
        return [template for pool in pools for template in pool]


def default_config(task: str = "multiclass", **overrides) -> GeneratorConfig:
    "Generator configuration backed by the phrase templates shipped as data."
    raw = json.loads(resources.files("emorl.data").joinpath("templates.json").read_text("utf-8"))
    if task == "multiclass":
        # skew calibrated so the pretrained baseline lands in the 55-70% band
        overrides.setdefault("pretrain_intent_weights", (0.55, 0.35, 0.10))
    cfg = GeneratorConfig(
        task=task,
        intent_templates=raw["intent_templates"],
        multiclass_intents=tuple(raw["multiclass_intents"]),
        bit_templates=raw["bit_templates"],
        distractor_templates=raw["distractor_templates"],
        followup_templates=raw["followup_templates"],
        directed_pos=raw["directed_pos"],
        directed_neg=raw["directed_neg"],
        general_pos=raw["general_pos"],
        general_neg=raw["general_neg"],
    )
    return replace(cfg, **overrides)


def config_vocab(config: GeneratorConfig) -> Vocabulary:
    "Deterministic vocabulary over every template the generator can emit."
    return build_vocab(config.all_template_text(), config.vocab_size)


# -- message assembly ------------------------------------------------------


@functools.cache
def _instantiate(template: str, task_relevant: bool, directed: str = "none", general: str = "none") -> Group:
    "The template's group: it is segmented once per process, and every message shares the record."
    sentences = tuple(
        LabeledSentence(text=s.text, task_relevant=task_relevant, directed=directed, general=general)
        for s in segment(template)
    )
    return Group(template, sentences, len(sentences) if task_relevant else 0)


def _with_distractors(config: GeneratorConfig, rng: np.random.Generator, groups: list[Group]) -> list[Group]:
    "`groups` plus a binomial number of distractor templates, in a random order."
    n_distract = int(rng.binomial(config.max_distractors, config.distractor_rate))
    for template in _draw_templates(config.distractor_templates, rng, n_distract):
        groups.append(_instantiate(template, False))
    # the same draws, order and generator state as [groups[i] for i in rng.permutation(len(groups))], for less
    rng.shuffle(groups)
    return groups


_POLARITY_LABEL = {"pos": EmotionLabel.POSITIVE, "neg": EmotionLabel.NEGATIVE, "none": EmotionLabel.NEUTRAL}


def _with_emotion(
    config: GeneratorConfig, rng: np.random.Generator, groups: list[Group], gold_intent, directed: str, inserts=()
) -> EmailMessage:
    """The message of `groups` and `inserts` with emotion phrases spliced in.

    A `directed` ("pos" or "neg") phrase lands right after a task sentence
    and sets the gold emotion; "none" leaves it Neutral. Then, with
    probability general_rate, a general-register phrase of either polarity
    lands after any sentence. A slot is drawn from the groups' sentence
    counts alone; the message places the phrases, and records their
    offsets against the pre-injection text, when it is rendered.
    """
    base = [*groups, *(group for _, group in inserts)] if inserts else groups
    picks = []
    if directed != "none":
        pool = config.directed_pos if directed == "pos" else config.directed_neg
        phrase = pool[int(rng.integers(len(pool)))]
        slot = int(rng.integers(sum(g.n_task for g in base)))
        picks.append((slot, _instantiate(phrase, False, directed), "directed", directed))
    if rng.random() < config.general_rate:
        pol = "pos" if rng.random() < 0.5 else "neg"
        pool = config.general_pos if pol == "pos" else config.general_neg
        phrase = pool[int(rng.integers(len(pool)))]
        slot = int(rng.integers(sum(len(g.sentences) for g in base)))
        picks.append((slot, _instantiate(phrase, False, "none", pol), "general", pol))
    return EmailMessage(
        None, gold_intent, _POLARITY_LABEL[directed], groups=groups, inserts=tuple(inserts), picks=tuple(picks)
    )


def _draw_templates(pool: list, rng: np.random.Generator, k: int) -> list[str]:
    if k <= 0:
        return []
    n = len(pool)
    if k == 1:
        # the same value and generator state as rng.choice(n, size=1, replace=False), at a fifth of its cost
        return [pool[int(rng.integers(n))]]
    if k == 2 and n >= 2:
        # rng.choice(n, size=2, replace=False)'s draws, for less: Floyd's algorithm
        # (a value drawn again is replaced by the bound), then its one-swap shuffle
        first, second = int(rng.integers(n - 1)), int(rng.integers(n))
        pair = [pool[first], pool[n - 1 if second == first else second]]
        return pair if rng.integers(2) else pair[::-1]
    return [pool[int(i)] for i in rng.choice(n, size=k, replace=k > n)]


def normalize_intent(config: GeneratorConfig, intent) -> "int | tuple[int, ...]":
    if config.task == "multiclass":
        intent = int(intent)
        if not 0 <= intent < len(config.multiclass_intents):
            raise ValueError(f"unknown multiclass intent {intent}")
        return intent
    combo = tuple(int(b) for b in intent)
    if combo not in config.valid_combos:
        raise ValueError(f"unknown intent combination {combo}")
    return combo


def draw_intent(config: GeneratorConfig, rng: np.random.Generator) -> "int | tuple[int, ...]":
    prior = config.intent_prior
    # with no prior, rng.integers(n) draws what rng.choice(n) does, for less
    idx = int(rng.choice(config.n_intents, p=prior)) if prior is not None else int(rng.integers(config.n_intents))
    return idx if config.task == "multiclass" else config.valid_combos[idx]


def generate_email(config: GeneratorConfig, rng: np.random.Generator, intent) -> EmailMessage:
    """One synthetic user email realizing `intent`, plus distractor chatter.

    Deterministic under a fixed generator state. Sentences realizing a task
    intent are flagged task-relevant; "other" content and distractors are
    not.
    """
    intent = normalize_intent(config, intent)
    groups: list[Group] = []
    if config.task == "multiclass":
        name = config.multiclass_intents[intent]
        relevant = name != "other"
        n_task = 1 + int(rng.random() < config.extra_task_rate)
        for template in _draw_templates(config.intent_templates[name], rng, n_task):
            groups.append(_instantiate(template, relevant))
    else:
        for bit, on in enumerate(intent):
            if on:
                template = _draw_templates(config.bit_templates[bit], rng, 1)[0]
                groups.append(_instantiate(template, True))
    return EmailMessage(None, intent, EmotionLabel.NEUTRAL, groups=_with_distractors(config, rng, groups))


def respond(config: GeneratorConfig, rng: np.random.Generator, gold, taken) -> EmailMessage:
    """The user's reply to the agent's action.

    `gold` is a normalized intent, as a generated email's gold_intent is. A
    correct action draws a directed-positive phrase with probability q_pos,
    a wrong one a directed-negative phrase with probability q_neg;
    otherwise the reply stays neutral. Directed phrases land immediately
    after a task sentence; a general-register phrase may land after any
    sentence. The gold emotion label reflects only the directed injection.
    """
    followup = _draw_templates(config.followup_templates, rng, 1)[0]
    groups = _with_distractors(config, rng, [_instantiate(followup, True)])
    if taken == gold:
        directed = "pos" if rng.random() < config.q_pos else "none"
    else:
        directed = "neg" if rng.random() < config.q_neg else "none"
    return _with_emotion(config, rng, groups, gold, directed)


def apply_regime(
    regime: FeedbackRegime, rng: np.random.Generator, true_label: EmotionLabel
) -> tuple[bool, EmotionLabel]:
    """Pass the true emotion label through the feedback availability model.

    Full never alters the label. Partial delivers it with probability p,
    unchanged. Partial-noisy additionally corrupts a delivered label with
    probability wrong_frac: Positive and Negative swap, Neutral becomes
    Positive or Negative uniformly. Absent feedback reports Neutral.
    """
    if regime.kind == "full":
        return True, true_label
    if rng.random() >= regime.p:
        return False, EmotionLabel.NEUTRAL
    label = true_label
    if regime.kind == "partial_noisy" and rng.random() < regime.wrong_frac:
        if label is EmotionLabel.POSITIVE:
            label = EmotionLabel.NEGATIVE
        elif label is EmotionLabel.NEGATIVE:
            label = EmotionLabel.POSITIVE
        else:
            label = EmotionLabel.POSITIVE if rng.random() < 0.5 else EmotionLabel.NEGATIVE
    return True, label


# -- offline corpora --------------------------------------------------------


def _task_intents(config: GeneratorConfig) -> list:
    if config.task == "multiclass":
        return [i for i, name in enumerate(config.multiclass_intents) if name != "other"]
    return list(config.valid_combos)


def build_offline_corpus(config: GeneratorConfig, rng: np.random.Generator, n: int) -> list[EmailMessage]:
    """Labeled corpus for scope and emotion training.

    Emails with task content are built first, then emotion phrases are
    injected at punctuation-adjacent positions: directed phrases (adjacent
    to a task sentence) define the Positive/Negative labels; samples whose
    only emotion content is general-register stay Neutral. Classes are
    balanced exactly by round-robin assignment before shuffling.
    """
    if n <= 0:
        raise ValueError("corpus size must be positive")
    # the directed polarity of each sample's emotion class
    polarities = np.array(["pos", "neg", "none"], dtype=object)[np.arange(n) % 3]
    rng.shuffle(polarities)
    task_pool = _task_intents(config)
    out: list[EmailMessage] = []
    for directed in polarities:
        intent = task_pool[int(rng.integers(len(task_pool)))]
        email = generate_email(config, rng, intent)
        n_sentences = sum(len(g.sentences) for g in email.groups)
        inserts = []
        if rng.random() < config.corpus_followup_rate:
            group = _instantiate(_draw_templates(config.followup_templates, rng, 1)[0], True)
            inserts.append((int(rng.integers(n_sentences + 1)), group))
            n_sentences += len(group.sentences)
        if config.task == "multiclass" and rng.random() < config.corpus_other_rate:
            group = _instantiate(_draw_templates(config.intent_templates["other"], rng, 1)[0], False)
            inserts.append((int(rng.integers(n_sentences + 1)), group))
        out.append(_with_emotion(config, rng, email.groups, email.gold_intent, directed, inserts))
    return out


def draw_pretrain_set(config: GeneratorConfig, rng: np.random.Generator, n: int) -> list[EmailMessage]:
    """Small, skewed supervised sample: intents drawn with the pretrain
    weights and templates restricted to a leading fraction of each pool,
    the desk-scale analog of limited, domain-mismatched labeled data."""
    if n <= 0:
        raise ValueError("pretrain subset size must be positive")

    def restrict(pool: list) -> list:
        return pool[: max(1, round(config.pretrain_template_frac * len(pool)))]

    cfg = replace(
        config,
        intent_templates={k: restrict(v) for k, v in config.intent_templates.items()},
        bit_templates=[restrict(p) for p in config.bit_templates],
        intent_prior=config.pretrain_intent_weights,
    )
    return [generate_email(cfg, rng, draw_intent(cfg, rng)) for _ in range(n)]


# -- corpus serialization ----------------------------------------------------


def corpus_to_jsonl(corpus: list[EmailMessage], path) -> None:
    "One message per line; stable field order; UTF-8; replaces `path` whole."
    with replacing(path, encoding="utf-8") as f:
        for m in corpus:
            rec = {
                "text": m.text,
                "sentences": [asdict(s) for s in m.sentences],
                "intent": list(m.gold_intent) if isinstance(m.gold_intent, tuple) else m.gold_intent,
                "emotion": m.gold_emotion.name.lower(),
            }
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def corpus_from_jsonl(path) -> list[EmailMessage]:
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            sentences = [LabeledSentence(**s) for s in rec["sentences"]]
            intent = tuple(rec["intent"]) if isinstance(rec["intent"], list) else rec["intent"]
            out.append(EmailMessage(sentences, intent, EmotionLabel[rec["emotion"].upper()]))
    return out


# -- the environment ----------------------------------------------------------


class Environment:
    """Serve/step interaction loop around one generator and one regime.

    serve() draws an intent, generates the email, and featurizes the scoped
    message into the policy state; step(action) produces the user reply,
    extracts the (oracle or learned) emotion, applies the feedback regime,
    and returns the interaction record.

    On the learned channel a message's keep mask is the scope model's
    `keep_mask` of its sentence texts, as `ScopeModel.scope` decides it.
    Per template group the environment keeps the in-vocabulary ids of the
    group's gold-scope sentences, from which the oracle state of a
    generated message is counted without rendering it; per tuple of kept
    reply texts, the emotion label: about 100 entries under a trained
    filter, up to one per reply (about 200 B each) under one that keeps
    everything. The labels assume the emotion model does not change while
    the environment uses it: after retraining it, build a new Environment.
    """

    def __init__(
        self,
        config: GeneratorConfig,
        seed=0,
        regime: FeedbackRegime | None = None,
        channel: str = "oracle",
        scope_model: ScopeModel | None = None,
        emotion_model: EmotionModel | None = None,
    ):
        if channel not in CHANNELS:
            raise ValueError(f"unknown emotion channel {channel!r}")
        if channel == "learned":
            if scope_model is None:
                raise ValueError("learned channel requires a scope model (run the train-scope stage first)")
            if emotion_model is None:
                raise ValueError("learned channel requires an emotion model (run the train-emotion stage first)")
        self.config = config
        self.regime = regime if regime is not None else FeedbackRegime.full()
        self.channel = channel
        self.scope_model = scope_model
        self.emotion_model = emotion_model
        self.vocab = config_vocab(config)
        for name, model in (("scope", scope_model), ("emotion", emotion_model)):
            # token ids index the models' weights, so the tables must agree id for id
            if model is not None and model.vocab.id_to_token != self.vocab.id_to_token:
                raise ValueError(f"the {name} model's vocabulary differs from the generator's (config_vocab)")
        self.rng = np.random.default_rng(seed)
        self._pending: tuple[EmailMessage, np.ndarray] | None = None
        self._labels: dict[tuple[str, ...], EmotionLabel] = {}
        self._gold_ids: dict[Group, tuple[int, ...]] = {}

    def scoped_texts(self, message: EmailMessage) -> list[str]:
        if self.channel == "oracle":
            return gold_scope_texts(message)
        texts = [s.text for s in message.sentences]
        return [t for t, keep in zip(texts, self.scope_model.keep_mask(texts)) if keep]

    def _group_ids(self, group: Group) -> tuple[int, ...]:
        "The in-vocabulary token ids of a group's gold-scope sentences."
        ids = self._gold_ids.get(group)
        if ids is None:
            ids = self._gold_ids[group] = tuple(
                i for s in group.sentences if in_gold_scope(s) for i in self.vocab.counted_ids(s.text)
            )
        return ids

    def featurize_email(self, message: EmailMessage) -> np.ndarray:
        "`featurize_texts(self.scoped_texts(message), self.vocab)`, on the oracle channel from the groups' ids."
        if self.channel == "oracle" and message.groups is not None:
            # the gold scope of a generated message is its groups' gold-scope
            # sentences, and counts do not depend on the order they are taken in
            group_ids = self._group_ids
            groups = message.groups
            if message.inserts or message.picks:
                groups = [*groups, *(g for _, g in message.inserts), *(p[1] for p in message.picks)]
            return count_features([i for g in groups for i in group_ids(g)], self.vocab.size)
        return featurize_texts(self.scoped_texts(message), self.vocab)

    def emotion_of(self, reply: EmailMessage) -> EmotionLabel:
        "The reply's true emotion: its gold label, or on the learned channel the classifier's label of its scope."
        if self.channel == "oracle":
            return reply.gold_emotion
        texts = [s.text for s in reply.sentences]
        mask = self.scope_model.keep_mask(texts)
        kept = tuple(t for t, keep in zip(texts, mask) if keep)
        label = self._labels.get(kept)
        if label is None:
            scoped = ScopedMessage(self.scope_model.sentences(reply), mask)
            label = self._labels[kept] = classify_emotion(self.emotion_model, scoped)[0]
        return label

    def serve(self) -> tuple[EmailMessage, np.ndarray]:
        intent = draw_intent(self.config, self.rng)
        email = generate_email(self.config, self.rng, intent)
        state = self.featurize_email(email)
        self._pending = (email, state)
        return email, state

    def step(self, action) -> InteractionRecord:
        if self._pending is None:
            raise ProtocolError("step() called with no served email pending")
        email, state = self._pending
        self._pending = None
        gold = email.gold_intent
        taken = tuple(int(b) for b in action) if self.config.task == "multilabel" else int(action)
        reply = respond(self.config, self.rng, gold, taken)
        present, observed = apply_regime(self.regime, self.rng, self.emotion_of(reply))
        return InteractionRecord(
            state=state,
            action=taken,
            gold=gold,
            feedback_present=present,
            observed=observed,
            reward=reward_of(observed),
            correct=taken == gold,
        )
