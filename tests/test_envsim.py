import functools
import tempfile
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorl import envsim
from emorl.emotion import EmotionLabel, EmotionModel, classify_emotion
from emorl.envsim import (
    EmailMessage,
    Environment,
    FeedbackRegime,
    LabeledSentence,
    ProtocolError,
    apply_regime,
    build_offline_corpus,
    config_vocab,
    corpus_from_jsonl,
    corpus_to_jsonl,
    default_config,
    draw_intent,
    draw_pretrain_set,
    generate_email,
    respond,
)
from emorl.harness import ExperimentConfig, run_online
from emorl.nn import sigmoid
from emorl.policy import MulticlassPolicy
from emorl.scope import ScopeModel, gold_scope_texts, train_scope
from emorl.text import Vocabulary, featurize_texts, insertion_positions, segment, tokenize

from conftest import exact_keep


# -- configuration ------------------------------------------------------------


def test_default_config_validates(gen_config):
    assert gen_config.task == "multiclass"
    assert len(gen_config.valid_combos) == 6
    assert len(set(gen_config.valid_combos)) == 6


def test_lexicons_must_be_disjoint(gen_config):
    with pytest.raises(ValueError, match="disjoint"):
        replace(gen_config, general_pos=list(gen_config.general_pos) + [gen_config.directed_pos[0]])


def test_templates_must_end_with_split_punctuation(gen_config):
    with pytest.raises(ValueError, match="punctuation"):
        replace(gen_config, distractor_templates=["no trailing mark"])


def test_rates_validated(gen_config):
    with pytest.raises(ValueError):
        replace(gen_config, q_pos=1.5)
    with pytest.raises(ValueError):
        FeedbackRegime("partial", p=0.0)
    with pytest.raises(ValueError):
        FeedbackRegime("partial_noisy", p=0.15, wrong_frac=1.0)
    with pytest.raises(ValueError):
        FeedbackRegime("sometimes")


def test_config_vocab_deterministic(gen_config):
    assert config_vocab(gen_config).id_to_token == config_vocab(gen_config).id_to_token


# -- email generation ---------------------------------------------------------


def test_generate_email_deterministic(gen_config):
    a = generate_email(gen_config, np.random.default_rng(5), 0)
    b = generate_email(gen_config, np.random.default_rng(5), 0)
    assert a.text == b.text
    assert a.sentences == b.sentences


def test_generate_email_unknown_intent(gen_config):
    with pytest.raises(ValueError, match="unknown"):
        generate_email(gen_config, np.random.default_rng(0), 7)
    ml = default_config(task="multilabel")
    with pytest.raises(ValueError, match="unknown"):
        generate_email(ml, np.random.default_rng(0), (1, 1, 1, 1, 1, 1))


def test_zero_distractor_rate_task_intents_fully_relevant(gen_config):
    cfg = replace(gen_config, distractor_rate=0.0)
    rng = np.random.default_rng(1)
    for intent in (0, 1):
        for _ in range(10):
            email = generate_email(cfg, rng, intent)
            assert all(s.task_relevant for s in email.sentences)
    ml = default_config(task="multilabel", distractor_rate=0.0)
    for combo in ml.valid_combos:
        email = generate_email(ml, rng, combo)
        assert all(s.task_relevant for s in email.sentences)


def test_other_intent_has_no_task_relevant_sentences(gen_config):
    rng = np.random.default_rng(2)
    email = generate_email(gen_config, rng, 2)
    assert not any(s.task_relevant for s in email.sentences)


def test_multilabel_email_realizes_every_set_bit():
    cfg = default_config(task="multilabel", distractor_rate=0.0)
    rng = np.random.default_rng(3)
    combo = (1, 1, 0, 0, 0, 0)
    email = generate_email(cfg, rng, combo)
    text = email.text
    pools = [set(" ".join(p).lower().split()) for p in cfg.bit_templates]
    assert email.gold_intent == combo
    assert len(email.sentences) >= 2


def test_intent_distribution_matches_prior(gen_config):
    rng = np.random.default_rng(4)
    counts = Counter(draw_intent(gen_config, rng) for _ in range(10000))
    for intent in range(3):
        assert abs(counts[intent] / 10000 - 1 / 3) < 0.02
    skewed = replace(gen_config, intent_prior=(0.5, 0.3, 0.2))
    counts = Counter(draw_intent(skewed, rng) for _ in range(10000))
    for intent, p in enumerate((0.5, 0.3, 0.2)):
        assert abs(counts[intent] / 10000 - p) < 0.02


@functools.cache
def _task_env(task):
    "One environment and scope model per task, so the vocabulary's token-id table is shared across examples."
    env = Environment(default_config(task), seed=0)
    return env, ScopeModel(env.vocab)


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), task=st.sampled_from(["multiclass", "multilabel"]))
def test_labeled_segments_match_resegmentation(seed, task):
    # the learned channel scopes a message's own sentences in place of segment(m.text, vocab)
    env, scope_model = _task_env(task)
    rng = np.random.default_rng(seed)
    email = generate_email(env.config, rng, draw_intent(env.config, rng))
    taken = draw_intent(env.config, rng)
    messages = [email, respond(env.config, rng, email.gold_intent, taken)]
    messages += build_offline_corpus(env.config, rng, 3)
    with tempfile.TemporaryDirectory() as tmp:
        corpus_to_jsonl(messages, Path(tmp) / "corpus.jsonl")
        messages += corpus_from_jsonl(Path(tmp) / "corpus.jsonl")
    for m in messages:
        assert [s.text for s in segment(m.text, env.vocab)] == [s.text for s in m.sentences]
        own, resegmented = scope_model.scope(m.sentences), scope_model.scope(segment(m.text, env.vocab))
        assert own.keep_mask == resegmented.keep_mask
        assert own.kept_texts == resegmented.kept_texts


_LEADING_DRAWS = st.lists(st.sampled_from(["random", "integers"]), max_size=4)


def _advance(rng, draws):
    # 32-bit draws leave half a 64-bit word buffered, which the next bounded draw may use
    for kind in draws:
        rng.random() if kind == "random" else rng.integers(2**31)


@settings(max_examples=500, deadline=None, database=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 64), draws=_LEADING_DRAWS)
def test_single_draws_equal_rng_choice(gen_config, seed, n, draws):
    pool = [f"template {i}." for i in range(n)]
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    _advance(fast, draws)
    _advance(ref, draws)
    assert envsim._draw_templates(pool, fast, 1) == [pool[int(ref.choice(n, size=1, replace=False)[0])]]
    assert fast.bit_generator.state == ref.bit_generator.state
    for k in (2, 3):
        assert envsim._draw_templates(pool, fast, k) == [pool[int(i)] for i in ref.choice(n, size=k, replace=k > n)]
        assert fast.bit_generator.state == ref.bit_generator.state
    config = replace(gen_config, multiclass_intents=tuple(f"intent{i}" for i in range(n)), intent_prior=None)
    assert draw_intent(config, fast) == int(ref.choice(n))
    assert fast.bit_generator.state == ref.bit_generator.state


def test_templates_are_segmented_once_per_process(gen_config, trained_scope, trained_emotion, monkeypatch):
    config = ExperimentConfig(interactions=200, eval_every=100, window=100, eval_size=20, seeds=(1,))
    scoped = dict(channel="learned", scope_model=trained_scope, emotion_model=trained_emotion)

    def loop():
        env = Environment(gen_config, seed=5, **scoped)
        for _ in range(100):
            env.serve()
            env.step(0)

    run_online(config, 1)
    loop()
    calls = []
    monkeypatch.setattr(envsim, "segment", lambda *a, **k: calls.append(a) or segment(*a, **k))
    run_online(config, 1)
    loop()
    assert calls == []

    assert envsim._instantiate("Hello there, friend.", True) is envsim._instantiate("Hello there, friend.", True)
    # one group and no distractors: the message is most nearly the cached tuple itself
    lone = replace(gen_config, distractor_rate=0.0, extra_task_rate=0.0)
    for make in (lambda rng: generate_email(lone, rng, 0), lambda rng: respond(lone, rng, 0, 0)):
        first = make(np.random.default_rng(3))
        kept = list(first.sentences)
        first.sentences.reverse()
        first.sentences.append(first.sentences[0])
        assert make(np.random.default_rng(3)).sentences == kept


# -- the draw path against the eager builders ---------------------------------
# The builders below render each message in full as they draw it, as the
# package did before a message kept only its draws. They stay here as the
# reference the draw path is held to: field for field, and generator state
# for generator state.

_LABEL = {"pos": EmotionLabel.POSITIVE, "neg": EmotionLabel.NEGATIVE, "none": EmotionLabel.NEUTRAL}


def _eager_segments(template, task_relevant, directed="none", general="none"):
    return [LabeledSentence(s.text, task_relevant, directed, general) for s in segment(template)]


def _eager_with_distractors(config, rng, groups):
    n_distract = int(rng.binomial(config.max_distractors, config.distractor_rate))
    for template in envsim._draw_templates(config.distractor_templates, rng, n_distract):
        groups.append(_eager_segments(template, False))
    return [s for gi in rng.permutation(len(groups)) for s in groups[int(gi)]]


def _eager_message(sentences, gold_intent, directed="none", base=None, injections=()):
    base = sentences if base is None else base
    return {
        "sentences": sentences,
        "text": " ".join(s.text for s in sentences),
        "base_text": " ".join(s.text for s in base),
        "injections": list(injections),
        "gold_intent": gold_intent,
        "gold_emotion": _LABEL[directed],
    }


def _eager_with_emotion(config, rng, base, gold_intent, directed):
    picks = []
    if directed != "none":
        pool = config.directed_pos if directed == "pos" else config.directed_neg
        phrase = pool[int(rng.integers(len(pool)))]
        task_slots = [i for i, s in enumerate(base) if s.task_relevant]
        picks.append((task_slots[int(rng.integers(len(task_slots)))], phrase, "directed", directed))
    if rng.random() < config.general_rate:
        pol = "pos" if rng.random() < 0.5 else "neg"
        pool = config.general_pos if pol == "pos" else config.general_neg
        phrase = pool[int(rng.integers(len(pool)))]
        picks.append((int(rng.integers(len(base))), phrase, "general", pol))
    injections = [
        envsim.Injection(phrase, len(" ".join(s.text for s in base[: idx + 1])), register, polarity)
        for idx, phrase, register, polarity in picks
    ]
    sentences = list(base)
    for idx, phrase, register, polarity in sorted(picks, key=lambda p: p[0], reverse=True):
        sentences[idx + 1 : idx + 1] = _eager_segments(phrase, False, **{register: polarity})
    return _eager_message(sentences, gold_intent, directed, base, injections)


def _eager_email(config, rng, intent):
    intent = envsim.normalize_intent(config, intent)
    groups = []
    if config.task == "multiclass":
        name = config.multiclass_intents[intent]
        n_task = 1 + int(rng.random() < config.extra_task_rate)
        for template in envsim._draw_templates(config.intent_templates[name], rng, n_task):
            groups.append(_eager_segments(template, name != "other"))
    else:
        for bit, on in enumerate(intent):
            if on:
                groups.append(_eager_segments(envsim._draw_templates(config.bit_templates[bit], rng, 1)[0], True))
    return _eager_message(_eager_with_distractors(config, rng, groups), intent)


def _eager_reply(config, rng, gold, taken):
    followup = envsim._draw_templates(config.followup_templates, rng, 1)[0]
    base = _eager_with_distractors(config, rng, [_eager_segments(followup, True)])
    if taken == gold:
        directed = "pos" if rng.random() < config.q_pos else "none"
    else:
        directed = "neg" if rng.random() < config.q_neg else "none"
    return _eager_with_emotion(config, rng, base, gold, directed)


def _eager_corpus(config, rng, n):
    polarities = np.array(["pos", "neg", "none"], dtype=object)[np.arange(n) % 3]
    rng.shuffle(polarities)
    task_pool = envsim._task_intents(config)
    out = []
    for directed in polarities:
        email = _eager_email(config, rng, task_pool[int(rng.integers(len(task_pool)))])
        base = list(email["sentences"])
        if rng.random() < config.corpus_followup_rate:
            template = envsim._draw_templates(config.followup_templates, rng, 1)[0]
            pos = int(rng.integers(len(base) + 1))
            base[pos:pos] = _eager_segments(template, True)
        if config.task == "multiclass" and rng.random() < config.corpus_other_rate:
            template = envsim._draw_templates(config.intent_templates["other"], rng, 1)[0]
            pos = int(rng.integers(len(base) + 1))
            base[pos:pos] = _eager_segments(template, False)
        out.append(_eager_with_emotion(config, rng, base, email["gold_intent"], directed))
    return out


_FIELDS = ("sentences", "text", "base_text", "injections", "gold_intent", "gold_emotion")

# the defaults; every draw at its most frequent (two picks may share a slot); no distractor or phrase at all
_RATES = [
    {},
    dict(distractor_rate=1.0, extra_task_rate=1.0, general_rate=1.0, corpus_followup_rate=1.0, corpus_other_rate=1.0),
    dict(distractor_rate=0.0, extra_task_rate=0.0, general_rate=0.0, q_pos=0.0, q_neg=0.0),
]


@settings(max_examples=80, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    task=st.sampled_from(["multiclass", "multilabel"]),
    rates=st.sampled_from(_RATES),
    order=st.permutations(_FIELDS),
)
def test_drawn_messages_render_as_the_eager_builders(seed, task, rates, order):
    # the fields are read in a drawn order, as each is rendered on its first read
    config = default_config(task, **rates)
    drawn, eager = np.random.default_rng(seed), np.random.default_rng(seed)

    def check(messages, expected):
        for message, fields in zip(messages, expected, strict=True):
            assert message.groups is not None
            for name in order:
                assert getattr(message, name) == fields[name], name
        assert drawn.bit_generator.state == eager.bit_generator.state

    intent, taken = draw_intent(config, drawn), draw_intent(config, drawn)
    draw_intent(config, eager), draw_intent(config, eager)
    email = generate_email(config, drawn, intent)
    check([email], [_eager_email(config, eager, intent)])
    check([respond(config, drawn, email.gold_intent, taken)], [_eager_reply(config, eager, email.gold_intent, taken)])
    check(build_offline_corpus(config, drawn, 4), _eager_corpus(config, eager, 4))


# -- replies ------------------------------------------------------------------


def test_forced_positive_reply(gen_config):
    cfg = replace(gen_config, q_pos=1.0, q_neg=1.0)
    rng = np.random.default_rng(7)
    reply = respond(cfg, rng, gold=0, taken=0)
    assert reply.gold_emotion is EmotionLabel.POSITIVE
    assert any(s.directed == "pos" for s in reply.sentences)


def test_forced_negative_reply(gen_config):
    cfg = replace(gen_config, q_pos=1.0, q_neg=1.0)
    rng = np.random.default_rng(8)
    reply = respond(cfg, rng, gold=0, taken=2)
    assert reply.gold_emotion is EmotionLabel.NEGATIVE
    assert any(s.directed == "neg" for s in reply.sentences)


def test_silent_user_always_neutral(gen_config):
    cfg = replace(gen_config, q_pos=0.0, q_neg=0.0)
    rng = np.random.default_rng(9)
    for taken in (0, 1, 2):
        reply = respond(cfg, rng, gold=0, taken=taken)
        assert reply.gold_emotion is EmotionLabel.NEUTRAL
        assert not any(s.directed != "none" for s in reply.sentences)


def test_neutral_iff_no_directed_emotion(gen_config):
    rng = np.random.default_rng(10)
    for _ in range(200):
        reply = respond(gen_config, rng, gold=0, taken=int(rng.integers(3)))
        has_directed = any(s.directed != "none" for s in reply.sentences)
        assert (reply.gold_emotion is EmotionLabel.NEUTRAL) == (not has_directed)


def test_directed_phrase_lands_after_task_sentence(gen_config):
    cfg = replace(gen_config, q_pos=1.0, q_neg=1.0)
    rng = np.random.default_rng(11)
    for _ in range(100):
        reply = respond(cfg, rng, gold=0, taken=int(rng.integers(3)))
        directed = [inj for inj in reply.injections if inj.register == "directed"]
        assert len(directed) == 1
        offset = directed[0].offset
        # the character before the splice point closes a task-relevant segment
        base = reply.base_text
        assert offset in insertion_positions(base)
        prefix_segments = segment(base[:offset])
        tail = prefix_segments[-1].text
        task_texts = {s.text for s in reply.sentences if s.task_relevant}
        assert tail in task_texts


def test_injection_offsets_are_insertion_positions(gen_config):
    rng = np.random.default_rng(12)
    corpus = build_offline_corpus(gen_config, rng, 300)
    for m in corpus:
        positions = set(insertion_positions(m.base_text))
        for inj in m.injections:
            assert inj.offset in positions


# -- feedback regimes ---------------------------------------------------------


def test_full_regime_is_identity(gen_config):
    rng = np.random.default_rng(13)
    for label in EmotionLabel:
        for _ in range(20):
            present, observed = apply_regime(FeedbackRegime.full(), rng, label)
            assert present and observed is label


def test_partial_regime_rate(gen_config):
    rng = np.random.default_rng(14)
    n = 20000
    hits = 0
    for _ in range(n):
        present, observed = apply_regime(FeedbackRegime.partial(), rng, EmotionLabel.POSITIVE)
        if present:
            assert observed is EmotionLabel.POSITIVE  # partial never corrupts
            hits += 1
    assert abs(hits / n - 0.15) < 0.01


def test_absent_feedback_reports_neutral():
    rng = np.random.default_rng(15)
    regime = FeedbackRegime.partial(p=0.01)
    seen_absent = False
    for _ in range(500):
        present, observed = apply_regime(regime, rng, EmotionLabel.NEGATIVE)
        if not present:
            assert observed is EmotionLabel.NEUTRAL
            seen_absent = True
    assert seen_absent


def test_noisy_regime_swaps_polarity(gen_config):
    rng = np.random.default_rng(16)
    regime = FeedbackRegime.partial_noisy(p=1.0, wrong_frac=1 / 3)
    flips = Counter()
    n = 30000
    for _ in range(n):
        _, observed = apply_regime(regime, rng, EmotionLabel.POSITIVE)
        flips[observed] += 1
    assert flips[EmotionLabel.NEUTRAL] == 0  # positive corrupts to negative only
    assert abs(flips[EmotionLabel.NEGATIVE] / n - 1 / 3) < 0.01
    neutral_flips = Counter()
    for _ in range(n):
        _, observed = apply_regime(regime, rng, EmotionLabel.NEUTRAL)
        neutral_flips[observed] += 1
    # corrupted neutrals split evenly between the two polarities
    assert abs(neutral_flips[EmotionLabel.POSITIVE] / n - 1 / 6) < 0.01
    assert abs(neutral_flips[EmotionLabel.NEGATIVE] / n - 1 / 6) < 0.01


# -- offline corpus -----------------------------------------------------------


def test_corpus_requires_positive_size(gen_config):
    with pytest.raises(ValueError):
        build_offline_corpus(gen_config, np.random.default_rng(0), 0)


def test_corpus_classes_balanced(gen_config):
    corpus = build_offline_corpus(gen_config, np.random.default_rng(17), 999)
    counts = Counter(m.gold_emotion for m in corpus)
    for label in EmotionLabel:
        assert counts[label] == 333


def test_corpus_general_only_samples_are_neutral(gen_config):
    corpus = build_offline_corpus(gen_config, np.random.default_rng(18), 600)
    for m in corpus:
        directed = any(s.directed != "none" for s in m.sentences)
        assert (m.gold_emotion is EmotionLabel.NEUTRAL) == (not directed)
        if m.gold_emotion is EmotionLabel.NEUTRAL and any(s.general != "none" for s in m.sentences):
            assert not directed  # general emotion alone never sets a polarity


def test_corpus_determinism_byte_identical(gen_config, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    corpus_to_jsonl(build_offline_corpus(gen_config, np.random.default_rng(19), 200), a)
    corpus_to_jsonl(build_offline_corpus(gen_config, np.random.default_rng(19), 200), b)
    assert a.read_bytes() == b.read_bytes()


def test_corpus_jsonl_round_trip(gen_config, tmp_path):
    corpus = build_offline_corpus(gen_config, np.random.default_rng(20), 60)
    path = tmp_path / "corpus.jsonl"
    corpus_to_jsonl(corpus, path)
    assert len(path.read_text(encoding="utf-8").splitlines()) == 60
    loaded = corpus_from_jsonl(path)
    assert len(loaded) == 60
    for orig, back in zip(corpus, loaded):
        assert back.sentences == orig.sentences
        assert back.gold_intent == orig.gold_intent
        assert back.gold_emotion == orig.gold_emotion


def test_pretrain_set_skew(gen_config):
    cfg = replace(gen_config, pretrain_intent_weights=(0.7, 0.3, 0.0), pretrain_template_frac=0.3)
    rng = np.random.default_rng(21)
    subset = draw_pretrain_set(cfg, rng, 200)
    intents = Counter(m.gold_intent for m in subset)
    assert intents[2] == 0
    assert intents[0] > intents[1]
    # template restriction: only the leading fraction of each pool appears
    allowed = {t for name in ("modify", "cancel") for t in cfg.intent_templates[name][:3]}
    allowed_segments = {s.text for t in allowed for s in segment(t)}
    for m in subset:
        for s in m.sentences:
            if s.task_relevant:
                assert s.text in allowed_segments


# -- environment protocol ------------------------------------------------------


def test_step_before_serve_is_protocol_error(gen_config):
    env = Environment(gen_config, seed=0)
    with pytest.raises(ProtocolError):
        env.step(0)


def test_step_consumes_pending_email(gen_config):
    env = Environment(gen_config, seed=0)
    env.serve()
    env.step(0)
    with pytest.raises(ProtocolError):
        env.step(0)


def test_learned_channel_requires_models(gen_config):
    with pytest.raises(ValueError, match="train-scope"):
        Environment(gen_config, seed=0, channel="learned")


def _reordered(vocab):
    "The same tokens with two ids swapped."
    tokens = list(vocab.id_to_token)
    tokens[1], tokens[2] = tokens[2], tokens[1]
    return Vocabulary(tokens)


def _learned_env(gen_config, scope_vocab, emotion_vocab):
    return Environment(
        gen_config, channel="learned", scope_model=ScopeModel(scope_vocab), emotion_model=EmotionModel(emotion_vocab)
    )


def test_scope_model_vocabulary_must_match(gen_config, vocab):
    # an equal table in another object is accepted, and the environment reads its tokens through that object
    scope_vocab = Vocabulary(vocab.id_to_token)
    assert _learned_env(gen_config, scope_vocab, vocab).vocab is scope_vocab
    for other in (_reordered(vocab), Vocabulary(vocab.id_to_token[:-1])):
        with pytest.raises(ValueError, match="scope model's vocabulary"):
            _learned_env(gen_config, other, vocab)


def test_emotion_model_vocabulary_must_match(gen_config, vocab):
    for other in (_reordered(vocab), Vocabulary(vocab.id_to_token[:-1])):
        with pytest.raises(ValueError, match="emotion model's vocabulary"):
            _learned_env(gen_config, vocab, other)


def test_oracle_full_rewards_track_correctness(gen_config):
    cfg = replace(gen_config, q_pos=1.0, q_neg=1.0)
    env = Environment(cfg, seed=22)
    rng = np.random.default_rng(23)
    for _ in range(300):
        email, state = env.serve()
        action = int(rng.integers(3))
        rec = env.step(action)
        assert rec.correct == (action == email.gold_intent)
        assert rec.reward == (1.0 if rec.correct else -1.0)
        assert rec.feedback_present


def test_record_invariants_under_partial_regime(gen_config):
    env = Environment(gen_config, seed=24, regime=FeedbackRegime.partial())
    rng = np.random.default_rng(25)
    absent = 0
    from emorl.emotion import reward_of

    for _ in range(400):
        env.serve()
        rec = env.step(int(rng.integers(3)))
        assert rec.reward == reward_of(rec.observed)
        if not rec.feedback_present:
            absent += 1
            assert rec.reward == 0.0
    assert absent > 200  # presence is rare at p=0.15


def test_learned_channel_agreement_tracks_emotion_accuracy(
    gen_config, vocab, trained_scope, emotion_training
):
    emotion_model, metrics = emotion_training
    cfg = replace(gen_config, q_pos=1.0, q_neg=1.0)
    env = Environment(cfg, seed=26, channel="learned", scope_model=trained_scope, emotion_model=emotion_model)
    agent = MulticlassPolicy(vocab.size, seed=3)
    agree = 0
    n = 1500
    for _ in range(n):
        _, state = env.serve()
        action = agent.act(state)
        rec = env.step(action)
        agree += int(rec.reward == (1.0 if rec.correct else -1.0))
    assert agree / n >= metrics["accuracy"] - 0.05


def test_multilabel_environment_exact_match():
    cfg = replace(default_config(task="multilabel"), q_pos=1.0, q_neg=1.0)
    env = Environment(cfg, seed=27)
    rng = np.random.default_rng(28)
    for _ in range(100):
        email, _ = env.serve()
        wrong = tuple(1 - b for b in email.gold_intent)
        rec = env.step(wrong)
        assert not rec.correct and rec.reward == -1.0
        email, _ = env.serve()
        rec = env.step(email.gold_intent)
        assert rec.correct and rec.reward == 1.0


def test_environment_seed_determinism(gen_config):
    def trace(seed):
        env = Environment(gen_config, seed=seed, regime=FeedbackRegime.partial_noisy())
        out = []
        for _ in range(50):
            email, state = env.serve()
            rec = env.step(0)
            out.append((email.text, rec.reward, rec.feedback_present, rec.observed))
        return out

    assert trace(99) == trace(99)
    assert trace(99) != trace(100)


# -- the per-text table and the kept-tuple memo ---------------------------------

# words outside every template, so a sentence of them is all unknown tokens
_UNKNOWN_SENTENCE = st.lists(st.sampled_from(["zorp", "quux", "blee", "snark"]), min_size=1, max_size=4).map(
    lambda words: " ".join(words) + "."
)


@functools.cache
def _untrained_models(vocab):
    return ScopeModel(vocab, seed=3), EmotionModel(vocab, seed=3)


@functools.cache
def _shared_env(task, channel, scope_model, emotion_model, vocab_size=2048):
    "One environment per setting, shared across examples, so later examples read filled tables."
    models = dict(scope_model=scope_model, emotion_model=emotion_model) if channel == "learned" else {}
    return Environment(default_config(task, vocab_size=vocab_size), channel=channel, **models)


@settings(max_examples=40, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    task=st.sampled_from(["multiclass", "multilabel"]),
    trained=st.booleans(),
    unknown=st.lists(_UNKNOWN_SENTENCE, max_size=3),
)
def test_environment_tables_match_the_direct_path(seed, task, trained, unknown, vocab, trained_scope, trained_emotion):
    assert not any(w in vocab.token_to_id for text in unknown for w in text[:-1].split())
    scope_model, emotion_model = (trained_scope, trained_emotion) if trained else _untrained_models(vocab)
    config = default_config(task)
    rng = np.random.default_rng(seed)
    email = generate_email(config, rng, draw_intent(config, rng))
    messages = [email, respond(config, rng, email.gold_intent, draw_intent(config, rng))]
    messages += build_offline_corpus(config, rng, 2)
    odd = [LabeledSentence(text, task_relevant=k % 2 == 0) for k, text in enumerate(unknown)]
    for sentences in (odd, odd + messages[1].sentences):
        messages.append(EmailMessage(sentences, gold_intent=email.gold_intent, gold_emotion=EmotionLabel.NEUTRAL))
    # the generated messages give the oracle state from their groups' ids, the others from their texts'
    assert [m.groups is not None for m in messages] == [True] * 4 + [False] * 2
    for channel in ("oracle", "learned"):
        env = _shared_env(task, channel, scope_model, emotion_model)
        for m in messages:
            scoped = scope_model.scope(m.sentences)
            kept = gold_scope_texts(m) if channel == "oracle" else scoped.kept_texts
            assert env.scoped_texts(m) == kept
            assert env.featurize_email(m).tobytes() == featurize_texts(kept, vocab).tobytes()
            label = m.gold_emotion if channel == "oracle" else classify_emotion(emotion_model, scoped)[0]
            assert env.emotion_of(m) is label
    # a vocabulary that leaves most template tokens unknown
    small = _shared_env(task, "oracle", None, None, vocab_size=16)
    for m in messages:
        assert small.featurize_email(m).tobytes() == featurize_texts(gold_scope_texts(m), small.vocab).tobytes()


def test_an_environment_follows_its_scope_model_through_retraining_and_tokenizes_each_text_once(
    gen_config, corpus3000, monkeypatch
):
    # both models share one fresh vocabulary, whose table starts empty, and the environment takes it as its own
    vocab = config_vocab(gen_config)
    scope_model = ScopeModel(vocab, seed=4)
    env = Environment(gen_config, seed=11, channel="learned", scope_model=scope_model, emotion_model=EmotionModel(vocab, seed=4))
    assert env.vocab is scope_model.vocab
    # counted from here, past the environment's own config_vocab check
    tokenized = []
    monkeypatch.setattr("emorl.text.tokenize", lambda t: tokenized.append(t) or tokenize(t))
    probe = build_offline_corpus(gen_config, np.random.default_rng(9), 40)

    def exact_kept():
        "Each probe message's texts that the exact rule keeps, from the model's weights as they are now."
        out = []
        for m in probe:
            texts = [s.text for s in m.sentences]
            mask = exact_keep(scope_model, scope_model.sentence_matrix([vocab.text_ids(t) for t in texts]))
            out.append([t for t, keep in zip(texts, mask) if keep])
        return out

    scope_calls, classified, seen = [], [], set()
    real_scope, real_classify = ScopeModel.scope, envsim.classify_emotion
    real_generate, real_respond = envsim.generate_email, envsim.respond

    def noting_texts(make):
        def wrapped(*args):
            message = make(*args)
            seen.update(s.text for s in message.sentences)
            return message

        return wrapped

    monkeypatch.setattr(ScopeModel, "scope", lambda self, sents: scope_calls.append(1) or real_scope(self, sents))
    monkeypatch.setattr(envsim, "generate_email", noting_texts(real_generate))
    monkeypatch.setattr(envsim, "respond", noting_texts(real_respond))
    monkeypatch.setattr(
        envsim, "classify_emotion", lambda model, scoped: classified.append(tuple(scoped.kept_texts)) or real_classify(model, scoped)
    )
    rng = np.random.default_rng(12)

    def loop():
        calls = len(scope_calls)
        for _ in range(300):
            env.serve()
            env.step(int(rng.integers(3)))
        # each message is scored by ScopeModel.scope: one served email and one reply per interaction
        assert len(scope_calls) - calls == 600
        return len(classified)

    untrained = exact_kept()
    assert [env.scoped_texts(m) for m in probe] == untrained
    before = loop()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        train_scope(scope_model, corpus3000[:300], epochs=1, seed=1)
    # retrained in place: the environment built before reads the new weights
    retrained = exact_kept()
    assert retrained != untrained
    assert [env.scoped_texts(m) for m in probe] == retrained
    first = loop() - before
    second = loop() - before - first
    assert len(classified) == len(set(classified)) == len(env._labels)
    assert second < first  # the second loop mostly hits the memo
    # every text the loop met was tokenized, once, whichever of the environment or the models met it first
    assert seen <= set(tokenized)
    assert len(tokenized) == len(set(tokenized))


def test_a_reply_is_scoped_once_whether_its_label_is_new_or_memoised(gen_config, trained_scope, trained_emotion, monkeypatch):
    env = Environment(gen_config, channel="learned", scope_model=trained_scope, emotion_model=trained_emotion)
    rng = np.random.default_rng(6)
    replies = [respond(gen_config, rng, 0, int(rng.integers(3))) for _ in range(30)]
    expected = [classify_emotion(trained_emotion, trained_scope.scope(r.sentences))[0] for r in replies]
    keeps = []
    real_keep = ScopeModel.keep_mask
    monkeypatch.setattr(ScopeModel, "keep_mask", lambda self, texts: keeps.append(1) or real_keep(self, texts))
    for reply, label in zip(replies + replies, expected + expected):  # the second pass hits the label memo
        before, labels = len(keeps), len(env._labels)
        assert env.emotion_of(reply) is label
        assert len(keeps) - before == 1, f"{len(env._labels) - labels} new label(s)"
    assert 1 < len(env._labels) < len(replies)


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_the_environments_keep_mask_is_scopes_and_the_boundary_takes_the_exact_rule(gen_config, vocab, data):
    words = [*vocab.id_to_token[1:60], "unheard-of"]
    model = ScopeModel(vocab, dim=data.draw(st.integers(1, 32)), window=data.draw(st.integers(0, 2)), seed=data.draw(st.integers(0, 99)))
    texts = st.lists(st.sampled_from(words), max_size=5).map(" ".join)
    message = EmailMessage(
        [LabeledSentence(t, False) for t in data.draw(st.lists(texts, min_size=1, max_size=7))], 0, EmotionLabel.NEUTRAL
    )
    sents = message.sentences
    token_ids = [vocab.text_ids(s.text) for s in sents]
    model.bias.values[0] = data.draw(st.floats(-0.05, 0.05))
    boundary = data.draw(st.sampled_from([None, "zero", "ulp_up", "ulp_down", "just_below"]))
    if boundary:
        # the bias that cancels one sentence's mixed terms as `_logits` adds them: its logit is zero,
        # or within an ulp or two of it; with window 0 exactly zero, one ulp off or -1e-17
        i = data.draw(st.integers(0, len(sents) - 1))
        model.bias.values[0] = 0.0
        cancel = -model._logits(model.sentence_matrix(token_ids))[i]
        shifted = {"zero": cancel, "ulp_up": np.nextafter(cancel, np.inf), "ulp_down": np.nextafter(cancel, -np.inf)}
        model.bias.values[0] = shifted.get(boundary, cancel - 1e-17)
    bad = data.draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if bad is not None:
        # the centre mixer row, which every sentence mixes in
        model.mix.values[model.window, data.draw(st.integers(0, model.dim - 1))] = bad
    env = Environment(gen_config, channel="learned", scope_model=model, emotion_model=EmotionModel(vocab))
    with np.errstate(invalid="ignore", over="ignore"):
        expected = exact_keep(model, model.sentence_matrix(token_ids)).tolist()
        assert model.scope(sents).keep_mask == expected
        assert env.scoped_texts(message) == [s.text for s, keep in zip(sents, expected) if keep]


def test_a_seeded_learned_run_takes_each_texts_products_once_and_never_the_sigmoid_band(trained_scope, trained_emotion):
    # the golden learned run's online config: a change that computes a text's
    # products more than once, or that calls `sigmoid` outside the band just
    # below zero, loses speed and fails here
    config = ExperimentConfig(
        task="multiclass", init="pretrained", channel="learned", interactions=300, eval_every=100, window=100, eval_size=60
    )
    texts, products, band = [], [], []
    real_keep_mask, real_products = ScopeModel.keep_mask, ScopeModel._products
    trained_scope._rows.clear()  # a cache, which earlier tests may have filled
    with mock.patch.object(
        ScopeModel, "keep_mask", lambda self, ts: texts.extend(ts) or real_keep_mask(self, ts)
    ), mock.patch.object(
        ScopeModel, "_products", lambda self, vecs: products.append(len(vecs)) or real_products(self, vecs)
    ), mock.patch("emorl.scope.sigmoid", lambda u: band.append(u) or sigmoid(u)):
        run_online(config, 3, scope_model=trained_scope, emotion_model=trained_emotion)
    assert len(texts) >= 2 * config.interactions
    assert products == [1] * len(set(texts))
    assert band == []
