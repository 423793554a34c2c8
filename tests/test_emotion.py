import tracemalloc

import numpy as np
import pytest

from emorl.emotion import (
    LABEL_INDEX,
    LABEL_ORDER,
    EmotionLabel,
    EmotionModel,
    all_texts,
    classify_emotion,
    confusion_matrix,
    evaluate_emotion,
    macro_f1,
    reward_of,
    train_emotion,
)
from emorl.envsim import EmailMessage, LabeledSentence, build_offline_corpus, gold_scope_texts
from emorl.nn import CheckpointFormatError, Network, save_checkpoint
from emorl.policy import MultilabelPolicy, save_agent
from emorl.scope import ScopedMessage
from emorl.text import build_vocab


def message(specs, emotion):
    "specs: (text, task_relevant, directed, general) tuples."
    sentences = [
        LabeledSentence(text=t, task_relevant=bool(k), directed=d, general=g)
        for t, k, d, g in specs
    ]
    return EmailMessage(sentences=sentences, gold_intent=0, gold_emotion=emotion)


# -- reward mapping -----------------------------------------------------------


def test_reward_mapping_is_exact():
    assert reward_of(EmotionLabel.POSITIVE) == 1.0
    assert reward_of(EmotionLabel.NEGATIVE) == -1.0
    assert reward_of(EmotionLabel.NEUTRAL) == 0.0


def test_reward_is_total_over_labels():
    assert {reward_of(label) for label in EmotionLabel} == {1.0, -1.0, 0.0}


# -- classification -----------------------------------------------------------


def test_empty_scope_is_neutral():
    vocab = build_vocab(["a"], 4)
    model = EmotionModel(vocab, seed=0)
    label, probs = classify_emotion(model, ScopedMessage([], []))
    assert label is EmotionLabel.NEUTRAL
    assert probs[LABEL_INDEX[EmotionLabel.NEUTRAL]] == 1.0
    assert reward_of(label) == 0.0


def test_exact_tie_breaks_toward_neutral():
    # a zero-weight net outputs the exactly uniform distribution
    vocab = build_vocab(["hello world"], 4)
    model = EmotionModel(vocab, seed=0)
    for p in model.net.params():
        p.values[...] = 0.0
    label, probs = model.classify_texts(["hello world"])
    assert np.allclose(probs, [1 / 3] * 3, atol=1e-12)
    assert label is EmotionLabel.NEUTRAL


def test_whitespace_only_texts_count_as_empty():
    vocab = build_vocab(["a"], 4)
    model = EmotionModel(vocab, seed=0)
    label, _ = model.classify_texts(["   ", ""])
    assert label is EmotionLabel.NEUTRAL


# -- metrics ------------------------------------------------------------------


def test_macro_f1_hand_computed_confusion():
    y_true = [0, 0, 1, 1, 2, 2, 2, 1]
    y_pred = [0, 1, 1, 1, 2, 0, 2, 2]
    # class 0: tp=1 fp=1 fn=1 -> F1 1/2; classes 1 and 2: tp=2 fp=1 fn=1 -> F1 2/3
    assert macro_f1(y_true, y_pred, 3) == pytest.approx(11 / 18)
    mat = confusion_matrix(y_true, y_pred, 3)
    assert mat.sum() == 8
    assert mat[0, 0] == 1 and mat[1, 1] == 2 and mat[2, 2] == 2


def test_macro_f1_empty_class_scores_zero():
    # class 2 never appears in gold or predictions
    assert macro_f1([0, 1], [0, 1], 3) == pytest.approx(2 / 3)


# -- training -----------------------------------------------------------------


def test_missing_class_raises(vocab):
    corpus = [
        message([("great job, you got it right.", 0, "pos", "none")], EmotionLabel.POSITIVE)
    ] * 10
    with pytest.raises(ValueError, match="missing emotion classes"):
        train_emotion(EmotionModel(vocab, seed=0), corpus, epochs=1)


def test_empty_corpus_raises(vocab):
    with pytest.raises(ValueError):
        train_emotion(EmotionModel(vocab, seed=0), [], epochs=1)


def test_separable_three_phrase_corpus():
    pos = ("joyday move it.", 0, "pos", "none")
    neg = ("gloomday move it.", 0, "neg", "none")
    task = ("please move the slot.", 1, "none", "none")
    corpus = []
    for i in range(150):
        cls = i % 3
        if cls == 0:
            corpus.append(message([task, pos], EmotionLabel.POSITIVE))
        elif cls == 1:
            corpus.append(message([task, neg], EmotionLabel.NEGATIVE))
        else:
            corpus.append(message([task], EmotionLabel.NEUTRAL))
    vocab = build_vocab([s.text for m in corpus for s in m.sentences], 32)
    metrics = train_emotion(EmotionModel(vocab, seed=0), corpus, epochs=12, lr=0.5, seed=0)
    assert metrics["accuracy"] >= 0.99


def test_holdout_labels_an_empty_scope_neutral(vocab, corpus3000):
    # all Negative but one Positive and one Neutral message, all scoped to nothing:
    # training on empty inputs pulls the output bias toward Negative, but an empty
    # scope is Neutral by definition, so only a held-out Neutral message is right
    first = {label: [m for m in corpus3000[:300] if m.gold_emotion is label] for label in LABEL_ORDER}
    corpus = first[EmotionLabel.NEGATIVE] + first[EmotionLabel.POSITIVE][:1] + first[EmotionLabel.NEUTRAL][:1]
    metrics = train_emotion(EmotionModel(vocab, seed=0), corpus, epochs=2, seed=0, scoper=lambda m: [])
    assert metrics["accuracy"] <= 1 / metrics["holdout_size"]


def test_label_shuffled_corpus_is_chance(vocab, corpus3000):
    rng = np.random.default_rng(0)
    corpus = corpus3000[:900]
    labels = [m.gold_emotion for m in corpus]
    shuffled = list(labels)
    rng.shuffle(shuffled)
    relabeled = [
        EmailMessage(sentences=m.sentences, gold_intent=m.gold_intent, gold_emotion=lab)
        for m, lab in zip(corpus, shuffled)
    ]
    metrics = train_emotion(EmotionModel(vocab, seed=0), relabeled, epochs=12, lr=0.5, seed=0)
    assert abs(metrics["accuracy"] - 1 / 3) <= 0.05


def test_default_corpus_accuracy_and_f1(emotion_training):
    _, metrics = emotion_training
    assert metrics["accuracy"] >= 0.90
    assert metrics["macro_f1"] >= 0.90


def test_training_is_deterministic(vocab, corpus3000):
    corpus = corpus3000[:600]

    def run():
        model = EmotionModel(vocab, seed=0)
        metrics = train_emotion(model, corpus, epochs=4, lr=0.5, seed=0)
        return metrics["accuracy"], [p.values.tobytes() for p in model.net.params()]

    assert run() == run()


def test_training_keeps_no_dense_copy_of_the_corpus(gen_config, vocab):
    # a dense float64 row per message would take n * vocab * 8 bytes; the
    # packed rows, buffers and temporaries of training must stay under half
    # of that. The messages are rendered first, so that their cached
    # sentences are not counted as training's
    corpus = build_offline_corpus(gen_config, np.random.default_rng(11), 400)
    for m in corpus:
        gold_scope_texts(m)
    model = EmotionModel(vocab, seed=0)
    tracemalloc.start()
    try:
        train_emotion(model, corpus, epochs=1, lr=0.5, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(corpus) * vocab.size * 8 / 2


def test_directed_positive_classified_positive(gen_config, vocab, trained_emotion):
    # held-out generator samples: per-class recall of the trained model
    fresh = build_offline_corpus(gen_config, np.random.default_rng(4242), 600)
    recall = {}
    for cls in LABEL_ORDER:
        subset = [m for m in fresh if m.gold_emotion is cls]
        hits = sum(
            trained_emotion.classify_texts(gold_scope_texts(m))[0] is cls for m in subset
        )
        recall[cls] = hits / len(subset)
    assert recall[EmotionLabel.POSITIVE] >= 0.9
    assert recall[EmotionLabel.NEGATIVE] >= 0.9


def test_general_only_message_is_neutral(gen_config, vocab, trained_emotion):
    # messages whose only emotion content is general-register must read Neutral
    fresh = build_offline_corpus(gen_config, np.random.default_rng(321), 900)
    general_only = [
        m
        for m in fresh
        if m.gold_emotion is EmotionLabel.NEUTRAL
        and any(s.general != "none" for s in m.sentences)
    ]
    assert len(general_only) >= 30
    hits = sum(
        trained_emotion.classify_texts(gold_scope_texts(m))[0] is EmotionLabel.NEUTRAL
        for m in general_only
    )
    assert hits / len(general_only) >= 0.9


def test_scoped_inputs_beat_unscoped(vocab, corpus3000, gen_config):
    scoped_model = EmotionModel(vocab, seed=0)
    train_emotion(scoped_model, corpus3000[:1500], epochs=12, lr=0.5, seed=0)
    full_model = EmotionModel(vocab, seed=0)
    train_emotion(full_model, corpus3000[:1500], epochs=12, lr=0.5, seed=0, scoper=all_texts)
    fresh = build_offline_corpus(gen_config, np.random.default_rng(777), 600)
    scoped_acc = evaluate_emotion(scoped_model, fresh)["accuracy"]
    full_acc = evaluate_emotion(full_model, fresh, scoper=all_texts)["accuracy"]
    assert scoped_acc > full_acc


def test_model_save_load_round_trip(tmp_path, vocab, trained_emotion):
    path = tmp_path / "emotion.ckpt"
    trained_emotion.save(path)
    loaded = EmotionModel.load(path, vocab)
    texts = ["thanks, that works great for me."]
    assert np.array_equal(loaded.distribution(texts), trained_emotion.distribution(texts))


@pytest.mark.parametrize("kind", ["multilabel_head", "softmax_over_four"])
def test_model_load_refuses_a_network_of_another_kind_naming_the_file(tmp_path, vocab, kind):
    if kind == "multilabel_head":
        save_agent(MultilabelPolicy(vocab.size, seed=0), tmp_path)
        path = tmp_path / "head0.ckpt"
    else:
        path = tmp_path / "four.ckpt"
        save_checkpoint(Network.build([vocab.size, 4], head="softmax"), path)
    with pytest.raises(CheckpointFormatError, match=f"{path.name} is not an emotion model"):
        EmotionModel.load(path, vocab)


def test_model_load_vocab_mismatch(tmp_path, trained_emotion):
    path = tmp_path / "emotion.ckpt"
    trained_emotion.save(path)
    with pytest.raises(ValueError, match="vocabulary"):
        EmotionModel.load(path, build_vocab(["tiny"], 3))
