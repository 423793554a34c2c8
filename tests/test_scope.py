import copy
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emorl.envsim import EmailMessage, LabeledSentence, generate_email
from emorl.emotion import EmotionLabel
from emorl.nn import SGD, CheckpointFormatError, TrainingFault, apply_update, sigmoid, write_tensors
from emorl.scope import ScopeModel, ScopedMessage, keep_labels, train_scope
from emorl.text import UNK_TOKEN, Vocabulary, build_vocab, segment

from conftest import exact_keep


def make_message(specs):
    "specs: list of (text, keep) pairs; keep sets the task_relevant flag."
    sentences = [LabeledSentence(text=t, task_relevant=bool(k)) for t, k in specs]
    return EmailMessage(sentences=sentences, gold_intent=0, gold_emotion=EmotionLabel.NEUTRAL)


def _scores(model, token_ids):
    "Keep probability per sentence of the sentences with these token ids."
    if not token_ids:
        return np.zeros(0, dtype=np.float64)
    return sigmoid(model._logits(model.sentence_matrix(token_ids)))


def separable_corpus(n=240, seed=0):
    "One perfectly separating token: relevant sentences contain 'taskword'."
    rng = np.random.default_rng(seed)
    fillers = ["the sky is blue.", "lunch was fine.", "we chatted a bit.", "rain again today."]
    tasks = ["taskword move it.", "please taskword now.", "taskword for the slot."]
    corpus = []
    for _ in range(n):
        specs = []
        for _ in range(int(rng.integers(2, 5))):
            if rng.random() < 0.5:
                specs.append((tasks[int(rng.integers(len(tasks)))], 1))
            else:
                specs.append((fillers[int(rng.integers(len(fillers)))], 0))
        corpus.append(make_message(specs))
    return corpus


def test_scope_empty_message():
    vocab = build_vocab(["a"], 4)
    scoped = ScopeModel(vocab, seed=0).scope([])
    assert scoped.sentences == [] and scoped.keep_mask == []
    assert scoped.kept_texts == []


def test_keep_mask_length_matches_input(vocab, trained_scope):
    segs = segment("Move the meeting. The sky is blue. Thanks, great job.", vocab)
    scoped = trained_scope.scope(segs)
    assert len(scoped.keep_mask) == len(segs)


def test_scope_preserves_original_order(vocab, trained_scope):
    segs = segment("Please reschedule our sync to next week. By the way, the cafeteria menu changed.", vocab)
    scoped = trained_scope.scope(segs)
    texts = [s.text for s in segs]
    assert scoped.kept_texts == [t for t, keep in zip(texts, scoped.keep_mask) if keep]
    positions = [texts.index(t) for t in scoped.kept_texts]
    assert positions == sorted(positions)


def test_scoped_message_validates_mask_length():
    with pytest.raises(ValueError):
        ScopedMessage(sentences=[], keep_mask=[True])


def test_window_zero_is_independent_per_sentence_classifier():
    vocab = build_vocab(["alpha beta gamma delta epsilon"], 16)
    model = ScopeModel(vocab, window=0, seed=3)
    ids_a = [vocab.ids(["alpha"]), vocab.ids(["beta"]), vocab.ids(["gamma"])]
    ids_b = [vocab.ids(["delta"]), vocab.ids(["beta"]), vocab.ids(["epsilon"])]
    # with no context window the middle sentence's score ignores neighbors
    assert _scores(model, ids_a)[1] == _scores(model, ids_b)[1]


def test_window_one_sees_neighbors():
    vocab = build_vocab(["alpha beta gamma delta"], 16)
    model = ScopeModel(vocab, window=1, seed=3)
    ids_a = [vocab.ids(["alpha"]), vocab.ids(["beta"])]
    ids_b = [vocab.ids(["delta"]), vocab.ids(["beta"])]
    assert _scores(model, ids_a)[1] != _scores(model, ids_b)[1]


def test_duplicating_sentence_only_affects_window_neighborhood(vocab, trained_scope):
    text = (
        "Please reschedule our sync to next week. I checked the new meeting slot. "
        "My cousin is visiting next month. The hallway lights flicker sometimes."
    )
    segs = segment(text, vocab)
    extended = segs + [segs[-1]]  # duplicate the final irrelevant sentence
    base_scores = _scores(trained_scope, [s.token_ids for s in segs])
    ext_scores = _scores(trained_scope, [s.token_ids for s in extended])
    # sentences farther than the window from the insertion point are untouched
    for i in range(len(segs) - trained_scope.window):
        assert base_scores[i] == ext_scores[i]


_WINDOW_TEXTS = ["taskword move it.", "the sky is blue.", "please taskword now.", "lunch was fine."]
_WINDOW_VOCAB = build_vocab(_WINDOW_TEXTS, 16)


@settings(max_examples=80, deadline=None, database=None)
@given(
    window=st.integers(0, 4),
    messages=st.lists(
        st.lists(st.tuples(st.sampled_from(_WINDOW_TEXTS), st.booleans()), max_size=6), min_size=1, max_size=3
    ),
)
def test_every_window_fits_every_message_length(window, messages):
    # a window wider than the message mixes in only the neighbours that exist
    corpus = [make_message(specs) for specs in messages]
    model = ScopeModel(_WINDOW_VOCAB, dim=4, window=window, seed=1)
    for m in corpus:
        sentences = segment(m.text, _WINDOW_VOCAB)
        ids = [s.token_ids for s in sentences]
        vecs = model.sentence_matrix(ids)
        n = len(ids)
        expected = [
            float(model.bias.values[0])
            + sum(vecs[i + k] @ model.mix.values[k + window] for k in range(-window, window + 1) if 0 <= i + k < n)
            for i in range(n)
        ]
        assert _scores(model, ids).shape == (n,)
        np.testing.assert_allclose(model._logits(vecs), expected, rtol=1e-12, atol=1e-12)
        assert len(model.scope(sentences).keep_mask) == n
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        metrics = train_scope(model, corpus, epochs=1, seed=0)
    assert len(metrics["train_bce"]) == 1 and np.isfinite(metrics["train_bce"][0])
    assert all(np.isfinite(p.values).all() for p in model.params())


@settings(max_examples=150, deadline=None, database=None)
@given(
    dim=st.sampled_from([1, 2, 3, 32]),
    token_ids=st.lists(st.lists(st.integers(0, _WINDOW_VOCAB.size - 1), max_size=40).map(tuple), max_size=8),
    seed=st.integers(0, 2**16),
)
def test_sentence_matrix_equals_each_sentence_mean(dim, token_ids, seed):
    # empty sentences keep a zero row; a message with no sentences is (0, dim)
    model = ScopeModel(_WINDOW_VOCAB, dim=dim, seed=seed)
    expected = np.zeros((len(token_ids), dim))
    for i, ids in enumerate(token_ids):
        if ids:
            expected[i] = model.embed.values[list(ids)].mean(axis=0)
    got = model.sentence_matrix(token_ids)
    assert got.shape == (len(token_ids), dim) and got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


# The whole-gradient training loop that train_scope replaced, kept as its
# reference: per-sentence means, one np.add.at per sentence into a dense
# (vocab, dim) gradient, and a step of the whole embedding.
def _loop_sentence_matrix(model, token_ids):
    rows = np.zeros((len(token_ids), model.dim), dtype=np.float64)
    for i, ids in enumerate(token_ids):
        if ids:
            rows[i] = model.embed.values[list(ids)].mean(axis=0)
    return rows


def _dense_train_scope(model, corpus, epochs, lr, seed):
    data = []
    for message in corpus:
        ids = [model.vocab.text_ids(s.text) for s in message.sentences]
        data.append((ids, np.array(keep_labels(message), dtype=np.float64)))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(data))
    n_hold = int(round(0.2 * len(data)))
    hold_idx, train_idx = order[:n_hold], order[n_hold:]

    opt = SGD(learning_rate=lr)
    epoch_bce = []
    for _ in range(epochs):
        total, count = 0.0, 0
        for i in rng.permutation(train_idx):
            ids, y = data[i]
            n = len(ids)
            if n == 0:
                continue
            vecs = _loop_sentence_matrix(model, ids)
            p = sigmoid(model._logits(vecs))
            total += float(-np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
            count += n
            g = (p - y) / n
            mix_grad = np.zeros_like(model.mix.values, dtype=np.float64)
            d_vecs = np.zeros_like(vecs)
            for j, rows, nbrs in model._offsets(model.window, n):
                mix_grad[j] = g[rows] @ vecs[nbrs]
                d_vecs[nbrs] += g[rows, None] * model.mix.values[j]
            emb_grad = np.zeros_like(model.embed.values, dtype=np.float64)
            for i_s, sent_ids in enumerate(ids):
                if sent_ids:
                    np.add.at(emb_grad, list(sent_ids), d_vecs[i_s] / len(sent_ids))
            grads = [(model.embed, ..., emb_grad), (model.mix, ..., mix_grad), (model.bias, ..., np.array([g.sum()]))]
            apply_update([(p, at, d.astype(np.float32) + 0.0) for p, at, d in grads], opt)
        epoch_bce.append(total / max(count, 1))
    first = epoch_bce[: min(3, len(epoch_bce))]
    if any(b >= a for a, b in zip(first, first[1:])):
        warnings.warn("scope training BCE did not decrease monotonically over the first epochs")

    tp = fp = fn = hits = total = 0
    for i in hold_idx:
        ids, y = data[i]
        if len(ids) == 0:
            continue
        pred = exact_keep(model, _loop_sentence_matrix(model, ids))
        gold = y >= 0.5
        tp += int(np.sum(pred & gold))
        fp += int(np.sum(pred & ~gold))
        fn += int(np.sum(~pred & gold))
        hits += int(np.sum(pred == gold))
        total += len(ids)
    f1 = 2.0 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    accuracy = hits / total if total else 0.0
    return {"train_bce": epoch_bce, "holdout_f1": f1, "holdout_accuracy": accuracy}


_ORACLE_WORDS = ["taskword", "move", "sky", "blue", "lunch", "rare"]
_ORACLE_VOCAB = build_vocab(_ORACLE_WORDS[:-1], 16)  # "rare" is unknown: id 0
# the same words past int16's ids, so that the packs hold intp
_WIDE_VOCAB = Vocabulary([UNK_TOKEN, *(f"filler{i}" for i in range(32768)), *_ORACLE_VOCAB.id_to_token[1:]])
# an empty text is a sentence with no token ids
_ORACLE_SENTENCE = st.lists(st.sampled_from(_ORACLE_WORDS), max_size=7).map(" ".join)
_SPREAD = [[("taskword move sky", True), ("blue lunch rare taskword", False)], [("move move", True), ("", False)]]


@settings(max_examples=60, deadline=None, database=None)
@given(
    window=st.integers(0, 3),
    epochs=st.integers(1, 2),
    dim=st.sampled_from([1, 3, 8]),
    lr=st.sampled_from([0.1, 0.5, 4.0]),
    seed=st.integers(0, 2**16),
    messages=st.lists(
        st.lists(st.tuples(_ORACLE_SENTENCE, st.booleans()), min_size=1, max_size=6), min_size=1, max_size=10
    ),
    vocab=st.just(_ORACLE_VOCAB),
)
# packs wider than int16; a message whose sentences touch no row; one whose tokens all touch one row
@example(window=1, epochs=2, dim=3, lr=0.5, seed=7, messages=_SPREAD, vocab=_WIDE_VOCAB)
@example(window=1, epochs=2, dim=3, lr=0.5, seed=7, messages=[[("", True), ("", False)], *_SPREAD], vocab=_ORACLE_VOCAB)
@example(
    window=1, epochs=2, dim=3, lr=0.5, seed=7, messages=[[("sky sky", True), ("sky", False)], *_SPREAD], vocab=_ORACLE_VOCAB
)
def test_train_scope_matches_the_dense_gradient_loop(window, epochs, dim, lr, seed, messages, vocab):
    corpus = [make_message(specs) for specs in messages]
    models, results = [], []
    for train in (train_scope, _dense_train_scope):
        model = ScopeModel(vocab, dim=dim, window=window, seed=seed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            metrics = train(model, corpus, epochs=epochs, lr=lr, seed=seed)
        models.append(model)
        results.append((metrics, [str(w.message) for w in caught]))
    packed, dense = models
    for a, b in zip(packed.params(), dense.params()):
        assert a.values.tobytes() == b.values.tobytes(), a.name
    assert results[0] == results[1]


def _faulting_case(name: str):
    """A one-sentence corpus, a model and a rate whose first step leaves the
    tensors from `name` on in params() order non-finite, and the ones
    before it finite: a rate beyond float32 makes every step inf; a huge
    embedding row, against a label its logit gets wrong, makes the mixer's
    gradient overflow at a rate that keeps the row's step finite, beside an
    infinite bias; an infinite bias alone moves nothing else, as the
    mixed-in row and the mixer are zero."""
    corpus = [make_message([("taskword move it.", 0)])]
    vocab = build_vocab(["taskword move it."], 16)
    model = ScopeModel(vocab, dim=4, window=1, seed=3)
    rows = list(vocab.text_ids("taskword move it."))
    if name == "embed":
        return corpus, model, 1e39
    if name == "mix":
        model.embed.values[rows] = 1e30
        model.mix.values[...] = 0.1  # a logit of about +1e30, against a drop label
        model.bias.values[0] = np.inf
        return corpus, model, 1e10
    model.embed.values[rows] = 0.0
    model.mix.values[...] = 0.0
    model.bias.values[0] = np.inf
    return corpus, model, 0.5


@pytest.mark.parametrize("name", ["embed", "mix", "bias"])
def test_a_faulting_step_names_the_first_non_finite_tensor_and_writes_none(name):
    # train_scope's fused step raises apply_update's TrainingFault, as the
    # dense loop does, naming each of embed, mix and bias in params() order,
    # with every tensor as the faulting step found it
    for train in (train_scope, _dense_train_scope):
        corpus, model, lr = _faulting_case(name)
        before = [p.values.tobytes() for p in model.params()]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TrainingFault, match=f"'{name}'"):
                train(model, corpus, epochs=1, lr=lr, seed=0)
        assert [p.values.tobytes() for p in model.params()] == before


def test_train_scope_empty_corpus_raises(vocab):
    with pytest.raises(ValueError):
        train_scope(ScopeModel(vocab, seed=0), [], epochs=1)


def test_separable_token_reaches_high_f1():
    corpus = separable_corpus()
    vocab = build_vocab([s.text for m in corpus for s in m.sentences], 64)
    model = ScopeModel(vocab, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        metrics = train_scope(model, corpus, epochs=6, lr=0.5, seed=0)
    assert metrics["holdout_f1"] >= 0.99


def test_untrained_model_is_roughly_chance(vocab, corpus3000):
    model = ScopeModel(vocab, seed=0)
    hits = total = positives = 0
    for m in corpus3000:
        ids = [vocab.ids(s.text.lower().split()) for s in m.sentences]
        pred = _scores(model, ids) >= 0.5
        gold = np.array(keep_labels(m), dtype=bool)
        hits += int(np.sum(pred == gold))
        positives += int(gold.sum())
        total += len(gold)
    majority = max(positives, total - positives) / total
    assert abs(hits / total - majority) <= 0.05


def test_default_corpus_f1_at_least_090(scope_training):
    _, metrics = scope_training
    assert metrics["holdout_f1"] >= 0.90


def test_training_loss_decreases_over_first_epochs(vocab, corpus3000):
    model = ScopeModel(vocab, seed=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        metrics = train_scope(model, corpus3000[:800], epochs=3, lr=0.5, seed=0)
    bce = metrics["train_bce"]
    assert bce[0] > bce[1] > bce[2]
    assert not caught


def test_warning_emitted_when_loss_stalls(vocab, corpus3000):
    model = ScopeModel(vocab, seed=0)
    # absurd learning rate destabilizes the loss within the first epochs
    with pytest.warns(UserWarning, match="decrease"):
        train_scope(model, corpus3000[:300], epochs=3, lr=10.0, seed=0)


def test_task_marked_message_fully_kept(gen_config, vocab, trained_scope):
    # generator emails whose sentences all realize the intent: all kept
    rng = np.random.default_rng(123)
    from dataclasses import replace

    cfg = replace(gen_config, distractor_rate=0.0)
    for intent in (0, 1):
        email = generate_email(cfg, rng, intent)
        scoped = trained_scope.scope(segment(email.text, vocab))
        assert all(scoped.keep_mask)


def test_scope_model_save_load_round_trip(tmp_path, vocab, trained_scope):
    path = tmp_path / "scope.ckpt"
    trained_scope.save(path)
    loaded = ScopeModel.load(path, vocab)
    assert loaded.window == trained_scope.window
    ids = [vocab.ids(["great", "job,"]), vocab.ids(["the", "sky"])]
    assert np.array_equal(_scores(loaded, ids), _scores(trained_scope, ids))


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
def test_a_copied_scope_model_trains_on_tensors_of_its_own(duplicate):
    # mix and bias are views of the model's flat buffer, which train_scope
    # writes: a copy trains exactly as the original and leaves it as it was
    corpus = separable_corpus(n=30, seed=4)
    vocab = build_vocab([s.text for m in corpus for s in m.sentences], 64)
    model = ScopeModel(vocab, dim=4, window=1, seed=5)
    before = [p.values.tobytes() for p in model.params()]
    twin = duplicate(model)
    assert [p.values.tobytes() for p in twin.params()] == before and twin.window == model.window
    twin_result = train_scope(twin, corpus, epochs=2, lr=0.5, seed=6)
    assert [p.values.tobytes() for p in model.params()] == before
    assert train_scope(model, corpus, epochs=2, lr=0.5, seed=6) == twin_result
    assert [p.values.tobytes() for p in model.params()] == [p.values.tobytes() for p in twin.params()]


def test_scope_model_load_vocab_mismatch(tmp_path, trained_scope):
    path = tmp_path / "scope.ckpt"
    trained_scope.save(path)
    tiny = build_vocab(["a b"], 4)
    with pytest.raises(ValueError, match="vocab"):
        ScopeModel.load(path, tiny)


@pytest.mark.parametrize(
    "tensors",
    [
        {"embed": np.ones((3, 4)), "bias": np.zeros(1)},
        {"embed": np.ones((3, 4)), "mix": np.ones((3, 5)), "bias": np.zeros(1)},
        {"embed": np.ones((3, 4)), "mix": np.ones((4, 4)), "bias": np.zeros(1)},
        {"embed": np.ones((3, 4)), "mix": np.ones((3, 4)), "bias": np.zeros(2)},
        {"embed": np.ones(12), "mix": np.ones((3, 4)), "bias": np.zeros(1)},
        {"embed": np.ones((3, 4)), "mix": np.ones((3, 4)), "bias": np.zeros(1), "extra": np.ones(1)},
        {"embed": np.ones((3, 0)), "mix": np.ones((3, 0)), "bias": np.zeros(1)},
    ],
    ids=["no_mix", "mix_width", "even_mix_rows", "bias_shape", "flat_embed", "extra_tensor", "zero_dim"],
)
def test_malformed_scope_checkpoint_is_format_error(tmp_path, tensors):
    path = tmp_path / "scope.ckpt"
    write_tensors(path, tensors)
    with pytest.raises(CheckpointFormatError):
        ScopeModel.load(path, build_vocab(["a b"], 3))


def test_keep_holds_a_logit_just_below_zero_whose_score_rounds_to_one_half(vocab):
    # exp(-1e-17) rounds to 1, so the score is exactly 0.5 and the sentence is kept
    model = ScopeModel(vocab, seed=0)
    model.mix.values[...] = 0.0
    model.bias.values[0] = float(np.float32(-1e-17))
    sents = segment("First part, second part.", vocab)
    vecs = model.sentence_matrix([s.token_ids for s in sents])
    assert np.all(model._logits(vecs) < 0.0)
    assert exact_keep(model, vecs).tolist() == [True, True]
    assert model.scope(sents).keep_mask == [True, True]


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_a_products_row_has_the_bits_of_the_same_row_alone(data):
    # keep_mask's per-text terms are `_logits`' own only if a row's products
    # do not depend on the rows stacked with it; dims past 128 cross numpy's
    # pairwise block, and NaN and infinities must land where they did alone
    dim, n, window = data.draw(st.integers(1, 300)), data.draw(st.integers(1, 12)), data.draw(st.integers(0, 2))
    model = ScopeModel(build_vocab(["a b"], 3), dim=dim, window=window, seed=data.draw(st.integers(0, 99)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vecs = rng.normal(0.0, data.draw(st.sampled_from([1e-3, 1.0, 1e3])), (n, dim))
    specials = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 1e308, 5e-324])
    for value in data.draw(st.lists(specials, max_size=3)):
        vecs[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, dim - 1))] = value
    if data.draw(st.booleans()):
        model.mix.values[data.draw(st.integers(0, 2 * window)), data.draw(st.integers(0, dim - 1))] = data.draw(specials)
    with np.errstate(invalid="ignore", over="ignore"):
        products = model._products(vecs)
        alone = [model._products(vecs[i : i + 1])[0].tobytes() for i in range(n)]
    assert products.shape == (n, 2 * window + 1)
    assert [row.tobytes() for row in products] == alone
