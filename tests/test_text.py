from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emorl.text import (
    SPLIT_PUNCT,
    Sentence,
    UNK_ID,
    UNK_TOKEN,
    Vocabulary,
    build_vocab,
    count_features,
    featurize_texts,
    insertion_positions,
    segment,
    tokenize,
)


# -- segmentation -------------------------------------------------------------


def test_segment_empty_is_empty():
    assert segment("") == []
    assert segment("   ") == []


def test_segment_splits_after_each_punctuation_mark():
    # hand-applied rule: cut after "," "?" "."
    texts = [s.text for s in segment("Hello, can we meet? Thanks.")]
    assert texts == ["Hello,", "can we meet?", "Thanks."]


def test_segment_without_punctuation_is_whole_string():
    segs = segment("No punctuation here")
    assert [s.text for s in segs] == ["No punctuation here"]


def test_segment_handles_colon_and_exclamation():
    texts = [s.text for s in segment("Agenda: budget! then lunch.")]
    assert texts == ["Agenda:", "budget!", "then lunch."]


def _segment_by_chars(text, vocab=None):
    "`segment`'s reference: the character loop it replaced, one piece per mark, each stripped."
    pieces, start = [], 0
    for i, ch in enumerate(text):
        if ch in SPLIT_PUNCT:
            pieces.append((start, text[start : i + 1]))
            start = i + 1
    if start < len(text):
        pieces.append((start, text[start:]))
    out = []
    for offset, raw in pieces:
        stripped = raw.strip()
        if not stripped:
            continue
        begin = offset + len(raw) - len(raw.lstrip())
        ids = vocab.text_ids(stripped) if vocab is not None else ()
        out.append(Sentence(text=stripped, token_ids=ids, span=(begin, begin + len(stripped))))
    return out


# every character str.strip strips, the five marks, and a few that are neither
_UNICODE_WHITESPACE = [chr(c) for c in range(0x3001) if chr(c).isspace()]
_ANY_TEXT = st.text(st.sampled_from(_UNICODE_WHITESPACE + sorted(SPLIT_PUNCT) + list("aZ;-\u00e9\u200b")) | st.characters())


@settings(max_examples=400, deadline=None, database=None)
@given(src=_ANY_TEXT)
@example(src=" \u3000,,\x1c.a\u00a0?!\u2029 b \x85")
def test_segment_equals_the_character_loop(src):
    vocab = build_vocab(["a b z, a. b!"], max_size=8)
    assert segment(src) == _segment_by_chars(src)
    assert segment(src, vocab) == _segment_by_chars(src, vocab)


# short strings over letters, splitting marks and whitespace, where every segmentation case lives
_TEXTS = st.text(alphabet="ab ,.:?!\t\n", max_size=40)
_TEMPLATES = st.builds(
    lambda body, mark: body + mark, st.text(alphabet="ab ,.:?!\t", max_size=20), st.sampled_from(sorted(SPLIT_PUNCT))
)


@settings(max_examples=300, deadline=None, database=None)
@given(src=_TEXTS)
@example(src="Hello, can we meet? Thanks.  See you!")
def test_segment_spans_reconstruct_source(src):
    segs = segment(src)
    for s in segs:
        assert src[s.span[0] : s.span[1]] == s.text
    # spans ordered and non-overlapping; gaps are whitespace only
    cursor = 0
    for s in segs:
        assert s.span[0] >= cursor
        assert src[cursor : s.span[0]].strip() == ""
        cursor = s.span[1]
    assert src[cursor:].strip() == ""
    assert all(s.text and s.text == s.text.strip() for s in segs)


@settings(max_examples=300, deadline=None, database=None)
@given(templates=st.lists(_TEMPLATES, max_size=6))
def test_segmenting_a_join_of_templates_concatenates_their_segments(templates):
    # the environment segments each template alone and joins the pieces with spaces
    vocab = build_vocab(["a b ab ba, a. b!"], max_size=8)
    expected, offset = [], 0
    for t in templates:
        expected += [replace(s, span=(s.span[0] + offset, s.span[1] + offset)) for s in segment(t, vocab)]
        offset += len(t) + 1
    assert segment(" ".join(templates), vocab) == expected


def test_segment_tokenizes_against_vocab():
    vocab = build_vocab(["hello, world"], max_size=8)
    segs = segment("Hello, world", vocab)
    assert segs[0].token_ids == (vocab.token_to_id["hello,"],)
    assert segs[1].token_ids == (vocab.token_to_id["world"],)


def test_segment_drops_whitespace_only_pieces():
    texts = [s.text for s in segment("a. . b.")]
    assert texts == ["a.", ".", "b."] or texts == ["a.", ".", "b."]
    texts = [s.text for s in segment("a.   b.")]
    assert texts == ["a.", "b."]


# -- insertion positions ------------------------------------------------------


def test_insertion_positions_hand_case():
    # "a, b." -> after the comma (index 2) and after the period (index 5)
    assert insertion_positions("a, b.") == [2, 5]


def test_insertion_positions_empty_without_punctuation():
    assert insertion_positions("no marks here") == []


def test_insertion_positions_strictly_increasing_after_punct():
    text = "One, two: three? four! five."
    pos = insertion_positions(text)
    assert pos == sorted(pos)
    assert all(text[p - 1] in SPLIT_PUNCT for p in pos)


def test_positions_are_segment_boundaries():
    text = "Hello, can we meet? Thanks."
    cuts = {s.span[1] for s in segment(text)}
    for p in insertion_positions(text):
        assert p in cuts


def test_injecting_at_positions_preserves_surrounding_segments():
    text = "Hello, can we meet? Thanks."
    original = [s.text for s in segment(text)]
    for p in insertion_positions(text):
        injected = text[:p] + " zzz." + text[p:]
        texts = [s.text for s in segment(injected)]
        assert "zzz." in texts
        texts.remove("zzz.")
        assert texts == original


# -- vocabulary ---------------------------------------------------------------


def test_build_vocab_basic():
    vocab = build_vocab(["a a b"], max_size=3)
    assert vocab.id_to_token == ["<unk>", "a", "b"]
    assert vocab.token_to_id["a"] == 1
    assert vocab.ids(["missing"]) == (UNK_ID,)


def test_build_vocab_tie_broken_lexicographically():
    vocab = build_vocab(["x y"], max_size=2)
    assert vocab.id_to_token == ["<unk>", "x"]


def test_build_vocab_deterministic():
    corpus = ["the quick brown fox", "the lazy dog", "the fox again"]
    assert build_vocab(corpus, 16).id_to_token == build_vocab(corpus, 16).id_to_token


def test_build_vocab_empty_corpus_is_unk_only():
    vocab = build_vocab([], max_size=100)
    assert vocab.id_to_token == ["<unk>"]


def test_tokenize_lowercases_and_splits_on_whitespace():
    assert tokenize("Hello,  World THERE") == ["hello,", "world", "there"]


# -- featurization ------------------------------------------------------------


def test_featurize_empty_is_zero_vector():
    vocab = build_vocab(["a b"], max_size=4)
    vec = featurize_texts([], vocab)
    assert vec.shape == (vocab.size,)
    assert np.all(vec == 0.0)


def test_featurize_counts_and_normalizes():
    vocab = build_vocab(["a b"], max_size=3)
    vec = featurize_texts(["a a b"], vocab)
    assert vec[vocab.token_to_id["a"]] == pytest.approx(2 / 3)
    assert vec[vocab.token_to_id["b"]] == pytest.approx(1 / 3)
    assert vec[0] == 0.0


def test_featurize_sentence_order_invariant():
    vocab = build_vocab(["alpha beta gamma delta"], max_size=8)
    texts = [s.text for s in segment("alpha beta. gamma delta.", vocab)]
    assert np.array_equal(featurize_texts(texts, vocab), featurize_texts(list(reversed(texts)), vocab))


def test_featurize_scale_invariant_in_multiset():
    # duplicating the whole multiset leaves the normalized vector unchanged
    vocab = build_vocab(["a b c"], max_size=8)
    texts = [s.text for s in segment("a b. c a.", vocab)]
    assert np.allclose(featurize_texts(texts, vocab), featurize_texts(texts + texts, vocab))


def test_featurize_skips_out_of_vocab_tokens():
    vocab = build_vocab(["known words"], max_size=4)
    vec = featurize_texts(["known stranger"], vocab)
    assert vec[vocab.token_to_id["known"]] == 1.0
    assert vec.sum() == pytest.approx(1.0)


def test_featurize_all_oov_is_zero_vector():
    vocab = build_vocab(["known"], max_size=2)
    vec = featurize_texts(["completely different"], vocab)
    assert np.all(vec == 0.0)


_KNOWN = [f"w{i}" for i in range(30)]
_INVARIANT_VOCAB = Vocabulary([UNK_TOKEN] + _KNOWN)
_WORD = st.sampled_from(_KNOWN + [w.upper() for w in _KNOWN[:5]] + ["u0", "u1", "u2"])
_TEXTS = st.lists(st.lists(_WORD, max_size=8).map(" ".join), max_size=6)


def _per_token_loop(texts, vocab):
    "The featurizer as one float64 increment per known token, then one division by the total."
    vec = np.zeros(vocab.size, dtype=np.float64)
    for text in texts:
        for tok in tokenize(text):
            tid = vocab.token_to_id.get(tok, UNK_ID)
            if tid != UNK_ID:
                vec[tid] += 1.0
    total = vec.sum()
    if total > 0.0:
        vec /= total
    return vec


# texts mostly of words outside the vocabulary, some only in case or trailing punctuation
_MOSTLY_UNKNOWN = st.lists(
    st.lists(st.sampled_from(["zorp", "Quux", "blee.", "x9,", "?", _KNOWN[0], _KNOWN[1] + ".", _KNOWN[2].upper()]), max_size=8).map(
        " ".join
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None, database=None)
@given(texts=_MOSTLY_UNKNOWN)
def test_text_ids_and_features_match_the_tokenizer_on_mostly_unknown_words(texts):
    for featurize_first in (True, False):
        vocab = Vocabulary(_INVARIANT_VOCAB.id_to_token)
        for _ in range(2):  # the second pass reads the per-text table the first filled
            if featurize_first:
                assert featurize_texts(texts, vocab).tobytes() == _per_token_loop(texts, vocab).tobytes()
            assert [vocab.text_ids(t) for t in texts] == [vocab.ids(tokenize(t)) for t in texts]
            assert featurize_texts(texts, vocab).tobytes() == _per_token_loop(texts, vocab).tobytes()


@settings(max_examples=300, deadline=None, database=None)
@given(texts=_TEXTS, data=st.data())
def test_featurize_invariants(texts, data):
    vocab = _INVARIANT_VOCAB
    vec = featurize_texts(texts, vocab)
    assert vec.tobytes() == _per_token_loop(texts, vocab).tobytes()
    shuffled = [" ".join(data.draw(st.permutations(tokenize(t)))) for t in data.draw(st.permutations(texts))]
    assert featurize_texts(shuffled, vocab).tobytes() == vec.tobytes()
    repeats = data.draw(st.integers(2, 7))
    assert featurize_texts(texts * repeats, vocab).tobytes() == vec.tobytes()
    assert featurize_texts(texts + ["u0 u1", "u2"], vocab).tobytes() == vec.tobytes()
    assert vec[UNK_ID] == 0.0
    if vec.any():
        assert vec.sum() == pytest.approx(1.0, abs=1e-12)
    else:
        assert not any(vocab.token_to_id.get(tok, UNK_ID) for text in texts for tok in tokenize(text))


def test_count_features_of_no_ids_is_the_zero_vector():
    vec = count_features([], 5)
    assert vec.dtype == np.float64 and vec.tobytes() == np.zeros(5).tobytes()
