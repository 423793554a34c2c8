#!/usr/bin/env python3
# The deterministic text front-end: punctuation-driven segmentation, the
# emotion-injection candidate positions, vocabulary building, and
# bag-of-words features.
# How to run: python demos/02_text_pipeline.py

from emorl.text import build_vocab, featurize_texts, insertion_positions, segment

email = (
    "Can we move the meeting to Thursday afternoon? By the way, "
    "the cafeteria menu changed. Thanks, that works great for me."
)

print("email:", email)
print()

# ------------------------------------------------------------------
# 1. Segmentation: split immediately after , . : ? !
# ------------------------------------------------------------------
segments = segment(email)
for s in segments:
    print(f"  span {s.span}: {s.text!r}")

# ------------------------------------------------------------------
# 2. Candidate injection positions sit just after each punctuation mark
# ------------------------------------------------------------------
positions = insertion_positions(email)
print("\ninsertion positions:", positions)
marked = email
for p in reversed(positions):
    marked = marked[:p] + "|" + marked[p:]
print("visualized:", marked)

# ------------------------------------------------------------------
# 3. Vocabulary and normalized bag-of-words features
# ------------------------------------------------------------------
vocab = build_vocab([email], max_size=64)
print(f"\nvocabulary size {vocab.size} (unknown id 0)")
vec = featurize_texts([s.text for s in segments], vocab)
top = sorted(range(vocab.size), key=lambda i: -vec[i])[:5]
print("largest feature weights:")
for i in top:
    print(f"  {vocab.id_to_token[i]!r}: {vec[i]:.3f}")
print("L1 norm:", vec.sum())
