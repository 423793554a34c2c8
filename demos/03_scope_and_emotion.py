#!/usr/bin/env python3
# The offline stages: synthesize a labeled corpus, train the sentence scope
# filter, train the emotion classifier on scoped inputs, and show why
# scoping matters by comparing against a full-text classifier on a
# distractor-heavy evaluation set.
# How to run: python demos/03_scope_and_emotion.py  (~10 s)

import warnings
from dataclasses import replace

import numpy as np

from emorl.emotion import EmotionModel, all_texts, evaluate_emotion, train_emotion
from emorl.envsim import build_offline_corpus, config_vocab, default_config
from emorl.scope import ScopeModel, train_scope

config = default_config()
vocab = config_vocab(config)
rng = np.random.default_rng(7)

# ------------------------------------------------------------------
# 1. Labeled corpus: task emails + injected directed/general emotions
# ------------------------------------------------------------------
corpus = build_offline_corpus(config, rng, 2400)
sample = corpus[0]
print(f"corpus: {len(corpus)} messages, gold emotion {sample.gold_emotion.name} for:")
for s in sample.sentences:
    flags = []
    if s.task_relevant:
        flags.append("task")
    if s.directed != "none":
        flags.append(f"directed-{s.directed}")
    if s.general != "none":
        flags.append(f"general-{s.general}")
    print(f"  [{', '.join(flags) or 'distractor':>14s}] {s.text}")

# ------------------------------------------------------------------
# 2. Train the scope filter on the per-sentence relevance labels
# ------------------------------------------------------------------
scope = ScopeModel(vocab, seed=0)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    metrics = train_scope(scope, corpus, epochs=6, lr=0.5, seed=0)
print(f"\nscope filter: holdout F1 {metrics['holdout_f1']:.3f}, "
      f"accuracy {metrics['holdout_accuracy']:.3f}")

scoped = scope.scope(sample.sentences)
print("kept sentences:", scoped.kept_texts)

# ------------------------------------------------------------------
# 3. Emotion classifier on scoped inputs vs full text
# ------------------------------------------------------------------
learned_scoper = lambda m: scope.scope(m.sentences).kept_texts
scoped_model = EmotionModel(vocab, seed=0)
m1 = train_emotion(scoped_model, corpus, epochs=12, lr=0.5, seed=0, scoper=learned_scoper)
full_model = EmotionModel(vocab, seed=0)
m2 = train_emotion(full_model, corpus, epochs=12, lr=0.5, seed=0, scoper=all_texts)
print(f"\nholdout accuracy: scoped {m1['accuracy']:.3f} vs full-text {m2['accuracy']:.3f}")

# ------------------------------------------------------------------
# 4. The gap widens on distractor-heavy messages
# ------------------------------------------------------------------
heavy_cfg = replace(config, distractor_rate=0.9, general_rate=0.85)
heavy = build_offline_corpus(heavy_cfg, np.random.default_rng(99), 900)
acc_scoped = evaluate_emotion(scoped_model, heavy, scoper=learned_scoper)["accuracy"]
acc_full = evaluate_emotion(full_model, heavy, scoper=all_texts)["accuracy"]
print(f"distractor-heavy eval: scoped {acc_scoped:.3f} vs full-text {acc_full:.3f} "
      f"(gap {acc_scoped - acc_full:+.3f})")
