"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Budgets and thresholds were fixed by pilot runs and stay frozen here; run
with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from emorl.emotion import EmotionLabel, EmotionModel, all_texts, evaluate_emotion, reward_of, train_emotion
from emorl.envsim import (
    FeedbackRegime,
    apply_regime,
    build_offline_corpus,
    corpus_to_jsonl,
    default_config,
)
from emorl.harness import ExperimentConfig, run_online
from emorl.text import insertion_positions, segment

from test_nn import fd_oracle_grads, max_rel_error, random_case

SEEDS = (1, 2, 3)


def check(number, ok, detail):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- shared expensive runs ------------------------------------------------------


@pytest.fixture(scope="module")
def scratch_full_runs():
    cfg = ExperimentConfig(task="multiclass", init="scratch", regime=FeedbackRegime.full())
    start = time.time()
    runs = {seed: run_online(cfg, seed)[0] for seed in SEEDS}
    return runs, time.time() - start


@pytest.fixture(scope="module")
def partial_runs_3x():
    cfg = ExperimentConfig(
        task="multiclass", init="scratch", regime=FeedbackRegime.partial(), interactions=60000
    )
    return {seed: run_online(cfg, seed)[0] for seed in SEEDS}


@pytest.fixture(scope="module")
def pretrained_full_runs():
    cfg = ExperimentConfig(task="multiclass", init="pretrained", regime=FeedbackRegime.full())
    out = {}
    for seed in SEEDS:
        curve, _, info = run_online(cfg, seed)
        out[seed] = (curve, info["baseline_accuracy"])
    return out


@pytest.fixture(scope="module")
def multilabel_regime_runs():
    results = {}
    for name, regime in (("partial", FeedbackRegime.partial()), ("noisy", FeedbackRegime.partial_noisy())):
        cfg = ExperimentConfig(
            task="multilabel",
            init="pretrained",
            regime=regime,
            interactions=30000,
            eval_every=1000,
            window=500,
            eval_size=60,
            pretrain_size=100,
            pretrain_epochs=80,
            generator=default_config(task="multilabel", pretrain_template_frac=0.6),
        )
        results[name] = {seed: run_online(cfg, seed)[0] for seed in SEEDS}
    return results


# -- criteria ---------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    for _ in range(100):
        net, x, mode, target, reward = random_case(rng)
        if mode == "reinforce":
            grads = net.reinforce_backward(x, target, reward)
        else:
            grads = net.supervised_backward(x, target)
        worst = max(worst, max_rel_error(net, grads, fd_oracle_grads(net, x, mode, target, reward)))
    elapsed = time.time() - start
    check(
        1,
        worst < 1e-4 and elapsed < 30.0,
        f"100 random cases, max relative gradient error {worst:.2e} (< 1e-4), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_reward_mapping_exact():
    ok = (
        reward_of(EmotionLabel.POSITIVE) == 1.0
        and reward_of(EmotionLabel.NEGATIVE) == -1.0
        and reward_of(EmotionLabel.NEUTRAL) == 0.0
    )
    check(2, ok, "reward mapping is exactly {+1, -1, 0}")


def test_criterion_3_feedback_regime_statistics():
    rng = np.random.default_rng(99)
    labels = [EmotionLabel.POSITIVE, EmotionLabel.NEGATIVE, EmotionLabel.NEUTRAL]
    n = 100000
    present = 0
    for i in range(n):
        p, _ = apply_regime(FeedbackRegime.partial(), rng, labels[i % 3])
        present += int(p)
    rate = present / n

    noisy = FeedbackRegime.partial_noisy()
    delivered = corrupted = 0
    for i in range(n):
        true = labels[i % 3]
        p, observed = apply_regime(noisy, rng, true)
        if p:
            delivered += 1
            corrupted += int(observed is not true)
    frac = corrupted / delivered
    ok = abs(rate - 0.15) <= 0.005 and abs(frac - 1 / 3) <= 0.01
    check(
        3,
        ok,
        f"partial presence {rate:.4f} (0.15 +/- 0.005); corruption {frac:.4f} (1/3 +/- 0.01, n={delivered})",
    )


def test_criterion_4_scratch_learning(scratch_full_runs):
    runs, elapsed = scratch_full_runs
    details = []
    ok = elapsed < 300.0
    for seed, curve in runs.items():
        start = curve.rows[0].rolling_success
        best = max(r.rolling_success for r in curve.rows)
        seed_ok = abs(start - 1 / 3) <= 0.05 and best >= 0.85
        ok = ok and seed_ok
        details.append(f"seed {seed}: start {start:.3f}, peak {best:.3f}")
    check(4, ok, "; ".join(details) + f"; wall {elapsed:.0f}s (< 300s)")


def test_criterion_5_partial_comparable_to_full(scratch_full_runs, partial_runs_3x):
    full_runs, _ = scratch_full_runs
    ok = True
    details = []
    for seed in SEEDS:
        full = full_runs[seed].final_success
        partial = partial_runs_3x[seed].final_success
        ok = ok and partial >= full - 0.05
        details.append(f"seed {seed}: full {full:.3f} vs partial@3x {partial:.3f}")
    check(5, ok, "; ".join(details))


def test_criterion_6_noisy_degrades_multilabel(multilabel_regime_runs):
    partial = np.mean([c.final_success for c in multilabel_regime_runs["partial"].values()])
    noisy = np.mean([c.final_success for c in multilabel_regime_runs["noisy"].values()])
    check(
        6,
        partial - noisy >= 0.05,
        f"multilabel partial {partial:.3f} vs partial-noisy {noisy:.3f} (gap {partial - noisy:.3f} >= 0.05)",
    )


def test_criterion_7_pretraining_uplift(scratch_full_runs, pretrained_full_runs):
    scratch_runs, _ = scratch_full_runs
    ok = True
    details = []
    for seed in SEEDS:
        curve, baseline = pretrained_full_runs[seed]
        in_band = 0.55 <= baseline <= 0.70
        lift = curve.final_success >= 1.2 * baseline
        ok = ok and in_band and lift
        details.append(f"seed {seed}: baseline {baseline:.3f}, final {curve.final_success:.3f}")
    pre_cross = [pretrained_full_runs[s][0].first_step_reaching(0.80) for s in SEEDS]
    scr_cross = [scratch_runs[s].first_step_reaching(0.80) for s in SEEDS]
    ok = ok and all(c is not None for c in pre_cross + scr_cross)
    mean_pre = float(np.mean(pre_cross))
    mean_scr = float(np.mean(scr_cross))
    ok = ok and mean_pre <= mean_scr / 2.0
    details.append(f"mean step to 0.80: pretrained {mean_pre:.0f} vs scratch {mean_scr:.0f}")
    check(7, ok, "; ".join(details))


def test_criterion_8_scoping_benefit(vocab, corpus3000, trained_scope, gen_config):
    scoper = lambda m: trained_scope.scope(segment(m.text, vocab)).kept_texts
    scoped_model = EmotionModel(vocab, seed=0)
    scoped_metrics = train_emotion(scoped_model, corpus3000, epochs=12, lr=0.5, seed=0, scoper=scoper)
    full_model = EmotionModel(vocab, seed=0)
    train_emotion(full_model, corpus3000, epochs=12, lr=0.5, seed=0, scoper=all_texts)

    heavy_cfg = replace(gen_config, distractor_rate=0.9, general_rate=0.85)
    heavy = build_offline_corpus(heavy_cfg, np.random.default_rng(99), 1200)
    with_scope = evaluate_emotion(scoped_model, heavy, scoper=scoper)["accuracy"]
    without = evaluate_emotion(full_model, heavy, scoper=all_texts)["accuracy"]
    ok = with_scope - without >= 0.03 and scoped_metrics["accuracy"] >= 0.90
    check(
        8,
        ok,
        f"distractor-heavy accuracy {with_scope:.3f} with scope vs {without:.3f} without "
        f"(gap {with_scope - without:.3f} >= 0.03); holdout accuracy {scoped_metrics['accuracy']:.3f} >= 0.90",
    )


def test_criterion_9_determinism(tmp_path, gen_config):
    cfg = ExperimentConfig(
        task="multiclass", interactions=1000, eval_every=100, window=100, eval_size=30, seeds=(5,)
    )
    files = {}
    for tag in ("first", "second"):
        curve_path = tmp_path / f"{tag}.csv"
        ckpt = tmp_path / tag
        run_online(cfg, 5, curve_path=curve_path, checkpoint_dir=ckpt)
        files[tag] = (curve_path.read_bytes(), {f.name: f.read_bytes() for f in sorted(ckpt.iterdir())})
    curves_equal = files["first"][0] == files["second"][0]
    ckpt_equal = files["first"][1] == files["second"][1]

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    corpus_to_jsonl(build_offline_corpus(gen_config, np.random.default_rng(11), 400), a)
    corpus_to_jsonl(build_offline_corpus(gen_config, np.random.default_rng(11), 400), b)
    corpus_equal = a.read_bytes() == b.read_bytes()
    check(
        9,
        curves_equal and ckpt_equal and corpus_equal,
        f"byte-identical repeats: curves {curves_equal}, checkpoints {ckpt_equal}, corpus {corpus_equal}",
    )


def test_criterion_10_dataset_synthesis_audit(gen_config):
    corpus = build_offline_corpus(gen_config, np.random.default_rng(12345), 10000)
    offset_violations = 0
    label_violations = 0
    general_only = 0
    for m in corpus:
        positions = set(insertion_positions(m.base_text))
        for inj in m.injections:
            if inj.offset not in positions:
                offset_violations += 1
        directed = any(s.directed != "none" for s in m.sentences)
        general = any(s.general != "none" for s in m.sentences)
        if general and not directed:
            general_only += 1
            if m.gold_emotion is not EmotionLabel.NEUTRAL:
                label_violations += 1
    ok = offset_violations == 0 and label_violations == 0 and general_only > 500
    check(
        10,
        ok,
        f"10k samples: {offset_violations} off-position injections, "
        f"{label_violations} mislabeled general-only samples ({general_only} general-only)",
    )
