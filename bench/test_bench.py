"""Self-tests of the benchmark: its own recomputations agree with the program
on small runs, and every check rejects a deliberately wrong output.

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402
from emorl import harness, nn  # noqa: E402
from emorl.envsim import FeedbackRegime, default_config  # noqa: E402
from emorl.harness import ExperimentConfig  # noqa: E402

TINY = {
    "multiclass": ExperimentConfig(
        task="multiclass",
        init="scratch",
        regime=FeedbackRegime.partial(0.5),
        interactions=300,
        eval_every=100,
        window=100,
        eval_size=40,
    ),
    "multilabel": ExperimentConfig(
        task="multilabel",
        init="pretrained",
        interactions=200,
        eval_every=100,
        window=100,
        eval_size=40,
        hidden=(16,),
        pretrain_size=60,
        pretrain_epochs=30,
        generator=default_config(task="multilabel", pretrain_template_frac=0.6),
    ),
}


@pytest.fixture(params=sorted(TINY))
def tiny_run(request, tmp_path):
    "A small online run with the benchmark's hooks installed."
    config = TINY[request.param]
    audit = workload.Audit(config)
    with audit.installed():
        curve, agent, info = harness.run_online(config, 3, curve_path=tmp_path / "c.csv", checkpoint_dir=tmp_path / "a")
    return config, audit, curve, agent, info, tmp_path / "a"


def test_accuracy_recomputation_matches_policy_evaluate(tiny_run):
    config, audit, curve, agent, info, agent_dir = tiny_run
    heads, kind = checks.read_agent(agent_dir)
    assert kind == ("softmax" if config.task == "multiclass" else "sigmoid")
    assert len(heads) == len(agent.networks())
    assert checks.accuracy(heads, kind, audit.eval_set) == agent.evaluate(audit.eval_set) == curve.final_eval
    if config.init == "pretrained":
        assert checks.accuracy(audit.baseline_heads, kind, audit.eval_set) == info["baseline_accuracy"]


def test_hooks_see_every_interaction(tiny_run):
    config, audit, curve, agent, info, _ = tiny_run
    assert len(audit.flags) == config.interactions and audit.bad == 0
    assert audit.flags == info["correct_flags"]
    assert 0.0 < audit.loop_start < audit.loop_end
    assert checks.final_success_ok(audit.flags, curve.rows[-1].step, config.window, curve.final_success)
    assert checks.share_ok(audit.present, len(audit.flags), config.regime.p)


def test_final_eval_check_catches_perturbed_weight_and_flipped_label(tiny_run):
    config, audit, curve, agent, _, agent_dir = tiny_run
    assert curve.final_eval > 0.0
    heads, kind = checks.read_agent(agent_dir)
    # the output layer negated: argmax becomes argmin, every bit flips
    for layers in heads:
        w, b, act = layers[-1]
        layers[-1] = (-w, -b, act)
    assert checks.accuracy(heads, kind, audit.eval_set) != curve.final_eval

    heads, _ = checks.read_agent(agent_dir)
    i = next(i for i, example in enumerate(audit.eval_set) if agent.evaluate([example]) == 1.0)
    state, label = audit.eval_set[i]
    wrong = (label + 1) % 3 if kind == "softmax" else tuple(1 - b for b in label)
    flipped = audit.eval_set[:i] + [(state, wrong)] + audit.eval_set[i + 1 :]
    assert checks.accuracy(heads, kind, flipped) != curve.final_eval


def test_checkpoint_reader_is_bit_exact(tmp_path):
    net = nn.Network.build([7, 5, 3], head="softmax", rng=np.random.default_rng(0))
    nn.save_checkpoint(net, tmp_path / "n.ckpt")
    layers, kind = checks.head_layers(checks.read_checkpoint(tmp_path / "n.ckpt"))
    assert kind == "softmax"
    for (w, b, act), layer in zip(layers, net.layers, strict=True):
        assert act == layer.activation
        assert np.array_equal(w, layer.w.values) and np.array_equal(b, layer.b.values)


def test_interaction_checks_reject_wrong_records():
    assert checks.reward_ok(True, "POSITIVE", 1.0)
    assert checks.reward_ok(False, "NEUTRAL", 0.0)
    assert not checks.reward_ok(True, "POSITIVE", -1.0)
    assert not checks.reward_ok(True, "NEUTRAL", 1.0)
    assert not checks.reward_ok(False, "NEGATIVE", -1.0)  # absent feedback must read Neutral
    assert checks.correct_ok((1, 0), (1, 0), True)
    assert not checks.correct_ok(2, 1, True)
    assert not checks.correct_ok(1, 1, False)


def test_round_checks_reject_wrong_outputs():
    flags = [True, False, True, True]
    assert checks.final_success_ok(flags, 4, 2, 1.0)
    assert not checks.final_success_ok([True, False, False, True], 4, 2, 1.0)  # one flipped flag
    assert not checks.final_success_ok(flags[:3], 4, 2, 1.0)  # a missing interaction

    n, p = 20000, 0.15
    sigma = (n * p * (1 - p)) ** 0.5
    assert checks.share_ok(int(n * p), n, p)
    assert not checks.share_ok(int(n * p + 6 * sigma), n, p)
    assert checks.share_ok(n, n, 1.0)
    assert not checks.share_ok(n - 1, n, 1.0)  # full feedback must always be present

    assert not checks.above_baseline_ok(0.6, 0.6)
    assert not checks.left_chance_ok(0.40, 3, 300)
    assert checks.left_chance_ok(0.95, 3, 300)
    assert not checks.offline_ok(89, 100)
    assert checks.offline_ok(90, 100)

    files = {"curve.csv": b"step\n1\n", "agent/head0.ckpt": b"NARL\x01"}
    assert checks.identical_ok(files, dict(files))
    assert not checks.identical_ok(files, {**files, "agent/head0.ckpt": b"NARL\x02"})


def test_tracer_self_time_and_update_count():
    tracer = spans.Tracer({"policy.learn": [], "nn.reinforce_backward": []})
    backward = tracer.wrap("nn.reinforce_backward", lambda: None)
    learn = tracer.wrap("policy.learn", lambda update: backward() if update else None)
    for update in (True, False, True, False):
        learn(update)
    m = tracer.summary()
    assert m["policy.learn.calls"][0] == 4 and m["nn.reinforce_backward.calls"][0] == 2
    assert m["policy.learn.updates"][0] == 2 and m["policy.learn.update_ratio"][0] == 0.5
    assert m["policy.learn.self_s"][0] == pytest.approx(m["policy.learn.s"][0] - m["nn.reinforce_backward.s"][0])


@pytest.mark.parametrize("task", sorted(TINY))
def test_traced_round_repeats_untraced_bytes(task, tmp_path, monkeypatch):
    monkeypatch.setattr(workload, "experiment", lambda name: TINY[task])
    result = workload.traced("tiny", 2, tmp_path / "work", tmp_path / "trace.npz")
    # a tiny run need not learn; every check that does not judge learning holds
    learning = {"above_baseline", "left_chance"}
    for r in result.rounds:
        assert r.bad_interactions == 0
        assert all(ok for name, ok in r.checks.items() if name not in learning), r.checks
    assert "traced_identical" in result.rounds[1].checks
    names = spans.lookup_sites(workload.emorl)
    for name in names:
        assert f"{name}.calls" in result.metrics and f"{name}.self_s" in result.metrics
    assert result.metrics["harness.run_online.calls"][0] == 1
    assert result.metrics["policy.learn.calls"][0] == TINY[task].interactions
    stored = np.load(tmp_path / "trace.npz")
    assert list(stored["names"]) == list(names) and len(stored["start"]) == len(stored["parent"])


def _round(windows, checks=None, known_fault=None):
    return workload.Round(
        setup_s=1.0,
        windows=np.array(windows),
        interactions=100,
        present=100,
        bad_interactions=0,
        final_success=1.0,
        files={},
        checks=checks or {},
        known_fault=known_fault,
    )


def test_loop_rate_takes_each_window_at_its_fastest():
    rounds = [_round([1.0, 3.0]), _round([2.0, 1.0])]
    assert workload.fastest_rate(rounds) == 100 / 2.0
    assert workload.fastest_rate(rounds[:1]) == 100 / 4.0


def test_only_the_known_fault_leaves_a_run_correct():
    fault = _round([1.0], {"above_baseline": False, "final_eval": True}, known_fault="above_baseline")
    result = workload.Result([_round([1.0], {"final_eval": True}), fault], {})
    assert result.to_json()["failed"] == 1 and result.to_json()["correct"]
    fault.checks["final_eval"] = False  # any other failure makes the run wrong
    assert result.to_json()["failed"] == 2 and not result.to_json()["correct"]
    plain = workload.Result([_round([1.0], {"above_baseline": False})], {})
    assert not plain.to_json()["correct"]


def test_warm_round_replays_pretraining_and_repeats_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(workload, "experiment", lambda name: TINY["multilabel"])
    full = workload.run_round("tiny", 2, tmp_path / "full")
    calls = []
    monkeypatch.setattr(harness, "draw_pretrain_set", lambda *a: calls.append(a) or [])
    warm = workload.run_round("tiny", 2, tmp_path / "warm", warm=full)
    assert calls  # run_online still draws the set; the replay ignores it
    assert warm.files == full.files and warm.bad_interactions == 0
    assert warm.checks["final_eval"] and warm.checks["baseline"]
