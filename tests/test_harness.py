import hashlib
import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from emorl.cli import main
from emorl.envsim import Environment, FeedbackRegime
from emorl.harness import (
    CurveRow,
    ExperimentConfig,
    LearningCurve,
    load_config_file,
    read_report,
    rederive_report,
    report_rows_equal,
    run_grid,
    run_online,
    write_manifest,
    write_report,
)
from emorl.nn import Network, write_tensors
from emorl.policy import MultilabelPolicy, save_agent

SMALL = dict(interactions=300, eval_every=100, window=100, eval_size=30, seeds=(1,))


TEST_CONFIG = """
[generator]
distractor_rate = 0.5
q_pos = 0.8
q_neg = 0.9

[scope]
epochs = 3
lr = 0.5

[emotion]
epochs = 6
lr = 0.5

[online]
task = multiclass
init = scratch
regime = partial_noisy
feedback_p = 0.15
wrong_frac = 1/3
channel = oracle
interactions = 200
eval_every = 100
window = 100
eval_size = 20
seeds = 1, 2
lr = 0.05
hidden = 64

[data]
n = 120
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.ini"
    path.write_text(TEST_CONFIG, encoding="utf-8")
    return path


# -- config objects ------------------------------------------------------------


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(interactions=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(interactions=100, eval_every=200)
    with pytest.raises(ValueError):
        ExperimentConfig(interactions=100, window=500)
    with pytest.raises(ValueError):
        ExperimentConfig(task="tertiary")
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())


@pytest.mark.parametrize(
    "bad",
    [
        dict(eval_size=0),
        dict(lr=0.0),
        dict(lr=-0.05),
        dict(lr=float("nan")),
        dict(lr=float("inf")),
        dict(init_scale=-0.5),
        dict(init_scale=float("nan")),
        dict(hidden=(0,)),
        dict(hidden=(64, 0)),
        dict(init="pretrained", pretrain_size=0),
        dict(init="pretrained", pretrain_epochs=0),
    ],
)
def test_experiment_config_refuses_values_no_run_can_use(bad):
    with pytest.raises(ValueError):
        ExperimentConfig(**bad)


def test_experiment_config_accepts_the_edges_of_its_ranges():
    ExperimentConfig(eval_size=1, init_scale=0.0, hidden=())
    # the pretraining sizes matter only to a pretrained run
    ExperimentConfig(init="scratch", pretrain_size=0, pretrain_epochs=0)
    ExperimentConfig(init="pretrained", pretrain_size=1, pretrain_epochs=1)


def test_task_switch_drops_mismatched_pretrain_weights():
    cfg = ExperimentConfig(task="multilabel")
    assert cfg.generator.pretrain_intent_weights is None


def test_config_file_parsing(config_file):
    loaded = load_config_file(config_file)
    cfg = loaded["experiment"]
    assert cfg.task == "multiclass"
    assert cfg.regime == FeedbackRegime.partial_noisy(0.15, 1 / 3)
    assert cfg.seeds == (1, 2)
    assert cfg.hidden == (64,)
    assert cfg.interactions == 200
    assert loaded["stages"]["data"]["n"] == "120"


def test_config_file_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config_file(tmp_path / "nope.ini")


# -- curves ---------------------------------------------------------------------


def test_curve_requires_increasing_steps():
    curve = LearningCurve([CurveRow(100, 0.5, 0.5)])
    with pytest.raises(ValueError):
        curve.append(CurveRow(100, 0.6, 0.6))
    with pytest.raises(ValueError):
        curve.append(CurveRow(150, 1.5, 0.5))


def test_curve_csv_round_trip(tmp_path):
    # the curve file `run_online` writes reads back as the curve it returned, to six decimals
    path = tmp_path / "curve.csv"
    curve, _, _ = run_online(ExperimentConfig(**SMALL), seed=1, curve_path=path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "step,rolling_success,eval_accuracy"
    loaded = LearningCurve.from_csv(path)
    assert [(r.step, r.rolling_success, r.eval_accuracy) for r in loaded.rows] == [
        (r.step, round(r.rolling_success, 6), round(r.eval_accuracy, 6)) for r in curve.rows
    ]
    assert len(loaded) == 3


# -- run_online -----------------------------------------------------------------


def test_zero_interactions_empty_curve_unchanged_agent():
    cfg = ExperimentConfig(interactions=0, eval_every=1, window=1, seeds=(1,), eval_size=5)
    curve, agent, info = run_online(cfg, seed=1)
    assert len(curve) == 0
    from emorl.harness import build_agent, config_vocab

    fresh = build_agent(cfg, config_vocab(cfg.generator).size, 1)
    assert [p.values.tobytes() for p in agent.net.params()] == [
        p.values.tobytes() for p in fresh.net.params()
    ]


def test_curve_rows_match_rolling_recomputation():
    cfg = ExperimentConfig(**SMALL)
    curve, _, info = run_online(cfg, seed=1)
    flags = info["correct_flags"]
    assert len(curve) == cfg.interactions // cfg.eval_every
    for row in curve.rows:
        expected = float(np.mean(flags[max(0, row.step - cfg.window) : row.step]))
        assert row.rolling_success == pytest.approx(expected)


@pytest.mark.parametrize("task", ["multiclass", "multilabel"])
def test_one_reinforce_backward_per_informative_record(task, monkeypatch):
    # the benchmark counts policy updates as `Network.reinforce_backward`
    # calls inside `learn`, patched at the class: there must be exactly one
    # per record with feedback present and a nonzero reward
    calls, records = [], []
    backward, step = Network.reinforce_backward, Environment.step

    def counted_backward(self, *args, **kwargs):
        calls.append(1)
        return backward(self, *args, **kwargs)

    def recorded_step(self, action):
        records.append(step(self, action))
        return records[-1]

    monkeypatch.setattr(Network, "reinforce_backward", counted_backward)
    monkeypatch.setattr(Environment, "step", recorded_step)
    run_online(ExperimentConfig(task=task, regime=FeedbackRegime.full(), **SMALL), seed=2)
    informative = sum(r.feedback_present and r.reward != 0.0 for r in records)
    assert len(records) == SMALL["interactions"]
    assert 0 < informative < len(records)  # neutral replies give some zero rewards
    assert len(calls) == informative


def test_run_online_deterministic_files(tmp_path):
    cfg = ExperimentConfig(**SMALL)
    paths = []
    for name in ("a", "b"):
        curve_path = tmp_path / f"{name}.csv"
        ckpt_dir = tmp_path / name
        run_online(cfg, seed=3, curve_path=curve_path, checkpoint_dir=ckpt_dir)
        paths.append((curve_path, ckpt_dir))
    (c1, d1), (c2, d2) = paths
    assert c1.read_bytes() == c2.read_bytes()
    for f1 in sorted(d1.iterdir()):
        assert f1.read_bytes() == (d2 / f1.name).read_bytes()


def test_run_online_100_interactions_is_fast():
    cfg = ExperimentConfig(interactions=100, eval_every=50, window=50, seeds=(1,), eval_size=20)
    start = time.time()
    run_online(cfg, seed=1)
    assert time.time() - start < 10.0


def test_pretrained_init_reports_baseline():
    cfg = ExperimentConfig(init="pretrained", **SMALL)
    _, _, info = run_online(cfg, seed=1)
    assert 0.0 <= info["baseline_accuracy"] <= 1.0


# -- grid and report --------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_grid(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("grid")
    base = ExperimentConfig(
        interactions=60,
        eval_every=30,
        window=30,
        eval_size=10,
        seeds=(1,),
        pretrain_size=12,
        pretrain_epochs=2,
    )
    rows = run_grid(base, run_dir)
    return run_dir, base, rows


def test_grid_report_has_twelve_rows(tiny_grid):
    run_dir, _, rows = tiny_grid
    assert len(rows) == 12
    cells = {(r["task"], r["init"], r["regime"]) for r in rows}
    assert len(cells) == 12
    assert all(r["panel_order_ok"] in (0, 1) for r in rows)
    stored = read_report(run_dir / "report.csv")
    assert len(stored) == 12


def test_grid_cell_equals_run_online(tiny_grid, tmp_path):
    run_dir, base, _ = tiny_grid
    cfg = replace(base, task="multiclass", init="scratch", regime=FeedbackRegime.full())
    solo = tmp_path / "solo.csv"
    run_online(cfg, 1, curve_path=solo)
    cell = run_dir / "curves" / "multiclass_scratch_full_s1.csv"
    assert solo.read_bytes() == cell.read_bytes()


def test_report_rederivation_matches_stored(tiny_grid):
    run_dir, _, _ = tiny_grid
    rows = rederive_report(run_dir)
    stored = read_report(run_dir / "report.csv")
    assert report_rows_equal(rows, stored)


def test_curve_files_are_valid_prefixes(tiny_grid):
    run_dir, base, _ = tiny_grid
    for path in (run_dir / "curves").glob("*.csv"):
        curve = LearningCurve.from_csv(path)  # parses -> header + increasing steps
        assert len(curve) == base.interactions // base.eval_every


# -- CLI ---------------------------------------------------------------------------


def test_cli_unknown_flag_exits_2(config_file):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--config", str(config_file), "--bogus"])
    assert exc.value.code == 2


def test_cli_runtime_error_exits_1(tmp_path):
    rc = main(["gen-data", "--config", str(tmp_path / "missing.ini"), "--out", str(tmp_path / "x.jsonl")])
    assert rc == 1


def test_cli_gen_data_writes_exact_count(config_file, tmp_path, capsys):
    out = tmp_path / "corpus.jsonl"
    rc = main(["gen-data", "--config", str(config_file), "--out", str(out), "--n", "50"])
    assert rc == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 50
    assert "50 records" in capsys.readouterr().out


def test_cli_seed_and_env_override(config_file, tmp_path, monkeypatch):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    c = tmp_path / "c.jsonl"
    main(["gen-data", "--config", str(config_file), "--out", str(a), "--n", "30", "--seed", "9"])
    monkeypatch.setenv("NARLE_SEED", "9")
    main(["gen-data", "--config", str(config_file), "--out", str(b), "--n", "30"])
    monkeypatch.delenv("NARLE_SEED")
    main(["gen-data", "--config", str(config_file), "--out", str(c), "--n", "30"])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_cli_offline_pipeline_and_run(config_file, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["gen-data", "--config", str(config_file), "--out", str(corpus), "--n", "150"]) == 0

    scope_dir = tmp_path / "scope"
    assert main(["train-scope", "--config", str(config_file), "--data", str(corpus), "--out", str(scope_dir)]) == 0
    assert (scope_dir / "scope.ckpt").exists()
    assert (scope_dir / "vocab.tsv").exists()

    emo_dir = tmp_path / "emotion"
    rc = main(
        [
            "train-emotion",
            "--config",
            str(config_file),
            "--data",
            str(corpus),
            "--out",
            str(emo_dir),
            "--scope",
            str(scope_dir / "scope.ckpt"),
        ]
    )
    assert rc == 0
    eval_lines = (emo_dir / "emotion_eval.csv").read_text(encoding="utf-8").splitlines()
    assert eval_lines[0] == "split,accuracy,macro_f1"
    assert eval_lines[1].startswith("holdout,")

    agent_dir = tmp_path / "agent"
    assert main(["pretrain-intent", "--config", str(config_file), "--out", str(agent_dir)]) == 0
    assert json.loads((agent_dir / "agent.json").read_text(encoding="utf-8"))["task"] == "multiclass"

    run_dir = tmp_path / "run"
    assert main(["run-online", "--config", str(config_file), "--run-dir", str(run_dir)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["seeds"] == [1, 2]
    assert len(manifest["config_sha256"]) == 64
    curves = sorted((run_dir / "curves").glob("*.csv"))
    assert len(curves) == 2
    assert (run_dir / "report.csv").exists()
    assert (run_dir / "config.ini").read_text(encoding="utf-8") == TEST_CONFIG

    capsys.readouterr()
    assert main(["report", "--run-dir", str(run_dir)]) == 0
    assert "matches the stored report" in capsys.readouterr().out


def test_cli_pretrain_intent_writes_the_agent_run_online_pretrains(config_file, tmp_path):
    agent_dir = tmp_path / "agent"
    assert main(["pretrain-intent", "--config", str(config_file), "--out", str(agent_dir), "--seed", "2"]) == 0
    config = replace(load_config_file(config_file)["experiment"], init="pretrained", interactions=0)
    run_online(config, 2, checkpoint_dir=tmp_path / "run")
    for name in ("agent.json", "head0.ckpt"):
        assert (agent_dir / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


def test_cli_run_online_interactions_override_is_fast(config_file, tmp_path):
    run_dir = tmp_path / "fast"
    start = time.time()
    rc = main(
        [
            "run-online",
            "--config",
            str(config_file),
            "--run-dir",
            str(run_dir),
            "--interactions",
            "100",
            "--seed",
            "1",
        ]
    )
    assert rc == 0
    assert time.time() - start < 10.0
    curve = next((run_dir / "curves").glob("*.csv"))
    assert curve.read_text(encoding="utf-8").splitlines()[-1].startswith("100,")


def test_cli_run_online_rejects_negative_interactions_before_writing(config_file, tmp_path, capsys):
    run_dir = tmp_path / "bad"
    rc = main(["run-online", "--config", str(config_file), "--run-dir", str(run_dir), "--interactions", "-5"])
    assert rc == 2  # a usage error
    assert "interactions must be non-negative" in capsys.readouterr().err
    assert not run_dir.exists()


def _bad_config(tmp_path, old, new):
    path = tmp_path / "bad.ini"
    assert old in TEST_CONFIG
    path.write_text(TEST_CONFIG.replace(old, new), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    ("old", "new", "message"),
    [
        ("eval_size = 20", "eval_size = 0", "eval_size"),
        ("lr = 0.05", "lr = 0", "lr must"),
        ("lr = 0.05", "lr = -0.05", "lr must"),
        ("hidden = 64", "hidden = 64\ninit_scale = -1", "init_scale"),
        ("hidden = 64", "hidden = 0", "hidden width"),
        ("init = scratch", "init = pretrained\npretrain_size = 0", "pretrain_size"),
        ("init = scratch", "init = pretrained\npretrain_epochs = 0", "pretrain_epochs"),
    ],
)
def test_cli_run_online_refuses_an_unusable_config_before_writing(old, new, message, tmp_path, capsys):
    path = _bad_config(tmp_path, old, new)
    run_dir = tmp_path / "run"
    assert main(["run-online", "--config", str(path), "--run-dir", str(run_dir)]) == 1
    assert message in capsys.readouterr().err
    assert not run_dir.exists()


def test_cli_run_grid_refuses_the_learned_channel_before_writing(tmp_path, capsys):
    path = _bad_config(tmp_path, "channel = oracle", "channel = learned")
    run_dir = tmp_path / "grid"
    assert main(["run-grid", "--config", str(path), "--run-dir", str(run_dir)]) == 1
    assert "oracle channel only" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize("given", [[], ["--scope", "scope.ckpt"], ["--emotion", "emotion.ckpt"]])
def test_cli_run_online_learned_channel_without_models_is_a_usage_error(given, tmp_path, capsys):
    path = _bad_config(tmp_path, "channel = oracle", "channel = learned")
    run_dir = tmp_path / "run"
    assert main(["run-online", "--config", str(path), "--run-dir", str(run_dir), *given]) == 2
    assert "channel=learned requires" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize("layout", ["missing", "empty", "no curves"])
def test_cli_report_without_curves_is_a_usage_error(layout, tmp_path, capsys):
    run_dir = tmp_path / "run"
    if layout != "missing":
        (run_dir / "curves").mkdir(parents=True)
    if layout == "no curves":
        (run_dir / "report.csv").write_text("task,init,regime\n", encoding="utf-8")
    assert main(["report", "--run-dir", str(run_dir)]) == 2
    assert "no curve files" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("command", "configured", "override", "code"),
    [("run-online", "0", [], 1), ("run-grid", "0", [], 1), ("run-online", "200", ["--interactions", "0"], 2)],
)
def test_cli_runners_refuse_zero_interactions_before_writing(command, configured, override, code, tmp_path, capsys):
    path = _bad_config(tmp_path, "interactions = 200", f"interactions = {configured}")
    run_dir = tmp_path / "run"
    assert main([command, "--config", str(path), "--run-dir", str(run_dir), *override]) == code
    assert "needs at least one interaction" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["gen-data", "--out", "{out}/corpus.jsonl", "--n", "0"], "positive --n"),
        (["gen-data", "--out", "{out}/corpus.jsonl", "--n", "-3"], "positive --n"),
        (["train-emotion", "--data", "{data}", "--out", "{out}", "--scoper", "scope"], "requires --scope"),
    ],
)
def test_cli_offline_usage_errors_exit_2_before_writing(argv, message, config_file, tmp_path, capsys):
    data, out = tmp_path / "corpus.jsonl", tmp_path / "out"
    data.write_text("", encoding="utf-8")
    argv = [a.format(data=data, out=out) for a in argv]
    assert main([*argv, "--config", str(config_file)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_report_refuses_a_config_the_manifest_does_not_hash(tmp_path, capsys):
    # what a process killed between write_manifest's two moves leaves behind
    run_dir = tmp_path / "run"
    (run_dir / "curves").mkdir(parents=True)
    (run_dir / "curves" / "multiclass_scratch_full_s1.csv").write_text(
        "step,rolling_success,eval_accuracy\n100,0.500000,0.400000\n", encoding="utf-8"
    )
    write_manifest(run_dir, "[online]\nseeds = 1\n", (1,))
    assert main(["report", "--run-dir", str(run_dir)]) == 0
    (run_dir / "config.ini").write_text("[online]\nseeds = 2\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--run-dir", str(run_dir)]) == 1
    assert "config_sha256" in capsys.readouterr().err


# -- crash-safe artefacts ---------------------------------------------------------


class _Unwritable:
    "An array-like whose conversion fails, as a write may fail partway."

    def __array__(self, dtype=None, copy=None):
        raise OSError("disk gone")


def _fail_agent_json(out):
    agent = MultilabelPolicy(6, hidden=(4,), seed=1)
    agent.valid_combos = (object(),)  # json cannot encode it, after every head is written
    save_agent(agent, out)


WRITERS = {
    # name: (path under the directory, write that succeeds, write that fails partway)
    "checkpoint": (
        "t.ckpt",
        lambda d: write_tensors(d / "t.ckpt", {"a": np.ones(3, dtype=np.float32)}),
        lambda d: write_tensors(d / "t.ckpt", {"a": np.zeros(2, dtype=np.float32), "b": _Unwritable()}),
    ),
    "agent.json": (
        "agent/agent.json",
        lambda d: save_agent(MultilabelPolicy(6, hidden=(4,), seed=1), d / "agent"),
        lambda d: _fail_agent_json(d / "agent"),
    ),
    "config.ini": (
        "run/config.ini",
        lambda d: write_manifest(d / "run", "[online]\nseeds = 1\n", (1,)),
        lambda d: write_manifest(d / "run", "[online]\n\udc80", (1,)),  # a lone surrogate cannot be encoded
    ),
    "manifest.json": (
        "run/manifest.json",
        lambda d: write_manifest(d / "run", "[online]\nseeds = 1\n", (1,)),
        lambda d: write_manifest(d / "run", "[online]\nseeds = 2\n", (object(),)),
    ),
    "report.csv": (
        "report.csv",
        lambda d: write_report(d / "report.csv", []),
        lambda d: write_report(d / "report.csv", [{"task": "multiclass"}]),  # a row without its other cells
    ),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_the_old_file_and_leaves_no_temporary(name, tmp_path):
    rel, write, fail = WRITERS[name]
    write(tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert tmp_path / rel in before
    with pytest.raises((OSError, TypeError, KeyError, UnicodeError)):
        fail(tmp_path)
    after = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert after[tmp_path / rel] == before[tmp_path / rel]
    assert not [p.name for p in after if p.name.endswith(".tmp")]


@pytest.mark.parametrize("failure", ["config text", "seeds", "manifest move"])
def test_failed_manifest_write_keeps_config_and_manifest_as_a_pair(failure, tmp_path, monkeypatch):
    # config.ini and the manifest.json that hashes it are replaced together or
    # not at all: after any failing write the pair still matches
    run = tmp_path / "run"
    write_manifest(run, "[online]\nseeds = 1\n", (1,))
    names = ("config.ini", "manifest.json")
    before = {name: (run / name).read_bytes() for name in names}
    text, seeds = "[online]\nseeds = 2\n", (2,)
    if failure == "config text":
        text = "[online]\n\udc80"  # a lone surrogate cannot be encoded
    elif failure == "seeds":
        seeds = (object(),)  # json cannot encode it
    else:
        move = os.replace

        def refuse_manifest(src, dst):
            if os.path.basename(dst) == "manifest.json":
                raise OSError("no space left on device")
            move(src, dst)

        monkeypatch.setattr(os, "replace", refuse_manifest)
    with pytest.raises((OSError, TypeError, UnicodeError)):
        write_manifest(run, text, seeds)
    assert sorted(p.name for p in run.iterdir()) == sorted(names)
    assert {name: (run / name).read_bytes() for name in names} == before
    manifest = json.loads(before["manifest.json"])
    assert hashlib.sha256(before["config.ini"]).hexdigest() == manifest["config_sha256"]
