import hashlib
import json
import os
import re
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from emorl import cli
from emorl.cli import main
from emorl.emotion import EmotionLabel
from emorl.envsim import EmailMessage, Environment, FeedbackRegime, LabeledSentence, config_vocab, corpus_to_jsonl
from emorl.harness import (
    REPORT_COLUMNS,
    SECTIONS,
    CurveRow,
    ExperimentConfig,
    LearningCurve,
    grid_cells,
    load_config_file,
    rederive_report,
    report_text,
    run_grid,
    run_online,
    write_manifest,
    write_report,
)
from emorl.nn import Network, write_tensors
from emorl.policy import MultilabelPolicy, save_agent
from emorl.scope import ScopeModel

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
        dict(init="scratch", pretrain_size=0, pretrain_epochs=0),
        dict(init="scratch", pretrain_size=0),
        dict(init="scratch", pretrain_epochs=-1),
        dict(seeds=(-1,)),
        dict(seeds=(3, -2)),
    ],
)
def test_experiment_config_refuses_values_no_run_can_use(bad):
    with pytest.raises(ValueError):
        ExperimentConfig(**bad)


def test_experiment_config_accepts_the_edges_of_its_ranges():
    ExperimentConfig(eval_size=1, init_scale=0.0, hidden=())
    ExperimentConfig(init="scratch", pretrain_size=1, pretrain_epochs=1)
    ExperimentConfig(init="pretrained", pretrain_size=1, pretrain_epochs=1)
    ExperimentConfig(seeds=(0,))


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
    assert loaded["stages"]["data"]["n"] == 120


def test_config_file_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config_file(tmp_path / "nope.ini")


@pytest.mark.parametrize(("section", "key"), [(s, k) for s, keys in SECTIONS.items() for k in keys])
def test_a_misspelt_key_of_any_section_is_refused(section, key, tmp_path):
    path = tmp_path / "typo.ini"
    path.write_text(f"[{section}]\n{key}s = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"unknown key(s) in [{section}]: {key}s")):
        load_config_file(path)


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
    from emorl.envsim import config_vocab
    from emorl.harness import build_agent

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
        assert row.rolling_success == expected


def test_run_online_without_a_curve_path_writes_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    curve, _, _ = run_online(ExperimentConfig(**SMALL), seed=1)
    assert len(curve) == 3
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("task", ["multiclass", "multilabel"])
def test_one_reinforce_step_per_informative_record(task, monkeypatch):
    # `learn` updates the policy through the fused `Network.reinforce_step`,
    # patched at the class: there must be exactly one call per record with
    # feedback present and a nonzero reward
    calls, records = [], []
    update, step = Network.reinforce_step, Environment.step

    def counted_update(self, *args, **kwargs):
        calls.append(1)
        return update(self, *args, **kwargs)

    def recorded_step(self, action):
        records.append(step(self, action))
        return records[-1]

    monkeypatch.setattr(Network, "reinforce_step", counted_update)
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
    rows = run_grid(grid_cells(base, {}), run_dir)
    return run_dir, base, rows


def test_grid_report_has_twelve_rows(tiny_grid):
    run_dir, _, rows = tiny_grid
    assert len(rows) == 12
    cells = {(r["task"], r["init"], r["regime"]) for r in rows}
    assert len(cells) == 12
    assert all(r["panel_order_ok"] in (0, 1) for r in rows)
    header, *lines = (run_dir / "report.csv").read_text(encoding="utf-8").splitlines()
    assert header == ",".join(REPORT_COLUMNS)
    assert [line.split(",")[:3] for line in lines] == [[r["task"], r["init"], r["regime"]] for r in rows]
    # one line per cell, in the order of the cells' curve file names
    names = sorted(path.name for path in (run_dir / "curves").glob("*.csv"))
    assert ["_".join(line.split(",")[:3]) + "_s1.csv" for line in lines] == names


def test_grid_cells_take_their_regime_parameters_from_the_online_section():
    cells = grid_cells(ExperimentConfig(), {"regime": "full", "feedback_p": 0.5, "wrong_frac": 0.1})
    regimes = {cell.regime.kind: (cell.regime.p, cell.regime.wrong_frac) for cell in cells}
    assert regimes == {"full": (1.0, 0.0), "partial": (0.5, 0.0), "partial_noisy": (0.5, 0.1)}
    # without the keys each regime keeps its factory's defaults
    assert [cell.regime for cell in grid_cells(ExperimentConfig(), {})][:3] == [
        FeedbackRegime.full(), FeedbackRegime.partial(), FeedbackRegime.partial_noisy()
    ]


def test_grid_cell_equals_run_online(tiny_grid, tmp_path):
    run_dir, base, _ = tiny_grid
    cfg = replace(base, task="multiclass", init="scratch", regime=FeedbackRegime.full())
    solo = tmp_path / "solo.csv"
    run_online(cfg, 1, curve_path=solo)
    cell = run_dir / "curves" / "multiclass_scratch_full_s1.csv"
    assert solo.read_bytes() == cell.read_bytes()


def test_report_rederivation_matches_stored(tiny_grid):
    run_dir, _, _ = tiny_grid
    assert (run_dir / "report.csv").read_bytes() == report_text(rederive_report(run_dir)).encode("utf-8")


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
    # the token table is config_vocab of the INI, which every later stage rebuilds
    assert [p.name for p in scope_dir.iterdir()] == ["scope.ckpt"]

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
        # checked under every init, so that no run's manifest hashes a value no run could use
        ("init = scratch", "init = scratch\npretrain_epochs = -5\npretrain_size = -3", "got -3 and -5"),
    ],
)
def test_cli_run_online_refuses_an_unusable_config_before_writing(old, new, message, tmp_path, capsys):
    path = _bad_config(tmp_path, old, new)
    run_dir = tmp_path / "run"
    assert main(["run-online", "--config", str(path), "--run-dir", str(run_dir)]) == 1
    assert message in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize(
    ("seed", "env", "seeds", "code", "message"),
    [
        (["--seed", "-1"], None, "1, 2", 2, "--seed: seeds must be non-negative"),
        ([], "abc", "1, 2", 2, "NARLE_SEED: invalid literal for int() with base 10: 'abc'"),
        ([], "-3", "1, 2", 2, "NARLE_SEED: seeds must be non-negative"),
        ([], None, "1, -1", 1, "seeds must be non-negative, got 1, -1"),
    ],
)
def test_cli_refuses_a_negative_or_malformed_seed_before_writing(seed, env, seeds, code, message, tmp_path, capsys, monkeypatch):
    if env is None:
        monkeypatch.delenv("NARLE_SEED", raising=False)
    else:
        monkeypatch.setenv("NARLE_SEED", env)
    path = _bad_config(tmp_path, "seeds = 1, 2", f"seeds = {seeds}")
    run_dir = tmp_path / "run"
    assert main(["run-online", "--config", str(path), "--run-dir", str(run_dir), *seed]) == code
    assert message in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize(
    ("argv", "old", "new", "message"),
    [
        (["run-online", "--run-dir", "{out}"], "interactions = 200", "interaction = 50", "in [online]: interaction"),
        (["gen-data", "--out", "{out}/corpus.jsonl"], "interactions = 200", "interaction = 50", "in [online]: interaction"),
        (["train-scope", "--data", "{data}", "--out", "{out}"], "epochs = 3", "epoch = 3", "in [scope]: epoch"),
        (["run-online", "--run-dir", "{out}"], "[data]", "[dataset]", "unknown section [dataset]"),
        (["gen-data", "--out", "{out}/corpus.jsonl"], "[data]", "[DEFAULT]", "unknown section [DEFAULT]"),
        (["train-scope", "--data", "{data}", "--out", "{out}"], "epochs = 3", "epochs = 3\ndim = 0", "dim must be at least 1"),
        (["train-scope", "--data", "{data}", "--out", "{out}"], "epochs = 3", "epochs = -3", "epochs must be at least 1"),
        (["train-scope", "--data", "{data}", "--out", "{out}"], "epochs = 3", "epochs = 0", "epochs must be at least 1"),
        (["train-emotion", "--data", "{data}", "--out", "{out}"], "epochs = 6", "epochs = -2", "epochs must be at least 1"),
    ],
)
def test_cli_refuses_an_unknown_key_or_section_before_writing(argv, old, new, message, tmp_path, capsys):
    path = _bad_config(tmp_path, old, new)
    data, out = tmp_path / "corpus.jsonl", tmp_path / "out"
    data.write_text("", encoding="utf-8")
    argv = [a.format(data=data, out=out) for a in argv]
    assert main([*argv, "--config", str(path)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    ("old", "new", "message"),
    [
        ("interactions = 200", "interactions = abc", "[online] interactions = 'abc'"),
        ("lr = 0.05", "lr = fast", "[online] lr = 'fast'"),
        ("hidden = 64", "hidden = 64, wide", "[online] hidden = '64, wide'"),
        ("wrong_frac = 1/3", "wrong_frac = one/3", "[online] wrong_frac = 'one/3'"),
        ("wrong_frac = 1/3", "wrong_frac = 1/0", "[online] wrong_frac = '1/0'"),
        ("q_pos = 0.8", "q_pos = 4/5ths", "[generator] q_pos = '4/5ths'"),
    ],
    ids=["int", "float", "tuple", "fraction", "fraction_by_zero", "generator_fraction"],
)
def test_cli_refuses_a_value_its_key_cannot_take_naming_the_key(old, new, message, tmp_path, capsys):
    path = _bad_config(tmp_path, old, new)
    run_dir = tmp_path / "run"
    assert main(["run-online", "--config", str(path), "--run-dir", str(run_dir)]) == 1
    assert message in capsys.readouterr().err
    assert not run_dir.exists()


_SENTENCE = {"text": "Hi.", "task_relevant": True, "directed": "none", "general": "none"}
_RECORD = {"text": "Hi.", "sentences": [_SENTENCE], "intent": 0, "emotion": "neutral"}


@pytest.mark.parametrize("command", ["train-scope", "train-emotion"])
@pytest.mark.parametrize(
    ("line", "message"),
    [
        ('{"text": "Hi.", "sentences": [', "Expecting value"),
        (json.dumps({**_RECORD, "sentences": [{"text": "Hi."}]}), "missing 1 required positional argument: 'task_relevant'"),
        (json.dumps({**_RECORD, "sentences": [{**_SENTENCE, "tone": "dry"}]}), "unexpected keyword argument 'tone'"),
        (json.dumps({k: v for k, v in _RECORD.items() if k != "emotion"}), "record fields must be"),
        (json.dumps({**_RECORD, "source": "mail"}), "'source'"),
        (json.dumps({**_RECORD, "emotion": "joyful"}), "unknown emotion 'joyful'"),
        ("[1, 2]", "record fields must be"),
        (json.dumps({**_RECORD, "sentences": [{**_SENTENCE, "task_relevant": "no"}]}), "task_relevant must be true or false, got 'no'"),
        (json.dumps({**_RECORD, "sentences": [{**_SENTENCE, "task_relevant": 1}]}), "task_relevant must be true or false, got 1"),
        (json.dumps({**_RECORD, "sentences": [{**_SENTENCE, "directed": "sideways"}]}), "directed must be one of"),
        (json.dumps({**_RECORD, "sentences": [{**_SENTENCE, "general": ["pos"]}]}), "general must be one of"),
        (json.dumps({**_RECORD, "intent": -1}), "intent must be a non-negative int or a list of 0/1 ints, got -1"),
        (json.dumps({**_RECORD, "intent": "modify"}), "intent must be"),
        (json.dumps({**_RECORD, "intent": [1, 2]}), "intent must be"),
        (json.dumps({**_RECORD, "intent": True}), "intent must be"),
        (json.dumps({**_RECORD, "text": "Hi.  "}), "is not its sentences' texts joined by single spaces"),
        (json.dumps({**_RECORD, "text": "Hello."}), "is not its sentences' texts joined by single spaces"),
    ],
    ids=[
        "bad_json", "missing_sentence_field", "unknown_sentence_field", "missing_field", "unknown_field", "emotion",
        "not_an_object", "task_relevant_word", "task_relevant_int", "directed", "general", "intent_negative",
        "intent_word", "intent_bits", "intent_bool", "text_spacing", "text_other",
    ],
)
def test_cli_names_the_file_and_line_of_a_corpus_record_it_cannot_read(command, line, message, config_file, tmp_path, capsys):
    data, out = tmp_path / "corpus.jsonl", tmp_path / "out"
    data.write_text(json.dumps(_RECORD) + "\n" + line + "\n", encoding="utf-8")
    assert main([command, "--config", str(config_file), "--data", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{data}:2: " in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["nan", "inf", "0", "-0.5"])
@pytest.mark.parametrize(
    ("argv", "old", "section"),
    [
        (["train-scope", "--data", "{data}", "--out", "{out}"], "epochs = 3\nlr = 0.5", "scope"),
        (["train-emotion", "--data", "{data}", "--out", "{out}"], "epochs = 6\nlr = 0.5", "emotion"),
        (["run-online", "--run-dir", "{out}"], "lr = 0.05", "online"),
    ],
)
def test_cli_refuses_a_learning_rate_naming_its_key_before_writing(argv, old, section, rate, tmp_path, capsys):
    # each section's lr is refused at config load, before the corpus is read
    path = _bad_config(tmp_path, old, old.replace(old.rpartition("= ")[2], rate))
    data, out = tmp_path / "corpus.jsonl", tmp_path / "out"
    data.write_text("", encoding="utf-8")
    assert main([*(a.format(data=data, out=out) for a in argv), "--config", str(path)]) == 1
    assert f"[{section}] lr = {rate!r} is not a valid value" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ini", "corpus.jsonl"]


@pytest.mark.parametrize(
    ("argv", "value", "key"),
    [
        (["run-online", "--run-dir", "{out}"], "max_distractors = -1", "max_distractors"),
        (["gen-data", "--out", "{out}/corpus.jsonl"], "max_distractors = -1", "max_distractors"),
        (["run-online", "--run-dir", "{out}"], "vocab_size = 0", "vocab_size"),
        (["run-online", "--run-dir", "{out}"], "intent_prior = 0.5, 0.5", "intent_prior"),
        (["run-online", "--run-dir", "{out}"], "intent_prior = 1.2, -0.2, 0.0", "intent_prior"),
        (["run-online", "--run-dir", "{out}"], "intent_prior = 0.2, 0.2, 0.2", "intent_prior"),
        (["run-online", "--run-dir", "{out}"], "intent_prior = nan, 0.5, 0.5", "intent_prior"),
        (["run-online", "--run-dir", "{out}"], "pretrain_intent_weights = 0.6, 0.6, -0.2", "pretrain_intent_weights"),
    ],
    ids=["distractors", "gen_data_distractors", "vocab", "prior_length", "prior_negative", "prior_sum", "prior_nan", "pretrain_negative"],
)
def test_cli_refuses_a_generator_value_no_draw_can_use_before_writing(argv, value, key, tmp_path, capsys):
    path = _bad_config(tmp_path, "distractor_rate = 0.5", f"distractor_rate = 0.5\n{value}")
    out = tmp_path / "out"
    assert main([*(a.format(out=out) for a in argv), "--config", str(path)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_grid_refuses_an_intent_prior_before_writing(tmp_path, capsys):
    # three weights fit the multiclass cells, and no multilabel cell
    path = _bad_config(tmp_path, "distractor_rate = 0.5", "distractor_rate = 0.5\nintent_prior = 0.2, 0.3, 0.5")
    run_dir = tmp_path / "grid"
    assert main(["run-grid", "--config", str(path), "--run-dir", str(run_dir)]) == 1
    assert "intent_prior needs 6 entries" in capsys.readouterr().err
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


def test_cli_run_online_refuses_an_emotion_checkpoint_of_another_kind_before_writing(tmp_path, capsys):
    # a multilabel agent's head is a network checkpoint, but no emotion model
    path = _bad_config(tmp_path, "channel = oracle", "channel = learned")
    vocab = config_vocab(load_config_file(path)["experiment"].generator)
    ScopeModel(vocab).save(tmp_path / "scope.ckpt")
    save_agent(MultilabelPolicy(vocab.size, seed=0), tmp_path / "agent")
    head, run_dir = tmp_path / "agent" / "head0.ckpt", tmp_path / "run"
    models = ["--scope", str(tmp_path / "scope.ckpt"), "--emotion", str(head)]
    assert main(["run-online", "--config", str(path), "--run-dir", str(run_dir), *models]) == 1
    assert f"{head} is not an emotion model" in capsys.readouterr().err
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
        (["train-emotion", "--data", "{data}", "--out", "{out}", "--scope", "{out}.ckpt", "--scoper", "gold"], "--scoper gold"),
        (["train-emotion", "--data", "{data}", "--out", "{out}", "--scope", "{out}.ckpt", "--scoper", "none"], "--scoper none"),
    ],
)
def test_cli_offline_usage_errors_exit_2_before_writing(argv, message, config_file, tmp_path, capsys):
    data, out = tmp_path / "corpus.jsonl", tmp_path / "out"
    data.write_text("", encoding="utf-8")
    argv = [a.format(data=data, out=out) for a in argv]
    assert main([*argv, "--config", str(config_file)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_report_matches_a_run_whose_exact_means_round_apart_from_the_files(tmp_path, capsys):
    # these seeds' exact final means and the means of their 6-decimal curve
    # values round apart in the 6th decimal
    path = tmp_path / "c.ini"
    path.write_text("[online]\nregime = partial_noisy\ninteractions = 100\neval_every = 100\nwindow = 100\nseeds = 1, 2, 3\n", encoding="utf-8")
    run_dir = tmp_path / "run"
    assert main(["run-online", "--config", str(path), "--run-dir", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["report", "--run-dir", str(run_dir)]) == 0
    assert "matches the stored report" in capsys.readouterr().out


def test_cli_report_covers_every_run_into_a_reused_directory(config_file, tmp_path, capsys):
    run_dir = tmp_path / "run"
    for seed in ("1", "2"):
        assert main(["run-online", "--config", str(config_file), "--run-dir", str(run_dir), "--seed", seed]) == 0
    header, *lines = (run_dir / "report.csv").read_text(encoding="utf-8").splitlines()
    assert [dict(zip(header.split(","), line.split(",")))["seeds"] for line in lines] == ["2"]
    capsys.readouterr()
    assert main(["report", "--run-dir", str(run_dir)]) == 0
    assert "matches the stored report" in capsys.readouterr().out


def _files(run_dir) -> dict:
    "Every path under run_dir, with a file's bytes (None for a directory)."
    return {p: p.read_bytes() if p.is_file() else None for p in run_dir.rglob("*")}


@pytest.mark.parametrize("command", ["run-online", "run-grid"])
def test_cli_runners_refuse_a_directory_of_another_config_before_writing(command, config_file, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["run-online", "--config", str(config_file), "--run-dir", str(run_dir), "--seed", "1"]) == 0
    before = _files(run_dir)
    other = _bad_config(tmp_path, "lr = 0.05", "lr = 0.5")
    capsys.readouterr()
    assert main([command, "--config", str(other), "--run-dir", str(run_dir), "--seed", "2"]) == 2
    assert "records a run of another config" in capsys.readouterr().err
    assert _files(run_dir) == before


@pytest.mark.parametrize(
    ("command", "first", "second"),
    [
        ("run-online", ["--seed", "1"], ["--seed", "2", "--interactions", "100"]),
        ("run-online", ["--seed", "1", "--interactions", "100"], ["--seed", "2"]),
        ("run-grid", ["--seed", "1", "--interactions", "100"], ["--seed", "2"]),
    ],
)
def test_cli_runners_refuse_to_mix_budgets_in_a_cell_before_writing(command, first, second, config_file, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["run-online", "--config", str(config_file), "--run-dir", str(run_dir), *first]) == 0
    before = _files(run_dir)
    capsys.readouterr()
    assert main([command, "--config", str(config_file), "--run-dir", str(run_dir), *second]) == 2
    err = capsys.readouterr().err
    assert str(run_dir / "curves" / "multiclass_scratch_partial_noisy_s1.csv") in err and "one budget" in err
    assert _files(run_dir) == before


def test_cli_run_online_may_rerun_a_seed_on_another_budget(config_file, tmp_path):
    # the rerun replaces the seed's only curve, so the cell keeps one budget
    run_dir = tmp_path / "run"
    assert main(["run-online", "--config", str(config_file), "--run-dir", str(run_dir), "--seed", "1"]) == 0
    argv = ["run-online", "--config", str(config_file), "--run-dir", str(run_dir), "--seed", "1", "--interactions", "100"]
    assert main(argv) == 0
    assert [row["seeds"] for row in rederive_report(run_dir)] == [1]


def test_cli_report_refuses_a_cell_whose_curves_end_at_different_steps(tmp_path, capsys):
    # as runs into one directory on two budgets left it before the runners refused them
    run_dir = tmp_path / "run"
    (run_dir / "curves").mkdir(parents=True)
    paths = [run_dir / "curves" / f"multiclass_scratch_full_s{seed}.csv" for seed in (1, 2)]
    paths[0].write_text("step,rolling_success,eval_accuracy\n100,0.500000,0.400000\n200,0.310000,0.400000\n", encoding="utf-8")
    paths[1].write_text("step,rolling_success,eval_accuracy\n100,0.420000,0.400000\n", encoding="utf-8")
    with pytest.raises(ValueError, match="end at different steps"):
        rederive_report(run_dir)
    assert main(["report", "--run-dir", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert str(paths[0]) in err and str(paths[1]) in err


def test_cli_manifest_seeds_cover_every_run_into_a_reused_directory(config_file, tmp_path):
    run_dir = tmp_path / "run"
    for seed in ("2", "1", "2"):
        assert main(["run-online", "--config", str(config_file), "--run-dir", str(run_dir), "--seed", seed]) == 0
    assert json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["seeds"] == [2, 1]


@pytest.mark.parametrize(
    ("name", "text", "message"),
    [
        ("multiclass_scratch_full_s1.csv", "step,rolling_success,eval_accuracy\n", "empty curve"),
        ("notes.csv", "step,rolling_success,eval_accuracy\n100,0.500000,0.400000\n", "<task>_<init>_<regime>_s<seed>.csv"),
    ],
    ids=["header only", "stray name"],
)
@pytest.mark.parametrize("command", ["report", "run-online"])
def test_cli_names_a_curve_file_it_cannot_summarise(name, text, message, command, config_file, tmp_path, capsys):
    # a run killed before its first evaluation leaves a header-only curve file
    run_dir = tmp_path / "run"
    (run_dir / "curves").mkdir(parents=True)
    (run_dir / "curves" / name).write_text(text, encoding="utf-8")
    argv = ["--config", str(config_file), "--seed", "1"] if command == "run-online" else []
    assert main([command, "--run-dir", str(run_dir), *argv]) == 1
    err = capsys.readouterr().err
    assert str(run_dir / "curves" / name) in err and message in err


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


def _curve(run_dir, name, *steps):
    "A curve file `name` under run_dir/curves with one row per step (none: header only)."
    (run_dir / "curves").mkdir(parents=True, exist_ok=True)
    rows = "".join(f"{step},0.500000,0.400000\n" for step in steps)
    (run_dir / "curves" / name).write_text("step,rolling_success,eval_accuracy\n" + rows, encoding="utf-8")


def _torn_pair(run_dir, text):
    "config.ini and a manifest.json that hashes another config, as a kill between write_manifest's moves leaves them."
    write_manifest(run_dir, "[online]\nseeds = 1\n", (1,))
    (run_dir / "config.ini").write_text(text, encoding="utf-8")


# starting states of a run directory: (set-up, exit code, part of the message), the
# set-up called with the directory and the text of the config the runners run
REFUSED_STATES = {
    "header-only curve": (lambda d, text: _curve(d, "multiclass_scratch_full_s9.csv"), 1, "empty curve"),
    "stray curve name": (lambda d, text: _curve(d, "notes.csv", 100), 1, "<task>_<init>_<regime>_s<seed>.csv"),
    "torn config pair": (_torn_pair, 1, "does not match the config_sha256"),
    "another config": (lambda d, text: write_manifest(d, text.replace("lr = 0.05", "lr = 0.5"), (1,)), 2, "another config"),
    "mixed budgets": (lambda d, text: _curve(d, "multiclass_scratch_partial_noisy_s2.csv", 100), 2, "one budget"),
}


@pytest.mark.parametrize("state", sorted(REFUSED_STATES))
@pytest.mark.parametrize("command", ["run-online", "run-grid"])
def test_cli_runners_leave_a_directory_they_refuse_as_it_was(state, command, config_file, tmp_path, capsys):
    # a runner refuses, before writing anything, every directory `emorl report` refuses
    set_up, code, message = REFUSED_STATES[state]
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    set_up(run_dir, TEST_CONFIG)
    before = _files(run_dir)
    assert main([command, "--config", str(config_file), "--run-dir", str(run_dir), "--seed", "1"]) == code
    assert message in capsys.readouterr().err
    assert _files(run_dir) == before


# -- crash-safe artefacts ---------------------------------------------------------


class _Unwritable:
    "An array-like whose conversion fails, as a write may fail partway."

    def __array__(self, dtype=None, copy=None):
        raise OSError("disk gone")


def _fail_agent_json(out):
    agent = MultilabelPolicy(6, hidden=(4,), seed=1)
    agent.valid_combos = (object(),)  # json cannot encode it, after every head is written
    save_agent(agent, out)


def _fail_move(write, d):
    "`write(d)` with every move of a finished temporary file onto its target failing."
    with mock.patch.object(os, "replace", side_effect=OSError("no space left on device")):
        write(d)


def _corpus(text):
    "A one-message corpus; a lone surrogate in `text` cannot be encoded."
    return [EmailMessage([LabeledSentence(text, True)], 0, EmotionLabel.NEUTRAL)]


def _emotion_eval(d, macro_f1):
    "The train-emotion stage on a five-message corpus, its training stubbed to report `macro_f1`."
    (d / "c.ini").write_text("[online]\nseeds = 1\n", encoding="utf-8")
    assert main(["gen-data", "--config", str(d / "c.ini"), "--out", str(d / "corpus.jsonl"), "--n", "5"]) == 0
    argv = ["train-emotion", "--config", str(d / "c.ini"), "--data", str(d / "corpus.jsonl"), "--out", str(d / "emotion")]
    args = cli._build_parser().parse_args(argv)
    with mock.patch.object(cli, "train_emotion", lambda *a, **k: {"accuracy": 0.5, "macro_f1": macro_f1}):
        cli.cmd_train_emotion(args)


WRITERS = {
    # name: (path under the directory, write that succeeds, write that fails partway)
    "corpus.jsonl": (
        "corpus.jsonl",
        lambda d: corpus_to_jsonl(_corpus("Thanks."), d / "corpus.jsonl"),
        lambda d: corpus_to_jsonl(_corpus("Fine.") + _corpus("\udc80"), d / "corpus.jsonl"),
    ),
    "emotion_eval.csv": (
        "emotion/emotion_eval.csv",
        lambda d: _emotion_eval(d, 0.5),
        lambda d: _emotion_eval(d, None),  # its row cannot be formatted, after the header is written
    ),
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
        lambda d: write_report(d),
        lambda d: _fail_move(write_report, d),
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
