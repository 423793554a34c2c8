"""Experiment orchestration: online runs, the task/init/regime grid,
learning-curve files, run manifests, and the INI config format.

Curve files are CSV with the header `step,rolling_success,eval_accuracy`,
appended row by row so an interrupted run leaves a valid prefix; the report,
the manifest and its config copy are replaced whole, never torn, and as a
pair. Runs are a pure function of (config, seed): repeating one reproduces
curve files and checkpoints byte for byte.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .emotion import EmotionModel
from .envsim import (
    RATE_FIELDS,
    Environment,
    FeedbackRegime,
    GeneratorConfig,
    config_vocab,
    default_config,
    draw_intent,
    draw_pretrain_set,
    generate_email,
)
from .nn import replacing
from .policy import MulticlassPolicy, MultilabelPolicy, save_agent
from .scope import ScopeModel
from .text import Vocabulary

CURVE_HEADER = "step,rolling_success,eval_accuracy"

REGIME_NAMES = ("full", "partial", "partial_noisy")


@dataclass
class ExperimentConfig:
    task: str = "multiclass"
    init: str = "scratch"
    regime: FeedbackRegime = field(default_factory=FeedbackRegime.full)
    channel: str = "oracle"
    interactions: int = 20000
    eval_every: int = 500
    window: int = 500
    seeds: tuple[int, ...] = (1, 2, 3)
    lr: float = 0.05
    hidden: tuple[int, ...] = (64,)
    init_scale: float = 0.5
    eval_size: int = 300
    pretrain_size: int = 40
    pretrain_epochs: int = 35
    generator: GeneratorConfig = field(default_factory=default_config)

    def __post_init__(self) -> None:
        if self.task not in ("multiclass", "multilabel"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.init not in ("scratch", "pretrained"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.channel not in ("oracle", "learned"):
            raise ValueError(f"unknown channel {self.channel!r}")
        if self.interactions < 0:
            raise ValueError("interactions must be non-negative")
        if self.eval_every < 1 or self.window < 1:
            raise ValueError("eval_every and window must be at least 1")
        if self.interactions and self.eval_every > self.interactions:
            raise ValueError("eval_every cannot exceed the interaction budget")
        if self.interactions and self.window > self.interactions:
            raise ValueError("window cannot exceed the interaction budget")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        self.generator = replace(self.generator, task=self.task)
        weights = self.generator.pretrain_intent_weights
        if weights is not None:
            n = len(self.generator.multiclass_intents) if self.task == "multiclass" else len(self.generator.valid_combos)
            if len(weights) != n:
                # weights from the other task's action space; fall back to uniform
                self.generator = replace(self.generator, pretrain_intent_weights=None)


@dataclass(frozen=True)
class CurveRow:
    step: int
    rolling_success: float
    eval_accuracy: float


class LearningCurve:
    "Strictly increasing (step, rolling success, argmax accuracy) rows."

    def __init__(self, rows: Sequence[CurveRow] = ()):
        self.rows: list[CurveRow] = []
        for row in rows:
            self.append(row)

    def append(self, row: CurveRow) -> None:
        if self.rows and row.step <= self.rows[-1].step:
            raise ValueError("curve steps must be strictly increasing")
        if not 0.0 <= row.rolling_success <= 1.0 or not 0.0 <= row.eval_accuracy <= 1.0:
            raise ValueError("curve rates must lie in [0, 1]")
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def final_success(self) -> float:
        if not self.rows:
            raise ValueError("empty curve has no final value")
        return self.rows[-1].rolling_success

    @property
    def final_eval(self) -> float:
        if not self.rows:
            raise ValueError("empty curve has no final value")
        return self.rows[-1].eval_accuracy

    def first_step_reaching(self, threshold: float) -> int | None:
        "First curve step whose rolling success is at least `threshold`."
        for row in self.rows:
            if row.rolling_success >= threshold:
                return row.step
        return None

    @classmethod
    def from_csv(cls, path) -> "LearningCurve":
        curve = cls()
        with open(path, encoding="utf-8") as f:
            header = f.readline().strip()
            if header != CURVE_HEADER:
                raise ValueError(f"unexpected curve header {header!r}")
            for line in f:
                if not line.strip():
                    continue
                step, rs, ea = line.strip().split(",")
                curve.append(CurveRow(int(step), float(rs), float(ea)))
        return curve


def _format_row(row: CurveRow) -> str:
    return f"{row.step},{row.rolling_success:.6f},{row.eval_accuracy:.6f}\n"


def build_agent(config: ExperimentConfig, input_dim: int, seed: int):
    if config.task == "multiclass":
        return MulticlassPolicy(
            input_dim,
            n_actions=len(config.generator.multiclass_intents),
            hidden=config.hidden,
            lr=config.lr,
            seed=seed,
            init_scale=config.init_scale,
        )
    return MultilabelPolicy(
        input_dim,
        n_bits=len(config.generator.valid_combos[0]),
        hidden=config.hidden,
        lr=config.lr,
        seed=seed,
        init_scale=config.init_scale,
        valid_combos=config.generator.valid_combos,
    )


def make_eval_set(config: ExperimentConfig, env: Environment, seed: int):
    "Fixed labeled (state, gold intent) pairs from the online distribution."
    rng = np.random.default_rng([seed, 3])
    gen = config.generator
    out = []
    for _ in range(config.eval_size):
        email = generate_email(gen, rng, draw_intent(gen, rng))
        out.append((env.featurize_email(email), email.gold_intent))
    return out


def run_online(
    config: ExperimentConfig,
    seed: int,
    curve_path=None,
    checkpoint_dir=None,
    scope_model: ScopeModel | None = None,
    emotion_model: EmotionModel | None = None,
    vocab: Vocabulary | None = None,
):
    """One online run: serve -> act -> step -> learn for the whole budget.

    Returns (curve, agent, info). A curve row is appended every eval_every
    interactions: the rolling success over the trailing window of sampled
    actions, and the argmax accuracy on a fixed eval set. When `curve_path`
    is given rows are flushed to disk as they are produced.
    """
    gen = config.generator
    vocab = vocab if vocab is not None else config_vocab(gen)
    env = Environment(
        gen,
        seed=[seed, 2],
        regime=config.regime,
        channel=config.channel,
        scope_model=scope_model,
        emotion_model=emotion_model,
        vocab=vocab,
    )
    agent = build_agent(config, vocab.size, seed)
    eval_set = make_eval_set(config, env, seed)

    info: dict = {"seed": seed}
    if config.init == "pretrained":
        # supervised pretraining on the skewed subset, featurized as `env` scopes
        # it: stream [seed, 4] draws the subset and [seed, 5] orders the epochs
        subset = draw_pretrain_set(gen, np.random.default_rng([seed, 4]), config.pretrain_size)
        examples = [(env.featurize_email(e), e.gold_intent) for e in subset]
        agent.pretrain(examples, config.pretrain_epochs, rng=np.random.default_rng([seed, 5]))
        del subset, examples  # or they stay alive through the loop, raising its peak memory
        info["baseline_accuracy"] = agent.evaluate(eval_set)

    curve = LearningCurve()
    recent: deque = deque(maxlen=config.window)
    correct_flags: list[bool] = []
    sink = open(curve_path, "w", encoding="utf-8", newline="\n") if curve_path else None
    try:
        if sink:
            sink.write(CURVE_HEADER + "\n")
            sink.flush()
        for t in range(1, config.interactions + 1):
            _, state = env.serve()
            action = agent.act(state)
            record = env.step(action)
            agent.learn(record)
            recent.append(record.correct)
            correct_flags.append(record.correct)
            if t % config.eval_every == 0:
                row = CurveRow(t, float(np.mean(recent)), agent.evaluate(eval_set))
                curve.append(row)
                if sink:
                    sink.write(_format_row(row))
                    sink.flush()
    finally:
        if sink:
            sink.close()
    info["correct_flags"] = correct_flags
    if checkpoint_dir is not None:
        save_agent(agent, checkpoint_dir)
    return curve, agent, info


# -- grid ---------------------------------------------------------------------


def cell_key(config: ExperimentConfig) -> tuple[str, str, str]:
    "The (task, init, regime) of a report row; joined by '_', its cell's file prefix."
    return (config.task, config.init, config.regime.kind)


def run_cell(config: ExperimentConfig, run_dir, **models):
    """Run every seed of `config`'s (task, init, regime) cell, yielding each
    seed's (curve, info) as it finishes.

    Seed s writes run_dir/curves/<cell>_s<s>.csv and its checkpoint under
    run_dir/checkpoints/<cell>_s<s>/; `models` are run_online's learned-channel
    models.
    """
    run_dir = Path(run_dir)
    (run_dir / "curves").mkdir(parents=True, exist_ok=True)
    (run_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
    cell = "_".join(cell_key(config))
    for seed in config.seeds:
        curve, _, info = run_online(
            config,
            seed,
            curve_path=run_dir / "curves" / f"{cell}_s{seed}.csv",
            checkpoint_dir=run_dir / "checkpoints" / f"{cell}_s{seed}",
            **models,
        )
        yield curve, info


def run_grid(base: ExperimentConfig, run_dir) -> list[dict]:
    """Run every (task, init, regime) cell at every seed and summarize.

    Completed cells survive a later cell's failure. Returns the report rows
    (one per cell) that are also written to run_dir/report.csv.
    """
    curves: dict[tuple[str, str, str], list[LearningCurve]] = {}
    for task, init, regime in product(("multiclass", "multilabel"), ("scratch", "pretrained"), REGIME_NAMES):
        cfg = replace(base, task=task, init=init, regime=getattr(FeedbackRegime, regime)())
        curves[cell_key(cfg)] = [curve for curve, _ in run_cell(cfg, run_dir)]
    rows = summarize_grid(curves)
    write_report(Path(run_dir) / "report.csv", rows)
    return rows


def summarize_grid(curves: dict[tuple[str, str, str], list[LearningCurve]]) -> list[dict]:
    "One report row per cell key, from the final values of the cell's curves."
    rows = [
        {
            "task": task,
            "init": init,
            "regime": regime,
            "seeds": len(cell),
            "final_success_mean": float(np.mean([c.final_success for c in cell])),
            "final_eval_mean": float(np.mean([c.final_eval for c in cell])),
        }
        for (task, init, regime), cell in curves.items()
    ]
    # ordering check per (task, init) panel: full >= partial >= partial_noisy
    by_panel: dict[tuple[str, str], dict[str, float]] = {}
    for row in rows:
        by_panel.setdefault((row["task"], row["init"]), {})[row["regime"]] = row["final_success_mean"]
    for row in rows:
        panel = by_panel[(row["task"], row["init"])]
        if all(name in panel for name in REGIME_NAMES):
            ok = panel["full"] >= panel["partial"] >= panel["partial_noisy"]
            row["panel_order_ok"] = int(ok)
        else:
            row["panel_order_ok"] = ""
    return rows


REPORT_COLUMNS = ("task", "init", "regime", "seeds", "final_success_mean", "final_eval_mean", "panel_order_ok")


def _report_cells(row: dict) -> tuple[str, ...]:
    "A report row's cells as report.csv holds them."
    return tuple(f"{v:.6f}" if isinstance(v, float) else str(v) for v in (row[col] for col in REPORT_COLUMNS))


def write_report(path, rows: list[dict]) -> None:
    with replacing(path, encoding="utf-8", newline="\n") as f:
        f.write(",".join(REPORT_COLUMNS) + "\n")
        for row in rows:
            f.write(",".join(_report_cells(row)) + "\n")


def read_report(path) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        if tuple(header) != REPORT_COLUMNS:
            raise ValueError(f"unexpected report header {header}")
        for line in f:
            if not line.strip():
                continue
            vals = line.rstrip("\n").split(",")
            rows.append(dict(zip(REPORT_COLUMNS, vals)))
    return rows


def rederive_report(run_dir) -> list[dict]:
    "Recompute the report rows from the curve files alone."
    curves: dict[tuple[str, str, str], list[LearningCurve]] = {}
    for path in sorted((Path(run_dir) / "curves").glob("*.csv")):
        cell = path.stem.rpartition("_s")[0]
        curves.setdefault(tuple(cell.split("_", 2)), []).append(LearningCurve.from_csv(path))
    return summarize_grid(curves)


def report_rows_equal(a: list[dict], b: list[dict]) -> bool:
    "Compare report rows after normalizing through the CSV text format."
    return sorted(map(_report_cells, a)) == sorted(map(_report_cells, b))


# -- manifests and config files -------------------------------------------------


def write_manifest(run_dir, config_text: str, seeds: Sequence[int]) -> None:
    """Write `config.ini` and the `manifest.json` that hashes it as a pair:
    both payloads are built first, and a failure before the two files are
    moved into place replaces neither."""
    config = config_text.encode("utf-8")
    manifest = {"config_sha256": hashlib.sha256(config).hexdigest(), "version": __version__, "seeds": list(seeds)}
    manifest_text = json.dumps(manifest, indent=2) + "\n"
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    with replacing(run_dir / "config.ini", "wb") as f, replacing(run_dir / "manifest.json", "wb") as g:
        f.write(config)
        g.write(manifest_text.encode("utf-8"))


def check_manifest(run_dir) -> None:
    """Raise ValueError if the run directory holds `config.ini` beside a
    `manifest.json` that hashes another config, as a process killed between
    write_manifest's two moves leaves them."""
    config, manifest = Path(run_dir) / "config.ini", Path(run_dir) / "manifest.json"
    if config.exists() and manifest.exists():
        recorded = json.loads(manifest.read_text(encoding="utf-8")).get("config_sha256")
        if recorded != hashlib.sha256(config.read_bytes()).hexdigest():
            raise ValueError(f"{config} does not match the config_sha256 recorded in {manifest}")


def _parse_fraction(raw: str) -> float:
    raw = raw.strip()
    if "/" in raw:
        num, den = raw.split("/", 1)
        return float(num) / float(den)
    return float(raw)


def _parse_tuple(raw: str, cast) -> tuple:
    items = [p.strip() for p in raw.replace("(", "").replace(")", "").split(",") if p.strip()]
    return tuple(cast(p) for p in items)


def parse_regime(section: dict) -> FeedbackRegime:
    kind = section.get("regime", "full").strip()
    if kind == "full":
        return FeedbackRegime.full()
    p = _parse_fraction(section.get("feedback_p", "0.15"))
    if kind == "partial":
        return FeedbackRegime.partial(p)
    if kind == "partial_noisy":
        return FeedbackRegime.partial_noisy(p, _parse_fraction(section.get("wrong_frac", "1/3")))
    raise ValueError(f"unknown regime {kind!r}")


def build_generator_config(section: dict, task: str) -> GeneratorConfig:
    overrides: dict = {}
    for name in RATE_FIELDS:
        if name in section:
            overrides[name] = _parse_fraction(section[name])
    if "max_distractors" in section:
        overrides["max_distractors"] = int(section["max_distractors"])
    if "vocab_size" in section:
        overrides["vocab_size"] = int(section["vocab_size"])
    if "pretrain_intent_weights" in section:
        overrides["pretrain_intent_weights"] = _parse_tuple(section["pretrain_intent_weights"], float)
    if "intent_prior" in section:
        overrides["intent_prior"] = _parse_tuple(section["intent_prior"], float)
    return default_config(task=task, **overrides)


def load_config_file(path) -> dict:
    """Parse the flat `key = value` sections of a run configuration.

    Returns {"experiment": ExperimentConfig, "stages": {section: dict}}.
    Unknown sections are preserved in "stages" for the CLI stage commands.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    sections = {name: dict(parser[name]) for name in parser.sections()}
    online = sections.get("online", {})
    task = online.get("task", "multiclass").strip()
    generator = build_generator_config(sections.get("generator", {}), task)
    kwargs: dict = {"task": task, "generator": generator}
    if "init" in online:
        kwargs["init"] = online["init"].strip()
    if "channel" in online:
        kwargs["channel"] = online["channel"].strip()
    kwargs["regime"] = parse_regime(online)
    for name, cast in (
        ("interactions", int),
        ("eval_every", int),
        ("window", int),
        ("lr", float),
        ("init_scale", float),
        ("eval_size", int),
        ("pretrain_size", int),
        ("pretrain_epochs", int),
    ):
        if name in online:
            kwargs[name] = cast(online[name])
    if "seeds" in online:
        kwargs["seeds"] = _parse_tuple(online["seeds"], int)
    if "hidden" in online:
        kwargs["hidden"] = _parse_tuple(online["hidden"], int)
    experiment = ExperimentConfig(**kwargs)
    return {"experiment": experiment, "stages": sections}
