"""Experiment orchestration: online runs, the task/init/regime grid,
learning-curve files, run manifests, and the INI config format.

Curve files are CSV with the header `step,rolling_success,eval_accuracy`,
appended row by row so an interrupted run leaves a valid prefix. The report
is re-derived from the curve files alone. It, the manifest and its config
copy are replaced whole, never torn, the last two as a pair. Runs are a
pure function of (config, seed): repeating one reproduces curve files and
checkpoints byte for byte.
"""

from __future__ import annotations

import configparser
import hashlib
import inspect
import json
import os
import re
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .emotion import EmotionModel
from .envsim import (
    CHANNELS,
    RATE_FIELDS,
    REGIME_KINDS,
    TASKS,
    Environment,
    FeedbackRegime,
    GeneratorConfig,
    default_config,
    draw_intent,
    draw_pretrain_set,
    generate_email,
)
from .nn import SGD, replacing
from .policy import MulticlassPolicy, MultilabelPolicy, save_agent
from .scope import ScopeModel

CURVE_HEADER = "step,rolling_success,eval_accuracy"

INITS = ("scratch", "pretrained")


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
        if self.init not in INITS:
            raise ValueError(f"unknown init {self.init!r}")
        if self.channel not in CHANNELS:
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
        if any(seed < 0 for seed in self.seeds):
            raise ValueError(f"seeds must be non-negative, got {', '.join(map(str, self.seeds))}")
        if self.eval_size < 1:
            raise ValueError(f"eval_size must be at least 1, got {self.eval_size}")
        SGD(self.lr)  # refuses a rate that no step can take
        if not 0.0 <= self.init_scale < float("inf"):
            raise ValueError(f"init_scale must be non-negative and finite, got {self.init_scale}")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"every hidden width must be at least 1, got {self.hidden}")
        if self.init == "pretrained" and min(self.pretrain_size, self.pretrain_epochs) < 1:
            raise ValueError("init = pretrained needs pretrain_size and pretrain_epochs of at least 1")
        self.generator = replace(self.generator, task=self.task)
        weights = self.generator.pretrain_intent_weights
        if weights is not None and len(weights) != self.generator.n_intents:
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
    shared = dict(hidden=config.hidden, lr=config.lr, seed=seed, init_scale=config.init_scale)
    if config.task == "multiclass":
        return MulticlassPolicy(input_dim, n_actions=len(config.generator.multiclass_intents), **shared)
    combos = config.generator.valid_combos
    return MultilabelPolicy(input_dim, n_bits=len(combos[0]), valid_combos=combos, **shared)


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
):
    """One online run: serve -> act -> step -> learn for the whole budget.

    Returns (curve, agent, info). A curve row is appended every eval_every
    interactions: the rolling success over the trailing window of sampled
    actions, and the argmax accuracy on a fixed eval set. Rows are flushed
    to `curve_path` as they are produced; without one they go to the null
    device.
    """
    gen = config.generator
    env = Environment(
        gen,
        seed=[seed, 2],
        regime=config.regime,
        channel=config.channel,
        scope_model=scope_model,
        emotion_model=emotion_model,
    )
    agent = build_agent(config, env.vocab.size, seed)
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
    correct_flags: list[bool] = []
    with open(curve_path or os.devnull, "w", encoding="utf-8", newline="\n") as sink:
        sink.write(CURVE_HEADER + "\n")
        sink.flush()
        for t in range(1, config.interactions + 1):
            _, state = env.serve()
            action = agent.act(state)
            record = env.step(action)
            agent.learn(record)
            correct_flags.append(record.correct)
            if t % config.eval_every == 0:
                row = CurveRow(t, float(np.mean(correct_flags[-config.window :])), agent.evaluate(eval_set))
                curve.append(row)
                sink.write(_format_row(row))
                sink.flush()
    info["correct_flags"] = correct_flags
    if checkpoint_dir is not None:
        save_agent(agent, checkpoint_dir)
    return curve, agent, info


# -- grid ---------------------------------------------------------------------


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
    cell = "_".join(_cell(config))
    for seed in config.seeds:
        curve, _, info = run_online(
            config,
            seed,
            curve_path=run_dir / "curves" / f"{cell}_s{seed}.csv",
            checkpoint_dir=run_dir / "checkpoints" / f"{cell}_s{seed}",
            **models,
        )
        yield curve, info


def _cell(config: ExperimentConfig) -> tuple[str, str, str]:
    "The (task, init, regime) cell; its curve files' names start with these, joined by '_'."
    return config.task, config.init, config.regime.kind


def grid_cells(base: ExperimentConfig, online: dict) -> list[ExperimentConfig]:
    """Every (task, init, regime) cell's config, its regime built by regime_of from the INI's [online]
    section `online`; a value that some cell cannot take raises here, before any cell runs."""
    return [
        replace(base, task=task, init=init, regime=regime_of(regime, online))
        for task, init, regime in product(TASKS, INITS, REGIME_KINDS)
    ]


def run_grid(cells: Sequence[ExperimentConfig], run_dir) -> list[dict]:
    """Run every seed of each of `cells` (grid_cells' configs), then return
    write_report's rows. Completed cells survive a later cell's failure."""
    for config in cells:
        for _ in run_cell(config, run_dir):
            pass
    return write_report(run_dir)


# a curve file's name: <task>_<init>_<regime>_s<seed>.csv
_CURVE_NAME = re.compile(rf"({'|'.join(TASKS)})_({'|'.join(INITS)})_({'|'.join(REGIME_KINDS)})_s\d+")


def read_curves(run_dir, skip=frozenset()) -> dict[tuple[str, ...], list[tuple[Path, LearningCurve]]]:
    """The one reader of a run directory's curves: every curve file under
    run_dir/curves but those named in `skip`, as (path, curve) pairs grouped
    by cell, in the order of the files' names. A file not named as a curve
    file, one without rows, as a run killed before its first evaluation
    leaves it, or a cell whose curves end at different steps, as runs of two
    budgets leave it, raises ValueError naming the files."""
    cells: dict[tuple[str, ...], list[tuple[Path, LearningCurve]]] = {}
    for path in sorted((Path(run_dir) / "curves").glob("*.csv")):
        if path.name in skip:
            continue
        name = _CURVE_NAME.fullmatch(path.stem)
        try:
            if name is None:
                raise ValueError("its name is not of the form <task>_<init>_<regime>_s<seed>.csv")
            curve = LearningCurve.from_csv(path)
            if not curve.rows:
                raise ValueError("empty curve has no final value")
        except ValueError as exc:
            raise ValueError(f"cannot summarise curve file {path}: {exc}") from None
        cells.setdefault(name.groups(), []).append((path, curve))
    for (first, head), *rest in cells.values():
        for path, curve in rest:
            if curve.rows[-1].step != head.rows[-1].step:
                raise ValueError(
                    f"cannot summarise a cell whose curves end at different steps: {first} ends at step "
                    f"{head.rows[-1].step} and {path} at step {curve.rows[-1].step}"
                )
    return cells


def rederive_report(run_dir) -> list[dict]:
    """The report rows, from the curve files alone (read_curves): one per
    cell, from the final values of its curves, in the order of the cells'
    file names."""
    cells = read_curves(run_dir)
    success = {cell: float(np.mean([curve.final_success for _, curve in curves])) for cell, curves in cells.items()}
    rows = []
    for (task, init, regime), curves in cells.items():
        # full >= partial >= partial_noisy on the (task, init) panel, when all three are present
        panel = [success.get((task, init, name)) for name in REGIME_KINDS]
        order_ok = "" if None in panel else int(panel[0] >= panel[1] >= panel[2])
        final_eval = float(np.mean([curve.final_eval for _, curve in curves]))
        values = (task, init, regime, len(curves), success[task, init, regime], final_eval, order_ok)
        rows.append(dict(zip(REPORT_COLUMNS, values)))
    return rows


REPORT_COLUMNS = ("task", "init", "regime", "seeds", "final_success_mean", "final_eval_mean", "panel_order_ok")


def report_text(rows: list[dict]) -> str:
    "report.csv's text for report rows: the one rendering `write_report` writes and `emorl report` compares."
    cells = [[f"{v:.6f}" if isinstance(v, float) else str(v) for v in (row[col] for col in REPORT_COLUMNS)] for row in rows]
    return "".join(",".join(line) + "\n" for line in [REPORT_COLUMNS, *cells])


def write_report(run_dir) -> list[dict]:
    "Replace run_dir/report.csv with the report rederive_report derives from its curve files, and return the rows."
    rows = rederive_report(run_dir)
    with replacing(Path(run_dir) / "report.csv", encoding="utf-8", newline="\n") as f:
        f.write(report_text(rows))
    return rows


# -- manifests and config files -------------------------------------------------


class UsageError(Exception):
    "A command input no run can use, such as a --run-dir a run cannot join; the CLI exits 2 on it, as argparse does."


def config_sha256(config: bytes) -> str:
    "The config_sha256 a manifest records for a config file's bytes."
    return hashlib.sha256(config).hexdigest()


def _recorded(run_dir) -> dict:
    "The run directory's manifest.json, or {} when it has none."
    manifest = Path(run_dir) / "manifest.json"
    return json.loads(manifest.read_text(encoding="utf-8")) if manifest.exists() else {}


def check_reuse(run_dir, config_text: str, configs: Sequence[ExperimentConfig]) -> None:
    """Raise if a run of `configs`, read from `config_text`, cannot join the
    run directory. Reads only; the runners call it first. It reads every curve
    file the run leaves in place (read_curves) and checks check_manifest, so
    it refuses every directory `emorl report` refuses, with its ValueError;
    then a manifest of another config, or a cell's curves left in place that
    end at another step than the run's own will, raise UsageError."""
    run_dir = Path(run_dir)
    own = {f"{'_'.join(_cell(config))}_s{seed}.csv" for config in configs for seed in config.seeds}
    cells = read_curves(run_dir, skip=own)
    check_manifest(run_dir)
    if _recorded(run_dir).get("config_sha256") not in (None, config_sha256(config_text.encode("utf-8"))):
        raise UsageError(f"{run_dir / 'manifest.json'} records a run of another config; use a new run directory")
    for config in configs:
        end = config.interactions - config.interactions % config.eval_every
        for path, curve in cells.get(_cell(config), []):
            if curve.rows[-1].step != end:
                raise UsageError(
                    f"{path} ends at step {curve.rows[-1].step} and this run's curves of its cell would end at step {end}: "
                    "a cell's curves must come from runs of one budget"
                )


def write_manifest(run_dir, config_text: str, seeds: Sequence[int]) -> None:
    """Write `config.ini` and the `manifest.json` that hashes it as a pair:
    both payloads are built first, and a failure before the two files are
    moved into place replaces neither. The manifest's seeds are those it
    already records for this config, followed by any new ones of `seeds`."""
    config = config_text.encode("utf-8")
    digest = config_sha256(config)
    old = _recorded(run_dir)
    recorded = old["seeds"] if old.get("config_sha256") == digest else []
    seeds = [*recorded, *(seed for seed in seeds if seed not in recorded)]
    manifest = {"config_sha256": digest, "version": __version__, "seeds": seeds}
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
        if _recorded(run_dir).get("config_sha256") != config_sha256(config.read_bytes()):
            raise ValueError(f"{config} does not match the config_sha256 recorded in {manifest}")


def _fraction(raw: str) -> float:
    "A float, or a fraction written `num/den`."
    num, slash, den = raw.partition("/")
    return float(num) / float(den) if slash else float(raw)


def _rate(raw: str) -> float:
    "A learning rate: a float that `SGD` takes."
    return SGD(float(raw)).learning_rate


def _tuple_of(cast):
    "The cast of a comma-separated list, parentheses optional, to a tuple of `cast`."
    return lambda raw: tuple(cast(p) for p in raw.replace("(", "").replace(")", "").split(",") if p.strip())


# the [online] keys that build the FeedbackRegime, by the factory parameter each sets
_REGIME_ARGS = {"feedback_p": "p", "wrong_frac": "wrong_frac"}

# Every key a run configuration may set, by section, with the cast of its
# value. [online] keys are ExperimentConfig fields (`regime` names the
# FeedbackRegime factory), [generator] keys GeneratorConfig fields, and the
# stage sections' keys are parameters of the stage commands' callees.
SECTIONS: dict[str, dict] = {
    "online": {
        "task": str, "init": str, "channel": str, "regime": str, **dict.fromkeys(_REGIME_ARGS, _fraction),
        "interactions": int, "eval_every": int, "window": int, "seeds": _tuple_of(int),
        "lr": _rate, "hidden": _tuple_of(int), "init_scale": float,
        "eval_size": int, "pretrain_size": int, "pretrain_epochs": int,
    },
    "generator": {
        **dict.fromkeys(RATE_FIELDS, _fraction), "max_distractors": int, "vocab_size": int,
        "pretrain_intent_weights": _tuple_of(float), "intent_prior": _tuple_of(float),
    },
    "scope": {"dim": int, "window": int, "epochs": int, "lr": _rate},
    "emotion": {"epochs": int, "lr": _rate},
    "data": {"n": int},
}


def arguments_for(fn, values: dict) -> dict:
    "The entries of `values` that `fn` takes as keyword arguments."
    params = inspect.signature(fn).parameters
    return {key: value for key, value in values.items() if key in params}


def _cast(section: str, key: str, raw: str):
    "SECTIONS' cast of one value; a value it cannot take raises ValueError naming `[section] key`."
    try:
        return SECTIONS[section][key](raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"[{section}] {key} = {raw!r} is not a valid value: {exc}") from None


def regime_of(name: str, online: dict) -> FeedbackRegime:
    """The FeedbackRegime `name`, with the keys of the INI's [online] section
    `online` that its factory takes: full takes none, partial only feedback_p."""
    factory = getattr(FeedbackRegime, name)
    args = {param: online[key] for key, param in _REGIME_ARGS.items() if key in online}
    return factory(**arguments_for(factory, args))


def load_config_file(path) -> dict:
    """Parse a run configuration: flat `key = value` sections, each key one of
    SECTIONS; an unknown section or key raises ValueError naming it.

    Returns {"experiment": ExperimentConfig, "stages": {section: {key: value}}},
    the values cast; the stage commands read their sections from "stages".
    """
    # no header names the default section "", so a [DEFAULT] is one more unknown section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    if not parser.read(path):
        raise FileNotFoundError(f"config file not found: {path}")
    stages = {}
    for name in parser.sections():
        if name not in SECTIONS:
            raise ValueError(f"unknown section [{name}]; the sections are {', '.join(f'[{s}]' for s in SECTIONS)}")
        unknown = sorted(set(parser[name]) - set(SECTIONS[name]))
        if unknown:
            raise ValueError(f"unknown key(s) in [{name}]: {', '.join(unknown)}")
        stages[name] = {key: _cast(name, key, value) for key, value in parser[name].items()}
    online = {key: value for key, value in stages.get("online", {}).items() if key not in _REGIME_ARGS}
    if "regime" in online:
        if online["regime"] not in REGIME_KINDS:
            raise ValueError(f"unknown regime {online['regime']!r}")
        online["regime"] = regime_of(online["regime"], stages["online"])
    generator = default_config(online.get("task", ExperimentConfig.task), **stages.get("generator", {}))
    return {"experiment": ExperimentConfig(**online, generator=generator), "stages": stages}
