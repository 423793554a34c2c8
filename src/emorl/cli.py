"""Command-line entry points for the training stages and online experiments.

Every subcommand reads the INI config file, honors `--seed` (or the
NARLE_SEED environment variable) as a global seed override, and writes its
artifacts under the given output directory together with a manifest
recording the config hash and package version. Usage errors exit with
code 2, runtime failures with code 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .emotion import EmotionModel, all_texts, train_emotion
from .envsim import build_offline_corpus, config_vocab, corpus_from_jsonl, corpus_to_jsonl
from .harness import (
    ExperimentConfig,
    UsageError,
    arguments_for,
    check_manifest,
    check_reuse,
    grid_cells,
    load_config_file,
    rederive_report,
    report_text,
    run_cell,
    run_grid,
    run_online,
    write_manifest,
    write_report,
)
from .nn import replacing
from .scope import ScopeModel, train_scope


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emorl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, run, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="path to the INI config file")
        p.add_argument("--seed", type=int, default=None, help="global seed override")
        return p

    p = add("gen-data", cmd_gen_data, "generate a labeled offline corpus (JSONL)")
    p.add_argument("--out", required=True, help="output corpus path")
    p.add_argument("--n", type=int, default=None, help="number of records")

    p = add("train-scope", cmd_train_scope, "train the sentence scope filter")
    p.add_argument("--data", required=True, help="corpus JSONL from gen-data")
    p.add_argument("--out", required=True, help="output directory")

    p = add("train-emotion", cmd_train_emotion, "train the emotion classifier")
    p.add_argument("--data", required=True, help="corpus JSONL from gen-data")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scope", default=None, help="scope checkpoint; filters inputs when given")
    p.add_argument(
        "--scoper",
        choices=("scope", "gold", "none"),
        default=None,
        help="input filtering: trained scope model, gold flags, or full text",
    )

    p = add("pretrain-intent", cmd_pretrain_intent, "supervised pretraining on the skewed subset")
    p.add_argument("--out", required=True, help="output directory")

    p = add("run-online", cmd_run_online, "online learning run(s) for the configured cell")
    p.add_argument("--run-dir", required=True, help="run directory for curves and checkpoints")
    p.add_argument("--interactions", type=int, default=None, help="override the interaction budget")
    p.add_argument("--scope", default=None, help="scope checkpoint (learned channel)")
    p.add_argument("--emotion", default=None, help="emotion checkpoint (learned channel)")

    p = add("run-grid", cmd_run_grid, "the full task x init x regime grid")
    p.add_argument("--run-dir", required=True)

    p = sub.add_parser("report", help="re-derive the summary from a run directory")
    p.set_defaults(run=cmd_report)
    p.add_argument("--run-dir", required=True)
    return parser


def _seed_override(args, config: ExperimentConfig) -> ExperimentConfig:
    "`config` on the seed `--seed`, else NARLE_SEED, gives; a seed no run can take is a usage error naming it."
    source, seed = ("--seed", args.seed) if args.seed is not None else ("NARLE_SEED", os.environ.get("NARLE_SEED"))
    if seed in (None, ""):
        return config
    try:  # replace() re-runs the config's validation
        return replace(config, seeds=(int(seed),))
    except ValueError as exc:
        raise UsageError(f"{source}: {exc}") from exc


def _load(args) -> tuple[ExperimentConfig, dict, str]:
    loaded = load_config_file(args.config)
    config = _seed_override(args, loaded["experiment"])
    text = Path(args.config).read_text(encoding="utf-8")
    return config, loaded["stages"], text


def _runner_config(args) -> tuple[ExperimentConfig, dict, str]:
    """_load's triple for run-online or run-grid, the config refused before
    anything is written when no run of it could finish."""
    config, stages, text = _load(args)
    override = getattr(args, "interactions", None)
    try:
        if override is not None:
            # replace() re-runs the config's validation
            cap = max(1, override)
            config = replace(config, interactions=override, eval_every=min(config.eval_every, cap), window=min(config.window, cap))
        if config.interactions < 1:
            raise ValueError(f"{args.command} needs at least one interaction, got interactions = {config.interactions}")
    except ValueError as exc:
        if override is None:
            raise
        raise UsageError(str(exc)) from exc
    return config, stages, text


def _learned_models(args, config) -> dict:
    "run_online's scope and emotion models for a learned-channel config."
    if config.channel != "learned":
        return {}
    if not args.scope:
        raise UsageError("channel=learned requires --scope (run the train-scope stage first)")
    if not args.emotion:
        raise UsageError("channel=learned requires --emotion (run the train-emotion stage first)")
    vocab = config_vocab(config.generator)
    return {"scope_model": ScopeModel.load(args.scope, vocab), "emotion_model": EmotionModel.load(args.emotion, vocab)}


def _claim(run_dir: Path, text: str, configs: list[ExperimentConfig]) -> None:
    "Record a run of `configs` in run_dir's manifest, once check_reuse finds that it can join run_dir."
    check_reuse(run_dir, text, configs)
    write_manifest(run_dir, text, configs[0].seeds)


def _print_rows(rows: list[dict]) -> None:
    for row in rows:
        print(f"{row['task']:<10} {row['init']:<10} {row['regime']:<14} final success {row['final_success_mean']:.4f}")


def cmd_gen_data(args) -> int:
    if args.n is not None and args.n < 1:
        raise UsageError(f"gen-data needs a positive --n, got {args.n}")
    config, stages, _ = _load(args)
    n = args.n if args.n is not None else stages.get("data", {}).get("n", 4000)
    rng = np.random.default_rng(config.seeds[0])
    corpus = build_offline_corpus(config.generator, rng, n)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    corpus_to_jsonl(corpus, args.out)
    print(f"wrote {len(corpus)} records to {args.out}")
    return 0


def cmd_train_scope(args) -> int:
    config, stages, _ = _load(args)
    params = stages.get("scope", {})
    corpus = corpus_from_jsonl(args.data)
    model = ScopeModel(config_vocab(config.generator), **arguments_for(ScopeModel, params), seed=config.seeds[0])
    metrics = train_scope(model, corpus, **arguments_for(train_scope, params), seed=config.seeds[0])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "scope.ckpt")
    print(f"scope filter: holdout F1 {metrics['holdout_f1']:.4f}, accuracy {metrics['holdout_accuracy']:.4f}")
    print(f"saved {out / 'scope.ckpt'}")
    return 0


def cmd_train_emotion(args) -> int:
    mode = args.scoper or ("scope" if args.scope else "gold")
    if mode == "scope" and not args.scope:
        raise UsageError("--scoper scope requires --scope (run the train-scope stage first)")
    if mode != "scope" and args.scope:
        raise UsageError(f"--scope is read only under --scoper scope, not --scoper {mode}")
    config, stages, _ = _load(args)
    corpus = corpus_from_jsonl(args.data)
    vocab = config_vocab(config.generator)
    model = EmotionModel(vocab, seed=config.seeds[0])
    if mode == "scope":
        scope_model = ScopeModel.load(args.scope, vocab)
        scoper = lambda m: scope_model.scope(m.sentences).kept_texts
    elif mode == "none":
        scoper = all_texts
    else:
        scoper = None  # gold relevance flags
    metrics = train_emotion(model, corpus, **stages.get("emotion", {}), seed=config.seeds[0], scoper=scoper)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "emotion.ckpt")
    with replacing(out / "emotion_eval.csv", encoding="utf-8", newline="\n") as f:
        f.write("split,accuracy,macro_f1\n")
        f.write(f"holdout,{metrics['accuracy']:.6f},{metrics['macro_f1']:.6f}\n")
    print(f"emotion model: holdout accuracy {metrics['accuracy']:.4f}, macro-F1 {metrics['macro_f1']:.4f}")
    print(f"saved {out / 'emotion.ckpt'}")
    return 0


def cmd_pretrain_intent(args) -> int:
    config, _, _ = _load(args)
    # the agent run_online pretrains, saved before its first interaction
    pretrain = replace(config, init="pretrained", channel="oracle", interactions=0)
    _, _, info = run_online(pretrain, config.seeds[0], checkpoint_dir=args.out)
    print(f"pretrained {config.task} agent: baseline accuracy {info['baseline_accuracy']:.4f}")
    print(f"saved agent under {args.out}")
    return 0


def cmd_run_online(args) -> int:
    config, _, text = _runner_config(args)
    models = _learned_models(args, config)
    run_dir = Path(args.run_dir)
    _claim(run_dir, text, [config])
    for curve, info in run_cell(config, run_dir, **models):
        extra = f" (baseline {info['baseline_accuracy']:.4f})" if "baseline_accuracy" in info else ""
        print(f"seed {info['seed']}: final rolling success {curve.final_success:.4f}{extra}")
    write_report(run_dir)
    print(f"run artifacts under {run_dir}")
    return 0


def cmd_run_grid(args) -> int:
    config, stages, text = _runner_config(args)
    if config.channel != "oracle":
        # one pair of offline models is trained on one task's corpus, so it cannot serve both tasks
        raise ValueError("run-grid runs the oracle channel only; run a learned-channel cell with run-online")
    run_dir = Path(args.run_dir)
    # grid_cells refuses a value some cell cannot take (an intent_prior fits one task only) before anything is written
    cells = grid_cells(config, stages.get("online", {}))
    _claim(run_dir, text, cells)
    _print_rows(run_grid(cells, run_dir))
    print(f"report written to {run_dir / 'report.csv'}")
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    rows = rederive_report(run_dir)
    if not rows:
        raise UsageError(f"no curve files under {run_dir / 'curves'}; is {run_dir} a run directory?")
    check_manifest(run_dir)
    stored = run_dir / "report.csv"
    _print_rows(rows)
    if stored.exists():
        if stored.read_bytes() == report_text(rows).encode("utf-8"):
            print("re-derived summary matches the stored report")
        else:
            raise RuntimeError("re-derived summary does not match the stored report")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except Exception as exc:  # runtime faults exit 1; usage errors exit 2, as argparse's do
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
