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
from .envsim import (
    Environment,
    build_offline_corpus,
    config_vocab,
    corpus_from_jsonl,
    corpus_to_jsonl,
)
from .harness import (
    ExperimentConfig,
    build_agent,
    load_config_file,
    make_eval_set,
    pretrain_agent,
    read_report,
    rederive_report,
    report_rows_equal,
    run_grid,
    run_online,
    summarize_grid,
    write_manifest,
    write_report,
)
from .policy import save_agent
from .scope import ScopeModel, train_scope
from .text import segment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emorl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the INI config file")
        p.add_argument("--seed", type=int, default=None, help="global seed override")
        return p

    p = add("gen-data", "generate a labeled offline corpus (JSONL)")
    p.add_argument("--out", required=True, help="output corpus path")
    p.add_argument("--n", type=int, default=None, help="number of records")

    p = add("train-scope", "train the sentence scope filter")
    p.add_argument("--data", required=True, help="corpus JSONL from gen-data")
    p.add_argument("--out", required=True, help="output directory")

    p = add("train-emotion", "train the emotion classifier")
    p.add_argument("--data", required=True, help="corpus JSONL from gen-data")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scope", default=None, help="scope checkpoint; filters inputs when given")
    p.add_argument(
        "--scoper",
        choices=("scope", "gold", "none"),
        default=None,
        help="input filtering: trained scope model, gold flags, or full text",
    )

    p = add("pretrain-intent", "supervised pretraining on the skewed subset")
    p.add_argument("--out", required=True, help="output directory")

    p = add("run-online", "online learning run(s) for the configured cell")
    p.add_argument("--run-dir", required=True, help="run directory for curves and checkpoints")
    p.add_argument("--interactions", type=int, default=None, help="override the interaction budget")
    p.add_argument("--scope", default=None, help="scope checkpoint (learned channel)")
    p.add_argument("--emotion", default=None, help="emotion checkpoint (learned channel)")

    p = add("run-grid", "the full task x init x regime grid")
    p.add_argument("--run-dir", required=True)

    p = sub.add_parser("report", help="re-derive the summary from a run directory")
    p.add_argument("--run-dir", required=True)
    return parser


def _seed_override(args) -> int | None:
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get("NARLE_SEED")
    return int(env) if env else None


def _load(args) -> tuple[ExperimentConfig, dict, str]:
    loaded = load_config_file(args.config)
    config: ExperimentConfig = loaded["experiment"]
    seed = _seed_override(args)
    if seed is not None:
        config = replace(config, seeds=(seed,))
    text = Path(args.config).read_text(encoding="utf-8")
    return config, loaded["stages"], text


def _learned_models(args, config):
    if config.channel != "learned":
        return None, None
    vocab = config_vocab(config.generator)
    if not args.scope:
        raise RuntimeError("channel=learned requires --scope (run the train-scope stage first)")
    if not args.emotion:
        raise RuntimeError("channel=learned requires --emotion (run the train-emotion stage first)")
    return ScopeModel.load(args.scope, vocab), EmotionModel.load(args.emotion, vocab)


def cmd_gen_data(args) -> int:
    config, stages, _ = _load(args)
    n = args.n if args.n is not None else int(stages.get("data", {}).get("n", 4000))
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
    vocab = config_vocab(config.generator)
    model = ScopeModel(
        vocab,
        dim=int(params.get("dim", 32)),
        window=int(params.get("window", 1)),
        seed=config.seeds[0],
    )
    metrics = train_scope(
        model,
        corpus,
        epochs=int(params.get("epochs", 6)),
        lr=float(params.get("lr", 0.5)),
        seed=config.seeds[0],
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "scope.ckpt")
    vocab.save(out / "vocab.tsv")
    print(f"scope filter: holdout F1 {metrics['holdout_f1']:.4f}, accuracy {metrics['holdout_accuracy']:.4f}")
    print(f"saved {out / 'scope.ckpt'}")
    return 0


def cmd_train_emotion(args) -> int:
    config, stages, _ = _load(args)
    params = stages.get("emotion", {})
    corpus = corpus_from_jsonl(args.data)
    vocab = config_vocab(config.generator)
    hidden = tuple(int(h) for h in params["hidden"].split(",") if h.strip()) if "hidden" in params else ()
    model = EmotionModel(vocab, hidden=hidden, seed=config.seeds[0])
    mode = args.scoper or ("scope" if args.scope else "gold")
    if mode == "scope":
        if not args.scope:
            raise RuntimeError("--scoper scope requires --scope (run the train-scope stage first)")
        scope_model = ScopeModel.load(args.scope, vocab)
        scoper = lambda m: scope_model.scope(segment(m.text, vocab)).kept_texts
    elif mode == "none":
        scoper = all_texts
    else:
        scoper = None  # gold relevance flags
    metrics = train_emotion(
        model,
        corpus,
        epochs=int(params.get("epochs", 12)),
        lr=float(params.get("lr", 0.5)),
        seed=config.seeds[0],
        scoper=scoper,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "emotion.ckpt")
    with open(out / "emotion_eval.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("split,accuracy,macro_f1\n")
        f.write(f"holdout,{metrics['accuracy']:.6f},{metrics['macro_f1']:.6f}\n")
    print(f"emotion model: holdout accuracy {metrics['accuracy']:.4f}, macro-F1 {metrics['macro_f1']:.4f}")
    print(f"saved {out / 'emotion.ckpt'}")
    return 0


def cmd_pretrain_intent(args) -> int:
    config, _, _ = _load(args)
    seed = config.seeds[0]
    vocab = config_vocab(config.generator)
    env = Environment(config.generator, seed=[seed, 2], channel="oracle", vocab=vocab)
    agent = build_agent(config, vocab.size, seed)
    pretrain_agent(config, agent, env, seed)
    baseline = agent.evaluate(make_eval_set(config, env, seed))
    save_agent(agent, args.out)
    print(f"pretrained {config.task} agent: baseline accuracy {baseline:.4f}")
    print(f"saved agent under {args.out}")
    return 0


def cmd_run_online(args) -> int:
    config, _, text = _load(args)
    if args.interactions is not None:
        # replace() re-runs the config's validation before anything is written
        n, cap = args.interactions, max(1, args.interactions)
        config = replace(config, interactions=n, eval_every=min(config.eval_every, cap), window=min(config.window, cap))
    scope_model, emotion_model = _learned_models(args, config)
    run_dir = Path(args.run_dir)
    (run_dir / "curves").mkdir(parents=True, exist_ok=True)
    (run_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
    write_manifest(run_dir, text, config.seeds)
    cell = f"{config.task}_{config.init}_{config.regime.kind}"
    results, evals = {}, {}
    for seed in config.seeds:
        curve, _, info = run_online(
            config,
            seed,
            curve_path=run_dir / "curves" / f"{cell}_s{seed}.csv",
            checkpoint_dir=run_dir / "checkpoints" / f"{cell}_s{seed}",
            scope_model=scope_model,
            emotion_model=emotion_model,
        )
        key = (config.task, config.init, config.regime.kind)
        results.setdefault(key, []).append(curve.final_success)
        evals.setdefault(key, []).append(curve.final_eval)
        extra = f" (baseline {info['baseline_accuracy']:.4f})" if "baseline_accuracy" in info else ""
        print(f"seed {seed}: final rolling success {curve.final_success:.4f}{extra}")
    write_report(run_dir / "report.csv", summarize_grid(results, evals))
    print(f"run artifacts under {run_dir}")
    return 0


def cmd_run_grid(args) -> int:
    config, _, text = _load(args)
    run_dir = Path(args.run_dir)
    write_manifest(run_dir, text, config.seeds)
    rows = run_grid(config, run_dir)
    for row in rows:
        print(
            f"{row['task']:<10} {row['init']:<10} {row['regime']:<14} "
            f"final success {row['final_success_mean']:.4f}"
        )
    print(f"report written to {run_dir / 'report.csv'}")
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    rows = rederive_report(run_dir)
    stored_path = run_dir / "report.csv"
    for row in rows:
        print(
            f"{row['task']:<10} {row['init']:<10} {row['regime']:<14} "
            f"final success {row['final_success_mean']:.4f}"
        )
    if stored_path.exists():
        stored = read_report(stored_path)
        if report_rows_equal(rows, stored):
            print("re-derived summary matches the stored report")
        else:
            raise RuntimeError("re-derived summary does not match the stored report")
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-scope": cmd_train_scope,
    "train-emotion": cmd_train_emotion,
    "pretrain-intent": cmd_pretrain_intent,
    "run-online": cmd_run_online,
    "run-grid": cmd_run_grid,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # runtime faults exit 1; argparse already exits 2
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
