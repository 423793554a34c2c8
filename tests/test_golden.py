"""Golden bytes: SHA-256 of the curve and checkpoint files of short runs, and
of the offline stages that feed the learned emotion channel.

The hashes pin the exact RNG draw order and float32 arithmetic of a run, so
a refactor of the networks, the policies, the scope filter, the emotion
model or the loop that is meant to keep behaviour must leave them
unchanged. A change that alters results on purpose records new hashes here
and says why.
"""

import hashlib
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from emorl.emotion import EmotionModel, train_emotion
from emorl.envsim import FeedbackRegime, build_offline_corpus, config_vocab, corpus_to_jsonl, default_config
from emorl.harness import ExperimentConfig, run_online
from emorl.scope import ScopeModel, train_scope
from emorl.text import segment

RUNS = {
    # criterion 6's generator and pretraining subset, full feedback so that
    # most interactions update all six heads
    "multilabel": ExperimentConfig(
        task="multilabel",
        init="pretrained",
        regime=FeedbackRegime.full(),
        interactions=400,
        eval_every=100,
        window=100,
        eval_size=60,
        pretrain_size=100,
        pretrain_epochs=10,
        generator=default_config(task="multilabel", pretrain_template_frac=0.6),
    ),
    "multiclass": ExperimentConfig(
        task="multiclass",
        init="pretrained",
        regime=FeedbackRegime.full(),
        interactions=400,
        eval_every=100,
        window=100,
        eval_size=60,
    ),
}

GOLDEN = {
    "multilabel": {
        "agent/agent.json": "86aeb9ed762faa750e56507c6c239728be370507d09b726eb0c1b9cfefb78dfc",
        "agent/head0.ckpt": "4bee127f41ea819af622f7e308f96245a07d238b707f737e12b85ddd882d9616",
        "agent/head1.ckpt": "3d5ed520c7840fa431c02a7e7eaea84429369d9e23080ee90b35b6dcdaf89fc5",
        "agent/head2.ckpt": "198a256a3bb83413cbdb557575cb8cf39496cf53a99ed913cc8360eb61f65b77",
        "agent/head3.ckpt": "ff76335a8a3e0014f61de0e12bae0ce0d81d06c3cfcf18d8c5285b40f8efe4c3",
        "agent/head4.ckpt": "6feadef3a1d4ccc4c05dc2828cff2b790284740ea126bf9bdb63d15de8bc3dc6",
        "agent/head5.ckpt": "13335fc33c80302cbe2b651c0f1aa7070d55a3777fc3d9aa5d10fe11c3b41162",
        "curve.csv": "238733ba6fa7e2d2fc91a2ee12fdbba63e86ea1d75f868c927faf8f321c2bb13",
    },
    "multiclass": {
        "agent/agent.json": "06a876dc38e4bf38532f1d6fc0b69207718e03b69a6672e9f395ab9577f35ef8",
        "agent/head0.ckpt": "dcb9e34e4695d31a3b1bd66e6d96c06f84cd30444160616d4432d0ded8223b34",
        "curve.csv": "75e69bbed7fda0469e0275935ce39529de9de15cc69dd08476a2a1c5d3fc8995",
    },
}


def file_hashes(root) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_bytes_match_golden_hashes(name, tmp_path):
    run_online(RUNS[name], 3, curve_path=tmp_path / "curve.csv", checkpoint_dir=tmp_path / "agent")
    assert file_hashes(tmp_path) == GOLDEN[name]


# the offline stages on a 400-message corpus, the emotion model learning from
# what the trained filter keeps, then a short learned-channel run on both
GOLDEN_LEARNED = {
    "corpus.jsonl": "37ba41a87a886845dc58cc9455a2d9aecca900064f632310780cf782b04cb0fa",
    "emotion.ckpt": "efff4dfc3c6afd6b7624990fa991953bb58d4a9ae7c3642275cdd42951449153",
    "run/agent/agent.json": "06a876dc38e4bf38532f1d6fc0b69207718e03b69a6672e9f395ab9577f35ef8",
    "run/agent/head0.ckpt": "79ef882ac64a7f8793cc9a1a7f025e4ae01df7262feee1b2e58ad3b566cc915e",
    "run/curve.csv": "6f2d8c59ec485aae3590579133abb61addc43a17a068c50954fb4b16d9061efa",
    "scope.ckpt": "c5d51a39366036ab6707870588edf8b36a1e5b0025579ad6058ce84994420b1c",
}


def test_learned_channel_bytes_match_golden_hashes(tmp_path):
    gen = default_config()
    vocab = config_vocab(gen)
    corpus = build_offline_corpus(gen, np.random.default_rng(7), 400)
    corpus_to_jsonl(corpus, tmp_path / "corpus.jsonl")
    scope_model = ScopeModel(vocab, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        train_scope(scope_model, corpus, epochs=3, lr=0.5, seed=0)
    scope_model.save(tmp_path / "scope.ckpt")
    emotion_model = EmotionModel(vocab, seed=0)
    train_emotion(
        emotion_model,
        corpus,
        epochs=4,
        lr=0.5,
        seed=0,
        scoper=lambda m: scope_model.scope(segment(m.text, vocab)).kept_texts,
    )
    emotion_model.save(tmp_path / "emotion.ckpt")
    config = ExperimentConfig(
        task="multiclass",
        init="pretrained",
        regime=FeedbackRegime.full(),
        channel="learned",
        interactions=300,
        eval_every=100,
        window=100,
        eval_size=60,
    )
    (tmp_path / "run").mkdir()
    run_online(
        config,
        3,
        curve_path=tmp_path / "run" / "curve.csv",
        checkpoint_dir=tmp_path / "run" / "agent",
        scope_model=scope_model,
        emotion_model=emotion_model,
    )
    assert file_hashes(tmp_path) == GOLDEN_LEARNED


GOLDEN_TESTS = ("test_run_bytes_match_golden_hashes", "test_learned_channel_bytes_match_golden_hashes")


def blas_kernel_skip_reason() -> str | None:
    "Why `OPENBLAS_CORETYPE` cannot pick numpy's BLAS kernels on this machine, or None when it can."
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"OPENBLAS_CORETYPE names x86-64 kernels, and this machine is {platform.machine()}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return f"numpy {np.__version__} does not report its BLAS build"
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", "").split():
        return f"numpy's BLAS ({blas.get('name')}) is not a DYNAMIC_ARCH OpenBLAS"
    return None


def test_golden_bytes_hold_on_every_blas_kernel():
    # the three golden runs in fresh processes under the default kernel,
    # the oldest x86-64 one (Prescott, SSE3) and Haswell (AVX2) where the
    # machine has it: dense products add in a kernel's own order, so equal
    # hashes show that no byte depends on which kernel ran them
    reason = blas_kernel_skip_reason()
    if reason:
        pytest.skip(reason)
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__

    cores = [None, "Prescott"] + (["Haswell"] if __cpu_features__.get("AVX2") else [])
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    args = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *(f"{__file__}::{t}" for t in GOLDEN_TESTS)]
    runs = []
    try:
        for core in cores:
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            env.update(PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS="1")
            if core:
                env["OPENBLAS_CORETYPE"] = core
            runs.append(subprocess.Popen(args, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True))
        for core, run in zip(cores, runs):
            out, _ = run.communicate(timeout=300)
            assert run.returncode == 0 and "3 passed" in out, f"OPENBLAS_CORETYPE={core}:\n{out}"
    finally:
        for run in runs:
            run.kill()
            run.wait()
