"""Spans around the layers' public functions, installed from outside emorl.

Each function is wrapped at every name the program looks it up by: a
function imported by name into another module is patched there, and a
method is patched on its class. Spans are kept in memory as parallel arrays
(name, parent, start, end) and written out once, when the traced run ends.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from pathlib import Path

import numpy as np


@contextlib.contextmanager
def patched(owner, attr: str, wrap):
    "Replace `owner.attr` by `wrap(original)` for the duration of the block."
    original = getattr(owner, attr)
    setattr(owner, attr, wrap(original))
    try:
        yield original
    finally:
        setattr(owner, attr, original)


def lookup_sites(emorl) -> dict[str, list[tuple[object, str]]]:
    "Span name -> every (module or class, attribute) the program calls it through."
    harness, envsim, nn, policy = emorl.harness, emorl.envsim, emorl.nn, emorl.policy
    scope, emotion, text = emorl.scope, emorl.emotion, emorl.text
    agents = (policy.MulticlassPolicy, policy.MultilabelPolicy)
    return {
        "text.segment": [(envsim, "segment"), (text, "segment")],
        "text.featurize_texts": [(envsim, "featurize_texts"), (emotion, "featurize_texts")],
        "envsim.generate_email": [(envsim, "generate_email"), (harness, "generate_email")],
        "envsim.respond": [(envsim, "respond")],
        "envsim.build_offline_corpus": [(envsim, "build_offline_corpus")],
        "nn.forward": [(nn.Network, "forward")],
        "nn.reinforce_backward": [(nn.Network, "reinforce_backward")],
        "nn.supervised_backward": [(nn.Network, "supervised_backward")],
        "nn.apply_update": [(policy, "apply_update"), (scope, "apply_update"), (emotion, "apply_update")],
        "policy.act": [(cls, "act") for cls in agents],
        "policy.learn": [(cls, "learn") for cls in agents],
        "policy.evaluate": [(cls, "evaluate") for cls in agents],
        "policy.pretrain": [(cls, "pretrain") for cls in agents],
        "policy.save_agent": [(harness, "save_agent")],
        "scope.scope": [(scope.ScopeModel, "scope")],
        "scope.train_scope": [(scope, "train_scope")],
        "emotion.classify_emotion": [(envsim, "classify_emotion")],
        "emotion.train_emotion": [(emotion, "train_emotion")],
        "harness.make_eval_set": [(harness, "make_eval_set")],
        "harness.run_online": [(harness, "run_online")],
    }


class Tracer:
    """In-memory span store; parent -1 marks a span with no traced caller."""

    def __init__(self, sites: dict[str, list[tuple[object, str]]]):
        self.sites = sites
        self.names = list(sites)
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def wrap(self, name: str, fn):
        nid = self.names.index(name)
        name_id, parent, start, end, open_ = self.name_id, self.parent, self.start, self.end, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        "Wrap every lookup site of every span name while the block runs."
        with contextlib.ExitStack() as stack:
            for name, sites in self.sites.items():
                for owner, attr in sites:
                    stack.enter_context(patched(owner, attr, lambda fn, name=name: self.wrap(name, fn)))
            yield self

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, tuple[float, str]]:
        """Per span name: call count, busy seconds and self seconds (busy time
        minus the time of its child spans); plus how many `policy.learn`
        calls made an update, that is had a `nn.reinforce_backward` child."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        calls = np.bincount(a["name_id"], minlength=n_names)
        busy = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        self_time = np.bincount(a["name_id"], weights=dur - child_time, minlength=n_names)
        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.s"] = (float(busy[i]), "s")
            out[f"{name}.self_s"] = (float(self_time[i]), "s")
        learn, backward = self.names.index("policy.learn"), self.names.index("nn.reinforce_backward")
        parents = a["parent"][(a["name_id"] == backward) & has_parent]
        updates = len(np.unique(parents[a["name_id"][parents] == learn]))
        out["policy.learn.updates"] = (updates, "count")
        out["policy.learn.update_ratio"] = (updates / calls[learn] if calls[learn] else 0.0, "fraction")
        return out
