#!/usr/bin/env python3
# Dense networks with hand-written gradients: forward heads, REINFORCE and
# cross-entropy backward passes, a finite-difference check of a few entries,
# and the binary checkpoint format.
# How to run: python demos/01_networks_and_gradients.py

import tempfile
from pathlib import Path

import numpy as np

from emorl.nn import Network, SGD, apply_update, load_checkpoint, save_checkpoint

rng = np.random.default_rng(0)

# ------------------------------------------------------------------
# 1. A zero-weight softmax network is exactly uniform over its actions
# ------------------------------------------------------------------
net = Network.build([8, 16, 3], head="softmax")
x = rng.random(8)
print("uniform start:", net.forward(x))

# ------------------------------------------------------------------
# 2. Analytic gradients vs central finite differences, on a few entries
# ------------------------------------------------------------------
net = Network.build([8, 16, 3], head="softmax", rng=rng)
h = 1e-4


def loss(target, scale):
    "-scale * ln p(target | x): the REINFORCE loss for scale = reward, cross-entropy for scale = 1."
    return -scale * np.log(net.forward(x)[target])


for mode, target, reward in (("reinforce", 1, +1.0), ("reinforce", 2, -1.0), ("supervised", 0, 1.0)):
    grads = net.reinforce_backward(x, target, reward) if mode == "reinforce" else net.supervised_backward(x, target)
    # each entry is (tensor, the index it covers, its gradient there); the gradient is zero elsewhere
    dense = {p: np.zeros(p.shape) for p in net.params()}
    for p, at, g in grads:
        dense[p][at] += g
    worst = 0.0
    for p, g in dense.items():
        for i in rng.choice(g.size, 3, replace=False):
            at = np.unravel_index(i, g.shape)  # p.values is a view: writing an entry perturbs the network
            orig = p.values[at]
            p.values[at] = orig + h
            hi = loss(target, reward)
            p.values[at] = orig - h
            lo = loss(target, reward)
            p.values[at] = orig
            fd, ana = (hi - lo) / (2 * h), float(g[at])
            worst = max(worst, abs(fd - ana) / max(abs(fd), abs(ana), 1e-6))
    print(f"{mode:11s} target={target} reward={reward:+.0f}: max rel error {worst:.2e} over 3 entries per tensor")

# ------------------------------------------------------------------
# 3. A few REINFORCE updates pull probability toward rewarded actions
# ------------------------------------------------------------------
opt = SGD(learning_rate=0.5)
print("p(action=1) before:", round(float(net.forward(x)[1]), 3))
for _ in range(20):
    apply_update(net.reinforce_backward(x, 1, +1.0), opt)
print("p(action=1) after 20 positive rewards:", round(float(net.forward(x)[1]), 3))

# ------------------------------------------------------------------
# 4. Checkpoints round-trip bit-exactly
# ------------------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "net.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    same = all(
        a.values.tobytes() == b.values.tobytes() for a, b in zip(net.params(), loaded.params())
    )
    print(f"checkpoint round trip bit-exact: {same} ({path.stat().st_size} bytes)")
