#!/usr/bin/env python3
# Dense networks with hand-written gradients: forward heads, REINFORCE and
# cross-entropy backward passes, finite-difference verification, and the
# binary checkpoint format.
# How to run: python demos/01_networks_and_gradients.py

import tempfile
from pathlib import Path

import numpy as np

from emorl.nn import Network, SGD, apply_update, gradient_check, load_checkpoint, save_checkpoint

rng = np.random.default_rng(0)

# ------------------------------------------------------------------
# 1. A zero-weight softmax network is exactly uniform over its actions
# ------------------------------------------------------------------
net = Network.build([8, 16, 3], head="softmax")
x = rng.random(8)
print("uniform start:", net.forward(x))

# ------------------------------------------------------------------
# 2. Analytic gradients vs central finite differences
# ------------------------------------------------------------------
net = Network.build([8, 16, 3], head="softmax", rng=rng)
for mode, target, reward in (("reinforce", 1, +1.0), ("reinforce", 2, -1.0), ("supervised", 0, 1.0)):
    err = gradient_check(net, x, target, mode=mode, reward=reward)
    print(f"{mode:11s} target={target} reward={reward:+.0f}: max rel error {err:.2e}")

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
