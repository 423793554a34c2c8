"""Network forward/backward against an independent scalar-loop oracle.

The oracle re-implements the forward arithmetic with plain Python floats
(double precision) and knows nothing about the package internals; finite
differences of the oracle's loss provide the gradient reference.
"""

import contextlib
import copy
import math
import pickle
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorl.nn import (
    HEADS,
    SGD,
    CheckpointFormatError,
    Network,
    PackedRows,
    ParamTensor,
    TrainingFault,
    apply_update,
    fit,
    holdout_split,
    load_checkpoint,
    read_tensors,
    _head_one,
    save_checkpoint,
    sigmoid,
    softmax,
    write_tensors,
)
from emorl.scope import ScopeModel
from emorl.text import build_vocab

# -- independent oracle -------------------------------------------------------


def oracle_forward(layer_data, head, x):
    "Scalar-loop float64 forward pass over (W, b, activation) triples."
    h = [float(v) for v in x]
    for w, b, act in layer_data:
        out = []
        for i in range(len(w)):
            s = float(b[i])
            for j in range(len(w[i])):
                s += float(w[i][j]) * h[j]
            if act == "relu":
                s = s if s > 0.0 else 0.0
            elif act == "tanh":
                s = math.tanh(s)
            out.append(s)
        h = out
    if head == "softmax":
        m = max(h)
        exps = [math.exp(v - m) for v in h]
        z = sum(exps)
        return [e / z for e in exps]
    return [1.0 / (1.0 + math.exp(-v)) if v >= 0 else math.exp(v) / (1.0 + math.exp(v)) for v in h]


def oracle_loss(layer_data, head, x, mode, target, reward):
    probs = oracle_forward(layer_data, head, x)
    if head == "softmax":
        ll = math.log(probs[int(target)])
    else:
        ll = sum(
            (math.log(p) if t else math.log(1.0 - p))
            for p, t in zip(probs, target)
        )
    return -reward * ll if mode == "reinforce" else -ll


def extract_layers(net):
    "Copy network parameters into plain nested lists for the oracle."
    return [
        ([list(map(float, row)) for row in l.w.values], list(map(float, l.b.values)), l.activation)
        for l in net.layers
    ]


def fd_oracle_grads(net, x, mode, target, reward, h=1e-4):
    "Central finite differences of the oracle loss, parameter by parameter."
    layer_data = extract_layers(net)
    grads = []
    for li, (w, b, act) in enumerate(layer_data):
        gw = [[0.0] * len(w[0]) for _ in range(len(w))]
        for i in range(len(w)):
            for j in range(len(w[0])):
                orig = w[i][j]
                w[i][j] = orig + h
                hi = oracle_loss(layer_data, net.head, x, mode, target, reward)
                w[i][j] = orig - h
                lo = oracle_loss(layer_data, net.head, x, mode, target, reward)
                w[i][j] = orig
                gw[i][j] = (hi - lo) / (2.0 * h)
        gb = [0.0] * len(b)
        for i in range(len(b)):
            orig = b[i]
            b[i] = orig + h
            hi = oracle_loss(layer_data, net.head, x, mode, target, reward)
            b[i] = orig - h
            lo = oracle_loss(layer_data, net.head, x, mode, target, reward)
            b[i] = orig
            gb[i] = (hi - lo) / (2.0 * h)
        grads.append((np.array(gw), np.array(gb)))
    return grads


def dense_grads(params, grads) -> list:
    "The whole float32 gradient of each of `params`: the sum of a backward pass's entries `grads` on a zero array."
    dense = {p: np.zeros(p.shape, dtype=np.float32) for p in params}
    for p, at, g in grads:
        dense[p][at] += g
    return list(dense.values())


def max_rel_error(net, grads, oracle_grads):
    "Largest relative error of a backward pass's entries `grads` against the oracle's (W, b) gradients."
    worst = 0.0
    refs = [ref for pair in oracle_grads for ref in pair]
    for analytic, ref in zip(dense_grads(net.params(), grads), refs):
        err = np.abs(analytic - ref) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(ref)), 1e-6
        )
        worst = max(worst, float(err.max()))
    return worst


def random_case(rng, head=None, mode=None):
    dims = [int(rng.integers(4, 12))]
    for _ in range(int(rng.integers(1, 3))):
        dims.append(int(rng.integers(3, 10)))
    dims.append(int(rng.integers(2, 6)))
    acts = [str(rng.choice(["relu", "tanh", "identity"])) for _ in range(len(dims) - 2)]
    acts.append("identity")
    head = head or str(rng.choice(["softmax", "sigmoid"]))
    net = Network.build(dims, head=head, activations=acts, rng=rng, init_scale=1.0)
    x = rng.normal(0.0, 1.0, dims[0])
    mode = mode or str(rng.choice(["reinforce", "supervised"]))
    reward = float(rng.choice([-1.0, 1.0])) if mode == "reinforce" else 1.0
    if head == "softmax":
        target = int(rng.integers(dims[-1]))
    else:
        target = tuple(int(b) for b in rng.integers(0, 2, dims[-1]))
    return net, x, mode, target, reward


# -- forward ------------------------------------------------------------------


def test_zero_weight_net_is_uniform():
    net = Network.build([5, 4, 3], head="softmax")
    p = net.forward(np.ones(5))
    assert np.allclose(p, [1 / 3] * 3, atol=1e-12)


def test_single_layer_zero_logits_uniform():
    net = Network.build([4, 3], head="softmax")
    p = net.forward(np.array([0.3, -1.0, 2.0, 0.1]))
    assert np.allclose(p, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_forward_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        net, x, _, _, _ = random_case(rng)
        expected = oracle_forward(extract_layers(net), net.head, x)
        assert np.allclose(net.forward(x), expected, atol=1e-6)


def test_softmax_sums_to_one_for_wild_logits():
    rng = np.random.default_rng(3)
    for scale in (1.0, 50.0, 500.0):
        net = Network.build([6, 4], head="softmax", rng=rng, init_scale=scale)
        p = net.forward(rng.normal(0, 1, 6))
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) < 1e-6


def test_sigmoid_outputs_in_open_interval():
    rng = np.random.default_rng(4)
    net = Network.build([6, 5], head="sigmoid", rng=rng, init_scale=100.0)
    p = net.forward(rng.normal(0, 1, 6))
    assert np.all(p > 0.0) and np.all(p < 1.0)


def _two_branch_sigmoid(u: np.ndarray) -> np.ndarray:
    "The logistic computed on each sign's entries apart, by boolean masks."
    out = np.empty_like(u, dtype=np.float64)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return np.clip(out, 1e-12, 1.0 - 1e-12)


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_sigmoid_equals_the_two_branch_form_bit_for_bit(values):
    u = np.array(values + [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, np.nan, -np.nan])
    assert sigmoid(u).tobytes() == _two_branch_sigmoid(u).tobytes()
    wide = np.random.default_rng(len(values)).normal(0.0, 30.0, (50, 6))
    assert sigmoid(wide).tobytes() == _two_branch_sigmoid(wide).tobytes()


@settings(max_examples=100, deadline=None, database=None)
@given(st.floats(-2e-3, 2e-3), st.floats(1e-15, 1e-5))
def test_sigmoid_bounds_its_output_as_np_clip_does(shift, step):
    "Logits whose logistic lands on, beside and beyond 1e-12 and 1 - 1e-12."
    edge = np.log(1e12 - 1) + shift  # the logistic of +-log(1e12 - 1) is 1 - 1e-12 and 1e-12
    u = edge + step * np.arange(-200, 201)
    u = np.concatenate([u, -u])
    assert sigmoid(u).tobytes() == _two_branch_sigmoid(u).tobytes()


def _ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    "How many float64 steps apart two arrays of non-negative numbers are, entry by entry."
    return np.abs(a.view(np.int64) - b.view(np.int64))


_HEAD_INPUTS = st.floats(width=64) | st.sampled_from([0.0, -0.0, 800.0, -800.0, 1e300, -1e300, 27.631021115928547, -27.631021115928547])


@settings(max_examples=300, deadline=None, database=None)
@given(
    head=st.sampled_from(HEADS),
    shape=st.sampled_from([(1,), (3,), (7,), (9,), (6, 1), (4, 3), (2, 8)]),
    data=st.data(),
)
def test_the_single_example_head_agrees_with_the_batch_head(head, shape, data):
    # trace's head, in Python floats, against forward's numpy head on
    # stacked and unstacked head inputs with wild, clipped and NaN entries:
    # NaN where numpy gives NaN, else within 4 float64 steps. The two exps
    # may differ in the last bit, and the sum and the quotient then round
    # different inputs: a softmax was seen 3 steps away (2 entries in
    # 300000), a sigmoid 2. A softmax of 8 or more classes is numpy's own.
    h = np.array(data.draw(st.lists(_HEAD_INPUTS, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)
    with np.errstate(all="ignore"):
        got, expected = _head_one(h, head), (softmax if head == "softmax" else sigmoid)(h)
    assert got.shape == expected.shape and got.dtype == np.float64
    nan = np.isnan(expected)
    assert (np.isnan(got) == nan).all()
    assert (_ulps(got[~nan], expected[~nan]) <= 4).all()
    if head == "softmax" and shape[-1] >= 8:
        assert got.tobytes() == expected.tobytes()


def test_forward_dimension_mismatch_raises():
    net = Network.build([5, 3], head="softmax")
    with pytest.raises(ValueError, match="input dim"):
        net.forward(np.zeros(4))


# -- backward -----------------------------------------------------------------


def test_zero_reward_leaves_gradients_untouched():
    rng = np.random.default_rng(5)
    net = Network.build([6, 4, 3], head="softmax", rng=rng)
    before = [p.values.tobytes() for p in net.params()]
    assert net.reinforce_backward(rng.normal(0, 1, 6), 1, 0.0) == []
    assert [p.values.tobytes() for p in net.params()] == before


def test_softmax_reinforce_gradient_identity():
    # closed form: d(-ln pi_a)/d logit_j = pi_j - 1[j == a]
    rng = np.random.default_rng(6)
    net = Network.build([5, 3], head="softmax", rng=rng)
    x = rng.normal(0, 1, 5)
    probs = net.forward(x)
    action = 2
    w_grad, b_grad = dense_grads(net.params(), net.reinforce_backward(x, action, 1.0))
    expected_logit_grad = probs.copy()
    expected_logit_grad[action] -= 1.0
    assert np.allclose(b_grad, expected_logit_grad, atol=1e-6)
    assert np.allclose(w_grad, np.outer(expected_logit_grad, x), atol=1e-6)


def test_reinforce_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(8):
        net, x, _, target, reward = random_case(rng, mode="reinforce")
        grads = net.reinforce_backward(x, target, reward)
        ref = fd_oracle_grads(net, x, "reinforce", target, reward)
        assert max_rel_error(net, grads, ref) < 1e-4


def test_supervised_matches_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(8):
        net, x, _, target, _ = random_case(rng, mode="supervised")
        grads = net.supervised_backward(x, target)
        ref = fd_oracle_grads(net, x, "supervised", target, 1.0)
        assert max_rel_error(net, grads, ref) < 1e-4


def test_perfect_prediction_has_vanishing_gradient():
    net = Network.build([3, 3], head="softmax")
    net.layers[0].b.values[:] = np.array([40.0, 0.0, 0.0], dtype=np.float32)
    grads = net.supervised_backward(np.zeros(3), 0)
    norm = sum(float(np.abs(g).sum()) for _, _, g in grads)
    assert norm < 1e-6


def test_negated_reward_negates_gradients_exactly():
    rng = np.random.default_rng(9)
    net, x, _, target, _ = random_case(rng, mode="reinforce")
    plus = dense_grads(net.params(), net.reinforce_backward(x, target, 1.0))
    minus = dense_grads(net.params(), net.reinforce_backward(x, target, -1.0))
    for g_plus, g_minus in zip(plus, minus):
        assert np.array_equal(g_plus, -g_minus)


def test_logit_scaling_preserves_argmax():
    rng = np.random.default_rng(10)
    net = Network.build([6, 5, 4], head="softmax", rng=rng)
    x = rng.normal(0, 1, 6)
    base = int(np.argmax(net.forward(x)))
    for c in (0.5, 2.0, 7.0):
        scaled = net.copy()
        scaled.layers[-1].w.values *= np.float32(c)
        scaled.layers[-1].b.values *= np.float32(c)
        assert int(np.argmax(scaled.forward(x))) == base


def test_action_out_of_range_is_contract_violation():
    net = Network.build([4, 3], head="softmax")
    with pytest.raises(ValueError, match="out of range"):
        net.reinforce_backward(np.zeros(4), 3, 1.0)


def test_sigmoid_head_rejects_non_binary_target():
    net = Network.build([4, 3], head="sigmoid")
    with pytest.raises(ValueError):
        net.reinforce_backward(np.zeros(4), (0.5, 0, 1), 1.0)


def test_gradient_check_on_stacked_heads():
    # two sigmoid heads in one stacked network; zero input entries exercise
    # the first layer's gradient on nonzero columns only. Each head's slice
    # of the stacked gradient is held to the oracle's gradient of that head
    rng = np.random.default_rng(21)
    nets = [Network.build([6, 4, 2], head="sigmoid", activations=["tanh", "identity"], rng=rng) for _ in range(2)]
    stacked = Network.stack(nets)
    assert stacked.stack_shape == (2,)
    x = rng.normal(0.0, 1.0, 6)
    x[[1, 4]] = 0.0
    for mode, target, reward in (("reinforce", (1, 0, 0, 1), -1.0), ("supervised", (0, 1, 1, 1), 1.0)):
        if mode == "reinforce":
            grads = stacked.reinforce_backward(x, target, reward)
        else:
            grads = stacked.supervised_backward(x, target)
        dense = dense_grads(stacked.params(), grads)
        for k, head in enumerate(stacked.unstack()):
            entries = [(p, ..., g[k]) for p, g in zip(head.params(), dense)]
            ref = fd_oracle_grads(head, x, mode, target[2 * k : 2 * k + 2], reward)
            assert max_rel_error(head, entries, ref) < 1e-4


def test_stacked_forward_and_gradients_equal_each_head_alone():
    rng = np.random.default_rng(22)
    nets = [Network.build([7, 5, 3], head="sigmoid", rng=rng) for _ in range(3)]
    stacked = Network.stack(nets)
    x = rng.normal(0.0, 1.0, 7)
    x[2] = 0.0
    batch = rng.normal(0.0, 1.0, (4, 7))
    assert stacked.forward(x).tobytes() == np.stack([n.forward(x) for n in nets]).tobytes()
    assert stacked.forward(batch).tobytes() == np.stack([[n.forward(r) for n in nets] for r in batch]).tobytes()
    target = rng.integers(0, 2, (3, 3))
    stacked_grads = dense_grads(stacked.params(), stacked.supervised_backward(x, target))
    for net, t, k in zip(nets, target, range(3)):
        for a, b in zip(stacked_grads, dense_grads(net.params(), net.supervised_backward(x, t))):
            assert a[k].tobytes() == b.tobytes()


def test_param_tensor_holds_float32_values_in_float64():
    raw = np.array([[0.1, 1.0 / 3.0], [2.0**-30, 1e30]])
    t = ParamTensor("t", raw)
    assert t.values.dtype == np.float64 and t.values.flags.c_contiguous
    assert t.values.tolist() == raw.astype(np.float32).astype(np.float64).tolist()
    assert ParamTensor.__slots__ == ("name", "values")
    assert ParamTensor("f", raw.astype(np.float32)).values.tobytes() == t.values.tobytes()
    transposed = ParamTensor("T", t.values.T)
    assert transposed.values.flags.c_contiguous and np.array_equal(transposed.values, t.values.T)
    # an array that already holds float32 values is kept, not copied
    assert ParamTensor("k", t.values).values is t.values


def test_unstack_copies_each_head_into_a_layout_of_its_own():
    # every network owns its layout, so a head of a stack is a copy: its
    # bytes are the stack's slice, and a write to it leaves the stack as it was
    heads = [Network.build([5, 3, 2], head="sigmoid", rng=np.random.default_rng(s)) for s in (33, 34, 35)]
    stacked = Network.stack(heads)
    for k, head in enumerate(stacked.unstack()):
        for a, b, c in zip(head.params(), stacked.params(), heads[k].params(), strict=True):
            assert not np.shares_memory(a.values, b.values)
            assert a.values.tobytes() == np.ascontiguousarray(b.values[k]).tobytes() == c.values.tobytes()
    before = values_bytes(stacked)
    stacked.unstack()[1].layers[0].w.values[0, 0] = 0.5
    assert values_bytes(stacked) == before


def test_stack_rejects_mismatched_networks():
    rng = np.random.default_rng(23)
    base = Network.build([5, 4, 1], head="sigmoid", rng=rng)
    for other in (
        Network.build([5, 3, 1], head="sigmoid", rng=rng),
        Network.build([5, 4, 1], head="softmax", rng=rng),
        Network.build([5, 4, 1], head="sigmoid", activations=["tanh", "identity"], rng=rng),
    ):
        with pytest.raises(ValueError, match="stacked"):
            Network.stack([base, other])


# -- optimizer ----------------------------------------------------------------


def values_bytes(net):
    return [p.values.tobytes() for p in net.params()]


def test_apply_update_zero_grads_is_identity():
    rng = np.random.default_rng(13)
    net = Network.build([5, 3], head="softmax", rng=rng)
    before = values_bytes(net)
    apply_update([(p, ..., np.zeros(p.shape, dtype=np.float32)) for p in net.params()], SGD(learning_rate=0.5))
    assert values_bytes(net) == before


def test_apply_update_lr_one_grad_equals_values():
    net = Network.build([3, 2], head="softmax", rng=np.random.default_rng(14))
    apply_update([(p, ..., p.values.astype(np.float32)) for p in net.params()], SGD(learning_rate=1.0))
    for p in net.params():
        assert np.all(p.values == 0.0)


def test_update_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(17)
        net = Network.build([6, 4, 3], head="softmax", rng=rng)
        opt = SGD(learning_rate=0.05)
        for _ in range(50):
            x = rng.normal(0, 1, 6)
            apply_update(net.reinforce_backward(x, int(rng.integers(3)), float(rng.choice([-1.0, 1.0]))), opt)
        return values_bytes(net)

    assert run() == run()


def test_non_finite_update_raises_training_fault():
    net = Network.build([3, 2], head="softmax", rng=np.random.default_rng(18))
    grads = net.supervised_backward(np.ones(3), 0)
    grads[0][2][...] = np.inf
    before = values_bytes(net)
    with pytest.raises(TrainingFault):
        apply_update(grads, SGD(learning_rate=1.0))
    assert values_bytes(net) == before
    # one poisoned entry in one head of a stacked tensor names that tensor,
    # and no tensor changes
    for bad in (np.nan, np.inf, -np.inf):
        heads = [Network.build([3, 4, 2], head="sigmoid", rng=np.random.default_rng(s)) for s in (18, 19)]
        stacked = Network.stack(heads)
        grads = stacked.supervised_backward(np.ones(3), np.ones((2, 2)))
        tensor, _, block = grads[2]
        assert tensor is stacked.layers[1].w
        block[1, 0, 2] = bad
        before = values_bytes(stacked)
        with pytest.raises(TrainingFault, match=r"'L01\.identity\.W'"):
            apply_update(grads, SGD(learning_rate=1.0))
        assert values_bytes(stacked) == before


def _sparse_case_net(heads: int, rng) -> Network:
    "A plain softmax net (heads=0) or a stack of sigmoid heads, with three dead relu units."
    if heads == 0:
        net = Network.build([11, 7, 3], head="softmax", rng=rng)
    else:
        net = Network.stack([Network.build([11, 7, 2], head="sigmoid", rng=rng) for _ in range(heads)])
    net.layers[0].b.values[..., :3] = -50.0
    return net


def _bag(*cols: int) -> np.ndarray:
    "A bag-of-words input over 11 columns: a column named twice counts twice, unnamed ones are zero."
    x = np.zeros(11)
    np.add.at(x, list(cols), 0.25)
    return x


def _target(heads: int, rng):
    return int(rng.integers(3)) if heads == 0 else rng.integers(0, 2, (heads, 2))


def _dense_entries(net: Network, grads) -> list:
    "The same gradient as whole-tensor entries."
    return [(p, ..., g) for p, g in zip(net.params(), dense_grads(net.params(), grads))]


@pytest.mark.parametrize("heads", [0, 2, 6])
def test_update_on_touched_columns_equals_whole_tensor_update(heads):
    # the first layer's entry covers the input's nonzero columns only;
    # applying it must equal applying the whole-tensor gradient, which is
    # zero off those columns: columns named twice, an all-zero input, then
    # columns the earlier steps did not touch
    rng = np.random.default_rng(40 + heads)
    sparse = _sparse_case_net(heads, rng)
    dense = sparse.copy()
    opt = SGD(learning_rate=0.3)
    for x in (_bag(1, 4, 4, 8), _bag(4, 6, 9, 9), _bag(0, 4), _bag(), _bag(2, 10)):
        target, reward = _target(heads, rng), float(rng.choice([-1.0, 1.0]))
        passes = (lambda n: n.reinforce_backward(x, target, reward), lambda n: n.supervised_backward(x, target))
        for backward in passes:
            grads = backward(sparse)
            assert grads[0][0] is sparse.layers[0].w
            assert grads[0][1][1].tolist() == np.flatnonzero(x).tolist()
            apply_update(grads, opt)
            apply_update(_dense_entries(dense, backward(dense)), opt)
            assert values_bytes(sparse) == values_bytes(dense)


@pytest.mark.parametrize("heads", [0, 2])
def test_non_finite_step_in_touched_column_raises_training_fault(heads):
    target = 1 if heads == 0 else np.ones((heads, 2))
    for bad in (np.nan, np.inf, -np.inf):
        net = _sparse_case_net(heads, np.random.default_rng(50))
        grads = net.supervised_backward(_bag(3, 5), target)
        _, (_, cols), block = grads[0]
        assert cols.tolist() == [3, 5]
        block[..., 4, 1] = bad  # row 4 of column 5
        before = values_bytes(net)
        with pytest.raises(TrainingFault, match=r"'L00\.relu\.W'"):
            apply_update(grads, SGD(learning_rate=1.0))
        assert values_bytes(net) == before


@settings(max_examples=60, deadline=None, database=None)
@given(
    heads=st.sampled_from([0, 2, 6]),
    seed=st.integers(0, 2**16),
    passes=st.lists(
        st.tuples(st.lists(st.integers(0, 10), max_size=5), st.sampled_from([None, -1.0, 0.0, 0.5, 1.0])),
        min_size=1,
        max_size=5,
    ),
)
def test_applied_entries_equal_a_dense_gradient_step(heads, seed, passes):
    # a supervised pass (reward None) or a REINFORCE pass on a sparse input:
    # applying its entries must give float32(values - lr * dense gradient) on
    # every byte, -0.0 included: the dead units' gradients are +-0.0 and
    # some of their weights are -0.0. A zero reward has no entries, and
    # applying no entries changes nothing
    rng = np.random.default_rng(seed)
    net = _sparse_case_net(heads, rng)
    net.layers[0].w.values[..., :3, ::2] = -0.0
    opt = SGD(learning_rate=0.3)
    for cols, reward in passes:
        x, target = _bag(*cols), _target(heads, rng)
        if reward is None:
            grads = net.supervised_backward(x, target)
        else:
            grads = net.reinforce_backward(x, target, reward)
            assert (grads == []) == (reward == 0.0)
        expected = [
            (p.values - opt.learning_rate * g).astype(np.float32).tobytes()
            for p, g in zip(net.params(), dense_grads(net.params(), grads))
        ]
        apply_update(grads, opt)
        assert [p.values.astype(np.float32).tobytes() for p in net.params()] == expected


@settings(max_examples=80, deadline=None, database=None)
@given(
    heads=st.sampled_from([0, 2, 6]),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.tuples(
            st.lists(st.integers(0, 10), max_size=5),
            st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1e30]),
            st.sampled_from([None, np.nan, np.inf]),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_reinforce_step_equals_backward_and_apply_update(heads, seed, steps):
    # the fused online step against `reinforce_backward` + `apply_update` on
    # a copy, on a softmax net or a stack of sigmoid heads whose first layer
    # holds -0.0 weights: every byte and every TrainingFault message agree,
    # with the trace handed in or not; an input entry of NaN or infinity, or
    # a reward so large that the float32 gradient overflows, must fault
    # before any write, and a zero reward changes nothing
    rng = np.random.default_rng(seed)
    net = _sparse_case_net(heads, rng)
    net.layers[0].w.values[..., :3, ::2] = -0.0
    ref, opt = net.copy(), SGD(learning_rate=0.3)
    for cols, reward, poison, handed in steps:
        x, target = _bag(*cols), _target(heads, rng)
        if poison is not None:
            x[cols[0] if cols else 0] = poison
        before = values_bytes(net)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                apply_update(ref.reinforce_backward(x, target, reward), opt)
                fault = None
            except TrainingFault as exc:
                fault = str(exc)
            with pytest.raises(TrainingFault, match=re.escape(fault)) if fault else contextlib.nullcontext():
                net.reinforce_step(x, target, reward, opt, net.trace(x) if handed else None)
        assert values_bytes(net) == values_bytes(ref)
        if fault or reward == 0.0:
            assert values_bytes(net) == before
        if fault:
            return


def test_a_networks_buffers_start_on_64_byte_boundaries(tmp_path):
    # the first layer's weight and the flat buffer of the other tensors,
    # whose first view is the first layer's bias, as every constructor and
    # copy lays them out
    net = Network.build([11, 7, 3], head="softmax", rng=np.random.default_rng(60))
    stacked = Network.stack([Network.build([11, 7, 2], head="sigmoid", rng=np.random.default_rng(s)) for s in (61, 62, 63)])
    save_checkpoint(net, tmp_path / "n.ckpt")
    nets = [net, stacked, net.copy(), *stacked.unstack(), load_checkpoint(tmp_path / "n.ckpt")]
    nets += [copy.deepcopy(net), pickle.loads(pickle.dumps(stacked))]
    for n in nets:
        assert [p.values.ctypes.data % 64 for p in n.params()[:2]] == [0, 0]


def per_step_fit(net, examples, order, opt) -> tuple[list[bytes], str | None]:
    """`fit`'s reference: one `supervised_backward` and one `apply_update` on
    the example itself for each index of `order`. Returns the parameter bytes
    from before the step that raised TrainingFault and its message, or else
    the bytes at the end and None."""
    for i in order:
        before = values_bytes(net)
        state, label = examples[i]
        grads = net.supervised_backward(state, label)
        try:
            apply_update(grads, opt)
        except TrainingFault as fault:
            return before, str(fault)
    return values_bytes(net), None


def _fit_case_net(kind: str, rng) -> Network:
    "The one-layer softmax net of the emotion model's shape, or a `_sparse_case_net` of 0 or 6 heads."
    if kind == "linear":
        return Network.build([11, 3], head="softmax", rng=rng)
    return _sparse_case_net(6 if kind == "stack" else 0, rng)


@settings(max_examples=80, deadline=None, database=None)
@given(
    kind=st.sampled_from(["linear", "softmax", "stack"]),
    seed=st.integers(0, 2**32 - 1),
    bags=st.lists(
        st.tuples(st.lists(st.integers(0, 10), max_size=5), st.lists(st.integers(0, 10), max_size=3)),
        min_size=1,
        max_size=6,
    ),
    epochs=st.integers(0, 3),
    data=st.data(),
)
def test_fit_steps_exactly_as_the_per_step_loop(kind, seed, bags, epochs, data):
    # a one-layer softmax net (its only layer is also its last), a two-layer
    # softmax net or a 6-head sigmoid stack, on all rows (a count) or a drawn
    # subset (indices); rows may be all zero, hold -0.0 entries (on columns
    # where some weights are -0.0, which fit's gradient entries cover and
    # must leave -0.0) and one drawn row a NaN: fit on the packed rows must
    # leave every byte, and its generator, as the per-step loop does, and on
    # a non-finite step raise as it does, with the tensors as the step found
    # them. The entries are quarter counts and the weights float32 numbers,
    # so every first-layer product is exact, and a sum of a few such
    # products of like size has room in float64's 53 bits: fit's product
    # over the packed columns adds the nonzero terms in another order than
    # the dense product of the per-step loop, and the two still agree bit
    # for bit
    rng = np.random.default_rng(seed)
    net = _fit_case_net(kind, rng)
    net.layers[0].w.values[..., ::2, 6:] = -0.0
    heads = net.stack_shape[0] if net.stack_shape else 0
    examples = []
    for cols, negative_zeros in bags:
        x = _bag(*cols)
        x[[c for c in negative_zeros if x[c] == 0.0]] = -0.0
        examples.append((x, _target(heads, rng)))
    n = len(examples)
    poisoned = data.draw(st.sampled_from([None, *range(n)]))
    if poisoned is not None:
        examples[poisoned][0][0] = np.nan
    subset = data.draw(st.none() | st.lists(st.integers(0, n - 1), unique=True))
    rows = n if subset is None else np.array(subset, dtype=np.intp)
    opt = SGD(learning_rate=0.3)

    ref, ref_rng = net.copy(), np.random.default_rng([seed, 1])
    order = [i for _ in range(epochs) for i in ref_rng.permutation(rows)]
    expected, fault = per_step_fit(ref, examples, order, opt)
    assert (fault is not None) == (poisoned in order)

    states, labels = zip(*examples)
    fit_rng = np.random.default_rng([seed, 1])
    with pytest.raises(TrainingFault, match=re.escape(fault)) if fault else contextlib.nullcontext():
        fit(net, PackedRows(states, labels, 11), rows, epochs, opt, fit_rng)
    assert values_bytes(net) == expected
    if not fault:
        assert fit_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "kind, fault, name",
    [
        ("linear", "nan", "L00.identity.W"),
        ("softmax", "nan", "L00.relu.W"),
        ("stack", "inf", "L00.relu.W"),
        ("softmax", "overflow", "L01.identity.W"),
        ("stack", "overflow", "L01.identity.W"),
    ],
)
def test_fit_names_the_first_tensor_a_fault_reaches(kind, fault, name):
    # row 1, which this generator's one-epoch order (2, 0, 1, 3) steps on
    # third, holds a NaN or an infinity, or column 10, on which a live
    # hidden unit's weights are near the float32 maximum: against the target
    # its logits get most wrong after the first two steps, the second
    # layer's weight step then overflows float32 while every earlier
    # tensor's step stays small. fit must name
    # the first tensor in params() order with a non-finite value, as
    # apply_update names it, and leave every tensor as the faulting step
    # found it
    rng = np.random.default_rng(5)
    net = _fit_case_net(kind, rng)
    heads = net.stack_shape[0] if net.stack_shape else 0
    states = [_bag(0), _bag(1, 10), _bag(2, 4), _bag(3, 6)]
    labels = [_target(heads, rng) for _ in range(4)]
    opt = SGD(learning_rate=10.0)
    if fault == "overflow":
        net.layers[0].w.values[..., 5, 10] = np.float32(3e38)
        ahead = net.copy()
        per_step_fit(ahead, list(zip(states, labels)), [2, 0], opt)
        probs = ahead.forward(states[1])
        labels[1] = int(np.argmin(probs)) if heads == 0 else (probs < 0.5).astype(int)
    else:
        states[1][10] = np.nan if fault == "nan" else np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        expected, message = per_step_fit(net.copy(), list(zip(states, labels)), [2, 0, 1], opt)
        assert message == f"non-finite values in tensor {name!r} after update"
        with pytest.raises(TrainingFault, match=re.escape(message)):
            fit(net, PackedRows(states, labels, 11), 4, 1, opt, np.random.default_rng(0))
    assert values_bytes(net) == expected


@pytest.mark.parametrize(
    "kind, bad",
    [("linear", 3), ("linear", -1), ("softmax", 7), ("stack", np.full((6, 2), 0.5)), ("stack", np.zeros(11))],
)
def test_fit_refuses_a_bad_label_before_the_first_step(kind, bad):
    # the bad label is on row 3, which this generator's one-epoch order
    # (2, 0, 1, 3) steps on last: a check made at the step would leave
    # three steps applied, and every tensor must be left unchanged
    rng = np.random.default_rng(3)
    net = _fit_case_net(kind, rng)
    heads = net.stack_shape[0] if net.stack_shape else 0
    states = [_bag(k, 2 * k) for k in range(4)]
    labels = [_target(heads, rng) for _ in range(3)] + [bad]
    before = values_bytes(net)
    with pytest.raises(ValueError):
        fit(net, PackedRows(states, labels, 11), 4, 1, SGD(learning_rate=0.3), np.random.default_rng(0))
    assert values_bytes(net) == before


@pytest.mark.parametrize(
    "kind, rows, bad",
    [("softmax", [0, 1, 2, 5], 5), ("stack", [0, 1, 2, -1], -1), ("linear", [0, 1, 2, -2], -2), ("linear", 5, 4)],
)
def test_fit_refuses_a_row_index_outside_the_rows_before_the_first_step(kind, rows, bad):
    # an index outside the 4 rows, which this generator's one-epoch order of
    # `rows` steps on last, or a count of 5, whose row 4 it steps on second:
    # a check made at the step would leave steps applied, and a negative
    # index would train on another row; every tensor must be left unchanged
    rng = np.random.default_rng(3)
    net = _fit_case_net(kind, rng)
    heads = net.stack_shape[0] if net.stack_shape else 0
    states = [_bag(k, 2 * k) for k in range(4)]
    labels = [_target(heads, rng) for _ in range(4)]
    before = values_bytes(net)
    with pytest.raises(ValueError, match=f"row index {bad} out of range for 4 rows"):
        fit(net, PackedRows(states, labels, 11), rows, 1, SGD(learning_rate=0.3), np.random.default_rng(0))
    assert values_bytes(net) == before


def test_fit_refuses_rows_of_another_width():
    net = _fit_case_net("linear", np.random.default_rng(3))
    with pytest.raises(ValueError, match="width 12"):
        fit(net, PackedRows([np.ones(12)], [0], 12), 1, 1, SGD(), np.random.default_rng(0))


def _packed_row(packed: PackedRows, i: int) -> np.ndarray:
    "Row i of a pack, rebuilt dense from its entries."
    a, b = packed.bounds[i : i + 2].tolist()
    x = np.zeros(packed.width)
    x[packed.cols[a:b]] = packed.vals[a:b]
    return x


@settings(max_examples=100, deadline=None, database=None)
@given(
    width=st.integers(1, 40),
    data=st.data(),
)
def test_packed_rows_rebuild_each_row_bit_for_bit(width, data):
    # entries drawn from zeros, -0.0, NaN, +-inf and any other float64, so
    # rows come out mostly zero, all zero, or dense; and the pack may be empty
    value = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]) | st.floats(allow_nan=True, width=64)
    sparse = st.sampled_from([0.0]) | value
    rows = data.draw(st.lists(st.lists(sparse, min_size=width, max_size=width).map(np.array), max_size=6))
    packed = PackedRows(iter(rows), list(range(len(rows))), width)
    assert len(packed.bounds) == len(rows) + 1
    assert [_packed_row(packed, i).tobytes() for i in range(len(rows))] == [r.tobytes() for r in rows]
    assert packed.cols.dtype == np.int16


@settings(max_examples=200, deadline=None, database=None)
@given(n=st.integers(1, 500), seed=st.integers(0, 2**32 - 1))
def test_holdout_split_holds_out_the_first_fifth_of_one_permutation(n, seed):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    held, trained = holdout_split(n, rng)
    order = reference.permutation(n)
    assert len(held) == round(0.2 * n) and len(trained) >= 1
    assert sorted([*held.tolist(), *trained.tolist()]) == list(range(n))
    assert [*held.tolist(), *trained.tolist()] == order.tolist()
    assert rng.bit_generator.state == reference.bit_generator.state


def test_optimizer_validation():
    with pytest.raises(ValueError):
        SGD(learning_rate=0.0)
    with pytest.raises(ValueError):
        SGD(learning_rate=-0.1)
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            SGD(learning_rate=lr)


# -- checkpoints --------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(19)
    net = Network.build([7, 5, 4], head="sigmoid", activations=["tanh", "identity"], rng=rng)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.head == net.head
    assert [l.activation for l in loaded.layers] == [l.activation for l in net.layers]
    for a, b in zip(net.params(), loaded.params()):
        assert a.values.tobytes() == b.values.tobytes()


def test_truncated_checkpoint_is_format_error(tmp_path):
    net = Network.build([4, 3], head="softmax", rng=np.random.default_rng(20))
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    raw = path.read_bytes()
    for cut in (2, 9, len(raw) // 2, len(raw) - 3):
        clipped = tmp_path / f"cut{cut}.ckpt"
        clipped.write_bytes(raw[:cut])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(clipped)


def test_bad_magic_and_version(tmp_path):
    net = Network.build([4, 3], head="softmax")
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(bad)
    raw2 = bytearray(path.read_bytes())
    raw2[4:8] = struct.pack("<I", 99)
    bad.write_bytes(bytes(raw2))
    with pytest.raises(CheckpointFormatError, match="version"):
        load_checkpoint(bad)


def _layer(idx: int, act: str, w_act: str | None = None) -> dict:
    "Layer idx's W (tagged w_act, else act) and b tensors, 2 x 3."
    return {f"L{idx:02d}.{w_act or act}.W": np.ones((2, 3)), f"L{idx:02d}.{act}.b": np.zeros(2)}


@pytest.mark.parametrize(
    ("tensors", "message"),
    [
        ({**_layer(0, "tanh", "relu"), **_layer(1, "identity"), "head": np.zeros(1)}, "layer 0 mixes activation tags"),
        ({**_layer(0, "identity"), "head": np.array([0.7])}, "head marker"),
        ({**_layer(0, "identity"), "head": np.array([1.0, 5.0])}, "head marker"),
        ({**_layer(0, "identity"), "head": np.array([2.0])}, "head marker"),
        ({**_layer(0, "identity"), "head": np.zeros((1, 1))}, "head marker"),
        (_layer(0, "identity"), "missing head"),
        ({**_layer(1, "identity"), "head": np.zeros(1)}, "contiguous"),
        ({"L00.identity.W": np.ones((2, 3)), "head": np.zeros(1)}, "exactly W and b"),
        # two names for one slot: index 0 written with and without its leading zero
        ({**_layer(0, "identity"), "L0.identity.W": np.full((2, 3), 5.0), "head": np.zeros(1)}, "layer 0 has two W"),
    ],
    ids=[
        "mixed_tags", "head_fraction", "head_two_values", "head_two", "head_matrix", "no_head", "no_layer_0", "no_b",
        "one_slot_two_names",
    ],
)
def test_malformed_network_checkpoint_is_format_error(tmp_path, tensors, message):
    path = tmp_path / "net.ckpt"
    write_tensors(path, tensors)
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(path)


def test_checkpoint_layout_is_little_endian(tmp_path):
    # parse the container byte by byte against the documented layout
    tensors = {"alpha": np.arange(6, dtype=np.float32).reshape(2, 3)}
    path = tmp_path / "t.ckpt"
    write_tensors(path, tensors)
    raw = path.read_bytes()
    assert raw[:4] == b"NARL"
    version, count = struct.unpack_from("<II", raw, 4)
    assert (version, count) == (1, 1)
    (name_len,) = struct.unpack_from("<I", raw, 12)
    assert raw[16 : 16 + name_len] == b"alpha"
    off = 16 + name_len
    (rank,) = struct.unpack_from("<I", raw, off)
    dims = struct.unpack_from("<2Q", raw, off + 4)
    assert rank == 2 and dims == (2, 3)
    payload = np.frombuffer(raw[off + 4 + 16 :], dtype="<f4")
    assert np.array_equal(payload.reshape(2, 3), tensors["alpha"])


def test_handcrafted_little_endian_file_loads(tmp_path):
    # a file built with struct alone must load on any platform
    name = b"L00.identity.W"
    w = np.array([[1.5, -2.0], [0.25, 4.0], [0.0, 1.0]], dtype="<f4")
    bname = b"L00.identity.b"
    b = np.array([0.5, -0.5, 1.0], dtype="<f4")
    head = np.array([0.0], dtype="<f4")
    blob = b"NARL" + struct.pack("<II", 1, 3)
    blob += struct.pack("<I", len(name)) + name + struct.pack("<I", 2) + struct.pack("<2Q", 3, 2) + w.tobytes()
    blob += struct.pack("<I", len(bname)) + bname + struct.pack("<I", 1) + struct.pack("<Q", 3) + b.tobytes()
    blob += struct.pack("<I", len(b"head")) + b"head" + struct.pack("<I", 1) + struct.pack("<Q", 1) + head.tobytes()
    path = tmp_path / "crafted.ckpt"
    path.write_bytes(blob)
    net = load_checkpoint(path)
    assert net.head == "softmax"
    assert np.array_equal(net.layers[0].w.values, w)
    p = net.forward(np.array([1.0, 1.0]))
    assert p.shape == (3,)


def test_read_tensors_rejects_a_repeated_tensor_name(tmp_path):
    # write_tensors takes a dict, so the container is built with struct
    blob = b"NARL" + struct.pack("<II", 1, 2)
    for value in (1.0, 5.0):
        blob += struct.pack("<I", 1) + b"a" + struct.pack("<IQ", 1, 1) + struct.pack("<f", value)
    path = tmp_path / "t.ckpt"
    path.write_bytes(blob)
    with pytest.raises(CheckpointFormatError, match="'a' appears twice"):
        read_tensors(path)


def test_read_tensors_rejects_non_finite_values(tmp_path):
    path = tmp_path / "t.ckpt"
    for bad in (np.nan, np.inf, -np.inf):
        write_tensors(path, {"a": np.array([1.0, bad], dtype=np.float32)})
        with pytest.raises(CheckpointFormatError, match="non-finite"):
            read_tensors(path)


def _corruptions(raw: bytes):
    "Every proper prefix of `raw`, and `raw` with any one bit flipped."
    def flip(bit: int) -> bytes:
        out = bytearray(raw)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)

    return st.one_of(st.integers(0, len(raw) - 1).map(lambda n: raw[:n]), st.integers(0, 8 * len(raw) - 1).map(flip))


@settings(max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_damaged_checkpoint_raises_format_error_or_loads_finite(tmp_path_factory, data):
    net = Network.build([4, 3, 2], head="sigmoid", activations=["tanh", "identity"], rng=np.random.default_rng(52))
    path = tmp_path_factory.mktemp("ckpt") / "net.ckpt"
    save_checkpoint(net, path)
    path.write_bytes(data.draw(_corruptions(path.read_bytes())))
    try:
        loaded = load_checkpoint(path)
    except CheckpointFormatError:
        return
    assert all(np.isfinite(p.values).all() for p in loaded.params())


@settings(max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_damaged_scope_checkpoint_raises_format_error_or_loads_finite(tmp_path_factory, data):
    vocab = build_vocab(["a b c"], 4)
    path = tmp_path_factory.mktemp("scope") / "scope.ckpt"
    ScopeModel(vocab, dim=3, window=1, seed=52).save(path)
    path.write_bytes(data.draw(_corruptions(path.read_bytes())))
    try:
        loaded = ScopeModel.load(path, vocab)
    except CheckpointFormatError:
        return
    assert all(np.isfinite(p.values).all() for p in loaded.params())


def test_read_tensors_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "t.ckpt"
    write_tensors(path, {"a": np.zeros(2, dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(CheckpointFormatError, match="trailing"):
        read_tensors(path)
