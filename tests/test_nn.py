"""Network forward/backward against an independent scalar-loop oracle.

The oracle re-implements the forward arithmetic with plain Python floats
(double precision) and knows nothing about the package internals; finite
differences of the oracle's loss provide the gradient reference.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorl.nn import (
    SGD,
    CheckpointFormatError,
    Network,
    ParamTensor,
    TrainingFault,
    apply_update,
    gradient_check,
    load_checkpoint,
    log_prob,
    read_tensors,
    save_checkpoint,
    sigmoid,
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


def max_rel_error(net, oracle_grads):
    worst = 0.0
    for layer, (gw, gb) in zip(net.layers, oracle_grads):
        for analytic, ref in ((layer.w.grad, gw), (layer.b.grad, gb)):
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


def test_forward_dimension_mismatch_raises():
    net = Network.build([5, 3], head="softmax")
    with pytest.raises(ValueError, match="input dim"):
        net.forward(np.zeros(4))


# -- backward -----------------------------------------------------------------


def test_zero_reward_leaves_gradients_untouched():
    rng = np.random.default_rng(5)
    net = Network.build([6, 4, 3], head="softmax", rng=rng)
    before = [p.grad.copy() for p in net.params()]
    net.reinforce_backward(rng.normal(0, 1, 6), 1, 0.0)
    for prev, p in zip(before, net.params()):
        assert np.array_equal(prev, p.grad)


def test_softmax_reinforce_gradient_identity():
    # closed form: d(-ln pi_a)/d logit_j = pi_j - 1[j == a]
    rng = np.random.default_rng(6)
    net = Network.build([5, 3], head="softmax", rng=rng)
    x = rng.normal(0, 1, 5)
    probs = net.forward(x)
    action = 2
    net.reinforce_backward(x, action, 1.0)
    expected_logit_grad = probs.copy()
    expected_logit_grad[action] -= 1.0
    assert np.allclose(net.layers[0].b.grad, expected_logit_grad, atol=1e-6)
    assert np.allclose(net.layers[0].w.grad, np.outer(expected_logit_grad, x), atol=1e-6)


def test_reinforce_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(8):
        net, x, _, target, reward = random_case(rng, mode="reinforce")
        net.zero_grads()
        net.reinforce_backward(x, target, reward)
        ref = fd_oracle_grads(net, x, "reinforce", target, reward)
        assert max_rel_error(net, ref) < 1e-4


def test_supervised_matches_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(8):
        net, x, _, target, _ = random_case(rng, mode="supervised")
        net.zero_grads()
        net.supervised_backward(x, target)
        ref = fd_oracle_grads(net, x, "supervised", target, 1.0)
        assert max_rel_error(net, ref) < 1e-4


def test_perfect_prediction_has_vanishing_gradient():
    net = Network.build([3, 3], head="softmax")
    net.layers[0].b.values[:] = np.array([40.0, 0.0, 0.0], dtype=np.float32)
    net.supervised_backward(np.zeros(3), 0)
    norm = sum(float(np.abs(p.grad).sum()) for p in net.params())
    assert norm < 1e-6


def test_negated_reward_negates_gradients_exactly():
    rng = np.random.default_rng(9)
    net, x, _, target, _ = random_case(rng, mode="reinforce")
    net.zero_grads()
    net.reinforce_backward(x, target, 1.0)
    plus = [p.grad.copy() for p in net.params()]
    net.zero_grads()
    net.reinforce_backward(x, target, -1.0)
    for g_plus, p in zip(plus, net.params()):
        assert np.array_equal(g_plus, -p.grad)


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


def test_log_prob_multilabel_is_sum_of_bit_logs():
    probs = np.array([0.9, 0.2, 0.5])
    bits = (1, 0, 1)
    expected = math.log(0.9) + math.log(0.8) + math.log(0.5)
    assert abs(log_prob(probs, bits, "sigmoid") - expected) < 1e-12


def test_package_gradient_check_utility():
    rng = np.random.default_rng(12)
    net = Network.build([5, 4, 3], head="softmax", rng=rng)
    assert gradient_check(net, rng.normal(0, 1, 5), 1, mode="reinforce", reward=1.0) < 1e-4


def test_gradient_check_on_stacked_heads():
    # two sigmoid heads in one stacked network; zero input entries exercise
    # the first layer's gradient on nonzero columns only
    rng = np.random.default_rng(21)
    nets = [Network.build([6, 4, 2], head="sigmoid", activations=["tanh", "identity"], rng=rng) for _ in range(2)]
    stacked = Network.stack(nets)
    assert stacked.stack_shape == (2,)
    x = rng.normal(0.0, 1.0, 6)
    x[[1, 4]] = 0.0
    assert gradient_check(stacked, x, (1, 0, 0, 1), mode="reinforce", reward=-1.0) < 1e-4
    assert gradient_check(stacked, x, (0, 1, 1, 1), mode="supervised") < 1e-4


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
    stacked.supervised_backward(x, target)
    for net, t in zip(nets, target):
        net.supervised_backward(x, t)
    for k, view in enumerate(stacked.unstack()):
        for a, b in zip(view.params(), nets[k].params()):
            assert a.grad.tobytes() == b.grad.tobytes()


def test_param_tensor_holds_float32_values_in_float64():
    raw = np.array([[0.1, 1.0 / 3.0], [2.0**-30, 1e30]])
    t = ParamTensor("t", raw)
    assert t.values.dtype == np.float64 and t.values.flags.c_contiguous
    assert t.values.tolist() == raw.astype(np.float32).astype(np.float64).tolist()
    assert t.grad.dtype == np.float32 and not t.grad.any()
    assert ParamTensor("f", raw.astype(np.float32)).values.tobytes() == t.values.tobytes()
    transposed = ParamTensor("T", t.values.T)
    assert transposed.values.flags.c_contiguous and np.array_equal(transposed.values, t.values.T)
    # an array that already holds float32 values is kept, not copied
    assert ParamTensor("k", t.values).values is t.values


def test_unstack_views_the_stacked_arrays():
    heads = [Network.build([5, 3, 2], head="sigmoid", rng=np.random.default_rng(s)) for s in (33, 34, 35)]
    stacked = Network.stack(heads)
    for k, head in enumerate(stacked.unstack()):
        for a, b in zip(head.params(), stacked.params()):
            assert np.shares_memory(a.values, b.values) and np.shares_memory(a.grad, b.grad)
            assert a.values.tobytes() == b.values[k].tobytes()
    stacked.unstack()[1].layers[0].w.values[0, 0] = 0.5
    assert stacked.layers[0].w.values[1, 0, 0] == 0.5


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


def test_apply_update_zero_grads_is_identity():
    rng = np.random.default_rng(13)
    net = Network.build([5, 3], head="softmax", rng=rng)
    before = [p.values.copy() for p in net.params()]
    apply_update(net.params(), SGD(learning_rate=0.5))
    for prev, p in zip(before, net.params()):
        assert np.array_equal(prev, p.values)


def test_apply_update_lr_one_grad_equals_values():
    net = Network.build([3, 2], head="softmax", rng=np.random.default_rng(14))
    for p in net.params():
        p.grad[...] = p.values
    apply_update(net.params(), SGD(learning_rate=1.0))
    for p in net.params():
        assert np.all(p.values == 0.0)


def test_update_resets_gradients():
    net = Network.build([3, 2], head="softmax", rng=np.random.default_rng(15))
    net.supervised_backward(np.ones(3), 0)
    apply_update(net.params(), SGD(learning_rate=0.1))
    for p in net.params():
        assert np.all(p.grad == 0.0)


def test_update_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(17)
        net = Network.build([6, 4, 3], head="softmax", rng=rng)
        opt = SGD(learning_rate=0.05)
        for _ in range(50):
            x = rng.normal(0, 1, 6)
            net.reinforce_backward(x, int(rng.integers(3)), float(rng.choice([-1.0, 1.0])))
            apply_update(net.params(), opt)
        return [p.values.tobytes() for p in net.params()]

    assert run() == run()


def test_non_finite_update_raises_training_fault():
    net = Network.build([3, 2], head="softmax", rng=np.random.default_rng(18))
    net.layers[0].w.grad[...] = np.inf
    with pytest.raises(TrainingFault):
        apply_update(net.params(), SGD(learning_rate=1.0))
    # one poisoned entry in one head of a stacked tensor names that tensor
    for bad in (np.nan, np.inf, -np.inf):
        heads = [Network.build([3, 4, 2], head="sigmoid", rng=np.random.default_rng(s)) for s in (18, 19)]
        stacked = Network.stack(heads)
        stacked.layers[1].w.grad[1, 0, 2] = bad
        with pytest.raises(TrainingFault, match=r"'L01\.identity\.W'"):
            apply_update(stacked.params(), SGD(learning_rate=1.0))


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


@pytest.mark.parametrize("heads", [0, 2, 6])
def test_update_on_touched_columns_equals_whole_tensor_update(heads):
    rng = np.random.default_rng(40 + heads)
    hinted = _sparse_case_net(heads, rng)
    dense = hinted.copy()
    opt = SGD(learning_rate=0.3)
    # one pass; two passes accumulated before one update, sharing column 4;
    # an all-zero input; then columns the earlier steps did not touch
    steps = [[_bag(1, 4, 4, 8)], [_bag(4, 6, 9, 9), _bag(0, 4)], [_bag()], [_bag(2, 10)]]
    for inputs in steps:
        for x in inputs:
            if hinted.head == "softmax":
                target = int(rng.integers(3))
            else:
                target = rng.integers(0, 2, (heads, 2))
            reward = float(rng.choice([-1.0, 1.0]))
            for net in (hinted, dense):
                net.reinforce_backward(x, target, reward)
                net.supervised_backward(x, target)
        assert hinted.layers[0].w.cols.tolist() == np.flatnonzero(sum(inputs)).tolist()
        for p in dense.params():
            p.cols = None
        apply_update(hinted.params(), opt)
        apply_update(dense.params(), opt)
        for a, b in zip(hinted.params(), dense.params()):
            assert a.values.tobytes() == b.values.tobytes()
            assert a.grad.tobytes() == b.grad.tobytes()
            assert a.cols is None


def test_copy_between_backward_passes_keeps_touched_columns():
    rng = np.random.default_rng(53)
    net = _sparse_case_net(2, rng)
    target = rng.integers(0, 2, (2, 2))
    net.supervised_backward(_bag(1, 2), target)
    twin = net.copy()
    twin.supervised_backward(_bag(7), target)
    assert twin.layers[0].w.cols.tolist() == [1, 2, 7]
    dense = twin.copy()
    for p in dense.params():
        p.cols = None
    apply_update(twin.params(), SGD(learning_rate=0.3))
    apply_update(dense.params(), SGD(learning_rate=0.3))
    for a, b in zip(twin.params(), dense.params()):
        assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("heads", [0, 2])
def test_non_finite_step_in_touched_column_raises_training_fault(heads):
    for bad in (np.nan, np.inf, -np.inf):
        net = _sparse_case_net(heads, np.random.default_rng(50))
        target = 1 if heads == 0 else np.ones((heads, 2))
        net.supervised_backward(_bag(3, 5), target)
        w = net.layers[0].w
        assert w.cols.tolist() == [3, 5]
        before = w.values.copy()
        w.grad[..., 4, 5] = bad
        with pytest.raises(TrainingFault, match=r"'L00\.relu\.W'"):
            apply_update(net.params(), SGD(learning_rate=1.0))
        assert w.values.tobytes() == before.tobytes()
    # entries outside the touched columns are not read
    net = _sparse_case_net(heads, np.random.default_rng(51))
    net.supervised_backward(_bag(3, 5), target)
    net.layers[0].w.grad[..., 0, 7] = np.inf
    apply_update(net.params(), SGD(learning_rate=1.0))


@settings(max_examples=60, deadline=None, database=None)
@given(
    heads=st.sampled_from([0, 2, 6]),
    seed=st.integers(0, 2**16),
    steps=st.lists(
        st.lists(st.tuples(st.lists(st.integers(0, 10), max_size=5), st.booleans()), min_size=1, max_size=3),
        min_size=1,
        max_size=5,
    ),
)
def test_pending_block_updates_equal_dense_gradient_updates(heads, seed, steps):
    # a backward pass onto a zero gradient keeps its float32 result as a
    # pending block, which the update consumes without touching `grad`;
    # reading `grad` writes the block in, and later passes add to it. A net
    # left alone and one whose gradients are read after some passes must
    # agree on every byte with one whose gradients are read before every
    # pass, so that each pass adds into `grad`, and that is updated whole;
    # -0.0 included: the dead units' gradients are +-0.0 and some of their
    # weights are -0.0
    rng = np.random.default_rng(seed)
    net = _sparse_case_net(heads, rng)
    net.layers[0].w.values[..., :3, ::2] = -0.0
    peeked, dense = net.copy(), net.copy()
    net.zero_grads()
    peeked.zero_grads()
    for inputs in steps:
        for cols, peek in inputs:
            x = _bag(*cols)
            target = int(rng.integers(3)) if heads == 0 else rng.integers(0, 2, (heads, 2))
            supervised, reward = bool(rng.integers(2)), float(rng.choice([-1.0, 0.5, 1.0]))
            [p.grad for p in dense.params()]
            for n in (net, peeked, dense):
                if supervised:
                    n.supervised_backward(x, target)
                else:
                    n.reinforce_backward(x, target, reward)
            if peek:
                [p.grad for p in peeked.params()]
        assert net.layers[0].w.cols.tolist() == peeked.layers[0].w.cols.tolist()
        for p in dense.params():
            p.cols = None
        for n in (net, peeked, dense):
            apply_update(n.params(), SGD(learning_rate=0.3))
        assert [p.values.tobytes() for p in net.params()] == [p.values.tobytes() for p in dense.params()]
        assert [p.values.tobytes() for p in peeked.params()] == [p.values.tobytes() for p in dense.params()]
    assert not any(p.grad.any() for n in (net, peeked, dense) for p in n.params())


def test_reading_grad_shows_a_pending_block():
    # `net` keeps its pass as a pending block; `twin`'s gradient was read
    # first, so its pass adds into `grad` directly: reading both must agree
    net = _sparse_case_net(2, np.random.default_rng(54))
    twin = net.copy()
    net.zero_grads()
    [p.grad for p in twin.params()]
    for n in (net, twin):
        n.reinforce_backward(_bag(3, 5, 5), np.ones((2, 2)), -1.0)
    for a, b in zip(net.params(), twin.params()):
        assert a.grad.tobytes() == b.grad.tobytes()
    assert net.layers[0].w.grad[..., [3, 5]].any() and not net.layers[0].w.grad[..., 4].any()


def test_optimizer_validation():
    with pytest.raises(ValueError):
        SGD(learning_rate=0.0)
    with pytest.raises(ValueError):
        SGD(learning_rate=-0.1)


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
