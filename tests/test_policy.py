import contextlib
import copy
import json
import pickle
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorl.nn import SGD, CheckpointFormatError, Network, apply_update, save_checkpoint
from emorl.policy import (
    DEFAULT_VALID_COMBOS,
    MulticlassPolicy,
    MultilabelPolicy,
    load_agent,
    save_agent,
)
from test_nn import dense_grads

DIM = 12


def record(state, action, reward, present=True):
    return SimpleNamespace(state=state, action=action, reward=reward, feedback_present=present)


def agent_bytes(agent):
    return [p.values.tobytes() for net in agent.networks() for p in net.params()]


def rand_state(rng):
    v = rng.random(DIM)
    return v / v.sum()


def sparse_state(rng, dim=DIM, nonzero=4):
    "A normalized bag-of-words-like state: a few nonzero entries, the rest zero."
    v = np.zeros(dim)
    np.add.at(v, rng.integers(0, dim, nonzero), rng.random(nonzero))
    return v / v.sum()


# -- acting -------------------------------------------------------------------


def test_zero_weight_multiclass_samples_uniformly():
    agent = MulticlassPolicy(DIM, seed=0)
    agent.net = Network.build([DIM, 64, 3], head="softmax", rng=None)
    rng = np.random.default_rng(42)
    state = rand_state(rng)
    counts = Counter(agent.act(state, rng) for _ in range(10000))
    for a in range(3):
        assert abs(counts[a] / 10000 - 1 / 3) < 0.02


def test_zero_weight_multilabel_hits_all_64_combos_uniformly():
    agent = MultilabelPolicy(DIM, seed=0)
    agent.net = Network.stack([Network.build([DIM, 32, 1], head="sigmoid", rng=None) for _ in range(6)])
    state = np.zeros(DIM)
    assert np.allclose(agent.bit_probs(state), 0.5)
    rng = np.random.default_rng(7)
    counts = Counter(agent.act(state, rng) for _ in range(64000))
    assert len(counts) == 64
    expected = 64000 / 64
    chi2 = sum((n - expected) ** 2 / expected for n in counts.values())
    assert chi2 < 100.0  # df=63; ~3 sigma above the mean


def test_sampling_converges_to_forward_probabilities():
    rng = np.random.default_rng(5)
    agent = MulticlassPolicy(DIM, seed=9)
    state = rand_state(rng)
    probs = agent.net.forward(state)
    n = 30000
    counts = Counter(agent.act(state, rng) for _ in range(n))
    chi2 = sum((counts[a] - n * probs[a]) ** 2 / (n * probs[a]) for a in range(3))
    assert chi2 < 15.0  # df=2


# -- learning -----------------------------------------------------------------


@pytest.mark.parametrize("cls,action", [(MulticlassPolicy, 1), (MultilabelPolicy, (1, 0, 0, 1, 0, 0))])
def test_zero_reward_is_bitwise_noop(cls, action):
    agent = cls(DIM, seed=2)
    state = rand_state(np.random.default_rng(0))
    before = agent_bytes(agent)
    agent.learn(record(state, action, 0.0))
    assert agent_bytes(agent) == before


@pytest.mark.parametrize("cls,action", [(MulticlassPolicy, 2), (MultilabelPolicy, (0, 1, 0, 0, 0, 0))])
def test_absent_feedback_is_bitwise_noop(cls, action):
    agent = cls(DIM, seed=2)
    state = rand_state(np.random.default_rng(0))
    before = agent_bytes(agent)
    agent.learn(record(state, action, -1.0, present=False))
    assert agent_bytes(agent) == before


def test_positive_reward_monotonically_raises_action_probability():
    agent = MulticlassPolicy(DIM, seed=4, lr=0.05)
    state = rand_state(np.random.default_rng(1))
    action = 0
    prev = agent.net.forward(state)[action]
    for _ in range(100):
        agent.learn(record(state, action, 1.0))
        cur = agent.net.forward(state)[action]
        if prev < 0.995:
            assert cur > prev
        else:
            assert cur >= prev
        prev = cur
    assert prev > 0.9


def test_negative_reward_monotonically_lowers_action_probability():
    agent = MulticlassPolicy(DIM, seed=4, lr=0.05)
    state = rand_state(np.random.default_rng(1))
    action = 0
    prev = agent.net.forward(state)[action]
    for _ in range(100):
        agent.learn(record(state, action, -1.0))
        cur = agent.net.forward(state)[action]
        if prev > 0.005:
            assert cur < prev
        else:
            assert cur <= prev
        prev = cur
    assert prev < 0.1


def test_multilabel_heads_have_no_shared_parameters():
    # the heads are slices of stacked tensors: writing one head's slice must
    # leave every other head's values and outputs bitwise unchanged
    state = sparse_state(np.random.default_rng(6))
    for k in range(6):
        agent = MultilabelPolicy(DIM, seed=6)
        before = [[p.values.tobytes() for p in net.params()] for net in agent.networks()]
        probs = agent.bit_probs(state)
        apply_update([(p, k, np.ones(p.shape[1:], dtype=np.float32)) for p in agent.net.params()], agent.opt)
        after = [[p.values.tobytes() for p in net.params()] for net in agent.networks()]
        for j in range(6):
            assert (after[j] == before[j]) == (j != k)
        changed = agent.bit_probs(state) != probs
        assert changed[k] and not np.delete(changed, k).any()


def reference_heads(seed):
    "Six plain networks, initialised as MultilabelPolicy initialises its heads."
    return [
        Network.build([DIM, 32, 1], head="sigmoid", rng=np.random.default_rng([seed, 10 + k]), init_scale=0.5)
        for k in range(6)
    ]


def test_multilabel_update_decomposes_per_head():
    # the stacked agent's pretraining and REINFORCE steps must equal driving
    # each head alone, one network per head, byte for byte
    rng = np.random.default_rng(2)
    examples = [(sparse_state(rng), DEFAULT_VALID_COMBOS[i % 6]) for i in range(12)]
    records = [
        record(sparse_state(rng), tuple(int(b) for b in rng.integers(0, 2, 6)), reward, present)
        for reward, present in [(1.0, True), (-1.0, True), (0.0, True), (1.0, False)] * 5
    ]
    agent = MultilabelPolicy(DIM, seed=8, lr=0.05)
    heads = reference_heads(8)
    opt = SGD(learning_rate=0.05)

    agent.pretrain(examples, 3, rng=np.random.default_rng(0))
    order = np.random.default_rng(0)
    for _ in range(3):
        for i in order.permutation(len(examples)):
            state, combo = examples[i]
            for k, head in enumerate(heads):
                grads = head.supervised_backward(state, (combo[k],))
                apply_update(grads, opt)
    assert agent_bytes(agent) == [p.values.tobytes() for head in heads for p in head.params()]

    for rec in records:
        agent.learn(rec)
        if rec.feedback_present and rec.reward != 0.0:
            for k, head in enumerate(heads):
                apply_update(head.reinforce_backward(rec.state, (rec.action[k],), rec.reward), opt)
    assert agent_bytes(agent) == [p.values.tobytes() for head in heads for p in head.params()]
    state = records[0].state
    assert agent.bit_probs(state).tobytes() == np.array([head.forward(state)[0] for head in heads]).tobytes()


# -- one forward pass per interaction ---------------------------------------------

AGENTS = {"multiclass": MulticlassPolicy, "multilabel": MultilabelPolicy}


def param_bytes(agent):
    "The parameter bytes of the agent's network."
    return [p.values.tobytes() for p in agent.net.params()]


@contextlib.contextmanager
def traces_handed():
    "Per `Network.reinforce_step` call, whether it was handed a trace; patched at the class."
    handed = []
    step = Network.reinforce_step

    def spy(self, x, action, reward, opt, trace=None):
        handed.append(trace is not None)
        return step(self, x, action, reward, opt, trace)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "reinforce_step", spy)
        yield handed


@settings(max_examples=40, deadline=None, database=None)
@given(
    task=st.sampled_from(sorted(AGENTS)),
    seed=st.integers(0, 2**16),
    steps=st.lists(st.tuples(st.integers(1, DIM), st.sampled_from([-1.0, 1.0])), min_size=1, max_size=8),
)
def test_learning_on_the_acted_trace_equals_a_fresh_forward_pass(task, seed, steps):
    # `learn` on a record of the very state `act` saw takes the gradient on
    # act's forward pass; the twin's records hold copies of the states, so it
    # runs the forward pass again, and every parameter byte must agree
    rng = np.random.default_rng(seed)
    reused, fresh = AGENTS[task](DIM, seed=seed), AGENTS[task](DIM, seed=seed)
    with traces_handed() as handed:
        for nonzero, reward in steps:
            state = sparse_state(rng, nonzero=nonzero)
            action = reused.act(state)
            assert fresh.act(state) == action
            reused.learn(record(state, action, reward))
            fresh.learn(record(state.copy(), action, reward))
            assert param_bytes(reused) == param_bytes(fresh)
    assert handed == [True, False] * len(steps)


def _drive(agent, scenario, a, b, examples, copies):
    """Act on `a`, do what `scenario` names, then learn from a's record; with
    `copies`, the records hold a copy of `a`, so no trace can be reused."""
    action = agent.act(a)
    rec = record(a.copy() if copies else a, action, 1.0)
    if scenario == "act on another state":
        agent.act(b)
    elif scenario == "pretrain":
        agent.pretrain(examples, 1, rng=np.random.default_rng(0))
    elif scenario == "no-op learn":
        agent.learn(record(rec.state, action, 0.0))
    elif scenario == "learn twice":
        agent.learn(rec)
    elif scenario == "replaced net":
        agent.net = agent.net.copy()
    agent.learn(rec)


@pytest.mark.parametrize("task", sorted(AGENTS))
@pytest.mark.parametrize("scenario", ["act on another state", "pretrain", "no-op learn", "learn twice", "replaced net"])
def test_a_stale_trace_never_reaches_an_update(task, scenario):
    rng = np.random.default_rng(31)
    a, b = sparse_state(rng), sparse_state(rng)
    labels = range(3) if task == "multiclass" else DEFAULT_VALID_COMBOS
    examples = [(sparse_state(rng), label) for label in labels]
    agent, twin = AGENTS[task](DIM, seed=5), AGENTS[task](DIM, seed=5)
    with traces_handed() as handed:
        _drive(agent, scenario, a, b, examples, copies=False)
    _drive(twin, scenario, a, b, examples, copies=True)
    # only the first learn of "learn twice" follows its act with no update between
    assert handed == ([True, False] if scenario == "learn twice" else [False])
    assert param_bytes(agent) == param_bytes(twin)


def test_expected_gradient_enumeration_matches_monte_carlo():
    # E_{a~pi}[grad(-R(a) ln pi(a|s))] against the exhaustive 3-action sum
    rng = np.random.default_rng(11)
    agent = MulticlassPolicy(6, hidden=(), seed=3)
    state = rng.random(6)
    gold = 1
    reward = lambda a: 1.0 if a == gold else -1.0
    probs = agent.net.forward(state)

    def grads_for(action):
        grads = agent.net.reinforce_backward(state, action, reward(action))
        return np.concatenate([g.ravel().astype(np.float64) for g in dense_grads(agent.net.params(), grads)])

    enumerated = sum(probs[a] * grads_for(a) for a in range(3))
    m = 30000
    total = np.zeros_like(enumerated)
    for _ in range(m):
        a = agent.act(state, rng)
        total += grads_for(a)
    assert np.allclose(total / m, enumerated, atol=0.01)


# -- pretraining and evaluation -------------------------------------------------


def test_pretrain_zero_epochs_is_identity():
    agent = MulticlassPolicy(DIM, seed=5)
    before = agent_bytes(agent)
    examples = [(rand_state(np.random.default_rng(0)), 0)]
    agent.pretrain(examples, 0, rng=np.random.default_rng(0))
    assert agent_bytes(agent) == before


def test_pretrain_requires_examples():
    with pytest.raises(ValueError):
        MulticlassPolicy(DIM, seed=5).pretrain([], 1, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        MulticlassPolicy(DIM, seed=5).evaluate([])


def test_pretrain_fits_separable_examples():
    rng = np.random.default_rng(9)
    examples = []
    for label in range(3):
        for _ in range(20):
            state = np.zeros(DIM)
            state[label] = 1.0
            state[3 + int(rng.integers(DIM - 3))] = 0.3
            examples.append((state / state.sum(), label))
    agent = MulticlassPolicy(DIM, seed=10, lr=0.05)
    agent.pretrain(examples, 60, rng=np.random.default_rng(0))
    assert agent.evaluate(examples) >= 0.95


def test_evaluate_perfect_agent_scores_one():
    rng = np.random.default_rng(12)
    agent = MulticlassPolicy(DIM, seed=13)
    examples = []
    for _ in range(50):
        s = rand_state(rng)
        examples.append((s, int(np.argmax(agent.net.forward(s)))))
    assert agent.evaluate(examples) == 1.0


def test_evaluate_multilabel_one_bit_wrong_is_zero():
    rng = np.random.default_rng(14)
    agent = MultilabelPolicy(DIM, seed=15)
    examples = []
    for _ in range(40):
        s = rand_state(rng)
        pred = (agent.bit_probs(s) >= 0.5).astype(int).tolist()
        pred[0] ^= 1  # gold differs from the thresholded prediction in bit 0
        examples.append((s, tuple(pred)))
    assert agent.evaluate(examples) == 0.0


@pytest.mark.parametrize("cls", [MulticlassPolicy, MultilabelPolicy])
def test_batched_evaluate_matches_per_state_loop(cls):
    # the eval set goes through one batched forward pass; its probabilities,
    # and so its accuracy, must equal one forward pass per state
    dim = 356
    rng = np.random.default_rng(21)
    agent = cls(dim, hidden=(64,), seed=22)
    states = [sparse_state(rng, dim, nonzero=9) for _ in range(300)]
    batched = agent.net.forward(np.stack(states))
    assert batched.tobytes() == np.stack([agent.net.forward(s) for s in states]).tobytes()
    if cls is MulticlassPolicy:
        examples = [(s, int(rng.integers(3))) for s in states]
        hits = sum(int(np.argmax(agent.net.forward(s)) == y) for s, y in examples)
    else:
        examples = [(s, DEFAULT_VALID_COMBOS[int(rng.integers(6))]) for s in states]
        examples[:100] = [(s, tuple((agent.bit_probs(s) >= 0.5).astype(int).tolist())) for s, _ in examples[:100]]
        hits = sum(int(np.array_equal(agent.bit_probs(s) >= 0.5, y)) for s, y in examples)
    assert 0 < hits < len(examples)
    assert agent.evaluate(examples) == hits / len(examples)


def test_random_agent_on_balanced_set_is_chance():
    rng = np.random.default_rng(16)
    agent = MulticlassPolicy(DIM, seed=17)
    examples = [(rand_state(rng), i % 3) for i in range(3000)]
    assert abs(agent.evaluate(examples) - 1 / 3) <= 0.03


# -- persistence --------------------------------------------------------------


@pytest.mark.parametrize("task", sorted(AGENTS))
def test_copies_of_a_pretrained_agent_learn_into_the_same_checkpoints(task, tmp_path):
    # the benchmark replays a deep copy of the agent's attributes, and a
    # process pool would pickle the agent: each copy must own a layout of
    # its own, so that its updates reach the tensors its checkpoints read
    rng = np.random.default_rng(41)
    labels = range(3) if task == "multiclass" else DEFAULT_VALID_COMBOS
    agent = AGENTS[task](DIM, seed=6)
    agent.pretrain([(sparse_state(rng), label) for label in labels for _ in range(4)], 3, rng=np.random.default_rng(1))
    replayed = AGENTS[task](DIM, seed=6)
    replayed.__dict__.update(copy.deepcopy(copy.deepcopy(agent.__dict__)))
    agents = [agent, replayed, copy.deepcopy(agent), pickle.loads(pickle.dumps(agent))]
    assert not any(np.shares_memory(each.net.params()[0].values, agent.net.params()[0].values) for each in agents[1:])
    states = [sparse_state(rng) for _ in range(200)]
    for k, each in enumerate(agents):
        for state in states:
            action = each.act(state)
            correct = action == (0 if task == "multiclass" else DEFAULT_VALID_COMBOS[0])
            each.learn(record(state, action, 1.0 if correct else -1.0))
        save_agent(each, tmp_path / str(k))
    assert agent_bytes(agent) != agent_bytes(AGENTS[task](DIM, seed=6))
    for k in range(1, len(agents)):
        for f in sorted((tmp_path / "0").iterdir()):
            assert (tmp_path / str(k) / f.name).read_bytes() == f.read_bytes()


def test_save_load_multiclass_round_trip(tmp_path):
    agent = MulticlassPolicy(DIM, seed=18)
    save_agent(agent, tmp_path / "agent")
    loaded = load_agent(tmp_path / "agent")
    assert isinstance(loaded, MulticlassPolicy)
    assert agent_bytes(loaded) == agent_bytes(agent)


def test_save_load_multilabel_round_trip(tmp_path):
    agent = MultilabelPolicy(DIM, seed=19)
    rng = np.random.default_rng(19)
    for _ in range(5):
        agent.learn(record(sparse_state(rng), (1, 0, 1, 1, 0, 0), 1.0))
    save_agent(agent, tmp_path / "agent")
    loaded = load_agent(tmp_path / "agent")
    assert isinstance(loaded, MultilabelPolicy)
    assert loaded.valid_combos == DEFAULT_VALID_COMBOS
    assert agent_bytes(loaded) == agent_bytes(agent)
    assert [p.values.tobytes() for p in loaded.net.params()] == [p.values.tobytes() for p in agent.net.params()]
    save_agent(loaded, tmp_path / "again")
    for name in ["agent.json"] + [f"head{k}.ckpt" for k in range(6)]:
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "agent" / name).read_bytes()
    manifest = (tmp_path / "agent" / "agent.json").read_text(encoding="utf-8")
    assert "head5.ckpt" in manifest and "valid_combos" in manifest


def _set(key, value):
    return lambda manifest: {**manifest, key: value}


@pytest.mark.parametrize(
    "task, edit",
    [
        ("multiclass", lambda manifest: manifest),
        ("multilabel", lambda manifest: manifest),
        ("multiclass", _set("task", "foo")),
        ("multilabel", _set("task", "multiclass")),
        ("multiclass", _set("heads", None)),
        ("multilabel", _set("heads", [])),
        ("multiclass", _set("heads", ["head0.ckpt", "head0.ckpt"])),
        ("multiclass", _set("input_dim", DIM + 1)),
        ("multilabel", _set("input_dim", DIM - 1)),
        ("multilabel", _set("input_dim", "12")),
        ("multiclass", lambda manifest: {k: v for k, v in manifest.items() if k != "valid_combos"}),
        ("multilabel", lambda manifest: {k: v for k, v in manifest.items() if k != "valid_combos"}),
        ("multiclass", _set("valid_combos", [[1]])),
        ("multilabel", _set("valid_combos", [[1, 0, 0, 0, 0]])),
        ("multilabel", _set("valid_combos", [[1, 0, 0, 0, 0, 2]])),
        ("multilabel", _set("valid_combos", [[True, False, False, False, False, False]])),
        ("multilabel", lambda manifest: {**manifest, "extra": 1}),
        ("multiclass", lambda manifest: [manifest]),
        ("multiclass", lambda manifest: "{"),
    ],
)
def test_load_agent_refuses_a_malformed_manifest_naming_it(tmp_path, task, edit):
    # save_agent's own manifest loads back; each edit of it is refused with
    # CheckpointFormatError, and nothing else, naming agent.json
    agent = AGENTS[task](DIM, seed=23)
    save_agent(agent, tmp_path / "agent")
    path = tmp_path / "agent" / "agent.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    edited = edit(manifest)
    path.write_text(edited if isinstance(edited, str) else json.dumps(edited), encoding="utf-8")
    if edited is manifest:
        assert agent_bytes(load_agent(tmp_path / "agent")) == agent_bytes(agent)
    else:
        with pytest.raises(CheckpointFormatError, match=re.escape(str(path))):
            load_agent(tmp_path / "agent")


def test_load_agent_refuses_a_head_of_the_wrong_kind(tmp_path):
    save_agent(MultilabelPolicy(DIM, seed=24), tmp_path / "agent")
    save_checkpoint(Network.build([DIM, 32, 2], head="sigmoid", rng=np.random.default_rng(0)), tmp_path / "agent" / "head2.ckpt")
    with pytest.raises(CheckpointFormatError, match="head2.ckpt"):
        load_agent(tmp_path / "agent")
    save_agent(MulticlassPolicy(DIM, seed=24), tmp_path / "agent")
    save_checkpoint(Network.build([DIM, 64, 3], head="sigmoid"), tmp_path / "agent" / "head0.ckpt")
    with pytest.raises(CheckpointFormatError, match="head0.ckpt"):
        load_agent(tmp_path / "agent")


@pytest.mark.parametrize("odd_head", [dict(dims=[DIM, 16, 1]), dict(dims=[DIM, 32, 1], activations=["tanh", "identity"])])
def test_load_agent_rejects_heads_that_cannot_stack(tmp_path, odd_head):
    save_agent(MultilabelPolicy(DIM, seed=20), tmp_path / "agent")
    save_checkpoint(Network.build(head="sigmoid", rng=np.random.default_rng(0), **odd_head), tmp_path / "agent" / "head3.ckpt")
    with pytest.raises(CheckpointFormatError):
        load_agent(tmp_path / "agent")
