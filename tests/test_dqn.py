"""Network, replay memory, gradients, and the deep training loop."""

import numpy as np
import pytest

from aoi_rl import dqn
from aoi_rl.dqn import (
    DqnHyperparams,
    QNetwork,
    ReplayMemory,
    batch_targets,
    encode_state,
    gradient_step,
    greedy_policy_fn,
    loss_and_grads,
    tabulate_policy,
    train_dqn,
)
from aoi_rl.env import (
    HARVEST,
    feasible_actions,
    harvested_quanta,
    initial_state,
    transmit_quanta,
)
from aoi_rl.errors import ContractError
from aoi_rl.mdp import build_kernel, enumerate_states, evaluate_policy, solve_rvia

from conftest import make_config


# --- encoding -------------------------------------------------------------


def test_encode_extremes(small_config):
    lo = (0, 0, 0, 0)  # empty battery, AoI 1, lowest levels
    hi = (3, 3, 3, 3)  # full battery, AoI 4, highest levels
    assert encode_state(small_config, lo) == pytest.approx(np.zeros(4))
    assert encode_state(small_config, hi) == pytest.approx(np.ones(4))


def test_encode_two_sources_length_eight():
    cfg = make_config(distances=(25.0, 40.0))
    enc = encode_state(cfg, initial_state(cfg))
    assert enc.shape == (8,)
    assert np.all((0.0 <= enc) & (enc <= 1.0))


def test_encode_degenerate_axes_stay_zero():
    cfg = make_config(aoi_cap=1, levels=1)
    enc = encode_state(cfg, initial_state(cfg))
    assert enc[1:] == pytest.approx([0.0, 0.0, 0.0])


# --- network --------------------------------------------------------------


def test_forward_shapes_and_batching():
    rng = np.random.default_rng(0)
    net = QNetwork.create([4, 8, 3], rng)
    single = net.forward(np.zeros(4))
    batch = net.forward(np.zeros((5, 4)))
    assert single.shape == (3,)
    assert batch.shape == (5, 3)
    assert batch[2] == pytest.approx(single)


def test_forward_rejects_wrong_width():
    net = QNetwork.create([4, 8, 3], np.random.default_rng(0))
    with pytest.raises(ContractError):
        net.forward(np.zeros(5))


def test_network_copy_is_independent():
    net = QNetwork.create([2, 4, 2], np.random.default_rng(1))
    clone = net.copy()
    net.weights[0][0, 0] += 1.0
    assert clone.weights[0][0, 0] != net.weights[0][0, 0]


def test_checkpoint_round_trip(tmp_path):
    net = QNetwork.create([4, 16, 16, 2], np.random.default_rng(2))
    path = tmp_path / "net.npz"
    net.save(path)
    loaded = QNetwork.load(path)
    x = np.random.default_rng(3).uniform(size=4)
    assert loaded.forward(x) == pytest.approx(net.forward(x))
    assert loaded.layer_sizes == [4, 16, 16, 2]


def test_checkpoint_version_guard(tmp_path):
    path = tmp_path / "net.npz"
    np.savez(path, format_version=np.array(2), layer_sizes=np.array([2, 2]))
    with pytest.raises(ContractError, match="version"):
        QNetwork.load(path)


# --- replay memory --------------------------------------------------------


def test_replay_ring_buffer_wraps():
    mem = ReplayMemory(capacity=4, state_width=2, num_actions=2)
    for k in range(6):
        mem.push(np.full(2, k), k % 2, float(k), np.full(2, k + 1), np.array([True, False]))
    assert mem.size == 4
    stored = sorted(mem.costs.tolist())
    assert stored == [2.0, 3.0, 4.0, 5.0]  # the two oldest were overwritten


def test_replay_sampling_is_uniform():
    mem = ReplayMemory(capacity=50, state_width=1, num_actions=2)
    for k in range(50):
        mem.push([0.0], 0, float(k), [0.0], np.array([True, True]))
    rng = np.random.default_rng(5)
    idx = mem.sample(1_000_000, rng)
    freq = np.bincount(idx, minlength=50) / 1_000_000
    assert np.all(np.abs(freq - 0.02) < 0.02 * 0.02 + 3e-4)
    assert np.abs(freq - 0.02).max() / 0.02 < 0.02  # within 2% of uniform


# --- targets and gradients ------------------------------------------------


def _finite_difference_grads(net, enc_batch, actions, targets, h=1e-6):
    grads_w = [np.zeros_like(w) for w in net.weights]
    grads_b = [np.zeros_like(b) for b in net.biases]

    def loss_only():
        return loss_and_grads(net, enc_batch, actions, targets)[0]

    for layer, grad in enumerate(grads_w):
        w = net.weights[layer]
        for pos in np.ndindex(w.shape):
            orig = w[pos]
            w[pos] = orig + h
            hi = loss_only()
            w[pos] = orig - h
            lo = loss_only()
            w[pos] = orig
            grad[pos] = (hi - lo) / (2 * h)
    for layer, grad in enumerate(grads_b):
        b = net.biases[layer]
        for pos in np.ndindex(b.shape):
            orig = b[pos]
            b[pos] = orig + h
            hi = loss_only()
            b[pos] = orig - h
            lo = loss_only()
            b[pos] = orig
            grad[pos] = (hi - lo) / (2 * h)
    return grads_w, grads_b


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    net = QNetwork.create([3, 6, 2], rng)
    enc = rng.uniform(size=(4, 3))
    actions = rng.integers(0, 2, size=4)
    targets = rng.normal(size=4)
    _, gw, gb = loss_and_grads(net, enc, actions, targets)
    fw, fb = _finite_difference_grads(net, enc, actions, targets)
    for a, b in zip(gw + gb, fw + fb):
        scale = max(np.abs(b).max(), 1e-8)
        assert np.abs(a - b).max() / scale < 1e-5


def target_value(prev_net, cost, enc_next, mask_next, enc_ref, mask_ref) -> float:
    """Relative-Bellman target of one experience using the snapshot weights."""
    q_next = prev_net.forward(enc_next)
    q_ref = prev_net.forward(enc_ref)
    return float(cost + q_next[mask_next].min() - q_ref[mask_ref].min())


def test_batch_targets_match_scalar_targets():
    rng = np.random.default_rng(8)
    net = QNetwork.create([4, 8, 3], rng)
    costs = rng.uniform(size=5)
    enc_next = rng.uniform(size=(5, 4))
    masks = rng.random((5, 3)) < 0.7
    masks[:, 0] = True
    enc_ref = np.zeros(4)
    mask_ref = np.array([True, False, False])
    batched = batch_targets(net, costs, enc_next, masks, enc_ref, mask_ref)
    for k in range(5):
        scalar = target_value(net, costs[k], enc_next[k], masks[k], enc_ref, mask_ref)
        assert batched[k] == pytest.approx(scalar)


def test_gradient_step_reduces_loss_on_fixed_batch():
    rng = np.random.default_rng(9)
    net = QNetwork.create([3, 8, 2], rng)
    enc = rng.uniform(size=(16, 3))
    actions = rng.integers(0, 2, size=16)
    targets = rng.normal(size=16)
    first = gradient_step(net, enc, actions, targets, learning_rate=0.05)
    for _ in range(200):
        last = gradient_step(net, enc, actions, targets, learning_rate=0.05)
    assert last < first


def test_gradient_step_guards_non_finite():
    net = QNetwork.create([2, 4, 2], np.random.default_rng(10))
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        gradient_step(net, np.zeros((1, 2)), [0], [np.inf], 0.01)


@pytest.mark.parametrize("planted", [np.nan, np.inf, -np.inf])
def test_gradient_step_raises_on_each_non_finite_gradient(monkeypatch, planted):
    """A single non-finite entry in any of the six gradient arrays raises,
    and the network is left untouched; finite gradients pass."""
    real = loss_and_grads
    rng = np.random.default_rng(12)
    enc = rng.uniform(size=(4, 2))
    actions, targets = rng.integers(0, 2, size=4), rng.normal(size=4)
    for which in range(7):  # six arrays, then none

        def plant(*args):
            loss, grads_w, grads_b = real(*args)
            grads = grads_w + grads_b
            if which < len(grads):
                grads[which].flat[rng.integers(grads[which].size)] = planted
            return loss, grads_w, grads_b

        monkeypatch.setattr(dqn, "loss_and_grads", plant)
        net = QNetwork.create([2, 5, 3, 2], np.random.default_rng(10))
        before = [p.copy() for p in net.weights + net.biases]
        if which < 6:
            with pytest.raises(FloatingPointError, match="non-finite gradient"):
                gradient_step(net, enc, actions, targets, 0.01)
            assert all(np.array_equal(p, q) for p, q in zip(before, net.weights + net.biases))
        else:
            gradient_step(net, enc, actions, targets, 0.01)
            assert not np.array_equal(before[0], net.weights[0])


# --- training loop --------------------------------------------------------


def test_training_deterministic_per_seed(small_config):
    hyper = DqnHyperparams(total_slots=1500, seed=21)
    a = train_dqn(small_config, hyper)
    b = train_dqn(small_config, DqnHyperparams(total_slots=1500, seed=21))
    c = train_dqn(small_config, DqnHyperparams(total_slots=1500, seed=22))
    assert np.array_equal(a.gain_trace, b.gain_trace)
    assert not np.array_equal(a.gain_trace, c.gain_trace)


class _ReferenceEnv:
    """The training environment on small integer arrays, with its energy
    tables taken straight from ``harvested_quanta``/``transmit_quanta``."""

    def __init__(self, config, rng):
        self.config = config
        self.rng = rng
        self.N = config.num_sources
        self.e_t = [
            [transmit_quanta(config, i, lv) for lv in range(1, s.link.levels_uplink + 1)]
            for i, s in enumerate(config.sources)
        ]
        self.e_h = [
            [harvested_quanta(config, i, lv) for lv in range(1, s.link.levels_downlink + 1)]
            for i, s in enumerate(config.sources)
        ]
        self.caps = np.array([s.battery_quanta for s in config.sources])
        self.aoi_caps = np.array([s.aoi_cap for s in config.sources])
        self.weights = np.array([s.weight for s in config.sources])
        self.G = np.array([s.link.levels_downlink for s in config.sources])
        self.H = np.array([s.link.levels_uplink for s in config.sources])
        self.b = self.caps.copy()
        self.A = np.zeros(self.N, dtype=np.int64)
        self.g = np.zeros(self.N, dtype=np.int64)
        self.h = np.zeros(self.N, dtype=np.int64)

    def encode(self):
        raw = np.empty(4 * self.N)
        raw[0::4] = self.b
        raw[1::4] = self.A
        raw[2::4] = self.g
        raw[3::4] = self.h
        denoms = []
        for s in self.config.sources:
            denoms += [
                s.battery_quanta,
                max(s.aoi_cap - 1, 1),
                max(s.link.levels_downlink - 1, 1),
                max(s.link.levels_uplink - 1, 1),
            ]
        return raw / np.array(denoms, dtype=float)

    def feasible_mask(self):
        mask = np.empty(self.N + 1, dtype=bool)
        mask[0] = True
        for i in range(self.N):
            mask[i + 1] = self.b[i] >= self.e_t[i][self.h[i]]
        return mask

    def cost(self):
        return float(self.weights @ (self.A + 1))

    def step(self, action):
        if action == HARVEST:
            for i in range(self.N):
                self.b[i] = min(self.caps[i], self.b[i] + self.e_h[i][self.g[i]])
            self.A = np.minimum(self.aoi_caps - 1, self.A + 1)
        else:
            j = action - 1
            self.b[j] -= self.e_t[j][self.h[j]]
            self.A = np.minimum(self.aoi_caps - 1, self.A + 1)
            self.A[j] = 0
        self.g = self.rng.integers(0, self.G)
        if self.config.correlated_links:
            self.h = self.g.copy()
        else:
            self.h = self.rng.integers(0, self.H)


def _reference_train_dqn(config, hyper):
    """The training loop as it reads on the public per-call functions: a
    snapshot copy at every refresh, ``batch_targets`` and ``forward`` with
    their checks, and fresh encodings of every state."""
    rng = np.random.default_rng(hyper.seed)
    env = _ReferenceEnv(config, rng)
    num_actions = config.num_sources + 1
    sizes = [4 * config.num_sources, *hyper.hidden_sizes, num_actions]
    net = QNetwork.create(sizes, rng)
    snapshot = net.copy()
    memory = ReplayMemory(hyper.replay_capacity, sizes[0], num_actions)
    enc_ref = np.zeros(sizes[0])
    ref_mask = np.zeros(num_actions, dtype=bool)
    ref_mask[0] = True
    for i in range(config.num_sources):
        ref_mask[i + 1] = env.e_t[i][0] <= 0
    gain_trace = np.empty(hyper.total_slots)
    eps_trace = np.empty(hyper.total_slots)
    loss_trace = np.full(hyper.total_slots, np.nan)
    for k in range(hyper.total_slots):
        if k % hyper.target_refresh == 0:
            snapshot = net.copy()
        eps = hyper.epsilon(k)
        enc_s = env.encode()
        mask = env.feasible_mask()
        if rng.random() < eps:
            feas = np.flatnonzero(mask)
            action = int(feas[rng.integers(len(feas))])
        else:
            q = net.forward(enc_s)
            action = int(np.argmin(np.where(mask, q, np.inf)))
        cost = env.cost()
        env.step(action)
        memory.push(enc_s, action, cost, env.encode(), env.feasible_mask())
        if memory.size >= hyper.batch_size:
            idx = memory.sample(hyper.batch_size, rng)
            targets = batch_targets(
                snapshot,
                memory.costs[idx],
                memory.enc_next[idx],
                memory.mask_next[idx],
                enc_ref,
                ref_mask,
            )
            loss_trace[k] = gradient_step(
                net, memory.enc_s[idx], memory.actions[idx], targets, hyper.learning_rate
            )
        q_ref = net.forward(enc_ref)
        gain_trace[k] = q_ref[ref_mask].min()
        eps_trace[k] = eps
    return net, gain_trace, eps_trace, loss_trace


@pytest.mark.parametrize(
    "config, hyper",
    [
        (make_config(), DqnHyperparams(total_slots=800, seed=0)),
        (make_config(), DqnHyperparams(total_slots=800, seed=13)),
        (
            make_config(distances=(25.0, 40.0), battery_quanta=2, aoi_cap=3, levels=2),
            DqnHyperparams(total_slots=800, seed=2),
        ),
        (
            # weights 1/3 and AoIs up to 10: a left-to-right sum of the weighted
            # AoIs differs from the reference's dot product in the last bit
            make_config(distances=(25.0, 40.0, 20.0), battery_quanta=2, aoi_cap=10, levels=3),
            DqnHyperparams(total_slots=800, seed=3),
        ),
        (make_config(correlated_links=True), DqnHyperparams(total_slots=800, seed=4)),
        (make_config(), DqnHyperparams(total_slots=600, seed=6, eps0=0.0, eps_min=0.0)),
        (make_config(), DqnHyperparams(total_slots=800, seed=8, target_refresh=3)),
        (
            make_config(levels=2),
            DqnHyperparams(
                total_slots=700, seed=10, target_refresh=50, replay_capacity=100, batch_size=8,
                hidden_sizes=(16,), eps_interval=200,
            ),
        ),
    ],
    ids=["small-0", "small-13", "two-source", "three-source", "correlated", "no-exploration",
         "refresh-3", "refresh-50-ring"],
)
def test_training_matches_per_call_reference(config, hyper):
    result = train_dqn(config, hyper)
    net, gain_trace, eps_trace, loss_trace = _reference_train_dqn(config, hyper)
    for ours, theirs in zip(result.network.weights + result.network.biases, net.weights + net.biases):
        assert np.array_equal(ours, theirs)
    assert np.array_equal(result.gain_trace, gain_trace)
    assert np.array_equal(result.epsilon_trace, eps_trace)
    assert np.array_equal(result.loss_trace, loss_trace, equal_nan=True)
    assert np.isfinite(loss_trace[hyper.batch_size - 1:]).all()


def test_epsilon_trace_follows_schedule(small_config):
    hyper = DqnHyperparams(total_slots=200, seed=0)
    result = train_dqn(small_config, hyper)
    assert result.epsilon_trace == pytest.approx(np.full(200, hyper.eps0))


def test_greedy_policy_only_feasible_actions(small_config):
    result = train_dqn(small_config, DqnHyperparams(total_slots=2000, seed=3))
    state = (0, 1, 0, 0)  # empty battery, AoI 2, lowest levels
    assert result.greedy_policy(state) in feasible_actions(small_config, state)


def test_tabulated_policy_matches_pointwise_greedy(small_config):
    result = train_dqn(small_config, DqnHyperparams(total_slots=2000, seed=4))
    kernel = build_kernel(small_config, enumerate_states(small_config))
    table = tabulate_policy(result.network, kernel)
    policy = greedy_policy_fn(result.network, small_config)
    idx = kernel.indexer
    for s in range(0, kernel.total_states, 13):
        assert table[s] == policy(idx.index_to_state(s))


def test_tabulate_policy_requires_age_space(small_config):
    result = train_dqn(small_config, DqnHyperparams(total_slots=600, seed=5))
    kernel = build_kernel(small_config, enumerate_states(small_config, "throughput"))
    with pytest.raises(ContractError):
        tabulate_policy(result.network, kernel)


def test_dqn_learns_small_instance():
    cfg = make_config(battery_quanta=2, aoi_cap=3, levels=2)
    kernel = build_kernel(cfg, enumerate_states(cfg))
    vt, _ = solve_rvia(kernel)
    result = train_dqn(cfg, DqnHyperparams(total_slots=30_000, seed=0))
    gain = evaluate_policy(kernel, tabulate_policy(result.network, kernel))
    assert gain == pytest.approx(vt.gain, rel=0.10)


def test_hyperparameter_validation():
    with pytest.raises(ValueError):
        DqnHyperparams(target_refresh=0)
    with pytest.raises(ValueError):
        DqnHyperparams(batch_size=0)
