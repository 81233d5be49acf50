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
from aoi_rl.presets import learning_benchmark

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


def _per_layer_create(layer_sizes, rng):
    """``QNetwork.create``'s draws as separate per-layer arrays."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _per_layer_save(path, weights, biases):
    """The checkpoint writer on separate per-layer arrays."""
    sizes = [weights[0].shape[0]] + [w.shape[1] for w in weights]
    arrays = {"format_version": np.array(1), "layer_sizes": np.array(sizes)}
    for k, (w, b) in enumerate(zip(weights, biases)):
        arrays[f"w{k}"] = w
        arrays[f"b{k}"] = b
    np.savez(path, **arrays)


def _assert_flat_backed(net):
    """Every weight and bias is a view into ``params``, and together they tile it."""
    layers = net.weights + net.biases
    assert net.params.dtype == np.float64 and net.params.flags.c_contiguous
    assert all(np.shares_memory(p, net.params) for p in layers)
    assert sum(p.size for p in layers) == net.params.size == net.num_params
    marked = np.zeros(net.params.size, dtype=bool)
    for p in layers:
        offset = (p.__array_interface__["data"][0] - net.params.__array_interface__["data"][0]) // 8
        assert not marked[offset : offset + p.size].any()
        marked[offset : offset + p.size] = True
    assert marked.all()


@pytest.mark.parametrize("sizes", [[4, 64, 64, 2], [8, 16, 3], [12, 5, 7, 6, 4]])
def test_create_draws_the_per_layer_arrays(sizes):
    net = QNetwork.create(sizes, np.random.default_rng(31))
    rng = np.random.default_rng(31)
    weights, biases = _per_layer_create(sizes, rng)
    _assert_flat_backed(net)
    assert net.layer_sizes == sizes
    for ours, theirs in zip(net.weights + net.biases, weights + biases):
        assert ours.shape == theirs.shape and np.array_equal(ours, theirs)
    # the same draws, so the generator ends in the same state
    probe = np.random.default_rng(31)
    QNetwork.create(sizes, probe)
    assert probe.bit_generator.state == rng.bit_generator.state


def test_flat_parameters_move_with_their_views():
    net = QNetwork.create([3, 4, 2], np.random.default_rng(32))
    net.params[:] = np.arange(net.params.size)
    assert np.array_equal(net.weights[0].ravel(), np.arange(12))
    assert np.array_equal(net.biases[0], np.arange(12, 16))
    net.biases[1][1] = -1.0
    assert net.params[-1] == -1.0


def test_flat_network_copy_is_independent():
    net = QNetwork.create([4, 8, 3], np.random.default_rng(33))
    clone = net.copy()
    _assert_flat_backed(clone)
    assert not np.shares_memory(clone.params, net.params)
    assert np.array_equal(clone.params, net.params)
    net.params += 1.0
    clone.biases[0][0] = 5.0
    assert not np.array_equal(clone.params, net.params)
    assert net.biases[0][0] != 5.0


def test_checkpoint_bytes_match_per_layer_writer(tmp_path):
    net = train_dqn(make_config(), DqnHyperparams(total_slots=300, seed=34)).network
    net.save(tmp_path / "flat.npz")
    _per_layer_save(
        tmp_path / "layers.npz", [w.copy() for w in net.weights], [b.copy() for b in net.biases]
    )
    assert (tmp_path / "flat.npz").read_bytes() == (tmp_path / "layers.npz").read_bytes()
    loaded = QNetwork.load(tmp_path / "flat.npz")
    _assert_flat_backed(loaded)
    assert np.array_equal(loaded.params, net.params)
    assert loaded.layer_sizes == net.layer_sizes


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


def test_gradient_step_subtracts_each_layer_gradient():
    """The step moves every weight and bias by exactly learning_rate times
    its own gradient from ``loss_and_grads``."""
    rng = np.random.default_rng(14)
    net = QNetwork.create([3, 5, 4, 2], rng)
    enc = rng.uniform(size=(6, 3))
    actions, targets = rng.integers(0, 2, size=6), rng.normal(size=6)
    _, grads_w, grads_b = loss_and_grads(net, enc, actions, targets)
    expected = [p - 0.05 * g for p, g in zip(net.weights + net.biases, grads_w + grads_b)]
    gradient_step(net, enc, actions, targets, learning_rate=0.05)
    assert all(np.array_equal(p, e) for p, e in zip(net.weights + net.biases, expected))


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


@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)
def test_training_loop_runs_the_gradient_guard():
    """A step size that blows the weights up stops training at the
    gradient guard (the divergence check is switched off)."""
    hyper = DqnHyperparams(total_slots=200, seed=0, learning_rate=1e200, divergence_limit=np.inf)
    with pytest.raises(FloatingPointError, match="non-finite gradient"):
        train_dqn(learning_benchmark(), hyper)


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
        # batch sizes where one stacked product of the s and s' rows would
        # round some outputs differently from two B-row products
        (make_config(), DqnHyperparams(total_slots=400, seed=20, batch_size=1)),
        (make_config(), DqnHyperparams(total_slots=400, seed=21, batch_size=7)),
        (
            make_config(distances=(25.0, 40.0), battery_quanta=2, aoi_cap=3, levels=2),
            DqnHyperparams(total_slots=400, seed=22, batch_size=7),
        ),
        (make_config(), DqnHyperparams(total_slots=400, seed=24, batch_size=5, hidden_sizes=(100,))),
    ],
    ids=["small-0", "small-13", "two-source", "three-source", "correlated", "no-exploration",
         "refresh-3", "refresh-50-ring", "batch-1", "batch-7", "two-source-batch-7",
         "batch-5-hidden-100"],
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


def test_evicting_memos_change_nothing(monkeypatch, small_config):
    """Memos far smaller than the visited states evict and refill without
    changing a bit of training or of the greedy actions."""
    monkeypatch.setattr(dqn, "_MEMO_SIZE", 4)
    test_training_matches_per_call_reference(make_config(), DqnHyperparams(total_slots=400, seed=25))
    net = train_dqn(small_config, DqnHyperparams(total_slots=500, seed=26)).network
    policy = greedy_policy_fn(net, small_config)
    states = _all_states(small_config)
    for _ in range(2):
        assert [policy(s) for s in states] == [_unmemoised_greedy(net, small_config, s) for s in states]
    assert policy.cache_info().currsize == 4


def test_epsilon_trace_follows_schedule(small_config):
    hyper = DqnHyperparams(total_slots=200, seed=0)
    result = train_dqn(small_config, hyper)
    assert result.epsilon_trace == pytest.approx(np.full(200, hyper.eps0))


def test_greedy_policy_only_feasible_actions(small_config):
    result = train_dqn(small_config, DqnHyperparams(total_slots=2000, seed=3))
    state = (0, 1, 0, 0)  # empty battery, AoI 2, lowest levels
    assert result.greedy_policy(state) in feasible_actions(small_config, state)


def _unmemoised_greedy(net, config, state):
    """One (1, n) forward, then the feasible action with the lowest
    Q-value, the lowest index on ties."""
    q = net.forward(encode_state(config, state)[None, :])[0]
    return min(feasible_actions(config, state), key=lambda a: (q[a], a))


def _all_states(config):
    indexer = enumerate_states(config)
    return [indexer.index_to_state(s) for s in range(indexer.total_states)]


def _tied_network(num_sources):
    """Zero output weights and biases that make harvest the worst action
    and every transmission tie with every other."""
    net = QNetwork.create([4 * num_sources, 8, num_sources + 1], np.random.default_rng(40))
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = 0.0
    net.biases[-1][0] = 1.0
    return net


@pytest.mark.parametrize(
    "config",
    [make_config(), make_config(distances=(25.0, 40.0), battery_quanta=2, aoi_cap=3, levels=2)],
    ids=["small", "two-source"],
)
def test_memoised_greedy_policy_matches_unmemoised(config):
    trained = train_dqn(config, DqnHyperparams(total_slots=500, seed=41)).network
    states = _all_states(config)
    rng = np.random.default_rng(42)
    for net in (trained, _tied_network(config.num_sources)):
        policy = greedy_policy_fn(net, config)
        for _ in range(2):  # the second pass answers from the memo
            for i in rng.permutation(len(states)):
                assert policy(states[i]) == _unmemoised_greedy(net, config, states[i])
    if config.num_sources == 2:  # the tie-break was exercised
        tied = greedy_policy_fn(_tied_network(2), config)
        assert any(tied(s) == 1 and 2 in feasible_actions(config, s) for s in states)


def test_greedy_policy_keeps_its_network_snapshot(small_config):
    net = train_dqn(small_config, DqnHyperparams(total_slots=500, seed=43)).network
    states = _all_states(small_config)
    before = [_unmemoised_greedy(net, small_config, s) for s in states]
    policy = greedy_policy_fn(net, small_config)
    net.params[:] = np.random.default_rng(44).normal(size=net.params.size)
    assert [_unmemoised_greedy(net, small_config, s) for s in states] != before
    assert [policy(s) for s in states] == before


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
