"""Deep Q-learning on the relative-Bellman loss with replay memory.

The function approximator is a small fully-connected rectifier network
written directly in numpy so that the analytic gradient can be checked
against finite differences parameter by parameter. Infeasible actions are
masked both at action selection and inside the target minima.

Every weight and bias is a view into one contiguous float64 vector,
``QNetwork.params``. Backprop writes into a gradient vector of the same
layout, so the finiteness guard and the SGD update are one array
operation each.

Training interacts with the environment through ``env.step`` on the
state tuple, so it needs no enumeration of the state space. The network
input is that tuple scaled into [0, 1] per variable. Every matrix product
keeps the shape the per-call functions give it (a one-row forward stays
one row, the s' and s halves of a batch stay B rows each): BLAS may
round a product differently when its row count changes. Greedy policies
copy their network when they are built and memoise the action per state;
the training loop memoises each state's encoding, mask and stage cost.
Both memos are least-recently-used caches of ``_MEMO_SIZE`` states.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import env
from .env import State, SystemConfig
from .errors import ContractError
from .mdp import StateIndexer, TransitionKernel

# states per memo: all of a small chain, the hot states of a large one
_MEMO_SIZE = 1 << 12


class QNetwork:
    """Fully-connected net: rectifier hidden layers, identity output.

    ``weights[k]`` (fan_in, fan_out) and ``biases[k]`` are views into the
    flat vector ``params``, laid out layer by layer as w0, b0, w1, b1, ...
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        self._shapes = [np.shape(w) for w in weights]
        self.params = np.empty(sum(fan_in * fan_out + fan_out for fan_in, fan_out in self._shapes))
        self.weights, self.biases = self.layers(self.params)
        for view, value in zip(self.weights + self.biases, [*weights, *biases]):
            view[...] = value

    @classmethod
    def create(cls, layer_sizes: list[int], rng: np.random.Generator) -> "QNetwork":
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    def layers(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views into a vector laid out like ``params``."""
        weights, biases, start = [], [], 0
        for fan_in, fan_out in self._shapes:
            stop = start + fan_in * fan_out
            weights.append(flat[start:stop].reshape(fan_in, fan_out))
            biases.append(flat[stop : stop + fan_out])
            start = stop + fan_out
        return weights, biases

    @property
    def layer_sizes(self) -> list[int]:
        return [self._shapes[0][0]] + [fan_out for _, fan_out in self._shapes]

    @property
    def num_params(self) -> int:
        return self.params.size

    def copy(self) -> "QNetwork":
        return QNetwork(self.weights, self.biases)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Action values for a single encoded state or a batch of them."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        a = x[None, :] if single else x
        if a.shape[1] != self.weights[0].shape[0]:
            raise ContractError(
                f"input width {a.shape[1]} != network input {self.weights[0].shape[0]}"
            )
        a = self._forward(a)
        return a[0] if single else a

    def _forward(self, a: np.ndarray) -> np.ndarray:
        """``forward`` on a float batch of the right width, unchecked."""
        acts = [a, *_activations(self.layer_sizes[1:], len(a))]
        self._forward_into(acts)
        return acts[-1]

    def _forward_into(self, acts: list[np.ndarray]) -> None:
        """``_forward`` of the batch ``acts[0]``, writing layer k's output
        into the preallocated ``acts[k + 1]``."""
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            out = acts[k + 1]
            np.matmul(acts[k], w, out=out)
            out += b
            if k < last:
                np.maximum(out, 0.0, out=out)

    def save(self, path) -> None:
        arrays = {"format_version": np.array(1), "layer_sizes": np.array(self.layer_sizes)}
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            arrays[f"w{k}"] = w
            arrays[f"b{k}"] = b
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path) -> "QNetwork":
        data = np.load(path)
        if int(data["format_version"]) != 1:
            raise ContractError(f"unknown checkpoint version {int(data['format_version'])}")
        sizes = data["layer_sizes"]
        weights = [data[f"w{k}"] for k in range(len(sizes) - 1)]
        biases = [data[f"b{k}"] for k in range(len(sizes) - 1)]
        return cls(weights, biases)


class ReplayMemory:
    """Ring buffer of (encoded s, a, cost, encoded s', feasible mask of s')."""

    def __init__(self, capacity: int, state_width: int, num_actions: int):
        self.capacity = capacity
        self.size = 0
        self.cursor = 0
        self.enc_s = np.zeros((capacity, state_width))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.costs = np.zeros(capacity)
        self.enc_next = np.zeros((capacity, state_width))
        self.mask_next = np.zeros((capacity, num_actions), dtype=bool)

    def push(self, enc_s, action, cost, enc_next, mask_next) -> None:
        i = self.cursor
        self.enc_s[i] = enc_s
        self.actions[i] = action
        self.costs[i] = cost
        self.enc_next[i] = enc_next
        self.mask_next[i] = mask_next
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform-with-replacement indices over the stored experiences."""
        return rng.integers(self.size, size=batch_size)


@dataclass
class DqnHyperparams:
    hidden_sizes: tuple[int, ...] = (64, 64)
    learning_rate: float = 1e-3
    batch_size: int = 32
    replay_capacity: int = 100_000
    target_refresh: int = 1  # snapshot-weight refresh period
    eps0: float = 0.3
    eps_min: float = 0.01
    eps_decay: float = 0.9
    eps_interval: int = 10_000
    total_slots: int = 100_000
    seed: int = 0
    divergence_limit: float = 1e6

    def __post_init__(self):
        if self.target_refresh < 1:
            raise ValueError("target refresh period must be >= 1")
        if self.batch_size < 1 or self.replay_capacity < 1 or self.learning_rate < 0:
            raise ValueError("batch size, capacity and learning rate must be positive")

    def epsilon(self, k: int) -> float:
        return max(self.eps_min, self.eps0 * self.eps_decay ** (k // self.eps_interval))


# ---------------------------------------------------------------------------
# state encoding


def _encoding_denominators(config: SystemConfig) -> np.ndarray:
    denoms = []
    for s in config.sources:
        denoms += [
            s.battery_quanta,
            max(s.aoi_cap - 1, 1),
            max(s.link.levels_downlink - 1, 1),
            max(s.link.levels_uplink - 1, 1),
        ]
    return np.array(denoms, dtype=float)


def encode_state(config: SystemConfig, state: State) -> np.ndarray:
    """Per-source (battery, AoI, downlink, uplink) scaled into [0, 1]."""
    return np.asarray(state, dtype=float) / _encoding_denominators(config)


# ---------------------------------------------------------------------------
# loss, targets and the gradient step


def batch_targets(prev_net, costs, enc_next, masks_next, enc_ref, mask_ref) -> np.ndarray:
    q_next = prev_net.forward(enc_next)
    ref_best = prev_net.forward(enc_ref)[mask_ref].min()
    return _relative_targets(costs, q_next, masks_next, ref_best)


def _relative_targets(costs, q_next, masks_next, ref_best) -> np.ndarray:
    """Batch targets from the snapshot's next-state Q-values and its best
    feasible Q-value at the reference state."""
    return costs + np.where(masks_next, q_next, np.inf).min(axis=1) - ref_best


def _activations(layer_sizes: list[int], rows: int) -> list[np.ndarray]:
    return [np.empty((rows, width)) for width in layer_sizes]


def _backward(net: QNetwork, acts, deltas, actions, targets, grads_w, grads_b) -> float:
    """Mean half-squared TD error of a forwarded batch; its exact gradient
    goes into ``grads_w``/``grads_b``.

    ``acts`` holds the batch and every layer's output, and ``deltas[k]``
    is a work array shaped like ``acts[k + 1]``. Only the taken action's output
    unit contributes per experience.
    """
    B = len(targets)
    rows = np.arange(B)
    errors = acts[-1][rows, actions] - targets
    # np.mean(errors**2) without its wrappers: the same sum divided by B
    loss = 0.5 * (float(np.add.reduce(errors * errors)) / B)
    delta = deltas[-1]
    delta.fill(0.0)
    delta[rows, actions] = errors / B
    for k in range(len(grads_w) - 1, -1, -1):
        np.matmul(acts[k].T, delta, out=grads_w[k])
        np.add.reduce(delta, axis=0, out=grads_b[k])
        if k > 0:
            np.matmul(delta, net.weights[k].T, out=deltas[k - 1])
            delta = deltas[k - 1]
            delta *= acts[k] > 0
    return loss


def _update(net: QNetwork, grads: np.ndarray, learning_rate: float, loss: float) -> None:
    """Guarded in-place SGD step on the flat gradient (which it scales)."""
    if not np.isfinite(grads).all():
        raise FloatingPointError(f"non-finite gradient (loss={loss}); aborting training step")
    grads *= learning_rate
    net.params -= grads


def loss_and_grads(net: QNetwork, enc_batch, actions, targets):
    """Mean half-squared TD error over the batch and its exact gradient,
    as per-layer views of one vector laid out like ``net.params``."""
    enc_batch = np.atleast_2d(np.asarray(enc_batch, dtype=float))
    acts = [enc_batch, *_activations(net.layer_sizes[1:], len(enc_batch))]
    net._forward_into(acts)
    deltas = [np.empty_like(a) for a in acts[1:]]
    grads_w, grads_b = net.layers(np.empty_like(net.params))
    actions, targets = np.asarray(actions, dtype=np.int64), np.asarray(targets, dtype=float)
    loss = _backward(net, acts, deltas, actions, targets, grads_w, grads_b)
    return loss, grads_w, grads_b


def gradient_step(net: QNetwork, enc_batch, actions, targets, learning_rate: float) -> float:
    """In-place SGD step on the batch; returns the pre-update loss."""
    loss, grads_w, grads_b = loss_and_grads(net, enc_batch, actions, targets)
    grads = np.concatenate([g.ravel() for pair in zip(grads_w, grads_b) for g in pair])
    _update(net, grads, learning_rate, loss)
    return loss


# ---------------------------------------------------------------------------
# training loop (sequential environment interaction)


@dataclass
class DqnResult:
    network: QNetwork
    gain_trace: np.ndarray
    epsilon_trace: np.ndarray
    loss_trace: np.ndarray
    greedy_policy: Callable[[State], int]
    config: SystemConfig = field(repr=False, default=None)


def greedy_policy_fn(net: QNetwork, config: SystemConfig) -> Callable[[State], int]:
    """Map any state tuple to the feasible action with the lowest Q-value,
    ties to the lowest action.

    The policy keeps the copy of ``net`` made here, so training ``net``
    further does not change it, and memoises the action per state.
    """
    denoms = _encoding_denominators(config)
    if net.layer_sizes[0] != len(denoms):
        raise ContractError(
            f"network input {net.layer_sizes[0]} != state encoding width {len(denoms)}"
        )
    net = net.copy()

    @functools.lru_cache(maxsize=_MEMO_SIZE)
    def policy(state: State) -> int:
        q = net._forward((np.asarray(state, dtype=float) / denoms)[None, :])[0]
        feas = env.feasible_actions(config, state)
        return min(feas, key=lambda a: (q[a], a))

    return policy


def train_dqn(config: SystemConfig, hyper: DqnHyperparams) -> DqnResult:
    """Sequential loop: mask-aware epsilon-greedy action, environment step,
    replay insertion, batched target computation against the snapshot
    weights, one SGD step; the snapshot refreshes every target_refresh
    slots.

    The loop computes what ``batch_targets`` and ``gradient_step`` would,
    on the same batch shapes and in the same order, in reused arrays and
    without their per-call checks. With a refresh period of one the
    snapshot is the live network itself (no copy): its s' forward runs
    before the update. The snapshot's reference value is the one the live
    network had when the snapshot was taken, so it is not recomputed.
    """
    rng = np.random.default_rng(hyper.seed)
    num_actions = config.num_sources + 1
    sizes = [4 * config.num_sources, *hyper.hidden_sizes, num_actions]
    net = QNetwork.create(sizes, rng)
    memory = ReplayMemory(hyper.replay_capacity, sizes[0], num_actions)
    denoms = _encoding_denominators(config)

    @functools.lru_cache(maxsize=_MEMO_SIZE)
    def observe(state: State) -> tuple:
        """Encoding, feasible-action mask and indices, and stage cost of a state."""
        mask = np.zeros(num_actions, dtype=bool)
        mask[env.feasible_actions(config, state)] = True
        enc = np.asarray(state, dtype=float) / denoms
        return enc, mask, np.flatnonzero(mask), env.stage_cost(config, state)

    # reference state: empty batteries, fresh information, lowest levels
    enc_ref, ref_mask, _, _ = observe((0,) * sizes[0])

    gain_trace = np.empty(hyper.total_slots)
    eps_trace = np.empty(hyper.total_slots)
    loss_trace = np.full(hyper.total_slots, np.nan)

    # batch workspace: the sampled s rows and, apart, their s' rows
    B = hyper.batch_size
    acts_s = _activations(sizes, B)
    acts_next = _activations(sizes, B)
    deltas = _activations(sizes[1:], B)
    grads = np.empty_like(net.params)
    grads_w, grads_b = net.layers(grads)
    row_acts = [None, *_activations(sizes[1:], 1)]
    ref_acts = [enc_ref[None, :], *_activations(sizes[1:], 1)]

    net._forward_into(ref_acts)
    ref_best = ref_acts[-1][0][ref_mask].min()  # of the live network
    state = env.initial_state(config)
    enc_s, mask, feas, cost = observe(state)
    for k in range(hyper.total_slots):
        if k % hyper.target_refresh == 0:
            snapshot = net if hyper.target_refresh == 1 else net.copy()
            snapshot_ref_best = ref_best
        eps = hyper.epsilon(k)
        if rng.random() < eps:
            action = int(feas[rng.integers(len(feas))])
        else:
            row_acts[0] = enc_s[None, :]
            net._forward_into(row_acts)
            action = int(np.argmin(np.where(mask, row_acts[-1][0], np.inf)))
        state = env.step(config, state, action, env.draw_levels(config, rng))
        enc_next, mask_next, feas_next, cost_next = observe(state)
        memory.push(enc_s, action, cost, enc_next, mask_next)

        if memory.size >= B:
            idx = memory.sample(B, rng)
            np.take(memory.enc_next, idx, axis=0, out=acts_next[0])
            snapshot._forward_into(acts_next)
            targets = _relative_targets(
                memory.costs[idx], acts_next[-1], memory.mask_next[idx], snapshot_ref_best
            )
            np.take(memory.enc_s, idx, axis=0, out=acts_s[0])
            net._forward_into(acts_s)
            loss = _backward(net, acts_s, deltas, memory.actions[idx], targets, grads_w, grads_b)
            _update(net, grads, hyper.learning_rate, loss)
            loss_trace[k] = loss

        net._forward_into(ref_acts)
        q_ref = ref_acts[-1][0]
        ref_best = gain_trace[k] = q_ref[ref_mask].min()
        eps_trace[k] = eps
        if np.abs(q_ref).max() > hyper.divergence_limit:
            raise FloatingPointError(
                f"Q-values diverged beyond {hyper.divergence_limit} at slot {k}"
            )
        enc_s, mask, feas, cost = enc_next, mask_next, feas_next, cost_next

    return DqnResult(
        network=net,
        gain_trace=gain_trace,
        epsilon_trace=eps_trace,
        loss_trace=loss_trace,
        greedy_policy=greedy_policy_fn(net, config),
        config=config,
    )


def tabulate_policy(net: QNetwork, kernel: TransitionKernel) -> np.ndarray:
    """Greedy policy of the network over a fully enumerated state space."""
    indexer: StateIndexer = kernel.indexer
    if indexer.objective != "age":
        raise ContractError("network policies are defined on the age state space")
    grids = np.stack(indexer.grids(), axis=1).astype(float)
    enc = grids / _encoding_denominators(kernel.config)
    q = net.forward(enc)
    q = np.where(kernel.feasible, q, np.inf)
    return q.argmin(axis=1).astype(np.int64)
