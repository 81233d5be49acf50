"""Deep Q-learning on the relative-Bellman loss with replay memory.

The function approximator is a small fully-connected rectifier network
written directly in numpy so that the analytic gradient can be checked
against finite differences parameter by parameter. Infeasible actions are
masked both at action selection and inside the target minima.

Training interacts with the environment through ``env.step`` on the
state tuple, so it needs no enumeration of the state space. The network
input is that tuple scaled into [0, 1] per variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import env
from .env import State, SystemConfig
from .errors import ContractError
from .mdp import StateIndexer, TransitionKernel


class QNetwork:
    """Fully-connected net: rectifier hidden layers, identity output."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.weights = weights  # each (fan_in, fan_out)
        self.biases = biases

    @classmethod
    def create(cls, layer_sizes: list[int], rng: np.random.Generator) -> "QNetwork":
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def num_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def copy(self) -> "QNetwork":
        return QNetwork([w.copy() for w in self.weights], [b.copy() for b in self.biases])

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
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w + b
            if k < last:
                a = np.maximum(a, 0.0)
        return a

    def _forward_cached(self, x: np.ndarray):
        acts = [x]
        a = x
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w + b
            if k < len(self.weights) - 1:
                a = np.maximum(a, 0.0)
            acts.append(a)
        return acts

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


def loss_and_grads(net: QNetwork, enc_batch, actions, targets):
    """Mean half-squared TD error over the batch and its exact gradient.

    Only the taken action's output unit contributes per experience.
    """
    enc_batch = np.atleast_2d(np.asarray(enc_batch, dtype=float))
    actions = np.asarray(actions, dtype=np.int64)
    targets = np.asarray(targets, dtype=float)
    B = enc_batch.shape[0]
    acts = net._forward_cached(enc_batch)
    q_taken = acts[-1][np.arange(B), actions]
    errors = q_taken - targets
    loss = 0.5 * float(np.mean(errors**2))

    delta = np.zeros_like(acts[-1])
    delta[np.arange(B), actions] = errors / B
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.weights)
    for k in range(len(net.weights) - 1, -1, -1):
        grads_w[k] = acts[k].T @ delta
        grads_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ net.weights[k].T) * (acts[k] > 0)
    return loss, grads_w, grads_b


def gradient_step(net: QNetwork, enc_batch, actions, targets, learning_rate: float) -> float:
    """In-place SGD step on the batch; returns the pre-update loss."""
    loss, grads_w, grads_b = loss_and_grads(net, enc_batch, actions, targets)
    if not np.isfinite(np.concatenate([*grads_w, *grads_b], axis=None)).all():
        raise FloatingPointError(f"non-finite gradient (loss={loss}); aborting training step")
    for k in range(len(net.weights)):
        net.weights[k] -= learning_rate * grads_w[k]
        net.biases[k] -= learning_rate * grads_b[k]
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
    """Map any state tuple to the feasible action with the lowest Q-value."""
    denoms = _encoding_denominators(config)
    if net.layer_sizes[0] != len(denoms):
        raise ContractError(
            f"network input {net.layer_sizes[0]} != state encoding width {len(denoms)}"
        )

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

    The loop computes what ``batch_targets`` and ``forward`` would, on the
    same batch shapes and in the same order, without their per-call
    checks. With a refresh period of one the snapshot is the live network
    itself, and the snapshot's reference value is the one the live
    network had when it was taken, so neither is recomputed.
    """
    rng = np.random.default_rng(hyper.seed)
    num_actions = config.num_sources + 1
    sizes = [4 * config.num_sources, *hyper.hidden_sizes, num_actions]
    net = QNetwork.create(sizes, rng)
    memory = ReplayMemory(hyper.replay_capacity, sizes[0], num_actions)
    denoms = _encoding_denominators(config)

    def observe(state: State) -> tuple[np.ndarray, np.ndarray]:
        """Encoding and feasible-action mask of a state."""
        mask = np.zeros(num_actions, dtype=bool)
        mask[env.feasible_actions(config, state)] = True
        return np.asarray(state, dtype=float) / denoms, mask

    # reference state: empty batteries, fresh information, lowest levels
    enc_ref, ref_mask = observe((0,) * sizes[0])

    gain_trace = np.empty(hyper.total_slots)
    eps_trace = np.empty(hyper.total_slots)
    loss_trace = np.full(hyper.total_slots, np.nan)

    enc_ref_row = enc_ref[None, :]
    ref_best = net._forward(enc_ref_row)[0][ref_mask].min()  # of the live network
    state = env.initial_state(config)
    enc_s, mask = observe(state)
    for k in range(hyper.total_slots):
        if k % hyper.target_refresh == 0:
            snapshot = net if hyper.target_refresh == 1 else net.copy()
            snapshot_ref_best = ref_best
        eps = hyper.epsilon(k)
        if rng.random() < eps:
            feas = np.flatnonzero(mask)
            action = int(feas[rng.integers(len(feas))])
        else:
            q = net._forward(enc_s[None, :])[0]
            action = int(np.argmin(np.where(mask, q, np.inf)))
        cost = env.stage_cost(config, state)
        state = env.step(config, state, action, env.draw_levels(config, rng))
        enc_next, mask_next = observe(state)
        memory.push(enc_s, action, cost, enc_next, mask_next)

        if memory.size >= hyper.batch_size:
            idx = memory.sample(hyper.batch_size, rng)
            targets = _relative_targets(
                memory.costs[idx],
                snapshot._forward(memory.enc_next[idx]),
                memory.mask_next[idx],
                snapshot_ref_best,
            )
            loss_trace[k] = gradient_step(
                net, memory.enc_s[idx], memory.actions[idx], targets, hyper.learning_rate
            )

        q_ref = net._forward(enc_ref_row)[0]
        ref_best = gain_trace[k] = q_ref[ref_mask].min()
        eps_trace[k] = eps
        if np.abs(q_ref).max() > hyper.divergence_limit:
            raise FloatingPointError(
                f"Q-values diverged beyond {hyper.divergence_limit} at slot {k}"
            )
        enc_s, mask = enc_next, mask_next

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
