"""Deep Q-learning on the relative-Bellman loss with replay memory.

The function approximator is a small fully-connected rectifier network
written directly in numpy so that the analytic gradient can be checked
against finite differences parameter by parameter. Infeasible actions are
masked both at action selection and inside the target minima.

Every weight and bias is a view into one contiguous float64 vector,
``QNetwork.params``, and each layer's weights and bias together are one
block of it. Each layer's input carries a trailing column of ones, so
one product applies a layer's weights and bias, and one product gives
both their gradients. Backprop writes into a gradient vector of the
same layout, so the finiteness guard and the SGD update are one array
operation each.

Training interacts with the environment through ``env.step`` on the
state tuple, so it needs no enumeration of the state space. The network
input is that tuple scaled into [0, 1] per variable. Each slot runs two
forwards: a batch's s' and s rows as one stack of 2B rows (the per-call
functions forward B rows at a time, and BLAS rounds each row alike, as
the per-call reference test checks), and, after the update, the
reference state over the next state, which gives both the reference
value and the next slot's greedy Q-values. Exploration pairs, channel
levels and replay indices come from separate streams of
``learner_streams``, drawn in blocks. Greedy policies copy their network
when they are built and memoise the action per state; the training loop
memoises each state's encoding, mask and stage cost. Both memos are
least-recently-used caches of ``_MEMO_SIZE`` states.

The replay memory keeps each experience's raw (s', s) state pair, not
its encodings, in the narrowest unsigned integer type that holds the
config's states. A batch is gathered with one ``take`` and encoded by
one float64 division into the stacked input, the division that encodes
a single state, so the network reads the same bits. A checkpoint records
the encoding's denominators, and ``QNetwork.load`` with a config refuses
one trained on another state grid.
"""

from __future__ import annotations

import functools
import itertools
import zipfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import env, mdp
from .env import State, SystemConfig
from .errors import ContractError
from .mdp import TransitionKernel
from .tabular import DEFAULT_EPS0, epsilon_segments, explored, learner_streams

# states per memo: all of a small chain, the hot states of a large one
_MEMO_SIZE = 1 << 12
# the network's hidden layer widths and the SGD step size
_HIDDEN_SIZES, _LEARNING_RATE = (64, 64), 1e-3
# experiences per gradient step, and the most the replay memory keeps
_BATCH_SIZE, _REPLAY_CAPACITY = 32, 100_000
# slots of replay indices and of exploration pairs drawn per numpy call
_SLOT_BLOCK = 256
# training stops once a reference-state Q-value exceeds this magnitude
_DIVERGENCE_LIMIT = 1e6


class QNetwork:
    """Fully-connected net: rectifier hidden layers, identity output.

    Layer k is one (fan_in + 1, fan_out) block of the flat vector
    ``params``, ``blocks[k]``: the weights ``weights[k]`` with the bias
    ``biases[k]`` as its last row, so ``params`` is laid out layer by
    layer as w0, b0, w1, b1, ... A forward feeds each layer its input
    with a trailing column of ones, so one product applies both.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        self._shapes = [np.shape(w) for w in weights]
        self.params = np.empty(sum((fan_in + 1) * fan_out for fan_in, fan_out in self._shapes))
        self.blocks = self.layers(self.params)
        self.weights = [block[:-1] for block in self.blocks]
        self.biases = [block[-1] for block in self.blocks]
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

    def layers(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-layer (fan_in + 1, fan_out) views into a vector laid out like
        ``params``: weights, then the bias as the last row."""
        blocks, start = [], 0
        for fan_in, fan_out in self._shapes:
            stop = start + (fan_in + 1) * fan_out
            blocks.append(flat[start:stop].reshape(fan_in + 1, fan_out))
            start = stop
        return blocks

    @property
    def layer_sizes(self) -> list[int]:
        return [self._shapes[0][0]] + [fan_out for _, fan_out in self._shapes]

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
        acts = _activations(self.layer_sizes, len(a))
        acts[0][:, :-1] = a
        self._forward_into(acts)
        return acts[-1][0] if single else acts[-1]

    def _forward_into(self, acts: list[np.ndarray]) -> None:
        """``forward`` of the batch in ``acts[0]`` (made by ``_activations``),
        writing layer k's output into ``acts[k + 1]``."""
        last = len(self.blocks) - 1
        for k, block in enumerate(self.blocks):
            if k < last:
                out = acts[k + 1]
                np.matmul(acts[k], block, out=out[:, :-1])
                np.maximum(out, 0.0, out=out)  # the ones column stays 1
            else:
                np.matmul(acts[k], block, out=acts[k + 1])

    def save(self, path, config: SystemConfig) -> None:
        """Write every weight and bias to ``path``, then the denominators
        of ``config``'s state encoding, which ``load`` checks."""
        arrays = {"format_version": np.array(1), "layer_sizes": np.array(self.layer_sizes)}
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            arrays[f"w{k}"] = w
            arrays[f"b{k}"] = b
        arrays["encoding_denominators"] = _encoding_denominators(config)
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path, config: SystemConfig | None = None) -> "QNetwork":
        """The network ``save`` wrote to ``path``; ``ContractError`` if the
        file is not a whole archive holding every array ``save`` writes,
        if its ``format_version`` is not the integer 1, if its layer arrays
        do not chain as its ``layer_sizes`` say or hold a value that is not
        finite, and
        with ``config`` also if the network was not trained on its state
        encoding (another input width, other encoding denominators or none
        recorded) or does not output one value per action."""
        try:
            with open(path, "rb") as fh:
                data = np.load(fh)
                if not isinstance(data, np.lib.npyio.NpzFile):
                    raise ContractError("a single array, not a checkpoint archive")
                version = data["format_version"]
                if version.shape != () or version.dtype.kind not in "iu":
                    raise ContractError(f"format_version {version.tolist()!r} is not one integer")
                if version != 1:
                    raise ContractError(f"unknown checkpoint version {version}")
                sizes = np.ravel(data["layer_sizes"]).tolist()
                layers = sum(name.startswith("w") for name in data.files)
                if not 0 < layers == len(sizes) - 1:
                    raise ContractError(f"layer_sizes {sizes} do not count {layers} weight arrays")
                weights = [data[f"w{k}"] for k in range(layers)]
                biases = [data[f"b{k}"] for k in range(layers)]
                shapes = [s for w, b in zip(weights, biases) for s in (w.shape, b.shape)]
                if shapes != [s for i, o in zip(sizes, sizes[1:]) for s in ((i, o), (o,))]:
                    raise ContractError(
                        f"layer arrays of shapes {shapes} do not chain as layer_sizes {sizes}"
                    )
                if config is not None:
                    denoms = _encoding_denominators(config)
                    if sizes[0] != len(denoms):
                        raise ContractError(
                            f"network input {sizes[0]} != state encoding width {len(denoms)}"
                        )
                    if "encoding_denominators" not in data.files:
                        raise ContractError("the checkpoint records no encoding denominators")
                    if not np.array_equal(saved := data["encoding_denominators"], denoms):
                        raise ContractError(
                            f"the checkpoint's encoding denominators {saved.tolist()} "
                            f"!= the config's {denoms.tolist()}"
                        )
                    if sizes[-1] != config.num_sources + 1:
                        raise ContractError(
                            f"network output {sizes[-1]} != the config's "
                            f"{config.num_sources + 1} actions"
                        )
        except (zipfile.BadZipFile, KeyError) as exc:
            raise ContractError(f"unreadable checkpoint: {exc}") from exc
        net = cls(weights, biases)
        if not np.isfinite(net.params).all():
            raise ContractError("the checkpoint holds a non-finite weight or bias")
        return net


class ReplayMemory:
    """Ring buffer of experiences: the raw state pair (s', s) as one
    (2, width) row of ``pairs``, the action, the stage cost of s and the
    feasible mask of s'.

    ``pairs`` holds state tuples, not encodings, in the unsigned integer
    type ``dtype`` (``_state_dtype`` of the config); a component that does
    not fit it raises ``OverflowError`` instead of wrapping.
    """

    def __init__(self, capacity: int, state_width: int, num_actions: int, dtype: np.dtype):
        self.capacity = capacity
        self.size = 0
        self.cursor = 0
        self.pairs = np.zeros((capacity, 2, state_width), dtype=dtype)
        self.actions = np.zeros(capacity, dtype=np.int8)
        self.costs = np.zeros(capacity)
        self.mask_next = np.zeros((capacity, num_actions), dtype=bool)

    def push(self, state, action, cost, next_state, mask_next) -> None:
        i = self.cursor
        self.pairs[i, 0] = next_state
        self.pairs[i, 1] = state
        self.actions[i] = action
        self.costs[i] = cost
        self.mask_next[i] = mask_next
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform-with-replacement indices over the stored experiences."""
        return rng.integers(self.size, size=batch_size)


@dataclass
class DqnHyperparams:
    total_slots: int = 100_000
    seed: int = 0
    eps0: float = DEFAULT_EPS0  # initial exploration rate


# ---------------------------------------------------------------------------
# state encoding


def _encoding_denominators(config: SystemConfig) -> np.ndarray:
    """The network input is the state tuple divided by these: each
    variable's largest value, at least 1, which scales it into [0, 1]."""
    return np.maximum(np.array(env.state_dims(config)) - 1, 1).astype(float)


def _state_dtype(config: SystemConfig) -> np.dtype:
    """The narrowest unsigned integer type holding every component of
    every state: the largest value of any variable of ``state_dims``."""
    return np.min_scalar_type(max(env.state_dims(config)) - 1)


# ---------------------------------------------------------------------------
# loss, targets and the gradient step


def batch_targets(prev_net, costs, enc_next, masks_next, enc_ref, mask_ref) -> np.ndarray:
    q_next = prev_net.forward(enc_next)
    ref_best = prev_net.forward(enc_ref)[mask_ref].min()
    return _relative_targets(costs, q_next, masks_next, ref_best)


def _relative_targets(costs, q_next, masks_next, ref_best) -> np.ndarray:
    """Batch targets from the next-state Q-values and the best feasible
    Q-value at the reference state, both of the network before the update."""
    return costs + np.minimum.reduce(q_next, axis=1, where=masks_next, initial=np.inf) - ref_best


def _activations(layer_sizes: list[int], rows: int) -> list[np.ndarray]:
    """Work arrays of a ``rows``-row forward: each layer's input with a
    trailing column of ones, then the output."""
    acts = [np.empty((rows, width + 1)) for width in layer_sizes[:-1]]
    for a in acts:
        a[:, -1] = 1.0
    return [*acts, np.empty((rows, layer_sizes[-1]))]


def _backward_work(layer_sizes: list[int], rows: int) -> tuple:
    """Work arrays of a ``rows``-row backward: the row numbers, a delta
    shaped like each layer's output, and a rectifier mask shaped like
    each hidden layer's output."""
    deltas = [np.empty((rows, width)) for width in layer_sizes[1:]]
    masks = [np.empty((rows, width), dtype=bool) for width in layer_sizes[1:-1]]
    return np.arange(rows), deltas, masks


def _backward(net: QNetwork, acts, work, actions, targets, grads) -> float:
    """Mean half-squared TD error of a forwarded batch; its exact gradient
    goes into ``grads``, per-layer blocks shaped like ``net.blocks``.

    ``acts`` holds the batch and every layer's output, and ``work`` is
    ``_backward_work`` of the batch. Only the taken action's output unit
    contributes per experience. The ones column of a layer's input makes
    one product give the gradient of both its weights and its bias.
    """
    rows, deltas, masks = work
    B = len(targets)
    errors = acts[-1][rows, actions] - targets
    # np.mean(errors**2) without its wrappers: the same sum divided by B
    loss = 0.5 * (float(np.add.reduce(errors * errors)) / B)
    delta = deltas[-1]
    delta.fill(0.0)
    delta[rows, actions] = errors / B
    for k in range(len(grads) - 1, -1, -1):
        np.matmul(acts[k].T, delta, out=grads[k])
        if k > 0:
            delta = deltas[k - 1]
            np.matmul(deltas[k], net.weights[k].T, out=delta)
            np.multiply(delta, np.greater(acts[k][:, :-1], 0.0, out=masks[k - 1]), out=delta)
    return loss


def _update(
    net: QNetwork, grads: np.ndarray, learning_rate: float, loss: float, finite: np.ndarray
) -> None:
    """Guarded in-place SGD step on the flat gradient (which it scales);
    ``finite`` is a bool work array shaped like ``grads``."""
    # np.isfinite(grads).all() without the Python wrapper of .all(), into a reused array
    if not np.logical_and.reduce(np.isfinite(grads, out=finite)):
        raise FloatingPointError(f"non-finite gradient (loss={loss}); aborting training step")
    grads *= learning_rate
    net.params -= grads


def loss_and_grads(net: QNetwork, enc_batch, actions, targets):
    """Mean half-squared TD error over the batch and its exact gradient,
    as per-layer views of one vector laid out like ``net.params``."""
    enc_batch = np.atleast_2d(np.asarray(enc_batch, dtype=float))
    acts = _activations(net.layer_sizes, len(enc_batch))
    acts[0][:, :-1] = enc_batch
    net._forward_into(acts)
    work = _backward_work(net.layer_sizes, len(enc_batch))
    grads = net.layers(np.empty_like(net.params))
    actions, targets = np.asarray(actions, dtype=np.int64), np.asarray(targets, dtype=float)
    loss = _backward(net, acts, work, actions, targets, grads)
    return loss, [g[:-1] for g in grads], [g[-1] for g in grads]


def gradient_step(net: QNetwork, enc_batch, actions, targets, learning_rate: float) -> float:
    """In-place SGD step on the batch; returns the pre-update loss."""
    loss, grads_w, grads_b = loss_and_grads(net, enc_batch, actions, targets)
    grads = np.concatenate([g.ravel() for pair in zip(grads_w, grads_b) for g in pair])
    _update(net, grads, learning_rate, loss, np.empty(len(grads), dtype=bool))
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
        q = net.forward(np.asarray(state, dtype=float) / denoms)
        feas = env.feasible_actions(config, state)
        return min(feas, key=lambda a: (q[a], a))

    return policy


def _replay_indices(rng: np.random.Generator, first: int, slots: int):
    """Yield the replay indices of slots ``first``..``slots - 1`` in turn:
    what ``ReplayMemory.sample(_BATCH_SIZE, rng)`` draws slot by slot when
    slot k samples among min(k + 1, capacity) experiences, from the same
    stream, made ``_SLOT_BLOCK`` slots at a time."""
    for start in range(first, slots, _SLOT_BLOCK):
        sizes = np.minimum(np.arange(start, min(slots, start + _SLOT_BLOCK)) + 1, _REPLAY_CAPACITY)
        yield from rng.integers(0, sizes[:, None], size=(len(sizes), _BATCH_SIZE))


def _uniform_pairs(rng: np.random.Generator, slots: int):
    """Yield ``slots`` uniform pairs in turn: what ``rng.random(2)`` draws
    call by call, made ``_SLOT_BLOCK`` pairs at a time."""
    for start in range(0, slots, _SLOT_BLOCK):
        yield from rng.random((min(_SLOT_BLOCK, slots - start), 2)).tolist()


def train_dqn(config: SystemConfig, hyper: DqnHyperparams) -> DqnResult:
    """Sequential loop: mask-aware epsilon-greedy action, environment step,
    replay insertion, batched targets, one SGD step.

    The targets come from the live network before this slot's update: its
    forward of the sampled s' rows, and the best reference-state value it
    gave at the end of the previous slot. That end-of-slot forward is one
    two-row product, the reference state over the next state, so it also
    gives the next slot's greedy Q-values. The loop takes the step
    ``gradient_step`` would on these targets, in reused arrays and without
    its per-call checks. It forwards the s' and s rows of a batch as one
    stacked batch, which rounds each row as the separate forwards do.
    """
    init_rng, explore_rng, channel_rng, replay_rng = learner_streams(hyper.seed)
    num_actions = config.num_sources + 1
    sizes = [len(env.state_dims(config)), *_HIDDEN_SIZES, num_actions]
    net = QNetwork.create(sizes, init_rng)
    memory = ReplayMemory(_REPLAY_CAPACITY, sizes[0], num_actions, _state_dtype(config))
    denoms = _encoding_denominators(config)

    @functools.lru_cache(maxsize=_MEMO_SIZE)
    def observe(state: State) -> tuple:
        """Encoding, feasible-action mask and list, and stage cost of a state."""
        feas = env.feasible_actions(config, state)
        mask = np.zeros(num_actions, dtype=bool)
        mask[feas] = True
        enc = np.asarray(state, dtype=float) / denoms
        return enc, mask, feas, env.stage_cost(config, state)

    # reference state: empty batteries, fresh information, lowest levels
    enc_ref, _, ref_feas, _ = observe((0,) * sizes[0])

    total = hyper.total_slots
    gain_trace = np.empty(total)
    eps_trace = np.empty(total)
    loss_trace = np.full(total, np.nan)

    # batch workspace: the sampled s' rows stacked over their s rows
    B = _BATCH_SIZE
    acts = _activations(sizes, 2 * B)
    acts_s = [a[B:] for a in acts]
    # the sampled (s', s) pairs, viewed as their s' block over their s
    # block, and where their encodings go: the input columns of those rows
    raw = np.empty((B, 2, sizes[0]), dtype=memory.pairs.dtype)
    raw_blocks = raw.transpose(1, 0, 2)
    encoded = acts[0].reshape(2, B, sizes[0] + 1)[:, :, :-1]
    q_next = acts[-1][:B]
    work = _backward_work(sizes, B)
    grads = np.empty_like(net.params)
    grad_blocks = net.layers(grads)
    finite = np.empty(len(grads), dtype=bool)
    # end-of-slot workspace: the reference state over the next state
    ends = _activations(sizes, 2)
    ends[0][0, :-1] = enc_ref

    state = env.initial_state(config)
    enc_s, _, feas, cost = observe(state)
    ends[0][1, :-1] = enc_s
    net._forward_into(ends)
    q_ref, q_s = ends[-1].tolist()
    ref_best = min(q_ref[a] for a in ref_feas)  # of the live network
    levels = env._level_blocks(config, channel_rng, total)
    replay = _replay_indices(replay_rng, B - 1, total)
    # epsilon 0 draws no pair, and no coin of 1 falls below it
    pairs = _uniform_pairs(explore_rng, total) if hyper.eps0 > 0 else itertools.repeat((1.0, 1.0))
    for start, stop, eps in epsilon_segments(hyper.eps0, total):
        eps_trace[start:stop] = eps
        for k, drawn, (coin, pick) in zip(range(start, stop), levels, pairs):
            if coin < eps:
                action = explored(feas, pick)
            else:
                action = min(feas, key=q_s.__getitem__)  # ties to the lowest action
            next_state = env.step(config, state, action, drawn)
            enc_next, mask_next, feas_next, cost_next = observe(next_state)
            memory.push(state, action, cost, next_state, mask_next)

            if memory.size >= B:
                idx = next(replay)
                memory.pairs.take(idx, axis=0, out=raw)
                # the float64 division ``observe`` does, so the same encodings
                np.divide(raw_blocks, denoms, out=encoded)
                net._forward_into(acts)
                targets = _relative_targets(
                    memory.costs.take(idx), q_next, memory.mask_next.take(idx, axis=0), ref_best
                )
                loss = _backward(net, acts_s, work, memory.actions.take(idx), targets, grad_blocks)
                _update(net, grads, _LEARNING_RATE, loss, finite)
                loss_trace[k] = loss

            ends[0][1, :-1] = enc_next
            net._forward_into(ends)
            q_ref, q_s = ends[-1].tolist()
            ref_best = gain_trace[k] = min(q_ref[a] for a in ref_feas)
            if max(map(abs, q_ref)) > _DIVERGENCE_LIMIT:
                raise FloatingPointError(
                    f"Q-values diverged beyond {_DIVERGENCE_LIMIT} at slot {k}"
                )
            state, feas, cost = next_state, feas_next, cost_next

    return DqnResult(
        network=net,
        gain_trace=gain_trace,
        epsilon_trace=eps_trace,
        loss_trace=loss_trace,
        greedy_policy=greedy_policy_fn(net, config),
    )


def tabulate_policy(net: QNetwork, kernel: TransitionKernel) -> np.ndarray:
    """Greedy policy of the network over a fully enumerated state space.

    States are forwarded in index order, as many at a time as the policy
    CSV loader parses (``mdp._CSV_CHUNK_ROWS``), so the memory beyond the
    returned policy stays bounded on large spaces.
    """
    indexer = kernel.indexer
    if indexer.objective != "age":
        raise ContractError("network policies are defined on the age state space")
    dims = indexer.dims
    denoms = _encoding_denominators(kernel.config)
    transmit_ok = [np.broadcast_to(ok, dims) for ok in kernel.transmit_ok]
    n = indexer.total_states
    policy = np.empty(n, dtype=np.int64)
    chunk = mdp._CSV_CHUNK_ROWS
    for start in range(0, n, chunk):
        grids = np.unravel_index(np.arange(start, min(n, start + chunk)), dims)
        q = net.forward(np.stack(grids, axis=1).astype(float) / denoms)
        harvest = np.ones(len(q), dtype=bool)
        feasible = np.stack([harvest, *(ok[grids] for ok in transmit_ok)], axis=1)
        policy[start : start + chunk] = np.where(feasible, q, np.inf).argmin(axis=1)
    return policy
