"""Exact treatment of the scheduling MDP on the enumerated state space.

State indexing, the factored transition kernel, relative value iteration
for the average-cost (age) and average-reward (throughput) objectives, and
exact policy evaluation on the post-decision (core) chain, all on numpy
alone.

The kernel is kept in factored form: the battery/AoI successor of a
(state, action) pair is deterministic, and the next channel levels are
uniform. Every downlink and uplink level is drawn independently, each of
its levels equally likely (with reciprocal links a source's uplink level
is its downlink level), so each of the m channel combinations has
probability 1/m. Each action's successor depends on a few state axes only
(harvest on the core and the downlink levels, transmit j on the core and
h_j), so the kernel holds one successor table per action, full-size on
those axes and size 1 on the rest; RVIA broadcasts them and never builds
an (n, A) array.

Because the channel levels of each slot are drawn independently of the
past, the channel-free (battery, AoI) "core" sequence under a stationary
policy is itself a Markov chain, and a full state's value enters the
Bellman backup only through its core's mean over the channel levels.
RVIA therefore keeps one value per core state between sweeps, and policy
evaluation solves the core chain, whose size is the core count (100
states on a single source with ten battery levels and AoI cap 10),
instead of the full-state chain. The full chain's stationary law is the
core law times the uniform law of the channel combinations, and the full
chain started at the canonical start state enters the core chain at the
start state's successor core.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional

import numpy as np

from .env import SystemConfig, action_name, parse_action, state_dims
from .errors import (
    ContractError,
    ConvergenceError,
    InfeasibleActionError,
    SizeLimitError,
)

# most states ``enumerate_states`` indexes
STATE_LIMIT = 20_000_000
# weight of the new iterate in each damped RVIA update
_DAMPING = 0.5
# RVIA sweeps before it gives up with a ConvergenceError
_MAX_SWEEPS = 200_000
# RVIA stops once the update span drops below this, relative to max(1, |gain|)
_TOLERANCE = 1e-9


@dataclass(frozen=True)
class StateIndexer:
    """Bijection between system states and dense indices.

    Variables are stored 0-based internally: battery quanta as-is, AoI as
    value-1, channel levels as level-1. The age objective's grid is
    ``env.state_dims``, (b_i, A_i, g_i, h_i) per source; the throughput
    objective (single source) drops the AoI axis.
    """

    objective: str  # "age" | "throughput"
    dims: tuple[int, ...]
    var_names: tuple[str, ...]
    num_sources: int

    @property
    def total_states(self) -> int:
        return int(np.prod([int(d) for d in self.dims], dtype=object))

    @property
    def vars_per_source(self) -> int:
        return 4 if self.objective == "age" else 3

    @property
    def axes(self) -> list[np.ndarray]:
        """Each variable's 0-based values, full-size on its own axis only."""
        return np.ogrid[tuple(map(slice, self.dims))]

    def state_to_index(self, values) -> int:
        """Row-major index of one state's 0-based variable values;
        ``ValueError`` for the wrong number of values or one off its axis,
        ``TypeError`` for a value that is not an integer. A scalar loop:
        ``simulate`` calls it once a slot, where ``np.ravel_multi_index``
        takes three times as long."""
        values = tuple(values)
        if len(values) != len(self.dims):
            raise ValueError(f"expected {len(self.dims)} state variables, got {len(values)}")
        index = 0
        for v, d in zip(values, self.dims):
            if not 0 <= v < d:
                raise ValueError(f"state variable {v} outside [0, {d})")
            index = index * d + operator.index(v)
        return index

    def index_to_state(self, index: int) -> tuple[int, ...]:
        return tuple(int(v) for v in np.unravel_index(index, self.dims))

    def canonical_start_index(self) -> int:
        """Full batteries, AoI 1, lowest channel levels."""
        return self.state_to_index(
            d - 1 if name.startswith("b_") else 0 for d, name in zip(self.dims, self.var_names)
        )


def enumerate_states(config: SystemConfig, objective: str = "age") -> StateIndexer:
    if objective not in ("age", "throughput"):
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "throughput" and config.num_sources != 1:
        raise ContractError("throughput objective is defined for a single source only")
    names = [f"{v}_{i}" for i in range(1, config.num_sources + 1) for v in "bAgh"]
    # the throughput objective drops the AoI axes
    dims, names = zip(*(
        (d, name) for d, name in zip(state_dims(config), names) if objective == "age" or name[0] != "A"
    ))
    indexer = StateIndexer(objective, dims, names, config.num_sources)
    if (total := indexer.total_states) > STATE_LIMIT:
        raise SizeLimitError(
            f"state space has {total} states, exceeding the limit of {STATE_LIMIT}"
        )
    return indexer


class TransitionKernel:
    """Factored kernel: per-action successor tables plus stage costs or rewards.

    ``succ_tables[a]`` holds the core index of each state's successor under
    action ``a``, or -1 where ``a`` is infeasible. It is an array on the
    full state axes that is full-size on the axes the action reads and size
    1 on the rest: harvest reads every battery, AoI and downlink level;
    transmit ``j`` reads every battery, the other sources' AoI and the
    uplink level ``h_j``. ``transmit_ok[j - 1]`` is the affordability of transmit ``j``
    on the ``b_j`` and ``h_j`` axes, and ``stage_tables[a]`` the stage cost
    (age) or reward (throughput) of ``a`` in the same broadcast form. The
    (n, A) arrays ``succ_small``, ``succ_full`` and ``feasible`` are
    broadcast from the tables on first use.
    """

    def __init__(self, config: SystemConfig, indexer: StateIndexer):
        self.config = config
        self.indexer = indexer
        self.objective = indexer.objective
        N = config.num_sources
        age = self.objective == "age"
        self.num_actions = N + 1 if age else 2
        dims = indexer.dims
        vps = indexer.vars_per_source
        axes = indexer.axes
        b, g, h = axes[0::vps], axes[vps - 2 :: vps], axes[vps - 1 :: vps]
        A = axes[1::vps] if age else None
        zero = np.zeros((1,) * len(dims), dtype=np.int64)
        is_core = [k % vps < vps - 2 for k in range(len(dims))]

        # Full-index offset of each channel combination from the lowest
        # levels, row-major over (g_1, h_1, g_2, h_2, ...): per source every
        # (g, h) pair or, with reciprocal links, the diagonal g = h.
        chan = [zero if core else ax for core, ax in zip(is_core, axes)]
        if config.correlated_links:
            chan[vps - 1 :: vps] = g
        self.chan_offsets = np.ravel_multi_index(tuple(chan), dims).ravel()
        self.chan_probs = np.full(len(self.chan_offsets), 1.0 / len(self.chan_offsets))
        # (g_1, h_1, g_2, h_2, ...) and the core (non-channel) axes: RVIA
        # contracts channels onto the core and policy evaluation runs on the
        # chain over it
        self._chan_axes = tuple(k for k, core in enumerate(is_core) if not core)
        cdims = [d for d, core in zip(dims, is_core) if core]
        # full index of each core state at the lowest channel levels; adding
        # chan_offsets gives the full states that share the core
        core_grid = [ax if core else zero for core, ax in zip(is_core, axes)]
        self.core_base = np.ravel_multi_index(tuple(core_grid), dims).ravel()

        caps = [s.battery_quanta for s in config.sources]
        aoi_caps = [s.aoi_cap for s in config.sources]

        def encode(next_b, next_A):
            """Core index of (b', A')."""
            core = [v for pair in zip(next_b, next_A) for v in pair] if age else next_b
            return np.ravel_multi_index(tuple(core), cdims)

        aged = [np.minimum(aoi_caps[i] - 1, A[i] + 1) for i in range(N)] if age else None
        hb = [np.minimum(caps[i], b[i] + np.take(config.harvest_table[i], g[i])) for i in range(N)]
        succ_tables = [encode(hb, aged)]
        transmit_ok = []
        for j in range(N):
            cost_j = np.take(config.transmit_table[j], h[j])
            feas = b[j] >= cost_j
            tb = list(b)
            tb[j] = b[j] - np.where(feas, cost_j, 0)
            tA = None
            if age:
                tA = list(aged)
                tA[j] = zero
            succ_tables.append(np.where(feas, encode(tb, tA), -1))
            transmit_ok.append(feas)
        self.succ_tables = succ_tables
        self.transmit_ok = transmit_ok

        if age:
            cost = np.zeros((1,) * len(dims))
            for i, spec in enumerate(config.sources):
                cost = cost + spec.weight * (A[i] + 1)
            self.stage_tables = [cost] * self.num_actions
        else:
            ones = (1,) * len(dims)
            self.stage_tables = [np.zeros(ones), np.full(ones, config.packet_bits)]

    def _over_states(self, tables, dtype) -> np.ndarray:
        """(n, len(tables)) array whose column k is ``tables[k]`` broadcast
        over every state."""
        out = np.empty((*self.indexer.dims, len(tables)), dtype=dtype)
        for k, table in enumerate(tables):
            out[..., k] = table
        return out.reshape(self.total_states, len(tables))

    @cached_property
    def succ_small(self) -> np.ndarray:
        """(n, A) core index of each successor; -1 where infeasible."""
        return self._over_states(self.succ_tables, np.int64)

    @cached_property
    def succ_full(self) -> np.ndarray:
        """(n, A) full index of each successor at the lowest channel levels;
        -1 where infeasible."""
        full = [np.where(t >= 0, self.core_base[t], -1) for t in self.succ_tables]
        return self._over_states(full, np.int64)

    @cached_property
    def feasible(self) -> np.ndarray:
        return self._over_states([True, *self.transmit_ok], bool)

    @cached_property
    def cost(self) -> Optional[np.ndarray]:
        if self.objective != "age":
            return None
        return self._over_states(self.stage_tables[:1], float)[:, 0]

    @cached_property
    def reward_sa(self) -> Optional[np.ndarray]:
        if self.objective == "age":
            return None
        transmit = np.where(self.transmit_ok[0], self.config.packet_bits, 0.0)
        return self._over_states([self.stage_tables[0], transmit], float)

    @property
    def total_states(self) -> int:
        return self.indexer.total_states

    @property
    def start_index(self) -> int:
        return self.indexer.canonical_start_index()

    def contract_channels(self, values: np.ndarray) -> np.ndarray:
        """Expected value over next channel levels, flat over the core dims:
        the mean over the channel axes, every combination being equally
        likely. Reciprocal links take each source's (g, h) diagonal first,
        highest source first, so that lower axes keep their positions and
        the diagonals end up as the last axes."""
        v = values.reshape(self.indexer.dims)
        if not self.config.correlated_links:
            return v.mean(axis=self._chan_axes).ravel()
        for g_ax in self._chan_axes[-2::-2]:
            v = np.diagonal(v, axis1=g_ax, axis2=g_ax + 1)
        return v.mean(axis=tuple(range(v.ndim - self.config.num_sources, v.ndim))).ravel()

    def policy_grid(self, policy: np.ndarray) -> np.ndarray:
        """``policy`` on the state grid, once ``_checked_actions`` passes it
        and no state transmits where ``transmit_ok`` says its battery cannot
        pay the uplink cost; ``InfeasibleActionError`` names how many states
        do and the first of them as the policy file writes it."""
        indexer = self.indexer
        grid = _checked_actions(policy, self.total_states, self.num_actions).reshape(indexer.dims)
        unpaid = np.zeros(indexer.dims, dtype=bool)
        for j, ok in enumerate(self.transmit_ok, start=1):
            unpaid |= (grid == j) & ~ok
        if count := int(np.count_nonzero(unpaid)):
            s = int(unpaid.argmax())
            state = np.add(indexer.index_to_state(s), _display_offsets(indexer))
            first = ", ".join(map("{}={}".format, indexer.var_names, state))
            raise InfeasibleActionError(
                f"{count} state(s) take a transmission their battery cannot pay for; "
                f"the first, ({first}), takes {action_name(int(grid.flat[s]))}"
            )
        return grid


def build_kernel(config: SystemConfig, indexer: StateIndexer) -> TransitionKernel:
    return TransitionKernel(config, indexer)


def _checked_actions(policy, n: int, num_actions: int) -> np.ndarray:
    """``policy`` as an int64 array, refused with ``ContractError`` unless
    it holds one action in 0..num_actions-1 for each of the ``n`` states."""
    policy = np.asarray(policy, dtype=np.int64)
    if policy.shape != (n,):
        raise ContractError(f"policy has shape {policy.shape}, expected ({n},)")
    if not 0 <= policy.min() <= policy.max() < num_actions:
        raise ContractError(f"policy actions must lie in 0..{num_actions - 1}")
    return policy


@dataclass
class ValueTable:
    values: np.ndarray
    gain: float
    stats: Optional[dict] = None


@dataclass
class PolicyTable:
    actions: np.ndarray


def solve_rvia(kernel: TransitionKernel) -> tuple[ValueTable, PolicyTable]:
    """Relative value iteration on the core values until the Bellman-update
    span drops below ``_TOLERANCE``. Gain is the midpoint of the final
    update differences, which bracket the optimal average for any iterate.

    The iterate ``w`` holds one value per core state: the expected value of
    a full state over the next channel levels. Each sweep backs up ``stage
    + w[succ]`` on each action's own table, takes the running minimum
    (maximum for throughput) over actions, harvest first, into one reused
    full-state buffer ``tv``, and contracts it once onto the cores, ``tw``.
    The bracket is the min/max of ``tw - w``. Contraction is linear, so this
    is the full-state iteration's update seen through the channel average.
    Ties go to the lowest action index.

    The damped update mixes the previous iterate back in; policy-induced
    chains here can be periodic (deterministic harvest/transmit cycles),
    and undamped value iteration would oscillate on them. Values are kept
    relative to state 0: the returned ``values`` are the final sweep's
    backup ``tv - tv[0]``, the one the policy is extracted from.

    The value table carries ``stats``: the sweep count, the final ``[lo,
    hi]`` bracket, and the number of states whose best two feasible actions
    lie within ``_TOLERANCE * max(1, |gain|)`` of each other.
    """
    minimize = kernel.objective == "age"
    best_of = np.minimum if minimize else np.maximum
    # core values, then what an infeasible action (successor -1) gets
    w = np.append(np.zeros(len(kernel.core_base)), np.inf if minimize else -np.inf)
    core = w[:-1]
    tables = list(zip(kernel.stage_tables, kernel.succ_tables))
    tv_grid = np.empty(kernel.indexer.dims)
    tv = tv_grid.reshape(-1)
    for sweep in range(1, _MAX_SWEEPS + 1):
        q = [stage + w[succ] for stage, succ in tables]
        best_of(reduce(best_of, q[:-1]), q[-1], out=tv_grid)
        tw = kernel.contract_channels(tv)
        diff = tw - core
        lo, hi = diff.min(), diff.max()
        # w = (1 - damping) * w + damping * (tw - tv[0]), in place
        core *= 1.0 - _DAMPING
        core += _DAMPING * (tw - tv[0])
        # span tolerance is relative to the gain magnitude once it exceeds
        # unity (throughput rewards are in bits and far above fp resolution
        # at an absolute 1e-9)
        if hi - lo < _TOLERANCE * max(1.0, 0.5 * abs(hi + lo)):
            gain = float(0.5 * (hi + lo))
            values = tv - tv[0]
            # tv is spent: _greedy reuses it as a buffer
            actions, near_ties = _greedy(q, minimize, _TOLERANCE * max(1.0, abs(gain)), tv_grid)
            stats = {"sweeps": sweep, "bracket": [float(lo), float(hi)], "near_ties": near_ties}
            return ValueTable(values=values, gain=gain, stats=stats), PolicyTable(actions)
    raise ConvergenceError(
        f"no convergence after {_MAX_SWEEPS} sweeps; current span {hi - lo:.3e}"
    )


def _greedy(q: list[np.ndarray], minimize: bool, tolerance: float, best):
    """Best action per state from the per-action backups ``q`` (strict
    improvements only, so ties keep the lowest action), and the number of
    states whose best two actions lie within ``tolerance``. ``best`` is a
    full-grid float buffer that is overwritten."""
    best_of = np.minimum if minimize else np.maximum
    improves = np.less if minimize else np.greater
    actions = np.zeros(best.shape, dtype=np.int64)
    wins = np.empty(best.shape, dtype=bool)
    runner_up = np.full(best.shape, np.inf if minimize else -np.inf)
    np.copyto(best, q[0])
    for a, qa in enumerate(q[1:], start=1):
        improves(qa, best, out=wins)
        np.copyto(actions, a, where=wins)
        # where qa wins, the old best becomes the runner-up
        best_of(runner_up, qa, out=runner_up)
        np.copyto(runner_up, best, where=wins)
        best_of(best, qa, out=best)
    runner_up -= best
    np.less_equal(np.abs(runner_up, out=runner_up), tolerance, out=wins)
    return actions.reshape(-1), int(np.count_nonzero(wins))


# ---------------------------------------------------------------------------
# exact long-run averages of policy-induced chains


# largest dense block, in bytes, the chain evaluator solves (11,585 states square)
_BLOCK_BYTES = 1 << 30
# (core, core) cells ``induced_chain`` sums at a time
_CHAIN_CHUNK_CELLS = 1 << 16


@dataclass(frozen=True)
class CsrMatrix:
    """Sparse matrix in compressed-row form, laid out and named as in
    ``scipy.sparse.csr_matrix``."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])


def _dense_block(P, index: np.ndarray, rows: int) -> np.ndarray:
    """Dense (rows, index.max() + 1) array that sums each entry (r, c) of
    the CSR matrix ``P`` into cell (index[r], index[c]), for the rows with
    0 <= index[r] < rows; entries in a column with index -1 are dropped.
    Refuses blocks above ``_BLOCK_BYTES``."""
    width = int(index.max()) + 1
    if (nbytes := 8 * rows * width) > _BLOCK_BYTES:
        raise SizeLimitError(
            f"a dense block over {rows} states needs {nbytes} bytes, exceeding {_BLOCK_BYTES}"
        )
    r = np.where(index < rows, index, -1)[np.repeat(np.arange(P.shape[0]), np.diff(P.indptr))]
    c = index[P.indices]
    keep = (r >= 0) & (c >= 0)
    cells = np.bincount(r[keep] * width + c[keep], weights=P.data[keep], minlength=rows * width)
    return cells.reshape(rows, width)


def _reachable_classes(P, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Strongly connected classes of the states reachable from ``start``,
    from one iterative depth-first pass of Tarjan's algorithm (SIAM J.
    Comput. 1972) over the CSR matrix ``P``: a label per state (-1 where
    unreachable) and, per label, whether no transition leaves the class."""
    n = P.shape[0]
    ptr, succ = P.indptr.tolist(), P.indices.tolist()
    order, low, labels = [-1] * n, [0] * n, [-1] * n
    order[start] = low[start] = found = num_classes = 0
    # states visited but not yet in a class; a frame is (state, next edge)
    pending, frames = [start], [(start, ptr[start])]
    while frames:
        v, e = frames.pop()
        while e < ptr[v + 1]:
            w = succ[e]
            e += 1
            if order[w] < 0:
                found += 1
                order[w] = low[w] = found
                pending.append(w)
                frames += [(v, e), (w, ptr[w])]
                break
            if labels[w] < 0 and order[w] < low[v]:
                low[v] = order[w]
        else:
            if low[v] == order[v]:
                while True:
                    w = pending.pop()
                    labels[w] = num_classes
                    if w == v:
                        break
                num_classes += 1
            if frames and low[v] < low[frames[-1][0]]:
                low[frames[-1][0]] = low[v]
    labels = np.array(labels)
    src = labels[np.repeat(np.arange(n), np.diff(P.indptr))]
    dst = labels[P.indices]
    closed = np.ones(num_classes, dtype=bool)
    closed[src[(src >= 0) & (src != dst)]] = False
    return labels, closed


def _class_gain(P, members: np.ndarray, stage: np.ndarray) -> float:
    """Average stage value under the stationary distribution of one
    recurrent class of the CSR matrix ``P``. The last member's weight is
    pinned to 1: the others solve the nonsingular (I - Q)^T x = r, with Q
    the class's transitions among them and r the last member's transitions
    into them, and normalising gives the distribution."""
    m = len(members)
    if m == 1:
        return float(stage[members[0]])
    index = np.full(P.shape[0], -1)
    index[members] = np.arange(m)
    sub = _dense_block(P, index, m)
    pi = np.append(np.linalg.solve((np.eye(m - 1) - sub[:-1, :-1]).T, sub[-1, :-1]), 1.0)
    pi /= pi.sum()
    return float(pi @ stage[members])


def markov_chain_gain(P, stage: np.ndarray, start: int) -> float:
    """Long-run average stage value of the Markov chain with CSR transition
    matrix ``P`` (a ``CsrMatrix`` or a ``scipy.sparse.csr_matrix``) started
    at ``start``: the gains of the closed classes reachable from the start,
    weighted by their absorption probabilities (Puterman 1994, sections
    8.2-8.3), which one dense solve over the reachable transient states
    gives, with a right-hand side per closed class."""
    labels, closed = _reachable_classes(P, start)
    if closed[labels[start]]:
        return _class_gain(P, np.flatnonzero(labels == labels[start]), stage)
    reached = labels >= 0
    in_closed = reached & closed[labels]
    trans = np.flatnonzero(reached & ~in_closed)
    classes = np.unique(labels[in_closed])
    t = len(trans)
    # rows: the transient states; columns: those, then one per closed class
    index = np.full(P.shape[0], -1)
    index[trans] = np.arange(t)
    index[in_closed] = t + np.searchsorted(classes, labels[in_closed])
    block = _dense_block(P, index, t)
    absorb = np.linalg.solve(np.eye(t) - block[:, :t], block[:, t:])
    gain = 0.0
    for cls, p in zip(classes, absorb[np.searchsorted(trans, start)]):
        if p > 0:
            gain += p * _class_gain(P, np.flatnonzero(labels == cls), stage)
    return float(gain)


def _per_state(grid: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    """Flat ``np.choose(grid, tables)``, filled into one buffer: the
    harvest table first, then each action's table where the grid picks that
    action. Two to six times faster than ``np.choose`` on solved and
    learned policies, whose actions come in runs of states; slower on a
    uniformly random grid."""
    out = np.empty(grid.shape, dtype=np.result_type(*tables))
    np.copyto(out, tables[0])
    for a, table in enumerate(tables[1:], start=1):
        np.copyto(out, table, where=grid == a)
    return out.reshape(-1)


def induced_chain(kernel: TransitionKernel, policy: np.ndarray):
    """Post-decision (core) chain of a deterministic policy.

    Returns ``(P, stage, start)`` over the channel-free core states, with
    ``P`` a ``CsrMatrix``. The channel levels of a slot are drawn
    independently of the core state, so the core sequence is itself
    Markov: ``P[c, c']`` sums the channel probabilities of the combinations
    under which the policy moves core ``c`` to ``c'``, and ``stage[c]`` is
    the channel-averaged stage value of the policy's action. The full
    chain's stationary law is the core one times the uniform law of the
    channel combinations. ``start`` is the core the canonical start state
    moves to under the policy. Rows are summed a chunk of cores at a time
    into a dense (chunk, cores) buffer of about ``_CHAIN_CHUNK_CELLS``
    cells; channel probabilities are positive, so its nonzero cells are the
    pairs that occur. ``kernel.policy_grid`` checks the policy first.
    """
    grid = kernel.policy_grid(policy)
    succ = _per_state(grid, kernel.succ_tables)
    value = _per_state(grid, kernel.stage_tables)
    core = len(kernel.core_base)
    probs = kernel.chan_probs
    step = max(1, _CHAIN_CHUNK_CELLS // max(core, len(probs)))
    stage = np.empty(core)
    row_nnz, indices, data = [], [], []
    for lo in range(0, core, step):
        states = kernel.core_base[lo : lo + step, None] + kernel.chan_offsets
        rows = len(states)
        stage[lo : lo + rows] = value[states] @ probs
        cells = (np.arange(rows)[:, None] * core + succ[states]).ravel()
        sums = np.bincount(cells, weights=np.tile(probs, rows), minlength=rows * core)
        hit = np.flatnonzero(sums)
        row_nnz.append(np.bincount(hit // core, minlength=rows))
        indices.append(hit % core)
        data.append(sums[hit])
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(row_nnz))])
    P = CsrMatrix(indptr, np.concatenate(indices), np.concatenate(data), (core, core))
    return P, stage, int(succ[kernel.start_index])


def evaluate_policy(kernel: TransitionKernel, policy: np.ndarray) -> float:
    """Exact long-run average cost/reward of a deterministic policy,
    started from the full-battery / fresh-information state."""
    P, stage, start = induced_chain(kernel, policy)
    return markov_chain_gain(P, stage, start)


# ---------------------------------------------------------------------------
# CSV export / import of policies and value tables


def _display_offsets(indexer: StateIndexer) -> list[int]:
    """What the CSV adds to each 0-based variable: AoI and levels are 1-based."""
    return [0 if name.startswith("b_") else 1 for name in indexer.var_names]


# rows of a policy file parsed at a time
_CSV_CHUNK_ROWS = 1 << 16
# rows of a CSV file formatted at a time, which bounds the memory the strings take
_CSV_WRITE_ROWS = 1024


def _float_reprs(values: np.ndarray) -> list[str]:
    """``repr(float(v))`` of each value, formatting each distinct bit
    pattern once. A dict finds the repeats: ``np.unique`` would sort, and
    the first sort in a process maps in about 0.4 MB of numpy's sort code."""
    texts: dict[int, str] = {}
    return [
        texts[bits] if bits in texts else texts.setdefault(bits, repr(value))
        for bits, value in zip(values.view(np.int64).tolist(), values.tolist())
    ]


def write_csv(path, header: list[str], rows: int, *columns) -> None:
    """Write ``header`` and ``rows`` rows with the bytes of a ``csv.writer``
    rendering (CRLF line ends; no field needs quoting), ``_CSV_WRITE_ROWS``
    rows at a time. A column is either a function of a chunk's row range
    ``(start, stop)`` that gives its field texts for those rows, or values
    written as ``repr(float(v))``."""
    columns = [c if callable(c) else np.asarray(c, dtype=float) for c in columns]
    line = ",".join(["{}"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, rows, _CSV_WRITE_ROWS):
            stop = min(rows, start + _CSV_WRITE_ROWS)
            fields = [c(start, stop) if callable(c) else _float_reprs(c[start:stop]) for c in columns]
            fh.writelines(map(line.format, *fields))


def export_policy_csv(
    path, indexer: StateIndexer, policy: np.ndarray, values: Optional[np.ndarray] = None
) -> None:
    """Columns: state variables (AoI and levels 1-based), action, value;
    written by ``write_csv``. Rows run in state-index order, which is the
    row-major product of the variables' label columns.
    """
    n = indexer.total_states
    policy = _checked_actions(policy, n, indexer.num_sources + 1)
    if values is not None and np.shape(values) != (n,):
        raise ContractError(f"values have shape {np.shape(values)}, expected ({n},)")
    names = [action_name(a) for a in range(indexer.num_sources + 1)]
    labels = [
        [str(v + off) for v in range(d)] for d, off in zip(indexer.dims, _display_offsets(indexer))
    ]
    states = map(",".join, itertools.product(*labels))
    empty = lambda start, stop: itertools.repeat("", stop - start)  # noqa: E731
    write_csv(
        path, [*indexer.var_names, "action", "value"], n,
        lambda start, stop: itertools.islice(states, stop - start),
        lambda start, stop: map(names.__getitem__, policy[start:stop].tolist()),
        empty if values is None else values,
    )


def policy_csv_objective(path, config: SystemConfig) -> str:
    """Objective of a policy file for ``config``: throughput for a
    single-source file whose header has no AoI column, age otherwise.
    ``load_policy_csv`` still checks the whole header."""
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
    return "throughput" if config.num_sources == 1 and "A_1" not in header else "age"


def load_policy_csv(path, indexer: StateIndexer):
    """Inverse of export_policy_csv; returns (policy, values-or-None).

    Parses a chunk of rows at a time, column by column. Fields are plain
    comma-separated text, as the writer leaves them; a row without exactly
    the state, action and value fields raises ``ValueError``, and a state
    off the grid, an action outside H, T1..TN, a file without exactly one
    row per state, or a value column that is neither entirely empty
    (learned) nor entirely finite (exact), raises ``ContractError``.
    """
    nv = len(indexer.var_names)
    width = nv + 2
    offsets = np.array(_display_offsets(indexer))[:, None]
    dims = np.array(indexer.dims)[:, None]
    policy = np.full(indexer.total_states, -1, dtype=np.int64)
    values = np.full(indexer.total_states, np.nan)
    action_of: dict[str, int] = {}
    any_values = False
    total_rows = 0
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if tuple(header[:nv]) != indexer.var_names:
            raise ContractError(
                f"policy file columns {header} do not match indexer {indexer.var_names}"
            )
        while lines := list(itertools.islice(fh, _CSV_CHUNK_ROWS)):
            text = "".join(lines).replace("\r\n", "\n").rstrip("\n")
            fields = text.replace("\n", ",").split(",")
            rows = len(lines)
            total_rows += rows
            if len(fields) != width * rows:
                raise ValueError(f"policy rows must have {width} fields")
            state = np.array([np.fromiter(map(int, fields[k::width]), np.int64, rows) for k in range(nv)])
            grid = state - offsets
            outside = ((grid < 0) | (grid >= dims)).any(axis=0)
            if outside.any():
                first = ", ".join(map("{}={}".format, indexer.var_names, state[:, outside.argmax()]))
                raise ContractError(f"policy state ({first}) lies off the grid of dims {indexer.dims}")
            s = np.ravel_multi_index(tuple(grid), indexer.dims)
            names = fields[nv::width]
            for name in set(names) - action_of.keys():
                action_of[name] = parse_action(name)
                if not 0 <= action_of[name] <= indexer.num_sources:
                    raise ContractError(f"policy action {name} lies outside H, T1..T{indexer.num_sources}")
            policy[s] = list(map(action_of.__getitem__, names))
            column = fields[nv + 1 :: width]
            if any(column):  # an empty field reads as NaN
                values[s] = [float(x or "nan") for x in column]
                any_values = True
    n = indexer.total_states
    if total_rows != n or (policy < 0).any():
        raise ContractError(f"{total_rows} policy rows do not cover the {n} states once each")
    # an exact policy has a finite value in every state, a learned one none
    if any_values and (bad := n - np.count_nonzero(np.isfinite(values))):
        raise ContractError(f"{bad} of the {n} policy values are empty or not finite")
    return policy, (values if any_values else None)
