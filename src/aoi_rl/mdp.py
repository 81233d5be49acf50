"""Exact treatment of the scheduling MDP on the enumerated state space.

State indexing, the factored transition kernel, relative value iteration
for the average-cost (age) and average-reward (throughput) objectives, an
exhaustive policy-enumeration oracle for tiny instances, and exact policy
evaluation on the post-decision (core) chain, all on numpy alone.

The kernel is kept in factored form: the battery/AoI successor of a
(state, action) pair is deterministic, and the next channel levels are an
independent product of per-link pmfs. Each action's successor depends on
a few state axes only (harvest on the core and the downlink levels,
transmit j on the core and h_j), so the kernel holds one successor table
per action, full-size on those axes and size 1 on the rest; RVIA
broadcasts them and never builds an (n, A) array. Rows of the full
transition matrix are materialized on demand only, by the oracle.

Because the channel levels of each slot are drawn independently of the
past, the channel-free (battery, AoI) "core" sequence under a stationary
policy is itself a Markov chain. Policy evaluation therefore solves that
chain, whose size is the core count (100 states on a single source with
ten battery levels and AoI cap 10), instead of the full-state chain. The
full chain's stationary law is the core law times the channel pmf, and
the full chain started at the canonical start state enters the core chain
at the start state's successor core.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional

import numpy as np

from .env import SystemConfig, action_name, energy_tables, parse_action
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
# largest kernel the exhaustive policy oracle takes
_ORACLE_STATES, _ORACLE_ACTIONS = 12, 3


@dataclass(frozen=True)
class StateIndexer:
    """Bijection between system states and dense indices.

    Variables are stored 0-based internally: battery quanta as-is, AoI as
    value-1, channel levels as level-1. For the age objective the variable
    order is (b_i, A_i, g_i, h_i) per source; the throughput objective
    (single source) drops the AoI axis.
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

    def state_to_index(self, values) -> int:
        """Row-major index of one state's 0-based variable values."""
        values = tuple(values)
        if len(values) != len(self.dims):
            raise ValueError(f"expected {len(self.dims)} state variables, got {len(values)}")
        index = 0
        for v, d in zip(values, self.dims):
            if not 0 <= v < d:
                raise ValueError(f"state variable {v} outside [0, {d})")
            index = index * d + operator.index(v)
        return int(index)

    def index_to_state(self, index: int) -> tuple[int, ...]:
        return tuple(int(v) for v in np.unravel_index(index, self.dims))

    def canonical_start_index(self) -> int:
        """Full batteries, AoI 1, lowest channel levels."""
        values = []
        for k, name in enumerate(self.var_names):
            values.append(self.dims[k] - 1 if name.startswith("b_") else 0)
        return self.state_to_index(values)


def enumerate_states(config: SystemConfig, objective: str = "age") -> StateIndexer:
    if objective not in ("age", "throughput"):
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "throughput" and config.num_sources != 1:
        raise ContractError("throughput objective is defined for a single source only")
    dims: list[int] = []
    names: list[str] = []
    for i, spec in enumerate(config.sources, start=1):
        dims.append(spec.battery_quanta + 1)
        names.append(f"b_{i}")
        if objective == "age":
            dims.append(spec.aoi_cap)
            names.append(f"A_{i}")
        dims.append(spec.link.levels_downlink)
        names.append(f"g_{i}")
        dims.append(spec.link.levels_uplink)
        names.append(f"h_{i}")
    total = int(np.prod([int(d) for d in dims], dtype=object))
    if total > STATE_LIMIT:
        raise SizeLimitError(
            f"state space has {total} states, exceeding the limit of {STATE_LIMIT}"
        )
    return StateIndexer(
        objective=objective,
        dims=tuple(dims),
        var_names=tuple(names),
        num_sources=config.num_sources,
    )


def _strides(dims) -> np.ndarray:
    s = np.ones(len(dims), dtype=np.int64)
    for k in range(len(dims) - 2, -1, -1):
        s[k] = s[k + 1] * dims[k + 1]
    return s


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
        fstr = _strides(dims)
        vps = indexer.vars_per_source

        e_h, e_t = energy_tables(config)

        def axis(k):
            """Values of variable ``k``, full-size on its own axis only."""
            shape = [1] * len(dims)
            shape[k] = dims[k]
            return np.arange(dims[k], dtype=np.int64).reshape(shape)

        b = [axis(vps * i) for i in range(N)]
        A = [axis(vps * i + 1) for i in range(N)] if age else None
        g = [axis(vps * i + vps - 2) for i in range(N)]
        h = [axis(vps * i + vps - 1) for i in range(N)]

        # Channel groups: per source either two independent axes (g then h)
        # or, with reciprocal links, one group whose support is the diagonal
        # g = h. Each group is (axes, per-combo level rows, combo pmf).
        chan_groups: list[tuple[tuple[int, ...], np.ndarray, np.ndarray]] = []
        chan_axes: list[int] = []
        for i in range(N):
            off = vps * i + vps - 2
            down = config.downlink_quantizers[i].level_pmf
            up = config.uplink_quantizers[i].level_pmf
            if config.correlated_links:
                L = len(down)
                diag = np.arange(L, dtype=np.int64)
                chan_groups.append(((off, off + 1), np.stack([diag, diag]), down))
            else:
                chan_groups.append(((off,), np.arange(len(down), dtype=np.int64)[None, :], down))
                chan_groups.append(((off + 1,), np.arange(len(up), dtype=np.int64)[None, :], up))
            chan_axes.extend((off, off + 1))
        self._chan_groups = chan_groups
        offsets = np.zeros(1, dtype=np.int64)
        probs = np.ones(1)
        for axes, levels, pmf in chan_groups:
            step_off = np.zeros(levels.shape[1], dtype=np.int64)
            for k, ax in enumerate(axes):
                step_off += levels[k] * fstr[ax]
            offsets = (offsets[:, None] + step_off[None, :]).ravel()
            probs = (probs[:, None] * pmf[None, :]).ravel()
        self.chan_offsets = offsets
        self.chan_probs = probs

        # core (non-channel) dims: RVIA contracts channels onto them and policy
        # evaluation runs on the chain over them
        core_axes = [k for k in range(len(dims)) if k not in set(chan_axes)]
        cdims = [dims[k] for k in core_axes]
        cstr = _strides(cdims)
        # full index of each core state at the lowest channel levels; adding
        # chan_offsets gives the full states that share the core
        core_grids = np.unravel_index(np.arange(int(np.prod(cdims))), cdims)
        self.core_base = np.stack(core_grids, axis=1).astype(np.int64) @ fstr[core_axes]

        caps = [s.battery_quanta for s in config.sources]
        aoi_caps = [s.aoi_cap for s in config.sources]

        def encode(next_b, next_A):
            """Core index of (b', A')."""
            core = np.zeros((1,) * len(dims), dtype=np.int64)
            for i in range(N):
                ci = 2 * i if age else i
                core = core + next_b[i] * cstr[ci]
                if age:
                    core = core + next_A[i] * cstr[ci + 1]
            return core

        aged = [np.minimum(aoi_caps[i] - 1, A[i] + 1) for i in range(N)] if age else None
        hb = [np.minimum(caps[i], b[i] + e_h[i][g[i]]) for i in range(N)]
        succ_tables = [encode(hb, aged)]
        transmit_ok = []
        for j in range(N):
            cost_j = e_t[j][h[j]]
            feas = b[j] >= cost_j
            tb = list(b)
            tb[j] = b[j] - np.where(feas, cost_j, 0)
            tA = None
            if age:
                tA = list(aged)
                tA[j] = np.zeros((1,) * len(dims), dtype=np.int64)
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

    def stage(self, s: int, a: int) -> float:
        if self.objective == "age":
            return float(self.cost[s])
        return float(self.reward_sa[s, a])

    def contract_channels(self, values: np.ndarray) -> np.ndarray:
        """Expected value over next channel levels, flat over the core dims.

        Groups are contracted from the highest axis down so that removing a
        group's axes leaves the positions of lower axes unchanged. Reciprocal
        links contract the (g, h) pair over its diagonal support.
        """
        v = values.reshape(self.indexer.dims)
        for axes, _, pmf in sorted(self._chan_groups, key=lambda t: -t[0][0]):
            if len(axes) == 2:
                v = np.diagonal(v, axis1=axes[0], axis2=axes[1])  # diag -> last axis
                v = np.tensordot(v, pmf, axes=([v.ndim - 1], [0]))
            else:
                v = np.tensordot(v, pmf, axes=([axes[0]], [0]))
        return v.ravel()

    def row(self, s: int, a: int) -> tuple[np.ndarray, np.ndarray]:
        """Sparse successor distribution of one (state, action) pair."""
        if not self.feasible[s, a]:
            raise InfeasibleActionError(
                f"action {action_name(a)} infeasible in state {self.indexer.index_to_state(s)}"
            )
        return self.succ_full[s, a] + self.chan_offsets, self.chan_probs


def build_kernel(config: SystemConfig, indexer: StateIndexer) -> TransitionKernel:
    return TransitionKernel(config, indexer)


@dataclass
class ValueTable:
    values: np.ndarray
    gain: float
    stats: Optional[dict] = None


@dataclass
class PolicyTable:
    actions: np.ndarray
    gain: float
    stats: Optional[dict] = None


def solve_rvia(kernel: TransitionKernel, epsilon: float = 1e-9) -> tuple[ValueTable, PolicyTable]:
    """Relative value iteration until the Bellman-update span drops below
    ``epsilon``. Gain is the midpoint of the final update differences,
    which bracket the optimal average for any iterate.

    Each sweep contracts the channels once, onto the core states, and backs
    up ``stage + w[succ]`` on each action's own table; the running minimum
    (maximum for throughput) over actions, harvest first, is the full-state
    update. Ties go to the lowest action index.

    The damped update mixes the previous iterate back in; policy-induced
    chains here can be periodic (deterministic harvest/transmit cycles),
    and undamped value iteration would oscillate on them. Values are kept
    relative to state 0.

    Both returned tables carry ``stats``: the sweep count, the final
    ``[lo, hi]`` bracket, and the number of states whose best two feasible
    actions lie within ``epsilon * max(1, |gain|)`` of each other.
    """
    n = kernel.total_states
    minimize = kernel.objective == "age"
    best_of = np.minimum if minimize else np.maximum
    # the extended w's last entry is what an infeasible action (core -1) gets
    bad = np.inf if minimize else -np.inf
    v = np.zeros(n)
    tables = list(zip(kernel.stage_tables, kernel.succ_tables))
    dims = kernel.indexer.dims
    # full-state buffers, reused by every sweep
    tv_grid = np.empty(dims)
    tv = tv_grid.reshape(n)
    diff = np.empty(n)
    for sweep in range(1, _MAX_SWEEPS + 1):
        w = np.append(kernel.contract_channels(v), bad)
        q = [stage + w[succ] for stage, succ in tables]
        best_of(reduce(best_of, q[:-1]), q[-1], out=tv_grid)
        np.subtract(tv, v, out=diff)
        lo, hi = diff.min(), diff.max()
        # v = (1 - damping) * v + damping * (tv - tv[0]), in place
        np.subtract(tv, tv[0], out=diff)
        diff *= _DAMPING
        v *= 1.0 - _DAMPING
        v += diff
        # span tolerance is relative to the gain magnitude once it exceeds
        # unity (throughput rewards are in bits and far above fp resolution
        # at an absolute 1e-9)
        if hi - lo < epsilon * max(1.0, 0.5 * abs(hi + lo)):
            gain = float(0.5 * (hi + lo))
            tolerance = epsilon * max(1.0, abs(gain))
            # tv and diff are spent: _greedy reuses them as buffers
            actions, near_ties = _greedy(q, minimize, tolerance, tv_grid, diff.reshape(dims))
            stats = {"sweeps": sweep, "bracket": [float(lo), float(hi)], "near_ties": near_ties}
            return ValueTable(values=v, gain=gain, stats=stats), PolicyTable(
                actions=actions, gain=gain, stats=stats
            )
    raise ConvergenceError(
        f"no convergence after {_MAX_SWEEPS} sweeps; current span {hi - lo:.3e}"
    )


def _greedy(q: list[np.ndarray], minimize: bool, tolerance: float, best, spare):
    """Best action per state from the per-action backups ``q`` (strict
    improvements only, so ties keep the lowest action), and the number of
    states whose best two actions lie within ``tolerance``. ``best`` and
    ``spare`` are full-grid float buffers that are overwritten."""
    best_of, worst_of = (np.minimum, np.maximum) if minimize else (np.maximum, np.minimum)
    improves = np.less if minimize else np.greater
    actions = np.zeros(best.shape, dtype=np.int64)
    wins = np.empty(best.shape, dtype=bool)
    runner_up = np.full(best.shape, np.inf if minimize else -np.inf)
    np.copyto(best, q[0])
    for a, qa in enumerate(q[1:], start=1):
        improves(qa, best, out=wins)
        np.copyto(actions, a, where=wins)
        best_of(runner_up, worst_of(best, qa, out=spare), out=runner_up)
        best_of(best, qa, out=best)
    np.subtract(runner_up, best, out=spare)
    np.less_equal(np.abs(spare, out=spare), tolerance, out=wins)
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


def induced_chain(kernel: TransitionKernel, policy: np.ndarray):
    """Post-decision (core) chain of a deterministic policy.

    Returns ``(P, stage, start)`` over the channel-free core states, with
    ``P`` a ``CsrMatrix``. The channel levels of a slot are drawn
    independently of the core state, so the core sequence is itself
    Markov: ``P[c, c']`` sums the channel probabilities of the combinations
    under which the policy moves core ``c`` to ``c'``, and ``stage[c]`` is
    the channel-averaged stage value of the policy's action. The full
    chain's stationary law is the core one times the channel pmf. ``start``
    is the core the canonical start state moves to under the policy. Rows
    are summed a chunk of cores at a time into a dense (chunk, cores)
    buffer of about ``_CHAIN_CHUNK_CELLS`` cells; channel probabilities are
    positive, so its nonzero cells are the pairs that occur.
    """
    policy = np.asarray(policy, dtype=np.int64)
    n = kernel.total_states
    if policy.shape != (n,):
        raise ContractError(f"policy has shape {policy.shape}, expected ({n},)")
    if not 0 <= policy.min() <= policy.max() < kernel.num_actions:
        raise ContractError(f"policy actions must lie in 0..{kernel.num_actions - 1}")
    grid = policy.reshape(kernel.indexer.dims)
    succ = np.choose(grid, kernel.succ_tables).reshape(n)
    infeasible = np.flatnonzero(succ < 0)
    if len(infeasible):
        s = int(infeasible[0])
        raise InfeasibleActionError(
            f"policy takes {action_name(int(policy[s]))} in state "
            f"{kernel.indexer.index_to_state(s)} where it is infeasible"
        )
    value = np.choose(grid, kernel.stage_tables).reshape(n)
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
# brute-force oracle (independent of the RVIA path)


def _bool_closure(adj: np.ndarray) -> np.ndarray:
    reach = adj | np.eye(adj.shape[0], dtype=bool)
    while True:
        nxt = reach @ reach
        if (nxt == reach).all():
            return reach
        reach = nxt


def _dense_chain_gain(P: np.ndarray, stage: np.ndarray, start: int) -> float:
    """Long-run average of a small dense chain from ``start``. Written
    independently of the sparse machinery above."""
    n = P.shape[0]
    reach = _bool_closure(P > 0)
    mutual = reach & reach.T
    recurrent = np.all(~reach | reach.T, axis=1)

    assigned = np.zeros(n, dtype=bool)
    classes = []
    for s in range(n):
        if recurrent[s] and not assigned[s]:
            members = np.flatnonzero(mutual[s] & recurrent)
            assigned[members] = True
            classes.append(members)

    def stationary_gain(members):
        m = len(members)
        if m == 1:
            return float(stage[members[0]])
        mat = P[np.ix_(members, members)].T - np.eye(m)
        mat[-1, :] = 1.0
        rhs = np.zeros(m)
        rhs[-1] = 1.0
        pi = np.linalg.solve(mat, rhs)
        return float(pi @ stage[members])

    if recurrent[start]:
        for members in classes:
            if start in members:
                return stationary_gain(members)

    trans = np.flatnonzero(~recurrent)
    pos = {s: k for k, s in enumerate(trans)}
    A = np.eye(len(trans)) - P[np.ix_(trans, trans)]
    gain = 0.0
    for members in classes:
        if not reach[start, members].any():
            continue
        rhs = P[np.ix_(trans, members)].sum(axis=1)
        absorb = np.linalg.solve(A, rhs)
        p = float(absorb[pos[start]])
        if p > 0:
            gain += p * stationary_gain(members)
    return gain


def brute_force_oracle(kernel):
    """Enumerate every stationary deterministic feasible policy, evaluate
    each induced chain exactly, and return the best (gain, PolicyTable).

    Works against any object exposing total_states, num_actions, feasible,
    row(s, a), stage(s, a), objective, and start_index.
    """
    n = kernel.total_states
    A = kernel.num_actions
    if n > _ORACLE_STATES:
        raise SizeLimitError(f"oracle limited to {_ORACLE_STATES} states, got {n}")
    if A > _ORACLE_ACTIONS:
        raise SizeLimitError(f"oracle limited to {_ORACLE_ACTIONS} actions, got {A}")

    dense = np.zeros((n, A, n))
    stage = np.zeros((n, A))
    choices = []
    for s in range(n):
        acts = [a for a in range(A) if kernel.feasible[s, a]]
        choices.append(acts)
        for a in acts:
            cols, probs = kernel.row(s, a)
            np.add.at(dense[s, a], np.asarray(cols), np.asarray(probs))
            stage[s, a] = kernel.stage(s, a)

    minimize = kernel.objective == "age"
    start = kernel.start_index
    best_gain = None
    best_policy = None
    idx = np.arange(n)
    for assignment in itertools.product(*choices):
        pol = np.array(assignment, dtype=np.int64)
        g = _dense_chain_gain(dense[idx, pol], stage[idx, pol], start)
        if best_gain is None or (g < best_gain if minimize else g > best_gain):
            best_gain = g
            best_policy = pol
    return float(best_gain), PolicyTable(actions=best_policy, gain=float(best_gain))


# ---------------------------------------------------------------------------
# CSV export / import of policies and value tables


def _display_offsets(indexer: StateIndexer) -> list[int]:
    """What the CSV adds to each 0-based variable: AoI and levels are 1-based."""
    return [0 if name.startswith("b_") else 1 for name in indexer.var_names]



# rows of a policy file converted or parsed at a time
_CSV_CHUNK_ROWS = 1 << 16


def _scalars(array: np.ndarray):
    """The elements of a flat array as Python scalars, converted a chunk at
    a time."""
    return itertools.chain.from_iterable(
        array[i : i + _CSV_CHUNK_ROWS].tolist() for i in range(0, len(array), _CSV_CHUNK_ROWS)
    )


def export_policy_csv(
    path,
    indexer: StateIndexer,
    policy: np.ndarray,
    values: Optional[np.ndarray] = None,
) -> None:
    """Columns: state variables (AoI and levels 1-based), action, value.

    The bytes are those of a ``csv.writer`` rendering (CRLF line ends; no
    field needs quoting). Rows run in state-index order, which is the
    row-major product of the variables' label columns.
    """
    n = indexer.total_states
    policy = np.asarray(policy, dtype=np.int64)
    if policy.shape != (n,) or (values is not None and np.shape(values) != (n,)):
        raise ContractError(f"policy and values must have shape ({n},)")
    names = [action_name(a) for a in range(indexer.num_sources + 1)]
    if not 0 <= policy.min() <= policy.max() < len(names):
        raise ContractError(f"policy actions must lie in 0..{len(names) - 1}")
    labels = [
        [str(v + off) for v in range(d)] for d, off in zip(indexer.dims, _display_offsets(indexer))
    ]
    states = map(",".join, itertools.product(*labels))
    actions = map(names.__getitem__, _scalars(policy))
    if values is None:
        vals = itertools.repeat("")
    else:
        vals = map(repr, _scalars(np.asarray(values, dtype=float)))
    with open(path, "w", newline="") as fh:
        fh.write(",".join([*indexer.var_names, "action", "value"]) + "\r\n")
        fh.writelines(map("{},{},{}\r\n".format, states, actions, vals))


def load_policy_csv(path, indexer: StateIndexer):
    """Inverse of export_policy_csv; returns (policy, values-or-None).

    Parses a chunk of rows at a time, column by column. Fields are plain
    comma-separated text, as the writer leaves them; a row without exactly
    the state, action and value fields raises ``ValueError``, and a state
    off the grid, or a file without exactly one row per state, raises
    ``ContractError``.
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
            policy[s] = list(map(action_of.__getitem__, names))
            column = fields[nv + 1 :: width]
            if any(column):  # an empty field reads as NaN
                values[s] = [float(x or "nan") for x in column]
                any_values = True
    if total_rows != indexer.total_states or (policy < 0).any():
        n = indexer.total_states
        raise ContractError(f"{total_rows} policy rows do not cover the {n} states once each")
    return policy, (values if any_values else None)
