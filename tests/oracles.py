"""Independent oracles for the exact solver, written apart from the sparse
machinery in ``aoi_rl.mdp``: one (state, action) row of the full
transition matrix, a dense chain-gain solver, and an exhaustive search
over every stationary deterministic policy of a tiny instance."""

import itertools

import numpy as np

from aoi_rl.env import action_name
from aoi_rl.errors import InfeasibleActionError, SizeLimitError
from aoi_rl.mdp import PolicyTable

# largest kernel the exhaustive policy oracle takes
_ORACLE_STATES, _ORACLE_ACTIONS = 12, 3


def stage(kernel, s: int, a: int) -> float:
    """Stage cost (age) or reward (throughput) of one (state, action) pair."""
    if kernel.objective == "age":
        return float(kernel.cost[s])
    return float(kernel.reward_sa[s, a])


def row(kernel, s: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse successor distribution of one (state, action) pair."""
    if not kernel.feasible[s, a]:
        raise InfeasibleActionError(
            f"action {action_name(a)} infeasible in state {kernel.indexer.index_to_state(s)}"
        )
    return kernel.succ_full[s, a] + kernel.chan_offsets, kernel.chan_probs


def _bool_closure(adj: np.ndarray) -> np.ndarray:
    reach = adj | np.eye(adj.shape[0], dtype=bool)
    while True:
        nxt = reach @ reach
        if (nxt == reach).all():
            return reach
        reach = nxt


def _dense_chain_gain(P: np.ndarray, stage: np.ndarray, start: int) -> float:
    """Long-run average of a small dense chain from ``start``. Written
    independently of the sparse machinery in ``aoi_rl.mdp``."""
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
    the arrays ``row`` and ``stage`` read, objective, and start_index.
    """
    n = kernel.total_states
    A = kernel.num_actions
    if n > _ORACLE_STATES:
        raise SizeLimitError(f"oracle limited to {_ORACLE_STATES} states, got {n}")
    if A > _ORACLE_ACTIONS:
        raise SizeLimitError(f"oracle limited to {_ORACLE_ACTIONS} actions, got {A}")

    dense = np.zeros((n, A, n))
    stages = np.zeros((n, A))
    choices = []
    for s in range(n):
        acts = [a for a in range(A) if kernel.feasible[s, a]]
        choices.append(acts)
        for a in acts:
            cols, probs = row(kernel, s, a)
            np.add.at(dense[s, a], np.asarray(cols), np.asarray(probs))
            stages[s, a] = stage(kernel, s, a)

    minimize = kernel.objective == "age"
    start = kernel.start_index
    best_gain = None
    best_policy = None
    idx = np.arange(n)
    for assignment in itertools.product(*choices):
        pol = np.array(assignment, dtype=np.int64)
        g = _dense_chain_gain(dense[idx, pol], stages[idx, pol], start)
        if best_gain is None or (g < best_gain if minimize else g > best_gain):
            best_gain = g
            best_policy = pol
    return float(best_gain), PolicyTable(actions=best_policy)
