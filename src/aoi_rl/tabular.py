"""Relative Q-learning for the average-cost objective.

The update subtracts the best Q-value of a fixed reference state each
step, keeping the iterates bounded; the running minimum over feasible
actions at the reference state estimates the optimal average cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .env import SystemConfig
from .mdp import TransitionKernel, build_kernel, enumerate_states


# initial exploration rate of both learners
DEFAULT_EPS0 = 0.3
# the exploration floor, the staircase factor and its slot interval
_EPS_MIN, _EPS_DECAY, _EPS_INTERVAL = 0.01, 0.9, 10_000


def epsilon(eps0: float, k: int) -> float:
    """Staircase exploration decay, shared by both learners: ``eps0``
    shrinks by ``_EPS_DECAY`` every ``_EPS_INTERVAL`` slots, down to the
    floor ``_EPS_MIN`` or ``eps0``, whichever is lower."""
    return max(min(eps0, _EPS_MIN), eps0 * _EPS_DECAY ** (k // _EPS_INTERVAL))


def epsilon_segments(eps0: float, total_slots: int, *cuts: int):
    """(start, stop, epsilon) of the consecutive slot ranges that cover
    slots 0..total_slots-1, cut wherever ``epsilon`` steps and at ``cuts``,
    so that a slot loop computes epsilon once per range."""
    steps = range(0, total_slots, _EPS_INTERVAL)
    bounds = sorted({*steps, *(c for c in cuts if 0 < c < total_slots), total_slots})
    return [(start, stop, epsilon(eps0, start)) for start, stop in zip(bounds, bounds[1:])]


def step_size(k: int) -> float:
    """Step sizes with a divergent sum and a summable square: 0.5 at slot
    0, halved by slot 10,000."""
    return 0.5 * 1e4 / (1e4 + k)


@dataclass
class QTable:
    q: np.ndarray  # (states, actions)
    feasible: np.ndarray  # (states, actions) bool
    reference_state: int = 0

    def best_value(self, s: int) -> float:
        return float(self.q[s][self.feasible[s]].min())

    def greedy_action(self, s: int) -> int:
        """Feasible argmin; ties break to the lowest action index."""
        row = np.where(self.feasible[s], self.q[s], np.inf)
        return int(np.argmin(row))

    def greedy_policy(self) -> np.ndarray:
        masked = np.where(self.feasible, self.q, np.inf)
        return masked.argmin(axis=1).astype(np.int64)


def q_update(
    qtable: QTable, s: int, a: int, cost: float, s_next: int, alpha: float
) -> float:
    """One relative Q-learning step; returns the updated entry."""
    target = (
        cost
        + qtable.best_value(s_next)
        - qtable.best_value(qtable.reference_state)
        - qtable.q[s, a]
    )
    qtable.q[s, a] += alpha * target
    return float(qtable.q[s, a])


def epsilon_greedy(
    qtable: QTable, s: int, epsilon: float, rng: np.random.Generator
) -> int:
    feas = np.flatnonzero(qtable.feasible[s])
    if epsilon > 0 and rng.random() < epsilon:
        return int(feas[rng.integers(len(feas))])
    return qtable.greedy_action(s)


def _flat_view(array: np.ndarray, fmt: str) -> memoryview:
    """Flat view of a C-contiguous array whose items read and write as
    Python scalars (``fmt`` is the struct code of its dtype)."""
    return memoryview(array).cast("B").cast(fmt)


def train_tabular(
    config: SystemConfig,
    total_slots: int,
    seed: int,
    eps0: float = DEFAULT_EPS0,
    kernel: Optional[TransitionKernel] = None,
) -> tuple[QTable, np.ndarray]:
    """Run one trajectory of relative Q-learning, exploring with
    probability ``epsilon(eps0, k)`` in slot ``k``.

    Returns the Q-table and the per-slot gain-estimate trace (best feasible
    Q-value at the reference state).
    """
    if kernel is None:
        kernel = build_kernel(config, enumerate_states(config, "age"))
    rng = np.random.default_rng(seed)
    # The reference state is arbitrary in principle, but the subtraction
    # only anchors the iterates (and the gain estimate only converges) if
    # the trajectory keeps revisiting it. No single corner state is
    # recurrent on every instance, so after a short prefix the reference
    # is pinned to the state visited most often so far.
    qt = QTable(
        q=np.zeros((kernel.total_states, kernel.num_actions)),
        feasible=kernel.feasible,
        reference_state=kernel.start_index,
    )
    n_actions = kernel.num_actions
    # The slot loop is epsilon_greedy + q_update on Python scalars: flat
    # memoryviews of the arrays, plus each state's best feasible Q-value
    # and its lowest-index argmin, kept current as entries of Q change.
    # It draws from ``rng`` in the same order and evaluates the same float
    # expressions, so its results are identical to the per-call functions'.
    masked = np.where(qt.feasible, qt.q, np.inf)
    best_q = masked.min(axis=1)
    best_a = masked.argmin(axis=1)
    q = _flat_view(qt.q, "d")
    feasible = _flat_view(np.ascontiguousarray(qt.feasible), "?")
    succ = _flat_view(np.ascontiguousarray(kernel.succ_full, dtype=np.int64), "q")
    cost = _flat_view(np.ascontiguousarray(kernel.cost, dtype=float), "d")
    best_q_view = _flat_view(best_q, "d")
    best_a_view = _flat_view(best_a, "q")
    offsets = kernel.chan_offsets.tolist()  # one entry per channel combination
    n_combos = len(offsets)
    actions = range(n_actions)
    trace = np.empty(total_slots)
    trace_view = _flat_view(trace, "d")
    state_visits = np.zeros(kernel.total_states, dtype=np.int64)
    state_visits_view = _flat_view(state_visits, "q")
    pin_slot = min(1000, max(1, total_slots // 5))
    ref = qt.reference_state
    random, integers = rng.random, rng.integers
    s = kernel.start_index
    # the reference state is pinned at the start of a segment, and visits
    # are counted up to the pin only
    for start, stop, eps in epsilon_segments(eps0, total_slots, pin_slot):
        if start == pin_slot:
            state_visits_view[s] += 1
            ref = qt.reference_state = int(state_visits.argmax())
        counting = start < pin_slot
        explore = eps > 0
        for k in range(start, stop):
            if counting:
                state_visits_view[s] += 1
            row = s * n_actions
            if explore and random() < eps:
                feas = [b for b in actions if feasible[row + b]]
                a = feas[integers(len(feas))]
            else:
                a = best_a_view[s]
            sa = row + a
            s_next = succ[sa] + offsets[integers(n_combos)]
            value = q[sa] = q[sa] + step_size(k) * (
                cost[s] + best_q_view[s_next] - best_q_view[ref] - q[sa]
            )
            # only Q[s, a] moved: the row needs a rescan only when its best
            # entry went up
            best, best_action = best_q_view[s], best_a_view[s]
            if a != best_action:
                if value < best or value == best and a < best_action:
                    best_q_view[s], best_a_view[s] = value, a
            elif value <= best:
                best_q_view[s] = value
            else:
                best, best_action = np.inf, -1
                for b in actions:
                    if feasible[row + b] and (best_action < 0 or q[row + b] < best):
                        best, best_action = q[row + b], b
                best_q_view[s], best_a_view[s] = best, best_action
            trace_view[k] = best_q_view[ref]
            s = s_next
    return qt, trace
