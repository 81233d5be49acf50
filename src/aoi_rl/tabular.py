"""Relative Q-learning for the average-cost objective.

The update subtracts the best Q-value of a fixed reference state each
step, keeping the iterates bounded; the running minimum over feasible
actions at the reference state estimates the optimal average cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .env import SystemConfig
from .mdp import TransitionKernel, build_kernel, enumerate_states


@dataclass
class LearningSchedule:
    """Step sizes satisfying the usual divergent-sum / square-summable
    conditions, and a staircase exploration decay."""

    alpha0: float = 0.5
    alpha_tau: float = 1e4
    eps0: float = 0.3
    eps_min: float = 0.01
    eps_decay: float = 0.9
    eps_interval: int = 10_000

    def alpha(self, k: int) -> float:
        return self.alpha0 * self.alpha_tau / (self.alpha_tau + k)

    def epsilon(self, k: int) -> float:
        return max(self.eps_min, self.eps0 * self.eps_decay ** (k // self.eps_interval))


@dataclass
class QTable:
    q: np.ndarray  # (states, actions)
    feasible: np.ndarray  # (states, actions) bool
    reference_state: int = 0
    visit_counts: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.visit_counts is None:
            self.visit_counts = np.zeros_like(self.q, dtype=np.int64)

    def best_value(self, s: int) -> float:
        return float(self.q[s][self.feasible[s]].min())

    def greedy_action(self, s: int) -> int:
        """Feasible argmin; ties break to the lowest action index."""
        row = np.where(self.feasible[s], self.q[s], np.inf)
        return int(np.argmin(row))

    def greedy_policy(self) -> np.ndarray:
        masked = np.where(self.feasible, self.q, np.inf)
        return masked.argmin(axis=1).astype(np.int64)

    def gain_estimate(self) -> float:
        return self.best_value(self.reference_state)


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
    qtable.visit_counts[s, a] += 1
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
    schedule: Optional[LearningSchedule] = None,
    kernel: Optional[TransitionKernel] = None,
) -> tuple[QTable, np.ndarray]:
    """Run one trajectory of relative Q-learning.

    Returns the Q-table and the per-slot gain-estimate trace (best feasible
    Q-value at the reference state).
    """
    if schedule is None:
        schedule = LearningSchedule()
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
    # and its lowest-index argmin, refreshed whenever a row of Q changes.
    # It draws from ``rng`` in the same order and evaluates the same float
    # expressions, so its results are identical to the per-call functions'.
    masked = np.where(qt.feasible, qt.q, np.inf)
    best_q = masked.min(axis=1)
    best_a = masked.argmin(axis=1)
    q = _flat_view(qt.q, "d")
    visits = _flat_view(qt.visit_counts, "q")
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
    for k in range(total_slots):
        state_visits_view[s] += 1
        if k == pin_slot:
            ref = qt.reference_state = int(state_visits.argmax())
        row = s * n_actions
        epsilon = schedule.epsilon(k)
        if epsilon > 0 and random() < epsilon:
            feas = [b for b in actions if feasible[row + b]]
            a = feas[integers(len(feas))]
        else:
            a = best_a_view[s]
        sa = row + a
        s_next = succ[sa] + offsets[integers(n_combos)]
        q[sa] += schedule.alpha(k) * (cost[s] + best_q_view[s_next] - best_q_view[ref] - q[sa])
        visits[sa] += 1
        best, best_action = np.inf, -1
        for b in actions:
            if feasible[row + b] and (best_action < 0 or q[row + b] < best):
                best, best_action = q[row + b], b
        best_q_view[s], best_a_view[s] = best, best_action
        trace_view[k] = best_q_view[ref]
        s = s_next
    return qt, trace
