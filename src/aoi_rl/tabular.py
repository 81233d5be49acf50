"""Relative Q-learning for the average-cost objective.

The update subtracts the best Q-value of a fixed reference state each
step, keeping the iterates bounded; the running minimum over feasible
actions at the reference state estimates the optimal average cost.

Both learners draw their randomness from ``learner_streams(seed)``: one
independent generator per purpose, so each purpose's draws can be made
in blocks. The tabular slot loop draws its exploration pairs, channel
combinations and step sizes ``_SLOT_BLOCK`` slots at a time; they are
the values the per-call functions draw and compute slot by slot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .env import SystemConfig
from .mdp import TransitionKernel, build_kernel, enumerate_states


# initial exploration rate of both learners
DEFAULT_EPS0 = 0.3
# the exploration floor, the staircase factor and its slot interval
_EPS_MIN, _EPS_DECAY, _EPS_INTERVAL = 0.01, 0.9, 10_000
# slots of exploration pairs, channel combinations and step sizes the
# tabular loop draws per numpy call
_SLOT_BLOCK = 1024


def learner_streams(seed: int) -> list[np.random.Generator]:
    """A learner's random streams, one per purpose, spawned in this order
    from ``np.random.SeedSequence(seed)``: network initialisation,
    exploration (a uniform pair per slot: coin, then pick), next-slot
    channel levels, replay indices. A purpose one learner does not use
    still takes its place in the order."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)]


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


def step_size(k):
    """Step sizes with a divergent sum and a summable square: 0.5 at slot
    0, halved by slot 10,000. ``k`` may be an array of slots."""
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
    """A positive ``epsilon`` draws one uniform pair: below ``epsilon``
    the coin explores the feasible action the pick lands on. Epsilon 0
    draws nothing and acts greedily."""
    if epsilon > 0:
        coin, pick = rng.random(2).tolist()
        if coin < epsilon:
            return int(explored(np.flatnonzero(qtable.feasible[s]), pick))
    return qtable.greedy_action(s)


def explored(feasible, pick: float):
    """The feasible action a pick in [0, 1) lands on, each equally likely.
    ``pick * n`` rounds below ``n`` for every double below 1, so the index
    is in range."""
    return feasible[int(pick * len(feasible))]


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
    _, explore_rng, channel_rng, _ = learner_streams(seed)
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
    # It draws the same values as those functions and evaluates the same
    # float expressions, so its results are identical to theirs.
    masked = np.where(qt.feasible, qt.q, np.inf)
    best_q = masked.min(axis=1)
    best_a = masked.argmin(axis=1)
    q = _flat_view(qt.q, "d")
    feasible = _flat_view(np.ascontiguousarray(qt.feasible), "?")
    succ = _flat_view(np.ascontiguousarray(kernel.succ_full, dtype=np.int64), "q")
    cost = _flat_view(np.ascontiguousarray(kernel.cost, dtype=float), "d")
    best_q_view = _flat_view(best_q, "d")
    best_a_view = _flat_view(best_a, "q")
    offsets = kernel.chan_offsets  # one entry per channel combination
    actions = range(n_actions)
    trace = np.empty(total_slots)
    trace_view = _flat_view(trace, "d")
    state_visits = np.zeros(kernel.total_states, dtype=np.int64)
    state_visits_view = _flat_view(state_visits, "q")
    pin_slot = min(1000, max(1, total_slots // 5))
    ref = qt.reference_state
    s = kernel.start_index
    # the reference state is pinned at the start of a segment, and visits
    # are counted up to the pin only
    for start, stop, eps in epsilon_segments(eps0, total_slots, pin_slot):
        if start == pin_slot:
            state_visits_view[s] += 1
            ref = qt.reference_state = int(state_visits.argmax())
        counting = start < pin_slot
        for block in range(start, stop, _SLOT_BLOCK):
            slots = range(block, min(stop, block + _SLOT_BLOCK))
            jumps = offsets[channel_rng.integers(len(offsets), size=len(slots))].tolist()
            alphas = step_size(np.arange(slots.start, slots.stop)).tolist()
            if eps > 0:
                coins, picks = explore_rng.random((len(slots), 2)).T.tolist()
            else:  # no pair is drawn, and no coin of 1 falls below 0
                coins = picks = itertools.repeat(1.0)
            for k, jump, alpha, coin, pick in zip(slots, jumps, alphas, coins, picks):
                if counting:
                    state_visits_view[s] += 1
                row = s * n_actions
                if coin < eps:
                    a = explored([b for b in actions if feasible[row + b]], pick)
                else:
                    a = best_a_view[s]
                sa = row + a
                s_next = succ[sa] + jump
                value = q[sa] = q[sa] + alpha * (
                    cost[s] + best_q_view[s_next] - best_q_view[ref] - q[sa]
                )
                # only Q[s, a] moved: the row needs a rescan only when its
                # best entry went up
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
