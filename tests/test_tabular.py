"""Relative Q-learning: update rule, schedules, and convergence."""

import numpy as np
import pytest

from aoi_rl import tabular
from aoi_rl.mdp import build_kernel, enumerate_states, evaluate_policy, solve_rvia
from aoi_rl.tabular import (
    QTable,
    epsilon,
    epsilon_greedy,
    q_update,
    step_size,
    train_tabular,
)

from conftest import make_config

EPS0 = tabular.DEFAULT_EPS0


def _toy_qtable():
    q = np.array([[1.0, 4.0], [2.0, 0.5], [3.0, np.nan]])
    feasible = np.array([[True, True], [True, True], [True, False]])
    return QTable(q=q, feasible=feasible, reference_state=0)


def test_greedy_respects_feasibility():
    qt = _toy_qtable()
    assert qt.greedy_action(0) == 0
    assert qt.greedy_action(1) == 1
    assert qt.greedy_action(2) == 0  # the nan entry is masked out
    assert qt.greedy_policy().tolist() == [0, 1, 0]


def test_gain_estimate_is_reference_best_value():
    qt = _toy_qtable()
    assert qt.best_value(qt.reference_state) == 1.0


def test_q_update_hand_arithmetic():
    qt = _toy_qtable()
    # target = cost + min Q(s') - min Q(ref) - Q(s,a)
    #        = 2.0 + 0.5      - 1.0        - 4.0 = -2.5
    new = q_update(qt, s=0, a=1, cost=2.0, s_next=1, alpha=0.1)
    assert new == pytest.approx(4.0 + 0.1 * (-2.5))


def test_epsilon_greedy_extremes():
    qt = _toy_qtable()
    rng = np.random.default_rng(0)
    assert epsilon_greedy(qt, 1, epsilon=0.0, rng=rng) == 1
    draws = {epsilon_greedy(qt, 2, epsilon=1.0, rng=rng) for _ in range(50)}
    assert draws == {0}  # only the feasible action can ever be explored


def test_schedule_step_sizes():
    assert step_size(0) == pytest.approx(0.5)
    assert step_size(10_000) == pytest.approx(0.25)
    # divergent sum, square-summable tail behaviour (1/k decay)
    assert step_size(10**6) == pytest.approx(0.5 * 1e4 / (1e4 + 1e6))


def test_schedule_epsilon_staircase():
    assert epsilon(EPS0, 0) == pytest.approx(0.3)
    assert epsilon(EPS0, 9_999) == pytest.approx(0.3)
    assert epsilon(EPS0, 10_000) == pytest.approx(0.27)
    assert epsilon(EPS0, 10**7) == pytest.approx(tabular._EPS_MIN)
    # the floor holds only below a start above it
    assert [epsilon(0.0, k) for k in (0, 10_000, 10**7)] == [0.0, 0.0, 0.0]
    assert [epsilon(0.005, k) for k in (0, 10**7)] == [0.005, 0.005]


def test_training_is_deterministic_per_seed(small_config):
    _, trace_a = train_tabular(small_config, 3000, seed=11)
    _, trace_b = train_tabular(small_config, 3000, seed=11)
    _, trace_c = train_tabular(small_config, 3000, seed=12)
    assert np.array_equal(trace_a, trace_b)
    assert not np.array_equal(trace_a, trace_c)


def test_free_transmission_converges_to_one(free_transmission_config):
    qt, trace = train_tabular(free_transmission_config, 100_000, seed=0)
    assert trace[-1] == pytest.approx(1.0, abs=0.05)


def test_learned_policy_matches_exact_optimum():
    cfg = make_config(battery_quanta=2, aoi_cap=3, levels=2)
    kernel = build_kernel(cfg, enumerate_states(cfg))
    vt, _ = solve_rvia(kernel)
    qt, _ = train_tabular(cfg, 120_000, seed=1, kernel=kernel)
    learned_gain = evaluate_policy(kernel, qt.greedy_policy())
    assert learned_gain == pytest.approx(vt.gain, rel=0.05)


def test_greedy_policy_always_feasible(small_config):
    kernel = build_kernel(small_config, enumerate_states(small_config))
    qt, _ = train_tabular(small_config, 20_000, seed=4, kernel=kernel)
    policy = qt.greedy_policy()
    assert kernel.feasible[np.arange(kernel.total_states), policy].all()


def test_trace_length_and_finiteness(small_config):
    _, trace = train_tabular(small_config, 500, seed=0)
    assert trace.shape == (500,)
    assert np.isfinite(trace).all()


def _reference_train_tabular(config, total_slots, seed, eps0):
    """The slot loop as it reads on the public per-call functions:
    ``epsilon_greedy`` then ``q_update``, one numpy call at a time, each
    slot drawing from the learner's streams on its own."""
    kernel = build_kernel(config, enumerate_states(config, "age"))
    _, explore_rng, channel_rng, _ = tabular.learner_streams(seed)
    qt = QTable(
        q=np.zeros((kernel.total_states, kernel.num_actions)),
        feasible=kernel.feasible,
        reference_state=kernel.start_index,
    )
    succ = kernel.succ_full
    offsets = kernel.chan_offsets
    n_combos = len(offsets)
    trace = np.empty(total_slots)
    state_visits = np.zeros(kernel.total_states, dtype=np.int64)
    pin_slot = min(1000, max(1, total_slots // 5))
    s = kernel.start_index
    for k in range(total_slots):
        state_visits[s] += 1
        if k == pin_slot:
            qt.reference_state = int(state_visits.argmax())
        a = epsilon_greedy(qt, s, epsilon(eps0, k), explore_rng)
        s_next = int(succ[s, a] + offsets[channel_rng.integers(n_combos)])
        q_update(qt, s, a, float(kernel.cost[s]), s_next, step_size(k))
        trace[k] = qt.best_value(qt.reference_state)
        s = s_next
    return qt, trace


@pytest.mark.parametrize(
    "config, seed, eps0, slots, eps_interval",
    [
        (make_config(), 0, EPS0, 6000, None),
        (make_config(), 7, EPS0, 6000, None),
        (make_config(battery_quanta=2, aoi_cap=3, levels=2), 1, EPS0, 4000, None),
        (
            make_config(distances=(25.0, 40.0), battery_quanta=2, aoi_cap=3, levels=2),
            3, EPS0, 6000, None,
        ),
        (make_config(correlated_links=True), 5, EPS0, 5000, None),
        (make_config(), 2, 0.0, 4000, None),
        (make_config(rounding_mode="upper-bound", levels=3, levels_uplink=2), 9, EPS0, 300, None),
        # the visit in slot 10 itself decides the reference pinned there
        (make_config(rounding_mode="upper-bound", levels=3, levels_uplink=2), 0, EPS0, 50, None),
        # epsilon steps 23 times, and the reference is pinned at slot 1000,
        # mid-interval
        (make_config(levels=3), 4, EPS0, 6000, 260),
    ],
    ids=["small-0", "small-7", "tiny", "two-source", "correlated", "no-exploration", "short",
         "pin-decided", "staircase"],
)
def test_training_matches_per_call_reference(monkeypatch, config, seed, eps0, slots, eps_interval):
    if eps_interval is not None:
        monkeypatch.setattr(tabular, "_EPS_INTERVAL", eps_interval)
    qt, trace = train_tabular(config, slots, seed, eps0=eps0)
    ref, ref_trace = _reference_train_tabular(config, slots, seed, eps0=eps0)
    assert np.array_equal(qt.q, ref.q)
    assert qt.reference_state == ref.reference_state
    assert np.array_equal(trace, ref_trace)


@pytest.mark.parametrize("eps0", [EPS0, 0.0])
def test_training_does_not_depend_on_the_slot_block(monkeypatch, eps0):
    """Blocks of 1 slot and of 37 slots (cut by the epsilon steps and the
    reference pin) draw the same values as the default blocks."""
    config = make_config(levels=3)
    monkeypatch.setattr(tabular, "_EPS_INTERVAL", 260)
    runs = []
    for block in (tabular._SLOT_BLOCK, 1, 37):
        monkeypatch.setattr(tabular, "_SLOT_BLOCK", block)
        runs.append(train_tabular(config, 3000, seed=6, eps0=eps0))
    for qt, trace in runs[1:]:
        assert np.array_equal(qt.q, runs[0][0].q)
        assert qt.reference_state == runs[0][0].reference_state
        assert np.array_equal(trace, runs[0][1])


def test_learner_streams_are_spawned_per_purpose():
    streams = tabular.learner_streams(3)
    children = np.random.SeedSequence(3).spawn(4)
    assert len(streams) == 4
    for rng, child in zip(streams, children):
        assert rng.random(3).tolist() == np.random.default_rng(child).random(3).tolist()
    assert len({rng.random() for rng in streams}) == 4


def test_explored_pick_stays_in_range():
    below_one = np.nextafter(1.0, 0.0)
    for n in (1, 2, 3, 5, 7, 1000, 2**40 + 1):
        assert tabular.explored(range(n), below_one) == n - 1
        assert tabular.explored(range(n), 0.0) == 0
