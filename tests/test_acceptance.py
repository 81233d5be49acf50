"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line with its measured evidence.

The expensive exact solves are shared across criteria through a lazy
module-level cache; each criterion's time budget covers the work it
triggers (including any solve it is first to request).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from aoi_rl.dqn import (
    DqnHyperparams,
    QNetwork,
    loss_and_grads,
    tabulate_policy,
    train_dqn,
)
from aoi_rl.env import (
    action_name,
    feasible_actions,
    load_config,
    simulate_policy,
    with_battery_capacity,
    with_packet_bits,
)
from aoi_rl.errors import SizeLimitError
from aoi_rl.mdp import (
    build_kernel,
    enumerate_states,
    evaluate_policy,
    solve_rvia,
)
from aoi_rl.structure import (
    check_threshold_aoi,
    check_threshold_single_source,
    check_value_monotone_age,
    diff_policies,
)
from aoi_rl.tabular import train_tabular

from conftest import make_config, random_tiny_config
from oracles import brute_force_oracle

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

_CACHE: dict = {}


def _solved(name):
    """Lazily solve a named scenario; returns
    (config, kernel, value_table, policy_table, solve_seconds)."""
    if name not in _CACHE:
        file, objective = {
            "two_source": ("two_source", "age"),
            "single_source": ("single_source_large", "age"),
            "single_source_throughput": ("single_source_large", "throughput"),
            "benchmark": ("learning_small", "age"),
        }[name]
        config = load_config(CONFIGS / f"{file}.yaml")
        t0 = time.monotonic()
        kernel = build_kernel(config, enumerate_states(config, objective))
        vt, pt = solve_rvia(kernel)
        _CACHE[name] = (config, kernel, vt, pt, time.monotonic() - t0)
    return _CACHE[name]


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_oracle_equivalence():
    """RVIA gain matches the exhaustive policy oracle on tiny instances."""
    rng = np.random.default_rng(20260823)
    gaps = []
    t0 = time.monotonic()
    for trial in range(20):
        cfg = random_tiny_config(rng)
        objective = "age" if trial % 3 else "throughput"
        kernel = build_kernel(cfg, enumerate_states(cfg, objective))
        vt, _ = solve_rvia(kernel)
        oracle_gain, _ = brute_force_oracle(kernel)
        denom = max(1.0, abs(oracle_gain))
        gaps.append(abs(vt.gain - oracle_gain) / denom)
    elapsed = time.monotonic() - t0
    ok = max(gaps) <= 1e-6 and elapsed < 10.0
    _report(1, ok, f"20 instances, worst gap {max(gaps):.2e}, {elapsed:.1f}s")
    assert max(gaps) <= 1e-6
    assert elapsed < 10.0


def test_criterion_2_value_monotonicity():
    """Exact value tables are monotone in every state variable."""
    t0 = time.monotonic()
    counts = {}
    for name in ("two_source", "single_source", "benchmark"):
        _, kernel, vt, _, _ = _solved(name)
        counts[name] = len(check_value_monotone_age(kernel.indexer, vt.values))
    elapsed = time.monotonic() - t0
    ok = all(c == 0 for c in counts.values()) and elapsed < 60.0
    _report(2, ok, f"violations {counts}, {elapsed:.1f}s")
    assert counts == {name: 0 for name in counts}
    assert elapsed < 60.0


def test_criterion_3_threshold_structure():
    """Exact policies have the proven threshold structure."""
    counts = {}
    for name in ("two_source", "single_source", "benchmark"):
        config, kernel, _, pt, _ = _solved(name)
        counts[f"{name}/aoi"] = len(check_threshold_aoi(kernel.indexer, pt.actions))
        if config.num_sources == 1:
            counts[f"{name}/state"] = len(
                check_threshold_single_source(kernel.indexer, pt.actions, config, "age")
            )
    config, kernel, _, pt, _ = _solved("single_source_throughput")
    counts["throughput/state"] = len(
        check_threshold_single_source(kernel.indexer, pt.actions, config, "throughput")
    )
    ok = all(c == 0 for c in counts.values())
    _report(3, ok, f"violations {counts}")
    assert counts == {name: 0 for name in counts}


def test_criterion_4_age_vs_throughput_difference():
    """The age- and throughput-optimal policies have different structures.

    The age policy depends on AoI, which the throughput state does not
    carry, and the two policies split at higher AoI. At every AoI-1 state
    where they disagree, each objective strictly prefers its own action
    under exact evaluation: the throughput action raises the exact average
    AoI of the age policy, and the age action (at that state, and over the
    whole AoI-1 slice) lowers the exact throughput. Agreement at AoI 1 is
    not a property of the model.
    """
    _, age_kernel, _, age_pt, _ = _solved("single_source")
    _, thr_kernel, _, thr_pt, _ = _solved("single_source_throughput")
    report = diff_policies(
        age_pt.actions, thr_pt.actions, age_kernel.indexer, thr_kernel.indexer
    )
    later_differ = any(c > 0 for a, c in report.per_aoi_counts.items() if a > 1)

    pa = age_pt.actions.reshape(age_kernel.indexer.dims)  # (b, A, g, h)
    pt = thr_pt.actions.reshape(thr_kernel.indexer.dims)  # (b, g, h)
    aoi_columns = int((pa != pa[:, :1]).any(axis=1).sum())
    aoi_dependent = aoi_columns > 0

    age_gain = evaluate_policy(age_kernel, age_pt.actions)
    thr_gain = evaluate_policy(thr_kernel, thr_pt.actions)
    age_margin = 1e-7 * abs(age_gain)
    thr_margin = 1e-7 * abs(thr_gain)
    fresh = []  # (state, age action, throughput action, AoI rise, throughput drop)
    for b, g, h in np.argwhere(pa[:, 0] != pt):
        age_swapped = pa.copy()
        age_swapped[b, 0, g, h] = pt[b, g, h]
        thr_swapped = pt.copy()
        thr_swapped[b, g, h] = pa[b, 0, g, h]
        fresh.append(
            (
                (int(b), 1, int(g) + 1, int(h) + 1),
                action_name(int(pa[b, 0, g, h])),
                action_name(int(pt[b, g, h])),
                evaluate_policy(age_kernel, age_swapped.ravel()) - age_gain,
                thr_gain - evaluate_policy(thr_kernel, thr_swapped.ravel()),
            )
        )
    slice_drop = thr_gain - evaluate_policy(thr_kernel, pa[:, 0].ravel())
    fresh_prefer_own = all(
        rise > age_margin and drop > thr_margin for *_, rise, drop in fresh
    )
    slice_worse = slice_drop > thr_margin

    ok = later_differ and aoi_dependent and fresh_prefer_own and slice_worse
    fresh_detail = "; ".join(
        f"{state} age {a_act} vs thr {t_act}: AoI {rise:+.2e}, "
        f"throughput {-drop:+.0f} bit/slot"
        for state, a_act, t_act, rise, drop in fresh
    )
    _report(
        4,
        ok,
        f"per-AoI disagreements {report.per_aoi_counts}; "
        f"{aoi_columns} AoI-dependent (b,g,h) columns; "
        f"AoI-1 exact penalties [{fresh_detail}]; "
        f"age AoI-1 slice as throughput policy {-slice_drop:+.0f} bit/slot",
    )
    assert later_differ
    assert aoi_dependent, "the age-optimal policy does not depend on AoI"
    assert fresh_prefer_own, (
        "an objective does not strictly prefer its own action at AoI 1 "
        f"(margins {age_margin:.2e} AoI, {thr_margin:.2e} bit/slot): {fresh}"
    )
    assert slice_worse, (
        "the age policy's AoI-1 slice is throughput-optimal "
        f"(drop {slice_drop:.3e} bit/slot, margin {thr_margin:.2e})"
    )


def _eps_rollout(config, policy, epsilon, slots, seed):
    rng = np.random.default_rng(seed)

    def noisy(state):
        feas = feasible_actions(config, state)
        if rng.random() < epsilon:
            return int(feas[rng.integers(len(feas))])
        return policy(state)

    return simulate_policy(config, noisy, slots, seed + 1).avg_weighted_aoi


def test_criterion_5_learning_convergence():
    """Both learners reach the exact optimum on the benchmark scenario."""
    config, kernel, vt, _, _ = _solved("benchmark")
    opt = vt.gain
    t0 = time.monotonic()

    tab_gaps = []
    for seed in (0, 1, 2):
        qt, _ = train_tabular(config, 200_000, seed, kernel=kernel)
        gain = evaluate_policy(kernel, qt.greedy_policy())
        tab_gaps.append(abs(gain - opt) / opt)
    tab_pass = sum(g <= 0.05 for g in tab_gaps)

    dqn_gaps = []
    results = []
    for seed in (0, 1, 2):
        result = train_dqn(config, DqnHyperparams(total_slots=60_000, seed=seed))
        results.append(result)
        gain = evaluate_policy(kernel, tabulate_policy(result.network, kernel))
        dqn_gaps.append(abs(gain - opt) / opt)
    dqn_pass = sum(g <= 0.10 for g in dqn_gaps)

    best = results[int(np.argmin(dqn_gaps))]
    greedy_gap = abs(
        evaluate_policy(kernel, tabulate_policy(best.network, kernel)) - opt
    )
    explore_gap = abs(_eps_rollout(config, best.greedy_policy, 0.05, 20_000, 99) - opt)
    elapsed = time.monotonic() - t0

    ok = (
        tab_pass >= 2
        and dqn_pass >= 2
        and greedy_gap < explore_gap
        and elapsed < 900.0
    )
    _report(
        5,
        ok,
        f"tabular gaps {[f'{g:.3f}' for g in tab_gaps]} ({tab_pass}/3 within 5%), "
        f"deep gaps {[f'{g:.3f}' for g in dqn_gaps]} ({dqn_pass}/3 within 10%), "
        f"eps=0 gap {greedy_gap:.4f} < eps=0.05 gap {explore_gap:.4f}, {elapsed:.0f}s",
    )
    assert tab_pass >= 2
    assert dqn_pass >= 2
    assert greedy_gap < explore_gap
    assert elapsed < 900.0


def test_criterion_6_gradient_correctness():
    """Backpropagation agrees with central finite differences."""
    rng = np.random.default_rng(6)
    worst = 0.0
    t0 = time.monotonic()
    for _ in range(100):
        sizes = [int(rng.integers(2, 5)), int(rng.integers(3, 8)), int(rng.integers(2, 4))]
        net = QNetwork.create(sizes, rng)
        batch = int(rng.integers(1, 6))
        enc = rng.uniform(size=(batch, sizes[0]))
        actions = rng.integers(0, sizes[-1], size=batch)
        targets = rng.normal(size=batch)
        _, gw, gb = loss_and_grads(net, enc, actions, targets)

        h = 1e-6
        params = [(w, g) for w, g in zip(net.weights, gw)] + [
            (b, g) for b, g in zip(net.biases, gb)
        ]
        for array, grad in params:
            for pos in np.ndindex(array.shape):
                orig = array[pos]
                array[pos] = orig + h
                hi = loss_and_grads(net, enc, actions, targets)[0]
                array[pos] = orig - h
                lo = loss_and_grads(net, enc, actions, targets)[0]
                array[pos] = orig
                fd = (hi - lo) / (2 * h)
                rel = abs(grad[pos] - fd) / max(abs(fd), 1e-6)
                worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    _report(6, ok, f"100 batches, worst relative error {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 30.0


def _exact_sweep_gains(base, parameter, values):
    gains = []
    for value in values:
        if parameter == "battery":
            cfg = with_battery_capacity(base, value * 1e-3)
        else:
            cfg = with_packet_bits(base, value * 1e6)
        vt, _ = solve_rvia(build_kernel(cfg, enumerate_states(cfg)))
        gains.append(vt.gain)
    return gains


def test_criterion_7_parameter_trends():
    """More battery helps, bigger packets hurt — exactly for one source,
    and by majority vote for the learned three-source policies."""
    base = load_config(CONFIGS / "learning_small.yaml")
    three = load_config(CONFIGS / "three_source.yaml")
    battery = _exact_sweep_gains(base, "battery", [0.1, 0.2, 0.3, 0.4, 0.5])
    packet = _exact_sweep_gains(base, "packet", [6.0, 9.0, 12.0, 15.0, 18.0])
    battery_ok = all(a >= b - 1e-9 for a, b in zip(battery, battery[1:]))
    packet_ok = all(a <= b + 1e-9 for a, b in zip(packet, packet[1:]))

    votes_battery = 0
    votes_packet = 0
    for seed in (0, 1, 2):
        ends = []
        for mj in (0.1, 0.5):
            cfg = with_battery_capacity(three, mj * 1e-3)
            result = train_dqn(cfg, DqnHyperparams(total_slots=40_000, seed=seed))
            ends.append(simulate_policy(cfg, result.greedy_policy, 20_000, 123).avg_weighted_aoi)
        votes_battery += ends[1] < ends[0]
        ends = []
        for mbits in (6.0, 18.0):
            cfg = with_packet_bits(three, mbits * 1e6)
            result = train_dqn(cfg, DqnHyperparams(total_slots=40_000, seed=seed))
            ends.append(simulate_policy(cfg, result.greedy_policy, 20_000, 123).avg_weighted_aoi)
        votes_packet += ends[1] > ends[0]

    ok = battery_ok and packet_ok and votes_battery >= 2 and votes_packet >= 2
    _report(
        7,
        ok,
        f"exact battery {[f'{g:.3f}' for g in battery]} "
        f"exact packet {[f'{g:.3f}' for g in packet]}, "
        f"learned votes: battery {votes_battery}/3, packet {votes_packet}/3",
    )
    assert battery_ok, f"battery sweep not non-increasing: {battery}"
    assert packet_ok, f"packet sweep not non-decreasing: {packet}"
    assert votes_battery >= 2
    assert votes_packet >= 2


def test_criterion_8_state_count_guard():
    """A trillion-state request is refused, with the count in the message."""
    cfg = make_config(
        distances=(25.0, 40.0, 20.0), battery_quanta=9, aoi_cap=10, levels=10
    )
    with pytest.raises(SizeLimitError) as err:
        enumerate_states(cfg)
    ok = "1000000000000" in str(err.value)
    _report(8, ok, f"rejected with: {err.value}")
    assert ok
