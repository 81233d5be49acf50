"""Environment dynamics, energy arithmetic, and config I/O."""

import dataclasses
import itertools
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_rl import env
from aoi_rl.env import (
    HARVEST,
    action_name,
    config_from_dict,
    draw_levels,
    feasible_actions,
    harvested_quanta,
    initial_state,
    load_config,
    parse_action,
    simulate_policy,
    stage_cost,
    step,
    transmit_quanta,
    with_battery_capacity,
    with_packet_bits,
)
from aoi_rl.channel import sample_level
from aoi_rl.cli import main
from aoi_rl.errors import InfeasibleActionError, InvalidConfigError, SizeLimitError
from aoi_rl.mdp import build_kernel, enumerate_states

from conftest import make_config, random_tiny_config

CONFIG_FILES = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))


# --- radio arithmetic, checked against independent hand formulas ----------


def test_power_conversions():
    cfg = make_config()
    assert cfg.tx_power_watts == pytest.approx(10 ** ((37.0 - 30.0) / 10.0))
    assert cfg.tx_power_watts == pytest.approx(5.011872, rel=1e-6)
    assert cfg.noise_watts == pytest.approx(3.162278e-13, rel=1e-6)
    assert cfg.spectral_load == pytest.approx(12.0)


def test_harvested_quanta_hand_value():
    # One channel level makes the representative gain exactly the mean
    # 0.2 / 25^2; the quanta arithmetic is then pure hand algebra.
    cfg = make_config(levels=1)
    gain = 0.2 / 625.0
    x = (3 / 0.3e-3) * 0.5 * 10 ** (0.7) * gain
    assert harvested_quanta(cfg, 0, 1) == math.floor(x) == 8


def test_transmit_quanta_hand_value():
    cfg = make_config(levels=1)
    gain = 0.2 / 625.0
    x = (3 / 0.3e-3) * (10 ** (-12.5) / gain) * (2**12 - 1)
    assert transmit_quanta(cfg, 0, 1) == math.ceil(x) == 1
    assert 0 < x < 1  # the ceiling is doing real work here


def test_upper_bound_mode_swaps_rounding():
    lower = make_config(levels=1)
    upper = make_config(levels=1, rounding_mode="upper-bound")
    assert harvested_quanta(upper, 0, 1) == harvested_quanta(lower, 0, 1) + 1
    assert transmit_quanta(upper, 0, 1) == transmit_quanta(lower, 0, 1) - 1


def test_transmit_cost_decreases_with_uplink_level():
    cfg = make_config(levels=8)
    costs = [transmit_quanta(cfg, 0, lv) for lv in range(1, 9)]
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    assert min(costs) >= 1  # ceil of a positive number under lower-bound


def test_harvest_increases_with_downlink_level():
    cfg = make_config(levels=8)
    gains = [harvested_quanta(cfg, 0, lv) for lv in range(1, 9)]
    assert all(a <= b for a, b in zip(gains, gains[1:]))


def _cannot_transmit(builder, tmp_path):
    """A source 300 m out whose one uplink level costs 4 quanta of 0.15 mJ,
    with a 2-quantum battery, built the ``builder`` way."""
    if builder == "make_config":
        return make_config(distances=(300.0,), levels=1, battery_quanta=2)
    if builder == "load_config":
        data = _config_dict()
        data["sources"][0].update(
            distance_m=300.0, battery_quanta=2, levels_downlink=1, levels_uplink=1
        )
        path = tmp_path / "far.yaml"
        path.write_text(yaml.safe_dump(data))
        return load_config(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a 4-quantum battery can pay for it
        roomy = make_config(distances=(300.0,), levels=1, battery_quanta=4, battery_mj=0.6)
    return with_battery_capacity(roomy, 0.3e-3)


@pytest.mark.parametrize("builder", ["make_config", "load_config", "with_battery_capacity"])
def test_config_warns_when_transmission_impossible(builder, tmp_path):
    """The config warns once, when it is built; building its kernel does not
    warn again."""
    with pytest.warns(UserWarning) as record:
        cfg = _cannot_transmit(builder, tmp_path)
    assert [str(w.message) for w in record] == [
        "source 1 can never transmit: minimum transmit cost 4 quanta exceeds battery capacity 2"
    ]
    assert transmit_quanta(cfg, 0, 1) == 4 and cfg.sources[0].battery_quanta == 2
    assert cfg.spent[0].tolist() == [[-1], [-1], [-1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = build_kernel(cfg, enumerate_states(cfg))
    assert not kernel.transmit_ok[0].any()


# --- per-slot dynamics ----------------------------------------------------


# states are (battery, AoI - 1, downlink - 1, uplink - 1) per source; channel
# levels are ((downlinks...), (uplinks...)), 0-based
ONE_LEVEL = ((0,), (0,))


def test_step_harvest_caps_battery_and_ages():
    cfg = make_config(levels=1)
    battery, aoi, _, _ = step(cfg, (2, 0, 0, 0), HARVEST, ONE_LEVEL)
    assert battery == 3  # 2 + 8 harvested, clamped at b_max = 3
    assert aoi + 1 == 2


def test_step_transmit_resets_aoi_and_spends_energy():
    cfg = make_config(levels=1)
    battery, aoi, _, _ = step(cfg, (3, 3, 0, 0), 1, ONE_LEVEL)
    assert battery == 2
    assert aoi + 1 == 1


def test_step_aoi_saturates_at_cap():
    cfg = make_config(levels=1, aoi_cap=4)
    assert step(cfg, (0, 3, 0, 0), HARVEST, ONE_LEVEL)[1] + 1 == 4


def test_step_infeasible_transmit_raises():
    cfg = make_config(levels=1)
    with pytest.raises(InfeasibleActionError):
        step(cfg, (0, 0, 0, 0), 1, ONE_LEVEL)


@pytest.mark.parametrize("action", [-1, 2, 5])
def test_step_out_of_range_action_raises(action):
    cfg = make_config(levels=1)
    with pytest.raises(InfeasibleActionError):
        step(cfg, (3, 0, 0, 0), action, ONE_LEVEL)


def test_step_two_sources_only_chosen_source_resets():
    cfg = make_config(distances=(25.0, 40.0), levels=1)
    nxt = step(cfg, (3, 1, 0, 0, 1, 1, 0, 0), 1, ((0, 0), (0, 0)))
    assert nxt[1] + 1 == 1
    assert nxt[5] + 1 == 3
    assert nxt[4] == 1  # untouched while source 1 transmits


def test_stage_cost_weighted_sum():
    cfg = make_config(distances=(25.0, 40.0), weights=[0.25, 0.75])
    assert stage_cost(cfg, (0, 1, 0, 0, 0, 3, 0, 0)) == pytest.approx(0.25 * 2 + 0.75 * 4)


def test_feasible_actions_depend_on_battery_and_uplink():
    cfg = make_config(levels=1)
    assert feasible_actions(cfg, (3, 0, 0, 0)) == [HARVEST, 1]
    assert feasible_actions(cfg, (0, 0, 0, 0)) == [HARVEST]


@given(battery=st.integers(0, 3), aoi=st.integers(1, 4), action=st.integers(0, 1))
@settings(max_examples=80, deadline=None)
def test_step_keeps_state_in_bounds(battery, aoi, action):
    cfg = make_config(levels=1)
    if action == 1 and battery < transmit_quanta(cfg, 0, 1):
        return
    nxt_battery, nxt_aoi, _, _ = step(cfg, (battery, aoi - 1, 0, 0), action, ONE_LEVEL)
    assert 0 <= nxt_battery <= 3
    assert 1 <= nxt_aoi + 1 <= 4


# packet sizes chosen so that transmit costs differ across uplink levels
STEPPER_CASES = {
    "one-source": make_config(levels=3, levels_uplink=2, packet_mbits=15.0),
    "two-source": make_config(
        distances=(25.0, 40.0), battery_quanta=2, aoi_cap=3, levels=2, levels_uplink=3,
        weights=[0.3, 0.7], packet_mbits=16.0,
    ),
    "correlated": make_config(
        distances=(25.0, 40.0), battery_quanta=2, aoi_cap=3, levels=3, correlated_links=True,
        packet_mbits=15.0,
    ),
    "upper-bound": make_config(levels=4, rounding_mode="upper-bound"),
}


def _level_combos(config):
    """(downlinks, uplinks) per channel combination, in the kernel's order:
    per source its downlink then its uplink group (one shared group under
    correlated links), the first group varying slowest."""
    groups = []
    for spec in config.sources:
        groups.append(range(spec.link.levels_downlink))
        if not config.correlated_links:
            groups.append(range(spec.link.levels_uplink))
    for combo in itertools.product(*groups):
        if config.correlated_links:
            yield combo, combo
        else:
            yield combo[0::2], combo[1::2]


@pytest.mark.parametrize("name", list(STEPPER_CASES))
def test_stepper_matches_kernel(name):
    """The slot stepper against the exact kernel, built independently by
    array arithmetic: every state, action and channel combination."""
    cfg = STEPPER_CASES[name]
    kernel = build_kernel(cfg, enumerate_states(cfg))
    index = kernel.indexer.state_to_index
    combos = list(_level_combos(cfg))
    assert len(combos) == len(kernel.chan_offsets)
    for s in range(kernel.total_states):
        state = kernel.indexer.index_to_state(s)
        assert feasible_actions(cfg, state) == np.flatnonzero(kernel.feasible[s]).tolist()
        assert stage_cost(cfg, state) == pytest.approx(kernel.cost[s], abs=1e-12, rel=0)
        for a in range(kernel.num_actions):
            if not kernel.feasible[s, a]:
                with pytest.raises(InfeasibleActionError):
                    step(cfg, state, a, combos[0])
                continue
            landed = [index(step(cfg, state, a, levels)) for levels in combos]
            assert landed == (kernel.succ_full[s, a] + kernel.chan_offsets).tolist()


def test_action_names_round_trip():
    assert action_name(HARVEST) == "H"
    assert action_name(2) == "T2"
    assert parse_action("H") == HARVEST
    assert parse_action("T3") == 3
    with pytest.raises(ValueError):
        parse_action("X1")


@pytest.mark.parametrize("label", ["T0", "T-0", "T01", "T+1", "T 1", "T\u0661", "T", "T1 "])
def test_parse_action_reads_only_the_labels_action_name_writes(label):
    with pytest.raises(ValueError, match="unrecognized action label"):
        parse_action(label)
    assert [parse_action(action_name(a)) for a in range(12)] == list(range(12))


# --- simulation -----------------------------------------------------------


def _simulate_traced(config, policy, horizon, seed):
    """``simulate_policy``, plus the (state, action) pair of every slot as
    the policy saw and chose it."""
    trace = []

    def recorded(state):
        action = policy(state)
        trace.append((state, action))
        return action

    return simulate_policy(config, recorded, horizon, seed), trace


def test_simulate_policy_deterministic_per_seed():
    cfg = make_config()
    policy = lambda state: HARVEST  # noqa: E731
    a, a_trace = _simulate_traced(cfg, policy, 200, seed=5)
    b, b_trace = _simulate_traced(cfg, policy, 200, seed=5)
    _, c_trace = _simulate_traced(cfg, policy, 200, seed=6)
    assert a.avg_weighted_aoi == b.avg_weighted_aoi
    assert a_trace == b_trace
    assert a_trace != c_trace  # different seed, different channel draws


def test_simulate_always_harvest_pins_aoi_at_cap():
    cfg = make_config(aoi_cap=4)
    sim = simulate_policy(cfg, lambda s: HARVEST, 5000, seed=0)
    # AoI climbs 1,2,3 then sticks at 4 forever
    assert sim.avg_weighted_aoi == pytest.approx(4.0, abs=0.01)
    assert sim.avg_throughput_bits == 0.0


def test_simulate_policy_validates_feasibility():
    cfg = make_config(levels=1)
    greedy_transmit = lambda s: 1  # noqa: E731
    # from a full battery transmitting every slot eventually runs dry
    with pytest.raises(InfeasibleActionError):
        simulate_policy(cfg, greedy_transmit, 100, seed=0)


def test_simulate_policy_refuses_an_empty_horizon():
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        simulate_policy(make_config(), lambda s: HARVEST, 0, seed=0)


def test_simulate_records_trace_and_initial_state():
    cfg = make_config()
    _, trace = _simulate_traced(cfg, lambda s: HARVEST, 10, seed=0)
    assert len(trace) == 10
    first_state, first_action = trace[0]
    assert first_state == initial_state(cfg)
    assert first_action == HARVEST


def test_correlated_links_tie_levels_together():
    cfg = make_config(correlated_links=True)
    _, trace = _simulate_traced(cfg, lambda s: HARVEST, 500, seed=1)
    for state, _ in trace:
        assert state[2] == state[3]


def _table_configs():
    rng = np.random.default_rng(17)
    return [random_tiny_config(rng) for _ in range(30)] + [
        make_config(distances=(25.0, 40.0), levels=5, levels_uplink=3),
        make_config(rounding_mode="upper-bound", levels=8),
        make_config(correlated_links=True, levels=6),
    ]


def _successor_lists(cfg, i):
    """Source ``i``'s charged, spent and aged arrays as nested lists, written
    out from the radio arithmetic one 0-based value at a time."""
    spec = cfg.sources[i]
    cap, down, up = spec.battery_quanta, spec.link.levels_downlink, spec.link.levels_uplink
    batteries = range(cap + 1)
    charged = [[min(cap, b + harvested_quanta(cfg, i, g + 1)) for g in range(down)] for b in batteries]
    spent = [
        [b - transmit_quanta(cfg, i, h + 1) if b >= transmit_quanta(cfg, i, h + 1) else -1 for h in range(up)]
        for b in batteries
    ]
    return charged, spent, [min(spec.aoi_cap - 1, a + 1) for a in range(spec.aoi_cap)]


def test_successor_arrays_match_radio_arithmetic():
    for cfg in _table_configs():
        for i in range(cfg.num_sources):
            arrays = (cfg.charged[i], cfg.spent[i], cfg.aged[i])
            assert [a.tolist() for a in arrays] == list(_successor_lists(cfg, i))
            for a in arrays:
                assert a.dtype == np.int64 and not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0
        assert isinstance(cfg.charged, tuple) and isinstance(cfg.spent, tuple) and isinstance(cfg.aged, tuple)


def test_successor_arrays_follow_replaced_fields():
    cfg = make_config(levels=6)
    long = with_packet_bits(cfg, 16e6)
    assert long.spent[0].tolist() != cfg.spent[0].tolist()
    assert long.spent[0].tolist() == _successor_lists(long, 0)[1]
    roomy = with_battery_capacity(cfg, 0.6e-3)
    assert [a.tolist() for a in (roomy.charged[0], roomy.spent[0])] == list(_successor_lists(roomy, 0)[:2])


def test_successor_arrays_clip_huge_gains_and_costs():
    """A harvest or a cost beyond any int64 charges to the capacity or
    cannot be paid."""
    cfg = make_config(distances=(1e-120,), levels=2)
    assert harvested_quanta(cfg, 0, 1) > 2**64
    assert cfg.charged[0].tolist() == [[3, 3]] * 4
    with pytest.warns(UserWarning, match="source 1 can never transmit"):
        far = make_config(distances=(1e150,), levels=2)
    assert transmit_quanta(far, 0, 1) > 2**64
    assert far.spent[0].tolist() == [[-1, -1]] * 4


@pytest.mark.parametrize(
    "build, quantity",
    [
        (lambda: with_packet_bits(make_config(), 2000e6), "source 1's transmit energy"),
        (lambda: make_config(packet_mbits=2000.0), "source 1's transmit energy"),
        (lambda: make_config(distances=(25.0, 1e-200)), "source 2's mean channel gain"),
        (lambda: make_config(distances=(1e-154,)), "source 1's harvested energy"),
        (lambda: make_config(distances=(1e160,)), "source 1's transmit energy"),
        (lambda: dataclasses.replace(make_config(), tx_power_dbm=5000.0), "the transmit power"),
        (lambda: dataclasses.replace(make_config(), noise_power_dbm=5000.0), "the noise power"),
    ],
    ids=["with-packet-bits", "packet", "distance", "harvest", "far", "tx-power", "noise"],
)
def test_config_refuses_energy_arithmetic_that_overflows(build, quantity):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused, not warned about
        with pytest.raises(InvalidConfigError, match=f"^{re.escape(quantity)} lies outside the floating-point range$"):
            build()


def test_config_refuses_slot_model_above_its_byte_guard():
    spec = make_config().sources[0]
    huge = dataclasses.replace(spec, battery_quanta=10**12, battery_capacity_joules=1e2)
    with pytest.raises(SizeLimitError, match=r"^source 1's slot model needs 64000000000096 bytes, exceeding 268435456$"):
        dataclasses.replace(make_config(), sources=(huge,))
    # a capacity beyond float range is no whole number of quanta
    with pytest.raises(InvalidConfigError, match="not a whole number"):
        with_battery_capacity(make_config(), 1e305)


def test_successor_arrays_are_left_out_of_equality():
    hidden = {f.name for f in dataclasses.fields(env.SystemConfig) if not f.compare}
    assert {"charged", "spent", "aged", "weights"} <= hidden
    # one level each: the quantizers' gain arrays then compare as one bool
    assert make_config(levels=1) == make_config(levels=1)
    assert make_config(levels=1) != make_config(levels=1, packet_mbits=16.0)


def _sources(state):
    """Per source (battery, AoI, downlink level, uplink level), AoI and levels 1-based."""
    return [(b, a + 1, g + 1, h + 1) for b, a, g, h in zip(*[iter(state)] * 4)]


def _reference_simulate(config, policy, horizon, seed):
    """The rollout as it reads on the radio arithmetic alone: quanta
    recomputed every slot, every downlink level drawn before any uplink."""
    rng = np.random.default_rng(seed)
    state = initial_state(config)
    total_cost, transmit_slots, trace = 0.0, 0, []
    for _ in range(horizon):
        action = policy(state)
        sources = _sources(state)
        if action != HARVEST:
            battery, _, _, h_level = sources[action - 1]
            if battery < transmit_quanta(config, action - 1, h_level):
                raise InfeasibleActionError(f"policy chose {action} at {state}")
        total_cost += sum(spec.weight * aoi for spec, (_, aoi, _, _) in zip(config.sources, sources))
        if action == 1 and config.num_sources == 1:
            transmit_slots += 1
        trace.append((state, action))
        down = [sample_level(gq, rng) for gq in config.downlink_quantizers]
        up = down if config.correlated_links else [sample_level(hq, rng) for hq in config.uplink_quantizers]
        out = []
        for j, (spec, (battery, aoi, g_level, h_level)) in enumerate(zip(config.sources, sources)):
            if action == HARVEST:
                battery = min(spec.battery_quanta, battery + harvested_quanta(config, j, g_level))
            elif action == j + 1:
                battery = battery - transmit_quanta(config, j, h_level)
            aoi = 1 if action == j + 1 else min(spec.aoi_cap, aoi + 1)
            out += (battery, aoi - 1, down[j] - 1, up[j] - 1)
        state = tuple(out)
    throughput = transmit_slots * config.packet_bits / horizon if config.num_sources == 1 else None
    return total_cost / horizon, throughput, trace


def _affordable(config, state):
    return [HARVEST] + [
        i + 1
        for i, (battery, _, _, h_level) in enumerate(_sources(state))
        if battery >= transmit_quanta(config, i, h_level)
    ]


def _policies(config):
    def oldest_affordable(state):
        acts = _affordable(config, state)
        return max(acts, key=lambda a: (a != HARVEST and _sources(state)[a - 1][1], -a))

    def scrambled(state):
        acts = _affordable(config, state)
        key = sum((7 * k + 3) * (battery + 5 * aoi + 11 * g_level + 13 * h_level)
                  for k, (battery, aoi, g_level, h_level) in enumerate(_sources(state)))
        return acts[key % len(acts)]

    return [lambda state: HARVEST, oldest_affordable, scrambled]


def test_simulate_policy_matches_dataclass_reference(monkeypatch):
    configs = _table_configs()
    block = env._DRAW_BLOCK
    # 300 slots fit one level-draw block; the other rollouts cross blocks:
    # a small block on every config, and the real one on the three larger
    for horizon, draw_block, cases in [
        (300, block, configs),
        (300, 64, configs),
        (2 * block + 300, block, configs[-3:]),
    ]:
        monkeypatch.setattr(env, "_DRAW_BLOCK", draw_block)
        for n, cfg in enumerate(cases):
            for policy in _policies(cfg):
                sim, sim_trace = _simulate_traced(cfg, policy, horizon, seed=n)
                avg, throughput, trace = _reference_simulate(cfg, policy, horizon, seed=n)
                assert sim.avg_weighted_aoi == avg
                assert sim.avg_throughput_bits == throughput
                assert sim_trace == trace


def test_simulate_policy_cost_memo_matches_per_slot_cost():
    """The rollout's per-AoI-tuple cost memo adds the same floats as the
    per-slot dot product, weights that do not sum exactly included."""
    # weights in the ratio 0.7 : 1.3, scaled to sum to one
    config = make_config(distances=(25.0, 40.0), aoi_cap=6, levels=2, weights=[0.35, 0.65])
    for policy in _policies(config):
        rng = np.random.default_rng(11)
        state, total, trace = initial_state(config), 0.0, []
        for _ in range(2000):
            action = policy(state)
            total += float(config.weights @ (np.array(state[1::4]) + 1))
            trace.append((state, action))
            state = step(config, state, action, draw_levels(config, rng))
        sim, sim_trace = _simulate_traced(config, policy, 2000, seed=11)
        assert sim.avg_weighted_aoi == total / 2000
        assert sim_trace == trace
    assert len({s[1::4] for s, _ in trace}) > 10  # many AoI tuples were visited


# --- config construction and file I/O ------------------------------------


def _config_dict():
    return {
        "tx_power_dbm": 37.0,
        "harvest_efficiency": 0.5,
        "noise_power_dbm": -95.0,
        "packet_mbits": 12.0,
        "bandwidth_mhz": 1.0,
        "reference_gain": 0.2,
        "path_loss_exponent": 2.0,
        "rounding_mode": "lower-bound",
        "sources": [
            {
                "distance_m": 25.0,
                "battery_capacity_mj": 0.3,
                "battery_quanta": 3,
                "aoi_cap": 4,
                "weight": 1.0,
                "levels_downlink": 4,
                "levels_uplink": 4,
            }
        ],
    }


def test_config_yaml_round_trip(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(_config_dict()))
    cfg = load_config(path)
    ref = config_from_dict(_config_dict())
    assert cfg.sources == ref.sources
    assert cfg.rounding_mode == ref.rounding_mode
    assert cfg.sources[0].battery_capacity_joules == pytest.approx(0.3e-3)
    assert cfg.packet_bits == pytest.approx(12e6)
    assert cfg.bandwidth_hz == pytest.approx(1e6)


def test_config_missing_key_raises(tmp_path):
    data = _config_dict()
    del data["sources"][0]["battery_quanta"]
    with pytest.raises(InvalidConfigError, match="battery_quanta"):
        config_from_dict(data)


def test_config_weights_must_sum_to_one():
    data = _config_dict()
    data["sources"][0]["weight"] = 0.5
    with pytest.raises(InvalidConfigError, match="sum to 1"):
        config_from_dict(data)


def test_config_rejects_unknown_rounding_mode():
    data = _config_dict()
    data["rounding_mode"] = "nearest"
    with pytest.raises(InvalidConfigError, match="rounding"):
        config_from_dict(data)


def test_config_rejects_unknown_top_level_key():
    data = _config_dict()
    data["packet_bits"] = 12e6
    with pytest.raises(InvalidConfigError, match="packet_bits.*top level"):
        config_from_dict(data)


def test_config_rejects_seed_key():
    """The run seed comes from the command line; a scenario holds none."""
    data = _config_dict()
    data["seed"] = 3
    with pytest.raises(InvalidConfigError, match="seed.*top level"):
        config_from_dict(data)
    del data["seed"]
    assert "seed" not in {f.name for f in dataclasses.fields(config_from_dict(data))}


def test_config_rejects_per_source_correlated_links():
    data = _config_dict()
    data["sources"][0]["correlated_links"] = True
    with pytest.raises(InvalidConfigError, match="correlated_links.*source 1"):
        config_from_dict(data)


@pytest.mark.parametrize("sources", [5, [5], ["distance_m"]])
def test_config_rejects_malformed_sources(sources):
    data = _config_dict()
    data["sources"] = sources
    with pytest.raises(InvalidConfigError, match="sources|source 1"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "key, value, where",
    [
        ("correlated_links", "false", "top level"),
        ("correlated_links", 1, "top level"),
        ("battery_quanta", 2.7, "source 1"),
        ("levels_downlink", 1.9, "source 1"),
        ("battery_quanta", True, "source 1"),
        ("battery_quanta", "x", "source 1"),
        ("aoi_cap", None, "source 1"),
        ("weight", True, "source 1"),
        ("tx_power_dbm", None, "top level"),
        ("tx_power_dbm", "37", "top level"),
        ("tx_power_dbm", float("nan"), "top level"),
        ("distance_m", float("inf"), "source 1"),
        ("aoi_cap", float("inf"), "source 1"),
        ("packet_mbits", False, "top level"),
    ],
)
def test_config_refuses_values_of_the_wrong_type(key, value, where):
    data = _config_dict()
    (data if where == "top level" else data["sources"][0])[key] = value
    with pytest.raises(InvalidConfigError, match=f"{key}.*{where}"):
        config_from_dict(data)


def _set_source(key, value):
    return lambda data: data["sources"][0].update({key: value})


_EFFICIENCY = r"harvest efficiency must be in \(0, 1\]"
# a config value out of its range, and the refusal it gets
_OUT_OF_RANGE = {
    "battery_quanta": (_set_source("battery_quanta", 0), "battery_quanta must be >= 1"),
    "aoi_cap": (_set_source("aoi_cap", 0), "aoi_cap must be >= 1"),
    "weight": (_set_source("weight", -1.0), "weights must be non-negative"),
    "capacity-zero": (_set_source("battery_capacity_mj", 0.0), "battery capacity must be positive"),
    "capacity-negative": (_set_source("battery_capacity_mj", -0.3), "battery capacity must be positive"),
    "no-sources": (lambda data: data.update(sources=[]), "at least one source is required"),
    "efficiency-zero": (lambda data: data.update(harvest_efficiency=0.0), _EFFICIENCY),
    "efficiency-above-one": (lambda data: data.update(harvest_efficiency=1.5), _EFFICIENCY),
    "packet": (lambda data: data.update(packet_mbits=0.0), "packet size and bandwidth must be positive"),
    "bandwidth": (lambda data: data.update(bandwidth_mhz=-1.0), "packet size and bandwidth must be positive"),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
def test_config_refuses_values_out_of_range(tmp_path, capsys, case):
    """``load_config`` refuses a value out of its range, and the CLI turns
    that into one error line and exit status 2 with no output created."""
    change, message = _OUT_OF_RANGE[case]
    data = _config_dict()
    change(data)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data))
    with pytest.raises(InvalidConfigError, match=f"^{message}$"):
        load_config(path)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert re.fullmatch(f"aoi-rl solve: error: cannot use config {re.escape(str(path))}: {message}", line)
    assert not out.exists()


@pytest.mark.parametrize(
    "name, quantum_mj, capacities_mj",
    [("learning_small.yaml", 0.1, (0.1, 0.2, 0.3, 0.4, 0.5)),
     ("single_source_large.yaml", 0.1 / 3, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6))],
)
def test_battery_sweep_keeps_the_energy_quantum(name, quantum_mj, capacities_mj):
    """A swept capacity holds a whole number of the config's quanta; one
    that does not is refused rather than given another quantum."""
    config = load_config(CONFIG_FILES[0].parent / name)
    for mj in capacities_mj:
        [spec] = with_battery_capacity(config, mj * 1e-3).sources
        assert spec.battery_quanta == round(mj / quantum_mj)
        assert spec.battery_capacity_joules / spec.battery_quanta == pytest.approx(quantum_mj * 1e-3)
    for mj in (quantum_mj * 2.5, quantum_mj * 0.4, quantum_mj * (1 + 1e-6)):
        with pytest.raises(InvalidConfigError, match=f"battery capacity {mj:g} mJ is not a whole number of source 1's"):
            with_battery_capacity(config, mj * 1e-3)


def test_config_takes_integral_floats_for_integer_keys():
    data = _config_dict()
    data["sources"][0].update(battery_quanta=3.0, levels_uplink=4.0)
    config = config_from_dict(data)
    assert config.sources == config_from_dict(_config_dict()).sources
    assert type(config.sources[0].battery_quanta) is int


def test_config_accepts_top_level_correlated_links():
    data = _config_dict()
    data["correlated_links"] = True
    assert config_from_dict(data).correlated_links


# source count and age state count of each committed config
_COMMITTED = {
    "learning_small.yaml": (1, 256),
    "single_source_large.yaml": (1, 10_000),
    "two_source.yaml": (2, 1_679_616),
    "three_source.yaml": (3, 16_777_216),
}


@pytest.mark.parametrize("path", CONFIG_FILES, ids=lambda p: p.name)
def test_committed_config_files_load(path):
    config = load_config(path)
    assert (config.num_sources, enumerate_states(config).total_states) == _COMMITTED[path.name]


@pytest.mark.parametrize("path", [*CONFIG_FILES, None], ids=lambda p: p.name if p else "correlated")
def test_channel_combinations_are_equiprobable(path):
    """The learners and ``draw_levels`` pick channel combinations uniformly
    (``train_tabular`` indexes ``chan_offsets`` with one uniform draw), and
    the kernel weights them by ``chan_probs``: 1/m each."""
    config = load_config(path) if path else make_config(correlated_links=True)
    kernel = build_kernel(config, enumerate_states(config))
    probs = kernel.chan_probs
    assert np.all(probs == probs[0])
    assert probs[0] * len(probs) == pytest.approx(1.0, rel=1e-12)


def test_correlated_links_require_matching_level_counts():
    with pytest.raises(InvalidConfigError, match="correlated_links"):
        make_config(levels=4, levels_uplink=3, correlated_links=True)


def test_config_file_must_hold_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(InvalidConfigError):
        load_config(path)
