"""Environment dynamics, energy arithmetic, and config I/O."""

import dataclasses
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_rl.env import (
    HARVEST,
    action_name,
    config_from_dict,
    draw_levels,
    energy_tables,
    feasible_actions,
    harvested_quanta,
    initial_state,
    load_config,
    parse_action,
    simulate_policy,
    stage_cost,
    step,
    transmit_quanta,
    with_packet_bits,
)
from aoi_rl.channel import sample_level
from aoi_rl.errors import InfeasibleActionError, InvalidConfigError
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


def test_energy_tables_warn_when_transmission_impossible():
    cfg = make_config(distances=(300.0,), levels=1, battery_quanta=2)
    with pytest.warns(UserWarning, match="can never transmit"):
        energy_tables(cfg)


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


def test_quanta_tables_match_radio_arithmetic():
    for cfg in _table_configs():
        for i, spec in enumerate(cfg.sources):
            down = range(1, spec.link.levels_downlink + 1)
            up = range(1, spec.link.levels_uplink + 1)
            assert cfg.harvest_table[i] == tuple(harvested_quanta(cfg, i, lv) for lv in down)
            assert cfg.transmit_table[i] == tuple(transmit_quanta(cfg, i, lv) for lv in up)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            e_h, e_t = energy_tables(cfg)
        assert [t.tolist() for t in e_h] == [list(t) for t in cfg.harvest_table]
        assert [t.tolist() for t in e_t] == [list(t) for t in cfg.transmit_table]


def test_quanta_tables_follow_replaced_fields():
    cfg = make_config(levels=6)
    long = with_packet_bits(cfg, 16e6)
    assert long.transmit_table != cfg.transmit_table
    assert long.transmit_table[0] == tuple(transmit_quanta(long, 0, lv) for lv in range(1, 7))


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


def test_simulate_policy_matches_dataclass_reference():
    for n, cfg in enumerate(_table_configs()):
        for policy in _policies(cfg):
            sim, sim_trace = _simulate_traced(cfg, policy, 300, seed=n)
            avg, throughput, trace = _reference_simulate(cfg, policy, 300, seed=n)
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
    (``train_tabular`` indexes ``chan_offsets`` with one uniform draw), while
    the kernel weights them by ``chan_probs``. The two agree only while the
    quantizer bins are equally likely."""
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
