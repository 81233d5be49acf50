"""Canonical experiment scenarios used throughout the test and demo suite.

All share the same radio physics: 1 MHz bandwidth, 37 dBm transmit power,
50% harvesting efficiency, -95 dBm noise, reference gain 0.2 and
path-loss exponent 2.
"""

from __future__ import annotations

import dataclasses

from .env import SystemConfig, config_from_dict

_BASE = {
    "tx_power_dbm": 37.0,
    "harvest_efficiency": 0.5,
    "noise_power_dbm": -95.0,
    "bandwidth_mhz": 1.0,
    "reference_gain": 0.2,
    "path_loss_exponent": 2.0,
    "rounding_mode": "lower-bound",
}


def _scenario(distances, battery_mj, packet_mbits, aoi_cap, levels, battery_quanta) -> dict:
    n = len(distances)
    return {
        **_BASE,
        "packet_mbits": packet_mbits,
        "sources": [
            {
                "distance_m": d,
                "battery_capacity_mj": battery_mj,
                "battery_quanta": battery_quanta,
                "aoi_cap": aoi_cap,
                "weight": 1.0 / n,
                "levels_downlink": levels,
                "levels_uplink": levels,
            }
            for d in distances
        ],
    }


def two_source_policy_map_dict() -> dict:
    """Two sources at 25/40 m, 0.4 mJ batteries, 15 Mbit packets,
    six levels everywhere."""
    return _scenario([25.0, 40.0], 0.4, 15.0, aoi_cap=6, levels=6, battery_quanta=5)


def single_source_comparison_dict() -> dict:
    """One source at 35 m, 0.3 mJ battery, 12 Mbit packets, ten levels;
    used for the age-vs-throughput policy comparison."""
    return _scenario([35.0], 0.3, 12.0, aoi_cap=10, levels=10, battery_quanta=9)


def learning_benchmark_dict() -> dict:
    """One source at 25 m, 0.3 mJ battery, 12 Mbit packets, four levels;
    small enough to solve exactly and to learn quickly."""
    return _scenario([25.0], 0.3, 12.0, aoi_cap=4, levels=4, battery_quanta=3)


def three_source_sweep_dict(battery_mj: float = 0.3, packet_mbits: float = 12.0) -> dict:
    """Three sources at 25/40/20 m with four levels, intended for
    deep-learning parameter sweeps. At 0.3 mJ the state space has
    16,777,216 states: under the 20M enumeration guard, but an exact kernel
    on it peaks at several GB. From 0.4 mJ it is above the guard.

    Batteries are quantized at a fixed 0.1 mJ per quantum so that sweeping
    the capacity changes storage, not granularity."""
    quanta = max(1, round(battery_mj / 0.1))
    return _scenario([25.0, 40.0, 20.0], battery_mj, packet_mbits, aoi_cap=4, levels=4, battery_quanta=quanta)


def two_source_policy_map() -> SystemConfig:
    return config_from_dict(two_source_policy_map_dict())


def single_source_comparison() -> SystemConfig:
    return config_from_dict(single_source_comparison_dict())


def learning_benchmark() -> SystemConfig:
    return config_from_dict(learning_benchmark_dict())


def three_source_sweep(battery_mj: float = 0.3, packet_mbits: float = 12.0) -> SystemConfig:
    return config_from_dict(three_source_sweep_dict(battery_mj, packet_mbits))


def with_battery_capacity(config: SystemConfig, joules: float) -> SystemConfig:
    """Same scenario with every battery capacity replaced.

    The energy quantum (capacity / quanta count) is kept fixed and the quanta
    count rescaled, so a larger battery means more storage at the same
    granularity rather than a coarser grid.
    """
    sources = tuple(
        dataclasses.replace(
            s,
            battery_capacity_joules=joules,
            battery_quanta=max(
                1, round(joules * s.battery_quanta / s.battery_capacity_joules)
            ),
        )
        for s in config.sources
    )
    return dataclasses.replace(config, sources=sources)


def with_packet_bits(config: SystemConfig, bits: float) -> SystemConfig:
    return dataclasses.replace(config, packet_bits=bits)
