"""System configuration, energy arithmetic, and the one per-slot stepper.

Actions are plain ints: 0 harvests (the destination beams RF power to all
sources), i in 1..N transmits an update packet from source i. All energy
bookkeeping is in integer battery quanta of B_max,i / b_max,i joules each.

A state is a flat tuple of 0-based ints, (b_i, A_i - 1, g_i - 1, h_i - 1)
per source: battery quanta, AoI less one and the downlink and uplink
channel levels less one. ``state_dims`` gives each variable's size; it is
the grid of the enumerated age state space, so
``StateIndexer.state_to_index(state)`` indexes a state tuple directly.
``step`` is the only implementation of the slot dynamics outside the exact
kernel; the policy rollouts and the DQN training loop both run on it.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import yaml

from .channel import FadingQuantizer, LinkParams, build_quantizer, sample_level
from .errors import InfeasibleActionError, InvalidConfigError

HARVEST = 0

State = tuple[int, ...]
# next-slot channel levels, 0-based: (downlink per source, uplink per source)
Levels = tuple[tuple[int, ...], tuple[int, ...]]


def action_name(action: int) -> str:
    return "H" if action == HARVEST else f"T{action}"


def parse_action(name: str) -> int:
    if name == "H":
        return HARVEST
    if name.startswith("T"):
        return int(name[1:])
    raise ValueError(f"unrecognized action label {name!r}")


@dataclass(frozen=True)
class SourceSpec:
    battery_capacity_joules: float
    battery_quanta: int
    aoi_cap: int
    weight: float
    link: LinkParams

    def __post_init__(self):
        if self.battery_quanta < 1:
            raise InvalidConfigError("battery_quanta must be >= 1")
        if self.aoi_cap < 1:
            raise InvalidConfigError("aoi_cap must be >= 1")
        if self.weight < 0:
            raise InvalidConfigError("weights must be non-negative")
        if self.battery_capacity_joules <= 0:
            raise InvalidConfigError("battery capacity must be positive")


def _dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass
class SystemConfig:
    """Full scenario description; immutable in practice once constructed.

    Building one warns when a source can never afford a transmission.
    """

    sources: tuple[SourceSpec, ...]
    tx_power_dbm: float
    harvest_efficiency: float
    noise_power_dbm: float
    packet_bits: float
    bandwidth_hz: float
    rounding_mode: str = "lower-bound"
    correlated_links: bool = False

    # derived, filled in __post_init__
    tx_power_watts: float = field(init=False)
    noise_watts: float = field(init=False)
    downlink_quantizers: tuple[FadingQuantizer, ...] = field(init=False)
    uplink_quantizers: tuple[FadingQuantizer, ...] = field(init=False)
    # per source, quanta by 0-based level: harvested over downlink levels,
    # needed to transmit over uplink levels; the stepper, the exact kernel
    # and the structure checks all index these
    harvest_table: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    transmit_table: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.sources:
            raise InvalidConfigError("at least one source is required")
        total_weight = sum(s.weight for s in self.sources)
        if abs(total_weight - 1.0) > 1e-9:
            raise InvalidConfigError(f"weights must sum to 1, got {total_weight}")
        if not 0 < self.harvest_efficiency <= 1:
            raise InvalidConfigError("harvest efficiency must be in (0, 1]")
        if self.packet_bits <= 0 or self.bandwidth_hz <= 0:
            raise InvalidConfigError("packet size and bandwidth must be positive")
        if self.rounding_mode not in ("lower-bound", "upper-bound"):
            raise InvalidConfigError(f"unknown rounding mode {self.rounding_mode!r}")
        if self.correlated_links:
            for s in self.sources:
                if s.link.levels_downlink != s.link.levels_uplink:
                    raise InvalidConfigError(
                        "correlated_links requires equal down/uplink level counts"
                    )
        self.sources = tuple(self.sources)
        self.tx_power_watts = _dbm_to_watts(self.tx_power_dbm)
        self.noise_watts = _dbm_to_watts(self.noise_power_dbm)
        self.downlink_quantizers = tuple(
            build_quantizer(s.link.mean_gain, s.link.levels_downlink) for s in self.sources
        )
        self.uplink_quantizers = tuple(
            build_quantizer(s.link.mean_gain, s.link.levels_uplink) for s in self.sources
        )
        self.harvest_table = tuple(
            tuple(harvested_quanta(self, i, lv) for lv in range(1, s.link.levels_downlink + 1))
            for i, s in enumerate(self.sources)
        )
        self.transmit_table = tuple(
            tuple(transmit_quanta(self, i, lv) for lv in range(1, s.link.levels_uplink + 1))
            for i, s in enumerate(self.sources)
        )
        for i, (spec, costs) in enumerate(zip(self.sources, self.transmit_table), start=1):
            if min(costs) > spec.battery_quanta:
                warnings.warn(
                    f"source {i} can never transmit: minimum transmit cost {min(costs)} "
                    f"quanta exceeds battery capacity {spec.battery_quanta}",
                    stacklevel=3,
                )
        self.weights = np.array([s.weight for s in self.sources])

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    @property
    def spectral_load(self) -> float:
        """Packet size normalized by bandwidth (bits/s/Hz over a unit slot).

        Single named conversion point for the Shannon-rate exponent.
        """
        return self.packet_bits / self.bandwidth_hz


def harvested_quanta(config: SystemConfig, source_index: int, g_level: int) -> int:
    """Energy quanta stored when the slot is spent harvesting."""
    spec = config.sources[source_index]
    gain = config.downlink_quantizers[source_index].representative_gains[g_level - 1]
    x = (
        spec.battery_quanta
        / spec.battery_capacity_joules
        * config.harvest_efficiency
        * config.tx_power_watts
        * gain
    )
    return math.floor(x) if config.rounding_mode == "lower-bound" else math.ceil(x)


def transmit_quanta(config: SystemConfig, source_index: int, h_level: int) -> int:
    """Energy quanta needed to push one packet through at the uplink level."""
    spec = config.sources[source_index]
    gain = config.uplink_quantizers[source_index].representative_gains[h_level - 1]
    snr_gap = 2.0 ** config.spectral_load - 1.0
    x = (
        spec.battery_quanta
        / spec.battery_capacity_joules
        * config.noise_watts
        / gain
        * snr_gap
    )
    return math.ceil(x) if config.rounding_mode == "lower-bound" else math.floor(x)


def feasible_actions(config: SystemConfig, state: State) -> list[int]:
    """Harvest plus every transmit whose battery covers the uplink cost."""
    return [HARVEST] + [
        i + 1
        for i, table in enumerate(config.transmit_table)
        if state[4 * i] >= table[state[4 * i + 3]]
    ]


def step(config: SystemConfig, state: State, action: int, levels: Levels) -> State:
    """Apply one slot of battery/AoI dynamics and swap in the drawn channel levels.

    Raises ``InfeasibleActionError`` for an action outside 0..N or a
    transmission the battery cannot pay for.
    """
    i = action - 1
    if action != HARVEST and not (
        0 <= i < config.num_sources and state[4 * i] >= config.transmit_table[i][state[4 * i + 3]]
    ):
        raise InfeasibleActionError(f"action {action_name(action)} is infeasible in state {state}")
    down, up = levels
    out = []
    for j, spec in enumerate(config.sources):
        b, age, g, h = state[4 * j : 4 * j + 4]
        if action == HARVEST:
            b = min(spec.battery_quanta, b + config.harvest_table[j][g])
        elif action == j + 1:
            b -= config.transmit_table[j][h]
        out += (b, 0 if action == j + 1 else min(spec.aoi_cap - 1, age + 1), down[j], up[j])
    return tuple(out)


def stage_cost(config: SystemConfig, state: State) -> float:
    """Weighted sum of the current AoI values."""
    return float(config.weights @ (np.array(state[1::4]) + 1))


def state_dims(config: SystemConfig) -> tuple[int, ...]:
    """How many values each variable of a state tuple takes, in its order:
    ``battery_quanta + 1``, ``aoi_cap``, ``levels_downlink`` and
    ``levels_uplink`` per source. Every state grid is read from this."""
    return tuple(
        d for s in config.sources
        for d in (s.battery_quanta + 1, s.aoi_cap, s.link.levels_downlink, s.link.levels_uplink)
    )


def initial_state(config: SystemConfig) -> State:
    """Canonical start: full batteries, fresh information, lowest levels."""
    return tuple(v for s in config.sources for v in (s.battery_quanta, 0, 0, 0))


def _drawn_quantizers(config: SystemConfig) -> tuple[FadingQuantizer, ...]:
    """The quantizers one slot's channel draw samples, in stream order:
    every source's downlink, then every uplink unless correlated links
    reuse the downlink levels."""
    if config.correlated_links:
        return config.downlink_quantizers
    return config.downlink_quantizers + config.uplink_quantizers


def _as_levels(config: SystemConfig, drawn: list[int]) -> Levels:
    """One slot's 0-based draws, ordered as ``_drawn_quantizers``, as
    (downlinks, uplinks)."""
    n = config.num_sources
    down = tuple(drawn[:n])
    return (down, down) if config.correlated_links else (down, tuple(drawn[n:]))


def draw_levels(config: SystemConfig, rng: np.random.Generator) -> Levels:
    """Sample next-slot 0-based channel levels as (downlinks, uplinks)."""
    return _as_levels(config, [sample_level(q, rng) - 1 for q in _drawn_quantizers(config)])


# slots of channel levels a rollout or DQN training draws per numpy call
_DRAW_BLOCK = 1024


def _level_blocks(config: SystemConfig, rng: np.random.Generator, slots: int):
    """Yield the channel levels of ``slots`` slots in turn: the draws
    ``draw_levels`` makes slot by slot, from the same stream, made
    ``_DRAW_BLOCK`` slots at a time."""
    highs = np.array([q.num_levels for q in _drawn_quantizers(config)])
    for start in range(0, slots, _DRAW_BLOCK):
        block = rng.integers(1, highs + 1, size=(min(_DRAW_BLOCK, slots - start), len(highs)))
        for drawn in (block - 1).tolist():
            yield _as_levels(config, drawn)


@dataclass
class SimulationResult:
    avg_weighted_aoi: float
    avg_throughput_bits: Optional[float]


def simulate_policy(
    config: SystemConfig,
    policy: Callable[[State], int],
    horizon: int,
    seed: int,
) -> SimulationResult:
    """Run the chain for ``horizon`` slots from the canonical start state.

    Averages over slots 0..horizon-1 (i.e. 1/(K+1) with K = horizon-1).
    Throughput is reported for the single-source case only. ``policy``
    receives the state tuple; an infeasible choice raises
    ``InfeasibleActionError``. The channel levels are drawn up to
    ``_DRAW_BLOCK`` slots per numpy call; they are the levels, from the
    same stream, that ``draw_levels`` would draw slot by slot.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rng = np.random.default_rng(seed)
    state = initial_state(config)
    total_cost = 0.0
    transmit_slots = 0
    costs: dict[tuple, float] = {}  # stage cost per AoI tuple
    for levels in _level_blocks(config, rng, horizon):
        action = policy(state)
        aoi = state[1::4]
        cost = costs.get(aoi)
        if cost is None:
            cost = costs[aoi] = stage_cost(config, state)
        total_cost += cost
        if action == 1 and config.num_sources == 1:
            transmit_slots += 1
        state = step(config, state, action, levels)
    avg_aoi = total_cost / horizon
    avg_tp = (
        transmit_slots * config.packet_bits / horizon if config.num_sources == 1 else None
    )
    return SimulationResult(avg_weighted_aoi=avg_aoi, avg_throughput_bits=avg_tp)


# ---------------------------------------------------------------------------
# config file I/O


_CONFIG_KEYS = frozenset(
    {
        "tx_power_dbm", "harvest_efficiency", "noise_power_dbm", "bandwidth_mhz",
        "reference_gain", "path_loss_exponent", "rounding_mode", "packet_mbits",
        "correlated_links", "sources",
    }
)
_SOURCE_KEYS = frozenset(
    {
        "distance_m", "battery_capacity_mj", "battery_quanta", "aoi_cap", "weight",
        "levels_downlink", "levels_uplink",
    }
)


def _check_keys(data, known: frozenset, where: str) -> None:
    """Reject an entry that is not a mapping or holds keys outside ``known``."""
    if not isinstance(data, dict):
        raise InvalidConfigError(f"config entry {where} must be a mapping")
    unknown = sorted(set(data) - known)
    if unknown:
        raise InvalidConfigError(f"unknown config key(s) {', '.join(map(str, unknown))} {where}")


def _number(data: dict, key: str, source: Optional[int] = None, integer: bool = False):
    """``data[key]`` as a finite float, or a whole one as an int if ``integer``."""
    where = "at the top level" if source is None else f"in source {source}"
    if key not in data:
        raise InvalidConfigError(f"missing config key {key} {where}")
    value = data[key]
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (number and math.isfinite(value)) or integer and value % 1:
        kind = "an integer" if integer else "a finite number"
        raise InvalidConfigError(f"config key {key} {where} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def config_from_dict(data: dict) -> SystemConfig:
    _check_keys(data, _CONFIG_KEYS, "at the top level")
    sources = data.get("sources", [])
    if not isinstance(sources, (list, tuple)):
        raise InvalidConfigError("config key sources must hold a list of source entries")
    for i, s in enumerate(sources, start=1):
        _check_keys(s, _SOURCE_KEYS, f"in source {i}")
    correlated = data.get("correlated_links", False)
    if not isinstance(correlated, bool):
        raise InvalidConfigError("config key correlated_links at the top level must be a bool")
    gamma = _number(data, "reference_gain")
    nu = _number(data, "path_loss_exponent")
    sources = tuple(
        SourceSpec(
            battery_capacity_joules=_number(s, "battery_capacity_mj", i) * 1e-3,
            battery_quanta=_number(s, "battery_quanta", i, integer=True),
            aoi_cap=_number(s, "aoi_cap", i, integer=True),
            weight=_number(s, "weight", i),
            link=LinkParams(
                distance_m=_number(s, "distance_m", i),
                path_loss_exponent=nu,
                reference_gain=gamma,
                levels_downlink=_number(s, "levels_downlink", i, integer=True),
                levels_uplink=_number(s, "levels_uplink", i, integer=True),
            ),
        )
        for i, s in enumerate(sources, start=1)
    )
    return SystemConfig(
        sources=sources,
        tx_power_dbm=_number(data, "tx_power_dbm"),
        harvest_efficiency=_number(data, "harvest_efficiency"),
        noise_power_dbm=_number(data, "noise_power_dbm"),
        packet_bits=_number(data, "packet_mbits") * 1e6,
        bandwidth_hz=_number(data, "bandwidth_mhz") * 1e6,
        rounding_mode=data.get("rounding_mode", "lower-bound"),
        correlated_links=correlated,
    )


def with_battery_capacity(config: SystemConfig, joules: float) -> SystemConfig:
    """Same scenario with every battery capacity replaced.

    The energy quantum (capacity / quanta count) is kept fixed and the quanta
    count rescaled, so a larger battery means more storage at the same
    granularity rather than a coarser grid. A capacity that is not a whole
    number (at least 1) of some source's quanta, within 1e-9 relative,
    raises ``InvalidConfigError``.
    """
    sources = []
    for i, s in enumerate(config.sources, start=1):
        quanta = joules * s.battery_quanta / s.battery_capacity_joules
        whole = round(quanta)
        if whole < 1 or abs(quanta - whole) > 1e-9 * quanta:
            raise InvalidConfigError(
                f"battery capacity {joules * 1e3:g} mJ is not a whole number of source {i}'s "
                f"{s.battery_capacity_joules / s.battery_quanta * 1e3:g} mJ energy quanta"
            )
        sources.append(dataclasses.replace(s, battery_capacity_joules=joules, battery_quanta=whole))
    return dataclasses.replace(config, sources=tuple(sources))


def with_packet_bits(config: SystemConfig, bits: float) -> SystemConfig:
    return dataclasses.replace(config, packet_bits=bits)


def load_config(path) -> SystemConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise InvalidConfigError(f"config file {path} does not hold a mapping")
    return config_from_dict(data)
