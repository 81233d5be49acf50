"""Mechanical checks of the structural properties of solved policies.

Each checker scans a value table or deterministic policy over the
enumerated state space and reports every pair of states violating the
expected monotonicity or threshold ordering. On exact solver output the
violation lists must be empty; learned policies are checked with the same
machinery but treated as advisory by callers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .env import SystemConfig, action_name, energy_tables
from .errors import ContractError
from .mdp import StateIndexer, _display_offsets

# value differences up to this size are not monotonicity violations
_VALUE_TOL = 1e-7


@dataclass(frozen=True)
class Violation:
    variable: str
    state: tuple  # display values (battery raw, AoI/levels 1-based)
    other: tuple
    expected: str
    found: str


def _report(indexer, bad, variable, expected, found, axis=None) -> list[Violation]:
    """A ``Violation`` per flagged entry of the boolean grid ``bad``, in
    row-major order: a state that breaks the rule on its own or, with
    ``axis``, a state and its successor along ``axis`` (``bad`` is then
    shaped like ``np.diff(grid, axis=axis)``). ``found(state, other)``
    renders what the grid holds at the two positions."""
    step = 0 if axis is None else np.eye(bad.ndim, dtype=np.int64)[axis]
    offsets = np.array(_display_offsets(indexer))
    out = []
    for state in np.argwhere(bad):
        other = state + step
        shown = (tuple((pos + offsets).tolist()) for pos in (state, other))
        out.append(Violation(variable, *shown, expected, found(tuple(state), tuple(other))))
    return out


def check_value_monotone_age(indexer: StateIndexer, values: np.ndarray) -> list[Violation]:
    """Value non-increasing in battery and both channel levels,
    non-decreasing in AoI, variable by variable."""
    if indexer.objective != "age":
        raise ContractError("monotonicity check applies to the age value table")
    v = np.asarray(values, dtype=float).reshape(indexer.dims)
    violations = []
    for axis, name in enumerate(indexer.var_names):
        d = np.diff(v, axis=axis)
        if name.startswith("A_"):
            bad = d < -_VALUE_TOL  # must be non-decreasing
            expected = "value non-decreasing"
        else:
            bad = d > _VALUE_TOL  # must be non-increasing
            expected = "value non-increasing"
        violations += _report(
            indexer, bad, name, expected, lambda lo, hi: f"{v[lo]:.9g} -> {v[hi]:.9g}", axis
        )
    return violations


def check_threshold_aoi(indexer: StateIndexer, policy: np.ndarray) -> list[Violation]:
    """Once transmitting from source j is optimal, it stays optimal for any
    larger AoI of process j with everything else fixed."""
    if indexer.objective != "age":
        raise ContractError("AoI threshold check applies to age policies")
    p = np.asarray(policy).reshape(indexer.dims)
    violations = []
    for j in range(1, indexer.num_sources + 1):
        axis = indexer.var_names.index(f"A_{j}")
        is_tj = p == j
        bad = np.maximum.accumulate(is_tj, axis=axis) & ~is_tj
        expected = f"T{j} (forced by smaller-AoI state)"
        violations += _report(
            indexer, bad, f"A_{j}", expected, lambda pos, _: action_name(int(p[pos]))
        )
    return violations


def _threshold_set(indexer: StateIndexer, config: SystemConfig) -> np.ndarray:
    """States with battery >= max(b_max - harvest gain, transmit cost),
    i.e. where one harvesting slot tops the battery off."""
    e_h, e_t = energy_tables(config)
    bmax = config.sources[0].battery_quanta
    b_ax = indexer.var_names.index("b_1")
    g_ax = indexer.var_names.index("g_1")
    h_ax = indexer.var_names.index("h_1")
    shape = [1] * len(indexer.dims)

    def along(arr, axis):
        s = shape.copy()
        s[axis] = len(arr)
        return arr.reshape(s)

    b = along(np.arange(indexer.dims[b_ax]), b_ax)
    need = np.maximum(bmax - along(e_h[0], g_ax), along(e_t[0], h_ax))
    return np.broadcast_to(b >= need, indexer.dims)


def check_threshold_single_source(
    indexer: StateIndexer,
    policy: np.ndarray,
    config: SystemConfig,
    objective: str = "age",
) -> list[Violation]:
    """Single-source threshold structure on the high-battery state set:
    transmit is upward-closed (and harvest downward-closed) under the
    element-wise state order. Applies to both objectives."""
    if config.num_sources != 1 or indexer.num_sources != 1:
        raise ContractError("single-source threshold check requires N = 1")
    if indexer.objective != objective:
        raise ContractError(
            f"indexer objective {indexer.objective!r} does not match {objective!r}"
        )
    p = np.asarray(policy).reshape(indexer.dims)
    in_set = _threshold_set(indexer, config)
    transmit = (p == 1) & in_set
    # The set is upward-closed along every axis, so axis-wise closure of the
    # transmit region equals its closure under the product order.
    closure = transmit.copy()
    for axis in range(len(indexer.dims)):
        closure = np.maximum.accumulate(closure, axis=axis)
    bad = closure & in_set & (p != 1)
    expected = "T1 (forced by dominated transmitting state)"
    return _report(indexer, bad, "all", expected, lambda pos, _: action_name(int(p[pos])))


@dataclass
class PolicyDiff:
    per_aoi_counts: dict[int, int]


def diff_policies(
    age_policy: np.ndarray,
    throughput_policy: np.ndarray,
    age_indexer: StateIndexer,
    throughput_indexer: StateIndexer,
) -> PolicyDiff:
    """Per-AoI-slice disagreement counts between the age-optimal and
    throughput-optimal actions at matched (battery, downlink, uplink)."""
    if age_indexer.num_sources != 1 or throughput_indexer.num_sources != 1:
        raise ContractError("policy diff is defined for N = 1")
    b, A, g, h = age_indexer.dims
    if throughput_indexer.dims != (b, g, h):
        raise ContractError(
            f"grids do not match: age {age_indexer.dims} vs "
            f"throughput {throughput_indexer.dims}"
        )
    pa = np.asarray(age_policy).reshape(age_indexer.dims)
    pt = np.asarray(throughput_policy).reshape(throughput_indexer.dims)
    counts = {a_idx + 1: int((pa[:, a_idx, :, :] != pt).sum()) for a_idx in range(A)}
    return PolicyDiff(per_aoi_counts=counts)


def export_violations_csv(path, violations: list[Violation]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", "state", "compared_with", "expected", "found"])
        for v in violations:
            writer.writerow([v.variable, v.state, v.other, v.expected, v.found])
