"""Mechanical checks of the structural properties of solved policies.

Each checker scans a value table or deterministic policy over the
enumerated state space and reports every pair of states violating the
expected monotonicity or threshold ordering. On exact solver output the
violation lists must be empty; learned policies are checked with the same
machinery but treated as advisory by callers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .env import SystemConfig, action_name, energy_tables
from .errors import ContractError
from .mdp import StateIndexer, _display_offsets

# value differences up to this size are not monotonicity violations
_VALUE_TOL = 1e-7
# disagreeing states ``diff_policies`` lists
_DIFF_EXAMPLES = 20


@dataclass(frozen=True)
class Violation:
    variable: str
    state: tuple  # display values (battery raw, AoI/levels 1-based)
    other: tuple
    expected: str
    found: str


def _display(indexer: StateIndexer, raw_state: tuple) -> tuple:
    return tuple(v + off for v, off in zip(raw_state, _display_offsets(indexer)))


def _pairs_from_mask(indexer, mask, axis):
    """States flagged in a boolean array shaped like the state grid,
    together with their predecessor along ``axis``."""
    out = []
    for pos in np.argwhere(mask):
        prev = list(pos)
        prev[axis] -= 1
        out.append((tuple(int(x) for x in prev), tuple(int(x) for x in pos)))
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
        for prev, pos in _pairs_from_mask(indexer, _pad_diff(bad, axis), axis):
            violations.append(
                Violation(
                    variable=name,
                    state=_display(indexer, prev),
                    other=_display(indexer, pos),
                    expected=expected,
                    found=f"{v[prev]:.9g} -> {v[pos]:.9g}",
                )
            )
    return violations


def _pad_diff(bad: np.ndarray, axis: int) -> np.ndarray:
    """Align a diff-shaped mask with the full grid (flag the upper state)."""
    pad = [(0, 0)] * bad.ndim
    pad[axis] = (1, 0)
    return np.pad(bad, pad)


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
        cum = np.maximum.accumulate(is_tj, axis=axis)
        bad = cum & ~is_tj
        for pos in np.argwhere(bad):
            pos = tuple(int(x) for x in pos)
            violations.append(
                Violation(
                    variable=f"A_{j}",
                    state=_display(indexer, pos),
                    other=_display(indexer, pos),
                    expected=f"T{j} (forced by smaller-AoI state)",
                    found=action_name(int(p[pos])),
                )
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
    violations = []
    # The set is upward-closed along every axis, so axis-wise closure of the
    # transmit region equals its closure under the product order.
    closure = transmit.copy()
    for axis in range(len(indexer.dims)):
        closure = np.maximum.accumulate(closure, axis=axis)
    bad = closure & in_set & (p != 1)
    for pos in np.argwhere(bad):
        pos = tuple(int(x) for x in pos)
        violations.append(
            Violation(
                variable="all",
                state=_display(indexer, pos),
                other=_display(indexer, pos),
                expected="T1 (forced by dominated transmitting state)",
                found=action_name(int(p[pos])),
            )
        )
    return violations


@dataclass
class PolicyDiff:
    per_aoi_counts: dict[int, int]
    total: int
    examples: list[tuple] = field(default_factory=list)


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
    counts = {}
    examples = []
    total = 0
    for a_idx in range(A):
        disagree = pa[:, a_idx, :, :] != pt
        c = int(disagree.sum())
        counts[a_idx + 1] = c
        total += c
        if c and len(examples) < _DIFF_EXAMPLES:
            for pos in np.argwhere(disagree)[: _DIFF_EXAMPLES - len(examples)]:
                bi, gi, hi = (int(x) for x in pos)
                examples.append(
                    (
                        (bi, a_idx + 1, gi + 1, hi + 1),
                        action_name(int(pa[bi, a_idx, gi, hi])),
                        action_name(int(pt[bi, gi, hi])),
                    )
                )
    return PolicyDiff(per_aoi_counts=counts, total=total, examples=examples)


def export_violations_csv(path, violations: list[Violation]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", "state", "compared_with", "expected", "found"])
        for v in violations:
            writer.writerow([v.variable, v.state, v.other, v.expected, v.found])
