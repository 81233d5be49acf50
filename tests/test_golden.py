"""Golden exact results: the kernel arrays and the exact solves of every
committed config, pinned in ``tests/golden.json``.

A change that means to keep results the same must leave every entry as
it is. To record a deliberate change, run
``PYTHONPATH=src python tests/test_golden.py``
from the repository root, which rewrites the file, and list each changed
entry with its reason.

Kernel arrays are pinned by the SHA-256 of their dtype, shape and bytes,
on every committed config and objective. Solves are pinned on the
configs Tier-1 solves: the gain within ``GAIN_RTOL`` relative, the
near-tie count, and the SHA-256 of the action column where no state is
a near-tie (elsewhere the lowest-index choice among tied actions can
move with rounding, and the gain and count pin the result).
"""

import ast
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from aoi_rl.env import action_name, load_config
from aoi_rl.mdp import build_kernel, enumerate_states, solve_rvia

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
GAIN_RTOL = 1e-9

# (config file stem, objective) of every kernel and of every solve pinned
KERNELS = [
    ("learning_small", "age"),
    ("learning_small", "throughput"),
    ("single_source_large", "age"),
    ("single_source_large", "throughput"),
    ("two_source", "age"),
    ("three_source", "age"),
]
SOLVES = KERNELS[:5]



def _kernel(name: str, objective: str):
    config = load_config(ROOT / "configs" / f"{name}.yaml")
    return build_kernel(config, enumerate_states(config, objective))


def _digest(arrays) -> str:
    """SHA-256 over each array's dtype, shape and C-order bytes, in turn."""
    digest = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


def kernel_digests(kernel) -> dict[str, str]:
    return {
        "succ_tables": _digest(kernel.succ_tables),
        "transmit_ok": _digest(kernel.transmit_ok),
        "stage_tables": _digest(kernel.stage_tables),
        "core_base": _digest([kernel.core_base]),
        "chan_offsets": _digest([kernel.chan_offsets]),
    }


def actions_sha256(actions) -> str:
    """The digest ``bench/libsteps.py`` takes of an action column: its int8 bytes."""
    return hashlib.sha256(np.asarray(actions, dtype=np.int8).tobytes()).hexdigest()


def labels_sha256(actions) -> str:
    """The digest ``bench/run.py`` takes of a policy file's action column:
    one label per line."""
    return hashlib.sha256("".join(action_name(a) + "\n" for a in actions.tolist()).encode()).hexdigest()


# the benchmark's reference for the same solve: gain key, actions key and digest
BENCH_KEYS = {
    "single_source_large/age": ("single_age_gain", "single_age_actions_sha256", actions_sha256),
    "single_source_large/throughput": (
        "single_throughput_gain",
        "single_throughput_actions_sha256",
        actions_sha256,
    ),
    "two_source/age": ("two_source_gain", "two_source_actions_sha256", labels_sha256),
}


@functools.cache
def _solved(key: str):
    """``(gain, actions, near_ties)`` of the solve ``key`` names."""
    vt, pt = solve_rvia(_kernel(*key.split("/")))
    return vt.gain, pt.actions, vt.stats["near_ties"]


def solution_entry(key: str) -> dict:
    gain, actions, near = _solved(key)
    return {
        "gain": gain,
        "near_ties": near,
        "actions_sha256": actions_sha256(actions) if near == 0 else None,
    }


def mismatches(expected: dict, gain: float, actions, near_ties: int) -> list[str]:
    """How one solve differs from its golden entry; empty if it matches."""
    out = []
    if not abs(gain - expected["gain"]) <= GAIN_RTOL * abs(expected["gain"]):
        out.append(f"gain {gain!r} != golden {expected['gain']!r}")
    if near_ties != expected["near_ties"]:
        out.append(f"near-tie count {near_ties} != golden {expected['near_ties']}")
    if expected["actions_sha256"] is not None and actions_sha256(actions) != expected["actions_sha256"]:
        out.append("action column differs from the golden one")
    return out


def compute() -> dict:
    kernels, solves = {}, {}
    for name, objective in KERNELS:
        kernels[f"{name}/{objective}"] = kernel_digests(_kernel(name, objective))
    for name, objective in SOLVES:
        solves[f"{name}/{objective}"] = solution_entry(f"{name}/{objective}")
    return {"kernels": kernels, "solves": solves}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _bench_references() -> dict:
    """The plain-literal entries of ``REFERENCES`` in ``bench/run.py``,
    read without importing the script."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "REFERENCES" for t in node.targets
        ):
            return {
                ast.literal_eval(k): ast.literal_eval(v)
                for k, v in zip(node.value.keys, node.value.values)
                if isinstance(v, ast.Constant)
            }
    raise AssertionError("bench/run.py defines no REFERENCES")


def test_golden_file_covers_every_case():
    golden = _golden()
    assert sorted(golden["kernels"]) == sorted(f"{n}/{o}" for n, o in KERNELS)
    assert sorted(golden["solves"]) == sorted(f"{n}/{o}" for n, o in SOLVES)


@pytest.mark.parametrize("name, objective", KERNELS, ids=[f"{n}/{o}" for n, o in KERNELS])
def test_kernel_arrays_match_golden(name, objective):
    assert kernel_digests(_kernel(name, objective)) == _golden()["kernels"][f"{name}/{objective}"]


@pytest.mark.parametrize("name, objective", SOLVES, ids=[f"{n}/{o}" for n, o in SOLVES])
def test_exact_solve_matches_golden(name, objective):
    key = f"{name}/{objective}"
    assert mismatches(_golden()["solves"][key], *_solved(key)) == []


def test_golden_solves_agree_with_bench_references():
    golden, refs = _golden()["solves"], _bench_references()
    for key, (gain_key, actions_key, digest) in BENCH_KEYS.items():
        assert abs(golden[key]["gain"] - refs[gain_key]) <= GAIN_RTOL * abs(refs[gain_key]), key
        assert golden[key]["near_ties"] == 0, key
        assert digest(_solved(key)[1]) == refs[actions_key], key


def test_golden_comparison_catches_one_state_and_a_2e9_gain_shift():
    key = "learning_small/age"
    expected = _golden()["solves"][key]
    assert expected["actions_sha256"] is not None
    gain, actions, near = _solved(key)
    assert mismatches(expected, gain, actions, near) == []
    edited = actions.copy()
    edited[7] = 1 - min(edited[7], 1)
    assert mismatches(expected, gain, edited, near) == ["action column differs from the golden one"]
    assert len(mismatches(expected, gain * (1 + 2e-9), actions, near)) == 1
    assert len(mismatches(expected, gain, actions, near + 1)) == 1


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
