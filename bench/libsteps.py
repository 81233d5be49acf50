"""Library-level steps of the benchmark, for work the CLI does not offer.

Run as a child process from the repository root with ``src`` on the
import path::

    python3 bench/libsteps.py setup CONFIG
    python3 bench/libsteps.py info
    python3 bench/libsteps.py exact_single_source CONFIG
    python3 bench/libsteps.py learn_gap CONFIG TABULAR_POLICY_CSV DQN_CHECKPOINT SIM_SLOTS

Each task prints one JSON object on stdout. ``bench/run.py`` also calls the
task functions in-process for its traced run, so library functions are
looked up through their modules (``mdp.solve_rvia``) where the tracer's
wrappers can see them.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys

import numpy as np
import scipy

import aoi_rl
import aoi_rl.cli  # noqa: F401  (set-up cost: every command imports the CLI)
from aoi_rl import dqn, env, mdp, structure


def actions_sha256(actions) -> str:
    """Digest of a policy's action indices, in state-index order."""
    return hashlib.sha256(np.asarray(actions, dtype=np.int8).tobytes()).hexdigest()


def setup(config_path: str) -> dict:
    """The work every command pays before its own: load, enumerate, build."""
    config = env.load_config(config_path)
    kernel = mdp.build_kernel(config, mdp.enumerate_states(config, "age"))
    return {"states": kernel.total_states}


def _openblas_threads():
    """OpenBLAS thread count, read from the library numpy has loaded."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def info() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "aoi_rl": aoi_rl.__version__,
        "openblas_threads": _openblas_threads(),
    }


def exact_single_source(config_path: str) -> dict:
    """What acceptance criteria 2-4 do on one source: solve age and
    throughput exactly, evaluate both solved policies, run the structural
    checkers and the age-vs-throughput diff."""
    config = env.load_config(config_path)
    kernels = {}
    for objective in ("age", "throughput"):
        indexer = mdp.enumerate_states(config, objective)
        kernels[objective] = (indexer, mdp.build_kernel(config, indexer))
    solved = {obj: (idx, k, *mdp.solve_rvia(k)) for obj, (idx, k) in kernels.items()}
    out = {}
    for objective, (_, kernel, vt, pt) in solved.items():
        out[f"{objective}_gain"] = vt.gain
        out[f"{objective}_evaluated_gain"] = mdp.evaluate_policy(kernel, pt.actions)
        out[f"{objective}_policy_sha256"] = actions_sha256(pt.actions)
    age_idx, _, age_vt, age_pt = solved["age"]
    thr_idx, _, _, thr_pt = solved["throughput"]
    out["violations"] = {
        "value_monotone_age": len(structure.check_value_monotone_age(age_idx, age_vt.values)),
        "threshold_aoi": len(structure.check_threshold_aoi(age_idx, age_pt.actions)),
        "threshold_single_source_age": len(
            structure.check_threshold_single_source(age_idx, age_pt.actions, config, "age")
        ),
        "threshold_single_source_throughput": len(
            structure.check_threshold_single_source(
                thr_idx, thr_pt.actions, config, "throughput"
            )
        ),
    }
    diff = structure.diff_policies(age_pt.actions, thr_pt.actions, age_idx, thr_idx)
    out["diff_per_aoi"] = {str(k): v for k, v in diff.per_aoi_counts.items()}
    return out


def chain_statistics(kernel, policy, horizon: int) -> dict:
    """Dense, independent evaluation of a policy's chain from the start state.

    Returns the stationary gain and a Monte-Carlo tolerance for the average
    of ``horizon`` simulated slots: six asymptotic standard deviations (from
    the fundamental matrix) plus the start-state bias |h(start)| / horizon.
    A chain with more than one recurrent class reachable from the start has
    no single long-run average; its tolerance is NaN.
    """
    n = kernel.total_states
    P = np.zeros((n, n))
    base = kernel.succ_full[np.arange(n), policy]
    rows = np.repeat(np.arange(n), len(kernel.chan_offsets))
    cols = (base[:, None] + kernel.chan_offsets[None, :]).ravel()
    np.add.at(P, (rows, cols), np.tile(kernel.chan_probs, n))
    reach = np.zeros(n, dtype=bool)
    frontier = np.zeros(n, dtype=bool)
    frontier[kernel.start_index] = True
    while frontier.any():
        reach |= frontier
        frontier = (P[frontier].sum(axis=0) > 0) & ~reach
    idx = np.flatnonzero(reach)
    Pr = P[np.ix_(idx, idx)]
    cost = kernel.cost[idx]
    m = len(idx)
    if np.linalg.matrix_rank(np.eye(m) - Pr) != m - 1:  # one rank lost per recurrent class
        return {"gain": float("nan"), "mc_tolerance": float("nan")}
    lhs = (np.eye(m) - Pr).T
    lhs[-1, :] = 1.0
    rhs = np.zeros(m)
    rhs[-1] = 1.0
    pi = np.linalg.solve(lhs, rhs)
    gain = float(pi @ cost)
    centred = cost - gain
    h = np.linalg.solve(np.eye(m) - Pr + pi[None, :], centred)
    variance = max(0.0, float(pi @ (2.0 * centred * h - centred**2)))
    start = int(np.searchsorted(idx, kernel.start_index))
    tolerance = 6.0 * np.sqrt(variance / horizon) + abs(h[start]) / horizon
    return {"gain": gain, "mc_tolerance": float(tolerance)}


def learn_gap(config_path: str, tabular_csv: str, checkpoint: str, sim_slots: str) -> dict:
    """Exact relative optimality gap of both learned policies, plus an
    independent dense evaluation and Monte-Carlo tolerance for checking the
    rollouts of the same policies."""
    config = env.load_config(config_path)
    indexer = mdp.enumerate_states(config, "age")
    kernel = mdp.build_kernel(config, indexer)
    vt, _ = mdp.solve_rvia(kernel)
    policies = {
        "tabular": mdp.load_policy_csv(tabular_csv, indexer)[0],
        "dqn": dqn.tabulate_policy(dqn.QNetwork.load(checkpoint), kernel),
    }
    out = {"optimal_gain": vt.gain}
    for name, policy in policies.items():
        gain = mdp.evaluate_policy(kernel, policy)
        dense = chain_statistics(kernel, policy, int(sim_slots))
        out[name] = {
            "gain": gain,
            "gap": (gain - vt.gain) / vt.gain,
            "dense_gain": dense["gain"],
            "mc_tolerance": dense["mc_tolerance"],
        }
    return out


TASKS = {
    "setup": setup,
    "info": info,
    "exact_single_source": exact_single_source,
    "learn_gap": learn_gap,
}


if __name__ == "__main__":
    print(json.dumps(TASKS[sys.argv[1]](*sys.argv[2:])))
