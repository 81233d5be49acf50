"""Exact-solver tests: indexing, kernel, RVIA, chain evaluation, oracle."""

import csv
import itertools
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import splu, spsolve

from aoi_rl import mdp
from aoi_rl.env import HARVEST, action_name, energy_tables, load_config, parse_action
from aoi_rl.errors import (
    ContractError,
    ConvergenceError,
    InfeasibleActionError,
    SizeLimitError,
)
from aoi_rl.mdp import (
    TransitionKernel,
    _class_gain,
    _dense_chain_gain,
    brute_force_oracle,
    build_kernel,
    enumerate_states,
    evaluate_policy,
    export_policy_csv,
    induced_chain,
    load_policy_csv,
    markov_chain_gain,
    solve_rvia,
)

from conftest import make_config, random_tiny_config

ROOT = Path(__file__).resolve().parents[1]


# --- state indexing -------------------------------------------------------


def test_state_count_formula():
    cfg = make_config(distances=(25.0, 40.0), battery_quanta=5, aoi_cap=6, levels=6)
    idx = enumerate_states(cfg)
    assert idx.total_states == ((5 + 1) * 6 * 6 * 6) ** 2
    assert idx.var_names == ("b_1", "A_1", "g_1", "h_1", "b_2", "A_2", "g_2", "h_2")


def test_throughput_indexer_drops_aoi():
    cfg = make_config()
    idx = enumerate_states(cfg, "throughput")
    assert idx.var_names == ("b_1", "g_1", "h_1")
    assert idx.total_states == 4 * 4 * 4


def test_throughput_objective_single_source_only():
    cfg = make_config(distances=(25.0, 40.0))
    with pytest.raises(ContractError):
        enumerate_states(cfg, "throughput")


def test_size_guard_reports_state_count():
    cfg = make_config(
        distances=(25.0, 40.0, 20.0), battery_quanta=9, aoi_cap=10, levels=10
    )
    with pytest.raises(SizeLimitError, match="1000000000000"):
        enumerate_states(cfg)


@given(index=st.integers(min_value=0))
@settings(max_examples=60, deadline=None)
def test_indexer_round_trip(index):
    cfg = make_config(battery_quanta=2, aoi_cap=3, levels=2)
    idx = enumerate_states(cfg)
    s = index % idx.total_states
    assert idx.state_to_index(idx.index_to_state(s)) == s


def test_state_to_index_is_row_major_and_checked():
    idx = enumerate_states(make_config(distances=(25.0, 40.0), battery_quanta=2, aoi_cap=3, levels=2))
    grids = np.stack(np.unravel_index(np.arange(idx.total_states), idx.dims), axis=1)
    assert [idx.state_to_index(row) for row in grids] == list(range(idx.total_states))
    assert idx.state_to_index(grids[-1].tolist()) == np.ravel_multi_index(tuple(grids[-1]), idx.dims)
    for bad in ([0] * 7, [0] * 9, [3, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, -1]):
        with pytest.raises(ValueError):
            idx.state_to_index(bad)


def test_canonical_start_state():
    cfg = make_config()
    idx = enumerate_states(cfg)
    start = idx.index_to_state(idx.canonical_start_index())
    assert start == (3, 0, 0, 0)  # full battery, AoI 1, lowest levels (0-based)


# --- transition kernel ----------------------------------------------------


def test_kernel_rows_sum_to_one():
    cfg = make_config(battery_quanta=2, aoi_cap=3, levels=3)
    kernel = build_kernel(cfg, enumerate_states(cfg))
    for s in range(0, kernel.total_states, 7):
        for a in np.flatnonzero(kernel.feasible[s]):
            _, probs = kernel.row(s, a)
            assert probs.sum() == pytest.approx(1.0)


def test_degenerate_channel_single_successor():
    cfg = make_config(levels=1)
    kernel = build_kernel(cfg, enumerate_states(cfg))
    cols, probs = kernel.row(0, HARVEST)
    assert len(cols) == 1
    assert probs == pytest.approx([1.0])


def test_two_source_row_has_sixteen_uniform_successors():
    cfg = make_config(distances=(25.0, 40.0), battery_quanta=1, aoi_cap=2, levels=2)
    kernel = build_kernel(cfg, enumerate_states(cfg))
    cols, probs = kernel.row(0, HARVEST)
    assert len(set(cols.tolist())) == 16
    assert probs == pytest.approx(np.full(16, 1.0 / 16.0))


def test_infeasible_row_raises():
    cfg = make_config(levels=1)
    kernel = build_kernel(cfg, enumerate_states(cfg))
    s_empty = kernel.indexer.state_to_index([0, 0, 0, 0])
    with pytest.raises(InfeasibleActionError):
        kernel.row(s_empty, 1)


def test_contract_channels_matches_row_expectation():
    cfg = make_config(battery_quanta=2, aoi_cap=2, levels=3)
    kernel = build_kernel(cfg, enumerate_states(cfg))
    rng = np.random.default_rng(0)
    v = rng.normal(size=kernel.total_states)
    w = kernel.contract_channels(v)
    for s in (0, 5, 17):
        for a in np.flatnonzero(kernel.feasible[s]):
            cols, probs = kernel.row(s, a)
            assert w[kernel.succ_small[s, a]] == pytest.approx(float(probs @ v[cols]))


def test_correlated_kernel_contracts_over_diagonal():
    cfg = make_config(battery_quanta=1, aoi_cap=2, levels=3, correlated_links=True)
    kernel = build_kernel(cfg, enumerate_states(cfg))
    cols, probs = kernel.row(0, HARVEST)
    # three diagonal (g, h) combos instead of nine independent ones
    assert len(cols) == 3
    assert probs == pytest.approx(np.full(3, 1.0 / 3.0))
    rng = np.random.default_rng(1)
    v = rng.normal(size=kernel.total_states)
    w = kernel.contract_channels(v)
    assert w[kernel.succ_small[0, HARVEST]] == pytest.approx(float(probs @ v[cols]))


def test_throughput_rewards():
    cfg = make_config()
    kernel = build_kernel(cfg, enumerate_states(cfg, "throughput"))
    transmit_ok = kernel.feasible[:, 1]
    assert np.all(kernel.reward_sa[transmit_ok, 1] == cfg.packet_bits)
    assert np.all(kernel.reward_sa[:, 0] == 0.0)


# --- chain evaluation oracles --------------------------------------------


def test_markov_chain_gain_two_state_cycle():
    P = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    stage = np.array([0.0, 1.0])
    assert markov_chain_gain(P, stage, 0) == pytest.approx(0.5)


def test_markov_chain_gain_weighted_absorption():
    # from state 0: to absorbing state 1 (stage 2) w.p. 0.25,
    # to absorbing state 2 (stage 6) w.p. 0.75
    P = sp.csr_matrix(
        np.array([[0.0, 0.25, 0.75], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    )
    stage = np.array([0.0, 2.0, 6.0])
    assert markov_chain_gain(P, stage, 0) == pytest.approx(0.25 * 2 + 0.75 * 6)


def test_markov_chain_gain_biased_two_state():
    P = sp.csr_matrix(np.array([[0.9, 0.1], [0.2, 0.8]]))
    stage = np.array([1.0, 5.0])
    # stationary distribution solves pi = pi P: pi = (2/3, 1/3)
    assert markov_chain_gain(P, stage, 1) == pytest.approx(2 / 3 + 5 / 3)


def test_induced_chain_rejects_infeasible_policy():
    cfg = make_config(levels=1)
    kernel = build_kernel(cfg, enumerate_states(cfg))
    policy = np.ones(kernel.total_states, dtype=np.int64)  # transmit everywhere
    with pytest.raises(InfeasibleActionError):
        induced_chain(kernel, policy)


def test_induced_chain_rejects_wrong_shape():
    cfg = make_config(levels=1)
    kernel = build_kernel(cfg, enumerate_states(cfg))
    with pytest.raises(ContractError):
        induced_chain(kernel, np.zeros(3, dtype=np.int64))


@pytest.mark.parametrize("bad", [-1, 2])
def test_induced_chain_rejects_out_of_range_actions(bad):
    # -1 must not wrap around to the last action (T1 on one source)
    cfg = make_config()
    kernel = build_kernel(cfg, enumerate_states(cfg))
    policy = np.where(kernel.feasible[:, 1], bad, HARVEST)
    with pytest.raises(ContractError, match="0..1"):
        evaluate_policy(kernel, policy)


def _random_feasible_policy(kernel, rng):
    return np.array([rng.choice(np.flatnonzero(f)) for f in kernel.feasible], dtype=np.int64)


def _dense_full_chain_gain(kernel, policy):
    """Full-state chain built row by row from ``kernel.row`` and solved by
    the dense oracle."""
    n = kernel.total_states
    P = np.zeros((n, n))
    for s in range(n):
        cols, probs = kernel.row(s, int(policy[s]))
        np.add.at(P[s], cols, probs)
    stage = np.array([kernel.stage(s, int(policy[s])) for s in range(n)])
    return _dense_chain_gain(P, stage, kernel.start_index)


def _scipy_class_gain(P, members, stage):
    """The pinned-member stationary solve of one recurrent class, on
    ``scipy.sparse``: the evaluator's earlier implementation, kept as an
    independent oracle."""
    m = len(members)
    if m == 1:
        return float(stage[members[0]])
    sub = P[members][:, members]
    lhs = (sp.identity(m - 1, format="csr") - sub[:-1, :-1]).T.tocsc()
    rhs = sub[-1, :-1].toarray().ravel()
    pi = np.append(spsolve(lhs, rhs), 1.0)
    pi /= pi.sum()
    return float(pi @ stage[members])


def _scipy_chain_gain(P, stage, start):
    """Long-run average of a ``scipy.sparse`` chain from ``start``: classes
    from ``csgraph``, absorption from a sparse LU (the evaluator's earlier
    implementation, kept as an independent oracle)."""
    n = P.shape[0]
    _, labels = connected_components(P, directed=True, connection="strong")
    rows_of_nz = np.repeat(np.arange(n), np.diff(P.indptr))
    leaving = labels[rows_of_nz] != labels[P.indices]
    open_classes = set(np.unique(labels[rows_of_nz[leaving]]))
    if labels[start] not in open_classes:
        members = np.flatnonzero(labels == labels[start])
        return _scipy_class_gain(P, members, stage)

    order = breadth_first_order(P, start, directed=True, return_predecessors=False)
    reach = np.zeros(n, dtype=bool)
    reach[order] = True
    closed_per_state = ~np.isin(labels, sorted(open_classes))
    closed_reach = sorted(set(labels[reach & closed_per_state]))

    trans_idx = np.flatnonzero(reach & ~closed_per_state)
    pos = {s: k for k, s in enumerate(trans_idx)}
    P_tt = P[trans_idx][:, trans_idx]
    lu = splu(sp.identity(len(trans_idx), format="csc") - P_tt.tocsc())
    gain = 0.0
    for cls in closed_reach:
        members = np.flatnonzero(labels == cls)
        rhs = np.asarray(P[trans_idx][:, members].sum(axis=1)).ravel()
        absorb = lu.solve(rhs)
        p = float(absorb[pos[start]])
        if p > 0:
            gain += p * _scipy_class_gain(P, members, stage)
    return gain


def _planted_chain(rng, max_states=40):
    """Random chain with one to three planted closed classes (pure cycles,
    which are periodic, or cycles with extra edges and self-loops), and
    transient states each with a path into them. Returns the row-stochastic
    dense matrix with its states shuffled."""
    closed = [int(rng.integers(1, 7)) for _ in range(rng.integers(1, 4))]
    n = int(rng.integers(sum(closed), max_states + 1))
    W = np.zeros((n, n))
    first = 0
    for m in closed:
        ring = np.arange(first, first + m)
        W[ring, np.roll(ring, -1)] = rng.uniform(0.5, 1.0, size=m)
        if rng.random() < 0.5:  # extra edges and self-loops inside the class
            W[np.ix_(ring, ring)] += rng.uniform(0.1, 1.0, size=(m, m)) * (rng.random((m, m)) < 0.3)
        first += m
    for t in range(first, n):
        # an edge to a closed state or an earlier transient one gives every
        # transient state a path into a closed class; extra edges (to later
        # transient states too) make transient cycles and self-loops
        W[t, rng.integers(0, t)] = rng.uniform(0.1, 1.0)
        extra = rng.random(n) < 3 / n
        extra[:first] &= rng.random() < 0.5
        W[t, extra] += rng.uniform(0.1, 1.0, size=int(extra.sum()))
    perm = rng.permutation(n)
    W = W[np.ix_(perm, perm)]
    return W / W.sum(axis=1, keepdims=True)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_chain_gain_matches_scipy_and_dense_oracles(seed):
    rng = np.random.default_rng(seed)
    W = _planted_chain(rng)
    stage = rng.normal(size=len(W))
    ref = sp.csr_matrix(W)
    P = mdp.CsrMatrix(ref.indptr, ref.indices, ref.data, ref.shape)
    for start in range(len(W)):
        gain = markov_chain_gain(P, stage, start)
        assert gain == pytest.approx(_scipy_chain_gain(ref, stage, start), rel=1e-9, abs=1e-9)
        assert gain == pytest.approx(_dense_chain_gain(W, stage, start), rel=1e-9, abs=1e-9)


def test_chain_gain_refuses_dense_blocks_above_the_byte_guard(monkeypatch):
    m = 100
    ring = sp.csr_matrix((np.ones(m), (np.arange(m), (np.arange(m) + 1) % m)), shape=(m, m))
    stage = np.arange(m, dtype=float)
    assert markov_chain_gain(ring, stage, 0) == pytest.approx(stage.mean())
    monkeypatch.setattr(mdp, "_BLOCK_BYTES", 8 * m * m - 1)
    with pytest.raises(SizeLimitError, match=r"100 states needs 80000 bytes"):
        markov_chain_gain(ring, stage, 0)


def _sparse_full_chain_gain(kernel, policy):
    """Full-state chain as one sparse matrix, solved by the scipy oracle:
    a dense solve of its 9,900-state recurrent class would need 784 MB."""
    n = kernel.total_states
    m = len(kernel.chan_offsets)
    base = kernel.succ_full[np.arange(n), policy]
    P = sp.csr_matrix(
        (
            np.tile(kernel.chan_probs, n),
            (np.repeat(np.arange(n), m), (base[:, None] + kernel.chan_offsets).ravel()),
        ),
        shape=(n, n),
    )
    stage = kernel.cost if kernel.objective == "age" else kernel.reward_sa[np.arange(n), policy]
    return _scipy_chain_gain(P, stage, kernel.start_index)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    objective=st.sampled_from(["age", "throughput"]),
)
@settings(max_examples=40, deadline=None)
def test_core_chain_matches_dense_full_chain(seed, objective):
    rng = np.random.default_rng(seed)
    cfg = random_tiny_config(rng)
    kernel = build_kernel(cfg, enumerate_states(cfg, objective))
    policy = _random_feasible_policy(kernel, rng)
    assert evaluate_policy(kernel, policy) == pytest.approx(
        _dense_full_chain_gain(kernel, policy), rel=1e-9, abs=1e-9
    )


@pytest.mark.parametrize(
    "cfg_kwargs, objective",
    [
        (dict(battery_quanta=2, aoi_cap=3, levels=3, correlated_links=True), "age"),
        (dict(battery_quanta=3, levels=4, correlated_links=True), "throughput"),
        (dict(distances=(25.0, 40.0), battery_quanta=1, aoi_cap=2, levels=2), "age"),
    ],
    ids=["correlated-age", "correlated-throughput", "two-source"],
)
def test_core_chain_matches_dense_full_chain_fixed(cfg_kwargs, objective):
    cfg = make_config(**cfg_kwargs)
    kernel = build_kernel(cfg, enumerate_states(cfg, objective))
    rng = np.random.default_rng(7)
    policies = [solve_rvia(kernel)[1].actions, np.zeros(kernel.total_states, dtype=np.int64)]
    policies += [_random_feasible_policy(kernel, rng) for _ in range(3)]
    for policy in policies:
        assert evaluate_policy(kernel, policy) == pytest.approx(
            _dense_full_chain_gain(kernel, policy), rel=1e-9, abs=1e-9
        )


def test_core_chain_starts_at_successor_of_start_state():
    # harvesting and transmitting both move one quantum; battery 0..2,
    # AoI 1..2, one downlink level, two uplink levels
    cfg = make_config(
        distances=(41.33,),
        battery_mj=0.511,
        battery_quanta=2,
        aoi_cap=2,
        levels=1,
        levels_uplink=2,
        packet_mbits=7.36,
    )
    kernel = build_kernel(cfg, enumerate_states(cfg))
    e_h, e_t = energy_tables(cfg)
    assert e_h[0].tolist() == [1] and e_t[0].tolist() == [1, 1]
    transmit = {(2, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 0, 1)}  # 0-based (b, A, g, h)
    policy = np.array(
        [int(kernel.indexer.index_to_state(s) in transmit) for s in range(kernel.total_states)]
    )
    # The start (b 2, AoI 1, h 1) transmits into core (1, 1). From there the
    # chain enters, with probability 1/2 each, the cycle (0, 1) <-> (1, 2)
    # (average AoI 1.5) or the absorbing core (2, 2) (AoI 2): gain 1.75.
    # Drawing a fresh channel at the start's own core (2, 1) would give 1.875.
    assert evaluate_policy(kernel, policy) == pytest.approx(1.75, abs=1e-12)
    assert _dense_full_chain_gain(kernel, policy) == pytest.approx(1.75, abs=1e-12)


@pytest.mark.parametrize("objective", ["age", "throughput"])
def test_core_chain_matches_sparse_full_chain_single_source_large(objective):
    cfg = load_config(ROOT / "configs" / "single_source_large.yaml")
    kernel = build_kernel(cfg, enumerate_states(cfg, objective))
    _, pt = solve_rvia(kernel)
    policies = {
        "rvia": pt.actions,
        "harvest-only": np.zeros(kernel.total_states, dtype=np.int64),
        "random": _random_feasible_policy(kernel, np.random.default_rng(11)),
    }
    for name, policy in policies.items():
        assert evaluate_policy(kernel, policy) == pytest.approx(
            _sparse_full_chain_gain(kernel, policy), rel=1e-9
        ), name


def test_induced_chain_matches_scipy_csr_single_source_large():
    cfg = load_config(ROOT / "configs" / "single_source_large.yaml")
    kernel = build_kernel(cfg, enumerate_states(cfg))
    n, core, m = kernel.total_states, len(kernel.core_base), len(kernel.chan_offsets)
    states = kernel.core_base[:, None] + kernel.chan_offsets
    policies = {
        "rvia": solve_rvia(kernel)[1].actions,
        "harvest-only": np.zeros(n, dtype=np.int64),
        "random": _random_feasible_policy(kernel, np.random.default_rng(11)),
    }
    for name, policy in policies.items():
        P, _, _ = induced_chain(kernel, policy)
        succ = kernel.succ_small[np.arange(n), policy]
        ref = sp.csr_matrix(
            (np.tile(kernel.chan_probs, core), (np.repeat(np.arange(core), m), succ[states].ravel())),
            shape=(core, core),
        )
        ref.sum_duplicates()
        assert P.shape == ref.shape and P.nnz == ref.nnz, name
        assert np.array_equal(P.indptr, ref.indptr) and np.array_equal(P.indices, ref.indices), name
        np.testing.assert_allclose(P.data, ref.data, rtol=1e-12, err_msg=name)


def test_two_source_evaluation_matches_rvia_gain():
    cfg = make_config(distances=(25.0, 40.0))
    kernel = build_kernel(cfg, enumerate_states(cfg))
    assert (kernel.total_states, kernel.num_actions) == (65_536, 3)
    vt, pt = solve_rvia(kernel)
    assert evaluate_policy(kernel, pt.actions) == pytest.approx(vt.gain, rel=1e-9)
    # evaluating reads only the per-action tables
    assert not {"succ_small", "succ_full", "feasible", "cost", "reward_sa"} & kernel.__dict__.keys()


@pytest.mark.parametrize("m", [2, 100, 2500])
def test_class_gain_sparse_branch_matches_dense_solve(m):
    # ring 0 -> 1 -> ... -> m-1 -> 0 makes the chain irreducible; three
    # random extra successors per state make it aperiodic and non-trivial
    rng = np.random.default_rng(5)
    rows = np.repeat(np.arange(m), 4)
    cols = np.column_stack([(np.arange(m) + 1) % m, rng.integers(m, size=(m, 3))]).ravel()
    weights = rng.uniform(0.1, 1.0, size=(m, 4))
    weights /= weights.sum(axis=1, keepdims=True)
    P = sp.csr_matrix((weights.ravel(), (rows, cols)), shape=(m, m))
    stage = rng.normal(size=m)

    lhs = P.T.toarray() - np.eye(m)
    lhs[-1, :] = 1.0
    rhs = np.zeros(m)
    rhs[-1] = 1.0
    expected = float(np.linalg.solve(lhs, rhs) @ stage)
    assert _class_gain(P, np.arange(m), stage) == pytest.approx(expected, rel=1e-9, abs=1e-12)


# --- relative value iteration ---------------------------------------------


def test_free_transmission_gain_is_one(free_transmission_config):
    kernel = build_kernel(
        free_transmission_config, enumerate_states(free_transmission_config)
    )
    vt, pt = solve_rvia(kernel)
    assert vt.gain == pytest.approx(1.0, abs=1e-8)
    assert np.all(pt.actions == 1)


def test_rvia_matches_oracle_on_fixed_tiny_instance():
    cfg = make_config(battery_quanta=1, aoi_cap=3, levels=1, packet_mbits=8.0)
    kernel = build_kernel(cfg, enumerate_states(cfg))
    vt, _ = solve_rvia(kernel)
    oracle_gain, oracle_policy = brute_force_oracle(kernel)
    assert vt.gain == pytest.approx(oracle_gain, abs=1e-9)
    assert evaluate_policy(kernel, oracle_policy.actions) == pytest.approx(oracle_gain)


def test_rvia_gain_agrees_with_exact_policy_evaluation(small_config):
    kernel = build_kernel(small_config, enumerate_states(small_config))
    vt, pt = solve_rvia(kernel)
    assert evaluate_policy(kernel, pt.actions) == pytest.approx(vt.gain, abs=1e-8)


def test_rvia_throughput_maximizes(small_config):
    kernel = build_kernel(small_config, enumerate_states(small_config, "throughput"))
    vt, pt = solve_rvia(kernel)
    assert 0.0 < vt.gain <= small_config.packet_bits
    assert evaluate_policy(kernel, pt.actions) == pytest.approx(vt.gain, rel=1e-8)
    # always-harvest is feasible and earns nothing; the optimum beats it
    harvest_only = np.zeros(kernel.total_states, dtype=np.int64)
    assert vt.gain > evaluate_policy(kernel, harvest_only)


def test_rvia_non_convergence_error(small_config, monkeypatch):
    monkeypatch.setattr(mdp, "_MAX_SWEEPS", 2)
    kernel = build_kernel(small_config, enumerate_states(small_config))
    with pytest.raises(ConvergenceError, match="span"):
        solve_rvia(kernel)


def test_oracle_size_limits(small_config):
    kernel = build_kernel(small_config, enumerate_states(small_config))
    with pytest.raises(SizeLimitError):
        brute_force_oracle(kernel)  # 256 states is far beyond the cap


def test_oracle_agreement_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(6):
        cfg = random_tiny_config(rng)
        kernel = build_kernel(cfg, enumerate_states(cfg))
        vt, _ = solve_rvia(kernel)
        oracle_gain, _ = brute_force_oracle(kernel)
        assert vt.gain == pytest.approx(oracle_gain, abs=1e-6)


# --- per-action tables against the (n, A) formulation ---------------------


def _nA_kernel(config, indexer):
    """The kernel as (n, A) arrays over every state, built the way the solver
    used to: feasibility, successor core index, successor full index at the
    lowest channel levels (-1 where infeasible), and the stage matrix."""
    n = indexer.total_states
    N = config.num_sources
    age = indexer.objective == "age"
    num_actions = N + 1 if age else 2
    vps = indexer.vars_per_source
    grids = np.unravel_index(np.arange(n), indexer.dims)
    e_h, e_t = energy_tables(config)
    b = [grids[vps * i] for i in range(N)]
    A = [grids[vps * i + 1] for i in range(N)] if age else None
    g = [grids[vps * i + vps - 2] for i in range(N)]
    h = [grids[vps * i + vps - 1] for i in range(N)]
    caps = [s.battery_quanta for s in config.sources]
    aoi_caps = [s.aoi_cap for s in config.sources]
    core_dims = [d for k, d in enumerate(indexer.dims) if k % vps < vps - 2]
    zeros = np.zeros(n, dtype=np.int64)

    def encode(next_b, next_A):
        core, full = [], []
        for i in range(N):
            core += [next_b[i], next_A[i]] if age else [next_b[i]]
            full += (core[-2:] if age else core[-1:]) + [zeros, zeros]
        return np.ravel_multi_index(core, core_dims), np.ravel_multi_index(full, indexer.dims)

    feasible = np.zeros((n, num_actions), dtype=bool)
    feasible[:, HARVEST] = True
    succ_small = np.full((n, num_actions), -1, dtype=np.int64)
    succ_full = np.full((n, num_actions), -1, dtype=np.int64)
    aged = [np.minimum(aoi_caps[i] - 1, A[i] + 1) for i in range(N)] if age else None
    hb = [np.minimum(caps[i], b[i] + e_h[i][g[i]]) for i in range(N)]
    succ_small[:, HARVEST], succ_full[:, HARVEST] = encode(hb, aged)
    for j in range(N):
        cost_j = e_t[j][h[j]]
        feas = b[j] >= cost_j
        feasible[:, j + 1] = feas
        tb = list(b)
        tb[j] = b[j] - np.where(feas, cost_j, 0)
        tA = None if A is None else aged[:j] + [zeros] + aged[j + 1 :]
        small, full = encode(tb, tA)
        succ_small[:, j + 1] = np.where(feas, small, -1)
        succ_full[:, j + 1] = np.where(feas, full, -1)
    if age:
        cost = np.zeros(n)
        for i, spec in enumerate(config.sources):
            cost += spec.weight * (A[i] + 1)
        stage = np.broadcast_to(cost[:, None], (n, num_actions))
    else:
        stage = np.zeros((n, 2))
        stage[:, 1] = np.where(feasible[:, 1], config.packet_bits, 0.0)
    return feasible, succ_small, succ_full, stage


def _nA_solve(kernel, feasible, succ_small, stage, epsilon=1e-9, damping=0.5):
    """The (n, A) RVIA sweep: gather, mask, reduce, argmin/argmax. Returns
    values, gain, actions, sweeps, the final bracket and the near-tie count."""
    minimize = kernel.objective == "age"
    bad = np.inf if minimize else -np.inf
    v = np.zeros(kernel.total_states)
    for sweep in itertools.count(1):
        w = kernel.contract_channels(v)
        q = np.where(feasible, stage + w[succ_small], bad)
        tv = q.min(axis=1) if minimize else q.max(axis=1)
        diff = tv - v
        lo, hi = diff.min(), diff.max()
        v = (1.0 - damping) * v + damping * (tv - tv[0])
        if hi - lo < epsilon * max(1.0, 0.5 * abs(hi + lo)):
            gain = float(0.5 * (hi + lo))
            actions = q.argmin(axis=1) if minimize else q.argmax(axis=1)
            ranked = np.sort(q, axis=1) if minimize else -np.sort(q, axis=1)[:, ::-1]
            gaps = np.abs(ranked[:, 1] - ranked[:, 0])
            near = int(np.count_nonzero(gaps <= epsilon * max(1.0, abs(gain))))
            return v, gain, actions, sweep, [float(lo), float(hi)], near


_TABLE_CASES = {
    "small": (lambda: make_config(), "age"),
    "large-age": (lambda: load_config(ROOT / "configs" / "single_source_large.yaml"), "age"),
    "large-throughput": (
        lambda: load_config(ROOT / "configs" / "single_source_large.yaml"),
        "throughput",
    ),
    "correlated": (lambda: make_config(aoi_cap=5, correlated_links=True), "age"),
    "correlated-throughput": (lambda: make_config(correlated_links=True), "throughput"),
    "upper-bound": (
        lambda: make_config(battery_quanta=4, rounding_mode="upper-bound", packet_mbits=6.0),
        "age",
    ),
    "two-source": (lambda: make_config(distances=(25.0, 40.0)), "age"),
    "three-source": (
        lambda: make_config(
            distances=(25.0, 40.0, 20.0), battery_quanta=1, aoi_cap=2, levels=2, weights=(0.5, 0.3, 0.2)
        ),
        "age",
    ),
}


# the coarse tolerance makes near-ties occur on these cases
_COARSE = ["large-age", "large-throughput", "three-source", "two-source"]


@pytest.mark.parametrize(
    "case, epsilon",
    [(case, 1e-9) for case in sorted(_TABLE_CASES)] + [(case, 0.1) for case in _COARSE],
)
def test_solver_matches_nA_sweep_bit_for_bit(case, epsilon, monkeypatch):
    make, objective = _TABLE_CASES[case]
    cfg = make()
    kernel = build_kernel(cfg, enumerate_states(cfg, objective))
    calls = []
    contract = TransitionKernel.contract_channels

    def counted(self, values):
        calls.append(len(values))
        return contract(self, values)

    monkeypatch.setattr(TransitionKernel, "contract_channels", counted)
    vt, pt = solve_rvia(kernel, epsilon=epsilon)
    # solving reads only the per-action tables
    assert not {"succ_small", "succ_full", "feasible", "cost", "reward_sa"} & kernel.__dict__.keys()
    assert vt.stats["sweeps"] == len(calls)

    feasible, succ_small, _, stage = _nA_kernel(cfg, kernel.indexer)
    values, gain, actions, sweeps, bracket, near = _nA_solve(
        kernel, feasible, succ_small, stage, epsilon=epsilon
    )
    assert np.array_equal(vt.values, values)
    assert np.array_equal(pt.actions, actions) and pt.actions.dtype == np.int64
    assert vt.gain == gain and pt.gain == gain
    assert vt.stats == pt.stats == {"sweeps": sweeps, "bracket": bracket, "near_ties": near}
    assert len(calls) == 2 * sweeps
    assert epsilon < 1e-3 or near > 0


@pytest.mark.parametrize("case", sorted(_TABLE_CASES))
def test_derived_arrays_match_nA_builder(case):
    make, objective = _TABLE_CASES[case]
    cfg = make()
    kernel = build_kernel(cfg, enumerate_states(cfg, objective))
    feasible, succ_small, succ_full, stage = _nA_kernel(cfg, kernel.indexer)
    assert np.array_equal(kernel.feasible, feasible)
    assert np.array_equal(kernel.succ_small, succ_small)
    assert np.array_equal(kernel.succ_full, succ_full)
    if objective == "age":
        assert np.array_equal(np.broadcast_to(kernel.cost[:, None], stage.shape), stage)
    else:
        assert np.array_equal(kernel.reward_sa, stage)
    for arr in (kernel.feasible, kernel.succ_small, kernel.succ_full):
        assert arr.flags.c_contiguous and arr.flags.writeable


def test_near_ties_count_planted_ties():
    # with AoI cap 1 every state costs the same, so all feasible actions of a
    # state tie exactly: the count is the states with a transmit option, and
    # the tie goes to harvest
    cfg = make_config(aoi_cap=1)
    kernel = build_kernel(cfg, enumerate_states(cfg))
    vt, pt = solve_rvia(kernel)
    feasible, succ_small, _, stage = _nA_kernel(cfg, kernel.indexer)
    *_, near = _nA_solve(kernel, feasible, succ_small, stage)
    assert vt.stats["near_ties"] == near == np.count_nonzero(feasible[:, 1]) > 0
    assert np.all(pt.actions == HARVEST)


# --- policy CSV round trip ------------------------------------------------


def test_policy_csv_round_trip(tmp_path, small_config):
    kernel = build_kernel(small_config, enumerate_states(small_config))
    vt, pt = solve_rvia(kernel)
    path = tmp_path / "policy.csv"
    export_policy_csv(path, kernel.indexer, pt.actions, vt.values)
    policy, values = load_policy_csv(path, kernel.indexer)
    assert np.array_equal(policy, pt.actions)
    assert values == pytest.approx(vt.values)


def test_policy_csv_header_mismatch(tmp_path, small_config):
    idx_age = enumerate_states(small_config, "age")
    idx_thr = enumerate_states(small_config, "throughput")
    kernel = build_kernel(small_config, idx_thr)
    _, pt = solve_rvia(kernel)
    path = tmp_path / "policy.csv"
    export_policy_csv(path, idx_thr, pt.actions)
    with pytest.raises(ContractError, match="columns"):
        load_policy_csv(path, idx_age)


def _csv_writer_export(path, indexer, policy, values=None):
    """Row-by-row ``csv.writer`` rendering of a policy file."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*indexer.var_names, "action", "value"])
        for s in range(indexer.total_states):
            state = indexer.index_to_state(s)
            display = [v if name.startswith("b_") else v + 1 for name, v in zip(indexer.var_names, state)]
            val = "" if values is None else repr(float(values[s]))
            writer.writerow([*display, action_name(int(policy[s])), val])


def _csv_reader_load(path, indexer):
    """Row-by-row ``csv.reader`` parse of a policy file."""
    policy = np.full(indexer.total_states, -1, dtype=np.int64)
    values = np.full(indexer.total_states, np.nan)
    nv = len(indexer.var_names)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert tuple(next(reader)[:nv]) == indexer.var_names
        any_values = False
        for row in reader:
            state = [
                int(x) if name.startswith("b_") else int(x) - 1
                for name, x in zip(indexer.var_names, row[:nv])
            ]
            s = indexer.state_to_index(state)
            policy[s] = parse_action(row[nv])
            if row[nv + 1] != "":
                values[s] = float(row[nv + 1])
                any_values = True
    assert (policy >= 0).all()
    return policy, (values if any_values else None)


@pytest.mark.parametrize("with_values", [True, False], ids=["values", "no-values"])
@pytest.mark.parametrize(
    "cfg_kwargs",
    [dict(), dict(distances=(25.0, 40.0), battery_quanta=2, aoi_cap=3, levels=2, levels_uplink=3)],
    ids=["one-source", "two-source"],
)
def test_policy_csv_bytes_match_csv_module(tmp_path, cfg_kwargs, with_values, monkeypatch):
    monkeypatch.setattr(mdp, "_CSV_CHUNK_ROWS", 100)  # rows span several chunks
    cfg = make_config(**cfg_kwargs)
    kernel = build_kernel(cfg, enumerate_states(cfg))
    rng = np.random.default_rng(4)
    policy = _random_feasible_policy(kernel, rng)
    values = None
    if with_values:
        values = solve_rvia(kernel)[0].values
        values[:7] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, np.finfo(float).max, 1e22]
        values[7::5] = rng.normal(scale=1e6, size=len(values[7::5]))
    ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
    export_policy_csv(ours, kernel.indexer, policy, values)
    _csv_writer_export(reference, kernel.indexer, policy, values)
    assert ours.read_bytes() == reference.read_bytes()

    for load in (load_policy_csv, _csv_reader_load):
        got_policy, got_values = load(ours, kernel.indexer)
        assert np.array_equal(got_policy, policy)
        if values is None:
            assert got_values is None
        else:
            assert np.array_equal(got_values, values, equal_nan=True)
            assert np.array_equal(np.signbit(got_values), np.signbit(values))


def test_policy_csv_load_reads_lf_files_and_rejects_gaps(tmp_path, small_config, monkeypatch):
    monkeypatch.setattr(mdp, "_CSV_CHUNK_ROWS", 7)  # many chunks, the last one short
    kernel = build_kernel(small_config, enumerate_states(small_config))
    vt, pt = solve_rvia(kernel)
    path = tmp_path / "policy.csv"
    export_policy_csv(path, kernel.indexer, pt.actions, vt.values)
    lines = path.read_text().splitlines()
    lf = tmp_path / "lf.csv"
    lf.write_text("\n".join(lines) + "\n")
    policy, values = load_policy_csv(lf, kernel.indexer)
    assert np.array_equal(policy, pt.actions) and np.array_equal(values, vt.values)
    lf.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ContractError, match="cover"):
        load_policy_csv(lf, kernel.indexer)
    # a state listed twice, the second time with another action
    state, action, value = lines[1].rsplit(",", 2)
    other = "H" if action != "H" else "T1"
    lf.write_text("\n".join([*lines, f"{state},{other},{value}"]) + "\n")
    with pytest.raises(ContractError, match="cover"):
        load_policy_csv(lf, kernel.indexer)
    lf.write_text("\n".join(lines[:2] + [lines[2] + ",extra"]) + "\n")
    with pytest.raises(ValueError):
        load_policy_csv(lf, kernel.indexer)
    # a state off the grid, as in a policy file of another config
    off_grid = lines[1].split(",")
    off_grid[1] = str(kernel.indexer.dims[1] + 1)  # an AoI above the cap
    lf.write_text("\n".join([*lines[:5], ",".join(off_grid), *lines[6:]]) + "\n")
    with pytest.raises(ContractError, match="off the grid") as refused:
        load_policy_csv(lf, kernel.indexer)
    assert f"A_1={off_grid[1]}," in str(refused.value)
    assert str(kernel.indexer.dims) in str(refused.value)
    for bad_policy in (pt.actions[:-1], np.where(pt.actions == 0, 2, pt.actions), pt.actions - 1):
        with pytest.raises(ContractError):
            export_policy_csv(path, kernel.indexer, bad_policy)
