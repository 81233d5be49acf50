"""Structural checkers: monotonicity, thresholds, and policy diffs."""

import csv

import numpy as np
import pytest

from aoi_rl.env import harvested_quanta, transmit_quanta
from aoi_rl.errors import ContractError
from aoi_rl.mdp import StateIndexer, build_kernel, enumerate_states, solve_rvia
from aoi_rl.structure import (
    check_threshold_aoi,
    check_threshold_single_source,
    check_value_monotone_age,
    diff_policies,
    export_violations_csv,
)

from conftest import make_config


def _tiny_indexer():
    return StateIndexer(
        objective="age", dims=(2, 3, 2, 2), var_names=("b_1", "A_1", "g_1", "h_1"), num_sources=1
    )


# --- value monotonicity ---------------------------------------------------


def test_constant_table_has_no_violations():
    idx = _tiny_indexer()
    assert check_value_monotone_age(idx, np.full(idx.total_states, 3.0)) == []


def test_monotone_table_passes():
    idx = _tiny_indexer()
    b, A, g, h = np.meshgrid(*[np.arange(d) for d in idx.dims], indexing="ij")
    values = (-b + 2 * A - g - h).astype(float).ravel()
    assert check_value_monotone_age(idx, values) == []


def test_corrupted_entry_is_located():
    idx = _tiny_indexer()
    values = np.zeros(idx.dims)
    values[1, 0, 0, 0] = 5.0  # higher battery may not raise the value
    violations = check_value_monotone_age(idx, values.ravel())
    variables = {v.variable for v in violations}
    assert "b_1" in variables
    bumped = [v for v in violations if v.variable == "b_1"]
    assert bumped[0].state == (0, 1, 1, 1)
    assert bumped[0].other == (1, 1, 1, 1)
    # the bump also breaks AoI monotonicity out of that state
    assert "A_1" in variables


def test_tolerance_absorbs_solver_noise():
    idx = _tiny_indexer()
    values = np.zeros(idx.total_states)
    values[idx.state_to_index([1, 0, 0, 0])] = 5e-8  # below the 1e-7 tolerance
    assert check_value_monotone_age(idx, values) == []


def test_monotonicity_rejects_throughput_indexer(small_config):
    idx = enumerate_states(small_config, "throughput")
    with pytest.raises(ContractError):
        check_value_monotone_age(idx, np.zeros(idx.total_states))


# --- AoI threshold (any N) ------------------------------------------------


def test_always_harvest_policy_vacuously_passes():
    idx = _tiny_indexer()
    assert check_threshold_aoi(idx, np.zeros(idx.total_states, dtype=np.int64)) == []


def test_threshold_policy_passes():
    idx = _tiny_indexer()
    p = np.zeros(idx.dims, dtype=np.int64)
    p[:, 1:, :, :] = 1  # transmit for every AoI >= 2
    assert check_threshold_aoi(idx, p.ravel()) == []


def test_threshold_gap_is_reported():
    idx = _tiny_indexer()
    p = np.zeros(idx.dims, dtype=np.int64)
    p[0, 1, 0, 0] = 1  # transmit at AoI 2 ...
    # ... but harvest again at AoI 3: a threshold violation
    violations = check_threshold_aoi(idx, p.ravel())
    assert len(violations) == 1
    assert violations[0].variable == "A_1"
    assert violations[0].state == (0, 3, 1, 1)
    assert violations[0].found == "H"


def test_two_source_thresholds_are_independent():
    idx = StateIndexer(
        objective="age",
        dims=(2, 2, 1, 1, 2, 2, 1, 1),
        var_names=("b_1", "A_1", "g_1", "h_1", "b_2", "A_2", "g_2", "h_2"),
        num_sources=2,
    )
    p = np.zeros(idx.dims, dtype=np.int64)
    p[:, 1, :, :, :, 0, :, :] = 1  # T1 whenever A_1 is at its cap
    p[:, 0, :, :, :, 1, :, :] = 2  # T2 whenever only A_2 is high
    assert check_threshold_aoi(idx, p.ravel()) == []


# --- single-source product-order threshold --------------------------------


def test_single_source_threshold_on_exact_policies(small_config):
    for objective in ("age", "throughput"):
        kernel = build_kernel(small_config, enumerate_states(small_config, objective))
        _, pt = solve_rvia(kernel)
        assert (
            check_threshold_single_source(
                kernel.indexer, pt.actions, small_config, objective
            )
            == []
        )


def test_single_source_threshold_detects_hole(small_config):
    idx = enumerate_states(small_config)
    # pick the all-max corner (certainly in the high-battery set) and the
    # state just below it in battery
    p = np.zeros(idx.dims, dtype=np.int64)
    p[2, -1, -1, -1] = 1  # transmit at b=2 ...
    p[3, -1, -1, -1] = 0  # ... but harvest at b=3: breaks upward closure
    link = small_config.sources[0].link
    need = max(
        small_config.sources[0].battery_quanta - harvested_quanta(small_config, 0, link.levels_downlink),
        transmit_quanta(small_config, 0, link.levels_uplink),
    )
    assert need <= 2, "test premise: both states lie in the threshold set"
    violations = check_threshold_single_source(idx, p.ravel(), small_config, "age")
    assert any(v.state == (3, 4, 4, 4) for v in violations)


def test_aoi_threshold_check_rejects_throughput_indexer(small_config):
    idx = enumerate_states(small_config, "throughput")
    with pytest.raises(ContractError, match="applies to age policies"):
        check_threshold_aoi(idx, np.zeros(idx.total_states))


def test_single_source_check_rejects_multi_source():
    cfg = make_config(distances=(25.0, 40.0))
    idx = enumerate_states(cfg)
    with pytest.raises(ContractError):
        check_threshold_single_source(idx, np.zeros(idx.total_states), cfg)


def test_single_source_check_rejects_objective_mismatch(small_config):
    idx = enumerate_states(small_config, "age")
    with pytest.raises(ContractError):
        check_threshold_single_source(
            idx, np.zeros(idx.total_states), small_config, "throughput"
        )


# --- age vs throughput diff -----------------------------------------------


def _diff_indexers():
    age = _tiny_indexer()
    thr = StateIndexer(
        objective="throughput", dims=(2, 2, 2), var_names=("b_1", "g_1", "h_1"), num_sources=1
    )
    return age, thr


def test_identical_policies_diff_to_zero():
    age, thr = _diff_indexers()
    pa = np.zeros(age.dims, dtype=np.int64)
    pt = np.zeros(thr.dims, dtype=np.int64)
    report = diff_policies(pa.ravel(), pt.ravel(), age, thr)
    assert report.per_aoi_counts == {1: 0, 2: 0, 3: 0}


def test_diff_counts_per_aoi_slice():
    age, thr = _diff_indexers()
    pa = np.zeros(age.dims, dtype=np.int64)
    pt = np.zeros(thr.dims, dtype=np.int64)
    pa[:, 2, :, :] = 1  # age policy transmits at the AoI cap only
    report = diff_policies(pa.ravel(), pt.ravel(), age, thr)
    assert report.per_aoi_counts == {1: 0, 2: 0, 3: 8}


def test_diff_rejects_mismatched_grids():
    age, _ = _diff_indexers()
    thr = StateIndexer(
        objective="throughput", dims=(3, 2, 2), var_names=("b_1", "g_1", "h_1"), num_sources=1
    )
    with pytest.raises(ContractError, match="match"):
        diff_policies(
            np.zeros(age.total_states), np.zeros(thr.total_states), age, thr
        )


def test_diff_rejects_multi_source_indexers():
    cfg = make_config(distances=(25.0, 40.0))
    age = enumerate_states(cfg)
    _, thr = _diff_indexers()
    with pytest.raises(ContractError, match="defined for N = 1"):
        diff_policies(np.zeros(age.total_states), np.zeros(thr.total_states), age, thr)


# --- report export --------------------------------------------------------


def test_violations_csv_export(tmp_path):
    idx = _tiny_indexer()
    values = np.zeros(idx.dims)
    values[1, 0, 0, 0] = 5.0
    violations = check_value_monotone_age(idx, values.ravel())
    path = tmp_path / "violations.csv"
    export_violations_csv(path, violations)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["variable", "state", "compared_with", "expected", "found"]
    assert len(rows) == len(violations) + 1
