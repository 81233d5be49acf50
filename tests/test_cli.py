"""End-to-end command-line tests on a small scenario."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import aoi_rl
from aoi_rl.cli import _write_trace_csv, main
from aoi_rl.dqn import DqnHyperparams, train_dqn
from aoi_rl.env import load_config
from aoi_rl.mdp import build_kernel, enumerate_states, load_policy_csv, solve_rvia
from aoi_rl.tabular import LearningSchedule, train_tabular


@pytest.fixture
def config_path(tmp_path):
    data = {
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
                "battery_quanta": 2,
                "aoi_cap": 3,
                "weight": 1.0,
                "levels_downlink": 2,
                "levels_uplink": 2,
            }
        ],
    }
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


def test_solve_writes_policy_and_manifest(tmp_path, config_path, capsys):
    out = tmp_path / "solved"
    assert main(["solve", "--config", str(config_path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("gain:")

    cfg = load_config(config_path)
    idx = enumerate_states(cfg)
    policy, values = load_policy_csv(out / "policy.csv", idx)
    vt, pt = solve_rvia(build_kernel(cfg, idx))
    assert np.array_equal(policy, pt.actions)
    assert values == pytest.approx(vt.values)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["skipped"] == {}
    assert len(manifest["config_sha256"]) == 64
    assert "numpy" in manifest["versions"]


def test_verify_exact_policy_passes(tmp_path, config_path, capsys):
    out = tmp_path / "solved"
    main(["solve", "--config", str(config_path), "--out", str(out)])
    code = main(
        ["verify", str(out / "policy.csv"), "--config", str(config_path)]
    )
    assert code == 0
    assert "0 violation(s) (binding)" in capsys.readouterr().out


def test_verify_flags_corrupted_policy(tmp_path, config_path, capsys):
    out = tmp_path / "solved"
    main(["solve", "--config", str(config_path), "--out", str(out)])
    lines = (out / "policy.csv").read_text().splitlines()
    # flip every transmit decision to harvest except the first one found,
    # guaranteeing a gap above some transmitting state
    flipped, kept = [], False
    for line in lines:
        if ",T1," in line and kept:
            line = line.replace(",T1,", ",H,")
        elif ",T1," in line:
            kept = True
        flipped.append(line)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(flipped) + "\n")
    report = tmp_path / "violations.csv"
    code = main(
        [
            "verify",
            str(bad),
            "--config",
            str(config_path),
            "--out",
            str(report),
        ]
    )
    assert code == 1
    assert report.exists()
    assert "violation" in capsys.readouterr().out


def test_train_tabular_trace_deterministic(tmp_path, config_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["train", "--config", str(config_path), "--agent", "tabular", "--slots", "2000", "--seed", "3"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert (out_a / "policy.csv").exists()


def test_train_dqn_checkpoint_verifies_as_advisory(tmp_path, config_path, capsys):
    out = tmp_path / "dqn"
    code = main(
        [
            "train",
            "--config",
            str(config_path),
            "--agent",
            "dqn",
            "--slots",
            "1500",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "checkpoint.npz").exists()
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "slot,gain_estimate,epsilon,loss"
    assert len(trace_lines) == 1501

    code = main(
        [
            "verify",
            str(out / "checkpoint.npz"),
            "--config",
            str(config_path),
        ]
    )
    printed = capsys.readouterr().out
    assert code == 0  # learned policies never fail the exit status
    assert "(advisory)" in printed


def test_train_dqn_records_skipped_policy_table(tmp_path, capsys):
    # three sources of 10 x 10 x 10 x 10 states each: 10^12 states, far above
    # the enumeration limit, so the greedy policy cannot be tabulated
    source = {
        "distance_m": 25.0,
        "battery_capacity_mj": 0.3,
        "battery_quanta": 9,
        "aoi_cap": 10,
        "weight": 1.0 / 3.0,
        "levels_downlink": 10,
        "levels_uplink": 10,
    }
    data = {
        "tx_power_dbm": 37.0,
        "harvest_efficiency": 0.5,
        "noise_power_dbm": -95.0,
        "packet_mbits": 12.0,
        "bandwidth_mhz": 1.0,
        "reference_gain": 0.2,
        "path_loss_exponent": 2.0,
        "sources": [source, source, source],
    }
    path = tmp_path / "huge.yaml"
    path.write_text(yaml.safe_dump(data))
    out = tmp_path / "dqn"
    args = ["train", "--config", str(path), "--agent", "dqn", "--slots", "40", "--out", str(out)]
    assert main(args) == 0
    printed = capsys.readouterr().out
    assert (out / "checkpoint.npz").exists()
    assert not (out / "policy.csv").exists()
    reason = json.loads((out / "manifest.json").read_text())["skipped"]["policy.csv"]
    assert "1000000000000 states" in reason
    assert f"skipped policy.csv: {reason}" in printed


def test_sweep_single_value_matches_solve(tmp_path, config_path, capsys):
    solve_out = tmp_path / "solved"
    main(["solve", "--config", str(config_path), "--out", str(solve_out)])
    gain_line = capsys.readouterr().out.strip()
    sweep_out = tmp_path / "swept"
    code = main(
        [
            "sweep",
            "--config",
            str(config_path),
            "--vary",
            "battery_capacity",
            "--values",
            "0.3",
            "--out",
            str(sweep_out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    rows = (sweep_out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "battery_capacity,gain"
    swept_gain = float(rows[1].split(",")[1])
    solved_gain = float(gain_line.split()[-1])
    assert swept_gain == pytest.approx(solved_gain, abs=1e-9)


def test_solve_and_exact_sweep_record_solver_stats(tmp_path, config_path, capsys):
    from aoi_rl.presets import with_battery_capacity

    main(["solve", "--config", str(config_path), "--out", str(tmp_path / "solved")])
    printed_gain = float(capsys.readouterr().out.split()[-1])
    sweep = ["sweep", "--config", str(config_path), "--vary", "battery_capacity"]
    main(sweep + ["--values", "0.3,0.6", "--out", str(tmp_path / "swept")])
    main(sweep + ["--values", "0.3", "--agent", "tabular", "--slots", "500", "--out", str(tmp_path / "tab")])
    capsys.readouterr()

    cfg = load_config(config_path)
    expected = []
    for value in (0.3, 0.6):
        point = with_battery_capacity(cfg, value * 1e-3)  # mJ, as the CLI converts it
        expected.append(solve_rvia(build_kernel(point, enumerate_states(point)))[0].stats)
    solved = json.loads((tmp_path / "solved" / "manifest.json").read_text())
    swept = json.loads((tmp_path / "swept" / "manifest.json").read_text())
    assert solved["solver"] == expected[0]
    assert swept["solver"] == expected
    stats = solved["solver"]
    assert set(stats) == {"sweeps", "bracket", "near_ties"}
    assert stats["sweeps"] > 0 and stats["near_ties"] >= 0
    lo, hi = stats["bracket"]
    assert lo <= printed_gain <= hi or printed_gain == pytest.approx(0.5 * (lo + hi), rel=1e-8)
    assert "solver" not in json.loads((tmp_path / "tab" / "manifest.json").read_text())


def test_sweep_rejects_non_positive_values(tmp_path, config_path):
    with pytest.raises(SystemExit):
        main(
            [
                "sweep",
                "--config",
                str(config_path),
                "--vary",
                "packet_bits",
                "--values",
                "12,-1",
                "--out",
                str(tmp_path / "x"),
            ]
        )


def test_simulate_stored_policy(tmp_path, config_path, capsys):
    out = tmp_path / "solved"
    main(["solve", "--config", str(config_path), "--out", str(out)])
    code = main(
        [
            "simulate",
            "--config",
            str(config_path),
            "--policy",
            str(out / "policy.csv"),
            "--slots",
            "3000",
            "--seed",
            "1",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "average weighted AoI:" in printed
    simulated = float(printed.split("average weighted AoI:")[1].split()[0])
    assert 1.0 <= simulated <= 3.0


def _csv_writer_bytes(header, *columns) -> bytes:
    """A ``csv.writer`` rendering of a trace: slot, then ``repr(float)`` fields."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for k in range(len(columns[0])):
        writer.writerow([k, *(repr(float(c[k])) for c in columns)])
    return buf.getvalue().encode()


def test_trace_writer_matches_csv_writer(tmp_path):
    values = np.array([0.0, 1.0, -2.5, 1e-300, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, -1e22])
    special = np.array([np.nan, np.inf, -np.inf, 123456789.0, 1.0 / 3.0, -0.0, 2.0**60, 7.0])
    path = tmp_path / "trace.csv"
    _write_trace_csv(path, ["slot", "a", "b"], values, special)
    assert path.read_bytes() == _csv_writer_bytes(["slot", "a", "b"], values, special)
    _write_trace_csv(path, ["slot", "a"], values[:0])
    assert path.read_bytes() == b"slot,a\r\n"


def test_train_traces_match_csv_writer(tmp_path, config_path, capsys):
    config = load_config(config_path)
    for agent in ("tabular", "dqn"):
        out = tmp_path / agent
        args = ["train", "--config", str(config_path), "--agent", agent, "--slots", "700"]
        assert main(args + ["--seed", "5", "--epsilon", "0.2", "--out", str(out)]) == 0
        if agent == "tabular":
            _, trace = train_tabular(config, 700, 5, schedule=LearningSchedule(eps0=0.2))
            expected = _csv_writer_bytes(["slot", "gain_estimate"], trace)
        else:
            result = train_dqn(config, DqnHyperparams(total_slots=700, seed=5, eps0=0.2))
            expected = _csv_writer_bytes(
                ["slot", "gain_estimate", "epsilon", "loss"],
                result.gain_trace,
                result.epsilon_trace,
                result.loss_trace,
            )
        assert (out / "trace.csv").read_bytes() == expected
    capsys.readouterr()


def test_train_manifest_records_phase_time_and_slot_rate(tmp_path, config_path, capsys):
    for agent in ("tabular", "dqn"):
        out = tmp_path / agent
        args = ["train", "--config", str(config_path), "--agent", agent, "--slots", "600"]
        assert main(args + ["--seed", "2", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        train_s = manifest["phases"]["train"]
        assert set(manifest["phases"]) == {"train"}
        assert 0 < train_s < 600
        assert manifest["slots_per_s"] == pytest.approx(600 / train_s)
    capsys.readouterr()


def test_cli_import_leaves_scipy_sparse_unloaded(tmp_path, config_path):
    """Only exact policy evaluation needs scipy.sparse; it loads on first use."""
    src = str(Path(aoi_rl.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    script = f"""
import sys
import aoi_rl.cli
from aoi_rl.env import load_config
from aoi_rl.mdp import build_kernel, enumerate_states, evaluate_policy, solve_rvia
assert "scipy.sparse" not in sys.modules, "importing aoi_rl.cli loaded scipy.sparse"
config = load_config({str(config_path)!r})
kernel = build_kernel(config, enumerate_states(config))
vt, pt = solve_rvia(kernel)
assert "scipy.sparse" not in sys.modules, "solving loaded scipy.sparse"
gain = evaluate_policy(kernel, pt.actions)
assert abs(gain - vt.gain) <= 1e-9 * abs(vt.gain), (gain, vt.gain)
assert "scipy.sparse" in sys.modules
print("ok")
"""
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
