"""End-to-end command-line tests on a small scenario."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import aoi_rl
from aoi_rl import cli, mdp
from aoi_rl.cli import _write_trace_csv, main
from aoi_rl.dqn import DqnHyperparams, QNetwork, train_dqn
from aoi_rl.env import load_config, with_battery_capacity
from aoi_rl.mdp import build_kernel, enumerate_states, load_policy_csv, solve_rvia
from aoi_rl.tabular import train_tabular

ROOT = Path(__file__).resolve().parents[1]


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
    # verify creates the parent of its --out, as the other commands create theirs
    report = tmp_path / "new" / "dir" / "v.csv"
    code = main(
        ["verify", str(out / "policy.csv"), "--config", str(config_path), "--out", str(report)]
    )
    assert code == 0
    assert "0 violation(s) (binding)" in capsys.readouterr().out
    assert report.read_text() == "variable,state,compared_with,expected,found\n"


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


def test_train_epsilon_zero_explores_in_no_slot(tmp_path, config_path, monkeypatch, capsys):
    """``--epsilon 0`` turns exploration off in every slot: the DQN trace's
    epsilon column reads 0, and neither learner draws an exploration pair.
    Without ``--epsilon`` both learners start from 0.3, as ``--epsilon 0.3``
    does, and draw one pair (coin, pick) per slot."""
    default_rng = np.random.default_rng
    coins = []

    def counting_rng(seed):
        # exploration is the only purpose that draws uniforms with ``random``
        rng = default_rng(seed)

        def random(size=None):
            values = rng.random(size)
            coins.append(np.size(values))
            return values

        return SimpleNamespace(random=random, integers=rng.integers, uniform=rng.uniform)

    args = ["train", "--config", str(config_path), "--slots", "50", "--seed", "1"]
    runs = {"default": [], "0.3": ["--epsilon", "0.3"], "0": ["--epsilon", "0"]}
    tossed = {}
    for agent in ("tabular", "dqn"):
        for label, flag in runs.items():
            coins.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng", counting_rng)
                out = tmp_path / agent / label
                assert main([*args, "--agent", agent, *flag, "--out", str(out)]) == 0
            tossed[agent, label] = sum(coins)
        for name in ("trace.csv", "policy.csv"):
            default, explicit = (tmp_path / agent / label / name for label in ("default", "0.3"))
            assert default.read_bytes() == explicit.read_bytes()
        assert [tossed[agent, label] for label in runs] == [2 * 50, 2 * 50, 0]
    for label, expected in [("default", "0.3"), ("0", "0.0")]:
        with open(tmp_path / "dqn" / label / "trace.csv", newline="") as fh:
            assert [row["epsilon"] for row in csv.DictReader(fh)] == [expected] * 50
    capsys.readouterr()


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


def _huge_config(tmp_path) -> Path:
    """Three sources of 10 x 10 x 10 x 10 states each: 10^12 states, far
    above the enumeration limit."""
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
    return path


def test_train_dqn_records_skipped_policy_table(tmp_path, capsys):
    # the greedy policy of a config above the enumeration limit cannot be tabulated
    out = tmp_path / "dqn"
    path = _huge_config(tmp_path)
    args = ["train", "--config", str(path), "--agent", "dqn", "--slots", "40", "--out", str(out)]
    assert main(args) == 0
    printed = capsys.readouterr().out
    assert (out / "checkpoint.npz").exists()
    assert not (out / "policy.csv").exists()
    reason = json.loads((out / "manifest.json").read_text())["skipped"]["policy.csv"]
    assert "1000000000000 states" in reason
    assert f"skipped policy.csv: {reason}" in printed


def test_train_tabular_refuses_state_space_above_limit(tmp_path, capsys):
    """The tabular learner needs the enumerated kernel: above the limit it
    exits 2 before the output directory is made."""
    out = tmp_path / "tab"
    path = _huge_config(tmp_path)
    args = ["train", "--config", str(path), "--agent", "tabular", "--slots", "40", "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "enumerable state space" in err and "1000000000000 states" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, kind", [("verify", "npz"), ("verify", "csv"), ("simulate", "csv")]
)
def test_artifact_on_state_space_above_limit_exits_2(tmp_path, config_path, capsys, command, kind):
    """A policy file or checkpoint whose ``--config`` cannot be enumerated
    is one error line and exit status 2, not a traceback and ``verify``'s
    status 1 of binding violations."""
    huge = _huge_config(tmp_path)
    if kind == "npz":
        artifact = tmp_path / "checkpoint.npz"
        QNetwork.create([12, 16, 4], np.random.default_rng(0)).save(artifact, load_config(huge))
    else:
        assert main(["solve", "--config", str(config_path), "--out", str(tmp_path / "solved")]) == 0
        artifact = tmp_path / "solved" / "policy.csv"
    capsys.readouterr()
    if command == "verify":
        argv = ["verify", str(artifact), "--config", str(huge)]
    else:
        argv = ["simulate", "--config", str(huge), "--policy", str(artifact)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"aoi-rl {command}: error: cannot use {artifact} with {huge}: ")
    assert "1000000000000 states" in line


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
    main(["solve", "--config", str(config_path), "--out", str(tmp_path / "solved")])
    printed_gain = float(capsys.readouterr().out.split()[-1])
    sweep = ["sweep", "--config", str(config_path), "--vary", "battery_capacity"]
    main(sweep + ["--values", "0.3,0.6", "--out", str(tmp_path / "swept")])
    main(sweep + ["--values", "0.3", "--agent", "tabular", "--slots", "500", "--out", str(tmp_path / "tab")])
    capsys.readouterr()

    cfg = load_config(config_path)
    expected, gains = [], []
    for value in (0.3, 0.6):
        point = with_battery_capacity(cfg, value * 1e-3)  # mJ, as the CLI converts it
        vt, _ = solve_rvia(build_kernel(point, enumerate_states(point)))
        expected.append(vt.stats)
        gains.append(vt.gain)
    # sweep.csv holds the bytes a csv.writer gives
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([["battery_capacity", "gain"], *zip([0.3, 0.6], map(repr, gains))])
    assert (tmp_path / "swept" / "sweep.csv").read_bytes() == buf.getvalue().encode()
    solved = json.loads((tmp_path / "solved" / "manifest.json").read_text())
    swept = json.loads((tmp_path / "swept" / "manifest.json").read_text())
    assert solved["solver"] == expected[0]
    assert swept["solver"] == expected
    stats = solved["solver"]
    assert set(stats) == {"sweeps", "bracket", "near_ties"}
    assert stats["sweeps"] > 0 and stats["near_ties"] >= 0
    lo, hi = stats["bracket"]
    assert lo <= printed_gain <= hi or printed_gain == pytest.approx(0.5 * (lo + hi), rel=1e-8)
    tab = json.loads((tmp_path / "tab" / "manifest.json").read_text())
    assert "solver" not in tab
    # the seed is a learner's: exact sweeps record none, learned ones the default
    assert swept["seed"] is None and tab["seed"] == 0


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


@pytest.mark.parametrize("chunk_rows", [1, 3, 5, 1024])
def test_trace_writer_formats_repeats_across_chunks(tmp_path, monkeypatch, chunk_rows):
    """Values that repeat within and across chunks, zeros of both signs,
    nans of two payloads and a bit pattern shared with no other value
    format as ``repr`` does, at every chunk size."""
    other_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0]
    pool = [0.0, -0.0, np.nan, other_nan, np.inf, -np.inf, 5e-324, 1e22, 0.1, 1.0 / 3.0]
    rng = np.random.default_rng(0)
    a = np.array(pool)[rng.integers(len(pool), size=23)]
    b = np.repeat([1e22, -0.0, 0.0], [7, 9, 7])
    monkeypatch.setattr(mdp, "_CSV_WRITE_ROWS", chunk_rows)
    path = tmp_path / "trace.csv"
    _write_trace_csv(path, ["slot", "a", "b"], a, b)
    assert path.read_bytes() == _csv_writer_bytes(["slot", "a", "b"], a, b)
    assert b"-0.0" in path.read_bytes() and b"1e+22" in path.read_bytes()


def test_train_traces_match_csv_writer(tmp_path, config_path, capsys):
    config = load_config(config_path)
    for agent in ("tabular", "dqn"):
        out = tmp_path / agent
        args = ["train", "--config", str(config_path), "--agent", agent, "--slots", "700"]
        assert main(args + ["--seed", "5", "--epsilon", "0.2", "--out", str(out)]) == 0
        if agent == "tabular":
            _, trace = train_tabular(config, 700, 5, eps0=0.2)
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


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["train", "--agent", "tabular", "--slots", "0"], "--slots"),
        (["train", "--agent", "dqn", "--slots", "0"], "--slots"),
        (["train", "--slots", "-3"], "--slots"),
        (["train", "--slots", "2.5"], "--slots"),
        (["train", "--epsilon", "1.5"], "--epsilon"),
        (["train", "--epsilon", "-0.1"], "--epsilon"),
        (["train", "--epsilon", "nan"], "--epsilon"),
        (["train", "--epsilon", "inf"], "--epsilon"),
        (["train", "--epsilon", "x"], "--epsilon"),
        (["train", "--epsilon", ""], "--epsilon"),
        (["sweep", "--vary", "packet_bits", "--values", "12,x"], "--values"),
        (["sweep", "--vary", "packet_bits", "--values", "12,0"], "--values"),
        (["sweep", "--vary", "packet_bits", "--values", "12", "--eval-slots", "0"], "--eval-slots"),
        (["sweep", "--vary", "packet_bits", "--values", "12", "--slots", "0"], "--slots"),
        (["simulate", "--policy", "policy.csv", "--slots", "0"], "--slots"),
        (["sweep", "--vary", "packet_bits", "--values", "12", "--agent", "tabular",
          "--objective", "throughput"], "--objective"),
        (["sweep", "--vary", "packet_bits", "--values", "12", "--agent", "dqn",
          "--objective", "throughput"], "--objective"),
    ],
)
def test_cli_refuses_unusable_counts_and_tolerances(tmp_path, config_path, capsys, argv, flag):
    out = tmp_path / "out"
    argv = [*argv, "--config", str(config_path)]
    if argv[0] != "simulate":
        argv += ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--epsilon", "1e-6"],
        ["solve", "--epsilon", "0"],
        ["sweep", "--vary", "packet_bits", "--values", "12", "--epsilon", "1e-6"],
        ["sweep", "--vary", "packet_bits", "--values", "12", "--agent", "tabular", "--epsilon", "0.1"],
    ],
)
def test_cli_has_no_solver_tolerance_flag(tmp_path, config_path, capsys, argv):
    """The RVIA tolerance is ``mdp._TOLERANCE``; ``--epsilon`` is only
    ``train``'s exploration rate."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(config_path), "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --epsilon" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "agent, extra, flag",
    [
        ("exact", ["--slots", "500"], "--slots"),
        ("exact", ["--seed", "1"], "--seed"),
        ("exact", ["--eval-slots", "500"], "--eval-slots"),
        ("tabular", ["--eval-slots", "500"], "--eval-slots"),
    ],
)
def test_sweep_refuses_flags_its_agent_ignores(tmp_path, config_path, capsys, monkeypatch, agent, extra, flag):
    def never(*args, **kwargs):
        raise AssertionError("sweep started work before refusing a flag")

    for name in ("enumerate_states", "train_tabular", "train_dqn"):
        monkeypatch.setattr(cli, name, never)
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(config_path), "--vary", "packet_bits", "--values", "12"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--agent", agent, *extra, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: the {agent} agent does not use it" in capsys.readouterr().err
    assert not out.exists()


def test_verify_reads_throughput_objective_from_policy_file(tmp_path, config_path, capsys):
    out = tmp_path / "thr"
    main(["solve", "--config", str(config_path), "--objective", "throughput", "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", str(out / "policy.csv"), "--config", str(config_path)]) == 0
    assert "0 violation(s) (binding)" in capsys.readouterr().out


def test_verify_of_tabular_policy_is_advisory(tmp_path, config_path, capsys):
    """A policy file without values is a learner's: its violations are
    reported but never fail the exit status."""
    out = tmp_path / "tab"
    train = ["train", "--config", str(config_path), "--agent", "tabular", "--slots", "200"]
    assert main([*train, "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert load_policy_csv(out / "policy.csv", enumerate_states(load_config(config_path)))[1] is None
    assert main(["verify", str(out / "policy.csv"), "--config", str(config_path)]) == 0
    printed = capsys.readouterr().out
    assert "violation(s) (advisory)" in printed
    assert not printed.startswith("0 violation(s)")


def test_verify_of_policy_without_values_is_advisory(tmp_path, config_path, capsys):
    """Only the value column marks a policy as exact: the same broken
    policy fails with its values and is advisory with them stripped."""
    out = tmp_path / "solved"
    main(["solve", "--config", str(config_path), "--out", str(out)])
    header, *rows = (out / "policy.csv").read_text().splitlines()
    broken = [row.replace(",T1,", ",H,") if i % 2 else row for i, row in enumerate(rows)]
    exact, stripped = tmp_path / "exact.csv", tmp_path / "stripped.csv"
    exact.write_text("\n".join([header, *broken]) + "\n")
    stripped.write_text("\n".join([header, *(r[: r.rindex(",") + 1] for r in broken)]) + "\n")
    capsys.readouterr()
    assert main(["verify", str(exact), "--config", str(config_path)]) == 1
    binding = capsys.readouterr().out
    assert "(binding)" in binding and not binding.startswith("0 violation(s)")
    assert main(["verify", str(stripped), "--config", str(config_path)]) == 0
    advisory = capsys.readouterr().out
    assert advisory.startswith(binding.split(" (")[0]) and "(advisory)" in advisory


def test_verify_reports_mismatched_columns_on_multi_source_config(tmp_path, config_path, capsys):
    """A multi-source file without AoI columns is checked as age, so the
    column check names the mismatch."""
    data = yaml.safe_load(config_path.read_text())
    data["sources"] = [dict(data["sources"][0], weight=0.5)] * 2
    two = tmp_path / "two.yaml"
    two.write_text(yaml.safe_dump(data))
    bad = tmp_path / "policy.csv"
    bad.write_text("b_1,g_1,h_1,action,value\n0,1,1,H,\n")
    assert main(["verify", str(bad), "--config", str(two)]) == 2
    assert "do not match indexer" in capsys.readouterr().err


def _unfit_artifact(kind, tmp_path, config_path) -> tuple[Path, str]:
    """A policy file or checkpoint that does not fit ``config_path``, and a
    fragment of the reason the CLI gives."""
    solved = tmp_path / "solved"
    main(["solve", "--config", str(config_path), "--out", str(solved)])
    header, *rows = (solved / "policy.csv").read_text().splitlines()
    path = tmp_path / ("checkpoint.npz" if kind in _CHECKPOINT_KINDS else "policy.csv")
    if kind == "header":
        path.write_text("\n".join([header.replace("b_1", "x_1"), *rows]) + "\n")
        return path, "do not match indexer"
    if kind == "off-grid":
        rows[0] = "99" + rows[0][rows[0].index(",") :]
        path.write_text("\n".join([header, *rows]) + "\n")
        return path, "lies off the grid"
    if kind == "missing-rows":
        path.write_text("\n".join([header, *rows[:-1]]) + "\n")
        return path, "do not cover the 36 states"
    if kind == "action":
        rows[0] = rows[0].replace(",H,", ",T2,").replace(",T1,", ",T2,")
        path.write_text("\n".join([header, *rows]) + "\n")
        return path, "policy action T2 lies outside H, T1..T1"
    if kind == "width":
        # a two-source network reads 8 inputs; one source encodes to 4
        data = yaml.safe_load(config_path.read_text())
        data["sources"] = 2 * [{**data["sources"][0], "weight": 0.5}]
        (other := tmp_path / "other.yaml").write_text(yaml.safe_dump(data))
        QNetwork.create([8, 16, 3], np.random.default_rng(0)).save(path, load_config(other))
        return path, "network input 8 != state encoding width 4"
    if kind in _CHECKPOINT_KINDS:
        net = QNetwork.create([4, 64, 64, 2], np.random.default_rng(0))
        if kind == "other-grid":
            # trained on the same source with AoIs up to 300: 4 inputs, other scales
            data = yaml.safe_load(config_path.read_text())
            data["sources"][0]["aoi_cap"] = 300
            (other := tmp_path / "other.yaml").write_text(yaml.safe_dump(data))
            net.save(path, load_config(other))
            return path, (
                "the checkpoint's encoding denominators [2.0, 299.0, 1.0, 1.0] "
                "!= the config's [2.0, 2.0, 1.0, 1.0]"
            )
        if kind in ("one-output", "three-output"):
            # the config's input, with one output too few or too many
            outputs = {"one-output": 1, "three-output": 3}[kind]
            QNetwork.create([4, 64, 64, outputs], np.random.default_rng(0)).save(path, load_config(config_path))
            return path, f"network output {outputs} != the config's 2 actions"
        if kind in _MISSHAPEN_CHECKPOINTS:
            # the config's checkpoint with one array replaced
            net.save(path, load_config(config_path))
            with np.load(path) as data:
                arrays = dict(data)
            edit, reason = {
                "dropped-layer": ({"layer_sizes": np.array([4, 64, 2])},
                                  "layer_sizes [4, 64, 2] do not count 3 weight arrays"),
                "0-d-sizes": ({"layer_sizes": np.array(4)},
                              "layer_sizes [4] do not count 3 weight arrays"),
                "unchained": ({"w1": np.zeros((32, 64))},
                              "layer arrays of shapes [(4, 64), (64,), (32, 64), (64,), (64, 2), (2,)] "
                              "do not chain as layer_sizes [4, 64, 64, 2]"),
                "bias-length": ({"b0": np.zeros(1)},
                                "layer arrays of shapes [(4, 64), (1,), (64, 64), (64,), (64, 2), (2,)] "
                                "do not chain as layer_sizes [4, 64, 64, 2]"),
            }[kind]
            np.savez(path, **{**arrays, **edit})
            return path, reason
        if kind == "no-encoding":
            # the config's shape, written as before checkpoints recorded their encoding
            arrays = {"format_version": np.array(1), "layer_sizes": np.array(net.layer_sizes)}
            for k, (w, b) in enumerate(zip(net.weights, net.biases)):
                arrays[f"w{k}"], arrays[f"b{k}"] = w, b
            np.savez(path, **arrays)
            return path, "the checkpoint records no encoding denominators"
        if kind == "truncated":
            # the first 600 of the 39,178 bytes of a checkpoint of the config's shape
            net.save(path, load_config(config_path))
            path.write_bytes(path.read_bytes()[:600])
        elif kind == "zip-stub":
            path.write_bytes(b"PK\x03\x04" + bytes(6))
        elif kind == "no-version":
            np.savez(path, layer_sizes=np.array(net.layer_sizes), w0=net.weights[0], b0=net.biases[0])
        else:
            with open(path, "wb") as fh:
                np.save(fh, net.params)
        return path, {
            "truncated": "unreadable checkpoint: File is not a zip file",
            "zip-stub": "unreadable checkpoint: File is not a zip file",
            "no-version": "unreadable checkpoint: 'format_version is not a file in the archive'",
            "single-array": "a single array, not a checkpoint archive",
        }[kind]
    if kind in ("nan-values", "missing-values"):
        # every value NaN, or every other one of the 36 emptied
        cut = [row[: row.rindex(",") + 1] for row in rows]
        if kind == "nan-values":
            rows = [c + "nan" for c in cut]
        else:
            rows[1::2] = cut[1::2]
        path.write_text("\n".join([header, *rows]) + "\n")
        bad = 36 if kind == "nan-values" else 18
        return path, f"{bad} of the 36 policy values are empty or not finite"
    if kind.startswith("infeasible"):
        # T1 in every state with an empty battery: 3 AoIs x 2 x 2 levels
        fields = [row.split(",") for row in rows]
        for f in fields:
            f[4] = "T1" if f[0] == "0" else f[4]
            f[5] = f[5] if kind == "infeasible" else ""
        path.write_text("\n".join([header, *map(",".join, fields)]) + "\n")
        return path, (
            "12 state(s) take a transmission their battery cannot pay for; "
            "the first, (b_1=0, A_1=1, g_1=1, h_1=1), takes T1"
        )
    return tmp_path / "absent.csv", "No such file"


# checkpoints that are not whole archives of the arrays QNetwork.save writes
_CORRUPT_CHECKPOINTS = ["truncated", "zip-stub", "no-version", "single-array"]
# checkpoints of networks trained on another state encoding, or on one not recorded
_OTHER_ENCODINGS = ["width", "other-grid", "no-encoding"]
# checkpoints whose arrays do not make a network with one output per action
_MISSHAPEN_CHECKPOINTS = ["dropped-layer", "0-d-sizes", "unchained", "bias-length"]
_CHECKPOINT_KINDS = [*_OTHER_ENCODINGS, *_CORRUPT_CHECKPOINTS, *_MISSHAPEN_CHECKPOINTS,
                     "one-output", "three-output"]
_UNFIT_KINDS = ["header", "off-grid", "missing-rows", "action", "missing-file",
                "infeasible", "infeasible-without-values", "nan-values", "missing-values",
                *_CHECKPOINT_KINDS]


@pytest.mark.parametrize("kind", _UNFIT_KINDS)
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_unfit_artifact_exits_2_before_any_work(tmp_path, config_path, capsys, monkeypatch, command, kind):
    """A policy file or checkpoint that does not fit ``--config`` is one
    error line naming both and exit status 2, so that ``verify``'s 1 means
    binding violations only."""
    path, reason = _unfit_artifact(kind, tmp_path, config_path)
    capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError(f"{command} started work on an unfit artifact")

    for name in ("simulate_policy", "check_value_monotone_age", "check_threshold_aoi",
                 "check_threshold_single_source", "export_violations_csv"):
        monkeypatch.setattr(cli, name, never)
    if command == "verify":
        argv = ["verify", str(path), "--config", str(config_path), "--out", str(tmp_path / "v.csv")]
    else:
        argv = ["simulate", "--config", str(config_path), "--policy", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"aoi-rl {command}: error: cannot use {path} with {config_path}: ")
    assert reason in line


def _unusable_config(kind, tmp_path, config_path) -> tuple[Path, str]:
    """A ``--config`` file that cannot be used, and a fragment of the
    reason the CLI gives."""
    path = tmp_path / "unusable.yaml"
    if kind == "missing-file":
        return tmp_path / "absent.yaml", "No such file"
    if kind == "yaml-syntax":
        path.write_text(config_path.read_text() + "sources: [\n")
        return path, "while parsing"
    data = yaml.safe_load(config_path.read_text())
    del data["reference_gain"]
    path.write_text(yaml.safe_dump(data))
    return path, "missing config key reference_gain at the top level"


@pytest.mark.parametrize("kind", ["missing-file", "yaml-syntax", "invalid"])
@pytest.mark.parametrize("command", ["solve", "train", "verify", "sweep", "simulate"])
def test_unusable_config_exits_2_with_one_line(tmp_path, config_path, capsys, command, kind):
    """A config that is missing, is not YAML or is not a valid scenario is
    one error line and exit status 2 (``verify``'s 1 means violations), and
    no output is created."""
    path, reason = _unusable_config(kind, tmp_path, config_path)
    out = tmp_path / "out"
    argv = {
        "solve": ["solve", "--out", str(out)],
        "train": ["train", "--slots", "10", "--out", str(out)],
        "verify": ["verify", str(tmp_path / "policy.csv"), "--out", str(out)],
        "sweep": ["sweep", "--vary", "packet_bits", "--values", "1", "--out", str(out)],
        "simulate": ["simulate", "--policy", str(tmp_path / "policy.csv")],
    }[command]
    before = sorted(tmp_path.iterdir())
    assert main([*argv, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"aoi-rl {command}: error: cannot use config {path}: ")
    assert reason in line
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["solve", "--objective", "throughput", "--config", "configs/two_source.yaml"],
         "cannot solve configs/two_source.yaml: throughput objective is defined for a single source only"),
        (["sweep", "--objective", "throughput", "--config", "configs/two_source.yaml",
          "--vary", "packet_bits", "--values", "12"],
         "cannot sweep packet_bits=12 with the exact agent: throughput objective"),
        (["sweep", "--config", "configs/three_source.yaml", "--vary", "battery_capacity",
          "--values", "0.1,0.5"],
         "cannot sweep battery_capacity=0.5 with the exact agent: state space has 56623104 states"),
        (["sweep", "--agent", "tabular", "--config", "configs/three_source.yaml",
          "--vary", "battery_capacity", "--values", "0.1,0.5"],
         "cannot sweep battery_capacity=0.5 with the tabular agent: state space has 56623104 states"),
    ],
    ids=["solve-throughput", "sweep-throughput", "sweep-exact-above-limit", "sweep-tabular-above-limit"],
)
def test_unsolvable_state_space_exits_2_before_any_work(tmp_path, capsys, monkeypatch, argv, reason):
    """An objective or a state space the config cannot take is one error
    line and exit status 2, found for every swept point before the first
    is solved, and no output is created."""

    def never(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    for name in ("build_kernel", "solve_rvia", "train_tabular", "train_dqn"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.chdir(ROOT)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"aoi-rl {argv[0]}: error: {reason}")
    assert not out.exists()


def _never_work(monkeypatch, *names):
    def never(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    for name in names:
        monkeypatch.setattr(cli, name, never)


@pytest.mark.parametrize("agent", ["exact", "tabular", "dqn"])
def test_sweep_refuses_a_capacity_off_the_quantum_grid(tmp_path, capsys, monkeypatch, agent):
    """A swept capacity that is not a whole number of the config's energy
    quanta is refused before any point is solved, and no output is
    created: the sweep would otherwise run it on another quantum."""
    _never_work(monkeypatch, "build_kernel", "solve_rvia", "train_tabular", "train_dqn")
    monkeypatch.chdir(ROOT)
    out = tmp_path / "out"
    argv = ["sweep", "--config", "configs/learning_small.yaml", "--vary", "battery_capacity",
            "--values", "0.3,0.25", "--agent", agent, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line == (
        f"aoi-rl sweep: error: cannot sweep battery_capacity=0.25 with the {agent} agent: "
        "battery capacity 0.25 mJ is not a whole number of source 1's 0.1 mJ energy quanta"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, where",
    [("solve", "existing-file"), ("solve", "under-file"), ("train", "under-file"),
     ("train", "existing-file"), ("sweep", "existing-file"), ("verify", "under-file"),
     ("verify", "existing-dir")],
)
def test_unusable_out_exits_2_before_any_work(tmp_path, config_path, capsys, monkeypatch, command, where):
    """An output location that cannot be created is one error line and exit
    status 2 before the command's work starts, not a traceback after it."""
    main(["solve", "--config", str(config_path), "--out", str(tmp_path / "solved")])
    capsys.readouterr()
    blocker = tmp_path / "blocker"
    if where == "existing-dir":
        blocker.mkdir()
        out = blocker
    else:
        blocker.write_text("a regular file\n")
        out = blocker if where == "existing-file" else blocker / "out" / "v.csv"
    work = ["solve_rvia", "train_tabular", "train_dqn", "check_value_monotone_age",
            "check_threshold_aoi", "check_threshold_single_source", "export_violations_csv"]
    # verify builds its kernel to check the policy file, before the work
    _never_work(monkeypatch, *work, *([] if command == "verify" else ["build_kernel"]))
    argv = {
        "solve": ["solve"],
        "train": ["train", "--agent", "tabular", "--slots", "10"],
        "sweep": ["sweep", "--vary", "packet_bits", "--values", "12"],
        "verify": ["verify", str(tmp_path / "solved" / "policy.csv")],
    }[command]
    assert main([*argv, "--config", str(config_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"aoi-rl {command}: error: cannot write to {out}: ")
    assert blocker.is_dir() == (where == "existing-dir")


def test_dqn_sweep_runs_above_the_state_limit(tmp_path, capsys):
    """The DQN agent needs no enumerable state space, so its sweep is not
    refused where the exact and tabular ones are."""
    out = tmp_path / "dqn"
    argv = ["sweep", "--config", str(_huge_config(tmp_path)), "--vary", "packet_bits", "--values", "12",
            "--agent", "dqn", "--slots", "40", "--eval-slots", "40", "--out", str(out)]
    assert main(argv) == 0
    assert "packet_bits=12: gain" in capsys.readouterr().out
    assert (out / "sweep.csv").read_text().startswith("packet_bits,gain")


def _fresh_interpreter(script: str) -> str:
    """Standard output of ``script`` run by a new interpreter that imports
    this checkout's ``aoi_rl``."""
    src = str(Path(aoi_rl.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_leaves_scipy_sparse_unloaded(tmp_path, config_path):
    """The CLI, the solver and exact policy evaluation run on numpy alone,
    and the library's exact path, network tabulation included, without
    ``numpy.random``; the package root holds ``__version__`` and no other
    public name."""
    script = f"""
import sys
import numpy as np
import aoi_rl
assert [n for n in vars(aoi_rl) if not n.startswith("_")] == [], "the package root exports names"
import aoi_rl.cli
from aoi_rl.dqn import QNetwork, tabulate_policy
from aoi_rl.env import load_config
from aoi_rl.mdp import build_kernel, enumerate_states, evaluate_policy, solve_rvia
from aoi_rl.structure import check_threshold_aoi, check_value_monotone_age
assert "scipy" not in sys.modules, "importing aoi_rl.cli loaded scipy"
config = load_config({str(config_path)!r})
kernel = build_kernel(config, enumerate_states(config))
vt, pt = solve_rvia(kernel)
assert "scipy" not in sys.modules, "solving loaded scipy"
gain = evaluate_policy(kernel, pt.actions)
assert abs(gain - vt.gain) <= 1e-9 * abs(vt.gain), (gain, vt.gain)
assert "scipy" not in sys.modules, "evaluating loaded scipy"
assert not check_value_monotone_age(kernel.indexer, vt.values)
assert not check_threshold_aoi(kernel.indexer, pt.actions)
net = QNetwork([np.ones((4, 3)), np.ones((3, 2))], [np.zeros(3), np.zeros(2)])
assert len(tabulate_policy(net, kernel)) == kernel.indexer.total_states
assert "numpy.random" not in sys.modules, "the exact path loaded numpy.random"
print("ok")
"""
    assert _fresh_interpreter(script).strip() == "ok"


@pytest.mark.parametrize(
    "command, draws",
    [
        ("import", False),
        ("solve", False),
        ("verify-csv", False),
        ("verify-npz", False),
        ("sweep", False),
        ("train-tabular", True),
        ("train-dqn", True),
        ("simulate", True),
    ],
)
def test_only_commands_that_draw_load_numpy_random(tmp_path, config_path, capsys, command, draws):
    """``numpy.random`` is imported by the commands that draw random numbers
    and by no other: importing the CLI, ``solve``, ``verify`` of a policy
    file or a checkpoint and an exact ``sweep`` run without it. OpenSSL
    (``_hashlib``) is loaded by the commands that write a manifest, for
    its config digest, and by those that load ``numpy.random``: importing
    the CLI and ``verify`` run without it. Each runs in a new interpreter,
    and the manifests they write hold that process's peak RSS and the
    config's SHA-256."""
    cfg = ["--config", str(config_path)]
    solved, checkpoint, out = tmp_path / "solved", tmp_path / "net.npz", tmp_path / "out"
    train = ["train", *cfg, "--slots", "100", "--out", str(out), "--agent"]
    argv = {
        "import": None,
        "solve": ["solve", *cfg, "--out", str(out)],
        "verify-csv": ["verify", str(solved / "policy.csv"), *cfg],
        "verify-npz": ["verify", str(checkpoint), *cfg],
        "sweep": ["sweep", *cfg, "--vary", "packet_bits", "--values", "6,12", "--out", str(out)],
        "train-tabular": [*train, "tabular"],
        "train-dqn": [*train, "dqn"],
        "simulate": ["simulate", *cfg, "--policy", str(solved / "policy.csv"), "--slots", "100"],
    }[command]
    main(["solve", *cfg, "--out", str(solved)])
    QNetwork.create([4, 16, 2], np.random.default_rng(0)).save(checkpoint, load_config(config_path))
    capsys.readouterr()
    script = f"""
import resource
import sys
from aoi_rl.cli import main
status = 0 if {argv!r} is None else main({argv!r})
print(status, "numpy.random" in sys.modules, "_hashlib" in sys.modules,
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
    status, loaded, hashed, peak_kb = _fresh_interpreter(script).splitlines()[-1].split()
    hashes = command not in ("import", "verify-csv", "verify-npz")
    assert (status, loaded, hashed) == ("0", str(draws), str(hashes))
    if command in ("solve", "sweep") or command.startswith("train"):
        manifest = json.loads((out / "manifest.json").read_text())
        # numpy alone takes more than 10 MB; the manifest is written before the process ends
        assert 10 < manifest["peak_rss_mb"] <= round(int(peak_kb) / 1024, 2)
        assert manifest["config_sha256"] == hashlib.sha256(config_path.read_bytes()).hexdigest()
