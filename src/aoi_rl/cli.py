"""Command-line front end: solve, train, verify, sweep, simulate.

Everything is deterministic given a config file and a seed. Outputs are
headered CSV files plus a JSON run manifest (config hash, seed, library
versions). Plotting is intentionally left to external tools.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dqn import DqnHyperparams, QNetwork, greedy_policy_fn, tabulate_policy, train_dqn
from .env import SystemConfig, load_config, simulate_policy, with_battery_capacity, with_packet_bits
from .errors import SizeLimitError
from .mdp import (
    build_kernel,
    enumerate_states,
    evaluate_policy,
    export_policy_csv,
    load_policy_csv,
    solve_rvia,
)
from .structure import (
    check_threshold_aoi,
    check_threshold_single_source,
    check_value_monotone_age,
    export_violations_csv,
)
from .tabular import DEFAULT_EPS0, train_tabular


def _write_manifest(
    out_dir: Path,
    config_path,
    args: argparse.Namespace,
    skipped: dict[str, str] | None = None,
    solver=None,
    phases: dict[str, float] | None = None,
    slots_per_s: float | None = None,
) -> None:
    """``skipped`` maps each output that was not written to the reason.
    ``solver`` (the exact solver's stats), ``phases`` (seconds per phase)
    and ``slots_per_s`` are written when given."""
    digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
    manifest = {
        "config": str(config_path),
        "config_sha256": digest,
        "seed": getattr(args, "seed", None),
        "command": args.command,
        "skipped": skipped or {},
        "versions": {
            "aoi_rl": __version__,
            "numpy": np.__version__,
        },
    }
    for key, value in [("solver", solver), ("phases", phases), ("slots_per_s", slots_per_s)]:
        if value is not None:
            manifest[key] = value
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _solve_gain(config: SystemConfig, objective: str, epsilon: float):
    indexer = enumerate_states(config, objective)
    kernel = build_kernel(config, indexer)
    vt, pt = solve_rvia(kernel, epsilon=epsilon)
    return indexer, kernel, vt, pt


def cmd_solve(args) -> int:
    config = load_config(args.config)
    indexer, _, vt, pt = _solve_gain(config, args.objective, args.epsilon)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_policy_csv(out / "policy.csv", indexer, pt.actions, vt.values)
    _write_manifest(out, args.config, args, solver=vt.stats)
    print(f"gain: {vt.gain:.9g}")
    return 0


def _write_trace_csv(path: Path, header: list[str], *columns: np.ndarray) -> None:
    """Slot number plus one ``repr(float)`` field per column and slot.

    The bytes are those of a ``csv.writer`` rendering (CRLF line ends; no
    field needs quoting), formatted lazily so that no per-row list is built.
    """
    row = ",".join(["{}"] + ["{!r}"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map(row.format, itertools.count(), *(map(float, c) for c in columns)))


def cmd_train(args) -> int:
    config = load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    skipped = {}
    started = time.perf_counter()
    if args.agent == "tabular":
        kernel = build_kernel(config, enumerate_states(config, "age"))
        qt, trace = train_tabular(config, args.slots, args.seed, eps0=args.epsilon, kernel=kernel)
        train_s = time.perf_counter() - started
        _write_trace_csv(out / "trace.csv", ["slot", "gain_estimate"], trace)
        export_policy_csv(out / "policy.csv", kernel.indexer, qt.greedy_policy())
        final = trace[-1]
    else:
        hyper = DqnHyperparams(total_slots=args.slots, seed=args.seed, eps0=args.epsilon)
        result = train_dqn(config, hyper)
        train_s = time.perf_counter() - started
        _write_trace_csv(
            out / "trace.csv",
            ["slot", "gain_estimate", "epsilon", "loss"],
            result.gain_trace,
            result.epsilon_trace,
            result.loss_trace,
        )
        result.network.save(out / "checkpoint.npz")
        try:
            kernel = build_kernel(config, enumerate_states(config, "age"))
            export_policy_csv(
                out / "policy.csv", kernel.indexer, tabulate_policy(result.network, kernel)
            )
        except SizeLimitError as exc:
            # the checkpoint stands alone when the state space cannot be tabulated
            skipped["policy.csv"] = str(exc)
        final = result.gain_trace[-1]
    _write_manifest(
        out, args.config, args, skipped, phases={"train": train_s}, slots_per_s=args.slots / train_s
    )
    print(f"final gain estimate: {final:.6g}")
    for name, reason in skipped.items():
        print(f"skipped {name}: {reason}")
    return 0


def cmd_verify(args) -> int:
    config = load_config(args.config)
    indexer = enumerate_states(config, args.objective)
    artifact = Path(args.artifact)
    values = None
    if artifact.suffix == ".npz":
        kernel = build_kernel(config, indexer)
        policy = tabulate_policy(QNetwork.load(artifact), kernel)
        learned = True
    else:
        policy, values = load_policy_csv(artifact, indexer)
        learned = args.learned
    violations = []
    if args.objective == "age":
        if values is not None:
            violations += check_value_monotone_age(indexer, values)
        violations += check_threshold_aoi(indexer, policy)
        if config.num_sources == 1:
            violations += check_threshold_single_source(indexer, policy, config, "age")
    else:
        violations += check_threshold_single_source(indexer, policy, config, "throughput")
    if args.out:
        export_violations_csv(args.out, violations)
    kind = "advisory" if learned else "binding"
    print(f"{len(violations)} violation(s) ({kind})")
    for v in violations[:10]:
        print(f"  {v.variable}: {v.state} expected {v.expected}, found {v.found}")
    return 1 if violations and not learned else 0


def _sweep_point(config: SystemConfig, args, value: float) -> tuple[float, dict | None]:
    """Gain at one swept value, plus the exact solver's stats (exact agent only)."""
    if args.vary == "battery_capacity":
        cfg = with_battery_capacity(config, value * 1e-3)  # mJ on the CLI
    else:
        cfg = with_packet_bits(config, value * 1e6)  # Mbits on the CLI
    if args.agent == "exact":
        _, _, vt, _ = _solve_gain(cfg, args.objective, args.epsilon)
        return vt.gain, vt.stats
    if args.agent == "tabular":
        kernel = build_kernel(cfg, enumerate_states(cfg, "age"))
        qt, _ = train_tabular(cfg, args.slots, args.seed, kernel=kernel)
        return evaluate_policy(kernel, qt.greedy_policy()), None
    result = train_dqn(cfg, DqnHyperparams(total_slots=args.slots, seed=args.seed))
    sim = simulate_policy(cfg, result.greedy_policy, args.eval_slots, args.seed)
    return sim.avg_weighted_aoi, None


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    gains, stats = zip(*(_sweep_point(config, args, v) for v in args.values))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([args.vary, "gain"])
        for v, g in zip(args.values, gains):
            writer.writerow([v, repr(float(g))])
    _write_manifest(out, args.config, args, solver=list(stats) if args.agent == "exact" else None)
    for v, g in zip(args.values, gains):
        print(f"{args.vary}={v:g}: gain {g:.6g}")
    return 0


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    artifact = Path(args.policy)
    if artifact.suffix == ".npz":
        policy = greedy_policy_fn(QNetwork.load(artifact), config)
    else:
        indexer = enumerate_states(config, "age")
        table, _ = load_policy_csv(artifact, indexer)

        def policy(state):
            return int(table[indexer.state_to_index(state)])

    sim = simulate_policy(config, policy, args.slots, args.seed)
    print(f"average weighted AoI: {sim.avg_weighted_aoi:.6g}")
    if sim.avg_throughput_bits is not None:
        print(f"average throughput: {sim.avg_throughput_bits:.6g} bits/slot")
    return 0


def _checked(kind, ok, what: str):
    """argparse type: ``kind(text)`` if it converts and passes ``ok``."""

    def parse(text: str):
        try:
            if ok(value := kind(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "a positive number")
_probability = _checked(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")


def _positive_floats(text: str) -> list[float]:
    return [_positive_float(v) for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoi-rl",
        description="Scheduling of RF-powered status updates: exact solvers, "
        "learning agents, and policy-structure verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="relative value iteration on the exact model")
    p.add_argument("--config", required=True)
    p.add_argument("--objective", choices=["age", "throughput"], default="age")
    p.add_argument("--epsilon", type=_positive_float, default=1e-9, help="RVIA span tolerance")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("train", help="train a learning agent")
    p.add_argument("--config", required=True)
    p.add_argument("--agent", choices=["tabular", "dqn"], default="dqn")
    p.add_argument("--slots", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--epsilon", type=_probability, default=DEFAULT_EPS0, help="initial exploration rate"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", help="check structural properties of a policy")
    p.add_argument("artifact", help="policy CSV or network checkpoint (.npz)")
    p.add_argument("--config", required=True)
    p.add_argument("--objective", choices=["age", "throughput"], default="age")
    p.add_argument("--learned", action="store_true", help="report violations as advisory")
    p.add_argument("--out", default=None, help="violations CSV path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="gain versus a swept system parameter")
    p.add_argument("--config", required=True)
    p.add_argument("--vary", choices=["battery_capacity", "packet_bits"], required=True)
    p.add_argument(
        "--values", type=_positive_floats, required=True, help="comma-separated (mJ or Mbits)"
    )
    p.add_argument("--agent", choices=["exact", "tabular", "dqn"], default="exact")
    p.add_argument("--objective", choices=["age", "throughput"], default="age")
    p.add_argument("--epsilon", type=_positive_float, default=1e-9)
    p.add_argument("--slots", type=_positive_int, default=100_000)
    p.add_argument("--eval-slots", type=_positive_int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="roll out a stored policy")
    p.add_argument("--config", required=True)
    p.add_argument("--policy", required=True, help="policy CSV or checkpoint (.npz)")
    p.add_argument("--slots", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.agent != "exact" and args.objective != "age":
        parser.error(f"argument --objective: the {args.agent} agent learns the age objective only")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
