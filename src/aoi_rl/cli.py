"""Command-line front end: solve, train, verify, sweep, simulate.

Everything is deterministic given a config file and a seed. Outputs are
headered CSV files plus a JSON run manifest (config hash, seed, library
versions). Plotting is intentionally left to external tools.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .dqn import (
    _MEMO_SIZE,
    DqnHyperparams,
    QNetwork,
    greedy_policy_fn,
    tabulate_policy,
    train_dqn,
)
from .env import SystemConfig, load_config, simulate_policy, with_battery_capacity, with_packet_bits
from .errors import ContractError, InfeasibleActionError, InvalidConfigError, SizeLimitError
from .mdp import (
    build_kernel,
    enumerate_states,
    evaluate_policy,
    export_policy_csv,
    load_policy_csv,
    policy_csv_objective,
    solve_rvia,
    write_csv,
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
    *,
    skipped: dict[str, str] | None = None,
    solver=None,
    phases: dict[str, float] | None = None,
    slots_per_s: float | None = None,
) -> None:
    """``skipped`` maps each output that was not written to the reason.
    ``solver`` (the exact solver's stats), ``phases`` (seconds per phase)
    and ``slots_per_s`` are written when given. ``peak_rss_mb`` is the
    process's peak resident set so far (``ru_maxrss``, kB on Linux)."""
    # imported here: hashlib loads OpenSSL, about 3.7 MB, which only a
    # command that writes a manifest needs
    import hashlib

    digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
    manifest = {
        "config": str(config_path),
        "config_sha256": digest,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
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


def _error(args, message: str) -> int:
    """Exit status 2 with one error line on stderr, as argparse gives."""
    print(f"aoi-rl {args.command}: error: {message}", file=sys.stderr)
    return 2


def _make_out(args, out: Path, file: bool = False) -> int | None:
    """Create the output directory ``out``, or the output file ``out`` and
    its parents, before the command's work starts; exit status 2 with one
    error line if that fails."""
    try:
        (out.parent if file else out).mkdir(parents=True, exist_ok=True)
        if file:
            open(out, "a").close()
    except OSError as exc:
        return _error(args, f"cannot write to {out}: {exc}")
    return None


# what enumerating a state space the config cannot take raises
_UNSOLVABLE = (ContractError, SizeLimitError)


def cmd_solve(args, config: SystemConfig) -> int:
    try:
        indexer = enumerate_states(config, args.objective)
    except _UNSOLVABLE as exc:
        return _error(args, f"cannot solve {args.config}: {exc}")
    out = Path(args.out)
    if status := _make_out(args, out):
        return status
    vt, pt = solve_rvia(build_kernel(config, indexer))
    export_policy_csv(out / "policy.csv", indexer, pt.actions, vt.values)
    _write_manifest(out, args.config, args, solver=vt.stats)
    print(f"gain: {vt.gain:.9g}")
    return 0


def _write_trace_csv(path: Path, header: list[str], *columns: np.ndarray) -> None:
    """Slot number plus one ``repr(float)`` field per column and slot,
    written by ``write_csv``."""
    write_csv(path, header, len(columns[0]), range, *columns)


def cmd_train(args, config: SystemConfig) -> int:
    if args.agent == "tabular":
        try:
            indexer = enumerate_states(config, "age")
        except SizeLimitError as exc:
            return _error(
                args, f"argument --agent: the tabular agent needs an enumerable state space; {exc}"
            )
    out = Path(args.out)
    if status := _make_out(args, out):
        return status
    skipped = {}
    started = time.perf_counter()
    if args.agent == "tabular":
        kernel = build_kernel(config, indexer)
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
        result.network.save(out / "checkpoint.npz", config)
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
        out,
        args.config,
        args,
        skipped=skipped,
        phases={"train": train_s},
        slots_per_s=args.slots / train_s,
    )
    print(f"final gain estimate: {final:.6g}")
    for name, reason in skipped.items():
        print(f"skipped {name}: {reason}")
    return 0


# what reading a policy file or checkpoint that does not fit the config
# raises, a config whose state space cannot be enumerated and a policy the
# batteries cannot pay for included
_UNFIT_ARTIFACT = (OSError, ValueError, ContractError, SizeLimitError, InfeasibleActionError)


def _policy_file(config: SystemConfig, artifact: Path, objective: str | None = None):
    """``(indexer, policy, values)`` of a policy file: the state space of
    ``objective`` (by default the one the file's header names), then
    ``load_policy_csv``, then the kernel's check that every transmission is
    paid for."""
    indexer = enumerate_states(config, objective or policy_csv_objective(artifact, config))
    policy, values = load_policy_csv(artifact, indexer)
    build_kernel(config, indexer).policy_grid(policy)
    return indexer, policy, values


def cmd_verify(args, config: SystemConfig) -> int:
    artifact = Path(args.artifact)
    try:
        if artifact.suffix == ".npz":
            indexer = enumerate_states(config, "age")
            policy = tabulate_policy(QNetwork.load(artifact, config), build_kernel(config, indexer))
            values = None
        else:
            indexer, policy, values = _policy_file(config, artifact)
    except _UNFIT_ARTIFACT as exc:
        return _error(args, f"cannot use {artifact} with {args.config}: {exc}")
    if args.out and (status := _make_out(args, Path(args.out), file=True)):
        return status
    # the exact solver writes values and the learners do not
    learned = values is None
    violations = []
    if indexer.objective == "age":
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


def _sweep_config(config: SystemConfig, args, value: float) -> SystemConfig:
    if args.vary == "battery_capacity":
        return with_battery_capacity(config, value * 1e-3)  # mJ on the CLI
    return with_packet_bits(config, value * 1e6)  # Mbits on the CLI


def _sweep_point(cfg: SystemConfig, args) -> tuple[float, dict | None]:
    """Gain at one swept config, plus the exact solver's stats (exact agent only)."""
    if args.agent == "exact":
        vt, _ = solve_rvia(build_kernel(cfg, enumerate_states(cfg, args.objective)))
        return vt.gain, vt.stats
    slots = _SLOTS if args.slots is None else args.slots
    if args.agent == "tabular":
        kernel = build_kernel(cfg, enumerate_states(cfg, "age"))
        qt, _ = train_tabular(cfg, slots, args.seed, kernel=kernel)
        return evaluate_policy(kernel, qt.greedy_policy()), None
    result = train_dqn(cfg, DqnHyperparams(total_slots=slots, seed=args.seed))
    eval_slots = _EVAL_SLOTS if args.eval_slots is None else args.eval_slots
    sim = simulate_policy(cfg, result.greedy_policy, eval_slots, args.seed)
    return sim.avg_weighted_aoi, None


def cmd_sweep(args, config: SystemConfig) -> int:
    if args.agent != "exact":
        # the manifest records the seed the learners use; an exact sweep has none
        args.seed = _SEED if args.seed is None else args.seed
    points = []
    for value in args.values:
        try:
            points.append(cfg := _sweep_config(config, args, value))
            if args.agent != "dqn":
                # the exact and tabular agents need every point's state space enumerable
                enumerate_states(cfg, args.objective)
        except (InvalidConfigError, *_UNSOLVABLE) as exc:
            return _error(args, f"cannot sweep {args.vary}={value:g} with the {args.agent} agent: {exc}")
    out = Path(args.out)
    if status := _make_out(args, out):
        return status
    gains, stats = zip(*(_sweep_point(cfg, args) for cfg in points))
    write_csv(out / "sweep.csv", [args.vary, "gain"], len(gains), args.values, gains)
    _write_manifest(out, args.config, args, solver=list(stats) if args.agent == "exact" else None)
    for v, g in zip(args.values, gains):
        print(f"{args.vary}={v:g}: gain {g:.6g}")
    return 0


def _table_policy(indexer, table: np.ndarray):
    """The action ``table`` holds for a state tuple, memoised per state."""
    actions = table.tolist()

    @functools.lru_cache(maxsize=_MEMO_SIZE)
    def policy(state):
        return actions[indexer.state_to_index(state)]

    return policy


def cmd_simulate(args, config: SystemConfig) -> int:
    artifact = Path(args.policy)
    try:
        if artifact.suffix == ".npz":
            policy = greedy_policy_fn(QNetwork.load(artifact, config), config)
        else:
            policy = _table_policy(*_policy_file(config, artifact, "age")[:2])
    except _UNFIT_ARTIFACT as exc:
        return _error(args, f"cannot use {artifact} with {args.config}: {exc}")
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
_seed = _checked(int, lambda v: v >= 0, "a non-negative integer")


def _positive_floats(text: str) -> list[float]:
    return [_positive_float(v) for v in text.split(",")]


# defaults of the learners' flags, shared by train, simulate and sweep
_SLOTS = 100_000
_SEED = 0
_EVAL_SLOTS = 20_000


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
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("train", help="train a learning agent")
    p.add_argument("--config", required=True)
    p.add_argument("--agent", choices=["tabular", "dqn"], default="dqn")
    p.add_argument("--slots", type=_positive_int, default=_SLOTS)
    p.add_argument("--seed", type=_seed, default=_SEED)
    p.add_argument(
        "--epsilon", type=_probability, default=DEFAULT_EPS0, help="initial exploration rate"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", help="check structural properties of a policy")
    p.add_argument("artifact", help="policy CSV or network checkpoint (.npz)")
    p.add_argument("--config", required=True)
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
    p.add_argument("--slots", type=_positive_int, help=f"tabular and dqn only; default {_SLOTS}")
    p.add_argument("--eval-slots", type=_positive_int, help=f"dqn only; default {_EVAL_SLOTS}")
    p.add_argument("--seed", type=_seed, help=f"tabular and dqn only; default {_SEED}")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="roll out a stored policy")
    p.add_argument("--config", required=True)
    p.add_argument("--policy", required=True, help="policy CSV or checkpoint (.npz)")
    p.add_argument("--slots", type=_positive_int, default=_SLOTS)
    p.add_argument("--seed", type=_seed, default=_SEED)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep":
        if args.agent != "exact" and args.objective != "age":
            parser.error(
                f"argument --objective: the {args.agent} agent learns the age objective only"
            )
        if args.agent == "exact" and args.slots is not None:
            parser.error("argument --slots: the exact agent does not use it")
        if args.agent == "exact" and args.seed is not None:
            parser.error("argument --seed: the exact agent does not use it")
        if args.agent != "dqn" and args.eval_slots is not None:
            parser.error(f"argument --eval-slots: the {args.agent} agent does not use it")
    try:
        config = load_config(args.config)
    except (OSError, UnicodeDecodeError, yaml.YAMLError, InvalidConfigError, SizeLimitError) as exc:
        reason = " ".join(str(exc).split())  # YAML errors span several lines
        return _error(args, f"cannot use config {args.config}: {reason}")
    return args.func(args, config)


if __name__ == "__main__":
    sys.exit(main())
