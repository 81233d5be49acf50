"""aoi-rl benchmark: closed-loop workloads on the committed configs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing.

``--trace 0`` runs each workload step as a child process (the ``aoi-rl`` CLI
via ``python3 -m aoi_rl.cli``, or ``bench/libsteps.py`` for steps only the
library offers), one at a time, each starting when the previous one has
exited. It repeats the whole workload while the next repetition fits in
``--seconds`` (at least once), checks every output against references
recorded at the commit that introduced the benchmark, and reports
end-to-end metrics as medians over repetitions. Peak RSS is read per
child with ``os.wait4``.

``--trace 1`` runs the same steps once in this process, CLI steps through
``aoi_rl.cli.main``, with spans around calls into every module (see
``bench/spans.py``), and reports per-layer metrics and the tracing
overhead against the untraced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Full results,
machine information and the spans go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")
RUN_BUDGET_S = 170.0  # every run must exit within 180 s
SETUP_PER_REPETITION = 2
SETUP_REPEATS = 10  # at least this many set-up children per run
IMPORT_REPEATS = 3

DEFAULT_SIZES = {"tabular_slots": 200_000, "dqn_slots": 20_000, "sim_slots": 50_000}
SWEEP_CAPACITIES_MJ = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)

# Recorded from the exact solver at the commit that introduced this
# benchmark. Exact results must not change (ROADMAP aim 1).
REFERENCES = {
    "two_source_gain": 1.9441725588825847,
    "two_source_actions_sha256": "7439ac94a0daae7f509b81e653a2cee343df163285201f825e67ff12f6f0d0e3",
    "single_age_gain": 1.180118641929357,
    "single_throughput_gain": 9937014.227716152,
    "single_age_actions_sha256": "45ae6795bc510d3afaed746b28f4263cdbb1bb4dc372b77e6d018d905cdb7a79",
    "single_throughput_actions_sha256": "a776220d98a4e2211e0832a5cb4d51c78e8c3b8d549c83adc3cf0b898be9cdfe",
    # acceptance criterion 4's known failure: the objectives disagree at AoI 1
    "single_diff_per_aoi": {"1": 2, **{str(a): 62 for a in range(2, 11)}},
    "sweep_gains": {
        0.1: 1.3989182332850623,
        0.2: 1.2386644753206717,
        0.3: 1.180118641929357,
        0.4: 1.1453274414330545,
        0.5: 1.1229157089968302,
        0.6: 1.1071502824276678,
    },
}
GAIN_RTOL = 1e-9

CONFIGS = {
    "exact_two_source": "configs/two_source.yaml",
    "exact_single_source": "configs/single_source_large.yaml",
    "learn_small": "configs/learning_small.yaml",
}

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Step:
    name: str
    kind: str  # "cli" (aoi_rl.cli argv) or "lib" (bench/libsteps.py task and args)
    args: list[str]


@dataclass
class StepResult:
    rc: int
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    stdout: str = ""
    result: dict | None = None  # parsed JSON of a library step


@dataclass
class Outcome:
    """One run of one workload: what the benchmark prints and keeps."""

    attempted: int = 0
    failures: dict[str, list[str]] = field(default_factory=dict)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    results: dict[str, StepResult] = field(default_factory=dict)  # of the last repetition

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, step: str, message: str) -> None:
        self.failures.setdefault(step, []).append(message)


# ---------------------------------------------------------------------------
# workloads


def workload_steps(name: str, seed: int, out: Path, sizes: dict) -> list[Step]:
    config = CONFIGS[name]
    if name == "exact_two_source":
        return [
            Step("solve", "cli", ["solve", "--config", config, "--out", str(out / "solve")]),
            Step("verify", "cli", ["verify", str(out / "solve" / "policy.csv"), "--config", config]),
        ]
    if name == "exact_single_source":
        values = ",".join(f"{v:g}" for v in SWEEP_CAPACITIES_MJ)
        return [
            Step("evaluate", "lib", ["exact_single_source", config]),
            Step("sweep", "cli", ["sweep", "--config", config, "--vary", "battery_capacity",
                                  "--values", values, "--agent", "exact", "--out", str(out / "sweep")]),
        ]
    seed_args = ["--seed", str(seed)]
    sim = ["--slots", str(sizes["sim_slots"]), *seed_args]
    return [
        Step("train_tabular", "cli", ["train", "--agent", "tabular", "--config", config,
                                      "--slots", str(sizes["tabular_slots"]), *seed_args,
                                      "--out", str(out / "tabular")]),
        Step("train_dqn", "cli", ["train", "--agent", "dqn", "--config", config,
                                  "--slots", str(sizes["dqn_slots"]), *seed_args,
                                  "--out", str(out / "dqn")]),
        Step("simulate_dqn", "cli", ["simulate", "--config", config,
                                     "--policy", str(out / "dqn" / "checkpoint.npz"), *sim]),
        Step("simulate_tabular", "cli", ["simulate", "--config", config,
                                         "--policy", str(out / "tabular" / "policy.csv"), *sim]),
        Step("gap", "lib", ["learn_gap", config, str(out / "tabular" / "policy.csv"),
                               str(out / "dqn" / "checkpoint.npz"), str(sizes["sim_slots"])]),
    ]


# ---------------------------------------------------------------------------
# correctness checks: pure functions of the step results and the references


def _close(value: float, reference: float, rtol: float = GAIN_RTOL, atol: float = 0.0) -> bool:
    return abs(value - reference) <= rtol * abs(reference) + atol


def _printed(stdout: str, prefix: str) -> float | None:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            try:
                return float(line[len(prefix):].split()[0])
            except (IndexError, ValueError):
                return None
    return None


def _rounding(value: float, digits: int) -> float:
    """Half a unit in the last place of ``value`` printed with ``digits``
    significant digits (the CLI prints gains with %.9g and AoI with %.6g)."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - digits + 1) if value else 0.0


def action_column_sha256(path: Path) -> str:
    """SHA-256 of a policy CSV's action column, one label per line."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        next(fh)
        for line in fh:
            digest.update(line.rsplit(b",", 2)[1] + b"\n")
    return digest.hexdigest()


def check_workload(name: str, results: dict[str, StepResult], out: Path, refs: dict) -> dict[str, list[str]]:
    """Failure messages per step; a step missing from ``results`` was not run."""
    failures: dict[str, list[str]] = {}

    def fail(step, message):
        failures.setdefault(step, []).append(message)

    for step, res in results.items():
        if res.rc != 0:
            fail(step, f"exited with code {res.rc}")

    if name == "exact_two_source":
        solve, verify = results.get("solve"), results.get("verify")
        if solve and solve.rc == 0:
            gain = _printed(solve.stdout, "gain:")
            ref = refs["two_source_gain"]
            if gain is None or not _close(gain, ref, atol=_rounding(ref, 9)):
                fail("solve", f"gain {gain} != reference {ref}")
            policy = out / "solve" / "policy.csv"
            digest = action_column_sha256(policy) if policy.is_file() else "missing"
            if digest != refs["two_source_actions_sha256"]:
                fail("solve", f"policy action column sha256 {digest} differs from reference")
        if verify and verify.rc == 0 and "0 violation(s)" not in verify.stdout:
            fail("verify", f"verify reported violations: {verify.stdout.strip()[:200]}")

    elif name == "exact_single_source":
        evaluate, sweep = results.get("evaluate"), results.get("sweep")
        if evaluate and evaluate.rc == 0:
            r = evaluate.result
            for objective in ("age", "throughput"):
                ref = refs[f"single_{objective}_gain"]
                if not _close(r[f"{objective}_gain"], ref):
                    fail("evaluate", f"{objective} gain {r[f'{objective}_gain']} != reference {ref}")
                if not _close(r[f"{objective}_evaluated_gain"], r[f"{objective}_gain"]):
                    fail("evaluate", f"{objective} evaluate_policy {r[f'{objective}_evaluated_gain']} "
                                     f"!= RVIA gain {r[f'{objective}_gain']}")
                if r[f"{objective}_policy_sha256"] != refs[f"single_{objective}_actions_sha256"]:
                    fail("evaluate", f"{objective} policy differs from reference")
            if any(r["violations"].values()):
                fail("evaluate", f"structural violations {r['violations']}")
            if r["diff_per_aoi"] != refs["single_diff_per_aoi"]:
                fail("evaluate", f"per-AoI policy differences {r['diff_per_aoi']} != reference")
        table = out / "sweep" / "sweep.csv"
        if sweep and sweep.rc == 0 and not table.is_file():
            fail("sweep", "no sweep.csv written")
        elif sweep and sweep.rc == 0:
            rows = table.read_text().splitlines()[1:]
            got = {float(v): float(g) for v, g in (row.split(",") for row in rows)}
            if set(got) != set(refs["sweep_gains"]):
                fail("sweep", f"swept capacities {sorted(got)} != {sorted(refs['sweep_gains'])}")
            for capacity, ref in refs["sweep_gains"].items():
                if capacity in got and not _close(got[capacity], ref):
                    fail("sweep", f"gain at {capacity} mJ {got[capacity]} != reference {ref}")

    else:
        gap = results.get("gap")
        exact = gap.result if gap and gap.rc == 0 else None
        if exact:
            for agent in ("tabular", "dqn"):
                e = exact[agent]
                if not _close(e["dense_gain"], e["gain"]):
                    fail("gap", f"{agent}: evaluate_policy {e['gain']} != dense evaluation {e['dense_gain']}")
                if not math.isfinite(e["mc_tolerance"]):
                    fail("gap", f"{agent}: several recurrent classes reachable; no Monte-Carlo tolerance")
        for step, agent in (("simulate_dqn", "dqn"), ("simulate_tabular", "tabular")):
            res = results.get(step)
            if not res or res.rc != 0:
                continue
            aoi = _printed(res.stdout, "average weighted AoI:")
            if exact is None:
                fail(step, "no exact gain to compare the rollout with")
            elif aoi is None or not _close(aoi, exact[agent]["gain"], rtol=0.0,
                                            atol=exact[agent]["mc_tolerance"] + _rounding(aoi, 6)):
                fail(step, f"simulated AoI {aoi} outside {exact[agent]['gain']:.6g} "
                           f"± {exact[agent]['mc_tolerance']:.2g}")
    return failures


# ---------------------------------------------------------------------------
# child processes


class StepTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise StepTimeout()


def _arm(deadline: float) -> None:
    signal.setitimer(signal.ITIMER_REAL, max(0.01, deadline - perf_counter()))


def _disarm() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)


def child_env() -> dict:
    environ = dict(os.environ)
    src = str(ROOT / "src")
    environ["PYTHONPATH"] = src + (os.pathsep + environ["PYTHONPATH"] if environ.get("PYTHONPATH") else "")
    return environ


def run_child(argv: list[str], log: Path, deadline: float) -> StepResult:
    """Run one child to completion; wall time, CPU time and peak RSS of that
    child alone (``os.wait4``), its stdout, and its exit code (-9 when it
    was killed at the run's deadline)."""
    with open(log.with_suffix(".out"), "w+b") as out, open(log.with_suffix(".err"), "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=child_env())
        try:
            _arm(deadline)
            _, status, usage = os.wait4(proc.pid, 0)
        except StepTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            _disarm()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode(errors="replace")
    if proc.returncode != 0:
        sys.stderr.write(f"[{log.name}] exit {proc.returncode}:\n{log.with_suffix('.err').read_text()[-2000:]}\n")
    return StepResult(
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
    )


def step_argv(step: Step) -> list[str]:
    if step.kind == "cli":
        return ["-m", "aoi_rl.cli", *step.args]
    return [str(Path("bench") / "libsteps.py"), *step.args]


def _parse_result(res: StepResult) -> None:
    if res.rc == 0:
        try:
            res.result = json.loads(res.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            res.rc = 1
            sys.stderr.write(f"library step printed no JSON result:\n{res.stdout[-500:]}\n")


def run_repetition(steps: list[Step], out: Path, deadline: float) -> tuple[dict[str, StepResult], float]:
    """Every step as a child, closed loop. Returns the results and the
    repetition's wall time (first spawn to last exit)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    results = {}
    t0 = perf_counter()
    for step in steps:
        res = run_child(step_argv(step), out / step.name, deadline)
        if step.kind == "lib":
            _parse_result(res)
        results[step.name] = res
        if res.rc != 0:
            break  # later steps read this step's outputs
    return results, perf_counter() - t0


# ---------------------------------------------------------------------------
# run bookkeeping


def source_digest() -> str:
    """Digest of the program sources, configs and benchmark sources."""
    digest = hashlib.sha256()
    for pattern in ("src/aoi_rl/*.py", "configs/*.yaml", "bench/*.py"):
        for path in sorted(Path().glob(pattern)):
            digest.update(str(path).encode() + path.read_bytes())
    return digest.hexdigest()[:16]


def history_path(workload: str, sizes: dict) -> Path:
    """Untraced wall times of runs of this code at these sizes."""
    key = hashlib.sha256((source_digest() + json.dumps(sizes, sort_keys=True)).encode())
    return WORK / "history" / f"{workload}-{key.hexdigest()[:16]}.jsonl"


def git_commit() -> str | None:
    head = Path(".git") / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = Path(".git") / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def machine_info(deadline: float) -> dict:
    cpu_model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (index / "size").read_text().strip()
    with open("/proc/meminfo") as fh:
        mem_kb = int(next(line for line in fh if line.startswith("MemTotal")).split()[1])
    versions = run_child(step_argv(Step("info", "lib", ["info"])), WORK / "info", deadline)
    _parse_result(versions)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "mem_total_mb": round(mem_kb / 1024),
        "platform": platform.platform(),
        **(versions.result or {}),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def median(values):
    return statistics.median(values) if values else float("nan")


# ---------------------------------------------------------------------------
# tracing off: end-to-end metrics


def run_untraced(workload: str, seed: int, seconds: float, sizes: dict, deadline: float,
                 with_setup: bool = True) -> Outcome:
    outcome = Outcome()
    config = CONFIGS[workload]
    out = WORK / workload
    out.mkdir(parents=True, exist_ok=True)

    setups = []

    def setup_child():
        k = len(setups)
        res = run_child(step_argv(Step("setup", "lib", ["setup", config])), out / f"setup{k}", deadline)
        outcome.attempted += 1
        if res.rc != 0:
            outcome.fail(f"setup{k}", f"exited with code {res.rc}")
        setups.append(res.wall_s)

    # Set-up children before each repetition, so that set-up and
    # repetitions sample the same stretches of a host whose speed drifts,
    # and more after the last up to SETUP_REPEATS. A repetition starts only
    # if, at the median lengths so far, it ends within ``seconds``; the
    # first always runs.
    steps = workload_steps(workload, seed, out / "rep", sizes)
    reps = []
    t_start = perf_counter()
    while True:
        for _ in range(SETUP_PER_REPETITION if with_setup else 0):
            setup_child()
        results, wall = run_repetition(steps, out / "rep", deadline)
        outcome.attempted += len(results)
        failures = check_workload(workload, results, out / "rep", REFERENCES)
        for step, messages in failures.items():
            for message in messages:
                outcome.fail(f"rep{len(reps)}.{step}", message)
        outcome.results = results
        reps.append({
            "wall_s": wall,
            "cpu_s": sum(r.cpu_s for r in results.values()),
            "peak_rss_mb": max(r.rss_mb for r in results.values()),
            "steps": {n: {"wall_s": r.wall_s, "cpu_s": r.cpu_s, "rss_mb": r.rss_mb, "rc": r.rc}
                      for n, r in results.items()},
            "results": {n: r.result for n, r in results.items() if r.result is not None},
        })
        expected = median([r["wall_s"] for r in reps]) + sum(setups[-SETUP_PER_REPETITION:])
        elapsed = perf_counter() - t_start
        if failures or elapsed + expected > seconds or perf_counter() + 1.5 * expected > deadline:
            break
    while with_setup and len(setups) < SETUP_REPEATS:
        setup_child()

    for key in ("wall_s", "peak_rss_mb"):
        outcome.metrics[key] = (median([r[key] for r in reps]), END_TO_END_UNITS[key])
    outcome.metrics["setup_s"] = (median(setups), "s")
    outcome.details = {"cpu_s": median([r["cpu_s"] for r in reps]), "setup_s": setups, "repetitions": reps}
    if not outcome.failures:  # untraced wall times for the traced run's overhead
        history = history_path(workload, sizes)
        history.parent.mkdir(exist_ok=True)
        with open(history, "a") as fh:
            fh.write(json.dumps({
                "wall_s": outcome.metrics["wall_s"][0],
                "steps": {n: median([r["steps"][n]["wall_s"] for r in reps]) for n in reps[0]["steps"]},
            }) + "\n")
    return outcome


def print_untraced(workload: str, seed: int, outcome: Outcome) -> None:
    reps = outcome.details["repetitions"]
    print(f"end-to-end, {workload}, seed {seed}, {len(reps)} repetition(s), "
          f"{len(outcome.details['setup_s'])} set-up children, tracing off")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<16} {value:12.4f} {unit}")
    print(f"  {'cpu_s':<16} {outcome.details['cpu_s']:12.4f} s")
    # per-step wall times (medians; both rollouts together as simulate_s)
    # and the learners' exact optimality gaps, which are fixed by the seed
    per_rep = []
    for rep in reps:
        walls = {}
        for name, step in rep["steps"].items():
            key = "simulate_s" if name.startswith("simulate") else f"{name}_s"
            walls[key] = walls.get(key, 0.0) + step["wall_s"]
        per_rep.append(walls)
    for key in per_rep[0]:
        print(f"  {key:<16} {median([w[key] for w in per_rep if key in w]):12.4f} s")
    gap = reps[0]["results"].get("gap")
    if gap:
        for agent in ("tabular", "dqn"):
            print(f"  {agent + '_gap':<16} {gap[agent]['gap']:12.3e} ratio")
    print(f"  {'failed_ratio':<16} {outcome.failed}/{outcome.attempted} steps")


# ---------------------------------------------------------------------------
# tracing on: per-layer metrics


SPANS = [
    "mdp.enumerate_states", "mdp.build_kernel", "mdp.solve_rvia", "mdp.contract_channels",
    "mdp.export_policy_csv", "mdp.load_policy_csv", "mdp.evaluate_policy", "mdp.induced_chain",
    "mdp.markov_chain_gain",
    "structure.check_value_monotone_age", "structure.check_threshold_aoi",
    "structure.check_threshold_single_source", "structure.diff_policies",
    "env.load_config", "env.simulate_policy", "env.step", "env.feasible_actions", "env.draw_levels",
    "tabular.train_tabular", "tabular.q_update", "tabular.epsilon_greedy",
    "dqn.train_dqn", "dqn.QNetwork.forward", "dqn.gradient_step", "dqn.batch_targets",
    "dqn.ReplayMemory.sample", "dqn.ReplayMemory.push", "dqn.QNetwork.copy",
    "dqn.tabulate_policy", "dqn.greedy_policy",
]
COMMANDS = ["solve", "verify", "sweep", "train", "simulate"]


def run_in_process(step: Step, tracer) -> StepResult:
    """One step through the library in this process, inside a root span."""
    import libsteps
    from aoi_rl import cli

    buffer = io.StringIO()
    rc = 0
    result = None
    root = f"cli.{step.args[0]}" if step.kind == "cli" else f"lib.{step.args[0]}"
    t0 = perf_counter()
    try:
        with tracer.span(root), contextlib.redirect_stdout(buffer):
            if step.kind == "cli":
                rc = cli.main(step.args)
            else:
                result = libsteps.TASKS[step.args[0]](*step.args[1:])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the step failed; report it and carry on with the checks
        traceback.print_exc()
        rc = 1
    return StepResult(rc=rc, wall_s=perf_counter() - t0, stdout=buffer.getvalue(), result=result)


def import_times(deadline: float) -> tuple[list[float], list[float]]:
    """(import of aoi_rl.cli measured inside a fresh child, that child's wall)."""
    inside, walls = [], []
    code = "import time; t = time.perf_counter(); import aoi_rl.cli; print(time.perf_counter() - t)"
    for k in range(IMPORT_REPEATS):
        res = run_child(["-c", code], WORK / f"import{k}", deadline)
        if res.rc == 0:
            inside.append(float(res.stdout))
            walls.append(res.wall_s)
    return inside, walls


def run_traced(workload: str, seed: int, sizes: dict, deadline: float) -> Outcome:
    outcome = Outcome()
    out = WORK / workload
    out.mkdir(parents=True, exist_ok=True)
    import_inside, import_walls = import_times(deadline)
    outcome.attempted += IMPORT_REPEATS
    for k in range(IMPORT_REPEATS - len(import_inside)):
        outcome.fail(f"import{k}", "import of aoi_rl.cli failed")

    history = history_path(workload, sizes)
    untraced = [json.loads(line) for line in history.read_text().splitlines()] if history.is_file() else []
    if not untraced:
        reference = run_untraced(workload, seed, 0.0, sizes, deadline, with_setup=False)
        outcome.attempted += reference.attempted
        outcome.failures.update({f"untraced.{k}": v for k, v in reference.failures.items()})
        untraced = [json.loads(line) for line in history.read_text().splitlines()] if history.is_file() else []

    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    steps = workload_steps(workload, seed, out / "rep", sizes)
    shutil.rmtree(out / "rep", ignore_errors=True)
    (out / "rep").mkdir(parents=True)
    results = {}
    t0 = perf_counter()
    try:
        _arm(deadline)
        for step in steps:
            results[step.name] = run_in_process(step, tracer)
            if results[step.name].rc != 0:
                break
    except StepTimeout:
        outcome.fail("traced", "run deadline reached")
    finally:
        _disarm()
        tracer.unpatch()
    traced_wall = perf_counter() - t0
    outcome.results = results
    outcome.attempted += len(results)
    failures = check_workload(workload, results, out / "rep", REFERENCES)
    for step, messages in failures.items():
        for message in messages:
            outcome.fail(f"traced.{step}", message)
    tracer.save(out / "spans.npz")

    stats = tracer.summary()
    counts = tracer.counts

    def total(name):
        return stats.get(name, (0.0, 0.0, 0))[0]

    def own(name):
        return stats.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return stats.get(name, (0.0, 0.0, 0))[2]

    def per(value, n, scale):
        """Time per unit of work; 0 where the workload does none of it."""
        return value / n * scale if n else 0.0

    m = outcome.metrics
    for name in SPANS:
        m[f"{name}.s"] = (total(name), "s")
    sweeps = calls("mdp.contract_channels")
    m["mdp.kernel_bytes"] = (counts["mdp.kernel_bytes"], "computed_bytes")
    m["mdp.rvia_sweeps"] = (sweeps, "count")
    m["mdp.rvia_sweep_self_ms"] = (per(own("mdp.solve_rvia"), sweeps, 1e3), "ms")
    m["mdp.policy_csv_bytes"] = (counts["mdp.policy_csv_bytes"], "bytes")
    m["mdp.induced_chain.nnz"] = (counts["mdp.induced_chain.nnz"], "count")
    m["mdp.evaluate_policy.rss_growth_mb"] = (counts["mdp.evaluate_policy.rss_growth_mb"], "MB")
    m["structure.violations"] = (counts["structure.violations"], "count")
    m["env.simulate_policy.us_per_slot"] = (
        per(total("env.simulate_policy"), counts["env.simulate_policy.slots"], 1e6), "us/slot")
    m["channel.sample_level.calls"] = (counts["channel.sample_level.calls"], "count")
    m["tabular.us_per_slot"] = (per(total("tabular.train_tabular"), counts["tabular.slots"], 1e6), "us/slot")
    m["dqn.us_per_slot"] = (per(total("dqn.train_dqn"), counts["dqn.slots"], 1e6), "us/slot")
    m["dqn.train_dqn.self_s"] = (own("dqn.train_dqn"), "s")
    m["dqn.QNetwork.forward.calls"] = (calls("dqn.QNetwork.forward"), "count")
    m["dqn.QNetwork.copy.calls"] = (calls("dqn.QNetwork.copy"), "count")
    gap = results.get("gap")
    for agent in ("tabular", "dqn"):
        value = gap.result[agent]["gap"] if gap is not None and gap.result else 0.0
        m[f"{agent}.gap"] = (value, "ratio")
    m["cli.import_s"] = (median(import_inside), "s")
    for command in COMMANDS:
        m[f"cli.{command}.s"] = (total(f"cli.{command}"), "s")
        m[f"cli.{command}.self_s"] = (own(f"cli.{command}"), "s")
    untraced_wall = median([u["wall_s"] for u in untraced])
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.spans"] = (len(tracer.start), "count")

    outcome.details = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "untraced_runs": len(untraced),
        "start_import_s": median(import_walls),
        "accounting": accounting(tracer, steps, results, untraced, median(import_walls)),
        "spans": {name: {"total_s": t, "self_s": s, "calls": c} for name, (t, s, c) in stats.items()},
    }
    return outcome


def accounting(tracer, steps, results, untraced, start_import) -> list[dict]:
    """Per step: the untraced child's wall time less interpreter start and
    import, beside the traced step's span and its self time by layer."""
    import numpy as np

    ids, parent, dur, own = tracer.durations()
    has_parent = parent >= 0
    root = np.where(has_parent, parent, np.arange(len(parent)))
    while (parent[root] >= 0).any():
        root = np.where(parent[root] >= 0, parent[root], root)
    layer_of = np.array([name.split(".")[0] for name in tracer.names])[ids]
    rows = []
    roots = np.flatnonzero(~has_parent)
    for step, r in zip([s for s in steps if s.name in results], roots):
        inside = root == r
        by_layer = {}
        for layer in np.unique(layer_of[inside]):
            by_layer[str(layer)] = float(own[inside & (layer_of == layer)].sum())
        child = median([u["steps"][step.name] for u in untraced if step.name in u["steps"]])
        rows.append({
            "step": step.name,
            "untraced_child_s": child,
            "untraced_less_start_s": child - start_import,
            "traced_span_s": float(dur[r]),
            "self_by_layer_s": by_layer,
        })
    return rows


def print_traced(workload: str, seed: int, outcome: Outcome) -> None:
    d = outcome.details
    print(f"per-layer, {workload}, seed {seed}, traced in-process run")
    print(f"  traced wall {d['traced_wall_s']:.3f} s, untraced median {d['untraced_wall_s']:.3f} s "
          f"over {d['untraced_runs']} run(s): tracing overhead {outcome.metrics['trace.overhead_s'][0]:+.3f} s")
    print(f"  interpreter start + import of aoi_rl.cli: {d['start_import_s']:.3f} s per child")
    print(f"  {'step':<18}{'child-start_s':>14}{'traced_s':>10}  self time by layer (s)")
    for row in d["accounting"]:
        layers = ", ".join(f"{k} {v:.3f}" for k, v in sorted(row["self_by_layer_s"].items(), key=lambda kv: -kv[1]))
        print(f"  {row['step']:<18}{row['untraced_less_start_s']:>14.3f}{row['traced_span_s']:>10.3f}  {layers}")
    print(f"  {'span':<42}{'total_s':>10}{'self_s':>10}{'calls':>10}")
    for name, s in sorted(d["spans"].items(), key=lambda kv: -kv[1]["total_s"]):
        if not s["calls"]:
            continue
        print(f"  {name:<42}{s['total_s']:>10.4f}{s['self_s']:>10.4f}{s['calls']:>10}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<42} {value:.6g} {unit}")


# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> Outcome:
    """One benchmark run; the unit the self-test drives."""
    sizes = dict(DEFAULT_SIZES if sizes is None else sizes)
    deadline = perf_counter() + RUN_BUDGET_S
    signal.signal(signal.SIGALRM, _on_alarm)
    WORK.mkdir(exist_ok=True)
    machine = machine_info(deadline)
    if trace:
        outcome = run_traced(workload, seed, sizes, deadline)
    else:
        outcome = run_untraced(workload, seed, seconds, sizes, deadline)
    outcome.details["machine"] = machine
    outcome.details["sizes"] = sizes
    return outcome


def missing_program() -> str | None:
    needed = [Path("src/aoi_rl/cli.py"), *map(Path, CONFIGS.values())]
    absent = [str(p) for p in needed if not p.is_file()]
    return f"not a source checkout of aoi-rl; missing {', '.join(absent)}" if absent else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    os.chdir(ROOT)
    problem = missing_program()
    if problem:
        print(problem, file=sys.stderr)
        return 2

    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, (value, unit) in outcome.metrics.items():
        if not math.isfinite(value):  # keeps the result line valid JSON
            outcome.fail(name, "not measured")
            outcome.metrics[name] = (0.0, unit)
    (print_traced if args.trace else print_untraced)(args.workload, args.seed, outcome)
    print("machine: " + json.dumps(outcome.details["machine"], sort_keys=True))
    for step, messages in outcome.failures.items():
        for message in messages:
            print(f"FAILED {step}: {message}")
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "attempted": outcome.attempted, "failures": outcome.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
        **outcome.details,
    }
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
