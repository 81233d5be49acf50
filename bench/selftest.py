"""Self-test of the benchmark itself, at tiny learner sizes.

    python3 bench/selftest.py

For every workload, untraced and traced: the steps run, every check
passes at this commit, and exactly the metrics named in BENCHMARK.json are
emitted with their units. The traced run is made twice with one seed and
its count metrics must repeat exactly. Finally each workload's checks are
re-run against deliberately wrong references, which must be reported as
failures. The exact workloads run at full size (about four minutes in all).
"""

from __future__ import annotations

import copy
import json
import os
import sys
from pathlib import Path

import run

TINY = {"tabular_slots": 2_000, "dqn_slots": 300, "sim_slots": 1_000}
SEED = 7

# one wrong reference per workload, each aimed at a different check
WRONG = {
    "exact_two_source": lambda refs: refs.update(two_source_gain=refs["two_source_gain"] * (1 + 1e-6)),
    "exact_single_source": lambda refs: refs["single_diff_per_aoi"].update({"1": 0}),
    "learn_small": None,  # no stored reference: the rollout is checked against a wrong exact gain
}


def expected_metrics() -> tuple[dict, dict]:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main() -> int:
    os.chdir(run.ROOT)
    end_to_end, per_layer = expected_metrics()
    problems = []

    def expect(ok: bool, message: str) -> None:
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            problems.append(message)

    for workload in run.CONFIGS:
        untraced = run.run_workload(workload, SEED, 0.0, False, TINY)
        expect(not untraced.failures, f"{workload} untraced: checks pass {untraced.failures or ''}")
        emitted = {k: u for k, (_, u) in untraced.metrics.items()}
        expect(emitted == end_to_end, f"{workload} untraced: end-to-end metrics and units")

        results = copy.deepcopy(untraced.results)
        refs = copy.deepcopy(run.REFERENCES)
        if WRONG[workload]:
            WRONG[workload](refs)
        else:
            results["gap"].result["dqn"]["gain"] += 10 * results["gap"].result["dqn"]["mc_tolerance"]
        failures = run.check_workload(workload, results, run.WORK / workload / "rep", refs)
        expect(bool(failures), f"{workload}: a wrong reference is reported as a failure {failures}")

        traced = [run.run_workload(workload, SEED, 0.0, True, TINY) for _ in range(2)]
        for t in traced:
            expect(not t.failures, f"{workload} traced: checks pass {t.failures or ''}")
        emitted = {k: u for k, (_, u) in traced[0].metrics.items()}
        expect(emitted == per_layer, f"{workload} traced: per-layer metrics and units")
        counts = [{k: v for k, (v, u) in t.metrics.items()
                   if u in ("count", "bytes", "computed_bytes")} for t in traced]
        expect(counts[0] == counts[1], f"{workload} traced: counts repeat exactly {counts[0]}")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
