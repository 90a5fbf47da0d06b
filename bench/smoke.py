"""Smoke check of the benchmark harness, kept out of the package's tests.

    python3 bench/smoke.py

Run from the repository root.  For each workload it runs the smallest job
(fewest ground elements) once untraced and once traced, and fails unless the
run is correct and emits exactly the metric names listed in BENCHMARK.json.
It takes about half a minute.
"""

from __future__ import annotations

import json
import sys

from inputs import WORKLOADS
from run import BENCH, run_workload


def smallest(jobs):
    return [min(jobs, key=lambda job: job.size)]


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _, _ = run_workload(workload, 0, 0.0, bool(trace), pick=smallest)
            names = set(result["metrics"])
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed")
            if names != expected[trace]:
                problems.append(f"{workload} trace={trace}: missing "
                                f"{sorted(expected[trace] - names)}, extra "
                                f"{sorted(names - expected[trace])}")
            print(f"{workload} trace={trace}: {len(names)} metrics, "
                  f"correct={result['correct']}", flush=True)
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
