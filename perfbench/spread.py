"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a checkout:

    python3 perfbench/spread.py

Runs ``run.py`` on every workload with seeds 1..RUNS, one run at a time and
each for BENCHMARK.json's ``run_seconds``, and prints for each metric its
median, quartiles and quartile spread ``(q3 - q1) / median`` as
``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import ROOT, WORKLOADS  # noqa: E402

RUNS = 10
RUN_TIMEOUT_S = 180


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    for workload in WORKLOADS:
        runs = [one_run(workload, seed, seconds) for seed in range(1, RUNS + 1)]
        print(f"{workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:14s} median {med:10.5g} {first['unit']:5s} q1 {q1:10.5g} q3 {q3:10.5g} "
                  f"spread {spread:.3f}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
