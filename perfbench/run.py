"""Benchmark of blockmotif's validation experiments.

Run from the root of a checkout (the library is imported from ``src``):

    python3 perfbench/run.py --workload mc_triangle --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 16

One run of a workload starts ``WORKERS`` fresh worker processes, one after
the other.  Each worker times its set-up (import ``blockmotif`` and build the
inputs), then its first experiment call, made with every cache empty, then
further calls of the same experiment for its share of ``--seconds``, and
checks all its outputs after the timed loop.  Worker 0 also recounts every
Monte Carlo replicate with an independent oracle (about 6.3 s for
``mc_triangle``); the other workers' outputs must equal worker 0's.  Then
``SETUPS`` more fresh processes only time their set-up.

The run reports the median set-up time of all its processes, the workers'
median peak RSS, and the fastest first call and the fastest further call.
The calls repeat the same deterministic work, and other tenants of a shared
machine only ever add time to a call, so the fastest call varies less from
run to run than the median does.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

With ``--trace 1`` each worker's first call and every second further call run
with spans recorded around the library's layer functions (see ``spans.py``);
the other calls run untraced, and the difference of the two medians is the
tracing overhead.  The per-layer metrics are medians over the traced further
calls.  Each worker writes its spans to ``perfbench/_run/``.

``--all`` runs every workload in turn and prints one table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(HERE, "_run")
WORKLOADS = ("mc_triangle", "exact_enum", "clump_cycle4")
WORKERS = 4
# set-up-only processes per run, so that setup_s is a median of WORKERS + SETUPS
SETUPS = 8
# a worker normally ends within 15 s and a set-up-only process within 1 s;
# all of them together must end within 180 s
CHILD_TIMEOUT_S = 33
SETUP_TIMEOUT_S = 5

# numpy and its BLAS read these when first imported: one thread each
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "first_call_s": "s",
    "experiment_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in report order."""
    import spans

    units = {}
    for name in spans.call_metric_names():
        if name.endswith("_s") or name.endswith(".s"):
            units[name] = "s"
        elif name == "serialize.report_bytes":
            units[name] = "bytes"
        else:
            units[name] = "count"
    for layer in spans.LAYER_NAMES:
        units[f"cold.{layer}.s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    return units


def _child(args: list, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run this script in a fresh process; return its last stdout line as JSON."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    threads = None
    try:
        with open("/proc/self/status", "r", encoding="utf-8") as fh:
            threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "process_threads": threads,
    }


class Calls:
    """The experiment calls of one worker: times, outputs and errors."""

    def __init__(self, call, tracer):
        self.call = call
        self.tracer = tracer
        self.seconds = []
        self.traced = []
        self.outputs = []
        self.errors = []
        self.span_ranges = []

    def one(self, traced: bool) -> None:
        # every call starts from a collected heap, so neither its time nor the
        # peak RSS depends on how much garbage earlier calls left
        gc.collect()
        tracer = self.tracer if traced else None
        result, error = None, None
        if tracer:
            tracer.install()
        try:
            with tracer.root() if tracer else nullcontext() as first_span:
                t0 = time.perf_counter()
                try:
                    result = self.call()
                except Exception:
                    error = traceback.format_exc(limit=3)
                elapsed = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            self.span_ranges.append((first_span, len(tracer.layer)))
        outputs = None
        if error is None:
            try:
                outputs = self.call.outputs(result)
            except Exception:
                error = traceback.format_exc(limit=3)
        self.seconds.append(elapsed)
        self.traced.append(traced)
        self.outputs.append(outputs)
        self.errors.append(error)

    def warm(self, traced: bool) -> list:
        """Times of the further calls that ran (un)traced and did not raise."""
        return [
            s
            for s, t, e in zip(self.seconds[1:], self.traced[1:], self.errors[1:])
            if t == traced and e is None
        ]


def timed_setup(workload: str, seed: int, workdir: str):
    """Import ``blockmotif`` and build the workload's inputs; return the call and the time."""
    t0 = time.perf_counter()
    import workloads

    call = workloads.setup(workload, seed, workdir)
    return call, time.perf_counter() - t0


def setup_only(workload: str, seed: int) -> dict:
    """One fresh process that only times its set-up."""
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=RUN_DIR)
    try:
        return {"setup_s": timed_setup(workload, seed, workdir)[1]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def worker(workload: str, seed: int, seconds: float, trace: bool, index: int) -> dict:
    """One fresh process: set-up, first call, further calls, checks."""
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=RUN_DIR)
    try:
        call, setup_s = timed_setup(workload, seed, workdir)
        import spans

        calls = Calls(call, spans.Tracer() if trace else None)
        calls.one(traced=trace)
        loop_start = time.perf_counter()
        k = 0
        # closed loop: the next call starts when the previous one returns
        while True:
            calls.one(traced=trace and k % 2 == 1)
            k += 1
            if time.perf_counter() - loop_start >= seconds and k >= (2 if trace else 1):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import checks

    # worker 0 recounts every Monte Carlo replicate; the others must match its outputs
    recount = checks.recount_failures(calls.outputs) if index == 0 else []
    reasons = checks.call_failures(workload, calls.outputs, calls.errors, recount)
    first = next((o for o in calls.outputs if o is not None), None)
    out = {
        "setup_s": setup_s,
        "first_call_s": calls.seconds[0],
        "untraced": calls.warm(traced=False),
        "traced": calls.warm(traced=True),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(reasons),
        "failed": sum(1 for r in reasons if r),
        "failures": [r for r in reasons if r][:3],
        "recount": recount,
        "digest": hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest(),
        "call_seconds": [round(x, 4) for x in calls.seconds],
        "env": environment(),
    }
    if trace:
        tracer = calls.tracer
        per_call = [tracer.call_metrics(*r) for r in calls.span_ranges]
        out["cold_layers"], out["warm_layers"] = per_call[0], per_call[1:]
        tracer.save(os.path.join(RUN_DIR, f"spans-{workload}-w{index}.npz"), calls.span_ranges)
    return out


def _median(values: list) -> float:
    return statistics.median(values) if values else float("nan")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """``WORKERS`` fresh workers in turn, each measuring ``seconds / WORKERS``,
    then ``SETUPS`` set-up-only processes."""
    workers = [
        _child(["--worker", str(i), "--workload", workload, "--seed", str(seed),
                "--seconds", repr(seconds / WORKERS), "--trace", str(int(trace))])
        for i in range(WORKERS)
    ]
    setups = [w["setup_s"] for w in workers]
    if not trace:
        setups += [
            _child(["--setup-only", "--workload", workload, "--seed", str(seed)],
                   SETUP_TIMEOUT_S)["setup_s"]
            for _ in range(SETUPS)
        ]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    # every worker must produce the same outputs as the first one
    for w in workers[1:]:
        if w["digest"] != workers[0]["digest"]:
            failed += w["attempted"] - w["failed"]
            failures.append(["outputs differ from the first worker's"])
    # every call's outputs equal the recounted ones, or have failed already
    if workers[0]["recount"]:
        failed = attempted
    untraced = [s for w in workers for s in w["untraced"]]
    if not trace:
        metrics = {
            "setup_s": _median(setups),
            "first_call_s": min(w["first_call_s"] for w in workers),
            "experiment_s": min(untraced) if untraced else float("nan"),
            "peak_rss_mb": _median([w["peak_rss_mb"] for w in workers]),
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
    else:
        import spans

        warm = [m for w in workers for m in w["warm_layers"]]
        metrics = {name: _median([m[name] for m in warm]) for name in warm[0]}
        for layer in spans.LAYER_NAMES:
            metrics[f"cold.{layer}.s"] = _median([w["cold_layers"][f"{layer}.s"] for w in workers])
        overhead = _median([s for w in workers for s in w["traced"]]) - _median(untraced)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_frac"] = overhead / _median(untraced)
        units = per_layer_units()
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "workers": len(workers),
        "setups": len(setups),
        "warm_calls": len(untraced),
        "failures": failures[:3],
        "call_seconds": [w["call_seconds"] for w in workers],
        "env": workers[0]["env"],
    }
    return {
        "info": info,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def print_run(out: dict) -> None:
    info, result = out["info"], out["result"]
    print(f"workload {info['workload']}  seed {info['seed']}  seconds {info['seconds']}  "
          f"trace {info['trace']}")
    for name, m in result["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {info['setups']} set-ups)"
        elif name == "first_call_s":
            note = f"  (fastest of {info['workers']} workers)"
        elif name == "peak_rss_mb":
            note = f"  (median of {info['workers']} workers)"
        elif name == "experiment_s":
            note = f"  (fastest of {info['warm_calls']} calls)"
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  calls attempted {result['attempted']}, failed {result['failed']}; "
          f"seconds per call, by worker: {info['call_seconds']}")
    for reasons in info["failures"]:
        print("  failure: " + "; ".join(reasons)[:2000])
    print("  env " + json.dumps(info["env"]))


def run_all(seed: int, seconds: float, trace: int) -> int:
    rows = {}
    for workload in WORKLOADS:
        out = run_workload(workload, seed, seconds, bool(trace))
        print_run(out)
        rows[workload] = out["result"]
    names = list(rows[WORKLOADS[0]]["metrics"])
    print(f"{'metric':44s}" + "".join(f"{w:>16s}" for w in rows) + "  unit")
    for name in names:
        cells = "".join(f"{r['metrics'][name]['value']:>16.6g}" for r in rows.values())
        print(f"{name:44s}{cells}  {rows[WORKLOADS[0]]['metrics'][name]['unit']}")
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="blockmotif experiment benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1, help="Monte Carlo replicate seed")
    parser.add_argument("--seconds", type=float, default=16.0, help="total length of the timed loops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "blockmotif", "__init__.py")):
        print(f"perfbench: no blockmotif sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.makedirs(RUN_DIR, exist_ok=True)
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload is None:
        parser.error("give --workload or --all")
    if args.setup_only:
        print(json.dumps(setup_only(args.workload, args.seed)))
        return 0
    if args.worker is not None:
        out = worker(args.workload, args.seed, args.seconds, bool(args.trace), args.worker)
        print(json.dumps(out))
        return 0
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_run(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
