"""The three benchmark workloads: how each one builds its inputs and calls the library.

Importing this module imports ``blockmotif`` from the checkout's ``src``
directory, so the import is part of every workload's set-up time.

Each workload is a closed loop with one client: the benchmark calls the
experiment, waits for it, and calls again.  Every call does the same fixed
amount of work, so throughput is the inverse of the per-call time.  Only the
Monte Carlo replicate seed consumes the benchmark's ``--seed``.  All three
sit in the paper's regime of an O(1) mean count.

* ``mc_triangle``: Monte Carlo with 1000 replicates, triangle, n=60, two
  classes, Poisson rates 3/n and 1/n.  Sampling and copy counting on a
  sparse host (about 60 edges, C(60,3) subsets scanned per count); no clump
  or exact enumeration.
* ``exact_enum``: exact law of the triangle count for n=5 and a three-point
  edge law: 3^10 = 59,049 labelled graphs, each counted.  Many tiny hosts,
  so per-call overhead matters; no sampling.
* ``clump_cycle4``: ``blockmotif experiment`` on cycle:4, n=20, Poisson
  rates 0.15 and 0.05, eps 1e-8, 500 replicates.  Time goes to the two
  clump-rate enumerations (truncation cap 6, imax 3888) and the
  compound-Poisson reference, with the CLI and serializer on top; counting
  and sampling are a small share.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import blockmotif  # noqa: E402
from blockmotif import Categorical, Poisson, SbmmSpec, pattern_from_name  # noqa: E402

MC_TRIANGLE_REPS = 1000
CLUMP_CYCLE4_REPS = 500
# truncation caps 6 and 4: about 1.3 s per lambda_params call on a 2-vCPU
# Xeon VM, where the default eps (caps 7 and 5) takes 4 s and leaves too few
# calls in a run for a steady median
CLUMP_CYCLE4_EPS = 1e-8


def _two_class_poisson(n: int, diagonal: float, off_diagonal: float) -> SbmmSpec:
    same, cross = Poisson(diagonal), Poisson(off_diagonal)
    return SbmmSpec(n, 2, (0.5, 0.5), ((same, cross), (cross, same)))


class ExperimentCall:
    """``run_experiment`` on a prepared config.

    ``outputs`` gives the report as ``dumps_stable`` text, the form the CLI
    writes.
    """

    def __init__(self, config: dict):
        self.config = config

    def __call__(self):
        return blockmotif.run_experiment(self.config)

    def outputs(self, result) -> dict[str, str]:
        return {"report": blockmotif.dumps_stable(result)}


class CliExperimentCall:
    """``blockmotif experiment --config F --out R`` run in-process.

    ``outputs`` gives the text of the report file and of its two CSV
    sidecars.
    """

    def __init__(self, workdir: str, config: dict):
        self.config_path = os.path.join(workdir, "config.json")
        self.out_path = os.path.join(workdir, "report.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        self.argv = ["experiment", "--config", self.config_path, "--out", self.out_path]
        self.cli = importlib.import_module("blockmotif.cli")

    def __call__(self):
        rc = self.cli.main(self.argv)
        if rc != 0:
            raise RuntimeError(f"blockmotif experiment exited with status {rc}")
        return rc

    def outputs(self, result) -> dict[str, str]:
        stem = self.out_path[: -len(".json")]
        paths = {
            "report": self.out_path,
            "reference.csv": stem + "_reference.csv",
            "observed.csv": stem + "_observed.csv",
        }
        out = {}
        for role, path in paths.items():
            with open(path, "r", encoding="utf-8") as fh:
                out[role] = fh.read()
        return out


def setup(name: str, seed: int, workdir: str):
    """Build the inputs of workload ``name`` and return its call object."""
    if name == "mc_triangle":
        n = 60
        return ExperimentCall(
            {
                "spec": _two_class_poisson(n, 3 / n, 1 / n),
                "pattern": pattern_from_name("triangle"),
                "variant": "thm31_simple",
                "mode": "monte_carlo",
                "reps": MC_TRIANGLE_REPS,
                "seed": seed,
            }
        )
    if name == "exact_enum":
        return ExperimentCall(
            {
                "spec": SbmmSpec(5, 1, (1.0,), ((Categorical([0.6, 0.3, 0.1]),),)),
                "pattern": pattern_from_name("triangle"),
                "variant": "thm41_multi",
                "mode": "exact",
            }
        )
    if name == "clump_cycle4":
        return CliExperimentCall(
            workdir,
            {
                "spec": blockmotif.spec_to_json(_two_class_poisson(20, 0.15, 0.05)),
                "pattern": "cycle:4",
                "variant": "thm31_simple",
                "mode": "monte_carlo",
                "reps": CLUMP_CYCLE4_REPS,
                "seed": seed,
                "eps": CLUMP_CYCLE4_EPS,
            },
        )
    raise ValueError(f"unknown workload {name!r}")
