"""Self-tests of the benchmark: its checks catch corrupted outputs, its
oracle agrees with the library's brute-force counter, its tracer counts
calls, and BENCHMARK.json names the metrics the benchmark prints.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest

import checks
import run
import spans
import workloads
from blockmotif import (
    Categorical,
    SbmmSpec,
    count_copies_bruteforce,
    dumps_stable,
    exact_count_pmf,
    pattern_from_name,
    sample_graph,
)
from blockmotif._rng import substream_key

SEED = 7


@pytest.fixture(scope="module")
def real():
    """One real call's outputs for the two run_experiment workloads."""
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in ("mc_triangle", "exact_enum"):
            call = workloads.setup(name, SEED, workdir)
            out[name] = call.outputs(call())
    return out


def failed_frac(workload, outputs, errors=None):
    errors = errors or [None] * len(outputs)
    reasons = checks.call_failures(workload, outputs, errors, checks.recount_failures(outputs))
    return sum(1 for r in reasons if r) / len(reasons), reasons


def edited(outputs, edit):
    report = json.loads(outputs["report"])
    edit(report)
    return dict(outputs, report=dumps_stable(report))


def test_real_outputs_pass(real):
    for name, outputs in real.items():
        frac, reasons = failed_frac(name, [outputs, dict(outputs)])
        assert frac == 0, reasons


def test_histogram_missing_a_replicate_fails(real):
    reps = workloads.MC_TRIANGLE_REPS

    def drop_one(report):
        report["observed"]["pmf"][0][1] -= 1 / reps

    frac, reasons = failed_frac("mc_triangle", [edited(real["mc_triangle"], drop_one)])
    assert frac > 0
    assert any("histogram" in r for r in reasons[0])


def test_histogram_without_a_recounted_replicate_fails(real):
    report = json.loads(real["mc_triangle"]["report"])
    spec = workloads.setup("mc_triangle", SEED, "").config["spec"]
    w0 = checks.oracle_count(sample_graph(spec, substream_key(SEED, 0)), pattern_from_name("triangle"))

    def move_atom(report):
        report["observed"]["pmf"] = [[k + 1000 if k == w0 else k, p] for k, p in report["observed"]["pmf"]]

    assert any(k == w0 for k, _ in report["observed"]["pmf"])
    frac, reasons = failed_frac("mc_triangle", [edited(real["mc_triangle"], move_atom)])
    assert frac > 0
    assert any(f"have {w0} copies, the histogram holds 0" in r for r in reasons[0])


def test_histogram_with_one_replicate_moved_fails(real):
    reps = workloads.MC_TRIANGLE_REPS

    def move_one(report):
        pmf = dict(map(tuple, report["observed"]["pmf"]))
        pmf[0] += 1 / reps
        pmf[1] -= 1 / reps
        report["observed"]["pmf"] = sorted([k, p] for k, p in pmf.items())

    frac, reasons = failed_frac("mc_triangle", [edited(real["mc_triangle"], move_one)])
    assert frac > 0
    assert not any("not a histogram" in r for r in reasons[0])
    assert any("replicates have 1 copies" in r for r in reasons[0])


@pytest.mark.parametrize("factor, fails", [(1 + 10 * checks.REL_TOL, True), (1 + checks.REL_TOL / 10, False)])
def test_exact_atom_checked_within_tolerance(real, factor, fails):
    def scale_largest(report):
        atom = max(report["observed"]["pmf"], key=lambda kp: kp[1])
        atom[1] *= factor

    frac, reasons = failed_frac("exact_enum", [edited(real["exact_enum"], scale_largest)])
    assert (frac > 0) == fails
    assert any(r.startswith("observed.pmf[") for r in reasons[0]) == fails


def test_underflowed_reference_fails(real):
    def underflow(report):
        report["reference"]["pmf"] = []
        report["reference"]["truncation_deficit"] = 1.0

    frac, reasons = failed_frac("mc_triangle", [edited(real["mc_triangle"], underflow)])
    assert frac > 0
    assert any(r.startswith("reference mass") for r in reasons[0])


def test_raised_and_differing_calls_fail(real):
    good = real["exact_enum"]
    changed = dict(good, report=good["report"] + " ")
    frac, reasons = failed_frac("exact_enum", [good, changed, None], [None, None, "ValueError"])
    assert frac == pytest.approx(2 / 3)
    assert reasons[0] == []
    assert "outputs differ from the run's first call" in reasons[1]


def test_oracle_agrees_with_bruteforce():
    spec = SbmmSpec(8, 1, (1.0,), ((Categorical([0.4, 0.4, 0.2]),),))
    for name in ("triangle", "cycle:4", "path:3"):
        pattern = pattern_from_name(name)
        for seed in range(5):
            graph = sample_graph(spec, seed)
            assert checks.oracle_count(graph, pattern) == count_copies_bruteforce(graph, pattern)


def test_tracer_counts_and_restores_bindings():
    import blockmotif.experiments as experiments

    spec = SbmmSpec(4, 1, (1.0,), ((Categorical([0.5, 0.3, 0.2]),),))
    triangle = pattern_from_name("triangle")
    original = experiments.count_copies
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.root() as first:
            traced = experiments.exact_count_pmf(spec, triangle)
    finally:
        tracer.uninstall()
    assert experiments.count_copies is original
    metrics = tracer.call_metrics(first, len(tracer.layer))
    assert metrics["counting.count_copies.calls"] == 3**6
    assert metrics["experiments.exact_count_pmf.configs"] == 3**6
    assert metrics["counting.subsets_scanned"] == 4 * 3**6
    assert metrics["experiments.exact_count_pmf.self_s"] < metrics["experiments.exact_count_pmf.s"]
    assert traced == exact_count_pmf(spec, triangle)


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
