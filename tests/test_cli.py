"""Command-line interface: golden outputs, file round-trips, exit codes."""

import json
import math
import time

import pytest

from blockmotif import (
    Categorical,
    PatternGraph,
    Poisson,
    SbmmSpec,
    cp_pmf,
    graph_from_text,
    graph_to_text,
    lambda_params,
    ObservedMultigraph,
    sample_graph,
    spec_to_json,
    tv_bound,
)
from blockmotif.cli import build_parser, main

TRIANGLE = PatternGraph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})


def bernoulli_spec_json(n=10, p=0.1):
    spec = SbmmSpec(n, 1, (1.0,), ((Categorical([1 - p, p]),),))
    return json.dumps(spec_to_json(spec)), spec


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_analyze_triangle_profile(capsys):
    rc, out, err = run(capsys, "analyze", "triangle")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["vertices"] == 3
    assert payload["edges"] == 3
    assert payload["supported_pairs"] == 3
    assert payload["max_multiplicity"] == 1
    assert payload["self_loops"] == 0
    assert payload["automorphisms"] == 6
    assert payload["rho"] == 1
    prof = payload["profile"]
    assert prof["density"] == "1"
    assert prof["alpha"] == "2"
    assert prof["gamma"] == "1"
    assert prof["strictly_balanced"] is True


def test_analyze_aliases_agree_byte_for_byte(capsys):
    outputs = []
    for name in ("triangle", "cycle:3", "complete:3"):
        rc, out, _ = run(capsys, "analyze", name)
        assert rc == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_analyze_accepts_inline_json(capsys):
    _, by_name, _ = run(capsys, "analyze", "cycle:4")
    payload = {
        "vertices": 4,
        "edges": [[0, 1, 1], [0, 3, 1], [1, 2, 1], [2, 3, 1]],
    }
    rc, by_json, _ = run(capsys, "analyze", json.dumps(payload))
    assert rc == 0
    assert by_json == by_name


def test_analyze_rational_exponents_are_exact_strings(capsys):
    _, out, _ = run(capsys, "analyze", "path:3")
    prof = json.loads(out)["profile"]
    assert prof["density"] == "2/3"
    assert prof["alpha"] == "1"
    assert prof["gamma"] == "1/3"


def test_bound_output_matches_library(capsys):
    spec_json, spec = bernoulli_spec_json(30, 0.05)
    rc, out, _ = run(
        capsys,
        "bound",
        "--spec",
        spec_json,
        "--pattern",
        "triangle",
        "--variant",
        "thm31_simple",
    )
    assert rc == 0
    payload = json.loads(out)
    report = tv_bound(spec, TRIANGLE, "thm31_simple")
    assert payload["variant"] == "thm31_simple"
    assert payload["value"] == report.value
    assert payload["ingredients"]["c_lambda"] == report.ingredients["c_lambda"]
    assert payload["ingredients"]["kappa_2"] == report.ingredients["kappa_2"]


def test_lambda_emits_params_then_pmf_csv(capsys):
    spec_json, spec = bernoulli_spec_json(12, 0.2)
    rc, out, _ = run(capsys, "lambda", "--spec", spec_json, "--pattern", "triangle")
    assert rc == 0
    head, _, csv = out.partition("\n\n")
    payload = json.loads(head)
    params = lambda_params(spec, TRIANGLE)
    assert payload["lambda"] == [float(x) for x in params.lam]
    assert payload["imax"] == params.imax
    assert payload["total"] == pytest.approx(float(params.total), rel=1e-15)
    lines = csv.splitlines()
    assert lines[0] == "k,prob"
    probs = [float(line.split(",")[1]) for line in lines[1:]]
    expect = cp_pmf(params, len(probs) - 1)
    assert probs == pytest.approx(expect, rel=1e-15)
    assert 1.0 - math.fsum(probs) <= 1e-12


def test_lambda_refuses_a_reference_law_that_underflows(capsys):
    # total clump rate 2084.55: exp(-total) is 0.0, so the command fails
    # before it prints any rate
    spec = SbmmSpec(60, 1, (1.0,), ((Poisson(0.5),),))
    spec_json = json.dumps(spec_to_json(spec))
    start = time.perf_counter()
    rc, out, err = run(capsys, "lambda", "--spec", spec_json, "--pattern", "triangle")
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert "total rate 2084.55: its P(0) underflows to 0.0" in err


def test_sample_writes_deterministic_graph_files(tmp_path, capsys):
    spec_json, spec = bernoulli_spec_json(8, 0.3)
    out_path = tmp_path / "g.txt"
    rc, stdout, _ = run(
        capsys, "sample", "--spec", spec_json, "--seed", "5", "--out", str(out_path)
    )
    assert rc == 0 and stdout == ""
    text = out_path.read_text()
    assert graph_from_text(text) == sample_graph(spec, 5)
    # without --out the same text goes to stdout
    rc, stdout, _ = run(capsys, "sample", "--spec", spec_json, "--seed", "5")
    assert rc == 0 and stdout == text
    rc, other, _ = run(capsys, "sample", "--spec", spec_json, "--seed", "6")
    assert other != text


def test_count_reads_graph_files(tmp_path, capsys):
    g = ObservedMultigraph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
    path = tmp_path / "k3.txt"
    path.write_text(graph_to_text(g))
    rc, out, _ = run(capsys, "count", "--graph", str(path), "--pattern", "path:3")
    assert rc == 0 and out == "3\n"
    rc, out, _ = run(capsys, "count", "--graph", str(path), "--pattern", "triangle")
    assert rc == 0 and out == "1\n"


def test_count_reports_an_n_header_without_a_value(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("# n\n0 1 1\n")
    rc, out, err = run(capsys, "count", "--graph", str(path), "--pattern", "triangle")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "'# n'" in err


def test_experiment_writes_report_and_pmf_sidecars(tmp_path, capsys):
    spec_json, _ = bernoulli_spec_json(4, 0.35)
    config = {
        "spec": json.loads(spec_json),
        "pattern": "triangle",
        "variant": "thm31_simple",
        "mode": "exact",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / "report.json"
    rc, stdout, _ = run(
        capsys, "experiment", "--config", str(cfg_path), "--out", str(out_path)
    )
    assert rc == 0 and stdout == ""
    report = json.loads(out_path.read_text())
    assert report["comparison"]["pass"] is True
    for name in ("reference", "observed"):
        side = (tmp_path / f"report_{name}.csv").read_text()
        lines = side.splitlines()
        assert lines[0] == "k,prob"
        rows = [[int(l.split(",")[0]), float(l.split(",")[1])] for l in lines[1:]]
        assert rows == report[name]["pmf"]


def test_commands_share_one_parser_and_repeat_byte_for_byte(tmp_path, capsys):
    assert build_parser() is build_parser()
    spec_json, spec = bernoulli_spec_json(6, 0.3)
    config = {
        "spec": json.loads(spec_json),
        "pattern": "triangle",
        "variant": "thm31_simple",
        "mode": "monte_carlo",
        "reps": 40,
        "seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    names = ("report.json", "report_reference.csv", "report_observed.csv")
    runs = []
    for _ in range(2):
        rc, stdout, _ = run(
            capsys, "experiment", "--config", str(cfg_path),
            "--out", str(tmp_path / "report.json"),
        )
        assert rc == 0 and stdout == ""
        runs.append([(tmp_path / name).read_bytes() for name in names])
        for name in names:
            (tmp_path / name).unlink()
    assert runs[0] == runs[1]
    rc, out, _ = run(capsys, "lambda", "--spec", spec_json, "--pattern", "triangle")
    assert rc == 0
    assert json.loads(out.partition("\n\n")[0])["imax"] == lambda_params(
        spec, TRIANGLE
    ).imax


def test_experiment_without_out_prints_report(capsys):
    spec_json, _ = bernoulli_spec_json(4, 0.35)
    config = json.dumps(
        {
            "spec": json.loads(spec_json),
            "pattern": "triangle",
            "variant": "thm31_simple",
        }
    )
    rc, out, _ = run(capsys, "experiment", "--config", config)
    assert rc == 0
    assert json.loads(out)["observed"]["mode"] == "exact"


def test_table1_lists_sixteen_rows_with_exact_rationals(capsys):
    rc, out, _ = run(capsys, "table1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "family,v,density,alpha,gamma"
    assert len(lines) == 17
    assert "tree_path,3,2/3,1,1/3" in lines
    assert "complete,3,1,2,1" in lines
    # the definition evaluates the near-complete four-vertex pattern at 3/4
    assert "complete_minus_edge,4,5/4,2,3/4" in lines
    families = {line.split(",")[0] for line in lines[1:]}
    assert families == {"tree_path", "cycle", "complete_minus_edge", "complete"}


def test_analyze_refuses_an_oversized_pattern_quickly(capsys):
    # complete:9 has 9! = 362,880 automorphisms, which are never listed
    start = time.perf_counter()
    rc, out, err = run(capsys, "analyze", "complete:9")
    assert time.perf_counter() - start < 0.5
    assert rc == 2 and out == "" and "subgraph enumeration too large" in err


def test_exit_codes(capsys, tmp_path):
    spec_json, _ = bernoulli_spec_json(10, 0.1)
    # 2: precondition failure names the hypothesis
    rc, _, err = run(
        capsys,
        "bound",
        "--spec",
        spec_json,
        "--pattern",
        json.dumps({"vertices": 2, "edges": [[0, 1, 2]]}),
        "--variant",
        "thm31_simple",
    )
    assert rc == 2 and "parallel edges" in err
    # 2: unknown variant
    rc, _, err = run(
        capsys,
        "bound",
        "--spec",
        spec_json,
        "--pattern",
        "triangle",
        "--variant",
        "thm99",
    )
    assert rc == 2 and "unknown bound variant" in err
    # 2: a c override that is not finite and positive
    rc, out, err = run(
        capsys, "bound", "--spec", spec_json, "--pattern", "triangle",
        "--variant", "thm31_simple", "--c-override", "-3",
    )
    assert rc == 2 and out == "" and "c_override must be finite and positive" in err
    # 2: JSON NaN in a class probability or a categorical entry
    good = json.loads(spec_json)
    nan_law = {"type": "categorical", "p": [math.nan, 1.0]}
    for spec_obj, msg in (
        (dict(good, f=[math.nan]), "class probabilities"),
        (dict(good, edge_laws=[[nan_law]]), "probabilities"),
    ):
        for extra in ((), ("--variant", "thm31_simple")):
            cmd = "bound" if extra else "lambda"
            args = ("--spec", json.dumps(spec_obj), "--pattern", "triangle", *extra)
            rc, out, err = run(capsys, cmd, *args)
            assert rc == 2 and out == "" and f"{msg} sum to nan, not 1" in err
    # 2: an experiment's reps or seed that is not a whole number
    config = {
        "spec": good, "pattern": "triangle", "variant": "thm31_simple",
        "mode": "monte_carlo", "reps": 3, "seed": 1,
    }
    for key, value in (("reps", 3.7), ("reps", True), ("seed", 2.5), ("seed", False)):
        rc, out, err = run(capsys, "experiment", "--config", json.dumps({**config, key: value}))
        assert rc == 2 and out == "" and f"{key} must be an integer" in err
    # 2: an experiment's c override that is a bool rather than a number
    rc, out, err = run(
        capsys, "experiment", "--config", json.dumps({**config, "c_override": True})
    )
    assert rc == 2 and out == "" and "c_override must be a number" in err
    # 2: a pattern or spec count with a fractional part, or a bool for a
    # number, is refused rather than truncated or read as 1
    pattern = {"vertices": 3.9, "edges": [[0, 1.5, 1], [1, 2, 1.9], [0, 2, 1]]}
    rc, out, err = run(capsys, "analyze", json.dumps(pattern))
    assert rc == 2 and out == "" and "vertex count must be an integer, got 3.9" in err
    bad_spec = {
        "n": 4.9, "Q": 1, "f": [True], "edge_laws": [[{"type": "poisson", "omega": True}]]
    }
    rc, out, err = run(capsys, "sample", "--seed", "1", "--spec", json.dumps(bad_spec))
    assert rc == 2 and out == "" and "rate must be a number, got True" in err
    bad_spec["edge_laws"] = [[{"type": "poisson", "omega": 1.0}]]
    rc, out, err = run(capsys, "sample", "--seed", "1", "--spec", json.dumps(bad_spec))
    assert rc == 2 and out == "" and "n must be an integer, got 4.9" in err
    # 2: a clump-rate walk past its limit (Geometric(0.99999) truncates at
    # about 2.3 million edges per pair)
    heavy = dict(good, edge_laws=[[{"type": "geometric", "p": 0.99999}]])
    rc, out, err = run(capsys, "lambda", "--spec", json.dumps(heavy), "--pattern", "triangle")
    assert rc == 2 and out == "" and "walks more than 5000000 configurations" in err
    # 1: missing file
    rc, _, err = run(
        capsys, "count", "--graph", str(tmp_path / "nope.txt"), "--pattern", "triangle"
    )
    assert rc == 1 and "error" in err
    # 1: malformed inline JSON
    rc, _, err = run(
        capsys,
        "bound",
        "--spec",
        "{not json",
        "--pattern",
        "triangle",
        "--variant",
        "thm31_simple",
    )
    assert rc == 1 and "invalid JSON" in err
