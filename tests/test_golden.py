"""Golden reports: CLI output bytes must not drift.

Each case runs ``blockmotif experiment --config F --out R`` (the report plus
its two pmf CSV sidecars), ``blockmotif lambda``, ``blockmotif bound`` or
``blockmotif sample`` and compares the bytes with the files under
``tests/golden``.  The cases cover exact and Monte Carlo mode, the
compound-Poisson and Poisson references, self-loops, two classes, the bound
variants and options no experiment report pins, and the edge-list text of
one sampled host.  The golden bytes were written on x86-64 Linux; 17-digit floats may
differ in the last digit on another libm.

To rewrite the golden files after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.  It
prints, for each file it changes, how many numbers moved and the largest
relative and absolute move, and for a Monte Carlo observed pmf the
total-variation distance between the old and new histograms beside
``sqrt(atoms / reps)``.
"""

import json
import math
import os
import re

import pytest

from blockmotif import (
    Categorical,
    Geometric,
    PatternGraph,
    Poisson,
    SbmmSpec,
    pattern_to_json,
    spec_to_json,
)
from blockmotif.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

LOOP_TRIANGLE = PatternGraph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1}, {0: 1})
# the loop sits at an end: the overlap at i = 3 needs phi^(2s - i) = phi^-1
LOOP_PATH = PatternGraph(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1}, {0: 1})


def _bernoulli(p):
    return Categorical([1 - p, p])


def _two_class(n, f, same0, cross, same1, loops=None):
    return SbmmSpec(n, 2, f, ((same0, cross), (cross, same1)), self_loop_laws=loops)


EXPERIMENTS = {
    "exact_triangle": {
        "spec": SbmmSpec(5, 1, (1.0,), ((Categorical([0.6, 0.3, 0.1]),),)),
        "pattern": "triangle",
        "variant": "thm41_multi",
        "mode": "exact",
    },
    "exact_two_class_cycle4": {
        "spec": _two_class(
            6, (0.4, 0.6), _bernoulli(0.5), _bernoulli(0.2), _bernoulli(0.6)
        ),
        "pattern": "cycle:4",
        "variant": "thm31_simple",
        "mode": "exact",
    },
    "exact_loops": {
        "spec": _two_class(
            4,
            (0.3, 0.7),
            Categorical([0.6, 0.0, 0.4]),
            Categorical([0.7, 0.3, 0.0]),
            Categorical([0.5, 0.5, 0.0]),
            loops=(Categorical([0.8, 0.2]), Categorical([1.0, 0.0])),
        ),
        "pattern": LOOP_TRIANGLE,
        "variant": "thm51_selfloop",
        "mode": "exact",
    },
    "mc_two_class_cycle4": {
        "spec": _two_class(10, (0.5, 0.5), Poisson(0.3), Poisson(0.1), Poisson(0.3)),
        "pattern": "cycle:4",
        "variant": "thm31_simple",
        "mode": "monte_carlo",
        "reps": 200,
        "seed": 3,
        "eps": 1e-3,
    },
    # a mean of 27.5 copies: the reference pmf grows past its first 64 terms
    "mc_poisson_reference": {
        "spec": SbmmSpec(12, 1, (1.0,), ((_bernoulli(0.5),),)),
        "pattern": "triangle",
        "variant": "thm52_poisson_approx",
        "mode": "monte_carlo",
        "reps": 300,
        "seed": 5,
    },
    "mc_geometric_loops": {
        "spec": SbmmSpec(
            9, 1, (1.0,), ((Geometric(0.1),),), self_loop_laws=(Geometric(0.1),)
        ),
        "pattern": LOOP_TRIANGLE,
        "variant": "thm51_selfloop",
        "mode": "monte_carlo",
        "reps": 300,
        "seed": 4,
        "eps": 1e-3,
    },
}

LAMBDAS = {
    "lambda_two_class_cycle4": (
        _two_class(12, (0.5, 0.5), Poisson(0.3), Poisson(0.1), Poisson(0.3)),
        "cycle:4",
        1e-3,
    ),
    "lambda_geometric_loops": (
        SbmmSpec(
            9, 1, (1.0,), ((Geometric(0.1),),), self_loop_laws=(Geometric(0.1),)
        ),
        LOOP_TRIANGLE,
        1e-3,
    ),
}


# name -> (spec, pattern, variant, extra CLI arguments)
BOUNDS = {
    # degree weights: c(lambda) falls back to the mean upper bound
    "bound_cor35_degree_weighted": (
        SbmmSpec(
            8, 1, (1.0,), ((Poisson(0.3),),),
            degree_weights=(0.5, 1.0, 1.5, 2.0, 0.7, 1.1, 0.9, 1.3),
        ),
        "triangle",
        "cor35_inhom",
        [],
    ),
    "bound_cor55_poisson_sbm": (
        _two_class(10, (0.4, 0.6), Poisson(0.2), Poisson(0.05), Poisson(0.15)),
        "triangle",
        "cor55_poisson_sbm",
        [],
    ),
    # pair means 0.1 = n^(-1/density) for the triangle at n = 10
    "bound_regime_corpn": (
        _two_class(10, (0.5, 0.5), Poisson(0.1), Poisson(0.08), Poisson(0.12)),
        "triangle",
        "regime_corpn",
        ["--regime-c", "0.5", "--regime-C", "2.0"],
    ),
    "bound_thm52_c_override": (
        SbmmSpec(12, 1, (1.0,), ((_bernoulli(0.3),),)),
        "cycle:4",
        "thm52_poisson_approx",
        ["--c-override", "0.75"],
    ),
    "bound_thm51_negative_loop_exponent": (
        SbmmSpec(
            7, 1, (1.0,), ((Categorical([0.6, 0.3, 0.1]),),),
            self_loop_laws=(Categorical([0.7, 0.3]),),
        ),
        LOOP_PATH,
        "thm51_selfloop",
        ["--c-override", "3.0"],
    ),
}

# name -> (spec, seed): two classes and self-loops, so the text carries a
# ``# classes`` header, pair lines and loop lines
SAMPLES = {
    "sample_two_class_loops": (
        _two_class(
            12,
            (0.4, 0.6),
            Poisson(0.5),
            Categorical([0.6, 0.3, 0.1]),
            Categorical([0.5, 0.2, 0.3]),
            loops=(Poisson(0.4), Categorical([0.6, 0.4])),
        ),
        3,
    ),
}


def _config_json(config):
    out = dict(config, spec=spec_to_json(config["spec"]))
    if isinstance(out["pattern"], PatternGraph):
        out["pattern"] = pattern_to_json(out["pattern"])
    return out


def _experiment_outputs(name, workdir):
    """File name -> text of the report and CSVs ``experiment --out`` writes."""
    config_path = os.path.join(workdir, f"{name}_config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(_config_json(EXPERIMENTS[name]), fh)
    out = os.path.join(workdir, f"{name}.json")
    assert main(["experiment", "--config", config_path, "--out", out]) == 0
    files = {}
    for fname in (f"{name}.json", f"{name}_reference.csv", f"{name}_observed.csv"):
        with open(os.path.join(workdir, fname), "r", encoding="utf-8") as fh:
            files[fname] = fh.read()
    return files


def _lambda_argv(name):
    spec, pattern, eps = LAMBDAS[name]
    if isinstance(pattern, PatternGraph):
        pattern = json.dumps(pattern_to_json(pattern))
    spec = json.dumps(spec_to_json(spec))
    return ["lambda", "--spec", spec, "--pattern", pattern, "--eps", repr(eps)]


def _bound_argv(name):
    spec, pattern, variant, extra = BOUNDS[name]
    if isinstance(pattern, PatternGraph):
        pattern = json.dumps(pattern_to_json(pattern))
    spec = json.dumps(spec_to_json(spec))
    return ["bound", "--spec", spec, "--pattern", pattern, "--variant", variant, *extra]


def _sample_argv(name):
    spec, seed = SAMPLES[name]
    return ["sample", "--spec", json.dumps(spec_to_json(spec)), "--seed", str(seed)]


def _read_golden(fname):
    with open(os.path.join(GOLDEN, fname), "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_report_and_csvs_match_golden_bytes(name, tmp_path):
    for fname, text in _experiment_outputs(name, str(tmp_path)).items():
        assert text == _read_golden(fname), fname


@pytest.mark.parametrize("name", sorted(LAMBDAS))
def test_lambda_output_matches_golden_bytes(name, capsys):
    assert main(_lambda_argv(name)) == 0
    out = capsys.readouterr().out
    assert out == _read_golden(f"{name}.txt")


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_bound_output_matches_golden_bytes(name, capsys):
    assert main(_bound_argv(name)) == 0
    out = capsys.readouterr().out
    assert out == _read_golden(f"{name}.txt")


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_sample_output_matches_golden_bytes(name, capsys):
    assert main(_sample_argv(name)) == 0
    out = capsys.readouterr().out
    assert out == _read_golden(f"{name}.txt")


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _moves(old, new):
    """How the numbers of golden text ``new`` moved from ``old``: a line
    naming the count and the largest relative and absolute move, or what
    else changed."""
    if old is None:
        return "new file"
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return "changed beyond its numbers"
    moved = [
        (float(a), float(b))
        for a, b in zip(_NUMBER.findall(old), _NUMBER.findall(new))
        if a != b
    ]
    largest_abs = max(abs(b - a) for a, b in moved)
    largest_rel = max(abs(b - a) / abs(a) if a else math.inf for a, b in moved)
    return (
        f"{len(moved)} numbers moved, largest relative {largest_rel:.3g}, "
        f"absolute {largest_abs:.3g}"
    )


def _pmf_csv(text):
    return {int(k): float(p) for k, p in (line.split(",") for line in text.split()[1:])}


def _histogram_move(old, new, reps):
    """The total-variation distance between two Monte Carlo observed-pmf
    CSV texts, beside ``sqrt(atoms / reps)``, the scale of its noise."""
    p, q = _pmf_csv(old), _pmf_csv(new)
    atoms = set(p) | set(q)
    tv = 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in atoms)
    return f"tv {tv:.4g} against sqrt(atoms / reps) = {math.sqrt(len(atoms) / reps):.4g}"


def _write(fname, text, reps=None):
    """Rewrite one golden file when ``text`` differs; ``reps`` marks a Monte
    Carlo observed pmf, whose histogram move is printed too."""
    path = os.path.join(GOLDEN, fname)
    old = _read_golden(fname) if os.path.exists(path) else None
    if text != old:
        print(f"{fname}: {_moves(old, text)}")
        if reps is not None and old is not None:
            print(f"{fname}: {_histogram_move(old, text, reps)}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_golden():
    import contextlib
    import io
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(EXPERIMENTS):
            config = EXPERIMENTS[name]
            for fname, text in _experiment_outputs(name, workdir).items():
                observed = config["mode"] == "monte_carlo" and fname.endswith("_observed.csv")
                _write(fname, text, config["reps"] if observed else None)
    stdout_cases = [(name, _lambda_argv(name)) for name in sorted(LAMBDAS)]
    stdout_cases += [(name, _bound_argv(name)) for name in sorted(BOUNDS)]
    stdout_cases += [(name, _sample_argv(name)) for name in sorted(SAMPLES)]
    for name, argv in stdout_cases:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        _write(f"{name}.txt", buf.getvalue())


if __name__ == "__main__":
    _write_golden()
