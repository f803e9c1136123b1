"""Output checks run on every experiment call, outside the timed region.

A call fails when it raised, or when its outputs break any of these rules:

* every call of a run produces byte-identical outputs;
* an exact pmf sums to 1 within ``EXACT_MASS_TOL``;
* a Monte Carlo pmf is a histogram of exactly ``reps`` replicates;
* the reference law keeps its mass: its atoms plus ``truncation_deficit``
  sum to 1 and the deficit is at most ``REFERENCE_DEFICIT_TOL``, so an
  underflowed, all-zero reference fails;
* ``comparison.pass`` is true;
* the seed-independent part of the report (profile, extrema, mean count,
  clump rates, bound, reference atoms below 64 and, in exact mode, the
  observed law)
  matches ``expected.json`` within ``REL_TOL`` / ``ABS_TOL``;
* CSV sidecars, when written, list exactly the report's pmf rows;
* every Monte Carlo replicate, recounted with networkx subgraph
  monomorphisms, gives exactly the report's histogram.

``expected.json`` holds ``seed_independent(report)`` of one report per
workload, taken at the commit that added the benchmark.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter

REL_TOL = 1e-9
ABS_TOL = 1e-15
EXACT_MASS_TOL = 1e-10
REFERENCE_DEFICIT_TOL = 1e-12
# the reference law always covers 0..63 (``kmax`` starts at 64)
REFERENCE_ATOMS = 64
# atom lists [[k, p], ...]: compared as sparse maps, a missing atom being 0
ATOM_FIELDS = ("clump_rates.lambda", "reference.pmf", "observed.pmf")

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def seed_independent(report: dict) -> dict:
    """The part of a report that no seed changes, lambda stored sparsely."""
    keys = ["profile", "extrema", "nu", "clump_rates", "bound", "reference"]
    if report["config"]["mode"] == "exact":
        keys += ["observed", "comparison"]
    out = {"config": {k: v for k, v in report["config"].items() if k != "seed"}}
    out.update({k: report[k] for k in keys})
    # the reference grows past REFERENCE_ATOMS when a Monte Carlo count does,
    # so only its first atoms are seed-independent; the mass check covers the rest
    ref = report["reference"]
    out["reference"] = {
        "kind": ref["kind"],
        "pmf": [[k, p] for k, p in ref["pmf"] if k < REFERENCE_ATOMS],
    }
    lam = report["clump_rates"]["lambda"]
    out["clump_rates"] = dict(
        report["clump_rates"], **{"lambda": [[i + 1, x] for i, x in enumerate(lam) if x]}
    )
    return out


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare(actual, expected, path: str = "") -> list[str]:
    """Mismatches between two JSON values, numbers within the tolerances."""
    if path in ATOM_FIELDS:
        got, want = dict(map(tuple, actual)), dict(map(tuple, expected))
        return [
            f"{path}[{k}]: {got.get(k, 0.0)!r} != {want.get(k, 0.0)!r}"
            for k in sorted(set(got) | set(want))
            if not _close(got.get(k, 0.0), want.get(k, 0.0))
        ]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(actual) != set(expected):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        out = []
        for key in expected:
            out += compare(actual[key], expected[key], f"{path}.{key}" if path else key)
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (a, b) in enumerate(zip(actual, expected)):
            out += compare(a, b, f"{path}[{i}]")
        return out
    numbers = (int, float)
    if (
        isinstance(actual, numbers)
        and isinstance(expected, numbers)
        and not isinstance(actual, bool)
        and not isinstance(expected, bool)
    ):
        return [] if _close(actual, expected) else [f"{path}: {actual!r} != {expected!r}"]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def _csv_rows(text: str) -> list[list]:
    lines = text.splitlines()
    if not lines or lines[0] != "k,prob":
        raise ValueError("missing k,prob header")
    return [[int(k), float(p)] for k, p in (line.split(",") for line in lines[1:])]


def report_reasons(outputs: dict, expected: dict) -> list[str]:
    """Why one call's outputs are wrong; empty when they pass."""
    report = json.loads(outputs["report"])
    reasons = []
    observed = [p for _, p in report["observed"]["pmf"]]
    if report["config"]["mode"] == "exact":
        if abs(math.fsum(observed) - 1.0) > EXACT_MASS_TOL:
            reasons.append(f"exact pmf sums to {math.fsum(observed)!r}")
    else:
        reps = report["config"]["reps"]
        counts = [p * reps for p in observed]
        if any(abs(c - round(c)) > 1e-6 for c in counts) or sum(map(round, counts)) != reps:
            reasons.append(f"Monte Carlo pmf is not a histogram of {reps} replicates")
    ref = report["reference"]
    mass = math.fsum(p for _, p in ref["pmf"])
    deficit = ref["truncation_deficit"]
    if abs(mass + deficit - 1.0) > REFERENCE_DEFICIT_TOL or deficit > REFERENCE_DEFICIT_TOL:
        reasons.append(f"reference mass {mass!r} with deficit {deficit!r}")
    if report["comparison"]["pass"] is not True:
        reasons.append("comparison.pass is not true")
    reasons += compare(seed_independent(report), expected)
    for name in ("reference", "observed"):
        csv = outputs.get(f"{name}.csv")
        if csv is not None and _csv_rows(csv) != report[name]["pmf"]:
            reasons.append(f"{name}.csv does not list the report's pmf rows")
    return reasons


def oracle_count(graph, pattern) -> int:
    """Copies of a loop-free pattern, counted with networkx monomorphisms.

    Sums, over every injective map of the pattern into the support of the
    host, the product of C(observed, multiplicity), and divides by the
    number of pattern automorphisms, also counted by networkx.
    """
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    if pattern.self_loops:
        raise ValueError("the networkx oracle handles loop-free patterns only")
    host = nx.Graph()
    host.add_nodes_from(range(graph.n))
    host.add_edges_from(graph.edge_counts)
    shape = nx.Graph()
    shape.add_nodes_from(range(pattern.vertex_count))
    shape.add_edges_from(pattern.edge_mult)
    total = 0
    for mapping in GraphMatcher(host, shape).subgraph_monomorphisms_iter():
        image = {p: h for h, p in mapping.items()}
        term = 1
        for (a, b), m in pattern.edge_mult.items():
            pair = tuple(sorted((image[a], image[b])))
            term *= math.comb(graph.edge_counts[pair], m)
        total += term
    automorphisms = sum(1 for _ in GraphMatcher(shape, shape).isomorphisms_iter())
    if total % automorphisms:
        raise ValueError("monomorphism total is not divisible by the automorphisms")
    return total // automorphisms


def recount_reasons(report: dict) -> list[str]:
    """Recount every replicate of a Monte Carlo report with the oracle.

    Replicate r samples its graph from the substream keyed (seed, r), as
    ``monte_carlo_pmf`` documents.  The histogram of the recounted values
    must equal the report's histogram atom for atom.
    """
    from blockmotif import pattern_from_json, sample_graph, spec_from_json
    from blockmotif._rng import substream_key

    config = report["config"]
    spec = spec_from_json(config["spec"])
    pattern = pattern_from_json(config["pattern"])
    reps = config["reps"]
    hist = {k: round(p * reps) for k, p in report["observed"]["pmf"]}
    recounted = Counter(
        oracle_count(sample_graph(spec, substream_key(config["seed"], r)), pattern)
        for r in range(reps)
    )
    return [
        f"{recounted.get(w, 0)} replicates have {w} copies, the histogram holds {hist.get(w, 0)}"
        for w in sorted(set(recounted) | set(hist))
        if recounted.get(w, 0) != hist.get(w, 0)
    ]


def recount_failures(outputs: list) -> list[str]:
    """``recount_reasons`` of the first call's report, when it is a Monte
    Carlo report; the other calls' outputs equal it or fail."""
    first = next((o for o in outputs if o is not None), None)
    if first is None:
        return []
    report = json.loads(first["report"])
    return recount_reasons(report) if report["config"]["mode"] == "monte_carlo" else []


def call_failures(workload: str, outputs: list, errors: list, shared: list = ()) -> list[list[str]]:
    """Per call, the reasons it failed (empty list when it passed).

    ``outputs[i]`` is call i's output dict, or None when ``errors[i]`` says
    why the call raised.  ``shared`` (e.g. ``recount_failures(outputs)``)
    holds reasons that apply to every call with outputs.
    """
    expected = load_expected()[workload]
    first = next((o for o in outputs if o is not None), None)
    reasons = []
    for out, err in zip(outputs, errors):
        if out is None:
            reasons.append([f"raised {err}"])
            continue
        mine = [] if out == first else ["outputs differ from the run's first call"]
        try:
            mine += report_reasons(out, expected)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            mine.append(f"malformed outputs: {type(exc).__name__}: {exc}")
        reasons.append(mine + list(shared))
    return reasons
