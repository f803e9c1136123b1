"""Exact enumeration and Monte Carlo validation of pattern-count laws,
the total-variation metric, and the experiment runner's report."""

import math
import random
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmotif import approximation, counting, experiments
from blockmotif import (
    Categorical,
    Geometric,
    InfeasibleError,
    ObservedMultigraph,
    PatternGraph,
    Poisson,
    PreconditionError,
    SbmmSpec,
    count_copies_bruteforce,
    dumps_stable,
    exact_count_pmf,
    expected_count,
    lambda_params,
    model_extrema,
    monte_carlo_pmf,
    parse_experiment_config,
    pattern_from_name,
    pattern_to_json,
    run_experiment,
    sample_graph,
    spec_to_json,
    tv_bound,
    tv_distance,
)
from blockmotif._rng import replicate_keys, substream_key
from blockmotif.model import _sampler

TRIANGLE = PatternGraph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
LOOP_TRIANGLE = PatternGraph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1}, {0: 1})
DOUBLED_EDGE_TRIANGLE = PatternGraph(3, {(0, 1): 2, (0, 2): 1, (1, 2): 1})
HEAVY_TRIANGLE = PatternGraph(3, {(0, 1): 3, (0, 2): 3, (1, 2): 3})


def bernoulli(p):
    return Categorical([1 - p, p])


def one_class_spec(n, law, loop_law=None):
    loops = None if loop_law is None else (loop_law,)
    return SbmmSpec(n, 1, (1.0,), ((law,),), self_loop_laws=loops)


# -- exact enumeration ---------------------------------------------------------


def test_exact_triangle_pmf_on_three_vertices():
    p = 0.3
    pmf = exact_count_pmf(one_class_spec(3, bernoulli(p)), TRIANGLE)
    assert set(pmf) == {0, 1}
    assert pmf[1] == pytest.approx(p**3, rel=1e-12)
    assert pmf[0] == pytest.approx(1 - p**3, rel=1e-12)


def _triangle_pmf_oracle(n, p):
    """Enumerate all edge subsets of the complete graph directly."""
    pairs = list(combinations(range(n), 2))
    triples = list(combinations(range(n), 3))
    pmf = {}
    for mask in range(2 ** len(pairs)):
        present = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
        w = sum(
            1
            for a, b, c in triples
            if (a, b) in present and (a, c) in present and (b, c) in present
        )
        prob = p ** len(present) * (1 - p) ** (len(pairs) - len(present))
        pmf[w] = pmf.get(w, 0.0) + prob
    return pmf


def test_exact_triangle_pmf_matches_subset_enumeration_oracle():
    p = 0.35
    got = exact_count_pmf(one_class_spec(4, bernoulli(p)), TRIANGLE)
    oracle = _triangle_pmf_oracle(4, p)
    assert set(got) == {k for k, prob in oracle.items() if prob > 0}
    for k, prob in got.items():
        assert prob == pytest.approx(oracle[k], abs=1e-14)
    # three triangles on four vertices are impossible
    assert 3 not in got
    mean = sum(k * prob for k, prob in got.items())
    assert mean == pytest.approx(4 * p**3, rel=1e-12)
    assert mean == pytest.approx(expected_count(one_class_spec(4, bernoulli(p)), TRIANGLE))


def test_exact_pmf_of_doubled_pairs_lives_on_multiples_of_eight():
    # pair counts 0 or 2: every triangle-supporting triple carries 2^3 copies
    doubled = one_class_spec(4, Categorical([0.9, 0.0, 0.1]))
    base = exact_count_pmf(one_class_spec(4, bernoulli(0.1)), TRIANGLE)
    got = exact_count_pmf(doubled, TRIANGLE)
    assert set(got) == {8 * k for k in base}
    for k, prob in base.items():
        assert got[8 * k] == pytest.approx(prob, abs=1e-14)


def test_exact_pmf_with_self_loops():
    p, q = 0.4, 0.25
    spec = one_class_spec(3, bernoulli(p), loop_law=bernoulli(q))
    pmf = exact_count_pmf(spec, LOOP_TRIANGLE)
    # copies = (all three pairs present) * (number of looped vertices)
    for j in (1, 2, 3):
        expect = p**3 * math.comb(3, j) * q**j * (1 - q) ** (3 - j)
        assert pmf[j] == pytest.approx(expect, rel=1e-12)
    assert pmf[0] == pytest.approx(1 - p**3 * (1 - (1 - q) ** 3), rel=1e-12)


def test_exact_pmf_two_class_mean_identity():
    f = (0.25, 0.75)
    laws = (
        (bernoulli(0.5), bernoulli(0.2)),
        (bernoulli(0.2), bernoulli(0.35)),
    )
    spec = SbmmSpec(4, 2, f, laws)
    pmf = exact_count_pmf(spec, TRIANGLE)
    assert math.fsum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
    mean = sum(k * prob for k, prob in pmf.items())
    assert mean == pytest.approx(expected_count(spec, TRIANGLE), rel=1e-10)


def test_exact_pmf_loop_pattern_without_loop_laws_is_trivial():
    pmf = exact_count_pmf(one_class_spec(4, bernoulli(0.3)), LOOP_TRIANGLE)
    assert pmf == {0: 1.0}


def test_exact_pmf_preconditions():
    with pytest.raises(PreconditionError, match="categorical"):
        exact_count_pmf(one_class_spec(4, Poisson(0.3)), TRIANGLE)
    with pytest.raises(PreconditionError, match="categorical self-loop"):
        exact_count_pmf(
            one_class_spec(3, bernoulli(0.3), loop_law=Poisson(0.1)), LOOP_TRIANGLE
        )
    dc = SbmmSpec(4, 1, (1.0,), ((Poisson(0.3),),), degree_weights=(1.0,) * 4)
    with pytest.raises(PreconditionError, match="degree weights"):
        exact_count_pmf(dc, TRIANGLE)
    with pytest.raises(PreconditionError, match="vertices"):
        exact_count_pmf(one_class_spec(2, bernoulli(0.3)), TRIANGLE)
    # Monte Carlo refuses the same input before it samples anything
    with pytest.raises(PreconditionError, match="3 vertices but the model only 2"):
        monte_carlo_pmf(one_class_spec(2, bernoulli(0.3)), TRIANGLE, 10, 0)


def test_exact_pmf_size_guard(monkeypatch):
    with pytest.raises(InfeasibleError):
        exact_count_pmf(one_class_spec(12, bernoulli(0.3)), TRIANGLE)
    # the guard counts the walk: 5 class multisets of 4 vertices, each over
    # 2^6 pair configurations, 320 in all (the labelled bound Q^n * 2^6 would
    # be 1024)
    spec = SbmmSpec(
        4, 2, (0.3, 0.7),
        ((bernoulli(0.4), bernoulli(0.1)), (bernoulli(0.1), bernoulli(0.6))),
    )
    monkeypatch.setattr(experiments, "EXACT_ENUMERATION_LIMIT", 319)
    with pytest.raises(InfeasibleError, match="walks 320 configurations"):
        exact_count_pmf(spec, TRIANGLE)
    monkeypatch.setattr(experiments, "EXACT_ENUMERATION_LIMIT", 320)
    got = exact_count_pmf(spec, TRIANGLE)
    want = _labelled_host_oracle(spec, TRIANGLE)
    assert set(got) == set(want)
    for w, prob in want.items():
        assert got[w] == pytest.approx(prob, abs=1e-14)


def _labelled_host_oracle(spec, pattern):
    """Exact law of W over every class assignment and labelled host.

    Walks ``product(range(Q), repeat=n)`` and every pair (and, for looped
    patterns, loop) count, and scores each host with the brute-force counter.
    """
    n = spec.n
    pairs = list(combinations(range(n), 2))
    copies = {}
    masses = {}
    for assign in product(range(spec.Q), repeat=n):
        weight = math.prod(float(spec.f[c]) for c in assign)
        tables = [spec.edge_laws[assign[i]][assign[j]].probabilities for i, j in pairs]
        if pattern.self_loops:
            tables += [spec.self_loop_laws[c].probabilities for c in assign]
        for config in product(*(range(len(t)) for t in tables)):
            prob = weight * math.prod(float(t[k]) for t, k in zip(tables, config))
            if prob == 0.0:
                continue
            if config not in copies:
                edges = dict(zip(pairs, config))
                loops = dict(enumerate(config[len(pairs) :]))
                host = ObservedMultigraph(n, edges, loops)
                copies[config] = count_copies_bruteforce(host, pattern)
            masses.setdefault(copies[config], []).append(prob)
    return {w: math.fsum(probs) for w, probs in masses.items()}


@pytest.mark.parametrize("pattern", [LOOP_TRIANGLE, DOUBLED_EDGE_TRIANGLE])
def test_exact_pmf_matches_labelled_host_oracle_on_two_classes(pattern):
    # zero entries in every law put zero-probability hosts in the grid, some
    # with counts no positive-probability host reaches; none may leave an
    # atom behind
    same0 = Categorical([0.6, 0.0, 0.4])
    cross = Categorical([0.7, 0.3, 0.0])
    same1 = Categorical([0.5, 0.5, 0.0])
    loops = (Categorical([0.8, 0.2]), Categorical([1.0, 0.0]))
    laws = ((same0, cross), (cross, same1))
    spec = SbmmSpec(4, 2, (0.3, 0.7), laws, self_loop_laws=loops)
    got = exact_count_pmf(spec, pattern)
    want = _labelled_host_oracle(spec, pattern)
    assert set(got) == set(want)
    for w, prob in want.items():
        assert got[w] == pytest.approx(prob, abs=1e-14)


# -- Monte Carlo ---------------------------------------------------------------


def test_monte_carlo_is_deterministic_and_seed_sensitive():
    spec = one_class_spec(4, bernoulli(0.35))
    pmf1, hist1 = monte_carlo_pmf(spec, TRIANGLE, 800, 77)
    pmf2, hist2 = monte_carlo_pmf(spec, TRIANGLE, 800, 77)
    assert pmf1 == pmf2 and hist1 == hist2
    assert sum(hist1.values()) == 800
    assert math.fsum(pmf1.values()) == pytest.approx(1.0, abs=1e-12)
    pmf3, _ = monte_carlo_pmf(spec, TRIANGLE, 800, 78)
    assert pmf1 != pmf3


def test_monte_carlo_agrees_with_exact_law():
    spec = one_class_spec(4, bernoulli(0.35))
    exact = exact_count_pmf(spec, TRIANGLE)
    reps = 4000
    emp, _ = monte_carlo_pmf(spec, TRIANGLE, reps, 77)
    for k in set(exact) | set(emp):
        pk = exact.get(k, 0.0)
        sigma = math.sqrt(pk * (1 - pk) / reps)
        assert abs(emp.get(k, 0.0) - pk) <= 4 * sigma + 1e-12, (k, pk, emp.get(k))


def test_monte_carlo_rejects_nonpositive_reps():
    spec = one_class_spec(4, bernoulli(0.35))
    with pytest.raises(ValueError):
        monte_carlo_pmf(spec, TRIANGLE, 0, 1)


MC_ORACLE_CASES = {
    "categorical": (
        SbmmSpec(
            8, 2, (0.4, 0.6),
            ((Categorical([0.5, 0.3, 0.2]), bernoulli(0.4)),
             (bernoulli(0.4), Categorical([0.4, 0.6]))),
        ),
        TRIANGLE,
    ),
    "poisson": (
        SbmmSpec(
            9, 2, (0.5, 0.5),
            ((Poisson(0.9), Poisson(0.3)), (Poisson(0.3), Poisson(0.6))),
        ),
        pattern_from_name("cycle:4"),
    ),
    "geometric": (one_class_spec(7, Geometric(0.45)), DOUBLED_EDGE_TRIANGLE),
    "degree_weighted": (
        SbmmSpec(
            8, 1, (1.0,), ((Poisson(0.6),),),
            degree_weights=(0.5, 1.0, 1.5, 2.0, 0.7, 1.1, 0.9, 1.3),
        ),
        TRIANGLE,
    ),
    "self_loops": (
        one_class_spec(7, bernoulli(0.5), Categorical([0.5, 0.3, 0.2])),
        LOOP_TRIANGLE,
    ),
    # second component roots: a root that strays into another replicate's
    # vertices changes these counts
    "disjoint_edges": (
        one_class_spec(8, Categorical([0.7, 0.2, 0.1])),
        PatternGraph(4, {(0, 1): 1, (2, 3): 1}),
    ),
    # the hosts carry self-loops the pattern never reads: the counter
    # leaves their counts out of its value table
    "unread_self_loops": (
        one_class_spec(7, bernoulli(0.5), Categorical([0.3] + [0.0] * 98 + [0.7])),
        TRIANGLE,
    ),
    "edge_and_loop_vertex": (
        one_class_spec(7, bernoulli(0.3), Categorical([0.6, 0.3, 0.1])),
        PatternGraph(3, {(0, 1): 1}, {2: 1}),
    ),
    # a pair carries 0 or 200 edges: C(200, 3)**3 per placement is past int64
    "past_int64": (
        one_class_spec(5, Categorical([0.3] + [0.0] * 199 + [0.7])),
        HEAVY_TRIANGLE,
    ),
}


def _record_passes(monkeypatch) -> list[int]:
    """The hosts of each ``_count_block`` pass the Monte Carlo makes from
    now on, in order."""
    passes = []
    count_block = experiments._count_block

    def counted(plan, loops, *pairs):
        passes.append(len(loops))
        return count_block(plan, loops, *pairs)

    monkeypatch.setattr(experiments, "_count_block", counted)
    return passes


@pytest.mark.parametrize("case", sorted(MC_ORACLE_CASES))
def test_monte_carlo_matches_per_replicate_bruteforce_oracle(monkeypatch, case):
    # replicate r is the graph sample_graph(spec, substream_key(seed, r)),
    # recounted here by brute force.  Blocks of 1, 3 (the last one partial)
    # and all replicates, each counted block by block, in batches of about
    # a third of the call's counter entries (several blocks, the last batch
    # partial) and all at once, must give the same histogram
    spec, pattern = MC_ORACLE_CASES[case]
    reps, seed = 40, 5
    graphs = [sample_graph(spec, substream_key(seed, r)) for r in range(reps)]
    want = Counter(count_copies_bruteforce(g, pattern) for g in graphs)
    assert len(want) > 1
    cells = spec.n * (spec.n - 1) // 2 + spec.n
    entries = sum(2 * len(g.edge_counts) + spec.n for g in graphs)
    hosts = _record_passes(monkeypatch)
    for block, budget in product((1, 3, reps), (1, entries // 3, entries)):
        monkeypatch.setattr(experiments, "_BLOCK_CELLS", block * cells)
        monkeypatch.setattr(experiments, "_COUNT_ENTRIES", budget)
        hosts.clear()
        _, hist = monte_carlo_pmf(spec, pattern, reps, seed)
        assert hist == dict(sorted(want.items())), (block, budget)
        assert sum(hosts) == reps
        if budget == 1:
            assert len(hosts) == -(-reps // block)
        elif budget == entries:
            assert hosts == [reps]
        elif block < reps:
            assert 1 < len(hosts) <= 3 and max(hosts) > block


def test_block_counts_stay_exact_past_int64():
    # every replicate of one block, counted together, equals its own
    # brute-force count, and the counts are Python integers past int64
    spec, pattern = MC_ORACLE_CASES["past_int64"]
    reps, seed = 12, 3
    _, (rows, a, b, y), loops = _sampler(spec)(replicate_keys(seed, np.arange(reps)))
    totals = counting._count_block(counting._search_plan(pattern), loops, rows, a, b, y)
    got = totals.tolist()
    want = [
        count_copies_bruteforce(sample_graph(spec, substream_key(seed, r)), pattern)
        for r in range(reps)
    ]
    assert got == want
    assert max(want) >= 2**63
    assert all(type(w) is int for w in got)


@pytest.mark.parametrize(
    "case", ["categorical", "degree_weighted", "geometric", "self_loops"]
)
def test_block_sampler_returns_sorted_nonzero_triples(case):
    # the counter reads a block's pair counts as (row, a, b, y): sorted
    # by (row, a, b), one per nonzero pair a < b, rebuilding each
    # replicate's graph
    spec, _ = MC_ORACLE_CASES[case]
    reps, seed, n = 12, 4, spec.n
    keys = replicate_keys(seed, np.arange(reps))
    classes, (rows, a, b, y), loops = _sampler(spec)(keys)
    assert (y > 0).all()
    assert ((0 <= a) & (a < b) & (b < n)).all()
    assert (np.diff((rows * n + a) * n + b) > 0).all()
    for r in range(reps):
        graph = sample_graph(spec, substream_key(seed, r))
        at = rows == r
        edges = dict(zip(zip(a[at].tolist(), b[at].tolist()), y[at].tolist()))
        assert edges == graph.edge_counts
        assert tuple(classes[r].tolist()) == graph.classes
        assert {w: s for w, s in enumerate(loops[r].tolist()) if s} == graph.self_loop_counts


@pytest.mark.parametrize("case", ["categorical", "degree_weighted", "self_loops"])
def test_sampler_draws_keep_their_outputs_across_later_draws(case):
    # one sampler hashes every draw's pair keys into one buffer, grown for
    # a larger draw: no output may share it, and a smaller draw after a
    # larger one must read only its own rows.  Every draw, checked after
    # all of them, must equal a draw by a sampler of its own
    spec, _ = MC_ORACLE_CASES[case]
    draw = _sampler(spec)
    spans = ((0, 5), (10, 12), (30, 2), (0, 5))
    blocks = [replicate_keys(7, np.arange(s, s + k)) for s, k in spans]
    outputs = [draw(keys) for keys in blocks]
    for keys, (classes, pairs, loops) in zip(blocks, outputs):
        want_classes, want_pairs, want_loops = _sampler(spec)(keys)
        assert np.array_equal(classes, want_classes)
        assert all(map(np.array_equal, pairs, want_pairs))
        assert np.array_equal(loops, want_loops)
    assert len(outputs[1][1][0]) > 0


@pytest.mark.parametrize("case", ["poisson", "disjoint_edges"])
def test_monte_carlo_does_not_depend_on_frontier_chunk(monkeypatch, case):
    spec, pattern = MC_ORACLE_CASES[case]
    want = monte_carlo_pmf(spec, pattern, 40, 5)
    for chunk in (1, 7):
        monkeypatch.setattr(counting, "_FRONTIER_CHUNK", chunk)
        assert monte_carlo_pmf(spec, pattern, 40, 5) == want, chunk


# -- total-variation distance --------------------------------------------------


def test_tv_distance_basic_values():
    assert tv_distance({0: 1.0}, {0: 1.0}) == 0.0
    assert tv_distance({0: 0.5, 1: 0.5}, {0: 1.0}) == pytest.approx(0.5)
    assert tv_distance({0: 1.0}, {1: 1.0}) == pytest.approx(1.0)
    assert tv_distance({0: 0.25, 2: 0.75}, {0: 0.75, 2: 0.25}) == pytest.approx(0.5)


def test_tv_distance_counts_mass_deficits():
    # p is missing 0.4 of its mass: that sits on atoms q cannot match
    assert tv_distance({0: 0.6}, {0: 1.0}) == pytest.approx(0.4)
    assert tv_distance({0: 0.6}, {0: 0.6}) == 0.0
    assert tv_distance({}, {0: 1.0}) == pytest.approx(1.0)


def test_tv_distance_rejects_negative_mass():
    with pytest.raises(ValueError, match="negative mass in q"):
        tv_distance({0: 1.0}, {0: -0.1})
    with pytest.raises(ValueError, match="negative mass in p"):
        tv_distance({3: -1e-9}, {0: 1.0})


small_pmfs = st.dictionaries(
    st.integers(0, 5),
    st.floats(0.0, 1.0, allow_nan=False),
    max_size=4,
).map(
    lambda d: (
        {k: v / s for k, v in d.items()} if (s := sum(d.values())) > 1 else d
    )
)


@settings(max_examples=200, deadline=None)
@given(small_pmfs, small_pmfs, small_pmfs)
def test_tv_distance_is_a_metric(p, q, r):
    assert tv_distance(p, q) >= 0
    assert tv_distance(p, q) == pytest.approx(tv_distance(q, p), abs=1e-12)
    assert tv_distance(p, p) == 0.0
    assert tv_distance(p, q) <= tv_distance(p, r) + tv_distance(r, q) + 1e-12
    assert tv_distance(p, q) <= 1.0 + 1e-12


# -- experiment config ---------------------------------------------------------


def test_parse_config_defaults_and_routes():
    spec = one_class_spec(4, bernoulli(0.35))
    cfg = parse_experiment_config(
        {"spec": spec, "pattern": "triangle", "variant": "thm31_simple"}
    )
    assert cfg["mode"] == "exact"
    assert cfg["eps"] == 1e-10
    assert cfg["pattern"] == TRIANGLE
    assert cfg["spec"] is spec
    # spec and pattern also arrive as JSON payloads
    cfg2 = parse_experiment_config(
        {
            "spec": spec_to_json(spec),
            "pattern": pattern_to_json(TRIANGLE),
            "variant": "thm31_simple",
        }
    )
    assert cfg2["pattern"] == TRIANGLE
    assert cfg2["spec"].n == 4 and cfg2["spec"].Q == 1


def test_parse_config_rejects_bad_modes_and_missing_reps():
    spec = one_class_spec(4, bernoulli(0.35))
    with pytest.raises(ValueError, match="unknown mode"):
        parse_experiment_config(
            {"spec": spec, "pattern": "triangle", "variant": "x", "mode": "approx"}
        )
    with pytest.raises(ValueError, match="reps"):
        parse_experiment_config(
            {"spec": spec, "pattern": "triangle", "variant": "x", "mode": "monte_carlo"}
        )


# -- the experiment runner -----------------------------------------------------


def test_exact_experiment_report_shape_and_comparison():
    spec = one_class_spec(4, bernoulli(0.35))
    report = run_experiment(
        {"spec": spec, "pattern": TRIANGLE, "variant": "thm31_simple", "mode": "exact"}
    )
    assert sorted(report) == [
        "bound",
        "clump_rates",
        "comparison",
        "config",
        "extrema",
        "nu",
        "observed",
        "profile",
        "reference",
    ]
    assert report["config"]["reps"] is None and report["config"]["seed"] is None
    assert report["profile"]["strictly_balanced"] is True
    assert report["profile"]["density"] == "1"
    assert report["nu"] == pytest.approx(4 * 0.35**3, rel=1e-12)
    assert report["reference"]["kind"] == "compound_poisson"
    assert report["reference"]["truncation_deficit"] <= 1e-12
    assert report["bound"]["variant"] == "thm31_simple"
    assert report["bound"]["value"] == report["comparison"]["bound_value"]
    assert report["comparison"]["mc_allowance"] == 0.0
    # exact observation: measured distance must clear the bound on its own
    assert report["comparison"]["tv_distance"] <= report["comparison"]["bound_value"]
    assert report["comparison"]["pass"] is True
    obs = dict((k, p) for k, p in report["observed"]["pmf"])
    exact = exact_count_pmf(spec, TRIANGLE)
    assert obs == pytest.approx(exact)


def test_support_gcd_reveals_clump_granularity():
    doubled = one_class_spec(4, Categorical([0.9, 0.0, 0.1]))
    report = run_experiment(
        {"spec": doubled, "pattern": TRIANGLE, "variant": "thm41_multi", "mode": "exact"}
    )
    assert report["observed"]["support_gcd"] == 8
    assert report["clump_rates"]["imax"] == 8


def test_poisson_variants_use_poisson_reference():
    spec = one_class_spec(4, bernoulli(0.35))
    report = run_experiment(
        {
            "spec": spec,
            "pattern": TRIANGLE,
            "variant": "thm52_poisson_approx",
            "mode": "monte_carlo",
            "reps": 500,
            "seed": 5,
        }
    )
    assert report["reference"]["kind"] == "poisson"
    assert report["config"]["reps"] == 500 and report["config"]["seed"] == 5
    obs_keys = {k for k, _ in report["observed"]["pmf"]}
    ref_keys = {k for k, _ in report["reference"]["pmf"]}
    atoms = len(obs_keys | ref_keys)
    expect = math.sqrt(atoms / (4 * 500)) + report["reference"]["truncation_deficit"]
    assert report["comparison"]["mc_allowance"] == pytest.approx(expect, rel=1e-12)


def test_reference_support_covers_observation():
    spec = one_class_spec(5, bernoulli(0.5))
    report = run_experiment(
        {"spec": spec, "pattern": TRIANGLE, "variant": "thm31_simple", "mode": "exact"}
    )
    max_obs = max(k for k, _ in report["observed"]["pmf"])
    assert report["reference"]["kmax"] >= max_obs


def test_experiment_reports_are_byte_stable():
    spec = one_class_spec(4, bernoulli(0.35))
    config = {
        "spec": spec,
        "pattern": TRIANGLE,
        "variant": "thm52_poisson_approx",
        "mode": "monte_carlo",
        "reps": 300,
        "seed": 9,
    }
    assert dumps_stable(run_experiment(config)) == dumps_stable(run_experiment(config))


def test_poisson_reference_survives_infeasible_clump_rates():
    # the Poisson reference needs only nu: clump rates too large to
    # enumerate are reported as null instead of failing the experiment
    same, cross = Poisson(0.5), Poisson(0.2)
    spec = SbmmSpec(12, 2, (0.5, 0.5), ((same, cross), (cross, same)))
    cycle4 = pattern_from_name("cycle:4")
    with pytest.raises(InfeasibleError):
        lambda_params(spec, cycle4)
    config = {
        "spec": spec,
        "pattern": cycle4,
        "variant": "thm52_poisson_approx",
        "mode": "monte_carlo",
        "reps": 50,
        "seed": 1,
    }
    report = run_experiment(config)
    assert report["clump_rates"] is None
    assert report["reference"]["kind"] == "poisson"
    assert report["nu"] == pytest.approx(expected_count(spec, cycle4), rel=1e-12)
    with pytest.raises(InfeasibleError):
        run_experiment(dict(config, variant="thm31_simple"))


@pytest.mark.parametrize(
    "variant, kind, total",
    [
        ("thm31_simple", "compound poisson", "2084.55"),
        ("thm52_poisson_approx", "poisson", "4277.5"),
    ],
)
def test_reference_law_refuses_a_total_rate_past_float64(
    variant, kind, total, monkeypatch
):
    # exp(-total) is 0.0, so the recursion gives only zeros: the reference
    # must refuse at once rather than grow kmax to its cap over zeros and let
    # the Monte Carlo allowance absorb a truncation deficit of 1, and before
    # any work goes into the observed law
    def unwanted(*args, **kwargs):
        raise AssertionError("observed law computed for a refused reference")

    monkeypatch.setattr(experiments, "exact_count_pmf", unwanted)
    monkeypatch.setattr(experiments, "monte_carlo_pmf", unwanted)
    spec = SbmmSpec(60, 1, (1.0,), ((Poisson(0.5),),))
    config = {
        "spec": spec,
        "pattern": TRIANGLE,
        "variant": variant,
        "mode": "monte_carlo",
        "reps": 20,
        "seed": 1,
    }
    start = time.perf_counter()
    message = f"{kind} reference law has total rate {total}: its P(0) underflows"
    with pytest.raises(InfeasibleError, match=re.escape(message)):
        run_experiment(config)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "variant, pattern, message",
    [
        ("thm99", "cycle:4", "unknown bound variant"),
        ("thm31_simple", "doubled_cycle4", "parallel edges"),
    ],
)
def test_bound_hypotheses_fail_before_clump_rates_are_enumerated(
    variant, pattern, message
):
    # the clump rates of both patterns are too large to enumerate here; the
    # unknown variant and the failed hypothesis must be reported instead
    # (InfeasibleError is a ValueError too, so the message tells them apart)
    same, cross = Poisson(0.5), Poisson(0.2)
    spec = SbmmSpec(12, 2, (0.5, 0.5), ((same, cross), (cross, same)))
    pattern = {
        "cycle:4": pattern_from_name("cycle:4"),
        "doubled_cycle4": PatternGraph(4, {(0, 1): 2, (1, 2): 1, (2, 3): 1, (0, 3): 1}),
    }[pattern]
    with pytest.raises(InfeasibleError):
        lambda_params(spec, pattern)
    config = {
        "spec": spec,
        "pattern": pattern,
        "variant": variant,
        "mode": "monte_carlo",
        "reps": 5,
    }
    with pytest.raises(ValueError, match=message) as raised:
        run_experiment(config)
    assert not isinstance(raised.value, InfeasibleError)


@pytest.mark.parametrize("variant", ["thm31_simple", "thm52_poisson_approx"])
def test_experiment_enumerates_clump_rates_once(monkeypatch, variant):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return lambda_params(*args, **kwargs)

    monkeypatch.setattr(approximation, "lambda_params", counted)
    monkeypatch.setattr(experiments, "lambda_params", counted)
    config = {
        "spec": one_class_spec(8, bernoulli(0.3)),
        "pattern": TRIANGLE,
        "variant": variant,
        "mode": "monte_carlo",
        "reps": 5,
    }
    report = run_experiment(config)
    assert len(calls) == 1
    want = lambda_params(config["spec"], TRIANGLE)
    assert report["clump_rates"]["lambda"] == [float(x) for x in want.lam]


@pytest.mark.parametrize("variant", ["thm31_simple", "thm52_poisson_approx"])
def test_experiment_computes_model_extrema_once(monkeypatch, variant):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return model_extrema(*args, **kwargs)

    for module in (approximation, experiments):
        monkeypatch.setattr(module, "model_extrema", counted, raising=False)
    spec = one_class_spec(8, bernoulli(0.3))
    config = {
        "spec": spec,
        "pattern": TRIANGLE,
        "variant": variant,
        "mode": "monte_carlo",
        "reps": 5,
    }
    report = run_experiment(config)
    assert len(calls) == 1
    assert report["extrema"] == experiments._extrema_json(model_extrema(spec, TRIANGLE))
    # degree weights: c(lambda) falls back to the mean upper bound, which
    # reads the same extrema
    weighted = SbmmSpec(
        8, 1, (1.0,), ((Poisson(0.3),),), degree_weights=(1.0, 1.2) * 4
    )
    bound = tv_bound(weighted, TRIANGLE, "cor35_inhom")
    assert len(calls) == 2
    assert bound.extrema == model_extrema(weighted, TRIANGLE)


def _clump_cycle4():
    same, cross = Poisson(0.15), Poisson(0.05)
    spec = SbmmSpec(20, 2, (0.5, 0.5), ((same, cross), (cross, same)))
    return lambda_params(spec, pattern_from_name("cycle:4"), 1e-8)


def _exact_enum():
    spec = one_class_spec(5, Categorical([0.6, 0.3, 0.1]))
    return exact_count_pmf(spec, TRIANGLE)


def _mc_triangle_spec():
    n = 60
    same, cross = Poisson(3 / n), Poisson(1 / n)
    return SbmmSpec(n, 2, (0.5, 0.5), ((same, cross), (cross, same)))


def _mc_triangle():
    return monte_carlo_pmf(_mc_triangle_spec(), TRIANGLE, 5000, 1)


def _mc_dense_cycle4():
    spec = one_class_spec(30, Categorical([0.5, 0.5]))
    return monte_carlo_pmf(spec, pattern_from_name("cycle:4"), 20, 1)


@pytest.mark.parametrize(
    "enumeration", [_clump_cycle4, _exact_enum, _mc_triangle, _mc_dense_cycle4]
)
def test_enumeration_memory_stays_bounded(enumeration):
    # both grids hold 59,049 or more configurations; the enumerator walks
    # them in fixed chunks and caches nothing per configuration.  The Monte
    # Carlo sampler walks its 5000 replicates in blocks: their pair counts
    # alone, as one (5000, 1770) int64 array, would take 70 MB.  On the 20
    # dense hosts the copy counter meets about 1.9 million candidate partial
    # maps, so it grows them in chunks
    tracemalloc.start()
    try:
        enumeration()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_one_monte_carlo_block_works_in_little_memory():
    # one block of the sparse n = 60 triangle experiment, 17 replicates and
    # 30,090 pair cells: the sampler, prepared beforehand, hashes the pair
    # keys in place with one scratch array, and the counter works on the
    # block's edges, so the block peaks near two arrays of its pair keys
    # (about 0.51 MB; hashing with temporaries took 0.79 MB, and blocks of
    # 25 replicates take 0.75 MB)
    spec = _mc_triangle_spec()
    n = spec.n
    block = experiments._BLOCK_CELLS // (n * (n - 1) // 2 + n)
    assert block == 17
    draw, plan = _sampler(spec), counting._search_plan(TRIANGLE)
    keys = replicate_keys(1, np.arange(block))
    tracemalloc.start()
    try:
        _, pairs, loops = draw(keys)
        counting._count_block(plan, loops, *pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs[0]) > 0
    assert peak < 700_000, peak


def test_monte_carlo_counts_sparse_hosts_in_few_batches(monkeypatch):
    # the sparse n = 60 triangle experiment samples 59 blocks of 17
    # replicates, about 1,000 edges each; the counter takes them about
    # three blocks at a time (20 passes), not one pass per block
    passes = _record_passes(monkeypatch)
    _, hist = monte_carlo_pmf(_mc_triangle_spec(), TRIANGLE, 1000, 1)
    assert sum(passes) == sum(hist.values()) == 1000
    assert len(passes) <= 21, passes


def test_monte_carlo_call_works_in_little_memory():
    # a whole 1,000-replicate call holds one sampled block and one counter
    # batch of about 8,192 entries at a time: about 1.44 MB traced, against
    # 0.61 MB when every block is counted alone and 2.76 MB in batches of
    # 16,384 entries.  A short call first fills the pattern's caches
    spec = _mc_triangle_spec()
    monte_carlo_pmf(spec, TRIANGLE, 20, 1)
    tracemalloc.start()
    try:
        monte_carlo_pmf(spec, TRIANGLE, 1000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
