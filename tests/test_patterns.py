"""Pattern structure: automorphisms, placements, balancedness exponents."""

import itertools
import math
import random
import re
import time
from fractions import Fraction as F

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmotif import (
    BalancednessProfile,
    PatternGraph,
    automorphism_count,
    balancedness_profile,
    kappa,
    load_pattern,
    pattern_from_json,
    pattern_from_name,
    pattern_to_json,
    placements,
    rho,
)
from conftest import random_connected_pattern

TRIANGLE = pattern_from_name("triangle")
DOUBLED_TRIANGLE = PatternGraph(3, {(0, 1): 2, (0, 2): 1, (1, 2): 1})
LOOP_TRIANGLE = PatternGraph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1}, {0: 1})


# -- construction and validation ----------------------------------------------


def test_pattern_derived_quantities():
    p = PatternGraph(4, {(0, 1): 2, (1, 2): 1, (2, 3): 3}, {0: 1, 3: 2})
    assert p.vertex_count == 4
    assert p.edge_total == 6
    assert p.supported_pairs == 3
    assert p.max_multiplicity == 3
    assert p.loop_total == 3
    assert p.multiplicity_histogram() == {1: 1, 2: 1, 3: 1}


def test_pattern_reduction_lowers_multiplicities_to_one():
    r = DOUBLED_TRIANGLE.reduction()
    assert r == TRIANGLE
    assert TRIANGLE.reduction() == TRIANGLE
    with pytest.raises(ValueError, match="reduction undefined for a pattern with no edges"):
        PatternGraph(1, {}, {0: 1}).reduction()


def test_pattern_rejects_bad_inputs():
    with pytest.raises(ValueError):
        PatternGraph(0, {})
    with pytest.raises(ValueError):
        PatternGraph(2, {})  # no edges at all
    with pytest.raises(ValueError):
        PatternGraph(3, {(0, 1): 1})  # vertex 2 is isolated
    with pytest.raises(ValueError):
        PatternGraph(2, {(0, 0): 1})  # loop must go through self_loops
    with pytest.raises(ValueError):
        PatternGraph(2, {(1, 0): 1, (0, 1): 1})  # duplicate pair
    with pytest.raises(ValueError):
        PatternGraph(2, {(0, 1): 0})
    with pytest.raises(ValueError):
        PatternGraph(2, {(0, 2): 1})  # out of range
    for args, message in (
        # a pattern with no edges and no loops has an isolated vertex
        ((1, {}, {}), "isolated vertices not allowed: [0]"),
        ((2, {(0, 1): -1}), "edge multiplicity must be nonnegative"),
        ((2, {(0, 1): 1}, {0: -1}), "self-loop count must be nonnegative"),
        ((2, {(0, 1): 1}, {2: 1}), "self-loop vertex 2 outside range 0..1"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            PatternGraph(*args)
    # counts are integers: a bool or a number with a fractional part is
    # refused rather than truncated; an integral float reads as its integer
    triangle = {(0, 1): 1, (1, 2): 1, (0, 2): 1}
    for args, message in (
        ((3.9, triangle), "vertex count must be an integer, got 3.9"),
        ((True, {}, {0: 1}), "vertex count must be an integer, got True"),
        ((3, {**triangle, (0, 1.5): 1}), "pair ends must be an integer, got 1.5"),
        ((2, {(False, 1): 1}), "pair ends must be an integer, got False"),
        ((3, {**triangle, (1, 2): 1.9}), "edge multiplicity must be an integer, got 1.9"),
        ((2, {(0, 1): True}), "edge multiplicity must be an integer, got True"),
        ((1, {}, {0.5: 1}), "self-loop vertex must be an integer, got 0.5"),
        ((1, {}, {0: 2.5}), "self-loop count must be an integer, got 2.5"),
        ((1, {}, {0: "2"}), "self-loop count must be an integer, got '2'"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            PatternGraph(*args)
    with pytest.raises(ValueError, match="vertex count must be an integer, got 3.9"):
        pattern_from_json({"vertices": 3.9, "edges": [[0, 1.5, 1], [1, 2, 1.9], [0, 2, 1]]})
    assert PatternGraph(3.0, {(1.0, 0): 2.0, (2, 1): 1, (0, 2): 1}) == DOUBLED_TRIANGLE


def test_pattern_normalizes_pair_order_and_hashes():
    a = PatternGraph(3, {(1, 0): 2, (2, 1): 1, (0, 2): 1})
    assert a == DOUBLED_TRIANGLE
    assert hash(a) == hash(DOUBLED_TRIANGLE)
    assert len({a, DOUBLED_TRIANGLE}) == 1


# -- named patterns and serialization ------------------------------------------


def test_pattern_from_name():
    assert pattern_from_name("triangle") == pattern_from_name("cycle:3")
    assert pattern_from_name("cycle:3") == pattern_from_name("complete:3")
    path = pattern_from_name("path:4")
    assert path.edge_mult == {(0, 1): 1, (1, 2): 1, (2, 3): 1}
    k4 = pattern_from_name("complete:4")
    assert k4.edge_total == 6 and k4.max_multiplicity == 1
    multi = pattern_from_name("complete_multi:3:2")
    assert multi.edge_mult == {(0, 1): 2, (0, 2): 2, (1, 2): 2}
    for bad in ("cycle:2", "path:1", "complete:0", "nope", "cycle:x"):
        with pytest.raises(ValueError):
            pattern_from_name(bad)
    with pytest.raises(ValueError, match="complete_multi needs v >= 2 and t >= 1"):
        pattern_from_name("complete_multi:3:0")


def test_pattern_json_round_trip():
    for p in (TRIANGLE, DOUBLED_TRIANGLE, LOOP_TRIANGLE, pattern_from_name("path:5")):
        assert pattern_from_json(pattern_to_json(p)) == p


def test_load_pattern_accepts_names_inline_json_and_files(tmp_path):
    assert load_pattern("cycle:4") == pattern_from_name("cycle:4")
    inline = '{"vertices": 3, "edges": [[0, 1, 2], [0, 2, 1], [1, 2, 1]]}'
    assert load_pattern(inline) == DOUBLED_TRIANGLE
    f = tmp_path / "p.json"
    f.write_text(inline)
    assert load_pattern(str(f)) == DOUBLED_TRIANGLE


@pytest.mark.parametrize(
    "text, reason",
    [
        ("cycle:2", "cycle needs at least 3 vertices"),
        ("complete:x", "invalid literal for int() with base 10: 'x'"),
    ],
)
def test_load_pattern_names_the_shortcut_reason(text, reason):
    with pytest.raises(ValueError) as info:
        load_pattern(text)
    assert str(info.value) == f"cannot interpret pattern argument {text!r} ({reason})"


# -- automorphisms, rho, placements --------------------------------------------


def test_automorphism_counts_frozen():
    assert automorphism_count(TRIANGLE) == 6
    assert automorphism_count(pattern_from_name("path:3")) == 2
    assert automorphism_count(pattern_from_name("cycle:4")) == 8
    assert automorphism_count(pattern_from_name("cycle:5")) == 10
    assert automorphism_count(pattern_from_name("complete:4")) == 24
    assert automorphism_count(DOUBLED_TRIANGLE) == 2
    # the self-loop breaks the vertex-0 symmetry but keeps the 1<->2 swap
    assert automorphism_count(LOOP_TRIANGLE) == 2


def test_rho_frozen_and_divides_factorial():
    assert rho(TRIANGLE) == 1
    assert rho(DOUBLED_TRIANGLE) == 3
    assert rho(pattern_from_name("path:3")) == 3
    assert rho(pattern_from_name("cycle:4")) == 3
    assert rho(pattern_from_name("cycle:5")) == 12


def test_automorphisms_match_networkx_on_simple_patterns():
    # classical oracle: count self-isomorphisms with VF2
    rng = random.Random(7)
    for _ in range(25):
        v = rng.randint(3, 6)
        pat = random_connected_pattern(rng, v, max_mult=1)
        g = nx.Graph(list(pat.edge_mult))
        matcher = nx.isomorphism.GraphMatcher(g, g)
        assert automorphism_count(pat) == sum(1 for _ in matcher.isomorphisms_iter())


def test_placements_are_rho_distinct_requirement_profiles():
    for p in (TRIANGLE, DOUBLED_TRIANGLE, pattern_from_name("cycle:4"), LOOP_TRIANGLE):
        ps = placements(p)
        assert len(ps) == rho(p)
        assert len(set(ps)) == len(ps)


def test_rho_times_automorphisms_is_factorial():
    rng = random.Random(3)
    for _ in range(30):
        pat = random_connected_pattern(rng, rng.randint(2, 6))
        assert rho(pat) * automorphism_count(pat) == math.factorial(pat.vertex_count)


def _random_loop_pattern(rng):
    """A random connected pattern with multiplicities up to 3 and some
    self-loops."""
    v = rng.randint(2, 6)
    pat = random_connected_pattern(rng, v, max_mult=rng.choice((1, 3)))
    loops = {w: rng.randint(1, 2) for w in range(v) if rng.random() < 0.3}
    return PatternGraph(v, pat.edge_mult, loops)


def _images(pattern):
    """Test oracle: the relabelled (edge_mult, self_loops) of every one of
    the v! vertex permutations, in permutation order."""
    out = []
    for perm in itertools.permutations(range(pattern.vertex_count)):
        edges = {
            tuple(sorted((perm[a], perm[b]))): m
            for (a, b), m in pattern.edge_mult.items()
        }
        loops = {perm[w]: c for w, c in pattern.self_loops.items()}
        out.append((edges, loops))
    return out


SYMMETRIC_PATTERNS = [
    pattern_from_name("complete_multi:4:2"),
    PatternGraph(5, {(0, k): 1 for k in range(1, 5)}, {1: 1, 2: 1}),
    PatternGraph(6, {(k, (k + 1) % 6): 1 for k in range(6)}, {0: 2, 2: 2, 4: 2}),
    PatternGraph(6, {(0, 1): 2, (0, 2): 2, (1, 2): 2, (3, 4): 2, (3, 5): 2, (4, 5): 2}),
    PatternGraph(2, {}, {0: 1, 1: 1}),
    LOOP_TRIANGLE,
]


def test_automorphism_count_matches_permutation_oracle():
    rng = random.Random(11)
    for pat in SYMMETRIC_PATTERNS + [_random_loop_pattern(rng) for _ in range(40)]:
        own = (pat.edge_mult, pat.self_loops)
        assert automorphism_count(pat) == sum(1 for img in _images(pat) if img == own)


def test_placements_match_permutation_oracle():
    rng = random.Random(12)
    for pat in SYMMETRIC_PATTERNS + [_random_loop_pattern(rng) for _ in range(40)]:
        v = pat.vertex_count
        slots = list(itertools.combinations(range(v), 2))
        expected = {
            (
                tuple(edges.get(p, 0) for p in slots),
                tuple(loops.get(w, 0) for w in range(v)),
            )
            for edges, loops in _images(pat)
        }
        got = placements(pat)
        assert len(got) == len(expected)
        assert set(got) == expected


def test_automorphism_count_of_a_large_complete_graph_is_quick():
    # the whole group of complete:12 has 12! = 479,001,600 maps; the chain
    # holds 12 orbits
    start = time.perf_counter()
    assert automorphism_count(pattern_from_name("complete:12")) == math.factorial(12)
    assert time.perf_counter() - start < 0.1


# -- balancedness --------------------------------------------------------------


def test_profile_frozen_values():
    prof = balancedness_profile(TRIANGLE)
    assert (prof.density, prof.alpha, prof.gamma) == (F(1), F(2), F(1))
    assert prof.strictly_balanced and prof.strictly_pseudo_balanced

    prof = balancedness_profile(pattern_from_name("path:3"))
    assert (prof.density, prof.alpha, prof.gamma) == (F(2, 3), F(1), F(1, 3))

    prof = balancedness_profile(pattern_from_name("cycle:4"))
    assert (prof.density, prof.alpha, prof.gamma) == (F(1), F(3, 2), F(1))

    prof = balancedness_profile(pattern_from_name("complete:4"))
    assert (prof.density, prof.alpha, prof.gamma) == (F(3, 2), F(5, 2), F(1))

    with pytest.raises(ValueError, match="pattern has no edges: densities are undefined"):
        balancedness_profile(PatternGraph(1, {}, {0: 1}))


def test_profile_complete_minus_edge_on_four_vertices():
    # the minimum for gamma is attained by the triangle: (5/4)*3 - 3 = 3/4
    k4e = PatternGraph(4, {(0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1})
    prof = balancedness_profile(k4e)
    assert prof.density == F(5, 4)
    assert prof.alpha == F(2)
    assert prof.gamma == F(3, 4)
    assert prof.strictly_balanced


def test_profile_multigraph_quantities_use_the_reduction():
    prof = balancedness_profile(DOUBLED_TRIANGLE)
    assert prof.density == F(4, 3)      # 4 edges on 3 vertices
    assert prof.pseudo_density == F(1)  # 3 supported pairs on 3 vertices
    assert prof.alpha_m == F(2)
    assert prof.gamma_m == F(1)
    assert prof.strictly_balanced
    assert prof.strictly_pseudo_balanced


def test_single_edge_pattern_has_no_proper_subgraphs():
    prof = balancedness_profile(pattern_from_name("path:2"))
    assert prof.alpha is None and prof.gamma is None
    assert prof.strictly_balanced  # vacuously


def test_disjoint_union_is_not_strictly_balanced():
    two_triangles = PatternGraph(
        6,
        {(0, 1): 1, (0, 2): 1, (1, 2): 1, (3, 4): 1, (3, 5): 1, (4, 5): 1},
    )
    prof = balancedness_profile(two_triangles)
    assert prof.density == F(1)
    assert prof.gamma == F(0)
    assert not prof.strictly_balanced


def test_strictly_balanced_iff_gamma_positive():
    rng = random.Random(11)
    for _ in range(60):
        pat = random_connected_pattern(rng, rng.randint(2, 6), max_mult=1)
        prof = balancedness_profile(pat)
        assert prof.strictly_balanced == (prof.gamma is None or prof.gamma > 0)
        assert prof.strictly_pseudo_balanced == (prof.gamma_m is None or prof.gamma_m > 0)


def test_multigraph_exponents_equal_reduction_simple_exponents():
    rng = random.Random(13)
    for _ in range(40):
        pat = random_connected_pattern(rng, rng.randint(2, 5), max_mult=3)
        prof = balancedness_profile(pat)
        red = balancedness_profile(pat.reduction())
        assert prof.pseudo_density == red.density
        assert prof.alpha_m == red.alpha
        assert prof.gamma_m == red.gamma
        assert prof.strictly_pseudo_balanced == red.strictly_balanced


def test_profile_invariant_under_relabeling():
    rng = random.Random(17)
    for _ in range(30):
        v = rng.randint(2, 6)
        pat = random_connected_pattern(rng, v, max_mult=3)
        perm = list(range(v))
        rng.shuffle(perm)
        relabeled = PatternGraph(
            v,
            {
                (min(perm[a], perm[b]), max(perm[a], perm[b])): m
                for (a, b), m in pat.edge_mult.items()
            },
        )
        assert balancedness_profile(relabeled) == balancedness_profile(pat)
        assert automorphism_count(relabeled) == automorphism_count(pat)


@pytest.mark.parametrize("max_mult", [1, 3])
def test_alpha_gamma_against_direct_subgraph_scan(max_mult):
    # independent oracle: scan every lowered multiplicity vector; a row with
    # e(H) edges on f(H) pairs feeds alpha/gamma unless it is the pattern
    # itself, and alpha_m/gamma_m unless it keeps every pair
    rng = random.Random(19)
    top = 5 if max_mult == 1 else 4
    pats = [
        random_connected_pattern(rng, rng.randint(3, top), max_mult=max_mult)
        for _ in range(20)
    ]
    # a path of 2^16 candidates, past one numpy slice of the enumerator
    length = 16 if max_mult == 1 else 8
    pats.append(PatternGraph(length + 1, {(i, i + 1): max_mult for i in range(length)}))
    for pat in pats:
        v = pat.vertex_count
        pairs, mults = list(pat.edge_mult), list(pat.edge_mult.values())
        sub, red = set(), set()
        for choice in itertools.product(*(range(m + 1) for m in mults)):
            kept = [p for p, c in zip(pairs, choice) if c]
            if not kept:
                continue
            v_h = len({x for p in kept for x in p})
            if list(choice) != mults:
                sub.add((v_h, sum(choice)))
            if len(kept) < len(pairs):
                red.add((v_h, len(kept)))
        prof = balancedness_profile(pat)
        for stats, total, alpha, gamma, strict in (
            (sub, sum(mults), prof.alpha, prof.gamma, prof.strictly_balanced),
            (red, len(pairs), prof.alpha_m, prof.gamma_m, prof.strictly_pseudo_balanced),
        ):
            dens = F(total, v)
            alphas = [F(total - e_h, v - v_h) for v_h, e_h in stats if v_h < v]
            gammas = [dens * v_h - e_h for v_h, e_h in stats]
            assert alpha == (min(alphas) if alphas else None)
            assert gamma == (min(gammas) if gammas else None)
            assert strict == all(F(e_h, v_h) < dens for v_h, e_h in stats)


def test_wide_perfect_matching_profile():
    # 17 disjoint edges on 34 vertices: j of them span 2j vertices, so every
    # proper subgraph is exactly as dense as the pattern
    k = 17
    pat = PatternGraph(2 * k, {(2 * i, 2 * i + 1): 1 for i in range(k)})
    start = time.perf_counter()
    prof = balancedness_profile(pat)
    assert time.perf_counter() - start < 1.0
    dens = F(k, 2 * k)
    alpha = min(F(k - j, 2 * k - 2 * j) for j in range(1, k))
    gamma = min(dens * 2 * j - j for j in range(1, k))
    assert prof == BalancednessProfile(
        density=dens,
        pseudo_density=dens,
        alpha=alpha,
        gamma=gamma,
        alpha_m=alpha,
        gamma_m=gamma,
        strictly_balanced=False,
        strictly_pseudo_balanced=False,
    )


def test_subgraph_enumeration_refuses_past_its_limit_at_once():
    # complete:8 has 28 pairs, 2^28 candidates: refused before any work
    k8 = pattern_from_name("complete:8")
    start = time.perf_counter()
    with pytest.raises(ValueError, match="subgraph enumeration too large"):
        balancedness_profile(k8)
    assert time.perf_counter() - start < 0.1


# -- kappa ----------------------------------------------------------------------


def test_kappa_frozen_values():
    assert kappa(TRIANGLE, 1) == F(4)
    assert kappa(TRIANGLE, 2) == F(2)
    c4 = pattern_from_name("cycle:4")
    assert kappa(c4, 1) == F(9, 2)
    assert kappa(c4, 2) == F(3)
    assert kappa(c4, 3) == F(2)
    assert kappa(DOUBLED_TRIANGLE, 2) == F(3)


def test_kappa_definition_matches_profile():
    rng = random.Random(23)
    for _ in range(30):
        pat = random_connected_pattern(rng, rng.randint(3, 6), max_mult=3)
        prof = balancedness_profile(pat)
        v, e, fsup = pat.vertex_count, pat.edge_total, pat.supported_pairs
        for i in range(1, v):
            alpha_m = prof.alpha_m if prof.alpha_m is not None else math.inf
            gamma_m = prof.gamma_m if prof.gamma_m is not None else math.inf
            expect = max(e - i * F(fsup, v) + gamma_m, (v - i) * alpha_m)
            assert kappa(pat, i) == expect
        if pat.max_multiplicity == 1:
            for i in range(1, v):
                alpha = prof.alpha if prof.alpha is not None else math.inf
                gamma = prof.gamma if prof.gamma is not None else math.inf
                assert kappa(pat, i) == max(e - i * prof.density + gamma, (v - i) * alpha)


def test_kappa_rejects_bad_arguments():
    with pytest.raises(ValueError):
        kappa(TRIANGLE, 0)
    with pytest.raises(ValueError):
        kappa(TRIANGLE, 3)


# -- hypothesis sweep over the simple-graph atlas -------------------------------


@st.composite
def connected_simple_pattern(draw):
    v = draw(st.integers(min_value=2, max_value=6))
    all_pairs = [(i, j) for i in range(v) for j in range(i + 1, v)]
    # a random spanning tree guarantees no isolated vertices
    perm = draw(st.permutations(range(v)))
    edges = {tuple(sorted((perm[k], perm[k + 1]))) for k in range(v - 1)}
    extra = draw(st.lists(st.sampled_from(all_pairs), max_size=8))
    edges.update(extra)
    return PatternGraph(v, {p: 1 for p in edges})


@settings(max_examples=80, deadline=None)
@given(connected_simple_pattern())
def test_profile_properties_hold_on_random_patterns(pat):
    prof = balancedness_profile(pat)
    assert prof.density == F(pat.edge_total, pat.vertex_count)
    assert prof.pseudo_density == prof.density  # simple pattern
    assert prof.alpha_m == prof.alpha and prof.gamma_m == prof.gamma
    if prof.gamma is not None:
        # a single edge or the pattern-minus-one-edge subgraph always caps gamma at density
        assert prof.gamma <= prof.density
        assert prof.gamma == min(
            prof.density * vh - eh for vh, eh in _subgraph_pairs(pat)
        )


def _subgraph_pairs(pat):
    pairs = list(pat.edge_mult)
    out = []
    for r in range(1, len(pairs) + 1):
        for chosen in itertools.combinations(pairs, r):
            verts = {x for p in chosen for x in p}
            if len(chosen) == len(pairs) and len(verts) == pat.vertex_count:
                continue
            out.append((len(verts), len(chosen)))
    return out
