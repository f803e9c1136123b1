"""Copy counting: frozen hand computations, brute-force and networkx
oracles, clump sizes, and counts past 64-bit arithmetic."""

import math
import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations, islice, permutations, product

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmotif import (
    Categorical,
    ObservedMultigraph,
    PatternGraph,
    Poisson,
    SbmmSpec,
    automorphism_count,
    clump_size,
    count_copies,
    count_copies_bruteforce,
    pattern_from_name,
    rho,
    sample_graph,
)
from blockmotif import counting
from blockmotif.counting import _count_law
from blockmotif.experiments import exact_count_pmf
from conftest import random_connected_pattern, random_multigraph

TRIANGLE = PatternGraph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
PATH3 = PatternGraph(3, {(0, 1): 1, (1, 2): 1})
DOUBLED_EDGE_TRIANGLE = PatternGraph(3, {(0, 1): 2, (0, 2): 1, (1, 2): 1})
LOOP_TRIANGLE = PatternGraph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1}, {0: 1})

K3_ALL_ONE = ObservedMultigraph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
K3_ALL_TWO = ObservedMultigraph(3, {(0, 1): 2, (0, 2): 2, (1, 2): 2})


def test_path_in_triangle_graph():
    # one vertex subset, rho(path) = 3 placements, every edge product is 1
    assert rho(PATH3) == 3
    assert count_copies(K3_ALL_ONE, PATH3) == 3
    assert count_copies_bruteforce(K3_ALL_ONE, PATH3) == 3


def test_triangle_copies_choose_one_of_each_parallel_pair():
    # each image pair holds 2 parallel edges: 2 * 2 * 2 selections
    assert count_copies(K3_ALL_TWO, TRIANGLE) == 8
    assert count_copies_bruteforce(K3_ALL_TWO, TRIANGLE) == 8


def test_doubled_edge_triangle_copies():
    # 3 placements (which image pair is doubled), each C(2,2)*C(2,1)^2 = 4
    assert rho(DOUBLED_EDGE_TRIANGLE) == 3
    assert count_copies(K3_ALL_TWO, DOUBLED_EDGE_TRIANGLE) == 12
    assert count_copies_bruteforce(K3_ALL_TWO, DOUBLED_EDGE_TRIANGLE) == 12


def test_loop_triangle_copies_pick_loops_too():
    g = ObservedMultigraph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1}, {0: 2})
    # 3 placements (which image vertex carries the loop); only vertex 0 has
    # loops, contributing C(2,1) = 2
    assert automorphism_count(LOOP_TRIANGLE) == 2
    assert count_copies(g, LOOP_TRIANGLE) == 2
    assert count_copies_bruteforce(g, LOOP_TRIANGLE) == 2


def test_complete_pattern_in_complete_graph():
    n = 5
    g = ObservedMultigraph(n, {(i, j): 1 for i, j in combinations(range(n), 2)})
    k4 = pattern_from_name("complete:4")
    assert count_copies(g, k4) == math.comb(5, 4)
    assert count_copies(g, TRIANGLE) == math.comb(5, 3)
    assert count_copies(g, pattern_from_name("cycle:5")) == math.factorial(4) // 2


def test_single_and_doubled_edge_counts_are_binomial_sums():
    g = ObservedMultigraph(4, {(0, 1): 3, (1, 2): 1, (2, 3): 5})
    edge = PatternGraph(2, {(0, 1): 1})
    doubled = PatternGraph(2, {(0, 1): 2})
    assert count_copies(g, edge) == 3 + 1 + 5
    assert count_copies(g, doubled) == math.comb(3, 2) + math.comb(5, 2)


def test_missing_edges_zero_out_placements():
    g = ObservedMultigraph(4, {(0, 1): 1, (1, 2): 1})
    assert count_copies(g, TRIANGLE) == 0
    assert count_copies(g, PATH3) == 1


def test_pattern_larger_than_graph_is_rejected():
    with pytest.raises(ValueError):
        count_copies(K3_ALL_ONE, pattern_from_name("cycle:4"))


def test_bruteforce_guards_graph_size():
    g = ObservedMultigraph(10, {(0, 1): 1})
    with pytest.raises(ValueError):
        count_copies_bruteforce(g, PATH3)


def test_bigint_fallback_matches_closed_form():
    # C(200,3)^3 per placement is past int64: the count must stay exact
    g = ObservedMultigraph(5, {(i, j): 200 for i, j in combinations(range(5), 2)})
    heavy = PatternGraph(3, {(0, 1): 3, (0, 2): 3, (1, 2): 3})
    expect = math.comb(5, 3) * math.comb(200, 3) ** 3
    assert expect >= 2**62  # beyond what 64-bit arithmetic holds
    got = count_copies(g, heavy)
    assert got == expect
    assert got == count_copies_bruteforce(g, heavy)


# the int64 edge and the counts past it up to uint64's edge
BIG_COUNTS = {"2^63-1": 2**63 - 1, "2^63": 2**63, "2^63+1": 2**63 + 1, "2^64-1": 2**64 - 1}


@pytest.mark.parametrize(
    "edges, loops",
    [pytest.param({(0, 1): 2**64, (1, 2): 5}, {1: 2**70, 2: 3}, id="pair_2^64_loop_2^70")]
    + [pytest.param({(0, 1): v, (1, 2): 3}, {}, id=f"pair_{k}") for k, v in BIG_COUNTS.items()]
    + [pytest.param({(0, 1): 2, (1, 2): 3}, {1: v}, id=f"loop_{k}") for k, v in BIG_COUNTS.items()],
)
def test_host_counts_past_int64_stay_exact(edges, loops):
    # counts that fit int64 are stored as int64, others as Python integers:
    # never as uint64, which numpy would mix with int64 into float64
    g = ObservedMultigraph(3, edges, loops)
    for counts, stored in ((edges, g.y), (loops, g.loops)):
        assert stored.dtype == (np.int64 if max(counts.values(), default=0) < 2**63 else object)
    loop_path = PatternGraph(3, {(0, 1): 2, (1, 2): 1}, {1: 1})
    for pattern in (loop_path, pattern_from_name("complete:2"), PATH3):
        assert count_copies(g, pattern) == count_copies_bruteforce(g, pattern)
    assert count_copies(g, pattern_from_name("complete:2")) == sum(edges.values())
    assert count_copies(g, PATH3) == math.prod(edges.values())
    if loops:
        # vertex 1's loops times at least the 9 ways to place the two pairs
        assert count_copies(g, loop_path) >= 9 * loops[1] > 2**62


def test_ten_leaf_star_count_is_quick_and_matches_closed_form():
    # the star's automorphism group has 10! = 3,628,800 maps; one map per
    # orbit takes the leaves in increasing order, so a copy is a centre and
    # 10 of its neighbours
    rng = random.Random(5)
    n = 30
    edges = {p: 1 for p in combinations(range(n), 2) if rng.random() < 0.4}
    degree = Counter(x for p in edges for x in p)
    star = PatternGraph(11, {(0, k): 1 for k in range(1, 11)})
    start = time.perf_counter()
    got = count_copies(ObservedMultigraph(n, edges), star)
    assert time.perf_counter() - start < 1.0
    assert got == sum(math.comb(d, 10) for d in degree.values()) > 0


@pytest.mark.parametrize("required", [3, 50])
def test_count_law_keeps_large_counts_exact(required):
    # one slot with values 0..99 and a term needing ``required`` of them:
    # C(99, 3) is about 1.6e5; C(99, 50) is about 5e28, past int64, so those
    # counts must stay Python integers
    law = _count_law([[0.01] * 100], [[(0, required)]], 2.0)
    want = {math.comb(k, required): 0.02 for k in range(required, 100)}
    want[0] = 0.02 * required
    assert max(want) > 2**15
    assert law.keys() == want.keys()
    assert all(type(c) is int for c in law)
    for c, mass in want.items():
        assert law[c] == pytest.approx(mass, rel=1e-12)
    # a second slot that is always 0 makes every count 0, but the first
    # slot's factor still reaches C(99, required) before that 0 multiplies it
    law = _count_law([[0.01] * 100, [1.0]], [[(0, required), (1, 1)]], 2.0)
    assert law.keys() == {0}
    assert law[0] == pytest.approx(2.0, rel=1e-12)


def _count_law_oracle(tables, terms, weight, chunk):
    # the grid in itertools.product order (slot 0 most significant), masses
    # summed row by row within each chunk of ``chunk`` rows and the chunk
    # sums added in chunk order: the sums the scorer must reproduce bit for bit
    law = {}
    configs = product(*(range(len(t)) for t in tables))
    while rows := list(islice(configs, chunk)):
        sums = {}
        for config in rows:
            p = float(weight)
            for t, k in zip(tables, config):
                p *= t[k]
            if p == 0.0:
                continue
            c = sum(
                math.prod(math.comb(config[s], r) for s, r in term) for term in terms
            )
            sums[c] = sums.get(c, 0.0) + p
        for c, m in sums.items():
            law[c] = law.get(c, 0.0) + m
    return law


def _random_grid(rng):
    # 0 to 5 slots of 1 to 6 values, a quarter of the entries 0.0, and 0 to 4
    # terms, each taking a random subset of the slots
    tables = [
        [0.0 if rng.random() < 0.25 else rng.random() for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(0, 5))
    ]
    terms = [
        [(s, rng.randint(1, 3)) for s in range(len(tables)) if rng.random() < 0.5]
        for _ in range(rng.randint(0, 4))
    ]
    return tables, terms, rng.choice([1.0, 0.375, 6.0, 1e-300])


def test_count_law_scores_a_small_int64_grid_without_np_unique(monkeypatch):
    # largest count 3 * 1 * 2 = 6: the dense np.bincount histogram takes the
    # whole grid, so np.unique, the fallback for large or object counts, must
    # never run
    tables = [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5]]
    terms = [[(0, 1), (1, 2), (2, 1)]]
    want = _count_law_oracle(tables, terms, 1.5, counting._CHUNK_ROWS)

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called on a dense int64 grid")

    monkeypatch.setattr(counting.np, "unique", refuse)
    assert _count_law(tables, terms, 1.5) == want


@pytest.mark.parametrize("chunk", [1, 7, 37, counting._CHUNK_ROWS])
def test_count_law_matches_row_by_row_oracle_bit_for_bit(chunk, monkeypatch):
    monkeypatch.setattr(counting, "_CHUNK_ROWS", chunk)
    rng = random.Random(chunk)
    cases = [_random_grid(rng) for _ in range(40)]
    # largest reachable counts C(29, 2)**2 = 164836 and C(39, 20)**2, past
    # int64: counts grouped through np.unique, the second as Python integers
    big = [[rng.random() for _ in range(30)], [rng.random() for _ in range(30)]]
    huge = [[rng.random() for _ in range(40)], [0.0] + [1.0] * 39]
    cases += [
        (big, [[(0, 2), (1, 2)], [(1, 1)]], 1.0),
        (huge, [[(0, 20), (1, 20)]], 0.5),
    ]
    worst = [
        sum(math.prod(math.comb(len(t[s]) - 1, r) for s, r in term) for term in terms)
        for t, terms, _ in cases
    ]
    assert min(worst) < chunk <= max(worst) and max(worst) >= 2**63
    for tables, terms, weight in cases:
        law = _count_law(tables, terms, weight)
        assert law == _count_law_oracle(tables, terms, weight, chunk)
        assert all(type(c) is int and m > 0.0 for c, m in law.items())


def _terms_reaching(target):
    # terms on slot 0 (values 0..56) and slot 1 (values 0 and 1) whose
    # counts at the top value, C(56, r) and 1, sum to ``target``: the
    # largest count of the grid.  Every binomial factor is at most
    # C(56, 28), about 7.6e15, below 2**53
    terms = []
    for r in range(28, 0, -1):
        q, target = divmod(target, math.comb(56, r))
        terms += [[(0, r)]] * q
    return terms + [[(1, 1)]] * target


@pytest.mark.parametrize("chunk", [7, counting._CHUNK_ROWS])
@pytest.mark.parametrize("worst", [2**53 - 1, 2**53, 2**53 + 1])
def test_count_law_stays_exact_around_2_53(worst, chunk, monkeypatch):
    # counts about the last integers float64 holds exactly: every count
    # equals the row-by-row oracle's, the largest one included (2**53 + 1
    # has no float64).  Chunks of 7 rows split the grid into leading and
    # trailing slots
    monkeypatch.setattr(counting, "_CHUNK_ROWS", chunk)
    rng = random.Random(worst)
    tables = [[rng.random() for _ in range(57)], [0.25, 0.75]]
    terms = _terms_reaching(worst)
    law = _count_law(tables, terms, 1.0)
    assert law == _count_law_oracle(tables, terms, 1.0, chunk)
    assert max(law) == worst
    assert all(type(c) is int for c in law)


@pytest.mark.parametrize("chunk", [7, counting._CHUNK_ROWS])
def test_count_law_drops_terms_always_0_and_slots_certain_to_be_0(chunk, monkeypatch):
    # the first term needs 30 of slot 0's at most 60 edges, C(60, 30) being
    # about 1.2e17, past 2**53, but 2 of slot 1's at most 1: it is 0 on
    # the whole grid.  Slots 3 and 5 are 0 with probability 1.0 and leave
    # the walk; slot 4 has one value of probability 0.3 and keeps its
    # place in each mass's product.  The masses equal the oracle's bit for
    # bit
    monkeypatch.setattr(counting, "_CHUNK_ROWS", chunk)
    rng = random.Random(chunk)
    tables = [
        [rng.random() for _ in range(61)],
        [0.4, 0.6],
        [rng.random() for _ in range(4)],
        [1.0],
        [0.3],
        [1.0],
        [rng.random() for _ in range(3)],
    ]
    terms = [
        [(0, 30), (1, 2)],
        [(0, 1), (2, 1)],
        [(2, 2), (3, 1)],
        [(4, 1)],
        [(6, 1), (2, 1)],
    ]
    assert math.comb(60, 30) >= 2**53
    law = _count_law(tables, terms, 0.375)
    assert law == _count_law_oracle(tables, terms, 0.375, chunk)
    assert len(law) > 1


def test_exact_law_of_hosts_certain_to_be_edgeless_takes_no_digits(monkeypatch):
    # n = 180, two twin classes whose pairs are 0 with probability 1.0: the
    # grid's 16,110 pair slots all leave the walk, so no slot takes a digit
    digits = []
    take = counting._digits

    def counted(index, radices):
        digits.append(len(radices))
        return take(index, radices)

    monkeypatch.setattr(counting, "_digits", counted)
    never = Categorical([1.0])
    spec = SbmmSpec(180, 2, (0.5, 0.5), ((never, never), (never, never)))
    assert exact_count_pmf(spec, pattern_from_name("complete:2")) == {0: 1.0}
    assert digits and sum(digits) == 0


def test_clump_size_frozen_values():
    assert clump_size((2, 2, 2), TRIANGLE) == 8
    assert clump_size((2, 2, 2), DOUBLED_EDGE_TRIANGLE) == 12
    assert clump_size((1, 1, 0), TRIANGLE) == 0
    assert clump_size((1, 1, 1), TRIANGLE) == 1
    # slot pairs (0,1),(0,2),(1,2) then loop slots 0,1,2
    assert clump_size((1, 1, 1, 2, 0, 0), LOOP_TRIANGLE) == 2


def test_clump_size_rejects_bad_lengths():
    with pytest.raises(ValueError):
        clump_size((1, 1), TRIANGLE)
    with pytest.raises(ValueError):
        clump_size((1, 1, 1, 1), TRIANGLE)


def test_count_is_sum_of_clump_sizes_over_subsets():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(4, 6)
        g = random_multigraph(rng, n)
        pattern = random_connected_pattern(rng, rng.randint(2, 4))
        if rng.random() < 0.5:
            pattern = PatternGraph(
                pattern.vertex_count, pattern.edge_mult, {0: rng.randint(1, 2)}
            )
        total = 0
        for subset in combinations(range(n), pattern.vertex_count):
            config = [
                g.edge_counts.get((subset[a], subset[b]), 0)
                for a, b in combinations(range(pattern.vertex_count), 2)
            ]
            config += [g.self_loop_counts.get(w, 0) for w in subset]
            total += clump_size(config, pattern)
        assert total == count_copies(g, pattern)


def test_fast_count_matches_bruteforce_on_random_instances():
    rng = random.Random(20260816)
    checked = 0
    while checked < 60:
        n = rng.randint(4, 7)
        v = rng.randint(2, min(n, 5))
        g = random_multigraph(rng, n, max_mult=3, density=rng.uniform(0.3, 0.9))
        pattern = random_connected_pattern(rng, v, max_mult=2)
        if rng.random() < 0.4:
            loops = {
                w: rng.randint(1, 2)
                for w in range(v)
                if rng.random() < 0.5
            }
            pattern = PatternGraph(v, pattern.edge_mult, loops)
        assert count_copies(g, pattern) == count_copies_bruteforce(g, pattern), (
            g.edge_counts,
            g.self_loop_counts,
            pattern,
        )
        checked += 1
    # disconnected and loop-only patterns: each further component is rooted
    # over every host vertex, a loop-only vertex over the looped ones
    fixed = [
        PatternGraph(4, {(0, 1): 1, (2, 3): 1}),
        PatternGraph(3, {(0, 1): 2}, {2: 1}),
        PatternGraph(1, {}, {0: 2}),
        PatternGraph(3, {(0, 1): 1, (1, 2): 1}, {0: 1, 2: 2}),
        PatternGraph(5, {(0, 1): 1, (0, 2): 1, (1, 2): 1, (3, 4): 2}),
    ]
    for _ in range(8):
        n = rng.randint(5, 7)
        g = random_multigraph(rng, n, max_mult=3, density=rng.uniform(0.3, 0.9))
        for pattern in fixed:
            assert count_copies(g, pattern) == count_copies_bruteforce(g, pattern), (
                g.edge_counts,
                g.self_loop_counts,
                pattern,
            )
    # seeded steps, each root placed with its first neighbour as one host
    # edge: a root and neighbour that both carry loops, a star whose looped
    # centre is the root, and two triangles whose second root is seeded too
    seeded = [
        PatternGraph(3, {(0, 1): 2, (1, 2): 1}, {0: 1, 1: 2}),
        PatternGraph(4, {(0, 1): 1, (0, 2): 1, (0, 3): 1}, {0: 1}),
        PatternGraph(6, {**TRIANGLE.edge_mult, (3, 4): 1, (3, 5): 1, (4, 5): 1}),
    ]
    looped_pair, looped_star, two_triangles = map(counting._search_plan, seeded)
    assert looped_pair[0][1] and looped_pair[1][1] and looped_pair[1][0] == [(0, 2)]
    assert looped_star[0][1] and looped_star[1][0] == [(0, 1)]
    assert two_triangles[3][0] == [] and two_triangles[4][0] == [(3, 1)]
    for _ in range(8):
        n = rng.randint(6, 7)
        g = random_multigraph(rng, n, max_mult=3, density=rng.uniform(0.3, 0.9))
        for pattern in seeded:
            assert count_copies(g, pattern) == count_copies_bruteforce(g, pattern), (
                g.edge_counts,
                g.self_loop_counts,
                pattern,
            )


# name: (pattern, seeded roots, forward-seeded roots, {step: sibling})
SEEDING_PATHS = {
    "triangle": (TRIANGLE, [0], [0], {2: 1}),
    "cycle4": (pattern_from_name("cycle:4"), [0], [0], {2: 1}),
    "complete4": (pattern_from_name("complete:4"), [0], [0], {2: 1, 3: 2}),
    "complete_multi3x2": (pattern_from_name("complete_multi:3:2"), [0], [0], {2: 1}),
    # the looped pair and star of the random instances above: their
    # neighbours have no bound, so every directed entry seeds them
    "looped_pair": (
        PatternGraph(3, {(0, 1): 2, (1, 2): 1}, {0: 1, 1: 2}), [0], [], {}
    ),
    "looped_star": (
        PatternGraph(4, {(0, 1): 1, (0, 2): 1, (0, 3): 1}, {0: 1}), [0], [], {2: 1, 3: 2}
    ),
    "path3": (PATH3, [0], [], {2: 1}),
    # the second root is bounded by the first triangle's
    "two_triangles": (
        PatternGraph(6, {**TRIANGLE.edge_mult, (3, 4): 1, (3, 5): 1, (4, 5): 1}),
        [0, 3], [0, 3], {2: 1, 5: 4},
    ),
    # a looped vertex without neighbours tries every host vertex first
    "looped_vertex_and_triangle": (
        PatternGraph(4, TRIANGLE.edge_mult, {3: 1}), [1], [1], {3: 2}
    ),
}


@pytest.mark.parametrize("name", SEEDING_PATHS)
def test_plans_take_the_forward_seed_and_the_sibling_starts(name):
    # a plan that silently fell back to trying every directed entry, or to
    # searching each range's start, would still count right: pin the paths
    pattern, seeded, forward, sibling = SEEDING_PATHS[name]
    plan = counting._search_plan(pattern)
    assert [i for i, s in enumerate(plan.seeded) if s] == seeded
    assert [i for i, f in enumerate(plan.forward) if f] == forward
    assert {i: s for i, s in enumerate(plan.sibling) if s is not None} == sibling


# the plans whose steps each read pairs from their lower vertex only
FORWARD_ONLY = {
    "triangle", "complete4", "complete_multi3x2", "two_triangles",
    "looped_vertex_and_triangle", "complete:5",
}


@pytest.mark.parametrize("name", [*SEEDING_PATHS, "complete:5", "cycle:5", "path:4"])
def test_plans_read_the_forward_adjacency_when_their_bounds_allow(name):
    # a forward-only plan counts on the hosts' sorted pairs alone; a plan
    # that took them wrongly would miss every copy reached through a
    # reverse entry, one that missed them would only sort for nothing
    pattern = SEEDING_PATHS[name][0] if name in SEEDING_PATHS else pattern_from_name(name)
    assert counting._search_plan(pattern).forward_only == (name in FORWARD_ONLY)


def _as_block(graphs):
    # the hosts' own arrays stacked as one block's: pair a < b of host r as
    # the forward entry key x * size + z of its block vertices x = r * n + a
    # and z = r * n + b, increasing
    loops = np.stack([g.loops for g in graphs])
    size = loops.size
    rows = np.repeat(np.arange(len(graphs)), [len(g.y) for g in graphs])
    a, b, y = (np.concatenate([getattr(g, x) for g in graphs]) for x in "aby")
    n = loops.shape[1]
    keys = (rows * n + a) * size + rows * n + b
    assert (np.diff(keys) > 0).all()
    return loops, keys, y


@pytest.mark.parametrize("name", SEEDING_PATHS)
def test_block_counts_match_each_hosts_bruteforce_count(name):
    # blocks of 1 to 9 hosts, some edgeless; every third block puts counts
    # past 2**40 on its first host, so its sums leave int64 for Python
    # integers
    pattern = SEEDING_PATHS[name][0]
    plan = counting._search_plan(pattern)
    rng = random.Random(name)
    found = 0
    for trial in range(30):
        huge = trial % 3 == 2
        hosts, n = rng.randint(1, 9), rng.randint(2 if huge else 1, 8)
        graphs = [
            ObservedMultigraph(n, {})
            if rng.random() < 0.25
            else random_multigraph(rng, n, max_mult=3, density=rng.uniform(0.3, 0.9))
            for _ in range(hosts)
        ]
        if huge:
            g = graphs[0]
            edges = {(0, 1): 1, **g.edge_counts}
            graphs[0] = ObservedMultigraph(
                n,
                {p: c + 2**40 for p, c in edges.items()},
                {w: c + 2**40 for w, c in g.self_loop_counts.items()},
            )
        got = counting._count_block(plan, *_as_block(graphs))
        assert got.dtype == (object if huge else np.int64)
        want = [count_copies_bruteforce(g, pattern) for g in graphs]
        assert got.tolist() == want, (trial, [g.edge_counts for g in graphs])
        found += sum(map(bool, want))
    assert found > 10


def _nx_monomorphism_count(graph, pattern):
    host = nx.Graph()
    host.add_nodes_from(range(graph.n))
    host.add_edges_from(graph.edge_counts)
    motif = nx.Graph()
    motif.add_nodes_from(range(pattern.vertex_count))
    motif.add_edges_from(pattern.edge_mult)
    matcher = nx.algorithms.isomorphism.GraphMatcher(host, motif)
    return sum(1 for _ in matcher.subgraph_monomorphisms_iter())


def test_simple_pattern_counts_match_networkx_monomorphisms():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(4, 7)
        v = rng.randint(2, 4)
        g = random_multigraph(rng, n, max_mult=1, density=rng.uniform(0.3, 0.8))
        g = ObservedMultigraph(n, g.edge_counts)  # drop loops: simple host
        pattern = random_connected_pattern(rng, v, max_mult=1)
        mono = _nx_monomorphism_count(g, pattern)
        aut = automorphism_count(pattern)
        assert mono % aut == 0
        assert count_copies(g, pattern) == mono // aut


def _sparse_host(n=200, edges=300):
    # about ``edges`` edges on n vertices, with a few planted triangles
    host = nx.gnm_random_graph(n, edges, seed=5)
    for a in range(0, 15, 3):
        host.add_edges_from([(a, a + 1), (a + 1, a + 2), (a, a + 2)])
    return host, ObservedMultigraph(n, {tuple(sorted(e)): 1 for e in host.edges})


def test_sparse_host_triangles_match_networkx_in_little_memory():
    # the work and memory follow the edges, not the C(200, 3) = 1.3M vertex
    # triples
    host, g = _sparse_host()
    tracemalloc.start()
    try:
        got = count_copies(g, TRIANGLE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == sum(nx.triangles(host).values()) // 3
    assert got > 0
    assert peak < 4 * 2**20, peak


def test_million_vertex_host_counts_its_edges_in_little_memory():
    # 200 planted triangles on 10**6 vertices, with loops beside them: the
    # loop vector is scattered from the looped vertices and the counter's
    # first step tries the 1,200 adjacency entries, so the few arrays over
    # all vertices (about 8 MB each) dominate
    n = 10**6
    edges, loops = {}, {}
    for t in range(200):
        a = 5000 * t
        edges.update({(a, a + 1): 1, (a, a + 2): 1, (a + 1, a + 2): 1})
        loops[a + 3] = 1
    g = ObservedMultigraph(n, edges, loops)
    tracemalloc.start()
    try:
        got = count_copies(g, TRIANGLE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 200
    assert peak < 32 * 2**20, peak


def test_clique_count_holds_one_direction_of_the_host():
    # a sampled host of about 2 * 10^5 edges: the triangle's plan reads each
    # pair from its lower vertex, so the counter holds one adjacency entry
    # per pair.  Measured: 41 bytes per edge above the held host, 128 with
    # both directions sorted
    n = 2 * 10**5
    same, cross = Poisson(3 / n), Poisson(1 / n)
    g = sample_graph(SbmmSpec(n, 2, (0.5, 0.5), ((same, cross), (cross, same))), 7)
    tracemalloc.start()
    try:
        got = count_copies(g, TRIANGLE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.y) > 0.9 * n and got >= 0
    assert peak < 100 * len(g.y), peak


def test_count_does_not_depend_on_frontier_chunk(monkeypatch):
    # chunks of 1 and 7 split the seeded first step's one range of host
    # edges, and every later range, across many chunks; the host gains
    # loops so that the seeded root and neighbour read them
    _, g = _sparse_host()
    g = ObservedMultigraph(g.n, g.edge_counts, {w: 1 + w % 3 for w in range(0, 200, 3)})
    patterns = (
        TRIANGLE,
        PATH3,
        LOOP_TRIANGLE,
        PatternGraph(3, {(0, 1): 1, (1, 2): 1}, {0: 1, 1: 1}),
        PatternGraph(6, {**TRIANGLE.edge_mult, (3, 4): 1, (3, 5): 1, (4, 5): 1}),
    )
    want = [count_copies(g, p) for p in patterns]
    assert all(want)
    for chunk in (1, 7):
        monkeypatch.setattr(counting, "_FRONTIER_CHUNK", chunk)
        assert [count_copies(g, p) for p in patterns] == want, chunk


def test_orbit_bounds_cross_components_on_sparse_host(monkeypatch):
    # closed forms on a simple host: two disjoint edges are the edge pairs
    # that share no vertex, a 3-leaf star is three edges at one centre.
    # Chunks of one candidate each run on a 40-vertex host: on the
    # 200-vertex one they take ten times as long as chunks of 7
    two_edges = PatternGraph(4, {(0, 1): 1, (2, 3): 1})
    star = PatternGraph(4, {(0, 1): 1, (0, 2): 1, (0, 3): 1})
    small, large = _sparse_host(40, 60), _sparse_host()
    for chunk, (host, g) in ((1, small), (7, large), (counting._FRONTIER_CHUNK, large)):
        degrees = [d for _, d in host.degree()]
        edges = host.number_of_edges()
        want = [
            math.comb(edges, 2) - sum(math.comb(d, 2) for d in degrees),
            sum(math.comb(d, 3) for d in degrees),
        ]
        monkeypatch.setattr(counting, "_FRONTIER_CHUNK", chunk)
        assert [count_copies(g, p) for p in (two_edges, star)] == want, chunk


def _labelled_copy(edges, loops, image):
    # the edge multiset the map ``image`` puts on the host's vertices
    pairs = Counter()
    for (a, b), m in edges.items():
        pairs[frozenset((image[a], image[b]))] += m
    return frozenset(pairs.items()), frozenset((image[w], c) for w, c in loops.items())


@pytest.mark.parametrize(
    "pattern",
    [
        TRIANGLE,
        pattern_from_name("cycle:4"),
        pattern_from_name("complete:4"),
        pattern_from_name("complete_multi:3:2"),
        PatternGraph(4, {(0, 1): 1, (2, 3): 1}),
        PatternGraph(6, {(0, 1): 1, (2, 3): 1, (4, 5): 1}),
        PatternGraph(6, {**TRIANGLE.edge_mult, (3, 4): 1, (3, 5): 1, (4, 5): 1}),
        LOOP_TRIANGLE,
    ],
    ids=[
        "triangle",
        "cycle4",
        "complete4",
        "complete_multi3x2",
        "two_edges",
        "three_edges",
        "two_triangles",
        "loop_triangle",
    ],
)
def test_orbit_bounds_accept_one_map_per_copy(pattern):
    # every injective map into v + 2 host vertices, grouped by the labelled
    # copy it makes; the plan's order bounds must pass exactly one map per
    # copy.  The plan numbers the pattern's vertices by step, so its checks
    # and loops rebuild the pattern relabelled, which must make the same
    # copies as the pattern itself.
    v = pattern.vertex_count
    plan = counting._search_plan(pattern)
    edges = {(j, i): m for i, (checks, _, _) in enumerate(plan) for j, m in checks}
    loops = {i: c for i, (_, c, _) in enumerate(plan) if c}
    maps = list(permutations(range(v + 2), v))
    copies = {_labelled_copy(pattern.edge_mult, pattern.self_loops, f) for f in maps}
    accepted = Counter(
        _labelled_copy(edges, loops, f)
        for f in maps
        if all(f[i] > f[j] for i, (_, _, above) in enumerate(plan) for j in above)
    )
    assert {_labelled_copy(edges, loops, f) for f in maps} == copies
    assert set(accepted) == copies
    assert set(accepted.values()) == {1}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_counts_are_invariant_under_relabeling(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 6)
    g = random_multigraph(rng, n)
    pattern = random_connected_pattern(rng, rng.randint(2, 4))
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = ObservedMultigraph(
        n,
        {(perm[a], perm[b]): y for (a, b), y in g.edge_counts.items()},
        {perm[w]: s for w, s in g.self_loop_counts.items()},
    )
    assert count_copies(g, pattern) == count_copies(relabeled, pattern)
