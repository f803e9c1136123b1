"""Clump rates, the compound-Poisson law, c(lambda), and all total-variation
bound variants, checked against hand-derived closed forms and independent
numeric oracles."""

import math
import random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest
from scipy import stats

from blockmotif import approximation, counting, distributions
from blockmotif import (
    BOUND_VARIANTS,
    Categorical,
    CompoundPoissonParams,
    Geometric,
    InfeasibleError,
    PatternGraph,
    Poisson,
    PreconditionError,
    SbmmSpec,
    binomial_moment,
    c_lambda_upper,
    cp_pmf,
    exact_count_pmf,
    expected_count,
    kappa,
    lambda_params,
    moment,
    monte_carlo_pmf,
    occurrence_mean,
    pattern_from_name,
    pmf_tail,
    poisson_c_factor,
    rho,
    sample_graph,
    truncation_bound,
    tv_bound,
)
from conftest import random_spec

TRIANGLE = PatternGraph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
PATH3 = PatternGraph(3, {(0, 1): 1, (1, 2): 1})
DOUBLED_EDGE_TRIANGLE = PatternGraph(3, {(0, 1): 2, (0, 2): 1, (1, 2): 1})
LOOP_TRIANGLE = PatternGraph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1}, {0: 1})
EDGE = PatternGraph(2, {(0, 1): 1})


def bernoulli(p):
    return Categorical([1 - p, p])


def one_class_spec(n, law, loop_law=None):
    loops = None if loop_law is None else (loop_law,)
    return SbmmSpec(n, 1, (1.0,), ((law,),), self_loop_laws=loops)


# -- occurrence means ----------------------------------------------------------


def test_occurrence_mean_single_law_is_moment_product():
    spec = one_class_spec(10, Poisson(0.3))
    assert occurrence_mean(spec, TRIANGLE) == pytest.approx(0.3**3, rel=1e-12)
    assert occurrence_mean(spec, EDGE) == pytest.approx(0.3, rel=1e-12)
    # doubled edge wants the second binomial moment 0.3^2/2
    assert occurrence_mean(spec, DOUBLED_EDGE_TRIANGLE) == pytest.approx(
        0.045 * 0.3**2, rel=1e-12
    )


def test_occurrence_mean_averages_over_class_assignments():
    f = (0.25, 0.75)
    laws = (
        (bernoulli(0.1), bernoulli(0.2)),
        (bernoulli(0.2), bernoulli(0.4)),
    )
    spec = SbmmSpec(12, 2, f, laws)
    expect = 0.0
    for a, b in product(range(2), repeat=2):
        p = {(0, 0): 0.1, (0, 1): 0.2, (1, 0): 0.2, (1, 1): 0.4}[(a, b)]
        expect += f[a] * f[b] * p
    assert occurrence_mean(spec, EDGE) == pytest.approx(expect, rel=1e-12)


def test_occurrence_mean_matches_reimplementation_on_random_specs():
    # patterns whose elimination order differs from index order: the star
    # (centre 0) loses its leaves first, where index order would build a Q^4
    # factor; the path is labelled out of order; and summing out vertex 0 of
    # the paw leaves a factor on (1, 2) that is not symmetric, because the
    # doubled pair (0, 1) ends at the pendant's vertex
    star = PatternGraph(5, {(0, 1): 1, (0, 2): 1, (0, 3): 1, (0, 4): 1})
    shuffled_path = PatternGraph(4, {(0, 3): 1, (3, 1): 1, (1, 2): 1})
    paw = PatternGraph(4, {(0, 1): 2, (0, 2): 1, (1, 2): 1, (1, 3): 1})
    patterns = (TRIANGLE, PATH3, DOUBLED_EDGE_TRIANGLE, star, shuffled_path, paw)
    rng = random.Random(4242)
    for _ in range(12):
        spec = random_spec(rng, 9, rng.randint(1, 3))
        for pattern in patterns:
            expect = 0.0
            for assign in product(range(spec.Q), repeat=pattern.vertex_count):
                term = 1.0
                for c in assign:
                    term *= float(spec.f[c])
                for (a, b), m in pattern.edge_mult.items():
                    term *= binomial_moment(spec.edge_laws[assign[a]][assign[b]], m)
                expect += term
            assert occurrence_mean(spec, pattern) == pytest.approx(expect, rel=1e-10)


def test_occurrence_mean_agrees_with_clump_rate_total():
    # independent route: sum_i i*lambda_i == C(n,v) * rho * mean
    rng = random.Random(11)
    for _ in range(6):
        spec = random_spec(rng, 8, 2, law_maker=lambda r: bernoulli(r.uniform(0.05, 0.4)))
        for pattern in (EDGE, PATH3, TRIANGLE):
            params = lambda_params(spec, pattern)
            mean_from_rates = sum(
                (i + 1) * x for i, x in enumerate(params.lam)
            ) / (math.comb(spec.n, pattern.vertex_count) * rho(pattern))
            assert occurrence_mean(spec, pattern) == pytest.approx(
                mean_from_rates, rel=1e-9
            )


def test_loop_pattern_mean_is_zero_without_loop_laws():
    spec = one_class_spec(10, Poisson(0.3))
    assert occurrence_mean(spec, LOOP_TRIANGLE) == 0.0
    assert expected_count(spec, LOOP_TRIANGLE) == 0.0


def test_loop_pattern_mean_uses_loop_laws():
    spec = one_class_spec(10, Poisson(0.3), loop_law=Poisson(0.25))
    assert occurrence_mean(spec, LOOP_TRIANGLE) == pytest.approx(
        0.3**3 * 0.25, rel=1e-12
    )


def test_occurrence_mean_rejects_degree_weights():
    spec = SbmmSpec(4, 1, (1.0,), ((Poisson(0.3),),), degree_weights=(1.0, 2.0, 1.0, 0.5))
    with pytest.raises(PreconditionError):
        occurrence_mean(spec, EDGE)
    with pytest.raises(PreconditionError):
        lambda_params(spec, EDGE)


def test_expected_count_closed_forms():
    spec = one_class_spec(15, bernoulli(0.1))
    assert expected_count(spec, EDGE) == pytest.approx(math.comb(15, 2) * 0.1)
    assert expected_count(spec, TRIANGLE) == pytest.approx(math.comb(15, 3) * 1e-3)
    # rho(path) = 3 orbit placements per vertex set
    assert expected_count(spec, PATH3) == pytest.approx(math.comb(15, 3) * 3 * 1e-2)
    with pytest.raises(PreconditionError):
        expected_count(one_class_spec(2, bernoulli(0.1)), TRIANGLE)


def _planted(Q, n=80, same=0.15, cross=0.05):
    laws = [[Poisson(same if a == b else cross) for b in range(Q)] for a in range(Q)]
    return SbmmSpec(n, Q, (1 / Q,) * Q, laws)


def test_planted_cycle_mean_is_the_trace_of_a_matrix_power():
    # with equal f the cycle's mean is tr(M^v) / Q^v for the moment matrix
    # M = b J + (a - b) I, whose eigenvalues are a + (Q - 1) b (once) and
    # a - b (Q - 1 times); summing over all Q^v class assignments instead
    # would take hours at Q = 60
    a, b = 0.15, 0.05
    start = time.perf_counter()
    for Q in (3, 12, 35, 60):
        for v in (4, 6):
            closed = ((a + (Q - 1) * b) ** v + (Q - 1) * (a - b) ** v) / Q**v
            mean = occurrence_mean(_planted(Q), pattern_from_name(f"cycle:{v}"))
            assert mean == pytest.approx(closed, rel=1e-12)
    report = tv_bound(_planted(60), pattern_from_name("cycle:6"), "thm52_poisson_approx")
    # rho(cycle:6) = 6! / 12 = 60 placements per vertex set
    assert report.ingredients["nu"] == pytest.approx(
        math.comb(80, 6) * 60 * closed, rel=1e-12
    )
    assert time.perf_counter() - start < 1.0


# -- clump rates ---------------------------------------------------------------


def test_bernoulli_triangle_rates_exact():
    p = Fraction(1, 20)
    spec = SbmmSpec(8, 1, (Fraction(1),), ((bernoulli(p),),))
    params = lambda_params(spec, TRIANGLE, exact=True)
    assert params.lam == (Fraction(7, 1000),)
    assert params.imax == 1
    assert params.truncation_mass == 0.0
    assert params.total == Fraction(7, 1000)


def test_complete_pattern_rate_is_power_of_edge_probability():
    p = Fraction(1, 2)
    spec = SbmmSpec(6, 1, (Fraction(1),), ((bernoulli(p),),))
    k4 = PatternGraph(4, {pair: 1 for pair in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))})
    params = lambda_params(spec, k4, exact=True)
    assert params.lam == (Fraction(15, 64),)


def test_all_or_nothing_doubled_pairs_concentrate_on_clumps_of_eight():
    r = Fraction(1, 10)
    spec = SbmmSpec(20, 1, (Fraction(1),), ((Categorical([1 - r, 0, r]),),))
    params = lambda_params(spec, TRIANGLE, exact=True)
    assert params.imax == 8
    assert params.lam[7] == Fraction(57, 50)
    assert all(x == 0 for x in params.lam[:7])
    # mean identity: 8 * lambda_8 == C(20,3) * (2r)^3
    assert 8 * params.lam[7] == Fraction(
        math.comb(20, 3)
    ) * Fraction(1, 5) ** 3


def test_two_class_edge_rate_mixes_class_pairs():
    f = (Fraction(1, 3), Fraction(2, 3))
    laws = (
        (bernoulli(Fraction(1, 4)), bernoulli(Fraction(1, 5))),
        (bernoulli(Fraction(1, 5)), bernoulli(Fraction(1, 6))),
    )
    spec = SbmmSpec(5, 2, f, laws)
    params = lambda_params(spec, EDGE, exact=True)
    # C(5,2) * (f0^2/4 + 2 f0 f1/5 + f1^2/6)
    assert params.lam == (Fraction(103, 54),)


def test_multiplicity_two_pattern_takes_binomial_clumps():
    law = Categorical([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)])
    spec = SbmmSpec(4, 1, (Fraction(1),), ((law,),))
    doubled = PatternGraph(2, {(0, 1): 2})
    params = lambda_params(spec, doubled, exact=True)
    # y=2 gives C(2,2)=1 copy, y=3 gives C(3,2)=3 copies
    assert params.lam == (Fraction(3, 4), Fraction(0), Fraction(3, 4))
    assert params.imax == 3


def test_exact_and_float_paths_agree():
    p = Fraction(3, 25)
    spec_exact = SbmmSpec(9, 1, (Fraction(1),), ((bernoulli(p),),))
    spec_float = SbmmSpec(9, 1, (1.0,), ((bernoulli(float(p)),),))
    for pattern in (EDGE, PATH3, TRIANGLE):
        a = lambda_params(spec_exact, pattern, exact=True)
        b = lambda_params(spec_float, pattern)
        assert a.imax == b.imax
        assert len(a.lam) == len(b.lam)
        for x, y in zip(a.lam, b.lam):
            assert float(x) == pytest.approx(y, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("name", ["cycle4", "doubled_edge_triangle", "loop_triangle"])
def test_float_rates_match_exact_rates_on_two_unequal_classes(name, monkeypatch):
    # the float path walks class multisets with multinomial weights, the
    # exact path every class assignment in rationals: unequal class weights
    # and three-point laws make any mis-weighted multiset show
    f = (Fraction(1, 3), Fraction(2, 3))
    a = Categorical([Fraction(3, 5), Fraction(3, 10), Fraction(1, 10)])
    b = Categorical([Fraction(7, 10), Fraction(1, 5), Fraction(1, 10)])
    c = Categorical([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    loops = (
        bernoulli(Fraction(1, 5)),
        Categorical([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]),
    )
    pattern = {
        "cycle4": PatternGraph(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1}),
        "doubled_edge_triangle": DOUBLED_EDGE_TRIANGLE,
        "loop_triangle": LOOP_TRIANGLE,
    }[name]
    spec = SbmmSpec(7, 2, f, ((a, b), (b, c)), self_loop_laws=loops)

    def forbidden(*args, **kwargs):
        raise AssertionError("the exact path ran the float path's walk")

    # the exact path is the oracle, so it must not run the code it checks
    with monkeypatch.context() as patched:
        for helper in ("_host_law", "_count_law", "_copy_terms"):
            patched.setattr(approximation, helper, forbidden)
        want = lambda_params(spec, pattern, exact=True)
    got = lambda_params(spec, pattern)
    assert got.imax == want.imax
    assert len(got.lam) == len(want.lam)
    assert any(want.lam[1:])  # clumps of more than one copy occur
    for x, y in zip(want.lam, got.lam):
        assert y == pytest.approx(float(x), rel=1e-12, abs=1e-15)
    assert got.total == pytest.approx(float(want.total), rel=1e-12)
    assert got.truncation_mass == want.truncation_mass == 0.0


def test_exact_path_requires_categorical_laws():
    spec = one_class_spec(6, Poisson(0.2))
    with pytest.raises(PreconditionError):
        lambda_params(spec, EDGE, exact=True)


def test_each_law_cap_is_searched_once_and_bounds_imax(monkeypatch):
    # Poisson(0.5) is both a within-class and a loop law, so the call has
    # three distinct laws among its five law entries
    searched = []

    def counted(law, eps):
        searched.append(law)
        return truncation_bound(law, eps)

    monkeypatch.setattr(approximation, "truncation_bound", counted)
    same, cross, loop = Poisson(0.5), Poisson(0.2), Geometric(0.2)
    laws = ((same, cross), (cross, same))
    spec = SbmmSpec(8, 2, (0.5, 0.5), laws, self_loop_laws=(loop, same))
    for pattern in (LOOP_TRIANGLE, PatternGraph(1, {}, {0: 2}), DOUBLED_EDGE_TRIANGLE):
        searched.clear()
        params = lambda_params(spec, pattern, 1e-8)
        laws = [same, cross, loop] if pattern.self_loops else [same, cross]
        assert sorted(map(repr, searched)) == sorted(map(repr, laws))
        # imax is the clump size of the configuration with every pair at the
        # largest pair cap and every loop at the largest loop cap
        v = pattern.vertex_count
        pair_top, loop_top = truncation_bound(same, 1e-8), truncation_bound(loop, 1e-8)
        assert pair_top > truncation_bound(cross, 1e-8) and loop_top > pair_top
        config = [pair_top] * math.comb(v, 2) + [loop_top] * v * bool(pattern.self_loops)
        assert params.imax == counting.clump_size(config, pattern)


def test_poisson_law_rates_match_closed_form():
    law = Poisson(0.7)
    spec = one_class_spec(10, law)
    params = lambda_params(spec, EDGE)
    cap = truncation_bound(law, 1e-10)
    assert params.imax == cap
    for i in range(1, 4):
        expect = math.comb(10, 2) * math.exp(-0.7) * 0.7**i / math.factorial(i)
        assert params.lam[i - 1] == pytest.approx(expect, rel=1e-12)
    # single slot per pair: the union bound is exactly one forward tail
    assert params.truncation_mass == pytest.approx(
        math.comb(10, 2) * pmf_tail(law, cap + 1)[1], rel=1e-12
    )


def test_triangle_truncation_mass_is_three_slot_union_bound():
    law = Poisson(0.7)
    spec = one_class_spec(10, law)
    params = lambda_params(spec, TRIANGLE)
    cap = truncation_bound(law, 1e-10)
    assert params.imax == cap**3
    assert params.truncation_mass == pytest.approx(
        math.comb(10, 3) * 3 * pmf_tail(law, cap + 1)[1], rel=1e-12
    )


def test_edge_rates_past_the_tail_underflow_cover_the_law():
    # exp(-800) underflows, yet the rates run up to Poisson(800)'s cap 986,
    # certified to 1e-9, and the C(5, 2) = 10 pairs' rates sum to 10
    params = lambda_params(one_class_spec(5, Poisson(800.0)), EDGE)
    assert params.imax == 986
    assert params.truncation_mass <= 1e-9
    assert params.total == pytest.approx(10.0, rel=1e-9)


def test_rate_total_tracks_expected_count_within_truncation():
    spec = one_class_spec(10, Poisson(0.7))
    params = lambda_params(spec, TRIANGLE)
    mean_from_rates = sum((i + 1) * x for i, x in enumerate(params.lam))
    deficit = expected_count(spec, TRIANGLE) - mean_from_rates
    assert 0 <= deficit <= params.truncation_mass * params.imax + 1e-9


def test_loop_pattern_rates_without_loop_laws_are_empty():
    spec = one_class_spec(10, Poisson(0.3))
    params = lambda_params(spec, LOOP_TRIANGLE)
    assert params.lam == () and params.imax == 0
    assert params.total == 0.0 and params.truncation_mass == 0.0


def test_loop_pattern_rates_with_loop_laws():
    p, q = Fraction(1, 5), Fraction(1, 7)
    spec = SbmmSpec(
        6,
        1,
        (Fraction(1),),
        ((bernoulli(p),),),
        self_loop_laws=(bernoulli(q),),
    )
    params = lambda_params(spec, LOOP_TRIANGLE, exact=True)
    # a clump needs all three pairs and at least one loop; loop configs with
    # j of the 3 vertices looped give clump size j
    base = Fraction(math.comb(6, 3)) * p**3
    for j in (1, 2, 3):
        expect = base * math.comb(3, j) * q**j * (1 - q) ** (3 - j)
        assert params.lam[j - 1] == expect
    assert params.imax == 3


def test_lambda_enumeration_size_guard(monkeypatch):
    def limited(limit, *args, **kwargs):
        # lambda_params under a lowered module-level walk limit
        with monkeypatch.context() as m:
            m.setattr(approximation, "CLUMP_ENUMERATION_LIMIT", limit)
            return lambda_params(*args, **kwargs)

    spec = random_spec(random.Random(0), 12, 2)
    with pytest.raises(InfeasibleError):
        limited(10, spec, TRIANGLE)
    # the guard counts the configurations the walk scores: for cycle:4 on
    # two twin Poisson classes at eps 1e-8 (truncation caps 8 and 6) the
    # 5 class multisets give 3 grids, (0,0,0,0), (0,0,0,1) and (0,0,1,1),
    # of 975,969 configurations in all, although the labelled grid at the
    # largest cap, 2^4 * 9^6 = 8,503,056, is over the default limit
    same, cross = Poisson(0.5), Poisson(0.2)
    spec = SbmmSpec(12, 2, (0.5, 0.5), ((same, cross), (cross, same)))
    cycle4 = pattern_from_name("cycle:4")
    with pytest.raises(InfeasibleError, match="walks 975969 configurations"):
        limited(975_968, spec, cycle4, 1e-8)
    params = lambda_params(spec, cycle4, 1e-8)
    mean = math.fsum(i * lam for i, lam in enumerate(params.lam, start=1))
    assert mean == pytest.approx(expected_count(spec, cycle4), rel=1e-6)
    # the exact path walks all 2^3 labelled class assignments of a triangle,
    # the float path its 4 class multisets, each over 2^3 configurations
    two_point = SbmmSpec(
        6, 2, (0.5, 0.5),
        ((bernoulli(0.3), bernoulli(0.1)), (bernoulli(0.1), bernoulli(0.5))),
    )
    with pytest.raises(InfeasibleError, match="walks 64 configurations"):
        limited(63, two_point, TRIANGLE, exact=True)
    with pytest.raises(InfeasibleError, match="walks 32 configurations"):
        limited(31, two_point, TRIANGLE)
    # the guard stops counting once the scored grids pass the limit: cycle:6
    # on 30 Bernoulli classes has C(35, 6) class multisets, few of them
    # sharing a key, and grids of 2^15 configurations each, up to 5.3e10 in
    # all, and the refusal must not cost the whole count, neither directly
    # nor through the bound
    laws = [
        [bernoulli(0.01 * (1 + (a + b) % 7)) for b in range(30)] for a in range(30)
    ]
    many = SbmmSpec(40, 30, (1 / 30,) * 30, laws)
    cycle6 = pattern_from_name("cycle:6")
    start = time.perf_counter()
    with pytest.raises(InfeasibleError, match="walks more than 5000000 configurations"):
        lambda_params(many, cycle6)
    with pytest.raises(InfeasibleError, match="walks more than 5000000 configurations"):
        tv_bound(many, cycle6, "thm31_simple")
    assert time.perf_counter() - start < 2.0


def test_an_oversized_law_is_refused_before_its_table_is_built():
    # Geometric(0.99999) truncates at 2,302,573 edges per pair at eps 1e-10,
    # so one triangle grid alone passes the limit; building that law's pmf
    # table first took 0.7–0.8 s and about 90 MB before the refusal
    spec = one_class_spec(10, Geometric(0.99999))
    message = "walks more than 5000000 configurations"
    for call in (
        lambda: lambda_params(spec, TRIANGLE),
        lambda: tv_bound(spec, TRIANGLE, "thm31_simple"),
    ):
        start = time.perf_counter()
        with pytest.raises(InfeasibleError, match=message):
            call()
        assert time.perf_counter() - start < 0.1
        tracemalloc.start()
        try:
            with pytest.raises(InfeasibleError, match=message):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


def test_a_dense_rate_vector_past_the_limit_is_refused_before_it_is_allocated():
    # Geometric(1/3) truncates at 20 edges per pair at the default eps, so
    # doubled-edge K3 walks 21^3 = 9,261 configurations, yet its rates run
    # to imax = C(20, 2)^3 = 6,859,000: a dense vector of 1,213 nonzero
    # rates that took about 110 MB before the refusal
    spec = one_class_spec(10, Geometric(1 / 3))
    k3_doubled = pattern_from_name("complete_multi:3:2")
    tracemalloc.start()
    try:
        with pytest.raises(InfeasibleError, match="imax 6859000 .limit 5000000."):
            lambda_params(spec, k3_doubled)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_a_hub_rate_table_reads_one_tail_per_cap_step(monkeypatch):
    # the table of Poisson(3000) holds its 3,356 pmf terms without their
    # tails: the tails read are the cap search's and the one at the cap
    tails = []

    def counted(rate, k, term):
        tails.append(k)
        return poisson_tail(rate, k, term)

    poisson_tail = distributions._poisson_tail
    monkeypatch.setattr(distributions, "_poisson_tail", counted)
    law = Poisson(3000.0)
    cap = truncation_bound(law, approximation.DEFAULT_EPS)
    tails.clear()
    assert lambda_params(one_class_spec(10, law), EDGE).imax == cap == 3355
    assert len(tails) <= 2 * (cap + 1).bit_length() + 3


_FAIR_COIN = one_class_spec(5, bernoulli(0.5))
_SPARSE = one_class_spec(100, Poisson(0.02))
_ONE_RATE = CompoundPoissonParams((0.5,), 1, 0.0, 0.5)
_BAD_NUMBERS = {
    "pmf_tail k fraction": (lambda: pmf_tail(Poisson(1.0), 1.5), "k must be an integer"),
    "pmf_tail k bool": (lambda: pmf_tail(Poisson(1.0), True), "k must be an integer"),
    "moment r": (lambda: moment(Poisson(1.0), True), "r must be an integer"),
    "binomial_moment r": (lambda: binomial_moment(Poisson(1.0), 1.5), "r must be an integer"),
    "kappa i": (lambda: kappa(TRIANGLE, True), "i must be an integer"),
    "cp_pmf kmax bool": (lambda: cp_pmf(_ONE_RATE, True), "kmax must be an integer"),
    "cp_pmf kmax fraction": (lambda: cp_pmf(_ONE_RATE, 2.5), "kmax must be an integer"),
    "monte_carlo_pmf reps bool": (
        lambda: monte_carlo_pmf(_FAIR_COIN, EDGE, True, 1), "reps must be an integer"
    ),
    "monte_carlo_pmf reps fraction": (
        lambda: monte_carlo_pmf(_FAIR_COIN, EDGE, 2.5, 1), "reps must be an integer"
    ),
    "monte_carlo_pmf seed": (
        lambda: monte_carlo_pmf(_FAIR_COIN, EDGE, 2, 1.5), "seed must be an integer"
    ),
    "sample_graph seed": (lambda: sample_graph(_FAIR_COIN, True), "seed must be an integer"),
    "truncation_bound eps": (
        lambda: truncation_bound(Poisson(1.0), "1e-8"), "eps must be a number"
    ),
    "lambda_params eps": (lambda: lambda_params(_FAIR_COIN, EDGE, "1e-8"), "eps must be a number"),
    "lambda_params exact eps": (
        lambda: lambda_params(_FAIR_COIN, EDGE, "1e-8", exact=True), "eps must be a number"
    ),
    "tv_bound c_override": (
        lambda: tv_bound(_SPARSE, TRIANGLE, "thm31_simple", c_override=True),
        "c_override must be a number",
    ),
    "tv_bound regime_c": (
        lambda: tv_bound(_SPARSE, TRIANGLE, "regime_corpn", regime_c=True, regime_C=2.5),
        "regime_c must be a number",
    ),
    "tv_bound regime_C": (
        lambda: tv_bound(_SPARSE, TRIANGLE, "regime_corpn", regime_c=1.5, regime_C="2.5"),
        "regime_C must be a number",
    ),
}


@pytest.mark.parametrize("case", _BAD_NUMBERS)
def test_public_entry_points_refuse_numbers_of_the_wrong_kind(case):
    # a bool, a string or a fractional count is refused naming the argument,
    # never read as 1, parsed or truncated
    call, message = _BAD_NUMBERS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_lambda_refuses_too_many_class_multisets_up_front(monkeypatch):
    # no two of 60 classes are twins, so each class multiset of the 6 cycle
    # vertices is its own canonical assignment: C(65, 6) = 82,598,880 of
    # them are refused by their number, counted from the shape tables
    # before any is walked
    Q = 60
    laws = [[bernoulli(0.001 * (1 + a + b)) for b in range(Q)] for a in range(Q)]
    twin_free = SbmmSpec(80, Q, (1 / Q,) * Q, laws)
    cycle6 = pattern_from_name("cycle:6")
    start = time.perf_counter()
    message = "keys 82598880 canonical class assignments"
    with pytest.raises(InfeasibleError, match=message):
        lambda_params(twin_free, cycle6)
    with pytest.raises(InfeasibleError, match=message):
        tv_bound(twin_free, cycle6, "thm31_simple")
    assert time.perf_counter() - start < 2.0
    # the refusal is for more assignments than the limit, not for as many:
    # a triangle on two classes that are not twins has C(4, 3) = 4
    two_point = SbmmSpec(
        6, 2, (0.5, 0.5),
        ((bernoulli(0.3), bernoulli(0.1)), (bernoulli(0.1), bernoulli(0.5))),
    )
    monkeypatch.setattr(approximation, "CLUMP_ENUMERATION_LIMIT", 3)
    with pytest.raises(InfeasibleError, match="keys 4 canonical class assignments"):
        lambda_params(two_point, TRIANGLE)
    monkeypatch.setattr(approximation, "CLUMP_ENUMERATION_LIMIT", 4)
    with pytest.raises(InfeasibleError, match="walks more than 4 configurations"):
        lambda_params(two_point, TRIANGLE)


def _host_law_scoring(spec, pattern, m, cap, weighted):
    """``_host_law`` without reuse: one ``_count_law`` call per class
    assignment in ``weighted``, under its weight, each grid's tables built
    afresh."""
    pairs = list(combinations(range(m), 2))
    terms = counting._copy_terms(pattern, m)
    pmf, neglected = {}, 0.0
    for assign, weight in weighted:
        laws = [spec.edge_laws[assign[i]][assign[j]] for i, j in pairs]
        if pattern.self_loops:
            laws += [spec.self_loop_laws[c] for c in assign]
        tables = [[pmf_tail(law, k)[0] for k in range(cap(law) + 1)] for law in laws]
        tails = [pmf_tail(law, cap(law) + 1)[1] for law in laws]
        neglected += weight * sum(tails, 0.0)
        for w, p in counting._count_law(tables, terms, weight).items():
            pmf[w] = pmf.get(w, 0.0) + p
    return pmf, neglected


def _host_law_scoring_every_multiset(spec, pattern, m, cap):
    """``_host_law_scoring`` over the class multisets, each weighted by its
    orderings (a multinomial coefficient) times its class probabilities."""

    def weighted():
        for assign in combinations_with_replacement(range(spec.Q), m):
            orderings = math.factorial(m)
            for c in set(assign):
                orderings //= math.factorial(assign.count(c))
            yield assign, orderings * math.prod(spec.f[c] for c in assign)

    return _host_law_scoring(spec, pattern, m, cap, weighted())


def _host_law_scoring_every_assignment(spec, pattern, m, cap):
    """``_host_law_scoring`` over all Q^m labelled class assignments, each
    weighted by its product of class probabilities."""
    weighted = (
        (assign, math.prod(spec.f[c] for c in assign))
        for assign in product(range(spec.Q), repeat=m)
    )
    return _host_law_scoring(spec, pattern, m, cap, weighted)


def _assert_laws_close(got, want):
    # summing the weights of a shared grid before scoring it moves the
    # masses and the neglected mass by rounding only
    (pmf, neglected), (want_pmf, want_neglected) = got, want
    assert set(pmf) == set(want_pmf)
    for w, p in want_pmf.items():
        assert pmf[w] == pytest.approx(p, rel=1e-12, abs=0.0), w
    assert neglected == pytest.approx(want_neglected, rel=1e-12, abs=0.0)


@pytest.fixture
def count_law_calls(monkeypatch):
    # the grids ``_host_law`` scores, one entry per ``_count_law`` call
    calls = []

    def counted(*args):
        calls.append(args)
        return counting._count_law(*args)

    monkeypatch.setattr(approximation, "_count_law", counted)
    return calls


def _truncated(law):
    return truncation_bound(law, 1e-8)


def test_host_law_scores_each_grid_once_up_to_relabelling(count_law_calls):
    def check(spec, pattern, m, cap, scored):
        count_law_calls.clear()
        got = approximation._host_law(spec, pattern, m, cap, 10**8, "walk")
        want = _host_law_scoring_every_multiset(spec, pattern, m, cap)
        _assert_laws_close(got, want)
        assert len(count_law_calls) == scored

    cycle4 = pattern_from_name("cycle:4")
    same, cross = Poisson(0.15), Poisson(0.05)
    # the benchmark's two-class assortative model: its classes are twins,
    # so (1,1,1,1) is keyed as (0,0,0,0) and (0,1,1,1) as (0,0,0,1), and
    # its 5 multisets give 3 grids
    two = SbmmSpec(20, 2, (0.5, 0.5), ((same, cross), (cross, same)))
    check(two, cycle4, 4, _truncated, 3)
    # equal planted classes: a multiset is keyed by its class counts,
    # largest first, so the 15 multisets give the 4 partitions of 4 into at
    # most 3 parts
    laws = [[same if a == b else cross for b in range(3)] for a in range(3)]
    three = SbmmSpec(20, 3, (1 / 3,) * 3, laws)
    check(three, cycle4, 4, _truncated, 4)
    # twins are found from the laws alone: unequal class frequencies only
    # change the weights summed into a shared grid
    lopsided = SbmmSpec(20, 2, (0.3, 0.7), ((same, cross), (cross, same)))
    check(lopsided, cycle4, 4, _truncated, 3)
    # the exact law on all m = n vertices, as exact_count_pmf walks it:
    # (0,0,0,0,1) and (0,1,1,1,1) share a grid, as do (0,0,0,0,0) and
    # (1,1,1,1,1), and (0,0,0,1,1) and (0,0,1,1,1)
    a, b = Categorical([0.6, 0.3, 0.1]), Categorical([0.8, 0.2])
    symmetric = SbmmSpec(5, 2, (0.5, 0.5), ((a, b), (b, a)))
    whole = lambda law: len(law.probabilities) - 1  # noqa: E731
    check(symmetric, TRIANGLE, 5, whole, 3)
    pmf, neglected = _host_law_scoring_every_multiset(symmetric, TRIANGLE, 5, whole)
    assert neglected == 0.0
    got = exact_count_pmf(symmetric, TRIANGLE)
    assert list(got) == sorted(pmf)
    _assert_laws_close((got, 0.0), (pmf, 0.0))


def _pairwise_grid_key(laws, loops, runs):
    """A sorted class assignment's slot-law key, one law lookup per vertex
    pair, then one per vertex loop."""
    assign = [c for c, k in runs for _ in range(k)]
    key = tuple(laws[assign[i]][assign[j]] for i, j in combinations(range(len(assign)), 2))
    if loops is not None:
        key += tuple(loops[c] for c in assign)
    return key


def test_grid_keys_built_from_class_runs_match_the_pairwise_keys(monkeypatch):
    # random specs of up to three classes (twins among them when their laws
    # agree) on up to 8 vertices, with and without loops: the walk must
    # find the same keys in the same order as one lookup per vertex pair
    # gives, and so score the same law.  Cap 0 makes every grid one
    # configuration
    rng = random.Random(314)
    pool = [Categorical((0.5, 0.5)), Categorical((0.8, 0.2)), Categorical((0.1, 0.9))]
    grid_key = approximation._grid_key
    for _ in range(40):
        Q, m, looped = rng.randint(1, 3), rng.randint(3, 8), rng.random() < 0.5
        laws = [[None] * Q for _ in range(Q)]
        for a, b in combinations_with_replacement(range(Q), 2):
            laws[a][b] = laws[b][a] = rng.choice(pool)
        loop_laws = tuple(rng.choice(pool) for _ in range(Q)) if looped else None
        f = [rng.random() + 0.2 for _ in range(Q)]
        spec = SbmmSpec(m, Q, [w / sum(f) for w in f], laws, self_loop_laws=loop_laws)
        pattern = LOOP_TRIANGLE if looped else TRIANGLE
        keys, laws_found = {}, {}
        for name, build in (("runs", grid_key), ("pairs", _pairwise_grid_key)):
            found = keys[name] = []

            def recorded(*args, build=build, found=found):
                found.append(build(*args))
                return found[-1]

            monkeypatch.setattr(approximation, "_grid_key", recorded)
            pmf, neglected = approximation._host_law(
                spec, pattern, m, lambda law: 0, 10**9, "walk"
            )
            laws_found[name] = (list(pmf.items()), neglected)
        assert keys["runs"] == keys["pairs"]
        assert {len(k) for k in keys["runs"]} == {math.comb(m, 2) + m * looped}
        assert laws_found["runs"] == laws_found["pairs"]


@pytest.mark.parametrize("Q", [4, 8, 12, 60])
def test_planted_partition_scores_one_grid_per_partition_of_v(Q, count_law_calls):
    # with equal planted classes every two classes are twins, so a class
    # multiset of the 4 cycle vertices is keyed by its class counts: the 5
    # integer partitions of 4 among the C(Q + 3, 4) multisets, whatever Q is
    same, cross = Poisson(0.15), Poisson(0.05)
    laws = [[same if a == b else cross for b in range(Q)] for a in range(Q)]
    spec = SbmmSpec(20, Q, (1 / Q,) * Q, laws)
    cycle4 = pattern_from_name("cycle:4")
    params = lambda_params(spec, cycle4, 1e-8)
    assert len(count_law_calls) == 5
    if Q == 4:
        pmf, neglected = _host_law_scoring_every_multiset(spec, cycle4, 4, _truncated)
        n_sets = math.comb(20, 4)
        assert params.truncation_mass == pytest.approx(n_sets * neglected, rel=1e-12)
        for i, lam in enumerate(params.lam, start=1):
            assert lam == pytest.approx(n_sets * pmf.get(i, 0.0), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", ["cycle4", "loop_triangle"])
def test_host_law_weights_match_every_labelled_assignment(name, count_law_calls):
    # all 4 planted classes are twins, with unequal frequencies: a shape's
    # weight sums the labelled assignments of every count vector it stands
    # for, which a loop over all Q^m labelled assignments checks
    same, cross = bernoulli(0.3), bernoulli(0.1)
    laws = [[same if a == b else cross for b in range(4)] for a in range(4)]
    spec = SbmmSpec(
        10, 4, (0.1, 0.2, 0.3, 0.4), laws, self_loop_laws=(bernoulli(0.2),) * 4
    )
    pattern = pattern_from_name("cycle:4") if name == "cycle4" else LOOP_TRIANGLE
    m = pattern.vertex_count
    got = approximation._host_law(spec, pattern, m, _truncated, 10**8, "walk")
    # the integer partitions of m into at most 4 parts
    assert len(count_law_calls) == {"cycle4": 5, "loop_triangle": 3}[name]
    _assert_laws_close(
        got, _host_law_scoring_every_assignment(spec, pattern, m, _truncated)
    )


@pytest.mark.parametrize("Q", [20, 60])
def test_planted_cycle6_rates_give_the_mean_count(Q):
    # the walk scores the 11 partitions of 6 whatever Q is, so a planted
    # partition with many classes is quick; Bernoulli laws truncate
    # nothing, so the rates' mean is the expected count up to rounding
    same, cross = bernoulli(0.1), bernoulli(0.02)
    laws = [[same if a == b else cross for b in range(Q)] for a in range(Q)]
    spec = SbmmSpec(80, Q, (1 / Q,) * Q, laws)
    cycle6 = pattern_from_name("cycle:6")
    start = time.perf_counter()
    params = lambda_params(spec, cycle6)
    assert time.perf_counter() - start < 0.5
    assert params.truncation_mass == 0.0
    mean = math.fsum(i * lam for i, lam in enumerate(params.lam, start=1))
    assert mean == pytest.approx(expected_count(spec, cycle6), rel=1e-12)


def test_host_law_keeps_unswappable_classes_apart(count_law_calls):
    # classes 0 and 1 have equal frequencies and equal laws within, but meet
    # class 2 under different laws, so they are not twins and (0,0,0,2) and
    # (1,1,1,2) are scored apart; (0,0,0,0) and (1,1,1,1) still share a
    # grid through their equal slot laws
    same, cross = Poisson(0.15), Poisson(0.05)
    laws = (
        (same, cross, Poisson(0.1)),
        (cross, same, Poisson(0.02)),
        (Poisson(0.1), Poisson(0.02), Poisson(0.3)),
    )
    spec = SbmmSpec(20, 3, (0.25, 0.25, 0.5), laws)
    cycle4 = pattern_from_name("cycle:4")
    got = approximation._host_law(spec, cycle4, 4, _truncated, 10**8, "walk")
    _assert_laws_close(got, _host_law_scoring_every_multiset(spec, cycle4, 4, _truncated))
    assert len(count_law_calls) <= 14
    # unequal loop laws keep two classes apart under a looped pattern
    looped = SbmmSpec(
        20, 2, (0.5, 0.5), ((same, cross), (cross, same)),
        self_loop_laws=(Poisson(0.1), Poisson(0.4)),
    )
    got = approximation._host_law(looped, LOOP_TRIANGLE, 3, _truncated, 10**8, "walk")
    want = _host_law_scoring_every_multiset(looped, LOOP_TRIANGLE, 3, _truncated)
    _assert_laws_close(got, want)


def test_pattern_larger_than_model_is_rejected():
    with pytest.raises(PreconditionError):
        lambda_params(one_class_spec(2, bernoulli(0.1)), TRIANGLE)


def test_bound_names_the_vertex_hypothesis_before_reading_degree_weights():
    # one weighted vertex has no pair mean to take a maximum over; the
    # failed hypothesis is the pattern's size, not the model's extrema
    spec = SbmmSpec(1, 1, (1.0,), ((Poisson(0.5),),), degree_weights=(2.0,))
    with pytest.raises(
        PreconditionError, match="pattern has 3 vertices but the model only 1"
    ):
        tv_bound(spec, TRIANGLE, "cor35_inhom")


def test_bound_refuses_an_oversized_pattern_before_its_automorphisms():
    # complete:9 has 9! = 362,880 automorphisms; listing them for rho took
    # about 2 s before the size hypothesis was checked
    spec = one_class_spec(5, bernoulli(0.1))
    start = time.perf_counter()
    with pytest.raises(
        PreconditionError, match="pattern has 9 vertices but the model only 5"
    ):
        tv_bound(spec, pattern_from_name("complete:9"), "thm31_simple")
    assert time.perf_counter() - start < 0.5


# -- compound Poisson pmf ------------------------------------------------------


def _cp_pmf_oracle(lam, kmax):
    """Convolve the laws of i * N_i, N_i ~ Poisson(lam_i), up to kmax."""
    out = np.zeros(kmax + 1)
    out[0] = 1.0
    for i, rate in enumerate(lam, start=1):
        comp = np.zeros(kmax + 1)
        for j in range(0, kmax + 1, i):
            comp[j] = math.exp(-rate) * rate ** (j // i) / math.factorial(j // i)
        res = np.zeros(kmax + 1)
        for a in range(kmax + 1):
            if out[a]:
                res[a:] += out[a] * comp[: kmax + 1 - a]
        out = res
    return out


def test_cp_pmf_matches_convolution_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = int(rng.integers(1, 7))
        lam = tuple(float(x) for x in rng.uniform(0.0, 1.5, m))
        params = CompoundPoissonParams(lam=lam, imax=m, truncation_mass=0.0, total=sum(lam))
        got = np.array(cp_pmf(params, 60))
        expect = _cp_pmf_oracle(lam, 60)
        assert float(np.max(np.abs(got - expect))) <= 1e-12


def _dense_cp_recursion(lam, kmax):
    """k P(k) = sum_i i lam_i P(k - i), over every size i <= k in order."""
    out = [math.exp(-math.fsum(lam))]
    for k in range(1, kmax + 1):
        acc = 0.0
        for i in range(1, min(k, len(lam)) + 1):
            if lam[i - 1]:
                acc += i * lam[i - 1] * out[k - i]
        out.append(acc / k)
    return out


def test_cp_pmf_sums_the_nonzero_sizes_as_the_dense_recursion_does():
    # the reference law adds only the sizes with a nonzero rate, in
    # increasing order: the same floats in the same order as a walk over
    # every size, bit for bit
    spec = SbmmSpec(
        20, 2, (0.5, 0.5),
        ((Poisson(0.15), Poisson(0.05)), (Poisson(0.05), Poisson(0.15))),
    )
    sparse = lambda_params(spec, pattern_from_name("cycle:4"), 1e-8)
    assert 0.0 in sparse.lam
    rng = np.random.default_rng(3)
    cases = [sparse]
    for _ in range(10):
        lam = rng.uniform(0.0, 1.5, int(rng.integers(1, 40)))
        lam[rng.uniform(size=len(lam)) < 0.6] = 0.0
        lam = tuple(float(x) for x in lam)
        cases.append(CompoundPoissonParams(lam, len(lam), 0.0, math.fsum(lam)))
    for params in cases:
        assert cp_pmf(params, 300) == _dense_cp_recursion(params.lam, 300)


def test_cp_pmf_with_single_rate_is_poisson():
    params = CompoundPoissonParams(lam=(2.3,), imax=1, truncation_mass=0.0, total=2.3)
    got = np.array(cp_pmf(params, 40))
    expect = stats.poisson.pmf(np.arange(41), 2.3)
    assert float(np.max(np.abs(got - expect))) <= 1e-14
    assert np.allclose(got, expect, rtol=1e-13, atol=0.0)


def test_cp_pmf_shifts_support_by_clump_size():
    # only clumps of size 8: support on multiples of 8
    params = CompoundPoissonParams(
        lam=(0.0,) * 7 + (0.4,), imax=8, truncation_mass=0.0, total=0.4
    )
    pmf = cp_pmf(params, 32)
    for k, p in enumerate(pmf):
        if k % 8 == 0:
            assert p == pytest.approx(
                math.exp(-0.4) * 0.4 ** (k // 8) / math.factorial(k // 8), rel=1e-12
            )
        else:
            assert p == 0.0


def test_cp_pmf_rejects_negative_kmax():
    params = CompoundPoissonParams(lam=(1.0,), imax=1, truncation_mass=0.0, total=1.0)
    with pytest.raises(ValueError):
        cp_pmf(params, -1)


def test_cp_pmf_refuses_a_total_rate_whose_p0_underflows():
    # total clump rate 2084.55: exp(-total) is 0.0, so the recursion would
    # return only zeros instead of a law
    spec = SbmmSpec(60, 1, (1.0,), ((Poisson(0.5),),))
    params = lambda_params(spec, TRIANGLE)
    message = "compound poisson reference law has total rate 2084.55: its P(0) underflows"
    with pytest.raises(InfeasibleError, match=re.escape(message)):
        cp_pmf(params, 3)


def test_c_lambda_upper_examples():
    mk = lambda lam, tm=0.0: CompoundPoissonParams(
        lam=lam, imax=len(lam), truncation_mass=tm, total=sum(lam)
    )
    assert c_lambda_upper(mk((1.0,))) == pytest.approx(math.e, rel=1e-15)
    assert c_lambda_upper(mk((2.0, 1.0))) == pytest.approx(math.exp(3) / 2, rel=1e-15)
    # lambda_1 = 0 degenerates the 1/lambda_1 factor to 1
    assert c_lambda_upper(mk((0.0, 0.5))) == pytest.approx(math.exp(0.5), rel=1e-15)
    # certified truncation mass joins the exponent
    assert c_lambda_upper(mk((1.0,), tm=0.5)) == pytest.approx(math.exp(1.5), rel=1e-15)
    assert c_lambda_upper(mk(())) == 1.0
    assert c_lambda_upper(mk((800.0,))) == math.inf


def test_poisson_factor_and_tail():
    assert poisson_c_factor(0.0) == 1.0
    assert poisson_c_factor(1.0) == pytest.approx(1 - math.exp(-1), rel=1e-14)
    # decreasing in nu
    values = [poisson_c_factor(x) for x in (0.1, 0.5, 1.0, 3.0, 10.0)]
    assert values == sorted(values, reverse=True)
    with pytest.raises(ValueError):
        poisson_c_factor(-1.0)
    # P(Y >= 2) for Y ~ Poisson(w) is at most w^2 / 2, the fact cor55's
    # q2_bound rests on
    def q2(w):
        return pmf_tail(Poisson(w), 2)[1]

    assert q2(0.0) == 0.0
    assert q2(0.5) == pytest.approx(1 - 1.5 * math.exp(-0.5), rel=1e-12)
    for w in (0.01, 0.2, 1.0, 4.0):
        assert q2(w) == pytest.approx(float(1 - stats.poisson.cdf(1, w)), rel=1e-10)
        assert q2(w) <= w * w / 2


# -- bound variants ------------------------------------------------------------


def test_unknown_variant_is_a_value_error():
    spec = one_class_spec(10, bernoulli(0.1))
    with pytest.raises(ValueError) as err:
        tv_bound(spec, TRIANGLE, "thm99")
    assert not isinstance(err.value, PreconditionError)


def test_thm31_value_matches_hand_computation():
    spec = one_class_spec(50, bernoulli(0.02))
    report = tv_bound(spec, TRIANGLE, "thm31_simple")
    c = report.ingredients["c_lambda"]
    n, mu = 50.0, 0.02
    # kappa_1 = 4 (vertex-overlap exponent), kappa_2 = 2
    inner = (9 / 6) * n**2 * mu**3 + 3 * n**2 * mu**4 / 2 + 3 * n * mu**2
    assert report.ingredients["kappa_1"] == 4.0
    assert report.ingredients["kappa_2"] == 2.0
    assert report.value == pytest.approx((c / 6) * n**3 * mu**3 * inner, rel=1e-12)
    # and c itself comes from the generic clump-rate bound
    params = lambda_params(spec, TRIANGLE)
    assert c == pytest.approx(c_lambda_upper(params), rel=1e-12)
    assert report.ingredients["c_source"] == "clump_upper"


def test_c_override_scales_the_bound_linearly():
    spec = one_class_spec(50, bernoulli(0.02))
    base = tv_bound(spec, TRIANGLE, "thm31_simple", c_override=1.0)
    twice = tv_bound(spec, TRIANGLE, "thm31_simple", c_override=2.0)
    assert base.ingredients["c_source"] == "override"
    assert twice.value == pytest.approx(2 * base.value, rel=1e-12)


@pytest.mark.parametrize("variant", ["thm31_simple", "thm52_poisson_approx"])
@pytest.mark.parametrize("c", [-3.0, math.nan, math.inf])
def test_c_override_must_be_finite_and_positive(variant, c):
    spec = one_class_spec(50, bernoulli(0.02))
    with pytest.raises(ValueError, match="c_override must be finite and positive"):
        tv_bound(spec, TRIANGLE, variant, c_override=c)


def test_thm31_rejects_multigraph_loop_and_unbalanced_patterns():
    spec = one_class_spec(30, bernoulli(0.1))
    loop_spec = one_class_spec(30, bernoulli(0.1), loop_law=bernoulli(0.1))
    with pytest.raises(PreconditionError, match="parallel edges"):
        tv_bound(spec, DOUBLED_EDGE_TRIANGLE, "thm31_simple")
    with pytest.raises(PreconditionError, match="self-loops"):
        tv_bound(loop_spec, LOOP_TRIANGLE, "thm31_simple")
    disjoint = PatternGraph(
        6, {(0, 1): 1, (0, 2): 1, (1, 2): 1, (3, 4): 1, (3, 5): 1, (4, 5): 1}
    )
    with pytest.raises(PreconditionError, match="not strictly balanced"):
        tv_bound(spec, disjoint, "thm31_simple")
    with pytest.raises(PreconditionError, match="no edges"):
        tv_bound(loop_spec, PatternGraph(1, {}, {0: 2}), "thm51_selfloop")


@pytest.mark.parametrize("variant", ["thm41_multi", "thm51_selfloop"])
def test_multigraph_bounds_reject_a_not_strictly_pseudo_balanced_pattern(variant):
    # a triangle with a pendant edge: 4 supported pairs on 4 vertices, the
    # same pseudo-density 1 as its triangle
    spec = one_class_spec(30, bernoulli(0.1), loop_law=bernoulli(0.1))
    pendant = PatternGraph(4, {(0, 1): 1, (0, 2): 1, (1, 2): 1, (2, 3): 1})
    with pytest.raises(PreconditionError, match="not strictly pseudo-balanced"):
        tv_bound(spec, pendant, variant)


def test_degree_weights_restrict_to_cor35():
    theta = (1.2, 1.15) + (1.0,) * 18
    spec = SbmmSpec(20, 1, (1.0,), ((Poisson(0.2),),), degree_weights=theta)
    for variant in BOUND_VARIANTS:
        if variant == "cor35_inhom":
            continue
        with pytest.raises(PreconditionError, match="cor35_inhom"):
            tv_bound(spec, TRIANGLE, variant)
    report = tv_bound(spec, TRIANGLE, "cor35_inhom")
    # worst vertex-pair mean: the two largest weights times the top rate
    assert report.ingredients["inhom_max"] == pytest.approx(1.2 * 1.15 * 0.2, rel=1e-12)
    assert report.ingredients["c_source"] == "mean_upper"


def test_cor35_on_plain_model_reduces_to_thm31():
    spec = one_class_spec(40, bernoulli(0.03))
    r31 = tv_bound(spec, TRIANGLE, "thm31_simple")
    r35 = tv_bound(spec, TRIANGLE, "cor35_inhom")
    assert r35.ingredients["inhom_max"] == pytest.approx(
        r31.ingredients["mu1_star"], rel=1e-12
    )
    assert r35.value == pytest.approx(r31.value, rel=1e-12)


def test_thm41_value_matches_hand_computation():
    spec = one_class_spec(30, Poisson(0.3))
    report = tv_bound(spec, DOUBLED_EDGE_TRIANGLE, "thm41_multi")
    ing = report.ingredients
    # psi = max(2 E[Y^4], EY, E C(Y,2)); E[Y^4] = 1.1001 at rate 0.3
    assert ing["psi"] == pytest.approx(2 * 1.1001, rel=1e-12)
    assert ing["e_hist_1"] == 2 and ing["e_hist_2"] == 1
    assert ing["mu_dstar_1"] == pytest.approx(0.3, rel=1e-12)
    assert ing["mu_dstar_2"] == pytest.approx(0.045, rel=1e-12)
    assert ing["kappa_m_1"] == 4.0 and ing["kappa_m_2"] == 3.0
    n = 30.0
    first = 0.3**4 * 0.045**2
    inner = (9 / 6) * n**2 * first
    for i in (1, 2):
        inner += (
            math.comb(3, i)
            * n ** (3 - i)
            * ing["psi"] ** (4 + ing[f"kappa_m_{i}"])
            / math.factorial(3 - i)
        )
    assert report.value == pytest.approx(
        (ing["c_lambda"] * 9 / 6) * n**3 * inner, rel=1e-12
    )


def test_thm51_dispatches_to_thm41_without_loops():
    spec = one_class_spec(30, Poisson(0.3), loop_law=Poisson(0.1))
    report = tv_bound(spec, TRIANGLE, "thm51_selfloop")
    assert report.variant == "thm41_multi"
    assert report.value == tv_bound(spec, TRIANGLE, "thm41_multi").value


def test_thm51_loop_pattern_ingredients():
    spec = one_class_spec(30, Poisson(0.3), loop_law=Poisson(0.1))
    report = tv_bound(spec, LOOP_TRIANGLE, "thm51_selfloop")
    assert report.variant == "thm51_selfloop"
    assert report.ingredients["s"] == 1
    assert report.ingredients["phi_star"] == pytest.approx(0.1, rel=1e-12)
    # 2s - i stays nonnegative for v=3, s=1
    assert report.ingredients["negative_selfloop_exponent"] == 0
    assert math.isfinite(report.value) and report.value > 0


def test_thm51_flags_negative_loop_exponent():
    loop_path4 = PatternGraph(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1}, {0: 1})
    spec = one_class_spec(30, Poisson(0.3), loop_law=Poisson(0.1))
    # c_override skips the clump enumeration, infeasible at four vertices
    # with unbounded-support laws
    report = tv_bound(spec, loop_path4, "thm51_selfloop", c_override=1.0)
    assert report.ingredients["negative_selfloop_exponent"] == 1
    assert math.isfinite(report.value)
    # a zero mean loop count makes that negative power blow up: rejected
    zero_loops = one_class_spec(30, Poisson(0.3), loop_law=Categorical([1.0]))
    with pytest.raises(PreconditionError, match="negative power"):
        tv_bound(zero_loops, loop_path4, "thm51_selfloop")


def test_thm52_equals_thm31_rescaled_when_two_edge_tail_vanishes():
    spec = one_class_spec(50, bernoulli(0.02))
    r31 = tv_bound(spec, TRIANGLE, "thm31_simple")
    r52 = tv_bound(spec, TRIANGLE, "thm52_poisson_approx")
    assert r52.ingredients["q2_star"] == 0.0
    expect = r31.value * r52.ingredients["poisson_factor"] / r31.ingredients["c_lambda"]
    assert r52.value == pytest.approx(expect, rel=1e-12)
    assert r52.ingredients["nu"] == pytest.approx(expected_count(spec, TRIANGLE), rel=1e-12)


def test_cor55_needs_poisson_laws_and_dominates_thm52():
    mixed = one_class_spec(60, bernoulli(0.03))
    with pytest.raises(PreconditionError, match="not all Poisson"):
        tv_bound(mixed, TRIANGLE, "cor55_poisson_sbm")
    spec = one_class_spec(60, Poisson(0.03))
    r52 = tv_bound(spec, TRIANGLE, "thm52_poisson_approx")
    r55 = tv_bound(spec, TRIANGLE, "cor55_poisson_sbm")
    assert r55.ingredients["omega_star"] == pytest.approx(0.03, rel=1e-12)
    assert r55.ingredients["q2_bound"] == pytest.approx(0.5 * 0.03**2, rel=1e-12)
    # the Poisson two-edge tail is below omega^2/2, so cor55 is the looser bound
    assert r55.value > r52.value > 0


def test_regime_bound_hand_values_and_envelope():
    spec = one_class_spec(100, Poisson(0.02))
    report = tv_bound(spec, TRIANGLE, "regime_corpn", regime_c=1.5, regime_C=2.5)
    ing = report.ingredients
    assert ing["regime_A"] == pytest.approx((1 + 2.5**2) ** 2 / 100.0, rel=1e-12)
    assert ing["regime_B"] == pytest.approx(
        2.5**4 * (1 + 1 / 2.5) ** 2 / 100.0, rel=1e-12
    )
    expect = (ing["c_lambda"] / 6) * 2.5**3 * (
        (9 / 6) * 2.5**3 / 100.0 + min(ing["regime_A"], ing["regime_B"])
    )
    assert report.value == pytest.approx(expect, rel=1e-12)

    with pytest.raises(PreconditionError, match="outside the envelope"):
        tv_bound(spec, TRIANGLE, "regime_corpn", regime_c=1.5, regime_C=1.8)
    with pytest.raises(PreconditionError, match="envelope constants"):
        tv_bound(spec, TRIANGLE, "regime_corpn")
    with pytest.raises(PreconditionError):
        tv_bound(spec, TRIANGLE, "regime_corpn", regime_c=3.0, regime_C=2.0)


def test_single_edge_bounds_take_the_vanishing_overlap_branches():
    # complete:2 has no proper subgraph with an edge, so kappa_1 = inf and the
    # overlap terms vanish.  thm31: v = 2, e = 1, rho = 1, mu = 0.02, and
    # value = (c / 2) n^2 mu (2 n mu + 2 n mu^inf) = c n^3 mu^2 = c * 50.
    # regime_corpn: density 1/2, so the envelope unit is n^-2 and the means
    # are 25 / n^2 and 50 / n^2; value = (c / 2) C (2 C / n + 0) = c * 50.
    spec = SbmmSpec(
        50, 2, (0.5, 0.5), ((Poisson(0.02), Poisson(0.01)), (Poisson(0.01), Poisson(0.02)))
    )
    edge = pattern_from_name("complete:2")
    simple = tv_bound(spec, edge, "thm31_simple")
    regime = tv_bound(spec, edge, "regime_corpn", regime_c=25, regime_C=50)
    assert simple.ingredients["kappa_1"] == math.inf
    assert regime.ingredients["regime_A"] == regime.ingredients["regime_B"] == 0.0
    c = simple.ingredients["c_lambda"]
    assert simple.value == regime.value == 50 * c


# -- the report reproduces its own value ---------------------------------------


def _value_from_ingredients(report):
    ing = report.ingredients
    n, v, e = ing["n"], ing["v"], ing["e"]
    vfact = math.factorial(v)
    if report.variant in ("thm31_simple", "cor35_inhom"):
        mu = ing.get("mu1_star", ing.get("inhom_max"))
        inner = (v * v / vfact) * n ** (v - 1) * mu**e
        for i in range(1, v):
            inner += (
                math.comb(v, i) * n ** (v - i) * mu ** ing[f"kappa_{i}"] / math.factorial(v - i)
            )
        return (ing["c_lambda"] * ing["rho"] ** 2 / vfact) * n**v * mu**e * inner
    if report.variant in ("thm41_multi", "thm51_selfloop"):
        s, t = ing["s"], ing["t"]
        phi = ing.get("phi_star", 1.0)
        first = 1.0
        for i in range(1, t + 1):
            first *= ing[f"mu_dstar_{i}"] ** (2 * ing[f"e_hist_{i}"])
        inner = (v * v / vfact) * n ** (v - 1) * phi ** (2 * s) * first
        for i in range(1, v):
            loop_factor = phi ** (2 * s - i) if s else 1.0
            inner += (
                math.comb(v, i)
                * n ** (v - i)
                * loop_factor
                * ing["psi"] ** (e + ing[f"kappa_m_{i}"])
                / math.factorial(v - i)
            )
        return (ing["c_lambda"] * ing["rho"] ** 2 / vfact) * n**v * inner
    if report.variant in ("thm52_poisson_approx", "cor55_poisson_sbm"):
        mu = ing.get("mu1_star", ing.get("omega_star"))
        q2 = ing.get("q2_star", ing.get("q2_bound"))
        inner = (v * v / vfact) * n ** (v - 1) * mu ** (e + 1) + q2
        for i in range(1, v):
            inner += (
                math.comb(v, i)
                * n ** (v - i)
                * mu ** (ing[f"kappa_{i}"] + 1)
                / math.factorial(v - i)
            )
        return (
            (ing["poisson_factor"] * ing["rho"] ** 2 / vfact) * n**v * mu ** (e - 1) * inner
        )
    assert report.variant == "regime_corpn"
    C = ing["regime_C"]
    return (
        (ing["c_lambda"] * ing["rho"] ** 2 / vfact)
        * C**e
        * ((v * v / vfact) * C**e / n + min(ing["regime_A"], ing["regime_B"]))
    )


def test_every_report_reproduces_its_value_from_ingredients():
    plain = one_class_spec(40, bernoulli(0.05))
    poisson = one_class_spec(40, Poisson(0.05))
    loops = one_class_spec(40, Poisson(0.3), loop_law=Poisson(0.1))
    dc = SbmmSpec(
        20, 1, (1.0,), ((Poisson(0.2),),), degree_weights=(1.2, 1.15) + (1.0,) * 18
    )
    two_class = SbmmSpec(
        25,
        2,
        (0.4, 0.6),
        (
            (bernoulli(0.06), bernoulli(0.03)),
            (bernoulli(0.03), bernoulli(0.08)),
        ),
    )
    cases = [
        (plain, TRIANGLE, "thm31_simple", {}),
        (plain, PATH3, "thm31_simple", {}),
        (two_class, TRIANGLE, "thm31_simple", {}),
        (plain, TRIANGLE, "cor35_inhom", {}),
        (dc, TRIANGLE, "cor35_inhom", {}),
        (plain, DOUBLED_EDGE_TRIANGLE, "thm41_multi", {}),
        (poisson, TRIANGLE, "thm41_multi", {}),
        (loops, LOOP_TRIANGLE, "thm51_selfloop", {}),
        (plain, TRIANGLE, "thm52_poisson_approx", {}),
        (poisson, TRIANGLE, "thm52_poisson_approx", {}),
        (poisson, TRIANGLE, "cor55_poisson_sbm", {}),
        (
            one_class_spec(100, Poisson(0.02)),
            TRIANGLE,
            "regime_corpn",
            {"regime_c": 1.5, "regime_C": 2.5},
        ),
    ]
    for spec, pattern, variant, kw in cases:
        report = tv_bound(spec, pattern, variant, **kw)
        assert report.value == pytest.approx(
            _value_from_ingredients(report), rel=1e-12
        ), (variant, pattern)
