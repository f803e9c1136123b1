"""Model specs, keyed sampling, extreme moments, serialization."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import stats

from blockmotif import (
    Categorical,
    Geometric,
    ModelExtrema,
    ObservedMultigraph,
    PatternGraph,
    Poisson,
    SbmmSpec,
    binomial_moment,
    graph_from_text,
    graph_to_text,
    model_extrema,
    moment,
    monte_carlo_pmf,
    pattern_from_name,
    pmf_tail,
    sample_graph,
    spec_from_json,
    spec_to_json,
)
from blockmotif._rng import key_floor, substream_key, uniform_from_key
from blockmotif.model import _poisson_icdf, _sample_counts, _zero_cut

PLAIN_LAWS = ((Poisson(0.8), Poisson(0.3)), (Poisson(0.3), Poisson(1.2)))


def _plain_spec(n=12):
    return SbmmSpec(n, 2, (0.6, 0.4), PLAIN_LAWS)


# -- validation -----------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        SbmmSpec(0, 1, (1.0,), ((Poisson(1.0),),))
    with pytest.raises(ValueError):
        SbmmSpec(3, 2, (1.0,), ((Poisson(1.0),),))  # f length != Q
    with pytest.raises(ValueError):
        SbmmSpec(3, 1, (0.9,), ((Poisson(1.0),),))  # mass 0.9
    with pytest.raises(ValueError, match="class probabilities sum to nan, not 1"):
        SbmmSpec(5, 1, (float("nan"),), ((Poisson(0.5),),))
    with pytest.raises(ValueError):
        SbmmSpec(3, 2, (1.0, 0.0), ((Poisson(1.0), Poisson(1.0)),) * 2)  # f not positive
    with pytest.raises(ValueError):
        SbmmSpec(3, 2, (0.5, 0.5), ((Poisson(1.0),),))  # not Q x Q
    with pytest.raises(ValueError):
        SbmmSpec(
            3, 2, (0.5, 0.5),
            ((Poisson(1.0), Poisson(0.5)), (Poisson(0.6), Poisson(1.0))),
        )  # asymmetric
    with pytest.raises(TypeError):
        SbmmSpec(3, 1, (1.0,), ((0.5,),))
    with pytest.raises(ValueError):
        SbmmSpec(3, 1, (1.0,), ((Categorical((0.5, 0.5)),),), degree_weights=(1, 1, 1))
    with pytest.raises(ValueError):
        SbmmSpec(3, 1, (1.0,), ((Poisson(1.0),),), degree_weights=(1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        SbmmSpec(3, 1, (1.0,), ((Poisson(1.0),),), degree_weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        SbmmSpec(3, 1, (1.0,), ((Poisson(1.0),),), self_loop_laws=())


def test_spec_preserves_exact_class_probabilities():
    spec = SbmmSpec(4, 2, (F(1, 4), F(3, 4)), ((Poisson(0.1), Poisson(0.1)),) * 2)
    assert spec.f == (F(1, 4), F(3, 4))
    assert isinstance(spec.f[0], F)


def test_observed_multigraph_normalizes_and_drops_zeros():
    g = ObservedMultigraph(4, {(2, 1): 3, (0, 3): 0}, {1: 2, 2: 0})
    assert g.edge_counts == {(1, 2): 3}
    assert g.self_loop_counts == {1: 2}
    with pytest.raises(ValueError):
        ObservedMultigraph(3, {(1, 1): 1})
    with pytest.raises(ValueError):
        ObservedMultigraph(3, {(0, 3): 1})
    with pytest.raises(ValueError):
        ObservedMultigraph(3, {(0, 1): -2})


# -- sampling --------------------------------------------------------------------


def test_sampling_is_deterministic_and_seed_sensitive():
    spec = _plain_spec()
    assert sample_graph(spec, 42) == sample_graph(spec, 42)
    assert sample_graph(spec, 42) != sample_graph(spec, 43)


def test_unit_degree_weights_match_plain_poisson_sampling():
    plain = _plain_spec()
    corrected = SbmmSpec(12, 2, (0.6, 0.4), PLAIN_LAWS, degree_weights=(1.0,) * 12)
    for seed in range(5):
        assert sample_graph(plain, seed) == sample_graph(corrected, seed)


ORACLE_SEEDS = [0, 2024, -3, 2**64 - 1, 2**64 + 5]
TWO_CLASS_ORACLE_SPEC = SbmmSpec(
    7, 2, (0.35, 0.65),
    ((Categorical((0.6, 0.3, 0.1)), Poisson(0.9)),
     (Poisson(0.9), Categorical((0.2, 0.5, 0.3)))),
    self_loop_laws=(Categorical((0.7, 0.3)), Categorical((0.9, 0.1))),
)
# one class draws no class uniform; a loop law with P(0) = 0 has a cut below 0
ONE_CLASS_ORACLE_SPEC = SbmmSpec(
    7, 1, (1.0,), ((Poisson(0.3),),),
    self_loop_laws=(Categorical((0.0, 0.4, 0.6)),),
)
# distinct degree weights: pair (i, j) is Poisson((theta_i * theta_j) * omega)
WEIGHTED_ORACLE_SPEC = SbmmSpec(
    7, 2, (0.35, 0.65),
    ((Poisson(0.9), Poisson(0.4)), (Poisson(0.4), Poisson(1.3))),
    degree_weights=(0.5, 1.7, 1.0, 2.3, 0.8, 1.2, 3.1),
    self_loop_laws=(Poisson(0.3), Categorical((0.9, 0.1))),
)


@pytest.mark.parametrize(
    "spec, seed",
    [pytest.param(TWO_CLASS_ORACLE_SPEC, s, id=str(s)) for s in ORACLE_SEEDS]
    + [pytest.param(ONE_CLASS_ORACLE_SPEC, s, id=f"one_class-{s}") for s in ORACLE_SEEDS]
    + [pytest.param(WEIGHTED_ORACLE_SPEC, s, id=f"weighted-{s}") for s in ORACLE_SEEDS],
)
def test_sample_matches_per_key_scalar_oracle(spec, seed):
    # independent scalar re-derivation of the keyed inversion sampler; the
    # scalar keys take any int seed modulo 2**64
    got = sample_graph(spec, seed)

    def classify(i):
        u = uniform_from_key(substream_key(seed, 0, i + 1))
        cdf = 0.0
        for a, fa in enumerate(spec.f):
            cdf += fa
            if u < cdf:
                return a
        return spec.Q - 1

    def invert(law, u):
        if isinstance(law, Categorical):
            cdf = 0.0
            for k, p in enumerate(law.probabilities):
                cdf += float(p)
                if u < cdf:
                    return k
            return len(law.probabilities) - 1
        # Poisson: smallest k with CDF(k) >= u, same forward stepping
        pmf = math.exp(-law.rate)
        cdf = pmf
        k = 0
        while cdf < u and pmf > 0.0:
            k += 1
            pmf *= law.rate / k
            cdf += pmf
        return k

    n = spec.n
    classes = tuple(classify(i) for i in range(n))
    assert got.classes == classes
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            u = uniform_from_key(substream_key(seed, i + 1, j + 1))
            a, b = sorted((classes[i], classes[j]))
            law = spec.edge_laws[a][b]
            if spec.degree_weights is not None:
                theta = spec.degree_weights
                law = Poisson((theta[i] * theta[j]) * law.rate)
            y = invert(law, u)
            if y:
                edges[(i, j)] = y
    assert got.edge_counts == edges
    loops = {}
    for i in range(n):
        u = uniform_from_key(substream_key(seed, i + 1, i + 1))
        s = invert(spec.self_loop_laws[classes[i]], u)
        if s:
            loops[i] = s
    assert got.self_loop_counts == loops


CUT_LAWS = [
    Poisson(0.0), Poisson(1 / 60), Poisson(2.0), Poisson(600.0),
    Categorical((0.0, 0.3, 0.7)), Categorical((1.0,)),
    Categorical((F(1, 3), F(1, 6), F(1, 2))),
    Geometric(0.0), Geometric(0.45),
]


@pytest.mark.parametrize("law", CUT_LAWS, ids=repr)
def test_zero_cut_bounds_the_positive_counts(law):
    # the sampler inverts only uniforms above their law's cut; it draws what
    # inverting every cell would only if no uniform at or below the cut
    # inverts to a positive count
    cut = _zero_cut(law)
    edge = [np.nextafter(cut, -np.inf), cut, np.nextafter(cut, np.inf)]
    u = np.concatenate((edge, np.random.default_rng(7).random(10**4)))
    u = u[(u >= 0.0) & (u < 1.0)]  # the range of a keyed uniform
    positive = _sample_counts(u, law) > 0
    assert not (positive & (u <= cut)).any()
    if not isinstance(law, Geometric):
        assert (positive == (u > cut)).all()


@pytest.mark.parametrize("law", CUT_LAWS, ids=repr)
def test_raw_key_floor_selects_the_uniforms_above_the_cut(law):
    # the sampler picks its candidates on the raw 64-bit keys, key >=
    # key_floor(cut), before any uniform is formed: exactly the keys whose
    # uniform exceeds the cut, also where the floor passes every key
    cut = _zero_cut(law)
    floor = key_floor(cut)
    assert (floor >= 2**64) == (law in (Poisson(0.0), Categorical((1.0,))))
    # the last key of the boundary's 53-bit integer, the floor, and around
    m = max(math.floor(cut * 2.0**53), 0) << 11
    near = [m + d for d in (-1, 0, 2047, 2048)] + [floor + d for d in (-1, 0, 1)]
    near += [0, 1, 2**64 - 2048, 2**64 - 1]
    drawn = np.random.default_rng(3).integers(0, 2**64, 2000, dtype=np.uint64)
    keys = [k for k in near if 0 <= k < 2**64] + drawn.tolist()
    want = [uniform_from_key(k) > cut for k in keys]
    assert [k >= floor for k in keys] == want
    if floor < 2**64:
        picked = np.array(keys, dtype=np.uint64) >= np.uint64(floor)
        assert picked.tolist() == want
    else:
        assert not any(want)


def test_laws_that_never_draw_an_edge_give_empty_hosts():
    # every key lies below the floor of Poisson(0) and Categorical((1.0,)):
    # no pair or loop is a candidate, and nothing is drawn
    zero, one = Poisson(0.0), Categorical((1.0,))
    spec = SbmmSpec(
        8, 2, (0.5, 0.5), ((zero, one), (one, zero)), self_loop_laws=(one, zero)
    )
    for seed in range(10):
        graph = sample_graph(spec, seed)
        assert graph.edge_counts == {} and graph.self_loop_counts == {}
    # single edges and single loops count the hosts' edges and loops
    for pattern in (PatternGraph(2, {(0, 1): 1}), PatternGraph(1, {}, {0: 1})):
        assert monte_carlo_pmf(spec, pattern, 40, 3) == ({0: 1.0}, {0: 40})


def test_one_poisson_inversion_over_mixed_rates_equals_the_per_law_calls():
    # the sampler inverts a block's Poisson candidates in one call, each
    # with its own law's rate; element for element that must equal one
    # call per law, also for uniforms next to a cut or to 1
    rates = [0.0, 1 / 60, 0.05, 2.0, 35.0, 600.0]
    rng = np.random.default_rng(11)
    offsets = (-1e-15, -1e-16, 0.0, 1e-16, 1e-15)
    near = [_zero_cut(Poisson(r)) + d for r in rates for d in offsets]
    near += [1.0 - d for d in (1e-15, 5e-16, 2e-16, 1e-16)]
    u = np.concatenate((rng.random(2000), near))
    u = u[(u >= 0.0) & (u < 1.0)]  # the range of a keyed uniform
    order = rng.permutation(len(u) * len(rates))
    u_cells = np.tile(u, len(rates))[order]
    rate_cells = np.repeat(rates, len(u))[order]
    got = _poisson_icdf(u_cells, rate_cells)
    for r in rates:
        at = rate_cells == r
        assert (got[at] == _sample_counts(u_cells[at], Poisson(r))).all(), r
    assert got.max() > 600 and (got == 0).any()


RATE_TOO_LARGE_SPECS = {
    "edge_law": SbmmSpec(
        3, 2, (0.5, 0.5), ((Poisson(1), Poisson(1)), (Poisson(1), Poisson(800)))
    ),
    "loop_law": SbmmSpec(
        3, 2, (0.5, 0.5), ((Poisson(1),) * 2,) * 2,
        self_loop_laws=(Poisson(1), Poisson(900)),
    ),
    "degree_weights": SbmmSpec(
        3, 1, (1.0,), ((Poisson(1.0),),), degree_weights=(30.0, 30.0, 1.0)
    ),
}


@pytest.mark.parametrize("case", sorted(RATE_TOO_LARGE_SPECS))
def test_poisson_rate_limit_depends_on_the_spec_alone(case):
    # a law no drawn class pair happens to use still refuses the model
    spec = RATE_TOO_LARGE_SPECS[case]
    for seed in range(12):
        with pytest.raises(ValueError, match="too large"):
            sample_graph(spec, seed)
    with pytest.raises(ValueError, match="too large"):
        monte_carlo_pmf(spec, pattern_from_name("triangle"), 5, 0)


def test_degree_weights_decide_the_rate_limit():
    # small weights bring a large rate's pair means under the limit
    spec = SbmmSpec(3, 1, (1.0,), ((Poisson(800.0),),), degree_weights=(0.5,) * 3)
    assert sample_graph(spec, 0).n == 3


def test_class_frequencies_match_f():
    spec = SbmmSpec(400, 3, (0.2, 0.3, 0.5), ((Poisson(0.1),) * 3,) * 3)
    counts = [0, 0, 0]
    for seed in range(50):
        for c in sample_graph(spec, seed).classes:
            counts[c] += 1
    total = sum(counts)
    res = stats.chisquare(counts, [f * total for f in spec.f])
    assert res.pvalue > 1e-3, (counts, res)


@pytest.mark.parametrize(
    "law",
    [Poisson(0.7), Geometric(0.45), Categorical((0.5, 0.3, 0.15, 0.05))],
)
def test_pair_counts_follow_the_law(law):
    spec = SbmmSpec(40, 1, (1.0,), ((law,),))
    hist = {}
    draws = 0
    for seed in range(40):
        g = sample_graph(spec, seed)
        draws += 40 * 39 // 2
        for y in g.edge_counts.values():
            hist[y] = hist.get(y, 0) + 1
    hist[0] = draws - sum(hist.values())
    kmax = max(hist)
    observed, expected = [], []
    tail_obs = tail_exp = 0.0
    for k in range(kmax + 1):
        pk = pmf_tail(law, k)[0] * draws
        if pk < 10:  # pool sparse cells for the chi-square approximation
            tail_obs += hist.get(k, 0)
            tail_exp += pk
        else:
            observed.append(hist.get(k, 0))
            expected.append(pk)
    tail_exp += pmf_tail(law, kmax + 1)[1] * draws
    if tail_exp > 0:
        observed.append(tail_obs)
        expected.append(tail_exp)
    else:
        assert tail_obs == 0  # draws outside the law's support
    res = stats.chisquare(observed, expected)
    assert res.pvalue > 1e-3, (observed, expected, res)


def test_degree_corrected_rates_scale_pair_means():
    theta = (0.25,) * 20 + (2.0,) * 20
    spec = SbmmSpec(40, 1, (1.0,), ((Poisson(0.5),),), degree_weights=theta)
    sums = {"ll": 0.0, "hl": 0.0, "hh": 0.0}
    draws = {"ll": 0, "hl": 0, "hh": 0}
    for seed in range(120):
        g = sample_graph(spec, seed)
        counts = dict(g.edge_counts)
        for i in range(40):
            for j in range(i + 1, 40):
                band = ("l" if theta[i] < 1 else "h") + ("l" if theta[j] < 1 else "h")
                band = "".join(sorted(band))
                sums[band] += counts.get((i, j), 0)
                draws[band] += 1
    means = {b: sums[b] / draws[b] for b in sums}
    assert means["ll"] == pytest.approx(0.25 * 0.25 * 0.5, rel=0.1)
    assert means["hl"] == pytest.approx(0.25 * 2.0 * 0.5, rel=0.05)
    assert means["hh"] == pytest.approx(2.0 * 2.0 * 0.5, rel=0.05)


# -- extreme moments ---------------------------------------------------------------


def test_model_extrema_takes_maxima_over_class_pairs():
    tri = pattern_from_name("triangle")
    spec = _plain_spec()
    ext = model_extrema(spec, tri)
    assert ext.mu1_star == 1.2
    assert ext.omega_star == 1.2
    assert ext.inhom_max == 1.2
    assert ext.mu_star == tuple(
        max(moment(law, k) for law in (Poisson(0.8), Poisson(0.3), Poisson(1.2)))
        for k in (1, 2)
    )
    assert ext.mu_dstar == (1.2,)
    assert ext.psi == max(2 * ext.mu_star[1], 1.2)
    assert ext.q2_star == pytest.approx(1 - (1 + 1.2) * math.exp(-1.2), abs=1e-15)
    assert ext.phi_star is None


def test_model_extrema_multigraph_pattern_orders():
    from blockmotif import PatternGraph

    dt = PatternGraph(3, {(0, 1): 2, (0, 2): 1, (1, 2): 1})
    law = Categorical((0.8, 0.15, 0.05))
    spec = SbmmSpec(10, 1, (1.0,), ((law,),))
    ext = model_extrema(spec, dt)
    # t = 2: raw moments up to 2t = 4, binomial moments up to t = 2
    assert len(ext.mu_star) == 4 and len(ext.mu_dstar) == 2
    assert ext.psi == max(2 * moment(law, 4), binomial_moment(law, 1), binomial_moment(law, 2))
    assert ext.omega_star is None  # not a Poisson model


def test_model_extrema_self_loops_and_degree_weights():
    tri = pattern_from_name("triangle")
    spec = SbmmSpec(
        6, 1, (1.0,), ((Poisson(0.3),),),
        self_loop_laws=(Geometric(0.25),),
    )
    ext = model_extrema(spec, tri)
    assert ext.phi_star == pytest.approx(0.25 / 0.75, rel=1e-12)

    dc = SbmmSpec(6, 1, (1.0,), ((Poisson(0.3),),), degree_weights=(3.0, 1.0, 2.0, 1.0, 1.0, 0.5))
    ext = model_extrema(dc, tri)
    assert ext.inhom_max == pytest.approx(3.0 * 2.0 * 0.3, rel=1e-12)


# -- serialization ------------------------------------------------------------------


def test_spec_json_round_trip():
    specs = [
        _plain_spec(),
        SbmmSpec(5, 1, (1.0,), ((Geometric(0.2),),), self_loop_laws=(Poisson(0.1),)),
        SbmmSpec(4, 1, (1.0,), ((Poisson(0.5),),), degree_weights=(1.0, 2.0, 0.5, 1.5)),
    ]
    for spec in specs:
        assert spec_from_json(spec_to_json(spec)) == spec


def test_graph_text_round_trip_keeps_isolated_vertices_and_classes():
    g = ObservedMultigraph(5, {(0, 2): 2, (1, 2): 1}, {3: 1}, classes=(0, 1, 0, 1, 0))
    text = graph_to_text(g)
    assert text.splitlines()[0] == "# n 5"
    assert "# classes 0 1 0 1 0" in text
    assert graph_from_text(text) == g

    bare = graph_from_text("0 1 2\n2 3 1\n")
    assert bare.n == 4 and bare.classes is None


def test_graph_text_rejects_duplicates_and_garbage():
    with pytest.raises(ValueError):
        graph_from_text("0 1 1\n1 0 2\n")
    with pytest.raises(ValueError):
        graph_from_text("0 1\n")
    with pytest.raises(ValueError):
        graph_from_text("")
