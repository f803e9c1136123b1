"""Model specs, keyed sampling, extreme moments, serialization."""

import itertools
import math
import random
import re
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import stats

from blockmotif import (
    Categorical,
    Geometric,
    ObservedMultigraph,
    PatternGraph,
    Poisson,
    SbmmSpec,
    binomial_moment,
    count_copies,
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
from blockmotif import model
from blockmotif._rng import substream_key, uniform_from_key
from blockmotif.model import _poisson_icdf

PLAIN_LAWS = ((Poisson(0.8), Poisson(0.3)), (Poisson(0.3), Poisson(1.2)))


def _plain_spec(n=12):
    return SbmmSpec(n, 2, (0.6, 0.4), PLAIN_LAWS)


# -- validation -----------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        SbmmSpec(0, 1, (1.0,), ((Poisson(1.0),),))
    with pytest.raises(ValueError, match="Q must be at least 1"):
        SbmmSpec(3, 0, (), ())
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
    with pytest.raises(TypeError, match=re.escape("self_loop_laws[0] is not an edge-count law")):
        SbmmSpec(3, 1, (1.0,), ((Poisson(1.0),),), self_loop_laws=(0.5,))
    with pytest.raises(ValueError):
        SbmmSpec(3, 1, (1.0,), ((Categorical((0.5, 0.5)),),), degree_weights=(1, 1, 1))
    with pytest.raises(ValueError):
        SbmmSpec(3, 1, (1.0,), ((Poisson(1.0),),), degree_weights=(1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        SbmmSpec(3, 1, (1.0,), ((Poisson(1.0),),), degree_weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        SbmmSpec(3, 1, (1.0,), ((Poisson(1.0),),), self_loop_laws=())
    # n and Q are counts, f entries and weights numbers: a bool, a string or
    # a fraction of a vertex is refused rather than truncated or coerced
    laws = ((Poisson(1.0),),)
    for args, weights, message in (
        ((10.9, 1, (1.0,), laws), None, "n must be an integer, got 10.9"),
        ((True, 1, (1.0,), laws), None, "n must be an integer, got True"),
        ((3, 1.5, (1.0,), laws), None, "Q must be an integer, got 1.5"),
        ((3, 1, (True,), laws), None, "f must be a number, got True"),
        ((3, 1, ("1",), laws), None, "f must be a number, got '1'"),
        ((3, 1, (1.0,), laws), (1.0, True, 1.0), "degree weights must be a number, got True"),
        ((3, 1, (1.0,), laws), (1.0, "2", 1.0), "degree weights must be a number, got '2'"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            SbmmSpec(*args, degree_weights=weights)
    obj = {"n": True, "Q": 1, "f": [1.0], "edge_laws": [[{"type": "poisson", "omega": 1.0}]]}
    with pytest.raises(ValueError, match="n must be an integer, got True"):
        spec_from_json(obj)
    # integral floats read as integers; exact numbers stay exact
    spec = SbmmSpec(5.0, 1.0, (Decimal(1),), laws, degree_weights=(1, F(1, 2), 2.0, 1, 1))
    assert (spec.n, spec.Q, spec.f, spec.degree_weights) == (5, 1, (1,), (1.0, 0.5, 2.0, 1.0, 1.0))
    assert type(spec.n) is int and type(spec.f[0]) is F


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
    # integral floats read as integers
    g = ObservedMultigraph(3.0, {(0.0, 1): 2.0}, {2: 1.0}, classes=[0, 1.0, np.int8(0)])
    assert g == ObservedMultigraph(3, {(0, 1): 2}, {2: 1}, classes=[0, 1, 0])
    assert g.y.dtype == np.int64 and type(g.n) is int


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
# one class draws no class uniform; a loop law with P(0) = 0 puts a loop on every vertex
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


# one class, geometric pairs and loops; a block mean of 798 (n = 400,
# Poisson(0.01)) is drawn in two parts; categorical pairs across classes
# with P(0) = 0 put an event on every cell
GEOMETRIC_ORACLE_SPEC = SbmmSpec(
    7, 1, (1.0,), ((Geometric(0.35),),), self_loop_laws=(Geometric(0.2),)
)
PARTS_ORACLE_SPEC = SbmmSpec(400, 1, (1.0,), ((Poisson(0.01),),))
DENSE_ORACLE_SPEC = SbmmSpec(
    6, 2, (0.5, 0.5),
    ((Geometric(0.3), Categorical((0.0, 0.25, 0.75))),
     (Categorical((0.0, 0.25, 0.75)), Categorical((0.9, 0.1)))),
)


# a pair or loop mean past 700, where exp(-mean) would underflow, is drawn
# in parts like any block total: an edge law Poisson(800), a loop law
# Poisson(900), weights 30 * 30 at rate 1, and three hubs among 40 vertices
# whose hub pairs have mean 900
LARGE_RATE_ORACLE_SPECS = {
    "edge_law": SbmmSpec(
        3, 2, (0.5, 0.5), ((Poisson(1), Poisson(1)), (Poisson(1), Poisson(800)))
    ),
    "loop_law": SbmmSpec(
        3, 2, (0.5, 0.5), ((Poisson(1),) * 2,) * 2,
        self_loop_laws=(Poisson(1), Poisson(900)),
    ),
    "weights": SbmmSpec(
        3, 1, (1.0,), ((Poisson(1.0),),), degree_weights=(30.0, 30.0, 1.0)
    ),
    "hubs": SbmmSpec(
        40, 2, (0.5, 0.5), ((Poisson(1.0),) * 2,) * 2,
        degree_weights=(30.0, 1.0) * 3 + (1.0,) * 34,
    ),
}


# a hub-heavy Karrer–Newman host: weights proportional to (x + 1)^(-1/2)
# with mean 1, two classes, Poisson pairs and loops
_HUB_THETA = (np.arange(300) + 1.0) ** -0.5
HUB_ORACLE_SPEC = SbmmSpec(
    300, 2, (0.5, 0.5),
    ((Poisson(0.02), Poisson(0.01)), (Poisson(0.01), Poisson(0.03))),
    degree_weights=(300.0 * _HUB_THETA / _HUB_THETA.sum()).tolist(),
    self_loop_laws=(Poisson(0.2), Poisson(0.4)),
)


def _scalar_graph(spec, seed):
    """An independent scalar re-derivation of the block sampler's recipe
    (``model._sampler``), one stream key at a time: the classes, then per
    block a Poisson total with its events' endpoints, or a walk of
    geometric gaps over the block's cells with a positive value each."""
    n, Q = spec.n, spec.Q

    def u(*labels):
        return uniform_from_key(substream_key(seed, *labels))

    def classify(i):
        x, cdf = u(0, i + 1), 0.0
        for a, fa in enumerate(spec.f):
            cdf += fa
            if x < cdf:
                return a
        return Q - 1

    def poisson(x, rate):
        # smallest k with CDF(k) >= x, by forward stepping
        pmf = math.exp(-rate)
        cdf, k = pmf, 0
        while cdf < x and pmf > 0.0:
            k += 1
            pmf *= rate / k
            cdf += pmf
        return k

    def positive(law, x):
        # the law given a positive count
        if isinstance(law, Geometric):
            return max(math.ceil(math.log1p(-x) / math.log(law.ratio)) - 1.0, 0.0) + 1
        tails = list(itertools.accumulate(float(p) for p in law.probabilities[1:]))
        return next((k for k, t in enumerate(tails, 1) if x * tails[-1] < t), len(tails))

    classes = tuple(classify(i) for i in range(n)) if Q > 1 else (0,) * n
    theta = spec.degree_weights or (1.0,) * n
    order = sorted(range(n), key=lambda i: (classes[i], i))
    cum = list(itertools.accumulate(theta[i] for i in order))
    members = [[i for i in order if classes[i] == c] for c in range(Q)]
    span = {}
    for c in range(Q):
        p = sum(len(members[x]) for x in range(c))
        q = p + len(members[c])
        lo = cum[p - 1] if p else 0.0
        span[c] = (p, q, lo, cum[q - 1] - lo if q > p else 0.0)

    def endpoint(c, x):
        p, q, lo, total = span[c]
        return order[next((k for k in range(p, q) if cum[k] - lo > x * total), q - 1)]

    blocks = [(c, d, spec.edge_laws[c][d]) for c in range(Q) for d in range(c, Q)]
    if spec.self_loop_laws is not None:
        blocks += [(c, None, law) for c, law in enumerate(spec.self_loop_laws)]
    edges, loops = Counter(), Counter()
    for b, (c, d, law) in enumerate(blocks):
        label = n + 1 + b
        size = len(members[c])
        if isinstance(law, Poisson):
            if law.rate == 0.0:
                continue
            if d is None:
                mean = law.rate * size
            else:
                mean = law.rate * span[c][3] * span[d][3]
                mean = mean / 2.0 if c == d else mean
            if mean == 0.0:
                continue
            parts = math.ceil(mean / 700.0)
            total = sum(poisson(u(label, 3 * i + 2), mean / parts) for i in range(parts))
            for j in range(total):
                if d is None:
                    loops[members[c][min(int(u(label, 3 * j) * size), size - 1)]] += 1
                    continue
                a, z = endpoint(c, u(label, 3 * j)), endpoint(d, u(label, 3 * j + 1))
                if a != z:
                    edges[min(a, z), max(a, z)] += 1
            continue
        if d is None:
            cells = members[c]
        elif c == d:
            cells = list(itertools.combinations(members[c], 2))
        else:
            cells = [(a, z) for a in members[c] for z in members[d]]
        p0 = 1.0 - law.ratio if isinstance(law, Geometric) else float(law.probabilities[0])
        if p0 >= 1.0 or not cells:
            continue
        log_p0 = math.log1p(-law.ratio) if isinstance(law, Geometric) else (
            math.log(p0) if p0 > 0.0 else -math.inf
        )
        t, j = -1, 0
        while True:
            t += 1 + math.floor(math.log1p(-u(label, 3 * j)) / log_p0)
            if t >= len(cells):
                break
            y = int(positive(law, u(label, 3 * j + 1)))
            if d is None:
                loops[cells[t]] = y
            else:
                edges[min(cells[t]), max(cells[t])] = y
            j += 1
    return classes, dict(sorted(edges.items())), dict(sorted(loops.items()))


@pytest.mark.parametrize(
    "spec, seed",
    [pytest.param(TWO_CLASS_ORACLE_SPEC, s, id=str(s)) for s in ORACLE_SEEDS]
    + [pytest.param(ONE_CLASS_ORACLE_SPEC, s, id=f"one_class-{s}") for s in ORACLE_SEEDS]
    + [pytest.param(WEIGHTED_ORACLE_SPEC, s, id=f"weighted-{s}") for s in ORACLE_SEEDS]
    + [pytest.param(GEOMETRIC_ORACLE_SPEC, s, id=f"geometric-{s}") for s in ORACLE_SEEDS]
    + [pytest.param(DENSE_ORACLE_SPEC, s, id=f"dense-{s}") for s in ORACLE_SEEDS]
    + [pytest.param(PARTS_ORACLE_SPEC, s, id=f"parts-{s}") for s in ORACLE_SEEDS[:2]]
    + [pytest.param(HUB_ORACLE_SPEC, s, id=f"hub_heavy-{s}") for s in ORACLE_SEEDS[:3]]
    + [
        pytest.param(spec, s, id=f"{name}-{s}")
        for name, spec in LARGE_RATE_ORACLE_SPECS.items()
        for s in ORACLE_SEEDS[:3]
    ],
)
def test_sample_matches_per_key_scalar_oracle(spec, seed):
    # the scalar keys take any int seed modulo 2**64
    got = sample_graph(spec, seed)
    classes, edges, loops = _scalar_graph(spec, seed)
    assert got.classes == classes
    assert got.edge_counts == edges
    assert got.self_loop_counts == loops


def test_laws_that_never_draw_an_edge_give_empty_hosts():
    # Poisson(0) and Categorical((1.0,)) blocks draw no event, so nothing
    # is drawn
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


def test_zero_rates_draw_nothing_under_overflowing_weights():
    # a zero rate draws no event, also when a weight product is past the
    # float range (a zero rate times it would be nan)
    spec = SbmmSpec(3, 1, (1.0,), ((Poisson(0.0),),), degree_weights=(1e200, 1e200, 1.0))
    for seed in range(5):
        assert sample_graph(spec, seed).edge_counts == {}


def test_one_poisson_inversion_over_mixed_rates_equals_the_per_law_calls():
    # the sampler inverts every Poisson block's part totals in one call,
    # each with its own mean; element for element that must equal one call
    # per mean, also for uniforms next to exp(-rate) or to 1
    rates = [0.0, 1 / 60, 0.05, 2.0, 35.0, 600.0]
    rng = np.random.default_rng(11)
    offsets = (-1e-15, -1e-16, 0.0, 1e-16, 1e-15)
    # exp(-rate) from numpy's exp, as the inversion takes it
    near = [np.exp(-np.full(1, r))[0] + d for r in rates for d in offsets]
    near += [1.0 - d for d in (1e-15, 5e-16, 2e-16, 1e-16)]
    u = np.concatenate((rng.random(2000), near))
    u = u[(u >= 0.0) & (u < 1.0)]  # the range of a keyed uniform
    order = rng.permutation(len(u) * len(rates))
    u_cells = np.tile(u, len(rates))[order]
    rate_cells = np.repeat(rates, len(u))[order]
    got = _poisson_icdf(u_cells, rate_cells)
    for r in rates:
        at = rate_cells == r
        assert (got[at] == _poisson_icdf(u_cells[at], np.full(at.sum(), r))).all(), r
    assert got.max() > 600 and (got == 0).any()


def _scalar_poisson_icdf(x, start, rate):
    """The forward CDF stepping of ``_poisson_icdf`` for one element and
    one step at a time, in Python floats: the same float64 operations in
    the same order.  ``start`` is the element's ``exp(-rate)``, taken by the
    caller from one ``np.exp`` array call as the inversion takes it, since
    ``math.exp`` need not round alike.  Returns the count and whether the
    pmf's underflow to 0, not the CDF, stopped it."""
    pmf = cdf = start
    if not pmf < x:
        return 0, False
    k = 0
    while True:
        k += 1
        pmf *= rate / k
        cdf += pmf
        if not (cdf < x and pmf > 0.0):
            return k, not pmf > 0.0


# the block part means of the Monte Carlo workloads span 0.67 to 46.2;
# 21.7's CDF ends below the largest uniform, 1 - 2**-53
ORACLE_RATES = [1e-9, 1 / 60, 0.67, 5.0, 18.2, 21.7, 46.2, 300.0, 700.0]


def _cdf_steps(start, rate):
    # the CDF after each forward step, until the pmf underflows to 0
    pmf = cdf = start
    steps, k = [cdf], 0
    while pmf > 0.0:
        k += 1
        pmf *= rate / k
        cdf += pmf
        steps.append(cdf)
    return steps


def test_poisson_inversion_equals_the_scalar_oracle_at_every_boundary():
    # uniforms on both sides of CDF steps spread over each rate's support,
    # near 1, and past the CDF's last value, where only the pmf's underflow
    # to 0 stops the stepping; all rates in one call, mixed, so that the
    # rounds' grouping of elements must change no value
    starts = np.exp(-np.array(ORACLE_RATES))
    rng = np.random.default_rng(31)
    cells = []
    for rate, start in zip(ORACLE_RATES, starts.tolist()):
        steps = _cdf_steps(start, rate)
        picks = sorted(set(np.linspace(0, len(steps) - 1, 40).astype(int).tolist()))
        near = [steps[k] for k in picks] + [1.0, np.nextafter(steps[-1], 2.0)]
        near += [1.0 - d for d in (1e-15, 2e-16, 1e-16)]
        for x in near:
            for y in (np.nextafter(x, -1.0), x, np.nextafter(x, 2.0)):
                if 0.0 <= y < 1.0:
                    cells.append((float(y), rate, start))
        cells += [(float(y), rate, start) for y in rng.random(200)]
    order = rng.permutation(len(cells))
    u, rates, start = (np.array(col)[order] for col in zip(*cells))
    got = _poisson_icdf(u, rates).tolist()
    want = [
        _scalar_poisson_icdf(x, s, r)
        for x, r, s in zip(u.tolist(), rates.tolist(), start.tolist())
    ]
    assert got == [k for k, _ in want]
    # the pmf's stop is reached, and the counts span the largest rate's tail
    assert any(underflow for _, underflow in want)
    assert max(got) > 900 and min(got) == 0


def test_poisson_inversion_memory_follows_its_round_budget():
    # 10**5 parts of mean 700: one table over all of their ~810 forward
    # steps would take 650 MB.  A round holds at most _ICDF_ENTRIES table
    # entries (8 MB of floats) plus one row, and two boolean masks over
    # them; each part keeps about ten words of its own (u, rate, pmf, CDF,
    # its index and count, and their copies as rounds drop finished parts).
    # Measured: 15 MB
    parts = 10**5
    rng = np.random.default_rng(5)
    u, rates = rng.random(parts), np.full(parts, 700.0)
    tracemalloc.start()
    try:
        got = _poisson_icdf(u, rates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * model._ICDF_ENTRIES + 80 * parts, peak
    (start,) = np.exp(-np.array([700.0])).tolist()
    for i in rng.choice(parts, 200, replace=False).tolist():
        assert got[i] == _scalar_poisson_icdf(float(u[i]), start, 700.0)[0], i


def _shared_rates(rng):
    # 3 * 10**4 parts over three block part means
    return rng.random(3 * 10**4), rng.choice([0.67, 21.7, 700.0], 3 * 10**4)


def _wide_and_narrow(rng):
    # supports of a few steps and of about a thousand in one call; the CDFs
    # of 0.1 and 21.7 end below the largest uniform, so that those rates
    # stop on their pmf's underflow while the wide ones step on
    rates = np.repeat([1e-9, 0.05, 0.1, 21.7, 300.0, 700.0], 400)
    u = rng.random(len(rates))
    u[::7] = 1.0 - 2.0**-53
    return u, rates


@pytest.mark.parametrize("entries", [None, 64])
@pytest.mark.parametrize("case", [_shared_rates, _wide_and_narrow])
def test_poisson_inversion_steps_each_distinct_rate_once(case, entries, monkeypatch):
    # parts that share a rate read one CDF column; a column that closes
    # drops out of the later rounds while the others step on.  A budget of
    # 64 table entries makes rounds of a few steps, which close columns in
    # many rounds
    if entries:
        monkeypatch.setattr(model, "_ICDF_ENTRIES", entries)
    rng = np.random.default_rng(17)
    u, rates = case(rng)
    got = _poisson_icdf(u, rates)
    distinct = sorted(set(rates.tolist()))
    starts = dict(zip(distinct, np.exp(-np.array(distinct)).tolist()))
    check = rng.choice(len(u), 400, replace=False)
    check = np.concatenate((check, np.flatnonzero(u == u.max())[:50]))
    underflows = 0
    for i in check.tolist():
        x, r = float(u[i]), float(rates[i])
        want, underflow = _scalar_poisson_icdf(x, starts[r], r)
        assert got[i] == want, (x, r)
        underflows += underflow
    assert (underflows > 0) == (case is _wide_and_narrow)
    # grouping changes no value: the same parts, one at a time per rate
    for r in distinct:
        at = np.flatnonzero(rates == r)
        assert (got[at] == _poisson_icdf(u[at], rates[at])).all(), r


def test_a_block_mean_past_two_to_the_53_is_refused():
    # every pair mean is at most 1e-100, but one weight of 1e200 puts the
    # within-class block's mean (ordered pairs, the dropped diagonal too)
    # near 1e100 events: no host is drawn, and the draw says why
    spec = SbmmSpec(
        3, 1, (1.0,), ((Poisson(1e-300),),), degree_weights=(1e200, 1e-200, 1.0)
    )
    with pytest.raises(ValueError, match="block mean too large"):
        sample_graph(spec, 0)


# weights spread over [0.5, 2], interleaved over the vertex labels
PINNED_WEIGHTED_SPEC = SbmmSpec(
    60, 2, (0.5, 0.5),
    ((Poisson(3 / 60), Poisson(1 / 60)), (Poisson(1 / 60), Poisson(3 / 60))),
    degree_weights=tuple(0.5 + 1.5 * ((7 * i) % 60) / 59 for i in range(60)),
)


def test_weighted_streams_match_the_pinned_draws():
    # literals drawn when the block sampler was written (its classes are
    # those of every earlier sampler): a change to the recipe, the streams
    # or the weighted endpoint picks shows here, bit for bit
    _, hist = monte_carlo_pmf(PINNED_WEIGHTED_SPEC, pattern_from_name("triangle"), 300, 7)
    assert hist == {
        0: 1, 1: 7, 2: 15, 3: 17, 4: 37, 5: 31, 6: 28, 7: 31, 8: 17, 9: 26,
        10: 27, 11: 17, 12: 8, 13: 15, 14: 8, 15: 5, 16: 4, 17: 2, 18: 1,
        19: 2, 27: 1,
    }
    graph = sample_graph(PINNED_WEIGHTED_SPEC, 7)
    twos = {(8, 15): 2, (17, 34): 2, (21, 53): 2, (41, 47): 2}
    ones = [
        (0, 50), (1, 22), (1, 33), (1, 37), (1, 56), (3, 6), (3, 52), (4, 8),
        (4, 39), (4, 51), (5, 17), (5, 23), (6, 31), (6, 49), (7, 15), (7, 25),
        (7, 41), (8, 29), (8, 40), (8, 44), (12, 25), (13, 23), (13, 29),
        (13, 44), (13, 51), (14, 48), (15, 37), (15, 58), (16, 19), (16, 40),
        (16, 42), (17, 24), (17, 32), (17, 46), (17, 57), (17, 58), (18, 40),
        (18, 52), (19, 50), (20, 24), (21, 24), (21, 25), (21, 29), (22, 25),
        (22, 31), (22, 40), (22, 51), (23, 29), (23, 51), (23, 56), (24, 52),
        (25, 31), (25, 53), (28, 34), (28, 50), (30, 48), (32, 34), (33, 54),
        (33, 57), (34, 57), (37, 39), (37, 59), (40, 53), (40, 57), (41, 50),
        (42, 44), (47, 49), (47, 56), (49, 53), (50, 53), (57, 58), (58, 59),
    ]
    assert graph.edge_counts == dict(sorted({**dict.fromkeys(ones, 1), **twos}.items()))
    assert "".join(map(str, graph.classes)) == (
        "111011111101110100010111011101010001111111011101011101101000"
    )


def test_class_frequencies_match_f():
    spec = SbmmSpec(400, 3, (0.2, 0.3, 0.5), ((Poisson(0.1),) * 3,) * 3)
    counts = [0, 0, 0]
    for seed in range(50):
        for c in sample_graph(spec, seed).classes:
            counts[c] += 1
    total = sum(counts)
    res = stats.chisquare(counts, [f * total for f in spec.f])
    assert res.pvalue > 1e-3, (counts, res)


@pytest.mark.parametrize("Q", [1, 2, 3, 5, 8, 9, 17, 256, 257])
def test_class_bisection_equals_searchsorted(Q):
    # the class draw's branchless bisection over the running class weights
    # counts the cuts at or below each uniform, as searchsorted does: on
    # random uniforms, on every cut and its neighbouring floats, and on
    # runs of cuts tied because a weight of 1e-18 does not move the sum
    rng = np.random.default_rng(Q)
    f = rng.random(Q)
    f[1::4] = 1e-18
    cuts = np.cumsum(f / f.sum())[:-1]
    assert Q < 5 or (np.diff(cuts) == 0.0).any()
    edge = np.concatenate((cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf)))
    u = np.concatenate(([0.0, np.nextafter(1.0, 0.0)], edge, rng.random(5000)))
    table = model._padded_cuts(cuts)
    assert len(table) & (len(table) - 1) == 0 and len(table) > len(cuts)
    got = model._bisect_right(table, u)
    assert np.array_equal(got, np.searchsorted(cuts, u, side="right"))


def _while_loop_search(cum, g, width, base, target):
    """The weighted endpoint search as a data-dependent loop of numpy rounds
    over the elements whose range is still open: the least k in ``[g, g +
    width - 1)`` with ``cum[k] - base > target``, else ``g + width - 1``."""
    left, right = g.copy(), g + width - 1
    while (open_ := np.flatnonzero(left < right)).size:
        mid = (left[open_] + right[open_]) // 2
        up = cum[mid] - base[open_] <= target[open_]
        left[open_] = np.where(up, mid + 1, left[open_])
        right[open_] = np.where(up, right[open_], mid)
    return left


@pytest.mark.parametrize("seed", range(4))
def test_shared_bisection_equals_the_while_loop_search(seed):
    # the sampler's weighted endpoint search, model._bisect_steps called as
    # pick calls it, against the loop it replaced: running sums with ties
    # (weights too small to move the sum), ranges of length 0 and 1, targets
    # equal to an entry of their range, and an empty input
    rng = np.random.default_rng(seed)
    weights = rng.pareto(1.0, 400) + 1e-3
    weights[rng.random(400) < 0.2] = 1e-18
    cum = np.cumsum(weights)
    assert (np.diff(cum) == 0.0).any()

    def shared(g, width, base, target):
        def test(v):
            return v - base <= target

        return g + model._bisect_steps(width - 1, cum, lambda s: g + s - 1, test)

    g = rng.integers(0, 400, 4000)
    width = rng.integers(0, 401 - g)
    width[:100], width[100:200] = 0, 1
    base = np.where(g > 0, cum[g - 1], 0.0)
    target = rng.random(len(g)) * np.where(width > 0, cum[g + width - 1] - base, 0.0)
    at = np.flatnonzero(width > 1)[:1000]
    target[at] = cum[g[at] + rng.integers(0, width[at])] - base[at]
    got = shared(g, width, base, target)
    assert np.array_equal(got, _while_loop_search(cum, g, width, base, target))
    assert (got[:200] == g[:200]).all()
    empty, none = np.zeros(0, dtype=np.int64), np.zeros(0)
    assert shared(empty, empty, none, none).size == 0
    assert _while_loop_search(cum, empty, empty, none, none).size == 0


def test_classes_past_a_byte_follow_their_uniforms():
    # 257 classes take uint16; each vertex's class is the number of running
    # class weights at or below its own uniform u(0, i + 1).  Half the
    # weight on the last class puts vertices past a byte
    Q, n, seeds = 257, 300, (3, 4)
    f = (0.5 / 256,) * 256 + (0.5,)
    spec = SbmmSpec(n, Q, f, ((Poisson(0.0),) * Q,) * Q)
    cuts = np.cumsum(f)[:-1]
    keys = np.array(seeds, dtype=np.uint64)
    classes = model._sampler(spec)(keys)[0]
    assert classes.dtype == np.uint16
    for row, seed in zip(classes, seeds):
        u = [uniform_from_key(substream_key(seed, 0, i + 1)) for i in range(n)]
        assert np.array_equal(row, np.searchsorted(cuts, u, side="right"))
        assert row.max() == 256 and row.min() < 255


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


def test_within_class_walk_follows_combinations_order():
    # with P(0) = 0 every cell carries an event: event j sits on pair j of
    # combinations(members, 2) and its value inverts the uniform of stream
    # (seed, n + 1, 3 j + 1), the one pair block's label being n + 1
    n, law = 6, Categorical((0.0, 0.5, 0.3, 0.2))
    spec = SbmmSpec(n, 1, (1.0,), ((law,),))
    for seed in range(5):
        want = {}
        for j, pair in enumerate(itertools.combinations(range(n), 2)):
            x = uniform_from_key(substream_key(seed, n + 1, 3 * j + 1))
            want[pair] = 1 if x < 0.5 else 2 if x < 0.8 else 3
        assert sample_graph(spec, seed).edge_counts == want


def test_block_mean_past_the_inversion_limit_draws_its_edges():
    # one class of 400 vertices at Poisson(0.01): the block's mean 798 is
    # past exp(-mean)'s range, so its total is drawn in two parts.  The
    # hosts' edge totals are Poisson(798) each, so by Chebyshev the mean of
    # 100 lies within sqrt(798 / 100 / 0.01) = 28.2 of 798 with
    # probability at least 0.99 (one part, exp(-800) = 0, would give 1)
    spec = SbmmSpec(400, 1, (1.0,), ((Poisson(0.01),),))
    want = 0.01 * 400 * 399 / 2
    totals = [sum(sample_graph(spec, seed).edge_counts.values()) for seed in range(100)]
    assert abs(sum(totals) / 100 - want) <= math.sqrt(want / 100 / 0.01)


def _pearson(values, law, draws):
    """Pearson's statistic and degrees of freedom of ``draws`` values
    against ``law``, one bin per value while its expected count is at least
    5, then one bin for the rest."""
    seen, observed, expected = Counter(values), [], []
    while (e := pmf_tail(law, len(observed))[0] * draws) >= 5:
        observed.append(seen[len(observed)])
        expected.append(e)
    rest = draws - sum(observed)
    if draws - math.fsum(expected) > 1e-9 * draws:
        observed.append(rest)
        expected.append(draws - math.fsum(expected))
    else:
        assert rest == 0
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected)), len(observed) - 1


# one class of 6 vertices per case, pair and loop laws of each kind; the
# per-cell law of pair (i, j) is its law with rate theta_i theta_j w
CHI_SQUARE_CASES = {
    "poisson": SbmmSpec(
        6, 1, (1.0,), ((Poisson(0.6),),), self_loop_laws=(Geometric(0.3),)
    ),
    "categorical": SbmmSpec(
        6, 1, (1.0,), ((Categorical((0.5, 0.3, 0.2)),),), self_loop_laws=(Poisson(0.4),)
    ),
    "geometric": SbmmSpec(
        6, 1, (1.0,), ((Geometric(0.45),),),
        self_loop_laws=(Categorical((0.6, 0.3, 0.1)),),
    ),
    "degree_weighted": SbmmSpec(
        6, 1, (1.0,), ((Poisson(0.5),),),
        degree_weights=(0.4, 0.8, 1.0, 1.3, 1.7, 2.2), self_loop_laws=(Poisson(0.3),),
    ),
}
# cell pairs tested for independence, no cell in two of them: pairs that
# share a vertex, neighbours in the walk's order, and loops
INDEPENDENT_CELLS = [
    ((0, 1), (0, 2)), ((1, 2), (1, 3)), ((2, 3), (4, 5)), ((0, 0), (0, 3)), ((4, 4), (5, 5)),
]


@pytest.mark.parametrize("case", sorted(CHI_SQUARE_CASES))
def test_cells_follow_their_laws_independently(case):
    # 1,000 seeded hosts.  Every pair and loop cell's counts against its
    # law, and the joint counts (capped at 2) of the cell pairs above
    # against independence: each statistic sums independent Pearson
    # statistics, tested at level 1e-3 against its chi-square law
    spec, draws = CHI_SQUARE_CASES[case], 1000
    graphs = [sample_graph(spec, seed) for seed in range(draws)]

    def cell(g, a, b):
        return g.self_loop_counts.get(a, 0) if a == b else g.edge_counts.get((a, b), 0)

    total = dof = 0
    theta = spec.degree_weights or (1.0,) * spec.n
    for a, b in itertools.combinations_with_replacement(range(spec.n), 2):
        law = spec.self_loop_laws[0] if a == b else spec.edge_laws[0][0]
        if isinstance(law, Poisson) and a != b:
            law = Poisson(theta[a] * theta[b] * law.rate)
        stat, k = _pearson([cell(g, a, b) for g in graphs], law, draws)
        total, dof = total + stat, dof + k
    assert stats.chi2.sf(total, dof) > 1e-3, (total, dof)
    total = dof = 0
    for first, second in INDEPENDENT_CELLS:
        table = np.zeros((3, 3))
        for g in graphs:
            table[min(cell(g, *first), 2), min(cell(g, *second), 2)] += 1
        table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
        stat, _, k, _ = stats.chi2_contingency(table, correction=False)
        total, dof = total + stat, dof + k
    assert stats.chi2.sf(total, dof) > 1e-3, (total, dof)


def test_cross_class_cells_follow_their_laws():
    # two classes, a Poisson law within one, a categorical law across and
    # a geometric law within the other.  Given the classes the cells are
    # independent, so each law's cells pooled over 1,000 hosts are its
    # draws; the summed statistic is tested at level 1e-3
    poisson, across, geometric = Poisson(0.5), Categorical((0.4, 0.35, 0.25)), Geometric(0.3)
    spec = SbmmSpec(6, 2, (0.5, 0.5), ((poisson, across), (across, geometric)))
    pooled = {poisson: [], across: [], geometric: []}
    for seed in range(1000):
        g = sample_graph(spec, seed)
        for a, b in itertools.combinations(range(spec.n), 2):
            law = spec.edge_laws[g.classes[a]][g.classes[b]]
            pooled[law].append(g.edge_counts.get((a, b), 0))
    total = dof = 0
    for law, values in pooled.items():
        stat, k = _pearson(values, law, len(values))
        total, dof = total + stat, dof + k
    assert stats.chi2.sf(total, dof) > 1e-3, (total, dof)


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


def test_model_extrema_q2_star_past_the_tail_underflow():
    # P(Y >= 2) under Poisson(800) is 1, though exp(-800) underflows
    spec = SbmmSpec(5, 1, (1.0,), ((Poisson(800.0),),))
    assert model_extrema(spec, pattern_from_name("triangle")).q2_star == 1.0


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
    # one weighted vertex has no pair to take a maximum over
    lone = SbmmSpec(1, 1, (1.0,), ((Poisson(0.3),),), degree_weights=(2.0,))
    with pytest.raises(ValueError, match="degree weights need at least two vertices"):
        model_extrema(lone, PatternGraph(1, {}, {0: 1}))


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


# refusal -> (message, dict-built graph or None, edge-list text or None):
# the graph constructor and the text reader check through one validator
REFUSALS = {
    "loop among the pairs": (
        "self-loops belong in self_loop_counts",
        lambda: ObservedMultigraph(3, {(0, 1): 1, (1, 1): 1}),
        None,
    ),
    "pair out of range": (
        "pair (3,0) outside vertex range 0..2",
        lambda: ObservedMultigraph(3, {(0, 1): 1, (3, 0): 1}),
        "# n 3\n0 1 1\n3 0 1\n",
    ),
    "negative count": (
        "edge counts must be nonnegative",
        lambda: ObservedMultigraph(3, {(0, 1): -2}),
        "0 1 -2\n",
    ),
    "pair twice": (
        "pair (0, 1) appears twice",
        lambda: ObservedMultigraph(3, {(0, 1): 1, (1, 2): 1, (1, 0): 2}),
        "0 1 1\n1 2 1\n1 0 2\n",
    ),
    "loop vertex out of range": (
        "vertex 3 outside range 0..2",
        lambda: ObservedMultigraph(3, {}, {1: 1, 3: 1}),
        "# n 3\n1 1 1\n3 3 1\n",
    ),
    "negative loop count": (
        "self-loop counts must be nonnegative",
        lambda: ObservedMultigraph(3, {}, {1: -1}),
        "0 1 1\n1 1 -1\n",
    ),
    "loop twice": ("self-loop count for vertex 1 appears twice", None, "1 1 1\n1 1 2\n"),
    "classes length": (
        "classes has 2 entries, expected n=3",
        lambda: ObservedMultigraph(3, {}, classes=(0, 1)),
        "# n 3\n# classes 0 1\n0 1 1\n",
    ),
    "bad line": ("bad edge-list line: '0 1'", None, "0 2 1\n0 1\n"),
    "fractional text count": ("bad edge-list line: '0 1 2.5'", None, "0 2 1\n0 1 2.5\n"),
    "word in a text line": ("bad edge-list line: '0 1 x'", None, "0 1 x\n"),
    "word in the classes header": (
        "bad '# classes' header, not integers: '# classes 0 x'",
        None,
        "# n 2\n# classes 0 x\n0 1 1\n",
    ),
    # counts are integers: a bool, a string or a fractional part is refused
    # rather than truncated
    "fractional n": ("n must be an integer, got 3.5", lambda: ObservedMultigraph(3.5, {}), None),
    "negative n": ("n must be nonnegative", lambda: ObservedMultigraph(-1, {}), None),
    "fractional count": (
        "edge counts must be integers, got 2.9",
        lambda: ObservedMultigraph(3, {(0, 1): 2.9}),
        None,
    ),
    "bool count": (
        "edge counts must be integers, got True",
        lambda: ObservedMultigraph(3, {(0, 1): 1, (1, 2): True}),
        None,
    ),
    "fractional pair end": (
        "pair ends must be integers, got 1.5",
        lambda: ObservedMultigraph(3, {(0, 1.5): 1}),
        None,
    ),
    "bool loop vertex": (
        "self-loop vertices must be integers, got True",
        lambda: ObservedMultigraph(3, {}, {True: 1}),
        None,
    ),
    "fractional loop count": (
        "self-loop counts must be integers, got 0.5",
        lambda: ObservedMultigraph(3, {}, {1: 0.5}),
        None,
    ),
    "string class": (
        "classes must be integers, got '1'",
        lambda: ObservedMultigraph(2, {}, classes=(0, "1")),
        None,
    ),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_graph_and_text_refusals_keep_their_messages(name):
    message, build, text = REFUSALS[name]
    if build is not None:
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
    if text is not None:
        with pytest.raises(ValueError, match=re.escape(message)):
            graph_from_text(text)


def _random_host(rng, n, loops, classes, big):
    # pairs given in shuffled order, either way round; counts up to ``big``
    counts = [1, 2, 3, big] if big else [1, 2, 3]
    pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.3]
    rng.shuffle(pairs)
    edges = {(p if rng.random() < 0.5 else p[::-1]): rng.choice(counts) for p in pairs}
    looped = {w: rng.choice(counts) for w in range(n) if loops and rng.random() < 0.3}
    labels = [rng.randrange(3) for _ in range(n)] if classes else None
    return ObservedMultigraph(n, edges, looped, classes=labels), edges, looped


@pytest.mark.parametrize("big", [None, 2**63 - 1, 2**64 + 7])
@pytest.mark.parametrize("loops", [False, True])
@pytest.mark.parametrize("classes", [False, True])
def test_graph_text_round_trips_random_hosts(big, loops, classes):
    rng = random.Random(f"{big} {loops} {classes}")
    for _ in range(20):
        g, edges, looped = _random_host(rng, rng.randint(1, 25), loops, classes, big)
        assert g.edge_counts == dict(sorted((tuple(sorted(p)), y) for p, y in edges.items()))
        assert g.self_loop_counts == dict(sorted(looped.items()))
        text = graph_to_text(g)
        back = graph_from_text(text)
        assert back == g
        assert (back.n, back.edge_counts, back.self_loop_counts, back.classes) == (
            g.n,
            g.edge_counts,
            g.self_loop_counts,
            g.classes,
        )
        assert graph_to_text(back) == text
        for x in ("a", "b", "y", "loops"):
            assert np.array_equal(getattr(back, x), getattr(g, x))
            assert getattr(back, x).dtype == getattr(g, x).dtype


def test_sampled_million_vertex_host_costs_follow_its_arrays():
    # about 10^6 edges on 10^6 vertices: the host is held as the sampler's
    # arrays.  Measured: sample_graph peaks at 101 MB traced and holds the
    # host in 38 MB, count_copies (a triangle, which reads each pair from
    # its lower vertex only) peaks 39 MB above it; with a dict of the pairs
    # in between they took 430 MB, 162 MB and 152 MB
    n = 10**6
    same, cross = Poisson(3 / n), Poisson(1 / n)
    spec = SbmmSpec(n, 2, (0.5, 0.5), ((same, cross), (cross, same)))
    tracemalloc.start()
    try:
        graph = sample_graph(spec, 7)
        sample_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        got = count_copies(graph, pattern_from_name("triangle"))
        count_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(graph.y) > 0.9 * n and got >= 0
    assert sample_peak < 200 * 2**20, sample_peak
    assert count_peak < 200 * 2**20, count_peak


@pytest.mark.parametrize("header", ["# n", "#n", "# n 4 5", "# n four"])
def test_graph_text_rejects_an_n_header_without_one_integer(header):
    with pytest.raises(ValueError, match="'# n' header") as err:
        graph_from_text(f"{header}\n0 1 1\n")
    assert repr(header) in str(err.value)
