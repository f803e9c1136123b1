"""Compound-Poisson approximation of pattern counts, with error bounds.

The total pattern count W is a sum, over vertex sets and placements, of
copy counts that cluster: all copies sharing one vertex set succeed or fail
together, in "clumps".  W is therefore approximated by a compound Poisson
law CP(lambda) in which lambda_i is the expected number of vertex sets
carrying exactly i copies.

How the clump rates are computed
--------------------------------
For one fixed set S of v pattern-many vertices, let Z be the number of
copies of the pattern supported on exactly S.  Summing the copy indicators
over the placements on S and conditioning on clump size i gives
``E[Z * 1(Z = i)] = i * P(Z = i)``, so the expected number of size-i clumps
contributed by S is ``P(Z = i)``; multiplying by the number of vertex sets
(all sets are exchangeable) yields

    lambda_i = C(n, v) * P(Z = i).

``lambda_params`` evaluates P(Z = i) exactly by enumerating class
assignments of S and all edge configurations on its pairs (and self-loop
slots), truncating each infinite-support law at a certified tail threshold
and reporting the neglected mass.  Z is unchanged when the vertices of S
are relabelled or twin classes (whose swap keeps every law) are swapped,
so the float path walks only the canonical class assignments, one shape
of class counts per twin set, sums the weights of equal keys, and walks
each key's configuration grid once, in fixed-size numpy chunks
(``counting._count_law``).  Each chunk is scored
as a product grid: a trailing sub-grid of slots carries its probability
columns and per-placement binomial products, built once per grid, and
the chunk's few leading-slot rows are broadcast against it, so
probabilities are slot-by-slot broadcast products and clump sizes sums of
outer products; masses go per clump size into a dense ``np.bincount``
histogram while sizes are small.  This walk
(``_host_law``) gives the law of the copy count on any number m of random
vertices: m = v here, and m = n for ``experiments.exact_count_pmf``, under
one size guard that bounds both the canonical assignments it walks and
the configurations of the grids it scores.  The ``exact=True`` path
keeps a plain loop over every class assignment and configuration in
rational arithmetic and serves as the float path's oracle.

The total-variation error bounds come in seven variants (named in
``tv_bound``), each a closed form in the pattern's structural exponents and
the model's extreme moments; all but ``regime_corpn`` share one shape
(``_shell``) and differ only in the factors they feed it.  Each variant
checks all its hypotheses before ``c`` is taken, and takes ``c`` before the
value.  The multiplicative constant ``c(lambda)`` is
taken from its generic upper bound ``exp(lambda) * min(1, 1/lambda_1)``
unless overridden, and the Poisson-limit variants use the sharper factor
``(1 - exp(-nu)) / nu`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, islice, product

import numpy as np

from ._checks import as_int, as_real
from .counting import _copy_terms, _count_law, clump_size
from .distributions import (
    Categorical,
    _pmf,
    binomial_moment,
    moment,
    pmf_tail,
    truncation_bound,
)
from .model import ModelExtrema, SbmmSpec, model_extrema
from .patterns import PatternGraph, balancedness_profile, kappa, rho

__all__ = [
    "CompoundPoissonParams",
    "BoundReport",
    "PreconditionError",
    "InfeasibleError",
    "BOUND_VARIANTS",
    "occurrence_mean",
    "expected_count",
    "lambda_params",
    "cp_pmf",
    "c_lambda_upper",
    "poisson_c_factor",
    "tv_bound",
]

BOUND_VARIANTS = (
    "thm31_simple",
    "cor35_inhom",
    "thm41_multi",
    "thm51_selfloop",
    "thm52_poisson_approx",
    "cor55_poisson_sbm",
    "regime_corpn",
)

# bound variants whose reference law is Poisson(nu) rather than CP(lambda)
POISSON_REFERENCE_VARIANTS = ("thm52_poisson_approx", "cor55_poisson_sbm")

CLUMP_ENUMERATION_LIMIT = 5_000_000

# default truncation tolerance of the clump-rate enumeration
DEFAULT_EPS = 1e-10


class PreconditionError(ValueError):
    """A bound variant's hypothesis fails for this (model, pattern) input."""


class InfeasibleError(ValueError):
    """An exact enumeration would exceed the configured size limit, or a
    reference law's total rate is too large for float64 (its P(0) underflows
    to 0.0)."""


@dataclass(frozen=True)
class CompoundPoissonParams:
    """Clump rates lambda_1..lambda_imax of a compound Poisson law.

    ``truncation_mass`` certifies an upper bound on the total rate beyond
    ``imax`` that the truncated enumeration may have missed; ``total`` is
    the enumerated ``sum(lam)``.  Entries are floats on the default path
    and exact Fractions on the rational path.
    """

    lam: tuple
    imax: int
    truncation_mass: float
    total: float


@dataclass(frozen=True)
class BoundReport:
    """A total-variation bound value plus every constant that built it.

    ``params`` holds the clump rates enumerated for ``c(lambda)``, or None
    when the variant takes ``c`` from elsewhere (or needs none);
    ``extrema`` the model extrema the bound was built from.
    """

    variant: str
    value: float
    ingredients: dict
    params: CompoundPoissonParams | None = None
    extrema: ModelExtrema | None = None


# -- means -------------------------------------------------------------------


def _require_plain(spec: SbmmSpec, what: str) -> None:
    if spec.degree_weights is not None:
        raise PreconditionError(
            f"{what} requires identically distributed pair counts, but the "
            "model has degree weights (per-placement means are not constant)"
        )


def _require_fit(spec: SbmmSpec, pattern: PatternGraph, prefix: str = "") -> None:
    v, n = pattern.vertex_count, spec.n
    if v > n:
        raise PreconditionError(
            f"{prefix}pattern has {v} vertices but the model only {n}"
        )


def occurrence_mean(spec: SbmmSpec, pattern: PatternGraph) -> float:
    """Expected copy count contributed by one placement on one vertex set.

    Sums, over the class assignments of the pattern's vertices, the product
    of ``f`` per vertex, ``E[C(Y, multiplicity)]`` per pattern pair and
    ``E[C(S, loops)]`` per self-loop vertex, one vertex at a time: each step
    sums out the vertex whose factors touch the fewest others (lowest index
    first), so the cost is O(v Q^(w+1)) for elimination width w (2 for cycles
    and paths).  A pattern with self-loops has mean 0 under a model without
    self-loop laws.
    """
    _require_plain(spec, "the occurrence mean")
    if pattern.self_loops and spec.self_loop_laws is None:
        return 0.0
    left = list(range(pattern.vertex_count))
    factors = [((w,), np.array(spec.f, dtype=float)) for w in left]
    for m in set(pattern.edge_mult.values()):
        pair = np.array([[binomial_moment(law, m) for law in row] for row in spec.edge_laws])
        factors += [(s, pair) for s, k in pattern.edge_mult.items() if k == m]
    for w, k in pattern.self_loops.items():
        loop = [binomial_moment(law, k) for law in spec.self_loop_laws]
        factors.append(((w,), np.array(loop)))
    while left:
        reach = {w: {x for s, _ in factors if w in s for x in s} - {w} for w in left}
        w = min(left, key=lambda x: len(reach[x]))
        left.remove(w)
        out = sorted(reach[w])
        # local einsum labels (it takes at most 52): 0 for w, 1.. for the rest
        label = {x: k for k, x in enumerate([w, *out])}
        operands = [op for s, t in factors if w in s for op in (t, [label[x] for x in s])]
        factors = [(s, t) for s, t in factors if w not in s]
        factors.append((tuple(out), np.einsum(*operands, list(range(1, len(out) + 1)))))
    return float(math.prod(t for _, t in factors))


def expected_count(spec: SbmmSpec, pattern: PatternGraph) -> float:
    """Expected total number of copies: C(n, v) * rho * occurrence mean."""
    _require_fit(spec, pattern)
    v = pattern.vertex_count
    return math.comb(spec.n, v) * rho(pattern) * occurrence_mean(spec, pattern)


# -- clump rates --------------------------------------------------------------


def _check_walk(sizes, limit: int, what: str) -> None:
    """Raise :class:`InfeasibleError` if a walk exceeds ``limit`` configurations.

    ``sizes`` yields the configuration count of each grid walked.
    Counting stops once the sum passes the limit, so a refusal is cheap; if
    grids remain, the message names the limit, not a partial sum.
    """
    sizes = iter(sizes)
    total = 0
    for size in sizes:
        total += size
        if total > limit:
            walked = total if next(sizes, None) is None else f"more than {limit}"
            raise InfeasibleError(
                f"{what} walks {walked} configurations (limit {limit})"
            )


def _grid_key(laws, loops, runs) -> tuple:
    """The slot laws of a sorted class assignment's grid: ``laws[c][d]``
    for each vertex pair in ``combinations`` order, then ``loops[c]`` for
    each vertex when ``loops`` is not None.

    ``runs`` gives the assignment as ``(class, count)`` runs in class
    order.  The pairs of a vertex in a run of class c with t more vertices
    of c after it take ``laws[c][c]`` t times, then ``laws[c][d]`` once for
    each vertex of every later run d, so the key is built from those runs
    of equal laws rather than from its C(m, 2) pairs one at a time.
    """
    key = []
    for i, (c, k) in enumerate(runs):
        later = []
        for d, count in runs[i + 1 :]:
            later += [laws[c][d]] * count
        same = laws[c][c]
        for t in reversed(range(k)):
            key += [same] * t
            key += later
    if loops is not None:
        for c, k in runs:
            key += [loops[c]] * k
    return tuple(key)


def _whole_support(law) -> int:
    """A categorical law's largest value: the cap that neglects nothing."""
    if not isinstance(law, Categorical):
        raise PreconditionError(f"exact enumeration requires categorical laws, not {law!r}")
    return len(law.probabilities) - 1


def _host_law(spec, pattern, m: int, cap, limit: int, what: str):
    """Law of the copy count on ``m`` random vertices, and the neglected mass.

    A class assignment's grid has one slot per vertex pair (in
    ``combinations`` order), then one per vertex loop when the pattern has
    loops; a slot with law ``law`` takes the values ``0..cap(law)``.  The
    grid's law is unchanged when the vertices are relabelled or twin
    classes (whose swap keeps every law) are swapped, so only canonical
    assignments are walked: a twin set's counts, sorted largest first (its
    *shape*), go to its classes in index order.  One pass over each twin
    set's classes tabulates its shapes and their summed weights, and the
    walk picks one shape per set, the sizes adding up to ``m``.  Each key
    (a grid's slot-law sequence) is scored once under its summed weight.
    The neglected mass is the union bound, over slots, on some slot
    exceeding its cap.

    Refuses, before any shape is tabulated or any pmf table built, more
    than ``limit`` canonical assignments (counted as partitions per twin
    set) and a walk whose smallest grid, ``s^C(m, 2)`` for the smallest
    truncated pair support s, alone passes ``limit``; then grids of more
    than ``limit`` configurations in all (``_check_walk``), each key's grid
    counted when the walk first finds it, so the count is what is scored.
    """
    # each distinct law's support size, cap + 1, the law named by its index
    sizes, ids = [], {}

    def law_id(law):
        if law not in ids:
            ids[law] = len(sizes)
            sizes.append(cap(law) + 1)
        return ids[law]

    Q = spec.Q
    laws = [[law_id(law) for law in row] for row in spec.edge_laws]
    loops = [law_id(law) for law in spec.self_loop_laws] if pattern.self_loops else None

    def twins(c, d):
        return (
            laws[c][c] == laws[d][d]
            and (loops is None or loops[c] == loops[d])
            and all(laws[c][x] == laws[d][x] for x in range(Q) if x not in (c, d))
        )

    # twin sets, each under its first class
    sets: dict[int, list[int]] = {}
    for c in range(Q):
        sets.setdefault(next((d for d in sets if twins(d, c)), c), []).append(c)

    # the canonical assignments: x^m in the product, over twin sets, of the
    # shape counts by size, the partitions of size s into at most |set| parts
    keyed = [1] + [0] * m
    for twin_set in sets.values():
        shapes = [1] + [0] * m
        for part in range(1, len(twin_set) + 1):
            for size in range(part, m + 1):
                shapes[size] += shapes[size - part]
        keyed = [sum(keyed[j] * shapes[s - j] for j in range(s + 1)) for s in range(m + 1)]
    if keyed[m] > limit:
        raise InfeasibleError(
            f"{what} keys {keyed[m]} canonical class assignments (limit {limit})"
        )
    # every grid has C(m, 2) pair slots of at least the smallest support, so
    # a walk whose one grid would pass the limit is refused before any twin
    # set's shapes are tabulated
    least, grid = min(sizes[law] for row in laws for law in row), math.comb(m, 2)
    if least > 1 and (grid >= limit.bit_length() or least**grid > limit):
        raise InfeasibleError(
            f"{what} walks more than {limit} configurations (limit {limit})"
        )

    # per twin set and size, its shapes' classes and weights: a class that
    # takes k more vertices multiplies by C(prefix + k, k) f^k, so the
    # orderings of the set's vertices stay exact integers
    by_set = []
    for twin_set in sets.values():
        shapes = {(): 1.0}
        for c in twin_set:
            grown: dict[tuple, float] = {}
            for shape, weight in shapes.items():
                prefix = sum(shape)
                for k in range(m - prefix + 1):
                    more = tuple(sorted((*shape, k), reverse=True)) if k else shape
                    add = weight * math.comb(prefix + k, k) * spec.f[c] ** k
                    grown[more] = grown.get(more, 0.0) + add
            shapes = grown
        by_size = [[] for _ in range(m + 1)]
        for shape, weight in shapes.items():
            runs = [(c, k) for c, k in zip(twin_set, shape) if k]
            by_size[sum(shape)].append((runs, weight))
        by_set.append(by_size)

    def canonical(i, left, runs, weight):
        # twin sets i on place the ``left`` vertices still unplaced, the last
        # set all of them; C(left, size) picks the vertices a set takes
        last = i == len(by_set) - 1
        for size in [left] if last else range(left + 1):
            ways = weight * math.comb(left, size)
            for more, w in by_set[i][size]:
                if last:
                    yield runs + more, ways * w
                else:
                    yield from canonical(i + 1, left - size, runs + more, ways * w)

    weights: dict[tuple, float] = {}

    def grid_sizes():
        # each key's configuration count when the walk first finds it; the
        # weights are summed as the walk resumes
        for runs, weight in canonical(0, m, [], 1.0):
            grid = _grid_key(laws, loops, sorted(runs))
            if grid not in weights:
                weights[grid] = 0.0
                yield math.prod(sizes[law] for law in grid)
            weights[grid] += weight

    _check_walk(grid_sizes(), limit, what)
    # (pmf up to the cap, P(Y > cap)) per law of a scored grid; the tail is
    # summed forward, with no cancellation, so the neglected mass stays
    # certified even after the C(n, v) blow-up
    found, slots = list(ids), {}
    for law in {law for grid in weights for law in grid}:
        table = [_pmf(found[law], k) for k in range(sizes[law])]
        slots[law] = table, pmf_tail(found[law], sizes[law])[1]
    terms = _copy_terms(pattern, m)
    pmf: dict[int, float] = {}
    neglected = 0.0
    for grid, weight in weights.items():
        tables = [slots[law] for law in grid]
        neglected += weight * sum((tail for _, tail in tables), 0.0)
        for w, p in _count_law([t for t, _ in tables], terms, weight).items():
            pmf[w] = pmf.get(w, 0.0) + p
    return pmf, neglected


def lambda_params(
    spec: SbmmSpec,
    pattern: PatternGraph,
    eps: float = DEFAULT_EPS,
    exact: bool = False,
) -> CompoundPoissonParams:
    """Exact clump rates lambda_i = C(n, v) * P(Z = i).

    Enumerates, for one vertex set, the canonical class assignments (each
    weighted by the labelled assignments it stands for) and every edge
    (and self-loop) configuration with per-pair supports truncated where the
    law's tail falls below ``eps``, in fixed-size chunks (``_host_law`` at
    ``m = v``).  ``exact=True`` switches to rational arithmetic (categorical
    laws only), walks every class assignment one configuration at a time,
    and returns Fractions.

    Raises :class:`InfeasibleError` when the walk would visit more than
    ``CLUMP_ENUMERATION_LIMIT`` configurations: the sum, over the grids it
    scores (one per key on the float path, one per class assignment on the
    exact path), of the product of per-slot truncated supports.  The float
    path also refuses more than ``CLUMP_ENUMERATION_LIMIT`` canonical
    assignments before it walks any.  After the walk, both paths refuse an
    ``imax`` past ``CLUMP_ENUMERATION_LIMIT`` before the dense rate vector
    is allocated.
    """
    as_real(eps, "eps")
    _require_plain(spec, "the clump-rate computation")
    _require_fit(spec, pattern)
    v = pattern.vertex_count
    n, Q = spec.n, spec.Q

    with_loops = bool(pattern.self_loops)
    if with_loops and spec.self_loop_laws is None:
        # the model never produces self-loops, so no copies ever occur
        return CompoundPoissonParams(lam=(), imax=0, truncation_mass=0.0, total=0.0)

    # each distinct law's cap, searched once: the float path truncates
    # where the tail drops below eps, the exact path neglects nothing
    loop_laws = spec.self_loop_laws if with_loops else ()
    caps = {
        law: _whole_support(law) if exact else truncation_bound(law, eps)
        for law in dict.fromkeys([*spec.distinct_laws(), *loop_laws])
    }
    # largest clump any truncated configuration can reach: each placement
    # puts every pattern pair (loop) on a slot at the largest pair (loop) cap
    top = max(caps[law] for law in spec.distinct_laws())
    imax = rho(pattern) * math.prod(math.comb(top, k) for k in pattern.edge_mult.values())
    if with_loops:
        top = max(caps[law] for law in loop_laws)
        imax *= math.prod(math.comb(top, c) for c in pattern.self_loops.values())

    zero = Fraction(0) if exact else 0.0
    if exact:
        # the float path's oracle: every labelled class assignment and every
        # configuration, in rational arithmetic, scored by clump_size
        f = [Fraction(x) for x in spec.f]
        slot_pairs = list(combinations(range(v), 2))

        def slot_laws(assign):
            laws = [spec.edge_laws[assign[a]][assign[b]] for a, b in slot_pairs]
            if with_loops:
                laws += [spec.self_loop_laws[c] for c in assign]
            return laws

        sizes = (
            math.prod(len(law.probabilities) for law in slot_laws(assign))
            for assign in product(range(Q), repeat=v)
        )
        _check_walk(sizes, CLUMP_ENUMERATION_LIMIT, "clump enumeration")
        size_prob = {}
        neglected = zero
        for assign in product(range(Q), repeat=v):
            a_prob = math.prod((f[c] for c in assign), start=Fraction(1))
            laws = slot_laws(assign)
            tables = [[Fraction(p) for p in law.probabilities] for law in laws]
            # a slot exceeds its support only when its probabilities sum
            # below 1 as rationals
            for t in tables:
                neglected += a_prob * max(1 - sum(t, zero), zero)
            for config in product(*(range(len(t)) for t in tables)):
                p = a_prob
                for t, val in zip(tables, config):
                    p *= t[val]
                if p == zero:
                    continue
                z = clump_size(config, pattern)
                if z > 0:
                    size_prob[z] = size_prob.get(z, zero) + p
    else:
        law, neglected = _host_law(
            spec, pattern, v, caps.get, CLUMP_ENUMERATION_LIMIT, "clump enumeration"
        )
        size_prob = {z: p for z, p in law.items() if z > 0}

    if imax > CLUMP_ENUMERATION_LIMIT:
        raise InfeasibleError(
            f"clump enumeration has imax {imax} (limit {CLUMP_ENUMERATION_LIMIT})"
        )
    n_sets = math.comb(n, v)
    lam = [zero] * imax
    for i, p in size_prob.items():
        lam[i - 1] = n_sets * p
    total = sum(lam, zero)
    return CompoundPoissonParams(
        lam=tuple(lam),
        imax=imax,
        truncation_mass=float(n_sets * neglected),
        total=total if exact else float(total),
    )


# -- compound Poisson law -----------------------------------------------------


def cp_pmf(params: CompoundPoissonParams, kmax: int) -> list[float]:
    """P(0..kmax) of the compound Poisson law with the given clump rates.

    Uses the standard recursion ``P(0) = exp(-sum(lam))`` and
    ``k P(k) = sum_i i lam_i P(k - i)``, and refuses a P(0) that underflows.
    """
    kmax = as_int(kmax, "kmax")
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    return list(islice(_cp_terms(params), kmax + 1))


def _cp_terms(params: CompoundPoissonParams, kind: str = "compound_poisson"):
    """P(0), P(1), ... of ``cp_pmf``'s recursion, one term at a time.

    Raises :class:`InfeasibleError` at the call, naming the ``kind`` of law,
    when ``P(0) = exp(-total)`` underflows to 0.0: every term would be 0.0.
    """
    lam = [float(x) for x in params.lam]
    out = [math.exp(-math.fsum(lam))]
    if out[0] == 0.0:
        raise InfeasibleError(
            f"the {kind.replace('_', ' ')} reference law has total rate "
            f"{float(params.total):.6g}: its P(0) underflows to 0.0"
        )

    # the sizes i with a nonzero rate, increasing, and their weights i * lam_i
    weights = [(i, i * x) for i, x in enumerate(lam, 1) if x]

    def terms():
        yield out[0]
        for k in count(1):
            acc = 0.0
            for i, w in weights:
                if i > k:
                    break
                acc += w * out[k - i]
            out.append(acc / k)
            yield out[k]

    return terms()


def c_lambda_upper(params: CompoundPoissonParams) -> float:
    """Generic upper bound exp(lambda) * min(1, 1/lambda_1) on c(lambda).

    ``lambda`` here is the total rate including the certified truncation
    mass; when the single-copy rate is 0 the minimum degenerates to 1.
    """
    lam_total = float(params.total) + params.truncation_mass
    lam1 = float(params.lam[0]) if params.imax >= 1 and params.lam else 0.0
    scale = min(1.0, 1.0 / lam1) if lam1 > 0 else 1.0
    if lam_total > 700.0:
        return math.inf
    return math.exp(lam_total) * scale


def poisson_c_factor(nu: float) -> float:
    """The Poisson-approximation magic factor (1 - exp(-nu)) / nu; 1 at 0."""
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    if nu == 0.0:
        return 1.0
    return -math.expm1(-nu) / nu


# -- total-variation bounds ---------------------------------------------------


def _pow(base: float, exponent) -> float:
    """IEEE power with +inf exponents allowed (0^0 = 1, x^inf by limits)."""
    b = float(base)
    x = float(exponent)
    if math.isinf(x) and x > 0:
        if b > 1.0:
            return math.inf
        if b == 1.0:
            return 1.0
        return 0.0
    return math.pow(b, x)


def _check_common(spec, pattern, variant, *, simple: bool):
    """Shared hypothesis checks; returns the balancedness profile."""
    _require_fit(spec, pattern, f"{variant}: ")
    if pattern.edge_total == 0:
        raise PreconditionError(f"{variant}: pattern has no edges")
    prof = balancedness_profile(pattern)
    if simple:
        if pattern.max_multiplicity > 1:
            raise PreconditionError(f"{variant}: pattern has parallel edges")
        if pattern.loop_total > 0:
            raise PreconditionError(f"{variant}: pattern has self-loops")
        if not prof.strictly_balanced:
            raise PreconditionError(f"{variant}: pattern is not strictly balanced")
    elif not prof.strictly_pseudo_balanced:
        raise PreconditionError(f"{variant}: pattern is not strictly pseudo-balanced")
    return prof


def _c_from_spec(spec, pattern, c_override, eps, ext):
    """c(lambda), its source, and the clump rates enumerated for it (None
    when c comes from elsewhere), for the compound-Poisson variants;
    ``ext`` is the model's extrema for the pattern."""
    if c_override is not None:
        return float(c_override), "override", None
    if spec.degree_weights is not None:
        # clump rates are not computable with vertex-dependent means; fall
        # back to c <= exp(total rate) <= exp(mean count upper bound)
        mean_upper = (
            math.comb(spec.n, pattern.vertex_count)
            * rho(pattern)
            * _pow(ext.inhom_max, pattern.edge_total)
        )
        c = math.exp(mean_upper) if mean_upper <= 700.0 else math.inf
        return c, "mean_upper", None
    params = lambda_params(spec, pattern, eps)
    return c_lambda_upper(params), "clump_upper", params


def _shell(n, v, scale, outer, lead, overlap, extra=0.0):
    """The closed form every bound but ``regime_corpn`` shares.

    value = scale n^v prod(outer) { (v^2/v!) n^(v-1) prod(lead) + extra
            + sum_{i=1}^{v-1} C(v,i) n^(v-i) prod(overlap[i]) / (v-i)! },

    with ``scale = c rho^2 / v!``.  Each product multiplies its factors one
    at a time, left to right, onto the term before it, so every variant
    combines its floats in one fixed order; a factor of 1.0 or an ``extra``
    of 0.0 leaves the bits of the value unchanged.
    """
    inner = (v * v / math.factorial(v)) * float(n) ** (v - 1)
    for x in lead:
        inner *= x
    inner += extra
    for i in range(1, v):
        term = math.comb(v, i) * float(n) ** (v - i)
        for x in overlap[i]:
            term *= x
        inner += term / math.factorial(v - i)
    value = scale * float(n) ** v
    for x in outer:
        value *= x
    return value * inner


def _frac_float(x) -> float:
    return math.inf if x is None else float(x)


# the extremum of the pair means that a single-mean bound raises to its powers
_MEAN_KEY = {
    "thm31_simple": "mu1_star",
    "cor35_inhom": "inhom_max",
    "thm52_poisson_approx": "mu1_star",
    "cor55_poisson_sbm": "omega_star",
}


def tv_bound(
    spec: SbmmSpec,
    pattern: PatternGraph,
    variant: str,
    c_override: float | None = None,
    eps: float = DEFAULT_EPS,
    regime_c: float | None = None,
    regime_C: float | None = None,
) -> BoundReport:
    """Total-variation error bound for approximating the count of a pattern.

    Variants: ``thm31_simple`` (simple strictly balanced pattern, compound
    Poisson), ``cor35_inhom`` (same shape with the vertex-pair maximum mean,
    valid under degree weights), ``thm41_multi`` (multigraph pattern,
    strictly pseudo-balanced), ``thm51_selfloop`` (additionally self-loops;
    dispatches to ``thm41_multi`` when the pattern has none),
    ``thm52_poisson_approx`` (simple pattern against Poisson(mean)),
    ``cor55_poisson_sbm`` (Poisson edge laws against Poisson(mean)), and
    ``regime_corpn`` (simple pattern with pair means sandwiched between
    ``regime_c * n^(-1/density)`` and ``regime_C * n^(-1/density)``).

    Every hypothesis is checked before the clump rates are enumerated, and
    the rates come back in the report's ``params``.  Raises
    :class:`PreconditionError`, naming the failed hypothesis, when the
    variant does not apply.
    """
    if variant not in BOUND_VARIANTS:
        raise ValueError(f"unknown bound variant {variant!r}")
    for name, x in {"c_override": c_override, "regime_c": regime_c, "regime_C": regime_C}.items():
        if x is not None:
            as_real(x, name)
    if c_override is not None and not 0 < float(c_override) < math.inf:
        raise ValueError(f"c_override must be finite and positive, got {c_override!r}")
    if variant == "thm51_selfloop" and pattern.loop_total == 0:
        variant = "thm41_multi"
    if spec.degree_weights is not None and variant != "cor35_inhom":
        raise PreconditionError(
            f"{variant}: models with degree weights are only covered by "
            "cor35_inhom"
        )
    multi = variant in ("thm41_multi", "thm51_selfloop")
    poisson = variant in POISSON_REFERENCE_VARIANTS
    n, v, e = spec.n, pattern.vertex_count, pattern.edge_total
    s, t = pattern.loop_total, pattern.max_multiplicity

    # hypotheses: the shared ones, then the variant's own
    prof = _check_common(spec, pattern, variant, simple=not multi)
    ext = model_extrema(spec, pattern)
    negative_exponent = s > 0 and any(2 * s - i < 0 for i in range(1, v))
    phi = 1.0  # phi^0 for a pattern without self-loops
    if s > 0:
        phi = 0.0 if ext.phi_star is None else ext.phi_star
    if negative_exponent and phi == 0.0:
        raise PreconditionError(
            f"{variant}: the bound needs a negative power of the "
            "mean self-loop count, which is zero"
        )
    if variant == "cor55_poisson_sbm" and ext.omega_star is None:
        raise PreconditionError(f"{variant}: edge laws are not all Poisson")
    if variant == "regime_corpn":
        if regime_c is None or regime_C is None:
            raise PreconditionError(
                "regime_corpn: needs envelope constants regime_c and regime_C"
            )
        if not (0 < regime_c <= regime_C):
            raise PreconditionError("regime_corpn: needs 0 < regime_c <= regime_C")
        d = float(prof.density)
        unit = float(n) ** (-1.0 / d)
        for law in spec.distinct_laws():
            mean = moment(law, 1)
            if not (
                regime_c * unit * (1 - 1e-12) <= mean <= regime_C * unit * (1 + 1e-12)
            ):
                raise PreconditionError(
                    f"regime_corpn: an edge mean {mean} lies outside the envelope "
                    f"[{regime_c * unit}, {regime_C * unit}]"
                )

    # then c: the Poisson factor, or c(lambda) with the clump rates it needs
    rho_val = rho(pattern)
    ingredients = {"n": n, "v": v, "e": e}
    if multi:
        ingredients.update(s=s, t=t)
    ingredients["rho"] = rho_val
    params = None
    if poisson:
        nu = expected_count(spec, pattern)
        c = float(c_override) if c_override is not None else poisson_c_factor(nu)
        ingredients.update(nu=nu, poisson_factor=c)
    else:
        c, c_source, params = _c_from_spec(spec, pattern, c_override, eps, ext)
        ingredients.update(c_lambda=c, c_source=c_source)

    # then the value
    kappas = {i: kappa(pattern, i) for i in range(1, v)}
    vfact = math.factorial(v)
    scale = c * rho_val * rho_val / vfact
    tail = {}
    if variant == "regime_corpn":
        alpha = _frac_float(prof.alpha)
        gamma = _frac_float(prof.gamma)
        C_big = float(regime_C)
        if math.isinf(alpha) or math.isinf(gamma):
            # no proper subgraph: the overlap terms vanish identically
            a_term = 0.0
            b_term = 0.0
        else:
            a_term = (1.0 + C_big**alpha) ** (v - 1) * float(n) ** (1.0 - alpha / d)
            b_term = (
                C_big ** (e + gamma) * (1.0 + C_big**-d) ** (v - 1) * float(n) ** (-gamma / d)
            )
        value = scale * C_big**e * (
            (v * v / vfact) * C_big**e / float(n) + min(a_term, b_term)
        )
        ingredients.update(
            regime_c=float(regime_c), regime_C=C_big, regime_A=a_term, regime_B=b_term
        )
    elif multi:
        hist = pattern.multiplicity_histogram()
        first = 1.0
        for i in range(1, t + 1):
            first *= _pow(ext.mu_dstar[i - 1], 2 * hist.get(i, 0))
            tail[f"mu_dstar_{i}"] = ext.mu_dstar[i - 1]
            tail[f"e_hist_{i}"] = hist.get(i, 0)
        overlap = {
            i: (_pow(phi, 2 * s - i) if s else 1.0, _pow(ext.psi, e + kappas[i]))
            for i in range(1, v)
        }
        value = _shell(n, v, scale, (), (_pow(phi, 2 * s), first), overlap)
        ingredients["psi"] = ext.psi
        tail.update((f"kappa_m_{i}", float(kappas[i])) for i in range(1, v))
        if s > 0:
            tail.update(phi_star=phi, negative_selfloop_exponent=int(negative_exponent))
    else:
        # the Poisson limits raise mu one power higher inside, one lower
        # outside, and add the tail term q2
        shift = int(poisson)
        mu = ingredients[_MEAN_KEY[variant]] = getattr(ext, _MEAN_KEY[variant])
        extra = 0.0
        if variant == "thm52_poisson_approx":
            extra = ingredients["q2_star"] = ext.q2_star
        elif poisson:
            extra = ingredients["q2_bound"] = 0.5 * ext.omega_star**2
        overlap = {i: (_pow(mu, kappas[i] + shift),) for i in range(1, v)}
        value = _shell(
            n, v, scale, (_pow(mu, e - shift),), (_pow(mu, e + shift),), overlap, extra
        )
        tail.update((f"kappa_{i}", float(kappas[i])) for i in range(1, v))

    names = ("density", "alpha", "gamma")
    if multi:
        names = ("pseudo_density", "alpha_m", "gamma_m")
    ingredients[names[0]] = float(getattr(prof, names[0]))
    for name in names[1:]:
        ingredients[name] = _frac_float(getattr(prof, name))
    ingredients.update(tail)
    return BoundReport(
        variant=variant,
        value=value,
        ingredients=ingredients,
        params=params,
        extrema=ext,
    )
