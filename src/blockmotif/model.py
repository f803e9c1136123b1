"""Block multigraph model: specification, sampling, and extreme moments.

A model assigns each of ``n`` vertices an independent class drawn from the
class-probability vector ``f`` and then, conditionally on the classes, draws
every unordered vertex pair's edge count independently from the law attached
to its class pair.  Optional extensions: per-vertex degree weights (each
pair's count becomes Poisson with rate ``weight_i * weight_j * rate_ab``;
only defined when every edge law is Poisson) and per-class self-loop laws.

Sampling is reproducible by construction: every random quantity reads
exactly one uniform from a keyed substream and is produced from it by
inverting a CDF.  Classes come from ``(seed, 0, i)`` with 1-based vertex
labels; then each unordered class pair, and each class's self-loops, is
one *block* with one law, whose streams hang off the label ``n + 1 + b``
of block b.  A Poisson block draws its total count and drops each edge on
endpoints picked with probability proportional to their degree weights
(Karrer & Newman's recipe); a categorical or geometric block skips through
its cells with geometric gaps (Batagelj & Brandes).  So a host costs
O(n + Q^2 + E) time and memory for E edges, not O(n^2).  One sampler,
``_sampler(spec)``, is prepared once per call from the spec alone; its
``draw(keys)`` samples a block of graphs, one per key, as arrays in one
numpy pass, and ``sample_graph`` is a block of one.  Each graph depends
only on its own key, so results never depend on how replicates are
grouped into blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._checks import as_int, int_array, reals
from ._rng import (
    _MASK,
    _mix64_np,
    fold_labels,
    key_chains,
    label_words,
    uniforms_from_keys,
)
from .distributions import (
    Categorical,
    EdgeCountDistribution,
    Geometric,
    Poisson,
    binomial_moment,
    law_from_json,
    law_to_json,
    moment,
    pmf_tail,
)
from .patterns import PatternGraph

__all__ = [
    "SbmmSpec",
    "ObservedMultigraph",
    "ModelExtrema",
    "sample_graph",
    "model_extrema",
    "spec_from_json",
    "spec_to_json",
    "graph_to_text",
    "graph_from_text",
]


class SbmmSpec:
    """A block multigraph model specification.

    Args:
        n: number of vertices.
        Q: number of vertex classes.
        f: sequence of Q positive class probabilities summing to 1.
        edge_laws: Q x Q matrix of edge-count laws, symmetric in the sense
            that ``edge_laws[a][b] == edge_laws[b][a]``.
        degree_weights: optional sequence of n positive vertex weights;
            requires every edge law to be Poisson.
        self_loop_laws: optional sequence of Q self-loop count laws.
    """

    def __init__(self, n, Q, f, edge_laws, degree_weights=None, self_loop_laws=None):
        n, Q = as_int(n, "n"), as_int(Q, "Q")
        if n < 1:
            raise ValueError("n must be at least 1")
        if Q < 1:
            raise ValueError("Q must be at least 1")
        # exact entries (Fraction/int/Decimal) are preserved for the
        # exact-rational computation path; floats stay floats
        f = tuple(x if isinstance(x, float) else Fraction(x) for x in reals(f, "f"))
        if len(f) != Q:
            raise ValueError(f"f has {len(f)} entries, expected Q={Q}")
        if any(x <= 0 for x in f):
            raise ValueError("class probabilities must be strictly positive")
        if not abs(math.fsum(f) - 1.0) <= 1e-12:
            raise ValueError(f"class probabilities sum to {math.fsum(f)!r}, not 1")
        laws = tuple(tuple(row) for row in edge_laws)
        if len(laws) != Q or any(len(row) != Q for row in laws):
            raise ValueError("edge_laws must be a Q x Q matrix")
        for a in range(Q):
            for b in range(Q):
                if not isinstance(laws[a][b], (Categorical, Poisson, Geometric)):
                    raise TypeError(f"edge_laws[{a}][{b}] is not an edge-count law")
                if laws[a][b] != laws[b][a]:
                    raise ValueError(f"edge_laws not symmetric at ({a},{b})")
        weights = None
        if degree_weights is not None:
            weights = tuple(float(w) for w in reals(degree_weights, "degree weights"))
            if len(weights) != n:
                raise ValueError(f"degree_weights has {len(weights)} entries, expected n={n}")
            if any(w <= 0 or not math.isfinite(w) for w in weights):
                raise ValueError("degree weights must be finite and positive")
            if any(not isinstance(laws[a][b], Poisson) for a in range(Q) for b in range(Q)):
                raise ValueError("degree weights require every edge law to be Poisson")
        loop_laws = None
        if self_loop_laws is not None:
            loop_laws = tuple(self_loop_laws)
            if len(loop_laws) != Q:
                raise ValueError(f"self_loop_laws has {len(loop_laws)} entries, expected Q={Q}")
            for a, law in enumerate(loop_laws):
                if not isinstance(law, (Categorical, Poisson, Geometric)):
                    raise TypeError(f"self_loop_laws[{a}] is not an edge-count law")
        self.n = n
        self.Q = Q
        self.f = f
        self.edge_laws = laws
        self.degree_weights = weights
        self.self_loop_laws = loop_laws
        self._key = (n, Q, f, laws, weights, loop_laws)

    def __eq__(self, other):
        return isinstance(other, SbmmSpec) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return (
            f"SbmmSpec(n={self.n}, Q={self.Q}, f={self.f}, "
            f"degree_weights={'set' if self.degree_weights else None}, "
            f"self_loop_laws={'set' if self.self_loop_laws else None})"
        )

    def distinct_laws(self):
        """Edge laws on or above the diagonal (one per unordered class pair)."""
        return [self.edge_laws[a][b] for a in range(self.Q) for b in range(a, self.Q)]


class ObservedMultigraph:
    """A multigraph on vertices 0..n-1 with integer pair and loop counts.

    Built from ``edge_counts``, a mapping of vertex pairs to nonnegative
    counts, ``self_loop_counts``, a mapping of vertices to nonnegative loop
    counts, and optionally ``classes``, the class label per vertex.  It
    stores the arrays the copy counter reads: ``y[k]`` edges on the pair
    ``a[k] < b[k]``, one entry per pair with a positive count, sorted by
    ``(a, b)``, and ``loops[w]`` loops on vertex ``w``.  Counts are int64
    when every one fits, Python integers in object arrays otherwise.
    ``edge_counts`` and ``self_loop_counts`` read them back as sorted dicts
    of the positive counts, built on each access.
    """

    def __init__(self, n, edge_counts, self_loop_counts=None, classes=None):
        edges, loops = dict(edge_counts), dict(self_loop_counts or {})
        a, b = int_array(list(edges), "pair ends").reshape(len(edges), 2).T
        self._store(n, a, b, list(edges.values()), list(loops), list(loops.values()), classes)

    @classmethod
    def _from_arrays(cls, n, a, b, y, w, s, classes):
        graph = cls.__new__(cls)
        graph._store(n, a, b, y, w, s, classes)
        return graph

    def _store(self, n, a, b, y, w, s, classes):
        """Check and keep ``y[k]`` edges on each pair ``(a[k], b[k])`` and
        ``s[k]`` loops on each vertex ``w[k]``: the one validator of every
        way a graph is made."""
        n, y = as_int(n, "n"), int_array(y, "edge counts")
        w, s = int_array(w, "self-loop vertices"), int_array(s, "self-loop counts")
        if n < 0:
            raise ValueError("n must be nonnegative")
        if (a == b).any():
            raise ValueError("self-loops belong in self_loop_counts")
        out = np.flatnonzero((np.minimum(a, b) < 0) | (np.maximum(a, b) >= n))
        if out.size:
            raise ValueError(f"pair ({a[out[0]]},{b[out[0]]}) outside vertex range 0..{n - 1}")
        if (y < 0).any():
            raise ValueError("edge counts must be nonnegative")
        out = np.flatnonzero((w < 0) | (w >= n))
        if out.size:
            raise ValueError(f"vertex {w[out[0]]} outside range 0..{n - 1}")
        if (s < 0).any():
            raise ValueError("self-loop counts must be nonnegative")
        # pair a < b as the key a * n + b (n^2 < 2^63 whenever the n loop
        # counts fit in memory), sorted: a pair given twice sits next to
        # itself.  The stable sort is linear on the sampler's sorted pairs
        key = (np.minimum(a, b) * n + np.maximum(a, b)).astype(np.int64)
        order = np.argsort(key, kind="stable")
        key, y, w = key[order], y[order], w.astype(np.int64)
        twice = np.flatnonzero(key[1:] == key[:-1])
        if twice.size:
            raise ValueError(f"pair {divmod(int(key[twice[0]]), n)} appears twice")
        twice = np.flatnonzero(np.bincount(w, minlength=n) > 1)
        if twice.size:
            raise ValueError(f"self-loop count for vertex {twice[0]} appears twice")
        if classes is not None:
            classes = tuple(int_array(classes, "classes").tolist())
            if len(classes) != n:
                raise ValueError(f"classes has {len(classes)} entries, expected n={n}")
        keep = y > 0
        self.n, self.classes = n, classes
        (self.a, self.b), self.y = np.divmod(key[keep], n), y[keep]
        self.loops = np.zeros(n, dtype=s.dtype)
        self.loops[w] = s

    @property
    def edge_counts(self) -> dict:
        return dict(zip(zip(self.a.tolist(), self.b.tolist()), self.y.tolist()))

    @property
    def self_loop_counts(self) -> dict:
        w = np.flatnonzero(self.loops)
        return dict(zip(w.tolist(), self.loops[w].tolist()))

    def __eq__(self, other):
        # the edge-list text is canonical: n, classes, then the positive
        # counts in order
        return isinstance(other, ObservedMultigraph) and graph_to_text(self) == graph_to_text(other)

    def __repr__(self):
        return (
            f"ObservedMultigraph(n={self.n}, edges={len(self.y)}, "
            f"loops={np.count_nonzero(self.loops)})"
        )


@dataclass(frozen=True)
class ModelExtrema:
    """Worst-case moment functionals of a model, relative to a pattern.

    ``mu_star[k-1]`` is the maximum over class pairs of the k-th raw moment
    of the edge law, for k up to twice the pattern's maximum multiplicity t;
    ``mu_dstar[k-1]`` the maximum k-th binomial moment, k up to t;
    ``psi = max(2 * mu_star[2t-1], max_{j<=t} mu_dstar[j-1])``.  ``phi_star``
    (maximum mean self-loop count) is None without self-loop laws;
    ``omega_star`` is None unless every edge law is Poisson; ``psi`` is None
    for patterns without edges.  ``inhom_max`` is the maximum expected count
    over vertex pairs: with degree weights it decorates the largest rate
    with the two largest weights, otherwise it equals ``mu1_star``.
    """

    mu1_star: float
    mu_star: tuple[float, ...]
    mu_dstar: tuple[float, ...]
    psi: float | None
    phi_star: float | None
    q2_star: float
    omega_star: float | None
    inhom_max: float


def model_extrema(spec: SbmmSpec, pattern: PatternGraph) -> ModelExtrema:
    """Maxima over class pairs of the moment functionals the bounds use."""
    laws = spec.distinct_laws()
    t = pattern.max_multiplicity
    mu_star = tuple(max(moment(law, k) for law in laws) for k in range(1, 2 * t + 1))
    mu_dstar = tuple(max(binomial_moment(law, k) for law in laws) for k in range(1, t + 1))
    mu1_star = mu_star[0] if mu_star else max(moment(law, 1) for law in laws)
    psi = max(2.0 * mu_star[2 * t - 1], max(mu_dstar)) if t >= 1 else None
    q2_star = max(pmf_tail(law, 2)[1] for law in laws)
    phi_star = None
    if spec.self_loop_laws is not None:
        phi_star = max(moment(law, 1) for law in spec.self_loop_laws)
    omega_star = None
    if all(isinstance(law, Poisson) for law in laws):
        omega_star = max(law.rate for law in laws)
    inhom_max = mu1_star
    if spec.degree_weights is not None:
        if spec.n < 2:
            raise ValueError("degree weights need at least two vertices")
        top = sorted(spec.degree_weights, reverse=True)  # the largest pair weight
        inhom_max = top[0] * top[1] * max(law.rate for law in laws)
    return ModelExtrema(
        mu1_star=mu1_star,
        mu_star=mu_star,
        mu_dstar=mu_dstar,
        psi=psi,
        phi_star=phi_star,
        q2_star=q2_star,
        omega_star=omega_star,
        inhom_max=inhom_max,
    )


# direct CDF inversion starts from exp(-rate), which underflows near rate 745;
# the sampler splits each Poisson block total into parts of at most this mean
_MAX_POISSON_RATE = 700.0

# table entries per round of the Poisson inversion's forward steps: bounds
# its working memory whatever the number of elements
_ICDF_ENTRIES = 1 << 20


def _bisect_steps(last: np.ndarray, values: np.ndarray, index, test) -> np.ndarray:
    """Elementwise count of the steps ``s = 1, ..., last`` that pass
    ``test(values[index(s)])``, a test that fails from some step on: a
    branchless bisection in powers of two whose rounds depend on no
    element's data, and whose count is a scan's, ties included."""
    below = np.zeros(len(last), dtype=np.int64)
    for half in (1 << s for s in reversed(range(int(last.max(initial=0)).bit_length()))):
        step = below + half
        cell = index(np.minimum(step, last))
        below += half * ((step <= last) & test(values[cell]))
    return below


def _poisson_icdf(u: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Elementwise smallest k with Poisson(rate) CDF(k) >= u.

    Forward CDF stepping from ``pmf = exp(-rate)``: each step multiplies
    the pmf by ``rate / k`` and adds it to the CDF, until the CDF reaches u
    or the pmf underflows to 0 (then the count is that k).  A CDF depends
    on the rate alone, so it is stepped once per distinct rate (found by a
    sort and a mask: np.unique would import numpy.ma), until the largest
    uniform of its elements is reached or its pmf underflows.  The steps
    are taken in rounds of ``width`` at a time over the rates still open:
    a ``(width + 1, open)`` table holds their last pmf over the factors
    ``rate / k`` of the next steps, and ``np.cumprod`` down its columns
    gives the next pmfs; with the last CDF in the first row, ``np.cumsum``
    gives the next CDFs.  Both accumulate left to right, the loop's own
    order, so every pmf and CDF is the one the step-by-step loop computes,
    bit for bit.  An element whose uniform the round reaches, or whose
    rate's pmf underflows in it, takes its first step past u by bisection
    over its rate's column (CDFs never decrease).  A round is as wide as
    the largest open rate's mean plus four standard deviations calls for
    (one round finishes nearly every rate), but at most ``_ICDF_ENTRIES //
    open`` steps, so the table's memory stays bounded whatever the number
    of rates.  Each element's result depends only on its own (u, rate), so
    any grouping of calls yields identical values.  Valid only for rates
    up to ``_MAX_POISSON_RATE``: past about 745 ``exp(-rate)`` underflows
    to 0 and every element would come out 1.
    """
    rates = np.asarray(rates, dtype=np.float64).reshape(-1)
    counts = np.zeros(u.shape, dtype=np.int64)
    # law[i]: element i's rate among the distinct ones, sorted
    order = np.argsort(rates)
    rate = rates[order]
    new = np.ones(len(rate), dtype=bool)
    new[1:] = rate[1:] != rate[:-1]
    law = np.empty(len(rates), dtype=np.int64)
    law[order] = np.cumsum(new) - 1
    rate = rate[new]
    pmf = np.exp(-rate)
    active = np.flatnonzero(pmf[law] < u.reshape(-1))
    u, law = u.reshape(-1)[active], law[active]
    cdf = pmf.copy()
    k = 0
    while active.size:
        # the rates some open element still reads, renumbered
        live = np.bincount(law, minlength=len(rate)) > 0
        if not live.all():
            law = (np.cumsum(live) - 1)[law]
            rate, pmf, cdf = rate[live], pmf[live], cdf[live]
        top = float(rate[-1])
        width = int(max(top - k, 0.0) + 4.0 * math.sqrt(top)) + 8
        width = max(1, min(width, _ICDF_ENTRIES // rate.size))
        if k + width > 10**6:
            raise RuntimeError("Poisson CDF inversion did not converge")
        steps = np.arange(k + 1, k + width + 1, dtype=np.float64)[:, None]
        table = np.empty((width + 1, rate.size))
        table[0] = pmf
        np.divide(rate, steps, out=table[1:])
        np.cumprod(table, axis=0, out=table)
        pmf = table[-1].copy()
        # the steps before each rate's pmf underflows (once 0, it stays 0):
        # all of the round's, but where the last pmf is 0
        positive = np.full(rate.size, width)
        zero = np.flatnonzero(pmf <= 0.0)
        positive[zero] = np.count_nonzero(table[1:, zero] > 0.0, axis=0)
        table[0] = cdf
        np.cumsum(table, axis=0, out=table)
        cdf = table[-1].copy()
        done = (cdf[law] >= u) | (positive[law] < width)
        if done.any():
            # the steps below u before the pmf underflows, by bisection down
            # the rate's column of the table (row 0 holds the last CDF, below
            # u): the count is the step after them
            at = np.flatnonzero(done)
            c, x, flat = law[at], u[at], table.reshape(-1)
            below = _bisect_steps(positive[c], flat, lambda s: s * rate.size + c, lambda v: v < x)
            counts.reshape(-1)[active[at]] = k + 1 + below
            keep = ~done
            active, u, law = active[keep], u[keep], law[keep]
        del table
        k += width
    return counts


def _positive_icdf(u: np.ndarray, law: EdgeCountDistribution) -> np.ndarray:
    """Elementwise inverse CDF of a categorical or geometric ``law`` given
    a positive count.

    Categorical: the least k >= 1 with ``u * T < T_k``, for the running
    sums ``T_k = p_1 + ... + p_k`` and their last ``T``, else the last k.
    Geometric: past 0 the law is ``1 + Geometric(ratio)``, so 1 plus the
    least k with ``CDF(k) = 1 - ratio^(k+1) >= u``; the ratio is positive,
    as ``P(0) < 1`` for every walked law.
    """
    if isinstance(law, Geometric):
        raw = np.ceil(np.log1p(-u) / math.log(law.ratio)) - 1.0
        return np.maximum(raw, 0.0).astype(np.int64) + 1
    tail = np.cumsum(np.asarray(law.probabilities[1:], dtype=np.float64))
    return np.minimum(np.searchsorted(tail, u * tail[-1], side="right"), len(tail) - 1) + 1


def _log_p0(law: EdgeCountDistribution) -> float:
    """``log P(0)`` of a categorical or geometric law: 0 when every count
    is 0, ``-inf`` when none is."""
    if isinstance(law, Geometric):
        return math.log1p(-law.ratio)
    p0 = float(law.probabilities[0])
    return math.log(p0) if p0 > 0.0 else -math.inf


def _ranks(counts: np.ndarray) -> np.ndarray:
    """For runs of ``counts`` elements laid end to end: each element's
    index in its run."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _padded_cuts(cuts: np.ndarray) -> np.ndarray:
    """The sorted ``cuts`` padded with ``+inf`` to ``2**bits`` entries, for
    the least ``bits`` that leaves at least one pad: the table
    :func:`_bisect_right` reads."""
    table = np.full(1 << len(cuts).bit_length(), np.inf)
    table[: len(cuts)] = cuts
    return table


def _bisect_right(table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Elementwise ``np.searchsorted(table, u, side="right")``: the number
    of entries at or below u of a :func:`_padded_cuts` table.

    A branchless bisection in powers of two: each round halves the span
    with one ``take`` of every element's probe and one ``<=`` against it,
    so it makes the comparisons ``cut <= u`` that the search makes and
    agrees with it bit for bit, ties included.
    """
    half = len(table) // 2
    pos = (table[half - 1] <= u) * half
    half //= 2
    while half:
        pos += (table.take(pos + (half - 1)) <= u) * half
        half //= 2
    return pos


def _uniforms(prefix: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The uniform of stream ``(*prefix, label)``, elementwise."""
    return uniforms_from_keys(fold_labels(prefix, labels))


def _pair_at(t: np.ndarray, size: np.ndarray):
    """Pair ``(i, j)`` at position ``t`` of ``combinations(range(size), 2)``."""

    def before(i):  # the pairs whose first index is below i
        return i * (2 * size - i - 1) // 2

    # the float root is off by at most one either way
    width = 2.0 * size - 1.0
    i = np.floor((width - np.sqrt(width * width - 8.0 * t)) / 2.0).astype(np.int64)
    i = np.clip(i, 0, np.maximum(size - 2, 0))
    i += before(i + 1) <= t
    i -= before(i) > t
    return i, t - before(i) + i + 1


def _sampler(spec: SbmmSpec):
    """Prepare sampling from ``spec``: returns ``draw(keys)``, which samples
    one graph per uint64 key, all in one pass.

    Row r of ``draw(keys)`` is the graph ``sample_graph(spec, keys[r])``, a
    pure function of its key.  ``draw`` returns the classes ``(R, n)``, in
    the smallest unsigned dtype that holds them; the nonzero pair counts as
    ``(keys, y)``; and the self-loop counts ``(R, n)`` (zero without
    self-loop laws).  Vertex v of row r is the flat vertex ``r * n + v`` of
    ``size = R * n``, and the pair ``x < z`` of flat vertices carrying ``y``
    edges has the key ``x * size + z``: the keys are strictly increasing,
    so they are sorted by ``(row, a, b)`` and are the copy counter's own
    forward adjacency entries (``counting._count_block``).  ``R * n``
    squared must stay below 2^63.  A host costs O(n + Q^2 + E) time and
    memory for E edges: no array of the C(n, 2) pairs is made.

    The recipe, one variate per stream, ``u(*labels)`` being the uniform
    of ``substream_key(key, *labels)``:

    * Vertex i (0-based) takes the least class a with ``u(0, i + 1) < f_0 +
      ... + f_a``, else the last class; one class draws nothing.  The
      count of running sums at or below the uniform is found by a
      branchless bisection (``_bisect_right``), the comparisons of
      ``np.searchsorted``.
    * Blocks: the class pairs ``c <= d`` in row-major order, then, with
      self-loop laws, one loop block per class.  Block b's streams are
      ``(n + 1 + b, label)``, never a class, pair or loop stream.  A
      class's members are its vertices in increasing order.  ``cum`` is the
      running float sum of the weights (1 without degree weights) over the
      n vertices sorted by (class, vertex); a class at positions ``[p, q)``
      of that order has ``lo = cum[p - 1]`` (0 when p = 0) and ``S =
      cum[q - 1] - lo``.
    * A Poisson block of rate ``w > 0`` has mean ``M = w * S_c * S_d``
      between classes ``c < d``, ``w * S_c * S_c / 2`` within class c and
      ``w * size_c`` for loops (left to right; M from 2^53 on is refused).
      Its total K sums ``_poisson_icdf(u(n + 1 + b, 3 i + 2), M / P)`` over
      its ``P = ceil(M / 700)`` parts i.  Event ``j < K`` takes an endpoint
      in class c from ``u(n + 1 + b, 3 j)`` and one in class d from ``u(n +
      1 + b, 3 j + 1)``: the least position k in ``[p, q)`` with ``cum[k] -
      lo > u * S``, else ``q - 1``.  A loop event's vertex is member
      ``min(floor(u * size_c), size_c - 1)``.  Within a class, events whose
      two endpoints coincide are dropped (the mean counts ordered pairs at
      half the rate); every other event adds one edge to its pair, or one
      loop.  By Poisson splitting and thinning, pair ``i, j`` carries
      ``Poisson(theta_i * theta_j * w)`` edges.  Karrer & Newman's recipe.
    * A categorical or geometric block with ``P(0) < 1`` skips through its
      cells in order: cross pairs row-major over the members of c then d,
      within pairs in ``combinations`` order of the members, loops by
      member.  Event j's gap is ``G_j = floor(log1p(-u(n + 1 + b, 3 j)) /
      log P(0))`` (0 when P(0) = 0), its cell ``t_j = t_(j-1) + 1 + G_j``
      from ``t_(-1) = -1`` while below the cell count, and its value
      ``_positive_icdf`` of ``u(n + 1 + b, 3 j + 1)`` (Batagelj & Brandes).

    Gaps are drawn in rounds, gap j keyed by j alone, so the rounds' sizes
    change no draw, and every inversion works elementwise.  A Poisson
    block's parts, and then its events, lie in one run of the block's
    (row, block) entry, so each entry's fields reach its events by
    ``np.repeat``; loop blocks and pair blocks split at that level.  A
    Poisson event adds one edge, so its pair keys are sorted and each
    run's length is the pair's count; a walked cell is drawn once, in one
    block, so its count is written at its key's place among them.
    """
    n, Q = spec.n, spec.Q
    weighted = spec.degree_weights is not None
    # block b: its classes c <= d, its kind (0 for the pairs across c < d,
    # 1 for the pairs within c = d, 2 for the loops of c = d) and its law
    blocks = [(c, d, int(c == d), spec.edge_laws[c][d]) for c in range(Q) for d in range(c, Q)]
    if spec.self_loop_laws is not None:
        blocks += [(c, c, 2, law) for c, law in enumerate(spec.self_loop_laws)]
    block_c, block_d, kind = (np.array(x, dtype=np.int64) for x in list(zip(*blocks))[:3])
    laws = [law for *_, law in blocks]
    block_words = label_words(n + 1 + np.arange(len(blocks)))
    # the blocks that can draw an event: Poisson rate or P(Y > 0) above 0
    poisson = [b for b, law in enumerate(laws) if isinstance(law, Poisson) and law.rate > 0.0]
    rate = np.array([laws[b].rate for b in poisson])
    walked = [b for b, law in enumerate(laws) if not isinstance(law, Poisson)]
    walked = [b for b in walked if _log_p0(laws[b]) < 0.0]
    log_p0 = np.array([_log_p0(laws[b]) for b in walked])
    hit = -np.expm1(log_p0)  # 1 - P(0): the share of cells that carry an event
    walk_laws = list(dict.fromkeys(laws[b] for b in walked))
    walk_law = np.array([walk_laws.index(laws[b]) for b in walked], dtype=np.int64)
    # each kind's blocks: classes, kinds and label words
    p_c, p_d, p_kind, p_words = block_c[poisson], block_d[poisson], kind[poisson], block_words[poisson]
    p_loop = p_kind == 2
    w_c, w_d, w_kind, w_words = block_c[walked], block_d[walked], kind[walked], block_words[walked]
    vertex_words = label_words(np.arange(1, n + 1))
    # vertex i's class is the number of running class weights f_0 + ... + f_a,
    # a < Q - 1, at or below its uniform; classes fit a byte up to Q = 256,
    # where a stable argsort is a radix sort
    class_cuts = _padded_cuts(np.cumsum(np.asarray(spec.f, dtype=np.float64))[:-1])
    class_dtype = np.min_scalar_type(Q - 1)
    theta = np.asarray(spec.degree_weights, dtype=np.float64) if weighted else None

    def draw(keys: np.ndarray):
        R = len(keys)
        vertices = R * n
        if vertices * vertices >= 2**63:
            raise ValueError(f"{R} hosts of {n} vertices are too many for one draw")
        chain = key_chains(keys)
        classes = np.zeros((R, n), dtype=class_dtype)
        if Q > 1:
            u = uniforms_from_keys(_mix64_np(fold_labels(chain, 0)[:, None] ^ vertex_words))
            classes = _bisect_right(class_cuts, u).astype(class_dtype)
            del u
        # flat position r * n + k holds row r's k-th vertex in (class, vertex)
        # order, as the flat vertex r * n + v; class c of row r takes the
        # positions [start, start + size)
        row = n * np.arange(R)[:, None]
        member = np.argsort(classes, axis=1, kind="stable")
        size = np.bincount((classes + Q * np.arange(R)[:, None]).reshape(-1), minlength=R * Q)
        size = size.reshape(R, Q)
        start = np.cumsum(size, axis=1) - size + row
        if weighted:
            cum = np.cumsum(theta[member], axis=1).reshape(-1)
            lo = np.where(start % n == 0, 0.0, cum[start - 1])
            S = np.where(size > 0, cum[start + size - 1] - lo, 0.0)
        else:
            # unit weights: each class's running weight is its size
            S = size.astype(np.float64)
        member += row
        member = member.reshape(-1)
        # pair keys x * vertices + z of the flat vertices x < z: the Poisson
        # events' (one edge each, a pair's events adding up) and the walked
        # cells' (one per pair, with its count); (flat vertex, count) per
        # loop event
        empty = np.zeros(0, dtype=np.int64)
        unit_keys, cell_pieces, loop_pieces = [empty], [(empty, empty)], [(empty, empty)]

        def pick(u, runs, r, c, weigh):
            # the position of each event's endpoint: the events lie in runs,
            # ``runs[i]`` of them with their endpoint in class c[i] of row r[i]
            g, width = np.repeat(start[r, c], runs), np.repeat(size[r, c], runs)
            if not weigh:
                # unit weights: the search below lands on floor(u * size)
                at = (u * width).astype(np.int64)
                width -= 1
                np.minimum(at, width, out=at)
                at += g
                return at
            # the least position whose running weight past lo exceeds u * S
            target, base = u * np.repeat(S[r, c], runs), np.repeat(lo[r, c], runs)
            steps = _bisect_steps(width - 1, cum, lambda s: g + s - 1, lambda v: v - base <= target)
            return g + steps

        def pair_key(a, b):
            # the pair key of the flat positions a and b
            a, b = member[a], member[b]
            return np.minimum(a, b) * vertices + np.maximum(a, b)

        def poisson_events():
            c, d = p_c, p_d
            with np.errstate(over="ignore", invalid="ignore"):
                mean = rate * np.where(p_loop, size[:, c], S[:, c])
                mean *= np.where(p_loop, 1.0, S[:, d])
                mean = np.where(p_kind == 1, mean / 2.0, mean)
            # past 2^53 (or not finite) no host of that many edges is drawn
            if not (mean < 2.0**53).all():
                raise ValueError("Poisson block mean too large to draw")
            r, k = np.divmod(np.flatnonzero(mean), len(poisson))
            mean, prefix = mean[r, k], _mix64_np(chain[r] ^ p_words[k])
            # each block's parts, then each block's events, lie in one run
            parts = np.ceil(mean / _MAX_POISSON_RATE).astype(np.int64)
            drawn = _poisson_icdf(
                _uniforms(np.repeat(prefix, parts), 3 * _ranks(parts) + 2),
                np.repeat(mean / parts, parts),
            )
            total = np.add.reduceat(drawn, np.cumsum(parts) - parts)
            del drawn
            loop = p_loop[k]
            if loop.any():
                at = np.flatnonzero(loop)
                runs = total[at]
                u = _uniforms(np.repeat(prefix[at], runs), 3 * _ranks(runs))
                v = member[pick(u, runs, r[at], c[k[at]], False)]
                loop_pieces.append((v, np.ones(len(v))))
                at = np.flatnonzero(~loop)
                total, r, k, prefix = total[at], r[at], k[at], prefix[at]
            prefix, j = np.repeat(prefix, total), _ranks(total)
            a = pick(_uniforms(prefix, 3 * j), total, r, c[k], weighted)
            b = pick(_uniforms(prefix, 3 * j + 1), total, r, d[k], weighted)
            del prefix, j
            at = np.flatnonzero(a != b)
            unit_keys.append(pair_key(a[at], b[at]))

        def walk_events():
            c, d, wk = w_c, w_d, w_kind
            sc, sd = size[:, c], size[:, d]
            cells = np.where(wk == 0, sc * sd, np.where(wk == 1, sc * (sc - 1) // 2, sc))
            r, k = np.divmod(np.flatnonzero(cells), len(walked))
            cells, prefix = cells[r, k], _mix64_np(chain[r] ^ w_words[k])
            pos, nxt = np.zeros(len(r), dtype=np.int64), np.zeros(len(r), dtype=np.int64)
            open_, found = np.arange(len(r)), [(np.zeros(0, dtype=np.int64),) * 3]
            while open_.size:
                # a round of gaps, sized to pass the last cell most times
                left = cells[open_] - pos[open_]
                hits = hit[k[open_]] * left
                take = np.minimum(np.ceil(hits + 2.0 * np.sqrt(hits)).astype(np.int64) + 1, left)
                run, i = np.repeat(np.arange(len(take)), take), _ranks(take)
                s = open_[run]
                j = nxt[s] + i
                gap = np.floor(np.log1p(-_uniforms(prefix[s], 3 * j)) / log_p0[k[s]])
                step = np.cumsum(np.minimum(gap, cells[s]).astype(np.int64) + 1)
                last = np.cumsum(take) - 1
                t = pos[s] - 1 + step - np.concatenate(([0], step[last[:-1]]))[run]
                inside = t < cells[s]
                found.append((s[inside], j[inside], t[inside]))
                pos[open_] = t[last] + 1
                nxt[open_] += take
                open_ = open_[inside[last] & (pos[open_] < cells[open_])]
            s, j, t = (np.concatenate(x) for x in zip(*found))
            value_u, y = _uniforms(prefix[s], 3 * j + 1), np.zeros(len(s), dtype=np.int64)
            for index, law in enumerate(walk_laws):
                at = np.flatnonzero(walk_law[k[s]] == index)
                y[at] = _positive_icdf(value_u[at], law)
            g, width, wk = start[r, c[k]][s], size[r, d[k]][s], wk[k[s]]
            # loops: member t; cross pairs: row-major over c's and d's members
            a, b = g + t, start[r, d[k]][s] + t % width
            at = np.flatnonzero(wk == 0)
            a[at] = g[at] + t[at] // width[at]
            at = np.flatnonzero(wk == 1)
            i, j = _pair_at(t[at], width[at])
            a[at], b[at] = g[at] + i, g[at] + j
            at = np.flatnonzero(wk == 2)
            loop_pieces.append((member[a[at]], y[at]))
            at = np.flatnonzero(wk != 2)
            cell_pieces.append((pair_key(a[at], b[at]), y[at]))

        # the blocks' work arrays are freed as each kind returns
        if len(poisson):
            poisson_events()
        if len(walked):
            walk_events()
        v, y = (np.concatenate(x) for x in zip(*loop_pieces))
        loops = np.bincount(v, weights=y, minlength=R * n).astype(np.int64)
        # the keys sorted, each pair's events one run: its count is the
        # run's length, or the cell's count for a walked pair (a pair is in
        # one block, a walked cell drawn once)
        cell_key, cell_y = (np.concatenate(x) for x in zip(*cell_pieces))
        pair = np.concatenate((*unit_keys, cell_key))
        pair.sort()
        head = np.ones(len(pair), dtype=bool)
        np.not_equal(pair[1:], pair[:-1], out=head[1:])
        y = np.diff(np.flatnonzero(head), append=len(pair))
        pair = pair[head]
        del head
        y[np.searchsorted(pair, cell_key)] = cell_y
        return classes, (pair, y), loops.reshape(R, n)

    return draw


def sample_graph(spec: SbmmSpec, seed: int) -> ObservedMultigraph:
    """Draw one multigraph from the model, deterministically in ``seed``.

    ``seed`` is taken modulo 2**64, like every stream key.
    """
    key = np.array([as_int(seed, "seed") & _MASK], dtype=np.uint64)
    (classes,), (keys, y), (loops,) = _sampler(spec)(key)
    a, b = np.divmod(keys, spec.n)
    w = np.flatnonzero(loops)
    return ObservedMultigraph._from_arrays(spec.n, a, b, y, w, loops[w], classes)


# -- serialization -----------------------------------------------------------


def spec_from_json(obj: dict) -> SbmmSpec:
    """Build a model spec from its JSON object form."""
    edge_laws = [[law_from_json(cell) for cell in row] for row in obj["edge_laws"]]
    loop_laws = None
    if obj.get("self_loop_laws") is not None:
        loop_laws = [law_from_json(cell) for cell in obj["self_loop_laws"]]
    return SbmmSpec(
        n=obj["n"],
        Q=obj["Q"],
        f=obj["f"],
        edge_laws=edge_laws,
        degree_weights=obj.get("degree_weights"),
        self_loop_laws=loop_laws,
    )


def spec_to_json(spec: SbmmSpec) -> dict:
    """JSON object form of a model spec (inverse of :func:`spec_from_json`)."""
    out = {
        "n": spec.n,
        "Q": spec.Q,
        "f": [float(x) for x in spec.f],
        "edge_laws": [[law_to_json(cell) for cell in row] for row in spec.edge_laws],
    }
    if spec.degree_weights is not None:
        out["degree_weights"] = list(spec.degree_weights)
    if spec.self_loop_laws is not None:
        out["self_loop_laws"] = [law_to_json(law) for law in spec.self_loop_laws]
    return out


def graph_to_text(graph: ObservedMultigraph) -> str:
    """Edge-list text: header comments, then one ``u v count`` line per pair.

    Self-loops appear as ``u u count``.  The ``# n`` header preserves the
    vertex count even when trailing vertices are isolated; classes, when
    known, are emitted as a ``# classes`` header.
    """
    lines = [f"# n {graph.n}"]
    if graph.classes is not None:
        lines.append("# classes " + " ".join(map(str, graph.classes)))
    w = np.flatnonzero(graph.loops)
    pairs = np.column_stack((graph.a, graph.b, graph.y))
    rows = np.concatenate((pairs, np.column_stack((w, w, graph.loops[w]))))
    # one format call over every value: faster than a call per row
    lines.append("%d %d %d\n" * len(rows) % tuple(rows.ravel().tolist()))
    return "\n".join(lines)


def graph_from_text(text: str) -> ObservedMultigraph:
    """Parse the edge-list text form (inverse of :func:`graph_to_text`).

    Without a ``# n`` header the vertex count is inferred as one past the
    largest vertex mentioned; a ``# n`` header must carry one integer, a
    ``# classes`` header integers, and an edge-list line three integers.
    """
    n = classes = None
    words = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            fields = line[1:].split()
            if fields and fields[0] == "n":
                try:
                    (n,) = map(int, fields[1:])
                except ValueError:
                    raise ValueError(f"bad '# n' header, not one integer: {raw!r}") from None
            elif fields and fields[0] == "classes":
                try:
                    classes = [int(c) for c in fields[1:]]
                except ValueError:
                    raise ValueError(f"bad '# classes' header, not integers: {raw!r}") from None
            continue
        fields = line.split()
        try:
            if len(fields) not in (0, 3):
                raise ValueError
            words += map(int, fields)
        except ValueError:
            raise ValueError(f"bad edge-list line: {raw!r}") from None
    a, b, y = int_array(words, "edge-list fields").reshape(-1, 3).T
    if n is None:
        if not len(y):
            raise ValueError("empty edge-list text: no '# n' header and no edges")
        n = int(max(a.max(), b.max())) + 1
    pair = a != b
    return ObservedMultigraph._from_arrays(
        n, a[pair], b[pair], y[pair], a[~pair], y[~pair], classes
    )
