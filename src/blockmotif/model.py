"""Block multigraph model: specification, sampling, and extreme moments.

A model assigns each of ``n`` vertices an independent class drawn from the
class-probability vector ``f`` and then, conditionally on the classes, draws
every unordered vertex pair's edge count independently from the law attached
to its class pair.  Optional extensions: per-vertex degree weights (each
pair's count becomes Poisson with rate ``weight_i * weight_j * rate_ab``;
only defined when every edge law is Poisson) and per-class self-loop laws.

Sampling is reproducible by construction: every random quantity reads
exactly one uniform from a keyed substream — classes from ``(seed, 0, i)``,
the count of pair ``i < j`` from ``(seed, i, j)``, the self-loop count of
vertex ``i`` from ``(seed, i, i)``, all with 1-based vertex labels — and is
produced from that uniform by inverting the law's CDF.  One sampler,
``_sampler(spec)``, is prepared once per call from the spec alone: its
cell samplers decide whether a Poisson mean is too large to invert, then
it builds the pair index arrays, the words that fold the vertex and pair
labels and the class CDF, before anything is drawn.  Its ``draw(keys)``
samples a block of graphs, one per key, as arrays in one numpy pass;
``sample_graph`` is a block of one.  Every cell hashes its uniform, a
block's pair keys in place in one buffer the sampler keeps, but a law's
CDF at 0 gives a float cut at or below which the uniform provably inverts
to 0, so only the candidates above the lowest cut, picked on the raw
64-bit keys, are inverted: in the sparse regime most pairs are never
inverted, and the block comes back as the endpoints and counts of its
nonzero pairs, degree-weighted or not.  Each value depends only on its
own key and labels, so results never depend on iteration order or on how
replicates are grouped into blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._rng import (
    _MASK,
    _mix64_np,
    key_chains,
    key_floor,
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
        n = int(n)
        Q = int(Q)
        if n < 1:
            raise ValueError("n must be at least 1")
        if Q < 1:
            raise ValueError("Q must be at least 1")
        # exact entries (Fraction/int/Decimal) are preserved for the
        # exact-rational computation path; floats stay floats
        f = tuple(x if isinstance(x, float) else Fraction(x) for x in f)
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
            weights = tuple(float(w) for w in degree_weights)
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

    ``edge_counts`` maps unordered pairs to positive counts (zero entries
    are dropped), ``self_loop_counts`` maps vertices to positive loop
    counts, and ``classes`` optionally records the class label per vertex.
    """

    def __init__(self, n, edge_counts, self_loop_counts=None, classes=None):
        n = int(n)
        if n < 0:
            raise ValueError("n must be nonnegative")
        counts = {}
        for (a, b), y in dict(edge_counts).items():
            a, b = int(a), int(b)
            y = int(y)
            if a == b:
                raise ValueError("self-loops belong in self_loop_counts")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"pair ({a},{b}) outside vertex range 0..{n - 1}")
            if y < 0:
                raise ValueError("edge counts must be nonnegative")
            key = (a, b) if a < b else (b, a)
            if key in counts:
                raise ValueError(f"pair {key} appears twice")
            if y > 0:
                counts[key] = y
        loops = {}
        for w, s in dict(self_loop_counts or {}).items():
            w, s = int(w), int(s)
            if not 0 <= w < n:
                raise ValueError(f"vertex {w} outside range 0..{n - 1}")
            if s < 0:
                raise ValueError("self-loop counts must be nonnegative")
            if s > 0:
                loops[w] = s
        if classes is not None:
            classes = tuple(int(c) for c in classes)
            if len(classes) != n:
                raise ValueError(f"classes has {len(classes)} entries, expected n={n}")
        self.n = n
        self.edge_counts = dict(sorted(counts.items()))
        self.self_loop_counts = dict(sorted(loops.items()))
        self.classes = classes

    def __eq__(self, other):
        return isinstance(other, ObservedMultigraph) and (
            self.n,
            self.edge_counts,
            self.self_loop_counts,
            self.classes,
        ) == (other.n, other.edge_counts, other.self_loop_counts, other.classes)

    def __repr__(self):
        return (
            f"ObservedMultigraph(n={self.n}, edges={len(self.edge_counts)}, "
            f"loops={len(self.self_loop_counts)})"
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


def _top_pair_weight(weights) -> float:
    """The largest pair weight ``weight_i * weight_j``, the product of the
    two largest weights; 0.0 when fewer than two vertices make no pair."""
    top = sorted(weights, reverse=True) + [0.0, 0.0]
    return top[0] * top[1]


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
        inhom_max = _top_pair_weight(spec.degree_weights) * max(law.rate for law in laws)
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


# direct CDF inversion starts from exp(-rate), which underflows near rate 745
_MAX_POISSON_RATE = 700.0


def _poisson_icdf(u: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Elementwise smallest k with Poisson(rate) CDF(k) >= u.

    Forward CDF stepping, over only the elements whose CDF is still below
    their u; each element's result depends only on its own (u, rate), so
    any grouping of calls yields identical values.  Rates must not exceed
    ``_MAX_POISSON_RATE``.
    """
    rates = np.asarray(rates, dtype=np.float64)
    pmf = np.exp(-rates)
    counts = np.zeros(u.shape, dtype=np.int64)
    active = np.flatnonzero(pmf < u)
    u, rates, pmf = (x.reshape(-1)[active] for x in (u, rates, pmf))
    cdf = pmf.copy()
    k = 0
    while active.size:
        k += 1
        if k > 10**6:
            raise RuntimeError("Poisson CDF inversion did not converge")
        pmf *= rates / k
        cdf += pmf
        counts.reshape(-1)[active] = k
        keep = (cdf < u) & (pmf > 0.0)
        active, u, rates, pmf, cdf = (x[keep] for x in (active, u, rates, pmf, cdf))
    return counts


def _categorical_icdf(u: np.ndarray, law: Categorical) -> np.ndarray:
    cum = np.cumsum(np.asarray(law.probabilities, dtype=np.float64))
    idx = np.searchsorted(cum, u, side="right")
    return np.minimum(idx, len(cum) - 1).astype(np.int64)


def _geometric_icdf(u: np.ndarray, law: Geometric) -> np.ndarray:
    if law.ratio == 0.0:
        return np.zeros(u.shape, dtype=np.int64)
    # CDF(k) = 1 - ratio^(k+1); invert and round up to the crossover integer
    raw = np.ceil(np.log1p(-u) / math.log(law.ratio)) - 1.0
    return np.maximum(raw, 0.0).astype(np.int64)


def _sample_counts(u: np.ndarray, law: EdgeCountDistribution) -> np.ndarray:
    if isinstance(law, Poisson):
        return _poisson_icdf(u, np.full(u.shape, law.rate))
    if isinstance(law, Categorical):
        return _categorical_icdf(u, law)
    if isinstance(law, Geometric):
        return _geometric_icdf(u, law)
    raise TypeError(f"not an edge-count law: {law!r}")


def _zero_cut(law: EdgeCountDistribution) -> float:
    """A uniform ``u <= cut`` inverts to 0 under ``law``.

    The cut reads the same floats as the inversion, so for Poisson and
    categorical laws ``u > cut`` holds exactly when the count is positive;
    every geometric uniform stays a candidate.
    """
    if isinstance(law, Poisson):
        # _poisson_icdf's first test, pmf < u, at k = 0
        return float(np.exp(-np.full(1, law.rate))[0])
    if isinstance(law, Categorical):
        # searchsorted(cum, u, "right") is 0 exactly when u < cum[0]
        cum0 = np.cumsum(np.asarray(law.probabilities, dtype=np.float64))[0]
        return float(np.nextafter(cum0, -np.inf))
    return -1.0


def _cell_sampler(laws, top_weight=None):
    """Prepare ``sample(keys, law_of, weight_of=None)``, the nonzero counts
    of the cells whose stream keys are ``keys``.

    ``law_of`` maps flat cell indices to indices into ``laws``.
    Degree-weighted cells, all Poisson, give ``weight_of``, their weights
    by flat index, and ``top_weight``, the largest; a cell's rate is its
    weight times its law's.  A largest rate (times ``top_weight``) above
    ``_MAX_POISSON_RATE`` is refused here.  Only the candidates are
    inverted, the raw keys at or past the ``key_floor`` of the lowest law's
    cut, or with weights of the largest mean's cut lowered by a relative
    2**-40, far more than ``np.exp``'s rounding (none when that floor passes
    every key); every other cell is provably 0.  The Poisson candidates are
    inverted in one call, each with its own rate, the others one law at a
    time.  ``sample`` returns the flat cell indices, increasing, and their
    positive counts.
    """
    poisson = np.array([isinstance(law, Poisson) for law in laws])
    rates = np.array([law.rate if isinstance(law, Poisson) else 0.0 for law in laws])
    largest = float(rates.max()) * (1.0 if top_weight is None else top_weight)
    if largest > _MAX_POISSON_RATE:
        raise ValueError("Poisson rate too large for direct CDF inversion")
    # zero rates stay 0 under any weight, also an overflowed one (inf * 0)
    if top_weight is None or not rates.any():
        lowest = key_floor(min(_zero_cut(law) for law in laws))
    else:
        lowest = key_floor(_zero_cut(Poisson(largest)) * (1.0 - 2.0**-40))
    others = [(c, law) for c, law in enumerate(laws) if not poisson[c]]

    def sample(keys, law_of, weight_of=None):
        if lowest > _MASK:
            cells = np.zeros(0, dtype=np.int64)
        else:
            cells = np.flatnonzero(keys >= np.uint64(lowest))
        u = uniforms_from_keys(keys.reshape(-1)[cells])
        law_index = law_of(cells)
        counts = np.zeros(cells.shape, dtype=np.int64)
        at = np.flatnonzero(poisson[law_index])
        cell_rates = rates[law_index[at]]
        if weight_of is not None:
            cell_rates = weight_of(cells[at]) * cell_rates
        counts[at] = _poisson_icdf(u[at], cell_rates)
        for c, law in others:
            at = np.flatnonzero(law_index == c)
            counts[at] = _sample_counts(u[at], law)
        keep = np.flatnonzero(counts)
        return cells[keep], counts[keep]

    return sample


def _sampler(spec: SbmmSpec):
    """Prepare sampling from ``spec``: returns ``draw(keys)``, which samples
    one graph per uint64 key, all in one pass.

    What depends only on the spec is built here once: first the pair and
    loop cell samplers (``_cell_sampler``), which refuse a Poisson mean too
    large to invert before any array of the pairs is made, then the pair
    index arrays, the words that fold the labels and the class CDF.

    Row r of ``draw(keys)`` is the graph ``sample_graph(spec, keys[r])``.
    ``draw`` returns the classes ``(R, n)``; the nonzero pair counts as
    ``(rows, a, b, y)``, pair ``a < b`` of row ``rows`` carrying ``y`` edges,
    sorted by ``(row, a, b)``; and the self-loop counts ``(R, n)`` (zero
    without self-loop laws).  Every cell hashes its own keyed uniform, the
    pairs in place in one buffer of keys that ``draw`` keeps and grows to
    the largest block, but only the candidates are inverted, a weighted
    one with its weight ``weight_i * weight_j``.  No output shares the
    buffer, and every inversion works elementwise, so a row does not depend
    on the other keys in the block.
    """
    n, Q = spec.n, spec.Q
    # one law per unordered class pair (the law matrix is symmetric)
    laws = list(dict.fromkeys(spec.distinct_laws()))
    law_at = np.array([[laws.index(law) for law in row] for row in spec.edge_laws])
    weighted = spec.degree_weights is not None
    top = _top_pair_weight(spec.degree_weights) if weighted else None
    sample_pairs = _cell_sampler(laws, top)
    if spec.self_loop_laws is not None:
        sample_loops = _cell_sampler(spec.self_loop_laws)
    iu, ju = np.triu_indices(n, k=1)
    # words[i] folds label i: the prefixes (key, i) take i = 0..n, classes
    # (key, 0, i) and loops (key, i, i) a vertex label i = 1..n after their
    # prefix, pairs (key, i, j) the label j = ju + 1 after prefix i = iu + 1
    words = label_words(np.arange(n + 1))
    vertex_words, pair_words, pair_prefix = words[1:], words[ju + 1], iu + 1
    # the pair keys of a block, kept for the call and grown with the block
    # size, so that every block hashes into the same pages
    buffer = np.empty((0, len(iu)), dtype=np.uint64)
    cum_f = np.cumsum(np.asarray(spec.f, dtype=np.float64))
    pair_weights = None
    if weighted:
        theta = np.asarray(spec.degree_weights, dtype=np.float64)

        def pair_weights(cells):
            k = cells % len(iu)
            return theta[iu[k]] * theta[ju[k]]

    def draw(keys: np.ndarray):
        nonlocal buffer
        # substream_key(key, i) for i = 0..n: the prefix of every stream
        prefix = _mix64_np(key_chains(keys)[:, None] ^ words)

        # vertex classes from substreams (key, 0, i); one class needs no draw
        classes = np.zeros((len(keys), n), dtype=np.int64)
        if Q > 1:
            class_u = uniforms_from_keys(_mix64_np(prefix[:, :1] ^ vertex_words))
            classes = np.minimum(np.searchsorted(cum_f, class_u, side="right"), Q - 1)

        # pair counts from substreams (key, i, j), i < j
        if len(keys) > len(buffer):
            buffer = np.empty((len(keys), len(iu)), dtype=np.uint64)
        # mode "clip" writes straight into the buffer (every index is valid)
        pair_keys = buffer[: len(keys)]
        np.take(prefix, pair_prefix, axis=1, out=pair_keys, mode="clip")
        pair_keys ^= pair_words
        _mix64_np(pair_keys)

        def pair_laws(cells):
            r, k = np.divmod(cells, len(iu))
            return law_at[classes[r, iu[k]], classes[r, ju[k]]]

        cells, y = sample_pairs(pair_keys, pair_laws, pair_weights)
        rows, k = np.divmod(cells, len(iu))

        # self-loop counts from substreams (key, i, i)
        loops = np.zeros(classes.size, dtype=np.int64)
        if spec.self_loop_laws is not None:
            loop_keys = _mix64_np(prefix[:, 1:] ^ vertex_words)
            cells, counts = sample_loops(loop_keys, classes.reshape(-1).__getitem__)
            loops[cells] = counts
        return classes, (rows, iu[k], ju[k], y), loops.reshape(classes.shape)

    return draw


def sample_graph(spec: SbmmSpec, seed: int) -> ObservedMultigraph:
    """Draw one multigraph from the model, deterministically in ``seed``.

    ``seed`` is taken modulo 2**64, like every stream key.
    """
    key = np.array([seed & _MASK], dtype=np.uint64)
    (classes,), (_, a, b, y), (loops,) = _sampler(spec)(key)
    edges = dict(zip(zip(a.tolist(), b.tolist()), y.tolist()))
    nz = np.flatnonzero(loops)
    self_loops = dict(zip(nz.tolist(), loops[nz].tolist()))
    return ObservedMultigraph(spec.n, edges, self_loops, classes=classes.tolist())


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
        lines.append("# classes " + " ".join(str(c) for c in graph.classes))
    for (a, b), y in graph.edge_counts.items():
        lines.append(f"{a} {b} {y}")
    for w, s in graph.self_loop_counts.items():
        lines.append(f"{w} {w} {s}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> ObservedMultigraph:
    """Parse the edge-list text form (inverse of :func:`graph_to_text`).

    Without a ``# n`` header the vertex count is inferred as one past the
    largest vertex mentioned; a ``# n`` header must carry one integer.
    """
    n = None
    classes = None
    edges = {}
    loops = {}
    max_vertex = -1
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split()
            if fields and fields[0] == "n":
                try:
                    (n,) = map(int, fields[1:])
                except ValueError:
                    raise ValueError(f"bad '# n' header, not one integer: {raw!r}") from None
            elif fields and fields[0] == "classes":
                classes = [int(c) for c in fields[1:]]
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad edge-list line: {raw!r}")
        a, b, y = int(parts[0]), int(parts[1]), int(parts[2])
        max_vertex = max(max_vertex, a, b)
        if a == b:
            if a in loops:
                raise ValueError(f"self-loop line for vertex {a} appears twice")
            loops[a] = y
        else:
            key = (a, b) if a < b else (b, a)
            if key in edges:
                raise ValueError(f"edge line for pair {key} appears twice")
            edges[key] = y
    if n is None:
        if max_vertex < 0:
            raise ValueError("empty edge-list text: no '# n' header and no edges")
        n = max_vertex + 1
    return ObservedMultigraph(n, edges, loops, classes=classes)
