"""Fixed pattern graphs and their structural exponents.

A pattern is a small undirected graph that may carry parallel edges (a
multiplicity per vertex pair) and self-loops (a count per vertex).  This
module computes everything about a pattern that the error bounds and the
copy counter consume: the automorphism group as a stabilizer chain, and
from it the automorphism count, one injective map per automorphism orbit
and the distinct placements on a labelled vertex set; edge densities, the
subgraph-minimum exponents ``alpha``/``gamma`` and their multiplicity-
insensitive variants ``alpha_m``/``gamma_m``, the intersection-size
exponent ``kappa``, and the balancedness classification.

All densities and exponents are exact :class:`fractions.Fraction` values so
that downstream comparisons are equality checks, never tolerance checks.

Subgraph convention
-------------------
The minima behind ``alpha``, ``gamma`` and the balancedness flags range over
sub-multigraphs ``H`` obtained by lowering pair multiplicities componentwise
(each pair kept at anywhere from 0 up to its multiplicity, not all at the
maximum), with at least one edge and with vertex set equal to the endpoints
of the edges kept.  ``alpha`` additionally requires ``v(H) < v(G)`` (its
denominator must be positive); ``gamma`` admits ``v(H) = v(G)``.

``alpha_m``/``gamma_m`` range over subgraphs of the multiplicity-1 reduction
instead, so for them the edge count of ``H`` equals its supported-pair
count, and properness is the same thing as dropping at least one supported
pair.  Self-loops never enter any of these quantities; a pattern consisting
only of self-loops has no densities at all.

Both statistic sets come from one chunked numpy pass over the grid of
lowered multiplicity vectors, with one limit: grids of more than 2^23
candidates (e.g. 24 pairs at multiplicity 1) are refused before any work.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from ._checks import as_int

__all__ = [
    "PatternGraph",
    "BalancednessProfile",
    "automorphism_count",
    "stabilizer_chain",
    "orbit_bounds",
    "orbit_slots",
    "rho",
    "placements",
    "balancedness_profile",
    "kappa",
    "pattern_from_name",
    "pattern_from_json",
    "pattern_to_json",
    "load_pattern",
]


class PatternGraph:
    """An undirected pattern graph with edge multiplicities and self-loops.

    Args:
        vertex_count: number of vertices; vertices are labelled 0..v-1.
        edge_mult: mapping from vertex pairs (any order) to a nonnegative
            multiplicity.  Zero entries are dropped.
        self_loops: optional mapping from vertex to its self-loop count.

    Every vertex must be incident to at least one edge or self-loop, and a
    pattern without self-loops must have at least one edge.
    """

    def __init__(self, vertex_count, edge_mult, self_loops=None):
        v = as_int(vertex_count, "vertex count")
        if v < 1:
            raise ValueError("pattern needs at least one vertex")
        edges = {}
        for (a, b), m in dict(edge_mult).items():
            a, b = as_int(a, "pair ends"), as_int(b, "pair ends")
            m = as_int(m, "edge multiplicity")
            if m < 0:
                raise ValueError("edge multiplicity must be nonnegative")
            if a == b:
                raise ValueError("use self_loops for loops, not edge_mult")
            if not (0 <= a < v and 0 <= b < v):
                raise ValueError(f"edge ({a},{b}) outside vertex range 0..{v - 1}")
            key = (a, b) if a < b else (b, a)
            if key in edges:
                raise ValueError(f"pair {key} appears twice")
            if m > 0:
                edges[key] = m
        loops = {}
        for w, c in dict(self_loops or {}).items():
            w, c = as_int(w, "self-loop vertex"), as_int(c, "self-loop count")
            if c < 0:
                raise ValueError("self-loop count must be nonnegative")
            if not 0 <= w < v:
                raise ValueError(f"self-loop vertex {w} outside range 0..{v - 1}")
            if c > 0:
                loops[w] = c
        covered = set()
        for a, b in edges:
            covered.add(a)
            covered.add(b)
        covered.update(loops)
        if covered != set(range(v)):
            missing = sorted(set(range(v)) - covered)
            raise ValueError(f"isolated vertices not allowed: {missing}")
        if not edges and not loops:
            raise ValueError("pattern has no edges and no self-loops")
        self.vertex_count = v
        self.edge_mult = dict(sorted(edges.items()))
        self.self_loops = dict(sorted(loops.items()))
        self._key = (v, tuple(self.edge_mult.items()), tuple(self.self_loops.items()))

    # -- derived counts ----------------------------------------------------

    @property
    def edge_total(self) -> int:
        """Total number of edges, counting multiplicities."""
        return sum(self.edge_mult.values())

    @property
    def supported_pairs(self) -> int:
        """Number of vertex pairs joined by at least one edge."""
        return len(self.edge_mult)

    @property
    def max_multiplicity(self) -> int:
        """Largest multiplicity over any vertex pair (0 if no edges)."""
        return max(self.edge_mult.values(), default=0)

    @property
    def loop_total(self) -> int:
        """Total number of self-loops."""
        return sum(self.self_loops.values())

    def multiplicity_histogram(self) -> dict[int, int]:
        """Number of pairs carrying exactly ``i`` edges, for each ``i >= 1``."""
        hist: dict[int, int] = {}
        for m in self.edge_mult.values():
            hist[m] = hist.get(m, 0) + 1
        return dict(sorted(hist.items()))

    def reduction(self) -> "PatternGraph":
        """The multiplicity-1 reduction (self-loops dropped, each pair once)."""
        if not self.edge_mult:
            raise ValueError("reduction undefined for a pattern with no edges")
        return PatternGraph(self.vertex_count, {p: 1 for p in self.edge_mult})

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, PatternGraph) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return (
            f"PatternGraph(vertex_count={self.vertex_count}, "
            f"edge_mult={self.edge_mult}, self_loops={self.self_loops})"
        )


@dataclass(frozen=True)
class BalancednessProfile:
    """Exact structural exponents of a pattern.

    ``alpha``/``gamma`` (and their reduction-based counterparts ``alpha_m``/
    ``gamma_m``) are ``None`` when the pattern has no admissible proper
    subgraph; downstream formulas treat ``None`` as +infinity.
    """

    density: Fraction
    pseudo_density: Fraction
    alpha: Fraction | None
    gamma: Fraction | None
    alpha_m: Fraction | None
    gamma_m: Fraction | None
    strictly_balanced: bool
    strictly_pseudo_balanced: bool


@lru_cache(maxsize=None)
def stabilizer_chain(pattern: PatternGraph, order: tuple[int, ...]):
    """The automorphism group as a stabilizer chain along a vertex order.

    Entry ``i`` is the orbit of ``order[i]`` under the automorphisms fixing
    ``order[:i]``: the ``w`` for which fixing those and sending ``order[i]``
    to ``w`` extends to an automorphism, by a backtracking search that stops
    at the first extension.  The orbit lies in ``order[i:]``, and the group
    order is the product of the orbit sizes.
    """
    v = pattern.vertex_count
    mult = [[0] * v for _ in range(v)]
    for (a, b), m in pattern.edge_mult.items():
        mult[a][b] = mult[b][a] = m
    # candidates at each position: the vertices with the same (loop count,
    # sorted incident multiplicities), which automorphisms preserve
    signature = [(pattern.self_loops.get(u, 0), sorted(mult[u])) for u in range(v)]
    twins = [[y for y in range(v) if signature[y] == signature[u]] for u in order]

    def extends(images) -> bool:
        # whether order[k] -> images[k], consistent before its last entry,
        # is consistent and extends to an automorphism
        pos = len(images) - 1
        row, img_row = mult[order[pos]], mult[images[pos]]
        if any(row[order[k]] != img_row[images[k]] for k in range(pos)):
            return False
        return pos + 1 == v or any(
            extends((*images, y)) for y in twins[pos + 1] if y not in images
        )

    return tuple(
        frozenset(w for w in twins[i] if w in order[i:] and extends((*order[:i], w)))
        for i in range(v)
    )


def orbit_bounds(pattern: PatternGraph, order: tuple[int, ...]) -> list[list[int]]:
    """Symmetry-breaking bounds along a vertex order (Grochow & Kellis 2007):
    entry ``i`` lists the earlier positions whose chain orbit holds
    ``order[i]``.  The maps sending each ``order[i]`` above the images of
    its listed positions are one per automorphism orbit."""
    chain = stabilizer_chain(pattern, order)
    return [[j for j in range(i) if u in chain[j]] for i, u in enumerate(order)]


def automorphism_count(pattern: PatternGraph) -> int:
    """Number of vertex permutations preserving multiplicities and loops."""
    order = tuple(range(pattern.vertex_count))
    return math.prod(map(len, stabilizer_chain(pattern, order)))


def rho(pattern: PatternGraph) -> int:
    """Number of distinct placements of the pattern on a fixed labelled set.

    Equals v! divided by the automorphism count.
    """
    v = pattern.vertex_count
    a = automorphism_count(pattern)
    out, rem = divmod(math.factorial(v), a)
    assert rem == 0
    return out


def orbit_slots(pattern: PatternGraph, m: int) -> np.ndarray:
    """Slots taken by one injective map of the pattern into ``range(m)`` per
    automorphism orbit.

    Row ``r`` lists, for each pattern pair and then each loop vertex (in
    ``edge_mult`` and ``self_loops`` order), its image's slot in an
    ``m``-vertex host: pairs in ``combinations(range(m), 2)`` order, then
    the ``m`` loop slots.  The maps grow one vertex at a time, each image
    distinct from the earlier ones and above those of its ``orbit_bounds``.
    """
    v = pattern.vertex_count
    x, maps = np.arange(m), np.zeros((1, 0), dtype=np.int64)
    for above in orbit_bounds(pattern, tuple(range(v))):
        keep = x > maps[:, above].max(axis=1, initial=-1)[:, None]
        keep[np.arange(len(maps))[:, None], maps] = False
        rows, images = np.nonzero(keep)
        maps = np.column_stack((maps[rows], images))
    ends = np.array(list(pattern.edge_mult), dtype=np.int64).reshape(-1, 2)
    a, b = maps[:, ends].transpose(2, 0, 1)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    loops = m * (m - 1) // 2 + maps[:, list(pattern.self_loops)]
    return np.hstack((lo * (2 * m - lo - 1) // 2 + hi - lo - 1, loops))


@lru_cache(maxsize=None)
def placements(pattern: PatternGraph):
    """All distinct images of the pattern on slots 0..v-1.

    Returns a tuple of ``(pair_requirements, loop_requirements)`` entries,
    where ``pair_requirements`` lists the required multiplicity for each slot
    pair in lexicographic order of ``combinations(range(v), 2)`` and
    ``loop_requirements`` lists the required self-loop count per slot.  The
    tuple has exactly ``rho(pattern)`` entries, one per ``orbit_slots`` row.
    """
    v = pattern.vertex_count
    slots = orbit_slots(pattern, v)
    req = np.zeros((len(slots), v * (v + 1) // 2), dtype=np.int64)
    rows = np.arange(len(slots))[:, None]
    req[rows, slots] = [*pattern.edge_mult.values(), *pattern.self_loops.values()]
    pairs, loops = np.split(req, [v * (v - 1) // 2], axis=1)
    out = tuple(zip(map(tuple, pairs.tolist()), map(tuple, loops.tolist())))
    assert len(out) == rho(pattern)
    return out


# candidate sub-multigraphs one enumeration may score, checked first
_SUBGRAPH_LIMIT = 1 << 23

# candidate rows per numpy slice: bounds the enumerator's working memory
_SLICE_ROWS = 1 << 15

# set bits per byte value; times _BYTE_SUM, an int64's top byte sums its bytes
_BYTE_BITS = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_BYTE_SUM = 0x0101010101010101


def _subgraph_stats(pattern: PatternGraph):
    """Distinct (v(H), e(H)) over the proper nonempty sub-multigraphs and
    distinct (v(H), f(H)) over those of the reduction, in one pass.

    A row of the grid of lowered multiplicity vectors (pair ``k`` at
    ``0..m_k``, the last pair least significant) keeps ``e(H)`` edges on
    ``f(H)`` pairs, over ``v(H)`` vertices: the set bits of an endpoint mask
    over compact labels (at most 46).  The all-maximum row is the only one
    with ``e(H) = e``.  The trailing sub-grid of at most ``_SLICE_ROWS`` rows
    is built once, and each slice of leading rows is broadcast against it.
    """
    pairs = pattern.edge_mult
    mults = list(pairs.values())
    radices = [m + 1 for m in mults]
    size = math.prod(radices)
    if size > _SUBGRAPH_LIMIT:
        raise ValueError(f"subgraph enumeration too large ({size} candidates)")
    ends = sorted({u for pair in pairs for u in pair})
    masks = [1 << ends.index(a) | 1 << ends.index(b) for a, b in pairs]
    e, f = sum(mults), len(mults)

    # pairs lead..f-1 form the trailing sub-grid of ``span`` rows
    lead, span = f, 1
    e_tail, f_tail, cover_tail = np.zeros((3, 1), dtype=np.int64)
    while lead and span * radices[lead - 1] <= _SLICE_ROWS:
        lead -= 1
        span *= radices[lead]
        digit = np.arange(radices[lead])[:, None]
        e_tail = (digit + e_tail).ravel()
        f_tail = ((digit > 0) + f_tail).ravel()
        cover_tail = ((digit > 0) * masks[lead] | cover_tail).ravel()
    heads, step = size // span, max(1, _SLICE_ROWS // span)
    codes = set()
    for first in range(0, heads, step):
        rows = np.arange(first, min(first + step, heads))
        e_h, f_h, cover = np.zeros((3, len(rows)), dtype=np.int64)
        for k in reversed(range(lead)):
            rows, digit = np.divmod(rows, radices[k])
            e_h += digit
            f_h += digit > 0
            cover |= (digit > 0) * masks[k]
        e_h, f_h = e_h[:, None] + e_tail, f_h[:, None] + f_tail
        cover = cover[:, None] | cover_tail
        v_h = (_BYTE_BITS[cover.view(np.uint8)].view(np.int64) * _BYTE_SUM) >> 56
        code = (v_h * (f + 1) + f_h) * (e + 1) + e_h
        code = np.sort(code[f_h > 0])  # np.unique's first call imports numpy.ma
        codes.update(code[np.diff(code, prepend=-1) != 0].tolist())
    found = [(*divmod(c // (e + 1), f + 1), c % (e + 1)) for c in codes]
    return (
        {(v_h, e_h) for v_h, _, e_h in found if e_h < e},
        {(v_h, f_h) for v_h, f_h, _ in found if f_h < f},
    )


def _minima(stats, v, total, density):
    """Subgraph minima from (v(H), e(H)) statistics.

    Returns ``(alpha, gamma, balanced)`` where ``alpha`` minimizes
    ``(total - e_H) / (v - v_H)`` over subgraphs on fewer vertices,
    ``gamma`` minimizes ``density * v_H - e_H``, and ``balanced`` records
    whether every subgraph is strictly less dense than ``density``.
    """
    rates = [Fraction(total - e_h, v - v_h) for v_h, e_h in stats if v_h < v]
    return (
        min(rates, default=None),
        min((density * v_h - e_h for v_h, e_h in stats), default=None),
        all(Fraction(e_h, v_h) < density for v_h, e_h in stats),
    )


@lru_cache(maxsize=None)
def balancedness_profile(pattern: PatternGraph) -> BalancednessProfile:
    """Exact densities, subgraph-minimum exponents and balancedness flags.

    Rejects patterns with no edges: a pure self-loop pattern has no edge
    density.  Self-loops are ignored throughout (the loop-free part of the
    pattern is what gets classified).
    """
    e = pattern.edge_total
    if e == 0:
        raise ValueError("pattern has no edges: densities are undefined")
    v = pattern.vertex_count
    f = pattern.supported_pairs
    density = Fraction(e, v)
    pseudo_density = Fraction(f, v)
    stats, reduced_stats = _subgraph_stats(pattern)
    alpha, gamma, strictly_balanced = _minima(stats, v, e, density)
    alpha_m, gamma_m, strictly_pseudo = _minima(reduced_stats, v, f, pseudo_density)

    return BalancednessProfile(
        density=density,
        pseudo_density=pseudo_density,
        alpha=alpha,
        gamma=gamma,
        alpha_m=alpha_m,
        gamma_m=gamma_m,
        strictly_balanced=strictly_balanced,
        strictly_pseudo_balanced=strictly_pseudo,
    )


def kappa(pattern: PatternGraph, i: int):
    """Overlap exponent ``max(e - i*pseudo_density + gamma_m, (v - i)*alpha_m)``.

    ``i`` is the number of vertices an overlapping placement shares with the
    pattern, ``1 <= i <= v-1``.  On a simple pattern the supported-pair
    density and ``alpha_m``/``gamma_m`` are the edge density and
    ``alpha``/``gamma``, so this is also Thm 3.1's exponent.  Returns an
    exact Fraction, or ``math.inf`` when the pattern has no admissible
    proper subgraph.
    """
    v = pattern.vertex_count
    if not 1 <= i <= v - 1:
        raise ValueError(f"i must be in 1..{v - 1}, got {i}")
    prof = balancedness_profile(pattern)
    alpha, gamma = prof.alpha_m, prof.gamma_m
    if alpha is None or gamma is None:
        return math.inf
    e = pattern.edge_total
    return max(e - i * prof.pseudo_density + gamma, (v - i) * alpha)


# -- construction helpers ---------------------------------------------------


def pattern_from_name(name: str) -> PatternGraph:
    """Build a pattern from a named shortcut.

    Accepted: ``triangle``, ``cycle:v``, ``complete:v``, ``path:v``,
    ``complete_multi:v:t`` (complete graph with every pair at multiplicity t).
    """
    parts = name.split(":")
    kind = parts[0]
    if kind == "triangle" and len(parts) == 1:
        return pattern_from_name("complete:3")
    if kind == "cycle" and len(parts) == 2:
        v = int(parts[1])
        if v < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return PatternGraph(v, {(i, (i + 1) % v): 1 for i in range(v)})
    if kind == "complete" and len(parts) == 2:
        v = int(parts[1])
        if v < 2:
            raise ValueError("complete graph needs at least 2 vertices")
        return PatternGraph(v, {p: 1 for p in combinations(range(v), 2)})
    if kind == "path" and len(parts) == 2:
        v = int(parts[1])
        if v < 2:
            raise ValueError("path needs at least 2 vertices")
        return PatternGraph(v, {(i, i + 1): 1 for i in range(v - 1)})
    if kind == "complete_multi" and len(parts) == 3:
        v, t = int(parts[1]), int(parts[2])
        if v < 2 or t < 1:
            raise ValueError("complete_multi needs v >= 2 and t >= 1")
        return PatternGraph(v, {p: t for p in combinations(range(v), 2)})
    raise ValueError(f"unknown pattern shortcut {name!r}")


def pattern_from_json(obj: dict) -> PatternGraph:
    """Build a pattern from its JSON object form.

    Expected shape: ``{"vertices": v, "edges": [[u, v, mult], ...],
    "self_loops": [[w, count], ...]}`` with 0-based vertex indices.
    """
    edges = {(u, w): m for u, w, m in obj.get("edges", [])}
    return PatternGraph(obj["vertices"], edges, dict(obj.get("self_loops", [])))


def pattern_to_json(pattern: PatternGraph) -> dict:
    """JSON object form of a pattern (inverse of :func:`pattern_from_json`)."""
    out = {
        "vertices": pattern.vertex_count,
        "edges": [[u, v, m] for (u, v), m in pattern.edge_mult.items()],
    }
    if pattern.self_loops:
        out["self_loops"] = [[w, c] for w, c in pattern.self_loops.items()]
    return out


def load_pattern(text: str) -> PatternGraph:
    """Resolve a pattern argument: named shortcut, inline JSON, or file path.

    An argument that is none of these is refused with the shortcut parser's
    reason appended.
    """
    try:
        return pattern_from_name(text)
    except ValueError as exc:
        shortcut_error = exc
    stripped = text.strip()
    if stripped.startswith("{"):
        return pattern_from_json(json.loads(stripped))
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            return pattern_from_json(json.load(fh))
    raise ValueError(f"cannot interpret pattern argument {text!r} ({shortcut_error})")
