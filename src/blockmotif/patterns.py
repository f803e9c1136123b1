"""Fixed pattern graphs and their structural exponents.

A pattern is a small undirected graph that may carry parallel edges (a
multiplicity per vertex pair) and self-loops (a count per vertex).  This
module computes everything about a pattern that the error bounds and the
copy counter consume: automorphism group and count, number of distinct
placements on a labelled vertex set, edge densities, the subgraph-minimum
exponents ``alpha``/``gamma`` and their multiplicity-insensitive variants
``alpha_m``/``gamma_m``, the intersection-size exponent ``kappa``, and the
balancedness classification.

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
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

import numpy as np

__all__ = [
    "PatternGraph",
    "BalancednessProfile",
    "automorphism_count",
    "automorphisms",
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
        v = int(vertex_count)
        if v < 1:
            raise ValueError("pattern needs at least one vertex")
        edges = {}
        for (a, b), m in dict(edge_mult).items():
            a, b = int(a), int(b)
            m = int(m)
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
            w, c = int(w), int(c)
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


def automorphism_count(pattern: PatternGraph) -> int:
    """Number of vertex permutations preserving multiplicities and loops."""
    return len(automorphisms(pattern))


@lru_cache(maxsize=None)
def automorphisms(pattern: PatternGraph) -> tuple[tuple[int, ...], ...]:
    """The automorphism group: each permutation ``g`` as the tuple of images
    ``g[u]``, in lexicographic order (the identity first)."""
    v = pattern.vertex_count
    mult = [[0] * v for _ in range(v)]
    for (a, b), m in pattern.edge_mult.items():
        mult[a][b] = mult[b][a] = m
    loops = [pattern.self_loops.get(w, 0) for w in range(v)]
    # invariant used for pruning: (loop count, sorted incident multiplicities)
    signature = [(loops[u], tuple(sorted(mult[u]))) for u in range(v)]

    group = []
    image = [0] * v
    used = [False] * v

    def extend(pos: int) -> None:
        if pos == v:
            group.append(tuple(image))
            return
        for img in range(v):
            if used[img] or signature[pos] != signature[img]:
                continue
            row = mult[pos]
            img_row = mult[img]
            if all(row[j] == img_row[image[j]] for j in range(pos)):
                used[img] = True
                image[pos] = img
                extend(pos + 1)
                used[img] = False

    extend(0)
    return tuple(group)


def rho(pattern: PatternGraph) -> int:
    """Number of distinct placements of the pattern on a fixed labelled set.

    Equals v! divided by the automorphism count.
    """
    v = pattern.vertex_count
    a = automorphism_count(pattern)
    out, rem = divmod(math.factorial(v), a)
    assert rem == 0
    return out


@lru_cache(maxsize=None)
def placements(pattern: PatternGraph):
    """All distinct images of the pattern on slots 0..v-1.

    Returns a tuple of ``(pair_requirements, loop_requirements)`` entries,
    where ``pair_requirements`` lists the required multiplicity for each slot
    pair in lexicographic order of ``combinations(range(v), 2)`` and
    ``loop_requirements`` lists the required self-loop count per slot.  The
    tuple has exactly ``rho(pattern)`` entries.
    """
    v = pattern.vertex_count
    slot_pairs = list(combinations(range(v), 2))
    pair_index = {p: k for k, p in enumerate(slot_pairs)}
    seen = set()
    out = []
    for perm in permutations(range(v)):
        req = [0] * len(slot_pairs)
        for (a, b), m in pattern.edge_mult.items():
            pa, pb = perm[a], perm[b]
            if pa > pb:
                pa, pb = pb, pa
            req[pair_index[(pa, pb)]] = m
        loop_req = [0] * v
        for w, c in pattern.self_loops.items():
            loop_req[perm[w]] = c
        key = (tuple(req), tuple(loop_req))
        if key not in seen:
            seen.add(key)
            out.append(key)
    assert len(out) == rho(pattern)
    return tuple(out)


def _simple_subgraph_stats(pairs, v):
    """Distinct (v(H), e(H)) over proper nonempty edge subsets, all mult 1.

    Vectorized over all 2^f subsets: edge count by bit, vertex set by OR of
    endpoint masks, then unique (vertex count, edge count) pairs.
    """
    f = len(pairs)
    n_sub = 1 << f
    idx = np.arange(n_sub, dtype=np.uint64)
    e_h = np.zeros(n_sub, dtype=np.uint16)
    cover = np.zeros(n_sub, dtype=np.uint32)
    for k, (a, b) in enumerate(pairs):
        chosen = ((idx >> np.uint64(k)) & np.uint64(1)).astype(bool)
        e_h[chosen] += 1
        cover[chosen] |= np.uint32((1 << a) | (1 << b))
    vertex_bits = np.array([bin(i).count("1") for i in range(1 << v)], dtype=np.uint8)
    v_h = vertex_bits[cover]
    keep = (e_h > 0) & (idx != n_sub - 1)
    codes = np.unique(v_h[keep].astype(np.uint32) * np.uint32(f + 1) + e_h[keep])
    return {(int(c) // (f + 1), int(c) % (f + 1)) for c in codes}


def _subgraph_stats(pairs, mults, v):
    """Distinct (v(H), e(H)) over proper nonempty sub-multigraphs.

    H ranges over componentwise-lowered multiplicity vectors (not all at
    maximum, at least one edge), with vertex set equal to the endpoints of
    the pairs kept at positive multiplicity.
    """
    if all(m == 1 for m in mults):
        if len(pairs) > 23:
            raise ValueError(
                f"subgraph enumeration too large (2^{len(pairs)} candidates)"
            )
        return _simple_subgraph_stats(pairs, v)
    total = 1
    for m in mults:
        total *= m + 1
    if total > 4_000_000:
        raise ValueError(f"subgraph enumeration too large ({total} candidates)")
    stats = set()
    full = tuple(mults)
    for choice in product(*(range(m + 1) for m in mults)):
        if choice == full:
            continue
        e_sub = sum(choice)
        if e_sub == 0:
            continue
        verts = set()
        for (a, b), c in zip(pairs, choice):
            if c:
                verts.add(a)
                verts.add(b)
        stats.add((len(verts), e_sub))
    return stats


def _minima(stats, v, total, density):
    """Subgraph minima from (v(H), e(H)) statistics.

    Returns ``(alpha, gamma, balanced)`` where ``alpha`` minimizes
    ``(total - e_H) / (v - v_H)`` over subgraphs on fewer vertices,
    ``gamma`` minimizes ``density * v_H - e_H``, and ``balanced`` records
    whether every subgraph is strictly less dense than ``density``.
    """
    alpha = None
    gamma = None
    balanced = True
    for v_h, e_h in stats:
        if Fraction(e_h, v_h) >= density:
            balanced = False
        deficit = density * v_h - e_h
        if gamma is None or deficit < gamma:
            gamma = deficit
        if v_h < v:
            rate = Fraction(total - e_h, v - v_h)
            if alpha is None or rate < alpha:
                alpha = rate
    return alpha, gamma, balanced


def balancedness_profile(pattern: PatternGraph) -> BalancednessProfile:
    """Exact densities, subgraph-minimum exponents and balancedness flags.

    Rejects patterns with no edges: a pure self-loop pattern has no edge
    density.  Self-loops are ignored throughout (the loop-free part of the
    pattern is what gets classified).
    """
    return _balancedness_profile_cached(pattern)


@lru_cache(maxsize=None)
def _balancedness_profile_cached(pattern: PatternGraph) -> BalancednessProfile:
    e = pattern.edge_total
    if e == 0:
        raise ValueError("pattern has no edges: densities are undefined")
    v = pattern.vertex_count
    f = pattern.supported_pairs
    density = Fraction(e, v)
    pseudo_density = Fraction(f, v)

    pairs = list(pattern.edge_mult.keys())
    mults = list(pattern.edge_mult.values())
    stats = _subgraph_stats(pairs, mults, v)
    alpha, gamma, strictly_balanced = _minima(stats, v, e, density)

    if pattern.max_multiplicity == 1:
        reduced_stats = stats
    else:
        reduced_stats = _subgraph_stats(pairs, [1] * len(pairs), v)
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


def kappa(pattern: PatternGraph, i: int, variant: str = "simple"):
    """Overlap exponent ``max(e - i*density + gamma, (v - i)*alpha)``.

    ``i`` is the number of vertices an overlapping placement shares with the
    pattern, ``1 <= i <= v-1``.  ``variant="simple"`` uses the edge density
    with ``alpha``/``gamma`` and requires a loop-free pattern without
    parallel edges; ``variant="multi"`` uses the supported-pair density with
    ``alpha_m``/``gamma_m``.  Returns an exact Fraction, or ``math.inf``
    when the pattern has no admissible proper subgraph.
    """
    v = pattern.vertex_count
    if not 1 <= i <= v - 1:
        raise ValueError(f"i must be in 1..{v - 1}, got {i}")
    prof = balancedness_profile(pattern)
    if variant == "simple":
        if pattern.max_multiplicity > 1:
            raise ValueError("simple variant requires a pattern without parallel edges")
        if pattern.loop_total > 0:
            raise ValueError("simple variant requires a pattern without self-loops")
        dens, alpha, gamma = prof.density, prof.alpha, prof.gamma
    elif variant == "multi":
        dens, alpha, gamma = prof.pseudo_density, prof.alpha_m, prof.gamma_m
    else:
        raise ValueError(f"unknown kappa variant {variant!r}")
    if alpha is None or gamma is None:
        return math.inf
    e = pattern.edge_total
    return max(e - i * dens + gamma, (v - i) * alpha)


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
    edges = {}
    for u, w, m in obj.get("edges", []):
        edges[(int(u), int(w))] = int(m)
    loops = {int(w): int(c) for w, c in obj.get("self_loops", [])}
    return PatternGraph(int(obj["vertices"]), edges, loops)


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
    """Resolve a pattern argument: named shortcut, inline JSON, or file path."""
    try:
        return pattern_from_name(text)
    except ValueError:
        pass
    stripped = text.strip()
    if stripped.startswith("{"):
        return pattern_from_json(json.loads(stripped))
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            return pattern_from_json(json.load(fh))
    raise ValueError(f"cannot interpret pattern argument {text!r}")
