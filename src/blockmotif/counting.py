"""Counting copies of a pattern inside an observed multigraph.

A copy of a pattern on a chosen vertex set picks, for every pattern pair
with multiplicity ``i``, an unordered set of ``i`` of the parallel edges the
graph carries on the image pair (and likewise a set of ``c`` self-loops for
a pattern vertex with ``c`` loops).  Two copies are the same when they use
the same edge sets, so a placement on a fixed vertex set contributes the
product of binomial coefficients ``C(observed, required)``, and placements
are enumerated once per automorphism orbit.

``_count_block`` sums the product over one injective map of the pattern
per automorphism orbit into each host of a block, for all hosts at once:
the block's hosts are one graph in compressed adjacency arrays, and the
partial maps grow one pattern vertex at a time along host edges, as numpy
arrays expanded in bounded chunks.  Each component starts from its host's
edges: its root and the root's first neighbour are placed together, one
directed adjacency entry at a time (only the forward ones, ``a < b``,
when the neighbour's image must exceed the root's), so only a pattern
vertex without neighbours is tried at every host vertex.  Symmetry-breaking
order bounds on the images (``_search_plan``, from the pattern's stabilizer
chain) pick the one map per orbit, so its sums are copy counts.  When
the bounds put every vertex above the neighbours it is checked against
(the triangle, the complete graphs), the adjacency holds each pair once,
from its lower vertex (the forward orientation of Schank & Wagner, WEA
2005, and Chiba & Nishizeki, SIAM J. Comput. 1985): the pairs' sorted
forward entry keys as given, with no reverse half and no sort.  The
sampler draws each block's pairs in that key form, ``monte_carlo_pmf``
hands them over as they are, and ``count_copies`` hands over one
``ObservedMultigraph`` as a block of one.
``count_copies_bruteforce`` independently sums the product over every
injective vertex map and divides by the automorphism count.  All return
exact integers.

The same binomial-product sums give the law of a copy count under a random
configuration: ``_count_law`` walks the grid of per-slot values of one
class assignment in fixed-size numpy chunks, each scored as a product of a
few leading-slot rows and a trailing sub-grid built once (broadcast
probability products, counts as outer products per term) and grouped by
count in a dense ``np.bincount`` histogram while the counts stay small.
The clump rates and the exact count law share it.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from .model import ObservedMultigraph
from .patterns import (
    PatternGraph,
    automorphism_count,
    orbit_bounds,
    orbit_slots,
    placements,
)

__all__ = ["count_copies", "count_copies_bruteforce", "clump_size"]

# rows of the configuration grid per chunk: bounds the enumerator's working
# memory whatever the grid size
_CHUNK_ROWS = 1 << 15

# candidate partial maps per expansion of the copy counter's frontier:
# bounds its working memory whatever the hosts' sizes and degrees
_FRONTIER_CHUNK = 1 << 14


def _binomials(values, max_req: int, worst: int) -> np.ndarray:
    """Table of ``C(values[k], r)`` at row ``r``, for ``r = 0..max_req``.

    ``worst`` bounds every count the caller sums from products of the
    entries.  The table is int64 when it and every entry fit: a product that
    wraps on the way still ends exact, as int64 arithmetic is exact modulo
    2**64.  Otherwise it holds Python integers in an object array.
    """
    table = [[math.comb(int(t), r) for t in values] for r in range(max_req + 1)]
    fits = max(worst, *map(max, table)) < 2**63
    return np.array(table, dtype=np.int64 if fits else object)


class _Plan(tuple):
    """The steps of a ``_search_plan``, with what the counter reads from
    the steps alone.

    ``max_req`` is the largest multiplicity or loop count any step
    requires; ``loops`` tells whether any step requires self-loops;
    ``unchecked[i]`` lists the earlier steps whose images step ``i``'s image
    must differ from but is neither checked against nor bounded by.
    ``seeded[i]`` tells whether step ``i`` is a component root placed
    together with its first neighbour, the next step, as one host edge, and
    ``forward[i]`` whether that neighbour's image must exceed the root's, so
    that only the edges ``a < b`` seed it.  ``sibling[i]`` is the step whose
    image is, by the bounds, the largest one step ``i``'s must exceed, when
    it was placed from the same anchor's adjacency (else None): step ``i``
    then tries the anchor's neighbours past that sibling's adjacency entry.
    ``carried`` lists the steps whose entries a later step starts from.
    ``forward_only`` tells whether every step's image must exceed, by the
    bounds and their chains, the images of all the steps it is checked
    against, so that the counter reads the forward entries ``a < b`` only.
    """

    def __new__(cls, steps):
        plan = super().__new__(cls, steps)
        plan.max_req = max(
            [m for checks, _, _ in plan for _, m in checks] + [c for _, c, _ in plan]
        )
        plan.loops = any(c for _, c, _ in plan)
        plan.unchecked = [
            [j for j in range(i) if j not in above and j not in dict(checks)]
            for i, (checks, _, above) in enumerate(plan)
        ]
        plan.seeded = [
            not checks and i + 1 < len(plan) and bool(plan[i + 1][0])
            for i, (checks, _, _) in enumerate(plan)
        ]
        plan.forward = [s and i in plan[i + 1][2] for i, s in enumerate(plan.seeded)]
        # the steps each step's image exceeds, by the bounds and their chains
        below = []
        for _, _, above in plan:
            below.append(set(above).union(*(below[j] for j in above)))
        plan.forward_only = all(
            j in below[i] for i, (checks, _, _) in enumerate(plan) for j, _ in checks
        )
        plan.sibling = []
        for checks, _, above in plan:
            anchor = checks[0][0] if checks else None
            siblings = [
                s
                for s in above
                if set(above) <= below[s] | {s} and plan[s][0] and plan[s][0][0][0] == anchor
            ]
            plan.sibling.append(siblings[0] if siblings else None)
        plan.carried = sorted({s for s in plan.sibling if s is not None})
        return plan


def _search_plan(pattern: PatternGraph) -> _Plan:
    """Search order of the pattern vertices, with what placing each needs.

    The order is breadth first over each component, so every vertex after a
    component root has an earlier neighbour; roots prefer vertices with
    self-loops, then high degree.  Returns one ``(checks, loops, above)``
    triple per step: ``checks`` lists the ``(earlier step, multiplicity)``
    pairs of the vertex's earlier neighbours (empty for a root), ``loops`` is
    its self-loop count, and ``above`` lists the earlier steps whose images
    its image must exceed.

    The ``above`` bounds keep one map per automorphism orbit (the
    symmetry-breaking conditions of Grochow & Kellis 2007): each step must
    take the smallest image in its orbit of the pattern's stabilizer chain
    along the search order (``orbit_bounds``).  The rest of the orbit comes
    later in the order, so every bound is a lower one.
    """
    v = pattern.vertex_count
    nbrs: list[dict[int, int]] = [{} for _ in range(v)]
    for (a, b), m in pattern.edge_mult.items():
        nbrs[a][b] = m
        nbrs[b][a] = m
    loops = pattern.self_loops
    order: list[int] = []
    for root in sorted(range(v), key=lambda u: (u not in loops, -len(nbrs[u]))):
        if root in order:
            continue
        i = len(order)
        order.append(root)
        while i < len(order):
            order += [w for w in nbrs[order[i]] if w not in order]
            i += 1
    step_of = {u: i for i, u in enumerate(order)}
    above = orbit_bounds(pattern, tuple(order))
    return _Plan(
        (
            sorted((step_of[w], m) for w, m in nbrs[u].items() if step_of[w] < i),
            loops.get(u, 0),
            above[i],
        )
        for i, u in enumerate(order)
    )


def count_copies(graph: ObservedMultigraph, pattern: PatternGraph) -> int:
    """Number of copies of the pattern in the graph (exact integer).

    Sums, over one injective map of the pattern's vertices into the host per
    automorphism orbit, the product of ``C(observed, required)`` over
    pattern pairs and loops.  The host is a block of one for
    ``_count_block``, so its work follows the host's edges rather than its
    C(n, v) vertex subsets.
    """
    n, v = graph.n, pattern.vertex_count
    if v > n:
        raise ValueError(f"pattern has {v} vertices but the graph only {n}")
    plan = _search_plan(pattern)
    (total,) = _count_block(plan, graph.loops[None], graph.a * n + graph.b, graph.y)
    return int(total)


def _count_block(plan, loops, keys, y) -> np.ndarray:
    """Copy counts of a planned pattern in every host of a block at once.

    ``plan`` is the pattern's ``_search_plan``.  Host ``r`` has
    ``n = loops.shape[1]`` vertices with ``loops[r]`` self-loops; its
    vertex ``x`` is vertex ``r * n + x`` of one block graph of ``size =
    hosts * n`` vertices.  The block's pairs come as their forward entry
    keys: ``y[k]`` parallel edges on the pair ``x < z`` of block vertices
    (both of one host) whose key ``keys[k]`` is ``x * size + z``, strictly
    increasing, as the sampler draws them and ``count_copies`` passes
    ``a * n + b`` for a block of one.  The block graph is held in
    compressed adjacency with its neighbours sorted, each entry one sorted
    key ``source * size + neighbour`` with a one-byte count index on
    sparse hosts, so an entry's images are its key's digits.  When every
    step's image exceeds those of the steps it is checked against
    (``plan.forward_only``: the triangle and the complete graphs among
    others), each pair is read from its lower vertex only, the "forward"
    orientation of Schank & Wagner (WEA 2005), so the keys as given are
    the whole adjacency, read as they are; other plans add each pair's
    reverse entry, its key's digits swapped by one ``np.divmod``, and sort
    both.  The partial maps of
    all hosts grow together, one plan step at a time, as arrays: a vertex
    with placed neighbours tries the neighbours of the first one's image
    and looks up the pair counts to the others.  A component root is
    seeded: it is placed together with its first neighbour, the next step,
    as one directed edge of its host, so the pair tries the host's sorted
    adjacency entries, each giving both images and the pair's count with
    no search; only a root without neighbours tries every vertex of its
    host.  A step's orbit bounds narrow its range to the images past the
    largest image of its ``above`` steps (for a seeded pair, the root's to
    the entries leaving the vertices past it; the neighbour's are
    filters), so only one map per automorphism orbit is ever kept.  When
    the neighbour must exceed the root (``plan.forward``), the pair tries
    the forward entries ``a < b`` only, half the directed ones of a
    two-way adjacency.  When a
    step's largest bound is a sibling placed from the same anchor's
    adjacency (``plan.sibling``), its range starts past the sibling's
    entry, which the maps carry, rather than at a binary search.
    A map whose next step starts past the entry it was just placed from,
    when that entry ends its anchor's range, has no children and is
    dropped before anything else is read for it (most seeded triangle maps
    on sparse hosts, where most vertices have one forward neighbour).
    Partial maps are expanded in chunks of at most ``_FRONTIER_CHUNK``
    candidates, depth first, a map's range split across chunks when it
    is longer, and a chunk's arrays are freed before its maps grow
    further, so working memory stays bounded.  Returns one sum
    of binomial products per host, which is its copy count: int64 when a
    certified bound on it fits, Python integers in an object array
    otherwise.  The bound takes each anchored step's candidates as the
    largest degree of the adjacency read: a forward-only plan's forward
    degrees still bound them, as such a step only reads forward entries.
    """
    hosts, n = loops.shape
    size = hosts * n
    v = len(plan)
    # binomials come from a table over the distinct counts (0 included, so
    # an absent pair reads index 0); loop counts join only when a step
    # reads them.  A sort and a mask find them: np.unique would import
    # numpy.ma on its first call
    loop_counts = loops.ravel()[: loops.size if plan.loops else 0]
    values = np.sort(np.concatenate(([0], y, loop_counts)))
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    # a pair's index into them in the smallest dtype that holds it: one byte
    # per entry unless the block has over 255 distinct counts
    y_index = np.searchsorted(values, y).astype(np.min_scalar_type(len(values)))
    loop_index = np.searchsorted(values, loop_counts)
    # entry keys head * size + neighbour: the forward entries, x to z with
    # x < z, are the keys as given, already in adjacency order
    pair_index, fwd = y_index, None
    if not plan.forward_only:
        # the reverse entries join them, and the forward ones are found again
        heads, nbrs = np.divmod(keys, size)
        keys = np.concatenate((keys, nbrs * size + heads))
        del heads, nbrs
        order = np.argsort(keys)
        keys, pair_index = keys[order], np.concatenate((y_index, y_index))[order]
        fwd = np.flatnonzero(order < len(y)) if any(plan.forward) else None
        del order
    del y_index
    # only the sorted keys and count indices live through the pass; the
    # sentinel key size**2 exceeds every lookup, so searchsorted stays in
    # range, and a miss reads the sentinel's count index 0
    keys = np.append(keys, size * size)
    pair_index = np.append(pair_index, pair_index.dtype.type(0))
    # vertex u's neighbours start past the entries of every source below u
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys[:-1] // size, minlength=size), out=indptr[1:])
    # the last entry of each source's range (an empty range marks the last
    # entry before it, or the sentinel)
    ends = np.zeros(len(keys), dtype=bool)
    ends[indptr[1:] - 1] = True

    top = int(values[-1])
    # largest sum a host can reach: every step's candidates (at most the
    # largest degree read, or n for a root) times the top binomial of each
    # requirement
    max_deg = int(np.diff(indptr).max(initial=0))
    worst = 1
    for checks, c, _ in plan:
        worst *= (max_deg if checks else n) * math.comb(top, c)
        for _, m in checks:
            worst *= math.comb(top, m)
    table = _binomials(values, plan.max_req, worst)
    totals = np.zeros(hosts, dtype=table.dtype)

    def grow(step, images, entries, weight):
        checks, _, above = plan[step]
        sibling = plan.sibling[step]
        if checks:
            u = images[:, checks[0][0]]
            end = indptr[u + 1]
        else:
            # a root tries the vertices of its map's host: the first image's,
            # or host i for map i at the first step
            first = images[:, 0] // n * n if step else np.arange(0, size, n)
            end = first + n
        if sibling is not None:
            # the anchor's neighbours past the sibling's entry, which are
            # the ones past its image
            first = entries[:, plan.carried.index(sibling)] + 1
        elif above:
            # the orbit bounds: only images past the largest one above
            floor = images[:, above].max(axis=1) + 1
            first = np.searchsorted(keys, u * size + floor) if checks else floor
        elif checks:
            first = indptr[u]
        if plan.seeded[step]:
            # a component root with a neighbour is placed together with it
            # (the next step, anchored at the root alone) as one directed
            # host edge: the edges leaving the root's vertex range, its
            # forward ones when the neighbour's image must exceed the root's
            first, end = indptr[first], indptr[end]
            if plan.forward[step] and fwd is not None:
                first, end = np.searchsorted(fwd, first), np.searchsorted(fwd, end)
        # the maps' ranges laid end to end: map i's candidates are the
        # positions [at[i], at[i + 1]), position t being entry
        # t - at[i] + first[i] of its range
        at = np.zeros(len(images) + 1, dtype=np.int64)
        np.cumsum(end - first, out=at[1:])
        del end
        for start in range(0, int(at[-1]), _FRONTIER_CHUNK):
            # a chunk's own arrays are gone before its maps grow further
            placed = place(step, images, entries, weight, first, at, start)
            if placed is not None:
                grow(*placed)

    def place(step, images, entries, weight, first, at, start):
        # checks the candidates [start, stop) of the maps' ranges: adds the
        # sums of the maps it completes to the totals, or returns the next
        # step and the maps it grows
        checks = plan[step][0]
        seeded, forward = plan.seeded[step], plan.forward[step]
        nxt = step + 1 + seeded
        stop = min(start + _FRONTIER_CHUNK, int(at[-1]))
        # the maps whose ranges meet the chunk, clipped to it
        lo = int(np.searchsorted(at, start, "right")) - 1
        hi = int(np.searchsorted(at, stop, "left"))
        d = np.diff(np.clip(at[lo : hi + 1], start, stop))
        owner = np.repeat(np.arange(lo, hi), d)
        cand = np.arange(start, stop) + np.repeat(first[lo:hi] - at[lo:hi], d)
        if forward and fwd is not None:
            cand = fwd[cand]
        if nxt < v and plan.sibling[nxt] == nxt - 1:
            # the next step tries the anchor's entries past this one: a map
            # whose entry ends its anchor's range has no children
            keep = ~ends[cand]
            owner, cand = owner[keep], cand[keep]
        # an entry's source and neighbour are its key's digits
        if seeded:
            new = list(np.divmod(keys[cand], size))
        else:
            new = [keys[cand] % size if checks else cand]

        def image(j):
            return new[j - step] if j >= step else images[owner, j]

        # the checks and the counts looked up first, the count of the pair
        # each candidate entry is last, once the lookups' arrays are gone
        keep = np.ones(len(cand), dtype=bool)
        factors = []
        for s, x in enumerate(new, step):
            s_checks, s_loops, s_above = plan[s]
            # images of the anchor and the other checked neighbours
            # differ from x by construction (no host pair is a loop),
            # those above by the bounds: on the range, or here for a
            # seeded neighbour
            for j in plan.unchecked[s]:
                keep &= x != image(j)
            if s > step:
                # a forward seed's neighbour is past the root already
                for j in s_above:
                    if not (forward and j == step):
                        keep &= x > image(j)
            for j, m in s_checks[1:]:
                query = image(j) * size + x
                pos = np.searchsorted(keys, query)
                hit = np.where(keys[pos] == query, pair_index[pos], 0)
                del query, pos
                factors.append(table[m][hit])
            if s_loops:
                factors.append(table[s_loops][loop_index[x]])
        for s_checks, _, _ in plan[step:nxt]:
            if s_checks:
                factors.append(table[s_checks[0][1]][pair_index[cand]])
        for f in factors:
            keep &= f != 0
        if not keep.all():
            owner, cand = owner[keep], cand[keep]
            new, factors = [x[keep] for x in new], [f[keep] for f in factors]
        w = weight[owner]
        for f in factors:
            w = w * f
        if nxt == v:
            # a map's host is its first image's
            np.add.at(totals, (images[owner, 0] if step else new[0]) // n, w)
            return None
        if not len(owner):
            return None
        placed_entries = entries[owner]
        if nxt - 1 in plan.carried:
            # a later step starts from the entry this one placed its image
            # (or its seeded neighbour's) from
            placed_entries = np.column_stack((placed_entries, cand))
        return nxt, np.column_stack((images[owner], *new)), placed_entries, w

    no_images = np.zeros((hosts, 0), dtype=np.int64)
    grow(0, no_images, no_images, np.ones(hosts, dtype=table.dtype))
    # grow refers to itself: dropping it frees the block's arrays now rather
    # than at the next garbage collection, which comes rarely as numpy
    # arrays do not count towards its threshold
    del grow
    return totals


def count_copies_bruteforce(graph: ObservedMultigraph, pattern: PatternGraph) -> int:
    """Independent oracle: sum over injective maps, divided by automorphisms."""
    n, v = graph.n, pattern.vertex_count
    if n > 9:
        raise ValueError("brute-force counting is limited to graphs with n <= 9")
    y = graph.edge_counts
    s = graph.self_loop_counts
    edges = list(pattern.edge_mult.items())
    loop_items = list(pattern.self_loops.items())
    total = 0
    for image in permutations(range(n), v):
        prod = 1
        for (a, b), m in edges:
            ia, ib = image[a], image[b]
            key = (ia, ib) if ia < ib else (ib, ia)
            prod *= math.comb(y.get(key, 0), m)
            if prod == 0:
                break
        else:
            for w, c in loop_items:
                prod *= math.comb(s.get(image[w], 0), c)
                if prod == 0:
                    break
            else:
                total += prod
    aut = automorphism_count(pattern)
    out, rem = divmod(total, aut)
    assert rem == 0, "injective-map total not divisible by the automorphism count"
    return out


def clump_size(edge_config, pattern: PatternGraph) -> int:
    """Copies of the pattern supported on exactly one v-vertex set.

    ``edge_config`` gives the observed count for each of the C(v,2) slot
    pairs (lexicographic order of ``combinations(range(v), 2)``), optionally
    followed by v self-loop counts.  Returns the sum over orbit placements
    of the binomial-coefficient product.
    """
    v = pattern.vertex_count
    n_pairs = v * (v - 1) // 2
    flat = [int(x) for x in edge_config]
    if len(flat) == n_pairs:
        pair_counts, loop_counts = flat, [0] * v
    elif len(flat) == n_pairs + v:
        pair_counts, loop_counts = flat[:n_pairs], flat[n_pairs:]
    else:
        raise ValueError(
            f"config needs {n_pairs} pair counts "
            f"(optionally plus {v} loop counts), got {len(flat)}"
        )
    total = 0
    for pair_req, loop_req in placements(pattern):
        prod = 1
        for obs, r in zip(pair_counts, pair_req):
            if r:
                prod *= math.comb(obs, r)
                if prod == 0:
                    break
        else:
            for obs, c in zip(loop_counts, loop_req):
                if c:
                    prod *= math.comb(obs, c)
                    if prod == 0:
                        break
            else:
                total += prod
    return total


def _copy_terms(pattern: PatternGraph, n: int) -> list[list[tuple[int, int]]]:
    """Copy-count terms of the pattern on the slots of an n-vertex host.

    The slots are the C(n, 2) vertex pairs in lexicographic order, then the
    n self-loop slots.  Each injective map of the pattern into the host, one
    per automorphism orbit (``orbit_slots``), gives one term: the
    ``(slot, required multiplicity)`` pairs of the pattern's edges and loops
    under it.  A host's copy count is the sum over terms of the products of
    ``C(slot value, required)``.
    """
    reqs = [*pattern.edge_mult.values(), *pattern.self_loops.values()]
    return [list(zip(row, reqs)) for row in orbit_slots(pattern, n).tolist()]


def _digits(index, radices) -> list:
    """Mixed-radix digits of the indices ``index``, the first radix most
    significant."""
    digits = [None] * len(radices)
    for s in reversed(range(len(radices))):
        index, digits[s] = np.divmod(index, radices[s])
    return digits


def _count_law(tables, terms, weight: float) -> dict[int, float]:
    """Probability mass per copy count over the full configuration grid.

    Slot ``s`` independently takes value ``k`` with probability
    ``tables[s][k]``; a configuration's count is the sum over ``terms`` of
    the products of ``C(value of slot, required)`` over each term's
    ``(slot, required)`` pairs (see ``_copy_terms``).  The grid is walked in
    chunks of ``_CHUNK_ROWS`` mixed-radix indices (slot 0 most significant),
    so working memory stays bounded.

    The grid is a product, so a chunk is scored as one: the trailing slots
    whose joint sub-grid has at most ``isqrt(_CHUNK_ROWS)`` rows get their
    probability columns and each term's binomial product over that sub-grid
    once, and a chunk takes digits only for its few rows of the leading
    slots.  Its probabilities are then broadcast products, slot by slot in
    slot order (the rounding of a row-by-row product, bit for bit), and its
    counts a sum over terms of outer products.  Masses are summed per count
    in row order within a chunk, and the chunk sums in chunk order: by one
    ``np.bincount`` into a dense histogram when the counts are int64 and the
    largest reachable count is below ``_CHUNK_ROWS``, through ``np.unique``
    otherwise.  Configurations of probability 0.0 add nothing, so every
    returned mass is positive.  Terms that are 0 on the whole grid, and
    slots that are 0 with probability exactly 1.0, leave the walk first.
    Counts are exact: int64 when the largest count the grid can reach and
    every binomial factor fit, Python integers in object arrays otherwise.
    Returns ``{count: weight * P(count)}``.
    """
    radices = [len(t) for t in tables]
    # a term with a slot whose every value is below its requirement is 0 on
    # the whole grid; a slot whose one value 0 has probability 1.0 scales
    # every mass by 1.0 exactly and each term left by C(0, 0) = 1.  Both
    # leave the walk, the other slots keeping their order
    terms = [term for term in terms if all(radices[s] > r for s, r in term)]
    kept = [s for s, t in enumerate(tables) if len(t) > 1 or t[0] != 1.0]
    if len(kept) < len(tables):
        slot = {s: i for i, s in enumerate(kept)}
        terms = [[(slot[s], r) for s, r in term if s in slot] for term in terms]
        radices = [radices[s] for s in kept]
    tables = [np.asarray(tables[s], dtype=np.float64) for s in kept]
    max_req = max((r for term in terms for _, r in term), default=0)
    # largest count the grid can reach: every slot at its top value
    worst = sum(
        math.prod(math.comb(radices[s] - 1, r) for s, r in term) for term in terms
    )
    comb = _binomials(range(max(radices, default=1)), max_req, worst)
    dtype = comb.dtype
    # slots lead..end form the trailing sub-grid of ``span`` rows
    lead, span = len(radices), 1
    while lead and span * radices[lead - 1] <= math.isqrt(_CHUNK_ROWS):
        lead -= 1
        span *= radices[lead]
    digits = _digits(np.arange(span), radices[lead:])
    columns = [t[d] for t, d in zip(tables[lead:], digits)]
    tails = np.ones((len(terms), span), dtype=dtype)
    for k, term in enumerate(terms):
        for s, r in term:
            if s >= lead:
                tails[k] *= comb[r][digits[s - lead]]
    dense = dtype == np.int64 and worst < _CHUNK_ROWS
    hist = np.zeros(worst + 1 if dense else 0)
    law: dict[int, float] = {}
    size = math.prod(radices)
    # one probability and one count buffer serve every chunk (a chunk's
    # leading rows are at most this many), and a shorter chunk reads their
    # first rows: freed and allocated again per chunk, they would fault
    # their pages in anew whenever the allocator hands them back
    most = min(-(-_CHUNK_ROWS // span) + 1, -(-size // span))
    prob_buffer = np.empty((most, span))
    count_buffer = np.empty((most, span), dtype=dtype)
    for start in range(0, size, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, size)
        # leading-grid rows [first, last) cover the chunk; their product with
        # the sub-grid is trimmed to grid rows [start, stop) once flattened
        first, last = start // span, -(-stop // span)
        digits = _digits(np.arange(first, last), radices[:lead])
        head_prob = np.full(last - first, float(weight))
        for t, d in zip(tables[:lead], digits):
            head_prob *= t[d]
        prob = prob_buffer[: last - first]
        np.copyto(prob, head_prob[:, None])
        for column in columns:
            prob *= column
        # the sum over terms of the outer products of the leading rows' and
        # the sub-grid's factors
        heads = np.ones((last - first, len(terms)), dtype=dtype)
        for k, term in enumerate(terms):
            for s, r in term:
                if s < lead:
                    heads[:, k] *= comb[r][digits[s]]
        counts = np.matmul(heads, tails, out=count_buffer[: last - first])
        rows = slice(start - first * span, stop - first * span)
        prob, counts = prob.ravel()[rows], counts.ravel()[rows]
        if dense:
            hist += np.bincount(counts, weights=prob, minlength=len(hist))
            continue
        values, inverse = np.unique(counts, return_inverse=True)
        masses = np.bincount(inverse, weights=prob)
        for c, m in zip(values.tolist(), masses.tolist()):
            if m:
                law[c] = law.get(c, 0.0) + m
    if dense:
        (nonzero,) = np.nonzero(hist)
        law = dict(zip(nonzero.tolist(), hist[nonzero].tolist()))
    return law
