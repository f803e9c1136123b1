"""Empirical validation: exact and simulated laws of the pattern count.

Two routes to the distribution of the copy count W:

* ``exact_count_pmf`` enumerates every edge configuration of a small
  finite-support model and accumulates the exact law of W.  It is the
  clump rates' walk (``approximation._host_law``) on all n vertices: class
  multisets weighted by their number of orderings, and each multiset's
  configuration grid in fixed-size numpy chunks that score every host with
  the same binomial-product sums ``count_copies`` uses;
* ``monte_carlo_pmf`` samples whole graphs (one keyed substream per
  replicate), a block of replicates per numpy pass, and counts the copies
  of several blocks' replicates in one pass of the block counter, in
  batches sized by the edges and vertices the counter holds.

``run_experiment`` glues these to the approximation module: it computes the
structural profile, model extrema (once: reused from the bound's report),
clump rates (once: reused from the bound's report when it enumerated them;
null for the Poisson-limit variants when they are too large to enumerate),
the requested total-variation bound, the reference law (compound Poisson,
or plain Poisson for the Poisson-limit variants), the measured
total-variation distance, and a pass/fail comparison including a Monte
Carlo error allowance of
``sqrt(atoms / (4 reps))`` (a Cauchy-Schwarz bound on the expected
estimation error, over the union of compared supports) plus the reference
law's truncation deficit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

import numpy as np

from ._rng import replicate_keys
from .approximation import (
    POISSON_REFERENCE_VARIANTS,
    BoundReport,
    CompoundPoissonParams,
    InfeasibleError,
    PreconditionError,
    _cp_terms,
    _host_law,
    _require_fit,
    _require_plain,
    expected_count,
    lambda_params,
    tv_bound,
)
from .counting import (  # noqa: F401 -- count_copies is re-exported for callers
    _count_block,
    _search_plan,
    count_copies,
)
from .distributions import Categorical
from .model import ModelExtrema, SbmmSpec, _sampler, spec_from_json, spec_to_json
from .patterns import (
    PatternGraph,
    balancedness_profile,
    pattern_from_json,
    pattern_from_name,
    pattern_to_json,
)

__all__ = [
    "exact_count_pmf",
    "monte_carlo_pmf",
    "tv_distance",
    "parse_experiment_config",
    "run_experiment",
]

EXACT_ENUMERATION_LIMIT = 10**8

# pair and loop cells per Monte Carlo block: bounds the sampler's working
# memory whatever reps and n are (a block holds at least one replicate)
_BLOCK_CELLS = 1 << 15

# counter entries (2 per edge, 1 per vertex) a Monte Carlo batch gathers
# before it is counted: each counter pass pays a fixed set-up and a sparse
# block holds few edges for its cells, so a batch spans several blocks.  A
# batch holds fewer than this plus one block's entries, which bounds the
# counter's working memory whatever reps and n are
_COUNT_ENTRIES = 1 << 13


def exact_count_pmf(spec: SbmmSpec, pattern: PatternGraph) -> dict[int, float]:
    """Exact law of the copy count W by full enumeration.

    Requires categorical (finite-support) edge laws, no degree weights, and
    a walk of at most ``EXACT_ENUMERATION_LIMIT`` configurations (counted
    over the class multisets it visits); self-loop slots are enumerated
    only when the pattern actually has self-loops.  Hosts of probability
    0.0 leave no atom.
    """
    _require_plain(spec, "exact enumeration")
    for law in spec.distinct_laws():
        if not isinstance(law, Categorical):
            raise PreconditionError("exact enumeration requires categorical edge laws")
    _require_fit(spec, pattern)
    if pattern.self_loops:
        if spec.self_loop_laws is None:
            return {0: 1.0}
        for law in spec.self_loop_laws:
            if not isinstance(law, Categorical):
                raise PreconditionError(
                    "exact enumeration requires categorical self-loop laws"
                )

    # every slot keeps its whole finite support, so nothing is neglected
    pmf, _ = _host_law(
        spec, pattern, spec.n, lambda law: len(law.probabilities) - 1,
        EXACT_ENUMERATION_LIMIT, "exact enumeration",
    )
    total = math.fsum(pmf.values())
    assert abs(total - 1.0) <= 1e-10, f"enumerated probabilities sum to {total}"
    return dict(sorted(pmf.items()))


def monte_carlo_pmf(
    spec: SbmmSpec, pattern: PatternGraph, reps: int, seed: int
) -> tuple[dict[int, float], dict[int, int]]:
    """Empirical law of W over ``reps`` independent sampled graphs.

    Replicate r is the graph ``sample_graph(spec, substream_key(seed, r))``.
    Replicates are sampled in blocks of at most ``_BLOCK_CELLS`` pair and
    loop cells by one sampler prepared for the call (``_sampler``).  It
    inverts only the candidate cells, above a cut, and hands over the
    block's nonzero pair counts as ``(row, a, b, count)`` arrays.
    Blocks gather into a batch, their rows renumbered after the hosts
    before them, until the batch holds ``_COUNT_ENTRIES`` counter entries
    (2 per edge, n per host); ``_count_block`` then counts all of its
    hosts at once with their loop counts, and once more the last, partial
    batch.  The result depends on neither size.  Returns the empirical pmf
    and the exact integer histogram.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    _require_fit(spec, pattern)
    n = spec.n
    plan = _search_plan(pattern)
    draw = _sampler(spec)
    block = max(1, _BLOCK_CELLS // (n * (n - 1) // 2 + n))
    hist: dict[int, int] = {}
    batch, hosts, entries = [], 0, 0
    for start in range(0, reps, block):
        stop = min(start + block, reps)
        _, (rows, a, b, y), loops = draw(replicate_keys(seed, np.arange(start, stop)))
        batch.append((loops, rows + hosts, a, b, y))
        hosts += stop - start
        entries += 2 * len(y) + loops.size
        if entries >= _COUNT_ENTRIES or stop == reps:
            totals = _count_block(plan, *map(np.concatenate, zip(*batch)))
            for w in totals.tolist():
                hist[w] = hist.get(w, 0) + 1
            batch, hosts, entries = [], 0, 0
    hist = dict(sorted(hist.items()))
    pmf = {w: c / reps for w, c in hist.items()}
    return pmf, hist


def tv_distance(p: dict, q: dict) -> float:
    """Total-variation distance between two sub-probability mass functions.

    Any mass deficit (totals below 1) is treated as sitting on an atom the
    other law cannot share, contributing half the deficit difference.
    """
    for name, mapping in (("p", p), ("q", q)):
        for k, prob in mapping.items():
            if prob < 0:
                raise ValueError(f"negative mass in {name} at {k}: {prob}")
    support = set(p) | set(q)
    core = 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in support)
    deficit_p = max(0.0, 1.0 - math.fsum(p.values()))
    deficit_q = max(0.0, 1.0 - math.fsum(q.values()))
    return core + 0.5 * abs(deficit_p - deficit_q)


def _frac_json(x: Fraction | None):
    return None if x is None else str(x)


def _profile_json(pattern: PatternGraph) -> dict:
    prof = balancedness_profile(pattern)
    return {
        "density": _frac_json(prof.density),
        "pseudo_density": _frac_json(prof.pseudo_density),
        "alpha": _frac_json(prof.alpha),
        "gamma": _frac_json(prof.gamma),
        "alpha_m": _frac_json(prof.alpha_m),
        "gamma_m": _frac_json(prof.gamma_m),
        "strictly_balanced": prof.strictly_balanced,
        "strictly_pseudo_balanced": prof.strictly_pseudo_balanced,
    }


def _rates_json(params: CompoundPoissonParams) -> dict:
    return {
        "lambda": [float(x) for x in params.lam],
        "imax": params.imax,
        "truncation_mass": params.truncation_mass,
        "total": float(params.total),
    }


def _bound_json(bound: BoundReport) -> dict:
    return {
        "variant": bound.variant,
        "value": bound.value,
        "ingredients": bound.ingredients,
    }


def _extrema_json(ext: ModelExtrema) -> dict:
    out = {
        "mu1_star": ext.mu1_star,
        "mu_star": list(ext.mu_star),
        "mu_dstar": list(ext.mu_dstar),
        "psi": ext.psi,
        "q2_star": ext.q2_star,
        "inhom_max": ext.inhom_max,
    }
    if ext.phi_star is not None:
        out["phi_star"] = ext.phi_star
    if ext.omega_star is not None:
        out["omega_star"] = ext.omega_star
    return out


def _reference_pmf(terms, min_support: int) -> list[float]:
    """P(0..kmax) of a reference law from its terms (``_cp_terms``).

    ``kmax`` grows until the cumulative mass reaches 1 - 1e-12 (capped) and
    covers ``min_support``.
    """
    pmf: list[float] = []
    kmax = max(min_support, 64)
    while True:
        pmf += islice(terms, kmax + 1 - len(pmf))
        if 1.0 - math.fsum(pmf) <= 1e-12 or kmax >= 100_000:
            return pmf
        kmax = min(kmax * 4, 100_000)


def parse_experiment_config(config: dict) -> dict:
    """Normalize an experiment config: build spec/pattern, fill defaults."""
    spec = (
        config["spec"]
        if isinstance(config["spec"], SbmmSpec)
        else spec_from_json(config["spec"])
    )
    raw_pattern = config["pattern"]
    if isinstance(raw_pattern, PatternGraph):
        pattern = raw_pattern
    elif isinstance(raw_pattern, str):
        pattern = pattern_from_name(raw_pattern)
    else:
        pattern = pattern_from_json(raw_pattern)
    mode = config.get("mode", "exact")
    if mode not in ("exact", "monte_carlo"):
        raise ValueError(f"unknown mode {mode!r}")
    out = {
        "spec": spec,
        "pattern": pattern,
        "variant": config["variant"],
        "mode": mode,
        "reps": int(config.get("reps", 0) or 0),
        "seed": int(config.get("seed", 0) or 0),
        "eps": float(config.get("eps", 1e-10)),
        "c_override": config.get("c_override"),
        "regime_c": config.get("regime_c"),
        "regime_C": config.get("regime_C"),
    }
    if mode == "monte_carlo" and out["reps"] < 1:
        raise ValueError("monte_carlo mode needs reps >= 1")
    return out


def run_experiment(config: dict) -> dict:
    """Run one validation experiment and return the JSON-ready report.

    The report carries the pattern profile, model extrema, mean count,
    clump rates, CP pmf, the bound with its ingredients, the observed
    (exact or empirical) pmf, the measured total-variation distance, and
    the pass flag for "measured distance <= bound (+ allowance)".
    """
    cfg = parse_experiment_config(config)
    spec, pattern = cfg["spec"], cfg["pattern"]
    variant, mode = cfg["variant"], cfg["mode"]

    # the bound checks its hypotheses first, then enumerates the clump rates
    # when c(lambda) needs them; other variants enumerate them here
    bound = tv_bound(
        spec,
        pattern,
        variant,
        c_override=cfg["c_override"],
        eps=cfg["eps"],
        regime_c=cfg["regime_c"],
        regime_C=cfg["regime_C"],
    )
    poisson_reference = bound.variant in POISSON_REFERENCE_VARIANTS
    params = bound.params
    if params is None:
        try:
            params = lambda_params(spec, pattern, cfg["eps"])
        except InfeasibleError:
            # the Poisson reference needs only nu; report the rates as null
            if not poisson_reference:
                raise
    nu = expected_count(spec, pattern)
    # a reference whose P(0) underflows is refused before the observed law
    if poisson_reference:
        ref_kind = "poisson"
        ref_params = CompoundPoissonParams((float(nu),), 1, 0.0, float(nu))
    else:
        ref_kind, ref_params = "compound_poisson", params
    ref_terms = _cp_terms(ref_params, ref_kind)

    if mode == "exact":
        observed = exact_count_pmf(spec, pattern)
        reps_used = None
    else:
        observed, hist = monte_carlo_pmf(spec, pattern, cfg["reps"], cfg["seed"])
        reps_used = cfg["reps"]

    max_support = max(observed, default=0)
    ref_pmf = _reference_pmf(ref_terms, max_support)
    reference = {k: p for k, p in enumerate(ref_pmf) if p > 0.0}
    ref_deficit = max(0.0, 1.0 - math.fsum(ref_pmf))

    distance = tv_distance(observed, reference)
    if mode == "exact":
        allowance = 0.0
    else:
        atoms = len(set(observed) | set(reference))
        allowance = math.sqrt(atoms / (4.0 * reps_used)) + ref_deficit
    passed = bool(distance <= bound.value + allowance)

    positive = [w for w in observed if w > 0]
    support_gcd = math.gcd(*positive) if positive else 0

    return {
        "config": {
            "spec": spec_to_json(spec),
            "pattern": pattern_to_json(pattern),
            "variant": variant,
            "mode": mode,
            "reps": reps_used,
            "seed": cfg["seed"] if mode == "monte_carlo" else None,
            "eps": cfg["eps"],
        },
        "profile": _profile_json(pattern),
        "extrema": _extrema_json(bound.extrema),
        "nu": nu,
        "clump_rates": None if params is None else _rates_json(params),
        "bound": _bound_json(bound),
        "reference": {
            "kind": ref_kind,
            "kmax": len(ref_pmf) - 1,
            "truncation_deficit": ref_deficit,
            "pmf": [[int(k), float(p)] for k, p in sorted(reference.items())],
        },
        "observed": {
            "mode": mode,
            "pmf": [[int(k), float(p)] for k, p in sorted(observed.items())],
            "support_gcd": support_gcd,
        },
        "comparison": {
            "tv_distance": distance,
            "bound_value": bound.value,
            "mc_allowance": allowance,
            "pass": passed,
        },
    }
