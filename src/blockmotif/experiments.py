"""Empirical validation: exact and simulated laws of the pattern count.

Two routes to the distribution of the copy count W:

* ``exact_count_pmf`` enumerates every edge configuration of a small
  finite-support model and accumulates the exact law of W.  It is the
  clump rates' walk (``approximation._host_law``) on all n vertices: the
  canonical class assignments, one shape of class counts per twin set,
  and each key's configuration grid once, in fixed-size numpy chunks that
  score every host with the same binomial-product sums ``count_copies``
  uses;
* ``monte_carlo_pmf`` samples whole graphs (one keyed substream per
  replicate), a block of replicates per numpy pass at a cost that follows
  their vertices and edges, and counts each block's copies in the pass
  that draws it.

``run_experiment`` glues these to the approximation module: it computes the
structural profile, model extrema (once: reused from the bound's report),
the mean count (once: reused from the Poisson-limit bounds' ingredients),
clump rates (once: reused from the bound's report when it enumerated them;
null for the Poisson-limit variants when they are too large to enumerate),
the requested total-variation bound, the reference law (compound Poisson,
or plain Poisson for the Poisson-limit variants), the measured
total-variation distance, and a pass/fail comparison including a Monte
Carlo error allowance of ``sqrt(atoms / (4 reps))`` (a Cauchy-Schwarz
bound on the expected estimation error, over the union of compared
supports) plus the reference law's truncation deficit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

import numpy as np

from ._checks import as_int, as_real
from ._rng import replicate_keys
from .approximation import (
    DEFAULT_EPS,
    POISSON_REFERENCE_VARIANTS,
    BoundReport,
    CompoundPoissonParams,
    InfeasibleError,
    _cp_terms,
    _host_law,
    _require_fit,
    _require_plain,
    _whole_support,
    expected_count,
    lambda_params,
    tv_bound,
)
# experiments.count_copies has one reader, perfbench/test_checks.py::
# test_tracer_counts_and_restores_bindings; ROADMAP item 1 retires this re-export
from .counting import (  # noqa: F401
    _count_block,
    _search_plan,
    count_copies,
)
from .distributions import Poisson, pmf_tail
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

# sampler entries per Monte Carlo block, counting per host its n vertices,
# Q^2 class blocks and expected edges: bounds the working memory of both
# the sampler and the counter, which counts each block as drawn, whatever
# reps and n are (a block holds at least one replicate).  Each block pays a
# fixed set-up, so larger blocks run faster, and the counter, the larger
# of the two, holds about 75 bytes per edge on sparse triangle hosts (150
# for ``cycle:4``) above the block's host arrays, which are its pair keys,
# pair counts and loop counts: a 264-host ``mc_triangle`` block peaks at
# about 1.50 MB traced, 1.13 MB of it the counter's, 0.37 MB the host
# arrays
_BLOCK_ENTRIES = 1 << 15


def exact_count_pmf(spec: SbmmSpec, pattern: PatternGraph) -> dict[int, float]:
    """Exact law of the copy count W by full enumeration.

    Requires categorical (finite-support) edge laws, no degree weights, and
    a walk of at most ``EXACT_ENUMERATION_LIMIT`` configurations (counted
    over the grids it scores, one per key) and at most as many canonical
    class assignments; self-loop slots are enumerated (and their laws
    required categorical) only when the pattern actually has self-loops.
    A pattern with self-loops on a model without self-loop laws has W = 0,
    whatever its edge laws.  Hosts of probability 0.0 leave no atom.
    """
    _require_plain(spec, "exact enumeration")
    _require_fit(spec, pattern)
    if pattern.self_loops and spec.self_loop_laws is None:
        return {0: 1.0}
    # every slot keeps its whole finite support, so nothing is neglected
    pmf, _ = _host_law(
        spec, pattern, spec.n, _whole_support, EXACT_ENUMERATION_LIMIT, "exact enumeration"
    )
    total = math.fsum(pmf.values())
    assert abs(total - 1.0) <= 1e-10, f"enumerated probabilities sum to {total}"
    return dict(sorted(pmf.items()))


def _host_entries(spec: SbmmSpec) -> float:
    """The sampler's entries for one host: its n vertices, Q^2 blocks and
    expected events (a Poisson law's rate, another law's ``P(Y >= 1)``, per
    pair or loop)."""

    def events(law):
        return law.rate if isinstance(law, Poisson) else pmf_tail(law, 1)[1]

    f = np.asarray(spec.f, dtype=np.float64)
    weight = spec.n if spec.degree_weights is None else math.fsum(spec.degree_weights)
    pairs = float(f @ np.array([[events(law) for law in row] for row in spec.edge_laws]) @ f)
    total = spec.n + spec.Q**2 + pairs * weight * weight / 2
    if spec.self_loop_laws is not None:
        total += spec.n * float(f @ np.array([events(law) for law in spec.self_loop_laws]))
    return total


def monte_carlo_pmf(
    spec: SbmmSpec, pattern: PatternGraph, reps: int, seed: int
) -> tuple[dict[int, float], dict[int, int]]:
    """Empirical law of W over ``reps`` independent sampled graphs.

    Replicate r is the graph ``sample_graph(spec, substream_key(seed, r))``.
    Replicates are sampled in blocks by one sampler prepared for the call
    (``_sampler``), as many per block as fit in ``_BLOCK_ENTRIES`` sampler
    entries (``_host_entries``: per host its n vertices, Q^2 class blocks
    and expected edges; at least one host), and each block comes back as
    its nonzero pair counts, ``(keys, y)``: the counter's own sorted
    forward entry keys and their counts, which ``_count_block`` reads as
    they are, with the loop counts, in the pass that draws them, all of the
    block's hosts at once.  The result does not depend on the block size.
    Returns the empirical pmf and the exact integer histogram.
    """
    reps, seed = as_int(reps, "reps"), as_int(seed, "seed")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    _require_fit(spec, pattern)
    plan = _search_plan(pattern)
    draw = _sampler(spec)
    block = max(1, int(_BLOCK_ENTRIES // _host_entries(spec)))
    hist: dict[int, int] = {}
    for start in range(0, reps, block):
        stop = min(start + block, reps)
        # the block's classes are dropped before it is counted
        (keys, y), loops = draw(replicate_keys(seed, np.arange(start, stop)))[1:]
        for w in _count_block(plan, loops, keys, y).tolist():
            hist[w] = hist.get(w, 0) + 1
    hist = dict(sorted(hist.items()))
    pmf = {w: c / reps for w, c in hist.items()}
    return pmf, hist


def tv_distance(p: dict, q: dict) -> float:
    """Total-variation distance between two sub-probability mass functions.

    Any mass deficit (totals below 1) is treated as sitting on an atom the
    other law cannot share, contributing half the deficit difference.  A
    negative or non-finite mass raises ``ValueError``.
    """
    for name, mapping in (("p", p), ("q", q)):
        for k, prob in mapping.items():
            if not math.isfinite(prob):
                raise ValueError(f"non-finite mass in {name} at {k}: {prob}")
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


def _config_int(config: dict, key: str) -> int:
    """``config[key]`` as an int, 0 when absent or null.  A bool, a value
    that is not a number, or a number with a fractional part is refused
    rather than truncated."""
    value = config.get(key)
    return 0 if value is None else as_int(value, key)


def _config_real(config: dict, key: str, default: float | None = None) -> float | None:
    """``config[key]`` as a float, ``default`` when absent or null.  A bool,
    or a value that is not a number, is refused rather than coerced."""
    value = config.get(key)
    return default if value is None else float(as_real(value, key))


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
        "reps": _config_int(config, "reps"),
        "seed": _config_int(config, "seed"),
        "eps": _config_real(config, "eps", DEFAULT_EPS),
        "c_override": _config_real(config, "c_override"),
        "regime_c": _config_real(config, "regime_c"),
        "regime_C": _config_real(config, "regime_C"),
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
    # the Poisson-limit bounds already computed the mean count
    nu = bound.ingredients["nu"] if poisson_reference else expected_count(spec, pattern)
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
