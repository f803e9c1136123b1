"""Edge-count laws and their moment functionals.

Three families of distributions on the nonnegative integers describe how
many parallel edges (or self-loops) a vertex pair carries:

* ``Categorical(probabilities)`` — arbitrary finite support ``0..m``;
* ``Poisson(rate)`` — mass ``e^{-rate} rate^k / k!``;
* ``Geometric(ratio)`` — mass ``(1-ratio) ratio^k``.

The moment functionals the error bounds consume are the raw moments
``E[Y^r]`` and the binomial moments ``E[C(Y, r)]``.  Both are evaluated by
closed forms: raw moments via Stirling-number expansions in the factorial
moments (for Poisson the factorial moments are ``rate^r``, for the geometric
family ``r! (ratio/(1-ratio))^r``), binomial moments directly.  Categorical
laws are summed exactly over their finite support.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._checks import as_real, reals

__all__ = [
    "Categorical",
    "Poisson",
    "Geometric",
    "pmf_tail",
    "moment",
    "binomial_moment",
    "truncation_bound",
    "law_from_json",
    "law_to_json",
]


@dataclass(frozen=True)
class Categorical:
    """Law with finite support 0..m and P(Y=k) = probabilities[k].

    Entries given as exact numbers (``Fraction``, ``int``, ``Decimal``) are
    stored as ``Fraction`` so that the exact-rational computation path can
    reproduce closed forms without binary rounding; ``float`` entries stay
    floats.  Python's cross-type numeric equality makes the two styles
    interchangeable wherever the values happen to coincide.
    """

    probabilities: tuple[float | Fraction, ...]

    def __init__(self, probabilities):
        probs = reals(probabilities, "probabilities")
        probs = tuple(p if isinstance(p, float) else Fraction(p) for p in probs)
        if not probs:
            raise ValueError("categorical law needs at least one probability")
        if any(p < 0 for p in probs):
            raise ValueError("probabilities must be nonnegative")
        total = math.fsum(probs)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probabilities", probs)


@dataclass(frozen=True)
class Poisson:
    """Poisson law with the given nonnegative rate."""

    rate: float

    def __init__(self, rate):
        rate = float(as_real(rate, "rate"))
        if rate < 0 or not math.isfinite(rate):
            raise ValueError("rate must be finite and nonnegative")
        object.__setattr__(self, "rate", rate)


@dataclass(frozen=True)
class Geometric:
    """Law with P(Y=k) = (1-ratio) * ratio^k, 0 <= ratio < 1."""

    ratio: float

    def __init__(self, ratio):
        ratio = float(as_real(ratio, "ratio"))
        if not 0 <= ratio < 1:
            raise ValueError("ratio must lie in [0, 1)")
        object.__setattr__(self, "ratio", ratio)


EdgeCountDistribution = Categorical | Poisson | Geometric


@lru_cache(maxsize=None)
def _stirling2(r: int, k: int) -> int:
    """Stirling number of the second kind: partitions of r items into k blocks."""
    if r == k:
        return 1
    if k == 0 or k > r:
        return 0
    return k * _stirling2(r - 1, k) + _stirling2(r - 1, k - 1)


def _poisson_tail(rate: float, k: int, term: float) -> float:
    """P(Y >= k) for Poisson(rate), rate > 0, by forward summation from the
    pmf term ``P(Y = k)`` that :func:`pmf_tail` computes.

    The terms beyond the stopping index are bounded by a geometric series,
    so the neglected remainder is below relative machine precision.  At or
    below the mean every term before k is at most the one at k, so when
    that term is under the least normal float, ``P(Y < k) < k * 2.3e-308``
    and the tail is 1.
    """
    if k == 0:
        return 1.0
    if k <= rate and term < sys.float_info.min:
        return 1.0
    if term == 0.0:
        return 0.0
    total = term
    j = k
    while True:
        j += 1
        term *= rate / j
        total += term
        if rate / (j + 1) < 1.0:
            remainder = term * (rate / (j + 1)) / (1.0 - rate / (j + 1))
            if remainder <= total * 1e-17:
                break
    return min(total, 1.0)


def pmf_tail(dist: EdgeCountDistribution, k: int) -> tuple[float, float]:
    """``(P(Y = k), P(Y >= k))`` for the law; the tail at 0 is 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if isinstance(dist, Categorical):
        probs = dist.probabilities
        pmf = float(probs[k]) if k < len(probs) else 0.0
        if k == 0:
            return pmf, 1.0
        tail = math.fsum(probs[k:]) if k < len(probs) else 0.0
        return pmf, min(tail, 1.0)
    if isinstance(dist, Poisson):
        if dist.rate == 0.0:
            return (1.0, 1.0) if k == 0 else (0.0, 0.0)
        pmf = math.exp(-dist.rate + k * math.log(dist.rate) - math.lgamma(k + 1))
        return pmf, _poisson_tail(dist.rate, k, pmf)
    if isinstance(dist, Geometric):
        p = dist.ratio
        return (1.0 - p) * p**k, p**k
    raise TypeError(f"not an edge-count law: {dist!r}")


def moment(dist: EdgeCountDistribution, r: int) -> float:
    """Raw moment E[Y^r], r >= 1, by exact finite sums or closed forms."""
    if r < 1:
        raise ValueError("moment order must be at least 1")
    if isinstance(dist, Categorical):
        return math.fsum(k**r * p for k, p in enumerate(dist.probabilities))
    if isinstance(dist, Poisson):
        # E[Y^r] = sum_k S(r,k) * (factorial moment k) with factorial moment rate^k
        return math.fsum(_stirling2(r, k) * dist.rate**k for k in range(1, r + 1))
    if isinstance(dist, Geometric):
        odds = dist.ratio / (1.0 - dist.ratio)
        return math.fsum(
            _stirling2(r, k) * math.factorial(k) * odds**k for k in range(1, r + 1)
        )
    raise TypeError(f"not an edge-count law: {dist!r}")


def binomial_moment(dist: EdgeCountDistribution, r: int) -> float:
    """Binomial moment E[C(Y, r)], r >= 1.

    Closed forms: ``rate^r / r!`` for Poisson and ``(ratio/(1-ratio))^r``
    for the geometric family; exact finite sum for Categorical.
    """
    if r < 1:
        raise ValueError("binomial moment order must be at least 1")
    if isinstance(dist, Categorical):
        return math.fsum(
            math.comb(k, r) * p for k, p in enumerate(dist.probabilities) if k >= r
        )
    if isinstance(dist, Poisson):
        return dist.rate**r / math.factorial(r)
    if isinstance(dist, Geometric):
        return (dist.ratio / (1.0 - dist.ratio)) ** r
    raise TypeError(f"not an edge-count law: {dist!r}")


def truncation_bound(dist: EdgeCountDistribution, eps: float) -> int:
    """Smallest m with P(Y > m) <= eps, the tail read from :func:`pmf_tail`."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    m = 0
    if isinstance(dist, Geometric) and dist.ratio > 0.0:
        # ratio^(m+1) <= eps from m = log(eps)/log(ratio) - 1 on; start one
        # step below for the rounding of the logarithms, as ratios near 1
        # would otherwise walk millions of steps
        m = max(0, math.ceil(math.log(eps) / math.log(dist.ratio)) - 2)
    while pmf_tail(dist, m + 1)[1] > eps:
        m += 1
    return m


def law_from_json(obj: dict) -> EdgeCountDistribution:
    """Build a law from {"type": ..., ...} JSON."""
    kind = obj.get("type")
    fields = {"categorical": "p", "poisson": "omega", "geometric": "p"}
    if kind not in fields:
        raise ValueError(f"unknown distribution type {kind!r}")
    field = fields[kind]
    if field not in obj:
        raise ValueError(f"{kind} law needs key {field!r}")
    if kind == "categorical":
        return Categorical(obj[field])
    if kind == "poisson":
        return Poisson(obj[field])
    return Geometric(obj[field])


def law_to_json(dist: EdgeCountDistribution) -> dict:
    """JSON object form of a law (inverse of :func:`law_from_json`)."""
    if isinstance(dist, Categorical):
        return {"type": "categorical", "p": [float(p) for p in dist.probabilities]}
    if isinstance(dist, Poisson):
        return {"type": "poisson", "omega": dist.rate}
    if isinstance(dist, Geometric):
        return {"type": "geometric", "p": dist.ratio}
    raise TypeError(f"not an edge-count law: {dist!r}")
