"""Edge-count laws: moments, tails, truncation, serialization."""

import math
import random
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from blockmotif import (
    Categorical,
    Geometric,
    Poisson,
    binomial_moment,
    law_from_json,
    law_to_json,
    moment,
    pmf_tail,
    truncation_bound,
)


def _numeric_moment(dist, r, kmax=400):
    return math.fsum(k**r * pmf_tail(dist, k)[0] for k in range(kmax + 1))


def _numeric_binomial_moment(dist, r, kmax=400):
    return math.fsum(math.comb(k, r) * pmf_tail(dist, k)[0] for k in range(r, kmax + 1))


# -- validation -----------------------------------------------------------------


def test_law_validation():
    with pytest.raises(ValueError):
        Categorical(())
    with pytest.raises(ValueError):
        Categorical((0.5, -0.1, 0.6))
    with pytest.raises(ValueError):
        Categorical((0.5, 0.4))  # mass 0.9
    with pytest.raises(ValueError, match="probabilities sum to nan, not 1"):
        Categorical((float("nan"), 1.0))  # NaN fails every comparison
    with pytest.raises(ValueError):
        Poisson(-1.0)
    with pytest.raises(ValueError):
        Poisson(float("inf"))
    with pytest.raises(ValueError):
        Geometric(1.0)
    with pytest.raises(ValueError):
        Geometric(-0.2)
    # parameters and entries are numbers: a bool or a string is refused
    # rather than read as 1.0 or parsed
    for build, message in (
        (lambda: Poisson(True), "rate must be a number, got True"),
        (lambda: Poisson("2"), "rate must be a number, got '2'"),
        (lambda: law_from_json({"type": "poisson", "omega": "2"}), "rate must be a number"),
        (lambda: Geometric(False), "ratio must be a number, got False"),
        (lambda: Geometric("0.5"), "ratio must be a number"),
        (lambda: Categorical((0.5, True)), "probabilities must be a number, got True"),
        (lambda: Categorical(("0.5", 0.5)), "probabilities must be a number, got '0.5'"),
    ):
        with pytest.raises(ValueError, match=message):
            build()
    # exact numbers still pass, for the exact-rational path
    assert Poisson(F(1, 2)).rate == 0.5 and Geometric(Decimal("0.25")).ratio == 0.25
    assert Categorical((Decimal("0.5"), 0, F(1, 2))).probabilities == (F(1, 2), 0, F(1, 2))


def test_categorical_preserves_exact_rational_entries():
    law = Categorical((F(19, 20), F(1, 20)))
    assert law.probabilities == (F(19, 20), F(1, 20))
    assert isinstance(law.probabilities[0], F)
    # cross-type numeric equality keeps float-style usage working
    assert law == Categorical((F(19, 20), F(1, 20)))
    assert Categorical((0.5, 0.5)) == Categorical((F(1, 2), F(1, 2)))
    assert pmf_tail(law, 1) == (0.05, 0.05)


# -- frozen moment values ---------------------------------------------------------


def test_poisson_fourth_moment_frozen():
    # 0.3 + 7*0.3^2 + 6*0.3^3 + 0.3^4 = 1.1001 on the nose
    assert moment(Poisson(0.3), 4) == pytest.approx(1.1001, abs=1e-15)


def test_moment_frozen_values():
    assert moment(Poisson(2.0), 1) == 2.0
    assert moment(Poisson(2.0), 2) == pytest.approx(6.0, abs=1e-12)  # lam + lam^2
    assert moment(Geometric(0.5), 1) == pytest.approx(1.0, abs=1e-12)  # odds = 1
    assert moment(Categorical((0.5, 0.3, 0.2)), 1) == pytest.approx(0.7, abs=1e-15)
    assert moment(Categorical((0.5, 0.3, 0.2)), 2) == pytest.approx(1.1, abs=1e-15)


def test_binomial_moment_frozen_values():
    assert binomial_moment(Poisson(2.0), 3) == pytest.approx(8.0 / 6.0, abs=1e-15)
    assert binomial_moment(Geometric(0.25), 2) == pytest.approx((1.0 / 3.0) ** 2, abs=1e-15)
    assert binomial_moment(Categorical((0.5, 0.3, 0.2)), 2) == 0.2
    assert binomial_moment(Categorical((0.5, 0.3, 0.2)), 3) == 0.0


def test_moments_match_numeric_summation():
    rng = random.Random(5)
    laws = [Poisson(rng.uniform(0.1, 3.0)) for _ in range(5)]
    laws += [Geometric(rng.uniform(0.05, 0.6)) for _ in range(5)]
    for _ in range(5):
        w = [rng.random() + 0.01 for _ in range(rng.randint(2, 6))]
        laws.append(Categorical([x / sum(w) for x in w]))
    for law in laws:
        for r in range(1, 7):
            assert moment(law, r) == pytest.approx(_numeric_moment(law, r), rel=1e-10)
            assert binomial_moment(law, r) == pytest.approx(
                _numeric_binomial_moment(law, r), rel=1e-10, abs=1e-300
            )


def test_moment_chain_invariants():
    rng = random.Random(9)
    laws = [Poisson(0.7), Geometric(0.3), Categorical((0.6, 0.3, 0.1))]
    laws += [Poisson(rng.uniform(0.1, 2.0)) for _ in range(3)]
    for law in laws:
        m1, m2 = moment(law, 1), moment(law, 2)
        assert m2 >= m1**2 - 1e-12  # Jensen
        assert binomial_moment(law, 1) == pytest.approx(m1, rel=1e-12)
        # E[C(Y,2)] = (E[Y^2] - E[Y]) / 2
        assert binomial_moment(law, 2) == pytest.approx((m2 - m1) / 2, rel=1e-10, abs=1e-15)


def test_moment_rejects_bad_order():
    with pytest.raises(ValueError):
        moment(Poisson(1.0), 0)
    with pytest.raises(ValueError):
        binomial_moment(Poisson(1.0), 0)


# -- pmf and tails ----------------------------------------------------------------


def test_pmf_tail_at_zero_is_one():
    for law in (Poisson(1.3), Geometric(0.4), Categorical((0.2, 0.8)), Poisson(0.0)):
        assert pmf_tail(law, 0)[1] == 1.0


def test_pmf_tail_frozen_values():
    p, t = pmf_tail(Poisson(1.0), 1)
    assert p == pytest.approx(math.exp(-1), abs=1e-16)
    assert t == pytest.approx(1 - math.exp(-1), rel=1e-14)
    p, t = pmf_tail(Geometric(0.5), 2)
    assert p == 0.125 and t == 0.25
    p, t = pmf_tail(Categorical((0.5, 0.3, 0.2)), 2)
    assert p == 0.2 and t == pytest.approx(0.2, abs=1e-15)
    assert pmf_tail(Categorical((0.5, 0.3, 0.2)), 9) == (0.0, 0.0)


def test_pmf_sums_to_tail():
    for law in (Poisson(2.2), Geometric(0.35), Categorical((0.1, 0.2, 0.3, 0.4))):
        for k in range(0, 8):
            total = math.fsum(pmf_tail(law, j)[0] for j in range(k, 60))
            assert pmf_tail(law, k)[1] == pytest.approx(total, rel=1e-10, abs=1e-15)


@pytest.mark.parametrize("rate", [744.0, 746.0, 800.0, 1500.0, 1e4])
def test_poisson_pmf_tail_matches_scipy_where_exp_minus_rate_underflows(rate):
    # past rate 745 the first term of a tail below the mean underflows to
    # 0; the tail is then 1 to within k * 2.3e-308, not 0
    for k in (1, 2, 10, 100, int(rate) // 2, int(rate), int(rate + 3 * math.sqrt(rate))):
        p, t = pmf_tail(Poisson(rate), k)
        assert t == pytest.approx(stats.poisson.sf(k - 1, rate), rel=1e-10), k
        assert p == pytest.approx(stats.poisson.pmf(k, rate), rel=1e-10, abs=1e-300), k


def test_pmf_tail_rejects_negative_k():
    with pytest.raises(ValueError):
        pmf_tail(Poisson(1.0), -1)


# -- truncation ------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.2, 1e-3, 1e-6, 1e-10])
@pytest.mark.parametrize(
    "law",
    [Poisson(0.05), Poisson(1.7), Geometric(0.3), Geometric(0.85),
     Categorical((0.5, 0.3, 0.2)), Categorical((1.0,)),
     Poisson(0.0), Geometric(0.0)],
)
def test_truncation_bound_is_the_smallest_cap(law, eps):
    m = truncation_bound(law, eps)
    assert pmf_tail(law, m + 1)[1] <= eps
    if m > 0:
        assert pmf_tail(law, m)[1] > eps


@pytest.mark.parametrize("rate", [700.0, 800.0, 1500.0])
def test_poisson_truncation_bound_matches_scipy_past_the_underflow(rate):
    # the least m with P(Y > m) <= eps is scipy's inverse survival function
    assert truncation_bound(Poisson(rate), 1e-10) == stats.poisson.isf(1e-10, rate)


def test_truncation_bound_rejects_bad_eps():
    with pytest.raises(ValueError):
        truncation_bound(Poisson(1.0), 0.0)
    with pytest.raises(ValueError):
        truncation_bound(Poisson(1.0), 1.0)


# -- serialization ----------------------------------------------------------------


def test_law_json_round_trip():
    for law in (Poisson(0.4), Geometric(0.25), Categorical((0.5, 0.5))):
        assert law_from_json(law_to_json(law)) == law
    with pytest.raises(ValueError):
        law_from_json({"type": "mystery"})
    with pytest.raises(ValueError, match="poisson law needs key 'omega'"):
        law_from_json({"type": "poisson", "rate": 0.4})


def test_law_json_emits_plain_floats():
    obj = law_to_json(Categorical((F(1, 4), F(3, 4))))
    assert obj == {"type": "categorical", "p": [0.25, 0.75]}
    assert all(isinstance(x, float) for x in obj["p"])


# -- hypothesis properties ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=5.0), st.integers(min_value=0, max_value=30))
def test_poisson_tail_monotone_and_bounded(rate, k):
    p, t = pmf_tail(Poisson(rate), k)
    p2, t2 = pmf_tail(Poisson(rate), k + 1)
    assert 0.0 <= p <= t <= 1.0
    assert t2 <= t + 1e-15
    assert t - t2 == pytest.approx(p, rel=1e-9, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=5),
)
def test_categorical_moments_scale_invariance(weights, r):
    total = sum(weights)
    law = Categorical([w / total for w in weights])
    # raw moments dominate binomial moments times r!
    assert moment(law, r) >= binomial_moment(law, r) * math.factorial(r) - 1e-12
