import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwalks import (
    LanguageSpec,
    asymptotic_form,
    asymptotic_ratio,
    gf_series,
    recurrence_seq,
)
from hyperwalks.series import _expand


def schoolbook_product(a, b):
    """The product of two truncated series, cut to the shorter one's order."""
    order = min(len(a), len(b))
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(order)]


def power_of_one_minus(c, power, order):
    """Coefficients 0..order of (1 - c x)^power for power 1, -1 or -2."""
    if power == 1:
        return [1, -c] + [0] * (order - 1)
    if power == -1:
        return [c**n for n in range(order + 1)]
    return [(n + 1) * c**n for n in range(order + 1)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-20, max_value=20),
            st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(-1)]),
        ),
        max_size=3,
    )
)
def test_expansion_squares_to_its_product(factors):
    order = 30
    y = _expand(factors, order)
    assert len(y) == order + 1
    target = [1] + [0] * order
    for c, alpha in factors:
        target = schoolbook_product(target, power_of_one_minus(c, int(2 * alpha), order))
    assert schoolbook_product(y, y) == target


def test_gf_series_examples():
    assert [int(c) for c in gf_series(LanguageSpec("E", 1), 3)] == [1, 2, 10, 58]
    assert [int(c) for c in gf_series(LanguageSpec("A", 1), 2)] == [1, 8, 96]
    assert [int(c) for c in gf_series(LanguageSpec("C", 0), 3)] == [1, 2, 2, 2]
    assert [int(c) for c in gf_series(LanguageSpec("F", 0), 3)] == [1, 1, 1, 1]
    assert [int(c) for c in gf_series(LanguageSpec("B", 0), 3)] == [1, 0, 0, 0]


@pytest.mark.parametrize("lid", "ABCDEF")
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_gf_series_matches_recurrence(lid, r):
    for order in (30, 1000):
        coeffs = gf_series(LanguageSpec(lid, r), order)
        table = recurrence_seq(LanguageSpec(lid, r), order)
        assert len(coeffs) == order + 1
        for n in range(order + 1):
            assert coeffs[n].denominator == 1
            assert coeffs[n] == table[n]


def test_asymptotic_form_examples():
    rho, alpha, constant = asymptotic_form(LanguageSpec("B", 1))
    assert (rho, alpha) == (Fraction(1, 9), Fraction(1, 2))
    assert math.isclose(constant, math.sqrt(8) / 3)
    assert asymptotic_form(LanguageSpec("A", 0)) == (Fraction(1, 4), Fraction(1, 2), 1.0)
    assert asymptotic_form(LanguageSpec("F", 1))[:2] == (Fraction(1, 9), Fraction(-1, 2))


def test_asymptotic_form_domain():
    with pytest.raises(ValueError):
        asymptotic_form(LanguageSpec("B", 0))


def test_asymptotic_estimate_matches_direct_evaluation():
    # estimate at n: C rho^(-n) n^(alpha-1) / Gamma(alpha), small n so floats fit
    direct = (math.sqrt(8) / 3) * 9**2 * 2 ** (-0.5) / math.sqrt(math.pi)
    assert math.isclose(asymptotic_ratio(LanguageSpec("B", 1), 2, count=28), 28 / direct)


def test_asymptotic_ratio_example():
    ratio = asymptotic_ratio(LanguageSpec("B", 1), 2, count=28)
    assert math.isclose(ratio, 28 / (27 * math.sqrt(4 / math.pi)), rel_tol=1e-12)
    assert abs(ratio - 0.919) < 1e-3


def test_asymptotic_ratio_accepts_precomputed_count():
    spec = LanguageSpec("E", 1)
    count = recurrence_seq(spec, 50)[50]
    rho, alpha, constant = asymptotic_form(spec)
    estimate = constant * rho**-50 * 50 ** (alpha - 1) / math.gamma(alpha)
    assert math.isclose(asymptotic_ratio(spec, 50, count=count), count / estimate, rel_tol=1e-12)
    with pytest.raises(TypeError):
        asymptotic_ratio(spec, 50)  # the count is the caller's, never recomputed here


@pytest.mark.parametrize("lid", "BCEF")
def test_asymptotic_ratio_approaches_one(lid):
    spec = LanguageSpec(lid, 1)
    table = recurrence_seq(spec, 800)
    deviations = [abs(asymptotic_ratio(spec, n, count=table[n]) - 1) for n in (100, 200, 400, 800)]
    assert all(b < a for a, b in zip(deviations, deviations[1:]))
