import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwalks import (
    ConsistencyError,
    LanguageSpec,
    asymptotic_form,
    asymptotic_ratio,
    gf_series,
    recurrence_seq,
)
from hyperwalks import series
from hyperwalks.series import _expand, _row


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


# A square root (1 - c x)^(1/2 or -1/2) has integer coefficients when 4 divides c.
@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.integers(min_value=-5, max_value=5).map(lambda t: 4 * t),
                      st.sampled_from([1, -1])),
            st.tuples(st.integers(min_value=-20, max_value=20), st.just(-2)),
        ),
        max_size=3,
    )
)
def test_expansion_squares_to_its_product(factors):
    order = 30
    y = _expand(factors, order)
    assert len(y) == order + 1
    target = [1] + [0] * order
    for c, h in factors:
        target = schoolbook_product(target, power_of_one_minus(c, h, order))
    assert schoolbook_product(y, y) == target


def test_expansion_rejects_a_non_integer_coefficient():
    with pytest.raises(ConsistencyError):
        _expand([(3, 1)], 2)  # sqrt(1 - 3x) = 1 - 3/2 x - ...


@pytest.mark.parametrize("lid", "ABCDEF")
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_gf_series_coefficients_are_ints(lid, r):
    assert all(type(c) is int for c in gf_series(LanguageSpec(lid, r), 60))


@pytest.mark.parametrize("lid,r,p0", [
    ("A", 1, (1,)),  # y_0 = 0, not the empty walk
    ("D", 1, (0,)),  # d w - P0 does not vanish at x^0, so it cannot be divided by x
    ("E", 1, (1, 0)),  # d w - P0 is not a multiple of c
])
def test_gf_series_rejects_a_row_with_a_wrong_p0(monkeypatch, lid, r, p0):
    factors, d, _, c, k = _row(LanguageSpec(lid, r))
    monkeypatch.setattr(series, "_row", lambda spec: (factors, d, p0, c, k))
    with pytest.raises(ConsistencyError):
        gf_series(LanguageSpec(lid, r), 10)


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


@pytest.mark.parametrize("lid,r", [
    (lid, r) for lid in "ABCDEF" for r in range(7) if r >= 1 or lid in "AD"
])
def test_asymptotic_form_matches_its_row(lid, r):
    # Singularity analysis: near rho = 1/c_max, y ~ (d / (c rho^k)) * (the other
    # factors at rho) * (1 - x/rho)^(h/2), so alpha = -h/2.  The typed constants
    # are an independent reference for the row.
    spec = LanguageSpec(lid, r)
    factors, d, _, c, k = _row(spec)
    c_max, h = max(factors)
    rho = Fraction(1, c_max)
    constant = float(d / (c * rho**k))
    for c_j, h_j in factors:
        if c_j != c_max:
            constant *= float(1 - c_j * rho) ** (h_j / 2)
    typed_rho, typed_alpha, typed_constant = asymptotic_form(spec)
    assert (typed_rho, typed_alpha) == (rho, Fraction(-h, 2))
    assert math.isclose(typed_constant, constant, rel_tol=1e-12)


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
