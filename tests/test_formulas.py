import dataclasses
import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwalks import (
    ConsistencyError,
    HypergeometricSpec,
    LanguageSpec,
    SingularParameterError,
    a_multi,
    a_multi_recurrence,
    catalan,
    central_binomial,
    closed_form,
    count_dp,
    count_dp_multi,
    cross_ratio_check,
    hyper_form,
    hyper_terminating,
    recurrence_seq,
)
from hyperwalks.formulas import binomial, recurrence_spec


def dyck_paths_with_peaks(n):
    """Brute-force peak census of nonnegative +-1 walks (independent oracle)."""
    counts = {}
    for signs in itertools.product((1, -1), repeat=2 * n):
        h = 0
        ok = True
        for s in signs:
            h += s
            if h < 0:
                ok = False
                break
        if not ok or h != 0:
            continue
        peaks = sum(1 for a, b in zip(signs, signs[1:]) if a == 1 and b == -1)
        counts[peaks] = counts.get(peaks, 0) + 1
    return counts


def test_basic_numbers():
    assert central_binomial(0) == 1
    assert central_binomial(3) == 20
    assert catalan(3) == 5
    assert narayana(4, 2) == 6


def narayana(n, k):
    """Number of semilength-n nonnegative walks with exactly k peaks."""
    if not 1 <= k <= n:
        raise ValueError(f"narayana needs 1 <= k <= n, got n={n}, k={k}")
    value = comb(n, k) * comb(n, k - 1)
    assert value % n == 0
    return value // n


def test_narayana_matches_peak_census():
    for n in (1, 2, 3, 4, 5):
        census = dyck_paths_with_peaks(n)
        for k in range(1, n + 1):
            assert narayana(n, k) == census.get(k, 0)


def test_domain_errors():
    with pytest.raises(ValueError):
        central_binomial(-1)
    with pytest.raises(ValueError):
        narayana(3, 0)
    with pytest.raises(ValueError):
        narayana(3, 4)


def test_binomial_is_zero_outside_range():
    assert binomial(5, -1) == 0
    assert binomial(3, 4) == 0
    assert binomial(4, 2) == 6


def test_closed_form_examples():
    assert closed_form(LanguageSpec("C", 1), 2) == 56
    assert closed_form(LanguageSpec("D", 2), 2) == 512
    assert closed_form(LanguageSpec("E", 1), 3) == 58
    assert closed_form(LanguageSpec("E", 1), 3) == count_dp(LanguageSpec("E", 1), 3)


def test_closed_form_r0():
    for lid, value in (("B", 0), ("E", 0), ("C", 2), ("F", 1)):
        spec = LanguageSpec(lid, 0)
        assert closed_form(spec, 0) == 1
        for n in (1, 2, 7):
            assert closed_form(spec, n) == value


@pytest.mark.parametrize("lid", "ABCDEF")
@pytest.mark.parametrize("r", [1, 2])
def test_closed_form_matches_dp(lid, r):
    spec = LanguageSpec(lid, r)
    for n in range(5):
        assert closed_form(spec, n) == count_dp(spec, n)


def test_hyper_terminating_examples():
    assert hyper_terminating(
        HypergeometricSpec((-2, -1, 3), (1, 2), Fraction(1, 4))
    ) == Fraction(7, 4)
    assert hyper_terminating(
        HypergeometricSpec((-2, -1), (2,), Fraction(1, 4))
    ) == Fraction(5, 4)
    assert hyper_terminating(HypergeometricSpec((0, 5), (3,), Fraction(9, 7))) == 1


def test_hyper_terminating_needs_witness():
    with pytest.raises(ValueError):
        HypergeometricSpec((Fraction(1, 2), 3), (1,), 1)


def test_hyper_terminating_singular_lower():
    # upper -3 terminates at K=3 but the lower parameter -1 vanishes at k=2
    with pytest.raises(SingularParameterError):
        hyper_terminating(HypergeometricSpec((-3,), (-1,), Fraction(1)))


def hyper_reference(upper, lower, z):
    """The terminating pFq summed term by term, one normalized Fraction per factor."""
    upper = [Fraction(a) for a in upper]
    lower = [Fraction(b) for b in lower]
    total = term = Fraction(1)
    for k in range(min(int(-a) for a in upper if a.denominator == 1 and a <= 0)):
        for a in upper:
            term *= a + k
        for b in lower:
            term /= b + k
        term *= Fraction(z) / (k + 1)
        total += term
    return total


rationals = st.fractions(-12, 12, max_denominator=9)


@settings(max_examples=100, deadline=None)
@given(
    K=st.integers(0, 14),
    upper=st.lists(rationals.filter(lambda x: x.denominator > 1), max_size=3),
    lower=st.lists(st.one_of(st.integers(-12, 12), rationals), max_size=3),
    z=st.fractions(-9, 9, max_denominator=11),
)
def test_hyper_terminating_matches_term_by_term_reference(K, upper, lower, z):
    h = HypergeometricSpec((*upper, -K), tuple(lower), z)
    if any(Fraction(b).denominator == 1 and 0 <= -b < K for b in lower):
        with pytest.raises(SingularParameterError):
            hyper_terminating(h)
    else:
        assert hyper_terminating(h) == hyper_reference((*upper, -K), lower, z)


@pytest.mark.parametrize("lid", "BCEF")
@pytest.mark.parametrize("r", [1, 3])
def test_hyper_form_at_large_n(lid, r):
    spec = LanguageSpec(lid, r)
    assert hyper_form(spec, 2000) == recurrence_seq(spec, 2000)[2000]


def test_hyper_form_examples():
    assert hyper_form(LanguageSpec("B", 1), 2) == 28
    assert hyper_form(LanguageSpec("F", 1), 1) == 4
    assert hyper_form(LanguageSpec("C", 2), 1) == 32


def test_hyper_form_domain():
    with pytest.raises(ValueError):
        hyper_form(LanguageSpec("A", 1), 2)
    with pytest.raises(ValueError):
        hyper_form(LanguageSpec("B", 0), 2)
    with pytest.raises(ValueError):
        hyper_form(LanguageSpec("B", 1), 0)


@pytest.mark.parametrize("lid", "BCEF")
@pytest.mark.parametrize("r", [1, 2, 3])
def test_hyper_form_matches_closed(lid, r):
    spec = LanguageSpec(lid, r)
    for n in range(1, 25):
        assert hyper_form(spec, n) == closed_form(spec, n)


def test_recurrence_seq_examples():
    assert recurrence_seq(LanguageSpec("B", 1), 3) == (1, 4, 28, 212)
    assert recurrence_seq(LanguageSpec("A", 1), 2) == (1, 8, 96)
    assert recurrence_seq(LanguageSpec("F", 1), 3) == (1, 4, 20, 116)
    assert recurrence_seq(LanguageSpec("E", 0), 5) == (1, 0, 0, 0, 0, 0)
    assert recurrence_seq(LanguageSpec("C", 0), 3) == (1, 2, 2, 2)


@pytest.mark.parametrize("lid", "ABCDEF")
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_recurrence_matches_closed(lid, r):
    table = recurrence_seq(LanguageSpec(lid, r), 40)
    for n in range(41):
        assert table[n] == closed_form(LanguageSpec(lid, r), n)


def test_recurrence_seq_truncation():
    assert recurrence_seq(LanguageSpec("B", 2), 0) == (1,)
    assert recurrence_seq(LanguageSpec("B", 2), 1) == (1, 24)


def test_recurrence_initial_condition_guard(monkeypatch):
    import hyperwalks.formulas as formulas_module

    good = recurrence_spec(LanguageSpec("B", 1))
    corrupt = dataclasses.replace(good, initial=(good.initial[0] + 1, good.initial[1]))
    monkeypatch.setattr(formulas_module, "recurrence_spec", lambda spec: corrupt)
    with pytest.raises(ConsistencyError):
        formulas_module.recurrence_seq(LanguageSpec("B", 1), 5)


def test_recurrence_inexact_division_guard(monkeypatch):
    import hyperwalks.formulas as formulas_module

    good = recurrence_spec(LanguageSpec("A", 1))
    corrupt = dataclasses.replace(good, lead=lambda n: 3 * n)
    monkeypatch.setattr(formulas_module, "recurrence_spec", lambda spec: corrupt)
    with pytest.raises(ConsistencyError, match="inexact"):
        formulas_module.recurrence_seq(LanguageSpec("A", 1), 3)


def test_a_multi_examples():
    assert a_multi(1, 1, 1) == 4
    assert a_multi(1, 0, 2) == 96 == closed_form(LanguageSpec("A", 1), 2)
    assert a_multi(2, 1, 2) == 576 == count_dp_multi(2, 1, 2, False)


@pytest.mark.parametrize("r", range(4))
def test_a_multi_j0_is_the_single_hyperplane_count(r):
    for n in range(20):
        assert a_multi(r, 0, n) == closed_form(LanguageSpec("A", r), n)


@pytest.mark.parametrize("r", range(4))
def test_a_multi_recurrence_matches_closed(r):
    for j in range(r + 1):
        table = a_multi_recurrence(r, j, 30)
        for n in range(31):
            assert table[n] == a_multi(r, j, n)


def test_a_multi_validates_arguments():
    with pytest.raises(ValueError):
        a_multi(1, 2, 3)
    with pytest.raises(ValueError):
        a_multi(2, 1, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        a_multi_recurrence(1, 0, -1)


def test_cross_ratio_examples():
    assert cross_ratio_check(1, 3) == ()
    b = recurrence_seq(LanguageSpec("B", 1), 3)
    c = recurrence_seq(LanguageSpec("C", 1), 3)
    assert 2 * b[2] == 1 * c[2] == 56
    assert c[3] == 424

    assert cross_ratio_check(2, 1) == ()
    e = recurrence_seq(LanguageSpec("E", 2), 1)
    f = recurrence_seq(LanguageSpec("F", 2), 1)
    assert (e[1], f[1]) == (12, 16)
    assert 4 * e[1] == 3 * f[1]


def test_cross_ratio_needs_r_at_least_one():
    with pytest.raises(ValueError):
        cross_ratio_check(0, 5)
