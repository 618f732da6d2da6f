"""Closed forms, terminating hypergeometric evaluations, and recurrences.

Every counting sequence here has (for r >= 1) a binomial-sum closed form, an
equivalent terminating hypergeometric evaluation, and a short recurrence with
polynomial coefficients.  All three are implemented independently so they can
be cross-checked against each other and against the oracles; arithmetic is
exact throughout (integers and rationals, never floats).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from .core import ConsistencyError, LanguageSpec


class SingularParameterError(ValueError):
    """A lower hypergeometric parameter vanishes before the series terminates."""


def binomial(m: int, k: int) -> int:
    """Binomial coefficient with C(m, k) = 0 outside 0 <= k <= m."""
    if k < 0 or m < 0 or k > m:
        return 0
    return comb(m, k)


def central_binomial(n: int) -> int:
    """C(2n, n): walks on Z of length 2n ending at the origin."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return comb(2 * n, n)


def catalan(n: int) -> int:
    """C(2n, n)/(n+1): nonnegative walks of length 2n ending at the origin."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return comb(2 * n, n) // (n + 1)


# The four r=0 families degenerate: no nonempty backtrack-free walk returns to
# the origin, and only the two alternating walks (one of them nonnegative)
# avoid repeats.
_R0_VALUES = {"B": 0, "E": 0, "C": 2, "F": 1}


def closed_form(spec: LanguageSpec, n: int) -> int:
    """Exact walk count by the binomial-sum closed form (n = 0 gives 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    r = spec.r
    lid = spec.id
    if lid == "A":
        return 2 ** (2 * n * r) * central_binomial(n)
    if lid == "D":
        return 2 ** (2 * n * r) * catalan(n)
    if r == 0:
        return _R0_VALUES[lid]
    q = 2 ** r
    if lid == "B":
        return 2 * sum(
            (q - 1) ** (2 * k - 2)
            * 2 ** (r * (2 * n - 2 * k + 1))
            * binomial(n - 1, k - 1)
            * ((q - 1) * binomial(n - 1, k - 1) + q * binomial(n - 1, k - 2))
            for k in range(1, n + 1)
        )
    if lid == "C":
        return 2 * sum(
            (q - 1) ** (2 * n - 2 * k)
            * 2 ** (r * (2 * k - 1))
            * binomial(n - 1, k - 1)
            * (q * binomial(n - 1, k - 1) + (q - 1) * binomial(n - 1, k - 2))
            for k in range(1, n + 1)
        )
    if lid == "E":
        total = sum(
            (q - 1) ** (2 * k - 1)
            * 2 ** (r * (2 * n - 2 * k + 1))
            * comb(n, k) * comb(n, k - 1)
            for k in range(1, n + 1)
        )
    else:  # F
        total = sum(
            (q - 1) ** (2 * n - 2 * k)
            * 2 ** (2 * r * k)
            * comb(n, k) * comb(n, k - 1)
            for k in range(1, n + 1)
        )
    if total % n:
        raise ConsistencyError(f"closed form for {spec} at n={n} is not an integer")
    return total // n


def _is_nonpositive_integer(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


@dataclass(frozen=True)
class HypergeometricSpec:
    """Parameter lists of a terminating pFq evaluation at a rational argument."""

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    argument: Fraction

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(Fraction(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(Fraction(b) for b in self.lower))
        object.__setattr__(self, "argument", Fraction(self.argument))
        if not any(_is_nonpositive_integer(a) for a in self.upper):
            raise ValueError("no termination witness: some upper parameter must be a nonpositive integer")

    @property
    def termination_index(self) -> int:
        """Smallest K with an upper factor (a)_k vanishing for all k > K."""
        return min(int(-a) for a in self.upper if _is_nonpositive_integer(a))


def hyper_terminating(h: HypergeometricSpec) -> Fraction:
    """Evaluate the finite hypergeometric sum exactly.

    Terms are sum_k (prod upper Pochhammers / prod lower Pochhammers) z^k / k!,
    stopping at the first vanishing upper Pochhammer.  A lower Pochhammer that
    vanishes at or before that index makes the sum undefined.

    With every parameter written p/q, the term ratio t_(k+1)/t_k is the
    integer quotient prod_upper (p + k q) prod_lower q' p_z over
    prod_lower (p' + k q') prod_upper q q_z (k + 1).  The term's numerator and
    the running sum are integers over one common, unreduced denominator, and
    the only `Fraction` is the one built from them at the end.
    """
    K = h.termination_index
    for b in h.lower:
        if _is_nonpositive_integer(b) and -b < K:
            raise SingularParameterError(
                f"lower parameter {b} vanishes at k={int(-b) + 1}, "
                f"before the terminating index {K}"
            )
    upper = [(a.numerator, a.denominator) for a in h.upper]
    lower = [(b.numerator, b.denominator) for b in h.lower]
    up_scale = h.argument.numerator
    for _, q in lower:
        up_scale *= q
    down_scale = h.argument.denominator
    for _, q in upper:
        down_scale *= q
    total = term = denominator = 1
    for k in range(K):
        up, down = up_scale, down_scale * (k + 1)
        for p, q in upper:
            up *= p + k * q
        for p, q in lower:
            down *= p + k * q
        term *= up
        denominator *= down
        total = total * down + term
    return Fraction(total, denominator)


def hyper_parameters(spec: LanguageSpec, n: int) -> tuple[int, HypergeometricSpec]:
    """Prefactor and pFq parameters whose product equals the walk count."""
    if spec.id not in ("B", "C", "E", "F"):
        raise ValueError(f"hypergeometric form exists only for B, C, E, F, not {spec.id}")
    if spec.r < 1:
        raise ValueError("hypergeometric form needs r >= 1 (prefactors degenerate at r=0)")
    if n < 1:
        raise ValueError("hypergeometric form needs n >= 1")
    r = spec.r
    q = 2 ** r
    z_half = Fraction((q - 1) ** 2, 4 ** r)
    z_full = Fraction(4 ** r, (q - 1) ** 2)
    if spec.id == "B":
        pre = 2 * (2 ** (2 * r * n) - 2 ** (r * (2 * n - 1)))
        params = HypergeometricSpec(
            (Fraction(-n), Fraction(-n + 1), Fraction((q - 1) * n + 1)),
            (Fraction(1), Fraction((q - 1) * n)),
            z_half,
        )
    elif spec.id == "C":
        pre = 2 ** (2 * r + 1) * (q - 1) ** (2 * n - 2)
        params = HypergeometricSpec(
            (Fraction(-n), Fraction(-n + 1), Fraction(-q * n + 1)),
            (Fraction(1), Fraction(-q * n)),
            z_full,
        )
    elif spec.id == "E":
        pre = 2 ** (2 * r * n) - 2 ** (r * (2 * n - 1))
        params = HypergeometricSpec(
            (Fraction(-n), Fraction(-n + 1)), (Fraction(2),), z_half
        )
    else:  # F
        pre = 2 ** (2 * r) * (q - 1) ** (2 * n - 2)
        params = HypergeometricSpec(
            (Fraction(-n), Fraction(-n + 1)), (Fraction(2),), z_full
        )
    return pre, params


def hyper_form(spec: LanguageSpec, n: int) -> int:
    """Walk count via the terminating hypergeometric evaluation."""
    pre, params = hyper_parameters(spec, n)
    value = pre * hyper_terminating(params)
    if value.denominator != 1:
        raise ConsistencyError(
            f"hypergeometric form for {spec} at n={n} is not an integer: {value}"
        )
    return value.numerator


@dataclass(frozen=True)
class RecurrenceSpec:
    """A short recurrence lead(n)*t_n = back1(n)*t_(n-1) + back2(n)*t_(n-2).

    `initial` holds t_1..t_k; t_0 = 1 always (the empty walk).  The
    recurrence gives t_n for n > k.
    """

    lead: Callable[[int], int]
    back1: Callable[[int], int]
    back2: Callable[[int], int]
    initial: tuple[int, ...] = ()


def recurrence_spec(spec: LanguageSpec) -> RecurrenceSpec:
    """Recurrence and initial conditions for one family (r >= 1 for B,C,E,F)."""
    r = spec.r
    lid = spec.id
    if lid in ("A", "D"):
        shift = 0 if lid == "A" else 1
        return RecurrenceSpec(
            lead=lambda n: n + shift,
            back1=lambda n: 2 ** (2 * r + 1) * (2 * n - 1),
            back2=lambda n: 0,
        )
    if r < 1:
        raise ValueError(f"no recurrence for {spec}: r=0 families are constant for n >= 1")
    q = 2 ** r
    a1 = 2 * q * q - 2 * q + 1  # 2^(2r+1) - 2^(r+1) + 1
    a2 = (2 * q - 1) ** 2       # (2^(r+1) - 1)^2
    if lid == "B":
        initial = (
            2 ** (r + 1) * (q - 1),
            2 ** (3 * r + 1) * (q - 1) + 2 ** (2 * r + 1) * (q - 1) ** 2 + 2 ** (r + 1) * (q - 1) ** 3,
        )
    elif lid == "C":
        initial = (
            2 ** (2 * r + 1),
            2 ** (4 * r + 1) + 2 ** (3 * r + 1) * (q - 1) + 2 ** (2 * r + 1) * (q - 1) ** 2,
        )
    elif lid == "E":
        initial = (q * (q - 1), 2 ** (3 * r) * (q - 1) + q * (q - 1) ** 3)
    else:  # F
        initial = (q * q, 2 ** (4 * r) + 2 ** (2 * r) * (q - 1) ** 2)
    if lid in ("B", "C"):
        return RecurrenceSpec(
            lead=lambda n: n,
            back1=lambda n: 2 * (a1 * (n - 1) + q * q - q),
            back2=lambda n: -a2 * (n - 2),
            initial=initial,
        )
    return RecurrenceSpec(
        lead=lambda n: n + 1,
        back1=lambda n: a1 * (2 * n - 1),
        back2=lambda n: -a2 * (n - 2),
        initial=initial,
    )


def _unroll(rs: RecurrenceSpec, n_max: int, name: str) -> tuple[int, ...]:
    """t_0..t_n_max from t_0 = 1, the initial terms, then the recurrence.

    Every division by the leading coefficient must be exact and every term
    nonnegative: the terms count walks.
    """
    values = [1, *rs.initial][: n_max + 1]
    for n in range(len(values), n_max + 1):
        rhs = rs.back1(n) * values[n - 1]
        if n >= 2:
            rhs += rs.back2(n) * values[n - 2]
        quotient, remainder = divmod(rhs, rs.lead(n))
        if remainder:
            raise ConsistencyError(f"{name} at n={n}: inexact division")
        if quotient < 0:
            raise ConsistencyError(f"{name} at n={n}: negative term {quotient}")
        values.append(quotient)
    return tuple(values)


def recurrence_seq(spec: LanguageSpec, n_max: int) -> tuple[int, ...]:
    """Counts at n = 0..n_max from initial conditions plus the recurrence.

    Initial conditions are verified against the closed form before the
    recurrence extends them.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if spec.r == 0 and spec.id in _R0_VALUES:
        return (1,) + (_R0_VALUES[spec.id],) * n_max
    rs = recurrence_spec(spec)
    for i, v in enumerate(rs.initial, start=1):
        if v != closed_form(spec, i):
            raise ConsistencyError(
                f"initial condition t_{i}={v} for {spec} disagrees with the closed form"
            )
    return _unroll(rs, n_max, f"recurrence for {spec}")


def a_multi(r: int, j: int, n: int) -> int:
    """Closed form for walks ending on the intersection of j+1 hyperplanes."""
    if not 0 <= j <= r:
        raise ValueError(f"need 0 <= j <= r, got j={j}, r={r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return 2 ** (2 * n * (r - j)) * comb(2 * n, n) ** (j + 1)


def a_multi_recurrence(r: int, j: int, n_max: int) -> tuple[int, ...]:
    """Same sequence via n^(j+1) t_n = 2^(2r-j+1) (2n-1)^(j+1) t_(n-1)."""
    if not 0 <= j <= r:
        raise ValueError(f"need 0 <= j <= r, got j={j}, r={r}")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    rs = RecurrenceSpec(
        lead=lambda n: n ** (j + 1),
        back1=lambda n: 2 ** (2 * r - j + 1) * (2 * n - 1) ** (j + 1),
        back2=lambda n: 0,
    )
    return _unroll(rs, n_max, f"multi-hyperplane recurrence (r={r}, j={j})")


def cross_ratio_check(r: int, n_max: int) -> tuple[str, ...]:
    """Violations of 2^r b_n = (2^r - 1) c_n and 2^r e_n = (2^r - 1) f_n for
    1 <= n <= n_max; an empty tuple means both identities hold."""
    if r < 1:
        raise ValueError("ratio identities need r >= 1")
    q = 2 ** r
    b = recurrence_seq(LanguageSpec("B", r), n_max)
    c = recurrence_seq(LanguageSpec("C", r), n_max)
    e = recurrence_seq(LanguageSpec("E", r), n_max)
    f = recurrence_seq(LanguageSpec("F", r), n_max)
    violations = []
    for n in range(1, n_max + 1):
        if q * b[n] != (q - 1) * c[n]:
            violations.append(f"r={r} n={n}: {q}*b_n={q * b[n]} != {q - 1}*c_n={(q - 1) * c[n]}")
        if q * e[n] != (q - 1) * f[n]:
            violations.append(f"r={r} n={n}: {q}*e_n={q * e[n]} != {q - 1}*f_n={(q - 1) * f[n]}")
    return tuple(violations)
