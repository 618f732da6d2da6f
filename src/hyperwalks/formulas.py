"""Closed forms, terminating hypergeometric evaluations, and recurrences.

Every counting sequence here has a binomial-sum closed form and a short
recurrence with polynomial coefficients, both valid for every r >= 0, and for
r >= 1 an equivalent terminating hypergeometric evaluation.  All three are
implemented independently so they can be cross-checked against each other and
against the oracles; arithmetic is exact throughout (integers and rationals,
never floats).  Each closed form is a Horner sum in (2^r - 1)^2 whose
binomial products are updated from term to term by exact ratio.  A recurrence
is data, the integer coefficients of the polynomials p_0..p_k in
sum_i p_i(n) t_(n-i) = 0 (`RecurrenceSpec`), unrolled by one loop for any k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .core import ConsistencyError, LanguageSpec


class SingularParameterError(ValueError):
    """A lower hypergeometric parameter vanishes before the series terminates."""


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


def closed_form(spec: LanguageSpec, n: int) -> int:
    """Exact walk count by the binomial-sum closed form (n = 0 gives 1).

    With q = 2^r and s = (q - 1)^2, the paper's sums are, over k = 1..n,

        b_n = 2 sum s^(k-1) 2^(r(2n-2k+1)) C(n-1,k-1) ((q-1) C(n-1,k-1) + q C(n-1,k-2))
        c_n = 2 sum s^(n-k) 2^(r(2k-1))    C(n-1,k-1) (q C(n-1,k-1) + (q-1) C(n-1,k-2))
        e_n = (1/n) sum (q-1) s^(k-1) 2^(r(2n-2k+1)) C(n,k) C(n,k-1)
        f_n = (1/n) sum s^(n-k) 2^(2rk) C(n,k) C(n,k-1)

    Each is evaluated by Horner's rule in s (k downward for B and E, upward
    for C and F), with the power of 2 as a left shift.  The binomial products
    in a term come from the previous term's by exact ratio, one multiply and
    one exact division each, so the loop keeps a few integers and no list.
    At r = 0, s = 0 keeps only the s^0 term.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    r = spec.r
    lid = spec.id
    if lid == "A":
        return central_binomial(n) << (2 * n * r)
    if lid == "D":
        return catalan(n) << (2 * n * r)
    q = 1 << r
    p = q - 1
    s = p * p
    total = 0
    if lid in "BC":
        # j = k - 1 runs over 0..m; square = C(m, j)^2, pair = C(m, j) C(m, j - 1)
        m = n - 1
        if lid == "B":
            square, pair = 1, m
            for j in range(m, -1, -1):
                total = total * s + ((p * square + q * pair) << (r * (2 * (m - j) + 1)))
                square = pair * j // (m - j + 1)
                pair = square * (j - 1) // (m - j + 2)
        else:
            square, pair = 1, 0
            for j in range(m + 1):
                total = total * s + ((q * square + p * pair) << (r * (2 * j + 1)))
                pair = square * (m - j) // (j + 1)
                square = pair * (m - j) // (j + 1)
        return 2 * total
    # pair = C(n, k) C(n, k - 1)
    pair = n
    if lid == "E":
        for k in range(n, 0, -1):
            total = total * s + (pair << (r * (2 * (n - k) + 1)))
            pair = pair * (k * (k - 1)) // ((n - k + 1) * (n - k + 2))
        total *= p
    else:  # F
        for k in range(1, n + 1):
            total = total * s + (pair << (2 * r * k))
            pair = pair * ((n - k) * (n - k + 1)) // (k * (k + 1))
    if total % n:
        raise ConsistencyError(f"closed form for {spec} at n={n} is not an integer")
    return total // n


def hyper_terminating(upper, lower, argument) -> Fraction:
    """Evaluate a terminating hypergeometric sum pFq(upper; lower; argument) exactly.

    Parameters and argument are ints or `Fraction`s.  Terms are
    sum_k (prod upper Pochhammers / prod lower Pochhammers) z^k / k!, stopping
    at the first vanishing upper Pochhammer; `ValueError` if no upper
    parameter is a nonpositive integer, so the sum would not terminate.  A
    lower Pochhammer that vanishes at or before that index makes the sum
    undefined (`SingularParameterError`).

    With every parameter written p/q, the term ratio t_(k+1)/t_k is the
    integer quotient prod_upper (p + k q) prod_lower q' p_z over
    prod_lower (p' + k q') prod_upper q q_z (k + 1).  The term's numerator and
    the running sum are integers over one common, unreduced denominator, and
    the only `Fraction` is the one built from them at the end.
    """
    upper = [a.as_integer_ratio() for a in upper]
    lower = [b.as_integer_ratio() for b in lower]
    witnesses = [-p for p, q in upper if q == 1 and p <= 0]
    if not witnesses:
        raise ValueError("no termination witness: some upper parameter must be a nonpositive integer")
    K = min(witnesses)
    for p, q in lower:
        if q == 1 and 0 <= -p < K:
            raise SingularParameterError(
                f"lower parameter {p} vanishes at k={1 - p}, before the terminating index {K}"
            )
    up_scale, down_scale = argument.as_integer_ratio()
    for _, q in lower:
        up_scale *= q
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


def hyper_parameters(
    spec: LanguageSpec, n: int
) -> tuple[int, tuple[int, ...], tuple[int, ...], Fraction]:
    """Prefactor, upper and lower parameters, and argument of the pFq whose
    product with the prefactor equals the walk count."""
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
        return pre, (-n, -n + 1, (q - 1) * n + 1), (1, (q - 1) * n), z_half
    if spec.id == "C":
        pre = 2 ** (2 * r + 1) * (q - 1) ** (2 * n - 2)
        return pre, (-n, -n + 1, -q * n + 1), (1, -q * n), z_full
    if spec.id == "E":
        pre = 2 ** (2 * r * n) - 2 ** (r * (2 * n - 1))
        return pre, (-n, -n + 1), (2,), z_half
    pre = 2 ** (2 * r) * (q - 1) ** (2 * n - 2)  # F
    return pre, (-n, -n + 1), (2,), z_full


def hyper_form(spec: LanguageSpec, n: int) -> int:
    """Walk count via the terminating hypergeometric evaluation."""
    pre, *params = hyper_parameters(spec, n)
    value = pre * hyper_terminating(*params)
    if value.denominator != 1:
        raise ConsistencyError(
            f"hypergeometric form for {spec} at n={n} is not an integer: {value}"
        )
    return value.numerator


@dataclass(frozen=True)
class RecurrenceSpec:
    """The recurrence sum_(i=0..k) p_i(n) t_(n-i) = 0, as data.

    `coefficients[i]` holds the integer coefficients of the polynomial p_i,
    lowest degree first, so two recurrences are the same exactly when their
    coefficients are equal.  `initial` holds t_1..t_m with m >= k - 1;
    t_0 = 1 always (the empty walk), and the recurrence gives t_n for n > m.
    With q = 2^r, a1 = 2q^2 - 2q + 1 and a2 = (2q - 1)^2, the paper's are

        A, D: (n+s) t_n = 2^(2r+1) (2n-1) t_(n-1), with s = 0 for A, 1 for D
        B, C: n t_n = 2 (a1 (n-1) + q^2 - q) t_(n-1) - a2 (n-2) t_(n-2)
        E, F: (n+1) t_n = a1 (2n-1) t_(n-1) - a2 (n-2) t_(n-2)

    so B and C share their coefficients, and so do E and F.
    """

    coefficients: tuple[tuple[int, ...], ...]
    initial: tuple[int, ...] = ()


def recurrence_spec(spec: LanguageSpec) -> RecurrenceSpec:
    """Recurrence and initial conditions for one family, for every r >= 0."""
    r = spec.r
    lid = spec.id
    if lid in ("A", "D"):
        shift = 0 if lid == "A" else 1
        return RecurrenceSpec(((shift, 1), (2 ** (2 * r + 1), -(2 ** (2 * r + 2)))))
    q = 2 ** r
    p = q - 1
    a1 = 2 * q * q - 2 * q + 1  # 2^(2r+1) - 2^(r+1) + 1
    a2 = (2 * q - 1) ** 2       # (2^(r+1) - 1)^2
    initial = {
        "B": (2 * q * p, 2 * q * p * (q * q + q * p + p * p)),
        "C": (2 * q * q, 2 * q * q * (q * q + q * p + p * p)),
        "E": (q * p, q * p * (q * q + p * p)),
        "F": (q * q, q * q * (q * q + p * p)),
    }[lid]
    p0, p1 = ((0, 1), (2 * (a1 - q * q + q), -2 * a1)) if lid in "BC" else ((1, 1), (a1, -2 * a1))
    return RecurrenceSpec((p0, p1, (-2 * a2, a2)), initial)


def _at(p: tuple[int, ...], n: int) -> int:
    """The polynomial with coefficients p, highest degree first, at n (Horner)."""
    value = 0
    for a in p:
        value = value * n + a
    return value


def _unroll(rs: RecurrenceSpec, n_max: int, name: str) -> tuple[int, ...]:
    """t_0..t_n_max from t_0 = 1, the initial terms, then the recurrence; each
    division by p_0(n) must be exact and each term nonnegative (they count walks)."""
    if len(rs.initial) < len(rs.coefficients) - 2:
        raise ConsistencyError(f"{name}: order {len(rs.coefficients) - 1} needs more initial terms")
    values = [1, *rs.initial][: n_max + 1]
    lead, first, *rest = [p[::-1] for p in rs.coefficients]
    rest = list(enumerate(rest, start=2))
    for n in range(len(values), n_max + 1):
        # starting from the t_(n-1) term spares adding a big term to 0
        rhs = _at(first, n) * values[n - 1]
        for i, p in rest:
            rhs += _at(p, n) * values[n - i]
        quotient, remainder = divmod(rhs, -_at(lead, n))
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
    # p_1(n) = -2^(2r-j+1) (2n-1)^(j+1), expanded by the binomial theorem
    p1 = tuple((-1) ** (j + k) * comb(j + 1, k) << (2 * r - j + 1 + k) for k in range(j + 2))
    rs = RecurrenceSpec(((0,) * (j + 1) + (1,), p1))
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
