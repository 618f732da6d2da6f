"""Exact generating-function expansion and singularity-driven asymptotics.

Each family's generating function is one integer row, solved in exact
integers.  Its dominant singularity rho, exponent alpha and constant C are a
plain (rho, alpha, C) tuple; the estimate count_n ~ C rho^(-n) n^(alpha-1) /
Gamma(alpha) is evaluated in log space, so it holds at any n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .core import ConsistencyError, LanguageSpec

HALF = Fraction(1, 2)


def _times_one_minus(poly: list, c: int) -> list:
    """poly(x) * (1 - c x)."""
    return [a - c * b for a, b in zip(poly + [0], [0] + poly)]


def _expand(factors: Sequence[tuple[int, int]], N: int) -> tuple[int, ...]:
    """Coefficients 0..N of w = prod (1 - c x)^(h/2) over the integer (c, h) factors.

    w satisfies 2Q w' = 2R w with Q = prod (1 - c_i x) and the integer
    polynomial 2R = sum h_i (-c_i) prod_(j != i) (1 - c_j x).  The coefficient
    of x^n reads sum_k 2 q_k (n+1-k) w_(n+1-k) = sum_k 2r_k w_(n-k), and
    q_0 = 1, so each w_(n+1) is one division by 2(n + 1), which must be exact.
    """
    q, r2 = [1], [0]
    for c, h in factors:  # the product rule, one factor at a time
        r2 = [a - h * c * b for a, b in zip(_times_one_minus(r2, c), q + [0])]
        q = _times_one_minus(q, c)
    w = [1]
    for n in range(N):
        total = sum(r2[k] * w[n - k] for k in range(min(len(r2), n + 1)))
        total -= 2 * sum(q[k] * (n + 1 - k) * w[n + 1 - k] for k in range(1, min(len(q), n + 2)))
        coefficient, remainder = divmod(total, 2 * (n + 1))
        if remainder:
            raise ConsistencyError(f"coefficient {n + 1} of {factors} is not an integer")
        w.append(coefficient)
    return tuple(w)


def _row(spec: LanguageSpec) -> tuple:
    """The family's row (factors, d, P0, c, k), as tabled in `gf_series`."""
    r = spec.r
    q, m, big = 2**r, 2 ** (r + 1) - 1, 4 ** (r + 1)
    rows = {
        "A": (((big, -1),), 1, (0,), 1, 0),
        "D": (((big, 1),), 1, (1,), -big // 2, 1),
        "B": (((1, 1), (m * m, -1)), 1, (0,), 1, 0),
        "C": (((1, 1), (m * m, -1)), q, (1,), q - 1, 0),
        "E": (((1, 1), (m * m, 1)), 1, (1, -1), -(2 ** (r + 1)) * (q - 1), 1),
        "F": (((1, 1), (m * m, 1)), 1, (1, -m), -2 * (q - 1) ** 2, 1),
    }
    if r == 0:  # c = q - 1 = 0 would drop y from C, E and F
        rows.update(C=(((1, -2),), 2, (1,), 1, 0), E=((), 1, (0,), 1, 0),
                    F=(((1, -2),), 1, (0,), 1, 0))
    return rows[spec.id]


def gf_series(spec: LanguageSpec, N: int) -> tuple[int, ...]:
    """Coefficients 0..N of the family's closed-form generating function y.

    Each family is one integer row (factors, d, P0, c, k): d w = P0(x) + c x^k y
    with w = prod (1 - c_i x)^(h_i/2) over the (c_i, h_i) factors.  With
    q = 2^r, m = 2q - 1 and big = 4^(r+1), the rows are

        A  (big, -1)          d = 1  P0 = 0       c = 1                k = 0
        D  (big, 1)           d = 1  P0 = 1       c = -big/2           k = 1
        B  (1, 1), (m^2, -1)  d = 1  P0 = 0       c = 1                k = 0
        C  (1, 1), (m^2, -1)  d = q  P0 = 1       c = q - 1            k = 0
        E  (1, 1), (m^2, 1)   d = 1  P0 = 1 - x   c = -2^(r+1)(q - 1)  k = 1
        F  (1, 1), (m^2, 1)   d = 1  P0 = 1 - mx  c = -2(q - 1)^2      k = 1

    At r = 0, where q - 1 = 0, C is (1, -2) with d = 2 and P0 = 1, E has no
    factors, and F is (1, -2); each has c = 1 and k = 0.  So
    y_n = (d w_(n+k) - P0_(n+k)) / c, where the first k coefficients of
    d w - P0 must vanish, every division must be exact, and y_0 must be 1, the
    empty walk; otherwise `ConsistencyError` is raised.
    """
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    factors, d, p0, c, k = _row(spec)
    rest = [d * a for a in _expand(factors, N + k)]
    for i, a in enumerate(p0):
        rest[i] -= a
    if any(rest[:k]):
        raise ConsistencyError(f"cannot divide by x^{k}: d w - P0 starts {rest[:k]}")
    if any(a % c for a in rest[k:]):
        raise ConsistencyError(f"d w - P0 for {spec} is not a multiple of {c}")
    y = tuple(a // c for a in rest[k:])
    if y[0] != 1:
        raise ConsistencyError(f"constant term of {spec} is {y[0]}, expected 1")
    return y


def asymptotic_form(spec: LanguageSpec) -> tuple[Fraction, Fraction, float]:
    """Dominant singularity rho, exponent alpha, and constant C for one family.

    The estimate at n is C rho^(-n) n^(alpha-1) / Gamma(alpha); C is
    scale * sqrt(radicand) with the family's rational scale and radicand.
    """
    r = spec.r
    lid = spec.id
    if lid == "A":
        return Fraction(1, 4 ** (r + 1)), HALF, 1.0
    if lid == "D":
        return Fraction(1, 4 ** (r + 1)), -HALF, -2.0
    if r < 1:
        raise ValueError(f"no asymptotic form for {spec}: the r=0 families are eventually constant")
    q = 2 ** r
    m = 2 * q - 1
    rho = Fraction(1, m * m)
    root = math.sqrt(m * m - 1)
    if lid == "B":
        return rho, HALF, 1 / m * root
    if lid == "C":
        return rho, HALF, q / ((q - 1) * m) * root
    if lid == "E":
        return rho, -HALF, -m / (2 ** (r + 1) * (q - 1)) * root
    return rho, -HALF, -m / (2 * (q - 1) ** 2) * root


def asymptotic_ratio(spec: LanguageSpec, n: int, count: int) -> float:
    """Exact count at n divided by the asymptotic estimate at n, in log space."""
    if n < 1:
        raise ValueError("asymptotic ratio needs n >= 1")
    if count <= 0:
        raise ValueError(f"count for {spec} at n={n} is not positive")
    rho, alpha, constant = asymptotic_form(spec)
    weight = constant / math.gamma(alpha)
    if weight <= 0:
        raise ConsistencyError(f"the estimate for {spec} is not positive")
    log_estimate = math.log(weight) - n * math.log(rho) + (alpha - 1) * math.log(n)
    return math.exp(math.log(count) - log_estimate)
