"""Exact generating-function expansion and singularity-driven asymptotics.

The generating function of each family is algebraic; this module expands the
published closed forms in exact rational arithmetic, one coefficient at a time
from the first-order differential equation each product of square roots
satisfies.  Each family's dominant singularity rho, exponent alpha and
constant C are a plain (rho, alpha, C) tuple, and the asymptotic estimate
count_n ~ C rho^(-n) n^(alpha-1) / Gamma(alpha) is evaluated in log space, so
it holds at any n.
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


def _expand(factors: Sequence[tuple[int, Fraction]], N: int) -> tuple[Fraction, ...]:
    """Coefficients 0..N of y = prod (1 - c x)^alpha over the (c, alpha) factors.

    y satisfies Q y' = R y with Q = prod (1 - c_i x) and
    R = sum alpha_i (-c_i) prod_(j != i) (1 - c_j x).  The coefficient of x^n
    reads sum_k q_k (n+1-k) y_(n+1-k) = sum_k r_k y_(n-k), and q_0 = 1, so
    each y_(n+1) follows from the few before it.
    """
    q, r = [1], [Fraction(0)]
    for c, alpha in factors:  # the product rule, one factor at a time
        r = [a - alpha * c * b for a, b in zip(_times_one_minus(r, c), q + [0])]
        q = _times_one_minus(q, c)
    y = [Fraction(1)]
    for n in range(N):
        total = sum(r[k] * y[n - k] for k in range(min(len(r), n + 1)))
        total -= sum(q[k] * (n + 1 - k) * y[n + 1 - k] for k in range(1, min(len(q), n + 2)))
        y.append(total / (n + 1))
    return tuple(y)


def _shift_down(root: tuple[Fraction, ...], linear: int, scale: int) -> tuple[Fraction, ...]:
    """(1 - linear x - root) / (scale x): the numerator's constant term must
    vanish, and the quotient's constant term must be 1, the empty walk."""
    numerator = [-c for c in root]
    numerator[0] += 1
    numerator[1] -= linear
    if numerator[0] != 0:
        raise ConsistencyError(
            f"cannot divide by x: constant term is {numerator[0]}, expected 0"
        )
    result = tuple(c / scale for c in numerator[1:])
    if result[0] != 1:
        raise ConsistencyError(f"constant term after dividing by x is {result[0]}, expected 1")
    return result


def _minus_one(series: list[Fraction]) -> tuple[Fraction, ...]:
    return (series[0] - 1, *series[1:])


def gf_series(spec: LanguageSpec, N: int) -> tuple[Fraction, ...]:
    """Coefficients 0..N of the family's closed-form generating function.

    Each closed form is a constant plus a rational multiple of a product of
    square roots of (1 - c x), expanded by `_expand`.  The half-space forms
    carry a removable singularity at x=0: the closed form is
    (1 - linear x - root)/(scale x), so the root is expanded one order higher
    and shifted down by `_shift_down`.
    """
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    r = spec.r
    lid = spec.id
    big = 2 ** (2 * r + 2)
    if lid == "A":
        return _expand([(big, -HALF)], N)
    if lid == "D":
        return _shift_down(_expand([(big, HALF)], N + 1), 0, big // 2)
    if r == 0:
        if lid in "BE":  # only the empty walk
            return _expand([], N)
        f = _expand([(1, Fraction(-1))], N)  # 1/(1 - x)
        # C = (1 + x)/(1 - x) = 2F - 1
        return f if lid == "F" else _minus_one([2 * c for c in f])
    q = 2 ** r
    m = 2 * q - 1  # 2^(r+1) - 1
    if lid in "BC":
        b = _expand([(1, HALF), (m * m, -HALF)], N)
        if lid == "B":
            return b
        # C = (q sqrt(1-x) - sqrt(1-m^2 x)) / ((q-1) sqrt(1-m^2 x)) = (q B - 1)/(q-1)
        return tuple(c / (q - 1) for c in _minus_one([q * c for c in b]))
    root = _expand([(1, HALF), (m * m, HALF)], N + 1)
    if lid == "E":
        return _shift_down(root, 1, 2 ** (r + 1) * (q - 1))
    return _shift_down(root, m, 2 * (q - 1) ** 2)


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
