"""Exact truncated power series and singularity-driven asymptotics.

The generating function of each family is algebraic; this module expands the
published closed forms with exact rational arithmetic (add, multiply, divide,
square root by Newton iteration) and packages each family's dominant
singularity, exponent, and constant so the asymptotic estimate
count_n ~ C rho^(-n) n^(alpha-1) / Gamma(alpha) can be evaluated in log space
at any n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .core import ConsistencyError, LanguageSpec
from .formulas import recurrence_seq

Coefficient = Union[int, Fraction]


@dataclass(frozen=True)
class PowerSeries:
    """Truncated series with exact rational coefficients 0..N."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("a power series stores at least the constant term")
        object.__setattr__(
            self, "coefficients", tuple(Fraction(c) for c in self.coefficients)
        )

    @classmethod
    def from_coefficients(cls, coeffs: Sequence[Coefficient], order: Optional[int] = None) -> "PowerSeries":
        """Build a series; pad with zeros / truncate to the requested order."""
        values = [Fraction(c) for c in coeffs]
        if order is not None:
            values = values[: order + 1] + [Fraction(0)] * (order + 1 - len(values))
        return cls(tuple(values))

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coefficients[n]


def _pad(a: PowerSeries, order: int) -> PowerSeries:
    """Extend a polynomial with zero coefficients (for exact polynomials only)."""
    return PowerSeries.from_coefficients(a.coefficients, order)


def ps_add(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    n = min(a.order, b.order)
    return PowerSeries(tuple(a[i] + b[i] for i in range(n + 1)))


def ps_sub(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    n = min(a.order, b.order)
    return PowerSeries(tuple(a[i] - b[i] for i in range(n + 1)))


def ps_scale(a: PowerSeries, c: Coefficient) -> PowerSeries:
    c = Fraction(c)
    return PowerSeries(tuple(c * x for x in a.coefficients))


def ps_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    n = min(a.order, b.order)
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        ai = a[i]
        if ai:
            for j in range(n + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return PowerSeries(tuple(out))


def ps_div(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Series quotient; requires a nonzero constant term in the divisor."""
    if b[0] == 0:
        raise ValueError("series division needs a divisor with nonzero constant term")
    n = min(a.order, b.order)
    out: list[Fraction] = []
    for i in range(n + 1):
        s = a[i]
        for k in range(1, i + 1):
            if b[k]:
                s -= b[k] * out[i - k]
        out.append(s / b[0])
    return PowerSeries(tuple(out))


def ps_sqrt(a: PowerSeries) -> PowerSeries:
    """The unique square root with constant term +1, by Newton iteration.

    Each round doubles the number of correct coefficients via
    y <- (y + a/y) / 2 until the truncation order of `a` is reached.
    """
    if a[0] != 1:
        raise ValueError("series square root needs constant term exactly 1")
    n = a.order
    y = PowerSeries((Fraction(1),))
    correct = 1
    while correct < n + 1:
        prec = min(2 * correct, n + 1)
        yp = _pad(y, prec - 1)
        ap = PowerSeries(a.coefficients[:prec])
        y = ps_scale(ps_add(yp, ps_div(ap, yp)), Fraction(1, 2))
        correct = prec
    return y


def _shift_down(a: PowerSeries, scale: int) -> PowerSeries:
    """Divide by (scale * x) a numerator whose constant term must vanish; the
    quotient's constant term must be 1, the empty walk."""
    if a[0] != 0:
        raise ConsistencyError(
            f"cannot divide by x: constant term is {a[0]}, expected 0"
        )
    result = PowerSeries(tuple(c / scale for c in a.coefficients[1:]))
    if result[0] != 1:
        raise ConsistencyError(f"constant term after dividing by x is {result[0]}, expected 1")
    return result


def _polynomial(coeffs: Sequence[Coefficient], order: int) -> PowerSeries:
    return PowerSeries.from_coefficients(coeffs, order)


def gf_series(spec: LanguageSpec, N: int) -> PowerSeries:
    """Truncated expansion of the family's closed-form generating function.

    The half-space forms carry a removable singularity at x=0: the closed form
    is (numerator)/(const * x), so the numerator is expanded one order higher,
    its vanishing constant term checked, and the result shifted down.  After
    the shift the constant coefficient equals 1, the empty walk.
    """
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    r = spec.r
    lid = spec.id
    big = 2 ** (2 * r + 2)
    if lid == "A":
        radicand = _polynomial([1, -big], N)
        return ps_div(_polynomial([1], N), ps_sqrt(radicand))
    if lid == "D":
        radicand = _polynomial([1, -big], N + 1)
        numerator = ps_sub(_polynomial([1], N + 1), ps_sqrt(radicand))
        return _shift_down(numerator, big // 2)
    if r == 0:
        if lid == "C":
            return ps_div(_polynomial([1, 1], N), _polynomial([1, -1], N))
        if lid == "F":
            return ps_div(_polynomial([1], N), _polynomial([1, -1], N))
        return _polynomial([1], N)  # B and E: only the empty walk
    q = 2 ** r
    m = 2 * q - 1  # 2^(r+1) - 1
    one_minus_x = [1, -1]
    one_minus_m2x = [1, -m * m]
    if lid == "B":
        return ps_sqrt(ps_div(_polynomial(one_minus_x, N), _polynomial(one_minus_m2x, N)))
    if lid == "C":
        sa = ps_sqrt(_polynomial(one_minus_x, N))
        sb = ps_sqrt(_polynomial(one_minus_m2x, N))
        return ps_div(ps_sub(ps_scale(sa, q), sb), ps_scale(sb, q - 1))
    # E and F
    product = ps_mul(_polynomial(one_minus_m2x, N + 1), _polynomial(one_minus_x, N + 1))
    root = ps_sqrt(product)
    if lid == "E":
        numerator = ps_sub(_polynomial([1, -1], N + 1), root)
        scale = 2 ** (r + 1) * (q - 1)
    else:
        numerator = ps_sub(_polynomial([1, -m], N + 1), root)
        scale = 2 * (q - 1) ** 2
    return _shift_down(numerator, scale)


@dataclass(frozen=True)
class AsymptoticForm:
    """Singularity data (rho, alpha, C) with C stored as scale * sqrt(radicand).

    The estimate at n is C * rho^(-n) * n^(alpha-1) / Gamma(alpha); only
    alpha = 1/2 and alpha = -1/2 occur, so Gamma(alpha) is sqrt(pi) or
    -2 sqrt(pi).
    """

    rho: Fraction
    alpha: Fraction
    scale: Fraction
    radicand: Fraction

    def __post_init__(self):
        if self.alpha not in (Fraction(1, 2), Fraction(-1, 2)):
            raise ValueError(f"unsupported exponent alpha={self.alpha}")
        if (self.scale < 0) != (self.gamma_alpha < 0):
            raise ConsistencyError("the estimate of a positive sequence must be positive")

    @property
    def gamma_alpha(self) -> float:
        return math.sqrt(math.pi) if self.alpha == Fraction(1, 2) else -2.0 * math.sqrt(math.pi)

    @property
    def constant(self) -> float:
        return float(self.scale) * math.sqrt(float(self.radicand))

    def log_value(self, n: int) -> float:
        """Natural log of the (positive) estimate at n, overflow-free."""
        if n < 1:
            raise ValueError("asymptotic evaluation needs n >= 1")
        return (
            math.log(abs(self.scale))
            + 0.5 * math.log(self.radicand)
            + n * (math.log(self.rho.denominator) - math.log(self.rho.numerator))
            + (float(self.alpha) - 1.0) * math.log(n)
            - math.log(abs(self.gamma_alpha))
        )

    def value(self, n: int) -> float:
        """The estimate itself; overflows float range for large n (use log_value)."""
        return math.exp(self.log_value(n))


def asymptotic_form(spec: LanguageSpec) -> AsymptoticForm:
    """Dominant singularity, exponent, and constant for one family."""
    r = spec.r
    lid = spec.id
    if lid == "A":
        return AsymptoticForm(Fraction(1, 4 ** (r + 1)), Fraction(1, 2), Fraction(1), Fraction(1))
    if lid == "D":
        return AsymptoticForm(Fraction(1, 4 ** (r + 1)), Fraction(-1, 2), Fraction(-2), Fraction(1))
    if r < 1:
        raise ValueError(f"no asymptotic form for {spec}: the r=0 families are eventually constant")
    q = 2 ** r
    m = 2 * q - 1
    rho = Fraction(1, m * m)
    radicand = Fraction(m * m - 1)
    if lid == "B":
        return AsymptoticForm(rho, Fraction(1, 2), Fraction(1, m), radicand)
    if lid == "C":
        return AsymptoticForm(rho, Fraction(1, 2), Fraction(q, (q - 1) * m), radicand)
    if lid == "E":
        return AsymptoticForm(rho, Fraction(-1, 2), Fraction(-m, 2 ** (r + 1) * (q - 1)), radicand)
    return AsymptoticForm(rho, Fraction(-1, 2), Fraction(-m, 2 * (q - 1) ** 2), radicand)


def asymptotic_ratio(spec: LanguageSpec, n: int, count: Optional[int] = None) -> float:
    """Exact count divided by the asymptotic estimate at n, in log space.

    Pass `count` to reuse a precomputed table; otherwise the recurrence is run
    up to n.
    """
    if n < 1:
        raise ValueError("asymptotic ratio needs n >= 1")
    if count is None:
        count = recurrence_seq(spec, n).values[n]
    if count <= 0:
        raise ValueError(f"count for {spec} at n={n} is not positive")
    form = asymptotic_form(spec)
    return math.exp(math.log(count) - form.log_value(n))
