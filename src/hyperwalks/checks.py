"""Cross-check harness: every counting road must lead to the same numbers.

Each suite compares independent computation paths cell by cell and reports
disagreements as data rather than exceptions, so one corrupted constant cannot
hide behind a crash.  Every suite is one entry of `SUITES`, and every route
function is looked up through its module at call time, so a replaced module
attribute is seen by every suite.  Reports are deterministic: same inputs,
same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from typing import Callable, Iterable, Iterator, Sequence

from . import bijection, formulas, oracle, series
from .core import ConsistencyError, LanguageSpec, step_alphabet
from .oracle import DEFAULT_BUDGET

ASYMPTOTIC_SCHEDULE = (500, 1000, 2000, 4000)
ASYMPTOTIC_TOLERANCE = 0.01


@dataclass(frozen=True)
class Route:
    """One counting route.

    `values(spec, ns, budget)` gives the counts at the nonempty ascending n
    list `ns`; `checked(spec, n, budget)` says whether the methods suite
    compares the route with the closed form at n.  Routes look their functions
    up through the module at call time, so a replaced module attribute sees
    every call.
    """

    values: Callable[[LanguageSpec, Sequence[int], int], list[int]]
    checked: Callable[[LanguageSpec, int, int], bool] = lambda spec, n, budget: True


def _closed(spec, ns, budget):
    return [formulas.closed_form(spec, n) for n in ns]


def _hyper(spec, ns, budget):
    return [formulas.hyper_form(spec, n) for n in ns]


def _recurrence(spec, ns, budget):
    table = formulas.recurrence_seq(spec, ns[-1])
    return [table[n] for n in ns]


def _dp(spec, ns, budget):
    table = oracle.count_dp_seq(spec, ns[-1])
    return [table[n] for n in ns]


def _series(spec, ns, budget):
    coefficients = series.gf_series(spec, ns[-1])
    for n in ns:
        if coefficients[n] < 0:
            raise ConsistencyError(f"series coefficient {n} of {spec} is {coefficients[n]}")
    return [coefficients[n] for n in ns]


@lru_cache(maxsize=64)
def _census(census, r, n, budget):
    """One census per (r, n) serves all six languages.  The census function is
    part of the key, so a replaced one is called afresh."""
    return census(r, n, budget)


def _naive(spec, ns, budget):
    return [_census(oracle.naive_census, spec.r, n, budget)[spec.id] for n in ns]


#: Every counting route by name, in the order `count --method` lists them.  The
#: methods suite caps the slower routes' n so a check stays quick; the census
#: runs wherever it fits the budget.
ROUTES: dict[str, Route] = {
    "closed": Route(_closed),
    "hyper": Route(
        _hyper, lambda spec, n, budget: spec.id in "BCEF" and spec.r >= 1 and 1 <= n <= 50
    ),
    "recurrence": Route(_recurrence),
    "dp": Route(_dp, lambda spec, n, budget: n <= 16),
    "series": Route(_series),
    "naive": Route(
        _naive, lambda spec, n, budget: n >= 1 and oracle.census_fits(spec.r, n, budget)
    ),
}


@dataclass(frozen=True)
class CheckCell:
    """One comparison: a (language, r, n) cell under one suite and detail."""

    suite: str
    language: str
    r: int
    n: int
    detail: str
    agree: bool
    values: tuple[str, ...] = ()

    def sort_key(self):
        return (self.language, self.r, self.n, self.suite, self.detail)


@dataclass(frozen=True)
class CheckReport:
    """The cells of one check, in `CheckCell.sort_key` order."""

    cells: tuple[CheckCell, ...]

    @property
    def ok(self) -> bool:
        return all(c.agree for c in self.cells)

    def to_json(self) -> str:
        summary = {"cells": len(self.cells), "disagreements": sum(not c.agree for c in self.cells)}
        return json.dumps(
            {"cells": [vars(c) for c in self.cells], "summary": summary}, sort_keys=True, indent=2
        )

    def render(self) -> str:
        lines = []
        by_suite: dict[str, list[CheckCell]] = {}
        for cell in self.cells:
            by_suite.setdefault(cell.suite, []).append(cell)
        for suite in sorted(by_suite):
            cells = by_suite[suite]
            bad = [c for c in cells if not c.agree]
            lines.append(f"[{suite}] {len(cells)} cells, {len(bad)} disagreements")
            for cell in bad:
                values = f" values={list(cell.values)}" if cell.values else ""
                lines.append(
                    f"  FAIL {cell.language} r={cell.r} n={cell.n} {cell.detail}{values}"
                )
        failed = sum(not c.agree for c in self.cells)
        verdict = "FAIL" if failed else "OK"
        lines.append(f"{verdict}: {len(self.cells)} cells checked, {failed} disagreements")
        return "\n".join(lines)


#: One comparison before it becomes a cell: (language, r, n, detail, agree,
#: values), where the values are shown only if the comparison fails.
Row = tuple[str, int, int, str, bool, Sequence]


def _guarded(language: str, r: int, n: int, detail: str, rows: Iterable[Row]) -> Iterator[Row]:
    """The rows of one unit of work.

    `rows` must be a generator, so that the unit's work runs inside the guard.
    An exception ends the unit, after the rows it already gave, with one failed
    row (language, r, n, "<detail> error: <exc>"), and the suite goes on with
    its next unit, so one broken route cannot hide the others.
    """
    try:
        yield from rows
    except Exception as exc:  # the failure is data: a failed cell
        yield language, r, n, f"{detail} error: {exc}", False, ()


def _methods_suite(r_values, n_max, budget):
    """The closed form against every other route, on each route's checked n-range."""
    _census.cache_clear()  # every check counts afresh
    for r in r_values:
        for lid in "ABCDEF":
            spec = LanguageSpec(lid, r)
            yield from _guarded(lid, r, 0, "closed", _against_closed(spec, n_max, budget))


def _against_closed(spec, n_max, budget):
    """Every other route against the closed form, one guarded unit per route."""
    reference = ROUTES["closed"].values(spec, range(n_max + 1), budget)
    for name, route in ROUTES.items():
        ns = [n for n in range(n_max + 1) if route.checked(spec, n, budget)]
        if name != "closed" and ns:
            rows = _compare(spec, name, ns, reference, budget)
            yield from _guarded(spec.id, spec.r, 0, name, rows)


def _compare(spec, name, ns, reference, budget):
    for n, value in zip(ns, ROUTES[name].values(spec, ns, budget)):
        yield spec.id, spec.r, n, f"closed-vs-{name}", value == reference[n], (reference[n], value)


def _ratios_suite(r_values, n_max, budget):
    """The exact 2^r b_n = (2^r-1) c_n and 2^r e_n = (2^r-1) f_n identities."""
    for r in r_values:
        if r >= 1:
            yield from _guarded("B", r, 0, "ratio-check", _ratio_identities(r, n_max))


def _ratio_identities(r, n_max):
    violations = formulas.cross_ratio_check(r, n_max)
    yield "B", r, n_max, "b-vs-c-and-e-vs-f", not violations, violations


def _symmetry_suite(r_values, n_max, budget):
    """First-step counts must be equal across allowed first steps and sum to the
    total; a half-space walk never starts downward.

    Per (language, r), one DP table without a first step and one per first
    step serve every n; each is built in the first unit that reads it, so a
    failing table fails each unit that needs it."""
    n_top = min(n_max, 10)
    for r in r_values:
        for lid in "BCEF":
            spec = LanguageSpec(lid, r)
            tables = cache(partial(oracle.count_dp_seq, spec, n_top))
            for n in range(1, n_top + 1):
                rows = _first_step_split(spec, n, tables)
                yield from _guarded(lid, r, n, "first-step-split", rows)


def _first_step_split(spec, n, tables):
    total = tables(None)[n]
    allowed, blocked = [], []
    for step in step_alphabet(spec.r):
        counts = blocked if spec.halfspace and step >> spec.r & 1 else allowed
        counts.append(tables(step)[n])
    agree = len(set(allowed)) == 1 and sum(allowed) == total and not any(blocked)
    yield spec.id, spec.r, n, "first-step-split", agree, (total, *allowed)


def _bijection_suite(r_values, n_max, budget):
    """Exhaustive bijection verification plus the halved-count identity, at r = 1
    (so only when the r range holds 1)."""
    if 1 not in r_values:
        return
    for n in range(1, min(n_max, 6) + 1):
        yield from _guarded("E", 1, n, "round-trip", _round_trip(n))
    yield from _guarded("E", 1, 0, "paths-equal-half-count", _half_counts(min(n_max, 10)))


def _round_trip(n):
    failures = bijection.verify_bijection(n)
    yield "E", 1, n, "round-trip", not failures, failures[:4]


def _half_counts(n_max):
    table = formulas.recurrence_seq(LanguageSpec("E", 1), n_max)
    for n in range(1, n_max + 1):
        paths = bijection.count_E_double_prime(n)
        yield "E", 1, n, "paths-equal-half-count", 2 * paths == table[n], (table[n], paths)


def _asymptotics_suite(r_values, n_max, budget):
    """Deviation |count/estimate - 1| must shrink along ASYMPTOTIC_SCHEDULE and end small."""
    for r in r_values:
        if r in (1, 2):
            for lid in "BCEF":
                rows = _deviations(LanguageSpec(lid, r))
                yield from _guarded(lid, r, 0, "deviation-shrinks", rows)


def _deviations(spec):
    table = formulas.recurrence_seq(spec, ASYMPTOTIC_SCHEDULE[-1])
    deviations = [
        abs(series.asymptotic_ratio(spec, n, count=table[n]) - 1.0) for n in ASYMPTOTIC_SCHEDULE
    ]
    shrinking = all(b < a for a, b in zip(deviations, deviations[1:]))
    agree = shrinking and deviations[-1] <= ASYMPTOTIC_TOLERANCE
    yield (spec.id, spec.r, ASYMPTOTIC_SCHEDULE[-1], "deviation-shrinks", agree,
           [f"{d:.3e}" for d in deviations])


#: Every check suite by name, in the order `check --suites` lists them.  Each
#: takes (r_values, n_max, budget) and gives its rows.
SUITES: dict[str, Callable[[Sequence[int], int, int], Iterable[Row]]] = {
    "methods": _methods_suite,
    "ratios": _ratios_suite,
    "symmetry": _symmetry_suite,
    "bijection": _bijection_suite,
    "asymptotics": _asymptotics_suite,
}
SUITE_NAMES = tuple(SUITES)


def run_check(
    r_values: Iterable[int],
    n_max: int,
    suites: Sequence[str],
    budget: int = DEFAULT_BUDGET,
) -> CheckReport:
    r_values = sorted(set(r_values))
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    if not suites:
        raise ValueError(f"no suites given; choose from {SUITE_NAMES}")
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; choose from {SUITE_NAMES}")
    cells = [
        CheckCell(name, language, r, n, detail, bool(agree),
                  () if agree else tuple(str(v) for v in values))
        for name, suite in SUITES.items()
        if name in suites
        for language, r, n, detail, agree, values in suite(r_values, n_max, budget)
    ]
    if not cells:
        raise ValueError(
            f"suites {','.join(suites)} have no cell to compare at r {r_values}, n_max {n_max}"
        )
    return CheckReport(tuple(sorted(cells, key=CheckCell.sort_key)))
