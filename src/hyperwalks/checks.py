"""Cross-check harness: every counting road must lead to the same numbers.

Each suite compares independent computation paths cell by cell and reports
disagreements as data rather than exceptions, so one corrupted constant cannot
hide behind a crash.  Reports are deterministic: same inputs, same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .core import ConsistencyError, LanguageSpec, StepVector, step_alphabet
from . import formulas, oracle, series
from .formulas import cross_ratio_check
from .oracle import DEFAULT_BUDGET, count_dp, count_dp_first_step
from .series import asymptotic_ratio
from .bijection import count_E_double_prime, verify_bijection

SUITE_NAMES = ("methods", "ratios", "symmetry", "bijection", "asymptotics")

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
    return [oracle.count_dp(spec, n) for n in ns]


def _series(spec, ns, budget):
    coefficients = series.gf_series(spec, ns[-1])
    for n in ns:
        if coefficients[n].denominator != 1 or coefficients[n] < 0:
            raise ConsistencyError(f"series coefficient {n} of {spec} is {coefficients[n]}")
    return [coefficients[n].numerator for n in ns]


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
        _naive, lambda spec, n, budget: n >= 1 and (1 << (spec.r + 1)) ** (2 * n) <= budget
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
    cells: tuple[CheckCell, ...]

    @property
    def disagreements(self) -> tuple[CheckCell, ...]:
        return tuple(c for c in self.cells if not c.agree)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def summary(self) -> dict:
        return {"cells": len(self.cells), "disagreements": len(self.disagreements)}

    def to_json(self) -> str:
        payload = {
            "cells": [
                {
                    "suite": c.suite,
                    "language": c.language,
                    "r": c.r,
                    "n": c.n,
                    "detail": c.detail,
                    "agree": c.agree,
                    "values": list(c.values),
                }
                for c in sorted(self.cells, key=CheckCell.sort_key)
            ],
            "summary": self.summary(),
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def render(self) -> str:
        lines = []
        by_suite: dict[str, list[CheckCell]] = {}
        for cell in self.cells:
            by_suite.setdefault(cell.suite, []).append(cell)
        for suite in sorted(by_suite):
            cells = by_suite[suite]
            bad = [c for c in cells if not c.agree]
            lines.append(f"[{suite}] {len(cells)} cells, {len(bad)} disagreements")
            for cell in sorted(bad, key=CheckCell.sort_key):
                values = f" values={list(cell.values)}" if cell.values else ""
                lines.append(
                    f"  FAIL {cell.language} r={cell.r} n={cell.n} {cell.detail}{values}"
                )
        summary = self.summary()
        verdict = "OK" if self.ok else "FAIL"
        lines.append(
            f"{verdict}: {summary['cells']} cells checked, {summary['disagreements']} disagreements"
        )
        return "\n".join(lines)


def _cell(suite, language, r, n, detail, agree, values=()):
    return CheckCell(suite, language, r, n, detail, bool(agree), tuple(str(v) for v in values))


def _error_cell(suite, language, r, n, detail, exc):
    return _cell(suite, language, r, n, f"{detail} error: {exc}", False)


def run_methods_suite(
    r_values: Sequence[int], n_max: int, budget: int = DEFAULT_BUDGET
) -> list[CheckCell]:
    """The closed form against every other route, on each route's checked n-range."""
    _census.cache_clear()  # every check counts afresh
    cells: list[CheckCell] = []
    for r in r_values:
        for lid in "ABCDEF":
            spec = LanguageSpec(lid, r)
            try:
                reference = ROUTES["closed"].values(spec, range(n_max + 1), budget)
            except Exception as exc:  # keep checking other families
                cells.append(_error_cell("methods", lid, r, 0, "closed", exc))
                continue
            for name, route in ROUTES.items():
                ns = [n for n in range(n_max + 1) if route.checked(spec, n, budget)]
                if name == "closed" or not ns:
                    continue
                try:
                    values = route.values(spec, ns, budget)
                except Exception as exc:  # keep checking other routes
                    cells.append(_error_cell("methods", lid, r, 0, name, exc))
                    continue
                for n, value in zip(ns, values):
                    agree = value == reference[n]
                    shown = () if agree else (reference[n], value)
                    cells.append(_cell("methods", lid, r, n, f"closed-vs-{name}", agree, shown))
    return cells


def run_ratios_suite(r_values: Sequence[int], n_max: int) -> list[CheckCell]:
    """The exact 2^r b_n = (2^r-1) c_n and 2^r e_n = (2^r-1) f_n identities."""
    cells: list[CheckCell] = []
    for r in r_values:
        if r < 1:
            continue
        try:
            violations = cross_ratio_check(r, n_max)
        except Exception as exc:
            cells.append(_error_cell("ratios", "B", r, 0, "ratio-check", exc))
            continue
        cells.append(
            _cell("ratios", "B", r, n_max, "b-vs-c-and-e-vs-f", not violations, violations)
        )
    return cells


def _allowed_first_steps(spec: LanguageSpec) -> list[StepVector]:
    steps = step_alphabet(spec.r)
    if spec.halfspace:
        return [s for s in steps if s.tracked == 1]
    return list(steps)


def run_symmetry_suite(r_values: Sequence[int], n_max: int) -> list[CheckCell]:
    """First-step counts must be equal across allowed first steps and sum to the total."""
    cells: list[CheckCell] = []
    cap = min(n_max, 10)
    for r in r_values:
        for lid in "BCEF":
            spec = LanguageSpec(lid, r)
            for n in range(1, cap + 1):
                try:
                    total = count_dp(spec, n)
                    allowed = _allowed_first_steps(spec)
                    counts = [count_dp_first_step(spec, n, s) for s in allowed]
                    equal = len(set(counts)) == 1
                    sums = sum(counts) == total
                    blocked_ok = True
                    if spec.halfspace:
                        blocked = [
                            count_dp_first_step(spec, n, s)
                            for s in step_alphabet(r)
                            if s.tracked == -1
                        ]
                        blocked_ok = all(v == 0 for v in blocked)
                    agree = equal and sums and blocked_ok
                    cells.append(
                        _cell(
                            "symmetry", lid, r, n, "first-step-split",
                            agree, () if agree else (total, *counts),
                        )
                    )
                except Exception as exc:
                    cells.append(_error_cell("symmetry", lid, r, n, "first-step-split", exc))
    return cells


def run_bijection_suite(n_max: int) -> list[CheckCell]:
    """Exhaustive bijection verification plus the halved-count identity."""
    cells: list[CheckCell] = []
    for n in range(1, min(n_max, 6) + 1):
        try:
            failures = verify_bijection(n)
            cells.append(_cell("bijection", "E", 1, n, "round-trip", not failures, failures[:4]))
        except Exception as exc:
            cells.append(_error_cell("bijection", "E", 1, n, "round-trip", exc))
    try:
        table = formulas.recurrence_seq(LanguageSpec("E", 1), min(n_max, 10))
        for n in range(1, min(n_max, 10) + 1):
            paths = count_E_double_prime(n)
            agree = 2 * paths == table[n]
            cells.append(
                _cell(
                    "bijection", "E", 1, n, "paths-equal-half-count",
                    agree, () if agree else (table[n], paths),
                )
            )
    except Exception as exc:
        cells.append(_error_cell("bijection", "E", 1, 0, "paths-equal-half-count", exc))
    return cells


def run_asymptotics_suite(r_values: Sequence[int]) -> list[CheckCell]:
    """Deviation |count/estimate - 1| must shrink along ASYMPTOTIC_SCHEDULE and end small."""
    cells: list[CheckCell] = []
    for r in r_values:
        if r not in (1, 2):
            continue
        for lid in "BCEF":
            spec = LanguageSpec(lid, r)
            try:
                table = formulas.recurrence_seq(spec, ASYMPTOTIC_SCHEDULE[-1])
                deviations = [
                    abs(asymptotic_ratio(spec, n, count=table[n]) - 1.0) for n in ASYMPTOTIC_SCHEDULE
                ]
                shrinking = all(b < a for a, b in zip(deviations, deviations[1:]))
                small = deviations[-1] <= ASYMPTOTIC_TOLERANCE
                agree = shrinking and small
                cells.append(
                    _cell(
                        "asymptotics", lid, r, ASYMPTOTIC_SCHEDULE[-1], "deviation-shrinks",
                        agree, () if agree else tuple(f"{d:.3e}" for d in deviations),
                    )
                )
            except Exception as exc:
                cells.append(_error_cell("asymptotics", lid, r, 0, "deviation-shrinks", exc))
    return cells


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
    unknown = [s for s in suites if s not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; choose from {SUITE_NAMES}")
    cells: list[CheckCell] = []
    if "methods" in suites:
        cells.extend(run_methods_suite(r_values, n_max, budget))
    if "ratios" in suites:
        cells.extend(run_ratios_suite(r_values, n_max))
    if "symmetry" in suites:
        cells.extend(run_symmetry_suite(r_values, n_max))
    if "bijection" in suites:
        cells.extend(run_bijection_suite(n_max))
    if "asymptotics" in suites:
        cells.extend(run_asymptotics_suite(r_values))
    if not cells:
        raise ValueError(
            f"suites {','.join(suites)} have no cell to compare at r {r_values}, n_max {n_max}"
        )
    return CheckReport(tuple(sorted(cells, key=CheckCell.sort_key)))
