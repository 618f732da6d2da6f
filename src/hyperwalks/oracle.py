"""Independent counting oracles.

Two ground-truth counters that share nothing with the closed forms,
recurrences, or series expansions: exhaustive generate-and-filter enumeration,
and a dynamic program over (tracked height, previous step).  A vectorized
census scans every candidate word arithmetically for grids where materializing
word objects is too slow, and a multi-coordinate DP covers walks that must end
on (and optionally stay above) several hyperplanes at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    BudgetExceeded,
    DimensionMismatch,
    LanguageSpec,
    PatternKind,
    StepVector,
    Word,
    step_alphabet,
)
from .automata import recognize

#: Default cap on the number of candidate words an exhaustive scan may touch.
DEFAULT_BUDGET = 1 << 22


@dataclass(frozen=True)
class DpState:
    """DP node: current tracked height and the step that led here (None at start)."""

    height: int
    previous: Optional[StepVector]


@dataclass(frozen=True)
class CountTable:
    """Counts of a family's walks indexed by semilength 0..N.

    For hyperplane-intersection counts (j > 0) the spec field holds the
    underlying A/D family and j records how many extra coordinates are pinned.
    """

    spec: LanguageSpec
    values: tuple[int, ...]
    j: int = 0

    def __post_init__(self):
        if not self.values or self.values[0] != 1:
            raise ValueError("a count table must start with the empty walk (value 1 at n=0)")
        if any(v < 0 for v in self.values):
            raise ValueError("counts cannot be negative")

    @property
    def n_max(self) -> int:
        return len(self.values) - 1


def enumerate_words(spec: LanguageSpec, n: int, budget: int = DEFAULT_BUDGET) -> list[Word]:
    """All members of length 2n, by filtering every candidate word.

    Candidates are generated in lexicographic order of their text encoding, so
    the output order is deterministic.  Refuses grids larger than the budget.
    """
    alphabet = step_alphabet(spec.r)
    candidates = len(alphabet) ** (2 * n)
    if candidates > budget:
        raise BudgetExceeded(
            f"naive enumeration needs {candidates} candidate words, budget is {budget}"
        )
    result = []
    for steps in itertools.product(alphabet, repeat=2 * n):
        w = Word(steps)
        if recognize(spec, w):
            result.append(w)
    return result


#: Most candidates the census holds in memory at once.
CENSUS_CHUNK = 1 << 20


def _append_steps(
    prefixes: tuple[np.ndarray, ...], digits: np.ndarray, signs: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Per-candidate arrays of every prefix followed by every step.

    `prefixes` holds, per prefix, its tracked height, the lowest height seen
    (0 included), whether it contains a backtrack and whether it contains a
    repeat, and its last step mask.  Of m prefixes, prefix i followed by step
    d lands at index d * m + i, so each candidate keeps its own entries.
    """
    height, lowest, backtracks, repeats, last = prefixes
    full = len(digits) - 1
    steps = digits[:, None]
    new_height = signs[:, None] + height
    return (
        new_height.ravel(),
        np.minimum(lowest, new_height).ravel(),
        (backtracks | (steps == last ^ full)).ravel(),
        (repeats | (steps == last)).ravel(),
        np.repeat(digits, len(height)),
    )


def naive_census(r: int, n: int, budget: int = DEFAULT_BUDGET) -> dict[str, int]:
    """Count members of all six languages by scanning every candidate word.

    Each candidate of length 2n over the 2^(r+1)-letter alphabet is a sequence
    of step masks (bit i set means coordinate i+1 is -1).  Membership is
    evaluated arithmetically per word: tracked prefix sums for the hyperplane
    and half-space conditions, adjacent mask comparisons for the patterns.
    The leading steps of every candidate are laid out once; the candidates
    sharing a few leading prefixes are then built by appending the remaining
    steps one at a time, at most CENSUS_CHUNK candidates at once.  This
    touches all candidates, exactly like enumerate_words, without building
    word objects, and holds O(CENSUS_CHUNK) of them in memory.
    """
    if n == 0:
        return {lid: 1 for lid in "ABCDEF"}
    size = 1 << (r + 1)
    length = 2 * n
    total = size ** length
    if total > budget:
        raise BudgetExceeded(
            f"naive census needs {total} candidate words, budget is {budget}"
        )
    digits = np.arange(size, dtype=np.min_scalar_type(size - 1))
    signs = np.where(digits >> r & 1, -1, 1).astype(np.int16)
    tail = 0
    while tail < length - 1 and size ** (tail + 1) <= CENSUS_CHUNK:
        tail += 1
    # The one-step prefixes: a first step has no predecessor to clash with.
    no_clash = np.zeros(size, dtype=bool)
    heads = (signs, np.minimum(signs, 0), no_clash, no_clash, digits)
    for _ in range(length - tail - 1):
        heads = _append_steps(heads, digits, signs)
    group = max(1, CENSUS_CHUNK // size ** tail)
    counts = dict.fromkeys("ABCDEF", 0)
    for start in range(0, len(heads[0]), group):
        words = tuple(a[start:start + group] for a in heads)
        for _ in range(tail):
            words = _append_steps(words, digits, signs)
        height, lowest, backtracks, repeats, _ = words
        ends_zero = height == 0
        stays_up = ends_zero & (lowest >= 0)
        no_bt = ~backtracks
        no_rep = ~repeats
        counts["A"] += int(np.count_nonzero(ends_zero))
        counts["B"] += int(np.count_nonzero(ends_zero & no_bt))
        counts["C"] += int(np.count_nonzero(ends_zero & no_rep))
        counts["D"] += int(np.count_nonzero(stays_up))
        counts["E"] += int(np.count_nonzero(stays_up & no_bt))
        counts["F"] += int(np.count_nonzero(stays_up & no_rep))
    return counts


def _forbidden_partner(pattern: Optional[PatternKind], mask: int, full: int) -> Optional[int]:
    """Mask of the previous step that would forbid taking `mask` next."""
    if pattern is PatternKind.BACKTRACK:
        return mask ^ full
    if pattern is PatternKind.REPEAT:
        return mask
    return None


def _dp_layers(spec: LanguageSpec, n: int, first: Optional[StepVector]) -> int:
    """Shared DP engine over (height, previous-step) states.

    Layers map height -> per-previous-step count vector.  Each transition into
    step mask s is legal from every previous step except its forbidden partner,
    so a row total minus one entry gives the inflow in O(1) big-int operations
    per (height, step) pair.  Exact arbitrary-precision integers throughout.
    """
    r = spec.r
    size = 1 << (r + 1)
    full = size - 1
    halfspace = spec.halfspace
    pattern = spec.pattern

    sign = [(-1 if mask >> r & 1 else 1) for mask in range(size)]

    layers: dict[int, list[int]] = {}
    if first is None:
        for mask in range(size):
            h = sign[mask]
            if halfspace and h < 0:
                continue
            layers.setdefault(h, [0] * size)[mask] = 1
    else:
        if first.dimension != r + 1:
            raise DimensionMismatch(
                f"first step has dimension {first.dimension}, language {spec} expects {r + 1}"
            )
        h = first.tracked
        if halfspace and h < 0:
            return 0
        layers.setdefault(h, [0] * size)[first.mask] = 1

    for done in range(1, 2 * n):
        remaining = 2 * n - done
        new_layers: dict[int, list[int]] = {}
        for h, counts in layers.items():
            row_total = sum(counts)
            if row_total == 0:
                continue
            for mask in range(size):
                h2 = h + sign[mask]
                if halfspace and h2 < 0:
                    continue
                if abs(h2) > remaining - 1:
                    continue  # cannot return to height 0 in time
                partner = _forbidden_partner(pattern, mask, full)
                inflow = row_total if partner is None else row_total - counts[partner]
                if inflow:
                    row = new_layers.get(h2)
                    if row is None:
                        row = new_layers[h2] = [0] * size
                    row[mask] += inflow
        layers = new_layers
    return sum(layers.get(0, ()))


def count_dp(spec: LanguageSpec, n: int) -> int:
    """Number of length-2n members, by DP over (height, previous step)."""
    if n == 0:
        return 1
    return _dp_layers(spec, n, None)


def count_dp_first_step(spec: LanguageSpec, n: int, first: StepVector) -> int:
    """Number of length-2n members whose first step is `first`."""
    if n < 1:
        raise ValueError("first-step counts need n >= 1")
    return _dp_layers(spec, n, first)


def count_dp_reference(spec: LanguageSpec, n: int) -> int:
    """Straightforward DpState-keyed DP, kept as a check on the fast engine."""
    if n == 0:
        return 1
    alphabet = step_alphabet(spec.r)
    pattern = spec.pattern
    states: dict[DpState, int] = {DpState(0, None): 1}
    for _ in range(2 * n):
        new_states: dict[DpState, int] = {}
        for state, count in states.items():
            for step in alphabet:
                if state.previous is not None and pattern is not None:
                    if pattern is PatternKind.BACKTRACK and step == state.previous.negate():
                        continue
                    if pattern is PatternKind.REPEAT and step == state.previous:
                        continue
                h = state.height + step.tracked
                if spec.halfspace and h < 0:
                    continue
                key = DpState(h, step)
                new_states[key] = new_states.get(key, 0) + count
        states = new_states
    return sum(c for s, c in states.items() if s.height == 0)


#: Default cap on (states x transitions x steps) work for the multi-height DP.
DEFAULT_MULTI_BUDGET = 1 << 26


def count_dp_multi(
    r: int, j: int, n: int, halfspace: bool, budget: int = DEFAULT_MULTI_BUDGET
) -> int:
    """Walks of length 2n ending with the last j+1 coordinates all zero.

    With halfspace=True those coordinates must additionally stay nonnegative
    throughout.  Counted by DP over the vector of j+1 tracked heights; the
    r-j untracked coordinates contribute a free factor 2^(r-j) per step.
    """
    if not 0 <= j <= r:
        raise ValueError(f"need 0 <= j <= r, got j={j}, r={r}")
    if n == 0:
        return 1
    work = (2 * n + 1) ** (j + 1) * 2 ** (j + 1) * 2 * n
    if work > budget:
        raise BudgetExceeded(
            f"multi-height DP needs roughly {work} state transitions, budget is {budget}"
        )
    combos = list(itertools.product((1, -1), repeat=j + 1))
    states: dict[tuple[int, ...], int] = {(0,) * (j + 1): 1}
    for done in range(1, 2 * n + 1):
        remaining = 2 * n - done
        new_states: dict[tuple[int, ...], int] = {}
        for heights, count in states.items():
            for combo in combos:
                new_heights = tuple(h + d for h, d in zip(heights, combo))
                if halfspace and any(h < 0 for h in new_heights):
                    continue
                if any(abs(h) > remaining for h in new_heights):
                    continue
                new_states[new_heights] = new_states.get(new_heights, 0) + count
        states = new_states
    tracked_walks = states.get((0,) * (j + 1), 0)
    return tracked_walks * 2 ** (2 * n * (r - j))
