"""Independent counting oracles.

Ground-truth counters that share nothing with the closed forms, recurrences,
or series expansions: exhaustive generate-and-filter enumeration, a census
that counts every candidate word as a keyed join of its two halves, and one
dynamic program over (tracked heights, previous step).  The DP serves the
single-hyperplane counts, the counts restricted to a first step, and the
walks that must end on (and optionally stay above) several hyperplanes at
once; one pass to length 2N gives the counts at every n <= N.
"""

from __future__ import annotations

import itertools
from operator import mul
from typing import Optional

import numpy as np

from .core import (
    BudgetExceeded,
    DimensionMismatch,
    LanguageSpec,
    PatternKind,
    Word,
    step_alphabet,
)
from .automata import recognize

#: Default cap on the number of candidate words an exhaustive scan may touch.
DEFAULT_BUDGET = 1 << 22

#: Most words the census lays out in either half, whatever the budget: 2^20
#: take about 0.08 s and 47 MB (0.4 s and 140 MB at n = 1, where the keys of
#: 3 heights x 2^20 steps outnumber the words).
CENSUS_HALF_CAP = 1 << 20


def census_fits(r: int, n: int, budget: int) -> bool:
    """Whether the (2^(r+1))^(2n) candidate words of length 2n fit the budget
    and each of their halves of (2^(r+1))^n words fits CENSUS_HALF_CAP.

    Each number is 2^e, with e = (r+1) 2n or (r+1) n, and exceeds a cap
    exactly when e reaches the cap's bit length, so the decision builds no
    large number.
    """
    half = (r + 1) * n
    return 2 * half < max(budget, 0).bit_length() and half < CENSUS_HALF_CAP.bit_length()


def _refuse_over_budget(what: str, r: int, n: int, budget: int) -> None:
    """Raise BudgetExceeded unless the candidate words fit the budget, as in
    `census_fits`; the message builds no number of more than 20 digits."""
    exponent = (r + 1) * 2 * n
    if exponent < max(budget, 0).bit_length():
        return
    count = f"{1 << (r + 1)}^{2 * n}"
    if exponent < 67:  # 2^66 has 20 digits
        count += f" = {1 << exponent}"
    raise BudgetExceeded(f"{what} needs {count} candidate words, budget is {budget}")


def enumerate_words(spec: LanguageSpec, n: int, budget: int = DEFAULT_BUDGET) -> list[Word]:
    """All members of length 2n, by filtering every candidate word.

    Candidates are generated in lexicographic order of their text encoding, so
    the output order is deterministic.  Refuses grids larger than the budget.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    _refuse_over_budget("naive enumeration", spec.r, n, budget)
    result = []
    for steps in itertools.product(step_alphabet(spec.r), repeat=2 * n):
        w = Word(spec.r, steps)
        if recognize(spec, w):
            result.append(w)
    return result


def _height_dtype(length: int) -> np.dtype:
    """The narrowest signed integer dtype that holds every height in
    [-length, length]; it holds -(length + 1), so +length too."""
    return np.min_scalar_type(-length - 1)


def _append_steps(
    prefixes: tuple[np.ndarray, ...], digits: np.ndarray, signs: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Per-word arrays of every prefix followed by every step.

    `prefixes` holds, per prefix, its tracked height, the lowest height seen
    (0 included), whether it contains a backtrack and whether it contains a
    repeat, and its last step mask.  Of m prefixes, prefix i followed by step
    d lands at index d * m + i, so each word keeps its own entries.
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


def _prefixes(length: int, digits: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, ...]:
    """`_append_steps`'s arrays for every sequence of `length` >= 1 steps."""
    # A first step has no predecessor to clash with.
    no_clash = np.zeros(len(digits), dtype=bool)
    prefixes = (signs, np.minimum(signs, 0), no_clash, no_clash, digits)
    for _ in range(length - 1):
        prefixes = _append_steps(prefixes, digits, signs)
    return prefixes


def naive_census(r: int, n: int, budget: int = DEFAULT_BUDGET) -> dict[str, int]:
    """Count members of all six languages by joining the two halves of every
    candidate word.

    Each candidate of length 2n over the 2^(r+1)-letter alphabet is a sequence
    of step masks (bit i set means coordinate i+1 is -1): a head of n steps
    followed by a tail of n steps.  The heads and the tails are each laid out
    once by `_prefixes`; a tail is read backwards with its signs negated, so
    its arrays give minus its sum and whether it ever goes below its end.  A
    candidate ends at 0 iff its head's height equals that negated sum, and
    then stays >= 0 iff its head does and its tail never goes below its end;
    it has a backtrack or a repeat iff a half has one or the head's last step
    clashes with the tail's first.

    So each family counts the heads it keeps by (height, last step) into H
    and the tails it keeps by (negated sum, first step) into T.  Its count is
    the sum over heights k of (heads of height k) x (tails of key k), minus,
    for B, C, E and F, the pairs whose steps clash at the join: row k of H
    against row k of T with its columns permuted by the clash.  The products
    per height are Python integers; the clash term is an int64 dot product,
    exact because no pair count passes the 2^40 candidates of two capped
    halves.  Every candidate is counted, as by enumerate_words, from
    2 (2^(r+1))^n half words instead of its square.

    Memory is O((2^(r+1))^n), a few tens of bytes per half word: heights are
    stored in the narrowest signed dtype that holds -(n + 1)..n.  A half holds
    at most CENSUS_HALF_CAP words, whatever the budget.
    """
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return {lid: 1 for lid in "ABCDEF"}
    _refuse_over_budget("naive census", r, n, budget)
    if not census_fits(r, n, budget):
        raise BudgetExceeded(
            f"naive census needs halves of 2^{(r + 1) * n} words, cap is {CENSUS_HALF_CAP}"
        )
    size = 1 << (r + 1)
    digits = np.arange(size, dtype=np.min_scalar_type(size - 1))
    signs = np.where(digits >> r & 1, -1, 1).astype(_height_dtype(n))
    height, lowest, backtracks, repeats, last = _prefixes(n, digits, signs)
    # Read backwards with negated signs, a tail's height is minus its sum, and
    # its lowest height is below 0 iff the tail goes below its end somewhere.
    ends, back_lowest, tail_bt, tail_rep, first = _prefixes(n, digits, -signs)
    # Heights run from -n to n: key each half by (height, step at the join).
    head_key = (height.astype(np.intp) + n) * size + last
    tail_key = (ends.astype(np.intp) + n) * size + first
    keys = (2 * n + 1) * size
    stays, no_fall = lowest >= 0, back_lowest >= 0
    every = np.ones(len(head_key), dtype=bool)
    # family -> (the heads it keeps, the tails it keeps, and the mask that
    # the head's last step XORs with to give the clashing first step)
    families = {
        "A": (every, every, None),
        "B": (~backtracks, ~tail_bt, size - 1),
        "C": (~repeats, ~tail_rep, 0),
        "D": (stays, no_fall, None),
        "E": (stays & ~backtracks, no_fall & ~tail_bt, size - 1),
        "F": (stays & ~repeats, no_fall & ~tail_rep, 0),
    }
    counts = {}
    for lid, (kept_heads, kept_tails, flip) in families.items():
        heads = np.bincount(head_key[kept_heads], minlength=keys).reshape(-1, size)
        tails = np.bincount(tail_key[kept_tails], minlength=keys).reshape(-1, size)
        found = sum(map(mul, heads.sum(axis=1).tolist(), tails.sum(axis=1).tolist()))
        if flip is not None:
            found -= int(np.vdot(heads, tails[:, digits ^ flip]))
        counts[lid] = found
    return counts


def _walk_layers(
    r: int,
    j: int,
    n: int,
    halfspace: bool,
    pattern: Optional[PatternKind] = None,
    first: Optional[int] = None,
) -> tuple[int, ...]:
    """Walks of length 2m whose last j+1 coordinates end at zero, for m = 0..n.

    The one DP engine behind every step-by-step count.  A layer maps the
    heights of the j+1 tracked coordinates to the walks' counts per last step
    mask.  Step mask s moves the heights by the signs of its top j+1 bits.
    The inflow into s is the row total minus the entry of s's forbidden
    partner, s ^ pattern.flip(r).  With no pattern the partner is a trailing
    slot of the row that stays 0.  `first`, if given, is the only allowed
    first step mask.  Exact integers throughout.

    One pass aimed at length 2n prunes only walks too far from 0 to return by
    step 2n, never one that returns at a step 2m <= 2n, so the count at
    heights 0 after every even layer is exact: entry m is the count at length
    2m.  Entry 0 is the empty walk: 1, or 0 when a first step is required.
    """
    zero = (0,) * (j + 1)
    counts_at_zero = [1 if first is None else 0]
    if n == 0:
        return tuple(counts_at_zero)
    size = 1 << (r + 1)
    shift = r - j
    partner = [size] * size  # first, so an alphabet too large to list overflows at once
    if pattern is not None:
        flip = pattern.flip(r)
        partner = [mask ^ flip for mask in range(size)]
    # The masks whose top j+1 bits read c form one contiguous block, and they
    # all move the tracked heights by the same signs.
    moves = [
        (
            tuple(-1 if c >> k & 1 else 1 for k in range(j + 1)),
            [(mask, partner[mask]) for mask in range(c << shift, (c + 1) << shift)],
        )
        for c in range(1 << (j + 1))
    ]

    layers: dict[tuple[int, ...], list[int]] = {}
    for mask in range(size) if first is None else (first,):
        heights = moves[mask >> shift][0]
        if not (halfspace and min(heights) < 0):
            row = layers.get(heights)
            if row is None:
                row = layers[heights] = [0] * (size + 1)
            row[mask] = 1

    for left in range(2 * n - 2, -1, -1):
        new_layers: dict[tuple[int, ...], list[int]] = {}
        for heights, counts in layers.items():
            total = sum(counts)
            if not total:
                continue
            for signs, block in moves:
                key = tuple([h + d for h, d in zip(heights, signs)])
                if (halfspace and min(key) < 0) or max(map(abs, key)) > left:
                    continue  # below the half-space, or too far to return in time
                row = new_layers.get(key)
                if row is None:
                    row = new_layers[key] = [0] * (size + 1)
                for mask, p in block:
                    row[mask] += total - counts[p]
        layers = new_layers
        if left % 2 == 0:  # an even number of steps taken: 2n - left
            counts_at_zero.append(sum(layers.get(zero, ())))
    return tuple(counts_at_zero)


def count_dp_seq(
    spec: LanguageSpec, n_max: int, first: Optional[int] = None
) -> tuple[int, ...]:
    """Members of length 2n for n = 0..n_max, by one DP pass over (height,
    previous step); with `first`, only those whose first step is that mask."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    if first is not None and not 0 <= first < 1 << (spec.r + 1):
        raise DimensionMismatch(f"first step mask {first} is not a step of language {spec}")
    return _walk_layers(spec.r, 0, n_max, spec.halfspace, spec.pattern, first)


def count_dp(spec: LanguageSpec, n: int) -> int:
    """Number of length-2n members, by DP over (height, previous step)."""
    return count_dp_seq(spec, n)[-1]


def count_dp_first_step(spec: LanguageSpec, n: int, first: int) -> int:
    """Number of length-2n members whose first step is the step mask `first`."""
    if n < 1:
        raise ValueError("first-step counts need n >= 1")
    return count_dp_seq(spec, n, first)[-1]


#: Default cap on (states x transitions x steps) work for the multi-height DP.
DEFAULT_MULTI_BUDGET = 1 << 26


def count_dp_multi(
    r: int, j: int, n: int, halfspace: bool, budget: int = DEFAULT_MULTI_BUDGET
) -> int:
    """Walks of length 2n ending with the last j+1 coordinates all zero.

    With halfspace=True those coordinates must additionally stay nonnegative
    throughout.  Counted step by step over all 2^(r+1) steps by the DP over
    the vector of j+1 tracked heights.
    """
    if not 0 <= j <= r:
        raise ValueError(f"need 0 <= j <= r, got j={j}, r={r}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    work = (2 * n + 1) ** (j + 1) * 2 ** (r + 1) * 2 * n
    if work > budget:
        raise BudgetExceeded(
            f"multi-height DP needs roughly {work} state transitions, budget is {budget}"
        )
    return _walk_layers(r, j, n, halfspace)[-1]
