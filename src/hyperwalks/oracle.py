"""Independent counting oracles.

Ground-truth counters that share nothing with the closed forms, recurrences,
or series expansions: exhaustive generate-and-filter enumeration, a vectorized
census that scans every candidate word arithmetically where materializing word
objects is too slow, and one dynamic program over (tracked heights, previous
step).  The DP serves the single-hyperplane counts, the counts restricted to a
first step, and the walks that must end on (and optionally stay above) several
hyperplanes at once; one pass to length 2N gives the counts at every n <= N.
"""

from __future__ import annotations

import itertools
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


def census_fits(r: int, n: int, budget: int) -> bool:
    """Whether the (2^(r+1))^(2n) candidate words of length 2n fit the budget.

    Their number is 2^e with e = (r+1) 2n, which exceeds the budget exactly
    when e reaches the budget's bit length, so the decision builds no large
    number.
    """
    return (r + 1) * 2 * n < max(budget, 0).bit_length()


def _refuse_over_budget(what: str, r: int, n: int, budget: int) -> None:
    """Raise BudgetExceeded unless `census_fits`; the message builds no
    number of more than 20 digits."""
    if census_fits(r, n, budget):
        return
    exponent = (r + 1) * 2 * n
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


#: Most candidates the census compares at once, unless one head followed by
#: every tail is more: 2^16 keeps its working set under 1 MB, inside a
#: per-core L2 cache.
CENSUS_CHUNK = 1 << 16


def _height_dtype(length: int) -> np.dtype:
    """The narrowest signed integer dtype that holds every height in
    [-length, length]; it holds -(length + 1), so +length too."""
    return np.min_scalar_type(-length - 1)


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


def _prefixes(length: int, digits: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, ...]:
    """`_append_steps`'s arrays for every sequence of `length` >= 1 steps."""
    # A first step has no predecessor to clash with.
    no_clash = np.zeros(len(digits), dtype=bool)
    prefixes = (signs, np.minimum(signs, 0), no_clash, no_clash, digits)
    for _ in range(length - 1):
        prefixes = _append_steps(prefixes, digits, signs)
    return prefixes


def naive_census(r: int, n: int, budget: int = DEFAULT_BUDGET) -> dict[str, int]:
    """Count members of all six languages by scanning every candidate word.

    Each candidate of length 2n over the 2^(r+1)-letter alphabet is a sequence
    of step masks (bit i set means coordinate i+1 is -1): a head followed by a
    tail of the most steps `tail` with 2^((r+1) tail) <= CENSUS_CHUNK (at
    least 1; the head keeps at least 1).  The heads and the tails are each
    laid out once by `_prefixes`; a tail is read backwards with its signs
    negated, so its arrays give minus its sum and whether it ever goes below
    its end.  A candidate ends at 0 iff its head's height equals that negated
    sum, and then stays >= 0 iff its head does and its tail never goes below
    its end.  So each family gives every tail one key, its negated sum or an
    impossible height where the tail alone excludes the family, and counts
    the heads' heights that equal the key, minus those whose last step
    clashes with the tail's first (the tails with one first step are one
    slice).

    The heads fall into 8 classes by a backtrack, a repeat and a dip below 0
    in the head.  A class skips the families it excludes (B and E after a
    backtrack, C and F after a repeat, D-F after a dip) and compares the rest
    in 2-D blocks of heads x tails of at most max(CENSUS_CHUNK, tails)
    candidates.  Every candidate is compared, exactly like enumerate_words,
    without building word objects.

    Memory: heights are stored in the narrowest signed dtype that holds
    -(2n + 1)..2n (int8 while 2n <= 127), so a block takes a few bytes per
    candidate and the working set is O(CENSUS_CHUNK), under 1 MB at the
    default chunk.  The heads add candidates / tails < 2^(r+1) * candidates
    / CENSUS_CHUNK entries, or 2^(r+1) when that is more.
    """
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return {lid: 1 for lid in "ABCDEF"}
    _refuse_over_budget("naive census", r, n, budget)
    size = 1 << (r + 1)
    length = 2 * n
    digits = np.arange(size, dtype=np.min_scalar_type(size - 1))
    signs = np.where(digits >> r & 1, -1, 1).astype(_height_dtype(length))
    tail = 1
    while tail < length - 1 and size ** (tail + 1) <= CENSUS_CHUNK:
        tail += 1
    height, lowest, backtracks, repeats, last = _prefixes(length - tail, digits, signs)
    # Read backwards with negated signs, a tail's height is minus its sum, and
    # its lowest height is below 0 iff the tail goes below its end somewhere.
    ends, back_lowest, tail_bt, tail_rep, _ = _prefixes(tail, digits, -signs)
    falls = back_lowest < 0
    never = -length - 1  # lower than any head
    # family -> (the head classes it excludes, its tail keys, and the mask
    # that the head's last step XORs with to give the clashing first step)
    families = {
        "A": (0, ends, None),
        "B": (1, np.where(tail_bt, never, ends), size - 1),
        "C": (2, np.where(tail_rep, never, ends), 0),
        "D": (4, np.where(falls, never, ends), None),
        "E": (5, np.where(falls | tail_bt, never, ends), size - 1),
        "F": (6, np.where(falls | tail_rep, never, ends), 0),
    }
    classes = backtracks * 1 + repeats * 2 + (lowest < 0) * 4
    group = max(1, CENSUS_CHUNK // len(ends))
    counts = dict.fromkeys("ABCDEF", 0)
    for cls in range(8):
        live = [(lid, key, flip) for lid, (gone, key, flip) in families.items() if not cls & gone]
        heads = np.flatnonzero(classes == cls)
        for start in range(0, len(heads), group):
            block = heads[start:start + group]
            h = height[block, None]
            for lid, key, flip in live:
                found = int(np.count_nonzero(key == h))
                if flip is not None:
                    # the tails with one first step are one slice: it is the top digit
                    clashing = key.reshape(size, -1)[last[block] ^ flip]
                    found -= int(np.count_nonzero(clashing == h))
                counts[lid] += found
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
    partner: mask ^ full for backtracking, mask for repeats.  With no pattern
    the partner is a trailing slot of the row that stays 0.  `first`, if
    given, is the only allowed first step mask.  Exact integers throughout.

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
    if pattern is PatternKind.BACKTRACK:
        partner = [mask ^ (size - 1) for mask in range(size)]
    elif pattern is PatternKind.REPEAT:
        partner = list(range(size))
    else:
        partner = [size] * size
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
