import tracemalloc
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

import hyperwalks.oracle as oracle
from hyperwalks import (
    BudgetExceeded,
    DimensionMismatch,
    LanguageSpec,
    PatternKind,
    Word,
    count_dp,
    count_dp_first_step,
    count_dp_multi,
    count_dp_seq,
    enumerate_words,
    naive_census,
    parse_step,
    parse_word,
    step_alphabet,
)


@dataclass(frozen=True)
class DpState:
    """DP node: current tracked height and the step mask that led here (None at start)."""

    height: int
    previous: Optional[int]


def count_dp_reference(spec: LanguageSpec, n: int) -> int:
    """Straightforward DpState-keyed DP, kept as a check on the fast engine."""
    if n == 0:
        return 1
    alphabet = step_alphabet(spec.r)
    full = (1 << (spec.r + 1)) - 1
    pattern = spec.pattern
    states: dict[DpState, int] = {DpState(0, None): 1}
    for _ in range(2 * n):
        new_states: dict[DpState, int] = {}
        for state, count in states.items():
            for step in alphabet:
                if state.previous is not None and pattern is not None:
                    if pattern is PatternKind.BACKTRACK and step == state.previous ^ full:
                        continue
                    if pattern is PatternKind.REPEAT and step == state.previous:
                        continue
                h = state.height + (-1 if step >> spec.r & 1 else 1)
                if spec.halfspace and h < 0:
                    continue
                key = DpState(h, step)
                new_states[key] = new_states.get(key, 0) + count
        states = new_states
    return sum(c for s, c in states.items() if s.height == 0)


def test_enumerate_words_counts():
    assert len(enumerate_words(LanguageSpec("B", 1), 1)) == 4
    assert enumerate_words(LanguageSpec("D", 2), 0) == [Word(2, ())]
    assert len(enumerate_words(LanguageSpec("F", 1), 2)) == 20


def test_enumerate_words_is_lexicographic():
    words = enumerate_words(LanguageSpec("A", 1), 2)
    texts = [w.text() for w in words]
    assert texts == sorted(texts)
    assert texts[0] == "++,++,+-,+-"


def test_enumerate_words_budget_refusal():
    with pytest.raises(BudgetExceeded) as err:
        enumerate_words(LanguageSpec("A", 1), 4, budget=100)
    assert "65536" in str(err.value)


def test_count_dp_examples():
    assert count_dp(LanguageSpec("E", 1), 2) == 10
    assert count_dp(LanguageSpec("A", 1), 1) == 8
    assert count_dp(LanguageSpec("B", 1), 3) == 212
    assert count_dp(LanguageSpec("B", 1), 3) == len(enumerate_words(LanguageSpec("B", 1), 3))


def test_count_dp_r0():
    assert count_dp(LanguageSpec("B", 0), 3) == 0
    assert count_dp(LanguageSpec("C", 0), 3) == 2
    assert count_dp(LanguageSpec("E", 0), 5) == 0
    assert count_dp(LanguageSpec("F", 0), 5) == 1


@pytest.mark.parametrize("lid", "ABCDEF")
@pytest.mark.parametrize("r,n_top", [(0, 4), (1, 3), (2, 2)])
def test_dp_agrees_with_enumeration(lid, r, n_top):
    spec = LanguageSpec(lid, r)
    for n in range(n_top + 1):
        assert count_dp(spec, n) == len(enumerate_words(spec, n))


@pytest.mark.parametrize("lid", "ABCDEF")
@pytest.mark.parametrize("r,n_top", [(1, 4), (2, 3), (3, 2)])
def test_dp_agrees_with_reference_engine(lid, r, n_top):
    spec = LanguageSpec(lid, r)
    for n in range(n_top + 1):
        assert count_dp(spec, n) == count_dp_reference(spec, n)


@pytest.mark.parametrize("r,n_top", [(0, 2), (1, 4), (2, 3)])
def test_naive_census_matches_dp(r, n_top):
    for n in range(n_top + 1):
        census = naive_census(r, n)
        for lid in "ABCDEF":
            assert census[lid] == count_dp(LanguageSpec(lid, r), n)


@pytest.mark.parametrize("lid,r,n", [("E", 3, 120), ("B", 4, 40), ("F", 5, 15), ("C", 5, 12)])
def test_dp_deep_cells_match_closed_form(lid, r, n):
    from hyperwalks import closed_form

    assert count_dp(LanguageSpec(lid, r), n) == closed_form(LanguageSpec(lid, r), n)


def test_dp_wide_alphabet_matches_closed_form():
    # 2^13 step masks: the first layer must not cost a row per mask
    from hyperwalks import closed_form

    for lid in "ABCDEF":
        assert count_dp(LanguageSpec(lid, 12), 2) == closed_form(LanguageSpec(lid, 12), 2)


@pytest.mark.parametrize("r,n,budget", [(2, 4, 8**8), (1, 6, 4**12)])
def test_naive_census_across_chunks_matches_dp(r, n, budget):
    assert budget > oracle.CENSUS_CHUNK
    census = naive_census(r, n, budget)
    for lid in "ABCDEF":
        assert census[lid] == count_dp(LanguageSpec(lid, r), n)


def census_peak(r: int, n: int, budget: int = oracle.DEFAULT_BUDGET) -> tuple[dict[str, int], int]:
    """The census of (r, n) and the `tracemalloc` peak in bytes while it ran."""
    tracemalloc.start()
    try:
        census = naive_census(r, n, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return census, peak


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_naive_census_independent_of_chunk_size(monkeypatch, chunk):
    # Chunks of one candidate, of fewer candidates than the alphabet, and of
    # several leading prefixes at once must all see every candidate once.
    monkeypatch.setattr(oracle, "CENSUS_CHUNK", chunk)
    for r, n in [(0, 1), (0, 3), (1, 1), (1, 2), (2, 1)]:
        census = naive_census(r, n)
        for lid in "ABCDEF":
            assert census[lid] == count_dp(LanguageSpec(lid, r), n)
    # Whatever the chunk, the 16^4 candidates are never all held at once; a
    # chunk smaller than the 16-letter alphabet once held them all (0.5-0.6 MB).
    # The blocks take about 0.03 MB.  The bound leaves room for CPython's free
    # list, which keeps up to 2000 freed 5-tuples (0.16 MB) for reuse.
    census, peak = census_peak(3, 2)
    for lid in "ABCDEF":
        assert census[lid] == count_dp(LanguageSpec(lid, 3), 2)
    assert peak < 0.25 * 10**6, f"census of 16^4 candidates peaked at {peak / 1e6:.2f} MB"


def test_naive_census_memory_is_bounded():
    # About 1 MB at the default chunk, whatever the number of candidates.
    for r, n in [(2, 4), (1, 6)]:
        candidates = (1 << (r + 1)) ** (2 * n)
        _, peak = census_peak(r, n, candidates)
        assert peak < 4 * 10**6, f"census of {candidates} candidates peaked at {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("length,dtype", [
    (126, np.int8), (127, np.int8), (128, np.int16), (129, np.int16),
    (32767, np.int16), (32768, np.int32),
])
def test_height_dtype_is_the_narrowest_that_holds_both_signs(length, dtype):
    # np.min_scalar_type(-128) is int8, which cannot hold +128.
    held = oracle._height_dtype(length)
    assert held == dtype
    info = np.iinfo(held)
    assert info.min <= -length and length <= info.max


def test_count_naive_single_language():
    assert naive_census(1, 2)["C"] == 56


@pytest.mark.parametrize("r,n", [(-1, 2), (-2, 1), (-1, 0)])
def test_naive_census_rejects_negative_r(r, n):
    with pytest.raises(ValueError, match="r must be nonnegative"):
        naive_census(r, n)


@pytest.mark.parametrize("budget", [-5, 0, 1, 3, 4, 15, 16, 17, 4**6 - 1, 4**6, 4**6 + 1])
def test_census_fits_is_the_candidate_count_within_budget(budget):
    for r in range(3):
        for n in range(5):
            assert oracle.census_fits(r, n, budget) == ((1 << (r + 1)) ** (2 * n) <= budget)


def test_naive_census_budget_refusal():
    with pytest.raises(BudgetExceeded):
        naive_census(2, 10, budget=1000)


@pytest.mark.parametrize("scan", [
    lambda: naive_census(1, 10_000, budget=100),
    lambda: enumerate_words(LanguageSpec("A", 1), 10_000, budget=100),
], ids=["naive_census", "enumerate_words"])
def test_budget_refusal_of_a_huge_scan(scan):
    # 4^20000 has over 12,000 digits: the refusal names it, never prints it
    with pytest.raises(BudgetExceeded) as err:
        scan()
    assert "4^20000" in str(err.value)
    assert len(str(err.value)) < 200


def test_first_step_examples():
    assert count_dp_first_step(LanguageSpec("E", 1), 2, parse_step("++", 1)) == 5
    assert count_dp_first_step(LanguageSpec("B", 1), 1, parse_step("+-", 1)) == 1
    assert count_dp_first_step(LanguageSpec("E", 1), 1, parse_step("+-", 1)) == 0


def test_first_step_agrees_with_enumeration():
    spec = LanguageSpec("C", 1)
    for first in step_alphabet(1):
        expected = sum(1 for w in enumerate_words(spec, 2) if w.masks[0] == first)
        assert count_dp_first_step(spec, 2, first) == expected


def test_first_step_requires_positive_n():
    with pytest.raises(ValueError):
        count_dp_first_step(LanguageSpec("B", 1), 0, parse_step("++", 1))


def test_first_step_must_be_a_step_of_the_language():
    # ++- is mask 4, a step of r=2 but not of r=1
    for mask in (parse_step("++-", 2), -1):
        with pytest.raises(DimensionMismatch):
            count_dp_first_step(LanguageSpec("B", 1), 1, mask)
        with pytest.raises(DimensionMismatch):
            count_dp_seq(LanguageSpec("B", 1), 3, mask)


@pytest.mark.parametrize("lid", "ABCDEF")
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_count_dp_seq_reads_every_n_off_one_pass(lid, r):
    spec = LanguageSpec(lid, r)
    table = count_dp_seq(spec, 12)
    assert len(table) == 13
    assert table == tuple(count_dp(spec, n) for n in range(13))
    for first in step_alphabet(r):
        table = count_dp_seq(spec, 12, first)
        assert table[1:] == tuple(count_dp_first_step(spec, n, first) for n in range(1, 13))


def test_count_dp_seq_entry_zero():
    # The empty walk counts without a first step and has none to start with.
    for lid in "ABCDEF":
        spec = LanguageSpec(lid, 1)
        assert count_dp_seq(spec, 0) == (1,)
        assert count_dp_seq(spec, 3)[0] == 1
        for first in step_alphabet(1):
            assert count_dp_seq(spec, 0, first) == (0,)
            assert count_dp_seq(spec, 3, first)[0] == 0


@pytest.mark.parametrize("lid,mult_up", [("B", False), ("C", False), ("E", True), ("F", True)])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_start_step_symmetry(lid, mult_up, r):
    # Counts split evenly over the allowed first steps: the 2^r upward steps
    # for the half-space families, all 2^(r+1) steps otherwise.
    spec = LanguageSpec(lid, r)
    for n in (1, 2, 5, 10):
        total = count_dp(spec, n)
        if mult_up:
            allowed = [s for s in step_alphabet(r) if not s >> r & 1]
        else:
            allowed = list(step_alphabet(r))
        counts = [count_dp_first_step(spec, n, s) for s in allowed]
        assert len(set(counts)) == 1
        assert len(allowed) * counts[0] == total


def test_count_dp_multi_examples():
    assert count_dp_multi(1, 1, 1, False) == 4
    assert count_dp_multi(2, 1, 0, False) == 1
    assert count_dp_multi(2, 1, 0, True) == 1
    assert count_dp_multi(1, 1, 2, False) == 36


@pytest.mark.parametrize("r", [0, 1, 2])
def test_count_dp_multi_j0_matches_single(r):
    for n in range(7):
        assert count_dp_multi(r, 0, n, False) == count_dp(LanguageSpec("A", r), n)
        assert count_dp_multi(r, 0, n, True) == count_dp(LanguageSpec("D", r), n)


def test_count_dp_multi_budget_refusal():
    with pytest.raises(BudgetExceeded):
        count_dp_multi(3, 3, 50, False, budget=10_000)


@pytest.mark.parametrize(
    "count",
    [
        lambda n: count_dp(LanguageSpec("A", 1), n),
        lambda n: count_dp_seq(LanguageSpec("A", 1), n),
        lambda n: count_dp_multi(1, 0, n, False),
        lambda n: count_dp_multi(2, 1, n, True),
        lambda n: naive_census(1, n),
        lambda n: enumerate_words(LanguageSpec("A", 1), n),
    ],
    ids=["count_dp", "count_dp_seq", "count_dp_multi_j0", "count_dp_multi_j1", "naive_census",
         "enumerate_words"],
)
@pytest.mark.parametrize("n", [-1, -1000])
def test_negative_n_is_rejected(count, n):
    with pytest.raises(ValueError, match="nonnegative"):
        count(n)


def test_count_dp_multi_validates_j():
    with pytest.raises(ValueError):
        count_dp_multi(1, 2, 1, False)
