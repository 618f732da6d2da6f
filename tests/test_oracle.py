import tracemalloc

import pytest

import hyperwalks.oracle as oracle
from hyperwalks import (
    BudgetExceeded,
    CountTable,
    LanguageSpec,
    StepVector,
    Word,
    count_dp,
    count_dp_first_step,
    count_dp_multi,
    enumerate_words,
    naive_census,
    parse_word,
    step_alphabet,
)
from hyperwalks.oracle import count_dp_reference


def test_enumerate_words_counts():
    assert len(enumerate_words(LanguageSpec("B", 1), 1)) == 4
    assert enumerate_words(LanguageSpec("D", 2), 0) == [Word(())]
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


@pytest.mark.parametrize("r,n,budget", [(2, 4, 8**8), (1, 6, 4**12)])
def test_naive_census_across_chunks_matches_dp(r, n, budget):
    assert budget > oracle.CENSUS_CHUNK
    census = naive_census(r, n, budget)
    for lid in "ABCDEF":
        assert census[lid] == count_dp(LanguageSpec(lid, r), n)


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_naive_census_independent_of_chunk_size(monkeypatch, chunk):
    # Chunks of one candidate, of fewer candidates than the alphabet, and of
    # several leading prefixes at once must all see every candidate once.
    monkeypatch.setattr(oracle, "CENSUS_CHUNK", chunk)
    for r, n in [(0, 1), (0, 3), (1, 1), (1, 2), (2, 1)]:
        census = naive_census(r, n)
        for lid in "ABCDEF":
            assert census[lid] == count_dp(LanguageSpec(lid, r), n)


def test_naive_census_memory_is_bounded():
    tracemalloc.start()
    try:
        naive_census(2, 4, 8**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 10**6, f"census of 8^8 candidates peaked at {peak / 1e6:.1f} MB"


def test_count_naive_single_language():
    assert naive_census(1, 2)["C"] == 56


def test_naive_census_budget_refusal():
    with pytest.raises(BudgetExceeded):
        naive_census(2, 10, budget=1000)


def test_first_step_examples():
    assert count_dp_first_step(LanguageSpec("E", 1), 2, StepVector((1, 1))) == 5
    assert count_dp_first_step(LanguageSpec("B", 1), 1, StepVector((1, -1))) == 1
    assert count_dp_first_step(LanguageSpec("E", 1), 1, StepVector((1, -1))) == 0


def test_first_step_agrees_with_enumeration():
    spec = LanguageSpec("C", 1)
    for first in step_alphabet(1):
        expected = sum(1 for w in enumerate_words(spec, 2) if w.steps[0] == first)
        assert count_dp_first_step(spec, 2, first) == expected


def test_first_step_requires_positive_n():
    with pytest.raises(ValueError):
        count_dp_first_step(LanguageSpec("B", 1), 0, StepVector((1, 1)))


@pytest.mark.parametrize("lid,mult_up", [("B", False), ("C", False), ("E", True), ("F", True)])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_start_step_symmetry(lid, mult_up, r):
    # Counts split evenly over the allowed first steps: the 2^r upward steps
    # for the half-space families, all 2^(r+1) steps otherwise.
    spec = LanguageSpec(lid, r)
    for n in (1, 2, 5, 10):
        total = count_dp(spec, n)
        if mult_up:
            allowed = [s for s in step_alphabet(r) if s.tracked == 1]
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


def test_count_dp_multi_validates_j():
    with pytest.raises(ValueError):
        count_dp_multi(1, 2, 1, False)


def test_count_table_invariants():
    with pytest.raises(ValueError):
        CountTable(LanguageSpec("A", 1), (2, 8))
    table = CountTable(LanguageSpec("A", 1), (1, 8, 96))
    assert table.n_max == 2
