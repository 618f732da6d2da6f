import pytest

import hyperwalks.bijection as bijection
from hyperwalks import (
    BijectionDomainError,
    ConsistencyError,
    DiagonalPath,
    LanguageSpec,
    Word,
    count_E_double_prime,
    count_dp_first_step,
    parse_word,
    phi,
    phi_inverse,
    run_decompose,
    verify_bijection,
)
from hyperwalks.bijection import (
    StepVector,
    enumerate_diagonal_paths,
    enumerate_domain_walks,
    parse_diagonal_path,
)

WORKED_WALK = parse_word("++,++,-+,-+,--,+-,+-,+-", 1)
WORKED_PATH = DiagonalPath(((2, 1), (2, 1), (1, -1), (3, -1)))


def test_run_decompose_worked_example():
    runs = run_decompose(WORKED_WALK).runs
    assert runs == (
        (StepVector((1, 1)), 2),
        (StepVector((-1, 1)), 2),
        (StepVector((-1, -1)), 1),
        (StepVector((1, -1)), 3),
    )


def test_run_decompose_trivial():
    assert run_decompose(Word(())).runs == ()
    assert run_decompose(parse_word("++,--", 1)).runs == (
        (StepVector((1, 1)), 1),
        (StepVector((-1, -1)), 1),
    )


def test_run_decompose_round_trip():
    for w in enumerate_domain_walks(3):
        assert run_decompose(w).word() == w


def test_phi_worked_example():
    assert phi(WORKED_WALK) == WORKED_PATH


def test_phi_simple():
    assert phi(parse_word("++,+-", 1)) == DiagonalPath(((1, 1), (1, -1)))


def test_phi_rejects_backtracking():
    with pytest.raises(BijectionDomainError):
        phi(parse_word("++,++,--,+-", 1))
    with pytest.raises(BijectionDomainError):
        phi(Word(()))
    with pytest.raises(BijectionDomainError):
        phi(parse_word("-+,+-", 1))  # wrong first step


def test_phi_inverse_worked_example():
    assert phi_inverse(WORKED_PATH) == WORKED_WALK
    assert phi_inverse(DiagonalPath(((1, 1), (1, -1)))) == parse_word("++,+-", 1)


def test_phi_inverse_rejects_invalid_paths():
    with pytest.raises(BijectionDomainError):
        phi_inverse(DiagonalPath(((1, 1), (2, -1))))  # ends below the axis
    with pytest.raises(BijectionDomainError):
        phi_inverse(DiagonalPath(((1, 1), (1, 1))))  # nonzero end
    with pytest.raises(BijectionDomainError):
        phi_inverse(DiagonalPath(()))


def test_phi_inverse_requires_a_forced_run_step(monkeypatch):
    # With a duplicated letter two steps survive the exclusions; the inverse
    # must refuse to choose instead of picking one.
    monkeypatch.setattr(bijection, "_ALPHABET", bijection._ALPHABET + (StepVector((1, -1)),))
    with pytest.raises(ConsistencyError):
        phi_inverse(WORKED_PATH)


def test_diagonal_path_validation_and_text():
    with pytest.raises(ValueError):
        DiagonalPath(((0, 1),))
    with pytest.raises(ValueError):
        DiagonalPath(((2, 3),))
    assert WORKED_PATH.text() == "2,+;2,+;1,-;3,-"
    assert parse_diagonal_path("2,+;2,+;1,-;3,-") == WORKED_PATH
    assert parse_diagonal_path("") == DiagonalPath(())
    with pytest.raises(ValueError):
        parse_diagonal_path("2,x")


def test_count_E_double_prime_small():
    assert count_E_double_prime(0) == 1
    assert count_E_double_prime(1) == 1
    assert count_E_double_prime(2) == 5
    assert count_E_double_prime(3) == len(list(enumerate_diagonal_paths(3)))


def test_path_count_matches_first_step_dp():
    for n in range(1, 7):
        assert count_E_double_prime(n) == count_dp_first_step(
            LanguageSpec("E", 1), n, StepVector((1, 1))
        )


def test_extent_preserved():
    for w in enumerate_domain_walks(4):
        assert phi(w).extent == 8


def test_verify_bijection_small():
    for n in (1, 2, 4):
        report = verify_bijection(n)
        assert report.ok, report.failures
        assert report.walk_count == report.path_count
    assert verify_bijection(1).walk_count == 1
    assert verify_bijection(2).walk_count == 5


def test_verify_bijection_needs_positive_n():
    with pytest.raises(ValueError):
        verify_bijection(0)
