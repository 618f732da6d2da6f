import pytest

import hyperwalks.bijection as bijection
from hyperwalks import (
    BijectionDomainError,
    ConsistencyError,
    LanguageSpec,
    Word,
    count_E_double_prime,
    count_dp_first_step,
    parse_step,
    parse_word,
    phi,
    phi_inverse,
    run_decompose,
    verify_bijection,
)
from hyperwalks.bijection import enumerate_diagonal_paths, enumerate_domain_walks

WORKED_WALK = parse_word("++,++,-+,-+,--,+-,+-,+-", 1)
WORKED_PATH = (2, 2, -1, -3)


def test_run_decompose_worked_example():
    # masks: ++ is 0, -+ is 1, +- is 2, -- is 3
    assert run_decompose(WORKED_WALK) == ((0, 2), (1, 2), (3, 1), (2, 3))


def test_run_decompose_trivial():
    assert run_decompose(Word(1, ())) == ()
    assert run_decompose(parse_word("++,--", 1)) == ((0, 1), (3, 1))


def test_run_decompose_round_trip():
    for w in enumerate_domain_walks(3):
        steps = tuple(step for step, m in run_decompose(w) for _ in range(m))
        assert Word(1, steps) == w


def test_phi_worked_example():
    assert phi(WORKED_WALK) == WORKED_PATH


def test_phi_simple():
    assert phi(parse_word("++,+-", 1)) == (1, -1)


def test_phi_rejects_backtracking():
    with pytest.raises(BijectionDomainError):
        phi(parse_word("++,++,--,+-", 1))
    with pytest.raises(BijectionDomainError):
        phi(Word(1, ()))
    with pytest.raises(BijectionDomainError):
        phi(parse_word("-+,+-", 1))  # wrong first step
    with pytest.raises(BijectionDomainError):
        phi(parse_word("+++,---", 2))  # not a plane walk, though its first mask is 0


def test_phi_inverse_worked_example():
    assert phi_inverse(WORKED_PATH) == WORKED_WALK
    assert phi_inverse((1, -1)) == parse_word("++,+-", 1)


def test_phi_inverse_rejects_invalid_paths():
    for path in [
        (),  # empty
        (1, 1),  # nonzero end
        (1, -2),  # ends below the axis
    ]:
        with pytest.raises(BijectionDomainError):
            phi_inverse(path)


def test_diagonal_path_validation_and_text():
    # Each jump is a nonzero int; a path is read back through the text of its walk.
    for path in [(0,), (1, 0, -1), (1.5, -1.5), (True, -1)]:
        with pytest.raises(BijectionDomainError):
            phi_inverse(path)
    text = phi_inverse(WORKED_PATH).text()
    assert text == "++,++,-+,-+,--,+-,+-,+-"
    assert phi(parse_word(text, 1)) == WORKED_PATH


def test_phi_inverse_requires_a_forced_run_step(monkeypatch):
    # With two steps left for a run, the inverse must refuse to choose
    # instead of picking one.
    forced = {key: steps + steps for key, steps in bijection._FORCED.items()}
    monkeypatch.setattr(bijection, "_FORCED", forced)
    with pytest.raises(ConsistencyError):
        phi_inverse(WORKED_PATH)


def test_count_E_double_prime_small():
    assert count_E_double_prime(0) == 1
    assert count_E_double_prime(1) == 1
    assert count_E_double_prime(2) == 5
    assert count_E_double_prime(3) == len(list(enumerate_diagonal_paths(3)))


def test_path_count_matches_first_step_dp():
    for n in range(1, 7):
        assert count_E_double_prime(n) == count_dp_first_step(
            LanguageSpec("E", 1), n, parse_step("++", 1)
        )


def test_extent_preserved():
    for w in enumerate_domain_walks(4):
        assert sum(map(abs, phi(w))) == 8


def test_verify_bijection_small():
    for n in (1, 2, 4):
        assert verify_bijection(n) == ()
    assert len(list(enumerate_domain_walks(1))) == 1
    assert len(list(enumerate_domain_walks(2))) == 5


def test_verify_bijection_needs_positive_n():
    with pytest.raises(ValueError):
        verify_bijection(0)
