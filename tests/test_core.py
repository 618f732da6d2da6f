import itertools

import pytest

from hyperwalks import (
    DimensionMismatch,
    LanguageSpec,
    StepFormatError,
    StepVector,
    Word,
    parse_step,
    parse_word,
    step_alphabet,
)


def test_parse_step_examples():
    assert parse_step("++", 1) == StepVector((1, 1))
    assert parse_step("+-+", 2) == StepVector((1, -1, 1))


def test_parse_step_rejects_bad_character():
    with pytest.raises(StepFormatError) as err:
        parse_step("+0", 1)
    assert err.value.position == 2
    assert "position 2" in str(err.value)


def test_parse_step_rejects_wrong_length():
    with pytest.raises(StepFormatError):
        parse_step("+++", 1)
    with pytest.raises(StepFormatError):
        parse_step("+", 1)


def test_format_step_examples():
    assert StepVector((1, 1)).text() == "++"
    assert StepVector((-1, -1, 1)).text() == "--+"


@pytest.mark.parametrize("r", range(5))
def test_round_trip_exhaustive(r):
    for s in step_alphabet(r):
        assert parse_step(s.text(), r) == s
    for chars in itertools.product("+-", repeat=r + 1):
        text = "".join(chars)
        assert parse_step(text, r).text() == text


def test_negate_examples_and_involution():
    assert StepVector((1, -1)).negate() == StepVector((-1, 1))
    assert StepVector((1, 1, 1)).negate() == StepVector((-1, -1, -1))
    for s in step_alphabet(3):
        assert s.negate().negate() == s


def test_word_round_trip():
    text = "++,--,+-"
    assert parse_word(text, 1).text() == text
    assert parse_word("", 2) == Word(())
    assert Word(()).text() == ""


def test_word_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        Word((StepVector((1, 1)), StepVector((1, 1, 1))))


def test_step_vector_validation():
    with pytest.raises(ValueError):
        StepVector((1, 0))
    with pytest.raises(ValueError):
        StepVector(())


def test_mask_round_trip():
    for r in range(4):
        for s in step_alphabet(r):
            assert all((s.mask >> i & 1) == (c == -1) for i, c in enumerate(s.coords))


def test_language_spec_validation():
    assert LanguageSpec("B", 0).pattern is not None
    assert LanguageSpec("D", 1).halfspace
    assert not LanguageSpec("A", 1).halfspace
    assert LanguageSpec("A", 1).pattern is None
    with pytest.raises(ValueError):
        LanguageSpec("G", 1)
    with pytest.raises(ValueError):
        LanguageSpec("A", -1)


def test_alphabet_is_text_sorted():
    for r in range(4):
        texts = [s.text() for s in step_alphabet(r)]
        assert texts == sorted(texts)
        assert len(texts) == 2 ** (r + 1)
