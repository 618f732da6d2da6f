import itertools

import pytest

import hyperwalks.core as core
from hyperwalks import (
    DimensionMismatch,
    LanguageSpec,
    StepFormatError,
    Word,
    parse_step,
    parse_word,
    step_alphabet,
)


def test_parse_step_examples():
    assert parse_step("++", 1) == 0
    assert parse_step("+-+", 2) == 0b010
    assert parse_step("--+", 2) == 0b011


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


def test_negative_r_is_rejected():
    with pytest.raises(ValueError):
        parse_step("", -1)
    with pytest.raises(ValueError):
        step_alphabet(-1)


def test_format_step_examples():
    assert Word(1, (0,)).text() == "++"
    assert Word(2, (0b011,)).text() == "--+"


@pytest.mark.parametrize("r", range(5))
def test_round_trip_exhaustive(r):
    for s in step_alphabet(r):
        assert parse_step(Word(r, (s,)).text(), r) == s
    for chars in itertools.product("+-", repeat=r + 1):
        text = "".join(chars)
        assert Word(r, (parse_step(text, r),)).text() == text


def test_word_round_trip():
    text = "++,--,+-"
    assert parse_word(text, 1).text() == text
    assert parse_word("", 2) == Word(2, ())
    assert parse_word("", 2) != Word(1, ())
    assert Word(2, ()).text() == ""


def test_parse_word_parses_each_distinct_step_once_and_reports_the_first_bad_one(monkeypatch):
    parsed = []
    original = core.parse_step
    monkeypatch.setattr(core, "parse_step", lambda text, r: parsed.append(text) or original(text, r))
    assert parse_word("++,--,++,+-,--", 1) == Word(1, (0, 3, 0, 2, 3))
    assert parsed == ["++", "--", "+-"]
    with pytest.raises(StepFormatError, match="'x'") as caught:
        parse_word("++,+x,--,x+,+x", 1)
    assert caught.value.position == 2
    with pytest.raises(StepFormatError, match="length 3"):
        parse_word("++,+++,-", 1)


def test_word_stores_its_masks_as_a_tuple():
    w = Word(1, [0, 2])
    assert w.masks == (0, 2)
    assert w == Word(1, (0, 2))
    assert hash(w) == hash(Word(1, (0, 2)))


def test_word_rejects_a_mask_outside_its_alphabet():
    with pytest.raises(DimensionMismatch):
        Word(1, (0, 4))
    with pytest.raises(DimensionMismatch):
        Word(1, (-1,))
    with pytest.raises(ValueError):
        Word(-1, ())


def test_mask_round_trip():
    # bit i of a step's mask is set iff character i of its text is '-'
    for r in range(5):
        for chars in itertools.product("+-", repeat=r + 1):
            mask = parse_step("".join(chars), r)
            assert all((mask >> i & 1) == (ch == "-") for i, ch in enumerate(chars))
        for length in range(4):
            for masks in itertools.product(step_alphabet(r), repeat=length):
                w = Word(r, masks)
                assert parse_word(w.text(), r) == w


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
        texts = [Word(r, (s,)).text() for s in step_alphabet(r)]
        assert texts == sorted(texts)
        assert len(texts) == 2 ** (r + 1)
