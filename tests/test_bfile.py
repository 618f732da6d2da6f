import pytest

from hyperwalks import (
    LanguageSpec,
    bfile_emit,
    bfile_parse,
    oeis_fetch,
    recurrence_seq,
)
from hyperwalks.bfile import BFileParseError, SequenceNotFound


def test_emit_example():
    assert bfile_emit((1, 4, 28)) == "0 1\n1 4\n2 28\n"


def test_parse_round_trip():
    assert bfile_parse(bfile_emit((1, 4, 28))) == ((0, 1), (1, 4), (2, 28))


def test_round_trip_huge_values():
    table = recurrence_seq(LanguageSpec("C", 5), 400)
    assert len(str(table[-1])) > 1000
    assert bfile_parse(bfile_emit(table)) == tuple(enumerate(table))


def test_parse_comments_and_blanks():
    assert bfile_parse("# heading\n\n0 1\n1 4\n# trailing\n") == ((0, 1), (1, 4))


def test_parse_error_line_number():
    with pytest.raises(BFileParseError) as err:
        bfile_parse("0 1\nx 2\n")
    assert err.value.line_number == 2
    with pytest.raises(BFileParseError):
        bfile_parse("0 1 2\n")


def test_parse_rejects_non_increasing_indices():
    with pytest.raises(BFileParseError):
        bfile_parse("0 1\n0 2\n")


def test_fetch_bundled_fixture():
    assert oeis_fetch("A086871")[:5] == ((1, 2), (2, 10), (3, 58), (4, 370), (5, 2514))


def test_fetch_all_bundled_fixtures():
    for sid, head in (
        ("A082298", (1, 4, 20, 116)),
        ("A085363", (1, 4, 28, 212)),
        ("A059231", (1, 1, 5, 29)),
    ):
        assert oeis_fetch(sid)[: len(head)] == tuple(enumerate(head))


def test_fetch_populates_and_reuses_cache(tmp_path):
    # a cached b-file takes precedence over the bundled one
    (tmp_path / "b082298.txt").write_text("0 99\n")
    assert oeis_fetch("A082298", cache_dir=tmp_path) == ((0, 99),)
    # the cache is only read: a missing entry falls back to the bundle
    assert oeis_fetch("A086871", cache_dir=tmp_path)[0] == (1, 2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b082298.txt"]


def test_cache_dir_from_environment(tmp_path, monkeypatch):
    (tmp_path / "b086871.txt").write_text("1 7\n2 8\n")
    monkeypatch.setenv("HYPERWALKS_OEIS_CACHE", str(tmp_path))
    assert oeis_fetch("A086871") == ((1, 7), (2, 8))


def test_fetch_unknown_sequence():
    with pytest.raises(SequenceNotFound):
        oeis_fetch("A000000")
    with pytest.raises(SequenceNotFound):
        oeis_fetch("not-an-id")


def _aligned(sid, table):
    # the b-file entries (n, value) that meet the table at the same n
    return [(value, table[n]) for n, value in oeis_fetch(sid) if n < len(table)]


def test_compare_alignment_offset_zero():
    e = recurrence_seq(LanguageSpec("E", 1), 12)
    pairs = _aligned("A086871", e)
    # the b-file starts at index 1, so it meets the table at n = 1..12
    assert all(value == count for value, count in pairs)
    assert len(pairs) == 12


def test_compare_alignment_offset_one():
    f = recurrence_seq(LanguageSpec("F", 1), 12)
    pairs = _aligned("A082298", f)
    # the b-file starts at index 0, so n = 0 is compared too
    assert all(value == count for value, count in pairs)
    assert len(pairs) == 13


def test_compare_detects_mismatch():
    # A082298 is f_n, not b_n, although both start 1, 4
    b = recurrence_seq(LanguageSpec("B", 1), 12)
    pairs = _aligned("A082298", b)
    assert len(pairs) == 13
    assert any(value != count for value, count in pairs)


def test_fixture_entries_align_with_counts_by_index():
    # each entry (n, value) is the count at semilength n, whichever index the
    # b-file starts at
    for sid, lid, first_index in (("A086871", "E", 1), ("A082298", "F", 0), ("A085363", "B", 0)):
        entries = oeis_fetch(sid)
        table = recurrence_seq(LanguageSpec(lid, 1), entries[-1][0])
        assert entries[0][0] == first_index
        assert all(value == table[n] for n, value in entries)
