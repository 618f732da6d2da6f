import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperwalks
import hyperwalks.automata as automata
from hyperwalks import (
    DimensionMismatch,
    LanguageSpec,
    PatternKind,
    Word,
    accepts_halfspace,
    accepts_hyperplane,
    avoids_pattern,
    parse_word,
    recognize,
    step_alphabet,
)


def words_up_to(r, max_len):
    for length in range(max_len + 1):
        for steps in itertools.product(step_alphabet(r), repeat=length):
            yield Word(r, steps)


def tracked_ok(w, halfspace):
    hs = [0, *itertools.accumulate(-1 if s >> w.r & 1 else 1 for s in w)]
    return hs[-1] == 0 and (not halfspace or min(hs) >= 0)


def test_hyperplane_machine_examples():
    assert accepts_hyperplane(1, Word(1, ()))
    assert accepts_hyperplane(1, parse_word("++,--", 1))
    assert not accepts_hyperplane(1, parse_word("++,+-,++", 1))


def test_halfspace_machine_examples():
    assert not accepts_halfspace(1, parse_word("+-,--", 1))
    assert accepts_halfspace(1, parse_word("++,--", 1))
    assert accepts_halfspace(1, parse_word("++,++,--,--", 1))


def test_machine_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        accepts_hyperplane(2, parse_word("++,--", 1))
    with pytest.raises(DimensionMismatch):
        recognize(LanguageSpec("B", 2), parse_word("++,--", 1))
    with pytest.raises(DimensionMismatch):
        accepts_halfspace(2, Word(1, ()))


@pytest.mark.parametrize("r,max_len", [(0, 8), (1, 8), (2, 5)])
def test_machines_match_arithmetic(r, max_len):
    for w in words_up_to(r, max_len):
        assert accepts_hyperplane(r, w) == tracked_ok(w, halfspace=False)
        assert accepts_halfspace(r, w) == tracked_ok(w, halfspace=True)


def test_pattern_examples():
    assert not avoids_pattern(PatternKind.BACKTRACK, parse_word("++,--", 1))
    assert avoids_pattern(PatternKind.REPEAT, parse_word("++,--", 1))
    assert not avoids_pattern(PatternKind.REPEAT, parse_word("++,+-,+-", 1))
    assert avoids_pattern(PatternKind.BACKTRACK, Word(1, ()))


def test_recognize_examples():
    assert recognize(LanguageSpec("B", 1), parse_word("++,+-", 1))
    assert not recognize(LanguageSpec("E", 0), parse_word("+,-", 0))
    assert recognize(LanguageSpec("F", 0), parse_word("+,-,+,-", 0))


@pytest.mark.parametrize("r,max_len", [(0, 8), (1, 6), (2, 4)])
def test_recognize_is_the_intersection(r, max_len):
    pairs = [("B", "A", PatternKind.BACKTRACK), ("C", "A", PatternKind.REPEAT),
             ("E", "D", PatternKind.BACKTRACK), ("F", "D", PatternKind.REPEAT)]
    for w in words_up_to(r, max_len):
        for lid, base, kind in pairs:
            expected = recognize(LanguageSpec(base, r), w) and avoids_pattern(kind, w)
            assert recognize(LanguageSpec(lid, r), w) == expected


@pytest.mark.parametrize("r,max_len", [(1, 6), (2, 4)])
def test_membership_invariant_under_coordinate_flips(r, max_len):
    # Flipping any untracked coordinate in every step preserves membership in
    # all six languages; flipping the tracked coordinate preserves A, B, C.
    def flip(w, i):
        return Word(w.r, tuple(s ^ (1 << i) for s in w))

    for w in words_up_to(r, max_len):
        for i in range(r):
            flipped = flip(w, i)
            for lid in "ABCDEF":
                spec = LanguageSpec(lid, r)
                assert recognize(spec, w) == recognize(spec, flipped)
        mirrored = flip(w, r)
        for lid in "ABC":
            spec = LanguageSpec(lid, r)
            assert recognize(spec, w) == recognize(spec, mirrored)


@st.composite
def tall_walks(draw):
    """(r, steps as +-1 tuples): an excursion of height `peak` around a random
    middle and its mirror, optionally with one coordinate flipped.  Free
    coordinates are either random or chosen to avoid both patterns."""
    r = draw(st.integers(0, 2))
    rng = draw(st.randoms(use_true_random=False))
    peak = draw(st.one_of(st.integers(0, 40), st.integers(1000, 1400)))
    middle = [rng.choice((1, -1)) for _ in range(draw(st.integers(0, 100)))]
    sign = rng.choice((1, -1))
    tracked = [sign] * peak + middle + [-c for c in middle] + [-sign] * peak
    clean = draw(st.booleans())
    steps = []
    for last in tracked:
        free = tuple(rng.choice((1, -1)) for _ in range(r))
        if clean and steps and r:
            previous = steps[-1][:-1]
            if last != steps[-1][-1]:
                free = previous  # neither a repeat nor a backtrack
            elif free == previous:
                free = (-free[0],) + free[1:]
        steps.append(free + (last,))
    if steps and draw(st.booleans()):
        i = rng.randrange(len(steps))
        j = rng.randrange(r + 1)
        steps[i] = tuple(-c if k == j else c for k, c in enumerate(steps[i]))
    return r, steps


def reference_membership(spec, steps):
    """Prefix sums of the last coordinate plus an adjacent-pair scan."""
    heights = list(itertools.accumulate((s[-1] for s in steps), initial=0))
    if heights[-1] != 0 or (spec.halfspace and min(heights) < 0):
        return False
    pairs = list(zip(steps, steps[1:]))
    if spec.pattern is PatternKind.BACKTRACK:
        return all(b != tuple(-c for c in a) for a, b in pairs)
    if spec.pattern is PatternKind.REPEAT:
        return all(a != b for a, b in pairs)
    return True


@settings(max_examples=60, deadline=None)
@given(tall_walks())
def test_recognize_matches_reference_on_tall_walks(walk):
    r, steps = walk
    w = parse_word(",".join("".join("+" if c == 1 else "-" for c in s) for s in steps), r)
    for lid in "ABCDEF":
        spec = LanguageSpec(lid, r)
        assert recognize(spec, w) == reference_membership(spec, steps)


def test_transition_table_drives_the_halfspace_machine(monkeypatch):
    up_down = parse_word("++,--", 1)
    assert accepts_halfspace(1, up_down)
    assert recognize(LanguageSpec("D", 1), up_down)
    monkeypatch.delitem(automata._HALFSPACE_RULES, (automata.WORK, -1, automata.U))
    assert not accepts_halfspace(1, up_down)
    assert not recognize(LanguageSpec("D", 1), up_down)
    assert accepts_halfspace(1, Word(1, ()))


def test_optimized_interpreter_catches_corrupted_push():
    # Under python -O asserts vanish; the stack-body invariant must not.
    script = """
import sys
import hyperwalks.automata as automata
from hyperwalks import ConsistencyError, LanguageSpec, parse_word, recognize

if __debug__:
    sys.exit("not running under -O")
automata._HYPERPLANE_RULES[(automata.WORK, 1, automata.U)] = (automata.WORK, automata.D)
try:
    recognize(LanguageSpec("A", 1), parse_word("++,++,--,--", 1))
except ConsistencyError as exc:
    print(exc)
    sys.exit(0)
sys.exit("no ConsistencyError")
"""
    env = dict(os.environ, PYTHONPATH=str(Path(hyperwalks.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "homogeneous" in proc.stdout
