import inspect
import itertools
from functools import cache

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
    step_alphabet,
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
    # With two steps left for a run, or none, the inverse must refuse to
    # choose instead of picking one.
    for left in (2, 0):
        forced = {key: (steps * 2)[:left] for key, steps in bijection._FORCED.items()}
        monkeypatch.setattr(bijection, "_FORCED", forced)
        with pytest.raises(ConsistencyError, match="run reconstruction must be forced"):
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


def test_enumerate_domain_walks_is_the_brute_force_in_order():
    alphabet = step_alphabet(1)  # text order, so product order is lexicographic
    for n in range(5):
        expected = []
        for rest in itertools.product(alphabet, repeat=2 * n - 1) if n else ():
            steps = (bijection.FIRST_STEP, *rest)
            heights = list(itertools.accumulate(-1 if s & 2 else 1 for s in steps))
            backtracks = any(b == a ^ 3 for a, b in zip(steps, steps[1:]))
            if min(heights) >= 0 and heights[-1] == 0 and not backtracks:
                expected.append(Word(1, steps))
        assert list(enumerate_domain_walks(n)) == expected


def test_enumerate_diagonal_paths_is_the_brute_force_in_order():
    # Every composition of 2n with every choice of signs, kept when valid and
    # ordered as the enumerator tries jumps: 1, -1, 2, -2, ...
    for n in range(5):
        extent, expected = 2 * n, []
        for cuts in itertools.product((False, True), repeat=max(extent - 1, 0)):
            sizes = [1]
            for cut in cuts:
                if cut:
                    sizes.append(1)
                else:
                    sizes[-1] += 1
            sizes = sizes if extent else []
            for signs in itertools.product((1, -1), repeat=len(sizes)):
                path = tuple(s * j for s, j in zip(signs, sizes))
                if all(h >= 0 for h in itertools.accumulate(path)) and sum(path) == 0:
                    expected.append(path)
        expected.sort(key=lambda path: [(abs(j), j < 0) for j in path])
        assert list(enumerate_diagonal_paths(n)) == expected


def test_enumerators_are_lazy():
    # At n = 30 neither set fits in memory, so next() returns only if the
    # enumerator yields the first member before it builds the rest.
    walks, paths = enumerate_domain_walks(30), enumerate_diagonal_paths(30)
    assert inspect.isgenerator(walks) and inspect.isgenerator(paths)
    assert next(walks) == parse_word(",".join(["++"] * 30 + ["+-"] * 30), 1)
    assert next(paths) == (1,) * 30 + (-1,) * 30


def _corrupt(monkeypatch, name, corruption):
    original = getattr(bijection, name)
    monkeypatch.setattr(bijection, name, lambda arg: corruption(arg, original(arg)))


def test_verify_bijection_reports_a_corrupted_inverse(monkeypatch):
    # The last step -- of (2, 2, -4)'s walk becomes +-: still a member, so
    # phi maps it back to another path.
    _corrupt(monkeypatch, "phi_inverse", lambda p, w: Word(1, w.masks[:-1] + (2,))
             if p == (2, 2, -4) else w)
    assert verify_bijection(4) == (
        "phi_inverse(phi(++,++,-+,-+,--,--,--,--)) != identity",
        "phi(phi_inverse((2, 2, -4))) != identity",
    )


def test_verify_bijection_reports_a_corrupted_forward_map(monkeypatch):
    _corrupt(monkeypatch, "phi", lambda w, p: (1, -1, 3, -3) if p == (4, -4) else p)
    assert verify_bijection(4) == (
        "phi_inverse(phi(++,++,++,++,+-,+-,+-,+-)) != identity",
        "phi is not injective: duplicate image (1, -1, 3, -3)",
        "image size 184 != walk count 185",
        "phi(phi_inverse((4, -4))) != identity",
    )


def test_verify_bijection_reports_a_corrupted_path_count(monkeypatch):
    _corrupt(monkeypatch, "count_E_double_prime", lambda n, count: count + 1)
    assert verify_bijection(4) == (
        "walk count 185 != independent path count 186",
        "enumerated 185 paths but the DP counts 186",
    )


def test_verify_bijection_reports_an_extra_enumerated_path(monkeypatch):
    _corrupt(monkeypatch, "enumerate_diagonal_paths", lambda n, paths: [*paths, (1, -1)])
    assert verify_bijection(4) == ("enumerated 186 paths but the DP counts 185",)


@pytest.mark.parametrize("stand_in, failures", [
    ((4, -3, -1), ("the path enumerator repeats (4, -3, -1)",
                   "the path enumerator never yields (4, -4)")),
    ((1, -1), ("the path enumerator never yields (4, -4)",)),
], ids=["repeated", "other-extent"])
def test_verify_bijection_reports_a_dropped_path(monkeypatch, stand_in, failures):
    # The enumerator yields a stand-in in place of (4, -4), so the count still matches.
    _corrupt(monkeypatch, "enumerate_diagonal_paths",
             lambda n, paths: [stand_in if p == (4, -4) else p for p in paths])
    assert verify_bijection(4) == failures


def test_verify_bijection_reports_a_zero_jump_image(monkeypatch):
    # A zero jump passes the extent sum, so only the path validator catches
    # it: phi_inverse refuses the image, and the validator names it invalid.
    _corrupt(monkeypatch, "phi", lambda w, p: (2, 0, -2) if p == (2, -2) else p)
    assert verify_bijection(2) == (
        "phi(++,++,+-,+-) = (2, 0, -2) is not a valid path of extent 4",
        "image size 4 != walk count 5",
        "phi(phi_inverse((2, -2))) != identity",
    )


def test_verify_bijection_reports_an_invalid_enumerated_path(monkeypatch):
    _corrupt(monkeypatch, "enumerate_diagonal_paths",
             lambda n, paths: [(2, 0, -2) if p == (2, -2) else p for p in paths])
    assert verify_bijection(2) == (
        "the path enumerator yields an invalid path: "
        "path (2, 0, -2) has a jump that is not a nonzero int",
        "the path enumerator never yields (2, -2)",
    )


def test_verify_bijection_reports_a_domain_error_in_the_round_trip(monkeypatch):
    # The inverse of (2, -2) starts with -+, which phi refuses.
    _corrupt(monkeypatch, "phi_inverse",
             lambda p, w: Word(1, (1,) + w.masks[1:]) if p == (2, -2) else w)
    assert verify_bijection(2) == (
        "phi_inverse(phi(++,++,+-,+-)) != identity",
        "phi(phi_inverse((2, -2))) failed: walk must start with ++, got -+",
    )


def test_verify_bijection_reports_an_inverse_that_raises(monkeypatch):
    # The image (2, -2) is valid, so the inverse's error is a failure to
    # report, not a sign of an invalid image.
    def refuse(p, w):
        if p == (2, -2):
            raise BijectionDomainError("boom")
        return w
    _corrupt(monkeypatch, "phi_inverse", refuse)
    assert verify_bijection(2) == (
        "phi_inverse(phi(++,++,+-,+-)) failed: boom",
        "phi(phi_inverse((2, -2))) failed: boom",
    )


def test_depth_first_yields_the_leaves_in_order():
    tree = {"root": [("a", "x"), ("b", None), ("c", "y")],
            "x": [("d", None), ("e", "z")], "y": [], "z": [("f", None), ("g", None)]}
    asked = []

    def children(node):
        asked.append(node)
        return tree[node]
    leaves = [tuple(labels) for labels in bijection._depth_first(children, "root")]
    assert leaves == [("a", "d"), ("a", "e", "f"), ("a", "e", "g"), ("b",)]
    assert asked == ["root", "x", "z", "y"]


def test_enumerators_expand_each_node_once_per_call(monkeypatch):
    # Count the calls of each children rule behind its memo.
    asked = []

    def counted_cache(children):
        def counted(node):
            asked.append(node)
            return children(node)
        return cache(counted)
    monkeypatch.setattr(bijection, "cache", counted_cache)
    for enumerate_ in (enumerate_domain_walks, enumerate_diagonal_paths):
        calls = []
        for _ in range(2):
            asked.clear()
            assert sum(1 for _ in enumerate_(5)) == count_E_double_prime(5)
            assert len(asked) == len(set(asked))
            calls.append(list(asked))
        assert calls[0] == calls[1]  # a second call does not reuse the first's memo
