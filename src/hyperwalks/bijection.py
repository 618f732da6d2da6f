"""Run-length bijection between plane walks and diagonal-step paths.

The backtrack-avoiding nonnegative plane walks (r=1) that start with the step
(+1,+1) are in bijection with paths from (0,0) to (2n,0) built from steps
(j, j) and (j, -j), j >= 1, that never go below the x-axis: each maximal run
of j equal steps maps to one diagonal step of jump j whose sign is the run's
tracked coordinate.  A path is the tuple of its signed jumps, +j or -j: the
walk ++,++,-+,-+,--,+-,+-,+- maps to (2, 2, -1, -3).  The inverse is forced,
because backtrack avoidance plus run maximality leave exactly one choice of
first coordinate per run.
"""

from __future__ import annotations

from functools import cache
from typing import Any, Callable, Iterable, Iterator

from .core import ConsistencyError, LanguageSpec, PatternKind, Word, step_alphabet
from .automata import recognize

E_LANGUAGE = LanguageSpec("E", 1)

_ALPHABET = step_alphabet(1)
FIRST_STEP = _ALPHABET[0]  # the mask of ++
_TRACKED = 2  # the tracked bit of a plane step mask
_NEGATE = PatternKind.BACKTRACK.flip(1)  # step ^ _NEGATE is the step's negation

# For each (previous run step, downward run): the steps of that direction that
# are neither the previous step (run maximality) nor its negation (backtrack
# avoidance).  The inverse map needs each entry to hold exactly one step.
_FORCED = {
    (prev, down): tuple(
        step for step in _ALPHABET
        if bool(step & _TRACKED) == down and step not in (prev, prev ^ _NEGATE)
    )
    for prev in _ALPHABET
    for down in (False, True)
}


class BijectionDomainError(ValueError):
    """Input outside the bijection's domain or codomain."""


def run_decompose(w: Word) -> tuple[tuple[int, int], ...]:
    """The unique maximal runs (step mask, multiplicity) whose concatenation is w."""
    runs: list[tuple[int, int]] = []
    previous, count = -1, 0
    for step in w:
        if step == previous:
            count += 1
        else:
            if count:
                runs.append((previous, count))
            previous, count = step, 1
    if count:
        runs.append((previous, count))
    return tuple(runs)


def _path_error(p: tuple[int, ...]) -> str:
    """Why p is not a valid diagonal path (see `phi_inverse`), or "" if it is.
    One pass reports a bad jump ahead of a dip wherever each is."""
    if len(p) == 0:
        return "the bijection is defined on nonempty paths"
    height, dipped = 0, False
    for j in p:
        if type(j) is not int or not j:
            return f"path {p} has a jump that is not a nonzero int"
        height += j
        if height < 0:
            dipped = True
    if dipped or height:
        return f"path {p} leaves the quarter plane or does not end at height 0"
    return ""


def phi(w: Word) -> tuple[int, ...]:
    """Map a walk to its diagonal path: a run of length j -> jump +j or -j."""
    if len(w) == 0:
        raise BijectionDomainError("the bijection is defined on nonempty walks")
    if w.r != 1:
        raise BijectionDomainError(f"the bijection is defined on plane walks (r=1), got r={w.r}")
    if w.masks[0] != FIRST_STEP:
        raise BijectionDomainError(f"walk must start with ++, got {Word(1, w.masks[:1])}")
    if not recognize(E_LANGUAGE, w):
        raise BijectionDomainError(f"walk {w} is not a backtrack-free nonnegative plane walk")
    return tuple([-m if step & _TRACKED else m for step, m in run_decompose(w)])


def phi_inverse(p: tuple[int, ...]) -> Word:
    """The unique preimage of a valid diagonal path.

    The path must be nonempty, its jumps nonzero ints (a zero jump is
    invisible, so admitting it would make every extent class infinite), its
    height never negative and its end at height 0.  The first run uses
    (+1,+1).  For each later run the tracked coordinate is the jump's sign;
    the first coordinate is whichever of the two candidates is neither the
    previous run's step (run maximality) nor its negation (backtrack
    avoidance).  Exactly one candidate survives: _FORCED holds it.
    """
    error = _path_error(p)
    if error:
        raise BijectionDomainError(error)
    # A valid path starts upward, so its first run is FIRST_STEP.
    forced = _FORCED
    prev = FIRST_STEP
    steps = (FIRST_STEP,) * p[0]
    for j in p[1:]:
        try:
            (prev,) = forced[prev, j < 0]
        except ValueError:
            raise ConsistencyError("run reconstruction must be forced") from None
        steps += (prev,) * abs(j)
    return Word(1, steps)


def _depth_first(children: Callable[[Any], Iterable[tuple[Any, Any]]], root: Any) -> Iterator[list]:
    """The labels along every root-to-leaf path of a tree, depth first.

    `children(node)` gives the node's (label, child) pairs in the order to
    visit them; a child of None is a leaf.  The stack is explicit, one
    iterator over the pending children per level, so a deep tree costs no
    chain of generator frames.  The yielded list is reused for the next
    leaf: a caller that keeps it must copy it.
    """
    labels: list = []
    stack = [iter(children(root))]
    while stack:
        for label, child in stack[-1]:
            labels.append(label)
            if child is not None:
                stack.append(iter(children(child)))
                break
            yield labels
            labels.pop()
        else:
            stack.pop()
            del labels[-1:]  # the label of the node just finished; the root has none


def enumerate_domain_walks(n: int) -> Iterator[Word]:
    """All length-2n walks in the bijection's domain, lexicographically.

    Depth first over nodes (last step, height, steps left) with exact pruning
    (no backtracking, nonnegative height that can still return to zero), so
    the cost is proportional to the output, not to 4^(2n).  Each node's
    children are computed once per call.
    """
    if n < 1:
        return

    @cache
    def children(node: tuple[int, int, int]) -> tuple:
        prev, height, left = node
        # step & _TRACKED is 0 for an up step and 2 for a down step; the left - 1
        # steps after this one must be able to bring the height back to 0
        return tuple((step, (step, h, left - 1) if left > 1 else None) for step in _ALPHABET
                     if step != prev ^ _NEGATE and 0 <= (h := height + 1 - (step & _TRACKED)) < left)

    for steps in _depth_first(children, (FIRST_STEP, 1, 2 * n - 1)):
        yield Word(1, (FIRST_STEP, *steps))


def enumerate_diagonal_paths(n: int) -> Iterator[tuple[int, ...]]:
    """All valid diagonal paths of extent 2n, in deterministic order.

    Depth first over nodes (extent left, height), trying the jumps 1, -1, 2,
    -2, ... that keep the height nonnegative and able to end at 0.  Each
    node's children are computed once per call.
    """
    if n == 0:
        yield ()
    if n < 1:
        return

    @cache
    def children(node: tuple[int, int]) -> tuple:
        left, height = node
        return tuple((jump, (left - j, height + jump) if left > j else None)
                     for j in range(1, left + 1) for jump in (j, -j)
                     if 0 <= height + jump <= left - j)

    for jumps in _depth_first(children, (2 * n, 0)):
        yield tuple(jumps)


def count_E_double_prime(n: int) -> int:
    """Number of valid diagonal paths of extent 2n, by DP over (extent, height).

    Independent of the bijection: it never looks at walks or runs.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    extent = 2 * n
    layers: list[dict[int, int]] = [dict() for _ in range(extent + 1)]
    layers[0][0] = 1
    for used in range(extent):
        for height, count in layers[used].items():
            for j in range(1, extent - used + 1):
                up = height + j
                if up <= extent - used - j:
                    layers[used + j][up] = layers[used + j].get(up, 0) + count
                if height - j >= 0:
                    down = height - j
                    layers[used + j][down] = layers[used + j].get(down, 0) + count
    return layers[extent].get(0, 0)


def verify_bijection(n: int) -> tuple[str, ...]:
    """Exhaustively check the bijection at semilength n; return the failures.

    Checks that the forward map is total and injective on the domain walks,
    lands in the valid paths of extent 2n, is undone by the inverse, that the
    inverse followed by the forward map fixes every valid path, that the path
    enumerator yields every image once and only valid paths, and that the two
    independent counts agree.  An empty tuple means the bijection holds; a
    `BijectionDomainError` from either map is one more failure, not a raise.

    The first loop proves phi_inverse(p) == w for p = phi(w) and marks each
    such p.  Both maps are deterministic, so for a marked p,
    phi(phi_inverse(p)) is phi(w) = p: the second loop computes the round
    trip only for the valid enumerated paths left unmarked, and reports the
    same failures as if it computed every one.
    """
    if n < 1:
        raise ValueError("bijection verification needs n >= 1")
    failures: list[str] = []
    # Each image of phi -> whether its round trip is proven; None once the
    # path enumerator has yielded it.
    images: dict[tuple[int, ...], bool | None] = {}
    walk_count = 0
    for w in enumerate_domain_walks(n):
        walk_count += 1
        try:
            p = phi(w)
        except BijectionDomainError as exc:
            failures.append(f"phi rejected domain walk {w}: {exc}")
            continue
        # phi_inverse validates p; _path_error only names why it raised
        try:
            proven = phi_inverse(p) == w
            valid, failure = True, "" if proven else f"phi_inverse(phi({w})) != identity"
        except BijectionDomainError as exc:
            valid = not _path_error(p)
            proven, failure = False, f"phi_inverse(phi({w})) failed: {exc}"
        if not valid or sum(map(abs, p)) != 2 * n:
            failures.append(f"phi({w}) = {p} is not a valid path of extent {2 * n}")
            continue
        if p in images:
            failures.append(f"phi is not injective: duplicate image {p}")
        images[p] = proven
        if failure:
            failures.append(failure)
    path_count = count_E_double_prime(n)
    if walk_count != path_count:
        failures.append(f"walk count {walk_count} != independent path count {path_count}")
    if len(images) != walk_count:
        failures.append(f"image size {len(images)} != walk count {walk_count}")
    round_trip_paths = 0
    for p in enumerate_diagonal_paths(n):
        round_trip_paths += 1
        proven = images.get(p, False)
        if proven is None:
            failures.append(f"the path enumerator repeats {p}")
        images[p] = None
        error = "" if proven else _path_error(p)
        if error:
            failures.append(f"the path enumerator yields an invalid path: {error}")
        elif not proven:
            try:
                if phi(phi_inverse(p)) != p:
                    failures.append(f"phi(phi_inverse({p})) != identity")
            except BijectionDomainError as exc:
                failures.append(f"phi(phi_inverse({p})) failed: {exc}")
    failures.extend(f"the path enumerator never yields {p}"
                    for p, proven in images.items() if proven is not None)
    if round_trip_paths != path_count:
        failures.append(
            f"enumerated {round_trip_paths} paths but the DP counts {path_count}"
        )
    return tuple(failures)
