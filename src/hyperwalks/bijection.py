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

from typing import Iterator

from .core import ConsistencyError, LanguageSpec, Word, step_alphabet
from .automata import recognize

E_LANGUAGE = LanguageSpec("E", 1)

_ALPHABET = step_alphabet(1)
FIRST_STEP = _ALPHABET[0]  # the mask of ++
_TRACKED = 2  # the tracked bit of a plane step mask; step ^ 3 negates a step

# For each (previous run step, downward run): the steps of that direction that
# are neither the previous step (run maximality) nor its negation (backtrack
# avoidance).  The inverse map needs each entry to hold exactly one step.
_FORCED = {
    (prev, down): tuple(
        step for step in _ALPHABET
        if bool(step & _TRACKED) == down and step not in (prev, prev ^ 3)
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


def _is_valid_path(p: tuple[int, ...]) -> bool:
    """Nonnegative at every prefix and back to height 0 at the end."""
    height = 0
    for j in p:
        height += j
        if height < 0:
            return False
    return height == 0


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
    return tuple(-m if step & _TRACKED else m for step, m in run_decompose(w))


def phi_inverse(p: tuple[int, ...]) -> Word:
    """The unique preimage of a valid diagonal path.

    The path must be nonempty, its jumps nonzero ints (a zero jump is
    invisible, so admitting it would make every extent class infinite), its
    height never negative and its end at height 0.  The first run uses
    (+1,+1).  For each
    later run the tracked coordinate is the jump's sign; the first coordinate
    is whichever of the two candidates is neither the previous run's step
    (run maximality) nor its negation (backtrack avoidance).  Exactly one
    candidate survives: _FORCED holds it.
    """
    if len(p) == 0:
        raise BijectionDomainError("the bijection is defined on nonempty paths")
    if not all(type(j) is int and j for j in p):
        raise BijectionDomainError(f"path {p} has a jump that is not a nonzero int")
    if not _is_valid_path(p):
        raise BijectionDomainError(f"path {p} leaves the quarter plane or does not end at height 0")
    # A valid path starts upward, so its first run is FIRST_STEP.
    prev = FIRST_STEP
    steps = [FIRST_STEP] * p[0]
    for j in p[1:]:
        candidates = _FORCED[prev, j < 0]
        if len(candidates) != 1:
            raise ConsistencyError("run reconstruction must be forced")
        prev = candidates[0]
        steps.extend([prev] * abs(j))
    return Word(1, tuple(steps))


def enumerate_domain_walks(n: int) -> Iterator[Word]:
    """All length-2n walks in the bijection's domain, lexicographically.

    Depth-first generation with exact pruning (nonnegative height that can
    still return to zero, no backtracking), so the cost is proportional to
    the output, not to 4^(2n).
    """
    if n < 1:
        return
    length = 2 * n
    prefix: list[int] = [FIRST_STEP]

    def extend(height: int, position: int) -> Iterator[Word]:
        if position == length:
            if height == 0:
                yield Word(1, tuple(prefix))
            return
        remaining = length - position
        opposite = prefix[-1] ^ 3
        for step in _ALPHABET:
            if step == opposite:
                continue
            h = height + (-1 if step & _TRACKED else 1)
            if h < 0 or h > remaining - 1:
                continue
            prefix.append(step)
            yield from extend(h, position + 1)
            prefix.pop()

    yield from extend(1, 1)


def enumerate_diagonal_paths(n: int) -> Iterator[tuple[int, ...]]:
    """All valid diagonal paths of extent 2n, in deterministic order."""
    extent = 2 * n
    jumps: list[int] = []

    def extend(used: int, height: int) -> Iterator[tuple[int, ...]]:
        if used == extent:
            if height == 0:
                yield tuple(jumps)
            return
        left = extent - used
        for j in range(1, left + 1):
            for jump in (j, -j):
                h = height + jump
                if h < 0 or h > left - j:
                    continue
                jumps.append(jump)
                yield from extend(used + j, h)
                jumps.pop()

    yield from extend(0, 0)


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
    inverse followed by the forward map fixes every valid path, and that the
    two independent counts agree.  An empty tuple means the bijection holds.
    """
    if n < 1:
        raise ValueError("bijection verification needs n >= 1")
    failures: list[str] = []
    images: set[tuple[int, ...]] = set()
    walk_count = 0
    for w in enumerate_domain_walks(n):
        walk_count += 1
        try:
            p = phi(w)
        except BijectionDomainError as exc:
            failures.append(f"phi rejected domain walk {w}: {exc}")
            continue
        if not _is_valid_path(p) or sum(map(abs, p)) != 2 * n:
            failures.append(f"phi({w}) = {p} is not a valid path of extent {2 * n}")
            continue
        if p in images:
            failures.append(f"phi is not injective: duplicate image {p}")
        images.add(p)
        if phi_inverse(p) != w:
            failures.append(f"phi_inverse(phi({w})) != identity")
    path_count = count_E_double_prime(n)
    if walk_count != path_count:
        failures.append(f"walk count {walk_count} != independent path count {path_count}")
    if len(images) != walk_count:
        failures.append(f"image size {len(images)} != walk count {walk_count}")
    round_trip_paths = 0
    for p in enumerate_diagonal_paths(n):
        round_trip_paths += 1
        if phi(phi_inverse(p)) != p:
            failures.append(f"phi(phi_inverse({p})) != identity")
    if round_trip_paths != path_count:
        failures.append(
            f"enumerated {round_trip_paths} paths but the DP counts {path_count}"
        )
    return tuple(failures)
