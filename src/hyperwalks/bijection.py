"""Run-length bijection between plane walks and diagonal-step paths.

The backtrack-avoiding nonnegative plane walks (r=1) that start with the step
(+1,+1) are in bijection with paths from (0,0) to (2n,0) built from steps
(j, j) and (j, -j), j >= 1, that never go below the x-axis: each maximal run
of j equal steps maps to one diagonal step of jump j whose sign is the run's
tracked coordinate.  The inverse is forced, because backtrack avoidance plus
run maximality leave exactly one choice of first coordinate per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import ConsistencyError, LanguageSpec, StepVector, Word
from .automata import recognize

E_LANGUAGE = LanguageSpec("E", 1)

_ALPHABET = (
    StepVector((1, 1)),
    StepVector((1, -1)),
    StepVector((-1, 1)),
    StepVector((-1, -1)),
)
FIRST_STEP = _ALPHABET[0]


class BijectionDomainError(ValueError):
    """Input outside the bijection's domain or codomain."""


@dataclass(frozen=True)
class RunDecomposition:
    """Maximal runs (step, multiplicity) whose concatenation is the word."""

    runs: tuple[tuple[StepVector, int], ...]

    def __post_init__(self):
        for (a, ma), (b, _) in zip(self.runs, self.runs[1:]):
            if a == b:
                raise ValueError("adjacent runs must have distinct steps")
        if any(m < 1 for _, m in self.runs):
            raise ValueError("run multiplicities must be positive")

    def word(self) -> Word:
        steps: list[StepVector] = []
        for step, multiplicity in self.runs:
            steps.extend([step] * multiplicity)
        return Word(tuple(steps))


def run_decompose(w: Word) -> RunDecomposition:
    """The unique maximal-run decomposition of a word."""
    runs: list[tuple[StepVector, int]] = []
    for step in w:
        if runs and runs[-1][0] == step:
            runs[-1] = (step, runs[-1][1] + 1)
        else:
            runs.append((step, 1))
    return RunDecomposition(tuple(runs))


@dataclass(frozen=True)
class DiagonalPath:
    """A sequence of steps (j, j*sign) with jump j >= 1 and sign +1 or -1.

    Jumps of 0 are excluded: a zero step is invisible, so admitting it would
    make every extent class infinite.
    """

    steps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for j, sign in self.steps:
            if j < 1:
                raise ValueError(f"diagonal jumps must be >= 1, got {j}")
            if sign not in (1, -1):
                raise ValueError(f"diagonal signs must be +1 or -1, got {sign}")

    @property
    def extent(self) -> int:
        return sum(j for j, _ in self.steps)

    def heights(self) -> list[int]:
        hs = [0]
        for j, sign in self.steps:
            hs.append(hs[-1] + j * sign)
        return hs

    def is_valid(self) -> bool:
        """Nonnegative at every prefix and back to height 0 at the end."""
        hs = self.heights()
        return all(h >= 0 for h in hs) and hs[-1] == 0

    def text(self) -> str:
        return ";".join(f"{j},{'+' if s == 1 else '-'}" for j, s in self.steps)

    def __str__(self) -> str:
        return self.text()


def parse_diagonal_path(text: str) -> DiagonalPath:
    """Parse the semicolon-separated "j,s" format, e.g. "2,+;2,+;1,-;3,-"."""
    if text == "":
        return DiagonalPath(())
    steps = []
    for part in text.split(";"):
        j_text, _, s_text = part.partition(",")
        if s_text not in ("+", "-") or not j_text.isdigit():
            raise ValueError(f"malformed diagonal step {part!r}")
        steps.append((int(j_text), 1 if s_text == "+" else -1))
    return DiagonalPath(tuple(steps))


def _require_domain_word(w: Word) -> None:
    if len(w) == 0:
        raise BijectionDomainError("the bijection is defined on nonempty walks")
    if w.steps[0] != FIRST_STEP:
        raise BijectionDomainError(f"walk must start with {FIRST_STEP}, got {w.steps[0]}")
    if not recognize(E_LANGUAGE, w):
        raise BijectionDomainError(f"walk {w} is not a backtrack-free nonnegative plane walk")


def phi(w: Word) -> DiagonalPath:
    """Map a walk to its diagonal path: run of length j -> (j, +-j)."""
    _require_domain_word(w)
    return DiagonalPath(
        tuple((m, step.tracked) for step, m in run_decompose(w).runs)
    )


def phi_inverse(p: DiagonalPath) -> Word:
    """The unique preimage of a valid diagonal path.

    The first run uses (+1,+1).  For each later run the tracked coordinate is
    the diagonal sign; the first coordinate is whichever of the two candidates
    is neither the previous run's step (run maximality) nor its negation
    (backtrack avoidance).  Exactly one candidate survives.
    """
    if len(p.steps) == 0:
        raise BijectionDomainError("the bijection is defined on nonempty paths")
    if not p.is_valid():
        raise BijectionDomainError(f"path {p} leaves the quarter plane or does not end at height 0")
    steps: list[StepVector] = []
    prev: StepVector = FIRST_STEP
    for i, (j, sign) in enumerate(p.steps):
        if i == 0:
            run_step = FIRST_STEP
            if sign != 1:
                raise BijectionDomainError("a valid nonempty path must start upward")
        else:
            excluded = (prev, prev.negate())
            candidates = [
                step for step in _ALPHABET if step.tracked == sign and step not in excluded
            ]
            if len(candidates) != 1:
                raise ConsistencyError("run reconstruction must be forced")
            run_step = candidates[0]
        steps.extend([run_step] * j)
        prev = run_step
    return Word(tuple(steps))


def enumerate_domain_walks(n: int) -> Iterator[Word]:
    """All length-2n walks in the bijection's domain, lexicographically.

    Depth-first generation with exact pruning (nonnegative height that can
    still return to zero, no backtracking), so the cost is proportional to
    the output, not to 4^(2n).
    """
    if n < 1:
        return
    length = 2 * n
    prefix: list[StepVector] = [FIRST_STEP]

    def extend(height: int, position: int) -> Iterator[Word]:
        if position == length:
            if height == 0:
                yield Word(tuple(prefix))
            return
        remaining = length - position
        opposite = prefix[-1].negate()
        for step in _ALPHABET:
            if step == opposite:
                continue
            h = height + step.tracked
            if h < 0 or h > remaining - 1:
                continue
            prefix.append(step)
            yield from extend(h, position + 1)
            prefix.pop()

    yield from extend(1, 1)


def enumerate_diagonal_paths(n: int) -> Iterator[DiagonalPath]:
    """All valid diagonal paths of extent 2n, in deterministic order."""
    extent = 2 * n
    steps: list[tuple[int, int]] = []

    def extend(used: int, height: int) -> Iterator[DiagonalPath]:
        if used == extent:
            if height == 0:
                yield DiagonalPath(tuple(steps))
            return
        left = extent - used
        for j in range(1, left + 1):
            for sign in (1, -1):
                h = height + j * sign
                if h < 0 or h > left - j:
                    continue
                steps.append((j, sign))
                yield from extend(used + j, h)
                steps.pop()

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


@dataclass(frozen=True)
class BijectionReport:
    """Outcome of the exhaustive bijection verification at one semilength."""

    n: int
    walk_count: int
    path_count: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_bijection(n: int) -> BijectionReport:
    """Exhaustively check the bijection at semilength n.

    Asserts that the forward map is total and injective on the domain walks,
    lands in the valid paths of extent 2n, is undone by the inverse, that the
    inverse followed by the forward map fixes every valid path, and that the
    two independent counts agree.
    """
    if n < 1:
        raise ValueError("bijection verification needs n >= 1")
    failures: list[str] = []
    images: set[DiagonalPath] = set()
    walk_count = 0
    for w in enumerate_domain_walks(n):
        walk_count += 1
        try:
            p = phi(w)
        except BijectionDomainError as exc:
            failures.append(f"phi rejected domain walk {w}: {exc}")
            continue
        if not p.is_valid() or p.extent != 2 * n:
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
    return BijectionReport(n, walk_count, path_count, tuple(failures))
