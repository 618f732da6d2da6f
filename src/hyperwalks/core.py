"""Domain vocabulary: steps, words, language selectors, their text formats,
and the errors every layer raises.

A step is a vector in {+1, -1}^(r+1).  The last coordinate (index r+1) is the
tracked coordinate: its prefix sums decide the hyperplane and half-space
constraints.  A word is a finite sequence of steps of one common dimension and
is the object every recognizer and counter consumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator, Optional

LANGUAGE_IDS = ("A", "B", "C", "D", "E", "F")

#: Languages whose walks must keep the tracked coordinate nonnegative.
HALFSPACE_IDS = frozenset({"D", "E", "F"})


class StepFormatError(ValueError):
    """Step or word text that does not follow the +/- encoding."""

    def __init__(self, message: str, position: Optional[int] = None):
        super().__init__(message)
        self.position = position


class DimensionMismatch(ValueError):
    """A word was fed to an operation expecting a different dimension."""


class BudgetExceeded(RuntimeError):
    """An exhaustive computation would exceed its declared work budget."""


class ConsistencyError(ArithmeticError):
    """An internal cross-check failed (signals a transcription bug, not bad input)."""


class PatternKind(Enum):
    """Adjacent-pair patterns a walk may be required to avoid."""

    BACKTRACK = "backtrack"  # forbids a step v immediately followed by -v
    REPEAT = "repeat"        # forbids a step v immediately followed by v


@dataclass(frozen=True)
class StepVector:
    """One element of {+1, -1}^(r+1); the tracked coordinate is last."""

    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) < 1:
            raise ValueError("a step needs at least one coordinate (r >= 0)")
        if any(c not in (1, -1) for c in self.coords):
            raise ValueError(f"step coordinates must be +1 or -1, got {self.coords}")

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def tracked(self) -> int:
        """Sign of the tracked (last) coordinate."""
        return self.coords[-1]

    @property
    def mask(self) -> int:
        """Bit encoding: bit i set iff coordinate i+1 equals -1."""
        m = 0
        for i, c in enumerate(self.coords):
            if c == -1:
                m |= 1 << i
        return m

    def negate(self) -> "StepVector":
        return _negation(self.coords)

    def text(self) -> str:
        return "".join("+" if c == 1 else "-" for c in self.coords)

    def __str__(self) -> str:
        return self.text()


@lru_cache(maxsize=1 << 12)
def _negation(coords: tuple[int, ...]) -> StepVector:
    """The negated step, built once per distinct step of the finite alphabet.

    Steps are immutable, so one negation serves every caller; the recognizer
    and the bijection check negate a step per letter they read.
    """
    return StepVector(tuple(-c for c in coords))


def parse_step(text: str, r: int) -> StepVector:
    """Parse a step from its +/- encoding, character i = coordinate i."""
    if len(text) != r + 1:
        raise StepFormatError(
            f"step text {text!r} has length {len(text)}, expected {r + 1} for r={r}"
        )
    coords = []
    for pos, ch in enumerate(text, start=1):
        if ch == "+":
            coords.append(1)
        elif ch == "-":
            coords.append(-1)
        else:
            raise StepFormatError(
                f"illegal character {ch!r} at position {pos} in step text {text!r}",
                position=pos,
            )
    return StepVector(tuple(coords))


@dataclass(frozen=True)
class Word:
    """A sequence of steps of one common dimension; the empty word is valid."""

    steps: tuple[StepVector, ...]

    def __post_init__(self):
        if not self.steps:
            return
        dimension = self.steps[0].dimension
        for s in self.steps:
            if s.dimension != dimension:
                dims = sorted({s.dimension for s in self.steps})
                raise DimensionMismatch(f"mixed step dimensions in word: {dims}")

    @property
    def dimension(self) -> Optional[int]:
        """r+1 for nonempty words, None for the empty word."""
        return self.steps[0].dimension if self.steps else None

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[StepVector]:
        return iter(self.steps)

    def text(self) -> str:
        return ",".join(s.text() for s in self.steps)

    def __str__(self) -> str:
        return self.text()


def parse_word(text: str, r: int) -> Word:
    """Parse a comma-separated sequence of step strings, e.g. "++,--,+-"."""
    if text == "":
        return Word(())
    return Word(tuple(parse_step(part, r) for part in text.split(",")))


@dataclass(frozen=True)
class LanguageSpec:
    """Selects one of the six walk families and its dimension parameter r.

    A: end on the hyperplane (tracked sum 0).
    B: A, avoiding backtracking [v, -v].      C: A, avoiding repeats [v, v].
    D: A confined to the half-space (tracked prefix sums >= 0).
    E: D avoiding backtracking.               F: D avoiding repeats.
    """

    id: str
    r: int

    def __post_init__(self):
        if self.id not in LANGUAGE_IDS:
            raise ValueError(f"unknown language id {self.id!r}, expected one of {LANGUAGE_IDS}")
        if self.r < 0:
            raise ValueError(f"r must be nonnegative, got {self.r}")

    @property
    def halfspace(self) -> bool:
        return self.id in HALFSPACE_IDS

    @property
    def pattern(self) -> Optional[PatternKind]:
        if self.id in ("B", "E"):
            return PatternKind.BACKTRACK
        if self.id in ("C", "F"):
            return PatternKind.REPEAT
        return None

    def __str__(self) -> str:
        return f"{self.id}(r={self.r})"


@lru_cache(maxsize=None)
def step_alphabet(r: int) -> tuple[StepVector, ...]:
    """All 2^(r+1) steps, ordered lexicographically by their text ('+' < '-')."""
    return tuple(
        StepVector(tuple(1 if ch == "+" else -1 for ch in chars))
        for chars in itertools.product("+-", repeat=r + 1)
    )
