"""Domain vocabulary: steps, words, language selectors, their text formats,
and the errors every layer raises.

A step is a vector in {+1, -1}^(r+1), held as its mask: bit i is set iff
coordinate i+1 is -1.  The last coordinate (bit r) is the tracked coordinate:
its prefix sums decide the hyperplane and half-space constraints.  A word is
a sequence of step masks with its r, and is the object every recognizer and
counter consumes.  The +/- text is the only other form: parse_step and
parse_word read it, Word.text writes it.  `_FAMILIES` states each family's
two rules, and `PatternKind.flip` the mask that XORs a step into the step
its pattern forbids next; every route but the census reads them here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator, Optional

class StepFormatError(ValueError):
    """Step or word text that does not follow the +/- encoding."""

    def __init__(self, message: str, position: Optional[int] = None):
        super().__init__(message)
        self.position = position


class DimensionMismatch(ValueError):
    """A step mask or word of another dimension than the operation expects."""


class BudgetExceeded(RuntimeError):
    """An exhaustive computation would exceed its declared work budget."""


class ConsistencyError(ArithmeticError):
    """An internal cross-check failed (signals a transcription bug, not bad input)."""


class PatternKind(Enum):
    """Adjacent-pair patterns a walk may be required to avoid."""

    BACKTRACK = "backtrack"  # forbids a step v immediately followed by -v
    REPEAT = "repeat"        # forbids a step v immediately followed by v

    def flip(self, r: int) -> int:
        """The mask that XORs a step into the step this pattern forbids next:
        all r+1 bits (its negation) for backtracking, none for repeats."""
        return (1 << (r + 1)) - 1 if self is PatternKind.BACKTRACK else 0


#: Each family's id -> (kept in the half-space, pattern avoided).
_FAMILIES: dict[str, tuple[bool, Optional[PatternKind]]] = {
    "A": (False, None), "B": (False, PatternKind.BACKTRACK), "C": (False, PatternKind.REPEAT),
    "D": (True, None), "E": (True, PatternKind.BACKTRACK), "F": (True, PatternKind.REPEAT),
}

LANGUAGE_IDS = tuple(_FAMILIES)


def parse_step(text: str, r: int) -> int:
    """Parse a step from its +/- encoding into its mask: bit i set iff char i is '-'."""
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    if len(text) != r + 1:
        raise StepFormatError(
            f"step text {text!r} has length {len(text)}, expected {r + 1} for r={r}"
        )
    mask = 0
    for pos, ch in enumerate(text, start=1):
        if ch == "-":
            mask |= 1 << (pos - 1)
        elif ch != "+":
            raise StepFormatError(
                f"illegal character {ch!r} at position {pos} in step text {text!r}",
                position=pos,
            )
    return mask


@dataclass(frozen=True)
class Word:
    """A sequence of step masks in {+1, -1}^(r+1); the empty word is valid.

    Bit i of a mask is set iff coordinate i+1 of the step is -1, so bit r is
    the tracked coordinate.  Masks given as any sequence are stored as a
    tuple, so words compare and hash by value.
    """

    r: int
    masks: tuple[int, ...]

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"r must be nonnegative, got {self.r}")
        if type(self.masks) is not tuple:
            object.__setattr__(self, "masks", tuple(self.masks))
        if self.masks and not (0 <= min(self.masks) and max(self.masks) < 1 << (self.r + 1)):
            raise DimensionMismatch(f"word has a step mask outside 0..{(1 << (self.r + 1)) - 1}")

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[int]:
        return iter(self.masks)

    def text(self) -> str:
        bits = range(self.r + 1)
        return ",".join("".join("-" if m >> i & 1 else "+" for i in bits) for m in self.masks)

    def __str__(self) -> str:
        return self.text()


def parse_word(text: str, r: int) -> Word:
    """Parse a comma-separated sequence of step strings, e.g. "++,--,+-".

    Each distinct step text is parsed once, in order of first appearance, so
    the first bad step in the text is the one reported.
    """
    if text == "":
        return Word(r, ())
    parts = text.split(",")
    masks = {part: parse_step(part, r) for part in dict.fromkeys(parts)}
    return Word(r, tuple(map(masks.__getitem__, parts)))


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
        return _FAMILIES[self.id][0]

    @property
    def pattern(self) -> Optional[PatternKind]:
        return _FAMILIES[self.id][1]

    def __str__(self) -> str:
        return f"{self.id}(r={self.r})"


@lru_cache(maxsize=None)
def step_alphabet(r: int) -> tuple[int, ...]:
    """All 2^(r+1) step masks, ordered lexicographically by their text ('+' < '-')."""
    return tuple(
        parse_step("".join(chars), r) for chars in itertools.product("+-", repeat=r + 1)
    )
