"""OEIS b-file serialization, bundled fixtures, and sequence comparison."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

#: Environment variable overriding the b-file cache directory.
CACHE_ENV_VAR = "HYPERWALKS_OEIS_CACHE"

_ID_PATTERN = re.compile(r"^A\d{6}$")


class BFileParseError(ValueError):
    """Malformed b-file text; carries the 1-based offending line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class SequenceNotFound(LookupError):
    """No cached or bundled b-file is available for the id."""


@dataclass(frozen=True)
class BFile:
    """Parsed b-file: (index, value) entries with strictly increasing indices."""

    entries: tuple[tuple[int, int], ...]
    comments: tuple[str, ...] = ()

    def __post_init__(self):
        for (i, _), (k, _) in zip(self.entries, self.entries[1:]):
            if k <= i:
                raise ValueError(f"b-file indices must be strictly increasing, got {i} then {k}")

    @property
    def first_index(self) -> int:
        return self.entries[0][0]

    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.entries)


def bfile_parse(text: str) -> BFile:
    """Parse b-file text: "index value" per line, '#' starts a comment."""
    entries: list[tuple[int, int]] = []
    comments: list[str] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileParseError(f"expected 'index value', got {raw!r}", line_number)
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileParseError(f"non-integer field in {raw!r}", line_number) from None
        if entries and index <= entries[-1][0]:
            raise BFileParseError(
                f"index {index} does not increase past {entries[-1][0]}", line_number
            )
        entries.append((index, value))
    return BFile(tuple(entries), tuple(comments))


def bfile_emit(values: Sequence[int]) -> str:
    """Render counts indexed by semilength as b-file text with indices starting at 0."""
    return "".join(f"{n} {value}\n" for n, value in enumerate(values))


def _fixture_text(sequence_id: str) -> Optional[str]:
    name = f"b{sequence_id[1:]}.txt"
    try:
        path = resources.files("hyperwalks.fixtures").joinpath(name)
        if path.is_file():
            return path.read_text()
    except (FileNotFoundError, ModuleNotFoundError):
        pass
    return None


def default_cache_dir() -> Optional[Path]:
    env = os.environ.get(CACHE_ENV_VAR)
    return Path(env) if env else None


def oeis_fetch(sequence_id: str, cache_dir: Optional[Path] = None) -> BFile:
    """Return the b-file for an OEIS id from the cache or the bundled fixtures.

    Lookup order: the cache directory, then the bundled fixtures.  The cache
    is only read, never written, and nothing touches the network.
    """
    sequence_id = sequence_id.strip().upper()
    if not _ID_PATTERN.match(sequence_id):
        raise SequenceNotFound(f"{sequence_id!r} is not a valid OEIS id (expected A followed by 6 digits)")
    if cache_dir is None:
        cache_dir = default_cache_dir()
    if cache_dir is not None:
        cached = Path(cache_dir) / f"b{sequence_id[1:]}.txt"
        if cached.is_file():
            return bfile_parse(cached.read_text())
    text = _fixture_text(sequence_id)
    if text is None:
        raise SequenceNotFound(f"no cached or bundled b-file for {sequence_id}")
    return bfile_parse(text)


def compare_with_table(
    sequence_id: str, bf: BFile, values: Sequence[int]
) -> tuple[int, tuple[str, ...]]:
    """Compare each b-file entry (n, value) with values[n], for 0 <= n < len(values).

    Values are indexed by semilength with the empty walk at 0, and a b-file's
    own index column says which n each of its entries is.  Returns the number
    of entries compared and the mismatches; the b-file matches when it met the
    table at least once and no entry mismatched.
    """
    compared = 0
    mismatches = []
    for n, value in bf.entries:
        if 0 <= n < len(values):
            compared += 1
            if value != values[n]:
                mismatches.append(f"{sequence_id} term {n} = {value} != table value {values[n]}")
    return compared, tuple(mismatches)
