"""OEIS b-file text: emit counts, parse entries, and fetch a b-file from a
read-only cache or the bundled fixtures."""

from __future__ import annotations

import os
import re
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


def bfile_parse(text: str) -> tuple[tuple[int, int], ...]:
    """The (index, value) entries of b-file text, with strictly increasing
    indices: "index value" per line; blank lines and '#' comments are skipped."""
    entries: list[tuple[int, int]] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
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
    return tuple(entries)


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


def oeis_fetch(sequence_id: str, cache_dir: Optional[Path] = None) -> tuple[tuple[int, int], ...]:
    """The (index, value) entries of the b-file for an OEIS id.

    Lookup order: the cache directory (by default the one CACHE_ENV_VAR
    names, if any), then the bundled fixtures.  The cache is only read, never
    written, and nothing touches the network.
    """
    sequence_id = sequence_id.strip().upper()
    if not _ID_PATTERN.match(sequence_id):
        raise SequenceNotFound(f"{sequence_id!r} is not a valid OEIS id (expected A followed by 6 digits)")
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV_VAR) or None
    if cache_dir is not None:
        cached = Path(cache_dir) / f"b{sequence_id[1:]}.txt"
        if cached.is_file():
            return bfile_parse(cached.read_text())
    text = _fixture_text(sequence_id)
    if text is None:
        raise SequenceNotFound(f"no cached or bundled b-file for {sequence_id}")
    return bfile_parse(text)

