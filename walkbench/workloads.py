"""The operations of each workload, built from the seed.

An operation is a dict the child runs: {"kind": "cli", "argv": [...]} or
{"kind": "recognize", "r", "language", "text"}.  Each also carries an "id"
that the checks in verify.py use to find it; nothing else is sent.

Only `words` draws from the seed: its long walks differ from seed to seed but
have the same lengths and shapes, so every seed costs about the same.
"""

from __future__ import annotations

import random

LANGUAGES = "ABCDEF"
HALFSPACE = "DEF"
BACKTRACK = "BE"
REPEAT = "CF"

# terms: r values, the n of the closed/recurrence pair, of hyper, of dp, and the
# number of series terms (terms - 1 = HYPER_N, so the series reaches the hyper cell).
TERMS_R = (1, 3)
BIG_N = 1000
HYPER_N = 150
DP_N = 60
SERIES_TERMS = 151
# The CLI computes this count, then cannot print its 4816 digits (exit 2).
OVERSIZE = ("A", 3, 2000)

# words: naive enumeration cell, walk length of the long words.
NAIVE = ("B", 1, 4)
WALK_LENGTH = 4000

CHECK_DEFAULT = ["check", "--json", "-"]
CHECK_WIDE = ["check", "--r", "1..3", "--n-max", "40",
              "--suites", "methods,ratios,symmetry,asymptotics", "--json", "-"]
CHECK_BIJECTION = ["check", "--r", "1", "--n-max", "6", "--suites", "bijection", "--json", "-"]
CHECK_CENSUS = ["check", "--r", "2", "--n-max", "4", "--suites", "methods",
                "--budget", str(8 ** 8), "--json", "-"]


def cli(op_id: str, *argv) -> dict:
    return {"id": op_id, "kind": "cli", "argv": [str(a) for a in argv]}


def check_ops() -> list[dict]:
    return [cli("check-default", *CHECK_DEFAULT), cli("check-wide", *CHECK_WIDE)]


def terms_ops() -> list[dict]:
    ops = []
    for lid in LANGUAGES:
        for r in TERMS_R:
            cell = f"{lid}{r}"
            ops.append(cli(f"closed-{cell}", "count", lid, "--r", r, "--n", BIG_N, "--method", "closed"))
            ops.append(cli(f"recurrence-{cell}", "count", lid, "--r", r, "--n", BIG_N,
                           "--method", "recurrence"))
            if lid not in "AD":
                ops.append(cli(f"hyper-{cell}", "count", lid, "--r", r, "--n", HYPER_N, "--method", "hyper"))
            ops.append(cli(f"dp-{cell}", "count", lid, "--r", r, "--n", DP_N, "--method", "dp"))
            ops.append(cli(f"series-{cell}", "series", lid, "--r", r, "--terms", SERIES_TERMS))
    ops.append(cli("bfile-E1", "series", "E", "--r", 1, "--terms", SERIES_TERMS, "--format", "bfile"))
    lid, r, n = OVERSIZE
    ops.append(cli("oversize", "count", lid, "--r", r, "--n", n))
    return ops


def _pattern_clash(language: str, previous: tuple[int, ...], step: tuple[int, ...]) -> bool:
    if language in BACKTRACK:
        return step == tuple(-c for c in previous)
    if language in REPEAT:
        return step == previous
    return False


def is_member(language: str, steps: list[tuple[int, ...]]) -> bool:
    """Membership by prefix sums of the last coordinate and adjacent pairs."""
    height = 0
    for i, step in enumerate(steps):
        height += step[-1]
        if language in HALFSPACE and height < 0:
            return False
        if i and _pattern_clash(language, steps[i - 1], step):
            return False
    return height == 0


def _tall_profile(rng: random.Random, length: int, sign: int) -> list[int]:
    """Last coordinates of one excursion that climbs high: up-biased, then mirrored."""
    half, height, climb = length // 2, 0, []
    for _ in range(half):
        step = 1 if height == 0 or rng.random() < 0.8 else -1
        height += step
        climb.append(step)
    return [sign * s for s in climb + [-s for s in reversed(climb)]]


def _member_walk(rng: random.Random, language: str, r: int, length: int) -> list[tuple[int, ...]]:
    """A member of `language`: a tall excursion (above 0 for D-F, below for A-C)
    whose free coordinates are drawn among those the pattern allows."""
    sign = 1 if language in HALFSPACE else -1
    steps: list[tuple[int, ...]] = []
    for last in _tall_profile(rng, length, sign):
        while True:
            step = tuple(rng.choice((1, -1)) for _ in range(r)) + (last,)
            if not steps or not _pattern_clash(language, steps[-1], step):
                break
        steps.append(step)
    return steps


def text(steps: list[tuple[int, ...]]) -> str:
    return ",".join("".join("+" if c == 1 else "-" for c in step) for step in steps)


def words_ops(seed: int) -> tuple[list[dict], dict[str, bool]]:
    """The words operations and the expected answer of every recognize operation."""
    rng = random.Random(seed)
    lid, r, n = NAIVE
    ops = [cli("naive", "count", lid, "--r", r, "--n", n, "--method", "naive")]
    expected: dict[str, bool] = {}
    for index, language in enumerate(LANGUAGES):
        r = 1 + index % 2
        member = _member_walk(rng, language, r, WALK_LENGTH)
        position, coordinate = rng.randrange(WALK_LENGTH), rng.randrange(r + 1)
        mutant = list(member)
        mutant[position] = tuple(-c if i == coordinate else c for i, c in enumerate(member[position]))
        for kind, walk in (("member", member), ("mutant", mutant)):
            op_id = f"recognize-{language}-{kind}"
            ops.append({"id": op_id, "kind": "recognize", "r": r, "language": language,
                        "text": text(walk)})
            expected[op_id] = is_member(language, walk)
    ops.append(cli("bijection", *CHECK_BIJECTION))
    ops.append(cli("census", *CHECK_CENSUS))
    return ops, expected
