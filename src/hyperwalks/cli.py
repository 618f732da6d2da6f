"""Command-line surface: count, series, check, and oeis subcommands."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .core import BudgetExceeded, LanguageSpec, LANGUAGE_IDS
from .bfile import SequenceNotFound, bfile_emit, oeis_fetch
from .checks import DEFAULT_BUDGET, ROUTES, SUITES, run_check

METHODS = tuple(ROUTES)


class UsageError(ValueError):
    """A flag combination outside the defined contracts."""


def _format_series(spec: LanguageSpec, values: list[int], fmt: str) -> str:
    if fmt == "csv":
        return ",".join(str(v) for v in values)
    if fmt == "bfile":
        return bfile_emit(values).rstrip("\n")
    if fmt == "json":
        payload = [
            {"language": spec.id, "r": spec.r, "n": n, "method": "series", "value": str(v)}
            for n, v in enumerate(values)
        ]
        return json.dumps(payload, sort_keys=True)
    raise UsageError(f"unknown format {fmt!r}")


def _parse_r_range(text: str) -> list[int]:
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
    except ValueError:
        raise UsageError(f"--r takes r or lo..hi, got {text!r}") from None
    if lo < 0 or hi < lo:
        raise UsageError(f"--r needs 0 <= lo <= hi, got {text!r}")
    return list(range(lo, hi + 1))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperwalks",
        description=(
            "Exact enumeration of {+-1}^(r+1) lattice walks ending on the last-coordinate "
            "hyperplane, optionally confined to a half-space and avoiding backtracking "
            "or repeated steps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="print one walk count")
    p_count.add_argument("language", choices=LANGUAGE_IDS)
    p_count.add_argument("--r", type=int, required=True)
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--method", choices=METHODS, default="closed")
    p_count.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                         help="candidate cap for the naive census")

    p_series = sub.add_parser("series", help="print leading sequence terms")
    p_series.add_argument("language", choices=LANGUAGE_IDS)
    p_series.add_argument("--r", type=int, required=True)
    p_series.add_argument("--terms", type=int, required=True)
    p_series.add_argument("--format", choices=("csv", "json", "bfile"), default="csv")

    p_check = sub.add_parser("check", help="run the cross-check suites")
    p_check.add_argument("--r", default="1..2", help="r range, e.g. 2 or 1..3")
    p_check.add_argument("--n-max", type=int, default=20)
    p_check.add_argument("--suites", default="methods,ratios",
                         help=f"comma-separated subset of {','.join(SUITES)}")
    p_check.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_check.add_argument("--json", metavar="PATH", default=None,
                         help="also write the JSON report to PATH ('-' for stdout)")

    p_oeis = sub.add_parser("oeis", help="print a bundled or cached OEIS b-file")
    p_oeis.add_argument("sequence_id")
    p_oeis.add_argument("--cache-dir", default=None)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand.  Exit codes: 0 ok, 1 a check disagrees, 2 bad
    input, 3 an internal cross-check failed (ConsistencyError) or any other
    unexpected exception."""
    # Counts have any number of digits: lift the integer printing limit while
    # main runs.  Python releases before 3.10.7 have no limit.
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return _run(argv)
    finally:
        set_limit(limit)


def _run(argv: Optional[Sequence[str]]) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "count":
            if args.n < 0:
                raise UsageError("n must be nonnegative")
            spec = LanguageSpec(args.language, args.r)
            print(ROUTES[args.method].values(spec, [args.n], args.budget)[0])
            return 0
        if args.command == "series":
            if args.terms < 1:
                raise UsageError("need at least one term")
            spec = LanguageSpec(args.language, args.r)
            values = ROUTES["series"].values(spec, range(args.terms), DEFAULT_BUDGET)
            print(_format_series(spec, values, args.format))
            return 0
        if args.command == "check":
            if args.n_max < 0:
                raise UsageError(f"--n-max must be nonnegative, got {args.n_max}")
            suites = tuple(s for s in args.suites.split(",") if s)
            if not suites or set(suites) - set(SUITES):
                raise UsageError(
                    f"--suites takes a subset of {','.join(SUITES)}, got {args.suites!r}"
                )
            r_values = _parse_r_range(args.r)
            if args.json not in (None, "-"):
                # Try the JSON path before any suite runs, so a bad one fails
                # fast, but leave it as it was until there is a report to write.
                existed = os.path.exists(args.json)
                try:
                    open(args.json, "a").close()
                except OSError as exc:
                    raise UsageError(f"cannot write --json {args.json}: {exc.strerror}") from None
                if not existed:
                    os.remove(args.json)
            report = run_check(r_values, args.n_max, suites, args.budget)
            print(report.render())
            if args.json == "-":
                print(report.to_json())
            elif args.json:
                try:
                    with open(args.json, "w") as out:
                        print(report.to_json(), file=out)
                except OSError as exc:
                    raise UsageError(f"cannot write --json {args.json}: {exc.strerror}") from None
            return 0 if report.ok else 1
        if args.command == "oeis":
            for index, value in oeis_fetch(args.sequence_id, cache_dir=args.cache_dir):
                print(f"{index} {value}")
            return 0
    except (ValueError, BudgetExceeded, SequenceNotFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # ConsistencyError or any other library fault
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


def entry() -> None:
    sys.exit(main())
