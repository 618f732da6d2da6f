"""Self-test of the benchmark's checks.

Usage, from the root of the repository:

    python3 walkbench/selftest.py

Runs one pass of each workload and requires that only the known failure
(`count A --r 3 --n 2000` in terms) is counted as failed.  Then it feeds the
checks copies of that pass with one output corrupted (a count off by one, a
flipped membership answer, a check report whose bytes or summary changed) and
requires each corrupted operation to be counted as failed and wrong.  Exits 1
if any requirement does not hold.
"""

from __future__ import annotations

import copy
import re
import sys

import run
from verify import Verifier

KEPT_FAILURES = {"check": set(), "terms": {"oversize"}, "words": set()}


def bump(text: str) -> str:
    """The integer in `text` plus one."""
    return str(int(text) + 1) + "\n"


def bump_term(index: int):
    def corrupt(text: str) -> str:
        values = text.strip().split(",")
        values[index] = str(int(values[index]) + 1)
        return ",".join(values) + "\n"
    corrupt.__name__ = f"bump_term({index})"
    return corrupt


def flip(text: str) -> str:
    return "0" if text == "1" else "1"


def bump_summary(text: str) -> str:
    return re.sub(r'"cells": (\d+)', lambda m: f'"cells": {int(m.group(1)) + 1}', text, count=1)


def shift_cell_n(text: str) -> str:
    """Same report text; in the JSON, the first cell's n is off by one."""
    return re.sub(r'"n": (\d+)', lambda m: f'"n": {int(m.group(1)) + 1}', text, count=1)


# workload -> [(operation id, corruption, number of clean passes checked first)]
CORRUPTIONS = {
    "check": [("check-default", bump_summary, 0), ("check-wide", shift_cell_n, 1)],
    "terms": [("closed-B1", bump, 0), ("dp-A3", bump, 0), ("series-E1", bump_term(20), 0),
              ("hyper-F3", bump, 0)],
    "words": [("naive", bump, 0), ("recognize-C-member", flip, 0), ("recognize-D-mutant", flip, 0),
              ("census", shift_cell_n, 1)],
}


def main() -> int:
    sys.set_int_max_str_digits(0)
    problems = []
    for workload, corruptions in CORRUPTIONS.items():
        runner = run.Runner(workload, seed=1)
        try:
            runner.warm_up()
            result, _ = runner.run_pass()
        finally:
            runner.close()
        if set(runner.failed) != KEPT_FAILURES[workload] or runner.wrong:
            problems.append(f"{workload}: clean pass failed {runner.failed}")
        index = {op["id"]: i for i, op in enumerate(runner.ops)}
        for op_id, corrupt, clean_passes in corruptions:
            verifier = Verifier(workload, run.ROOT, runner.verifier.expected_answers)
            for _ in range(clean_passes):
                verifier.check_pass(runner.ops, result["ops"])
            bad = copy.deepcopy(result["ops"])
            bad[index[op_id]]["out"] = corrupt(bad[index[op_id]]["out"])
            failed, wrong = verifier.check_pass(runner.ops, bad)
            verdict = "ok" if op_id in failed and op_id in wrong else "MISSED"
            print(f"{verdict}: {workload} {op_id} {corrupt.__name__}: {failed.get(op_id)}")
            if verdict != "ok":
                problems.append(f"{workload}: corrupted {op_id} not counted as failed")
            if not KEPT_FAILURES[workload] <= set(failed):
                problems.append(f"{workload}: kept failure missing under corruption of {op_id}")
    for problem in problems:
        print("FAIL:", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
