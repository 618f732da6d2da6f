"""Checks of one pass's outputs, made apart from the program.

`Verifier.check_pass` returns, for each operation that failed, the reason.  An
operation fails when it exits with another code than 0 (an error), or when its
output is wrong: it disagrees with a value computed here, with another
operation's output where the two must agree, or with the same operation's
output in an earlier pass of the run.  Wrong outputs are also listed apart, so
that a run can report `correct: false` for them.

References: A and D counts from math.comb; the paper's identities
2^r b_n = (2^r - 1) c_n and 2^r e_n = (2^r - 1) f_n; the bundled OEIS b-file
A086871 for E at r = 1, read and parsed here; and a brute-force membership test
(prefix sums and adjacent pairs) for the naive count and every long word.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from math import comb
from pathlib import Path

import workloads as W

A086871 = Path("src") / "hyperwalks" / "fixtures" / "b086871.txt"
VERDICT = re.compile(r"^OK: (\d+) cells checked, 0 disagreements$")
SUITE_LINE = re.compile(r"^\[(\w+)\] (\d+) cells, 0 disagreements$")


def count_a(r: int, n: int) -> int:
    return 2 ** (2 * n * r) * comb(2 * n, n)


def count_d(r: int, n: int) -> int:
    return 2 ** (2 * n * r) * comb(2 * n, n) // (n + 1)


def read_bfile(path: Path) -> dict[int, int]:
    entries = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            index, value = line.split()
            entries[int(index)] = int(value)
    return entries


def brute_force_count(language: str, r: int, n: int) -> int:
    alphabet = list(itertools.product((1, -1), repeat=r + 1))
    return sum(W.is_member(language, list(word)) for word in itertools.product(alphabet, repeat=2 * n))


class Verifier:
    """Checks for one workload; remembers each check report's bytes across passes."""

    def __init__(self, workload: str, root: Path, expected_answers: dict[str, bool] | None = None):
        self.workload = workload
        self.expected_answers = expected_answers or {}
        self.report_digests: dict[str, str] = {}
        if workload == "terms":
            self.oeis = read_bfile(root / A086871)
        if workload == "words":
            self.naive_count = brute_force_count(*W.NAIVE)

    def check_pass(self, ops: list[dict], results: list[dict]) -> tuple[dict[str, str], set[str]]:
        """(reason of every failed operation by id, ids of the wrong outputs)."""
        errors = {op["id"]: f"exit {res['code']}: {res['err'].strip()[:200]}"
                  for op, res in zip(ops, results) if res["code"] != 0}
        outputs = {op["id"]: res["out"] for op, res in zip(ops, results) if res["code"] == 0}
        wrong: dict[str, str] = {}
        check = getattr(self, "_check_" + self.workload)
        for op_ids, reason in check(ops, outputs):
            for op_id in op_ids:
                if op_id in outputs:
                    wrong.setdefault(op_id, reason)
        return {**errors, **wrong}, set(wrong)

    # -- check ---------------------------------------------------------------

    def _check_check(self, ops, outputs):
        yield from self._report(outputs, "check-default", ("methods", "ratios"), (1, 2), 20)
        yield from self._report(outputs, "check-wide",
                                ("methods", "ratios", "symmetry", "asymptotics"), (1, 2, 3), 40)

    def _report(self, outputs, op_id, suites, r_values, n_max, required=()):
        """A check report: OK with 0 disagreements, every cell agrees, the JSON
        matches the text, the methods suite compares closed form with the
        recurrence on every cell, and the bytes repeat across passes."""
        if op_id not in outputs:
            return
        out = outputs[op_id]
        split = out.find("\n{")
        if split < 0:
            yield [op_id], "no JSON report in the output"
            return
        text, report_json = out[:split].splitlines(), out[split + 1:]
        verdict = VERDICT.match(text[-1]) if text else None
        if not verdict or not all(SUITE_LINE.match(line) for line in text[:-1]):
            yield [op_id], f"report text is not all OK: {text[-1:]}"
            return
        try:
            report = json.loads(report_json)
        except ValueError as exc:
            yield [op_id], f"JSON report does not parse: {exc}"
            return
        cells = report.get("cells", [])
        if report.get("summary") != {"cells": len(cells), "disagreements": 0} \
                or len(cells) != int(verdict.group(1)):
            yield [op_id], f"summary {report.get('summary')} does not match {len(cells)} cells"
        if not all(cell["agree"] for cell in cells):
            yield [op_id], "a JSON cell does not agree"
        if {cell["suite"] for cell in cells} != set(suites):
            yield [op_id], f"suites {sorted({c['suite'] for c in cells})} are not {list(suites)}"
        present = {(c["detail"], c["language"], c["r"], c["n"]) for c in cells}
        if "methods" in suites:
            required = [("closed-vs-recurrence", lid, r, n)
                        for lid in W.LANGUAGES for r in r_values for n in range(n_max + 1)] + list(required)
        missing = [key for key in required if key not in present]
        if missing:
            yield [op_id], f"{len(missing)} required cells missing, e.g. {missing[0]}"
        digest = hashlib.sha256(report_json.encode()).hexdigest()
        if self.report_digests.setdefault(op_id, digest) != digest:
            yield [op_id], "JSON report differs from the run's first pass"

    # -- terms ---------------------------------------------------------------

    def _check_terms(self, ops, outputs):
        values: dict[str, object] = {}
        for op in ops:
            out = outputs.get(op["id"])
            if out is None:
                continue
            try:
                if op["id"].startswith("series"):
                    values[op["id"]] = [int(v) for v in out.strip().split(",")]
                elif op["id"].startswith("bfile"):
                    values[op["id"]] = [(int(i), int(v)) for i, v in map(str.split, out.strip().splitlines())]
                else:
                    values[op["id"]] = int(out.strip())
            except ValueError:
                yield [op["id"]], "output does not parse as integers"

        for r in W.TERMS_R:
            for lid in W.LANGUAGES:
                cell = f"{lid}{r}"
                series = f"series-{cell}"
                if series in values and (len(values[series]) != W.SERIES_TERMS or values[series][0] != 1):
                    yield [series], f"series has {len(values[series])} terms, not {W.SERIES_TERMS} from 1"
                    continue
                # (series or count op, count op, series index): the two must agree.
                pairs = [(f"closed-{cell}", f"recurrence-{cell}", None), (series, f"dp-{cell}", W.DP_N)]
                if lid not in "AD":
                    pairs.append((series, f"hyper-{cell}", W.HYPER_N))
                for id_a, id_b, n in pairs:
                    if id_a in values and id_b in values:
                        value = values[id_a] if n is None else values[id_a][n]
                        if value != values[id_b]:
                            yield [id_a, id_b], f"{id_a} != {id_b}"
            for lid, reference in (("A", count_a), ("D", count_d)):
                cell = f"{lid}{r}"
                for kind, n in (("closed", W.BIG_N), ("recurrence", W.BIG_N), ("dp", W.DP_N)):
                    op_id = f"{kind}-{cell}"
                    if op_id in values and values[op_id] != reference(r, n):
                        yield [op_id], f"{lid} at r={r} n={n} is not the math.comb value"
                series = values.get(f"series-{cell}")
                if series and series != [reference(r, n) for n in range(len(series))]:
                    yield [f"series-{cell}"], f"series of {lid} at r={r} is not the math.comb values"
            q = 2 ** r
            for b, c in (("B", "C"), ("E", "F")):
                for kind in ("closed", "hyper", "dp", "series"):
                    id_b, id_c = f"{kind}-{b}{r}", f"{kind}-{c}{r}"
                    if id_b not in values or id_c not in values:
                        continue
                    vb, vc = values[id_b], values[id_c]
                    pairs = zip(vb[1:], vc[1:]) if kind == "series" else [(vb, vc)]
                    if any(q * x != (q - 1) * y for x, y in pairs):
                        yield [id_b, id_c], f"2^r {b.lower()}_n != (2^r-1) {c.lower()}_n at r={r}"

        series_e1 = values.get("series-E1")
        if series_e1 and any(series_e1[n] != v for n, v in self.oeis.items() if n < len(series_e1)):
            yield ["series-E1"], "E at r=1 differs from b-file A086871"
        bfile = values.get("bfile-E1")
        if bfile is not None:
            if [i for i, _ in bfile] != list(range(W.SERIES_TERMS)):
                yield ["bfile-E1"], "b-file output indices are not 0..terms-1"
            elif any(bfile[n][1] != v for n, v in self.oeis.items() if n < len(bfile)):
                yield ["bfile-E1"], "b-file output differs from b-file A086871"
            elif series_e1 and [v for _, v in bfile] != series_e1:
                yield ["bfile-E1", "series-E1"], "b-file output differs from the csv series"
        lid, r, n = W.OVERSIZE
        if "oversize" in values and values["oversize"] != count_a(r, n):
            yield ["oversize"], f"A at r={r} n={n} is not the math.comb value"

    # -- words ---------------------------------------------------------------

    def _check_words(self, ops, outputs):
        if "naive" in outputs and outputs["naive"].strip() != str(self.naive_count):
            yield ["naive"], f"naive count is not the brute-force count {self.naive_count}"
        for op_id, member in self.expected_answers.items():
            if op_id in outputs and outputs[op_id] != ("1" if member else "0"):
                yield [op_id], f"recognize answered {outputs[op_id]}, brute force says {int(member)}"
        yield from self._report(outputs, "bijection", ("bijection",), (1,), 6,
                                [("round-trip", "E", 1, n) for n in range(1, 7)])
        yield from self._report(outputs, "census", ("methods",), (2,), 4,
                                [("closed-vs-naive", lid, 2, n) for lid in W.LANGUAGES for n in range(1, 5)])
