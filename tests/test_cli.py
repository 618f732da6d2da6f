import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import hyperwalks
import hyperwalks.bijection as bijection_module
import hyperwalks.formulas as formulas_module
import hyperwalks.oracle as oracle_module
import hyperwalks.series as series_module
from hyperwalks import ConsistencyError
from hyperwalks.cli import main
from hyperwalks.checks import ROUTES, CheckCell, CheckReport, run_check
from hyperwalks.formulas import recurrence_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_closed(capsys):
    code, out, _ = run(capsys, "count", "B", "--r", "1", "--n", "2", "--method", "closed")
    assert code == 0
    assert out.strip() == "28"


def test_count_dp(capsys):
    code, out, _ = run(capsys, "count", "D", "--r", "1", "--n", "3", "--method", "dp")
    assert code == 0
    assert out.strip() == "320"


def test_count_language_flag_spelling(capsys):
    # The language is a required positional argument: missing, like a missing --r, it is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["count", "--r", "1", "--n", "2"])
    assert exc.value.code == 2
    assert "language" in capsys.readouterr().err


def test_count_recurrence_r0(capsys):
    code, out, _ = run(capsys, "count", "E", "--r", "0", "--n", "5", "--method", "recurrence")
    assert code == 0
    assert out.strip() == "0"


def test_count_all_methods_agree(capsys):
    values = set()
    for method in ROUTES:
        code, out, _ = run(capsys, "count", "F", "--r", "1", "--n", "3", "--method", method)
        assert code == 0
        values.add(out.strip())
    assert values == {"116"}


def test_count_usage_errors(capsys):
    code, _, err = run(capsys, "count", "A", "--r", "1", "--n", "2", "--method", "hyper")
    assert code == 2
    assert "hyper" in err
    code, _, err = run(capsys, "count", "B", "--r", "0", "--n", "1", "--method", "hyper")
    assert code == 2
    code, _, err = run(capsys, "count", "A", "--r", "2", "--n", "9", "--method", "naive")
    assert code == 2
    assert "budget" in err


def test_count_naive_refusal_is_short(capsys):
    code, _, err = run(capsys, "count", "B", "--r", "1", "--n", "100000", "--method", "naive")
    assert code == 2
    assert "budget" in err
    assert len(err) < 200


requires_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no integer printing limit"
)


@requires_digit_limit
def test_count_prints_any_size(capsys):
    code, out, _ = run(capsys, "count", "A", "--r", "3", "--n", "2000")
    assert code == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert out.strip() == str(2 ** (6 * 2000) * comb(4000, 2000))
    finally:
        sys.set_int_max_str_digits(limit)


@requires_digit_limit
def test_count_restores_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        run(capsys, "count", "A", "--r", "3", "--n", "2000")
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_consistency_error_exits_3(capsys, monkeypatch):
    def broken(spec, n):
        raise ConsistencyError("corrupted")

    monkeypatch.setattr(formulas_module, "closed_form", broken)
    code, _, err = run(capsys, "count", "A", "--r", "1", "--n", "2")
    assert code == 3
    assert "corrupted" in err


def test_series_csv(capsys):
    code, out, _ = run(capsys, "series", "F", "--r", "1", "--terms", "4", "--format", "csv")
    assert code == 0
    assert out.strip() == "1,4,20,116"


def test_series_csv_r0(capsys):
    code, out, _ = run(capsys, "series", "C", "--r", "0", "--terms", "4")
    assert code == 0
    assert out.strip() == "1,2,2,2"


def test_series_bfile(capsys):
    code, out, _ = run(capsys, "series", "A", "--r", "1", "--terms", "3", "--format", "bfile")
    assert code == 0
    assert out == "0 1\n1 8\n2 96\n"


def test_series_json(capsys):
    code, out, _ = run(capsys, "series", "B", "--r", "1", "--terms", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[2] == {"language": "B", "r": 1, "n": 2, "method": "series", "value": "28"}


@pytest.mark.parametrize("fmt", ["csv", "json", "bfile"])
def test_series_negative_coefficient_exits_3(capsys, monkeypatch, fmt):
    good = series_module.gf_series
    monkeypatch.setattr(series_module, "gf_series", lambda spec, n: good(spec, n)[:-1] + (-1,))
    code, out, err = run(capsys, "series", "B", "--r", "1", "--terms", "4", "--format", fmt)
    assert code == 3
    assert out == ""
    assert "-1" in err


def test_series_rejects_zero_terms(capsys):
    code, _, err = run(capsys, "series", "B", "--r", "1", "--terms", "0")
    assert code == 2


def test_check_green_path(capsys):
    code, out, _ = run(
        capsys, "check", "--r", "1..2", "--n-max", "6", "--suites", "methods,ratios"
    )
    assert code == 0
    assert "OK" in out
    assert "0 disagreements" in out.splitlines()[-1]


def test_check_bijection_suite(capsys):
    code, out, _ = run(capsys, "check", "--suites", "bijection", "--n-max", "4")
    assert code == 0
    assert "[bijection]" in out


def test_check_json_deterministic(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        code, _, _ = run(
            capsys, "check", "--r", "1..1", "--n-max", "5",
            "--suites", "methods,symmetry", "--json", str(path),
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "flag,value",
    [("--n-max", "-1"), ("--r", "1.."), ("--r", "x"), ("--r", "2..1"), ("--suites", ""),
     ("--suites", ",")],
)
def test_check_rejects_bad_input(capsys, flag, value):
    code, out, err = run(capsys, "check", flag, value)
    assert code == 2
    assert out == ""
    assert flag in err


def test_check_unwritable_json_is_bad_input(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "check", "--n-max", "2", "--json", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert str(path) in err


def _plus_one_last(values):
    return values[:-1] + (values[-1] + 1,)


# Each route's module attribute and a corruption of what it returns.
CORRUPTIONS = {
    "closed": (formulas_module, "closed_form", lambda value: value + 1),
    "hyper": (formulas_module, "hyper_form", lambda value: value + 1),
    "recurrence": (formulas_module, "recurrence_seq", _plus_one_last),
    "dp": (oracle_module, "count_dp_seq", _plus_one_last),
    "series": (series_module, "gf_series", _plus_one_last),
    "naive": (oracle_module, "naive_census", lambda census: {**census, "C": census["C"] + 1}),
}


@pytest.mark.parametrize("route", ROUTES)
def test_check_detects_each_corrupted_route(capsys, monkeypatch, route):
    module, name, corrupt = CORRUPTIONS[route]
    good = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: corrupt(good(*args)))
    code, out, _ = run(capsys, "check", "--r", "1", "--n-max", "4", "--suites", "methods")
    assert code == 1
    assert "FAIL" in out


def _first_step_tables_plus_one(table, spec, n_max, first=None):
    return table if first is None else _plus_one_last(table)


# Each suite's own route function, a corruption of what it returns given the
# call's arguments, and a check that runs the suite.
SUITE_CORRUPTIONS = {
    "symmetry": (oracle_module, "count_dp_seq", _first_step_tables_plus_one,
                 ("--r", "1", "--n-max", "3")),
    "ratios": (formulas_module, "cross_ratio_check", lambda found, *_: found + ("corrupted",),
               ("--r", "1", "--n-max", "4")),
    "bijection": (bijection_module, "verify_bijection", lambda found, *_: found + ("corrupted",),
                  ("--n-max", "2")),
    "asymptotics": (series_module, "asymptotic_ratio", lambda ratio, *_: ratio * 1.1, ("--r", "1")),
}


@pytest.mark.parametrize("suite", SUITE_CORRUPTIONS)
def test_check_detects_each_corrupted_suite_function(capsys, monkeypatch, suite):
    module, name, corrupt, argv = SUITE_CORRUPTIONS[suite]
    good = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda *args, **kwargs: corrupt(good(*args, **kwargs), *args)
    )
    code, out, _ = run(capsys, "check", "--suites", suite, *argv)
    assert code == 1
    assert f"[{suite}]" in out
    assert "FAIL" in out


def test_symmetry_suite_detects_a_corrupted_total(capsys, monkeypatch):
    # The total comes from the table without a first step, never from the sum
    # of the first-step tables, so corrupting that table alone fails the suite.
    good = oracle_module.count_dp_seq

    def corrupted(spec, n_max, first=None):
        table = good(spec, n_max, first)
        return table if first is not None else _plus_one_last(table)

    monkeypatch.setattr(oracle_module, "count_dp_seq", corrupted)
    code, out, _ = run(capsys, "check", "--suites", "symmetry", "--r", "1", "--n-max", "3")
    assert code == 1
    assert "FAIL B r=1 n=3 first-step-split" in out


@pytest.mark.parametrize("corrupt", [
    lambda rho, alpha, constant: (rho, alpha, -constant),  # a negative estimate
    lambda rho, alpha, constant: (rho * Fraction(9, 10), alpha, constant),  # 1/9 to 1/10
], ids=["constant-sign", "rho"])
def test_check_detects_corrupted_asymptotic_form(capsys, monkeypatch, corrupt):
    good = series_module.asymptotic_form
    monkeypatch.setattr(series_module, "asymptotic_form", lambda spec: corrupt(*good(spec)))
    code, out, _ = run(capsys, "check", "--suites", "asymptotics", "--r", "1")
    assert code == 1
    assert "FAIL" in out


def test_check_report_format():
    report = CheckReport((
        CheckCell("methods", "B", 1, 2, "closed-vs-dp", True),
        CheckCell("ratios", "B", 1, 3, "b-vs-c-and-e-vs-f", False, ("28", "29")),
    ))
    assert not report.ok
    assert report.render() == (
        "[methods] 1 cells, 0 disagreements\n"
        "[ratios] 1 cells, 1 disagreements\n"
        "  FAIL B r=1 n=3 b-vs-c-and-e-vs-f values=['28', '29']\n"
        "FAIL: 2 cells checked, 1 disagreements"
    )
    assert report.to_json() == """{
  "cells": [
    {
      "agree": true,
      "detail": "closed-vs-dp",
      "language": "B",
      "n": 2,
      "r": 1,
      "suite": "methods",
      "values": []
    },
    {
      "agree": false,
      "detail": "b-vs-c-and-e-vs-f",
      "language": "B",
      "n": 3,
      "r": 1,
      "suite": "ratios",
      "values": [
        "28",
        "29"
      ]
    }
  ],
  "summary": {
    "cells": 2,
    "disagreements": 1
  }
}"""


def test_optimized_interpreter_catches_corrupted_recurrence_start():
    # Under python -O asserts vanish; the initial-condition guard must not.
    script = """
import dataclasses, sys
import hyperwalks.formulas as formulas
from hyperwalks.cli import main

if __debug__:
    sys.exit("not running under -O")
good = formulas.recurrence_spec

def corrupted(spec):
    rs = good(spec)
    if not rs.initial:
        return rs
    return dataclasses.replace(rs, initial=(rs.initial[0] + 1,) + rs.initial[1:])

formulas.recurrence_spec = corrupted
sys.exit(main(["check", "--r", "1", "--n-max", "5", "--suites", "methods"]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(hyperwalks.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 1, proc.stderr
    assert "recurrence error" in proc.stdout


def test_check_detects_corrupted_initial_condition(capsys, monkeypatch):
    good = recurrence_spec.__wrapped__ if hasattr(recurrence_spec, "__wrapped__") else recurrence_spec

    def corrupted(spec):
        rs = good(spec)
        if spec.id == "C" and spec.r == 1:
            return dataclasses.replace(rs, initial=(rs.initial[0], rs.initial[1] + 2))
        return rs

    monkeypatch.setattr(formulas_module, "recurrence_spec", corrupted)
    code, out, _ = run(capsys, "check", "--r", "1..1", "--n-max", "5", "--suites", "methods")
    assert code == 1
    assert "FAIL" in out


def test_run_check_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_check([1], 5, ("nonsense",))
    with pytest.raises(ValueError):
        run_check([1], 5, ())


@pytest.mark.parametrize(
    "argv",
    [
        ("--n-max", "0", "--suites", "bijection"),
        ("--r", "3", "--suites", "asymptotics"),
        ("--r", "0", "--suites", "ratios"),
        ("--r", "1", "--n-max", "0", "--suites", "symmetry"),
    ],
)
def test_check_with_no_cell_is_bad_input(capsys, argv):
    code, out, err = run(capsys, "check", *argv)
    assert code == 2
    assert out == ""
    assert "no cell" in err


def test_check_with_no_cell_leaves_json_path_alone(capsys, tmp_path):
    kept = tmp_path / "kept.json"
    kept.write_text("earlier report\n")
    fresh = tmp_path / "fresh.json"
    for path in (kept, fresh):
        code, out, _ = run(capsys, "check", "--n-max", "0", "--suites", "bijection",
                           "--json", str(path))
        assert (code, out) == (2, "")
    assert kept.read_text() == "earlier report\n"
    assert not fresh.exists()


def test_check_r0_default_suites_has_cells(capsys):
    code, out, _ = run(capsys, "check", "--r", "0")
    assert code == 0
    assert out.splitlines()[0].startswith("[methods]")
    assert not out.startswith("[methods] 0 cells")


def test_unexpected_library_exception_exits_3(capsys):
    # at r = 62 the DP's 2^63-letter alphabet overflows before any work
    code, out, err = run(capsys, "count", "A", "--r", "62", "--n", "1", "--method", "dp")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: OverflowError: ")
    assert len(err.splitlines()) == 1


def test_count_recurrence_negative_term_exits_3(capsys, monkeypatch):
    good = recurrence_spec

    def negated(spec):
        rs = good(spec)
        return dataclasses.replace(rs, back1=lambda n: -rs.back1(n))

    monkeypatch.setattr(formulas_module, "recurrence_spec", negated)
    code, out, err = run(capsys, "count", "A", "--r", "1", "--n", "3", "--method", "recurrence")
    assert code == 3
    assert out == ""
    assert "negative" in err


def test_oeis_subcommand(capsys):
    code, out, _ = run(capsys, "oeis", "A086871")
    assert code == 0
    assert out.splitlines()[0] == "1 2"
    code, _, err = run(capsys, "oeis", "A000000")
    assert code == 2
    assert "A000000" in err


def test_oeis_cache_dir_that_is_a_file(capsys, tmp_path):
    # the cache is only read, so a path that cannot hold it falls back to the bundle
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    code, out, _ = run(capsys, "oeis", "A086871", "--cache-dir", str(not_a_dir))
    assert code == 0
    assert out.splitlines()[:2] == ["1 2", "2 10"]
    assert not_a_dir.read_text() == ""
