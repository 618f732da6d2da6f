"""Static checks on the module layout.

A route that imports the routes it is checked against could start calling
them; these tests read each module's imports without running it.  The
benchmark's tracer looks functions up by module and name, so those names
must stay where it looks for them.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import hyperwalks
from hyperwalks import LanguageSpec, Word, parse_word, recognize

PACKAGE = Path(hyperwalks.__file__).parent


def imported_modules(module: str) -> set[str]:
    """Names of the hyperwalks modules that `module` imports, at any depth."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("hyperwalks."):
                found.add(node.module.split(".")[1])
            elif node.module == "hyperwalks":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("hyperwalks."):
                    found.add(alias.name.split(".")[1])
    return found


@pytest.mark.parametrize(
    "module,forbidden",
    [
        ("formulas", {"oracle", "automata", "bijection"}),
        ("series", {"formulas", "oracle", "automata", "bijection"}),
        ("oracle", {"formulas", "series", "bijection"}),
        ("bijection", {"formulas", "series", "oracle"}),
        ("automata", {"formulas", "series", "oracle", "bijection"}),
    ],
)
def test_route_does_not_import_the_routes_it_is_checked_against(module, forbidden):
    assert imported_modules(module) & forbidden == set()


def names_used(module: str, function: str) -> set[str]:
    """Names read in `function` and in the private module functions it calls, at any depth."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found, pending = set(), [function]
    while pending:
        name = pending.pop()
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name) and node.id not in found:
                found.add(node.id)
                if node.id.startswith("_") and node.id in defs:
                    pending.append(node.id)
    return found


def test_closed_form_calls_no_other_formula_route():
    # closed_form shares its module with the routes it is checked against,
    # so the import rule above cannot see whether it calls them.
    routes = {
        "recurrence_seq", "recurrence_spec", "_unroll",
        "hyper_terminating", "hyper_parameters", "hyper_form",
    }
    assert names_used("formulas", "closed_form") & routes == set()
    assert {"_unroll", "recurrence_spec"} <= names_used("formulas", "recurrence_seq")


def test_census_calls_no_other_counting_route():
    # naive_census shares its module with the DP it is checked against, so
    # the import rule above cannot see whether it calls the DP.
    oracle = importlib.import_module("hyperwalks.oracle")
    routes = {name for name in vars(oracle) if name.startswith("count_dp")}
    routes |= {"_walk_layers", "enumerate_words", "recognize"}
    assert names_used("oracle", "naive_census") & routes == set()
    assert "_prefixes" in names_used("oracle", "naive_census")
    assert "_walk_layers" in names_used("oracle", "count_dp_seq")


def test_path_count_does_not_walk_the_enumerated_tree():
    # verify_bijection compares the path enumerator with count_E_double_prime;
    # a count that ran the enumerator's walker or children rule would make
    # that comparison vacuous.
    enumerators = {"enumerate_domain_walks", "enumerate_diagonal_paths"}
    shared = enumerators | {"_depth_first", "_path_error", "phi", "phi_inverse"}
    assert names_used("bijection", "count_E_double_prime") & shared == set()
    for enumerator in enumerators:
        assert "_depth_first" in names_used("bijection", enumerator)


def test_import_scan_sees_relative_imports():
    assert {"core", "automata"} <= imported_modules("oracle")
    assert "formulas" in imported_modules("checks")


def test_checks_binds_no_route_function():
    # checks looks every route function up through its module at call time,
    # so a replaced module attribute reaches every suite; only constants
    # may be imported by name.
    tree = ast.parse((PACKAGE / "checks.py").read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        and node.module.split(".")[-1] in {"formulas", "series", "oracle", "bijection"}
        for alias in node.names
    ]
    assert "DEFAULT_BUDGET" in names
    assert [name for name in names if not name.isupper()] == []


def test_library_imports_only_the_stdlib_and_declared_dependencies():
    # A package that is installed in a development environment but not declared
    # (sympy, say) would pass every other test and fail only on a clean install.
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())
    declared = {re.match(r"[\w.-]+", dep)[0].replace("-", "_").lower()
                for dep in pyproject["project"]["dependencies"]}
    allowed = set(sys.stdlib_module_names) | {"hyperwalks"} | declared
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def test_all_is_sorted_unique_and_resolves():
    names = hyperwalks.__all__
    assert list(names) == sorted(set(names))
    for name in names:
        getattr(hyperwalks, name)


def test_library_has_no_assert():
    # every invariant raises ConsistencyError, which python -O keeps
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


def traced_functions() -> tuple[tuple[str, str], ...]:
    """The (module, function) pairs walkbench/spans.py wraps with `--trace 1`."""
    spans = Path(__file__).resolve().parents[1] / "walkbench" / "spans.py"
    for node in ast.parse(spans.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("walkbench/spans.py defines no TRACED")


@pytest.mark.parametrize("module,function", traced_functions())
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"hyperwalks.{module}"), function, None))


def test_recognize_reads_its_steps_through_word_iteration(monkeypatch):
    # The tracer counts automata.recognize.steps by wrapping Word.__iter__, so
    # the machine and the pattern scan must each iterate the word itself.
    original = Word.__iter__
    read = []

    def counted(w):
        for step in original(w):
            read.append(step)
            yield step

    monkeypatch.setattr(Word, "__iter__", counted)
    # ++,-- ends on the hyperplane, and its second step backtracks
    assert not recognize(LanguageSpec("B", 1), parse_word("++,--", 1))
    assert len(read) == 4  # 2 for the machine, 2 for the pattern scan
