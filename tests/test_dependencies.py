"""Module boundaries, read from the source: the runtime dependencies stay
numpy + scipy (each module of the package imports only itself, the standard
library, numpy and scipy), normalization stays in data.py, and data.py
parses the rows of both CSV kinds with one loadtxt call."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "etsfore"
THIRD_PARTY = {"numpy", "scipy"}


def imported_roots(tree: ast.AST):
    """(line, top-level module) of every absolute import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_stdlib_numpy_and_scipy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    outside = [
        f"{path.name}:{line}: {root}"
        for path in modules
        for line, root in imported_roots(ast.parse(path.read_text(encoding="utf-8")))
        if root not in sys.stdlib_module_names and root not in THIRD_PARTY
    ]
    assert outside == []


def test_a_third_party_import_is_caught():
    tree = ast.parse("import numpy.linalg\nfrom . import data\nfrom pandas import Series\n")
    assert list(imported_roots(tree)) == [(1, "numpy"), (3, "pandas")]


def named(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name in tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_cli_leaves_normalization_to_data():
    # split_windows alone picks and applies the statistics
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert named(tree) & {"normalize", "compute_stats"} == set()


def test_a_normalization_call_is_caught():
    tree = ast.parse("from .data import compute_stats\ndata.normalize(x, s)\n")
    assert {"normalize", "compute_stats"} <= named(tree)


def calls_to(tree: ast.AST, name: str) -> int:
    """How many calls in tree are to a function or method named name."""
    return sum(
        isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(tree)
    )


def test_one_row_parser_for_both_csv_kinds():
    # data._loadtxt parses plain and instance rows alike; a csv reader or a
    # second loadtxt call would be a second number grammar
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    assert sum(calls_to(tree, "loadtxt") for tree in trees) == 1
    assert all(named(tree).isdisjoint({"reader", "DictReader"}) for tree in trees)


def test_a_second_row_parser_is_caught():
    tree = ast.parse("np.loadtxt(a)\nloadtxt(b)\nrows = csv.reader(fh)\n")
    assert calls_to(tree, "loadtxt") == 2
    assert "reader" in named(tree)
