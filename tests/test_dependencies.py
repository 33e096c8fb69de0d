"""The runtime dependencies stay numpy + scipy: each module of the package
imports only itself, the standard library, numpy and scipy."""

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
