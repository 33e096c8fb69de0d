"""Module boundaries: the one runtime dependency is numpy, normalization
stays in data.py, and data.py parses the rows of both CSV kinds with one
loadtxt call and cuts the windows of both with one function. The readers
of both CSV kinds and of a checkpoint parse their files through one helper,
every real FFT runs through one helper pair along the last axis, and one
JSON reader, which refuses a repeated key, parses every JSON document.

Most checks read the source: each module of the package imports only
itself, the standard library and numpy. The footprint guard runs the
program instead: a fresh interpreter imports etsfore and runs every
subcommand on tiny inputs, and every module that adds beyond what a bare
interpreter holds must come from the standard library, numpy or etsfore.
That also catches an import inside a function. scipy is a test dependency
only (the oracle of esa._next_fast_len): importing it would add 27 MB of
resident memory and about 0.35 s to every etsfore process.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "etsfore"
THIRD_PARTY = {"numpy"}


def imported_roots(tree: ast.AST):
    """(line, top-level module) of every absolute import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_stdlib_and_numpy():
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


# Runs in a fresh interpreter: snapshots sys.modules before anything else,
# runs every subcommand in-process on tiny inputs (plus EXTRA, a line of
# code), then prints the added modules that are outside the standard
# library, numpy and etsfore, and the subcommands' exit codes. The Cython
# runtime modules that numpy.random's compiled extensions register count
# as numpy's.
FOOTPRINT = """
import sys
before = set(sys.modules)
import contextlib, io, json, os, re, tempfile
import etsfore
from etsfore import cli
EXTRA
codes = []
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    synth, cfg, ckpt, plain = (os.path.join(tmp, n) for n in ("s.csv", "c.json", "m.etsf", "p.csv"))
    with open(cfg, "w") as fh:
        json.dump({"model": {"lookback": 12, "horizon": 4, "dim": 4, "ff_dim": 4, "layers": 1,
                             "heads": 1, "top_k": 1, "dropout": 0.1},
                   "train": {"epochs": 1, "warmup_epochs": 0, "batch_size": 8, "seed": 1}}, fh)
    with open(plain, "w") as fh:
        fh.write("a,b\\n" + "".join(f"{t % 4},{t / 7}\\n" for t in range(40)))
    model = ["--model", ckpt, "--data", synth]
    for argv in (["synth", "--out", synth, "--n", "20", "--lookback", "12", "--horizon", "4"],
                 ["train", "--config", cfg, "--data", synth, "--out", ckpt],
                 ["evaluate", *model], ["forecast", *model], ["decompose", *model],
                 ["baseline", "--data", plain, "--period", "4", "--grid", "2"],
                 ["bench-esa", "--lengths", "8,16", "--d", "2", "--repeats", "1"]):
        codes.append(cli.main(argv))
roots = sys.stdlib_module_names | {"numpy", "etsfore"}
added = sorted(m for m in set(sys.modules) - before if m.partition(".")[0] not in roots
               and not re.fullmatch("cython_runtime|_cython_[0-9_]+", m))
print(json.dumps({"outside": added, "codes": codes}))
"""


def footprint(extra: str = "") -> dict:
    """Modules outside stdlib + numpy that a run of every subcommand loads."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT.replace("EXTRA", extra)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return dict(json.loads(proc.stdout.splitlines()[-1]), stderr=proc.stderr)


def test_every_subcommand_loads_only_stdlib_numpy_and_etsfore():
    run = footprint()
    assert run["codes"] == [0] * 7, run["stderr"]
    assert run["outside"] == []


def test_an_import_inside_a_function_is_caught():
    outside = footprint("def f():\n    import scipy.fft\nf()")["outside"]
    assert "scipy" in outside and "scipy.fft" in outside


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


def test_one_window_cutter_for_both_dataset_kinds():
    # data.window_dataset builds every WindowPair in the package
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert sum(calls_to(tree, "WindowPair") for tree in trees.values()) == 1
    assert [(name, node.name) for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and calls_to(node, "WindowPair")] == [
        ("data.py", "window_dataset")]


def functions(tree: ast.AST) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_every_reader_parses_through_the_one_helper():
    # data._parse_once reads the file and parses each distinct content
    # once; a reader that opened the file itself would bypass it
    readers = {"data.py": ("load_csv", "read_synth_csv"), "trainer.py": ("load_checkpoint",)}
    for module, names in readers.items():
        defs = functions(ast.parse((PACKAGE / module).read_text(encoding="utf-8")))
        for name in names:
            assert (calls_to(defs[name], "open"), calls_to(defs[name], "_parse_once")) == (0, 1)


def test_a_reader_opening_its_file_is_caught():
    tree = ast.parse("def load_csv(path):\n    with open(path) as fh:\n        return fh.read()\n")
    assert calls_to(functions(tree)["load_csv"], "open") == 1


def fft_calls(tree: ast.AST, scope: str = "<module>"):
    """(innermost enclosing function, callee, axis) of every rfft/irfft call in tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call) and {"rfft", "irfft"} & {
                getattr(node.func, "id", None), getattr(node.func, "attr", None)}:
            axis = [ast.unparse(k.value) for k in node.keywords if k.arg == "axis"]
            yield scope, ast.unparse(node.func), axis[0] if axis else None
        yield from fft_calls(node, node.name if isinstance(node, ast.FunctionDef) else scope)


def test_every_real_fft_runs_through_the_helper_pair():
    # freq._rfft / freq._irfft fix the layout of every transform; each calls
    # np.fft by attribute, so bench/tracing.py's patch of np.fft counts it
    calls = [(path.name, *call) for path in sorted(PACKAGE.glob("*.py"))
             for call in fft_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert calls == [("freq.py", "_rfft", "np.fft.rfft", "-1"),
                     ("freq.py", "_irfft", "np.fft.irfft", "-1")]


def test_a_transform_outside_the_helper_pair_is_caught():
    tree = ast.parse("from numpy.fft import rfft\ndef f(x):\n    def g():\n"
                     "        return rfft(x, axis=-2)\n    return g()\ny = np.fft.irfft(x)\n")
    assert list(fft_calls(tree)) == [("g", "rfft", "-2"), ("<module>", "np.fft.irfft", None)]


def json_reads(tree: ast.AST, scope: str = "<module>"):
    """(innermost enclosing function, callee, object_pairs_hook or None) of
    every json.load/json.loads call in tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in {
                "json.load", "json.loads", "load", "loads"}:
            hook = [ast.unparse(k.value) for k in node.keywords if k.arg == "object_pairs_hook"]
            yield scope, ast.unparse(node.func), hook[0] if hook else None
        yield from json_reads(node, node.name if isinstance(node, ast.FunctionDef) else scope)


def test_every_json_read_refuses_repeated_keys():
    # model.read_json is the one reader of the run config, the checkpoint
    # header and the instance CSV's metadata row, and its hook refuses a
    # repeated key at any depth
    reads = [(path.name, *read) for path in sorted(PACKAGE.glob("*.py"))
             for read in json_reads(ast.parse(path.read_text(encoding="utf-8")))]
    assert reads == [("model.py", "read_json", "json.loads", "_unique_keys")]


def test_a_json_read_without_the_hook_is_caught():
    tree = ast.parse("json.loads(a)\nfrom json import load\ndef f(fh):\n"
                     "    return load(fh, object_pairs_hook=dict)\n"
                     "json.loads(b, object_pairs_hook=_unique_keys)\nnp.load(c)\n")
    assert list(json_reads(tree)) == [("<module>", "json.loads", None), ("f", "load", "dict"),
                                      ("<module>", "json.loads", "_unique_keys")]
