"""The functions the benchmark's tracer wraps still exist.

bench/tracing.py lists them in FUNCTIONS as (module, function, stats)
and wraps each as a module attribute of kanforge; a rename or deletion
would break `bench/run.py --trace 1`.  The list is read with ast, so
nothing under bench/ is imported."""

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_functions():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "FUNCTIONS"
                for t in node.targets):
            return [entry[:2] for entry in ast.literal_eval(node.value)]
    raise AssertionError("no FUNCTIONS list in %s" % TRACING)


def test_every_traced_function_exists():
    functions = traced_functions()
    assert functions
    missing = [(mod, fn) for mod, fn in functions
               if not callable(getattr(importlib.import_module(
                   "kanforge." + mod), fn, None))]
    assert missing == []
