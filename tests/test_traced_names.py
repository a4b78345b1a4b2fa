"""The benchmark's traced run rebinds polilean functions by name.

perfbench/layers.py lists them in SPANS and also wraps svm.Kernel.matrix
and polex.Lexicon.load.  A rename or removal of any of them breaks
``perfbench/run.py --trace 1``; this test fails first.  The file is read
as text, not imported, so nothing under perfbench/ is executed or
written.
"""

import ast
import importlib
import inspect
import os

LAYERS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layers.py")


def _layers_constant(name: str):
    with open(LAYERS) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in perfbench/layers.py")


def test_every_module_imports():
    for module in _layers_constant("MODULES"):
        importlib.import_module(f"polilean.{module}")


def test_every_span_resolves_to_a_function():
    missing = []
    for module, funcs in _layers_constant("SPANS").items():
        mod = importlib.import_module(f"polilean.{module}")
        for func in funcs:
            if not inspect.isfunction(getattr(mod, func, None)):
                missing.append(f"{module}.{func}")
    assert not missing, f"traced names no longer resolve: {missing}"


def test_wrapped_methods_resolve():
    from polilean.polex import Lexicon
    from polilean.svm import Kernel

    assert inspect.isfunction(Kernel.matrix)
    assert inspect.ismethod(Lexicon.load) and Lexicon.load.__self__ is Lexicon
