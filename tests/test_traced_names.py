"""The benchmark's traced run rebinds polilean functions by name.

perfbench/layers.py lists them in SPANS and also wraps svm.Kernel.matrix
and polex.Lexicon.load; its counter hooks read some arguments by name
and unpack some results.  A rename or removal of any of them breaks
``perfbench/run.py --trace 1``; these tests fail first.  The file is read
as text, not imported, so nothing under perfbench/ is executed or
written.
"""

import ast
import importlib
import inspect
import os

import numpy as np

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


def _params(module: str, func: str) -> list[str]:
    assert func in _layers_constant("SPANS")[module], f"{module}.{func} is not traced"
    fn = getattr(importlib.import_module(f"polilean.{module}"), func)
    return list(inspect.signature(fn).parameters)


def test_hooked_arguments_keep_their_names():
    # each hook reads its first argument positionally or by this name
    for module, func, first in (
        ("pipeline", "user_feature_counts", "tweet_texts"),
        ("newsstudy", "project_features", "docs"),
        ("svm", "smo_train", "x"),
    ):
        assert _params(module, func)[0] == first, f"{module}.{func}"
    # the skip-gram hook binds these by name
    assert {"corpus", "window", "min_freq", "epochs"} <= set(_params("skipgram", "train_skipgram"))


def test_train_model_span_is_named_from_family():
    # the train_model span is named classify.train_model.<args[0]>
    assert _params("classify", "train_model")[0] == "family"


def test_recover_beta_returns_beta_and_residuals():
    from polilean.topics import recover_beta

    assert "recover_beta" in _layers_constant("SPANS")["topics"]
    q_row = np.array([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.4, 0.4, 0.2]])
    beta, residuals = recover_beta(q_row, [0, 1], np.array([0.4, 0.4, 0.2]))
    assert beta.shape == (2, 3)
    assert residuals.shape == (3,)
    assert float(residuals.max(initial=0.0)) >= 0.0
