"""The benchmark's tracer patches nakul from outside; its patch points must exist.

perfbench/spans.py names module attributes to wrap and, for each mixing
branch, the positional index of the mixed input. A refactor that renames
a function or moves `x` would otherwise surface only in the benchmark's
own self-test. The file is loaded, never changed.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    for part in attr.split("."):  # "Class.method" patches the class attribute
        owner = getattr(owner, part)
    return owner


def test_every_span_resolves(spans):
    for module, attr, _, _ in spans.SPANS:
        assert module.split(".")[0] == "nakul", module
        assert callable(resolve(module, attr)), (module, attr)


def test_branch_input_positions_name_x(spans):
    by_span = {name: (module, attr) for module, attr, name, _ in spans.SPANS}
    assert set(spans.BRANCH_INPUT) <= set(by_span)
    for name, pos in spans.BRANCH_INPUT.items():
        params = list(inspect.signature(resolve(*by_span[name])).parameters)
        assert params[pos] == "x", (name, params)
