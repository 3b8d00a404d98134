"""The benchmark's tracer and sweep checks find every name they wrap.

``perfbench/spans.py`` and ``perfbench/checks.py`` look names up in the
package at run time; a renamed or deleted name would only show as an
AttributeError in a traced benchmark run.  They are imported here as they
are, from the repository root.
"""

import importlib.util
import pathlib

import pytest

from khessian import verify

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def layer_table():
    return _load("spans").layer_table()


def test_every_traced_layer_resolves(layer_table):
    assert layer_table
    for name, owner, attr, _ in layer_table:
        if isinstance(owner, dict):
            assert attr in owner, name
        elif isinstance(owner, type):
            assert attr in vars(owner), name
        else:
            assert callable(getattr(owner, attr, None)), name


def test_every_tapped_name_is_in_verify():
    tapped = _load("checks").TAPPED
    assert tapped
    for name in tapped:
        assert callable(getattr(verify, name, None)), name
