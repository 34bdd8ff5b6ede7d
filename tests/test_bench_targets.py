"""The benchmark's traced pass names only functions the package still has.

``perfbench/layer_trace.py`` wraps functions and methods of ``acigb`` by
name.  A rename in the package would otherwise surface only when a traced
benchmark pass fails; here it fails the test suite instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAYER_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layer_trace.py"


@pytest.fixture(scope="module")
def layer_trace():
    # no bytecode cache: loading the file leaves perfbench/ as it was
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("layer_trace", LAYER_TRACE)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def resolve(module: str, qualname: str):
    """The object the tracer replaces: a module attribute, or a method found
    in the class's own namespace, as ``layer_trace.install`` looks it up."""
    mod = importlib.import_module(f"acigb.{module}")
    if "." in qualname:
        cls_name, meth = qualname.split(".")
        return vars(getattr(mod, cls_name))[meth]
    return getattr(mod, qualname)


def test_every_traced_name_resolves(layer_trace):
    names = [(module, qualname) for module, qualname, _, _ in layer_trace.TARGETS]
    names += list(layer_trace.COUNTED)
    assert len(names) > 20
    missing = []
    for module, qualname in names:
        try:
            target = resolve(module, qualname)
        except (AttributeError, KeyError):
            missing.append(f"{module}.{qualname}")
            continue
        assert callable(getattr(target, "__func__", target)), (module, qualname)
    assert not missing, f"traced names missing from acigb: {missing}"

