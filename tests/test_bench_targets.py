"""What the benchmark relies on, checked by the test suite.

``perfbench/layer_trace.py`` wraps functions and methods of ``acigb`` by
name, and ``perfbench/catalogue.json`` pins the SHA-256 of every output the
benchmark runs.  A rename in the package, or a change of one output byte,
would otherwise surface only when a benchmark run fails; here it fails the
test suite instead.
"""

import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from acigb import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYER_TRACE = PERFBENCH / "layer_trace.py"
CATALOGUE = PERFBENCH / "catalogue.json"


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


def test_closed_form_pairs_replay(capsys):
    """Every job of the ``closed-form`` workload, run through ``cli.main`` as
    the benchmark's worker runs it, writes the bytes the catalogue pins: the
    60 jobs of the pairs and the three headline jobs, among them the golden
    ``gb --m eq:3:9 --k 3 --format json`` basis."""
    workload = json.loads(CATALOGUE.read_text())["closed-form"]
    jobs = [job for pair in workload["pairs"] for job in pair]
    assert len(jobs) == 60
    assert len(workload["headline"]) == 3
    jobs += workload["headline"]
    for job in jobs:
        code = cli.main(list(job["argv"]))
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), job["id"]
        assert hashlib.sha256(out.encode()).hexdigest() == job["sha256"], job["id"]


def test_wlp_modp_jobs_replay(capsys):
    """Every ``wlp-modp`` job, run through ``cli.main``, writes the bytes the
    catalogue pins: the oracle over F_p and the modular elimination, checked
    byte for byte."""
    jobs = json.loads(CATALOGUE.read_text())["wlp-modp"]["jobs"]
    assert len(jobs) == 10
    for job in jobs:
        code = cli.main(list(job["argv"]))
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), job["id"]
        assert hashlib.sha256(out.encode()).hexdigest() == job["sha256"], job["id"]
