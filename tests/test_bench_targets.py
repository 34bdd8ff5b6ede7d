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
import subprocess
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


# Run in a fresh interpreter, so the wrappers that ``install`` puts on acigb
# never reach another test; -B leaves perfbench/ without a bytecode cache.
TRACED_GB = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layer_trace
from acigb import cli
tracer = layer_trace.Tracer()
layer_trace.install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[3:])
json.dump({"code": code, **tracer.aggregates()}, sys.stdout)
"""


@pytest.mark.parametrize("fmt, writer", [("json", "poly_to_json"), ("text", "poly_to_text")])
def test_layer_counters_count_the_golden_basis(fmt, writer):
    """The per-layer counters of the golden basis keep counting: one writer
    call per element and one build per critical monomial, through whatever
    the writers are called from."""
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["gb", "--m", "eq:3:9", "--k", "3", "--format", fmt]
    done = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_GB, str(PERFBENCH), str(src), *argv],
        capture_output=True, text=True, timeout=120, check=True,
    )
    stats = json.loads(done.stdout)
    other = "poly_to_text" if writer == "poly_to_json" else "poly_to_json"
    assert stats["code"] == 0
    assert stats[f"algebra.{writer}.calls"] == 394
    assert stats[f"algebra.{other}.calls"] == 0
    assert stats["closed_form.build_gs_divisor_form.calls"] == 385
