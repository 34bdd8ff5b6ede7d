"""The modules of the package import each other without a cycle, none of
them computes with floats, no module of the package or the tests imports a
name it never reads, only the two antichain producers build a
``MonomialIdeal``, standard monomials are counted by one walk, and the CLI
starts without the process pool.

Imports and calls are read from the source with ``ast``, so an import
inside a function body counts as much as one at module level.
"""

import ast
import graphlib
import os
import subprocess
import sys
from pathlib import Path

import acigb

PACKAGE = Path(acigb.__file__).parent
TESTS = Path(__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def package_imports(source: str) -> set:
    """Names of the package modules that a source text imports anywhere."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("acigb"):
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                # from . import paths
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "acigb" and len(parts) > 1:
                    found.add(parts[1])
    return found & MODULES


def import_graph() -> dict:
    return {
        path.stem: package_imports(path.read_text()) - {path.stem}
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_reader_sees_every_import_form():
    source = (
        "import acigb.hilbert\n"
        "from acigb.algebra import QQ\n"
        "from . import paths as _paths\n"
        "from .oracle import buchberger\n"
        "import os\n"
        "def f():\n"
        "    from .initial_ideal import enumerate_m_free\n"
    )
    assert package_imports(source) == {
        "hilbert", "algebra", "paths", "oracle", "initial_ideal"
    }


def test_package_import_graph_is_acyclic():
    graph = import_graph()
    # the edges the layering rests on are really read
    assert "paths" in graph["initial_ideal"]
    assert "closed_form" in graph["oracle"]
    try:
        order = tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None
    assert set(order) == MODULES


def float_sites(source: str) -> list:
    """Line numbers of every true division, float literal and float() call."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            sites.append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            sites.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            sites.append(node.lineno)
    return sorted(sites)


def test_float_reader_sees_every_form():
    source = "a = b / 2\nc /= 3\nd = 0.5\ne = float(f)\ng = h // 2\ni = 1j\n"
    assert float_sites(source) == [1, 2, 3, 4, 6]


def test_package_has_no_floats():
    found = {
        path.name: sites
        for path in sorted(PACKAGE.glob("*.py"))
        if (sites := float_sites(path.read_text()))
    }
    assert found == {}


def unused_imports(source: str) -> list:
    """Names bound by a module-level import that the source never reads, a
    name listed in ``__all__`` counting as read."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            read.update(elt.value for elt in node.value.elts)
    return sorted(bound - read)


def test_unused_import_reader_sees_every_form():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import json as _json\n"
        "from math import gcd, lcm\n"
        "from .algebra import QQ as Q, grevlex\n"
        "from .paths import reflect\n"
        "__all__ = ['reflect']\n"
        "def f(x: Q):\n"
        "    import sys\n"
        "    return gcd(x, 2)\n"
    )
    assert unused_imports(source) == ["_json", "grevlex", "lcm", "os"]


def test_no_unused_imports():
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def call_sites(source: str, name: str) -> list:
    """Where a source calls ``name(...)`` or ``anything.name(...)``: the
    qualified name of the enclosing function (``Class.method`` for a
    method), or ``<module>`` outside any function."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)
            ):
                sites.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return sites


def test_call_site_reader_sees_every_form():
    source = (
        "x = MonomialIdeal(1, ())\n"
        "def f():\n"
        "    return initial_ideal.MonomialIdeal(1, ())\n"
        "class C:\n"
        "    def g(self):\n"
        "        return [MonomialIdeal(n, ()) for n in (1, 2)]\n"
        "def h(MonomialIdeal):\n"
        "    return MonomialIdeal\n"
    )
    assert call_sites(source, "MonomialIdeal") == ["<module>", "f", "C.g"]


def test_monomial_ideals_come_only_from_the_antichain_producers():
    # MonomialIdeal takes its generators unchecked, and the antichain tests
    # cover these two producers; a third would skip them
    found = sorted(
        f"{path.stem}.{site}"
        for path in sorted(PACKAGE.glob("*.py"))
        for site in call_sites(path.read_text(), "MonomialIdeal")
    )
    assert found == [
        "closed_form.GroebnerBasis.initial_ideal",
        "initial_ideal.minimal_generators",
    ]


def test_closed_form_has_one_divisor_walk():
    # the divisor sums of the elements, the certificates and the counting
    # identity all run through _box_weights
    source = (PACKAGE / "closed_form.py").read_text()
    assert call_sites(source, "product") == ["_box_weights"]


def level_count_sites(source: str) -> list:
    """Functions of a source that both enumerate a level of monomials
    (``enumerate_m_free`` or ``compositions``) and test ideal membership
    (``.contains``): the shape of counting standard monomials by scan."""
    walks = set(call_sites(source, "enumerate_m_free") + call_sites(source, "compositions"))
    return sorted(walks & set(call_sites(source, "contains")))


def test_level_count_reader_sees_every_form():
    source = (
        "def f(ideal):\n"
        "    return sum(1 for s in enumerate_m_free(2, m, 3) if not ideal.contains(s))\n"
        "def g(ideal):\n"
        "    return [t for t in algebra.compositions(3, c) if ideal.contains(t)]\n"
        "def h(ideal):\n"
        "    return enumerate_m_free(2, m, 3), ideal\n"
    )
    assert level_count_sites(source) == ["f", "g"]


def test_standard_monomials_are_counted_by_one_walk():
    # the tail form lists the tail monomials of one element and the segment
    # check tests a revlex property; neither counts a quotient, and every
    # count goes through initial_ideal.standard_levels
    found = sorted(
        f"{path.stem}.{site}"
        for path in sorted(PACKAGE.glob("*.py"))
        for site in level_count_sites(path.read_text())
    )
    assert found == ["closed_form.build_gs_tail_form", "initial_ideal.check_revlex_segment"]
    walkers = sorted(
        f"{path.stem}.{site}"
        for path in sorted(PACKAGE.glob("*.py"))
        for site in call_sites(path.read_text(), "standard_levels")
    )
    assert walkers == ["initial_ideal.hilbert_counts", "oracle._lead_basis"]


def test_cli_import_leaves_the_process_pool_unloaded():
    # only verify with ACI_GB_THREADS > 1 uses it, and it loads multiprocessing
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = "import sys, acigb.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
