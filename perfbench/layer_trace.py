"""Per-layer tracing for one benchmark pass, installed from outside the package.

``install`` replaces each traced function of ``acigb`` with a wrapper, both
on its defining module and on every ``acigb`` module that bound the same
object with ``from .x import f``; methods are replaced on their classes.
Nothing under ``src/`` changes.

Every wrapped call is a span with a parent (the innermost wrapped call that
was running when it started).  Spans of the layers that are called at most a
few thousand times per pass are kept in memory and written out at the end;
the hot primitives (``leading_term``, ``from_terms``) only update their
aggregates, so the trace stays small.  ``TermOrder.key`` is counted, not
timed: it runs millions of times and a timer around it would swamp it.

Stats per traced name:

* ``calls``  -- number of calls, an exact count;
* ``s``      -- inclusive seconds, counting only calls not nested inside
  another call of the same name;
* ``self_s`` -- seconds spent in the span minus the spans of its direct
  children.

Layer totals (``hilbert.s``) add up the outermost calls into any traced
function of that module.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time

# (module, qualified name, keep spans, exact counter: (stat, fn(args, result)))
TARGETS = (
    ("algebra", "SparsePoly.leading_term", False, None),
    ("algebra", "SparsePoly.from_terms", False, None),
    ("algebra", "reduce_full", True, ("zero", lambda a, r: int(r.is_zero()))),
    ("algebra", "poly_to_json", True, None),
    ("algebra", "poly_to_text", True, None),
    ("oracle", "buchberger", True, ("basis_len", lambda a, r: len(r))),
    ("oracle", "spoly", True, None),
    ("oracle", "oracle_reduced_gb", True, None),
    ("oracle", "initial_ideal_oracle", True, None),
    ("oracle", "gaussian_rank", True,
     ("cells", lambda a, r: len(a[0]) * (len(a[0][0]) if a[0] else 0))),
    ("oracle", "multiplication_rank", True, None),
    ("initial_ideal", "critical_sets", True, None),
    ("initial_ideal", "minimalize_monomials", True, None),
    ("initial_ideal", "enumerate_m_free", True, None),
    ("initial_ideal", "minimal_generators", True, None),
    ("initial_ideal", "hf_quotient", True, None),
    ("closed_form", "reduced_gb", True,
     ("terms", lambda a, r: sum(len(g.terms) for g in r.elements))),
    ("closed_form", "build_gs_divisor_form", True, None),
    ("closed_form", "sort_elements", True, None),
    ("hilbert", "hs_complete_intersection", True, None),
    ("hilbert", "hf", True, None),
    ("hilbert", "truncate_lefschetz", True, None),
    ("hilbert", "is_symmetric", True, None),
    ("hilbert", "is_unimodal", True, None),
    ("hilbert", "type_classify", True, None),
    ("hilbert", "socle_degrees", True, None),
    ("wlp", "wlp_decide", True, None),
    ("cli", "main", True, None),
    ("cli", "_verify_case", True, None),
)

COUNTED = (("algebra", "TermOrder.key"),)


class Tracer:
    """Span stack and aggregates for one process."""

    def __init__(self):
        self.names: list = []
        self.calls: list = []
        self.incl: list = []
        self.self_s: list = []
        self.depth: list = []
        self.layers: dict = {}  # module -> [depth, inclusive seconds]
        self.extra: dict = {}  # "<name>.<stat>" -> exact count
        self.counted: dict = {}  # "<name>" -> [calls]
        self.spans: list = []  # (span id, parent id, name index, start, end)
        self.stack: list = [[0.0, 0]]  # root frame: [child seconds, span id]
        self._next_id = itertools.count(1).__next__

    def wrap(self, module: str, qualname: str, fn, keep: bool, counter):
        idx = len(self.names)
        self.names.append(f"{module}.{qualname}")
        for table in (self.calls, self.depth):
            table.append(0)
        for table in (self.incl, self.self_s):
            table.append(0.0)
        layer = self.layers.setdefault(module, [0, 0.0])
        stack, spans = self.stack, self.spans
        calls, depth, incl, self_s = self.calls, self.depth, self.incl, self.self_s
        clock = time.perf_counter
        stat_key = None
        if counter is not None:
            stat_key = f"{self.names[idx]}.{counter[0]}"
            self.extra[stat_key] = 0
        extra = self.extra
        next_id = self._next_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, next_id() if keep else 0]
            parent = stack[-1]
            stack.append(frame)
            depth[idx] += 1
            layer[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = end - start
                parent[0] += span
                calls[idx] += 1
                self_s[idx] += span - frame[0]
                depth[idx] -= 1
                if not depth[idx]:
                    incl[idx] += span
                layer[0] -= 1
                if not layer[0]:
                    layer[1] += span
                if keep:
                    spans.append((frame[1], parent[1], idx, start, end))
            if stat_key is not None:
                extra[stat_key] += counter[1](args, result)
            return result

        return traced

    def count_only(self, name: str, fn):
        box = self.counted.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return counted

    def aggregates(self) -> dict:
        """Every stat as a flat ``<module>.<function>.<stat>`` mapping."""
        out: dict = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.s"] = self.incl[idx]
            out[f"{name}.self_s"] = self.self_s[idx]
        for module, (_, seconds) in self.layers.items():
            out[f"{module}.s"] = seconds
        for name, (count,) in self.counted.items():
            out[f"{name}.calls"] = count
        out.update(self.extra)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "aggregates": self.aggregates(),
                    "names": self.names,
                    "fields": ["id", "parent", "name", "start", "end"],
                    "spans": self.spans,
                },
                handle,
            )


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "acigb" or name.startswith("acigb."))
    ]


def _rebind(original, replacement) -> None:
    # every module that holds the same object under any name gets the wrapper
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every target; call after ``acigb.cli`` is imported."""
    import acigb.cli  # noqa: F401  (loads every module the CLI reaches)

    for module, qualname, keep, counter in TARGETS:
        mod = sys.modules[f"acigb.{module}"]
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = tracer.wrap(module, qualname, raw.__func__, keep, counter)
                setattr(cls, meth, classmethod(wrapped))
            else:
                setattr(cls, meth, tracer.wrap(module, qualname, raw, keep, counter))
            continue
        original = getattr(mod, qualname)
        _rebind(original, tracer.wrap(module, qualname, original, keep, counter))
    for module, qualname in COUNTED:
        cls_name, meth = qualname.split(".")
        cls = getattr(sys.modules[f"acigb.{module}"], cls_name)
        name = f"{module}.{qualname}"
        setattr(cls, meth, tracer.count_only(name, cls.__dict__[meth]))
