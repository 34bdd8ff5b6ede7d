"""Command line front end.

One executable, nine subcommands:

    gb       reduced basis of (x1^m1, ..., xn^mn, (x1+...+xn)^k)
    init     minimal generators of the initial ideal
    crit     critical monomials grouped by largest variable, plus the
             surviving pure powers
    hilbert  Hilbert series of the complete intersection and of the quotient
    seq      integer sequences: basis counts per degree and the classical
             families they specialize to
    wlp      weak Lefschetz verdict in positive characteristic
    rank     a single multiplication rank against its expected value
    verify   closed form against the Buchberger oracle over a parameter grid
    render   picture of a monomial's lattice path against the boundary line

Exponent vectors are written as a comma list (``--m 3,2,2,3``), as
``eq:M:N`` for M repeated N times, or as a bare integer when ``--n`` fixes
the length.  A JSON config file (``--config``) may supply any long option
under its flag name; explicit flags win.  Output goes to stdout, or with
``--out`` to a file written atomically (temp file, then rename).

Outputs are deterministic: identical configuration yields identical bytes.
There are no floats anywhere; rational numbers appear as exact ``num/den``
strings.  Exit codes: 0 success, 1 domain error, 2 verification failure.
The environment variable ACI_GB_THREADS caps the process count used by
``verify``, up to the number of cores; the report is assembled in grid order
regardless.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .algebra import (
    TermOrder,
    coeff_to_str,
    grevlex,
    mono_to_text,
    poly_to_json,
    poly_to_text,
)
from .closed_form import distinct_gb_census, reduced_gb
from .hilbert import hf, hs_complete_intersection, socle_degrees, truncate_lefschetz
from .initial_ideal import (
    MonomialIdeal,
    critical_sets,
    hf_quotient,
    minimal_generators,
    pure_power_removed,
)
from .oracle import OracleConfig, multiplication_rank, oracle_reduced_gb
from .paths import (
    ReflectionLine,
    is_admissible,
    path_from_monomial,
    reflect,
    render_ascii,
    render_svg,
)
from .sequences import (
    MSpec,
    catalan,
    gb_degree_sequence,
    motzkin,
    riordan,
    s_catalan_triangle,
    spin_catalan_degeneracy,
)
from .wlp import wlp_decide

__all__ = ["RunConfig", "dispatch", "main", "verify_all"]


SEQ_FAMILIES = ("g", "motzkin", "riordan", "catalan", "s-catalan", "spin")

FORMATS = {
    "gb": ("json", "text", "m2"),
    "init": ("json", "text"),
    "crit": ("json", "text"),
    "hilbert": ("json", "text"),
    "seq": ("text", "json", "csv"),
    "wlp": ("json", "text"),
    "rank": ("json", "text"),
    "verify": ("text", "json"),
    "render": ("ascii", "svg"),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a single invocation needs, already validated."""

    subcommand: str
    n: int | None = None
    m: tuple | None = None
    k: int | None = None
    ranking: tuple | None = None
    kind: str = "grevlex"
    format: str = "json"
    out: str | None = None
    grid: tuple = (4, 4, 4)
    p: int | None = None
    d: int | None = None
    e: int = 1
    family: str | None = None
    m_text: str | None = None
    max: int | None = None
    routes: tuple | None = None
    monomial: tuple | None = None
    reflect: bool = False
    census: bool = False


# ---------------------------------------------------------------------------
# argument plumbing


def _int(value, flag: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{flag} expects an integer, got {value!r}") from None


def _int_list(text, flag: str) -> tuple:
    return tuple(_int(part, flag) for part in str(text).split(","))


def parse_m(spec, n=None):
    """Exponent vector from its flag syntax; returns (n, m)."""
    text = str(spec).strip()
    if text.startswith("eq:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"--m {text!r} should look like eq:M:N")
        width = _int(parts[2], "--m")
        if n is not None and n != width:
            raise ValueError(f"--n {n} disagrees with --m {text}")
        return width, (_int(parts[1], "--m"),) * width
    values = _int_list(text, "--m")
    if len(values) == 1 and n is not None:
        return n, values * n
    if n is not None and n != len(values):
        raise ValueError(f"--n {n} disagrees with --m of length {len(values)}")
    return len(values), values


def parse_mspec(text) -> MSpec:
    """Exponent specification for sequences: a comma list is a finite vector,
    ``eq:M`` or a bare integer continues forever."""
    text = str(text).strip()
    if text.startswith("eq:"):
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"--m {text!r} should look like eq:M")
        return MSpec.constant(_int(parts[1], "--m"))
    values = _int_list(text, "--m")
    if len(values) == 1:
        return MSpec.constant(values[0])
    return MSpec.finite(values)


def _jsonable(value):
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return coeff_to_str(value)
    return value


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file and a crash leaves any previous version intact."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".acigb-")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError) and exc.errno is not None:
            # the temp file is an internal detail: name only the target
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        write_atomic(out, text)


# ---------------------------------------------------------------------------
# subcommands


def _order_for(cfg: RunConfig) -> TermOrder:
    ranking = cfg.ranking if cfg.ranking is not None else tuple(range(1, cfg.n + 1))
    return TermOrder(cfg.kind, ranking)


def _cmd_gb(cfg: RunConfig) -> str:
    basis = reduced_gb(cfg.n, cfg.m, cfg.k, ranking=cfg.ranking, kind=cfg.kind)
    if cfg.format == "json":
        return _dumps(
            {
                "n": basis.n,
                "m": list(basis.m),
                "k": basis.k,
                "order": {
                    "kind": basis.order.kind,
                    "ranking": list(basis.order.ranking),
                },
                "elements": [poly_to_json(g, basis.order) for g in basis.elements],
            }
        )
    lines = [poly_to_text(g, basis.order) for g in basis.elements]
    if cfg.format == "text":
        return "\n".join(lines) + "\n"
    return "{\n  " + ",\n  ".join(lines) + "\n}\n"


def _cmd_init(cfg: RunConfig) -> str:
    ideal = minimal_generators(cfg.n, cfg.m, cfg.k)
    order = grevlex(cfg.n)
    gens = sorted(ideal.min_gens, key=order.key, reverse=True)
    if cfg.format == "json":
        return _dumps(
            {
                "n": cfg.n,
                "m": list(cfg.m),
                "k": cfg.k,
                "min_gens": [list(g) for g in gens],
            }
        )
    return "\n".join(mono_to_text(g) for g in gens) + "\n"


def _cmd_crit(cfg: RunConfig) -> str:
    sets = critical_sets(cfg.n, cfg.m, cfg.k)
    order = grevlex(cfg.n)
    pure = [
        tuple(cfg.m[j - 1] if i == j - 1 else 0 for i in range(cfg.n))
        for j in range(1, cfg.n + 1)
        if not pure_power_removed(cfg.m, cfg.k, j)
    ]
    groups = [
        sorted(group, key=order.key, reverse=True) for group in sets.by_index
    ]
    if cfg.format == "json":
        return _dumps(
            {
                "n": cfg.n,
                "m": list(cfg.m),
                "k": cfg.k,
                "pure_powers": [list(g) for g in pure],
                "crit": {
                    str(j): [list(s) for s in group]
                    for j, group in enumerate(groups, start=1)
                },
            }
        )
    lines = ["pure powers: " + (", ".join(mono_to_text(g) for g in pure) or "-")]
    for j, group in enumerate(groups, start=1):
        body = ", ".join(mono_to_text(s) for s in group) or "-"
        lines.append(f"crit {j}: {body}")
    return "\n".join(lines) + "\n"


def _cmd_hilbert(cfg: RunConfig) -> str:
    series = hs_complete_intersection(cfg.m)
    quotient = truncate_lefschetz(series, cfg.k)
    socle_D, delta = socle_degrees(cfg.m, cfg.k)
    if cfg.format == "json":
        return _dumps(
            {
                "m": list(cfg.m),
                "k": cfg.k,
                "hs_P": list(series),
                "hs_quotient": list(quotient),
                "D": socle_D,
                "delta": delta,
            }
        )
    return (
        "hs_P: " + " ".join(str(c) for c in series) + "\n"
        "hs_quotient: " + " ".join(str(c) for c in quotient) + "\n"
        f"D: {socle_D}\n"
        f"delta: {delta}\n"
    )


def _require(value, flag: str, family: str):
    if value is None:
        raise ValueError(f"family {family!r} needs {flag}")
    return value


def _single_int_m(text, family: str) -> int:
    values = _int_list(text, "--m")
    if len(values) != 1:
        raise ValueError(f"family {family!r} takes a single integer --m")
    return values[0]


def _seq_payload(cfg: RunConfig) -> dict:
    family = cfg.family
    if family == "g":
        mspec = parse_mspec(_require(cfg.m_text, "--m", family))
        k = _require(cfg.k, "--k", family)
        top = _require(cfg.max, "--max", family)
        values = gb_degree_sequence(mspec, k, top).values
        return {
            "family": "g",
            "m": {"prefix": list(mspec.prefix), "tail": mspec.tail},
            "k": k,
            "values": [[d, c] for d, c in values],
        }
    if family in ("motzkin", "riordan", "catalan"):
        top = _require(cfg.max, "--max", family)
        fn = {"motzkin": motzkin, "riordan": riordan, "catalan": catalan}[family]
        return {
            "family": family,
            "values": [[i, fn(i)] for i in range(top + 1)],
        }
    if family == "s-catalan":
        m_val = _single_int_m(_require(cfg.m_text, "--m", family), family)
        top = _require(cfg.max, "--max", family)
        triangle = s_catalan_triangle(m_val, top)
        return {
            "family": "s-catalan",
            "m": m_val,
            "s": triangle.s,
            "rows": [list(row) for row in triangle.rows],
        }
    if family == "spin":
        m_val = _single_int_m(_require(cfg.m_text, "--m", family), family)
        top = _require(cfg.max, "--max", family)
        sigma = Fraction(m_val - 1, 2)
        return {
            "family": "spin",
            "m": m_val,
            "sigma": coeff_to_str(sigma),
            "values": [[i, spin_catalan_degeneracy(sigma, i)] for i in range(top + 1)],
        }
    raise ValueError(f"unknown family {family!r}; pick one of {', '.join(SEQ_FAMILIES)}")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_seq(cfg: RunConfig) -> str:
    payload = _seq_payload(cfg)
    if cfg.format == "json":
        return _dumps(payload)
    if payload["family"] == "s-catalan":
        if cfg.format == "csv":
            rows = [
                (i, j, v)
                for i, row in enumerate(payload["rows"])
                for j, v in enumerate(row)
            ]
            return _csv_text(("n", "k", "value"), rows)
        return "\n".join(" ".join(str(v) for v in row) for row in payload["rows"]) + "\n"
    header = ("degree", "count") if payload["family"] == "g" else ("index", "value")
    if cfg.format == "csv":
        return _csv_text(header, payload["values"])
    return " ".join(str(v) for _, v in payload["values"]) + "\n"


def _cmd_wlp(cfg: RunConfig) -> str:
    verdict = wlp_decide(cfg.n, cfg.m, cfg.p, routes=cfg.routes)
    if cfg.format == "json":
        return _dumps(
            {
                "n": verdict.n,
                "m": list(verdict.m),
                "p": verdict.p,
                "has_wlp": verdict.has_wlp,
                "route": verdict.route,
                "witness": _jsonable(verdict.witness),
                "findings": [
                    {
                        "route": f.route,
                        "holds": f.holds,
                        "witness": _jsonable(f.witness),
                    }
                    for f in verdict.findings
                ],
                "explanation": verdict.explanation,
            }
        )
    m_text = ",".join(str(v) for v in verdict.m)
    lines = [
        f"n={verdict.n} m={m_text} p={verdict.p}",
        f"has_wlp: {'yes' if verdict.has_wlp else 'no'}",
        f"decided by: {verdict.route}",
    ]
    for f in verdict.findings:
        tail = "" if f.witness is None else f" witness={_jsonable(f.witness)}"
        lines.append(f"{f.route}: {'holds' if f.holds else 'fails'}{tail}")
    if verdict.explanation:
        lines.append(f"note: {verdict.explanation}")
    return "\n".join(lines) + "\n"


def _cmd_rank(cfg: RunConfig) -> str:
    if cfg.d is None:
        raise ValueError("rank needs --d")
    series = hs_complete_intersection(cfg.m)
    expected = min(hf(series, cfg.d), hf(series, cfg.d + cfg.e))
    rank = multiplication_rank(cfg.n, cfg.m, cfg.p, cfg.d, e=cfg.e)
    if cfg.format == "json":
        return _dumps(
            {
                "n": cfg.n,
                "m": list(cfg.m),
                "p": cfg.p,
                "d": cfg.d,
                "e": cfg.e,
                "rank": rank,
                "expected": expected,
                "maximal": rank == expected,
            }
        )
    verdict = "maximal" if rank == expected else "NOT maximal"
    return f"rank {rank} expected {expected}: {verdict}\n"


def _cmd_render(cfg: RunConfig) -> str:
    if cfg.monomial is None:
        raise ValueError("render needs --s, the exponents of the monomial")
    if len(cfg.monomial) != cfg.n:
        raise ValueError("--s must list one exponent per variable")
    line = ReflectionLine.build(cfg.n, cfg.m, cfg.k)
    heights = path_from_monomial(cfg.monomial)
    if not is_admissible(heights, cfg.m):
        raise ValueError(
            "--s must be m-free: every exponent at least 0 and below its bound"
        )
    image = None
    if cfg.reflect:
        image = reflect(heights, line)
        if image is None:
            raise ValueError("path never touches the line, nothing to reflect")
    if cfg.format == "svg":
        return render_svg(heights, line, reflected=image)
    return render_ascii(heights, line, reflected=image)


# ---------------------------------------------------------------------------
# grid verification


def _verify_case(case):
    n, m, k, with_census = case
    row = {"n": n, "m": list(m), "k": k}
    oracle_lms = None
    for kind in ("grevlex", "grlex"):
        order = TermOrder(kind, tuple(range(1, n + 1)))
        mine = reduced_gb(n, m, k, kind=kind)
        oracle = oracle_reduced_gb(n, m, k, OracleConfig(order))
        row[f"gb_{kind}"] = mine.fingerprint() == oracle.fingerprint()
        if kind == "grevlex":
            oracle_lms = oracle.leading_monomials()
    series = truncate_lefschetz(hs_complete_intersection(m), k)
    ideal = minimal_generators(n, m, k)
    oracle_ideal = MonomialIdeal.from_generators(n, oracle_lms)
    agree = True
    for d in range(len(series) + 2):
        counted = hf_quotient(n, m, k, d, ideal=ideal)
        truncated = hf(series, d)
        from_oracle = hf_quotient(n, m, k, d, ideal=oracle_ideal)
        if not (counted == truncated == from_oracle):
            agree = False
            break
    row["hilbert"] = agree
    if with_census:
        row["census"] = distinct_gb_census(n, m, k)
    row["ok"] = row["gb_grevlex"] and row["gb_grlex"] and row["hilbert"]
    return row


def _thread_count() -> int:
    """ACI_GB_THREADS as a process count, clamped to 1..os.cpu_count()."""
    raw = os.environ.get("ACI_GB_THREADS", "1")
    try:
        wanted = int(raw)
    except ValueError:
        raise ValueError(f"ACI_GB_THREADS must be an integer, got {raw!r}") from None
    return max(1, min(wanted, os.cpu_count() or 1))


def verify_all(grid, census: bool = False) -> dict:
    """Cross-check every case of the grid: closed-form basis against the
    Buchberger oracle in both orders, and the three Hilbert function routes
    against each other. Grid bounds are inclusive; exponents run from 2."""
    n_max, m_max, k_max = grid
    cases = [
        (n, m, k, census)
        for n in range(1, n_max + 1)
        for m in product(range(2, m_max + 1), repeat=n)
        for k in range(1, k_max + 1)
    ]
    threads = _thread_count()
    if threads > 1 and len(cases) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_verify_case, cases, chunksize=4))
    else:
        rows = [_verify_case(case) for case in cases]
    passed = sum(1 for row in rows if row["ok"])
    return {
        "grid": {"n_max": n_max, "m_max": m_max, "k_max": k_max, "census": census},
        "cases": rows,
        "passed": passed,
        "failed": len(rows) - passed,
        "ok": passed == len(rows),
    }


def _cmd_verify(cfg: RunConfig):
    report = verify_all(cfg.grid, census=cfg.census)
    if cfg.format == "json":
        text = _dumps(report)
    else:
        lines = []
        for row in report["cases"]:
            m_text = ",".join(str(v) for v in row["m"])
            cells = [
                f"n={row['n']} m={m_text} k={row['k']}",
                "gb[grevlex]=" + ("ok" if row["gb_grevlex"] else "FAIL"),
                "gb[grlex]=" + ("ok" if row["gb_grlex"] else "FAIL"),
                "hilbert=" + ("ok" if row["hilbert"] else "FAIL"),
            ]
            if cfg.census:
                cells.append(f"census={row['census']}")
            lines.append("  ".join(cells))
        lines.append(f"passed {report['passed']} of {len(report['cases'])}")
        text = "\n".join(lines) + "\n"
    return text, report["ok"]


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acigb",
        description="Groebner bases of power-sum almost complete intersections.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *, n=False, m=False, k=False, order=False):
        p.add_argument("--config", help="JSON file with defaults for any option")
        p.add_argument("--format", help="output format")
        p.add_argument("--out", help="write here atomically instead of stdout")
        if n:
            p.add_argument("--n", help="number of variables")
        if m:
            p.add_argument("--m", help="exponents: comma list, eq:M:N, or integer")
        if k:
            p.add_argument("--k", help="power of the variable sum")
        if order:
            p.add_argument("--ranking", help="variable ranking, highest first")
            p.add_argument("--order", help="order kind: grevlex or grlex")

    common(sub.add_parser("gb", help="reduced basis"), n=True, m=True, k=True, order=True)
    common(sub.add_parser("init", help="initial ideal"), n=True, m=True, k=True)
    common(sub.add_parser("crit", help="critical monomials"), n=True, m=True, k=True)
    common(sub.add_parser("hilbert", help="Hilbert series"), n=True, m=True, k=True)

    seq = sub.add_parser("seq", help="integer sequences")
    common(seq, m=True, k=True)
    seq.add_argument("--family", help="one of " + ", ".join(SEQ_FAMILIES))
    seq.add_argument("--max", help="largest index to compute")

    wlp = sub.add_parser("wlp", help="weak Lefschetz verdict mod p")
    common(wlp, n=True, m=True)
    wlp.add_argument("--p", help="prime characteristic")
    wlp.add_argument("--routes", help="comma list: threshold, rank, initideal")

    rank = sub.add_parser("rank", help="one multiplication rank mod p")
    common(rank, n=True, m=True)
    rank.add_argument("--p", help="prime characteristic")
    rank.add_argument("--d", help="source degree")
    rank.add_argument("--e", help="power of the multiplier, default 1")

    verify = sub.add_parser("verify", help="oracle cross-checks over a grid")
    common(verify)
    verify.add_argument("--n-max", help="largest n, default 4")
    verify.add_argument("--m-max", help="largest exponent, default 4")
    verify.add_argument("--k-max", help="largest power, default 4")
    verify.add_argument("--census", action="store_true",
                        help="count distinct bases over all rankings per case")

    render = sub.add_parser("render", help="draw a lattice path")
    common(render, n=True, m=True, k=True)
    render.add_argument("--s", help="exponents of the monomial, comma list")
    render.add_argument("--reflect", action="store_true",
                        help="overlay the reflected path")

    return parser


def _merge_config(ns: argparse.Namespace) -> None:
    if not getattr(ns, "config", None):
        return
    with open(ns.config) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    for key, value in data.items():
        dest = key.replace("-", "_")
        if not hasattr(ns, dest) or dest in ("subcommand", "config"):
            raise ValueError(f"config key {key!r} is not an option of this subcommand")
        current = getattr(ns, dest)
        if current is None or current is False:
            setattr(ns, dest, value)


def run_config(ns: argparse.Namespace) -> RunConfig:
    """Validate a parsed namespace into a RunConfig."""
    sub = ns.subcommand
    fields = {"subcommand": sub}

    needs_m = sub in ("gb", "init", "crit", "hilbert", "wlp", "rank", "render")
    if needs_m:
        if getattr(ns, "m", None) is None:
            raise ValueError(f"{sub} needs --m")
        n_flag = getattr(ns, "n", None)
        n_flag = _int(n_flag, "--n") if n_flag is not None else None
        n, m = parse_m(ns.m, n_flag)
        fields["n"] = n
        fields["m"] = m

    if sub in ("gb", "init", "crit", "hilbert", "render"):
        if getattr(ns, "k", None) is None:
            raise ValueError(f"{sub} needs --k")
        fields["k"] = _int(ns.k, "--k")

    if sub == "gb":
        if ns.ranking is not None:
            fields["ranking"] = _int_list(ns.ranking, "--ranking")
        if ns.order is not None:
            fields["kind"] = str(ns.order)

    if sub == "seq":
        if ns.family is None:
            raise ValueError("seq needs --family")
        fields["family"] = str(ns.family)
        if getattr(ns, "m", None) is not None:
            fields["m_text"] = str(ns.m)
        if ns.k is not None:
            fields["k"] = _int(ns.k, "--k")
        if ns.max is not None:
            fields["max"] = _int(ns.max, "--max")

    if sub in ("wlp", "rank"):
        if getattr(ns, "p", None) is None:
            raise ValueError(f"{sub} needs --p")
        fields["p"] = _int(ns.p, "--p")
    if sub == "wlp" and ns.routes is not None:
        fields["routes"] = tuple(
            part.strip() for part in str(ns.routes).split(",") if part.strip()
        )
    if sub == "rank":
        if ns.d is not None:
            fields["d"] = _int(ns.d, "--d")
        if ns.e is not None:
            fields["e"] = _int(ns.e, "--e")

    if sub == "verify":
        fields["grid"] = (
            _int(ns.n_max, "--n-max") if ns.n_max is not None else 4,
            _int(ns.m_max, "--m-max") if ns.m_max is not None else 4,
            _int(ns.k_max, "--k-max") if ns.k_max is not None else 4,
        )
        fields["census"] = bool(ns.census)

    if sub == "render":
        if ns.s is not None:
            fields["monomial"] = _int_list(ns.s, "--s")
        fields["reflect"] = bool(ns.reflect)

    allowed = FORMATS[sub]
    chosen = getattr(ns, "format", None)
    fields["format"] = str(chosen) if chosen is not None else allowed[0]
    if fields["format"] not in allowed:
        raise ValueError(
            f"{sub} writes {', '.join(allowed)}; got {fields['format']!r}"
        )
    if getattr(ns, "out", None) is not None:
        fields["out"] = str(ns.out)
    return RunConfig(**fields)


_HANDLERS = {
    "gb": _cmd_gb,
    "init": _cmd_init,
    "crit": _cmd_crit,
    "hilbert": _cmd_hilbert,
    "seq": _cmd_seq,
    "wlp": _cmd_wlp,
    "rank": _cmd_rank,
    "render": _cmd_render,
}


def dispatch(cfg: RunConfig) -> int:
    if cfg.subcommand == "verify":
        text, ok = _cmd_verify(cfg)
        _emit(text, cfg.out)
        return 0 if ok else 2
    _emit(_HANDLERS[cfg.subcommand](cfg), cfg.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        _merge_config(ns)
        cfg = run_config(ns)
        return dispatch(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
