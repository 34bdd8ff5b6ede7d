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
under its flag name; explicit flags win.  A valued option takes a JSON string
or integer there, a switch (``--census``, ``--reflect``) takes true or false;
any other value is refused.  Output goes to stdout, or with
``--out`` to a file written atomically (temp file, then rename); ``gb``
writes each basis element as soon as it is built, into either.

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
import operator
import os
import sys
import tempfile
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, islice, product, repeat
from json.encoder import encode_basestring_ascii as _quote
from math import factorial

from .algebra import (
    TermOrder,
    check_degree_vector,
    check_power,
    mono_to_text,
    poly_to_json,
    poly_to_text,
)
from .closed_form import basis_elements, basis_order, distinct_gb_census, reduced_gb
from .hilbert import hf, hs_complete_intersection, series_socle, truncate_lefschetz
from .initial_ideal import critical_sets, hilbert_counts, minimal_generators
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
    classical_row,
    crit_counts,
    gb_degree_sequence,
    s_catalan_triangle,
    spin_catalan_degeneracies,
)
from .wlp import wlp_decide

__all__ = ["main", "verify_all"]


SEQ_FAMILIES = ("g", "motzkin", "riordan", "catalan", "s-catalan", "spin")

# The largest ``seq`` or ``hilbert`` request: a bound on the decimal digits
# ``seq`` prints for the number families, and on the digits of the series
# coefficients that the g and spin scan or ``hilbert`` builds.
SEQ_BUDGET = 4_000_000

# The most cases one ``verify`` grid may hold, about 20 times the default
# grid's 480; it is checked before the case list is built.
VERIFY_BUDGET = 10_000

# The most m-free monomials the grid's largest case, (m-max,)*n-max, may have,
# 16 times the default's 4^4: one case costs about five times more per variable.
# ``rank`` and ``wlp`` refuse a larger quotient too.
VERIFY_CASE_BUDGET = 4_096

# The most rankings one ``verify --census`` may walk, about twice the default
# grid's 8,508: the census of a case builds one basis per ranking, n! of them.
CENSUS_BUDGET = 20_000

# The most critical monomials one ``gb``, ``init`` or ``crit`` request may
# have, about 15 times the 6,786 of ``crit --m eq:3:12 --k 3``; they are
# counted per level from the Hilbert series before any is built.
CRITICAL_BUDGET = 100_000

# The most divisors of one critical monomial's head, its exponents before its
# largest variable, that ``gb`` may walk to build one element: about 30 times
# the largest of (3,)*12 with k = 3, 3,072.
DIVISOR_BUDGET = 100_000


# ---------------------------------------------------------------------------
# argument plumbing


def _int(value, flag: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{flag} expects an integer, got {value!r}") from None


def _int_list(text, flag: str) -> tuple:
    return tuple(_int(part, flag) for part in str(text).split(","))


def _text(value, flag: str) -> str:
    return str(value)


def _routes(text, flag: str) -> tuple:
    return tuple(part.strip() for part in str(text).split(",") if part.strip())


def _capped(values, budget: int, op=None) -> int:
    """The running sum of ``values``, or their running fold under ``op``,
    taken only up to the first total that passes ``budget``, which it
    returns; 0 for no values.  ``values`` may be endless."""
    total = 0
    for total in accumulate(values, op):
        if total > budget:
            break
    return total


def _refuse(size: int, budget: int, what: str, flags: str, unit: str = "") -> None:
    """The one size refusal: a ``size`` over ``budget`` raises a one-line
    ValueError naming the flags that lower it."""
    if size > budget:
        raise ValueError(f"{what} over the size budget of {budget}{unit}; lower {flags}")


def _check_width(width: int, flag: str) -> None:
    # refused before the tuple is built: eq:3:100000000 alone would take
    # 800 MB, and no subcommand finishes on a vector this long
    _refuse(width, SEQ_BUDGET, f"{flag} asks for {width} variables,", flag)


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
        _check_width(width, "--m")
        return width, (_int(parts[1], "--m"),) * width
    values = _int_list(text, "--m")
    if len(values) == 1 and n is not None:
        _check_width(n, "--n")
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


def _encode(value, indent: str) -> str:
    """``value`` at this indent, byte for byte as the stdlib's ``json.dumps``
    writes it with ``indent=2``, for the types the payloads use: str keys,
    dict, list, tuple, str, int, bool and None.  Any other type raises
    TypeError.  With ``indent`` set the stdlib runs its pure-Python encoder,
    which cost more than computing a large basis."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        # _quote raises TypeError on a key that is not a str
        body = (",\n" + inner).join(
            [f"{_quote(key)}: {_encode(item, inner)}" for key, item in value.items()]
        )
        return f"{{\n{inner}{body}\n{indent}}}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        if set(map(type, value)) == {int}:
            body = (",\n" + inner).join(map(int.__repr__, value))
        else:
            body = (",\n" + inner).join([_encode(item, inner) for item in value])
        return f"[\n{inner}{body}\n{indent}]"
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"cannot write {kind.__name__} as JSON")


def _json_chunks(payload, rendered: str | None = None):
    """The one JSON writer of every subcommand: the text of
    ``_encode(payload, "")`` and a newline, as a generator of chunks.  A
    top-level dict goes out a key at a time, and each item of a list under it
    on its own, so the text of a long list, a grid's cases or a basis's
    elements, is never built as one string.  The value under the key
    ``rendered`` is an iterable of JSON texts already written at the item
    indent, gb's elements from ``algebra.poly_to_json``: each is passed on
    as it comes, so only one is held at a time."""
    if type(payload) is not dict or not payload:
        yield _encode(payload, "") + "\n"
        return
    for i, (key, value) in enumerate(payload.items()):
        # _quote raises TypeError on a key that is not a str
        yield f"{',' if i else '{'}\n  {_quote(key)}: "
        if key == rendered or type(value) is list or type(value) is tuple:
            texts = value if key == rendered else (_encode(item, "    ") for item in value)
            opening = "["
            for text in texts:
                yield f"{opening}\n    "
                yield text
                opening = ","
            yield "[]" if opening == "[" else "\n  ]"
        else:
            yield _encode(value, "  ")
    yield "\n}\n"


def _dumps(payload, rendered: str | None = None) -> str:
    """The whole text of ``_json_chunks``; a TypeError comes from the call."""
    return "".join(_json_chunks(payload, rendered=rendered))


def _joined(pieces, sep: str, head: str = "", tail: str = "\n"):
    """head + sep.join(pieces) + tail as chunks, one piece at a time."""
    yield head
    for i, piece in enumerate(pieces):
        if i:
            yield sep
        yield piece
    yield tail


def write_atomic(path: str, chunks) -> None:
    """Write the text chunks, a str or an iterable of str, as they come into
    a sibling temp file, then rename it over the path, so readers never see a
    partial file and a failure, in the chunks or in the writing, leaves any
    previous version intact."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".acigb-")
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
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


# ---------------------------------------------------------------------------
# subcommands
#
# Every handler returns (text, ok): the text is a str, or an iterable of str
# chunks that ``main`` writes as they come, and every refusal is raised
# before the handler returns.  Only verify can come out not ok, which exits 2
# after the report is written.


def _check_critical(ns: argparse.Namespace) -> None:
    """Refuse a ``gb``, ``init`` or ``crit`` request of more than
    CRITICAL_BUDGET critical monomials, counted level by level in one pass
    that builds the series of every proper prefix of m; ``hilbert``'s
    estimate of those series is refused over SEQ_BUDGET first.  m and k are
    checked before either, as ``critical_sets`` checks them."""
    m = check_degree_vector(ns.m, ns.n)
    check_power(ns.k)
    # they are distinct m-free monomials: a product of the exponents within
    # the budget needs no count
    if _capped(m, CRITICAL_BUDGET, operator.mul) <= CRITICAL_BUDGET:
        return
    what = f"{ns.subcommand} request"
    _refuse(_series_size(m[:-1]), SEQ_BUDGET, what, "--n or --m")
    count = _capped(islice(crit_counts(m, ns.k), len(m)), CRITICAL_BUDGET)
    _refuse(count, CRITICAL_BUDGET, what, "--n or --m", " critical monomials")


def _check_divisors(ns: argparse.Namespace, m: tuple, order) -> None:
    """Refuse a ``gb`` request with a critical monomial whose head has more
    than DIVISOR_BUDGET divisors: ``build_gs_divisor_form`` walks each one.
    The heads are m-free in the frame where the ranking is the identity, so
    a product of that frame's exponents but the last within the budget needs
    no critical sets."""
    m = tuple(m[r - 1] for r in order.ranking)
    if _capped(m[:-1], DIVISOR_BUDGET, operator.mul) <= DIVISOR_BUDGET:
        return
    for j, group in enumerate(critical_sets(ns.n, m, ns.k).by_index, start=1):
        for s in group:
            walk = _capped((e + 1 for e in s[: j - 1]), DIVISOR_BUDGET, operator.mul)
            _refuse(walk, DIVISOR_BUDGET, "gb request", "--n, --m or --k",
                    " head divisors in one element")


def _by_degree(pairs):
    """(element, texts) for each (lead, element) pair of ``basis_elements``,
    as it is built.  texts is the monomial text cache that the writers of
    ``algebra`` fill: the elements come in ascending degree and each is
    homogeneous, so a fresh dict at each new degree of the lead holds only
    that degree's monomials."""
    texts, degree = {}, None
    for lead, g in pairs:
        d = sum(lead)
        if d != degree:
            texts, degree = {}, d
        yield g, texts


def _cmd_gb(ns: argparse.Namespace) -> tuple:
    # the refusals come in reduced_gb's order: m, the order, then k
    m = check_degree_vector(ns.m, ns.n)
    order = basis_order(ns.n, ns.ranking, ns.order)
    _check_critical(ns)
    _check_divisors(ns, m, order)
    pairs = basis_elements(ns.n, m, ns.k, order)
    if ns.format == "json":
        payload = {
            "n": ns.n,
            "m": list(m),
            "k": ns.k,
            "order": {"kind": order.kind, "ranking": list(order.ranking)},
            "elements": (
                poly_to_json(g, order, "    ", texts) for g, texts in _by_degree(pairs)
            ),
        }
        return _json_chunks(payload, rendered="elements"), True
    lines = (poly_to_text(g, order, texts) for g, texts in _by_degree(pairs))
    if ns.format == "text":
        return _joined(lines, "\n"), True
    return _joined(lines, ",\n  ", "{\n  ", "\n}\n"), True


def _cmd_init(ns: argparse.Namespace) -> tuple:
    _check_critical(ns)
    gens = minimal_generators(ns.n, ns.m, ns.k).min_gens
    if ns.format == "json":
        return _dumps(
            {
                "n": ns.n,
                "m": list(ns.m),
                "k": ns.k,
                "min_gens": [list(g) for g in gens],
            }
        ), True
    return "\n".join(mono_to_text(g) for g in gens) + "\n", True


def _cmd_crit(ns: argparse.Namespace) -> tuple:
    _check_critical(ns)
    sets = critical_sets(ns.n, ns.m, ns.k)
    if ns.format == "json":
        return _dumps(
            {
                "n": ns.n,
                "m": list(ns.m),
                "k": ns.k,
                "pure_powers": [list(g) for g in sets.pure_powers],
                "crit": {
                    str(j): [list(s) for s in group]
                    for j, group in enumerate(sets.by_index, start=1)
                },
            }
        ), True
    pure = ", ".join(mono_to_text(g) for g in sets.pure_powers)
    lines = ["pure powers: " + (pure or "-")]
    for j, group in enumerate(sets.by_index, start=1):
        body = ", ".join(mono_to_text(s) for s in group) or "-"
        lines.append(f"crit {j}: {body}")
    return "\n".join(lines) + "\n", True


def _cmd_hilbert(ns: argparse.Namespace) -> tuple:
    # the series of every prefix of m is built on the way to the whole
    _refuse(_series_size(check_degree_vector(ns.m)), SEQ_BUDGET, "hilbert request", "--m")
    series = hs_complete_intersection(ns.m)
    quotient = truncate_lefschetz(series, ns.k)
    socle_D, delta = series_socle(series, max(ns.m, default=0), ns.k, ns.m)
    if ns.format == "json":
        return _dumps(
            {
                "m": list(ns.m),
                "k": ns.k,
                "hs_P": list(series),
                "hs_quotient": list(quotient),
                "D": socle_D,
                "delta": delta,
            }
        ), True
    return (
        "hs_P: " + " ".join(str(c) for c in series) + "\n"
        "hs_quotient: " + " ".join(str(c) for c in quotient) + "\n"
        f"D: {socle_D}\n"
        f"delta: {delta}\n"
    ), True


def _require(value, flag: str, family: str):
    if value is None:
        raise ValueError(f"family {family!r} needs {flag}")
    return value


def _single_int_m(text, family: str) -> int:
    values = _int_list(text, "--m")
    if len(values) != 1:
        raise ValueError(f"family {family!r} takes a single integer --m")
    return values[0]


def _power_digits(b: int, e: int) -> int:
    """An upper bound on the decimal digits of b**e in integers: b**16 < 2**L
    gives b**e < 2**(e * L / 16), and log10(2) < 30103 / 10**5."""
    return e * (b**16).bit_length() * 30103 // 1_600_000 + 1


def _series_size(exponents) -> int:
    """An upper bound on the decimal digits of the series that multiplying in
    1 + t + ... + t^(m_i - 1) one exponent at a time builds, counted up to
    the budget.  After the factors so far, of socle degree D, the series holds
    D + 1 coefficients, each at most the product of those exponents (the
    coefficient sum); a number below 2^L has at most L * 30103 // 10**5 + 1
    digits."""

    def terms():
        D, product = 0, 1
        for m_i in exponents:
            D += m_i - 1
            product *= m_i
            yield (D + 1) * (product.bit_length() * 30103 // 100_000 + 1)

    return _capped(terms(), SEQ_BUDGET)


def _scan_size(mspec: MSpec, k: int, d_max: int) -> int:
    """An upper bound on the digits of the series coefficients that
    ``gb_degree_sequence(mspec, k, d_max)`` builds, counted up to the budget.

    The level after a prefix of socle degree D starts in degree k + D - delta,
    which is at least k and, as delta <= (D + k - 1) / 2, at least
    (D + k + 1) / 2; the scan stops at the first level that starts above
    d_max.  A finite prefix ends the count where it runs out.
    """
    check_power(k)

    def exponents():
        D, n = 0, 1
        while k <= d_max and D + k + 1 <= 2 * d_max:
            if n > len(mspec.prefix) and mspec.tail is None:
                return
            m_n = mspec.entry(n)
            yield m_n
            D += m_n - 1
            n += 1

    return _series_size(exponents())


def _check_budget(size, n_max: int, least: int, other: str) -> None:
    """Refuse when size(--max) passes the budget, naming --max, or the other
    flags when even size(least) passes it."""
    flags = other if size(least) > SEQ_BUDGET else "--max"
    _refuse(size(n_max), SEQ_BUDGET, "seq request", flags)


def _seq_payload(ns: argparse.Namespace) -> dict:
    if ns.max < 0:
        raise ValueError(f"--max must be at least 0, got {ns.max}")
    family = ns.family
    if family == "g":
        mspec = parse_mspec(_require(ns.m, "--m", family))
        k = _require(ns.k, "--k", family)
        _check_budget(lambda d: _scan_size(mspec, k, d), ns.max, k, "--m or --k")
        values = gb_degree_sequence(mspec, k, ns.max).values
        return {
            "family": "g",
            "m": {"prefix": list(mspec.prefix), "tail": mspec.tail},
            "k": k,
            "values": [[d, c] for d, c in values],
        }
    if family in ("motzkin", "riordan", "catalan"):
        # every term lies below 4^i (Catalan) or 3^i
        base = 4 if family == "catalan" else 3
        _check_budget(
            lambda n: _capped(map(_power_digits, repeat(base), range(n + 1)), SEQ_BUDGET),
            ns.max, 0, "--max",
        )
        return {
            "family": family,
            "values": [[i, v] for i, v in enumerate(classical_row(family, ns.max))],
        }
    if family == "s-catalan":
        m_val = _single_int_m(_require(ns.m, "--m", family), family)
        if m_val >= 2:  # a smaller --m is refused before any work
            # row n holds (m - 1) n + 1 entries, each below m^(2n)
            row_digits = lambda i: ((m_val - 1) * i + 1) * _power_digits(m_val, 2 * i)
            _check_budget(
                lambda n: _capped(map(row_digits, range(n + 1)), SEQ_BUDGET),
                ns.max, 1, "--m",
            )
        triangle = s_catalan_triangle(m_val, ns.max)
        return {
            "family": "s-catalan",
            "m": m_val,
            "s": triangle.s,
            "rows": [list(row) for row in triangle.rows],
        }
    if family == "spin":
        m_val = _single_int_m(_require(ns.m, "--m", family), family)
        sigma = Fraction(m_val - 1, 2)
        if m_val >= 2:  # a smaller --m is refused before any work
            # N particles read degree (m - 1) N / 2 + 1 of the sequence for k = 1
            _check_budget(
                lambda n: _scan_size(
                    MSpec.constant(m_val), 1, (m_val - 1) * n // 2 + 1
                ),
                ns.max, 0, "--m",
            )
        values = spin_catalan_degeneracies(sigma, ns.max)
        return {
            "family": "spin",
            "m": m_val,
            "sigma": str(sigma),
            "values": [[i, v] for i, v in enumerate(values)],
        }
    raise ValueError(f"unknown family {family!r}; pick one of {', '.join(SEQ_FAMILIES)}")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_seq(ns: argparse.Namespace) -> tuple:
    payload = _seq_payload(ns)
    if ns.format == "json":
        return _dumps(payload), True
    if payload["family"] == "s-catalan":
        if ns.format == "csv":
            rows = [
                (i, j, v)
                for i, row in enumerate(payload["rows"])
                for j, v in enumerate(row)
            ]
            return _csv_text(("n", "k", "value"), rows), True
        text = "\n".join(" ".join(str(v) for v in row) for row in payload["rows"])
        return text + "\n", True
    header = ("degree", "count") if payload["family"] == "g" else ("index", "value")
    if ns.format == "csv":
        return _csv_text(header, payload["values"]), True
    return " ".join(str(v) for _, v in payload["values"]) + "\n", True


def _check_m_free(m, what: str, flags: str) -> None:
    """Refuse an R/(x^m) of more than VERIFY_CASE_BUDGET m-free monomials,
    the product of the exponents, multiplied up only until it passes."""
    count = _capped(m, VERIFY_CASE_BUDGET, operator.mul)
    _refuse(count, VERIFY_CASE_BUDGET, what, flags, " m-free monomials")


def _cmd_wlp(ns: argparse.Namespace) -> tuple:
    _check_m_free(ns.m, "wlp request", "--n or --m")
    verdict = wlp_decide(ns.n, ns.m, ns.p, routes=ns.routes)
    if ns.format == "json":
        return _dumps(
            {
                "n": verdict.n,
                "m": list(verdict.m),
                "p": verdict.p,
                "has_wlp": verdict.has_wlp,
                "route": verdict.route,
                "witness": verdict.witness,
                "findings": [
                    {
                        "route": f.route,
                        "holds": f.holds,
                        "witness": f.witness,
                    }
                    for f in verdict.findings
                ],
                "explanation": verdict.explanation,
            }
        ), True
    m_text = ",".join(str(v) for v in verdict.m)
    lines = [
        f"n={verdict.n} m={m_text} p={verdict.p}",
        f"has_wlp: {'yes' if verdict.has_wlp else 'no'}",
        f"decided by: {verdict.route}",
    ]
    for f in verdict.findings:
        tail = "" if f.witness is None else f" witness={json.dumps(f.witness)}"
        lines.append(f"{f.route}: {'holds' if f.holds else 'fails'}{tail}")
    if verdict.explanation:
        lines.append(f"note: {verdict.explanation}")
    return "\n".join(lines) + "\n", True


def _cmd_rank(ns: argparse.Namespace) -> tuple:
    _check_m_free(ns.m, "rank request", "--n or --m")
    series = hs_complete_intersection(ns.m)
    expected = min(hf(series, ns.d), hf(series, ns.d + ns.e))
    rank = multiplication_rank(ns.n, ns.m, ns.p, ns.d, e=ns.e)
    if ns.format == "json":
        return _dumps(
            {
                "n": ns.n,
                "m": list(ns.m),
                "p": ns.p,
                "d": ns.d,
                "e": ns.e,
                "rank": rank,
                "expected": expected,
                "maximal": rank == expected,
            }
        ), True
    verdict = "maximal" if rank == expected else "NOT maximal"
    return f"rank {rank} expected {expected}: {verdict}\n", True


def _cmd_render(ns: argparse.Namespace) -> tuple:
    if len(ns.s) != ns.n:
        raise ValueError("--s must list one exponent per variable")
    line = ReflectionLine.build(ns.n, ns.m, ns.k)
    heights = path_from_monomial(ns.s)
    if not is_admissible(heights, ns.m):
        raise ValueError(
            "--s must be m-free: every exponent at least 0 and below its bound"
        )
    image = None
    if ns.reflect:
        image = reflect(heights, line)
        if image is None:
            raise ValueError("path never touches the line, nothing to reflect")
    render = render_svg if ns.format == "svg" else render_ascii
    return render(heights, line, reflected=image), True


# ---------------------------------------------------------------------------
# grid verification


def _verify_case(case):
    n, m, k, with_census = case
    row = {"n": n, "m": list(m), "k": k}
    oracle_ideal = None
    # reduced_gb's kind only sorts the elements, and a fingerprint is a set
    mine = reduced_gb(n, m, k).fingerprint()
    for kind in ("grevlex", "grlex"):
        order = TermOrder(kind, tuple(range(1, n + 1)))
        oracle = oracle_reduced_gb(n, m, k, OracleConfig(order))
        row[f"gb_{kind}"] = mine == oracle.fingerprint()
        if kind == "grevlex":
            oracle_ideal = oracle.initial_ideal()
    series = truncate_lefschetz(hs_complete_intersection(m), k)
    # equal ideals have equal Hilbert functions: count each distinct one
    # once, through the first degree where its quotient vanishes.  The
    # truncated series is positive up to its end, so the counts agree with it
    # in every degree iff they are the series and one 0
    ideals = {minimal_generators(n, m, k), oracle_ideal}
    row["hilbert"] = all(hilbert_counts(n, m, ideal) == series + (0,) for ideal in ideals)
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


def _grid_count(n_max: int, m_max: int, k_max: int, census: bool = False) -> int:
    """Cases of the verify grid, k_max times the sum of (m_max - 1)^n over
    n = 1..n_max, or with census the rankings its census walks, each term
    times n!; summed only until it passes VERIFY_BUDGET or CENSUS_BUDGET."""
    r, budget = m_max - 1, CENSUS_BUDGET if census else VERIFY_BUDGET
    if min(r, k_max) < 1:
        return 0
    terms = (
        k_max * r**n * (factorial(n) if census else 1) for n in range(1, n_max + 1)
    )
    return _capped(terms, budget)


def verify_all(grid, census: bool = False) -> dict:
    """Cross-check every case of the grid: closed-form basis against the
    Buchberger oracle in both orders, and the three Hilbert function routes
    against each other. Grid bounds are inclusive; exponents run from 2."""
    n_max, m_max, k_max = grid
    flags = "--n-max, --m-max or --k-max"
    size = _grid_count(n_max, m_max, k_max)
    _refuse(size, VERIFY_BUDGET, "verify grid", flags, " cases")
    # an empty grid may have a huge n_max, so nothing walks it
    if size:
        _check_m_free(repeat(m_max, n_max), "verify grid's largest case", "--n-max or --m-max")
    if census:
        count = _grid_count(n_max, m_max, k_max, census)
        _refuse(count, CENSUS_BUDGET, "verify census", flags, " rankings")
    cases = [
        (n, m, k, census)
        for n in range(1, n_max + 1)
        for m in product(range(2, m_max + 1), repeat=n)
        for k in range(1, k_max + 1)
    ] if size else []
    threads = _thread_count()
    if threads > 1 and len(cases) > 1:
        # imported here: it loads multiprocessing, which no other path needs
        from concurrent.futures import ProcessPoolExecutor

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


def _cmd_verify(ns: argparse.Namespace) -> tuple:
    report = verify_all((ns.n_max, ns.m_max, ns.k_max), census=ns.census)
    if ns.format == "json":
        return _dumps(report), report["ok"]
    lines = []
    for row in report["cases"]:
        m_text = ",".join(str(v) for v in row["m"])
        cells = [
            f"n={row['n']} m={m_text} k={row['k']}",
            "gb[grevlex]=" + ("ok" if row["gb_grevlex"] else "FAIL"),
            "gb[grlex]=" + ("ok" if row["gb_grlex"] else "FAIL"),
            "hilbert=" + ("ok" if row["hilbert"] else "FAIL"),
        ]
        if ns.census:
            cells.append(f"census={row['census']}")
        lines.append("  ".join(cells))
    lines.append(f"passed {report['passed']} of {len(report['cases'])}")
    return "\n".join(lines) + "\n", report["ok"]


# ---------------------------------------------------------------------------
# wiring


# One long option: its converter (None for a switch), its help, and the value
# it takes when neither the command line nor the config file gives one.
Flag = namedtuple("Flag", "convert help default", defaults=(None,))


# the order here is the order of every subcommand's --help
FLAGS = {
    "--config": Flag(_text, "JSON file with defaults for any option"),
    "--format": Flag(_text, "output format"),
    "--out": Flag(_text, "write here atomically instead of stdout"),
    "--n": Flag(_int, "number of variables"),
    "--m": Flag(_text, "exponents: comma list, eq:M:N, or integer"),
    "--k": Flag(_int, "power of the variable sum"),
    "--ranking": Flag(_int_list, "variable ranking, highest first"),
    "--order": Flag(_text, "order kind: grevlex or grlex", "grevlex"),
    "--family": Flag(_text, "one of " + ", ".join(SEQ_FAMILIES)),
    "--max": Flag(_int, "largest index to compute"),
    "--p": Flag(_int, "prime characteristic"),
    "--routes": Flag(_routes, "comma list: threshold, rank, initideal"),
    "--d": Flag(_int, "source degree"),
    "--e": Flag(_int, "power of the multiplier, default 1", 1),
    "--n-max": Flag(_int, "largest n, default 4", 4),
    "--m-max": Flag(_int, "largest exponent, default 4", 4),
    "--k-max": Flag(_int, "largest power, default 4", 4),
    "--census": Flag(None, "count distinct bases over all rankings per case", False),
    "--s": Flag(_int_list, "exponents of the monomial, comma list"),
    "--reflect": Flag(None, "overlay the reflected path", False),
}


@dataclass(frozen=True)
class Subcommand:
    """One subcommand: the handler gets the validated namespace and returns
    (text, ok); the first format is the default, and every subcommand also
    takes --config, --format and --out."""

    help: str
    handler: Callable
    formats: tuple
    required: tuple
    optional: tuple

    def flags(self) -> list:
        """(flag, argparse dest) pairs in the order of FLAGS."""
        mine = ("--config", "--format", "--out") + self.required + self.optional
        return [(flag, flag[2:].replace("-", "_")) for flag in FLAGS if flag in mine]


SUBCOMMANDS = {
    "gb": Subcommand("reduced basis", _cmd_gb, ("json", "text", "m2"),
                     ("--m", "--k"), ("--n", "--ranking", "--order")),
    "init": Subcommand("initial ideal", _cmd_init, ("json", "text"),
                       ("--m", "--k"), ("--n",)),
    "crit": Subcommand("critical monomials", _cmd_crit, ("json", "text"),
                       ("--m", "--k"), ("--n",)),
    "hilbert": Subcommand("Hilbert series", _cmd_hilbert, ("json", "text"),
                          ("--m", "--k"), ("--n",)),
    "seq": Subcommand("integer sequences", _cmd_seq, ("text", "json", "csv"),
                      ("--family", "--max"), ("--m", "--k")),
    "wlp": Subcommand("weak Lefschetz verdict mod p", _cmd_wlp, ("json", "text"),
                      ("--m", "--p"), ("--n", "--routes")),
    "rank": Subcommand("one multiplication rank mod p", _cmd_rank, ("json", "text"),
                       ("--m", "--p", "--d"), ("--n", "--e")),
    "verify": Subcommand("oracle cross-checks over a grid", _cmd_verify,
                         ("text", "json"), (),
                         ("--n-max", "--m-max", "--k-max", "--census")),
    "render": Subcommand("draw a lattice path", _cmd_render, ("ascii", "svg"),
                         ("--m", "--k", "--s"), ("--n", "--reflect")),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process and shared: do not mutate; ``__wrapped__()`` is fresh."""
    parser = argparse.ArgumentParser(
        prog="acigb",
        description="Groebner bases of power-sum almost complete intersections.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, spec in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        for flag, _ in spec.flags():
            action = "store_true" if FLAGS[flag].convert is None else "store"
            p.add_argument(flag, action=action, help=FLAGS[flag].help)
    return parser


def _merge_config(ns: argparse.Namespace, spec: Subcommand) -> None:
    if ns.config is None:
        return
    with open(ns.config) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    by_dest = {dest: flag for flag, dest in spec.flags() if flag != "--config"}
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in by_dest:
            raise ValueError(f"config key {key!r} is not an option of this subcommand")
        # a switch takes a JSON boolean, any other flag a string or an integer
        # (bool is a subclass of int, hence the first test)
        switch = FLAGS[by_dest[dest]].convert is None
        if isinstance(value, bool) != switch or not isinstance(value, (str, int)):
            kind = "true or false" if switch else "a string or an integer"
            raise ValueError(f"config key {key!r} takes {kind}, got {json.dumps(value)}")
        if getattr(ns, dest) in (None, False):
            setattr(ns, dest, value)


def _validate(ns: argparse.Namespace, spec: Subcommand) -> None:
    """Convert every flag of the subcommand in place, fill in defaults, and
    refuse a missing required flag or a format the subcommand does not write."""
    for flag, dest in spec.flags():
        value = getattr(ns, dest)
        if value is None:
            if flag in spec.required:
                raise ValueError(f"{ns.subcommand} needs {flag}")
            value = FLAGS[flag].default
        elif FLAGS[flag].convert is not None:
            value = FLAGS[flag].convert(value, flag)
        if flag == "--m" and "--n" in spec.required + spec.optional:
            # the length of the vector fixes n, or --n widens a bare integer
            ns.n, value = parse_m(value, ns.n)
        setattr(ns, dest, value)
    if ns.format is None:
        ns.format = spec.formats[0]
    if ns.format not in spec.formats:
        raise ValueError(
            f"{ns.subcommand} writes {', '.join(spec.formats)}; got {ns.format!r}"
        )


def _drop_stdout() -> None:
    """After a broken pipe, point stdout's file descriptor at devnull, so
    the flush at exit does not fail on the closed pipe again (the recipe in
    the Python docs' note on SIGPIPE)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not a file: nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    """Run one command line; safe to call repeatedly in one process."""
    ns = build_parser().parse_args(argv)
    spec = SUBCOMMANDS[ns.subcommand]
    try:
        _merge_config(ns, spec)
        _validate(ns, spec)
        text, ok = spec.handler(ns)
        chunks = (text,) if type(text) is str else text
        if ns.out is None:
            stdout = sys.stdout  # as it is now: callers may swap it
            for chunk in chunks:
                stdout.write(chunk)
            stdout.flush()
        else:
            write_atomic(ns.out, chunks)
        return 0 if ok else 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError) and ns.out is None:
            _drop_stdout()
        return 1
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
