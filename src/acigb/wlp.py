"""Lefschetz analysis for monomial complete intersections over prime fields.

Whether multiplication by the sum of the variables has maximal rank in
every degree of R/(x_1^{m_1}, ..., x_n^{m_n}) is decided here by three
routes: a closed-form characteristic threshold for five or more equal
exponents, a modular rank scan, and a comparison of the modular initial
ideal of the ideal extended by the linear form against its rational
counterpart.

The rank scan computes ranks only for the lower half of the degrees.  The
quotient is Gorenstein with socle degree top = sum(m_i - 1) over every
field, so multiplication from degree d is the transpose of multiplication
from degree top - 1 - d, and the h-vector is symmetric; the upper half
repeats the lower half rank for rank, expected rank for expected rank.

Equality of the initial ideals forces the weak Lefschetz property in
every case, since the property is read off the Hilbert series of the
extended quotient.  The converse holds for equal exponents with n >= 5
but genuinely fails for mixed exponents and for fewer than five equal
ones, where the property can survive a change of initial ideal.  The
rank scan therefore keeps the final word whenever it runs, and a
divergence that does not cost the property is reported next to the
verdict instead of being treated as a conflict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import check_degree_vector, clear_denominators, grevlex, is_prime
from .closed_form import reduced_gb
from .hilbert import hf, hs_complete_intersection
from .initial_ideal import minimal_generators
from .oracle import OracleConfig, initial_ideal_oracle, multiplication_rank

__all__ = [
    "ROUTES",
    "RouteFinding",
    "WlpVerdict",
    "gb_mod_p_check",
    "wlp_decide",
    "wlp_threshold_equigenerated",
]

ROUTES = ("threshold", "rank-oracle", "initial-ideal")

_ROUTE_ALIASES = {
    "threshold": "threshold",
    "rank": "rank-oracle",
    "rank-oracle": "rank-oracle",
    "initideal": "initial-ideal",
    "initial-ideal": "initial-ideal",
}


@dataclass(frozen=True)
class RouteFinding:
    """Outcome of a single route.

    ``holds`` records the route's own criterion: threshold exceeded,
    every rank maximal, or initial ideals equal.  The witness is route
    specific: the threshold value, the first deficient degree as
    (degree, rank, expected rank), or the pair (rational only, modular
    only) of diverging leading monomials.
    """

    route: str
    holds: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class WlpVerdict:
    """Decision together with every finding that contributed to it.

    ``route`` names the finding that settled ``has_wlp`` and ``witness``
    is copied from it.  ``explanation`` is set when the initial ideals
    diverge without costing the property, which can happen only outside
    five or more equal exponents.
    """

    n: int
    m: tuple
    p: int
    has_wlp: bool
    route: str
    witness: tuple | None
    findings: tuple = ()
    explanation: str | None = None


def wlp_threshold_equigenerated(n: int, m: int) -> int:
    """Largest characteristic that still breaks the property when all n
    exponents equal m; the property holds over F_p exactly for p above
    the returned bound.  Valid for n >= 5."""
    if n < 5:
        raise ValueError("threshold formula needs at least five variables")
    if m < 2:
        raise ValueError("exponents must be at least 2")
    return (n * (m - 1) + 1) // 2


def gb_mod_p_check(n: int, m, k: int, p: int) -> bool:
    """Leading-coefficient certificate: true exactly when no element of
    the closed-form basis, cleared to primitive integers, has a leading
    coefficient divisible by p.

    A pass means reduction mod p keeps every rational leading monomial
    in place.  It does not by itself force the modular initial ideal to
    equal the rational one: ideal membership certificates can carry
    denominators that the reduced coefficients never show, and the
    modular ideal can grow in ways this test is blind to.  The tests
    pin concrete instances on both sides of that boundary; decisions
    about the Lefschetz property itself always go through the routes of
    ``wlp_decide``, never through this certificate.
    """
    if not is_prime(p):
        raise ValueError("modulus must be prime")
    basis = reduced_gb(n, m, k)
    for lead, g in zip(basis.leads, basis.elements):
        if clear_denominators(g).terms[lead].numerator % p == 0:
            return False
    return True


def _run_threshold(n: int, m: tuple, p: int) -> RouteFinding:
    bound = wlp_threshold_equigenerated(n, m[0])
    return RouteFinding("threshold", p > bound, (bound,))


def _run_rank(n: int, m: tuple, p: int) -> RouteFinding:
    series = hs_complete_intersection(m)
    top = sum(mi - 1 for mi in m)
    # the upper half mirrors the lower (module docstring), so the first
    # deficient degree, if there is one, lies in the lower half
    for d in range((top + 1) // 2):
        expected = min(hf(series, d), hf(series, d + 1))
        got = multiplication_rank(n, m, p, d, e=1)
        if got != expected:
            return RouteFinding("rank-oracle", False, (d, got, expected))
    return RouteFinding("rank-oracle", True, None)


def _run_initial_ideal(n: int, m: tuple, p: int) -> RouteFinding:
    order = grevlex(n)
    modular = set(initial_ideal_oracle(n, m, 1, OracleConfig(order, p)).min_gens)
    rational = set(minimal_generators(n, m, 1).min_gens)
    if modular == rational:
        return RouteFinding("initial-ideal", True, None)
    only_rat = tuple(order.descending(rational - modular))
    only_mod = tuple(order.descending(modular - rational))
    return RouteFinding("initial-ideal", False, (only_rat, only_mod))


_RUNNERS = {
    "threshold": _run_threshold,
    "rank-oracle": _run_rank,
    "initial-ideal": _run_initial_ideal,
}


def _select_routes(routes, equigenerated: bool, in_regime: bool) -> tuple:
    if routes is None:
        if in_regime:
            return ROUTES
        if equigenerated:
            # below five variables the threshold formula is silent and
            # ideal equality is only one-directional, so the rank scan
            # decides alone
            return ("rank-oracle",)
        return ("rank-oracle", "initial-ideal")
    chosen = []
    for name in routes:
        canonical = _ROUTE_ALIASES.get(name)
        if canonical is None:
            raise ValueError(f"unknown route {name!r}; pick from {sorted(_ROUTE_ALIASES)}")
        if canonical not in chosen:
            chosen.append(canonical)
    if "threshold" in chosen and not in_regime:
        raise ValueError("threshold route needs five or more equal exponents")
    if not chosen:
        raise ValueError("no decision route selected")
    return tuple(chosen)


def wlp_decide(n: int, m, p: int, routes=None) -> WlpVerdict:
    """Decide the weak Lefschetz property of R/(x_1^{m_1},...,x_n^{m_n})
    over F_p.

    ``m`` may be a single exponent for the equigenerated case.  By
    default every applicable route runs; an explicit iterable of route
    names (threshold, rank or rank-oracle, initideal or initial-ideal)
    restricts the run.  Routes that answer the property itself must
    agree, otherwise the run aborts.  An initial-ideal divergence that
    leaves the property intact is legitimate outside five or more equal
    exponents and is returned with an explanation instead.
    """
    if n < 1:
        raise ValueError(f"wlp needs at least one variable, got n={n} (--n or --m)")
    mm = check_degree_vector((m,) * n if isinstance(m, int) else m, n)
    if not is_prime(p):
        raise ValueError("characteristic must be prime")
    equigenerated = len(set(mm)) == 1
    in_regime = equigenerated and n >= 5
    chosen = _select_routes(routes, equigenerated, in_regime)

    findings = tuple(_RUNNERS[route](n, mm, p) for route in chosen)
    by_route = {f.route: f for f in findings}

    # what each finding says about the property; outside the regime a
    # diverging initial ideal says nothing, equality always suffices
    claims = {}
    for f in findings:
        if f.route == "initial-ideal" and not f.holds and not in_regime:
            continue
        claims[f.route] = f.holds

    if len(set(claims.values())) > 1:
        detail = ", ".join(f"{r}={'yes' if v else 'no'}" for r, v in claims.items())
        raise RuntimeError(
            f"routes disagree on the property for n={n}, m={mm}, p={p}: {detail}"
        )

    for route in ("rank-oracle", "threshold", "initial-ideal"):
        if route in claims:
            decider = by_route[route]
            has_wlp = claims[route]
            break
    else:
        raise ValueError(
            "initial ideals differ, but outside five or more equal exponents "
            "that refutes nothing; include the rank route to settle the property"
        )

    explanation = None
    diverged = by_route.get("initial-ideal")
    if has_wlp and diverged is not None and not diverged.holds:
        regime = (
            "below five equal exponents" if equigenerated else "once the exponents are mixed"
        )
        explanation = (
            "the property holds even though the modular initial ideal "
            "differs from the rational one; equal initial ideals are "
            f"sufficient but not necessary {regime}"
        )

    return WlpVerdict(
        n=n,
        m=mm,
        p=p,
        has_wlp=has_wlp,
        route=decider.route,
        witness=decider.witness,
        findings=findings,
        explanation=explanation,
    )
