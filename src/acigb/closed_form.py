"""Reduced Groebner bases of (x_1^{m_1}, ..., x_n^{m_n}, (x_1+...+x_n)^k).

Each m-free minimal generator s of the initial ideal carries a basis element
g_s whose coefficients come in closed form: a sum over divisors of s with
factorial-ratio weights, or equivalently one explicit coefficient per tail
monomial.  A certificate construction multiplies a companion polynomial f_s
by ell^k inside a truncated polynomial ring and lands exactly on g_s, which
is how membership of g_s in the ideal is witnessed without any division, on
integers.  Elements, certificates and the counting identity share one divisor
walk, ``_box_weights``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from .algebra import (
    QQ,
    SparsePoly,
    TermOrder,
    binom,
    check_degree_vector,
    check_power,
    compositions,
    grevlex,
    is_m_free,
    max_index,
)
from .initial_ideal import (
    MonomialIdeal,
    critical_exponent,
    critical_sets,
    minimal_generators,
    quotient_levels,
)


def _check_generator_shape(s, j: int, m, k: int, n_total: int) -> None:
    if len(s) != n_total:
        raise ValueError("monomial length must equal the number of variables")
    if max_index(s) != j:
        raise ValueError(f"largest variable of {s} is not {j}")
    if not is_m_free(s, m):
        raise ValueError(f"{s} is not m-free")
    expected = critical_exponent(s, m, k, j)
    if s[j - 1] != expected:
        raise ValueError(f"{s} is not critical: x_{j} exponent must be {expected}")


def _box_weights(tables, lead, lo: int = 0):
    """(v, deg v, lead * prod tables[i][v_i]) for every v in the box
    0 <= v_i < len(tables[i]) with deg v >= lo and a nonzero weight."""
    for v in itertools.product(*(range(len(f)) for f in tables)):
        t = sum(v)
        if t < lo:
            continue
        w = lead
        for f, x in zip(tables, v):
            w *= f[x]
        if w:
            yield v, t, w


@lru_cache(maxsize=1024)
def _divisor_row(si: int, mi: int) -> tuple:
    """s_i!/t! * C(m_i - t - 1, s_i - t) for t = 0..s_i."""
    return tuple(factorial(si) // factorial(t) * binom(mi - t - 1, si - t) for t in range(si + 1))


def _divisor_tables(s, j: int, m):
    """(tables, lead) of the divisor walk for s: tables[i] is the
    ``_divisor_row`` of x_i, indexed by the exponent of x_i in a divisor s''
    of the head s_1 ... s_{j-1}, and lead is s_j!."""
    return list(map(_divisor_row, s[: j - 1], m[: j - 1])), factorial(s[j - 1])


def _divisor_numerators(s, j: int, m):
    """(s'', deg(s''), num) for every divisor s'' of the head
    s_1 ... s_{j-1}, ascending in s'', whose weight
    lambda_{s''} = num / (deg(s) - deg(s''))! is nonzero: num is s_j! times
    the ``_divisor_tables`` entries of s''."""
    return _box_weights(*_divisor_tables(s, j, m))


@lru_cache(maxsize=1024)
def _tail_colex(lo: int, hi: int, caps: tuple) -> tuple:
    """(comp, prod(comp!), deg comp) for every composition bounded by caps
    of a degree in lo..hi, ascending colex.  They are the compositions of hi
    with one more part, hi - deg comp, in front: ``compositions`` yields
    those ascending colex, which the front part, fixed by the rest, does
    not decide."""
    return tuple(
        (comp[1:], prod(map(factorial, comp[1:])), hi - comp[0])
        for comp in compositions(hi, (hi - lo,) + caps)
    )


@lru_cache(maxsize=1024)
def _tail_lex(e: int, caps: tuple) -> tuple:
    """(comp, prod(comp!)) for every composition of e bounded by caps,
    descending lex."""
    comps = sorted(compositions(e, caps), reverse=True)
    return tuple((comp, prod(map(factorial, comp))) for comp in comps)


# Fractions are immutable, so terms can share one per (num, den): a basis has
# few distinct pairs (16 over the 30,366 terms of (3,)*9, k = 3)
_fraction = lru_cache(maxsize=4096)(Fraction)


def build_gs_divisor_form(
    s, j: int, m, k: int, n_total: int, kind: str = "grevlex"
) -> SparsePoly:
    """Basis element for s as a divisor sum.

    g_s = sum over s'' | s/x_j^{s_j} of
        lambda_{s''} * s'' * (x_j + ... + x_n)^{deg(s) - deg(s'')},
    with the expansion reduced modulo the pure powers x_j^{m_j}, ..., x_n^{m_n}
    and the weights lambda_{s''} = num / e! of ``_divisor_numerators``, where
    e = deg(s) - deg(s'').  The term of s'' * comp is then
    lambda_{s''} * multinomial(e, comp) = num / prod(comp!).

    The terms come descending in the graded order of this kind with
    x_1 > ... > x_n, the order the writers of ``algebra`` expect; the element
    is homogeneous, so only the tie-break within degree d = deg(s) counts, and
    it follows from the two factors of each term.  In grevlex, descending is
    ascending colex, and the tail comp holds the last variables: the
    compositions ascending colex over all their degrees, and after each the
    divisors of degree d - deg(comp) ascending colex, which the divisor walk
    gives over the reversed tables.  In grlex, descending is descending lex:
    the divisors descending lex, and after each the compositions of its tail
    degree descending lex.
    """
    m = check_degree_vector(m)
    _check_generator_shape(s, j, m, k, n_total)
    s = tuple(s)
    d = sum(s)
    caps = tuple(mi - 1 for mi in m[j - 1 :])
    tables, lead = _divisor_tables(s, j, m)
    lo = d - sum(caps)  # a divisor of lower degree has no composition
    terms: dict = {}
    # each (s'', comp) is its own monomial, so no two terms meet; every
    # numerator is positive, so no coefficient is 0
    if kind == "grlex":
        for sdd, t, num in reversed(list(_box_weights(tables, lead, lo))):
            for comp, den in _tail_lex(d - t, caps):
                terms[sdd + comp] = _fraction(num, den)
        return SparsePoly(n_total, QQ, terms)
    by_tail: dict = {}  # tail degree -> [(s'', num)], ascending colex
    for v, t, num in _box_weights(tables[::-1], lead, lo):
        by_tail.setdefault(d - t, []).append((v[::-1], num))
    # the tail degrees run from s_j, for s'' the whole head, up to d - lo
    for comp, den, e in _tail_colex(s[j - 1], d - max(lo, 0), caps):
        for sdd, num in by_tail[e]:
            terms[sdd + comp] = _fraction(num, den)
    return SparsePoly(n_total, QQ, terms)


def build_gs_tail_form(
    s, j: int, m, k: int, n_total: int, ideal: MonomialIdeal | None = None
) -> SparsePoly:
    """Basis element for s written as s plus one term per tail monomial.

    A tail monomial t is m-free of the same degree, smaller than s, outside
    the initial ideal, and bounded by s in every variable before x_j; its
    coefficient is the binomial product over those variables times the ratio
    of factorial products of the two exponent vectors.  Those bounds are
    pure powers x_i^(s_i + 1), so the candidates are the standard monomials
    of degree deg(s) that ``quotient_levels`` yields under them; the terms
    come descending in grevlex.
    """
    m = check_degree_vector(m)
    _check_generator_shape(s, j, m, k, n_total)
    s = tuple(s)
    if ideal is None:
        ideal = minimal_generators(n_total, m, k)
    bounds = tuple(si + 1 for si in s[: j - 1]) + m[j - 1 :]
    layout, levels = quotient_levels(n_total, bounds, ideal)
    s_key, s_fact = layout.pack(s), prod(map(factorial, s))
    terms: dict = {s: Fraction(1)}
    level = next(itertools.islice(levels, sum(s), None))
    for key in sorted(level, reverse=True):
        if key < s_key:
            t = layout.unpack(key)
            num = s_fact
            for i in range(j - 1):
                # positive, since t_i <= s_i < m_i
                num *= binom(m[i] - t[i] - 1, s[i] - t[i])
            terms[t] = Fraction(num, prod(map(factorial, t)))
    return SparsePoly(n_total, QQ, terms)


# ---------------------------------------------------------------------------
# membership certificates


@dataclass(frozen=True)
class Certificate:
    """Witness that g_s lies in the ideal: the weights mu_v of the companion
    polynomial f_s = sum over v | u of mu_v * v * ell^{deg(u) - deg(v)}.

    f_s lives in n variables where the last one stands for y; the identity
    g_s = f_s * ell^k holds modulo the pure powers of the first n - 1
    variables only, with ell = x_1 + ... + x_{n-1} + y.  mu holds the
    (v, mu_v) pairs with mu_v != 0, ascending in v.
    """

    s: tuple
    k: int
    u: tuple
    mu: tuple


def _certificate_frame(s, m, k: int):
    n = len(s)
    if len(m) != n:
        raise ValueError("degree vector length must match the monomial")
    check_power(k)
    if s[n - 1] <= 0:
        raise ValueError("last variable must divide the monomial")
    m_x = tuple(m[: n - 1])
    expected = critical_exponent(s, m, k, n)
    if s[n - 1] != expected:
        raise ValueError(f"last exponent must be {expected}, got {s[n - 1]}")
    if any(s[i] > m_x[i] - 1 for i in range(n - 1)):
        raise ValueError("head of the monomial must divide x^(m-1)")
    return n, m_x


def build_certificate(s, m, k: int) -> Certificate:
    """Companion polynomial f_s with one term per divisor of the complement.

    u completes s' to the full staircase x_1^{m_1-1} ... x_{n-1}^{m_{n-1}-1};
    each divisor v of u contributes mu_v * v * ell^{deg(s) - deg(v) - k}, with
    mu_v = (-1)^deg(v) s_n!/(deg(s) - deg(v))! prod s_i!/v_i! C(m_i - 1 - v_i, u_i - v_i).
    The exponent equals deg(u) - deg(v), so it is never negative once the
    degree condition on s holds.
    """
    s = tuple(s)
    n, m_x = _certificate_frame(s, m, k)
    d = sum(s)
    u = tuple(m_x[i] - 1 - s[i] for i in range(n - 1))
    # (-1)^deg(v) splits into one sign per variable
    tables = [
        [
            (-1) ** x * Fraction(factorial(si), factorial(x)) * binom(mi - 1 - x, ui - x)
            for x in range(ui + 1)
        ]
        for si, mi, ui in zip(s, m_x, u)
    ]
    # the box walk is lexicographic in v, so mu comes out ascending
    mu = tuple(
        (v, Fraction(w, factorial(d - t)))
        for v, t, w in _box_weights(tables, factorial(s[n - 1]))
    )
    return Certificate(s=s, k=k, u=u, mu=mu)


def verify_certificate(cert: Certificate, m) -> bool:
    """Check g_s == f_s * ell^k modulo the pure powers on x_1..x_{n-1}, on
    integers: both sides times the lcm of the mu_v's denominators, and
    f_s * ell^k by Horner in ell, one pass per degree of v, then k more."""
    n, m_x = _certificate_frame(cert.s, m, cert.k)
    d = sum(cert.s)
    scale = lcm(*(mu.denominator for _, mu in cert.mu))
    layers: dict = {}
    for v, mu in cert.mu:
        layers.setdefault(sum(v), []).append((v + (0,), mu.numerator * (scale // mu.denominator)))
    # y never reaches degree d + 1, so its cap never drops a term
    caps, poly = m_x + (d + 1,), {}
    for t in range(sum(cert.u) + cert.k + 1):
        # times ell, dropping each term past a pure power as it is made
        step: dict = {}
        for mono, c in poly.items():
            for i, cap in enumerate(caps):
                if mono[i] + 1 < cap:
                    e = mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
                    step[e] = step.get(e, 0) + c
        poly = step
        for v, w in layers.get(t, ()):
            poly[v] = poly.get(v, 0) + w
    # scale * g_s, with one stand-in variable y for the trailing block
    want = {
        sdd + (d - t,): Fraction(scale * num, factorial(d - t))
        for sdd, t, num in _divisor_numerators(cert.s, n, m_x)
    }
    return {mono: c for mono, c in poly.items() if c} == want


def counting_identity(p, q, r) -> bool:
    """Signed divisor sum against the product of complement binomials.

    With alpha = p + q taken exponentwise, checks
    sum over v | gcd(p, r) of (-1)^deg(v) prod C(r_i, v_i) C(alpha_i - v_i, p_i - v_i)
    equals prod C(alpha_i - r_i, p_i).
    """
    if not len(p) == len(q) == len(r):
        raise ValueError("exponent vectors must share one length")
    alpha = tuple(pi + qi for pi, qi in zip(p, q))
    if any(ri > ai for ri, ai in zip(r, alpha)):
        raise ValueError("third monomial must divide the product of the first two")
    tables = [
        [(-1) ** x * binom(ri, x) * binom(ai - x, pi - x) for x in range(min(pi, ri) + 1)]
        for pi, ri, ai in zip(p, r, alpha)
    ]
    lhs = sum(w for _, _, w in _box_weights(tables, 1))
    return lhs == prod(binom(ai - ri, pi) for ri, ai, pi in zip(r, alpha, p))


# ---------------------------------------------------------------------------
# assembled bases


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced basis: monic elements whose leading monomials form the minimal
    generating antichain of the initial ideal, tails outside it; leads[i] is
    the leading monomial of elements[i]."""

    n: int
    m: tuple
    k: int
    order: TermOrder
    elements: tuple
    leads: tuple

    def initial_ideal(self) -> MonomialIdeal:
        """The ideal of the leading monomials, generators grevlex-descending;
        the basis's producer, not the ideal, makes the leads minimal."""
        return MonomialIdeal(self.n, tuple(grevlex(self.n).descending(self.leads)))

    def fingerprint(self) -> frozenset:
        """Marked basis: each element's leading monomial with the set of its
        (monomial, coefficient) terms, so neither the order of the elements
        nor that of their terms counts, and the coefficients compare as
        numbers, whatever their field.

        Two orders can share every polynomial yet mark different leading
        monomials; over m = (3, 3, 3), k = 1 the rankings that agree on the
        top variable produce the same four polynomials while their initial
        ideals differ, and they count as different bases.
        """
        return frozenset(
            (lead, frozenset(g.terms.items())) for lead, g in zip(self.leads, self.elements)
        )


def sort_elements(pairs: list, order: TermOrder) -> tuple:
    """(leads, xs) of (leading monomial, x) pairs with distinct leads,
    sorted in ascending degree and, within a degree, the higher leading
    monomial first; x is an element, or what builds one."""
    x_of = dict(pairs)
    # stable sorts: descending in the order, then ascending in degree
    leads = order.descending(x_of)
    leads.sort(key=sum)
    return tuple(leads), tuple(map(x_of.__getitem__, leads))


def basis_order(n: int, ranking=None, kind: str = "grevlex") -> TermOrder:
    """The graded order of this kind on n variables ranked highest first,
    x_1 > ... > x_n unless a ranking is given."""
    if ranking is None:
        ranking = tuple(range(1, n + 1))
    if len(ranking) != n:
        raise ValueError(f"ranking must permute 1..{n}, got {tuple(ranking)}")
    return TermOrder(kind, tuple(ranking))


def basis_elements(n: int, m, k: int, order: TermOrder) -> Iterator:
    """(leading monomial, element) pairs of the reduced basis in the order
    of ``sort_elements``, for a graded order on the n variables
    (``basis_order``).

    The call checks m and k, computes the critical sets and sorts the leads;
    the iterator it returns builds each element only when it is reached, so
    a caller that writes each element as it comes holds one at a time.  The
    basis depends only on the variable ranking, so the elements are built in
    a relabeled frame where the ranking is the identity, then mapped back.
    Each element's terms come descending in the order, as the writers of
    ``algebra`` take them: the frame's build emits them descending in the
    order's kind, and the relabeling maps the frame's order onto the order.
    """
    m = check_degree_vector(m, n)
    m_perm = tuple(m[r - 1] for r in order.ranking)

    # frame variable i is original variable ranking[i], so original
    # variable r reads frame position src[r - 1]
    src = [0] * n
    for i, r in enumerate(order.ranking):
        src[r - 1] = i
    relabel = src != list(range(n))

    def back(mono):
        return tuple(map(mono.__getitem__, src))

    crit = critical_sets(n, m_perm, k)
    # each lead with what builds its element: None for a pure power, else
    # the critical monomial in the frame and its largest variable
    recipes = [(back(p) if relabel else p, None) for p in crit.pure_powers]
    for j, group in enumerate(crit.by_index, start=1):
        recipes += [(back(s) if relabel else s, (s, j)) for s in group]
    leads, recipes = sort_elements(recipes, order)

    def elements():
        for lead, recipe in zip(leads, recipes):
            if recipe is None:
                g = SparsePoly.monomial(n, lead, QQ)
            else:
                g = build_gs_divisor_form(*recipe, m_perm, k, n, order.kind)
                if relabel:
                    # a bijection on monomials that keeps the order: nothing
                    # merges or cancels, and the terms stay descending
                    g = SparsePoly(n, QQ, {back(mo): c for mo, c in g.terms.items()})
            yield lead, g

    return elements()


def reduced_gb(n: int, m, k: int, ranking=None, kind: str = "grevlex") -> GroebnerBasis:
    """Reduced Groebner basis for any graded order respecting the ranking:
    every pair of ``basis_elements``, collected.  Each element's leading
    monomial is the pure power or critical monomial s it is built from."""
    m = check_degree_vector(m, n)
    order = basis_order(n, ranking, kind)
    leads, elements = tuple(zip(*basis_elements(n, m, k, order))) or ((), ())
    return GroebnerBasis(n, m, k, order, elements, leads)


def distinct_gb_census(n: int, m, k: int) -> int:
    """Number of distinct reduced bases over all variable rankings."""
    seen = set()
    for perm in itertools.permutations(range(1, n + 1)):
        seen.add(reduced_gb(n, m, k, ranking=perm).fingerprint())
    return len(seen)
