"""Independent Buchberger engine and modular rank computations.

Nothing here knows about lattice paths or closed-form coefficients: bases
are computed from the raw generators by S-polynomial reduction, so agreement
with the constructive modules is a genuine cross-check rather than a
tautology.  Works over the rationals or a prime field.

The reductions run on the packed keys of ``algebra.PackedLayout``, one int
per monomial whose integer order is the term order: the lead tables, the
pair rules, the S-polynomials and every ``reduce_full`` stay packed from the
first pair to the end of the interreduction.  ``buchberger`` takes and
returns ``SparsePoly`` polynomials.

``oracle_reduced_gb`` runs the pair loop Hilbert-driven (Traverso, J.
Symbolic Comput. 22, 1996), with a lower bound in place of a known Hilbert
function.  With h the Hilbert function of R/(x_1^{m_1}, ..., x_n^{m_n}),
multiplying by (x_1 + ... + x_n)^k from degree d - k has rank at most
h(d - k), so HF(R/I)(d) >= max(0, h(d) - h(d - k)) over any field.  T, the
series ``hilbert.truncate_lefschetz`` cuts at its first non-positive
coefficient and 0 beyond, is at most that bound in every degree.  The leads
L lie in in(I), so #std_d(L) >= HF(R/in(I))(d) = HF(R/I)(d) >= T(d).  Once
the leads leave exactly T(d) standard monomials in degree d they span in(I)
there, and every S-pair still waiting in degree d reduces to zero: it is
dropped unreduced.  Where the bound is not met, as where the weak Lefschetz
property fails over F_p, every pair is reduced.  The argument needs
homogeneous generators, so ``buchberger`` with no floor, as on any other
system, reduces every pair.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .algebra import (
    QQ,
    Field,
    PackedLayout,
    PackedPoly,
    SparsePoly,
    TermOrder,
    check_degree_vector,
    check_power,
    enumerate_m_free,
    grevlex,
    lead_entry,
    lead_table,
    linear_power,
    mono_mul,
    reduce_full,
)
from .closed_form import GroebnerBasis, sort_elements
from .hilbert import hs_complete_intersection, truncate_lefschetz
from .initial_ideal import MonomialIdeal, standard_levels


@dataclass(frozen=True)
class OracleConfig:
    order: TermOrder
    p: int | None = None

    @property
    def field(self) -> Field:
        return Field(self.p)


def power_sum_generators(n: int, m, k: int, field: Field = QQ) -> list:
    """The defining generators: each pure power and the k-th power of the
    sum of all variables."""
    m = check_degree_vector(m, n)
    check_power(k)
    gens = []
    for i in range(n):
        mono = tuple(m[i] if t == i else 0 for t in range(n))
        gens.append(SparsePoly.monomial(n, mono, field))
    gens.append(linear_power(n, k, field))
    return gens


def spoly(a: tuple, b: tuple, lcm: int, layout: PackedLayout, field: Field) -> PackedPoly:
    """S-polynomial of two ``lead_table`` entries on the keys of layout, whose
    leads have the packed lcm ``lcm``, with the cofactors lc_b / gcd and
    lc_a / gcd of the leading coefficients, so integer entries give an
    integer result; both are 1 over F_p.  The leading terms cancel, and a
    tail term t of either side moves to t + lcm - lead."""
    (_, ka, ca, ta), (_, kb, cb, tb) = a, b
    d = math.gcd(ca, cb)
    fa, fb, p = cb // d, -(ca // d), field.p
    shift = lcm - ka
    terms = {t + shift: fa * v for t, v in ta}
    shift = lcm - kb
    for t, v in tb:
        t += shift
        acc = terms.get(t, 0) + fb * v
        if p:
            acc %= p
        if acc:
            terms[t] = acc
        else:
            del terms[t]
    return PackedPoly(layout, field, terms)


def _interreduce(table: list, layout: PackedLayout, field: Field) -> list:
    """Reduced basis from the lead table of a Groebner basis, as (leading
    monomial, monic element) pairs."""
    # minimality first: drop any element whose leading monomial another
    # divides; keys sort in the term order
    guard, sign = layout.guard, layout.sign
    kept: list = []
    for entry in sorted(table, key=itemgetter(1)):
        b = sign * entry[1]
        if not any((code - b) & guard == guard for code, _, _, _ in kept):
            kept.append(entry)
    # then push every tail outside the span of the leading monomials.  Being
    # reduced depends only on the leads of the others, which never move, so
    # one pass is enough; a tail term lies below its lead, so only the entries
    # before it in ascending order can divide it, and those are reduced already
    for i, (_, key, lc, tail) in enumerate(kept):
        g = PackedPoly(layout, field, dict(((key, lc),) + tail))
        kept[i] = lead_entry(reduce_full(g, kept[:i]))
    # only now leave the ring and the packed keys: dividing by lc (1 over
    # F_p) makes each monic
    unpack, monic = layout.unpack, Fraction if field.p is None else lambda v, lc: v
    return [
        (unpack(key), SparsePoly(layout.order.n, field, {
            unpack(t): monic(v, lc) for t, v in ((key, lc),) + tail
        }))
        for _, key, lc, tail in kept
    ]


class _Overflow(Exception):
    """An S-pair's lcm of degree args[0] lies above the layout's bound."""


def _start_bound(gens: list) -> int:
    """Exponent bound of the first layout a run packs in: the sum of the
    generator degrees."""
    return sum(g.degree() for g in gens if not g.is_zero())


def buchberger(gens: list, cfg: OracleConfig, floor: tuple | None = None) -> tuple:
    """Reduced Groebner basis of the ideal the generators span, as (leading
    monomial, monic element) pairs.

    Normal selection strategy: each new element makes pairs only with the
    useful elements (those whose lead no later lead divides), keeps one pair
    per minimal lcm and none for an lcm a coprime pair shares.  The pairs
    wait in a heap of (packed lcm, i, j), i > j, and each is reduced once
    when popped.  The pair with the smallest lcm in the order comes next and
    ties go to the lower indices; the reduced basis is unique, so the
    tie-break never shows in the result.

    The pair criteria and the reductions run on the keys of one
    ``PackedLayout``.  Its bound (``_start_bound``) must hold every term
    of a reduction, and in a graded order none lies above the S-pair's lcm:
    a pair whose lcm does not fit restarts the run on a wider layout.

    floor, when given, is T of the power-sum ideal the generators span (see
    the module docstring), indexed by degree and 0 beyond: before a pair of
    degree d is popped, ``initial_ideal.standard_levels`` counts the standard
    monomials the leads leave in degree d, and if they are exactly floor[d]
    every pair of degree d is dropped.  Only ``oracle_reduced_gb`` passes
    it; on other generators, inhomogeneous ones above all, the argument
    fails, and with no floor every pair is reduced.
    """
    field = cfg.field
    layout = PackedLayout(cfg.order, _start_bound(gens))
    while True:
        try:
            table = _lead_basis(gens, layout, field, floor=floor)
        except _Overflow as err:
            layout = PackedLayout(cfg.order, max(2 * layout.bound, err.args[0]))
        else:
            return tuple(_interreduce(table, layout, field))


def _lead_basis(
    gens: list, layout: PackedLayout, field: Field, *, floor: tuple | None = None
) -> list:
    """The lead table of a Groebner basis of (gens): ``buchberger``'s pair
    loop on the keys of layout, dropping the pairs of each degree where the
    standard monomials have come down to floor (see ``buchberger``).  The
    walk runs on the layout's keys, so a restart starts it again.

    The pair rules read each lead as its exponent code
    E = sign * (one - (key & mask)), one field of the layout per variable
    holding that exponent under a clear guard bit, and never unpack a key.
    With every guard bit of b set, subtracting a borrows across no field and
    leaves a field's guard bit set exactly where a_i <= b_i: that tests
    divisibility, and it picks the larger exponent of each field for the
    lcm.  The code of a product is the sum of the codes, so a pair is
    coprime iff its lcm is a + b.  An lcm's degree is the sum of its fields,
    which is its code mod 2^width - 1 while that sum stays below 2^width - 1;
    two leads of degree at most the bound have an lcm of degree at most
    twice the bound, which does.  The lcm's key is then
    one + (degree << top) - sign * E.
    """
    table = lead_table(gens, layout)
    guard, mask, one, sign, bound = (
        layout.guard, layout.mask, layout.one, layout.sign, layout.bound)
    fields = layout.fmask  # 2^width - 1: one field's bits
    top, low = mask.bit_length(), fields.bit_length() - 1
    leads: list = []  # exponent code of each element's lead
    useful: list = []  # indices of the elements new pairs may use
    heap: list = []

    def update(key):
        a = sign * (one - (key & mask))
        ag, t = a | guard, len(leads)
        new: dict = {}  # lcm -> one pair index with it, None if a coprime pair has it
        for s in useful:
            b = leads[s]
            d = (ag - b) & guard  # guard bits of the fields with a_i >= b_i
            sel = d - (d >> low)  # the exponent bits of those fields
            lcm = b ^ ((a ^ b) & sel)
            if lcm == a + b:
                new[lcm] = None
            else:
                new.setdefault(lcm, s)
        for lcm, s in new.items():
            if s is None:
                continue
            lg = lcm | guard
            if not any(o != lcm and (lg - o) & guard == guard for o in new):
                deg = lcm % fields
                if deg > bound:
                    raise _Overflow(deg)
                heapq.heappush(heap, (one + (deg << top) - sign * lcm, t, s))
        useful[:] = [s for s in useful if ((leads[s] | guard) - a) & guard != guard] + [t]
        leads.append(a)

    for entry in table:
        update(entry[1])
    if floor is not None:
        levels = standard_levels(layout, {entry[1] for entry in table})
        level, at = next(levels), 0
    while heap:
        if floor is not None:
            deg = heap[0][0] >> top
            while at < deg:
                level, at = next(levels), at + 1
            if len(level) == (floor[deg] if deg < len(floor) else 0):
                # the leads span the initial ideal in degree deg
                while heap and heap[0][0] >> top == deg:
                    heapq.heappop(heap)
                continue
        lcm, i, j = heapq.heappop(heap)
        h = reduce_full(spoly(table[i], table[j], lcm, layout, field), table)
        if not h.is_zero():
            entry = lead_entry(h)
            table.append(entry)
            update(entry[1])
            if floor is not None:
                # the generators are homogeneous, so the new lead is a
                # standard monomial of degree deg; without it, level deg
                # reaches none of its multiples
                del level[entry[1]]
    return table


def oracle_reduced_gb(n: int, m, k: int, cfg: OracleConfig | None = None) -> GroebnerBasis:
    """Reduced basis of the power-sum ideal straight from the algorithm."""
    if cfg is None:
        cfg = OracleConfig(order=grevlex(n))
    gens = power_sum_generators(n, m, k, cfg.field)
    floor = truncate_lefschetz(hs_complete_intersection(m), k)
    leads, elements = sort_elements(buchberger(gens, cfg, floor), cfg.order)
    return GroebnerBasis(n, tuple(m), k, cfg.order, elements, leads)


def initial_ideal_oracle(n: int, m, k: int, cfg: OracleConfig | None = None) -> MonomialIdeal:
    return oracle_reduced_gb(n, m, k, cfg).initial_ideal()


# ---------------------------------------------------------------------------
# modular rank of multiplication maps


def gaussian_rank(rows: list, p: int) -> int:
    """Rank over F_p of the matrix whose rows are ``{column: integer entry}``
    dicts, the input left untouched.

    Each row is copied mod p, zeros dropped, and reduced by the pivot rows
    kept so far, each monic in its leading column, here its last nonzero
    one; a row that survives becomes a pivot row.  For a multiplication map
    with grevlex-descending columns most rows then lead in distinct columns
    and need no reduction at all."""
    Field(p)
    pivots = {}  # leading column -> monic pivot row
    for given in rows:
        row = {j: v for j, x in given.items() if (v := x % p)}
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {j: c * inv % p for j, c in row.items()}
                break
            # no column of the pivot lies after lead, so the reduced row
            # leads strictly earlier
            c = row[lead]
            for j, b in pivot.items():
                v = (row.get(j, 0) - c * b) % p
                if v:
                    row[j] = v
                else:
                    row.pop(j, None)
    return len(pivots)


@functools.lru_cache(maxsize=2)
def _m_free_level(n: int, m: tuple, d: int) -> tuple:
    """The m-free monomials of degree d and their column indices, as
    (``enumerate_m_free(n, m, d)``, {monomial: index}).  The last two levels
    are cached and shared, so callers only read them."""
    monos = enumerate_m_free(n, m, d)
    return monos, {mono: idx for idx, mono in enumerate(monos)}


def multiplication_rank(n: int, m, p: int, d: int, e: int = 1) -> int:
    """Rank over F_p of multiplying degree-d classes of the pure-power
    quotient by (x_1 + ... + x_n)^e.

    Both levels come from ``_m_free_level``, which keeps the last two: for
    e = 1 the target of degree d is the source of degree d + 1, so a scan
    over consecutive degrees builds each level once."""
    if e < 1:
        raise ValueError(f"multiplier power must be at least 1, got {e}")
    m = check_degree_vector(m)
    field = Field(p)
    source = _m_free_level(n, m, d)[0]
    col = _m_free_level(n, m, d + e)[1]
    # ell^e has about e^(n-1) terms whatever the degrees: build it only for a
    # map with a source and a target
    if not source or not col:
        return 0
    # each term of ell^e lands on its own monomial, its coefficient nonzero mod p
    ell = linear_power(n, e, field).terms.items()
    rows = [{col[t]: c for comp, c in ell if (t := mono_mul(u, comp)) in col} for u in source]
    return gaussian_rank(rows, p)
