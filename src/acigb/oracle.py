"""Independent Buchberger engine and modular rank computations.

Nothing here knows about lattice paths or closed-form coefficients: bases
are computed from the raw generators by S-polynomial reduction, so agreement
with the constructive modules is a genuine cross-check rather than a
tautology.  Works over the rationals or a prime field, with an optional
degree cap that is sound for homogeneous inputs.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    QQ,
    Field,
    SparsePoly,
    TermOrder,
    check_degree_vector,
    enumerate_m_free,
    grevlex,
    lead_entry,
    lead_table,
    linear_power,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    reduce_full,
)
from .closed_form import GroebnerBasis, sort_elements
from .initial_ideal import MonomialIdeal


@dataclass(frozen=True)
class OracleConfig:
    order: TermOrder
    p: int | None = None
    degree_cap: int | None = None

    @property
    def field(self) -> Field:
        return Field(self.p)


def power_sum_generators(n: int, m, k: int, field: Field = QQ) -> list:
    """The defining generators: each pure power and the k-th power of the
    sum of all variables."""
    m = check_degree_vector(m)
    if len(m) != n:
        raise ValueError("degree vector length must equal n")
    if k < 1:
        raise ValueError("power must be at least 1")
    gens = []
    for i in range(n):
        mono = tuple(m[i] if t == i else 0 for t in range(n))
        gens.append(SparsePoly.monomial(n, mono, field))
    gens.append(linear_power(n, 1, k, field))
    return gens


def spoly(a: tuple, b: tuple) -> SparsePoly:
    """S-polynomial of two ``lead_table`` entries (lm, lc, polynomial), with
    the cofactors lc_b / gcd and lc_a / gcd of the leading coefficients, so
    integer entries give an integer result; both are 1 over F_p."""
    (ma, ca, f), (mb, cb, g) = a, b
    lcm = mono_lcm(ma, mb)
    d = math.gcd(ca, cb)

    def part(h, lm, c):  # c * (lcm / lm) * h without its leading term, which cancels
        q = mono_div(lcm, lm)
        terms = {mono_mul(q, m): c * v for m, v in h.terms.items() if m != lm}
        return SparsePoly(h.n, h.field, terms)

    return part(f, ma, cb // d).add(part(g, mb, -(ca // d)))


def _interreduce(table: list, order: TermOrder) -> list:
    """Reduced basis from the lead table of a Groebner basis, as (leading
    monomial, monic element) pairs."""
    # minimality first: drop any element whose leading monomial another divides
    kept: list = []
    for entry in sorted(table, key=lambda e: order.key(e[0])):
        if not any(mono_divides(lm, entry[0]) for lm, _, _ in kept):
            kept.append(entry)
    # then push every tail outside the span of the leading monomials.  Being
    # reduced depends only on the leads of the others, which never move, so
    # one pass is enough; a tail term lies below its lead, so only the entries
    # before it in ascending order can divide it, and those are reduced already
    for i, (lm, _, g) in enumerate(kept):
        kept[i] = lead_entry(reduce_full(g, None, order, table=kept[:i]), lm)
    # only now leave the ring: dividing by lc (1 over F_p) makes each monic
    return [(lm, g.scale(Fraction(1, lc))) for lm, lc, g in kept]


def buchberger(gens: list, cfg: OracleConfig) -> tuple:
    """Reduced Groebner basis of the ideal the generators span, as (leading
    monomial, monic element) pairs.

    Normal selection strategy with the Gebauer-Moeller update: each new
    element makes pairs only with the useful elements (those whose lead no
    later lead divides), keeps one pair per minimal lcm, none for an lcm a
    coprime pair shares, and deletes each waiting pair whose lcm the new lead
    divides with a different lcm on both sides.  Deletion is lazy: the pairs
    wait in a heap of ``(order.key(lcm), i, j)``, i > j, and one that left
    ``live`` is skipped when popped.  The pair with the smallest lcm in the
    order comes next and ties go to the lower indices; the reduced basis is
    unique, so the tie-break never shows in the result.  A degree cap
    discards pairs above the cap, which loses nothing below it when all
    inputs are homogeneous; on other inputs a cap is refused.
    """
    order = cfg.order
    cap = cfg.degree_cap
    if cap is not None and not all(g.is_homogeneous() for g in gens):
        raise ValueError("a degree cap needs homogeneous generators")
    table: list = []
    useful: list = []  # indices of the elements new pairs may use
    live: dict = {}  # waiting pair (i, j) -> lcm
    heap: list = []

    def update(entry):
        t, lt = len(table), entry[0]
        new: dict = {}  # lcm -> one pair index with it, None if a coprime pair has it
        for s in useful:
            lcm = mono_lcm(lt, table[s][0])
            if lcm == mono_mul(lt, table[s][0]):
                new[lcm] = None
            else:
                new.setdefault(lcm, s)
        for pair, lcm in list(live.items()):
            if (
                mono_divides(lt, lcm)
                and mono_lcm(table[pair[0]][0], lt) != lcm
                and mono_lcm(table[pair[1]][0], lt) != lcm
            ):
                del live[pair]
        for lcm, s in new.items():
            if s is not None and not any(o != lcm and mono_divides(o, lcm) for o in new):
                live[t, s] = lcm
                heapq.heappush(heap, (order.key(lcm), t, s, lcm))
        useful[:] = [s for s in useful if not mono_divides(lt, table[s][0])] + [t]
        table.append(entry)

    for entry in lead_table(gens, order):
        update(entry)
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        if cap is not None and mono_degree(lcm) > cap:
            # pairs leave the heap in a graded order, so every waiting pair
            # lies above the cap too
            break
        if live.pop((i, j), None) is None:
            continue
        h = reduce_full(spoly(table[i], table[j]), None, order, table=table)
        if not h.is_zero():
            update(lead_entry(h, h.leading_term(order)[0]))
    return tuple(_interreduce(table, order))


def oracle_reduced_gb(n: int, m, k: int, cfg: OracleConfig | None = None) -> GroebnerBasis:
    """Reduced basis of the power-sum ideal straight from the algorithm."""
    if cfg is None:
        cfg = OracleConfig(order=grevlex(n))
    gens = power_sum_generators(n, m, k, cfg.field)
    leads, elements = sort_elements(buchberger(gens, cfg), cfg.order)
    return GroebnerBasis(n, tuple(m), k, cfg.order, elements, leads)


def verify_is_gb(candidate, gens: list, cfg: OracleConfig) -> bool:
    """Buchberger criterion plus two-sided ideal containment.

    True iff every S-polynomial of the candidate reduces to zero against it,
    every original generator reduces to zero, and each candidate element
    reduces to zero against an independently computed basis of (gens).
    """
    order = cfg.order
    elements = list(getattr(candidate, "elements", candidate))
    if not elements:
        return all(g.is_zero() for g in gens)
    table = lead_table(elements, order)
    for a, b in itertools.combinations(table, 2):
        if not reduce_full(spoly(a, b), None, order, table=table).is_zero():
            return False
    for g in gens:
        if not reduce_full(g, None, order, table=table).is_zero():
            return False
    reference = lead_table([g for _, g in buchberger(gens, cfg)], order)
    return all(reduce_full(f, None, order, table=reference).is_zero() for f in elements)


def initial_ideal_oracle(n: int, m, k: int, cfg: OracleConfig | None = None) -> MonomialIdeal:
    return oracle_reduced_gb(n, m, k, cfg).initial_ideal()


# ---------------------------------------------------------------------------
# modular rank of multiplication maps


def gaussian_rank(rows: list, p: int) -> int:
    """Rank of an integer matrix over F_p, the input left untouched.

    Each row becomes a sparse ``{column: entry mod p}`` dict and is reduced
    by the pivot rows kept so far, each monic in its leading column, here
    its last nonzero one; a row that survives becomes a pivot row.  For a
    multiplication map with grevlex-descending columns most rows then lead
    in distinct columns and need no reduction at all."""
    Field(p)
    pivots = {}  # leading column -> monic pivot row
    for dense in rows:
        row = {j: v for j, x in enumerate(dense) if (v := x % p)}
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


def multiplication_rank(n: int, m, p: int, d: int, e: int = 1) -> int:
    """Rank over F_p of multiplying degree-d classes of the pure-power
    quotient by (x_1 + ... + x_n)^e."""
    if e < 1:
        raise ValueError(f"multiplier power must be at least 1, got {e}")
    m = check_degree_vector(m)
    field = Field(p)
    source = enumerate_m_free(n, m, d)
    target = enumerate_m_free(n, m, d + e)
    if not source or not target:
        return 0
    col = {mono: idx for idx, mono in enumerate(target)}
    ell = linear_power(n, 1, e, field).terms.items()
    rows = []
    for u in source:
        row = [0] * len(target)
        # each term of ell^e lands on its own monomial
        for comp, c in ell:
            idx = col.get(mono_mul(u, comp))
            if idx is not None:
                row[idx] = c
        rows.append(row)
    return gaussian_rank(rows, p)
