"""Monomial ideals attached to power-sum almost complete intersections.

The initial ideal of (x_1^{m_1}, ..., x_n^{m_n}, (x_1+...+x_n)^k) under any
order ranking x_1 > ... > x_n is generated by the surviving pure powers plus
the critical monomials, grouped by their largest variable. Three independent
constructions are provided: a level recursion (the production route), the
direct degree-equation formula, and a brute-force lattice-path enumerator;
tests keep all three in agreement.  The level recursion uses only that the
standard monomials form an order ideal: it carries the standard monomials of
each prefix x_1..x_j grouped by degree, and whether an extension by x_j
leaves the quotient depends only on the degree, so it runs no divisibility
test.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .algebra import (
    PackedLayout,
    check_degree_vector,
    check_power,
    enumerate_m_free,
    grevlex,
    is_m_free,
    max_index,
)
from . import paths as _paths
from .hilbert import hf


def _divides_any(gens, mono) -> bool:
    """Whether some exponent tuple in gens divides mono."""
    return any(all(map(operator.le, g, mono)) for g in gens)


def minimalize_monomials(gens) -> tuple:
    """Antichain of the divisibility-minimal elements, sorted descending."""
    gens = sorted(set(gens), key=sum)
    keep: list = []
    # ascending degree, so every proper divisor of g is seen before g
    for g in gens:
        if not _divides_any(keep, g):
            keep.append(g)
    return tuple(grevlex(len(gens[0])).descending(keep)) if keep else ()


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal carried by its minimal generators, an antichain the
    caller passes unchecked: ``minimal_generators`` (the level recursion) and
    ``closed_form.GroebnerBasis.initial_ideal`` (leads minimal in the closed
    form or by ``oracle._interreduce``) are its only producers."""

    n: int
    min_gens: tuple

    def __post_init__(self):
        for g in self.min_gens:
            if len(g) != self.n:
                raise ValueError("generator arity mismatch")

    def contains(self, mono) -> bool:
        return _divides_any(self.min_gens, mono)


def pure_power_removed(m, k: int, j: int) -> bool:
    """x_j^{m_j} drops out of the minimal generators iff k + D_{j-1} < m_j."""
    return k + sum(mi - 1 for mi in m[: j - 1]) < m[j - 1]


def critical_exponent(s, m, k: int, j: int) -> int:
    """The x_j-exponent the degree equation asks of s with largest variable j:
    2*deg(s_{<=j}) - k - sum_{i<j} m_i + (j - 1)."""
    return 2 * sum(s[:j]) - k - sum(m[: j - 1]) + (j - 1)


@dataclass(frozen=True)
class CriticalSets:
    """The minimal generators of the initial ideal: critical monomials grouped
    by largest variable index (1-based), each group sorted grevlex-descending,
    and the kept pure powers x_j^{m_j}, derived from (m, k), in index order."""

    n: int
    m: tuple
    k: int
    by_index: tuple  # n groups of n-variable monomials, stored as sorted tuples
    pure_powers: tuple = field(init=False)

    def __post_init__(self):
        descending = grevlex(self.n).descending
        groups = tuple(tuple(descending(g)) for g in self.by_index)
        pure = tuple(
            (0,) * (j - 1) + (mj,) + (0,) * (self.n - j)
            for j, mj in enumerate(self.m, start=1)
            if not pure_power_removed(self.m, self.k, j)
        )
        object.__setattr__(self, "by_index", groups)
        object.__setattr__(self, "pure_powers", pure)

    def generators(self) -> tuple:
        """Every minimal generator, sorted grevlex-descending."""
        out = [s for group in self.by_index for s in group] + list(self.pure_powers)
        return tuple(grevlex(self.n).descending(out))


def critical_sets(n: int, m, k: int) -> CriticalSets:
    """Level recursion: a critical monomial with largest variable j is w*x_j^e
    where w is standard at level j - 1 (m-free in x_1..x_{j-1} and outside
    the ideal of the earlier levels) and e = k + D_{j-1} - 2*deg(w), with
    1 <= e <= m_j - 1, which pins deg(w) to a window [lo_j, hi_j].

    The standard monomials are kept grouped by degree, and no divisibility
    test is run.  Every divisor of a standard monomial is standard, so a
    standard w' of degree d has standard divisors of every degree up to d;
    e falls as deg(w) rises, so w'*x_j^a (a < m_j) lies in the level-j
    ideal iff d >= lo_j and a >= e(min(d, hi_j)).  Only the degrees that a
    later window can still reach are kept.
    """
    m = check_degree_vector(m, n)
    check_power(k)
    # D[j] = sum of m_i - 1 over i <= j; window j is empty when lo > hi
    D = [0]
    for mj in m:
        D.append(D[-1] + mj - 1)
    windows = [
        (max(0, -(-(k + D[j - 1] - m[j - 1] + 1) // 2)), (k + D[j - 1] - 1) // 2)
        for j in range(1, n + 1)
    ]
    by_index: list = [[] for _ in range(n)]
    std = {0: [()]}  # level 0: the unit monomial
    for j in range(1, n + 1):
        lo, hi = windows[j - 1]
        e0 = k + D[j - 1]
        for dw in range(lo, hi + 1):
            pad = (e0 - 2 * dw,) + (0,) * (n - j)
            by_index[j - 1].extend([w + pad for w in std.get(dw, ())])
        # a degree d here grows to at most d + D[i-1] - D[j] before level i
        later = [
            (lo_i - D[i - 1] + D[j], hi_i)
            for i, (lo_i, hi_i) in enumerate(windows[j:], start=j + 1)
            if lo_i <= hi_i
        ]
        if not later:
            break
        keep_lo = min(low for low, _ in later)
        keep_hi = max(high for _, high in later)
        nxt: dict = {}
        for d, ws in std.items():
            # an empty window (lo > hi) has m_j = 2 = e(hi), so top = m_j
            top = m[j - 1] if d < lo else e0 - 2 * min(d, hi)
            for a in range(max(0, keep_lo - d), min(top, keep_hi - d + 1)):
                tail = (a,)
                nxt.setdefault(d + a, []).extend([w + tail for w in ws])
        std = nxt
    return CriticalSets(n, m, k, by_index)


def minimal_generators(n: int, m, k: int) -> MonomialIdeal:
    """Kept pure powers plus critical monomials, an antichain by construction."""
    return MonomialIdeal(n, critical_sets(n, m, k).generators())


# ---------------------------------------------------------------------------
# independent routes used for cross-checking


def _bar_condition(s, m, k: int, ell: int) -> bool:
    """Membership test for the unintersected level-ell set: x_ell | s and the
    ell-th exponent is the one the degree equation asks."""
    return s[ell - 1] != 0 and s[ell - 1] == critical_exponent(s, m, k, ell)


def critical_sets_formula(n: int, m, k: int) -> CriticalSets:
    """Arithmetic route: divisibility-minimal monomials satisfying the degree
    equation at their own top index.

    Every monomial satisfying the equation lies in the ideal, and every
    minimal generator satisfies it, so the minimal elements are exactly the
    m-free minimal generators.  Dropping only those with an earlier index
    satisfying its own equation is not enough: over m = (3, 3, 2), k = 1 the
    monomial x1^2*x3 passes that filter yet is divisible by the level-one
    generator x1.
    """
    m = check_degree_vector(m)
    total = sum(mi - 1 for mi in m)
    satisfiers = [
        s
        for d in range(1, total + 1)
        for s in enumerate_m_free(n, m, d)
        if max_index(s) > 0 and _bar_condition(s, m, k, max_index(s))
    ]
    by_index: list = [[] for _ in range(n)]
    for s in minimalize_monomials(satisfiers):
        by_index[max_index(s) - 1].append(s)
    return CriticalSets(n, m, k, by_index)


def critical_sets_paths(n: int, m, k: int) -> CriticalSets:
    """Geometric route: the reflected edge into the last used variable drops
    as steeply as admissibility allows, and no earlier vertex reflects to an
    admissible edge at all.

    The steepest-drop contact at the top index restates the degree equation.
    An admissible (not necessarily extremal) reflected edge at an earlier
    vertex makes the prefix path critical, so its monomial lies in a prefix
    ideal and divides this one away from minimality.  Criticality of the full
    path alone is too weak in both directions: x1^2 over m = (3,), k = 1 is
    critical yet a multiple of x1.

    The pivot slope at vertex i reads only the heights of vertices i - 1 and
    i, so the paths are walked depth first over their prefixes: a vertex with
    an admissible reflected edge ends every extension of its prefix, and it
    yields s, the prefix padded with zeros, when the slope there is the
    steepest, 2 - m_i, and x_i divides s.
    """
    m = check_degree_vector(m)
    line = _paths.ReflectionLine.build(n, m, k)
    by_index: list = [[] for _ in range(n)]

    def walk(prefix: tuple, heights: tuple) -> None:
        # no vertex of the prefix reflects to an admissible edge
        i = len(prefix) + 1
        for e in range(m[i - 1]):
            path = heights + (heights[-1] + 1 - e,)
            slope = _paths.pivot_slope(path, line, i)
            if 2 - m[i - 1] <= slope <= 1:
                if e and slope == 2 - m[i - 1]:
                    by_index[i - 1].append(prefix + (e,) + (0,) * (n - i))
            elif i < n:
                walk(prefix + (e,), path)

    if n:
        walk((), (0,))
    return CriticalSets(n, m, k, by_index)


# ---------------------------------------------------------------------------
# quotient counting and structure checks


def standard_levels(layout: PackedLayout, leads: set):
    """The standard monomials of the ideal the leads span, one degree at a
    time from degree 0: each level is a dict {key: support bits} on the keys
    of layout, bit i set iff variable i + 1 divides the monomial.

    A monomial u of degree d + 1 is standard iff it is no lead and every
    u / x_i with x_i | u is standard, since a lead dividing u either is u or
    divides one of those.  So level d + 1 comes from level d alone, with no
    divisibility test: each key plus each variable's weight, kept iff every
    variable of its support reached it and it is no lead.  Between steps the
    caller may add keys to leads and delete keys of the level just yielded;
    the next level grows from what is left.  Once a level is empty every
    later one is.  The exponents stay within the layout's bound as long as
    the leads hold a power of each variable within it, as pure powers do.
    """
    n = layout.order.n
    low = (1 << n) - 1
    # reach[c] holds c's support in its high n bits and, in its low n bits,
    # the variables x_i for which c / x_i is standard
    steps = [(w, (1 << i) << n | 1 << i) for i, w in enumerate(layout.weights)]
    level = {} if layout.one in leads else {layout.one: 0}
    while True:
        yield level
        reach: dict = {}
        get = reach.get
        for key, support in level.items():
            support <<= n
            for w, bits in steps:
                c = key + w
                reach[c] = get(c, 0) | support | bits
        level = {c: v >> n for c, v in reach.items() if v >> n == v & low and c not in leads}


def quotient_levels(n: int, bounds, ideal: MonomialIdeal) -> tuple:
    """(layout, levels): ``standard_levels`` of
    R / (ideal + (x_1^{b_1}, ..., x_n^{b_n})), every bound b_i at least 1,
    on the grevlex keys of layout, whose integer order is grevlex; so each
    level holds the monomials of its degree that lie below the bounds and
    outside the ideal."""
    layout = PackedLayout(grevlex(n), max(bounds, default=1))
    pack = layout.pack
    # a generator that is not below the bounds lies in the pure powers' ideal
    leads = {pack(g) for g in ideal.min_gens if is_m_free(g, bounds)}
    leads.update(pack((0,) * i + (b,) + (0,) * (n - 1 - i)) for i, b in enumerate(bounds))
    return layout, standard_levels(layout, leads)


def hilbert_counts(n: int, m, ideal: MonomialIdeal) -> tuple:
    """Number of m-free monomials outside the ideal in each degree from 0,
    through the first degree with none: the Hilbert function of
    R / (ideal + (x_1^{m_1}, ..., x_n^{m_n})), counted by ``quotient_levels``."""
    counts = []
    for level in quotient_levels(n, check_degree_vector(m, n), ideal)[1]:
        counts.append(len(level))
        if not level:
            return tuple(counts)


def hf_quotient(n: int, m, k: int, d: int, ideal: MonomialIdeal | None = None) -> int:
    """Number of m-free degree-d monomials outside the ideal."""
    if ideal is None:
        ideal = minimal_generators(n, m, k)
    return hf(hilbert_counts(n, m, ideal), d)


def check_strongly_m_stable(n: int, m, k: int, ideal: MonomialIdeal | None = None) -> bool:
    """Swapping one variable of an m-free generator for an earlier variable
    stays inside the ideal whenever the swap keeps the monomial m-free."""
    if ideal is None:
        ideal = minimal_generators(n, m, k)
    for v in ideal.min_gens:
        if not is_m_free(v, m):
            continue
        for j in range(1, n + 1):
            if v[j - 1] == 0:
                continue
            for i in range(1, j):
                u = list(v)
                u[j - 1] -= 1
                u[i - 1] += 1
                if is_m_free(u, m) and not ideal.contains(tuple(u)):
                    return False
    return True


def check_revlex_segment(n: int, m, k: int, ideal: MonomialIdeal | None = None) -> bool:
    """Every m-free monomial of the same degree lying revlex-above an m-free
    minimal generator belongs to the ideal: in each degree, the largest
    standard key lies below the key of every m-free generator."""
    if ideal is None:
        ideal = minimal_generators(n, m, k)
    layout, levels = quotient_levels(n, check_degree_vector(m, n), ideal)
    lowest: dict = {}  # degree -> smallest key of an m-free generator
    for s in ideal.min_gens:
        if is_m_free(s, m):
            key = layout.pack(s)
            lowest[sum(s)] = min(key, lowest.get(sum(s), key))
    for d, level in zip(range(max(lowest, default=-1) + 1), levels):
        # keys are never negative
        if d in lowest and not max(level, default=-1) < lowest[d]:
            return False
    return True
