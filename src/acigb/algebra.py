"""Exact sparse multivariate polynomial arithmetic.

Monomials are exponent tuples, polynomials are dicts mapping exponent tuples
to nonzero coefficients. Coefficients live either in Q (stdlib Fraction) or in
a prime field GF(p) (ints reduced mod p). Normal forms are computed on packed
keys, one int per monomial (``PackedLayout``), and the reduction tables over
Q hold primitive integer polynomials, with int coefficients. Everything here
is exact; floats never appear.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

Mono = tuple  # exponent tuple, one entry per variable


def binom(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside the triangle."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(total: int, parts: Iterable[int]) -> int:
    """total! / prod(parts!) for a weak composition of total."""
    out = 1
    rest = total
    for c in parts:
        out *= math.comb(rest, c)
        rest -= c
    if rest != 0:
        raise ValueError("parts do not sum to total")
    return out


# The first 13 primes.  Miller-Rabin on all of them as bases decides
# primality exactly below PRIME_CEILING, the smallest strong pseudoprime to
# every one of them (Sorenson & Webster, 2015).  The first 12 alone are not
# enough there: 318665857834031151167461 passes them and is composite.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CEILING = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Exact primality test.

    Trial division by the small primes, then deterministic Miller-Rabin.
    Raises ValueError for p at or above PRIME_CEILING that no small prime
    divides, where those bases no longer decide.
    """
    if p < 2:
        return False
    for q in _SMALL_PRIMES:
        if p % q == 0:
            return p == q
    if p < _SMALL_PRIMES[-1] ** 2:
        return True
    if p >= PRIME_CEILING:
        raise ValueError(
            f"modulus {p} is too large: primality is decided exactly only "
            f"below {PRIME_CEILING}"
        )
    d, s = p - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# coefficient fields


@dataclass(frozen=True)
class Field:
    """Q when p is None, with Fraction coefficients; otherwise the integers
    mod the prime p.  Coefficients combine with Python's own operators, and
    ``norm`` brings a result back to its canonical form: the residue mod p,
    or the Fraction itself."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def coerce(self, value):
        p = self.p
        if p is None:
            return value if isinstance(value, Fraction) else Fraction(value)
        if isinstance(value, Fraction):
            den = value.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {p}")
            return value.numerator * pow(den, -1, p) % p
        return int(value) % p

    def norm(self, c):
        return c if self.p is None else c % self.p


QQ = Field()


# ---------------------------------------------------------------------------
# monomial helpers


# a C-level operator mapped over both tuples, several times faster than a
# generator over zip
def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(operator.add, a, b))


def max_index(mono: Mono) -> int:
    """Largest 1-based index of a variable dividing the monomial, 0 for 1."""
    for i in range(len(mono) - 1, -1, -1):
        if mono[i] > 0:
            return i + 1
    return 0


def is_m_free(mono: Mono, m: tuple) -> bool:
    """True when every exponent stays below the matching pure-power degree."""
    return all(e < mi for e, mi in zip(mono, m))


def check_degree_vector(m: Iterable[int], n: int | None = None) -> tuple:
    """m as a tuple of ints, each at least 2, and of length n when n is
    given."""
    m = tuple(map(int, m))
    if m and min(m) < 2:
        # the first bad entry only: the vector may hold millions
        i, v = next((i, v) for i, v in enumerate(m, start=1) if v < 2)
        raise ValueError(f"degree vector entries must be >= 2, got {v} at position {i}")
    if n is not None and len(m) != n:
        raise ValueError("degree vector length must equal n")
    return m


def check_power(k: int) -> None:
    """Refuse a power of the variable sum below 1."""
    if k < 1:
        raise ValueError("power must be at least 1")


def compositions(total: int, caps) -> Iterator[tuple]:
    """Weak compositions of total with part i at most caps[i].

    Yields in grevlex-descending order, read as monomials of degree total:
    the last part grows slowest, then the one before it, and so on.  A part
    is only tried when the parts before it have room for the rest.
    """
    caps = tuple(caps)
    room = [0]  # room[i]: the most the first i parts can hold
    for c in caps:
        room.append(room[-1] + c)
    if not caps:
        if total == 0:
            yield ()
    elif 0 <= total <= room[-1]:
        yield from _compositions(caps, room, len(caps), total, ())


def _compositions(caps, room, i, rest, suffix):
    # parts i.. are fixed in suffix; the room check leaves part 0 = rest.  A
    # module-level generator, not a closure: a closure that calls itself is a
    # reference cycle that only the cyclic collector frees.
    if i == 1:
        yield (rest,) + suffix
        return
    for e in range(max(0, rest - room[i - 1]), min(rest, caps[i - 1]) + 1):
        yield from _compositions(caps, room, i - 1, rest - e, (e,) + suffix)


def enumerate_m_free(n: int, m, d: int) -> list:
    """All m-free monomials of total degree d, sorted descending in grevlex."""
    m = check_degree_vector(m, n)
    return list(compositions(d, [mi - 1 for mi in m]))


# ---------------------------------------------------------------------------
# term orders


@dataclass(frozen=True)
class TermOrder:
    """A graded monomial order plus a variable ranking.

    kind is "grevlex" or "grlex". ranking lists 1-based variable indices from
    highest to lowest; ties in degree are broken after permuting exponents
    into that frame. Both kinds are admissible: 1 is minimal and the order is
    compatible with multiplication.
    """

    kind: str
    ranking: tuple

    def __post_init__(self):
        if self.kind not in ("grevlex", "grlex"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if sorted(self.ranking) != list(range(1, len(self.ranking) + 1)):
            raise ValueError(f"ranking must permute 1..n, got {self.ranking}")
        # the default ranking needs no permutation, which keeps key() cheap
        identity = self.ranking == tuple(range(1, len(self.ranking) + 1))
        object.__setattr__(self, "_identity", identity)
        # positions of the ranked exponents, lowest-ranked first for grevlex
        ranked = [r - 1 for r in self.ranking]
        if self.kind == "grevlex":
            ranked.reverse()
        object.__setattr__(self, "_ranked", operator.itemgetter(*ranked) if ranked else None)

    @property
    def n(self) -> int:
        return len(self.ranking)

    def permute(self, mono: Mono) -> Mono:
        return tuple(mono[i - 1] for i in self.ranking)

    def key(self, mono: Mono):
        """Sort key: key(a) < key(b) iff a comes before b in the order."""
        perm = mono if self._identity else self.permute(mono)
        if self.kind == "grevlex":
            return (sum(perm), tuple(map(operator.neg, reversed(perm))))
        return (sum(perm), tuple(perm))

    def descending(self, monos) -> list:
        """The monomials sorted from highest to lowest, as
        ``sorted(monos, key=self.key, reverse=True)`` sorts them, by two
        stable sorts on C-level keys: the ranked exponents (grevlex ascending
        from the last variable, grlex descending from the first), then the
        degree, descending."""
        if self._ranked is None:
            return list(monos)  # n = 0: only the unit monomial exists
        out = sorted(monos, key=self._ranked, reverse=self.kind == "grlex")
        out.sort(key=sum, reverse=True)
        return out


def grevlex(n: int) -> TermOrder:
    return TermOrder("grevlex", tuple(range(1, n + 1)))


def grlex(n: int) -> TermOrder:
    return TermOrder("grlex", tuple(range(1, n + 1)))


class PackedLayout:
    """Monomials of degree at most bound as one int each, whose integer order
    is the term order (Monagan & Pearce, CASC 2007).

    The exponents, permuted by the ranking, fill one field each, wide enough
    for bound under a guard bit, below the degree in the top bits: grevlex
    fields hold bound - e_n, ..., bound - e_1 and grlex fields e_1, ..., e_n,
    most significant first.  The key is linear in the exponents, so
    key(a * b) = key(a) + key(b) - key(1) while a * b fits.  With
    ``code(key) = guard + sign * (field bits of key)``, sign 1 in grevlex and
    -1 in grlex, a divides b iff
    ``(code(key(a)) - sign * key(b)) & guard == guard``: each field of the
    difference holds its guard bit plus b_i - a_i, which borrows from no
    other field, and the degree bits lie above them all.
    """

    __slots__ = ("order", "bound", "guard", "mask", "sign", "one", "weights", "shifts", "fmask")

    def __init__(self, order: TermOrder, bound: int):
        n = order.n
        width = bound.bit_length() + 1
        guard = sum(1 << (i * width + width - 1) for i in range(n))
        top = n * width
        # field j of the ranked exponents sits at bit j * width in grevlex,
        # (n - 1 - j) * width in grlex
        rev = order.kind == "grevlex"
        shifts = [0] * n
        for j, v in enumerate(order.ranking):
            shifts[v - 1] = (j if rev else n - 1 - j) * width
        self.order, self.bound, self.guard = order, bound, guard
        self.mask, self.fmask = (1 << top) - 1, (1 << width) - 1
        self.sign = 1 if rev else -1
        self.shifts = tuple(shifts)
        self.weights = tuple((1 << top) - self.sign * (1 << s) for s in shifts)
        self.one = bound * sum(1 << s for s in shifts) if rev else 0

    def pack(self, mono: Mono) -> int:
        return self.one + sum(map(operator.mul, mono, self.weights))

    def unpack(self, key: int) -> Mono:
        fmask = self.fmask
        if self.sign > 0:
            return tuple([self.bound - ((key >> s) & fmask) for s in self.shifts])
        return tuple([(key >> s) & fmask for s in self.shifts])

    def code(self, key: int) -> int:
        return self.guard + self.sign * (key & self.mask)


# ---------------------------------------------------------------------------
# sparse polynomials


class SparsePoly:
    """Immutable-by-convention sparse polynomial over a coefficient field."""

    __slots__ = ("n", "field", "terms")

    def __init__(self, n: int, field: Field, terms: dict):
        self.n = n
        self.field = field
        self.terms = terms

    @classmethod
    def zero(cls, n: int, field: Field = QQ) -> "SparsePoly":
        return cls(n, field, {})

    @classmethod
    def from_terms(cls, n: int, items, field: Field = QQ) -> "SparsePoly":
        """Build from (mono, coeff) pairs, merging duplicates, dropping zeros."""
        terms: dict = {}
        for mono, c in items:
            mono = tuple(mono)
            if len(mono) != n:
                raise ValueError(f"monomial {mono} has wrong length for n={n}")
            acc = field.norm(terms.get(mono, 0) + field.coerce(c))
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
        return cls(n, field, terms)

    @classmethod
    def monomial(cls, n: int, mono: Mono, field: Field = QQ) -> "SparsePoly":
        mono = tuple(mono)
        if len(mono) != n:
            raise ValueError(f"monomial {mono} has wrong length for n={n}")
        return cls(n, field, {mono: field.coerce(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree, -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def leading_term(self, order: TermOrder):
        """(monomial, coefficient) maximal under the order; None if zero."""
        if not self.terms:
            return None
        lm = max(self.terms, key=order.key)
        return lm, self.terms[lm]

    def fingerprint(self):
        """Hashable canonical form: sorted (mono, coeff) pairs."""
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and self.n == other.n
            and self.field.p == other.field.p
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.field.p, self.fingerprint()))

    def __repr__(self):
        if not self.terms:
            return "SparsePoly(0)"
        body = poly_to_text(self, grevlex(self.n))
        return f"SparsePoly({body})"


@functools.lru_cache(maxsize=32)
def linear_power(n: int, e: int, field: Field = QQ) -> SparsePoly:
    """(x_1 + ... + x_n)**e expanded with multinomials.  The 32 powers used
    last are cached and shared, so callers only read them: a ``verify`` case
    asks for its (n, k) once per order."""
    if n <= 0:
        raise ValueError("empty variable range")
    # each composition is its own monomial, so nothing merges; a multinomial
    # vanishes in F_p for primes p not exceeding e, and is dropped
    coerce, caps = field.coerce, (e,) * n
    terms = {comp: c for comp in compositions(e, caps) if (c := coerce(multinomial(e, comp)))}
    return SparsePoly(n, field, terms)


class PackedPoly:
    """A polynomial on the keys of one ``PackedLayout``: terms maps key to
    coefficient.  Reductions over Q keep ints, and any nonzero integer
    multiple stands for the polynomial there."""

    __slots__ = ("layout", "field", "terms")

    def __init__(self, layout: PackedLayout, field: Field, terms: dict):
        self.layout = layout
        self.field = field
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms


def lead_entry(h: PackedPoly) -> tuple:
    """The table entry (code, key, lc, tail) of a nonzero h: the leading key
    with its divisibility code and coefficient, and the other terms as
    (key, coeff) pairs, of a multiple of h that is monic over F_p, so lc = 1,
    and over Q primitive with lc > 0; h has integer coefficients there.
    Reducing by the entry is reducing by h."""
    terms, key, p = h.terms, max(h.terms), h.field.p
    if p is None:
        content = math.gcd(*terms.values())
        if terms[key] < 0:
            content = -content
        if content != 1:
            terms = {k: c // content for k, c in terms.items()}
    elif terms[key] != 1:
        inv = pow(terms[key], -1, p)
        terms = {k: c * inv % p for k, c in terms.items()}
    tail = tuple((k, c) for k, c in terms.items() if k != key)
    return h.layout.code(key), key, terms[key], tail


def lead_table(reducers, layout: PackedLayout) -> list:
    """``lead_entry`` of every nonzero reducer, in the given order, on the
    keys of layout, which must fit every reducer: the table ``reduce_full``
    searches."""
    return [lead_entry(pack_poly(g, layout)) for g in reducers if not g.is_zero()]


def pack_poly(f: SparsePoly, layout: PackedLayout) -> PackedPoly:
    """f on the keys of layout, which must fit it: over Q f times the lcm of
    its denominators, with int coefficients."""
    pack = layout.pack
    if f.field.p is None:
        scale = math.lcm(*[c.denominator for c in f.terms.values()])
        terms = {pack(m): c.numerator * (scale // c.denominator) for m, c in f.terms.items()}
    else:
        terms = {pack(m): c for m, c in f.terms.items()}
    return PackedPoly(layout, f.field, terms)


def reduce_full(f: PackedPoly, table: list) -> PackedPoly:
    """Full normal form of f modulo the polynomials of a ``lead_table`` on
    the keys of f's layout, which must fit f; in a graded order no term of
    the reduction lies above f's degree.

    Every term of the result is divisible by no leading monomial of the
    table, so reducing a second time is the identity.  Over F_p the result
    is the normal form.  Over Q the work runs on integers: to cancel a term
    c by an entry with leading coefficient lc, it scales the work and the
    remainder by lc / gcd(lc, c) when that is not 1, so the result is the
    normal form times a positive integer.  The first entry whose lead
    divides the largest term reduces it, and the term c * (q * g_t) of the
    step has key key(g_t) + key(q * lm) - key(lm).

    The largest term comes off a heap of negated keys (the heap of Monagan
    and Pearce, CASC 2007) with lazy deletion: a key is pushed when it enters
    the work, and a popped key that has cancelled since is skipped.  A key
    that cancels and comes back is pushed again.  A step only adds keys below
    the one it reduces, so a handled key never comes back and its second
    copy is skipped too.  Rescaling over Q keeps the keys, so the heap stays
    valid.
    """
    layout, p = f.layout, f.field.p
    guard, sign = layout.guard, layout.sign
    push, pop = heapq.heappush, heapq.heappop
    work = dict(f.terms)
    heap = [-t for t in work]
    heapq.heapify(heap)
    remainder: dict = {}
    while heap:
        key = -pop(heap)
        c = work.pop(key, None)
        if c is None:
            continue
        b = sign * key
        for code, lead, lc, tail in table:
            if (code - b) & guard == guard:
                break
        else:
            remainder[key] = c
            continue
        if lc != 1:
            d = math.gcd(lc, c)
            if d != lc:
                a = lc // d
                work = {t: v * a for t, v in work.items()}
                remainder = {t: v * a for t, v in remainder.items()}
            c //= d
        shift = key - lead
        for t, v in tail:
            t += shift
            old = work.get(t)
            if old is None:
                push(heap, -t)
                old = 0
            acc = old - c * v
            if p:
                acc %= p
            if acc:
                work[t] = acc
            else:
                # c * v is nonzero, so t was in the work
                del work[t]
    return PackedPoly(layout, f.field, remainder)


def clear_denominators(f: SparsePoly) -> SparsePoly:
    """The primitive integer multiple of f, with Fraction coefficients: f
    scaled by the lcm of its denominators, divided by the content, with a
    positive coefficient at the grevlex leading monomial."""
    if f.field.p is not None:
        raise ValueError("clear_denominators expects rational coefficients")
    if f.is_zero():
        return f
    lead = max(f.terms, key=grevlex(f.n).key)
    den = math.lcm(*[c.denominator for c in f.terms.values()])
    ints = {m: c.numerator * (den // c.denominator) for m, c in f.terms.items()}
    content = math.gcd(*ints.values())
    if ints[lead] < 0:
        content = -content
    return SparsePoly(f.n, f.field, {m: Fraction(v // content) for m, v in ints.items()})


# ---------------------------------------------------------------------------
# serialization


def mono_to_text(mono: Mono) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def poly_to_text(f: SparsePoly, order: TermOrder, texts: dict | None = None) -> str:
    """Human-readable infix form, terms sorted descending in the order.

    texts maps a monomial to its ``mono_to_text``, and the call adds each
    monomial it meets for the first time: a caller that writes many
    polynomials passes one dict to all of them, so a monomial they share is
    rendered once.  A standalone call gets a fresh one."""
    if f.is_zero():
        return "0"
    if texts is None:
        texts = {}
    get, terms, pieces = texts.get, f.terms, []
    for i, mono in enumerate(order.descending(terms)):
        c = terms[mono]
        # an int coefficient, over F_p, is never written with a minus
        neg = isinstance(c, Fraction) and c.numerator < 0
        mag = -c if neg else c
        mtxt = get(mono)
        if mtxt is None:
            mtxt = texts[mono] = mono_to_text(mono)
        if mtxt == "1":
            body = str(mag)
        elif mag == 1:
            body = mtxt
        else:
            body = f"{mag}*{mtxt}"
        if i == 0:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces)


def poly_to_json(
    f: SparsePoly, order: TermOrder, indent: str, texts: dict | None = None
) -> str:
    """``{"n": n, "terms": [{"exps": [...], "coeff": "..."}, ...]}`` as JSON
    text, byte for byte as ``json.dumps(indent=2)`` writes it at this indent,
    terms sorted descending in the order.

    texts maps a monomial to its term's text up to the coefficient, the
    ``"exps"`` block and the opening quote of ``"coeff"`` at this indent,
    and the call adds each monomial it meets for the first time: a caller
    that writes many polynomials in n variables at one indent passes one
    dict to all of them, so a monomial they share is rendered once.  A
    standalone call gets a fresh one.  A term is then one lookup and one
    f-string: a coefficient is a Fraction or an int, whose str holds only
    digits, ``-`` and ``/``, so it needs no escaping."""
    i2, i4, i6, i8 = (indent + " " * w for w in (2, 4, 6, 8))
    # every exponent tuple has length n; with n = 0 each is written []
    opening, closing = (f"[\n{i8}", f"\n{i6}]") if f.n else ("[", "]")
    head, mid = f'{i4}{{\n{i6}"exps": {opening}', f'{closing},\n{i6}"coeff": "'
    sep, tail, terms = ",\n" + i8, f'"\n{i4}}}', f.terms
    top = f'{{\n{i2}"n": {f.n},\n{i2}"terms": '
    if not terms:
        return f"{top}[]\n{indent}}}"
    if texts is None:
        texts = {}
    get, pieces = texts.get, []
    for m in order.descending(terms):
        prefix = get(m)
        if prefix is None:
            prefix = texts[m] = f"{head}{sep.join(map(str, m))}{mid}"
        pieces.append(f"{prefix}{terms[m]}{tail}")
    # the list's brackets join the first and last terms, so that the
    # element's text is built by one join, not copied again around it
    pieces[0] = f"{top}[\n{pieces[0]}"
    pieces[-1] = f"{pieces[-1]}\n{i2}]\n{indent}}}"
    return ",\n".join(pieces)
