"""Degree counts of the reduced bases and the combinatorics they generate.

The number of basis elements with m-free leading monomial in each degree is
an HF difference of the underlying complete intersection, stable once enough
variables are present.  Specializing the exponents turns these counts into
Catalan, Motzkin and Riordan convolutions, the (m-1)-Catalan triangle, and
spin degeneracies of decoherence-free states.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .algebra import check_degree_vector, check_power
from .hilbert import (
    TypeInfo,
    extend_series,
    hf,
    hs_complete_intersection,
    series_socle,
    truncate_lefschetz,
    type_classify,
)

__all__ = [
    "MSpec",
    "DegreeSequence",
    "CatalanTriangle",
    "TypeInfo",
    "type_classify",
    "gb_degree_sequence",
    "crit_counts",
    "crit_level_count",
    "g3k_sequence",
    "n_of_degree",
    "max_gb_degree",
    "classical_row",
    "convolve",
    "convolution_check",
    "catalan_convolution_check_m2",
    "s_binom",
    "s_catalan_triangle",
    "log_concavity_check",
    "spin_catalan_degeneracies",
    "spin_catalan_degeneracy",
    "spin_path_count",
]


@dataclass(frozen=True)
class MSpec:
    """Exponent sequence: an explicit prefix, optionally continued by a
    constant tail.  Indexing past a finite prefix is an error rather than a
    silent extension."""

    prefix: tuple
    tail: int | None = None

    def __post_init__(self):
        if self.prefix:
            check_degree_vector(self.prefix)
        if self.tail is not None and self.tail < 2:
            raise ValueError("tail exponent must be at least 2")
        if not self.prefix and self.tail is None:
            raise ValueError("empty exponent specification")

    @classmethod
    def finite(cls, m) -> "MSpec":
        return cls(tuple(m))

    @classmethod
    def constant(cls, m: int) -> "MSpec":
        return cls((), m)

    @classmethod
    def coerce(cls, spec) -> "MSpec":
        if isinstance(spec, MSpec):
            return spec
        if isinstance(spec, int):
            return cls.constant(spec)
        return cls.finite(spec)

    def entry(self, i: int) -> int:
        """1-based exponent m_i."""
        if i < 1:
            raise ValueError("index must be positive")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        if self.tail is None:
            raise ValueError(
                f"exponent vector of length {len(self.prefix)} has no entry {i}"
            )
        return self.tail

    def truncation(self, n: int) -> tuple:
        return tuple(self.entry(i) for i in range(1, n + 1))


@dataclass(frozen=True)
class DegreeSequence:
    """Counts of m-free basis elements per degree, d running from k to the
    requested maximum."""

    m_spec: MSpec
    k: int
    values: tuple  # (d, count) pairs, consecutive degrees

    def __getitem__(self, d: int) -> int:
        lo = self.values[0][0] if self.values else None
        if lo is None or not lo <= d <= self.values[-1][0]:
            raise KeyError(f"degree {d} outside computed range")
        return self.values[d - lo][1]


def _levels(spec: MSpec, k: int):
    """(D, delta, series) of the prefix x_1 .. x_{n-1} for the levels
    n = 1, 2, ...: each step multiplies the series by one more factor, and
    reads that exponent only when the caller asks for the next level, so a
    finite prefix runs out exactly where a scan needs more of it."""
    check_power(k)
    series, sigma, prefix = (1,), 0, []
    while True:
        yield series_socle(series, sigma, k, prefix) + (series,)
        m_n = spec.entry(len(prefix) + 1)
        prefix.append(m_n)
        series = extend_series(series, m_n)
        sigma = max(sigma, m_n)


def _level_counts(level, m_n: int, k: int) -> tuple:
    """(d_min, counts): counts[e] m-free generators using x_n lie in degree
    d_min + e; counts is empty when no m-free generator uses x_n."""
    D, delta, series = level
    s_n = k + D - 2 * delta
    # the quotient HF, read down from its last degree delta
    quotient = truncate_lefschetz(series, k)
    return k + D - delta, tuple(
        quotient[delta - e] for e in range(min((m_n - 1 - s_n) // 2, delta) + 1)
    )


def gb_degree_sequence(m_spec, k: int, d_max: int) -> DegreeSequence:
    """Counts per degree, summing level contributions until every later
    level is known to start beyond d_max.

    The minimal degree reachable after a prefix never decreases as the
    prefix grows, so the scan can stop at the first prefix whose bound
    clears d_max.  A finite prefix exhausted before that bound is an error.
    """
    spec = MSpec.coerce(m_spec)
    counts: dict = {}
    for n, level in enumerate(_levels(spec, k), 1):
        D, delta, _ = level
        if k + D - delta > d_max:
            break
        try:
            m_n = spec.entry(n)
        except ValueError:
            raise ValueError(
                f"exponent prefix too short to settle degrees up to {d_max}"
            ) from None
        d_min, row = _level_counts(level, m_n, k)
        for d, c in enumerate(row, d_min):
            counts[d] = counts.get(d, 0) + c
    values = tuple((d, counts.get(d, 0)) for d in range(k, d_max + 1))
    return DegreeSequence(spec, k, values)


def crit_counts(m_spec, k: int):
    """Number of m-free basis elements whose leading monomial uses x_n, for
    n = 1, 2, ... in one pass over the levels; endless for a constant tail,
    and a finite prefix raises where it runs out."""
    spec = MSpec.coerce(m_spec)
    for n, level in enumerate(_levels(spec, k), 1):
        yield sum(_level_counts(level, spec.entry(n), k)[1])


def crit_level_count(n: int, m_spec, k: int) -> int:
    """Number of m-free basis elements whose leading monomial uses x_n."""
    if n < 1:
        raise ValueError("index must be positive")
    return next(islice(crit_counts(m_spec, k), n - 1, None))


def g3k_sequence(k: int, n_max: int) -> tuple:
    """Cube-free element counts g(n), the level n + ceil(k/2) count."""
    shift = (k + 1) // 2
    return tuple(islice(crit_counts(3, k), max(shift - 1, 0), shift + n_max))


def n_of_degree(d: int, m_spec, k: int) -> int:
    """The unique variable count whose level contains degree d.

    Valid when every level that actually carries generators is balanced
    (type 1); an unbalanced nonempty level in the scan range is an error.
    """
    spec = MSpec.coerce(m_spec)
    if d < k:
        raise ValueError("degree below the minimum k")
    best = None
    for nu, level in enumerate(_levels(spec, k), 1):
        D, _, _ = level
        if D + k >= 2 * d:
            break
        nonempty = bool(_level_counts(level, spec.entry(nu), k)[1])
        if nu > 1 and nonempty and not type_classify(spec.truncation(nu - 1), k).type1:
            raise ValueError(
                f"level {nu} is unbalanced; use the full degree scan instead"
            )
        best = nu
    if best is None:
        raise ValueError(f"no level reaches degree {d}")
    return best


def max_gb_degree(n: int, m, k: int) -> int:
    """Largest degree among basis elements with m-free leading monomial."""
    m = check_degree_vector(m, n)
    best = None
    if m:
        for m_q, level in zip(m, _levels(MSpec.finite(m), k)):
            d_min, row = _level_counts(level, m_q, k)
            if row and row[0] > 0:
                best = d_min + len(row) - 1
    if best is None:
        raise ValueError(f"no m-free basis elements for n={n}, m={m}, k={k}")
    return best


# ---------------------------------------------------------------------------
# classical sequences and convolutions

# family: (x_0, x_1, x_n from n, x_{n-2} and x_{n-1})
_RECURRENCES = {
    "catalan": (1, 1, lambda n, a, b: b * 2 * (2 * n - 1) // (n + 1)),
    "motzkin": (1, 1, lambda n, a, b: ((2 * n + 1) * b + 3 * (n - 1) * a) // (n + 2)),
    "riordan": (1, 0, lambda n, a, b: (n - 1) * (2 * b + 3 * a) // (n + 1)),
}


def classical_row(family: str, n_max: int) -> list:
    """Terms 0 .. n_max of the Catalan, Motzkin or Riordan numbers, each
    from the two before it."""
    if n_max < 0:
        raise ValueError("index must be non-negative")
    a, b, step = _RECURRENCES[family]
    row = [a, b]
    for n in range(2, n_max + 1):
        row.append(step(n, row[-2], row[-1]))
    return row[: n_max + 1]


def convolve(a, b) -> tuple:
    """Coefficients of the product of two power series prefixes."""
    length = min(len(a), len(b))
    return tuple(
        sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(length)
    )


def _convolution_check(m: int, k: int, n_max: int, factors) -> bool:
    """g(k + n) for n <= n_max and constant exponent m against the product
    of the classical rows named in factors."""
    check_power(k)
    target = (1,) + (0,) * n_max
    for family in factors:
        target = convolve(target, classical_row(family, n_max))
    seq = gb_degree_sequence(MSpec.constant(m), k, k + n_max)
    return tuple(seq[k + i] for i in range(n_max + 1)) == target


def convolution_check(k: int, n_max: int) -> bool:
    """g(n) for cube exponents factors as Motzkin^q * Riordan^r, k = 2q + r."""
    q, r = divmod(k, 2)
    return _convolution_check(3, k, n_max, ["motzkin"] * q + ["riordan"] * r)


def catalan_convolution_check_m2(k: int, n_max: int) -> bool:
    """For square exponents, g(k + n) matches the k-th Catalan power series."""
    return _convolution_check(2, k, n_max, ["catalan"] * k)


# ---------------------------------------------------------------------------
# the (m-1)-Catalan triangle


@dataclass(frozen=True)
class CatalanTriangle:
    s: int
    rows: tuple  # row n holds columns 0 .. s*n

    def entry(self, n: int, k: int) -> int:
        row = self.rows[n]
        return row[k] if 0 <= k < len(row) else 0


def s_binom(n: int, d: int, s: int):
    """Coefficient of t^d in (1 + t + ... + t^s)^n."""
    if s < 1:
        raise ValueError("s must be positive")
    return hf(hs_complete_intersection((s + 1,) * n), d)


def s_catalan_triangle(m: int, n_max: int) -> CatalanTriangle:
    """Rows of first differences of the degree-m complete intersection HF,
    read outward from the symmetric middle; row n extends the series of row
    n - 1 by two factors."""
    if m < 2:
        raise ValueError("exponent must be at least 2")
    s = m - 1
    rows = [(1,)]
    series = (1,)
    for n in range(1, n_max + 1):
        series = extend_series(extend_series(series, m), m)
        upper = series[s * n :]
        rows.append(tuple(a - b for a, b in zip(upper, upper[1:] + (0,))))
    return CatalanTriangle(s, tuple(rows))


def log_concavity_check(triangle: CatalanTriangle) -> bool:
    for row in triangle.rows:
        for i in range(1, len(row) - 1):
            if row[i] * row[i] < row[i - 1] * row[i + 1]:
                return False
    return True


# ---------------------------------------------------------------------------
# spin degeneracies


def _doubled_spin(sigma) -> int:
    two = Fraction(sigma) * 2
    if two.denominator != 1 or two < 1:
        raise ValueError("spin must be a positive half-integer")
    return int(two)


def spin_catalan_degeneracies(sigma, n_max: int) -> list:
    """Number of spin-0 states of N particles of the given spin, for N from 0
    to n_max.

    Zero when sigma*N is fractional; otherwise the count of basis elements
    of degree sigma*N + 1 for exponent 2*sigma + 1 and first power, all read
    off one degree sequence.
    """
    if n_max < 0:
        raise ValueError("particle count must be non-negative")
    two_sigma = _doubled_spin(sigma)
    d_max = two_sigma * n_max // 2 + 1
    seq = gb_degree_sequence(MSpec.constant(two_sigma + 1), 1, d_max)
    return [
        0 if two_sigma * N % 2 else seq[two_sigma * N // 2 + 1]
        for N in range(n_max + 1)
    ]


def spin_catalan_degeneracy(sigma, N: int) -> int:
    """Number of spin-0 states of N particles of the given spin."""
    return spin_catalan_degeneracies(sigma, N)[N]


def spin_path_count(sigma, N: int) -> int:
    """Direct count of height walks: N steps of size at most sigma, staying
    at or above zero, each step also at least |height - sigma| away from
    zero, returning to zero.  Heights carried doubled so half-integer spins
    stay integral."""
    if N < 0:
        raise ValueError("particle count must be non-negative")
    two_sigma = _doubled_spin(sigma)
    counts = {0: 1}
    for _ in range(N):
        nxt: dict = {}
        for h, c in counts.items():
            for h2 in range(abs(h - two_sigma), h + two_sigma + 1, 2):
                nxt[h2] = nxt.get(h2, 0) + c
        counts = nxt
    return counts.get(0, 0)
