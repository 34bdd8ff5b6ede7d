"""Hilbert series of monomial complete intersections and their Lefschetz
truncations.

Series are dense integer coefficient lists indexed by degree, built one factor
1 + t + ... + t^(m_i - 1) at a time. The quotient by a generic power of the
variable sum has Hilbert series equal to the original series times (1 - t^k),
cut at the first non-positive coefficient; the last surviving index is the
socle degree.  ``type_classify`` names the two cases of the closed formula
for it, which the tests check against the truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate

from .algebra import check_degree_vector, check_power

Series = tuple


def extend_series(series: Series, mi: int) -> Series:
    """The series times 1 + t + ... + t^(mi - 1): each coefficient is the sum
    of a window of mi coefficients, read off running sums."""
    sums = list(accumulate(series + (0,) * (mi - 1)))
    return tuple(sums[:mi] + [a - b for a, b in zip(sums[mi:], sums)])


def hs_complete_intersection(m) -> Series:
    """Coefficients of prod_i (1 + t + ... + t^(m_i - 1))."""
    return reduce(extend_series, check_degree_vector(m), (1,))


def hf(series: Series, d: int) -> int:
    """Series coefficient with zero outside the stored range."""
    if d < 0 or d >= len(series):
        return 0
    return series[d]


def truncate_lefschetz(series: Series, k: int) -> Series:
    """Multiply by (1 - t^k) and cut at the first non-positive coefficient."""
    check_power(k)
    out = []
    for d in range(len(series)):
        c = series[d] - hf(series, d - k)
        if c <= 0:
            break
        out.append(c)
    return tuple(out)


def is_symmetric(series: Series) -> bool:
    return tuple(reversed(series)) == tuple(series)


def is_unimodal(series: Series) -> bool:
    rising = True
    for a, b in zip(series, series[1:]):
        if rising and b < a:
            rising = False
        if not rising and b > a:
            return False
    return True


@dataclass(frozen=True)
class TypeInfo:
    """Shape data of a degree-vector prefix.

    sigma is the largest entry, tau the sum of (m_i - 1) minus (sigma - 1).
    type1 says whether appending one more variable yields the balanced socle
    case, which happens exactly when k >= sigma - tau - 1.
    """

    sigma: int
    tau: int
    type1: bool


def type_classify(m_prefix, k: int) -> TypeInfo:
    """Classify the next index after the given prefix (empty prefix allowed)."""
    m_prefix = tuple(m_prefix)
    check_power(k)
    if not m_prefix:
        return TypeInfo(0, 0, True)
    check_degree_vector(m_prefix)
    sigma = max(m_prefix)
    tau = sum(v - 1 for v in m_prefix) - (sigma - 1)
    return TypeInfo(sigma, tau, k >= sigma - tau - 1)


def series_socle(series: Series, k: int) -> tuple:
    """(D, delta, quotient) of the complete intersection with this series.

    D is the socle degree of the complete intersection, quotient the series
    after quotienting by the k-th power of the variable sum,
    ``truncate_lefschetz(series, k)``, and delta its last degree, the socle
    degree of that quotient.
    """
    quotient = truncate_lefschetz(series, k)
    return len(series) - 1, len(quotient) - 1, quotient


def socle_degrees(m_prefix, k: int) -> tuple:
    """(D_j, delta_j) for the prefix of length j, as ``series_socle``."""
    return series_socle(hs_complete_intersection(m_prefix), k)[:2]
