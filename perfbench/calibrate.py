"""A fixed slice of reference work that tracks how fast the host runs now.

The work is shaped like the package's hot loops (sparse polynomials as dicts
of exponent tuples with ``Fraction`` coefficients, a leading term by ``max``
with a tuple key, divisibility scans, and elimination mod p over int lists),
so a throttled host slows it by about the same factor as it slows ``acigb``.
It shares no code with ``acigb``: a change to the package never moves it.
"""

from __future__ import annotations

import time
from fractions import Fraction

N = 4
POWER = 6


def _key(mono):
    return (sum(mono), tuple(-e for e in reversed(mono)))


def _mul(f, g):
    out = {}
    for ma, ca in f.items():
        for mb, cb in g.items():
            mono = tuple(a + b for a, b in zip(ma, mb))
            acc = out.get(mono, 0) + ca * cb
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
    return out


def _normal_form(f, leads):
    """Terms of f divisible by no lead, visited from the leading term down."""
    work, rest = dict(f), {}
    while work:
        mono = max(work, key=_key)
        c = work.pop(mono)
        if not any(all(a <= b for a, b in zip(m, mono)) for m in leads):
            rest[mono] = c
    return rest


def _rank(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(a - c * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def work() -> int:
    """One slice: about 5.5 ms on an unthrottled Xeon core under Python 3.11."""
    ell = {tuple(int(i == j) for i in range(N)): Fraction(j + 1, 2) for j in range(N)}
    power = {(0,) * N: Fraction(1)}
    for _ in range(POWER):
        power = _mul(power, ell)
    leads = [tuple(3 if i == j else 0 for i in range(N)) for j in range(N)]
    rest = _normal_form(power, leads)
    rows = [[(i * 7 + j * j + 3) % 11 for j in range(24)] for i in range(16)]
    return len(rest) + _rank(rows, 11)


def slice_seconds() -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
