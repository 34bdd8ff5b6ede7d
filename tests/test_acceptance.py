"""Acceptance gate: ten criteria, one test each, with the stated runtime
bounds asserted where a criterion carries one. Everything here is exact; no
tolerances, no sampling shortcuts beyond the stated grids."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from acigb.algebra import clear_denominators, is_m_free
from acigb.cli import verify_all
from acigb.closed_form import (
    build_gs_divisor_form,
    build_gs_tail_form,
    counting_identity,
    distinct_gb_census,
    reduced_gb,
)
from acigb.initial_ideal import critical_sets, minimal_generators, pure_power_removed
from acigb.paths import reflection_bijection_check
from acigb.sequences import (
    catalan_convolution_check_m2,
    classical_row,
    convolution_check,
    g3k_sequence,
    log_concavity_check,
    max_gb_degree,
    s_catalan_triangle,
)
from acigb.wlp import wlp_decide, wlp_threshold_equigenerated

GOLDEN = (4, (3, 2, 2, 3), 2)

GOLDEN_BASIS_TEXT = """\
x1^2 + 2*x1*x2 + 2*x1*x3 + 2*x2*x3 + 2*x1*x4 + 2*x2*x4 + 2*x3*x4 + x4^2
x2^2
x3^2
x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + 2*x2*x3*x4 + 1/2*x1*x4^2 + x2*x4^2 + x3*x4^2
x4^3
x1*x2*x4^2
x1*x3*x4^2
x2*x3*x4^2
"""

# cube-free counts g(n) for n = 0..8, one row per power k
TABLE3 = {
    1: (1, 0, 1, 1, 3, 6, 15, 36, 91),
    2: (1, 1, 2, 4, 9, 21, 51, 127, 323),
    3: (1, 1, 3, 6, 15, 36, 91, 232, 603),
    4: (1, 2, 5, 12, 30, 76, 196, 512, 1353),
    5: (1, 2, 6, 15, 40, 105, 280, 750, 2025),
    6: (1, 3, 9, 25, 69, 189, 518, 1422, 3915),
}

PRIMES_TO_13 = (2, 3, 5, 7, 11, 13)


def small_primes(bound: int) -> list:
    out = []
    for q in range(2, bound + 1):
        if all(q % r for r in out):
            out.append(q)
    return out


@pytest.fixture(scope="module")
def grid_report():
    start = time.perf_counter()
    report = verify_all((4, 4, 4))
    return report, time.perf_counter() - start


def test_criterion_01_golden_basis_byte_identical():
    from acigb.algebra import poly_to_text

    start = time.perf_counter()
    basis = reduced_gb(*GOLDEN)
    elapsed = time.perf_counter() - start
    text = "\n".join(poly_to_text(g) for g in basis.elements) + "\n"
    assert text == GOLDEN_BASIS_TEXT
    half = [
        c for g in basis.elements for c in g.terms.values() if c == Fraction(1, 2)
    ]
    assert half, "the 1/2 coefficient must survive reduction"
    assert elapsed < 1.0


def test_criterion_02_golden_critical_sets():
    n, m, k = GOLDEN
    sets = critical_sets(n, m, k)
    expected = {
        (2, 0, 0, 0),
        (1, 1, 1, 0),
        (0, 1, 1, 2),
        (1, 0, 1, 2),
        (1, 1, 0, 2),
    }
    assert {s for group in sets.by_index for s in group} == expected
    assert pure_power_removed(m, k, 1)
    assert not any(pure_power_removed(m, k, j) for j in (2, 3, 4))
    gens = set(minimal_generators(n, m, k).min_gens)
    assert {(0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 3)} <= gens
    assert (3, 0, 0, 0) not in gens


def test_criterion_03_oracle_equivalence_on_grid(grid_report):
    report, elapsed = grid_report
    assert len(report["cases"]) == 480
    bad = [
        (row["n"], tuple(row["m"]), row["k"])
        for row in report["cases"]
        if not (row["gb_grevlex"] and row["gb_grlex"])
    ]
    assert bad == []
    assert elapsed < 300.0


def test_criterion_04_hilbert_series_three_routes(grid_report):
    report, _ = grid_report
    bad = [
        (row["n"], tuple(row["m"]), row["k"])
        for row in report["cases"]
        if not row["hilbert"]
    ]
    assert bad == []


def test_criterion_05_cube_table_both_routes():
    from acigb.initial_ideal import critical_sets_paths

    for k, row in TABLE3.items():
        assert g3k_sequence(k, 8) == row, k
        shift = (k + 1) // 2
        for n, expected in enumerate(row):
            level = n + shift
            direct = len(
                critical_sets_paths(level, (3,) * level, k).by_index[level - 1]
            )
            assert direct == expected, (k, n)


def test_criterion_06_convolution_theorems():
    for k in range(1, 7):
        assert convolution_check(k, 10), k
    for k in range(1, 5):
        assert catalan_convolution_check_m2(k, 10), k
    motzkin, riordan = classical_row("motzkin", 20), classical_row("riordan", 21)
    for n in range(21):
        assert motzkin[n] == riordan[n] + riordan[n + 1], n


def test_criterion_07_census():
    start = time.perf_counter()
    assert distinct_gb_census(3, (2, 3, 4), 2) == 5
    import math

    for n in range(1, 5):
        for m in (3, 4):
            for k in range(1, 7):
                expected = math.factorial(n) // math.factorial(
                    min(k // (m - 1), n)
                )
                assert distinct_gb_census(n, (m,) * n, k) == expected, (n, m, k)
    assert time.perf_counter() - start < 120.0


def test_criterion_08_max_degree_element():
    n, m, k = 5, (2, 3, 2, 20, 3), 3
    basis = reduced_gb(n, m, k)
    expected_terms = {
        (0, 0, 0, 7, 0): 1,
        (0, 0, 0, 6, 1): 7,
        (0, 0, 0, 5, 2): 21,
    }
    assert any(dict(g.terms) == expected_terms for g in basis.elements)
    free_degrees = [
        g.degree()
        for g in basis.elements
        if is_m_free(g.leading_term(basis.order)[0], m)
    ]
    assert max(free_degrees) == 7
    assert max_gb_degree(n, m, k) == 7


def test_criterion_09_wlp_routes_and_counterexample():
    for m_val in (2, 3):
        bound = wlp_threshold_equigenerated(5, m_val)
        for p in PRIMES_TO_13:
            verdict = wlp_decide(5, m_val, p)
            assert len(verdict.findings) == 3, (m_val, p)
            assert verdict.has_wlp == (p > bound), (m_val, p)
            assert all(f.holds == verdict.has_wlp for f in verdict.findings)

    # mixed exponents, prime 3: the property survives while the modular
    # initial ideal picks up x4^3 in place of rational generators
    verdict = wlp_decide(5, (2, 2, 2, 4, 5), 3)
    assert verdict.has_wlp is True
    ideal_finding = next(
        f for f in verdict.findings if f.route == "initial-ideal"
    )
    assert ideal_finding.holds is False
    only_rational, only_modular = ideal_finding.witness
    assert (0, 0, 1, 2, 0) in only_rational
    assert (0, 0, 0, 3, 0) in only_modular

    witness = {
        (0, 0, 1, 2, 0): 3,
        (0, 0, 1, 1, 1): 6,
        (0, 0, 1, 0, 2): 3,
        (0, 0, 0, 3, 0): 1,
        (0, 0, 0, 2, 1): 3,
        (0, 0, 0, 1, 2): 3,
        (0, 0, 0, 0, 3): 1,
    }
    basis = reduced_gb(5, (2, 2, 2, 4, 5), 1)
    culprit = next(
        g
        for g in basis.elements
        if g.leading_term(basis.order)[0] == (0, 0, 1, 2, 0)
    )
    assert dict(clear_denominators(culprit).terms) == witness


def test_criterion_10_property_suites():
    start = time.perf_counter()

    # reflection pairing squares to the identity, exhaustively in the degree
    for n in range(1, 6):
        vectors = {(2,) * n, (3,) * n, tuple(2 + (i % 2) for i in range(n))}
        for m in vectors:
            for k in range(1, 4):
                for d in range(sum(m) - n + k + 1):
                    assert reflection_bijection_check(n, m, k, d), (n, m, k, d)

    # the divisor-sum and tail-sum constructions build the same element
    for n in range(1, 4):
        for m in product((2, 3, 4), repeat=n):
            for k in range(1, 5):
                crit = critical_sets(n, m, k)
                ideal = minimal_generators(n, m, k)
                for j in range(1, n + 1):
                    for s in crit.by_index[j - 1]:
                        a = build_gs_divisor_form(s, j, m, k, n)
                        b = build_gs_tail_form(s, j, m, k, n, ideal)
                        assert a == b, (n, m, k, s)

    # cleared coefficients factor over primes up to the largest exponent
    cases = [
        (n, m, k)
        for n in range(1, 4)
        for m in product((2, 3, 4), repeat=n)
        for k in range(1, 4)
    ]
    cases += [GOLDEN, (5, (2, 3, 2, 20, 3), 3)]
    for n, m, k in cases:
        allowed = small_primes(max(m))
        for g in reduced_gb(n, m, k).elements:
            for c in clear_denominators(g).terms.values():
                value = abs(int(c))
                for q in allowed:
                    while value % q == 0:
                        value //= q
                assert value == 1, (n, m, k)

    # signed divisor-sum identity on a thousand drawn instances
    rng = random.Random(20260815)
    for _ in range(1000):
        width = rng.randint(1, 4)
        p = tuple(rng.randint(0, 4) for _ in range(width))
        q = tuple(rng.randint(0, 4) for _ in range(width))
        r = tuple(rng.randint(0, pi + qi) for pi, qi in zip(p, q))
        assert counting_identity(p, q, r)

    # triangle rows stay log-concave
    for s in range(1, 5):
        assert log_concavity_check(s_catalan_triangle(s + 1, 6)), s

    assert time.perf_counter() - start < 600.0
