"""Degree-count sequences, convolutions, triangle, and spin tests."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from acigb.initial_ideal import (
    critical_sets,
    critical_sets_paths,
    hf_quotient,
    minimal_generators,
)
from acigb.hilbert import hf, hs_complete_intersection, socle_degrees
from acigb.sequences import (
    MSpec,
    catalan_convolution_check_m2,
    classical_row,
    convolution_check,
    convolve,
    crit_counts,
    crit_level_count,
    g3k_sequence,
    gb_degree_sequence,
    log_concavity_check,
    max_gb_degree,
    n_of_degree,
    s_binom,
    s_catalan_triangle,
    spin_catalan_degeneracies,
    spin_catalan_degeneracy,
    spin_path_count,
    type_classify,
)

TABLE_CUBES = {
    1: (1, 0, 1, 1, 3, 6, 15, 36, 91),
    2: (1, 1, 2, 4, 9, 21, 51, 127, 323),
    3: (1, 1, 3, 6, 15, 36, 91, 232, 603),
    4: (1, 2, 5, 12, 30, 76, 196, 512, 1353),
    5: (1, 2, 6, 15, 40, 105, 280, 750, 2025),
    6: (1, 3, 9, 25, 69, 189, 518, 1422, 3915),
}


def catalan(n: int) -> int:
    return classical_row("catalan", n)[n]


def motzkin(n: int) -> int:
    return classical_row("motzkin", n)[n]


def riordan(n: int) -> int:
    return classical_row("riordan", n)[n]


def direct_degree_counts(n: int, m, k: int) -> Counter:
    counts: Counter = Counter()
    for group in critical_sets_paths(n, m, k).by_index:
        for s in group:
            counts[sum(s)] += 1
    return counts


class TestMSpec:
    def test_entry_and_truncation(self):
        spec = MSpec((3, 2), 4)
        assert spec.truncation(5) == (3, 2, 4, 4, 4)
        assert MSpec.constant(2).entry(100) == 2

    def test_finite_prefix_exhausts(self):
        with pytest.raises(ValueError):
            MSpec.finite((3, 2)).entry(3)

    def test_coerce(self):
        assert MSpec.coerce(3) == MSpec.constant(3)
        assert MSpec.coerce((2, 3)) == MSpec.finite((2, 3))
        spec = MSpec.constant(4)
        assert MSpec.coerce(spec) is spec

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            MSpec.finite((3, 1))
        with pytest.raises(ValueError):
            MSpec((), None)


class TestDegreeSequence:
    def test_mixed_prefix_values(self):
        seq = gb_degree_sequence(MSpec.finite((3, 2, 2, 3)), 2, 4)
        assert tuple(seq[d] for d in (2, 3, 4)) == (1, 1, 3)

    def test_zero_before_first_contribution(self):
        seq = gb_degree_sequence(MSpec.constant(3), 1, 5)
        assert seq[2] == 0

    def test_prefix_too_short(self):
        with pytest.raises(ValueError, match="exponent prefix too short"):
            gb_degree_sequence(MSpec.finite((3, 2)), 2, 10)

    def test_out_of_range_degree(self):
        seq = gb_degree_sequence(MSpec.constant(2), 1, 3)
        with pytest.raises(KeyError):
            seq[4]

    def test_matches_direct_enumeration(self):
        # enumeration cost caps the variable count per exponent size
        cases = [
            (MSpec.constant(2), 18),
            (MSpec.constant(3), 10),
            (MSpec.constant(4), 9),
            (MSpec((3, 2, 2, 3), 3), 10),
            (MSpec((2, 3, 4), 2), 12),
        ]
        for spec, cap in cases:
            m_vec = spec.truncation(cap)
            for k in range(1, 5):
                D, delta = socle_degrees(m_vec, k)
                d_max = k + D - delta - 1
                seq = gb_degree_sequence(spec, k, d_max)
                direct = direct_degree_counts(cap, m_vec, k)
                for d in range(k, d_max + 1):
                    assert seq[d] == direct.get(d, 0), (spec, k, d)

    def test_degree_determines_level(self):
        for m in (2, 3, 4):
            for k in range(1, 5):
                groups = critical_sets_paths(8, (m,) * 8, k).by_index
                seen: dict = {}
                for j, group in enumerate(groups):
                    for s in group:
                        d = sum(s)
                        assert seen.setdefault(d, j) == j, (m, k, d)


# reference: every level rebuilt from its own prefix, with the prefix's
# series and socle degrees computed from nothing


def ref_level_frame(prefix, m_n, k):
    D, delta = socle_degrees(prefix, k)
    s_n = k + D - 2 * delta
    if s_n >= m_n:
        return None
    e_max = min((m_n - 1 - s_n) // 2, delta)
    return k + D - delta, e_max, delta, hs_complete_intersection(prefix)


def ref_level_count(series, delta, e, k):
    return max(0, hf(series, delta - e) - hf(series, delta - e - k))


def ref_gb_degree_sequence(spec, k, d_max):
    counts = {d: 0 for d in range(k, d_max + 1)}
    n = 1
    while True:
        prefix = spec.truncation(n - 1)
        D, delta = socle_degrees(prefix, k)
        if k + D - delta > d_max:
            break
        try:
            m_n = spec.entry(n)
        except ValueError:
            raise ValueError(
                f"exponent prefix too short to settle degrees up to {d_max}"
            ) from None
        frame = ref_level_frame(prefix, m_n, k)
        if frame is not None:
            d_min, e_max, delta, series = frame
            for e in range(e_max + 1):
                if k <= d_min + e <= d_max:
                    counts[d_min + e] += ref_level_count(series, delta, e, k)
        n += 1
    return tuple(sorted(counts.items()))


def ref_crit_level_count(n, spec, k):
    frame = ref_level_frame(spec.truncation(n - 1), spec.entry(n), k)
    if frame is None:
        return 0
    _, e_max, delta, series = frame
    return sum(ref_level_count(series, delta, e, k) for e in range(e_max + 1))


def ref_n_of_degree(d, spec, k):
    if d < k:
        raise ValueError("degree below the minimum k")
    best = None
    nu = 1
    while True:
        prefix = spec.truncation(nu - 1)
        D, _ = socle_degrees(prefix, k)
        if D + k >= 2 * d:
            break
        nonempty = ref_level_frame(prefix, spec.entry(nu), k) is not None
        if nu > 1 and nonempty and not type_classify(prefix, k).type1:
            raise ValueError(
                f"level {nu} is unbalanced; use the full degree scan instead"
            )
        best = nu
        nu += 1
    if best is None:
        raise ValueError(f"no level reaches degree {d}")
    return best


def ref_max_gb_degree(n, m, k):
    for q in range(n, 0, -1):
        frame = ref_level_frame(m[: q - 1], m[q - 1], k)
        if frame is not None:
            d_min, e_max, delta, series = frame
            if ref_level_count(series, delta, 0, k) > 0:
                return d_min + e_max
    raise ValueError(f"no m-free basis elements for n={n}, m={m}, k={k}")


def outcome(fn, *args):
    """The value, or the type and message of the error raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def random_specs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        prefix = tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 5)))
        if rng.randint(0, 1):
            yield MSpec.finite(prefix)
        else:
            yield MSpec.constant(rng.randint(2, 6))


class TestScanAgainstPrefixFormulas:
    def test_degree_sequence(self):
        rng = random.Random(11)
        for spec in random_specs(1, 120):
            for k in range(1, 6):
                d_max = rng.randint(0, 24)
                want = outcome(ref_gb_degree_sequence, spec, k, d_max)
                got = outcome(lambda: gb_degree_sequence(spec, k, d_max).values)
                assert got == want, (spec, k, d_max)

    def test_level_counts_degrees_and_maxima(self):
        for spec in random_specs(2, 60):
            for k in range(1, 6):
                for n in range(1, 9):
                    want = outcome(ref_crit_level_count, n, spec, k)
                    assert outcome(crit_level_count, n, spec, k) == want, (spec, k, n)
                for d in range(k, k + 12):
                    want = outcome(ref_n_of_degree, d, spec, k)
                    assert outcome(n_of_degree, d, spec, k) == want, (spec, k, d)
                if spec.tail is None:
                    n, m = len(spec.prefix), spec.prefix
                    want = outcome(ref_max_gb_degree, n, m, k)
                    assert outcome(max_gb_degree, n, m, k) == want, (m, k)

    def test_level_counts_in_one_pass(self):
        # crit_counts yields what crit_level_count gives level by level, and
        # raises where a finite prefix runs out, with the same message
        for spec in random_specs(3, 60):
            for k in range(1, 6):
                counts, got = crit_counts(spec, k), []
                for n in range(1, 9):
                    got.append(outcome(next, counts))
                    assert got[-1] == outcome(ref_crit_level_count, n, spec, k), (spec, k, n)
                    if isinstance(got[-1], tuple):
                        break

    def test_level_counts_are_the_critical_set_sizes(self):
        for n in range(1, 5):
            for m in itertools.product(range(2, 5), repeat=n):
                for k in range(1, 6):
                    sizes = [len(group) for group in critical_sets(n, m, k).by_index]
                    assert list(itertools.islice(crit_counts(m, k), n)) == sizes, (m, k)

    def test_cube_free_counts(self):
        for k in range(1, 6):
            shift = (k + 1) // 2
            want = tuple(
                ref_crit_level_count(n + shift, MSpec.constant(3), k) for n in range(13)
            )
            assert g3k_sequence(k, 12) == want, k

    def test_catalan_triangle_rows(self):
        for m in range(2, 7):
            s = m - 1
            tri = s_catalan_triangle(m, 12)
            for n in range(13):
                want = tuple(
                    s_binom(2 * n, s * n + j, s) - s_binom(2 * n, s * n + j + 1, s)
                    for j in range(s * n + 1)
                )
                assert tri.rows[n] == want, (m, n)


class TestCubeTable:
    def test_formula_route_all_rows(self):
        for k, row in TABLE_CUBES.items():
            assert g3k_sequence(k, 8) == row, k

    def test_direct_route_spot_checks(self):
        shift = {1: 1, 4: 2, 6: 3}
        for k, n in ((1, 4), (4, 5), (6, 8)):
            level = n + shift[k]
            got = len(
                critical_sets_paths(level, (3,) * level, k).by_index[level - 1]
            )
            assert got == TABLE_CUBES[k][n], (k, n)

    def test_level_count_against_direct(self):
        for n in range(1, 8):
            for k in range(1, 5):
                direct = len(
                    critical_sets_paths(n, (3,) * n, k).by_index[n - 1]
                )
                assert crit_level_count(n, MSpec.constant(3), k) == direct, (n, k)


class TestClassicalSequences:
    def test_table_values(self):
        assert [motzkin(n) for n in range(9)] == [1, 1, 2, 4, 9, 21, 51, 127, 323]
        assert [riordan(n) for n in range(9)] == [1, 0, 1, 1, 3, 6, 15, 36, 91]
        assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_motzkin_riordan_identity(self):
        assert all(motzkin(n) == riordan(n) + riordan(n + 1) for n in range(21))

    def test_first_call_far_out(self):
        # no recursion and no cache: a first call at 3000 runs the recurrence
        c, m, r = [1], [1, 1], [1, 0]
        for n in range(1, 3002):
            c.append(c[-1] * 2 * (2 * n - 1) // (n + 1))
            if n >= 2:
                m.append(((2 * n + 1) * m[-1] + 3 * (n - 1) * m[-2]) // (n + 2))
                r.append((n - 1) * (2 * r[-1] + 3 * r[-2]) // (n + 1))
        assert catalan(3000) == c[3000] == math.comb(6000, 3000) // 3001
        assert motzkin(3000) == m[3000] == riordan(3000) + riordan(3001)
        assert riordan(3000) == r[3000]

    def test_negative_index_rejected(self):
        for fn in (motzkin, riordan, catalan):
            with pytest.raises(ValueError):
                fn(-1)


class TestConvolutions:
    def test_riordan_and_motzkin_base_cases(self):
        assert g3k_sequence(1, 10) == tuple(riordan(n) for n in range(11))
        assert g3k_sequence(2, 10) == tuple(motzkin(n) for n in range(11))

    def test_all_powers(self):
        assert all(convolution_check(k, 10) for k in range(1, 7))

    def test_catalan_square_free(self):
        assert all(catalan_convolution_check_m2(k, 10) for k in range(1, 5))

    def test_convolve_is_series_product(self):
        assert convolve((1, 1, 1), (1, 2, 3)) == (1, 3, 6)


class TestNOfDegree:
    def test_cube_examples(self):
        assert n_of_degree(3, MSpec.constant(3), 1) == 3
        assert n_of_degree(4, MSpec.constant(3), 2) == 3

    def test_first_degree(self):
        assert n_of_degree(1, MSpec.constant(3), 1) == 1

    def test_matches_enumeration(self):
        for k in (1, 2):
            direct = direct_degree_counts(8, (3,) * 8, k)
            groups = critical_sets_paths(8, (3,) * 8, k).by_index
            for d in sorted(direct):
                levels = {
                    j + 1
                    for j, group in enumerate(groups)
                    for s in group
                    if sum(s) == d
                }
                assert levels == {n_of_degree(d, MSpec.constant(3), k)}, (k, d)

    def test_unbalanced_nonempty_level_rejected(self):
        with pytest.raises(ValueError):
            n_of_degree(20, MSpec.finite((20, 20)), 3)


class TestMaxDegree:
    def test_huge_middle_exponent(self):
        assert max_gb_degree(5, (2, 3, 2, 20, 3), 3) == 7

    def test_single_variable(self):
        assert max_gb_degree(1, (5,), 2) == 2
        assert max_gb_degree(1, (9,), 4) == 4

    def test_single_variable_without_generators(self):
        with pytest.raises(ValueError):
            max_gb_degree(1, (3,), 5)

    def test_equigenerated_closed_form(self):
        for n in range(2, 6):
            for m in (2, 3, 4):
                for k in range(1, n * (m - 1) + 1):
                    if n == 2 and k == 1 and m > 2:
                        # the two-variable level carries nothing here, so the
                        # linear element at level one is already the maximum
                        assert max_gb_degree(2, (m, m), 1) == 1
                        continue
                    want = math.ceil((n * (m - 1) + k - 1) / 2)
                    assert max_gb_degree(n, (m,) * n, k) == want, (n, m, k)

    def test_power_inside_pure_ideal_leaves_nothing(self):
        # beyond the socle the extra generator is redundant, no m-free elements
        with pytest.raises(ValueError):
            max_gb_degree(2, (2, 2), 3)

    def test_agrees_with_enumeration(self):
        cases = [(3, (3, 3, 3)), (3, (2, 4, 3)), (4, (3, 2, 2, 3)), (2, (4, 4))]
        for n, m in cases:
            for k in range(1, 4):
                groups = critical_sets_paths(n, m, k).by_index
                degrees = [sum(s) for group in groups for s in group]
                if not degrees:
                    continue
                assert max_gb_degree(n, m, k) == max(degrees), (n, m, k)


class TestCatalanTriangle:
    def test_row_zero(self):
        assert s_catalan_triangle(3, 0).rows == ((1,),)

    def test_first_column_ordinary_catalan(self):
        tri = s_catalan_triangle(2, 6)
        assert tuple(row[0] for row in tri.rows) == tuple(
            catalan(n) for n in range(7)
        )

    def test_counts_monomials_outside_initial_ideal(self):
        for m in (2, 3):
            for n in (1, 2):
                tri = s_catalan_triangle(m, n)
                ideal = minimal_generators(2 * n, (m,) * 2 * n, 1)
                for k in range((m - 1) * n + 1):
                    want = hf_quotient(
                        2 * n, (m,) * 2 * n, 1, (m - 1) * n - k, ideal
                    )
                    assert tri.entry(n, k) == want, (m, n, k)

    def test_rows_log_concave(self):
        for s in range(1, 5):
            assert log_concavity_check(s_catalan_triangle(s + 1, 6))

    def test_row_sums_telescope(self):
        for s in (1, 2, 3):
            tri = s_catalan_triangle(s + 1, 5)
            for n in range(6):
                assert sum(tri.rows[n]) == s_binom(2 * n, s * n, s), (s, n)

    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            s_catalan_triangle(1, 3)

    def test_entry_outside_row_is_zero(self):
        tri = s_catalan_triangle(3, 2)
        assert tri.entry(1, 5) == 0


class TestSpin:
    def test_two_particles_single_state(self):
        assert spin_catalan_degeneracy(1, 2) == 1
        assert spin_path_count(1, 2) == 1

    def test_four_particles(self):
        assert spin_catalan_degeneracy(1, 4) == 3
        assert spin_path_count(1, 4) == 3

    def test_empty_system(self):
        assert spin_catalan_degeneracy(Fraction(3, 2), 0) == 1

    def test_fractional_weight_vanishes(self):
        assert spin_catalan_degeneracy(Fraction(1, 2), 3) == 0
        assert spin_path_count(Fraction(1, 2), 3) == 0

    def test_routes_agree_on_grid(self):
        spins = (Fraction(1, 2), 1, Fraction(3, 2), 2)
        for sigma in spins:
            for N in range(9):
                assert spin_catalan_degeneracy(sigma, N) == spin_path_count(
                    sigma, N
                ), (sigma, N)

    def test_one_sequence_scan_matches_path_count(self):
        for sigma in (Fraction(1, 2), 1, Fraction(3, 2)):
            got = spin_catalan_degeneracies(sigma, 30)
            assert got == [spin_path_count(sigma, N) for N in range(31)], sigma

    def test_half_spin_walks_are_dyck_paths(self):
        for half_n in range(1, 7):
            assert spin_path_count(Fraction(1, 2), 2 * half_n) == catalan(half_n)

    def test_rejects_bad_spin(self):
        with pytest.raises(ValueError):
            spin_catalan_degeneracy(Fraction(1, 3), 2)
        with pytest.raises(ValueError):
            spin_path_count(0, 2)


class TestTypeClassification:
    def test_mixed_unbalanced_prefix(self):
        info = type_classify((2, 3, 2, 20), 3)
        assert (info.sigma, info.tau, info.type1) == (20, 4, False)

    def test_empty_prefix(self):
        info = type_classify((), 5)
        assert (info.sigma, info.tau, info.type1) == (0, 0, True)

    def test_constant_vectors_balanced_from_two(self):
        for m in (2, 3, 4, 5):
            assert type_classify((m, m), 1).type1
