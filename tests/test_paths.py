"""Path encoding, boundary reflection, and the degree pairing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acigb.hilbert import hf, hs_complete_intersection
from acigb.initial_ideal import enumerate_m_free, minimal_generators
from acigb.paths import (
    ReflectionLine,
    critical_monomials,
    is_admissible,
    is_critical,
    monomial_from_path,
    paired_degree,
    path_from_monomial,
    reflect,
    reflect_suffix,
    reflection_bijection_check,
    reflection_start,
)

MIXED_VECTORS = [
    (3, 2, 2, 3),
    (4, 2, 5),
    (2, 3, 2, 5),
    (2, 2),
    (3, 3, 3),
    (4, 4),
    (2, 3, 4, 2, 3),
]


class TestLine:
    def test_golden_doubled_heights(self):
        line = ReflectionLine.build(4, (3, 2, 2, 3), 2)
        assert line.y2 == (-2, -2, -1, 0, 0)

    def test_flat_single_variable(self):
        for k in (1, 2, 5):
            line = ReflectionLine.build(1, (3,), k)
            assert line.y2 == (-k, -k)

    def test_steep_mixed(self):
        line = ReflectionLine.build(3, (4, 2, 5), 4)
        assert line.y2 == (-4, -5, -4, -6)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReflectionLine.build(2, (3,), 1)
        with pytest.raises(ValueError):
            ReflectionLine.build(1, (3,), 0)


class TestEncoding:
    def test_known_path(self):
        assert path_from_monomial((1, 0, 1, 2)) == (0, 0, 1, 1, 0)

    def test_known_path_steep(self):
        assert path_from_monomial((3, 0, 2)) == (0, -2, -1, -2)

    def test_endpoint_height(self):
        s = (2, 1, 0, 2)
        assert path_from_monomial(s)[-1] == 4 - sum(s)

    def test_round_trip_exhaustive_small(self):
        for m in [(2, 2, 2), (3, 2, 2, 3), (4, 4), (2, 3, 4, 2, 3, 2)]:
            n = len(m)
            for d in range(sum(mi - 1 for mi in m) + 1):
                for s in enumerate_m_free(n, m, d):
                    h = path_from_monomial(s)
                    assert monomial_from_path(h) == s
                    assert is_admissible(h, m)
                    # the path ends at height n - deg(s)
                    assert (len(h) - 1) - h[-1] == d

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_round_trip_random(self, exps):
        s = tuple(exps)
        assert monomial_from_path(path_from_monomial(s)) == s

    def test_inadmissible_when_exponent_hits_bound(self):
        h = path_from_monomial((3, 0))
        assert not is_admissible(h, (3, 2))
        # a negative exponent gives slope 2 on its step
        assert not is_admissible(path_from_monomial((-1, 0)), (3, 3))


class TestReflection:
    def test_suffix_reflection_golden(self):
        line = ReflectionLine.build(3, (4, 2, 5), 4)
        h = path_from_monomial((3, 0, 2))
        reflected = reflect_suffix(h, line, 3)
        assert reflected == (0, -2, -1, -4)
        assert monomial_from_path(reflected) == (3, 0, 4)

    def test_reflection_start_golden_steep(self):
        # two initial segments stay fixed; the reflection begins at vertex 3
        line = ReflectionLine.build(3, (4, 2, 5), 4)
        h = path_from_monomial((3, 0, 2))
        assert reflection_start(h, line) == 3

    def test_reflection_start_endpoint_on_line(self):
        line = ReflectionLine.build(4, (3, 2, 2, 3), 2)
        h = path_from_monomial((1, 0, 1, 2))
        assert reflection_start(h, line) == 4
        assert reflect(h, line) == h

    def test_not_critical(self):
        line = ReflectionLine.build(4, (3, 2, 2, 3), 2)
        h = path_from_monomial((1, 1, 0, 0))  # stays well above the line
        assert reflection_start(h, line) is None
        assert reflect(h, line) is None

    def test_reflected_slope_law(self):
        # a reflected edge of original slope sigma gets slope 3 - m_i - sigma
        for m in MIXED_VECTORS:
            n = len(m)
            line = ReflectionLine.build(n, m, 2)
            for s in enumerate_m_free(n, m, min(3, sum(mi - 1 for mi in m))):
                h = path_from_monomial(s)
                full = reflect_suffix(h, line, 1)
                for i in range(1, n):
                    sigma = h[i + 1] - h[i]
                    assert full[i + 1] - full[i] == 3 - m[i] - sigma

    def test_index_bounds(self):
        line = ReflectionLine.build(2, (2, 2), 1)
        h = path_from_monomial((1, 0))
        with pytest.raises(ValueError):
            reflect_suffix(h, line, 0)
        with pytest.raises(ValueError):
            reflect_suffix(h, line, 3)


class TestDegreePairing:
    def test_paired_degree_golden(self):
        assert paired_degree(4, (3, 2, 2, 3), 2, 4) == 4

    def test_paired_degree_involution(self):
        for m in MIXED_VECTORS:
            n = len(m)
            for k in (1, 2, 3):
                for d in range(sum(m) - n + k + 1):
                    d2 = paired_degree(n, m, k, d)
                    assert paired_degree(n, m, k, d2) == d

    def test_bijection_golden_self_paired(self):
        assert reflection_bijection_check(4, (3, 2, 2, 3), 2, 4)

    def test_bijection_exhaustive_small(self):
        for m in [(3, 3), (2, 2), (3, 2, 2), (2, 3, 4), (4, 2, 5)]:
            n = len(m)
            for k in (1, 2, 3):
                for d in range(sum(mi - 1 for mi in m) + 1):
                    assert reflection_bijection_check(n, m, k, d), (m, k, d)

    def test_critical_count_law(self):
        # degree-d critical paths number HF(R/P, d-k) up to the pairing
        # midpoint and HF(R/P, d) beyond it
        for m in MIXED_VECTORS:
            n = len(m)
            series = hs_complete_intersection(m)
            for k in (1, 2, 3):
                for d in range(sum(mi - 1 for mi in m) + 1):
                    count = len(critical_monomials(n, m, k, d))
                    d2 = paired_degree(n, m, k, d)
                    if d <= d2:
                        assert count == hf(series, d - k), (m, k, d)
                    else:
                        assert count == hf(series, d), (m, k, d)

    def test_critical_iff_in_ideal(self):
        # a path is critical exactly when its monomial lies in the ideal
        for m in [(3, 2, 2, 3), (2, 3, 4), (2, 2, 2)]:
            n = len(m)
            for k in (1, 2, 3):
                ideal = minimal_generators(n, m, k)
                line = ReflectionLine.build(n, m, k)
                for d in range(sum(mi - 1 for mi in m) + 1):
                    for s in enumerate_m_free(n, m, d):
                        crit = is_critical(path_from_monomial(s), line)
                        assert crit == ideal.contains(s), (m, k, s)
