"""Series, truncation, and socle-degree tests."""

import itertools
import random

import pytest

from acigb.hilbert import (
    TypeInfo,
    extend_series,
    hf,
    hs_complete_intersection,
    is_symmetric,
    is_unimodal,
    socle_degrees,
    truncate_lefschetz,
    type_classify,
)


def nested_loop_product(m) -> tuple:
    """prod_i (1 + t + ... + t^(m_i - 1)), one term at a time."""
    coeffs = [1]
    for mi in m:
        nxt = [0] * (len(coeffs) + mi - 1)
        for d, c in enumerate(coeffs):
            for e in range(mi):
                nxt[d + e] += c
        coeffs = nxt
    return tuple(coeffs)


class TestSeries:
    def test_known_product(self):
        assert hs_complete_intersection((3, 2, 2, 3)) == (1, 4, 8, 10, 8, 4, 1)

    def test_one_factor_step_on_random_prefixes(self):
        rng = random.Random(7)
        for _ in range(300):
            prefix = tuple(rng.randint(2, 9) for _ in range(rng.randint(0, 6)))
            mi = rng.randint(2, 12)
            series = hs_complete_intersection(prefix)
            assert series == nested_loop_product(prefix), prefix
            step = extend_series(series, mi)
            assert step == hs_complete_intersection(prefix + (mi,)), (prefix, mi)
            assert step == nested_loop_product(prefix + (mi,)), (prefix, mi)

    def test_single_variable(self):
        assert hs_complete_intersection((5,)) == (1, 1, 1, 1, 1)

    def test_symmetry_and_unimodality_grid(self):
        for n in range(1, 5):
            for m in itertools.product((2, 3, 4), repeat=n):
                s = hs_complete_intersection(m)
                assert is_symmetric(s)
                assert is_unimodal(s)
                assert s[0] == 1
                prod = 1
                for v in m:
                    prod *= v
                assert sum(s) == prod

    def test_rejects_degenerate_entry(self):
        with pytest.raises(ValueError):
            hs_complete_intersection((3, 1))

    def test_hf_out_of_range(self):
        s = (1, 2, 1)
        assert hf(s, -1) == 0
        assert hf(s, 3) == 0
        assert hf(s, 1) == 2


class TestTruncation:
    def test_golden_quotient(self):
        s = hs_complete_intersection((3, 2, 2, 3))
        assert truncate_lefschetz(s, 2) == (1, 4, 7, 6)

    def test_power_beyond_socle_keeps_series(self):
        assert truncate_lefschetz((1, 1), 5) == (1, 1)

    def test_known_small(self):
        assert truncate_lefschetz((1, 2, 3, 2, 1), 1) == (1, 1, 1)

    def test_rejects_zero_power(self):
        with pytest.raises(ValueError):
            truncate_lefschetz((1, 1), 0)

    def test_positive_entries(self):
        for n in range(1, 5):
            for m in itertools.product((2, 3, 4), repeat=n):
                s = hs_complete_intersection(m)
                for k in range(1, 5):
                    t = truncate_lefschetz(s, k)
                    assert all(c > 0 for c in t)
                    assert t[0] == 1


class TestSocleDegrees:
    def test_prefix_of_mixed_vector(self):
        assert socle_degrees((2, 3, 2), 3) == (4, 3)

    def test_type2_prefix(self):
        # large final entry dominates: tau-driven socle
        D, delta = socle_degrees((2, 3, 2, 20), 3)
        assert D == 23
        assert delta == 4 + 3 - 1

    def test_equigenerated(self):
        assert socle_degrees((3, 3, 3, 3), 1) == (8, 4)

    def test_empty_prefix(self):
        assert socle_degrees((), 4) == (0, 0)

    def test_single(self):
        assert socle_degrees((5,), 2) == (4, 1)
        assert socle_degrees((5,), 4) == (4, 3)

    def test_dual_route_grid(self):
        for n in range(1, 6):
            for m in itertools.product((2, 3, 4), repeat=n):
                for k in range(1, 7):
                    socle_degrees(m, k)  # raises on mismatch

    def test_dual_route_spiky_vectors(self):
        for m in [(2, 3, 2, 20, 3), (2, 2, 9), (5, 2, 2), (4, 2, 5), (2, 7)]:
            for k in range(1, 9):
                for j in range(len(m) + 1):
                    socle_degrees(m[:j], k)


class TestTypeClassify:
    def test_empty_prefix_always_type1(self):
        assert type_classify((), 1) == TypeInfo(0, 0, True)

    def test_spiky_prefix_type2(self):
        info = type_classify((2, 3, 2, 20), 3)
        assert info.sigma == 20
        assert info.tau == 4
        assert not info.type1

    def test_equigenerated_always_type1(self):
        for n in range(2, 8):
            for m in (3, 4, 5):
                for k in range(1, 6):
                    assert type_classify((m,) * n, k).type1

    def test_threshold_boundary(self):
        # sigma=5, tau=0: type 1 starts at k = 4
        assert not type_classify((5,), 3).type1
        assert type_classify((5,), 4).type1
