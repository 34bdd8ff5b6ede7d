"""Critical-set construction, minimal generators, and quotient counts."""

import dataclasses
import itertools
import operator
import pickle
import random

import pytest

from acigb.algebra import PackedLayout, TermOrder, compositions, grevlex
from acigb.closed_form import reduced_gb
from acigb.hilbert import hf, hs_complete_intersection, truncate_lefschetz
from acigb.initial_ideal import (
    CriticalSets,
    MonomialIdeal,
    check_revlex_segment,
    check_strongly_m_stable,
    critical_sets,
    critical_sets_formula,
    critical_sets_paths,
    enumerate_m_free,
    hf_quotient,
    hilbert_counts,
    minimal_generators,
    minimalize_monomials,
    pure_power_removed,
    standard_levels,
)

GOLDEN = (4, (3, 2, 2, 3), 2)


def mono_divides(a, b):
    """Whether the monomial a divides b, by plain exponent comparison."""
    return all(map(operator.le, a, b))


def small_grid():
    for n in range(1, 4):
        for m in itertools.product((2, 3, 4), repeat=n):
            for k in range(1, 5):
                yield n, m, k
    for m in [(3, 2, 2, 3), (4, 2, 5), (2, 3, 2, 5), (2, 2, 2, 4, 5)]:
        for k in range(1, 4):
            yield len(m), m, k


def random_grid(count=120, seed=24):
    """Seeded cases past small_grid: n <= 7, m_i in 2..6, and k from 1 to
    D + 2, D the socle degree, so some k lie past the socle."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 7)
        m = tuple(rng.randint(2, 6) for _ in range(n))
        yield n, m, rng.randint(1, sum(m) - n + 2)


class TestEnumeration:
    def test_socle_monomial_unique(self):
        assert enumerate_m_free(4, (3, 2, 2, 3), 6) == [(2, 1, 1, 2)]

    def test_count_matches_series(self):
        n, m = 4, (3, 2, 2, 3)
        series = hs_complete_intersection(m)
        for d in range(len(series) + 1):
            assert len(enumerate_m_free(n, m, d)) == hf(series, d)

    def test_sorted_descending(self):
        out = enumerate_m_free(3, (3, 3, 3), 2)
        assert out[0] == (2, 0, 0)
        assert out[-1] == (0, 0, 2)

    def test_degree_zero(self):
        assert enumerate_m_free(3, (2, 2, 2), 0) == [(0, 0, 0)]
        assert enumerate_m_free(0, (), 0) == [()]


class TestMonomialIdeal:
    def test_minimalize(self):
        ideal = MonomialIdeal(2, minimalize_monomials([(2, 0), (2, 1), (0, 3), (1, 2)]))
        assert set(ideal.min_gens) == {(2, 0), (0, 3), (1, 2)}

    def test_contains(self):
        ideal = MonomialIdeal(2, ((2, 0), (1, 1)))
        assert ideal.contains((2, 1))
        assert not ideal.contains((1, 0))

    def test_contains_matches_brute_force(self):
        rng = random.Random(11)
        for n in range(1, 6):
            for _ in range(60):
                gens = [
                    tuple(rng.randint(0, 4) for _ in range(n))
                    for _ in range(rng.randint(1, 6))
                ]
                ideal = MonomialIdeal(n, minimalize_monomials(gens))
                for _ in range(20):
                    # exponents above the largest generator exponent too
                    mono = tuple(rng.randint(0, 7) for _ in range(n))
                    brute = any(mono_divides(g, mono) for g in ideal.min_gens)
                    assert ideal.contains(mono) == brute, (gens, mono)
                assert ideal.contains((0,) * n) == (ideal.min_gens == ((0,) * n,))

    def test_contains_on_the_golden_ideal(self):
        n, m, k = GOLDEN
        ideal = minimal_generators(n, m, k)
        for d in range(9):
            for mono in itertools.product(range(d + 1), repeat=n):
                if sum(mono) == d:
                    brute = any(mono_divides(g, mono) for g in ideal.min_gens)
                    assert ideal.contains(mono) == brute, mono

    def test_constructor_accepts_equal_degree_antichain(self):
        gens = ((2, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 2), (1, 0, 1))
        ideal = MonomialIdeal(3, gens)
        assert ideal.min_gens == gens
        assert MonomialIdeal(2, ()).contains((5, 5)) is False

    def test_construction_runs_no_divisibility_test(self, monkeypatch):
        # minimality is owned by the producers, not re-checked on construction
        def refuse(*args):
            raise AssertionError("MonomialIdeal reached a divisibility helper")

        monkeypatch.setattr("acigb.initial_ideal._divides_any", refuse)
        ideal = minimal_generators(12, (3,) * 12, 3)
        assert len(ideal.min_gens) > 0

    def test_generators_are_the_only_fields(self):
        # no derived field rides along: equality, hash, repr and pickling
        # see n and the generators alone
        assert [f.name for f in dataclasses.fields(MonomialIdeal)] == ["n", "min_gens"]
        a = minimal_generators(*GOLDEN)
        b = MonomialIdeal(a.n, a.min_gens)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == f"MonomialIdeal(n={a.n}, min_gens={a.min_gens!r})"
        c = pickle.loads(pickle.dumps(a))
        assert c == a and c.contains((3, 0, 0, 0)) and not c.contains((1, 0, 0, 0))


class TestCriticalSets:
    def test_golden_instance(self):
        crit = critical_sets(*GOLDEN)
        assert crit.by_index[0] == ((2, 0, 0, 0),)
        assert crit.by_index[1] == ()
        assert crit.by_index[2] == ((1, 1, 1, 0),)
        assert set(crit.by_index[3]) == {
            (0, 1, 1, 2),
            (1, 0, 1, 2),
            (1, 1, 0, 2),
        }
        assert sum(map(len, crit.by_index)) == 5

    def test_golden_minimal_generators(self):
        ideal = minimal_generators(*GOLDEN)
        assert set(ideal.min_gens) == {
            (0, 2, 0, 0),
            (0, 0, 2, 0),
            (0, 0, 0, 3),
            (2, 0, 0, 0),
            (1, 1, 1, 0),
            (0, 1, 1, 2),
            (1, 0, 1, 2),
            (1, 1, 0, 2),
        }

    def test_removal_rule_golden(self):
        n, m, k = GOLDEN
        assert pure_power_removed(m, k, 1)
        assert not any(pure_power_removed(m, k, j) for j in (2, 3, 4))

    def test_mixed_small_instance(self):
        # power sums with two square generators and one linear-power cube
        ideal = minimal_generators(3, (2, 2, 2), 1)
        assert set(ideal.min_gens) == {
            (1, 0, 0),
            (0, 2, 0),
            (0, 0, 2),
            (0, 1, 1),
        }

    def test_two_variables_empty_level(self):
        crit = critical_sets(2, (3, 3), 1)
        assert crit.by_index[0] == ((1, 0),)
        assert crit.by_index[1] == ()

    def test_three_routes_agree(self):
        for n, m, k in small_grid():
            a = critical_sets(n, m, k)
            b = critical_sets_formula(n, m, k)
            c = critical_sets_paths(n, m, k)
            assert a == b == c, (n, m, k)
            assert reduced_gb(n, m, k).initial_ideal() == minimal_generators(n, m, k)

    def test_routes_agree_on_a_random_grid(self):
        for n, m, k in random_grid():
            a = critical_sets(n, m, k)
            assert a == critical_sets_formula(n, m, k), (n, m, k)
            assert a == critical_sets_paths(n, m, k), (n, m, k)

    def test_generators_form_an_antichain(self, assert_antichain):
        # MonomialIdeal takes its generators unchecked, so the level
        # recursion's union of critical sets and pure powers is checked here
        for n, m, k in random_grid():
            assert_antichain(critical_sets(n, m, k).generators(), (n, m, k))
        gens = critical_sets(9, (3,) * 9, 3).generators()
        assert len(gens) == 394
        assert_antichain(gens, (9, (3,) * 9, 3))

    def test_level_recursion_runs_no_divisibility_test(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("critical_sets reached a divisibility helper")

        for name in ("_divides_any", "enumerate_m_free"):
            monkeypatch.setattr(f"acigb.initial_ideal.{name}", refuse)
        assert sum(map(len, critical_sets(6, (3, 4, 2, 3, 4, 2), 5).by_index)) > 0

    def test_power_past_the_socle_keeps_nothing_critical(self):
        # (3,)*12 has socle degree 24; without pruning the standard
        # monomials below the later windows, k = 30 would build the full box
        crit = critical_sets(12, (3,) * 12, 30)
        assert crit.by_index == ((),) * 12
        assert len(crit.pure_powers) == 12

    def test_groups_sorted_and_pure_powers_derived(self):
        # a route hands over its groups in any order; the sets own both the
        # grevlex order and the pure-power rule
        n, m, k = GOLDEN
        level_four = [(1, 1, 0, 2), (0, 1, 1, 2), (1, 0, 1, 2)]
        crit = CriticalSets(n, m, k, [[(2, 0, 0, 0)], [], [(1, 1, 1, 0)], level_four])
        assert crit.by_index[3] == ((1, 1, 0, 2), (1, 0, 1, 2), (0, 1, 1, 2))
        assert crit.pure_powers == ((0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 3))
        assert crit == critical_sets(n, m, k)
        assert crit.generators() == minimal_generators(n, m, k).min_gens

    def test_degenerate_large_power(self):
        # once k reaches past the socle degree nothing is critical
        crit = critical_sets(2, (2, 2), 4)
        assert [s for group in crit.by_index for s in group] == []
        ideal = minimal_generators(2, (2, 2), 4)
        assert set(ideal.min_gens) == {(2, 0), (0, 2)}

    def test_socle_power_single_critical(self):
        # k equal to the socle degree leaves exactly the socle monomial
        crit = critical_sets(2, (2, 2), 2)
        assert [s for group in crit.by_index for s in group] == [(1, 1)]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            critical_sets(2, (2, 1), 1)
        with pytest.raises(ValueError):
            critical_sets(2, (2, 2), 0)
        with pytest.raises(ValueError):
            critical_sets(3, (2, 2), 1)


class TestQuotientCounts:
    def test_golden_values(self):
        n, m, k = GOLDEN
        ideal = minimal_generators(n, m, k)
        assert hf_quotient(n, m, k, 2, ideal) == 7
        assert hf_quotient(n, m, k, 4, ideal) == 0

    def test_matches_truncation_on_grid(self):
        for n, m, k in small_grid():
            ideal = minimal_generators(n, m, k)
            series = truncate_lefschetz(hs_complete_intersection(m), k)
            top = sum(mi - 1 for mi in m) + 1
            for d in range(top + 1):
                assert hf_quotient(n, m, k, d, ideal) == hf(series, d), (n, m, k, d)

    @staticmethod
    def random_leads(rng, n):
        """A few random monomials plus a power of each variable, so every
        standard monomial stays within the box below those powers."""
        powers = [rng.randint(1, 4) for _ in range(n)]
        leads = {tuple(p if t == i else 0 for t in range(n)) for i, p in enumerate(powers)}
        for _ in range(rng.randint(0, 5)):
            leads.add(tuple(rng.randint(0, p) for p in powers))
        return powers, leads

    def test_walk_matches_a_scan(self):
        rng = random.Random(31)
        for _ in range(150):
            n = rng.randint(1, 5)
            powers, leads = self.random_leads(rng, n)
            ranking = tuple(rng.sample(range(1, n + 1), n))
            layout = PackedLayout(TermOrder(rng.choice(("grevlex", "grlex")), ranking), 4)
            levels = standard_levels(layout, {layout.pack(u) for u in leads})
            for d in range(sum(powers)):
                level = next(levels)
                want = {
                    u for u in compositions(d, powers)
                    if not any(mono_divides(g, u) for g in leads)
                }
                got = {layout.unpack(key): bits for key, bits in level.items()}
                assert set(got) == want, (leads, d)
                for u, bits in got.items():
                    assert bits == sum(1 << i for i, e in enumerate(u) if e), (u, bits)
            assert next(levels) == {}

    def test_caller_may_grow_the_leads_between_steps(self):
        # deleting a key of the level just yielded, or adding a lead of a
        # later degree, walks on as a fresh walk of the larger set of leads
        rng = random.Random(32)
        for _ in range(100):
            n = rng.randint(1, 5)
            powers, leads = self.random_leads(rng, n)
            layout = PackedLayout(grevlex(n), 4)
            keys = {layout.pack(u) for u in leads}
            levels = standard_levels(layout, keys)
            for d in range(sum(powers) + 1):
                level = next(levels)
                fresh = standard_levels(layout, set(keys))
                for _ in range(d + 1):
                    want = next(fresh)
                assert level == want, (leads, d)
                if level and rng.random() < 0.5:
                    key = rng.choice(sorted(level))
                    del level[key]
                    keys.add(key)
                u = tuple(rng.randint(0, p) for p in powers)
                if sum(u) > d:
                    keys.add(layout.pack(u))

    def test_counts_any_ideal_as_a_scan_does(self):
        # generators that are not m-free count for nothing, and the pure
        # powers bound the walk even for an ideal without them
        rng = random.Random(33)
        for _ in range(100):
            n = rng.randint(1, 4)
            m = tuple(rng.randint(2, 4) for _ in range(n))
            gens = minimalize_monomials(
                tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(0, 4))
            )
            ideal = MonomialIdeal(n, gens)
            counts = hilbert_counts(n, m, ideal)
            assert counts[-1] == 0 and all(counts[:-1])
            for d in range(-1, len(counts) + 2):
                want = sum(1 for s in enumerate_m_free(n, m, max(d, 0)) if not ideal.contains(s))
                assert hf_quotient(n, m, 1, d, ideal) == (want if d >= 0 else 0), (m, gens, d)


class TestStructure:
    def test_strongly_stable_on_grid(self):
        for n, m, k in small_grid():
            assert check_strongly_m_stable(n, m, k), (n, m, k)

    def test_revlex_segment_on_grid(self):
        for n, m, k in small_grid():
            assert check_revlex_segment(n, m, k), (n, m, k)

    def test_revlex_segment_holds_only_above_the_generators(self):
        # check_revlex_segment looks above each m-free generator only; the
        # ideal need not meet a degree's m-free monomials in an initial
        # segment: at m = (3, 3, 2), k = 1, degree 2, x2^2 lies outside while
        # x1*x3, after it in grevlex, lies inside (x1 is a generator)
        n, m, k = 3, (3, 3, 2), 1
        ideal = minimal_generators(n, m, k)
        assert check_revlex_segment(n, m, k, ideal)
        degree_two = enumerate_m_free(n, m, 2)
        assert degree_two == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1)]
        assert [ideal.contains(s) for s in degree_two] == [True, True, False, True, False]
        # equal exponents too: some degree of (4, 4, 4, 4), k = 1 breaks it
        n, m, k = 4, (4, 4, 4, 4), 1
        ideal = minimal_generators(n, m, k)
        assert check_revlex_segment(n, m, k, ideal)
        inside = [
            [ideal.contains(s) for s in enumerate_m_free(n, m, d)]
            for d in range(sum(mi - 1 for mi in m) + 1)
        ]
        assert any(row != sorted(row, reverse=True) for row in inside)

    def test_revlex_segment_detects_violation(self):
        # x2^2 alone is not a revlex segment in two variables: x1x2 and x1^2
        # sit above it at degree 2 but are outside the ideal
        ideal = MonomialIdeal(2, ((0, 2),))
        assert not check_revlex_segment(2, (3, 3), 1, ideal)
        # x1*x2 alone neither: x1^2 lies above it and outside, though x2^2,
        # also outside, lies below it
        ideal = MonomialIdeal(2, ((1, 1),))
        assert not check_revlex_segment(2, (3, 3), 1, ideal)
