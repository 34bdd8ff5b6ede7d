"""Characteristic-p Lefschetz decisions and their three routes."""

import itertools

import pytest

from acigb import wlp as wlp_module
from acigb.algebra import clear_denominators, grevlex, grlex
from acigb.cli import main
from acigb.closed_form import reduced_gb
from acigb.hilbert import hf, hs_complete_intersection
from acigb.initial_ideal import minimal_generators
from acigb.oracle import OracleConfig, initial_ideal_oracle, multiplication_rank
from acigb.wlp import (
    RouteFinding,
    gb_mod_p_check,
    wlp_decide,
    wlp_threshold_equigenerated,
)

PRIMES = (2, 3, 5, 7, 11, 13)

# smallest member of the mixed family where the property survives a
# change of initial ideal
MIXED = (2, 2, 2, 4, 5)

CHECK_GRID = [
    (2, (2, 3), 1),
    (2, (3, 3), 2),
    (3, (2, 2, 3), 1),
    (3, (3, 3, 3), 1),
    (3, (2, 3, 4), 2),
    (4, (2, 2, 2, 2), 1),
    (4, (3, 2, 2, 3), 2),
]


# (n, m, p) of the wlp jobs the benchmark's wlp-modp workload runs
WLP_MODP_SHAPES = [
    (5, MIXED, 3),
    (5, MIXED, 7),
    (6, (3,) * 6, 5),
    (6, (3,) * 6, 7),
    (7, (2,) * 7, 5),
    (7, (2,) * 7, 3),
    (5, (4,) * 5, 7),
    (5, (4,) * 5, 11),
    (6, (2, 3, 3, 3, 4, 4), 5),
    (7, (3,) * 7, 5),
]


def modular_initial_ideal(n, m, k, p):
    return initial_ideal_oracle(n, m, k, OracleConfig(grevlex(n), p))


class TestThreshold:
    def test_values(self):
        assert wlp_threshold_equigenerated(5, 2) == 3
        assert wlp_threshold_equigenerated(5, 3) == 5
        assert wlp_threshold_equigenerated(6, 2) == 3
        assert wlp_threshold_equigenerated(7, 2) == 4

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            wlp_threshold_equigenerated(4, 2)

    def test_unit_exponent_rejected(self):
        with pytest.raises(ValueError):
            wlp_threshold_equigenerated(5, 1)


class TestClearedBasis:
    def test_rescales_without_changing_support(self):
        basis = reduced_gb(4, (3, 2, 2, 3), 2)
        for g in basis.elements:
            cleared = clear_denominators(g)
            assert set(cleared.terms) == set(g.terms)
            nums = [c.numerator for c in cleared.terms.values()]
            assert all(c.denominator == 1 for c in cleared.terms.values())
            from math import gcd

            assert gcd(*nums) == 1
            # proportional to the original: equal cross products
            monos = sorted(g.terms)
            first = monos[0]
            for mono in monos[1:]:
                assert (
                    cleared.terms[first] * g.terms[mono]
                    == cleared.terms[mono] * g.terms[first]
                )

    def test_mixed_family_element(self):
        # the basis element with leading monomial x3*x4^2 clears to
        # 3*x3*(x4+x5)^2 + (x4+x5)^3
        basis = reduced_gb(5, MIXED, 1)
        target = (0, 0, 1, 2, 0)
        (g,) = [
            g for g in basis.elements if g.leading_term(basis.order)[0] == target
        ]
        cleared = clear_denominators(g)
        assert {mono: int(c) for mono, c in cleared.terms.items()} == {
            (0, 0, 1, 2, 0): 3,
            (0, 0, 1, 1, 1): 6,
            (0, 0, 1, 0, 2): 3,
            (0, 0, 0, 3, 0): 1,
            (0, 0, 0, 2, 1): 3,
            (0, 0, 0, 1, 2): 3,
            (0, 0, 0, 0, 3): 1,
        }


class TestGbModPCheck:
    def test_five_squares(self):
        assert gb_mod_p_check(5, (2,) * 5, 1, 5)

    def test_mixed_family_leading_coefficient_three(self):
        assert not gb_mod_p_check(5, MIXED, 1, 3)
        assert gb_mod_p_check(5, MIXED, 1, 7)

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            gb_mod_p_check(2, (2, 2), 1, 6)
        with pytest.raises(ValueError):
            gb_mod_p_check(2, (2, 2), 1, 1)

    def test_unit_leads_do_not_force_equality(self):
        # every cleared coefficient of the five-squares basis is a unit
        # mod 2 and mod 3, yet the modular initial ideals still differ:
        # some membership certificates divide by small primes the basis
        # coefficients never display, so the certificate stays blind
        n, m, k = 5, (2,) * 5, 1
        rational = set(minimal_generators(n, m, k).min_gens)
        for p in (2, 3):
            assert gb_mod_p_check(n, m, k, p)
            modular = set(modular_initial_ideal(n, m, k, p).min_gens)
            assert modular != rational, p

    def test_certificate_boundary_on_grid(self):
        # the certificate is one-sided and its blind spots are stable;
        # on this grid the pass-but-different instances are exactly these
        blind = {
            (2, (3, 3), 2, 3),
            (3, (3, 3, 3), 1, 3),
            (4, (2, 2, 2, 2), 1, 2),
            (4, (3, 2, 2, 3), 2, 3),
        }
        seen = set()
        passed_and_equal = 0
        for n, m, k in CHECK_GRID:
            rational = set(minimal_generators(n, m, k).min_gens)
            for p in (2, 3, 5, 7):
                if not gb_mod_p_check(n, m, k, p):
                    continue
                modular = set(modular_initial_ideal(n, m, k, p).min_gens)
                if modular == rational:
                    passed_and_equal += 1
                else:
                    seen.add((n, m, k, p))
        assert seen == blind
        assert passed_and_equal > 10

    def test_passes_above_largest_exponent(self):
        small = (2, 3, 5, 7, 11, 13, 17, 19, 23)
        for n, m, k in CHECK_GRID:
            for p in [q for q in small if q > max(m)][:2]:
                assert gb_mod_p_check(n, m, k, p), (n, m, k, p)

    def test_coefficient_primes_at_most_largest_exponent(self):
        for n, m, k in CHECK_GRID:
            basis = reduced_gb(n, m, k)
            for g in basis.elements:
                for c in clear_denominators(g).terms.values():
                    v = abs(c.numerator)
                    for q in range(2, max(m) + 1):
                        while v % q == 0:
                            v //= q
                    assert v == 1, (n, m, k)


def rank_census():
    for n in range(1, 5):
        for m in itertools.combinations_with_replacement((2, 3, 4), n):
            yield n, m
    yield len(MIXED), MIXED


class TestModularInitialIdeal:
    def test_generated_at_most_one_above_the_socle_degree(self):
        # every monomial of degree top + 1 has some exponent x_i^{m_i}, so
        # the ideal holds the whole degree and no minimal generator lies above
        cases = [(n, m, k, p) for n, m, k in CHECK_GRID for p in (2, 3, 5, 7)]
        cases += [(n, m, 1, p) for n, m, p in WLP_MODP_SHAPES]
        for n, m, k, p in cases:
            top = sum(mi - 1 for mi in m)
            gens = modular_initial_ideal(n, m, k, p).min_gens
            assert max(sum(g) for g in gens) <= top + 1, (n, m, k, p)

    def test_generators_form_an_antichain(self, assert_antichain):
        # MonomialIdeal takes its generators unchecked, so only the oracle's
        # _interreduce makes these minimal; the cases are the pinned ones
        # whose modular ideal differs from the rational one
        differ = [
            (5, MIXED, 1, 3),
            (5, (2,) * 5, 1, 2),
            (5, (2,) * 5, 1, 3),
            (2, (3, 3), 2, 3),
            (3, (3, 3, 3), 1, 3),
            (4, (2, 2, 2, 2), 1, 2),
            (4, (3, 2, 2, 3), 2, 3),
        ]
        for n, m, k, p in differ:
            gens = modular_initial_ideal(n, m, k, p).min_gens
            assert set(gens) != set(minimal_generators(n, m, k).min_gens)
            assert_antichain(gens, (n, m, k, p))
        # and over Q, once per graded order
        for order in (grevlex(4), grlex(4)):
            gens = initial_ideal_oracle(4, (3, 2, 2, 3), 2, OracleConfig(order)).min_gens
            assert_antichain(gens, order)


class TestRankScan:
    def test_lower_half_scan_matches_full_scan(self):
        # the rank route scans only d < (top + 1) / 2, trusting that xl
        # from d and from top - 1 - d are transposes of each other
        for n, m in rank_census():
            top = sum(mi - 1 for mi in m)
            series = hs_complete_intersection(m)
            for p in (2, 3, 5, 7):
                ranks = [multiplication_rank(n, m, p, d) for d in range(top)]
                assert ranks == ranks[::-1], (m, p)
                expected = [min(hf(series, d), hf(series, d + 1)) for d in range(top)]
                deficient = [
                    (d, got, want)
                    for d, (got, want) in enumerate(zip(ranks, expected))
                    if got != want
                ]
                finding = wlp_module._run_rank(n, m, p)
                assert finding.holds == (not deficient), (m, p)
                assert finding.witness == (deficient[0] if deficient else None), (m, p)


class TestWlpDecide:
    def test_five_squares_good_prime(self):
        verdict = wlp_decide(5, 2, 5)
        assert verdict.has_wlp
        assert verdict.route == "rank-oracle"
        assert verdict.witness is None
        assert verdict.explanation is None
        assert len(verdict.findings) == 3
        assert all(f.holds for f in verdict.findings)
        by_route = {f.route: f for f in verdict.findings}
        assert by_route["threshold"].witness == (3,)

    def test_five_squares_bad_prime(self):
        verdict = wlp_decide(5, 2, 2)
        assert not verdict.has_wlp
        assert verdict.route == "rank-oracle"
        assert verdict.witness == (1, 4, 5)
        assert not any(f.holds for f in verdict.findings)

    def test_equigenerated_routes_agree_on_prime_grid(self):
        for m in (2, 3):
            bound = wlp_threshold_equigenerated(5, m)
            for p in PRIMES:
                verdict = wlp_decide(5, m, p)
                assert verdict.has_wlp == (p > bound), (m, p)
                assert len({f.holds for f in verdict.findings}) == 1, (m, p)

    def test_mixed_family_keeps_property_but_changes_ideal(self):
        verdict = wlp_decide(5, MIXED, 3)
        assert verdict.has_wlp
        assert verdict.route == "rank-oracle"
        assert verdict.explanation is not None
        by_route = {f.route: f for f in verdict.findings}
        assert by_route["rank-oracle"].holds
        ideal = by_route["initial-ideal"]
        assert not ideal.holds
        only_rational, only_modular = ideal.witness
        assert (0, 0, 1, 2, 0) in only_rational
        assert (0, 0, 0, 3, 0) in only_modular

    def test_mixed_family_good_prime(self):
        verdict = wlp_decide(5, MIXED, 7)
        assert verdict.has_wlp
        assert verdict.explanation is None
        assert all(f.holds for f in verdict.findings)

    def test_small_n_defaults_to_rank_scan(self):
        verdict = wlp_decide(4, 2, 3)
        assert verdict.has_wlp
        assert [f.route for f in verdict.findings] == ["rank-oracle"]
        verdict = wlp_decide(4, 2, 2)
        assert not verdict.has_wlp
        assert verdict.witness == (1, 3, 4)

    def test_threshold_route_needs_regime(self):
        with pytest.raises(ValueError):
            wlp_decide(4, 2, 7, routes=("threshold",))
        with pytest.raises(ValueError):
            wlp_decide(5, MIXED, 3, routes=["threshold"])

    def test_route_aliases_and_deduplication(self):
        verdict = wlp_decide(5, 2, 5, routes=("rank", "initideal"))
        assert {f.route for f in verdict.findings} == {
            "rank-oracle",
            "initial-ideal",
        }
        verdict = wlp_decide(5, 2, 5, routes=("rank", "rank-oracle"))
        assert len(verdict.findings) == 1

    def test_bad_route_selection(self):
        with pytest.raises(ValueError):
            wlp_decide(5, 2, 5, routes=("bogus",))
        with pytest.raises(ValueError):
            wlp_decide(5, 2, 5, routes=())

    def test_ideal_route_alone_cannot_refute_mixed(self):
        with pytest.raises(ValueError, match="rank"):
            wlp_decide(5, MIXED, 3, routes=("initideal",))

    def test_ideal_route_alone_confirms_when_equal(self):
        verdict = wlp_decide(5, MIXED, 7, routes=("initideal",))
        assert verdict.has_wlp
        assert verdict.route == "initial-ideal"
        assert verdict.witness is None

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wlp_decide(5, 2, 4)
        with pytest.raises(ValueError):
            wlp_decide(3, (2, 2), 5)

    def test_no_variables_refused_naming_the_flags(self, capsys):
        # refused up front: the initial-ideal route would fail inside
        # linear_power with a message that names no flag
        with pytest.raises(ValueError, match="--n or --m"):
            wlp_decide(0, (), 5)
        for argv in (["--m", "eq:3:0"], ["--n", "0", "--m", "3"]):
            assert main(["wlp", *argv, "--p", "5"]) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: wlp needs at least one variable, got n=0 (--n or --m)\n"
            )

    def test_disagreement_aborts(self, monkeypatch):
        monkeypatch.setitem(
            wlp_module._RUNNERS,
            "initial-ideal",
            lambda n, m, p: RouteFinding("initial-ideal", True, None),
        )
        with pytest.raises(RuntimeError, match="disagree"):
            wlp_decide(5, 2, 2)
