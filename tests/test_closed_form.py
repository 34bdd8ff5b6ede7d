"""Closed-form basis elements, certificates, and the ranking census."""

import dataclasses
import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acigb.algebra import (
    QQ,
    SparsePoly,
    binom,
    compositions,
    grevlex,
    multinomial,
    poly_to_text,
)
from acigb import closed_form
from acigb.closed_form import (
    build_certificate,
    build_gs_divisor_form,
    build_gs_tail_form,
    counting_identity,
    distinct_gb_census,
    reduced_gb,
    verify_certificate,
)
from acigb.initial_ideal import critical_sets, minimal_generators

GOLDEN = (4, (3, 2, 2, 3), 2)


def crit_grid():
    for n in range(1, 4):
        for m in itertools.product((2, 3, 4), repeat=n):
            for k in range(1, 5):
                yield n, m, k


class TestDivisorForm:
    def test_golden_long_element(self):
        n, m, k = GOLDEN
        g = build_gs_divisor_form((2, 0, 0, 0), 1, m, k, n)
        assert poly_to_text(g, grevlex(n)) == (
            "x1^2 + 2*x1*x2 + 2*x1*x3 + 2*x2*x3"
            " + 2*x1*x4 + 2*x2*x4 + 2*x3*x4 + x4^2"
        )

    def test_golden_half_coefficient(self):
        n, m, k = GOLDEN
        g = build_gs_divisor_form((1, 1, 1, 0), 3, m, k, n)
        assert g.terms[(1, 0, 0, 2)] == Fraction(1, 2)
        assert poly_to_text(g, grevlex(n)) == (
            "x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + 2*x2*x3*x4"
            " + 1/2*x1*x4^2 + x2*x4^2 + x3*x4^2"
        )

    def test_golden_bare_element(self):
        n, m, k = GOLDEN
        g = build_gs_divisor_form((0, 1, 1, 2), 4, m, k, n)
        assert g.terms == {(0, 1, 1, 2): Fraction(1)}

    def test_leading_term_is_s(self):
        for n, m, k in crit_grid():
            crit = critical_sets(n, m, k)
            order = grevlex(n)
            for j in range(1, n + 1):
                for s in crit.by_index[j - 1]:
                    g = build_gs_divisor_form(s, j, m, k, n)
                    assert g.leading_term(order) == (s, Fraction(1)), (n, m, k, s)

    def test_matches_chained_fraction_formula(self):
        # the element rebuilt term by term as lambda * multinomial(e, comp),
        # lambda = num / e!, summing into each monomial
        def old_form(s, j, m, n):
            d = sum(s)
            caps = [mi - 1 for mi in m[j - 1 :]]
            terms = {}
            for sdd in itertools.product(*(range(si + 1) for si in s[: j - 1])):
                e = d - sum(sdd)
                num = factorial(s[j - 1])
                for i in range(j - 1):
                    num *= (factorial(s[i]) // factorial(sdd[i])) * binom(
                        m[i] - sdd[i] - 1, s[i] - sdd[i]
                    )
                if not num:
                    continue
                lam = Fraction(num, factorial(e))
                for comp in compositions(e, caps):
                    mono = sdd + comp
                    terms[mono] = terms.get(mono, Fraction(0)) + lam * multinomial(
                        e, comp
                    )
            return SparsePoly(n, QQ, terms)

        cases = list(crit_grid())
        cases += [
            (4, m, k)
            for m in itertools.product((2, 3, 4), repeat=4)
            for k in range(1, 5)
        ]
        cases += [(6, (3,) * 6, k) for k in range(1, 4)]
        checked = 0
        for n, m, k in cases:
            crit = critical_sets(n, m, k)
            for j in range(1, n + 1):
                for s in crit.by_index[j - 1]:
                    new = build_gs_divisor_form(s, j, m, k, n)
                    assert new.terms == old_form(s, j, m, n).terms, (n, m, k, s)
                    checked += 1
        assert checked > 1000

    def test_rejects_wrong_index(self):
        n, m, k = GOLDEN
        with pytest.raises(ValueError):
            build_gs_divisor_form((2, 0, 0, 0), 2, m, k, n)

    def test_rejects_non_critical(self):
        n, m, k = GOLDEN
        with pytest.raises(ValueError):
            build_gs_divisor_form((1, 1, 0, 0), 2, m, k, n)


class TestTailForm:
    def test_agrees_with_divisor_form_on_grid(self):
        for n, m, k in crit_grid():
            crit = critical_sets(n, m, k)
            ideal = minimal_generators(n, m, k)
            for j in range(1, n + 1):
                for s in crit.by_index[j - 1]:
                    a = build_gs_divisor_form(s, j, m, k, n)
                    b = build_gs_tail_form(s, j, m, k, n, ideal)
                    assert a == b, (n, m, k, s)

    def test_empty_tail(self):
        n, m, k = GOLDEN
        g = build_gs_tail_form((0, 1, 1, 2), 4, m, k, n)
        assert len(g.terms) == 1

    def test_tails_outside_initial_ideal(self):
        for n, m, k in crit_grid():
            crit = critical_sets(n, m, k)
            ideal = minimal_generators(n, m, k)
            for j in range(1, n + 1):
                for s in crit.by_index[j - 1]:
                    g = build_gs_divisor_form(s, j, m, k, n)
                    for t in g.terms:
                        if t != s:
                            assert not ideal.contains(t), (n, m, k, s, t)


def _prime_factors_bounded(value: int, bound: int) -> bool:
    value = abs(value)
    f = 2
    while f * f <= value:
        while value % f == 0:
            if f > bound:
                return False
            value //= f
        f += 1
    return value == 1 or value <= bound


class TestCoefficientPrimeBound:
    def test_grid(self):
        for n, m, k in crit_grid():
            gb = reduced_gb(n, m, k)
            for g in gb.elements:
                for c in g.terms.values():
                    assert _prime_factors_bounded(c.numerator, max(m))
                    assert _prime_factors_bounded(c.denominator, max(m))


def frame_generators(m, k):
    """(j, s) for every critical monomial s of index j >= 2, cut to the
    frame of its first j variables, where its certificate lives."""
    crit = critical_sets(len(m), m, k)
    for j in range(2, len(m) + 1):
        for s in crit.by_index[j - 1]:
            yield j, s[:j]


class TestCertificate:
    def test_golden_certificate(self):
        n, m, k = GOLDEN
        cert = build_certificate((0, 1, 1, 2), m, k)
        assert cert.u == (2, 0, 0)
        assert verify_certificate(cert, m)

    def test_all_top_variable_generators_on_grid(self):
        for n, m, k in crit_grid():
            crit = critical_sets(n, m, k)
            for s in crit.by_index[n - 1]:
                cert = build_certificate(s, m, k)
                assert verify_certificate(cert, m), (n, m, k, s)

    def test_lower_index_generators_on_grid(self):
        # a generator of index j < n lives in x_1..x_j: its certificate is
        # built in the frame of its first j variables
        for n, m, k in crit_grid():
            crit = critical_sets(n, m, k)
            for j in range(2, n):
                for s in crit.by_index[j - 1]:
                    cert = build_certificate(s[:j], m[:j], k)
                    assert verify_certificate(cert, m[:j]), (n, m, k, j, s)

    def test_every_index_beyond_the_grid(self):
        for m, k in (((3,) * 7, 3), ((4,) * 5, 4), ((2, 3, 4, 5, 6), 3)):
            for j, s in frame_generators(m, k):
                assert verify_certificate(build_certificate(s, m[:j], k), m[:j]), (m, k, s)

    def test_changed_weight_fails(self):
        n, m, k = GOLDEN
        cert = build_certificate((0, 1, 1, 2), m, k)
        for i, (v, mu) in enumerate(cert.mu):
            mu_bad = cert.mu[:i] + ((v, mu + Fraction(1, 7)),) + cert.mu[i + 1 :]
            assert not verify_certificate(dataclasses.replace(cert, mu=mu_bad), m), v

    def test_changed_numerator_fails_every_certificate(self, monkeypatch):
        # the certificate is checked against the numerators the basis is
        # built from, so a wrong one cannot pass unseen
        real = closed_form._divisor_numerators

        def bumped(*args):
            for i, (sdd, t, num) in enumerate(real(*args)):
                yield sdd, t, num + (i == 0)

        m, k = (3,) * 6, 3
        certs = [(build_certificate(s, m[:j], k), m[:j]) for j, s in frame_generators(m, k)]
        assert len(certs) == 26
        assert all(verify_certificate(cert, m_j) for cert, m_j in certs)
        monkeypatch.setattr(closed_form, "_divisor_numerators", bumped)
        assert not any(verify_certificate(cert, m_j) for cert, m_j in certs)

    def test_rejects_power_exceeding_degree(self):
        with pytest.raises(ValueError):
            build_certificate((0, 1, 1, 2), (3, 2, 2, 3), 9)

    def test_rejects_missing_last_variable(self):
        with pytest.raises(ValueError):
            build_certificate((2, 0, 0, 0), (3, 2, 2, 3), 2)


class TestCountingIdentity:
    def test_hand_evaluated_case(self):
        assert counting_identity((2,), (1,), (1,))

    def test_unit_r(self):
        assert counting_identity((2, 1), (0, 3), (0, 0))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_instances(self, data):
        n = data.draw(st.integers(1, 4))
        exps = st.tuples(*[st.integers(0, 4)] * n)
        p = data.draw(exps)
        q = data.draw(exps)
        r = tuple(
            data.draw(st.integers(0, pi + qi), label=f"r{i}")
            for i, (pi, qi) in enumerate(zip(p, q))
        )
        assert counting_identity(p, q, r)

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            counting_identity((1,), (1,), (3,))


class TestReducedBasis:
    def test_golden_basis_text(self):
        n, m, k = GOLDEN
        gb = reduced_gb(n, m, k)
        rendered = [poly_to_text(g, gb.order) for g in gb.elements]
        assert rendered == [
            "x1^2 + 2*x1*x2 + 2*x1*x3 + 2*x2*x3"
            " + 2*x1*x4 + 2*x2*x4 + 2*x3*x4 + x4^2",
            "x2^2",
            "x3^2",
            "x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + 2*x2*x3*x4"
            " + 1/2*x1*x4^2 + x2*x4^2 + x3*x4^2",
            "x4^3",
            "x1*x2*x4^2",
            "x1*x3*x4^2",
            "x2*x3*x4^2",
        ]

    def test_single_variable(self):
        gb = reduced_gb(1, (5,), 2)
        assert [g.terms for g in gb.elements] == [{(2,): Fraction(1)}]

    def test_max_degree_example(self):
        gb = reduced_gb(5, (2, 3, 2, 20, 3), 3)
        assert max(g.degree() for g in gb.elements) == 7
        tall = [g for g in gb.elements if g.degree() == 7]
        assert len(tall) == 1
        assert poly_to_text(tall[0], gb.order) == "x4^7 + 7*x4^6*x5 + 21*x4^5*x5^2"

    def test_order_kind_does_not_matter(self):
        for n, m, k in [(3, (3, 2, 4), 2), (3, (2, 2, 2), 1), GOLDEN[:3]]:
            a = reduced_gb(n, m, k, kind="grevlex")
            b = reduced_gb(n, m, k, kind="grlex")
            assert a.elements == b.elements
            assert a.fingerprint() == b.fingerprint()
        # with four mixed exponents the kinds sort the elements apart, and the
        # marked basis is still the same
        a = reduced_gb(4, (2, 4, 3, 5), 3, kind="grevlex")
        b = reduced_gb(4, (2, 4, 3, 5), 3, kind="grlex")
        assert a.elements != b.elements
        assert a.fingerprint() == b.fingerprint()

    def test_ranking_relabels_variables(self):
        gb = reduced_gb(2, (3, 2), 1, ranking=(2, 1))
        swapped = reduced_gb(2, (2, 3), 1)
        relabeled = {
            frozenset((mo[::-1], c) for mo, c in g.terms.items())
            for g in swapped.elements
        }
        assert {
            frozenset(g.terms.items()) for g in gb.elements
        } == relabeled

    def test_ranking_must_cover_every_variable(self):
        for ranking in [(2, 1, 3), (1,)]:
            with pytest.raises(ValueError, match="ranking"):
                reduced_gb(2, (3, 3), 1, ranking=ranking)

    def test_leading_monomials_match_minimal_generators(self):
        for n, m, k in [(3, (3, 3, 3), 1), GOLDEN[:3], (3, (2, 3, 4), 2)]:
            gb = reduced_gb(n, m, k)
            assert sorted(gb.leads) == sorted(
                minimal_generators(n, m, k).min_gens
            )


class TestCensus:
    def test_mixed_example(self):
        assert distinct_gb_census(3, (2, 3, 4), 2) == 5

    def test_equigenerated_formula_small(self):
        for n in (2, 3):
            for mv in (3, 4):
                for k in range(1, 7):
                    got = distinct_gb_census(n, (mv,) * n, k)
                    want = factorial(n) // factorial(min(k // (mv - 1), n))
                    assert got == want, (n, mv, k)

    def test_socle_collapse_counts_once(self):
        assert distinct_gb_census(2, (3, 3), 6) == 1
