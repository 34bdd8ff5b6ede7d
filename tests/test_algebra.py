"""Unit and property tests for the exact polynomial layer."""

import gc
import itertools
import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acigb.algebra import (
    PRIME_CEILING,
    QQ,
    Field,
    PackedLayout,
    SparsePoly,
    TermOrder,
    binom,
    check_degree_vector,
    clear_denominators,
    compositions,
    enumerate_m_free,
    grevlex,
    grlex,
    is_m_free,
    is_prime,
    lead_table,
    linear_power,
    max_index,
    mono_mul,
    multinomial,
    pack_poly,
    poly_to_json,
    poly_to_text,
    reduce_full,
)

monos3 = st.tuples(*([st.integers(0, 5)] * 3))


def P(n, items, field=QQ):
    return SparsePoly.from_terms(n, items, field)


def sign(order, a, b):
    """-1, 0 or 1 as a comes before, equals or comes after b in the order."""
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


class TestOrders:
    def test_grevlex_known_comparison(self):
        # x1^2 x3^3 versus x1 x2 x3^3 in three variables
        o = grevlex(3)
        assert o.key((2, 0, 3)) > o.key((1, 1, 3))

    def test_grlex_known_comparison(self):
        o = grlex(2)
        assert o.key((0, 3)) < o.key((2, 1))

    def test_degree_dominates(self):
        o = grevlex(2)
        assert o.key((3, 0)) > o.key((1, 1))

    def test_ranking_permutes_variables(self):
        # with x2 ranked highest, x2 beats x1^2 in grlex tie-break? degrees differ;
        # compare x2 vs x1 at equal degree instead
        o = TermOrder("grlex", (2, 1))
        assert o.key((0, 1)) > o.key((1, 0))

    def test_key_matches_permute_then_key(self):
        # the key skips the permutation for the identity ranking; either way
        # it must equal the key taken on the permuted exponents
        def reference(order, mono):
            perm = order.permute(mono)
            if order.kind == "grevlex":
                return (sum(perm), tuple(-e for e in reversed(perm)))
            return (sum(perm), perm)

        monos = list(itertools.product(range(4), repeat=3))
        for kind in ("grevlex", "grlex"):
            for ranking in itertools.permutations((1, 2, 3)):
                o = TermOrder(kind, ranking)
                for mono in monos:
                    assert o.key(mono) == reference(o, mono), (kind, ranking, mono)
                want = sorted(monos, key=lambda mono: reference(o, mono))
                assert sorted(monos, key=o.key) == want

    def test_bad_ranking_rejected(self):
        with pytest.raises(ValueError):
            TermOrder("grevlex", (1, 3))
        with pytest.raises(ValueError):
            TermOrder("lex", (1, 2))

    @given(monos3)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_unit_is_minimal(self, a):
        for o in (grevlex(3), grlex(3), TermOrder("grevlex", (3, 1, 2))):
            if sum(a) > 0:
                assert o.key((0, 0, 0)) < o.key(a)

    @given(monos3, monos3, monos3)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_multiplicative(self, a, b, u):
        for o in (grevlex(3), grlex(3)):
            assert sign(o, mono_mul(a, u), mono_mul(b, u)) == sign(o, a, b)

    @given(
        st.integers(0, 5).flatmap(
            lambda n: st.tuples(
                st.sampled_from(["grevlex", "grlex"]),
                st.permutations(range(1, n + 1)),
                # mixed degrees; the list may repeat a monomial
                st.lists(st.tuples(*([st.integers(0, 4)] * n)), max_size=30),
            )
        )
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_descending_matches_sorted_by_key(self, case):
        kind, ranking, monos = case
        o = TermOrder(kind, tuple(ranking))
        want = sorted(monos, key=o.key, reverse=True)
        assert o.descending(monos) == want
        assert o.descending(set(monos)) == sorted(set(monos), key=o.key, reverse=True)

    def test_descending_in_one_and_no_variables(self):
        for kind in ("grevlex", "grlex"):
            assert TermOrder(kind, (1,)).descending([(1,), (3,), (0,)]) == [(3,), (1,), (0,)]
            assert TermOrder(kind, ()).descending({(): 1}) == [()]
            assert TermOrder(kind, ()).descending([]) == []

    @given(monos3, monos3, monos3)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_total_order_laws(self, a, b, c):
        o = grevlex(3)
        assert sign(o, a, b) == -sign(o, b, a)
        assert (o.key(a) == o.key(b)) == (a == b)
        if sign(o, a, b) <= 0 and sign(o, b, c) <= 0:
            assert sign(o, a, c) <= 0


class TestCheckDegreeVector:
    def test_names_only_the_first_bad_entry(self):
        with pytest.raises(ValueError) as info:
            check_degree_vector((2,) * 10**6 + (0,))
        message = str(info.value)
        assert len(message) < 100, message
        assert "got 0 at position 1000001" in message

    def test_first_of_several_bad_entries(self):
        with pytest.raises(ValueError, match=r"got 1 at position 2$"):
            check_degree_vector((3, 1, 0))
        assert check_degree_vector([2, 5], 2) == (2, 5)


class TestMonoHelpers:
    def test_divides_and_div(self):
        assert mono_divides((1, 0, 2), (2, 0, 2))
        assert not mono_divides((1, 1, 0), (2, 0, 2))
        assert mono_div((2, 0, 2), (1, 0, 2)) == (1, 0, 0)

    def test_max_index(self):
        assert max_index((0, 0, 0)) == 0
        assert max_index((1, 0, 2, 0)) == 3

    def test_is_m_free(self):
        m = (3, 2, 2, 3)
        assert is_m_free((2, 1, 1, 2), m)
        assert not is_m_free((3, 0, 0, 0), m)

    def test_binom_boundaries(self):
        assert binom(5, 2) == 10
        assert binom(2, 5) == 0
        assert binom(-1, 0) == 0
        assert binom(4, -1) == 0

    def test_multinomial(self):
        assert multinomial(4, (2, 1, 1)) == 12
        with pytest.raises(ValueError):
            multinomial(3, (1, 1))

    def test_compositions_count(self):
        assert len(list(compositions(4, (4, 4, 4)))) == binom(6, 2)

    def test_compositions_bounded_in_grevlex_descending_order(self):
        for caps in [(1, 2, 3), (2, 2, 2, 2), (3, 0, 2), (4,), (1, 1)]:
            key = grevlex(len(caps)).key
            for total in range(-1, sum(caps) + 2):
                got = list(compositions(total, caps))
                brute = [
                    c
                    for c in itertools.product(*(range(ci + 1) for ci in caps))
                    if sum(c) == total
                ]
                assert got == sorted(brute, key=key, reverse=True), (caps, total)

    def test_compositions_no_parts(self):
        assert list(compositions(0, ())) == [()]
        assert list(compositions(2, ())) == []

    def test_packed_layout_is_the_term_order(self):
        # random monomials, n <= 7, both kinds, random rankings and several
        # bounds: integer order is the term order, a product is a sum of
        # keys, the code tests divisibility and unpacking inverts packing
        rng = random.Random(20261019)

        def mono(n, degree):
            cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
            return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))

        for trial in range(400):
            n = rng.randint(1, 7)
            kind = ("grevlex", "grlex")[trial % 2]
            order = TermOrder(kind, tuple(rng.sample(range(1, n + 1), n)))
            bound = rng.choice((0, 1, 2, 3, 5, 8, 15, 16, 40))
            layout = PackedLayout(order, bound)
            pack, guard, sign = layout.pack, layout.guard, layout.sign
            monos = {mono(n, rng.randint(0, bound)) for _ in range(12)}
            assert sorted(monos, key=pack) == sorted(monos, key=order.key)
            one = pack((0,) * n)
            for a in monos:
                assert layout.unpack(pack(a)) == a
                for b in monos | {mono_mul(a, mono(n, rng.randint(0, bound - sum(a))))}:
                    divides = (layout.code(pack(a)) - sign * pack(b)) & guard == guard
                    assert divides == mono_divides(a, b), (order, bound, a, b)
                    if sum(a) + sum(b) <= bound:
                        assert pack(mono_mul(a, b)) == pack(a) + pack(b) - one

    def test_enumerate_m_free_is_the_bounded_enumerator(self):
        m = (3, 2, 4)
        for d in range(7):
            assert enumerate_m_free(3, m, d) == list(compositions(d, (2, 1, 3)))
        with pytest.raises(ValueError):
            enumerate_m_free(2, m, 1)

    def test_compositions_leave_no_reference_cycles(self):
        # the enumerators run in every hot loop; garbage that only the cyclic
        # collector frees would pile up between its passes
        gc.collect()
        gc.disable()
        try:
            for _ in range(20):
                list(compositions(5, (3, 3, 3)))
                enumerate_m_free(3, (4, 4, 4), 5)
                next(compositions(4, (2, 2, 2)))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPolyArithmetic:
    def test_linear_power_matches_repeated_mul(self):
        # reference: e passes of multiply-by-ell on a plain dict of integers
        for field in (QQ, Field(5)):
            for n in range(1, 5):
                power = {(0,) * n: 1}
                for e in range(6):
                    want = {mono: v for mono, c in power.items() if (v := field.coerce(c))}
                    assert linear_power(n, e, field).terms == want, (field.p, n, e)
                    step: dict = {}
                    for mono, c in power.items():
                        for i in range(n):
                            t = mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
                            step[t] = step.get(t, 0) + c
                    power = step

    def test_linear_power_drops_vanishing_multinomials(self):
        # over F_2 the cross terms of the square disappear; they must not
        # linger as stored zeros posing as leading terms
        f = linear_power(3, 2, Field(2))
        assert set(f.terms) == {(2, 0, 0), (0, 2, 0), (0, 0, 2)}
        assert all(c == 1 for c in f.terms.values())

    def test_leading_term_revlex(self):
        f = P(5, [((0, 0, 0, 3, 0), 1), ((0, 0, 0, 0, 3), 1)])
        assert f.leading_term(grevlex(5)) == ((0, 0, 0, 3, 0), Fraction(1))

    def test_prime_field_rejects_composite(self):
        with pytest.raises(ValueError):
            Field(6)

    def test_is_prime_matches_trial_division(self):
        def slow(p):
            return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

        assert [p for p in range(-3, 5000) if is_prime(p)] == [
            p for p in range(-3, 5000) if slow(p)
        ]

    def test_is_prime_large(self):
        assert is_prime(1000000000000000003)
        assert is_prime(2**61 - 1)
        # Carmichael numbers and strong pseudoprimes to the first 9 and the
        # first 12 prime bases
        for composite in (561, 41041, 3825123056546413051, 318665857834031151167461):
            assert not is_prime(composite), composite

    @given(st.integers(2, PRIME_CEILING - 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_is_prime_matches_sympy(self, p):
        sympy = pytest.importorskip("sympy")
        assert is_prime(p) == sympy.isprime(p)

    def test_is_prime_refuses_above_ceiling(self):
        with pytest.raises(ValueError, match="too large"):
            is_prime(PRIME_CEILING)
        with pytest.raises(ValueError, match="too large"):
            Field(2**89 - 1)
        # a small factor still decides, however large the number
        assert not is_prime(2 * PRIME_CEILING)

    def test_prime_field_coerces_fraction(self):
        gf = Field(5)
        assert gf.coerce(Fraction(1, 2)) == 3


class TestNormalForms:
    def test_reduce_full_single(self):
        # reduce x1^2 by x1 + x2: remainder x2^2
        layout = PackedLayout(grevlex(2), 2)
        f = P(2, [((2, 0), 1)])
        g = P(2, [((1, 0), 1), ((0, 1), 1)])
        r = reduce_full(pack_poly(f, layout), lead_table([g], layout))
        assert unpacked(r) == {(0, 2): 1}

    def test_reduce_full_idempotent(self):
        layout = PackedLayout(grevlex(3), 3)
        f = linear_power(3, 3)
        basis = [
            P(3, [((2, 0, 0), 1)]),
            P(3, [((1, 0, 0), 1), ((0, 1, 0), 2)]),
        ]
        table = lead_table(basis, layout)
        r = reduce_full(pack_poly(f, layout), table)
        assert reduce_full(r, table).terms == r.terms

    def test_lead_table_stores_primitive_and_monic_multiples(self):
        # entries are (code, key, lc, tail) on packed keys
        layout = PackedLayout(grevlex(2), 1)
        pack, code = layout.pack, layout.code
        x1, x2 = (1, 0), (0, 1)
        f = P(2, [(x1, Fraction(-4, 3)), (x2, 2)])
        assert lead_table([f], layout) == [(code(pack(x1)), pack(x1), 2, ((pack(x2), -3),))]
        g = P(2, [(x1, 2), (x2, 3)], Field(7))
        assert lead_table([g], layout) == [(code(pack(x1)), pack(x1), 1, ((pack(x2), 5),))]

    def test_reduce_full_matches_division_in_the_field(self):
        # denominators in f and in the reducers, non-unit leading
        # coefficients and a zero reducer, in both coefficient fields; up to
        # five variables and forty terms, so the work holds up to 40 keys
        rng = random.Random(12)
        for trial in range(300):
            field = (QQ, Field(7))[trial % 2]
            n = rng.randint(2, 5)
            ranking = tuple(rng.sample(range(1, n + 1), n))
            o = TermOrder(rng.choice(("grevlex", "grlex")), ranking)
            f = random_poly(rng, n, field, rng.randint(1, 40))
            reducers = [
                random_poly(rng, n, field, rng.randint(1, 4)) for _ in range(rng.randint(1, 4))
            ]
            reducers.insert(rng.randint(0, len(reducers)), SparsePoly.zero(n, field))
            x1, x2 = (1,) + (0,) * (n - 1), (0, 1) + (0,) * (n - 2)
            reducers.append(P(n, [(x1, 2), (x2, 3)], field))
            assert_reduces_as_division(f, reducers, o)

    def test_reduce_full_term_that_cancels_and_comes_back(self):
        # x^2 > xy > y^2 > xz > yz in grevlex.  Reducing x^2 by x^2 + yz
        # cancels yz; xy and y^2 go to the remainder; reducing xz by
        # 2 xz + 3 yz brings yz back, and over Q first scales the work and
        # the remainder by 2.  The normal form is xy + y^2 - 3/2 yz.
        o = grevlex(3)
        x2, xy, y2, xz, yz = (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1)
        for field, want in ((QQ, {xy: 2, y2: 2, yz: -3}), (Field(7), {xy: 1, y2: 1, yz: 2})):
            f = P(3, [(x2, 1), (xy, 1), (y2, 1), (xz, 1), (yz, 1)], field)
            reducers = [P(3, [(x2, 1), (yz, 1)], field), P(3, [(xz, 2), (yz, 3)], field)]
            layout = PackedLayout(o, 2)
            got = reduce_full(pack_poly(f, layout), lead_table(reducers, layout))
            assert unpacked(got) == want
            assert_reduces_as_division(f, reducers, o)

    def test_clear_denominators(self):
        f = P(2, [((1, 0), Fraction(1, 2)), ((0, 1), Fraction(1, 3))])
        g = clear_denominators(f)
        assert g.terms == {(1, 0): Fraction(3), (0, 1): Fraction(2)}

    def test_clear_denominators_sign_and_content(self):
        f = P(2, [((1, 0), Fraction(-4)), ((0, 1), Fraction(-6))])
        g = clear_denominators(f)
        assert g.terms == {(1, 0): Fraction(2), (0, 1): Fraction(3)}


def assert_reduces_as_division(f, reducers, o):
    """``reduce_full`` gives ``reference_reduce_full``'s normal form: over F_p
    exactly, over Q a positive integer multiple of it in ints."""
    want = reference_reduce_full(f, reducers, o).terms
    layout = PackedLayout(o, max(g.degree() for g in [f] + reducers))
    got = unpacked(reduce_full(pack_poly(f, layout), lead_table(reducers, layout)))
    if f.field.p is None:
        assert got.keys() == want.keys(), (f, reducers, o)
        scales = {c / want[mono] for mono, c in got.items()}
        assert len(scales) <= 1, (f, reducers, o)
        assert all(s > 0 and s.denominator == 1 for s in scales), (f, reducers, o)
        assert all(type(c) is int for c in got.values())
    else:
        assert got == want, (f, reducers, o)


def random_poly(rng, n, field, count):
    """count random terms with exponents at most 2 and coefficients p/q,
    |p| <= 9 and 1 <= q <= 6, merged in the field."""
    items = [
        (
            tuple(rng.randint(0, 2) for _ in range(n)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
        )
        for _ in range(count)
    ]
    return P(n, items, field)


def unpacked(r):
    """The terms of a packed polynomial, on exponent tuples."""
    return {r.layout.unpack(k): c for k, c in r.terms.items()}


def mono_divides(a, b):
    """Whether the monomial a divides b, by plain exponent comparison."""
    return all(map(operator.le, a, b))


def mono_div(a, b):
    """a / b, assuming b divides a: the reference's quotient monomial."""
    return tuple(x - y for x, y in zip(a, b))


def reference_reduce_full(f, reducers, order):
    """The normal form by division in the field: each step cancels the
    leading term c of the work by c / lc times the first reducer whose
    leading monomial, with coefficient lc, divides it."""
    field = f.field
    table = []
    for g in reducers:
        lt = g.leading_term(order)
        if lt is not None:
            inv = 1 / lt[1] if field.p is None else pow(lt[1], -1, field.p)
            table.append((lt[0], inv, g))
    work = dict(f.terms)
    remainder = {}
    while work:
        mono = max(work, key=order.key)
        c = work.pop(mono)
        for lm, inv, g in table:
            if mono_divides(lm, mono):
                break
        else:
            remainder[mono] = c
            continue
        q = mono_div(mono, lm)
        factor = field.norm(c * inv)
        for gm, gc in g.terms.items():
            if gm == lm:
                continue
            t = mono_mul(q, gm)
            acc = field.norm(work.get(t, 0) - factor * gc)
            if acc:
                work[t] = acc
            else:
                work.pop(t, None)
    return SparsePoly(f.n, field, remainder)


def coeff_from_str(s: str, field: Field):
    return field.coerce(Fraction(s))


def poly_from_json(data: dict, field: Field = QQ) -> SparsePoly:
    """Inverse of ``poly_to_json`` after ``json.loads``, the reference its
    round trips check."""
    n = data["n"]
    return SparsePoly.from_terms(
        n,
        [(tuple(t["exps"]), coeff_from_str(t["coeff"], field)) for t in data["terms"]],
        field,
    )


class TestSerialization:
    def test_text_format(self):
        f = P(4, [((1, 0, 0, 2), Fraction(1, 2)), ((1, 1, 1, 0), 1)])
        assert poly_to_text(f, grevlex(4)) == "x1*x2*x3 + 1/2*x1*x4^2"

    def test_text_negative(self):
        f = P(2, [((1, 0), -1), ((0, 0), Fraction(-1, 3))])
        assert poly_to_text(f, grevlex(2)) == "-x1 - 1/3"

    def test_zero_text(self):
        assert poly_to_text(SparsePoly.zero(2), grevlex(2)) == "0"

    def test_json_round_trip(self):
        f = P(3, [((1, 0, 2), Fraction(7, 3)), ((0, 1, 0), -2)])
        data = json.loads(poly_to_json(f, grevlex(3), ""))
        assert data["terms"][0]["coeff"] in ("7/3", "-2")
        g = poly_from_json(data)
        assert g == f

    @given(st.lists(st.tuples(monos3, st.fractions(max_denominator=9)), max_size=5))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_json_round_trip_random(self, items):
        f = P(3, items)
        assert poly_from_json(json.loads(poly_to_json(f, grevlex(3), ""))) == f

    @given(
        st.integers(0, 4).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.tuples(*([st.integers(0, 12)] * n)),
                        st.one_of(
                            st.integers(-10**30, 10**30),
                            st.fractions(max_denominator=10**12),
                        ),
                    ),
                    max_size=6,
                ),
                st.sampled_from(["grevlex", "grlex"]),
                st.permutations(range(1, n + 1)),
            )
        ),
        st.sampled_from(["", "  ", "    "]),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_json_text_is_the_stdlib_layout(self, reference_tree, case, indent):
        # negative and fractional coefficients, zero exponents, n from 0 up
        n, items, kind, ranking = case
        order = TermOrder(kind, tuple(ranking))
        f = P(n, items)
        expected = json.dumps(reference_tree(f, order), indent=2)
        assert poly_to_json(f, order, indent) == expected.replace("\n", "\n" + indent)

    @given(
        st.integers(0, 4).flatmap(
            lambda n: st.tuples(
                st.just(n),
                # small exponents of mixed degrees: the polynomials share
                # monomials, and one list holds several degrees
                st.lists(
                    st.lists(
                        st.tuples(
                            st.tuples(*([st.integers(0, 3)] * n)),
                            st.one_of(
                                st.integers(-10**6, 10**6),
                                st.fractions(max_denominator=50),
                            ),
                        ),
                        max_size=8,
                    ),
                    max_size=6,
                ),
                st.sampled_from(["grevlex", "grlex"]),
                st.permutations(range(1, n + 1)),
            )
        ),
        st.sampled_from(["", "  ", "    "]),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_shared_monomial_texts_change_nothing(self, case, indent):
        # writing a list through one texts dict, as gb does within a degree,
        # gives the text of a fresh call per polynomial
        n, polys, kind, ranking = case
        order = TermOrder(kind, tuple(ranking))
        fs = [P(n, items) for items in polys]
        as_json, as_text = {}, {}
        assert [poly_to_json(f, order, indent, as_json) for f in fs] == [
            poly_to_json(f, order, indent) for f in fs
        ]
        assert [poly_to_text(f, order, as_text) for f in fs] == [
            poly_to_text(f, order) for f in fs
        ]
        monos = {m for f in fs for m in f.terms}
        assert set(as_json) == set(as_text) == monos
