"""Buchberger oracle and modular rank tests."""

import heapq
import itertools
import math
import operator
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from acigb.algebra import (
    QQ,
    Field,
    PackedLayout,
    SparsePoly,
    TermOrder,
    compositions,
    enumerate_m_free,
    grevlex,
    grlex,
    lead_entry,
    lead_table,
    linear_power,
    mono_mul,
    pack_poly,
    poly_to_text,
    reduce_full,
)
from acigb import algebra, oracle
from acigb.cli import main, verify_all
from acigb.closed_form import (
    GroebnerBasis,
    build_certificate,
    reduced_gb,
    sort_elements,
    verify_certificate,
)
from acigb.hilbert import hf, hs_complete_intersection, truncate_lefschetz
from acigb.initial_ideal import (
    critical_sets,
    hf_quotient,
    hilbert_counts,
    minimal_generators,
)
from acigb.oracle import (
    OracleConfig,
    buchberger,
    gaussian_rank,
    initial_ideal_oracle,
    multiplication_rank,
    oracle_reduced_gb,
    power_sum_generators,
    spoly,
)
from acigb.wlp import wlp_decide

GOLDEN = (4, (3, 2, 2, 3), 2)


def small_grid(k_max=3):
    for n in range(1, 4):
        for m in itertools.product((2, 3, 4), repeat=n):
            for k in range(1, k_max + 1):
                yield n, m, k


def mono_divides(a, b):
    """Whether the monomial a divides b, by plain exponent comparison."""
    return all(map(operator.le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def verify_is_gb(candidate, gens: list, cfg: OracleConfig) -> bool:
    """Buchberger criterion plus two-sided ideal containment.

    True iff every S-polynomial of the candidate reduces to zero against it,
    every original generator reduces to zero, and each candidate element
    reduces to zero against an independently computed basis of (gens).
    """
    order, field = cfg.order, cfg.field
    elements = list(getattr(candidate, "elements", candidate))
    if not elements:
        return all(g.is_zero() for g in gens)
    # an S-polynomial lies in degree at most twice the candidate's degree
    top = max(g.degree() for g in elements + gens)
    layout = PackedLayout(order, 2 * max(top, 0))
    table = lead_table(elements, layout)
    leads = [layout.unpack(entry[1]) for entry in table]
    for (a, la), (b, lb) in itertools.combinations(zip(table, leads), 2):
        s = spoly(a, b, layout.pack(mono_lcm(la, lb)), layout, field)
        if not reduce_full(s, table).is_zero():
            return False
    for g in gens:
        if not reduce_full(pack_poly(g, layout), table).is_zero():
            return False
    reference = [g for _, g in buchberger(gens, cfg)]
    layout = PackedLayout(order, max([top, 0] + [g.degree() for g in reference]))
    table = lead_table(reference, layout)
    return all(reduce_full(pack_poly(f, layout), table).is_zero() for f in elements)


class TestBuchberger:
    def test_golden_matches_closed_form(self):
        n, m, k = GOLDEN
        assert oracle_reduced_gb(n, m, k).elements == reduced_gb(n, m, k).elements

    def test_single_generator_is_its_own_basis(self):
        x1 = SparsePoly.monomial(2, (1, 0))
        cfg = OracleConfig(order=grevlex(2))
        basis = buchberger([x1], cfg)
        assert basis == (((1, 0), x1),)

    def test_squarefree_three_variables(self):
        got = oracle_reduced_gb(3, (2, 2, 2), 1)
        assert got.elements == reduced_gb(3, (2, 2, 2), 1).elements

    def test_single_variable_truncates_power(self):
        gb = oracle_reduced_gb(1, (5,), 2)
        assert [poly_to_text(g) for g in gb.elements] == ["x1^2"]
        gb = oracle_reduced_gb(1, (3,), 7)
        assert [poly_to_text(g) for g in gb.elements] == ["x1^3"]

    def test_grid_agrees_with_closed_form(self):
        for n, m, k in small_grid():
            for order in (grevlex(n), grlex(n)):
                cfg = OracleConfig(order=order)
                got = oracle_reduced_gb(n, m, k, cfg)
                want = reduced_gb(n, m, k, kind=order.kind)
                assert got.elements == want.elements, (n, m, k, order.kind)

    def test_beyond_the_grid_agrees_with_closed_form(self):
        # five to seven variables, equal and mixed exponents: cases where
        # the pair loop runs hundreds of S-pairs, out of the grid's reach
        cases = [(5, (4,) * 5, 4), (5, (5,) * 5, 5), (7, (3,) * 7, 3)]
        cases += [(5, (2, 3, 4, 5, 6), k) for k in range(1, 16)]
        for n, m, k in cases:
            got = oracle_reduced_gb(n, m, k).fingerprint()
            assert got == reduced_gb(n, m, k).fingerprint(), (n, m, k)

    def test_inhomogeneous_generator_is_its_own_basis(self):
        gens = [SparsePoly.from_terms(2, [((2, 0), 1), ((0, 1), 1)])]
        basis = buchberger(gens, OracleConfig(order=grevlex(2)))
        assert basis == (((2, 0), gens[0]),)

    def test_generator_order_does_not_matter(self):
        # the pair heap breaks lcm ties by index, so permuting the input
        # changes which pairs run first but never the reduced basis
        for n, m, k, order in (
            (3, (3, 2, 4), 2, grevlex(3)),
            (3, (4, 4, 3), 3, grlex(3)),
            (4, (2, 3, 2, 3), 2, TermOrder("grevlex", (3, 1, 4, 2))),
        ):
            cfg = OracleConfig(order=order)
            gens = power_sum_generators(n, m, k)
            # (x2 + ... + xn)^2
            tail = linear_power(n - 1, 2).terms.items()
            gens.append(SparsePoly(n, QQ, {(0,) + t: c for t, c in tail}))
            want = set(buchberger(gens, cfg))
            for shift in range(1, len(gens)):
                rotated = gens[shift:] + gens[:shift]
                for reordered in (rotated, rotated[::-1]):
                    assert set(buchberger(reordered, cfg)) == want, (n, m, k)

    def test_narrowest_start_restarts_to_the_same_basis(self, monkeypatch):
        # a layout that only just holds the generators cannot hold their
        # lcms, so the run restarts on a wider one; the basis must not change
        cases = [
            (GOLDEN, grevlex(4)),
            ((3, (4, 3, 2), 3), TermOrder("grlex", (2, 3, 1))),
        ]
        real = oracle.PackedLayout
        for (n, m, k), order in cases:
            for p in (None, 7):
                cfg = OracleConfig(order=order, p=p)
                gens = power_sum_generators(n, m, k, cfg.field)
                want = buchberger(gens, cfg)
                bounds = []
                with monkeypatch.context() as patch:
                    patch.setattr(
                        oracle, "_start_bound", lambda gens: max(g.degree() for g in gens)
                    )
                    patch.setattr(
                        oracle, "PackedLayout", lambda o, b: bounds.append(b) or real(o, b)
                    )
                    assert buchberger(gens, cfg) == want, (n, m, k, p)
                assert bounds[0] == max(m + (k,)) and len(bounds) > 1, bounds

    def test_modular_basis_verifies(self):
        cfg = OracleConfig(order=grevlex(3), p=7)
        gens = power_sum_generators(3, (3, 2, 3), 2, cfg.field)
        basis = [g for _, g in buchberger(gens, cfg)]
        assert verify_is_gb(basis, gens, cfg)

    def test_char_two_initial_ideal_matches_rational_here(self):
        # p = 2 sits below the good-prime threshold for (3,(3,3,3),1), yet
        # the initial ideal happens to coincide with the rational one.
        cfg = OracleConfig(order=grevlex(3), p=2)
        got = initial_ideal_oracle(3, (3, 3, 3), 1, cfg)
        assert set(got.min_gens) == set(minimal_generators(3, (3, 3, 3), 1).min_gens)

    def test_collapsing_power_coefficients(self):
        # over F_2 the square of the sum keeps only the pure squares; the
        # vanished cross terms must not be mistaken for leading terms
        cfg = OracleConfig(order=grevlex(3), p=2)
        gens = power_sum_generators(3, (2, 3, 4), 2, cfg.field)
        basis = [g for _, g in buchberger(gens, cfg)]
        assert verify_is_gb(basis, gens, cfg)
        lms = {g.leading_term(cfg.order)[0] for g in basis}
        assert (0, 2, 0) in lms


class TestStoredLeads:
    def test_both_engines_store_each_leading_monomial(self):
        # verify compares marked bases, so the stored leads must be what the
        # order itself picks from every element
        for n, m, k in small_grid():
            reverse = tuple(range(n, 0, -1))
            for kind, ranking in itertools.product(
                ("grevlex", "grlex"), (tuple(range(1, n + 1)), reverse)
            ):
                order = TermOrder(kind, ranking)
                for basis in (
                    reduced_gb(n, m, k, ranking=ranking, kind=kind),
                    oracle_reduced_gb(n, m, k, OracleConfig(order)),
                ):
                    want = tuple(g.leading_term(order)[0] for g in basis.elements)
                    assert basis.leads == want, (n, m, k, order)


def sympy_basis(sympy, gens, xs, order, p=None):
    """sympy's monic reduced basis as a set of term sets, each a frozenset
    of (monomial, coefficient) pairs, coefficients as Fractions over Q and
    as residues mod p."""
    field = {"domain": "QQ"} if p is None else {"modulus": p}
    ref = sympy.groebner(gens, *xs, order=order.kind, **field)
    coerce = (lambda c: Fraction(int(c.p), int(c.q))) if p is None else (lambda c: int(c) % p)
    return {frozenset((mono, coerce(c)) for mono, c in g.terms()) for g in ref.polys}


class TestThirdEngine:
    """Both engines against sympy, which shares no arithmetic with acigb."""

    def check_grid_case(self, sympy, n, m, k):
        xs = sympy.symbols(f"x1:{n + 1}")
        gens = [x**e for x, e in zip(xs, m)] + [sum(xs) ** k]
        for order in (grevlex(n), grlex(n)):
            want = sympy_basis(sympy, gens, xs, order)
            cfg = OracleConfig(order=order)
            for basis in (
                reduced_gb(n, m, k, kind=order.kind),
                oracle_reduced_gb(n, m, k, cfg),
            ):
                got = {frozenset(g.terms.items()) for g in basis.elements}
                assert got == want, (n, m, k, order.kind)

    def test_full_bases_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        for n, m, k in small_grid(k_max=4):
            self.check_grid_case(sympy, n, m, k)

    def test_four_variable_sample_matches_sympy(self):
        # 40 of the 324 cases of the n = 4 grid (m_i in {2, 3, 4}, k <= 4)
        sympy = pytest.importorskip("sympy")
        grid = [
            (4, m, k) for m in itertools.product((2, 3, 4), repeat=4) for k in range(1, 5)
        ]
        assert len(grid) == 324
        for n, m, k in random.Random(4).sample(grid, 40):
            self.check_grid_case(sympy, n, m, k)


def random_system(rng, homogeneous, coeffs=(-3, -2, -1, 1, 2, 3)):
    """2 to 4 nonzero generators in 2 or 3 variables, each of degree 2 or 3
    with up to three terms and coefficients drawn from coeffs."""
    n = rng.randint(2, 3)
    count, gens = rng.randint(2, 4), []
    while len(gens) < count:
        d = rng.randint(2, 3)
        monos = [
            mono
            for mono in itertools.product(range(d + 1), repeat=n)
            if sum(mono) == d or (not homogeneous and sum(mono) < d)
        ]
        terms = [(rng.choice(monos), rng.choice(coeffs)) for _ in range(3)]
        g = SparsePoly.from_terms(n, terms[: rng.randint(1, 3)])
        if not g.is_zero():
            gens.append(g)
    return n, gens


class TestPairPruning:
    """The pair criteria on random small systems, not just the power sums:
    the reduced basis is unique, so a pruned pair that was needed shows as a
    difference from sympy."""

    def systems(self):
        rng = random.Random(10)
        return [random_system(rng, homogeneous=t % 2 == 0) for t in range(60)]

    def test_random_systems_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        for n, gens in self.systems():
            xs = sympy.symbols(f"x1:{n + 1}")
            exprs = [
                sum(int(c) * sympy.prod(x**e for x, e in zip(xs, mono)) for mono, c in terms)
                for terms in (g.terms.items() for g in gens)
            ]
            for p, order in itertools.product((None, 7), (grevlex(n), grlex(n))):
                cfg = OracleConfig(order=order, p=p)
                own = [SparsePoly.from_terms(n, g.terms.items(), cfg.field) for g in gens]
                got = {frozenset(g.terms.items()) for _, g in buchberger(own, cfg)}
                assert got == sympy_basis(sympy, exprs, xs, order, p), (gens, p, order.kind)

    def test_large_coefficients_match_sympy(self):
        # leading coefficients up to 10^6 in size: the fraction-free
        # reduction scales by them instead of dividing
        sympy = pytest.importorskip("sympy")
        rng = random.Random(12)
        big = range(-(10**6), 10**6 + 1)
        for t in range(8):
            n, gens = random_system(rng, homogeneous=t % 2 == 0, coeffs=big)
            xs = sympy.symbols(f"x1:{n + 1}")
            exprs = [
                sum(int(c) * sympy.prod(x**e for x, e in zip(xs, mono)) for mono, c in terms)
                for terms in (g.terms.items() for g in gens)
            ]
            for order in (grevlex(n), grlex(n)):
                basis = buchberger(gens, OracleConfig(order=order))
                got = {frozenset(g.terms.items()) for _, g in basis}
                assert got == sympy_basis(sympy, exprs, xs, order), (gens, order.kind)


def tuple_lead_basis(gens, layout, field, push):
    """``oracle._lead_basis`` with its pair rules on exponent tuples: the
    reference for the pairs its loop on exponent codes makes.
    push(heap, item) pushes each (lcm key, i, j)."""
    table = lead_table(gens, layout)
    leads, useful, heap = [], [], []

    def update(lt):
        t = len(leads)
        new = {}  # lcm -> one pair index with it, None if a coprime pair has it
        for s in useful:
            lcm = mono_lcm(lt, leads[s])
            if lcm == mono_mul(lt, leads[s]):
                new[lcm] = None
            else:
                new.setdefault(lcm, s)
        for lcm, s in new.items():
            if s is not None and not any(o != lcm and mono_divides(o, lcm) for o in new):
                if sum(lcm) > layout.bound:
                    raise oracle._Overflow(sum(lcm))
                push(heap, (layout.pack(lcm), t, s))
        useful[:] = [s for s in useful if not mono_divides(lt, leads[s])] + [t]
        leads.append(lt)

    for entry in table:
        update(layout.unpack(entry[1]))
    while heap:
        lcm, i, j = heapq.heappop(heap)
        h = reduce_full(spoly(table[i], table[j], lcm, layout, field), table)
        if not h.is_zero():
            entry = lead_entry(h)
            table.append(entry)
            update(layout.unpack(entry[1]))
    return table


class TestPairRulesOnCodes:
    """The pair loop on exponent codes pushes the pairs the tuple rules
    push, in the same order, on every layout a run tries."""

    @staticmethod
    def trace(lead_basis, gens, cfg, bound):
        """[(bound, pushes)] for each layout ``buchberger``'s restart loop
        tries from bound, and the final lead table."""
        runs = []
        while True:
            pushes = []
            runs.append((bound, pushes))

            def push(heap, item):
                pushes.append(item)
                heapq.heappush(heap, item)

            try:
                table = lead_basis(gens, PackedLayout(cfg.order, bound), cfg.field, push)
            except oracle._Overflow as err:
                bound = max(2 * bound, err.args[0])
            else:
                return runs, table

    def assert_same_pairs(self, monkeypatch, gens, cfg, bound=None):
        def packed(gens, layout, field, push):
            with monkeypatch.context() as patch:
                patch.setattr(
                    oracle, "heapq", SimpleNamespace(heappush=push, heappop=heapq.heappop)
                )
                return oracle._lead_basis(gens, layout, field)

        if bound is None:
            bound = oracle._start_bound(gens)
        want = self.trace(tuple_lead_basis, gens, cfg, bound)
        got = self.trace(packed, gens, cfg, bound)
        assert got == want
        return want[0]

    def test_default_grid_in_both_orders(self, monkeypatch):
        for n in range(1, 5):
            for m in itertools.product((2, 3, 4), repeat=n):
                for k in range(1, 5):
                    gens = power_sum_generators(n, m, k)
                    for order in (grevlex(n), grlex(n)):
                        runs = self.assert_same_pairs(monkeypatch, gens, OracleConfig(order))
                        assert runs[-1][1], (n, m, k, order)

    def test_random_systems(self, monkeypatch):
        # inhomogeneous systems too, over Q and F_7
        pushed = 0
        for n, gens in TestPairPruning().systems():
            for p, order in itertools.product((None, 7), (grevlex(n), grlex(n))):
                cfg = OracleConfig(order=order, p=p)
                own = [SparsePoly.from_terms(n, g.terms.items(), cfg.field) for g in gens]
                runs = self.assert_same_pairs(monkeypatch, own, cfg)
                pushed += len(runs[-1][1])
        assert pushed > 500, pushed

    def test_overflow_restart(self, monkeypatch):
        # the narrowest layout that holds the generators overflows on an
        # S-pair, and the run restarts wider, as in buchberger
        for (n, m, k), order in (
            (GOLDEN, grevlex(4)),
            ((3, (4, 3, 2), 3), TermOrder("grlex", (2, 3, 1))),
        ):
            for p in (None, 7):
                cfg = OracleConfig(order=order, p=p)
                gens = power_sum_generators(n, m, k, cfg.field)
                runs = self.assert_same_pairs(
                    monkeypatch, gens, cfg, bound=max(g.degree() for g in gens)
                )
                assert len(runs) > 1, (n, m, k, p)

    def test_pair_loop_never_unpacks_a_key(self, monkeypatch):
        def unpack(self, key):
            raise AssertionError("the pair loop unpacked a key")

        monkeypatch.setattr(PackedLayout, "unpack", unpack)
        rng = random.Random(3)
        cases = [power_sum_generators(*GOLDEN), power_sum_generators(3, (4, 3, 2), 3)]
        cases += [random_system(rng, homogeneous=t % 2 == 0)[1] for t in range(6)]
        for gens, order_of, p in itertools.product(cases, (grevlex, grlex), (None, 7)):
            cfg = OracleConfig(order=order_of(gens[0].n), p=p)
            own = [SparsePoly.from_terms(g.n, g.terms.items(), cfg.field) for g in gens]
            layout = PackedLayout(cfg.order, oracle._start_bound(own))
            assert oracle._lead_basis(own, layout, cfg.field)


class TestHilbertSkip:
    """``oracle_reduced_gb`` drops a degree's S-pairs once the leads leave
    T(d) standard monomials there, T the Lefschetz truncation of the
    complete intersection's series; ``buchberger`` with no floor reduces
    every pair."""

    # (n values, largest k, primes with None for Q, order kinds)
    SETS = (
        ((2, 3, 4), 4, (None, 2, 3, 5, 7), (grevlex, grlex)),
        ((5,), 3, (None, 2, 3, 5), (grevlex,)),
    )
    # (m, p, d): times ell from degree d loses rank over F_p, the witnesses
    # ``wlp`` reports (perfbench/catalogue.json), so R/(x^m, ell) has more
    # than T(d + 1) standard monomials in degree d + 1
    WLP_FAILS = (
        ((3,) * 6, 5, 4),
        ((2,) * 7, 3, 2),
        ((2, 3, 3, 3, 4, 4), 5, 4),
        ((4,) * 5, 7, 6),
    )

    def cases(self):
        for ns, k_max, primes, orders in self.SETS:
            for n in ns:
                for m in itertools.combinations_with_replacement((2, 3, 4), n):
                    for k, p, order_of in itertools.product(
                        range(1, k_max + 1), primes, orders
                    ):
                        yield n, m, k, OracleConfig(order_of(n), p)

    @staticmethod
    def plain_counts(n, m, k, cfg):
        """HF(R/in(I)) degree by degree, counted by the walk on the leads of
        the basis ``buchberger`` finds with no floor."""
        gens = power_sum_generators(n, m, k, cfg.field)
        leads, elements = sort_elements(buchberger(gens, cfg), cfg.order)
        ideal = GroebnerBasis(n, m, k, cfg.order, elements, leads).initial_ideal()
        return hilbert_counts(n, m, ideal)

    def test_skip_leaves_every_reduced_basis_unchanged(self, monkeypatch):
        zeros = dict.fromkeys(itertools.product(("plain", "floored"), (None, 2, 3, 5, 7)), 0)
        side = [None]
        reduce = oracle.reduce_full

        def counted(f, table):
            h = reduce(f, table)
            zeros[side[0]] += h.is_zero()
            return h

        monkeypatch.setattr(oracle, "reduce_full", counted)
        for n, m, k, cfg in self.cases():
            side[0] = ("plain", cfg.p)
            gens = power_sum_generators(n, m, k, cfg.field)
            want = sort_elements(buchberger(gens, cfg), cfg.order)
            side[0] = ("floored", cfg.p)
            got = oracle_reduced_gb(n, m, k, cfg)
            assert (got.leads, got.elements) == want, (n, m, k, cfg)
        # the skip fired in every field, and over Q, where the floor is the
        # Hilbert function, it took nearly every zero reduction
        for p in (None, 2, 3, 5, 7):
            assert zeros["floored", p] < zeros["plain", p], (p, zeros)
        assert 10 * zeros["floored", None] < zeros["plain", None], zeros

    def test_floor_never_exceeds_the_quotient(self):
        # the one unsafe direction: a floor above HF(R/in(I)) in some degree
        # would skip pairs that still add leads
        for n, m, k, cfg in self.cases():
            floor = truncate_lefschetz(hs_complete_intersection(m), k)
            counts = self.plain_counts(n, m, k, cfg)
            for d in range(max(len(floor), len(counts))):
                assert hf(floor, d) <= hf(counts, d), (n, m, k, cfg, d)

    def test_no_skip_where_wlp_fails(self):
        # the leads never get below HF(R/in(I)), which lies above the floor
        # in the deficient degree, so the skip cannot fire there
        for m, p, d in self.WLP_FAILS:
            n = len(m)
            h = hs_complete_intersection(m)
            assert multiplication_rank(n, m, p, d) < min(hf(h, d), hf(h, d + 1))
            floor = truncate_lefschetz(h, 1)
            counts = self.plain_counts(n, m, 1, OracleConfig(grevlex(n), p))
            assert hf(floor, d + 1) < counts[d + 1], (m, p, d)
            got = oracle_reduced_gb(n, m, 1, OracleConfig(grevlex(n), p))
            assert hilbert_counts(n, m, got.initial_ideal()) == counts, (m, p)

    def test_golden_nine_variables_matches_closed_form(self):
        # (3,)^9 with k = 3: 394 elements, thousands of S-pairs; the skip
        # makes it cheap enough to run on every test pass
        got = oracle_reduced_gb(9, (3,) * 9, 3).fingerprint()
        assert got == reduced_gb(9, (3,) * 9, 3).fingerprint()


class TestLinearPowerCache:
    """``linear_power`` hands the same cached polynomial to every caller, so
    no caller may change one; certificates are checked without it."""

    def test_cached_powers_are_left_unchanged(self, monkeypatch):
        cached = algebra.linear_power
        handed = []

        def spy(*args, **kwargs):
            g = cached(*args, **kwargs)
            handed.append((args, kwargs, g))
            return g

        for module in (algebra, oracle):
            monkeypatch.setattr(module, "linear_power", spy)
        monkeypatch.setenv("ACI_GB_THREADS", "1")
        cached.cache_clear()
        seen = []
        assert verify_all((3, 3, 3))["ok"]
        seen.append(len(handed))
        assert wlp_decide(6, (2, 3, 3, 3, 4, 4), 5).witness is not None
        seen.append(len(handed))
        for n, m, k in (GOLDEN, (3, (3, 3, 4), 3)):
            for s in critical_sets(n, m, k).by_index[n - 1]:
                assert verify_certificate(build_certificate(s, m, k), m), (n, m, k, s)
        seen.append(len(handed))
        # verify and wlp asked for powers, verify twice for each of its
        # (n, k), once per order; the certificates asked for none
        assert 0 < seen[0] < seen[1] == seen[2], seen
        info = cached.cache_info()
        assert info.hits >= seen[0] // 2 and info.currsize <= info.maxsize, info
        for args, kwargs, g in handed:
            assert g == cached.__wrapped__(*args, **kwargs), (args, kwargs)


class TestVerifyIsGb:
    def test_closed_form_golden_verifies_under_grlex(self):
        n, m, k = GOLDEN
        cfg = OracleConfig(order=grlex(n))
        gb = reduced_gb(n, m, k, kind="grlex")
        assert verify_is_gb(gb, power_sum_generators(n, m, k), cfg)

    def test_perturbed_coefficient_fails(self):
        n, m, k = GOLDEN
        cfg = OracleConfig(order=grevlex(n))
        gb = reduced_gb(n, m, k)
        elements = list(gb.elements)
        victim = next(g for g in elements if len(g.terms) > 1)
        mono, c = sorted(victim.terms.items())[0]
        bad = SparsePoly(n, QQ, {**victim.terms, mono: 2 * c})
        elements[elements.index(victim)] = bad
        assert not verify_is_gb(elements, power_sum_generators(n, m, k), cfg)

    def test_empty_candidate_for_zero_ideal(self):
        cfg = OracleConfig(order=grevlex(2))
        assert verify_is_gb([], [SparsePoly.zero(2)], cfg)
        assert not verify_is_gb([], power_sum_generators(2, (2, 2), 1), cfg)

    def test_proper_subideal_fails_containment(self):
        # a valid GB of a smaller ideal is not a GB of the larger one
        cfg = OracleConfig(order=grevlex(2))
        gens = power_sum_generators(2, (2, 2), 1)
        candidate = [SparsePoly.monomial(2, (2, 0)), SparsePoly.monomial(2, (0, 2))]
        assert not verify_is_gb(candidate, gens, cfg)


class TestInitialIdealOracle:
    def test_golden_minimal_generators(self):
        n, m, k = GOLDEN
        got = initial_ideal_oracle(n, m, k)
        want = {
            (2, 0, 0, 0),
            (0, 2, 0, 0),
            (0, 0, 2, 0),
            (0, 0, 0, 3),
            (1, 1, 1, 0),
            (0, 1, 1, 2),
            (1, 0, 1, 2),
            (1, 1, 0, 2),
        }
        assert set(got.min_gens) == want

    def test_grid_matches_constructive_route(self):
        for n, m, k in small_grid():
            got = initial_ideal_oracle(n, m, k)
            want = minimal_generators(n, m, k)
            assert set(got.min_gens) == set(want.min_gens), (n, m, k)

    def test_hilbert_series_matches_truncation(self):
        for n, m, k in small_grid():
            ideal = initial_ideal_oracle(n, m, k)
            series = truncate_lefschetz(hs_complete_intersection(m), k)
            top = sum(mi - 1 for mi in m)
            for d in range(top + 2):
                assert hf_quotient(n, m, k, d, ideal) == hf(series, d), (n, m, k, d)


class TestMultiplicationRank:
    M5 = (2,) * 5

    def test_good_prime_full_rank_everywhere(self):
        hs = hs_complete_intersection(self.M5)
        for d in range(6):
            want = min(hf(hs, d), hf(hs, d + 1))
            assert multiplication_rank(5, self.M5, 5, d, 1) == want

    def test_beyond_socle_rank_zero(self):
        assert multiplication_rank(5, self.M5, 5, 6, 1) == 0
        assert multiplication_rank(5, self.M5, 5, 9, 1) == 0
        # with no source or no target, ell^e (about e^(n-1) terms) is never
        # built, and no variables at all is no error
        assert multiplication_rank(3, (3, 3, 3), 5, 0, 10**6) == 0
        assert multiplication_rank(3, (3, 3, 3), 5, -(10**6), 10**6 + 3) == 0
        assert multiplication_rank(0, (), 5, 0, 1) == 0

    def test_char_two_deficient(self):
        assert [multiplication_rank(5, self.M5, 2, d, 1) for d in range(6)] == [
            1,
            4,
            6,
            4,
            1,
            0,
        ]

    def test_higher_power_full_rank_char_zero_scale(self):
        # strong Lefschetz at a big prime: every ell^e map has maximal rank
        m = (3, 3, 3)
        hs = hs_complete_intersection(m)
        for e in (1, 2, 3):
            for d in range(len(hs)):
                want = min(hf(hs, d), hf(hs, d + e))
                assert multiplication_rank(3, m, 1000003, d, e) == want

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            multiplication_rank(3, (2, 2, 2), 6, 1, 1)

    def test_rejects_power_below_one(self):
        for n, e in [(1, -1), (2, -1), (2, 0)]:
            with pytest.raises(ValueError, match="power"):
                multiplication_rank(n, (3,) * n, 5, 1, e)


def span_rank(rows, p):
    """Rank over F_p by brute force: log_p of the size of the row span."""
    width = len(rows[0]) if rows else 0
    span = {
        tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(width))
        for coeffs in itertools.product(range(p), repeat=len(rows))
    }
    size, rank = len(span), 0
    while size > 1:
        size //= p
        rank += 1
    return rank


def sparse(dense):
    """The {column: entry} rows gaussian_rank takes, from dense integer rows;
    entries that vanish only mod p stay in."""
    return [{j: x for j, x in enumerate(row) if x} for row in dense]


def multinomial_entry(u, t, e):
    """Coefficient of x^t in x^u (x_1 + ... + x_n)^e, t of degree deg u + e."""
    diff = [a - b for a, b in zip(t, u)]
    if min(diff) < 0:
        return 0
    return math.factorial(e) // math.prod(map(math.factorial, diff))


class TestGaussianRank:
    def test_matches_span_size_on_random_matrices(self):
        rng = random.Random(1)
        for _ in range(600):
            p = rng.choice((2, 3, 5))
            shape = (rng.randint(1, 4), rng.randint(1, 5))
            dense = [[rng.randint(-7, 7) for _ in range(shape[1])] for _ in range(shape[0])]
            rows = sparse(dense)
            before = [dict(row) for row in rows]
            assert gaussian_rank(rows, p) == span_rank(dense, p), (dense, p)
            assert rows == before

    def test_rank_of_transpose_on_larger_matrices(self):
        # no reference elimination: a matrix and its transpose share their
        # rank, and a product through k columns has rank at most k
        rng = random.Random(14)
        for _ in range(120):
            p = rng.choice((2, 3, 7, 32003))
            r, c, k = rng.randint(1, 25), rng.randint(1, 30), rng.randint(1, 25)
            left = [[rng.randint(-p, p) for _ in range(k)] for _ in range(r)]
            right = [[rng.choice((0, 0, rng.randint(-p, p))) for _ in range(c)] for _ in range(k)]
            # entries in -p..p, with both signs for the same residue
            dense = [
                [sum(a * b for a, b in zip(row, col)) % p - p * rng.randint(0, 1)
                 for col in zip(*right)]
                for row in left
            ]
            rows = sparse(dense)
            before = [dict(row) for row in rows]
            rank = gaussian_rank(rows, p)
            assert rows == before
            assert rank <= min(r, c, k)
            assert gaussian_rank(sparse(zip(*dense)), p) == rank, (dense, p)
            perm = list(range(c))
            rng.shuffle(perm)
            shuffled = [[row[j] for j in perm] for row in dense]
            assert gaussian_rank(sparse(shuffled), p) == rank, (dense, p)
            # a zero row and a zero column add nothing
            assert gaussian_rank(sparse(dense + [[0] * c]), p) == rank
            padded = [row + [p * rng.randint(-1, 1)] for row in dense]
            assert gaussian_rank(sparse(padded), p) == rank
        for p in (2, 32003):
            assert gaussian_rank(sparse([[0] * 30 for _ in range(25)]), p) == 0
            assert gaussian_rank(sparse([[p, -p, 2 * p]]), p) == 0

    def test_empty_matrices(self):
        assert gaussian_rank(sparse([]), 3) == 0
        assert gaussian_rank(sparse([[], []]), 3) == 0

    def test_rejects_composite_modulus(self):
        for p in (1, 4, 6, 9):
            with pytest.raises(ValueError, match="not prime"):
                gaussian_rank(sparse([[1, 0], [0, 1]]), p)

    def test_multiplication_rank_matches_a_dense_build(self):
        for n, m, p in (((3, (3, 3, 3), 5), (4, (2, 3, 2, 4), 3),
                         (2, (4, 5), 2), (5, (2,) * 5, 2))):
            top = sum(mi - 1 for mi in m)
            for e in (1, 2, 3):
                # d = -1 has no source monomial, and from top - e + 1 on the
                # target lies beyond the socle
                for d in range(-1, top + 1):
                    assert multiplication_rank(n, m, p, d, e) == dense_rank(n, m, p, d, e), (
                        n, m, p, d, e)


def dense_rank(n, m, p, d, e):
    """Rank of the map built densely, without linear_power, a column map or
    the level cache."""
    target = list(compositions(d + e, [mi - 1 for mi in m]))
    dense = [
        [multinomial_entry(u, t, e) for t in target]
        for u in compositions(d, [mi - 1 for mi in m])
    ]
    return gaussian_rank(sparse(dense), p)


class TestLevelCache:
    """``multiplication_rank`` takes both levels from ``_m_free_level``,
    which keeps the last two it built."""

    def test_any_sequence_of_calls_matches_a_dense_build(self):
        a, b = (3, (3, 3, 3), 5), (4, (2, 3, 2, 4), 3)
        calls = (
            # degrees up, as the wlp scan runs, then down, then repeated
            [a + (d, 1) for d in range(6)]
            + [a + (d, 1) for d in range(6, -2, -1)]
            + [a + (2, 1)] * 3
            # the same source with other powers, and another prime
            + [a + (1, e) for e in (1, 2, 3, 1)]
            + [(3, (3, 3, 3), 2, d, 1) for d in range(4)]
            # two quotients interleaved, in different and in equal n
            + [c + (d, e) for d in range(5) for c in (a, b) for e in (1, 2)]
            + [c + (d, 1) for d in range(4) for c in (a, (3, (2, 3, 4), 7))]
            + [(2, (4, 5), 7, 3, 1), b + (3, 1), (2, (4, 5), 7, 3, 1)]
        )
        for n, m, p, d, e in calls:
            assert multiplication_rank(n, m, p, d, e) == dense_rank(n, m, p, d, e), (
                n, m, p, d, e)
            assert oracle._m_free_level.cache_info().currsize <= 2

    def test_cached_levels_are_left_unchanged(self):
        n, m, p = 6, (2, 3, 3, 3, 4, 4), 5
        oracle._m_free_level.cache_clear()
        first = [oracle._m_free_level(n, m, d) for d in (0, 1)]
        copies = [(list(monos), dict(col)) for monos, col in first]
        verdict = wlp_decide(n, m, p)
        # the scan began on these two levels, so it read them from the cache
        assert oracle._m_free_level.cache_info().hits >= 2
        for (monos, col), (monos0, col0) in zip(first, copies):
            assert monos == monos0 and col == col0
        # and it stopped at its witness, so it ended on degrees 4 and 5
        assert verdict.witness[0] == 4
        for d in (4, 5):
            hits = oracle._m_free_level.cache_info().hits
            monos, col = oracle._m_free_level(n, m, d)
            assert oracle._m_free_level.cache_info().hits == hits + 1
            assert monos == enumerate_m_free(n, m, d)
            assert col == {mono: idx for idx, mono in enumerate(monos)}

    def test_rank_after_wlp_writes_the_bytes_of_rank_alone(self, capsys):
        wlp = ["wlp", "--n", "6", "--m", "2,3,3,3,4,4", "--p", "5"]
        # the wlp scan stops at its witness, degree 4: it ends on degrees 4
        # and 5, and the first of these reads both from the cache
        ranks = [
            ["rank", "--n", "6", "--m", "2,3,3,3,4,4", "--p", "5", "--d", str(d), "--e", str(e)]
            for d, e in ((4, 1), (3, 2), (5, 1), (2, 1))
        ]
        for fmt in ("text", "json"):
            for argv in ranks:
                oracle._m_free_level.cache_clear()
                assert main(argv + ["--format", fmt]) == 0
                alone = capsys.readouterr().out
                oracle._m_free_level.cache_clear()
                assert main(wlp) == 0
                capsys.readouterr()
                assert main(argv + ["--format", fmt]) == 0
                assert capsys.readouterr().out == alone, argv


class TestSpoly:
    def test_cancels_leading_terms(self):
        # S(f, g) = 3 x2 * f - 2 x1 * g = 3 x2^2 - 2 x1^2: the terms at the
        # lcm x1^2 x2 cancel; over F_7 the entries are monic first, x1^2 + 4 x2
        # and x1 x2 + 5 x1, so S = 4 x2^2 - 5 x1^2
        order = grevlex(2)
        layout = PackedLayout(order, 3)
        pack = layout.pack
        for field, want in ((QQ, {(0, 2): 3, (2, 0): -2}), (Field(7), {(0, 2): 4, (2, 0): 2})):
            f = SparsePoly.from_terms(2, [((2, 0), 2), ((0, 1), 1)], field)
            g = SparsePoly.from_terms(2, [((1, 1), 3), ((1, 0), 1)], field)
            table = lead_table([f, g], layout)
            h = spoly(*table, pack((2, 1)), layout, field)
            assert h.terms == {pack(mono): c for mono, c in want.items()}, field
