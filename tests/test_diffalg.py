import itertools
import json
import random
from fractions import Fraction as F
from math import factorial
from pathlib import Path

import pytest

from conftest import diffpoly_mul
from qvir import cli, diffalg, virasoro
from qvir.characters import (MinimalModelLabel, andrews_gordon_product,
                             feigin_fuchs_character)
from qvir.diffalg import (DiffPoly, ELEMENT_NAMES, GEN_A, GEN_B, GEN_B_SCALED,
                          ZeroPolynomial, build_element, cached_divided_derivative,
                          derive, groebner_check,
                          hilbert_quotient, membership, mono_mul,
                          prop51_check, verify_derivative_formulas)
from qvir.linalg import Echelon
from qvir.partitions import (EXCEPTIONAL_PATTERNS, count_min2, forbidden_patterns,
                             grevlex_key, partitions_min2, partitions_min2_length,
                             pattern)
from qvir.virasoro import VirVector, lemma_b_check, solve_singular_vector


GENS = (GEN_A, GEN_B)


# -- order and arithmetic ----------------------------------------------------

def test_grevlex_examples():
    assert grevlex_key((4, 2)) < grevlex_key((3, 3))
    assert grevlex_key((2,)) < grevlex_key((3,))
    assert not grevlex_key((3, 2)) < grevlex_key((3, 2))
    assert grevlex_key((6,)) < grevlex_key((4, 2))
    assert grevlex_key((3, 3)) < grevlex_key((2, 2, 2))


def test_grevlex_total_order():
    monos = partitions_min2(9)
    for a, b in itertools.combinations(monos, 2):
        assert (grevlex_key(a) < grevlex_key(b)) != (grevlex_key(b) < grevlex_key(a))


def test_derive_generator_rule():
    assert derive(DiffPoly({(2,): 1})) == DiffPoly({(3,): 1})
    assert derive(GEN_A) == DiffPoly({(3, 2, 2): 3})
    assert not derive(DiffPoly({(): 1}))


def test_divided_derivative_examples():
    assert cached_divided_derivative(GEN_A, 0) == GEN_A
    assert cached_divided_derivative(GEN_A, 2) == DiffPoly({(4, 2, 2): 3, (3, 3, 2): 3})
    d9 = cached_divided_derivative(GEN_A, 9)
    assert d9.leading_monomial() == (5, 5, 5)
    assert d9.terms[(5, 5, 5)] == 1
    assert d9.terms[(6, 5, 4)] == 6
    # the cached chain must not read a negative order as an index from its end
    with pytest.raises(ValueError):
        cached_divided_derivative(GEN_A, -1)


def divided_power_oracle(n):
    # independent route: the divided derivative of the cube distributes over
    # ordered exponent triples, each factor shifting by one degree per step
    out = {}
    for i in range(n + 1):
        for j in range(n - i + 1):
            l = n - i - j
            mono = tuple(sorted((2 + i, 2 + j, 2 + l), reverse=True))
            out[mono] = out.get(mono, 0) + 1
    return DiffPoly(out)


@pytest.mark.parametrize("n", range(0, 15))
def test_divided_derivative_against_multinomial_oracle(n):
    assert cached_divided_derivative(GEN_A, n) == divided_power_oracle(n)


def test_leibniz_on_random_pairs():
    rng = random.Random(99)
    monos = [m for w in range(2, 9) for m in partitions_min2(w)[::-1]]
    for _ in range(30):
        f = DiffPoly({rng.choice(monos): F(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(2)})
        g = DiffPoly({rng.choice(monos): F(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(2)})
        assert derive(diffpoly_mul(f, g)) == \
            diffpoly_mul(derive(f), g) + diffpoly_mul(f, derive(g))


def test_divided_derivatives_of_integer_polynomials_are_integral():
    # d^[k] of the degree-n generator is C(n+k-2, k) times the degree-(n+k)
    # one, so by the divided-power Leibniz rule no denominator can appear
    rng = random.Random(61)
    monos = [m for w in range(2, 11) for m in partitions_min2(w)[::-1]]
    for _ in range(30):
        f = DiffPoly({rng.choice(monos): rng.choice((-5, -2, -1, 1, 3, 7))
                      for _ in range(rng.randint(1, 4))})
        k = rng.randint(0, 8)
        got = cached_divided_derivative(f, k)
        assert all(type(c) is int for c in got.terms.values()), (f, k)
        raw = f
        for _ in range(k):
            raw = derive(raw)
        assert got.terms == {m: F(c, factorial(k)) for m, c in raw.terms.items()}


def test_homogeneous_weight_raised_by_one():
    assert derive(GEN_B).weight() == GEN_B.weight() + 1


def test_leading_monomial_examples():
    assert cached_divided_derivative(GEN_A, 2).leading_monomial() == (3, 3, 2)
    assert GEN_B.leading_monomial() == (4, 3, 2)
    assert DiffPoly({(2,): 1}).leading_monomial() == (2,)
    with pytest.raises(ZeroPolynomial):
        DiffPoly().leading_monomial()


def test_lm_multiplicative():
    monos = [m for w in range(2, 8) for m in partitions_min2(w)[::-1]]
    rng = random.Random(3)
    for _ in range(40):
        f = DiffPoly({rng.choice(monos): 1, rng.choice(monos): F(1, 2)})
        g = DiffPoly({rng.choice(monos): -2, rng.choice(monos): 3})
        if not f or not g:
            continue
        prod = diffpoly_mul(f, g)
        if prod:
            lf, lg = f.leading_monomial(), g.leading_monomial()
            assert prod.leading_monomial() == tuple(sorted(lf + lg, reverse=True))


def test_lm_multiplicative_exhaustive_low_weight():
    for w1 in range(2, 8):
        for w2 in range(2, 15 - w1):
            for a in partitions_min2(w1):
                for b in partitions_min2(w2):
                    pa, pb = DiffPoly({a: 1}), DiffPoly({b: 1})
                    assert diffpoly_mul(pa, pb).leading_monomial() == tuple(
                        sorted(a + b, reverse=True))


# -- ideal slices ------------------------------------------------------------

def leading_monomials(rows):
    return [r.leading_monomial() for r in rows]


def test_slice_at_generator_weight(reduced_slice):
    rows = reduced_slice(GENS, 6)
    assert len(rows) == 1
    assert leading_monomials(rows) == [(2, 2, 2)]


def test_slice_below_generators(reduced_slice):
    assert reduced_slice(GENS, 5) == []


def test_slice_weight_9(reduced_slice):
    pivots = leading_monomials(reduced_slice(GENS, 9))
    assert (4, 3, 2) in pivots
    assert (3, 3, 3) in pivots


def test_slice_rows_are_reduced_and_monic(reduced_slice):
    rows = reduced_slice(GENS, 12)
    pivots = set(leading_monomials(rows))
    for row in rows:
        assert row.terms[row.leading_monomial()] == 1
        for m in row.terms:
            assert m == row.leading_monomial() or m not in pivots


def test_membership_examples():
    assert membership(GEN_A, GENS)
    assert membership(GEN_B, GENS)
    assert membership(DiffPoly({(5, 4, 2, 2): 1}), GENS)
    assert not membership(DiffPoly({(3, 2): 1}), GENS)


def test_membership_printed_monomial_combination():
    # the exceptional weight-13 monomial is literally an ideal element:
    # (3 L2 d^2 b - 18 L4 b - 19 L5 d^2 a - 88 L6 d a - 60 L7 a) / 204
    # with the raw (not divided) derivatives of the scaled generator
    d2b = derive(derive(GEN_B_SCALED))
    d2a = derive(derive(GEN_A))
    da = derive(GEN_A)
    combo = (d2b.mul_monomial((2,), 3) + GEN_B_SCALED.mul_monomial((4,), -18)
             + d2a.mul_monomial((5,), -19) + da.mul_monomial((6,), -88)
             + GEN_A.mul_monomial((7,), -60)).scale(F(1, 204))
    assert combo == DiffPoly({(5, 4, 2, 2): 1})


def test_hilbert_free_algebra():
    h = hilbert_quotient((), 10)
    for n in range(11):
        assert h.coefficient(n) == count_min2(n)


def test_hilbert_main_quotient():
    h = hilbert_quotient(GENS, 30)
    ff = feigin_fuchs_character(MinimalModelLabel(3, 4), 31)
    assert h.equal_mod(ff)


@pytest.mark.parametrize("s", [2, 3])
def test_hilbert_power_ideal_vs_andrews_gordon(s):
    h = hilbert_quotient((DiffPoly({(2,) * s: 1}),), 25)
    assert h.equal_mod(andrews_gordon_product(s, 26))


def test_hilbert_missing_generator_deviates_at_9():
    h = hilbert_quotient((GEN_A,), 10)
    ff = feigin_fuchs_character(MinimalModelLabel(3, 4), 11)
    _, first = h.agreement(ff)
    assert first == 9


def test_generator_mixing_lengths_is_rejected():
    mixed = DiffPoly({(2, 2): 1, (4,): 1})
    with pytest.raises(ValueError, match="one factor count"):
        hilbert_quotient((GEN_A, mixed), 8)
    with pytest.raises(ValueError, match="one factor count"):
        membership(DiffPoly({(2, 2): 1}), (mixed,))


def test_slice_rows_are_integer_from_the_start(monkeypatch):
    # structural guard, not a timing: the generators are scaled to primitive
    # integer multiples before any derivative is taken, so neither the
    # derivative chains nor the rows handed to the echelon hold a Fraction
    insert = Echelon.insert

    def spy(self, row):
        assert all(type(v) is int for v in row.values()), row
        return insert(self, row)

    monkeypatch.setattr(Echelon, "insert", spy)
    h = hilbert_quotient(GENS, 20)
    assert h.equal_mod(feigin_fuchs_character(MinimalModelLabel(3, 4), 21))
    chains = diffalg._DD_CACHE.values()
    assert chains and all(type(c) is int for chain in chains for f in chain
                          for c in f.terms.values())


def test_exact_containers_store_ints_while_integral(monkeypatch):
    # what reaches the DiffPoly and VirVector constructors, and what they
    # keep: never a float, and an int for every integral coefficient
    handed, stored = set(), []
    poly_init, vec_init = DiffPoly.__init__, VirVector.__init__

    def poly_spy(self, terms=None):
        handed.update(type(c) for c in (terms or {}).values())
        poly_init(self, terms)
        stored.extend(self.terms.values())

    def vec_spy(self, c, coeffs=None):
        handed.update(type(v) for v in (coeffs or {}).values())
        vec_init(self, c, coeffs)
        stored.extend(self.coeffs.values())

    monkeypatch.setattr(DiffPoly, "__init__", poly_spy)
    monkeypatch.setattr(VirVector, "__init__", vec_spy)
    for name in ELEMENT_NAMES:
        for k in range(1 if name.startswith("e") else 3):
            build_element(name, k)
    assert verify_derivative_formulas(2)["passed"]
    solve_singular_vector(MinimalModelLabel(3, 4))
    assert lemma_b_check()["passed"]
    assert float not in handed
    assert all(type(c) is int or c.denominator != 1 for c in stored)
    assert {int, F} <= {type(c) for c in stored}


def test_prop51_path_hands_no_integral_fraction(monkeypatch):
    # structural guard, not a timing: the divided derivatives, the printed
    # multipliers and the expansion tables divide by exact_quotient, so an
    # integral value stays an int; a Fraction default in a scalar or a divide
    # would pass every value check unseen.  (A printed multiplier such as
    # 81856/3 is a true fraction, and its products are Fractions.)
    handed = []
    init = DiffPoly.__init__

    def spy(self, terms=None):
        handed.extend((terms or {}).values())
        init(self, terms)

    monkeypatch.setattr(DiffPoly, "__init__", spy)
    for gen in (GEN_A, GEN_B_SCALED):
        cached_divided_derivative(gen, 24)
    assert handed and all(type(c) is int for c in handed)
    handed.clear()
    assert verify_derivative_formulas(3)["passed"]
    assert handed and all(type(c) is int or c.denominator != 1 for c in handed)
    for name in ELEMENT_NAMES:
        for k in range(1 if name.startswith("e") else 4):
            for c, _, _ in diffalg._element_ingredients(name, k):
                assert type(c) is int or c.denominator != 1, (name, k, c)
    assert prop51_check(3)["passed"]


def test_divide_keeps_the_coefficient_rule():
    p = DiffPoly({(2, 2): 6, (3,): F(9, 2), (4,): -4})
    q = p.divide(3)
    assert q == DiffPoly({(2, 2): 2, (3,): F(3, 2), (4,): F(-4, 3)})
    assert type(q.terms[(2, 2)]) is int
    assert type(p.divide(-2).terms[(2, 2)]) is int and p.divide(-2).terms[(2, 2)] == -3
    assert DiffPoly({(2,): F(3, 2)}).divide(1) == DiffPoly({(2,): F(3, 2)})


def test_scaled_generator_spans_same_ideal(reduced_slice):
    for d in range(6, 16):
        assert leading_monomials(reduced_slice(GENS, d)) == \
            leading_monomials(reduced_slice((GEN_A, GEN_B_SCALED), d))


# -- the skip rules of _build_block --------------------------------------------

def all_rows(gens, d, l):
    # every row mu * d^[k] g of the block, as (generator index, k, mu, row),
    # over the monomials sorted grevlex-descending
    monos = sorted(partitions_min2_length(d, l), key=grevlex_key, reverse=True)
    index = {m: i for i, m in enumerate(monos)}
    for gi, g in enumerate(map(diffalg._primitive, gens)):
        wg = g.weight()
        extra = l - diffalg._length(g)
        if extra < 0:
            continue
        for k in range(0, d - wg + 1):
            dg = cached_divided_derivative(g, k)
            for mu in partitions_min2_length(d - wg - k, extra):
                yield gi, k, mu, {index[mono_mul(m, mu)]: c for m, c in dg.terms.items()}


def all_rows_block(gens, d, l):
    # the oracle: every row of the block inserted, none skipped
    ech = Echelon()
    for _, _, _, row in all_rows(gens, d, l):
        ech.insert(row)
    return ech


def test_multiplying_by_a_part_keeps_the_multiplier_order():
    # the order lemma behind the skip rule; a part j > n is larger than
    # every part of a multiplier of weight n and lands first, as j = n + 1 does
    for n in range(21):
        for m in range(n // 2 + 1):
            for j in range(2, n + 3):
                position = {mu: i for i, mu in
                            enumerate(partitions_min2_length(n + j, m + 1))}
                moved = [position[mono_mul(mu, (j,))] for mu in partitions_min2_length(n, m)]
                assert moved == sorted(moved), (n, m, j)


@pytest.mark.parametrize("gens, n", [
    (GENS, 26),
    ((diffalg.arc_generator(2),), 25),
    ((diffalg.arc_generator(3),), 25),
    ((diffalg.arc_generator(4), virasoro.kernel_generator_symbol(5)), 21),
], ids=["ab", "arc2", "arc3", "3-5"])
def test_skipping_blocks_match_the_all_rows_build(gens, n):
    # every block the hilbert subcommand builds, lower blocks read by the
    # skip rule included, has the rank and reduced form of inserting every row
    hilbert_quotient(gens, n)
    assert diffalg._BLOCK_CACHE
    for (_, d, l), (ech, _, _) in diffalg._BLOCK_CACHE.items():
        oracle = all_rows_block(gens, d, l)
        assert ech.rank == oracle.rank, (d, l)
        assert ech.reduced() == oracle.reduced(), (d, l)


def test_skipped_rows_leave_few_zero_reductions(monkeypatch):
    # a count, not a timing: on the way to weight 30, inserting every row
    # reduces 6,666 rows to zero, and the skip rules leave 7 of them
    insert, redundant = Echelon.insert, []

    def spy(self, row):
        kept = insert(self, row)
        if not kept:
            redundant.append(row)
        return kept

    monkeypatch.setattr(Echelon, "insert", spy)
    hilbert_quotient(GENS, 30)
    assert len(redundant) <= 10


@pytest.mark.parametrize("gens, n", [
    (GENS, 24),
    ((diffalg.arc_generator(2),), 22),
], ids=["ab", "arc2"])
def test_a_derived_row_is_inserted_only_after_its_predecessor_was_kept(monkeypatch, gens, n):
    # every row (g, k >= 1, mu) that reaches the echelon of the block (d, l)
    # had (g, k - 1, mu) kept in the block (d - 1, l); the rows are told
    # apart by their entries
    insert, inserted = Echelon.insert, []

    def spy(self, row):
        inserted.append((self, frozenset(row.items())))
        return insert(self, row)

    monkeypatch.setattr(Echelon, "insert", spy)
    hilbert_quotient(gens, n)
    blocks = {id(ech): (d, l) for (_, d, l), (ech, _, _) in diffalg._BLOCK_CACHE.items()}
    kept = {(d, l): sets for (_, d, l), (_, _, sets) in diffalg._BLOCK_CACHE.items()}
    names: dict = {}
    derived = 0
    for ech, row in inserted:
        d, l = blocks[id(ech)]
        if (d, l) not in names:
            names[d, l] = {}
            for gi, k, mu, r in all_rows(gens, d, l):
                names[d, l].setdefault(frozenset(r.items()), []).append((gi, k, mu))
        [(gi, k, mu)] = names[d, l][row]
        if k:
            derived += 1
            assert mu in kept[d - 1, l][gi], (d, l, gi, k, mu)
    assert derived


def test_a_full_block_keeps_unit_rows():
    hilbert_quotient(GENS, 24)
    full = [(d, l, ech, monos) for (_, d, l), (ech, monos, _) in diffalg._BLOCK_CACHE.items()
            if ech.rank == len(monos)]
    assert full
    for d, l, ech, monos in full:
        assert ech.pivots == {c: {c: 1} for c in range(len(monos))}, (d, l)
        assert all(membership(DiffPoly({m: 1}), GENS) for m in monos), (d, l)


def test_a_cold_slice_out_of_order_equals_the_ascending_build(reduced_slice):
    # the weight-24 blocks built first read the lower blocks they need
    probes = [DiffPoly({m: 1}) for m in partitions_min2(24)[::-1][::7]]
    probes += [build_element("s", 4), build_element("w", 2),
               build_element("w", 2) + DiffPoly({(8, 6, 5, 3, 2): 1})]
    cold = reduced_slice(GENS, 24)
    cold_members = [membership(f, GENS) for f in probes]
    diffalg._BLOCK_CACHE.clear()
    cold_members_first = [membership(f, GENS) for f in probes]
    diffalg._BLOCK_CACHE.clear()
    for d in range(25):
        ascending = reduced_slice(GENS, d)
    assert cold == ascending
    members = [membership(f, GENS) for f in probes]
    assert cold_members == cold_members_first == members
    assert True in members and False in members


# -- the printed expansions and elements -------------------------------------

def test_derivative_formula_tables():
    rep = verify_derivative_formulas(3)
    assert rep["passed"], [e for e in rep["entries"] if not e["passed"]][:1]


def test_scaled_generator_expansion_values():
    d6 = cached_divided_derivative(GEN_B_SCALED, 6)
    assert d6.terms[(5, 5, 5)] == 55
    d9 = cached_divided_derivative(GEN_A, 9)
    assert d9.terms[(6, 5, 4)] == 6


def test_element_r0():
    r0 = build_element("r", 0)
    assert r0 == cached_divided_derivative(GEN_B_SCALED, 1) \
        + cached_divided_derivative(GEN_A, 4).scale(-2)
    assert r0.leading_monomial() == (4, 4, 2)


def test_element_t0_is_scaled_generator():
    assert build_element("t", 0) == GEN_B_SCALED
    assert build_element("t", 0).leading_monomial() == (4, 3, 2)


def test_element_e1():
    e1 = build_element("e1")
    assert e1.leading_monomial() == (5, 4, 2, 2)


def test_element_z0():
    assert build_element("z", 0).leading_monomial() == (8, 7, 5, 3, 2)


@pytest.mark.parametrize("fam", ["r", "s", "t", "u", "v", "w", "y", "z"])
def test_element_leading_monomials_k_le_5(fam):
    for k in range(6):
        el = build_element(fam, k)
        assert el.leading_monomial() == pattern(fam, k), (fam, k)


def test_prop51_small():
    rep = prop51_check(2)
    assert rep["passed"]
    assert not rep["findings"]
    pats = {tuple(e["pattern"]) for e in rep["entries"]}
    assert (2, 2, 2) in pats and (3, 3, 2) in pats and (8, 7, 5, 3, 2) in pats


def test_prop51_fails_on_a_wrong_printed_element(monkeypatch):
    # adding d^[7]a to the printed r_1 moves its lead from (5, 5, 3) to
    # (5, 4, 4); the check must report that, not repair it
    printed = diffalg.build_element

    def corrupted(name, k=0):
        out = printed(name, k)
        if (name, k) == ("r", 1):
            out = out + cached_divided_derivative(GEN_A, 7)
        return out

    monkeypatch.setattr(diffalg, "build_element", corrupted)
    rep = prop51_check(1)
    assert not rep["passed"]
    r1 = next(e for e in rep["entries"] if (e["family"], e["k"]) == ("r", 1))
    assert not r1["passed"] and r1["finding"] == {"built_lm": [5, 4, 4]}
    assert r1 in rep["findings"]
    report = cli.run_check("prop51", cli.RunConfig(prop51_kmax=1, deriv_kmax=1))
    assert not report["passed"]
    assert '"built_lm"' in report["checks"][0]["first_failure"]


def test_prop51_builds_no_slice(monkeypatch):
    # membership holds by construction, so prop51 reduces nothing in a
    # weight slice and builds no echelon block
    calls = []
    member, block = diffalg.membership, diffalg._block_cached
    monkeypatch.setattr(diffalg, "membership",
                        lambda *args: calls.append("membership") or member(*args))
    monkeypatch.setattr(diffalg, "_block_cached",
                        lambda *args: calls.append("block") or block(*args))
    rep = prop51_check(3)
    assert rep["passed"]
    assert {e["membership"] for e in rep["entries"]} == {"construction"}
    assert diffalg._BLOCK_CACHE == {}
    assert cli.run_check("prop51", cli.RunConfig(prop51_kmax=3, deriv_kmax=2))["passed"]
    assert calls == []


def test_printed_elements_are_built_from_ideal_bases():
    # the structural fact behind "membership": "construction": every base is
    # a generator derivative or a printed element, every multiplier a monomial
    kinds = {"a", "b", *ELEMENT_NAMES}
    for name in ELEMENT_NAMES:
        for k in range(1 if name.startswith("e") else 6):
            for c, mono, (kind, j) in diffalg._element_ingredients(name, k):
                assert kind in kinds and type(j) is int and j >= 0, (name, k, kind, j)
                assert all(type(p) is int and p >= 2 for p in mono), (name, k, mono)


@pytest.mark.parametrize("extra", [
    (1, (), (3, 2)),                              # a bare monomial, not in the ideal
    (1, (), ("q", 0)),                            # no such base
    (1, (), ("a", -1)),                           # no such derivative
    (1, (), DiffPoly({(3, 2): 1})),               # a polynomial, not a reference
    (1, (1,), ("a", 4)),                          # L1 is no generator
], ids=["bare-monomial", "unknown-kind", "negative-order", "polynomial", "part-1"])
def test_a_base_outside_the_ideal_fails_the_build(monkeypatch, extra):
    printed = diffalg._element_ingredients

    def mutated(name, k):
        out = printed(name, k)
        return out + [extra] if (name, k) == ("r", 1) else out

    monkeypatch.setattr(diffalg, "_element_ingredients", mutated)
    with pytest.raises(ValueError):
        build_element("r", 1)
    report = cli.run_check("prop51", cli.RunConfig(prop51_kmax=1, deriv_kmax=1))
    assert not report["passed"]
    assert report["checks"][0]["first_failure"].startswith("ValueError")


def test_element_membership_sampled():
    # the slice reduction prop51 no longer runs, as an independent
    # cross-check on at least one member of every printed family
    samples = (("r", 4), ("s", 3), ("t", 2), ("u", 2), ("v", 1), ("w", 2),
               ("y", 3), ("z", 1), ("e1", 0), ("e2", 0), ("e3", 0), ("e4", 0))
    assert {fam for fam, _ in samples} == set(ELEMENT_NAMES)
    for fam, k in samples:
        assert membership(build_element(fam, k), GENS), (fam, k)


# -- the degreewise Groebner property ----------------------------------------

def test_groebner_small():
    rep = groebner_check(14)
    assert rep["passed"]


def test_groebner_w_family_is_required():
    rep = groebner_check(17)
    assert rep["passed"]
    assert rep["w_family_required"]
    assert [6, 5, 3, 2] in rep["w_only_monomials"]


def test_groebner_reports_a_pivot_no_pattern_covers(monkeypatch):
    # without the pattern (4, 3, 2), the weight-9 pivot it names is outside
    # the divisibility closure
    claimed = diffalg.forbidden_patterns
    monkeypatch.setattr(diffalg, "forbidden_patterns",
                        lambda n: tuple(p for p in claimed(n) if p != (4, 3, 2)))
    rep = groebner_check(9)
    assert not rep["passed"]
    assert not rep["per_degree"][9]["passed"]
    assert [4, 3, 2] in rep["per_degree"][9]["pivots_not_covered"]
    report = cli.run_check("groebner", cli.RunConfig(trunc_groebner=10))
    assert not report["passed"]
    assert json.loads(report["checks"][0]["first_failure"])["weight"] == 9


def test_groebner_and_hilbert_build_no_reduced_form(monkeypatch):
    # both reports read the integer blocks only: ranks and pivot columns
    def reduced(self):
        raise AssertionError("a report built a reduced echelon form")

    monkeypatch.setattr(Echelon, "reduced", reduced)
    h = hilbert_quotient(GENS, 30)
    assert h.equal_mod(feigin_fuchs_character(MinimalModelLabel(3, 4), 31))
    assert groebner_check(22)["passed"]


def test_a_family_patterns_lead_the_derivatives_of_the_cube():
    for j in range(31):
        lead = cached_divided_derivative(GEN_A, j).leading_monomial()
        assert lead == pattern("a%d" % (j % 3), j // 3), j


def test_pattern_table_matches_golden():
    # captured from the three transcriptions the table replaced: the
    # partitions list, the claimed Groebner basis and the element targets
    golden = json.loads((Path(__file__).parent / "golden" / "patterns.json").read_text())
    assert [list(p) for p in forbidden_patterns(60)] == golden["forbidden_patterns_60"]
    w = {pattern("w", k) for k in range(40)}
    assert [list(p) for p in sorted(forbidden_patterns(40))] \
        == golden["claimed_basis_lms_40_with_w"]
    assert [list(p) for p in sorted(set(forbidden_patterns(40)) - w)] \
        == golden["claimed_basis_lms_40_without_w"]
    targets = {"%s/%d" % (name, k): list(pattern(name, k))
               for name in ELEMENT_NAMES
               for k in range(1 if name in EXCEPTIONAL_PATTERNS else 9)}
    assert targets == golden["element_target_lm"]
    with pytest.raises(ValueError):
        pattern("e1", 1)


def test_json_roundtrip():
    d = GEN_B.to_json_dict()
    assert d["weight"] == 9
    assert DiffPoly({tuple(m): F(c) for m, c in d["terms"]}) == GEN_B
