from fractions import Fraction as F

import pytest

from qvir import characters
from qvir.characters import (ALT_EXPRESSIONS, MODULES,
                             MinimalModelLabel, NahmData, NotPositiveDefinite,
                             alt_expression, andrews_gordon_product,
                             class_closed_form, e8_cartan_inverse,
                             e8_cartan_matrix, e8_nahm_data,
                             feigin_fuchs_character, functional_equation_check,
                             mod16_product, module_character, nahm_sum,
                             quasiparticle_chi, P_of_t_q)
from qvir.partitions import CLASSES, count_table
from qvir.polyfamilies import limit_series
from qvir.qseries import QSeries, q_product


def coeffs(s, n):
    return [s.coefficient(i) for i in range(n)]


def inv_poch(n, trunc):
    """1/(q)_n mod q^trunc, independent of divided_sum."""
    return q_product(trunc, ((j, -1, -1) for j in range(1, n + 1)))


# -- Feigin-Fuchs ------------------------------------------------------------

def euler_sum_oracle(trunc):
    # independent route for the vacuum character
    out = QSeries.zero(trunc)
    m = 0
    while 2 * m * m < trunc:
        out = out + inv_poch(2 * m, trunc - 2 * m * m).shift(2 * m * m)
        m += 1
    return out


def test_feigin_fuchs_34_low_coefficients():
    ff = feigin_fuchs_character(MinimalModelLabel(3, 4), 8)
    assert coeffs(ff, 8) == [1, 0, 1, 1, 2, 2, 3, 3]
    assert ff.equal_mod(euler_sum_oracle(8))


def test_feigin_fuchs_25_rogers_ramanujan():
    # parts not congruent to 0, +-1 mod 5
    ff = feigin_fuchs_character(MinimalModelLabel(2, 5), 6)
    assert coeffs(ff, 6) == [1, 0, 1, 1, 1, 1]
    assert ff.equal_mod(andrews_gordon_product(2, 6))


def test_feigin_fuchs_constant_term():
    for p, pp in ((2, 3), (2, 5), (3, 4), (3, 5), (4, 5)):
        assert feigin_fuchs_character(MinimalModelLabel(p, pp), 3).coefficient(0) == 1


def test_label_validation():
    with pytest.raises(ValueError):
        MinimalModelLabel(3, 6)
    with pytest.raises(ValueError):
        MinimalModelLabel(4, 3)
    assert MinimalModelLabel(3, 4).central_charge == F(1, 2)
    assert MinimalModelLabel(2, 5).central_charge == F(-22, 5)


# -- the four classical expressions -----------------------------------------

def test_alt_expression_euler_low():
    assert coeffs(alt_expression("Euler", 8), 8) == [1, 0, 1, 1, 2, 2, 3, 3]


def test_fermion_half_has_integer_exponents():
    s = alt_expression("FermionHalf", 9)
    assert s.denom == 1
    assert s.coefficient(F(1, 2)) == 0


def test_four_expressions_agree():
    n = 60
    exprs = [alt_expression(w, n) for w in ALT_EXPRESSIONS]
    for other in exprs[1:]:
        assert exprs[0].equal_mod(other, n)


def test_quasiparticle_sum():
    qp = quasiparticle_chi(8)
    assert coeffs(qp, 8) == [1, 0, 1, 1, 2, 2, 3, 3]
    assert quasiparticle_chi(60).equal_mod(alt_expression("Euler", 60))
    assert quasiparticle_chi(60).equal_mod(
        feigin_fuchs_character(MinimalModelLabel(3, 4), 60))


# -- Nahm sums ---------------------------------------------------------------

def test_nahm_rogers_ramanujan():
    s = nahm_sum(NahmData([[2]]), 6)
    assert coeffs(s, 6) == [1, 1, 1, 1, 2, 2]


def test_nahm_sum_at_a_fractional_order():
    # each case has one walk term at q^e, the only one reaching q^e, with
    # floor(D n) = D e < D n for D the common denominator of the exponents
    for data, n, e in ((NahmData([[6]]), F(7, 2), 3),
                       (NahmData([[2]], [0], F(1, 2)), F(7, 4), F(3, 2))):
        assert nahm_sum(data, n) == nahm_sum(data, n.numerator).truncate(n)
        assert nahm_sum(data, n).coefficient(e) == 1


def test_nahm_requires_positive_definite():
    with pytest.raises(NotPositiveDefinite):
        NahmData([[1, 2], [2, 1]])
    with pytest.raises(NotPositiveDefinite):
        NahmData([[0]])


def test_nahm_walk_rejects_a_negative_entry():
    # the walk prunes on a growing exponent, which needs A, B, C >= 0; a
    # positive definite A with a negative entry is refused before any walk
    for data in (NahmData([[3, -1], [-1, 3]]), NahmData([[2]], [-1]),
                 NahmData([[2, 1], [1, 2]], [0, F(-1, 2)]), NahmData([[2]], [0], F(-1, 3))):
        with pytest.raises(ValueError, match="nonnegative"):
            characters._nahm_terms(data, F(8))
        with pytest.raises(ValueError, match="nonnegative"):
            nahm_sum(data, 8)


@pytest.mark.parametrize("n", [1, F(7, 3), 5, F(17, 2), 12], ids=str)
def test_nahm_sum_matches_a_brute_force_box(n):
    # the direct definition, each divisor one q_product, summed over a box
    # that holds every exponent below the order
    A, B, C = [[3, 1], [1, 2]], [F(1, 2), F(1, 3)], F(1, 6)
    brute = QSeries.zero(n)
    for k1 in range(8):
        for k2 in range(8):
            e = F(3 * k1 * k1 + 2 * k1 * k2 + 2 * k2 * k2, 2) + B[0] * k1 + B[1] * k2 + C
            if e < n:
                inv = q_product(n - e, ((j, -1, -1) for k in (k1, k2) for j in range(1, k + 1)))
                brute = brute + inv.shift(e)
    got = nahm_sum(NahmData(A, B, C), n)
    assert got == brute and got.trunc == n
    assert got.denom == brute.denom == 6


def test_e8_cartan_inverse_is_integral_inverse():
    c = e8_cartan_matrix()
    inv = e8_cartan_inverse()
    n = 8
    for i in range(n):
        for j in range(n):
            s = sum(c[i][k] * inv[k][j] for k in range(n))
            assert s == (1 if i == j else 0)


def test_e8_cartan_inverse_raises_unless_integral(monkeypatch):
    # 2 I has determinant 256, so its inverse is not integral
    monkeypatch.setattr(characters, "e8_cartan_matrix",
                        lambda: [[2 if i == j else 0 for j in range(8)] for i in range(8)])
    with pytest.raises(ArithmeticError):
        e8_cartan_inverse()


def test_e8_nahm_sum_equals_character():
    lhs = nahm_sum(e8_nahm_data(), 12)
    rhs = feigin_fuchs_character(MinimalModelLabel(3, 4), 12)
    assert lhs.equal_mod(rhs, 12)


def gordon_data(s):
    """The (s-1)x(s-1) matrix 2 min(i, j) with shift vector (1, 2, ..., s-1),
    whose Nahm sum is the Andrews-Gordon product."""
    size = range(1, s)
    return NahmData([[2 * min(i, j) for j in size] for i in size], list(size))


@pytest.mark.parametrize("s", [2, 3, 4])
def test_andrews_gordon_identity(s):
    lhs = nahm_sum(gordon_data(s), 30)
    rhs = andrews_gordon_product(s, 30)
    assert lhs.equal_mod(rhs, 30)


def test_andrews_gordon_low_coefficients():
    ag = andrews_gordon_product(2, 6)
    assert coeffs(ag, 6) == [1, 0, 1, 1, 1, 1]
    assert ag.coefficient(0) == 1


# -- module characters -------------------------------------------------------

def test_v_sixteenth_classical_counts_distinct_parts():
    s = module_character("V_sixteenth", "Classical", 5)
    assert coeffs(s, 5) == [1, 1, 1, 2, 2]


def test_v_half_lowest_term():
    s = module_character("V_half", "Classical", 3)
    assert s.order() == F(1, 2)
    assert s.coefficient(F(1, 2)) == 1


def test_module_identities_mod_50():
    for which in MODULES:
        a = module_character(which, "Classical", 50)
        b = module_character(which, "New", 50)
        assert a.equal_mod(b, 50), which


def test_classical_sum_forms():
    # q^(1/2) sum_k q^(2k^2+2k)/(q)_(2k+1), the half sector's S limit, and
    # sum_k q^(k(k+1)/2)/(q)_k, a 1x1 Nahm sum, against the product sides
    n = 25
    assert limit_series("half", n - F(1, 2)).shift(F(1, 2)).equal_mod(
        module_character("V_half", "Classical", n))
    assert nahm_sum(NahmData([[1]], [F(1, 2)]), n).equal_mod(
        module_character("V_sixteenth", "Classical", n))


def test_v0_variants_both_match_product_side():
    # two printed brackets for the vacuum double sum; both equal the
    # half-sum product expression
    assert quasiparticle_chi(40).equal_mod(alt_expression("FermionHalf", 40))
    assert module_character("V0", "New", 40).equal_mod(
        alt_expression("FermionHalf", 40))


def test_mod16_product_equals_quintuple():
    assert mod16_product(60).equal_mod(alt_expression("QuintupleProduct", 60))


# -- two-variable series -----------------------------------------------------

def test_class_A_at_t0_is_one():
    A = class_closed_form("A", 20)
    assert A.t_component(0) == QSeries.one(20)


def test_class_B_lowest_term():
    B = class_closed_form("B", 10)
    assert min(B.parts) == 1
    assert B.t_component(1).order() == 2


def test_class_E_lowest_term():
    E = class_closed_form("E", 12)
    assert min(E.parts) == 3
    assert E.t_component(3).order() == 8


def brute_quasiparticle(trunc, bracket, linear=(0, 0), offset=0, t_base=0):
    """{(t-degree, q-exponent): coefficient} of the sum over k1, k2 >= 0 of
    t^(t_base + 2k1 + k2) bracket(k1, k2) q^(4k1^2 + 3k1k2 + k2^2 + l1 k1 +
    l2 k2 + offset) / ((q)_k1 (q)_k2) below q^trunc, by a plain double loop;
    1/(q)_k counts partitions into parts <= k."""
    def parts_at_most(k):
        c = [1] + [0] * (trunc - 1)
        for j in range(1, k + 1):
            for i in range(j, trunc):
                c[i] += c[i - j]
        return c

    out = {}
    for k1 in range(trunc):
        for k2 in range(trunc):
            e = 4 * k1 * k1 + 3 * k1 * k2 + k2 * k2 + linear[0] * k1 + linear[1] * k2 + offset
            if e >= trunc:
                continue
            c1, c2 = parts_at_most(k1), parts_at_most(k2)
            for (a, b, c), x in bracket:
                for i in range(trunc):
                    for j in range(trunc - i):
                        x_exp = e + a * k1 + b * k2 + c + i + j
                        if x_exp < trunc:
                            key = (t_base + 2 * k1 + k2, x_exp)
                            out[key] = out.get(key, 0) + x * c1[i] * c2[j]
    return {key: c for key, c in out.items() if c}


def tq_terms(s):
    return {(m, e): c for m, comp in s.parts.items() for e, c in comp.terms()}


def t1_terms(brute):
    out = {}
    for (_, e), c in brute.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("trunc", [1, 6, 25])
def test_quasiparticle_sums_match_a_plain_double_loop(trunc):
    one = [((0, 0, 0), 1)]
    assert tq_terms(P_of_t_q(trunc)) == brute_quasiparticle(
        trunc, [((0, 0, 0), 1), ((1, 0, 0), -1), ((1, 1, 0), 1)])
    for which, bracket, linear, offset in (
            ("V0", [((0, 0, 0), 1), ((4, 2, 1), -1)], (0, 0), 0),
            ("V_half", [((0, 0, 0), 1), ((8, 4, 6), -1)], (2, 0), F(1, 2)),
            ("V_sixteenth", [((1, 1, 0), 1), ((4, 1, 1), 1)], (0, 0), 0)):
        got = module_character(which, "New", trunc)
        assert got.trunc == trunc
        assert dict(got.terms()) == t1_terms(brute_quasiparticle(trunc, bracket, linear, offset))
    for which, t_base, offset, linear in (("A", 0, 0, (2, 2)), ("B", 1, 2, (5, 3)),
                                          ("C", 2, 5, (9, 4)), ("D", 2, 4, (8, 4)),
                                          ("E", 3, 8, (11, 5))):
        got = class_closed_form(which, trunc)
        assert got.trunc == trunc
        assert tq_terms(got) == brute_quasiparticle(trunc, one, linear, offset, t_base)


@pytest.mark.parametrize("which", CLASSES)
def test_class_sum_counts_the_class(which):
    # the classes come from the walk in partitions, which reads no sum
    n = 40
    counted = {(m, e): c for (e, m), c in count_table(n)[which].items()}
    assert counted
    assert tq_terms(class_closed_form(which, n + 1)) == counted


def test_class_name_outside_the_five_raises():
    for bad in ("F", "a", "P", ""):
        with pytest.raises(ValueError):
            class_closed_form(bad, 5)


def test_P_equals_sum_of_classes():
    n = 40
    P = P_of_t_q(n)
    total = {}
    for w in CLASSES:
        f = class_closed_form(w, n)
        assert f.trunc == P.trunc == n
        for key, c in tq_terms(f).items():
            total[key] = total.get(key, 0) + c
    assert tq_terms(P) == {key: c for key, c in total.items() if c}


def test_P_t1_specialization():
    assert P_of_t_q(60).specialize_t1().equal_mod(quasiparticle_chi(60))


def test_P_coefficient_t2_q4():
    assert P_of_t_q(6).t_component(2).coefficient(4) == 1


def test_functional_equations():
    rep = functional_equation_check(40)
    assert rep["passed"]
    for w in CLASSES + ("P",):
        assert rep[w]["passed"], (w, rep[w])
    assert all(rep["initial_conditions"].values())


def test_bigraded_character():
    bg = P_of_t_q(30).bigrade()
    # the unique weight-2 state sits in filtration degree 0
    assert bg.t_component(0).coefficient(2) == 1
    assert bg.specialize_t1().equal_mod(quasiparticle_chi(30))
    for m, comp in bg.parts.items():
        assert m >= 0
        for e, c in comp.terms():
            assert c.denominator == 1 and c >= 0


def test_tq_nonnegative_integer_coefficients():
    P = P_of_t_q(30)
    for m, comp in P.parts.items():
        for _, c in comp.terms():
            assert c.denominator == 1 and c >= 0


def test_tq_json_roundtrip():
    P = P_of_t_q(12)
    d = P.to_json_dict()
    assert set(d) == {"trunc", "coeffs"} and d["trunc"] == 12
    read = {(m, F(n)): F(c) for n, row in d["coeffs"] for m, c in row}
    assert read == tq_terms(P)


def test_every_character_sum_goes_through_divided_sum(monkeypatch):
    import qvir.qseries as qs
    calls = []
    real = qs.divided_sum

    def spy(trunc, terms):
        calls.append(trunc)
        return real(trunc, terms)

    monkeypatch.setattr(qs, "divided_sum", spy)
    monkeypatch.setattr(characters, "divided_sum", spy)
    for build in (lambda: nahm_sum(e8_nahm_data(), 6), lambda: limit_series("vac", 6),
                  lambda: feigin_fuchs_character(MinimalModelLabel(3, 4), 6),
                  lambda: alt_expression("BGG", 6)):
        calls.clear()
        build()
        assert calls == [6]
    calls.clear()
    P = P_of_t_q(6)
    assert calls == [6] * len(P.parts) and len(P.parts) > 1
