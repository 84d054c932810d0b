"""Acceptance battery: every headline claim at its full stated order.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and asserts
both the mathematical content and the wall-clock budget.  A single verified
source discrepancy is pinned in criterion 7: the printed 1/2-sector pair
disagrees at the boundary index n = 1 and nowhere else.
"""

import time
from decimal import Decimal
from fractions import Fraction as F

import mpmath as mp


def _report(num, label, passed, t0):
    line = "criterion %2d: %s — %s (%.1fs)" % (num, "PASS" if passed else "FAIL",
                                               label, time.perf_counter() - t0)
    print(line)
    assert passed, line


def test_criterion_01_four_character_expressions():
    from qvir.characters import ALT_EXPRESSIONS, alt_expression
    t0 = time.perf_counter()
    exprs = [alt_expression(w, 60) for w in ALT_EXPRESSIONS]
    ok = all(exprs[0].equal_mod(e, 60) for e in exprs[1:])
    ok = ok and time.perf_counter() - t0 < 5
    _report(1, "four classical expressions agree mod q^60", ok, t0)


def test_criterion_02_quasiparticle_identity():
    from qvir.characters import alt_expression, quasiparticle_chi
    t0 = time.perf_counter()
    ok = quasiparticle_chi(60).equal_mod(alt_expression("Euler", 60), 60)
    ok = ok and time.perf_counter() - t0 < 5
    _report(2, "quasiparticle sum == Euler form mod q^60", ok, t0)


def test_criterion_03_e8_sum():
    from qvir.characters import (MinimalModelLabel, e8_nahm_data,
                                 feigin_fuchs_character, nahm_sum)
    t0 = time.perf_counter()
    lhs = nahm_sum(e8_nahm_data(), 12)
    rhs = feigin_fuchs_character(MinimalModelLabel(3, 4), 12)
    ok = lhs.equal_mod(rhs, 12) and time.perf_counter() - t0 < 60
    _report(3, "eightfold fermionic sum == vacuum character mod q^12", ok, t0)


def test_criterion_04_module_identities():
    from qvir.characters import MODULES, module_character
    t0 = time.perf_counter()
    ok = all(module_character(w, "Classical", 50).equal_mod(
        module_character(w, "New", 50), 50) for w in MODULES)
    ok = ok and time.perf_counter() - t0 < 10
    _report(4, "three module identities mod q^50 (1/2 in the half-step ring)", ok, t0)


def test_criterion_05_avoidance_counts():
    from qvir.characters import mod16_product
    from qvir.partitions import enumerate_P
    t0 = time.perf_counter()
    prod = mod16_product(61)
    ok = all(len(enumerate_P(n)) == prod.coefficient(n) for n in range(61))
    ok = ok and time.perf_counter() - t0 < 30
    _report(5, "avoiding-partition counts == mod-16 product, n <= 60", ok, t0)


def test_criterion_06_two_variable_identities():
    from qvir.characters import functional_equation_check
    from qvir.partitions import recursion_check
    t0 = time.perf_counter()
    rep = functional_equation_check(40)
    ok = rep["P"] == {"passed": True, "order": "40", "first_failure": None}
    ok = ok and rep["passed"]
    ok = ok and recursion_check(40)["passed"]
    ok = ok and time.perf_counter() - t0 < 30
    _report(6, "P == A+B+C+D+E, functional equations, count recurrences (order 40)",
            ok, t0)


def test_criterion_07_polynomial_families():
    from qvir.polyfamilies import equality_check, recurrence_check_S
    t0 = time.perf_counter()
    vac = equality_check("vac", 40)
    sixteenth = equality_check("sixteenth", 40)
    half = equality_check("half", 40)
    rec = recurrence_check_S(30)
    # verified boundary finding: the printed 1/2-sector pair differs at n=1
    # (S = 0, T = 1) under the stated binomial conventions, and nowhere else
    boundary = half["failures"] == [{"n": 1, "exponent": "0", "S": "0", "T": "1"}]
    ok = vac["passed"] and sixteenth["passed"] and boundary and rec["passed"]
    ok = ok and time.perf_counter() - t0 < 60
    print("criterion  7 finding: 1/2-sector pair differs at n=1 only "
          "(S=0, T=1); implemented verbatim and reported")
    _report(7, "family equalities n <= 40 (1/2 sector: all n except the pinned "
               "n=1 finding) and the eight-term recurrence n <= 30", ok, t0)


def test_criterion_08_hilbert_series():
    from qvir.characters import MinimalModelLabel, feigin_fuchs_character
    from qvir.diffalg import GEN_A, GEN_B, hilbert_quotient
    t0 = time.perf_counter()
    h = hilbert_quotient((GEN_A, GEN_B), 30)
    ff = feigin_fuchs_character(MinimalModelLabel(3, 4), 31)
    ok = h.equal_mod(ff, 31) and time.perf_counter() - t0 < 600
    _report(8, "quotient Hilbert series == vacuum character mod q^31", ok, t0)


def test_criterion_08_hilbert_reach(monkeypatch):
    from qvir import diffalg
    from qvir.characters import MinimalModelLabel, feigin_fuchs_character
    monkeypatch.setattr(diffalg, "_BLOCK_CACHE", {})
    t0 = time.perf_counter()
    h = diffalg.hilbert_quotient((diffalg.GEN_A, diffalg.GEN_B), 38)
    ff = feigin_fuchs_character(MinimalModelLabel(3, 4), 39)
    ok = h.equal_mod(ff, 39) and time.perf_counter() - t0 < 4
    _report(8, "quotient Hilbert series == vacuum character mod q^39, cold", ok, t0)


def test_criterion_09_leading_monomials():
    from qvir.diffalg import prop51_check, verify_derivative_formulas
    t0 = time.perf_counter()
    rep = prop51_check(5)
    der = verify_derivative_formulas(3)
    ok = rep["passed"] and not rep["findings"] and der["passed"]
    ok = ok and time.perf_counter() - t0 < 600
    _report(9, "ideal elements with prescribed leads (k <= 5 + exceptionals), "
               "derivative tables k <= 3", ok, t0)


def test_criterion_10_groebner_property():
    from qvir.diffalg import groebner_check
    t0 = time.perf_counter()
    rep = groebner_check(22)
    ok = rep["passed"] and rep["w_family_required"]
    ok = ok and time.perf_counter() - t0 < 600
    print("criterion 10 finding: the published basis list omits the w family, "
          "whose leads (e.g. %s) are not covered otherwise; verified with w included"
          % (rep["w_only_monomials"][:1],))
    _report(10, "degreewise Groebner property d <= 22, w-family coverage reported",
            ok, t0)


def test_criterion_11_virasoro():
    from qvir.characters import (MinimalModelLabel, feigin_fuchs_character)
    from qvir.diffalg import DiffPoly, hilbert_quotient
    from qvir.partitions import enumerate_P
    from qvir.virasoro import (PRINTED_SINGULAR_34, lemma_b_check,
                               quotient_graded_dims, singular_vector_check,
                               solve_singular_vector)
    t0 = time.perf_counter()
    lab = MinimalModelLabel(3, 4)
    v = solve_singular_vector(lab)
    ok = singular_vector_check(v) and v.coeffs == PRINTED_SINGULAR_34
    dims = quotient_graded_dims(lab, 15)
    ff = feigin_fuchs_character(lab, 16)
    ok = ok and dims == [int(ff.coefficient(n)) for n in range(16)]
    ok = ok and dims == [len(enumerate_P(n)) for n in range(16)]
    ok = ok and lemma_b_check()["passed"]
    a5 = DiffPoly({(2, 2, 2, 2): 1})
    b5 = DiffPoly({(5, 2, 2, 2): F(-1, 9), (4, 3, 2, 2): 1})
    h5 = hilbert_quotient((a5, b5), 21)
    ff5 = feigin_fuchs_character(MinimalModelLabel(3, 5), 22)
    diffs = [int(h5.coefficient(d) - ff5.coefficient(d)) for d in range(22)]
    first_strict = next((d for d, g in enumerate(diffs) if g > 0), None)
    ok = ok and all(g >= 0 for g in diffs) and first_strict is not None \
        and first_strict >= 19
    ok = ok and time.perf_counter() - t0 < 900
    print("criterion 11 derived value: first strict degree for the (3,5) "
          "analogue = %s" % first_strict)
    _report(11, "singular vector, quotient dimensions, degree-9 kernel identity, "
                "(3,5) defect at degree >= 19", ok, t0)


def test_criterion_11_quotient_reach():
    from qvir.characters import MinimalModelLabel, feigin_fuchs_character
    from qvir.partitions import count_table
    from qvir.virasoro import quotient_graded_dims
    t0 = time.perf_counter()
    lab = MinimalModelLabel(3, 4)
    dims = quotient_graded_dims(lab, 18)
    ff = feigin_fuchs_character(lab, 19)
    totals = [0] * 19
    for (n, _), c in count_table(18)["P"].items():
        totals[n] += c
    ok = dims == [int(ff.coefficient(n)) for n in range(19)] == totals
    ok = ok and time.perf_counter() - t0 < 2
    _report(11, "quotient dimensions to degree 18 == character == |P(n)|", ok, t0)


def test_criterion_12_dilogarithm():
    # mpmath is the reference: every Decimal result is compared with its pi
    from qvir.characters import QUASIPARTICLE_MATRIX
    from qvir.nahm import (PRECISION_DPS, printed_fixed_point, rogers_dilog,
                           solve_nahm_system)
    t0 = time.perf_counter()
    with mp.workdps(PRECISION_DPS):
        sol = solve_nahm_system(QUASIPARTICLE_MATRIX)
        Q = [mp.mpf(str(q)) for q in sol.Q]
        q1, q2 = (mp.mpf(str(q)) for q in printed_fixed_point())
        ok = abs(Q[0] - q1) < mp.mpf(10) ** -10
        ok = ok and abs(Q[1] - q2) < mp.mpf(10) ** -10
        ok = ok and abs(mp.mpf(str(sol.alpha)) - mp.pi ** 2 / 12) < mp.mpf(10) ** -10
        ok = ok and abs(mp.mpf(str(sol.effective_charge)) - mp.mpf(1) / 2) \
            < mp.mpf(10) ** -10
        for z10 in range(1, 10):
            z = Decimal(z10) / 10
            ok = ok and abs(mp.mpf(str(rogers_dilog(z))) + mp.mpf(str(rogers_dilog(1 - z)))
                            - mp.pi ** 2 / 6) < mp.mpf(10) ** -12
    ok = ok and time.perf_counter() - t0 < 1
    _report(12, "fixed point and alpha = pi^2/12 to 1e-10, reflection to 1e-12",
            ok, t0)
