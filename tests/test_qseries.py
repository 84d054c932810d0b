import json
import math
import random
from fractions import Fraction as F

import pytest

from conftest import gaussian, term_sum
import qvir.qseries as qs
from qvir.qseries import QSeries, _slot_bytes, divided_sum, pascal_rows, q_product


def series(pairs, trunc=None):
    """The series with the given (exponent, coefficient) pairs, on the grid of
    their exponents."""
    pairs = [(F(e), c) for e, c in dict(pairs).items()]
    d = math.lcm(1, *(e.denominator for e, _ in pairs))
    return QSeries({int(e * d): c for e, c in pairs}, trunc, d)


def poch(n):
    """The exact polynomial (q)_n, of degree n(n+1)/2, as one q_product."""
    return QSeries(q_product(n * (n + 1) // 2 + 1, ((j, -1, 1) for j in range(1, n + 1))).coeffs)


def poch_inf(trunc):
    """(q)_infinity mod q^trunc, as one q_product."""
    return q_product(trunc, ((j, -1, 1) for j in range(1, trunc + 1)))


def inv_poch(n, trunc):
    """1/(q)_n mod q^trunc, independent of divided_sum."""
    return q_product(trunc, ((j, -1, -1) for j in range(1, n + 1)))


def times(a, b, order=None):
    """{e: c} of the product of a map {e: c} and a series or map, below
    q^order, by the definition."""
    return term_sum([(c, e, b) for e, c in a.items()], order)


def test_mul_geometric_inverse():
    # (1 - q) times the geometric series 1/(1 - q), as two terms over (q)_1
    assert divided_sum(10, [(0, 1, (1,)), (1, -1, (1,))]) == series([(0, 1)], 10)


def test_poch2_hand_expansion():
    assert poch(2) == series([(0, 1), (1, -1), (2, -1), (3, 1)])


def test_a_product_of_two_series_raises():
    # a series does no arithmetic at all: products are built by q_product
    # and divided_sum
    a = series([(0, 1), (1, -1)], trunc=5)
    for b in (series([(0, 1)]), a, QSeries()):
        with pytest.raises(TypeError):
            a * b
        with pytest.raises(TypeError):
            b * a


def test_inverse_geometric():
    # 1/(q)_1 = 1/(1 - q)
    inv = divided_sum(4, [(0, 1, (1,))])
    assert inv == series([(0, 1), (1, 1), (2, 1), (3, 1)], trunc=4)


def test_inverse_of_one():
    # 1/(q)_0 = 1
    assert divided_sum(5, [(0, 1, ())]) == divided_sum(5, [(0, 1, (0, 0))]) == series([(0, 1)], 5)


def test_inverse_poch2_counts_parts_le_2():
    inv = divided_sum(5, [(0, 1, (2,))])
    assert [inv.coefficient(i) for i in range(5)] == [1, 1, 2, 2, 3]
    assert times(dict(inv.terms()), poch(2), 5) == {0: 1}


def test_pochhammer_small():
    assert poch(0) == series([(0, 1)])
    assert poch(1) == series([(0, 1), (1, -1)])
    assert poch(3) == series([(0, 1), (1, -1), (2, -1), (4, 1), (5, 1), (6, -1)])


def test_pochhammer_is_the_product_of_its_factors():
    # exact products of the binomials (1 - q^j), truncated afterwards
    for n in range(13):
        exact = {0: 1}
        for j in range(1, n + 1):
            exact = times(exact, {0: 1, j: -1})
        assert dict(poch(n).terms()) == exact and poch(n).trunc is None, n
        for t in (1, 5, F(7, 2), 400):
            got = q_product(t, ((j, -1, 1) for j in range(1, n + 1)))
            assert dict(got.terms()) == {e: c for e, c in exact.items() if e < t}, (n, t)
            assert got.trunc == t


def test_pochhammer_inf_pentagonal():
    p = poch_inf(6)
    assert [p.coefficient(i) for i in range(6)] == [1, -1, -1, 0, 0, 1]


def test_pochhammer_inf_trivial_order():
    assert poch_inf(1) == series([(0, 1)], 1)


def pentagonal_sign(n):
    # oracle: the coefficient of q^n in the infinite product by the
    # pentagonal-number expansion
    total = 0
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e == n:
                total += (-1) ** k
        k += 1
    return total if n else 1


def test_pochhammer_inf_vs_pentagonal_oracle():
    p = poch_inf(30)
    for n in range(30):
        assert p.coefficient(n) == pentagonal_sign(n)


def test_q_product_matches_factor_by_factor_products():
    # (1 + q^(1/2)) (1 - q^2) / (1 - q^3) / (1 + q^(5/2)) mod q^(13/2), with
    # factors at or above the order listed too
    t = F(13, 2)
    factors = [(F(1, 2), 1, 1), (2, -1, 1), (3, -1, -1), (F(5, 2), 1, -1),
               (F(13, 2), 1, 1), (7, -1, -1)]
    want = {0: 1}
    for e, s, p in factors[:4]:
        f = series([(0, 1), (e, s)], t)
        want = times(want, f if p == 1 else oracle_inverse(f), t)
    got = q_product(t, factors)
    assert dict(got.terms()) == want and got.denom == 2 and got.trunc == t
    assert q_product(5, []) == q_product(5, [(5, 1, 1)]) == series([(0, 1)], 5)
    with pytest.raises(ValueError):
        q_product(5, [(0, 1, 1)])


def per_term_oracle(trunc, terms):
    """{e: c} of the sum of x q^e / ((q)_k1 ... (q)_kr) mod q^trunc, one term
    at a time: each divisor one q_product, each term shifted into place."""
    t = F(trunc)
    return term_sum([(x, e, q_product(t - e, ((j, -1, -1) for k in ks for j in range(1, k + 1))))
                     for e, x, ks in terms if e < t], t)


def random_terms(rng, grid, trunc):
    """Terms on the grid 1/grid, some sharing a divisor, some at or above the
    order, some whose coefficients cancel."""
    pool = [(), (1,), (2,), (3, 1), (1, 3), (2, 2, 1), (5,)]
    terms = []
    for _ in range(rng.randint(1, 8)):
        e = F(rng.randint(0, int(trunc * grid) + 3), grid)
        x = rng.choice([1, -1, 2, F(1, 2), F(-3, 4)])
        ks = rng.choice(pool)
        terms.append((e, x, ks))
        if rng.random() < 0.3:
            terms.append((e, -x, tuple(reversed(ks))))
    return terms


@pytest.mark.parametrize("grid", [1, 2, 3])
def test_divided_sum_matches_a_per_term_oracle(grid):
    rng = random.Random(2400 + grid)
    for _ in range(40):
        trunc = rng.choice([1, 5, 9, F(17, 2), F(29, 3)])
        terms = random_terms(rng, grid, trunc)
        got = divided_sum(trunc, terms)
        assert dict(got.terms()) == per_term_oracle(trunc, terms), terms
        assert got.trunc == trunc and holds_rule(got)
        assert got.denom == math.lcm(*(F(e).denominator for e, _, _ in terms))
    assert divided_sum(7, []) == QSeries({}, 7) and divided_sum(F(7, 2), []).trunc == F(7, 2)
    # cancelling terms leave nothing, on the grid their exponents set
    cancel = divided_sum(6, [(F(1, grid), 3, (2, 1)), (F(1, grid), -3, (1, 2))])
    assert not cancel and cancel.denom == grid
    # a term at or above the order adds nothing, but sets the grid
    above = divided_sum(3, [(0, 1, (1,)), (F(3 * grid + 1, grid), 1, (1,))])
    assert above == divided_sum(3, [(0, 1, (1,))]) and above.denom == grid
    with pytest.raises(ValueError):
        divided_sum(3, [(F(-1, grid), 1, ())])


def test_divided_sum_divides_a_shared_divisor_once(monkeypatch):
    calls = []
    factor = qs._factor
    monkeypatch.setattr(qs, "_factor", lambda c, j, s, p: calls.append(j) or factor(c, j, s, p))
    terms = [(0, 1, (2, 3)), (1, 5, (3, 2)), (F(5, 2), -1, (2, 3)), (2, 1, (4,))]
    got = divided_sum(12, terms)
    # one pass over (1 - q)(1 - q^2) and (1 - q)(1 - q^2)(1 - q^3) for the
    # three terms over (q)_2 (q)_3, on the grid 1/2, and one over (q)_4
    assert sorted(calls) == sorted([2, 4, 2, 4, 6] + [2, 4, 6, 8])
    assert dict(got.terms()) == per_term_oracle(12, terms)


def test_q_binomial_examples():
    assert gaussian(4, 2) == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
    assert gaussian(5, 0) == gaussian(5, 5) == {0: 1}


def test_q_binomial_pascal_exhaustive():
    # the rule that pascal_rows does not use: [m, n] = q^(m-n) [m-1, n-1] + [m-1, n]
    for m in range(1, 21):
        for n in range(1, m + 1):
            rhs = term_sum([(1, m - n, gaussian(m - 1, n - 1)), (1, 0, gaussian(m - 1, n))])
            assert gaussian(m, n) == rhs, (m, n)


def _qbinom_by_division(m, n):
    """Reference: [m, n] as the exact quotient, one factor at a time, at the
    index asked for (no symmetry)."""
    b = [1]
    for j in range(1, n + 1):
        s = m - n + j
        f = b + [0] * s
        for i, c in enumerate(b):
            f[i + s] -= c
        g = [0] * (len(f) - j)
        for i in range(len(g)):
            g[i] = f[i] + (g[i - j] if i >= j else 0)
        b = g
    return {e: c for e, c in enumerate(b) if c}


def test_q_binomial_rows_shared_by_symmetry():
    for m in range(31):
        for n in range(m + 1):
            want = _qbinom_by_division(m, n)
            assert gaussian(m, n) == want == _qbinom_by_division(m, m - n), (m, n)
        # both pairs {n, m - n} read one entry of the Pascal list
        width = _slot_bytes(2 ** m)
        rows = pascal_rows([(m, n) for n in range(m + 1)], width)
        assert all(rows[m, n] is rows[m, m - n] for n in range(m + 1))


def test_q_binomial_mod_q_t():
    # mod q^t a q-binomial is the complete one cut below q^t, and a masked
    # Pascal row is the complete row's value mod 2^(8 width t)
    for m in range(31):
        width = _slot_bytes(2 ** m)
        rows = pascal_rows([(m, n) for n in range(m + 1)], width)
        for n in range(m + 1):
            exact = _qbinom_by_division(m, n)
            for t in (0, 1, 2, 3, 7, n * (m - n), n * (m - n) + 1, 40):
                assert gaussian(m, n, t) == {e: c for e, c in exact.items() if e < t}, (m, n, t)
                cut = pascal_rows([(m, n)], width, t)[m, n]
                assert cut == rows[m, n] % (1 << (8 * width * t)), (m, n, t)


def test_q_binomial_nonneg_and_degree():
    for m in range(21):
        for n in range(m + 1):
            b = gaussian(m, n)
            assert all(type(c) is int and c > 0 for c in b.values())
            assert max(b) == n * (m - n) and sum(b.values()) == math.comb(m, n)


def test_q_binomial_limit_is_inverse_pochhammer():
    for n, k in ((8, 3), (12, 4), (15, 2), (20, 7)):
        assert gaussian(n, k, n - k + 1) == dict(inv_poch(k, n - k + 1).terms())


def test_agreement_reports_first_mismatch():
    a = series([(0, 1), (3, 2)], trunc=6)
    b = series([(0, 1), (3, 2), (4, 1)], trunc=8)
    order, first = a.agreement(b)
    assert order == 6 and first == 4


def test_coefficient_beyond_trunc_raises():
    a = series([(0, 1)], trunc=5)
    with pytest.raises(ValueError):
        a.coefficient(5)


def test_json_roundtrip_and_schema():
    s = series([(F(1, 2), F(3, 4)), (2, -1)], trunc=F(7, 2))
    d = s.to_json_dict()
    assert set(d) == {"denom", "trunc", "coeffs"}
    assert d["denom"] == 2 and d["trunc"] == "7/2"
    assert d["coeffs"] == [["1/2", "3/4"], ["2", "-1"]]
    assert json.loads(json.dumps(d)) == d


def test_exact_flag_semantics():
    p = poch(3)
    assert p.trunc is None
    t = p.truncate(4)
    assert t.trunc == 4
    # comparing exact with truncated compares below the truncation
    assert p.agreement(t) == t.agreement(p) == (4, None) and p.agreement(p) == (None, None)
    assert p.equal_mod(t) and p != t


# -- the coefficient rule: int when integral, Fraction otherwise -------------


def holds_rule(s):
    """Every stored coefficient is an int exactly when it is integral."""
    return all((type(c) is int) == (c.denominator == 1) for c in s.coeffs.values())


def all_int(s):
    return bool(s.coeffs) and all(type(c) is int for c in s.coeffs.values())


def test_integral_results_hold_ints():
    a = series([(0, 1), (2, F(-3))], trunc=7)
    half = series([(0, F(1, 2)), (F(1, 2), F(3, 2))], trunc=6)
    assert all_int(a) and all_int(QSeries({0: F(4, 2), 3: 5})) and holds_rule(half)
    assert all_int(divided_sum(10, [(0, 1, (3,))])) and all_int(divided_sum(F(7, 2), [(0, 1, (3,))]))
    assert all_int(divided_sum(10, [(F(1, 2), F(1, 2), (2,)), (F(1, 2), F(3, 2), (2,))]))
    assert series([(0, 1)]).coefficient(0) == 1 and type(poch(2).coefficient(5)) is int


def random_mixed(rng, trunc, denom):
    """Coefficients drawn as ints, integral Fractions and true Fractions."""
    coeffs = {}
    for k in range(trunc * denom):
        r = rng.random()
        if r < 0.2:
            coeffs[k] = rng.randint(-5, 5)
        elif r < 0.35:
            coeffs[k] = F(rng.randint(-5, 5))
        elif r < 0.5:
            coeffs[k] = F(rng.randint(-5, 5), rng.randint(2, 4))
    coeffs[0] = rng.choice([1, -1, 2, F(3), F(-2, 3)])
    return QSeries(coeffs, trunc, denom)


def oracle_inverse(a):
    """Fraction-only power-series inverse on a's grid, below its trunc."""
    c = {k: F(x) for k, x in a.coeffs.items()}
    n = -(-a.trunc.numerator * a.denom // a.trunc.denominator)
    inv = {}
    for k in range(n):
        s = F(1 if k == 0 else 0) - sum((c.get(j, F(0)) * inv[k - j] for j in range(1, k + 1)), F(0))
        inv[k] = s / c[0]
    return {F(k, a.denom): x for k, x in inv.items() if x}


def test_mixed_products_and_inverses_match_fraction_oracle():
    rng = random.Random(3116)
    for _ in range(30):
        da = rng.choice([1, 2, 16])
        a = random_mixed(rng, rng.randint(1, 4), da)
        assert holds_rule(a)
        # a product and a division by (1 + s q^e) on a's grid, against the
        # factor itself and the general inverse
        e, s = F(rng.randint(1, 4 * da), da), rng.choice([1, -1])
        f = series([(0, 1), (e, s)], a.trunc)
        for p, want in ((1, dict(f.terms())), (-1, oracle_inverse(f))):
            got = q_product(a.trunc, [(e, s, p)])
            assert dict(got.terms()) == want and holds_rule(got)


def test_int_and_fraction_coefficients_are_interchangeable():
    for denom in (1, 2, 16):
        a = QSeries({0: 3, 5: -2, 7: F(1, 2)}, trunc=4, denom=denom)
        b = QSeries({0: F(3), 5: F(-4, 2), 7: F(1, 2)}, trunc=4, denom=denom)
        assert a == b
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_integer_polynomials_never_see_fractions(monkeypatch):
    # structural guard, not a timing: a Fraction default in a loop or a
    # constructor would bring the slow path back without changing any value,
    # so check what reaches QSeries.__init__ as well as what it stores
    from qvir.characters import (MODULES, P_of_t_q, bigrade, class_closed_form,
                                  module_character)
    from qvir.partitions import CLASSES
    from qvir.polyfamilies import family_poly
    handed = set()
    init = QSeries.__init__

    def spy(self, coeffs=None, trunc=None, denom=1):
        handed.update(type(c) for c in (coeffs or {}).values())
        init(self, coeffs, trunc, denom)

    monkeypatch.setattr(QSeries, "__init__", spy)
    built = [family_poly(sector, "T", 20) for sector in ("vac", "half", "sixteenth")]
    built += [poch(30), poch_inf(40)]
    built += [module_character(w, side, 12) for w in MODULES for side in ("Classical", "New")]
    P = P_of_t_q(12)
    tables = [P, bigrade(P)] + [class_closed_form(w, 12) for w in CLASSES]
    assert handed == {int}
    assert all(all_int(s) for s in built)
    assert all(t and all(type(c) is int for c in t.values()) for t in tables)
