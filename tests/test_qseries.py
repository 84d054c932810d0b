import json
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from conftest import gaussian, series_map, term_sum
import qvir.qseries as qs
from qvir.qseries import QSeries, _slot_bytes, divided_sum, pascal_rows, q_product


def series(pairs, trunc=None, offset=0):
    """The series with the coefficient c at q^(offset + k) for each of the
    (k, c) pairs."""
    return QSeries(dict(pairs), trunc, offset)


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
    assert times(inv.coeffs, poch(2), 5) == {0: 1}


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
        assert poch(n).coeffs == exact and poch(n).trunc is None, n
        for t in (0, 1, 5, 400):
            got = q_product(t, ((j, -1, 1) for j in range(1, n + 1)))
            assert got.coeffs == {e: c for e, c in exact.items() if e < t}, (n, t)
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
    # (1 + q) (1 - q^2) / (1 - q^3) / (1 + q^5) mod q^13, with factors at or
    # above the order listed too
    t = 13
    factors = [(1, 1, 1), (2, -1, 1), (3, -1, -1), (5, 1, -1), (13, 1, 1), (14, -1, -1)]
    want = {0: 1}
    for e, s, p in factors[:4]:
        f = series([(0, 1), (e, s)], t)
        want = times(want, f if p == 1 else oracle_inverse(f), t)
    got = q_product(t, factors)
    assert got.coeffs == want and got.offset == 0 and got.trunc == t
    assert q_product(5, []) == q_product(5, [(5, 1, 1)]) == series([(0, 1)], 5)
    with pytest.raises(ValueError):
        q_product(5, [(0, 1, 1)])
    # the exponents are integers: a product starts at q^0 on the integer grid
    for p in (1, -1):
        with pytest.raises(TypeError):
            q_product(5, [(F(1, 2), 1, p)])


def per_term_oracle(trunc, terms, offset=0):
    """{e: c} of q^offset times the sum of x q^e / ((q)_k1 ... (q)_kr) mod
    q^trunc, one term at a time: each divisor one q_product, each term
    shifted into place, in q-units."""
    return term_sum([(x, offset + e, q_product(trunc, ((j, -1, -1) for k in ks
                                                       for j in range(1, k + 1))))
                     for e, x, ks in terms], trunc)


def random_terms(rng, trunc):
    """Terms with integer exponents, some sharing a divisor, some at or above
    the order, some whose coefficients cancel."""
    pool = [(), (1,), (2,), (3, 1), (1, 3), (2, 2, 1), (5,)]
    terms = []
    for _ in range(rng.randint(1, 8)):
        e = rng.randint(0, trunc + 3)
        x = rng.choice([1, -1, 2, -3])
        ks = rng.choice(pool)
        terms.append((e, x, ks))
        if rng.random() < 0.3:
            terms.append((e, -x, tuple(reversed(ks))))
    return terms


@pytest.mark.parametrize("denom", [1, 2, 3])
def test_divided_sum_matches_a_per_term_oracle(denom):
    # at the offset 1/denom mod 1: 0, 1/2 and 1/3
    offset = F(1, denom) % 1
    rng = random.Random(2400 + denom)
    for _ in range(40):
        trunc = rng.choice([0, 1, 5, 9, 17])
        terms = random_terms(rng, trunc)
        got = divided_sum(trunc, terms, offset)
        assert series_map(got) == per_term_oracle(trunc, terms, offset), terms
        assert got.trunc == trunc and got.offset == offset
        assert all(type(c) is int for c in got.coeffs.values())
    assert divided_sum(7, [], offset) == QSeries({}, 7, offset)
    # cancelling terms leave nothing
    cancel = divided_sum(6, [(1, 3, (2, 1)), (1, -3, (1, 2))], offset)
    assert not cancel and cancel.offset == offset
    # a term at or above the order adds nothing
    above = divided_sum(3, [(0, 1, (1,)), (3, 1, (1,))], offset)
    assert above == divided_sum(3, [(0, 1, (1,))], offset)
    with pytest.raises(ValueError, match="negative"):
        divided_sum(3, [(-1, 1, ())], offset)
    # an exponent off the integer grid puts the terms in two classes mod 1
    for e in (F(1, 2), F(7, denom + 1)):
        with pytest.raises(ValueError, match="more than one class mod 1"):
            divided_sum(9, [(0, 1, ()), (e, 1, (1,))], offset)


def test_divided_sum_divides_a_shared_divisor_once(monkeypatch):
    calls = []
    factor = qs._factor
    monkeypatch.setattr(qs, "_factor", lambda c, j, s, p: calls.append(j) or factor(c, j, s, p))
    terms = [(0, 1, (2, 3)), (1, 5, (3, 2)), (3, -1, (2, 3)), (2, 1, (4,))]
    got = divided_sum(12, terms)
    # one pass over (1 - q)(1 - q^2) and (1 - q)(1 - q^2)(1 - q^3) for the
    # three terms over (q)_2 (q)_3, and one over (q)_4
    assert sorted(calls) == sorted([1, 2, 1, 2, 3] + [1, 2, 3, 4])
    assert series_map(got) == per_term_oracle(12, terms)


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
        assert gaussian(n, k, n - k + 1) == inv_poch(k, n - k + 1).coeffs


def test_agreement_reports_first_mismatch():
    a = series([(0, 1), (3, 2)], trunc=6)
    b = series([(0, 1), (3, 2), (4, 1)], trunc=8)
    order, first = a.agreement(b)
    assert order == 6 and first == 4


def test_series_at_an_offset_read_in_q_units():
    # q^(1/2) (1 + 2 q^3) mod q^6 against q^(1/2) (1 + 2 q^3 + q^4) mod q^8
    a = series([(0, 1), (3, 2)], trunc=6, offset=F(1, 2))
    b = series([(0, 1), (3, 2), (4, 1)], trunc=8, offset=F(1, 2))
    assert a.agreement(b) == (6, F(9, 2)) and a.order() == F(1, 2)
    assert a.coefficient(F(7, 2)) == 2 and a.coefficient(3) == 0 == a.coefficient(-1)
    assert repr(a) == "QSeries(1*q^1/2 + 2*q^7/2 + O(q^6))"
    # series at two offsets share no exponent
    with pytest.raises(ValueError):
        a.agreement(series([(0, 1)], trunc=6))
    for bad in (-F(1, 2), 1, F(3, 2)):
        with pytest.raises(ValueError):
            series([(0, 1)], offset=bad)


def test_coefficient_beyond_trunc_raises():
    a = series([(0, 1)], trunc=5)
    with pytest.raises(ValueError):
        a.coefficient(5)


def test_json_roundtrip_and_schema():
    s = series([(0, 3), (2, -1), (4, 5)], trunc=4, offset=F(1, 2))
    d = s.to_json_dict()
    assert set(d) == {"denom", "trunc", "coeffs"}
    assert d["denom"] == 2 and d["trunc"] == "4"
    assert d["coeffs"] == [["1/2", "3"], ["5/2", "-1"]]
    assert json.loads(json.dumps(d)) == d
    assert series([(1, 1)]).to_json_dict() == {"denom": 1, "trunc": None,
                                               "coeffs": [["1", "1"]]}


def test_exact_flag_semantics():
    p = poch(3)
    assert p.trunc is None
    t = QSeries(p.coeffs, 4)
    assert t.trunc == 4
    # comparing exact with truncated compares below the truncation
    assert p.agreement(t) == t.agreement(p) == (4, None) and p.agreement(p) == (None, None)
    assert p.equal_mod(t) and p != t


# -- integer coefficients by construction ------------------------------------


def all_int(s):
    return bool(s.coeffs) and all(type(c) is int for c in s.coeffs.values())


def test_integral_results_hold_ints():
    assert all_int(divided_sum(10, [(0, 1, (3,))]))
    assert all_int(divided_sum(7, [(0, 1, (3,)), (2, -3, (1,))], F(1, 2)))
    assert all_int(q_product(10, [(1, 1, 1), (2, -1, -1)]))
    assert series([(0, 1)]).coefficient(0) == 1 and type(poch(2).coefficient(5)) is int


def oracle_inverse(a):
    """Fraction-only power-series inverse of a series at the offset 0, below
    its trunc."""
    c = {k: F(x) for k, x in a.coeffs.items()}
    inv = {}
    for k in range(a.trunc):
        s = F(1 if k == 0 else 0) - sum((c.get(j, F(0)) * inv[k - j] for j in range(1, k + 1)), F(0))
        inv[k] = s / c[0]
    return {k: x for k, x in inv.items() if x}


def test_mixed_products_and_inverses_match_fraction_oracle():
    # a product and a division by (1 + s q^e), against the factor itself and
    # the general inverse in Fractions
    rng = random.Random(3116)
    for _ in range(30):
        t, e, s = rng.randint(1, 40), rng.randint(1, 12), rng.choice([1, -1])
        f = series([(0, 1), (e, s)], t)
        for p, want in ((1, f.coeffs), (-1, oracle_inverse(f))):
            got = q_product(t, [(e, s, p)])
            assert got.coeffs == want and all(type(c) is int for c in got.coeffs.values())


def test_int_and_fraction_coefficients_are_interchangeable():
    # a series holds ints, but its equality and JSON do not depend on
    # whether a caller hands 3 or Fraction(3)
    for offset in (0, F(1, 2)):
        a = QSeries({0: 3, 1: -2, 7: 1}, trunc=4, offset=offset)
        b = QSeries({0: F(3), 1: F(-4, 2), 7: F(1, 2)}, trunc=4, offset=offset)
        assert a == b
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_integer_polynomials_never_see_fractions(monkeypatch):
    # structural guard, not a timing: a Fraction default in a loop or a
    # constructor would bring the slow path back without changing any value,
    # so check what reaches QSeries.__init__ in the whole default battery:
    # ints only, at the offset 0 or, for the two V_half sides, 1/2
    from qvir.characters import P_of_t_q, bigrade, class_closed_form
    from qvir.cli import RunConfig, run_all
    from qvir.partitions import CLASSES
    handed, offsets = set(), Counter()
    init = QSeries.__init__

    def spy(self, coeffs=None, trunc=None, offset=0):
        handed.update(type(c) for c in (coeffs or {}).values())
        offsets[offset] += 1
        init(self, coeffs, trunc, offset)

    monkeypatch.setattr(QSeries, "__init__", spy)
    assert run_all(RunConfig())[-1]["passed"]
    assert handed == {int}
    assert set(offsets) == {0, F(1, 2)} and offsets[F(1, 2)] == 2
    P = P_of_t_q(12)
    tables = [P, bigrade(P)] + [class_closed_form(w, 12) for w in CLASSES]
    assert all(t and all(type(c) is int for c in t.values()) for t in tables)
