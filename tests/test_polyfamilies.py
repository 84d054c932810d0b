import random
from fractions import Fraction as F

import pytest

from conftest import gaussian, term_sum
import qvir.polyfamilies as pf
import qvir.qseries as qs
from qvir.characters import alt_expression, module_character
from qvir.polyfamilies import (SECTORS, SIDES, StabilizationNotReached, equality_check,
                               family_poly, limit_check, limit_series, recurrence_check_S,
                               recurrence_residual)
from qvir.qseries import QSeries


def test_family_S_small_values():
    assert family_poly("vac", "S", 0) == QSeries({0: 1})
    assert family_poly("vac", "S", 3) == QSeries({0: 1, 2: 1})
    assert family_poly("vac", "T", 3) == QSeries({0: 1, 2: 1})


def test_family_domain():
    with pytest.raises(ValueError):
        family_poly("half", "S", 0)
    with pytest.raises(ValueError):
        family_poly("nope", "S", 1)


def test_vacuum_equality_40():
    rep = equality_check("vac", 40)
    assert rep["passed"], rep["failures"]


def test_sixteenth_equality_40():
    rep = equality_check("sixteenth", 40)
    assert rep["passed"], rep["failures"]


def test_half_equality_has_exactly_the_boundary_finding():
    # the printed 1/2-sector pair genuinely differs at n = 1: the binomial
    # sum is empty while the double sum contributes its (0, 0) term.  The
    # discrepancy is pinned here so it is reported, never silently patched.
    rep = equality_check("half", 40)
    assert not rep["passed"]
    assert rep["failures"] == [{"n": 1, "exponent": "0", "S": "0", "T": "1"}]


def test_half_equality_from_2():
    for n in range(2, 41):
        assert family_poly("half", "S", n) == family_poly("half", "T", n), n


def test_recurrence_30_both_families():
    rep = recurrence_check_S(30)
    assert rep["passed"], rep["failures"]


def test_recurrence_n0_expansion_vanishes():
    width, _ = residual_width(0)
    for side in SIDES:
        assert not recurrence_check_S(0)["residuals"][side][0]
        values = pf._evaluate([pf._terms("vac", side, j) for j in range(9)], width)
        assert recurrence_residual(values, 0, width) == 0


def test_limit_checks():
    assert limit_check("vac", 60, 30)["passed"]
    assert limit_check("half", 50, 25)["passed"]
    assert limit_check("sixteenth", 50, 25)["passed"]


def test_limit_vac_is_euler_expression():
    assert limit_series("vac", 30).equal_mod(alt_expression("Euler", 30))


def test_limit_half_matches_module_character():
    lim = term_sum([(1, F(1, 2), limit_series("half", 25))], 25)
    assert lim == dict(module_character("V_half", "Classical", 25).terms())


def test_limit_sixteenth_matches_module_character():
    assert limit_series("sixteenth", 25).equal_mod(
        module_character("V_sixteenth", "Classical", 25))


# -- the recurrence residuals as integers ---------------------------------------

def series_residual(S, n):
    """{e: c} of the recurrence combination written as a sum of shifted
    series, with (1 + q) x as x + q x: the reference for the row table in
    recurrence_residual."""
    x = term_sum([(1, 0, S(n + 3)), (-1, 0, S(n + 4))])
    y = term_sum([(1, 1, S(n + 6)), (-1, 0, S(n + 7))])
    return term_sum([(1, 4 * n + 15, S(n)),
                     (1, 2 * n + 11, x), (1, 2 * n + 12, x),
                     (-1, 3, S(n + 5)),
                     (1, 0, y), (1, 1, y), (1, 2, y),
                     (1, 0, S(n + 8))])


def residual_width(n_max):
    """The width recurrence_check_S(n_max) reads its families at, and their
    largest bound."""
    bound = max(pf._bound(pf._terms("vac", side, j)) for side in SIDES
                for j in range(n_max + 9))
    return pf._slot_bytes(13 * bound), bound


def residual_series(values, n, width):
    return qs._unpack(recurrence_residual(values, n, width), width)


def test_recurrence_rows_match_the_series_expression():
    width, _ = residual_width(12)
    for side in SIDES:
        values = pf._evaluate([pf._terms("vac", side, j) for j in range(21)], width)
        for n in range(13):
            want = series_residual(lambda j: family_poly("vac", side, j), n)
            assert not want
            assert recurrence_residual(values, n, width) == 0, (side, n)


@pytest.mark.parametrize("j", [0, 5, 11, 20])
def test_recurrence_rows_match_the_series_expression_off_the_identity(j):
    # the value of S_j read by the residuals replaced by that of S_j + q^j:
    # every residual reading it is nonzero, and the rows must still give the
    # series expression's polynomial
    width, _ = residual_width(12)

    def bent(side, n):
        p = family_poly("vac", side, n)
        return term_sum([(1, 0, p), (1, j, {0: 1})]) if n == j else p

    nonzero = 0
    for side in SIDES:
        values = pf._evaluate([pf._terms("vac", side, i) for i in range(21)], width)
        values[j] += 1 << (8 * width * j)
        for n in range(13):
            want = series_residual(lambda i: bent(side, i), n)
            nonzero += bool(want)
            assert residual_series(values, n, width) == want, (side, n)
    assert nonzero > 0


def test_S_is_summed_without_series_additions(monkeypatch):
    # the terms are summed as one integer, so the only series built is the
    # result: a sum of term series would build one per term
    built = []
    init = QSeries.__init__

    def init_spy(self, coeffs=None, trunc=None, denom=1):
        built.append(1)
        init(self, coeffs, trunc, denom)

    monkeypatch.setattr(QSeries, "__init__", init_spy)
    for n in (0, 9, 30):
        built.clear()
        family_poly("vac", "S", n)
        family_poly("half", "S", n + 1, 17)
        assert len(built) == 2, n


# -- the families mod q^t -------------------------------------------------------

@pytest.mark.parametrize("sector", SECTORS)
def test_truncated_family_is_the_exact_one_cut(sector):
    # every n <= 45, the 1/2 sector from its boundary n = 1 on, orders below,
    # inside and beyond the degree, and a fractional order
    for n in range(0 if sector == "vac" else 1, 46):
        for side in SIDES:
            exact = family_poly(sector, side, n)
            for t in (0, 1, 2, 7, 20, 31, F(51, 2), 2 * n + 1, 10 ** 4):
                got = family_poly(sector, side, n, t)
                assert got == exact.truncate(t), (sector, side, n, t)
                assert got.trunc == t


def test_limit_check_builds_only_below_the_order(monkeypatch):
    # the limit checks read coefficients below q^t, so they build no exact
    # family, keep every q-binomial row below q^t and decode no slot at q^t
    # or above
    rows, decoded = [], []
    pascal, unpack = pf.pascal_rows, pf._unpack

    def rows_spy(pairs, width, slots=None):
        out = pascal(pairs, width, slots)
        rows.append((width, slots, out))
        return out

    def unpack_spy(value, width, slots=None):
        decoded.append(slots)
        return unpack(value, width, slots)

    monkeypatch.setattr(pf, "pascal_rows", rows_spy)
    monkeypatch.setattr(pf, "_unpack", unpack_spy)
    for orders in ((20, 20, 20), (30, 25, 25), (9, 4, 13)):
        for sector, t in zip(SECTORS, orders):
            rows.clear()
            decoded.clear()
            assert limit_check(sector, 2 * t, t)["passed"]
            assert [slots for _, slots, _ in rows] == [t] * 3, (sector, t)
            assert all(v < 1 << (8 * width * t) for width, _, out in rows
                       for v in out.values()), (sector, t)
            assert decoded == [t] * 3, (sector, t)


def test_stabilization_guard():
    with pytest.raises(StabilizationNotReached):
        limit_check("vac", 4, 30)


def test_trivial_order():
    assert limit_check("vac", 4, 1)["passed"]


def test_S_nonnegative_coefficients():
    for n in range(0, 41):
        for e, c in family_poly("vac", "S", n).terms():
            assert c.denominator == 1 and c >= 0


def test_monotone_stabilization():
    # low-order coefficients freeze as n grows
    prev = family_poly("vac", "S", 58).truncate(30)
    assert family_poly("vac", "S", 59).truncate(30).equal_mod(prev)


# -- S_n and T_n by evaluation at q = 2^(8w) -----------------------------------

def poly_mul(a, b):
    """{e: c} of the product of two exact polynomials {e: c}, by the definition."""
    return term_sum([(x, i, b) for i, x in a.items()])


def series_loop_S(sector, n):
    """{e: c} of S_n summed term by term as shifted series: the reference for
    the packed evaluation in family_poly."""
    (a, b), (c, d), s = pf._S_ROWS[sector]
    return term_sum([(1, a * k * k + b * k, gaussian(n - k - s, c * k + d))
                     for k in range(n + 1)])


def series_loop_T(sector, n):
    """{e: c} of T_n summed term by term as products of series: the reference
    for the packed evaluation in family_poly."""
    (l1, l2), (s1, j1), sigma, (a, b, c), (s2, j2) = pf._T_ROWS[sector]
    terms = []
    for k in range(0, n // 4 + 2):
        for m in range(0, max(0, n - 4 * k) // 2 + 3):
            first = poly_mul(gaussian(n - 3 * k - m - s1, k), gaussian(n - 4 * k - m - s1, m - j1))
            second = poly_mul(gaussian(n - 3 * k - m - s2, k), gaussian(n - 4 * k - m - s2, m - j2))
            e = 4 * k * k + 3 * k * m + m * m + l1 * k + l2 * m
            terms += [(1, e, first), (sigma, e + a * k + b * m + c, second)]
    return term_sum(terms)


T_ORDERS = [(sector, n) for sector in SECTORS
            for n in list(range(0 if sector == "vac" else 1, 31)) + [40, 41]]


def _value(coeffs, width):
    """sum of c_e 2^(8 width e), by definition."""
    return sum(c << (8 * width * e) for e, c in coeffs.items())


def _random_maps(rng, width):
    top = (1 << (8 * width - 1)) - 1
    yield {0: top}, 1
    yield {0: -top}, 1
    yield {}, 1
    yield {0: 0}, 1
    for _ in range(40):
        slots = rng.randint(1, 60)
        coeffs = {}
        for e in range(slots):
            r = rng.random()
            if r < 0.4:
                continue  # runs of zeros
            if r < 0.6:
                coeffs[e] = rng.choice((top, -top))
            else:
                coeffs[e] = rng.randint(-top, top)
        if rng.random() < 0.5:
            coeffs[slots - 1] = rng.choice((top, -top))
        yield coeffs, slots


@pytest.mark.parametrize("width", [1, 2, 3, 5, 9])
def test_signed_digit_codec_round_trip(width):
    rng = random.Random(1000 + width)
    for coeffs, slots in _random_maps(rng, width):
        want = {e: c for e, c in coeffs.items() if c}
        assert qs._unpack(_value(coeffs, width), width, slots) == want
        # more slots than the degree read back as zeros, and no slot count
        # reads every slot
        assert qs._unpack(_value(coeffs, width), width, slots + 3) == want
        assert qs._unpack(_value(coeffs, width), width) == want


@pytest.mark.parametrize("width", [2, 3, 5, 9])
def test_codec_fails_one_byte_too_narrow(width):
    # the round-trip data reaches the edge of its slots: one byte less and
    # every map with an entry beyond the narrow slot's range misreads
    narrow = width - 1
    edge = 1 << (8 * narrow - 1)
    rng = random.Random(2000 + width)
    checked = 0
    for coeffs, slots in _random_maps(rng, width):
        if max(map(abs, coeffs.values()), default=0) < edge:
            continue
        checked += 1
        assert qs._unpack(_value(coeffs, narrow), narrow, slots) != coeffs
    assert checked > 30


def test_slot_bytes_is_the_fewest_that_hold_the_bound():
    rng = random.Random(7)
    bounds = [0, 1, 127, 128, 255, 256, 2 ** 15 - 1, 2 ** 15, 2 ** 63, 2 ** 64 - 1]
    bounds += [rng.getrandbits(rng.randint(1, 200)) for _ in range(200)]
    for bound in bounds:
        w = qs._slot_bytes(bound)
        assert 2 ** (8 * w - 1) > bound
        assert w == 1 or 2 ** (8 * (w - 1) - 1) <= bound


@pytest.mark.parametrize("sector", SECTORS)
def test_packed_S_matches_series_loop(sector):
    for sec, n in T_ORDERS:
        if sec == sector:
            assert dict(family_poly(sector, "S", n).terms()) == series_loop_S(sector, n), n


@pytest.mark.parametrize("sector", SECTORS)
def test_packed_T_matches_series_loop(sector):
    for sec, n in T_ORDERS:
        if sec == sector:
            assert dict(family_poly(sector, "T", n).terms()) == series_loop_T(sector, n), n


def one_byte_less(monkeypatch):
    """Every width polyfamilies picks made one byte narrower, but at least
    one byte."""
    width = pf._slot_bytes
    monkeypatch.setattr(pf, "_slot_bytes", lambda bound: max(1, width(bound) - 1))


def count_misread(monkeypatch, order):
    want = {(sector, side, n): family_poly(sector, side, n, order(n))
            for sector, n in T_ORDERS for side in SIDES}
    one_byte_less(monkeypatch)
    return sum(family_poly(sector, side, n, order(n)) != poly
               for (sector, side, n), poly in want.items())


def test_packed_T_fails_one_byte_too_narrow(monkeypatch):
    # the q = 1 bound sets the width of an exact family; one byte less
    # misreads some S_n or T_n (vac at n = 17, for one)
    assert count_misread(monkeypatch, lambda n: None) > 0


@pytest.mark.parametrize("t", [10, 20])
def test_truncated_T_fails_one_byte_too_narrow(monkeypatch, t):
    # mod q^(n + t) the bound of the terms below q^(n + t) sets the width;
    # cut there, below the degree of the larger vac families (n >= 9 at
    # t = 10), one byte less still misreads some S_n or T_n.  (At a fixed
    # order such as q^10 or q^20, or at the limit checks' orders, t = n / 2,
    # the coefficients below the cut are partition counts, and the bound is
    # wider than they need.)
    assert count_misread(monkeypatch, lambda n: n + t) > 0


def bend_values(monkeypatch, side, bend):
    """Make pf._evaluate add bend(n, width), an integer, to the value of the
    vacuum family `side` at index n."""
    evaluate = pf._evaluate

    def bent(term_lists, width, slots=None):
        values = evaluate(term_lists, width, slots)
        for n, terms in enumerate(term_lists):
            if terms == pf._terms("vac", side, n):
                values[n] += bend(n, width)
        return values

    monkeypatch.setattr(pf, "_evaluate", bent)


def test_equality_width_one_byte_less_miscompares(monkeypatch):
    # T_12 + D, D = q^4 - c q^3 with c = 2^(8 (w - 1)) for the check's width
    # w: D's coefficients are within the difference of two polynomials in
    # the check's bound, D vanishes at one byte less, and not at w
    n_max = 12
    bound = max(pf._bound(pf._terms("vac", side, n)) for side in SIDES
                for n in range(n_max + 1))
    c = 1 << (8 * (pf._slot_bytes(bound) - 1))
    assert 1 < c <= 2 * bound
    bend_values(monkeypatch, "T", lambda n, width: (
        _value({4: 1, 3: -c}, width) if n == n_max else 0))
    s3 = family_poly("vac", "S", n_max).coefficient(3)
    rep = equality_check("vac", n_max)
    assert rep["failures"] == [{"n": n_max, "exponent": "3", "S": str(s3),
                                "T": str(s3 - c)}]
    one_byte_less(monkeypatch)
    assert equality_check("vac", n_max)["passed"]


def test_residual_width_one_byte_less_misreads(monkeypatch):
    # the families that residual 0 reads, each moved by +-bound at slots past
    # every degree, so that all 13 rows put +bound on slot X: residual 0 has
    # the coefficient 13 bound there, which the check's width reads and one
    # byte less does not
    n_max, X = 10, 200
    width, bound = residual_width(n_max)
    moves = {}
    for j, (u, v), sign in pf._RECURRENCE:
        moves.setdefault(j, {})[X - v] = sign * bound
    assert all(max(family_poly("vac", "S", j).coeffs) < min(m) for j, m in moves.items())
    bend_values(monkeypatch, "S", lambda n, width: _value(moves.get(n, {}), width))
    rep = recurrence_check_S(n_max)
    assert rep["residuals"]["S"][0].coefficient(X) == 13 * bound
    assert rep["residuals"]["T"][0] == QSeries()
    one_byte_less(monkeypatch)
    rep = recurrence_check_S(n_max)
    assert rep["residuals"]["S"][0].coefficient(X) != 13 * bound
