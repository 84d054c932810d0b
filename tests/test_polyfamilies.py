import random
from fractions import Fraction as F

import pytest

import qvir.polyfamilies as pf
import qvir.qseries as qs
from qvir.characters import alt_expression, module_character
from qvir.polyfamilies import (SECTORS, SIDES, StabilizationNotReached, equality_check,
                               family, family_poly, limit_check, limit_series,
                               recurrence_check_S, recurrence_residual)
from qvir.qseries import QSeries, q_binomial


def test_family_S_small_values():
    assert family_poly("vac", "S", 0) == QSeries.one()
    assert family_poly("vac", "S", 3) == QSeries.from_terms([(0, 1), (2, 1)])
    assert family_poly("vac", "T", 3) == QSeries.from_terms([(0, 1), (2, 1)])


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
    assert not recurrence_residual("S", 0)
    assert not recurrence_residual("T", 0)


def test_limit_checks():
    assert limit_check("vac", 60, 30)["passed"]
    assert limit_check("half", 50, 25)["passed"]
    assert limit_check("sixteenth", 50, 25)["passed"]


def test_limit_vac_is_euler_expression():
    assert limit_series("vac", 30).equal_mod(alt_expression("Euler", 30))


def test_limit_half_matches_module_character():
    lim = limit_series("half", 25).shift(F(1, 2))
    assert lim.equal_mod(module_character("V_half", "Classical", 25))


def test_limit_sixteenth_matches_module_character():
    assert limit_series("sixteenth", 25).equal_mod(
        module_character("V_sixteenth", "Classical", 25))


# -- the recurrence and S_n summed into one coefficient map ---------------------

def series_residual(S, n):
    """The recurrence combination written as QSeries sums and products: the
    reference for the row table in recurrence_residual."""
    one_q = QSeries.from_terms([(0, 1), (1, 1)])
    one_q_q2 = QSeries.from_terms([(0, 1), (1, 1), (2, 1)])
    return (S(n).shift(4 * n + 15)
            + (one_q * (S(n + 3) - S(n + 4))).shift(2 * n + 11)
            - S(n + 5).shift(3)
            + one_q_q2 * (S(n + 6).shift(1) - S(n + 7))
            + S(n + 8))


def test_recurrence_rows_match_the_series_expression():
    for side in SIDES:
        for n in range(13):
            want = series_residual(lambda j: family_poly("vac", side, j), n)
            assert not want
            assert recurrence_residual(side, n) == want, (side, n)


@pytest.mark.parametrize("j", [0, 5, 11, 20])
def test_recurrence_rows_match_the_series_expression_off_the_identity(monkeypatch, j):
    # S_j replaced by S_j + q^j: every residual reading it is nonzero, and
    # the rows must still give the series expression's polynomial
    exact = pf.family_poly

    def bent(sector, side, n):
        p = exact(sector, side, n)
        return p + QSeries.q_power(j) if n == j else p

    monkeypatch.setattr(pf, "family_poly", bent)
    nonzero = 0
    for side in SIDES:
        for n in range(13):
            want = series_residual(lambda i: bent("vac", side, i), n)
            nonzero += bool(want)
            assert recurrence_residual(side, n) == want, (side, n)
    assert nonzero > 0


def test_S_is_summed_without_series_additions(monkeypatch):
    adds = []
    add = QSeries.__add__

    def add_spy(self, other):
        adds.append(1)
        return add(self, other)

    monkeypatch.setattr(QSeries, "__add__", add_spy)
    family_poly.cache_clear()
    for n in (0, 9, 30):
        family_poly("vac", "S", n)
        family("half", "S", n + 1, 17)
    assert adds == []


# -- the families mod q^t -------------------------------------------------------

@pytest.mark.parametrize("sector", SECTORS)
def test_truncated_family_is_the_exact_one_cut(sector):
    # every n <= 45, the 1/2 sector from its boundary n = 1 on, orders below,
    # inside and beyond the degree, and a fractional order
    for n in range(0 if sector == "vac" else 1, 46):
        for side in SIDES:
            exact = family_poly(sector, side, n)
            for t in (0, 1, 2, 7, 20, 31, F(51, 2), 2 * n + 1, 10 ** 4):
                got = family(sector, side, n, t)
                assert got == exact.truncate(t), (sector, side, n, t)
                assert got.trunc == t


def test_limit_check_builds_only_below_the_order(monkeypatch):
    # the limit checks read coefficients below q^t, so they build no exact
    # family polynomial, no q-binomial row with a slot at q^t or above, and
    # decode no packed slot at q^t or above
    rows, decoded = [], []
    row, unpack = qs._qbinom_row, pf._unpack

    def row_spy(m, n, cap=None):
        out = row(m, n, cap)
        rows.append(out)
        return out

    def unpack_spy(value, width, slots):
        decoded.append(slots)
        return unpack(value, width, slots)

    monkeypatch.setattr(qs, "_qbinom_row", row_spy)
    monkeypatch.setattr(pf, "_unpack", unpack_spy)
    for orders in ((20, 20, 20), (30, 25, 25), (9, 4, 13)):
        for sector, t in zip(SECTORS, orders):
            family_poly.cache_clear()
            q_binomial.cache_clear()
            rows.clear()
            decoded.clear()
            assert limit_check(sector, 2 * t, t)["passed"]
            assert family_poly.cache_info().misses == 0
            assert rows and max(map(len, rows)) <= t, (sector, t)
            assert decoded == [t], (sector, t)


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


# -- T_n by evaluation at q = 2^(8w) -------------------------------------------

def _qb(m, n):
    return q_binomial(m, n) if 0 <= n <= m else QSeries.zero()


def series_loop_T(sector, n):
    """T_n summed term by term as QSeries products: the reference for the
    packed evaluation in family_poly."""
    (l1, l2), (s1, j1), sigma, (a, b, c), (s2, j2) = pf._T_ROWS[sector]
    out = QSeries.zero()
    for k in range(0, n // 4 + 2):
        for m in range(0, max(0, n - 4 * k) // 2 + 3):
            first = _qb(n - 3 * k - m - s1, k) * _qb(n - 4 * k - m - s1, m - j1)
            second = _qb(n - 3 * k - m - s2, k) * _qb(n - 4 * k - m - s2, m - j2)
            term = first + (second * sigma).shift(a * k + b * m + c)
            if term:
                out = out + term.shift(4 * k * k + 3 * k * m + m * m + l1 * k + l2 * m)
    return out


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
        assert pf._unpack(_value(coeffs, width), width, slots) == want
        # more slots than the degree read back as zeros
        assert pf._unpack(_value(coeffs, width), width, slots + 3) == want
        dense = [rng.randint(0, (1 << (8 * width)) - 1) for _ in range(slots)]
        assert pf._pack(dense, width) == _value(dict(enumerate(dense)), width)


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
        try:
            got = pf._unpack(_value(coeffs, narrow), narrow, slots)
        except OverflowError:
            continue
        assert got != coeffs
    assert checked > 30
    with pytest.raises(OverflowError):
        pf._pack([1 << (8 * narrow)], narrow)
    with pytest.raises(OverflowError):
        pf._pack([-1], width)


def test_slot_bytes_is_the_fewest_that_hold_the_bound():
    rng = random.Random(7)
    bounds = [0, 1, 127, 128, 255, 256, 2 ** 15 - 1, 2 ** 15, 2 ** 63, 2 ** 64 - 1]
    bounds += [rng.getrandbits(rng.randint(1, 200)) for _ in range(200)]
    for bound in bounds:
        w = pf._slot_bytes(bound)
        assert 2 ** (8 * w - 1) > bound
        assert w == 1 or 2 ** (8 * (w - 1) - 1) <= bound


@pytest.mark.parametrize("sector", SECTORS)
def test_packed_T_matches_series_loop(sector):
    for sec, n in T_ORDERS:
        if sec == sector:
            assert family_poly(sector, "T", n) == series_loop_T(sector, n), n


def test_packed_T_fails_one_byte_too_narrow(monkeypatch):
    # the q = 1 bound sets the width; one byte less misreads some T_n
    # (vac at n = 17, for one) or overflows the decoder
    want = {(sector, n): family_poly(sector, "T", n) for sector, n in T_ORDERS}
    width = pf._slot_bytes
    monkeypatch.setattr(pf, "_slot_bytes", lambda bound: width(bound) - 1)
    wrong = 0
    for (sector, n), poly in want.items():
        try:
            wrong += pf._packed_T(sector, n) != poly
        except OverflowError:
            wrong += 1
    assert wrong > 0


@pytest.mark.parametrize("t", [10, 20])
def test_truncated_T_fails_one_byte_too_narrow(monkeypatch, t):
    # mod q^t the bound comes from the capped rows; one byte less still
    # misreads some T_n below q^t or overflows the decoder
    want = {(sector, n): family_poly(sector, "T", n).truncate(t) for sector, n in T_ORDERS}
    width = pf._slot_bytes
    monkeypatch.setattr(pf, "_slot_bytes", lambda bound: width(bound) - 1)
    wrong = 0
    for (sector, n), poly in want.items():
        try:
            wrong += pf._packed_T(sector, n, t) != poly
        except OverflowError:
            wrong += 1
    assert wrong > 0
