"""Finite polynomial families whose limits give the module characters.

For each sector (vacuum, 1/2, 1/16) there are two q-binomial sums S_n and
T_n; the pair is equal for every n, both satisfy one eight-term recurrence,
and the coefficients stabilize as n grows to the corresponding infinite
character series.

Both families are tables with one row per sector.  Each row is the
finitization of its limit's sum: as n grows, [n - x, y] tends to 1/(q)_y.
So the S row's sum tends to the single sum

    sum over k >= 0 of q^(a k^2 + b k) / (q)_(c k + d),

which ``limit_series`` builds from the same row, and the T row's sum tends
to a quasiparticle double sum over the matrix (8 3; 3 2).

T_n, the double sum of products of two q-binomials, is evaluated at
q = 2^(8w) (Kronecker substitution).  Each q-binomial becomes the integer
sum of c_i 2^(8w i), each term one big-integer product, a power q^e a left
shift by 8w e bits and the sign a subtraction; all terms go into one
integer, decoded once, as signed base-2^(8w) digits, into T_n.  The decoding
is exact when every coefficient of T_n lies strictly between -2^(8w - 1)
and 2^(8w - 1).  Every q-binomial coefficient is nonnegative, so in absolute
value a coefficient of T_n is at most the same coefficient of the sum with
every sign taken as +1, and that is at most the sum's value at q = 1: the
sum of the products of ordinary binomials.  The slot width w is the fewest
whole bytes with 2^(8w - 1) above that bound.
S_n is summed directly: each q-binomial row is added, coefficient by
coefficient, at its offset q^e into one map, so ``S_n == T_n`` compares two
independent computations.

The limit checks compare coefficients below q^t only, so ``family`` builds
S_n and T_n mod q^t.  A coefficient below q^t of a sum, a shift or a product
reads only coefficients below q^t, so a term at q^e >= q^t is dropped and
each q-binomial of a term at q^e is computed mod q^(t - e); for the limit
that is the Gaussian-polynomial rule [N, y] -> 1/(q)_y (Andrews, The Theory
of Partitions, section 3.3) read coefficient by coefficient.  The exact
polynomials, which the equality and recurrence checks compare, stay cached
in ``family_poly``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat

from qvir.qseries import QSeries, _qbinom_coeffs, _slots_below, single_sum


class StabilizationNotReached(ArithmeticError):
    """Raised when the finite family has not yet stabilized below the order."""


SECTORS = ("vac", "half", "sixteenth")
SIDES = ("S", "T")

# S_n = sum over k >= 0 of q^(a k^2 + b k) [n - k - s, c k + d]
# as sector: ((a, b), (c, d), s)
_S_ROWS = {
    "vac": ((2, 0), (2, 0), 0),
    "half": ((2, 2), (2, 1), 1),
    "sixteenth": ((2, 1), (2, 1), 0),
}

# T_n = sum over k, m >= 0 of q^(4k^2 + 3km + m^2 + l1 k + l2 m)
#       * (B(s1, j1) + sigma q^(a k + b m + c) B(s2, j2)),
# B(s, j) = [n - 3k - m - s, k] [n - 4k - m - s, m - j],
# as sector: ((l1, l2), (s1, j1), sigma, (a, b, c), (s2, j2))
_T_ROWS = {
    "vac": ((0, 0), (0, 0), -1, (1, 0, 0), (1, 1)),
    "half": ((2, 0), (1, 0), -1, (8, 4, 6), (5, 0)),
    "sixteenth": ((1, 1), (1, 0), 1, (3, 0, 1), (2, 0)),
}

# the eight-term recurrence
#   q^(4n+15) S_n + (1 + q) q^(2n+11) (S_(n+3) - S_(n+4)) - q^3 S_(n+5)
#     + (1 + q + q^2) (q S_(n+6) - S_(n+7)) + S_(n+8) = 0
# as one row (j, (u, v), sign) per term sign q^(u n + v) S_(n+j)
_RECURRENCE = (
    (0, (4, 15), 1),
    (3, (2, 11), 1), (3, (2, 12), 1),
    (4, (2, 11), -1), (4, (2, 12), -1),
    (5, (0, 3), -1),
    (6, (0, 1), 1), (6, (0, 2), 1), (6, (0, 3), 1),
    (7, (0, 0), -1), (7, (0, 1), -1), (7, (0, 2), -1),
    (8, (0, 0), 1),
)


@lru_cache(maxsize=None)
def family_poly(sector: str, side: str, n: int) -> QSeries:
    """The exact polynomial S_n or T_n of the given sector."""
    return family(sector, side, n)


def family(sector: str, side: str, n: int, trunc=None) -> QSeries:
    """S_n or T_n of the given sector mod q^trunc; exact for trunc None.

    Each side is a sum of shifted products of q-binomials, and truncation
    commutes with sums, shifts and products: a coefficient below q^t of
    q^e f, of f + g or of f g reads only coefficients below q^t of the
    factors.  So a term at q^e with e >= t is dropped, and each q-binomial
    of a term at q^e is needed only mod q^(t - e), which ``_qbinom_coeffs``
    computes by its exact loop with every list capped.
    """
    if sector not in SECTORS or side not in SIDES:
        raise ValueError("unknown family %r/%r" % (sector, side))
    if n < 0 or (sector != "vac" and n < 1):
        raise ValueError("n out of range for sector %r" % (sector,))
    t = None if trunc is None else Fraction(trunc)
    if side == "T":
        return _packed_T(sector, n, t)
    (a, b), (c, d), s = _S_ROWS[sector]
    slots = None if t is None else _slots_below(t, 1)
    out = {}
    k = e = 0
    while c * k + d <= n - k - s and (slots is None or e < slots):
        row = _qbinom_coeffs(n - k - s, c * k + d, None if slots is None else slots - e)
        for i, x in enumerate(row, e):
            out[i] = out.get(i, 0) + x
        k += 1
        e = a * k * k + b * k
    return QSeries(out, t)


def _slot_bytes(bound: int) -> int:
    """The fewest whole bytes w with 2^(8w - 1) > bound."""
    return bound.bit_length() // 8 + 1


def _pack(coeffs, width: int) -> int:
    """The value at q = 2^(8 width) of the polynomial with the given dense
    coefficients, each in [0, 2^(8 width)); OverflowError if one is not."""
    return int.from_bytes(b"".join(map(int.to_bytes, coeffs, repeat(width),
                                       repeat("little"))), "little")


def _unpack(value: int, width: int, slots: int) -> dict:
    """The nonzero coefficients below q^slots of the polynomial whose value at
    q = 2^(8 width) is ``value``, read as signed digits of that base.

    Slot e is read from value mod 2^(8 width (e + 1)), so the digits below
    q^slots are exact whenever each of them lies in [-2^(8 width - 1),
    2^(8 width - 1)), whatever the digits above."""
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")  # half per slot
    mask = (1 << (8 * width * slots)) - 1
    raw = ((value + bias) & mask).to_bytes(width * slots, "little")
    out = {}
    for e in range(slots):
        c = int.from_bytes(raw[e * width:(e + 1) * width], "little") - half
        if c:
            out[e] = c
    return out


def _packed_T(sector: str, n: int, t=None) -> QSeries:
    """T_n mod q^t (exact for t None) from its value at q = 2^(8 width), one
    big integer.

    Mod q^t, a term at q^e >= q^t is dropped and the q-binomials of a term at
    q^e are packed mod q^(t - e) (one row per pair, capped at the largest
    need among its terms), so the slots below q^t hold T_n's coefficients
    and only those are decoded.  The slots above q^t hold partial sums,
    which the width still bounds: every q-binomial coefficient is
    nonnegative, so a slot is at most, in absolute value, the sum over the
    terms of the products of their rows' values at q = 1, and dropping terms
    or coefficients only lowers that sum.
    """
    slots = None if t is None else _slots_below(t, 1)
    (l1, l2), (s1, j1), sigma, (a, b, c), (s2, j2) = _T_ROWS[sector]
    terms = []  # (exponent, sign, (x1, y1), (x2, y2)) for each nonzero B(s, j)
    caps = {}  # (x, y) -> the slots its row needs, None for all of them
    for k in range(0, n // 4 + 2):
        for m in range(0, max(0, n - 4 * k) // 2 + 3):
            e = 4 * k * k + 3 * k * m + m * m + l1 * k + l2 * m
            for sign, s, j, shift in ((1, s1, j1, 0), (sigma, s2, j2, a * k + b * m + c)):
                x1, y1 = n - 3 * k - m - s, k
                x2, y2 = n - 4 * k - m - s, m - j
                if 0 <= y1 <= x1 and 0 <= y2 <= x2 and (slots is None or e + shift < slots):
                    terms.append((e + shift, sign, (x1, y1), (x2, y2)))
                    for xy in ((x1, y1), (x2, y2)):
                        caps[xy] = None if slots is None else max(caps.get(xy, 0),
                                                                  slots - e - shift)
    rows = {xy: _qbinom_coeffs(*xy, cap) for xy, cap in caps.items()}
    at_one = {xy: sum(row) for xy, row in rows.items()}
    bound = 0  # the q = 1 value of the sum with every sign taken as +1
    top = 0  # the largest exponent a term reaches
    for e, _, xy1, xy2 in terms:
        bound += at_one[xy1] * at_one[xy2]
        top = max(top, e + len(rows[xy1]) + len(rows[xy2]) - 2)
    width = _slot_bytes(bound)
    packed = {xy: _pack(row, width) for xy, row in rows.items()}
    acc = 0
    for e, sign, xy1, xy2 in terms:
        p = (packed[xy1] * packed[xy2]) << (8 * width * e)
        acc = acc + p if sign > 0 else acc - p
    return QSeries(_unpack(acc, width, top + 1 if slots is None else min(top + 1, slots)), t)


def equality_check(sector: str, n_max: int) -> dict:
    """Exact polynomial equality S_n = T_n over the sector's whole index range.

    Every discrepancy is recorded with the first differing coefficient; the
    1/2 sector is known to disagree at the single boundary index n = 1
    (S = 0 while T = 1), which callers treat as a reportable finding.
    """
    start = 0 if sector == "vac" else 1
    failures = []
    for n in range(start, n_max + 1):
        s = family_poly(sector, "S", n)
        t = family_poly(sector, "T", n)
        e = s.agreement(t)[1]
        if e is not None:
            failures.append({"n": n, "exponent": str(e),
                             "S": str(s.coefficient(e)), "T": str(t.coefficient(e))})
    return {"passed": not failures, "sector": sector, "n_max": n_max,
            "failures": failures}


def recurrence_residual(side: str, n: int) -> QSeries:
    """The eight-term recurrence combination for the vacuum family at index n:
    the sum over the rows (j, (u, v), sign) of ``_RECURRENCE`` of
    sign q^(u n + v) S_(n+j), summed into one coefficient map."""
    out = {}
    for j, (u, v), sign in _RECURRENCE:
        shift = u * n + v
        for k, c in family_poly("vac", side, n + j).coeffs.items():
            out[k + shift] = out.get(k + shift, 0) + sign * c
    return QSeries(out)


def recurrence_check_S(n_max: int) -> dict:
    """Verify the recurrence exactly for 0 <= n <= n_max, for both families;
    ``residuals[side][n]`` is the residual at n."""
    failures = []
    residuals = {side: [recurrence_residual(side, n) for n in range(0, n_max + 1)]
                 for side in SIDES}
    for side in SIDES:
        for n, r in enumerate(residuals[side]):
            e = r.order()
            if e is not None:
                failures.append({"side": side, "n": n, "exponent": str(e),
                                 "coefficient": str(r.coefficient(e))})
    return {"passed": not failures, "n_max": n_max, "failures": failures[:5],
            "failure_count": len(failures), "residuals": residuals}


def limit_series(sector: str, trunc) -> QSeries:
    """The infinite-n limit of the S family as a truncated series."""
    exponent, index, _ = _S_ROWS[sector]
    return single_sum(trunc, exponent, index)


def limit_check(sector: str, n: int, trunc) -> dict:
    """Compare the degree-n polynomials with the limit series mod q^trunc.

    Stabilization oracle: the families at n and n+1 must already agree below
    the order; n = 2*trunc is a safe default.  Every family is built mod
    q^trunc, which leaves each compared coefficient exact.
    """
    t = Fraction(trunc)
    cur = family(sector, "S", n, t)
    if not cur.equal_mod(family(sector, "S", n + 1, t)):
        raise StabilizationNotReached(
            "sector %r not stable below q^%s at n=%d" % (sector, t, n))
    lim = limit_series(sector, t)
    side_checks = {"S": cur.equal_mod(lim), "T": family(sector, "T", n, t).equal_mod(lim)}
    return {"passed": all(side_checks.values()), "sector": sector, "n": n,
            "order": str(t), "sides": side_checks}
