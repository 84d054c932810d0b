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
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from qvir.qseries import QSeries, q_binomial, single_sum


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


def _qb(m: int, n: int) -> QSeries:
    return q_binomial(m, n) if 0 <= n <= m else QSeries.zero()


@lru_cache(maxsize=None)
def family_poly(sector: str, side: str, n: int) -> QSeries:
    """The exact polynomial S_n or T_n of the given sector."""
    if sector not in SECTORS or side not in SIDES:
        raise ValueError("unknown family %r/%r" % (sector, side))
    if n < 0 or (sector != "vac" and n < 1):
        raise ValueError("n out of range for sector %r" % (sector,))
    out = QSeries.zero()
    if side == "S":
        (a, b), (c, d), s = _S_ROWS[sector]
        k = 0
        while c * k + d <= n - k - s:
            out = out + _qb(n - k - s, c * k + d).shift(a * k * k + b * k)
            k += 1
        return out
    (l1, l2), (s1, j1), sigma, (a, b, c), (s2, j2) = _T_ROWS[sector]
    for k in range(0, n // 4 + 2):
        for m in range(0, max(0, n - 4 * k) // 2 + 3):
            first = _qb(n - 3 * k - m - s1, k) * _qb(n - 4 * k - m - s1, m - j1)
            second = _qb(n - 3 * k - m - s2, k) * _qb(n - 4 * k - m - s2, m - j2)
            term = first + (second * sigma).shift(a * k + b * m + c)
            if term:
                out = out + term.shift(4 * k * k + 3 * k * m + m * m + l1 * k + l2 * m)
    return out


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
        if s != t:
            diff = s - t
            e = min(x for x, _ in diff.terms())
            failures.append({"n": n, "exponent": str(e),
                             "S": str(s.coefficient(e)), "T": str(t.coefficient(e))})
    return {"passed": not failures, "sector": sector, "n_max": n_max,
            "failures": failures}


def recurrence_residual(side: str, n: int) -> QSeries:
    """The eight-term recurrence combination for the vacuum family at index n."""
    S = lambda j: family_poly("vac", side, j)
    one_q = QSeries.from_terms([(0, 1), (1, 1)])
    one_q_q2 = QSeries.from_terms([(0, 1), (1, 1), (2, 1)])
    return (S(n).shift(4 * n + 15)
            + (one_q * (S(n + 3) - S(n + 4))).shift(2 * n + 11)
            - S(n + 5).shift(3)
            + one_q_q2 * (S(n + 6).shift(1) - S(n + 7))
            + S(n + 8))


def recurrence_check_S(n_max: int) -> dict:
    """Verify the recurrence exactly for 0 <= n <= n_max, for both families."""
    failures = []
    for side in SIDES:
        for n in range(0, n_max + 1):
            r = recurrence_residual(side, n)
            if r:
                e = min(x for x, _ in r.terms())
                failures.append({"side": side, "n": n, "exponent": str(e),
                                 "coefficient": str(r.coefficient(e))})
    return {"passed": not failures, "n_max": n_max, "failures": failures[:5],
            "failure_count": len(failures)}


def limit_series(sector: str, trunc) -> QSeries:
    """The infinite-n limit of the S family as a truncated series."""
    exponent, index, _ = _S_ROWS[sector]
    return single_sum(trunc, exponent, index)


def limit_check(sector: str, n: int, trunc) -> dict:
    """Compare the degree-n polynomial with the limit series mod q^trunc.

    Stabilization oracle: the families at n and n+1 must already agree below
    the order; n = 2*trunc is a safe default.
    """
    t = Fraction(trunc)
    side_checks = {}
    cur = family_poly(sector, "S", n)
    nxt = family_poly(sector, "S", n + 1)
    if not cur.truncate(t).equal_mod(nxt.truncate(t)):
        raise StabilizationNotReached(
            "sector %r not stable below q^%s at n=%d" % (sector, t, n))
    lim = limit_series(sector, t)
    for side in SIDES:
        poly = family_poly(sector, side, n)
        ok = poly.truncate(t).equal_mod(lim)
        side_checks[side] = ok
    return {"passed": all(side_checks.values()), "sector": sector, "n": n,
            "order": str(t), "sides": side_checks}
