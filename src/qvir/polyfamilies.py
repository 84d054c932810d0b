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

One route evaluates both sides.  ``_terms`` lists a side as terms
(exponent, sign, pairs), each sign q^exponent times the product of the
q-binomials [m, k] over its pairs (m, k): one pair a term for S_n, two for
T_n.  ``_evaluate`` takes term lists to their values at q = B = 2^(8w)
(Kronecker substitution): ``qseries.pascal_rows`` builds every row by the
q-Pascal rule, a term is a product of rows shifted by 8w exponent bits, and
a side is the signed sum of its terms, all of it exact integer arithmetic.

Soundness.  Every q-binomial coefficient is nonnegative, so a coefficient
of a side is at most, in absolute value, the same coefficient of the sum
with every sign taken as +1, and that is at most the sum's value at q = 1,
the sum over its terms of the products of ``math.comb(m, k)`` (``_bound``).
The width w is the fewest whole bytes with 2^(8w - 1) above the bound, so
every coefficient lies strictly inside (-B/2, B/2) and is read back as a
signed base-B digit (``qseries._unpack``).  Two sides compare as integers:
the difference of two polynomials with coefficients strictly inside
(-B/2, B/2) has every coefficient strictly inside (-B, B), and such a
polynomial whose value at B is 0 is 0 (its lowest nonzero coefficient would
be a nonzero multiple of B).  A recurrence residual is a signed sum of 13
shifted values, so 13 times the largest bound of the families it reads
bounds its coefficients, and its width is taken from that.

The limit checks compare coefficients below q^t only, so ``family_poly``
builds S_n and T_n mod q^t: a coefficient below q^t of a sum, a shift or a
product reads only coefficients below q^t, so a term at q^e >= q^t is
dropped and every row is kept mod B^t; for the limit that is the
Gaussian-polynomial rule [N, y] -> 1/(q)_y (Andrews, The Theory of
Partitions, section 3.3) read coefficient by coefficient.  Values are
decoded only for what a report prints or a failure names.
"""

from __future__ import annotations

from math import comb, inf, prod

from qvir.qseries import QSeries, _slot_bytes, _unpack, pascal_rows, single_sum


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


def _terms(sector: str, side: str, n: int, slots=None) -> list:
    """S_n or T_n of the given sector as terms (exponent, sign, pairs), each
    nonzero: sign q^exponent times the product of [m, k] over its pairs; a
    term at q^slots or above is left out."""
    if sector not in SECTORS or side not in SIDES:
        raise ValueError("unknown family %r/%r" % (sector, side))
    if n < 0 or (sector != "vac" and n < 1):
        raise ValueError("n out of range for sector %r" % (sector,))
    top = inf if slots is None else slots
    if side == "S":
        (a, b), (c, d), s = _S_ROWS[sector]
        return [(a * k * k + b * k, 1, ((n - k - s, c * k + d),))
                for k in range(n + 1) if c * k + d <= n - k - s and a * k * k + b * k < top]
    (l1, l2), (s1, j1), sigma, (a, b, c), (s2, j2) = _T_ROWS[sector]
    out = []
    for k in range(0, n // 4 + 2):
        for m in range(0, max(0, n - 4 * k) // 2 + 3):
            e = 4 * k * k + 3 * k * m + m * m + l1 * k + l2 * m
            for sign, s, j, shift in ((1, s1, j1, 0), (sigma, s2, j2, a * k + b * m + c)):
                pairs = ((n - 3 * k - m - s, k), (n - 4 * k - m - s, m - j))
                if all(0 <= y <= x for x, y in pairs) and e + shift < top:
                    out.append((e + shift, sign, pairs))
    return out


def _bound(terms) -> int:
    """The value at q = 1 of the sum of the terms with every sign +1: a
    bound on the absolute value of every coefficient of their signed sum."""
    return sum(prod(comb(m, k) for m, k in pairs) for _, _, pairs in terms)


def _evaluate(term_lists, width: int, slots=None) -> list:
    """The value at q = 2^(8 width) of each list's signed sum of terms, mod
    2^(8 width slots) for slots not None; all lists read one set of rows."""
    rows = pascal_rows({p for terms in term_lists for _, _, pairs in terms for p in pairs},
                       width, slots)
    shift = 8 * width
    return [sum(sign * prod(rows[p] for p in pairs) << (shift * e)
                for e, sign, pairs in terms)
            for terms in term_lists]


def family_poly(sector: str, side: str, n: int, trunc=None) -> QSeries:
    """S_n or T_n of the given sector mod q^trunc; exact for trunc None."""
    terms = _terms(sector, side, n, trunc)
    width = _slot_bytes(_bound(terms))
    [value] = _evaluate([terms], width, trunc)
    return QSeries(_unpack(value, width, trunc), trunc)


def equality_check(sector: str, n_max: int) -> dict:
    """Exact polynomial equality S_n = T_n over the sector's whole index range,
    each pair compared as two integers at one width for the whole check.

    Every discrepancy is recorded with the first differing coefficient; the
    1/2 sector is known to disagree at the single boundary index n = 1
    (S = 0 while T = 1), which callers treat as a reportable finding.
    """
    ns = range(0 if sector == "vac" else 1, n_max + 1)
    terms = [[_terms(sector, side, n) for n in ns] for side in SIDES]
    width = _slot_bytes(max(map(_bound, terms[0] + terms[1])))
    failures = []
    for n, s, t in zip(ns, *(_evaluate(lists, width) for lists in terms)):
        if s != t:
            s, t = (QSeries(_unpack(v, width)) for v in (s, t))
            e = s.agreement(t)[1]
            failures.append({"n": n, "exponent": str(e),
                             "S": str(s.coefficient(e)), "T": str(t.coefficient(e))})
    return {"passed": not failures, "sector": sector, "n_max": n_max,
            "failures": failures}


def recurrence_residual(values, n: int, width: int) -> int:
    """The eight-term recurrence combination for the vacuum family at index n,
    at q = 2^(8 width): the sum over the rows (j, (u, v), sign) of
    ``_RECURRENCE`` of sign q^(u n + v) F_(n+j), for values[j] = F_j at that
    q."""
    return sum(sign * values[n + j] << (8 * width * (u * n + v))
               for j, (u, v), sign in _RECURRENCE)


def recurrence_check_S(n_max: int) -> dict:
    """Verify the recurrence exactly for 0 <= n <= n_max, for both families,
    each residual compared with 0 as an integer at one width for the whole
    check; ``residuals[side][n]`` is the residual at n (a zero residual
    decodes to the zero series at no cost)."""
    terms = {side: [_terms("vac", side, j) for j in range(n_max + 9)] for side in SIDES}
    width = _slot_bytes(len(_RECURRENCE) * max(_bound(t) for ts in terms.values() for t in ts))
    failures, residuals = [], {}
    for side in SIDES:
        values = _evaluate(terms[side], width)
        residuals[side] = [QSeries(_unpack(recurrence_residual(values, n, width), width))
                           for n in range(n_max + 1)]
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
    cur = family_poly(sector, "S", n, trunc)
    if not cur.equal_mod(family_poly(sector, "S", n + 1, trunc)):
        raise StabilizationNotReached(
            "sector %r not stable below q^%s at n=%d" % (sector, trunc, n))
    lim = limit_series(sector, trunc)
    side_checks = {"S": cur.equal_mod(lim),
                   "T": family_poly(sector, "T", n, trunc).equal_mod(lim)}
    return {"passed": all(side_checks.values()), "sector": sector, "n": n,
            "order": str(trunc), "sides": side_checks}
