"""Exact truncated power series in q with integer coefficients.

A series is q^offset times a series with integer exponents, with
0 <= offset < 1: its coefficients sit on the integer grid from q^offset.
The characters of the module of highest weight 1/2 have the offset 1/2,
and every other series has the offset 0.  A series either carries a finite
truncation order, an integer (coefficients at exponents >= the order are
unknown), or is an exact polynomial (``trunc is None``).  A series does no
arithmetic: kernels build it and checks compare it (``agreement``,
``equal_mod``, ``==``) up to the smaller truncation order.  Exponents are
read and reported in q-units, the offset added back to the slot.

The kernels are ``q_product``, for products of (1 + s q^e)^(+-1), and
``divided_sum``, for sums of terms x q^(offset + e) / ((q)_k1 ... (q)_kr)
and the one routine that divides by the (q)_k.  Both take integer
exponents, so ``divided_sum`` refuses terms in more than one class mod 1,
and both update one integer list in place, a factor at a time.  Gaussian
binomials are integers packed slot by slot (``pascal_rows``), read back by
``_unpack``.
"""

from __future__ import annotations


class QSeries:
    """The coefficients ``coeffs[k]`` of q^(offset + k), k >= 0, nonzero ints
    below the truncation order ``trunc`` (an int, or None for an exact
    polynomial)."""

    __slots__ = ("offset", "trunc", "coeffs")

    def __init__(self, coeffs=None, trunc=None, offset=0):
        if not 0 <= offset < 1:
            raise ValueError("offset %s is not in [0, 1)" % (offset,))
        # for an int trunc, offset + k < trunc exactly when k < trunc
        coeffs = {k: c for k, c in (coeffs or {}).items() if c and (trunc is None or k < trunc)}
        if coeffs and min(coeffs) < 0:
            raise ValueError("negative exponent %s" % (offset + min(coeffs),))
        self.offset = offset
        self.trunc = trunc
        self.coeffs = coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def order(self):
        """Lowest exponent with nonzero coefficient, or None for the zero series."""
        return min(self.coeffs) + self.offset if self.coeffs else None

    def coefficient(self, e):
        """Coefficient of q^e.  Raises for exponents at or above the truncation."""
        if self.trunc is not None and e >= self.trunc:
            raise ValueError("coefficient of q^%s is unknown (trunc %s)" % (e, self.trunc))
        return self.coeffs.get(e - self.offset, 0)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.offset == other.offset and self.trunc == other.trunc
                and self.coeffs == other.coeffs)

    def agreement(self, other: "QSeries"):
        """Compare up to min(trunc); return (order, first_mismatch_exponent).

        order is the truncation up to which the comparison was performed
        (None if both series are exact polynomials).  first_mismatch_exponent
        is None when the series agree on the whole compared range.  Series
        with different offsets have no exponent in common and raise
        ``ValueError``.
        """
        if self.offset != other.offset:
            raise ValueError("series at offsets %s and %s" % (self.offset, other.offset))
        t = min((x for x in (self.trunc, other.trunc) if x is not None), default=None)
        a, b = self.coeffs, other.coeffs
        diffs = [k for k in a.keys() | b.keys()
                 if (t is None or k < t) and a.get(k, 0) != b.get(k, 0)]
        return t, min(diffs) + self.offset if diffs else None

    def equal_mod(self, other: "QSeries") -> bool:
        """True iff the series agree coefficientwise below min trunc."""
        return self.agreement(other)[1] is None

    def to_json_dict(self) -> dict:
        """The series as JSON: its exponents lie on the grid 1/denom, with
        denom the denominator of the offset."""
        return {
            "denom": self.offset.denominator,
            "trunc": None if self.trunc is None else str(self.trunc),
            "coeffs": [[str(self.offset + k), str(c)]
                       for k, c in sorted(self.coeffs.items())],
        }

    def __repr__(self):
        parts = []
        for k, c in sorted(self.coeffs.items())[:12]:
            e = self.offset + k
            parts.append(f"{c}*q^{e}" if e else f"{c}")
        if len(self.coeffs) > 12:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        tail = "" if self.trunc is None else f" + O(q^{self.trunc})"
        return f"QSeries({body}{tail})"


# -- q-combinatorial primitives -------------------------------------------


def q_product(trunc: int, factors) -> QSeries:
    """prod (1 + s q^e)^p mod q^trunc over the triples (e, s, p) in factors,
    with integer e > 0 and s, p in {1, -1}.

    A factor with e >= trunc is 1 mod q^trunc and is skipped, so an infinite
    product may list any finite range of factors that covers e < trunc.  Each
    factor updates one integer coefficient list in place (``_factor``).
    """
    c = [1] + [0] * (trunc - 1)
    for e, s, p in factors:
        if e < trunc:
            if e <= 0:
                raise ValueError("q_product needs positive exponents")
            _factor(c, e, s, p)
    return QSeries(dict(enumerate(c)), trunc)


def _factor(c: list, j: int, s: int, p: int) -> None:
    """Multiply (p = 1) or divide (p = -1) the coefficient list c by
    (1 + s q^j), j > 0, in place mod q^len(c): a multiplication runs down the
    list, a division runs up it.  ``q_product`` and ``divided_sum`` run every
    factor through this loop."""
    sp = s * p
    for k in (range(len(c) - 1, j - 1, -1) if p == 1 else range(j, len(c))):
        c[k] += sp * c[k - j]


def divided_sum(trunc: int, terms, offset=0) -> QSeries:
    """q^offset times the sum of x q^e / ((q)_k1 ... (q)_kr) mod q^trunc over
    the terms (e, x, (k1, ..., kr)), with integers e >= 0, x and k_i >= 0.

    Every term lies in the class of offset mod 1, so an exponent e that is
    not an integer puts the terms in more than one class and raises
    ``ValueError``.  Terms that share a divisor (the same k_i in any order)
    are placed in one list, which starts at the group's lowest exponent
    below the order, and each factor (1 - q^j), j <= k_i, is divided out of
    it once, in place.
    """
    groups: dict[tuple, list] = {}
    for e, x, ks in terms:
        if e % 1:
            raise ValueError("exponent %s is not an integer: the terms lie in more "
                             "than one class mod 1" % (e,))
        if e < 0:
            raise ValueError("negative exponent %s" % (offset + e,))
        if e < trunc:
            groups.setdefault(tuple(sorted(ks)), []).append((int(e), x))
    out = [0] * trunc
    for ks, placed in groups.items():
        lo = min(e for e, _ in placed)
        c = [0] * (trunc - lo)
        for e, x in placed:
            c[e - lo] += x
        for k in ks:
            for j in range(1, k + 1):
                _factor(c, j, -1, -1)
        for i, x in enumerate(c, lo):
            out[i] += x
    return QSeries(dict(enumerate(out)), trunc, offset)


def single_sum(trunc: int, exponent, index) -> QSeries:
    """sum over k >= 0 of q^(a k^2 + b k) / (q)_(c k + d) mod q^trunc,
    for exponent = (a, b) and index = (c, d) with a > 0 and b >= 0."""
    (a, b), (c, d) = exponent, index
    terms = []
    k = e = 0
    while e < trunc:
        terms.append((e, 1, (c * k + d,)))
        k += 1
        e = a * k * k + b * k
    return divided_sum(trunc, terms)


def _slot_bytes(bound: int) -> int:
    """The fewest whole bytes w with 2^(8w - 1) > bound."""
    return bound.bit_length() // 8 + 1


def _unpack(value: int, width: int, slots=None) -> dict:
    """The nonzero coefficients below q^slots of the polynomial whose value at
    q = 2^(8 width) is ``value``, read as signed digits of that base.

    Slot e is read from value mod 2^(8 width (e + 1)), so the digits below
    q^slots are exact whenever each of them lies in [-2^(8 width - 1),
    2^(8 width - 1)), whatever the digits above.  For slots None every digit
    is read: a polynomial of degree d whose coefficients lie strictly inside
    that range has |value| > 2^(8 width d - 1), so value's bit length covers
    slot d."""
    if slots is None:
        slots = abs(value).bit_length() // (8 * width) + 1
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


def pascal_rows(pairs, width: int, slots=None) -> dict:
    """{(m, k): the value of the Gaussian binomial [m choose k]_q at
    q = 2^(8 width), mod 2^(8 width slots)} for the given pairs with
    0 <= k <= m; whole values for slots None.

    One list runs over j and holds [i + j, j] for i = 0, 1, 2, ...; each step
    in i applies the q-Pascal rule [i + j, j] = [i + j - 1, j - 1] +
    q^j [i + j - 1, j] (Andrews, The Theory of Partitions, Thm 3.2), one
    shift and one add an entry, and [m, k] = [m, m - k] reads each pair at
    j = min(k, m - k).  Every step is integer arithmetic, exact at any width,
    and the mask keeps each value mod 2^(8 width slots), which any sum,
    shift or product of the values respects: the slots below q^slots of a
    result are those of the polynomial it stands for, whatever the carries
    above.
    """
    shift = 8 * width
    mask = -1 if slots is None else (1 << (shift * slots)) - 1
    wanted = {}  # i -> the pairs read at step i, with their j
    for m, k in pairs:
        j = min(k, m - k)
        wanted.setdefault(m - j, []).append(((m, k), j))
    row = [1 & mask] * (max((j for at_i in wanted.values() for _, j in at_i), default=0) + 1)
    out = {}
    for i in range(max(wanted, default=-1) + 1):
        if i:
            for j in range(1, len(row)):
                row[j] = (row[j - 1] + (row[j] << (shift * j))) & mask
        for pair, j in wanted.get(i, ()):
            out[pair] = row[j]
    return out
