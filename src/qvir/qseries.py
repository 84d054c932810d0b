"""Exact truncated power series in q with rational coefficients.

Exponents may be fractional: a series fixes a positive integer denominator D
and stores coefficients on the grid (1/D)*Z>=0.  A series either carries a
finite truncation order (coefficients at exponents >= the order are unknown)
or is an exact polynomial (``trunc is None``).  A series does no arithmetic:
kernels build it and checks compare it (``agreement``, ``equal_mod``, ``==``)
up to the smaller truncation order.  The kernels are ``q_product``, for
products of (1 + s q^e)^(+-1), and ``divided_sum``, for sums of terms
x q^e / ((q)_k1 ... (q)_kr) and the one routine that divides by the (q)_k;
both update one integer list in place, a factor at a time.  Gaussian
binomials are integers packed slot by slot (``pascal_rows``), read back by
``_unpack``.

Coefficient rule: a stored coefficient is a Python ``int`` when it is
integral and a ``Fraction`` only when it is not.  ``QSeries.__init__``
enforces it, but since a series does no arithmetic the rule matters for the
exact containers that do: ``diffalg.DiffPoly`` and ``virasoro.VirVector``
store their terms through ``exact_terms``, so each constructor is the one
place that normalizes a coefficient and drops a zero, and their sums run on
ints and pay for ``Fraction``, which reduces by a gcd after every operation,
only where a true fraction appears.  ``3`` and ``Fraction(3)`` compare and
hash alike, so equality, hashing and JSON do not depend on which of the two
a caller passes.  Pitfall: ``int / int`` is a float in Python, so no ``/``
may see a coefficient; divide by multiplying with an exact reciprocal
``Fraction(1, c)`` instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _to_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _exact(x):
    """x as an int when it is integral, else as a Fraction; x may be anything
    ``Fraction`` accepts."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def exact_quotient(a, d: int):
    """a / d under the coefficient rule, for a rational a and a nonzero int d;
    an int that d divides is divided as an int, with no Fraction built."""
    if type(a) is int and a % d == 0:
        return a // d
    return _exact(Fraction(a, d))


def exact_terms(terms) -> dict:
    """The nonzero entries of a map key -> rational, keyed by ``tuple(key)``
    and stored under the coefficient rule."""
    out = {}
    for key, c in terms.items():
        if type(c) is not int:
            c = _exact(c)
        if c:
            out[tuple(key)] = c
    return out


def _slots_below(t: Fraction, d: int) -> int:
    """Number of grid slots k/d below t, i.e. ceil(t * d)."""
    return -(-t.numerator * d // t.denominator)


class QSeries:
    __slots__ = ("denom", "trunc", "coeffs")

    def __init__(self, coeffs=None, trunc=None, denom: int = 1):
        if denom < 1:
            raise ValueError("denom must be a positive integer")
        t = None if trunc is None else _to_frac(trunc)
        kmax = None if t is None else _slots_below(t, denom)
        cleaned: dict[int, int | Fraction] = {}
        if coeffs:
            for k, c in coeffs.items():
                if type(c) is not int:
                    c = _exact(c)
                if not c:
                    continue
                if k < 0:
                    raise ValueError("negative exponent %r" % (Fraction(k, denom),))
                if kmax is not None and k >= kmax:
                    continue
                cleaned[k] = c
        self.denom = denom
        self.trunc = t
        self.coeffs = cleaned

    # -- basic structure ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def order(self):
        """Lowest exponent with nonzero coefficient, or None for the zero series."""
        if not self.coeffs:
            return None
        return Fraction(min(self.coeffs), self.denom)

    def coefficient(self, e) -> int | Fraction:
        """Coefficient of q^e.  Raises for exponents at or above the truncation."""
        e = _to_frac(e)
        if self.trunc is not None and e >= self.trunc:
            raise ValueError("coefficient of q^%s is unknown (trunc %s)" % (e, self.trunc))
        k = e * self.denom
        if k.denominator != 1:
            return 0
        return self.coeffs.get(int(k), 0)

    def terms(self):
        """Sorted (exponent, coefficient) pairs."""
        d = self.denom
        return [(Fraction(k, d), c) for k, c in sorted(self.coeffs.items())]

    def reduce_denom(self) -> "QSeries":
        """Shrink the exponent denominator to the minimal grid."""
        if self.denom == 1:
            return self
        g = self.denom
        for k in self.coeffs:
            g = gcd(g, k)
            if g == 1:
                return self
        return QSeries({k // g: c for k, c in self.coeffs.items()}, self.trunc,
                       self.denom // g)

    def _with_denom(self, d: int) -> dict[int, int | Fraction]:
        f = d // self.denom
        if f == 1:
            return self.coeffs
        return {k * f: c for k, c in self.coeffs.items()}

    def truncate(self, n) -> "QSeries":
        return QSeries(self.coeffs, _min_trunc(self.trunc, _to_frac(n)), self.denom)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self.reduce_denom(), other.reduce_denom()
        return a.trunc == b.trunc and a.denom == b.denom and a.coeffs == b.coeffs

    def agreement(self, other: "QSeries"):
        """Compare up to min(trunc); return (order, first_mismatch_exponent).

        order is the truncation up to which the comparison was performed
        (None if both series are exact polynomials).  first_mismatch_exponent
        is None when the series agree on the whole compared range.
        """
        t = _min_trunc(self.trunc, other.trunc)
        d = lcm(self.denom, other.denom)
        a = self._with_denom(d)
        b = other._with_denom(d)
        bound = None if t is None else _slots_below(t, d)
        diffs = []
        for k in set(a) | set(b):
            if bound is not None and k >= bound:
                continue
            if a.get(k, 0) != b.get(k, 0):
                diffs.append(k)
        first = Fraction(min(diffs), d) if diffs else None
        return t, first

    def equal_mod(self, other: "QSeries", n=None) -> bool:
        """True iff the series agree coefficientwise below q^n (or below min trunc)."""
        lhs, rhs = self, other
        if n is not None:
            lhs, rhs = lhs.truncate(n), rhs.truncate(n)
        t, first = lhs.agreement(rhs)
        return first is None

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "denom": self.denom,
            "trunc": None if self.trunc is None else frac_str(self.trunc),
            "coeffs": [[frac_str(Fraction(k, self.denom)), frac_str(c)]
                       for k, c in sorted(self.coeffs.items())],
        }

    def __repr__(self):
        parts = []
        for e, c in self.terms()[:12]:
            parts.append(f"{c}*q^{e}" if e else f"{c}")
        if len(self.coeffs) > 12:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        tail = "" if self.trunc is None else f" + O(q^{self.trunc})"
        return f"QSeries({body}{tail})"


def _min_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def frac_str(f: Fraction) -> str:
    """The exact string of a rational, as every JSON report writes it: '3', '-7/2'."""
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# -- q-combinatorial primitives -------------------------------------------


def q_product(trunc, factors) -> QSeries:
    """prod (1 + s q^e)^p mod q^trunc over the triples (e, s, p) in factors,
    with e > 0 and s, p in {1, -1}.

    A factor with e >= trunc is 1 mod q^trunc and is skipped, so an infinite
    product may list any finite range of factors that covers e < trunc.  Each
    factor updates one integer coefficient list in place (``_factor``).
    """
    t = _to_frac(trunc)
    kept = [(_to_frac(e), s, p) for e, s, p in factors if e < t]
    if any(e <= 0 for e, _, _ in kept):
        raise ValueError("q_product needs positive exponents")
    d = lcm(1, *(e.denominator for e, _, _ in kept))
    c = [1] + [0] * (_slots_below(t, d) - 1)
    for e, s, p in kept:
        _factor(c, int(e * d), s, p)
    return QSeries(dict(enumerate(c)), t, d)


def _factor(c: list, j: int, s: int, p: int) -> None:
    """Multiply (p = 1) or divide (p = -1) the coefficient list c by
    (1 + s q^j), j > 0 slots, in place mod q^len(c): a multiplication runs
    down the list, a division runs up it.  ``q_product`` and ``divided_sum``
    run every factor through this loop."""
    sp = s * p
    for k in (range(len(c) - 1, j - 1, -1) if p == 1 else range(j, len(c))):
        c[k] += sp * c[k - j]


def divided_sum(trunc, terms) -> QSeries:
    """sum of x q^e / ((q)_k1 ... (q)_kr) mod q^trunc over the terms
    (e, x, (k1, ..., kr)), with e >= 0 and x rational and each k_i >= 0.

    The grid is the lcm D of the denominators of the exponents, those of
    terms at or above the order included.  Terms that share a divisor (the
    same k_i in any order) are placed in one list on that grid, which starts
    at the group's lowest slot below the order, and each factor (1 - q^j),
    j <= k_i, is divided out of it once, in place.
    """
    n = _to_frac(trunc)
    terms = [(_to_frac(e), x, ks) for e, x, ks in terms]
    d = lcm(1, *(e.denominator for e, _, _ in terms))
    top = _slots_below(n, d)
    groups: dict[tuple, list] = {}
    for e, x, ks in terms:
        if e < 0:
            raise ValueError("negative exponent %s" % (e,))
        slot = e.numerator * (d // e.denominator)
        if slot < top:
            groups.setdefault(tuple(sorted(ks)), []).append((slot, x))
    out = [0] * top
    for ks, placed in groups.items():
        lo = min(slot for slot, _ in placed)
        c = [0] * (top - lo)
        for slot, x in placed:
            c[slot - lo] += x
        for k in ks:
            for j in range(1, k + 1):
                _factor(c, j * d, -1, -1)
        for i, x in enumerate(c, lo):
            out[i] += x
    return QSeries(dict(enumerate(out)), n, d)


def single_sum(trunc, exponent, index) -> QSeries:
    """sum over k >= 0 of q^(a k^2 + b k) / (q)_(c k + d) mod q^trunc,
    for exponent = (a, b) and index = (c, d) with a > 0 and b >= 0."""
    n = Fraction(trunc)
    (a, b), (c, d) = exponent, index
    terms = []
    k = e = 0
    while e < n:
        terms.append((e, 1, (c * k + d,)))
        k += 1
        e = a * k * k + b * k
    return divided_sum(n, terms)


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
