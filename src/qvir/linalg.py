"""Exact linear algebra by fraction-free integer elimination.

Every exact rank, nullspace and inverse in qvir runs through ``Echelon``.
A row is a sparse map from column index to a nonzero int; the caller fixes
the column order, and the pivot of a row is its smallest column.  Rows over
the rationals are scaled to integer rows by ``int_row``.  Elimination is
fraction-free, integer-preserving in the sense of Bareiss (Math. Comp. 22,
1968): a pivot is cleared by cross-multiplying two integer rows by the
cofactors of their pivot entries' gcd, and entry growth is held down by
dividing out the row's content.  No fraction is formed until ``nullspace``
reads the result off.

``reduce`` and ``insert`` copy the caller's row once and then clear it in
place: a clear scales the row only when its cofactor is not 1 and touches
only the pivot row's columns, so its cost is the size of the pivot row, not
of the filled-in result.  ``insert`` keeps the sparser of two rows as the
pivot (Markowitz's fill-in rule, Management Sci. 3, 1957): when the row
being reduced reaches an occupied pivot column with fewer entries than the
stored pivot row, it takes that column and the old pivot row is reduced in
its place.  Neither choice changes the span or the set of pivot columns, so
neither can change ``rank``, ``reduced`` or ``nullspace``: the reduced
echelon form of a span is unique, and ``reduced`` makes each of its rows
primitive with a positive pivot entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def int_row(coeffs: dict, index: dict) -> dict:
    """The map key -> rational as an integer row over the columns index[key],
    scaled by the least common denominator."""
    den = 1
    for c in coeffs.values():
        den = lcm(den, c.denominator)
    return {index[k]: int(c * den) for k, c in coeffs.items()}


def primitive(coeffs: dict) -> dict:
    """The primitive integer multiple of the map key -> rational: scaled by
    the least common denominator, then divided by the content, so the signs
    are kept."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    ints = {k: int(c * den) for k, c in coeffs.items()}
    content = gcd(*ints.values())
    return {k: x // content for k, x in ints.items()}


def _normalize(row: dict, lead: int) -> None:
    """Divide out the content of the row, in place, and make the entry at
    its pivot column lead positive."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if row[lead] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g


def _clear(row: dict, p: dict, c: int) -> None:
    """Make the entry of row at column c vanish, in place, by the integer
    combination of row and pivot row p: both are scaled by the cofactors of
    their entries' gcd."""
    a, b = row[c], p[c]
    g = gcd(a, b)
    fa, fp = b // g, a // g
    if fa != 1:
        for k in row:
            row[k] *= fa
    get = row.get
    for k, v in p.items():
        s = get(k, 0) - fp * v
        if s:
            row[k] = s
        else:
            del row[k]


class Echelon:
    """Incremental integer echelon: leftmost pivot columns, sparser pivot rows."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, dict] = {}

    def reduce(self, row: dict) -> dict:
        """A copy of the row with its leading entries cleared until its pivot
        is new; empty iff the row lies in the span."""
        row = dict(row)
        pivots = self.pivots
        steps = 0
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                break
            _clear(row, p, c)
            steps += 1
            if steps % 16 == 0 and row:
                _normalize(row, min(row))
        return row

    def insert(self, row: dict) -> bool:
        """Add the row to the span; False if it was already there."""
        row = dict(row)
        pivots = self.pivots
        steps = 0
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                _normalize(row, c)
                pivots[c] = row
                return True
            if len(row) < len(p):
                _normalize(row, c)
                pivots[c], row, p = row, p, row
            _clear(row, p, c)
            steps += 1
            if steps % 16 == 0 and row:
                _normalize(row, min(row))
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduced(self) -> dict:
        """The reduced echelon form, pivot -> row: every pivot column is
        cleared from all other rows, and each row is primitive with a
        positive pivot entry.  Rows are taken from the rightmost pivot down,
        so each pivot row it clears with is already reduced and brings in
        no pivot column."""
        out = {}
        for c in sorted(self.pivots, reverse=True):
            row = dict(self.pivots[c])
            for k in [k for k in row if k in out]:
                _clear(row, out[k], k)
                _normalize(row, c)
            out[c] = row
        return out

    def nullspace(self, ncols: int) -> list:
        """A basis of the vectors over columns 0..ncols-1 orthogonal to every
        row, as sparse maps column -> Fraction: one vector per free column f,
        with entry 1 at f and 0 at every other free column."""
        reduced = self.reduced()
        out = []
        for f in range(ncols):
            if f in reduced:
                continue
            vec = {f: Fraction(1)}
            for c, row in reduced.items():
                if f in row:
                    vec[c] = Fraction(-row[f], row[c])
            out.append(vec)
        return out
