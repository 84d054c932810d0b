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


def _norm_int_row(row: dict) -> dict:
    """Divide out the content and make the pivot entry positive."""
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    lead = min(row)
    if row[lead] < 0:
        g = -g
    if g not in (0, 1):
        row = {k: v // g for k, v in row.items()}
    return row


def _clear(row: dict, p: dict, c: int) -> dict:
    """The integer combination of row and pivot row p whose entry at column
    c vanishes: both are scaled by the cofactors of their entries' gcd."""
    a, b = row[c], p[c]
    g = gcd(a, b)
    fa, fp = b // g, a // g
    new = {k: fa * v for k, v in row.items()}
    for k, v in p.items():
        s = new.get(k, 0) - fp * v
        if s:
            new[k] = s
        elif k in new:
            del new[k]
    return new


class Echelon:
    """Incremental integer echelon with deterministic leftmost pivoting."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, dict] = {}

    def reduce(self, row: dict) -> dict:
        """The row with its leading entries cleared until its pivot is new;
        empty iff the row lies in the span."""
        steps = 0
        while row:
            c = min(row)
            p = self.pivots.get(c)
            if p is None:
                return row
            row = _clear(row, p, c)
            steps += 1
            if steps % 16 == 0:
                row = _norm_int_row(row)
        return row

    def insert(self, row: dict) -> bool:
        """Add the row to the span; False if it was already there."""
        row = self.reduce(row)
        if not row:
            return False
        row = _norm_int_row(row)
        self.pivots[min(row)] = row
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduced(self) -> dict:
        """The reduced echelon form, pivot -> row: every pivot column is
        cleared from all other rows, and each row is primitive with a
        positive pivot entry."""
        out = dict(self.pivots)
        for c in sorted(out, reverse=True):
            p = out[c]
            for c2, row in out.items():
                if c2 == c or c not in row:
                    continue
                out[c2] = _norm_int_row(_clear(row, p, c))
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
