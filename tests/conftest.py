from fractions import Fraction
from math import comb

import pytest

from qvir import diffalg
from qvir.partitions import grevlex_key
from qvir.qseries import QSeries, _slot_bytes, _unpack, frac_str, pascal_rows


def _reduced_slice(gens, d):
    # the reduced echelon basis of the weight-d slice of the differential
    # ideal, read off the cached integer blocks: monic rows sorted by
    # grevlex-descending leading monomial
    rows = []
    for l in diffalg._block_lengths(gens, d):
        ech, monos, _ = diffalg._block_cached(gens, d, l)
        for c, row in ech.reduced().items():
            rows.append(diffalg.DiffPoly({monos[i]: Fraction(v, row[c])
                                          for i, v in row.items()}))
    rows.sort(key=lambda r: grevlex_key(r.leading_monomial()), reverse=True)
    return rows


def term_sum(terms, order=None):
    """The oracle sum of x q^e s over the triples (x, e, s), below q^order
    (all of it for order None): x and e ints or Fractions, s a QSeries or a
    map {exponent: coefficient}.  The result is the map {exponent:
    coefficient} with its zeros dropped, in exact arithmetic: sums and
    products of ints and Fractions only, each an int while its operands are."""
    out = {}
    for x, e, s in terms:
        for k, c in (s.terms() if isinstance(s, QSeries) else s.items()):
            k += e
            if order is None or k < order:
                out[k] = out.get(k, 0) + x * c
    return {k: c for k, c in out.items() if c}


def gaussian(m, n, slots=None):
    """{e: c} of the Gaussian binomial [m, n]_q below q^slots (all of it for
    slots None), read by _unpack from its pascal_rows value; empty out of
    range.  Its coefficients are nonnegative and sum to comb(m, n), so one
    slot of _slot_bytes(comb(m, n)) bytes holds each of them."""
    if not 0 <= n <= m:
        return {}
    width = _slot_bytes(comb(m, n))
    return _unpack(pascal_rows([(m, n)], width, slots)[m, n], width, slots)


@pytest.fixture
def reduced_slice():
    return _reduced_slice


def _tq_json(table, trunc):
    # a table {(n, m): c} below q^trunc in the JSON form of the two-variable
    # goldens: per q-exponent n, its [m, c] pairs sorted by m
    by_q = {}
    for (n, m), c in table.items():
        by_q.setdefault(n, []).append((m, c))
    return {"trunc": trunc,
            "coeffs": [[n, [[m, frac_str(c)] for m, c in sorted(row)]]
                       for n, row in sorted(by_q.items())]}


@pytest.fixture
def tq_json():
    return _tq_json
