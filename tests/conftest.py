from fractions import Fraction

import pytest

from qvir import diffalg
from qvir.partitions import grevlex_key
from qvir.qseries import frac_str


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
