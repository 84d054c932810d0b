from fractions import Fraction

import pytest

from qvir import diffalg
from qvir.partitions import grevlex_key


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
