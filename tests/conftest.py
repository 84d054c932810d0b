from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from qvir import cli, diffalg
from qvir.partitions import contains_pattern, forbidden_patterns, grevlex_key, index_by_min
from qvir.qseries import QSeries, _slot_bytes, _unpack, pascal_rows


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


def series_map(s):
    """{exponent: coefficient} of a QSeries, its exponents in q-units: the
    offset added back to each slot."""
    return {s.offset + k: c for k, c in s.coeffs.items()}


def term_sum(terms, order=None):
    """The oracle sum of x q^e s over the triples (x, e, s), below q^order
    (all of it for order None): x and e ints or Fractions, s a QSeries or a
    map {exponent: coefficient}.  The result is the map {exponent:
    coefficient} with its zeros dropped, in exact arithmetic: sums and
    products of ints and Fractions only, each an int while its operands are."""
    out = {}
    for x, e, s in terms:
        for k, c in (series_map(s) if isinstance(s, QSeries) else s).items():
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


def diffpoly_mul(f, g):
    """The product of two DiffPolys, by the definition over their terms."""
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = tuple(sorted(m1 + m2, reverse=True))
            out[m] = out.get(m, 0) + c1 * c2
    return diffalg.DiffPoly(out)


# -- the classify oracle: each partition tested against the pattern table
# directly, independent of the walk in partitions

class NotInP(ValueError):
    """Raised when classifying a partition that violates an avoidance pattern."""


# The one cached view of the pattern table: clear it after editing the table.
# Callers go one weight at a time; one entry keeps memory flat.
@lru_cache(maxsize=1)
def _patterns_by_min(max_weight):
    """index_by_min of the forbidden patterns (read-only)."""
    return index_by_min(forbidden_patterns(max_weight))


def is_avoiding(lam):
    return not contains_pattern(Counter(lam), _patterns_by_min(sum(lam)))


def classify(lam):
    """Assign a partition of P(n) to its class by the shape of its smallest parts."""
    lam = tuple(lam)
    if not is_avoiding(lam):
        raise NotInP("partition %r contains a forbidden pattern" % (lam,))
    return _class_of(lam)


def _class_of(lam):
    """The class of a partition already known to lie in P(n)."""
    m = len(lam)
    if m == 0:
        return "A"
    if lam[-1] > 2:
        return "A"
    if m == 1:
        return "B"  # the special singleton [2]
    if lam[-2] == 3:
        return "C"
    if lam[-2] > 3:
        return "B"
    # lam ends ... 2, 2
    if m == 2:
        return "D"  # the special pair [2, 2]
    if lam[-3] == 4:
        return "E"
    return "D"


@pytest.fixture(autouse=True)
def _empty_caches():
    # every test starts with empty caches, as every run_check does
    cli.empty_caches()


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
            "coeffs": [[n, [[m, str(c)] for m, c in sorted(row)]]
                       for n, row in sorted(by_q.items())]}


@pytest.fixture
def tq_json():
    return _tq_json
