from itertools import pairwise

import pytest

from conftest import NotInP, _patterns_by_min, classify, is_avoiding
from qvir.characters import andrews_gordon_product, mod16_product, quasiparticle_chi
from qvir.partitions import (CLASSES, EXCEPTIONAL_PATTERNS, count_min2, count_table,
                             enumerate_P, forbidden_patterns, grevlex_key,
                             partitions_min2, partitions_min2_length,
                             pattern_width, recursion_check)
from qvir.qseries import q_product


def test_forbidden_patterns_small():
    pats = set(forbidden_patterns(9))
    assert (2, 2, 2) in pats
    assert (3, 2, 2) in pats
    assert (4, 3, 2) in pats          # the p=2 instance of the staircase family
    assert (4, 2, 2) not in pats      # that family starts at p=3
    assert (5, 3, 3) not in pats      # weight 11 > 9
    assert (5, 4, 2, 2) not in pats   # exceptional, weight 13


def test_enumerate_P_small():
    assert enumerate_P(0) == [()]
    assert enumerate_P(6) == [(6,), (4, 2), (3, 3)]
    assert enumerate_P(7) == [(7,), (5, 2), (4, 3)]
    # the weight-9 set: note (4, 3, 2) is itself excluded
    assert enumerate_P(9) == [(9,), (7, 2), (6, 3), (5, 4), (5, 2, 2)]


def brute_force_P(n):
    return sorted((lam for lam in partitions_min2(n) if is_avoiding(lam)),
                  key=lambda lam: (sum(lam), tuple(-x for x in lam)))


@pytest.mark.parametrize("n", range(0, 23))
def test_enumerate_matches_brute_filter(n):
    assert enumerate_P(n) == brute_force_P(n)


def oracle_count_table(n_max):
    """count_table rebuilt from the listed partitions and the pattern-table
    classifier."""
    table = {cls: {} for cls in CLASSES + ("P",)}
    for n in range(n_max + 1):
        for lam in enumerate_P(n):
            key = (n, len(lam))
            for cls in (classify(lam), "P"):
                table[cls][key] = table[cls].get(key, 0) + 1
    return table


@pytest.mark.parametrize("n", range(0, 13))
def test_count_table_matches_oracle_small(n):
    assert count_table(n) == oracle_count_table(n)


def test_count_table_matches_oracle_40():
    assert count_table(40) == oracle_count_table(40)


def walk_totals(n_max):
    totals = [0] * (n_max + 1)
    for (n, _), c in count_table(n_max)["P"].items():
        totals[n] += c
    return totals


def test_walk_totals_match_mod16_product():
    prod = mod16_product(91)
    assert walk_totals(90) == [prod.coefficient(n) for n in range(91)]


@pytest.fixture
def wide_pattern(monkeypatch):
    """An extra exceptional pattern spanning 10 part values."""
    monkeypatch.setitem(EXCEPTIONAL_PATTERNS, "wide", (11, 2))
    _patterns_by_min.cache_clear()
    yield
    monkeypatch.undo()
    _patterns_by_min.cache_clear()


def test_one_cache_clear_follows_a_table_edit(monkeypatch):
    # warm every view of the table at weight 13, then edit the table
    assert is_avoiding((11, 2)) and len(enumerate_P(13)) == len(brute_force_P(13))
    monkeypatch.setitem(EXCEPTIONAL_PATTERNS, "wide", (11, 2))
    _patterns_by_min.cache_clear()
    try:
        assert not is_avoiding((11, 2))
        assert enumerate_P(13) == brute_force_P(13)
    finally:
        monkeypatch.undo()
        _patterns_by_min.cache_clear()
    assert is_avoiding((11, 2))


def test_walk_follows_the_pattern_table(wide_pattern):
    assert pattern_width() == 10
    want = [brute_force_P(n) for n in range(17)]
    assert walk_totals(16) == [len(lams) for lams in want]
    assert [enumerate_P(n) for n in range(17)] == want


def test_negative_orders_raise():
    for f in (enumerate_P, count_table, recursion_check):
        with pytest.raises(ValueError):
            f(-1)


def test_classify_examples():
    assert classify((4, 2)) == "B"
    assert classify((3, 2)) == "C"
    assert classify((4, 2, 2)) == "E"
    assert classify((5, 2, 2)) == "D"
    assert classify(()) == "A"
    assert classify((2,)) == "B"
    assert classify((2, 2)) == "D"
    assert classify((5,)) == "A"


def test_classify_rejects_nonavoiding():
    with pytest.raises(NotInP):
        classify((2, 2, 2))


def test_classify_total_and_single_valued():
    # every member of the avoidance set lands in exactly one class
    for n in range(0, 61):
        for lam in enumerate_P(n):
            assert classify(lam) in CLASSES


def test_count_table_examples():
    t = count_table(9)
    assert t["P"].get((6, 1)) == 1
    assert t["P"].get((6, 2)) == 2
    assert t["P"].get((0, 0)) == 1
    assert sum(v for (n, m), v in t["P"].items() if n == 9) == 5


def test_counts_match_quasiparticle_series():
    qp = quasiparticle_chi(41)
    for n in range(41):
        assert len(enumerate_P(n)) == qp.coefficient(n)


def test_counts_match_mod16_product():
    prod = mod16_product(61)
    for n in range(61):
        assert len(enumerate_P(n)) == prod.coefficient(n)


def test_recursion_check_40():
    rep = recursion_check(40)
    assert rep["passed"], rep["failures"][:3]


def test_recursion_check_zero():
    assert recursion_check(0)["passed"]


def mourtada_basis(s, n):
    """Partitions of n with parts >= 2 and lam_i - lam_(i+s-1) >= 2: at most
    s - 1 parts in any window {p, p+1}."""
    return [lam for lam in partitions_min2(n)
            if all(lam[i] - lam[i + s - 1] >= 2 for i in range(len(lam) - s + 1))]


def test_mourtada_small():
    assert mourtada_basis(2, 5) == [(5,)]
    assert mourtada_basis(2, 0) == [()]
    assert andrews_gordon_product(2, 6).coefficient(5) == 1


@pytest.mark.parametrize("s", [2, 3])
def test_mourtada_counts_match_product(s):
    ag = andrews_gordon_product(s, 41)
    for n in range(41):
        assert len(mourtada_basis(s, n)) == ag.coefficient(n), (s, n)


def test_partition_generators():
    assert partitions_min2(6) == ((6,), (4, 2), (3, 3), (2, 2, 2))
    assert partitions_min2_length(6, 2) == ((4, 2), (3, 3))
    assert count_min2(6) == 4
    assert count_min2(0) == 1
    assert count_min2(1) == 0
    # the counts against the generating function prod_{j >= 2} 1/(1 - q^j)
    gf = q_product(61, [(j, -1, -1) for j in range(2, 61)])
    merged = partitions_min2.cache_info()
    assert [count_min2(n) for n in range(61)] == [gf.coefficient(n) for n in range(61)]
    # a count reads the listings of each length, never their merge
    assert partitions_min2.cache_info()[:2] == merged[:2]
    for n in range(31):
        listing = partitions_min2(n)
        assert all(sum(lam) == n and min(lam, default=2) >= 2
                   and list(lam) == sorted(lam, reverse=True) for lam in listing)
        # strictly ascending grevlex, so no partition is listed twice
        assert all(grevlex_key(a) < grevlex_key(b) for a, b in pairwise(listing)), n
        # the rows of each length split the listing, each in its order
        for m in range(n // 2 + 1):
            assert partitions_min2_length(n, m) == tuple(lam for lam in listing if len(lam) == m)
