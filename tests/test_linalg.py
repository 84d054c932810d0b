import random
from fractions import Fraction as F

import pytest

from qvir.characters import MinimalModelLabel
from qvir.diffalg import DiffPoly
from qvir.linalg import Echelon, int_row, primitive
from qvir.partitions import count_min2, enumerate_P, partitions_min2
from qvir.virasoro import VirVector, submodule_spaces


def gauss_jordan(rows, ncols):
    """Dense Fraction reduced row echelon form: (pivot -> monic row, nullspace)."""
    m = [[F(x) for x in r] for r in rows]
    pivots = {}
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        f = m[r][col]
        m[r] = [x / f for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                g = m[i][col]
                m[i] = [a - g * b for a, b in zip(m[i], m[r])]
        pivots[col] = r
        r += 1
    null = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for col, row in pivots.items():
            vec[col] = -m[row][fc]
        null.append(vec)
    return {col: m[row] for col, row in pivots.items()}, null


def echelon_of(rows):
    """The echelon of the rows, inserted in order, and the number of inserts
    that replaced a stored pivot row by a sparser one."""
    ech, swaps = Echelon(), 0
    for r in rows:
        before = dict(ech.pivots)
        ech.insert(int_row({j: F(x) for j, x in enumerate(r) if x}, {j: j for j in range(len(r))}))
        swaps += any(ech.pivots[c] is not p for c, p in before.items())
    return ech, swaps


def dense(row, ncols):
    return [F(row.get(j, 0)) for j in range(ncols)]


def assert_matches_gauss_jordan(rows) -> int:
    """Rank, pivot set, reduced() and nullspace() of the echelon of the rows
    equal gauss_jordan's; returns the echelon's number of pivot swaps."""
    ncols = len(rows[0])
    rref, null = gauss_jordan(rows, ncols)
    ech, swaps = echelon_of(rows)
    assert ech.rank == len(rref)
    assert set(ech.pivots) == set(rref)
    reduced = ech.reduced()
    assert set(reduced) == set(rref)
    for c, row in reduced.items():
        assert row[c] > 0
        assert dense({k: F(v, row[c]) for k, v in row.items()}, ncols) == rref[c]
    assert [dense(v, ncols) for v in ech.nullspace(ncols)] == null
    for v in null:
        assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)
    return swaps


MATRICES = {
    "full_rank": [[2, 1, 0], [1, 3, 1], [0, 1, 4]],
    "rank_deficient": [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0], [1, 3, 4, 4]],
    "zero_rows": [[0, 0, 0], [0, 5, -5], [0, 0, 0]],
    "all_zero": [[0, 0], [0, 0]],
    "rational": [[F(1, 2), F(-2, 3), 0, F(5, 6)], [F(3, 4), 1, F(-7, 5), 0],
                 [F(5, 4), F(-1, 3), F(-7, 5), F(5, 3)]],
    "wide": [[0, 3, 0, 6, -9, 0], [0, 0, 0, 2, 1, 1]],
}


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_against_gauss_jordan(name):
    assert_matches_gauss_jordan(MATRICES[name])


def test_random_integer_matrices_against_gauss_jordan():
    rng = random.Random(7)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        basis = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
        # rows drawn from a small span, so most matrices are rank-deficient
        rows = [[sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(ncols)]
                for _ in range(nrows)]
        assert_matches_gauss_jordan(rows)


def test_sparser_later_rows_against_gauss_jordan():
    """Later rows sparser than earlier ones reach occupied pivot columns with
    fewer entries, so insert swaps them in as pivots; the result must not
    depend on it."""
    rng = random.Random(11)
    swaps = 0
    for _ in range(60):
        ncols = rng.randint(4, 10)
        rows = []
        for i in range(rng.randint(2, 12)):
            cols = rng.sample(range(ncols), max(1, ncols - i - rng.randint(0, 2)))
            rows.append([rng.choice((-3, -2, -1, 1, 2, 3)) if j in cols else 0
                         for j in range(ncols)])
        swaps += assert_matches_gauss_jordan(rows)
    assert swaps > 0


def test_insert_keeps_the_sparser_row_as_pivot():
    ech = Echelon()
    assert ech.insert({0: 2, 1: 1, 2: 1, 3: 1})
    assert ech.insert({0: -3, 3: 3})
    assert ech.pivots[0] == {0: 1, 3: -1}
    # the old pivot row, reduced by the new one, takes the next free column
    assert ech.pivots[1] == {1: 1, 2: 1, 3: 3}
    assert not ech.insert({0: 1, 1: 1, 2: 1, 3: 2})
    assert ech.rank == 2


def test_echelon_leaves_rows_it_is_given_and_its_pivots_alone():
    rows = [{0: 4, 1: 6, 3: -2}, {0: 2, 2: 3}, {1: 5, 3: 1}, {0: 6, 1: 6, 2: 3, 3: -2}]
    ech = Echelon()
    for r in rows:
        given = dict(r)
        ech.insert(r)
        assert r == given
    pivots = {c: dict(p) for c, p in ech.pivots.items()}
    probe = {0: 3, 1: 1, 2: -7, 3: 5}
    ech.reduce(probe)
    assert probe == {0: 3, 1: 1, 2: -7, 3: 5}
    ech.reduced()
    ech.nullspace(4)
    assert ech.pivots == pivots


def test_reduce_decides_span_membership():
    rows = MATRICES["rank_deficient"]
    ech, _ = echelon_of(rows)
    inside = {0: 3, 1: 7, 2: 10, 3: 12}  # 3*row0 + row2
    assert ech.reduce(dict(inside)) == {}
    outside = {3: 1}
    left = ech.reduce(dict(outside))
    assert left and min(left) not in ech.pivots
    assert ech.insert(dict(outside)) and ech.rank == 3
    assert not ech.insert(dict(inside))


def test_int_row_clears_denominators_of_both_vector_types():
    index = {(4, 3, 2): 0, (5, 2, 2): 1}
    assert int_row(DiffPoly({(5, 2, 2): F(1, 6), (4, 3, 2): 1}).terms, index) == {0: 6, 1: 1}
    v = VirVector(F(1, 2), {(4, 2): F(-33, 8), (6,): F(-27, 16), (2, 2, 2): 1})
    cols = {m: i for i, m in enumerate(partitions_min2(6))}
    row = int_row(v.coeffs, cols)
    assert row == {cols[(4, 2)]: -66, cols[(6,)]: -27, cols[(2, 2, 2)]: 16}


def test_primitive_divides_out_denominators_and_content_and_keeps_signs():
    assert primitive({"a": F(-2, 3), "b": F(4, 9), "c": 2}) == {"a": -3, "b": 2, "c": 9}
    assert primitive({"a": -4, "b": 6}) == {"a": -2, "b": 3}
    assert primitive({"a": F(1, 2)}) == {"a": 1}


def test_submodule_ranks_match_avoiding_partition_counts():
    spaces = submodule_spaces(MinimalModelLabel(3, 4), 12)
    for d in range(13):
        rank = spaces[d].rank if d in spaces else 0
        assert rank == count_min2(d) - len(enumerate_P(d)), d
