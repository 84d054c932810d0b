import random
from fractions import Fraction as F

import pytest

from qvir.characters import MinimalModelLabel
from qvir.diffalg import DiffPoly
from qvir.linalg import Echelon, int_row
from qvir.partitions import count_min2, enumerate_P
from qvir.virasoro import VirVector, basis_monomials, submodule_spaces


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
    ech = Echelon()
    for r in rows:
        ech.insert(int_row({j: F(x) for j, x in enumerate(r) if x}, {j: j for j in range(len(r))}))
    return ech


def dense(row, ncols):
    return [F(row.get(j, 0)) for j in range(ncols)]


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
    rows = MATRICES[name]
    ncols = len(rows[0])
    rref, null = gauss_jordan(rows, ncols)
    ech = echelon_of(rows)
    assert ech.rank == len(rref)
    assert set(ech.pivots) == set(rref)
    reduced = ech.reduced()
    assert set(reduced) == set(rref)
    for c, row in reduced.items():
        assert row[c] > 0
        assert dense({k: F(v, row[c]) for k, v in row.items()}, ncols) == rref[c]
    assert [dense(v, ncols) for v in ech.nullspace(ncols)] == null


def test_random_integer_matrices_against_gauss_jordan():
    rng = random.Random(7)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        basis = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
        # rows drawn from a small span, so most matrices are rank-deficient
        rows = [[sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(ncols)]
                for _ in range(nrows)]
        rref, null = gauss_jordan(rows, ncols)
        ech = echelon_of(rows)
        assert ech.rank == len(rref)
        assert {c: dense({k: F(v, r[c]) for k, v in r.items()}, ncols)
                for c, r in ech.reduced().items()} == rref
        assert [dense(v, ncols) for v in ech.nullspace(ncols)] == null
        for v in null:
            assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)


def test_reduce_decides_span_membership():
    rows = MATRICES["rank_deficient"]
    ech = echelon_of(rows)
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
    cols = {m: i for i, m in enumerate(basis_monomials(6))}
    row = int_row(v.coeffs, cols)
    assert row == {cols[(4, 2)]: -66, cols[(6,)]: -27, cols[(2, 2, 2)]: 16}


def test_submodule_ranks_match_avoiding_partition_counts():
    spaces = submodule_spaces(MinimalModelLabel(3, 4), 12)
    for d in range(13):
        rank = spaces[d].rank if d in spaces else 0
        assert rank == count_min2(d) - len(enumerate_P(d)), d
