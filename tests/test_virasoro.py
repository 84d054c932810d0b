import random
from fractions import Fraction as F

import pytest

from qvir import virasoro
from qvir.characters import MinimalModelLabel, feigin_fuchs_character
from qvir.linalg import Echelon, int_row
from qvir.partitions import enumerate_P, partitions_min2
from qvir.virasoro import (PRINTED_SINGULAR_34, VirVector, _apply_one, apply_mode,
                           apply_word, kernel_generator_symbol,
                           lemma_b_check, lemma_bp_check, quotient_graded_dims,
                           singular_vector_check, solve_singular_vector,
                           submodule_spaces)


HALF = F(1, 2)


def test_positive_mode_scales_vacuum_descendant():
    # commuting past one lowering mode leaves 4 L_0 plus the central term
    v = VirVector(HALF, {(2,): 1})
    assert apply_mode(2, v) == VirVector(HALF, {(): F(1, 4)})


def test_modes_kill_vacuum():
    vac = VirVector(HALF, {(): 1})
    for m in (-1, 0, 1, 2, 5):
        assert not apply_mode(m, vac)
    assert apply_mode(-2, vac) == VirVector(HALF, {(2,): 1})


def test_lowering_already_ordered():
    v = VirVector(HALF, {(2,): 1})
    assert apply_mode(-3, v) == VirVector(HALF, {(3, 2): 1})


def test_lowering_needs_reordering():
    # applying the degree-2 lowering mode to a degree-3 state commutes
    v = VirVector(HALF, {(3,): 1})
    got = apply_mode(-2, v)
    assert got == VirVector(HALF, {(3, 2): 1, (5,): 1})


def test_bracket_relation_random():
    rng = random.Random(20240811)
    for _ in range(40):
        c = rng.choice([HALF, F(-22, 5), F(0), F(-3, 5)])
        deg = rng.randint(2, 9)
        monos = partitions_min2(deg)
        u = VirVector(c, {m: F(rng.randint(-3, 3), rng.randint(1, 2))
                          for m in rng.sample(monos, min(2, len(monos)))})
        m1 = rng.randint(-4, 4)
        m2 = rng.randint(-4, 4)
        lhs = apply_mode(m1, apply_mode(m2, u)) - apply_mode(m2, apply_mode(m1, u))
        rhs = apply_mode(m1 + m2, u).scale(m1 - m2)
        if m1 + m2 == 0:
            rhs = rhs + u.scale(F(m1 ** 3 - m1, 12) * c)
        assert lhs == rhs, (c, m1, m2)


def test_singular_vector_34_matches_printed():
    v = solve_singular_vector(MinimalModelLabel(3, 4))
    assert v.coeffs == PRINTED_SINGULAR_34
    assert singular_vector_check(v)
    assert v.degree() == 6


def test_singular_vector_check_negative():
    v = VirVector(HALF, {(2,): 1})
    assert not singular_vector_check(v)
    assert singular_vector_check(VirVector(HALF, {(): 1}))


def test_singular_vector_23():
    v = solve_singular_vector(MinimalModelLabel(2, 3))
    assert v.c == 0 and v.coeffs == {(2,): 1}


def test_singular_vector_25():
    v = solve_singular_vector(MinimalModelLabel(2, 5))
    assert v.degree() == 4
    assert v.coeffs == {(2, 2): 1, (4,): F(-3, 5)}
    assert singular_vector_check(v)


def test_quotient_dims_34():
    lab = MinimalModelLabel(3, 4)
    dims = quotient_graded_dims(lab, 15)
    ff = feigin_fuchs_character(lab, 16)
    assert dims == [int(ff.coefficient(n)) for n in range(16)]
    assert dims == [len(enumerate_P(n)) for n in range(16)]
    assert dims[6] == 3  # four weight-6 states minus the singular vector


def test_quotient_dims_below_singular_degree():
    lab = MinimalModelLabel(3, 4)
    dims = quotient_graded_dims(lab, 5)
    assert dims == [len(partitions_min2(n)) for n in range(6)]


def submodule_by_every_mode(label, n_max):
    """Reference: the span of the singular vector closed under every mode
    L_m with 0 < |m| <= n_max, in rational arithmetic."""
    v = solve_singular_vector(label)
    spaces, indexes = {}, {}

    def insert(w):
        d = w.degree()
        if d not in spaces:
            spaces[d] = Echelon()
            indexes[d] = {m: i for i, m in enumerate(partitions_min2(d))}
        return spaces[d].insert(int_row(w.coeffs, indexes[d]))

    insert(v)
    queue = [v]
    while queue:
        u = queue.pop()
        deg = u.degree()
        for m in range(-n_max, n_max + 1):
            if m == 0 or not 0 <= deg - m <= n_max:
                continue
            w = apply_mode(m, u)
            if w and insert(w):
                queue.append(w)
    return spaces


@pytest.mark.parametrize("p, pp, n_max", [(3, 4, 12), (3, 5, 12), (2, 5, 10)])
def test_submodule_matches_every_mode_closure(p, pp, n_max):
    lab = MinimalModelLabel(p, pp)
    want = submodule_by_every_mode(lab, n_max)
    got = submodule_spaces(lab, n_max)
    assert sorted(got) == sorted(want)
    for d in want:
        assert got[d].rank == want[d].rank, d
        assert got[d].reduced() == want[d].reduced(), d


@pytest.mark.parametrize("c", [HALF, F(-22, 5)])
def test_lowering_modes_act_integrally(c):
    for deg in range(11):
        for mono in partitions_min2(deg):
            for m in (-1, -2):
                out = _apply_one(c, m, mono)
                assert all(type(x) is int for x in out.values()), (m, mono)


def test_submodule_applies_two_lowering_modes_to_int_vectors(monkeypatch):
    lab = MinimalModelLabel(3, 4)
    v = solve_singular_vector(lab)
    monkeypatch.setattr(virasoro, "solve_singular_vector", lambda label: v)
    seen = []

    def spy(m, u):
        seen.append(m)
        assert all(type(x) is int for x in u.coeffs.values()), u
        return apply_mode(m, u)

    monkeypatch.setattr(virasoro, "apply_mode", spy)
    spaces = submodule_spaces(lab, 12)
    assert set(seen) == {-1, -2}
    assert all(type(x) is int for ech in spaces.values()
               for row in ech.pivots.values() for x in row.values())


def test_lemma_b_exact():
    rep = lemma_b_check()
    assert rep["passed"]
    assert rep["printed_singular_vector_matches"]
    assert rep["combination_equals_expected"]
    assert rep["length3_components_vanish"]
    assert rep["w34_has_length3"]
    assert rep["filtration_bound_2m_le_n_minus_5"]


def test_lemma_b_combination_value():
    # recompute the displayed right side independently
    lab = MinimalModelLabel(3, 4)
    v34 = solve_singular_vector(lab)
    w34 = VirVector(HALF, {(5, 2, 2): 1, (4, 3, 2): 6})
    combo = (w34
             + apply_mode(-3, v34).scale(F(256, 429))
             - apply_word((-1, -2), v34).scale(F(64, 429))
             - apply_word((-1, -1, -1), v34).scale(F(31, 286)))
    assert combo.coeffs == {(6, 3): F(27, 8), (7, 2): F(87, 4),
                            (9,): F(147, 32), (5, 4): F(-45, 16)}


@pytest.mark.parametrize("pp", [4, 5])
def test_lemma_bp(pp):
    rep = lemma_bp_check(pp)
    assert rep["passed"], rep
    w = 2 * pp + 1
    assert rep["kernel_dims"][:w] == [0] * w
    assert rep["kernel_dims"][w] == 1
    assert rep["symbol_not_in_arc_ideal"]
    assert rep["symbol_vanishes_in_quotient"]


def test_lemma_bp_rejects_noncoprime():
    with pytest.raises(ValueError):
        lemma_bp_check(6)


def test_kernel_symbol_values():
    from qvir.diffalg import DiffPoly
    assert kernel_generator_symbol(4) == DiffPoly({(5, 2, 2): F(1, 6), (4, 3, 2): 1})
    assert kernel_generator_symbol(5) == DiffPoly({(5, 2, 2, 2): F(-1, 9),
                                                   (4, 3, 2, 2): 1})
