import random

import mpmath as mp
import pytest

import qvir.nahm as nahm
from qvir.characters import QUASIPARTICLE_MATRIX, e8_nahm_data
from qvir.nahm import (DomainError, NoConvergence, PRECISION_DPS, _equations,
                       printed_fixed_point, rogers_dilog, solve_nahm_system)


def mpf(x):
    return mp.mpf(x)


def gordon_matrix(s):
    """The (s-1)x(s-1) Andrews-Gordon matrix 2 min(i, j); its Nahm sum, with
    shift vector (1, ..., s-1), is the Andrews-Gordon product, and its
    effective central charge is 2(s-1)/(2s+1)."""
    size = range(1, s)
    return [[2 * min(i, j) for j in size] for i in size]


def test_dilog_reflection_identity():
    with mp.workdps(PRECISION_DPS):
        for z10 in range(1, 10):
            z = mpf(z10) / 10
            err = abs(rogers_dilog(z) + rogers_dilog(1 - z) - mp.pi ** 2 / 6)
            assert err < mpf(10) ** -12, (z10, float(err))


def test_dilog_half():
    with mp.workdps(PRECISION_DPS):
        assert abs(rogers_dilog(mpf(1) / 2) - mp.pi ** 2 / 12) < mpf(10) ** -30


def test_dilog_small_z():
    with mp.workdps(PRECISION_DPS):
        assert rogers_dilog(mpf(10) ** -25) < mpf(10) ** -20


def test_dilog_golden_ratio_values():
    # L((sqrt5-1)/2) = pi^2/10 and L((3-sqrt5)/2) = pi^2/15 (Zagier, "The
    # Dilogarithm Function", 2007): closed forms independent of polylog
    with mp.workdps(PRECISION_DPS):
        r5 = mp.sqrt(5)
        assert abs(rogers_dilog((r5 - 1) / 2) - mp.pi ** 2 / 10) < mpf(10) ** -35
        assert abs(rogers_dilog((3 - r5) / 2) - mp.pi ** 2 / 15) < mpf(10) ** -35


def test_dilog_domain():
    with pytest.raises(DomainError):
        rogers_dilog(0)
    with pytest.raises(DomainError):
        rogers_dilog(1.5)


def test_dilog_against_integral():
    # L(z) = -1/2 int_0^z [log(1-t)/t + log t/(1-t)] dt, by quadrature: a
    # reference that shares no code with the polylog route
    with mp.workdps(PRECISION_DPS):
        for z10 in (1, 3, 7, 9):
            z = mpf(z10) / 10
            ref = -mp.quad(lambda t: mp.log(1 - t) / t + mp.log(t) / (1 - t), [0, z]) / 2
            assert abs(rogers_dilog(z) - ref) < mpf(10) ** -30


def test_quasiparticle_matrix_fixed_point():
    with mp.workdps(PRECISION_DPS):
        sol = solve_nahm_system(QUASIPARTICLE_MATRIX)
        q1, q2 = printed_fixed_point()
        assert abs(sol.Q[0] - q1) < mpf(10) ** -10
        assert abs(sol.Q[1] - q2) < mpf(10) ** -10
        assert sol.residual < mpf(10) ** -12
        assert all(0 < q < 1 for q in sol.Q)
        # ten-digit values of the closed forms
        assert mp.nstr(q1, 10) == "0.8832035059"
        assert mp.nstr(q2, 10) == "0.6807398542"


def test_alpha_is_pi2_over_12():
    with mp.workdps(PRECISION_DPS):
        sol = solve_nahm_system(QUASIPARTICLE_MATRIX)
        assert abs(sol.alpha - mp.pi ** 2 / 12) < mpf(10) ** -10
        assert abs(sol.effective_charge - mpf(1) / 2) < mpf(10) ** -10


def test_rogers_ramanujan_golden_point():
    with mp.workdps(PRECISION_DPS):
        sol = solve_nahm_system([[2]])
        golden = (mp.sqrt(5) - 1) / 2
        assert abs(sol.Q[0] - golden) < mpf(10) ** -25
        # 1 - Q = Q^2 at the fixed point
        assert abs(1 - sol.Q[0] - sol.Q[0] ** 2) < mpf(10) ** -25
        assert abs(sol.effective_charge - mpf(2) / 5) < mpf(10) ** -10


def test_gordon_matrix_effective_charge():
    with mp.workdps(PRECISION_DPS):
        for s in range(2, 9):
            sol = solve_nahm_system(gordon_matrix(s))
            assert sol.residual < mpf(10) ** -30, s
            assert abs(sol.effective_charge - mpf(2 * (s - 1)) / (2 * s + 1)) \
                < mpf(10) ** -10, s


def test_e8_effective_charge():
    with mp.workdps(PRECISION_DPS):
        sol = solve_nahm_system(e8_nahm_data().A)
        assert sol.residual < mpf(10) ** -12
        assert abs(sol.effective_charge - mpf(1) / 2) < mpf(10) ** -8


@pytest.mark.parametrize("A", [QUASIPARTICLE_MATRIX, e8_nahm_data().A],
                         ids=["2x2", "E8"])
def test_jacobian_matches_central_differences(A):
    # the closed-form Jacobian handed to findroot, against
    # (F(x + h e_j) - F(x - h e_j)) / 2h at a random point x = log Q < 0
    # scaled so that every e^(x_i) and e^((Ax)_i) is of order 1
    rng = random.Random(len(A))
    with mp.workdps(PRECISION_DPS):
        F, J = _equations([[mpf(int(a)) for a in row] for row in A])
        x = [-mpf(rng.uniform(0.5, 1.5)) / sum(row) for row in A]
        h = mpf(10) ** -15
        Jx = J(*x)
        for j in range(len(A)):
            up = F(*[xi + h * (i == j) for i, xi in enumerate(x)])
            down = F(*[xi - h * (i == j) for i, xi in enumerate(x)])
            for i in range(len(A)):
                assert abs(Jx[i, j] - (up[i] - down[i]) / (2 * h)) < mpf(10) ** -20, (i, j)


def test_solution_json():
    sol = solve_nahm_system([[2]])
    d = sol.to_json_dict()
    assert set(d) == {"matrix", "Q", "residual", "alpha", "g"}
    assert d["matrix"] == [["2"]]
    assert isinstance(d["Q"][0], float)


def test_random_positive_definite_matrices():
    # A = B^T B + I with small integer B: symmetric positive definite, with
    # entries of both signs
    rng = random.Random(20260)
    with mp.workdps(PRECISION_DPS):
        for _ in range(60):
            n = rng.randint(1, 5)
            B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            A = [[sum(B[k][i] * B[k][j] for k in range(n)) + (i == j)
                  for j in range(n)] for i in range(n)]
            sol = solve_nahm_system(A)
            assert all(0 < q < 1 for q in sol.Q), A
            for row, q in zip(A, sol.Q):
                p = mp.fprod(qj ** a for qj, a in zip(sol.Q, row))
                assert abs(1 - q - p) < mpf(10) ** -30, A


@pytest.mark.parametrize("A", [[[0]], [[-1]]])
def test_no_root_raises(A):
    # [[0]]: 1 - Q = 1 has only the boundary solution Q = 0;
    # [[-1]]: 1 - Q = 1/Q has no real solution
    with pytest.raises(NoConvergence):
        solve_nahm_system(A)


def test_root_at_infinity_is_rejected(monkeypatch):
    # x = log Q = -120 leaves |1 - Q - Q^0| = Q < 1e-52 for [[0]], yet it is
    # no root: the residual is all of Q.  The patch replaces the 40-digit
    # stage, which must still run, at 40 digits, after the double stage
    dps = []

    def findroot(*args, **kwargs):
        dps.append(mp.mp.dps)
        return mp.matrix([-120])

    monkeypatch.setattr(mp, "findroot", findroot)
    with pytest.raises(NoConvergence):
        solve_nahm_system([[0]])
    assert dps == [PRECISION_DPS]


# -- the two stages: doubles, then 40 digits -----------------------------------

def one_stage_root(A):
    """Q from Newton's method at 40 digits all the way from Q = (1/2, ...,
    1/2): the reference for the two-stage solve."""
    with mp.workdps(PRECISION_DPS):
        F, J = _equations([[mpf(int(a)) for a in row] for row in A])
        x = mp.findroot(F, [-mp.log(2)] * len(A), solver="mdnewton", J=J, maxsteps=100)
        return [mp.exp(xi) for xi in x]


TWO_STAGE_MATRICES = ([("ising", QUASIPARTICLE_MATRIX), ("E8", e8_nahm_data().A)]
                      + [("gordon%d" % s, gordon_matrix(s)) for s in range(2, 9)])


@pytest.mark.parametrize("A", [A for _, A in TWO_STAGE_MATRICES],
                         ids=[name for name, _ in TWO_STAGE_MATRICES])
def test_two_stage_root_is_the_one_stage_root(A):
    with mp.workdps(PRECISION_DPS):
        got = solve_nahm_system(A).Q
        for q, ref in zip(got, one_stage_root(A)):
            assert abs(q - ref) < mpf(10) ** -35


@pytest.mark.parametrize("A", [QUASIPARTICLE_MATRIX, e8_nahm_data().A],
                         ids=["2x2", "E8"])
def test_two_stage_takes_few_40_digit_steps(monkeypatch, A):
    # Newton's method from a root in doubles needs two 40-digit steps; the
    # one-stage solve above takes 7 (2x2) and 10 (E8).  Each step evaluates
    # J once
    calls = []
    equations = nahm._equations

    def spy(Af, ctx=mp):
        F, J = equations(Af, ctx)

        def counted_J(*x):
            if ctx is mp:
                calls.append(mp.mp.dps)
            return J(*x)

        return F, counted_J

    monkeypatch.setattr(nahm, "_equations", spy)
    solve_nahm_system(A)
    assert 1 <= len(calls) <= 3
    assert min(calls) >= PRECISION_DPS  # findroot adds guard digits


@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError, ValueError])
def test_a_failed_double_stage_is_no_convergence(monkeypatch, error):
    # no fallback to the 40-digit solve from Q = 1/2
    def fail(*args, **kwargs):
        raise error("stage 1")

    monkeypatch.setattr(mp.fp, "findroot", fail)
    monkeypatch.setattr(mp, "findroot", lambda *args, **kwargs: pytest.fail("stage 2 ran"))
    with pytest.raises(NoConvergence):
        solve_nahm_system(QUASIPARTICLE_MATRIX)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_a_non_finite_double_start_is_no_convergence(monkeypatch, value):
    monkeypatch.setattr(mp.fp, "findroot", lambda *args, **kwargs: mp.fp.matrix([value]))
    monkeypatch.setattr(mp, "findroot", lambda *args, **kwargs: pytest.fail("stage 2 ran"))
    with pytest.raises(NoConvergence):
        solve_nahm_system([[2]])
