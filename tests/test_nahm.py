import math
import random
from decimal import Decimal, getcontext, localcontext

import mpmath as mp
import pytest

import qvir.nahm as nahm
from qvir.characters import QUASIPARTICLE_MATRIX, e8_nahm_data
from qvir.nahm import (DomainError, NoConvergence, PRECISION_DPS, WORKING_DIGITS,
                       _system, printed_fixed_point, rogers_dilog, solve_nahm_system)

# mpmath is the independent reference: nahm computes in Decimal, and every
# value it returns is compared here, at 40 digits, with mpmath's pi, polylog,
# quad, sqrt and findroot


def mpf(x):
    """A Decimal (or int) as an mpmath number at the current precision."""
    return mp.mpf(str(x))


def dec(x):
    """An mpmath number as a Decimal, to 45 digits."""
    return Decimal(mp.nstr(x, 45))


def gordon_matrix(s):
    """The (s-1)x(s-1) Andrews-Gordon matrix 2 min(i, j); its Nahm sum, with
    shift vector (1, ..., s-1), is the Andrews-Gordon product, and its
    effective central charge is 2(s-1)/(2s+1)."""
    size = range(1, s)
    return [[2 * min(i, j) for j in size] for i in size]


def test_dilog_reflection_identity():
    with mp.workdps(PRECISION_DPS):
        for z10 in range(1, 10):
            z = Decimal(z10) / 10
            err = abs(mpf(rogers_dilog(z)) + mpf(rogers_dilog(1 - z)) - mp.pi ** 2 / 6)
            assert err < mpf(10) ** -12, (z10, float(err))


def test_dilog_half():
    with mp.workdps(PRECISION_DPS):
        assert abs(mpf(rogers_dilog(Decimal("0.5"))) - mp.pi ** 2 / 12) < mpf(10) ** -30


def test_dilog_small_z():
    assert rogers_dilog(Decimal("1e-25")) < Decimal("1e-20")


def test_dilog_golden_ratio_values():
    # L((sqrt5-1)/2) = pi^2/10 and L((3-sqrt5)/2) = pi^2/15 (Zagier, "The
    # Dilogarithm Function", 2007): closed forms independent of the series
    with mp.workdps(PRECISION_DPS):
        r5 = mp.sqrt(5)
        assert abs(mpf(rogers_dilog(dec((r5 - 1) / 2))) - mp.pi ** 2 / 10) < mpf(10) ** -35
        assert abs(mpf(rogers_dilog(dec((3 - r5) / 2))) - mp.pi ** 2 / 15) < mpf(10) ** -35


def test_dilog_domain():
    for z in (0, 1, 1.5, Decimal("-0.1")):
        with pytest.raises(DomainError):
            rogers_dilog(z)


def test_dilog_against_integral():
    # L(z) = -1/2 int_0^z [log(1-t)/t + log t/(1-t)] dt, by quadrature: a
    # reference that shares no code with the series route
    with mp.workdps(PRECISION_DPS):
        for z10 in (1, 3, 7, 9):
            z = mpf(z10) / 10
            ref = -mp.quad(lambda t: mp.log(1 - t) / t + mp.log(t) / (1 - t), [0, z]) / 2
            assert abs(mpf(rogers_dilog(Decimal(z10) / 10)) - ref) < mpf(10) ** -30


@pytest.mark.parametrize("z", ["0.05", "0.5", "0.85", "0.9",  # the series
                               "0.9000001", "0.95", "0.99", "0.99908009"])  # reflection
def test_dilog_against_polylog(z):
    with mp.workdps(PRECISION_DPS):
        x = mpf(z)
        ref = mp.polylog(2, x) + mp.log(x) * mp.log(1 - x) / 2
        assert abs(mpf(rogers_dilog(Decimal(z))) - ref) < mpf(10) ** -35


def test_machin_pi():
    with mp.workdps(WORKING_DIGITS):
        assert abs(mpf(nahm.PI) - mp.pi) < mpf(10) ** -(WORKING_DIGITS - 1)


def test_quasiparticle_matrix_fixed_point():
    with mp.workdps(PRECISION_DPS):
        sol = solve_nahm_system(QUASIPARTICLE_MATRIX)
        q1, q2 = printed_fixed_point()
        assert abs(mpf(sol.Q[0]) - mpf(q1)) < mpf(10) ** -10
        assert abs(mpf(sol.Q[1]) - mpf(q2)) < mpf(10) ** -10
        assert mpf(sol.residual) < mpf(10) ** -12
        assert all(0 < q < 1 for q in sol.Q)
        # ten-digit values of the closed forms, against mpmath's sqrt
        r = mp.sqrt(2 * mp.sqrt(2) - 1)
        assert mp.nstr(mpf(q1), 10) == mp.nstr((r + mp.sqrt(2) - 1) / 2, 10) == "0.8832035059"
        assert mp.nstr(mpf(q2), 10) == mp.nstr(2 / (r - mp.sqrt(2) + 3), 10) == "0.6807398542"


def test_alpha_is_pi2_over_12():
    with mp.workdps(PRECISION_DPS):
        sol = solve_nahm_system(QUASIPARTICLE_MATRIX)
        assert abs(mpf(sol.alpha) - mp.pi ** 2 / 12) < mpf(10) ** -10
        assert abs(mpf(sol.effective_charge) - mpf(1) / 2) < mpf(10) ** -10


def test_rogers_ramanujan_golden_point():
    with mp.workdps(PRECISION_DPS):
        sol = solve_nahm_system([[2]])
        q = mpf(sol.Q[0])
        golden = (mp.sqrt(5) - 1) / 2
        assert abs(q - golden) < mpf(10) ** -25
        # 1 - Q = Q^2 at the fixed point
        assert abs(1 - q - q ** 2) < mpf(10) ** -25
        assert abs(mpf(sol.effective_charge) - mpf(2) / 5) < mpf(10) ** -10


def test_gordon_matrix_effective_charge():
    with mp.workdps(PRECISION_DPS):
        for s in range(2, 9):
            sol = solve_nahm_system(gordon_matrix(s))
            assert mpf(sol.residual) < mpf(10) ** -30, s
            assert abs(mpf(sol.effective_charge) - mpf(2 * (s - 1)) / (2 * s + 1)) \
                < mpf(10) ** -10, s


def test_e8_effective_charge():
    with mp.workdps(PRECISION_DPS):
        sol = solve_nahm_system(e8_nahm_data().A)
        assert mpf(sol.residual) < mpf(10) ** -12
        assert abs(mpf(sol.effective_charge) - mpf(1) / 2) < mpf(10) ** -8


@pytest.mark.parametrize("A", [QUASIPARTICLE_MATRIX, e8_nahm_data().A],
                         ids=["2x2", "E8"])
def test_jacobian_matches_central_differences(A):
    # the closed-form Jacobian of _system, against
    # (F(x + h e_j) - F(x - h e_j)) / 2h at a random point x = log Q < 0
    # scaled so that every e^(x_i) and e^((Ax)_i) is of order 1
    rng = random.Random(len(A))
    with localcontext() as ctx:
        ctx.prec = WORKING_DIGITS
        Ad = [[Decimal(int(a)) for a in row] for row in A]
        x = [-Decimal(rng.uniform(0.5, 1.5)) / sum(row) for row in Ad]
        h = Decimal("1e-15")
        _, J = _system(Ad, x, Decimal.exp)
        for j in range(len(A)):
            up, _ = _system(Ad, [xi + h * (i == j) for i, xi in enumerate(x)], Decimal.exp)
            down, _ = _system(Ad, [xi - h * (i == j) for i, xi in enumerate(x)], Decimal.exp)
            for i in range(len(A)):
                assert abs(J[i][j] - (up[i] - down[i]) / (2 * h)) < Decimal("1e-20"), (i, j)


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
            Q = [mpf(q) for q in sol.Q]
            for row, q in zip(A, Q):
                p = mp.fprod(qj ** a for qj, a in zip(Q, row))
                assert abs(1 - q - p) < mpf(10) ** -30, A


@pytest.mark.parametrize("A", [[[0]], [[-1]]])
def test_no_root_raises(A):
    # [[0]]: 1 - Q = 1 has only the boundary solution Q = 0;
    # [[-1]]: 1 - Q = 1/Q has no real solution
    with pytest.raises(NoConvergence):
        solve_nahm_system(A)


def stage_spy(monkeypatch, stage1=None, stage2=None):
    """Replace one stage of solve_nahm_system's two ``_newton`` calls: the
    double stage runs on floats, the Decimal stage on Decimals."""
    real = nahm._newton

    def newton(A, x, exp, steps, tol):
        stage = stage2 if isinstance(x[0], Decimal) else stage1
        return (stage or real)(A, x, exp, steps, tol)

    monkeypatch.setattr(nahm, "_newton", newton)


def test_root_at_infinity_is_rejected(monkeypatch):
    # x = log Q = -120 leaves |1 - Q - Q^0| = Q < 1e-52 for [[0]], yet it is
    # no root: the residual is all of Q, which (1 - Q) - 1 at 50 digits
    # would round away.  The patch replaces the Decimal stage, which must
    # still run, at the working precision, after the double stage
    precs = []

    def at_infinity(*args):
        precs.append(getcontext().prec)
        return [Decimal(-120)]

    stage_spy(monkeypatch, stage2=at_infinity)
    with pytest.raises(NoConvergence, match="no root in"):
        solve_nahm_system([[0]])
    assert precs == [WORKING_DIGITS]


# -- the two stages: doubles, then Decimal -------------------------------------

def equations(A):
    """F and its Jacobian for mpmath's findroot, in mpmath numbers."""
    Af = [[mp.mpf(int(a)) for a in row] for row in A]

    def exps(x):
        return [mp.exp(xi) for xi in x], [mp.exp(mp.fdot(row, x)) for row in Af]

    def F(*x):
        ex, eax = exps(x)
        return [1 - u - v for u, v in zip(ex, eax)]

    def J(*x):
        ex, eax = exps(x)
        return mp.matrix([[-a * v - (u if i == j else 0) for j, a in enumerate(row)]
                          for i, (row, u, v) in enumerate(zip(Af, ex, eax))])

    return F, J


def one_stage_root(A):
    """Q from mpmath's Newton's method at 40 digits all the way from
    Q = (1/2, ..., 1/2): the reference for the two-stage solve."""
    with mp.workdps(PRECISION_DPS):
        F, J = equations(A)
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
            assert abs(mpf(q) - ref) < mpf(10) ** -35


@pytest.mark.parametrize("A", [QUASIPARTICLE_MATRIX, e8_nahm_data().A],
                         ids=["2x2", "E8"])
def test_two_stage_takes_few_40_digit_steps(monkeypatch, A):
    # Newton's method from a root in doubles needs two Decimal steps; the
    # one-stage solve above takes 7 (2x2) and 10 (E8).  Each step solves
    # with one Jacobian evaluation
    precs = []
    solve = nahm._solve

    def spy(M, b):
        if isinstance(b[0], Decimal):
            precs.append(getcontext().prec)
        return solve(M, b)

    monkeypatch.setattr(nahm, "_solve", spy)
    solve_nahm_system(A)
    assert 1 <= len(precs) <= 3
    assert min(precs) >= PRECISION_DPS


@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError, ValueError,
                                   NoConvergence])
def test_a_failed_double_stage_is_no_convergence(monkeypatch, error):
    # no fallback to a Decimal solve from Q = 1/2
    def fail(*args):
        raise error("stage 1")

    stage_spy(monkeypatch, stage1=fail, stage2=lambda *args: pytest.fail("stage 2 ran"))
    with pytest.raises(NoConvergence):
        solve_nahm_system(QUASIPARTICLE_MATRIX)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_non_finite_double_start_is_no_convergence(monkeypatch, value):
    stage_spy(monkeypatch, stage1=lambda *args: [value],
              stage2=lambda *args: pytest.fail("stage 2 ran"))
    with pytest.raises(NoConvergence):
        solve_nahm_system([[2]])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_non_finite_double_stage_is_no_convergence(monkeypatch, value):
    # e^x in doubles turned non-finite: the real stage 1 must stop, with no
    # root, and stage 2 must not run.  From NaN, a step-halving loop that
    # waited for the norm to fall would never end
    stage_spy(monkeypatch, stage2=lambda *args: pytest.fail("stage 2 ran"))
    monkeypatch.setattr(math, "exp", lambda x: value)
    with pytest.raises(NoConvergence):
        solve_nahm_system([[2]])
