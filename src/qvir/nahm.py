"""Dilogarithm asymptotics of fermionic sums.

Solves the algebraic system 1 - Q_i = prod_j Q_j^(A_ij) on (0,1)^n by
mpmath's multidimensional Newton method in x = log Q, with the Jacobian in
closed form, and evaluates the growth exponent
alpha = sum_i (pi^2/6 - L(Q_i)) with the Rogers dilogarithm L, built on
mpmath's `polylog`.  The exact-arithmetic modules never call into this one.

The solve has two stages.  Stage 1 runs Newton's method in doubles (mpmath's
``fp`` context) from Q = (1/2, ..., 1/2); most steps are taken there, where
a step costs a small part of a 40-digit one.  Its root serves only as the
start of stage 2, Newton's method at 40 significant digits.  Newton's method
converges quadratically near a simple root (for positive definite A the root
in (0,1)^n is unique, Zagier, "The Dilogarithm Function", 2007): an error of
about 1e-16 becomes about 1e-32 after one step and falls below the 40-digit
tolerance after the second, so stage 2 takes two steps.  Everything that
decides a verdict, the root, the residual test, 0 < Q_i < 1 and alpha, is
computed at 40 digits from the stage-2 root.  A poor start costs stage 2
more steps or ends in NoConvergence; for positive definite A it cannot lead
to another root, since there is none.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from qvir.qseries import frac_str


class NoConvergence(ArithmeticError):
    pass


class DomainError(ValueError):
    pass


PRECISION_DPS = 40
# bound on |1 - Q_i - P_i| / min(Q_i, P_i), where P_i = prod_j Q_j^(A_ij)
RESIDUAL_BOUND = mp.mpf(10) ** -(PRECISION_DPS - 10)
NEWTON_STEPS = 100  # mpmath's default of 10 stops short on large mixed-sign entries


def rogers_dilog(z):
    """L(z) = Li_2(z) + log(z) log(1-z) / 2 for 0 < z < 1."""
    with mp.workdps(PRECISION_DPS):
        z = mp.mpf(z) if not isinstance(z, mp.mpf) else z
        if not (0 < z < 1):
            raise DomainError("Rogers dilogarithm needs 0 < z < 1")
        return mp.polylog(2, z) + mp.log(z) * mp.log(1 - z) / 2


class NahmSolution:
    __slots__ = ("A", "Q", "residual", "alpha", "effective_charge")

    def __init__(self, A, Q, residual, alpha):
        self.A = A
        self.Q = Q
        self.residual = residual
        self.alpha = alpha
        self.effective_charge = 6 * alpha / mp.pi ** 2

    def to_json_dict(self) -> dict:
        return {"matrix": [[frac_str(Fraction(x)) for x in row] for row in self.A],
                "Q": [float(q) for q in self.Q],
                "residual": float(self.residual),
                "alpha": float(self.alpha),
                "g": float(self.effective_charge)}

    def __repr__(self):
        return "NahmSolution(Q=%s, alpha=%s)" % ([float(q) for q in self.Q],
                                                 float(self.alpha))


def _equations(Af, ctx=mp):
    """F(x) = 1 - e^(x_i) - e^((Ax)_i) and its Jacobian
    dF_i/dx_j = -delta_ij e^(x_i) - A_ij e^((Ax)_i), for ``ctx.findroot``:
    mpmath's ``mp`` at its working precision, or ``mp.fp`` in doubles."""

    def exps(x):
        return [ctx.exp(xi) for xi in x], [ctx.exp(ctx.fdot(row, x)) for row in Af]

    def F(*x):
        ex, eax = exps(x)
        return [1 - u - v for u, v in zip(ex, eax)]

    def J(*x):
        ex, eax = exps(x)
        return ctx.matrix([[-a * v - (u if i == j else 0) for j, a in enumerate(row)]
                           for i, (row, u, v) in enumerate(zip(Af, ex, eax))])

    return F, J


def solve_nahm_system(A) -> NahmSolution:
    """Newton's method in x = log Q, in doubles from Q = (1/2, ..., 1/2), then
    at 40 digits from that root.

    The root of F_i(x) = 1 - e^(x_i) - e^((Ax)_i) is sought; every real root
    has 0 < Q_i < 1, because 1 - e^(x_i) = e^((Ax)_i) > 0.  NoConvergence is
    raised if either stage fails, and unless the residual, recomputed in Q at
    40 digits, is small relative to Q_i and P_i: a root at infinity, where a
    Q_i or P_i tends to 0, leaves a small absolute residual but not a small
    relative one.
    """
    A = [[Fraction(x) for x in row] for row in A]
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix must be square")
    if any(A[i][j] != A[j][i] for i in range(n) for j in range(n)):
        raise ValueError("matrix must be symmetric")
    try:  # stage 1, in doubles: it only picks the start of stage 2
        F, J = _equations([[float(x) for x in row] for row in A], mp.fp)
        start = list(mp.fp.findroot(F, [-math.log(2)] * n, solver="mdnewton", J=J,
                                    maxsteps=NEWTON_STEPS))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise NoConvergence("Newton's method in doubles found no root: %s" % exc) from exc
    # from a NaN start, mpmath's step-halving loop would never end
    if not all(map(math.isfinite, start)):
        raise NoConvergence("Newton's method in doubles found no root: x = %s" % start)
    with mp.workdps(PRECISION_DPS):
        Af = [[mp.mpf(x.numerator) / x.denominator for x in row] for row in A]

        F, J = _equations(Af)
        try:
            x = mp.findroot(F, start, solver="mdnewton", J=J, maxsteps=NEWTON_STEPS)
        except (ValueError, ZeroDivisionError) as exc:
            raise NoConvergence("Newton's method found no root: %s" % exc) from exc
        Q = [mp.exp(xi) for xi in x]
        P = [mp.fprod(q ** a for q, a in zip(Q, row)) for row in Af]
        res = [abs(mp.fsum((1, -q, -p))) for q, p in zip(Q, P)]
        if not all(0 < q < 1 and r < RESIDUAL_BOUND * min(q, p)
                   for q, p, r in zip(Q, P, res)):
            raise NoConvergence("no root in (0,1)^n: residual %s" % mp.nstr(max(res), 5))
        alpha = mp.fsum(mp.pi ** 2 / 6 - rogers_dilog(q) for q in Q)
        return NahmSolution(A, Q, max(res), alpha)


def printed_fixed_point():
    """The closed-form solution for the quasiparticle matrix (8 3; 3 2),
    ``characters.QUASIPARTICLE_MATRIX``."""
    with mp.workdps(PRECISION_DPS):
        r = mp.sqrt(2 * mp.sqrt(2) - 1)
        q1 = (r + mp.sqrt(2) - 1) / 2
        q2 = 2 / (r - mp.sqrt(2) + 3)
        return q1, q2
