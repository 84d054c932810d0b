"""Dilogarithm asymptotics of fermionic sums.

Solves the algebraic system 1 - Q_i = prod_j Q_j^(A_ij) on (0,1)^n by
Newton's method in x = log Q, with the Jacobian in closed form, and evaluates
the growth exponent alpha = sum_i (pi^2/6 - L(Q_i)) with the Rogers
dilogarithm L.  The exact-arithmetic modules never call into this one.

It runs on the standard library's ``decimal`` at PRECISION_DPS digits plus
guard digits, trusting its arithmetic and its correctly rounded exp, ln and
sqrt; pi comes from Machin's formula.  L(z) sums the series of Li_2 until
the tail bound z^(K+1) / ((K+1)^2 (1-z)) on the terms after the K-th is
below the working precision, and reflects, L(z) = pi^2/6 - L(1-z), only for
z > 9/10: so the tenths z = 0.1, ..., 0.9 are all summed, and the reflection
entry of ``nahm-alpha`` compares two independent evaluations, where with a
threshold of 1/2 it would hold by construction.

The solve has two ``_newton`` stages.  Stage 1 runs in doubles from
Q = (1/2, ..., 1/2); its root is only the start of stage 2, in Decimal, which
takes two of its at most three steps, as Newton's method converges
quadratically near a simple root: for positive definite A the root in
(0,1)^n is unique (Zagier, "The Dilogarithm Function", 2007).
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

from qvir.qseries import frac_str


class NoConvergence(ArithmeticError):
    pass


class DomainError(ValueError):
    pass


PRECISION_DPS = 40
WORKING_DIGITS = PRECISION_DPS + 10
_WORKING = Context(prec=WORKING_DIGITS)  # all work here, not the caller's context
# bound on |1 - Q_i - P_i| / min(Q_i, P_i), where P_i = prod_j Q_j^(A_ij)
RESIDUAL_BOUND = Decimal(10) ** (10 - PRECISION_DPS)
NEWTON_STEPS = 100  # stage 1; large mixed-sign entries take many damped steps
STAGE2_STEPS, HALVINGS = 3, 200  # Newton steps in Decimal; halvings of one step
# Newton's method stops once |F| < tol max(1, |x|): 2^10 units in the last
# place of a double, and four digits below PRECISION_DPS in Decimal
DOUBLE_TOL, DECIMAL_TOL = 2.0 ** -42, Decimal(10) ** -(PRECISION_DPS + 4)


def _arccot(m, unity):
    """unity * arctan(1/m), to within a few units, for an integer m > 1."""
    return sum((-1) ** (k // 2) * (unity // m ** k // k)
               for k in range(1, 2 * len(str(unity)), 2))


_UNITY = 10 ** (WORKING_DIGITS + 10)  # pi by Machin's formula, in integers
PI = _WORKING.divide(16 * _arccot(5, _UNITY) - 4 * _arccot(239, _UNITY), _UNITY)


def _dilog_series(z):
    """L(z) for 0 < z <= 9/10, from the power series of Li_2."""
    eps = Decimal(10) ** -WORKING_DIGITS * (1 - z)
    total, power, k = 0, z, 1
    while True:  # power = z^k
        total += power / (k * k)
        k += 1
        power *= z
        if power < eps * (k * k):  # the tail bound z^k / (k^2 (1 - z))
            return total + z.ln() * (1 - z).ln() / 2


def rogers_dilog(z):
    """L(z) = Li_2(z) + log(z) log(1-z) / 2 for 0 < z < 1."""
    with localcontext(_WORKING):
        z = Decimal(z)
        if not (0 < z < 1):
            raise DomainError("Rogers dilogarithm needs 0 < z < 1")
        if z > Decimal("0.9"):
            return PI * PI / 6 - _dilog_series(1 - z)
        return _dilog_series(z)


class NahmSolution:
    __slots__ = ("A", "Q", "residual", "alpha", "effective_charge")

    def __init__(self, A, Q, residual, alpha):
        self.A = A
        self.Q = Q
        self.residual = residual
        self.alpha = alpha
        with localcontext(_WORKING):
            self.effective_charge = 6 * alpha / (PI * PI)

    def to_json_dict(self) -> dict:
        return {"matrix": [[frac_str(Fraction(x)) for x in row] for row in self.A],
                "Q": [float(q) for q in self.Q],
                "residual": float(self.residual),
                "alpha": float(self.alpha),
                "g": float(self.effective_charge)}

    def __repr__(self):
        return "NahmSolution(Q=%s, alpha=%s)" % ([float(q) for q in self.Q],
                                                 float(self.alpha))


def _system(A, x, exp):
    """F(x) = 1 - e^(x_i) - e^((Ax)_i) and its Jacobian, in the arithmetic of exp."""
    ex = [exp(v) for v in x]
    eax = [exp(sum(a * v for a, v in zip(row, x))) for row in A]
    F = [1 - u - w for u, w in zip(ex, eax)]
    J = [[-a * w - (u if i == j else 0) for j, a in enumerate(row)]
         for i, (row, u, w) in enumerate(zip(A, ex, eax))]
    return F, J


def _solve(M, b):
    """The s with M s = b, by Gauss-Jordan elimination with partial pivoting."""
    n = len(b)
    M = [row[:] + [v] for row, v in zip(M, b)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(M[i][k]))
        if not M[p][k]:
            raise NoConvergence("singular Jacobian")
        M[k], M[p] = M[p], M[k]
        for i in range(n):
            if i != k:
                m = M[i][k] / M[k][k]
                M[i] = [u - m * v for u, v in zip(M[i], M[k])]
    return [row[n] / row[k] for k, row in enumerate(M)]


def _newton(A, x, exp, steps, tol):
    """Newton's method from x, each step halved until the max-norm |F| falls,
    up to ``steps`` steps or |F| < tol max(1, |x|); NoConvergence on a
    singular or non-finite step, or unless |F|^2 <= tol at the end."""
    F, J = _system(A, x, exp)
    norm = max(map(abs, F))
    for _ in range(steps):
        if norm < tol * max(1, max(map(abs, x))):
            break
        s = _solve(J, [-v for v in F])
        if not all(map(math.isfinite, s)):
            raise NoConvergence("singular Jacobian")
        for _ in range(HALVINGS):
            x1 = [a + b for a, b in zip(x, s)]
            F1, J1 = _system(A, x1, exp)
            norm1 = max(map(abs, F1))
            if norm1 < norm or x1 == x:
                break
            s = [v / 2 for v in s]
        if not norm1 < norm:
            break  # x is as exact as this arithmetic allows
        x, F, J, norm = x1, F1, J1, norm1
    if not norm * norm <= tol:
        raise NoConvergence("|F| = %s after the last step" % norm)
    return x


def solve_nahm_system(A) -> NahmSolution:
    """The root of F_i(x) = 1 - e^(x_i) - e^((Ax)_i), x = log Q; every real
    root has 0 < Q_i < 1, as 1 - e^(x_i) = e^((Ax)_i) > 0.  NoConvergence is
    raised if either stage fails, and unless the residual, recomputed in Q,
    is small relative to Q_i and P_i: a root at infinity, where a Q_i or P_i
    tends to 0, leaves a small absolute residual but not a small relative one.
    """
    A = [[Fraction(x) for x in row] for row in A]
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix must be square")
    if any(A[i][j] != A[j][i] for i in range(n) for j in range(n)):
        raise ValueError("matrix must be symmetric")
    try:  # stage 1, in doubles, only picks the start of stage 2
        start = _newton([[float(x) for x in row] for row in A], [-math.log(2)] * n,
                        math.exp, NEWTON_STEPS, DOUBLE_TOL)
        if not all(map(math.isfinite, start)):  # max() in |F| can skip a NaN
            raise NoConvergence("x = %s in doubles" % start)
        with localcontext(_WORKING):
            Ad = [[Decimal(x.numerator) / x.denominator for x in row] for row in A]
            x = _newton(Ad, [Decimal(v) for v in start], Decimal.exp, STAGE2_STEPS,
                        DECIMAL_TOL)
    except (ArithmeticError, ValueError) as exc:
        raise NoConvergence("Newton's method found no root: %s" % exc) from exc
    with localcontext(_WORKING):
        Q = [xi.exp() for xi in x]
        P = [math.prod(q ** a for q, a in zip(Q, row)) for row in Ad]
        # near a root max(q, p) > 1/2, so 1 - max(q, p) is exact and each
        # residual rounded once; in (1 - q) - p a q below 1e-50 would vanish
        res = [abs(1 - max(q, p) - min(q, p)) for q, p in zip(Q, P)]
        if not all(0 < q < 1 and r < RESIDUAL_BOUND * min(q, p)
                   for q, p, r in zip(Q, P, res)):
            raise NoConvergence("no root in (0,1)^n: residual %.5g" % max(res))
        alpha = sum(PI * PI / 6 - rogers_dilog(q) for q in Q)
        return NahmSolution(A, Q, max(res), alpha)


def printed_fixed_point():
    """The closed-form solution for the quasiparticle matrix (8 3; 3 2),
    ``characters.QUASIPARTICLE_MATRIX``."""
    with localcontext(_WORKING):
        s2 = Decimal(2).sqrt()
        r = (2 * s2 - 1).sqrt()
        return (r + s2 - 1) / 2, 2 / (r - s2 + 3)
