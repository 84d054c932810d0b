"""Dilogarithm asymptotics of fermionic sums.

Solves the algebraic fixed-point system 1 - Q_i = prod_j Q_j^(A_ij) on
(0,1)^n by damped fixed-point iteration and evaluates the growth exponent
alpha = sum_i (pi^2/6 - L(Q_i)) with the Rogers dilogarithm L.  All
numerics run at 40 significant digits through mpmath; the exact-arithmetic
modules never call into this one.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

from qvir.qseries import frac_str


class NoConvergence(ArithmeticError):
    pass


class DomainError(ValueError):
    pass


PRECISION_DPS = 40


def rogers_dilog(z, tol=None):
    """L(z) = sum z^n / n^2 + log(z) log(1-z) / 2 for 0 < z < 1.

    The series is summed until the tail bound drops below tol (default: the
    working precision).
    """
    with mp.workdps(PRECISION_DPS):
        z = mp.mpf(z) if not isinstance(z, mp.mpf) else z
        if not (0 < z < 1):
            raise DomainError("Rogers dilogarithm needs 0 < z < 1")
        if tol is None:
            tol = mp.mpf(10) ** (-(PRECISION_DPS - 2))
        total = mp.mpf(0)
        term = z
        n = 1
        while True:
            total += term / (n * n)
            # geometric tail bound: sum_{k>n} z^k/k^2 < z^(n+1)/(1-z)
            if term * z / (1 - z) < tol:
                break
            n += 1
            term *= z
        return total + mp.log(z) * mp.log(1 - z) / 2


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


def solve_nahm_system(A, tol=None, max_iter=5000) -> NahmSolution:
    """Damped fixed-point iteration from Q = (1/2, ..., 1/2).

    Each step moves towards the map value 1 - prod Q^A with the largest
    damping factor (halving from the last successful one) that decreases the
    residual.  When no damping helps, a coordinatewise bisection sweep takes
    over: for fixed other coordinates, 1 - Q_i - prod_j Q_j^(A_ij) is
    strictly decreasing in Q_i and changes sign on (0, 1), so each
    one-dimensional solve is certain; the sweeps are a monotone fallback for
    matrices with large entries whose undamped map oscillates.
    """
    A = [[Fraction(x) for x in row] for row in A]
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix must be square")
    if any(A[i][j] != A[j][i] for i in range(n) for j in range(n)):
        raise ValueError("matrix must be symmetric")
    with mp.workdps(PRECISION_DPS):
        if tol is None:
            tol = mp.mpf(10) ** (-(PRECISION_DPS - 10))
        else:
            tol = mp.mpf(tol)
        Af = [[mp.mpf(x.numerator) / x.denominator for x in row] for row in A]
        eps = mp.mpf(10) ** (-(2 * PRECISION_DPS))

        def map_value(Q, i):
            prod = mp.mpf(1)
            for j in range(n):
                if Af[i][j]:
                    prod *= Q[j] ** Af[i][j]
            return prod

        def residual(Q):
            return max(abs(1 - Q[i] - map_value(Q, i)) for i in range(n))

        def sweep(Q):
            # one Gauss-Seidel pass of certain one-dimensional bisections
            for i in range(n):
                lo, hi = eps, 1 - eps
                for _ in range(PRECISION_DPS * 4):
                    mid = (lo + hi) / 2
                    Q[i] = mid
                    if 1 - mid - map_value(Q, i) > 0:
                        lo = mid
                    else:
                        hi = mid
                Q[i] = (lo + hi) / 2
            return Q

        def newton_polish(Q, res):
            # quadratic finishing once the basin is reached; the Jacobian of
            # F_i = 1 - Q_i - P_i is -I - (A_ij P_i / Q_j)
            for _ in range(60):
                if res < tol:
                    break
                P = [map_value(Q, i) for i in range(n)]
                J = mp.matrix(n)
                F = mp.matrix(n, 1)
                for i in range(n):
                    F[i] = 1 - Q[i] - P[i]
                    for j in range(n):
                        J[i, j] = (-1 if i == j else 0) - Af[i][j] * P[i] / Q[j]
                delta = mp.lu_solve(J, -F)
                cand = [min(max(Q[i] + delta[i], eps), 1 - eps) for i in range(n)]
                cres = residual(cand)
                if cres >= res:
                    break
                Q, res = cand, cres
            return Q, res

        Q = [mp.mpf(1) / 2] * n
        res = residual(Q)
        theta_cap = mp.mpf(1)
        for _ in range(max_iter):
            if res < tol:
                break
            if res < mp.mpf(10) ** -6:
                Q, res = newton_polish(Q, res)
                if res < tol:
                    break
            target = [1 - map_value(Q, i) for i in range(n)]
            theta = theta_cap
            improved = False
            while theta > eps:
                cand = [min(max((1 - theta) * q + theta * t, eps), 1 - eps)
                        for q, t in zip(Q, target)]
                cres = residual(cand)
                if cres < res / 2:
                    Q, res = cand, cres
                    theta_cap = min(2 * theta, mp.mpf(1))
                    improved = True
                    break
                theta /= 2
            if not improved:
                Q = sweep(Q)
                res = residual(Q)
        else:
            raise NoConvergence("no convergence after %d iterations" % max_iter)
        alpha = mp.fsum(mp.pi ** 2 / 6 - rogers_dilog(q) for q in Q)
        return NahmSolution(A, Q, res, alpha)


def ising_quasiparticle_matrix():
    return [[8, 3], [3, 2]]


def printed_fixed_point():
    """The closed-form solution for the 2x2 matrix above."""
    with mp.workdps(PRECISION_DPS):
        r = mp.sqrt(2 * mp.sqrt(2) - 1)
        q1 = (r + mp.sqrt(2) - 1) / 2
        q2 = 2 / (r - mp.sqrt(2) + 3)
        return q1, q2
