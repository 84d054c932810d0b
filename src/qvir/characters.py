"""Character formulas and q-series identities for the c=1/2 minimal model.

Every identity in scope has two independently computable sides; the
functions here produce each side as an exact truncated series so callers
can compare them coefficientwise mod q^N.  Two-variable refinements (the
five-class generating functions, P(t, q) and the bigraded character) are
tables {(q-exponent, t-degree): coefficient} below q^N, the shape
``partitions.count_table`` gives each class.  The q-difference equations of
the five classes are the rows of ``partitions.CLASS_EQUATIONS``, which
``functional_equation_check`` reads on the cells of the closed forms.

Every character sum here has the shape sum x q^e / ((q)_k1 ... (q)_kr) and
is evaluated by ``qseries.divided_sum``: the Nahm sums (``nahm_sum``, the
quasiparticle double sums, one call at t = 1 and one per t-degree for a
table), the single sums (``qseries.single_sum``) and the theta sums over
(q)_infinity (``feigin_fuchs_character`` and the BGG expression, through
``_theta_sum``).  The products are ``qseries.q_product``.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd, lcm

from qvir.linalg import Echelon
from qvir.partitions import CLASS_EQUATIONS, CLASSES, class_equation_failures
from qvir.qseries import QSeries, _slots_below, divided_sum, q_product, single_sum


class NotPositiveDefinite(ValueError):
    """Raised when a quadratic form fails the positivity check."""


# ---------------------------------------------------------------------------
# minimal model labels and the Feigin-Fuchs character
# ---------------------------------------------------------------------------


class MinimalModelLabel:
    """A coprime pair (p, p') with p' > p >= 2, carrying its central charge."""

    __slots__ = ("p", "pp")

    def __init__(self, p: int, pp: int):
        if not (2 <= p < pp and gcd(p, pp) == 1):
            raise ValueError("need coprime integers p' > p >= 2")
        self.p = p
        self.pp = pp

    @property
    def central_charge(self) -> Fraction:
        p, pp = self.p, self.pp
        return 1 - Fraction(6 * (p - pp) ** 2, p * pp)

    @property
    def singular_degree(self) -> int:
        return (self.p - 1) * (self.pp - 1)

    def __repr__(self):
        return f"MinimalModelLabel({self.p},{self.pp})"


def feigin_fuchs_character(label: MinimalModelLabel, trunc) -> QSeries:
    """Graded dimension of the (p, p') minimal model vacuum module mod q^trunc.

    The alternating sum over the affine Weyl group divided by (q)_infinity,
    sum over m of q^(pp' m^2 + (p - p') m) - q^(pp' m^2 + (p + p') m + 1).
    """
    p, pp = label.p, label.pp
    return _theta_sum(Fraction(trunc), p * pp, p - pp, p + pp)


def _theta_sum(n: Fraction, a: int, b1: int, b2: int) -> QSeries:
    """sum over m in Z of (q^(a m^2 + b1 m) - q^(a m^2 + b2 m + 1)) / (q)_infinity
    mod q^n, for a > |b1|, |b2|.

    Every exponent at m is at least a m^2 - max(|b1|, |b2|) |m|, which grows
    with |m|, so the terms below q^n end at the first m where that bound
    reaches n.  All terms share the divisor (q)_ceil(n), which is
    (q)_infinity mod q^n.
    """
    b = max(abs(b1), abs(b2))
    k = (ceil(n),)
    terms = []
    m = 0
    while a * m * m - b * m < n:
        for mm in ((0,) if m == 0 else (m, -m)):
            terms += [(a * mm * mm + b1 * mm, 1, k), (a * mm * mm + b2 * mm + 1, -1, k)]
        m += 1
    return divided_sum(n, terms)


# ---------------------------------------------------------------------------
# the four classical expressions for the vacuum character
# ---------------------------------------------------------------------------

ALT_EXPRESSIONS = ("BGG", "FermionHalf", "Euler", "QuintupleProduct")


def alt_expression(which: str, trunc) -> QSeries:
    n = Fraction(trunc)
    if which == "BGG":
        return _theta_sum(n, 12, 1, 7)
    if which == "FermionHalf":
        return _fermion_half(n, odd=False)
    if which == "Euler":
        return single_sum(n, (2, 0), (2, 0))
    if which == "QuintupleProduct":
        return q_product(n, (f for k in range(1, int(n) + 1) for f in (
            (8 * k - 5, 1, 1), (8 * k - 3, 1, 1), (8 * k, -1, 1), (2 * k, -1, -1))))
    raise ValueError("unknown expression %r" % (which,))


def congruence_product(residues, modulus: int, trunc) -> QSeries:
    """prod 1/(1-q^n) over n >= 1 with n mod modulus in residues, mod q^trunc."""
    n = Fraction(trunc)
    res = {r % modulus for r in residues}
    return q_product(n, ((j, -1, -1) for j in range(1, int(n) + 1) if j % modulus in res))


def mod16_product(trunc) -> QSeries:
    """Partitions into parts congruent to +-2, +-3, +-4, +-5 mod 16."""
    return congruence_product({2, 3, 4, 5, 11, 12, 13, 14}, 16, trunc)


def andrews_gordon_product(s: int, trunc) -> QSeries:
    """prod 1/(1-q^n) over n not congruent to 0, +-1 mod 2s+1."""
    if s < 2:
        raise ValueError("need s >= 2")
    mod = 2 * s + 1
    return congruence_product(set(range(2, mod - 1)), mod, trunc)


# ---------------------------------------------------------------------------
# Nahm sums
# ---------------------------------------------------------------------------


class NahmData:
    """A positive definite symmetric rational matrix with shift vector and offset."""

    __slots__ = ("A", "B", "C")

    def __init__(self, A, B=None, C=0):
        A = [[Fraction(x) for x in row] for row in A]
        n = len(A)
        if any(len(row) != n for row in A):
            raise ValueError("matrix must be square")
        if any(A[i][j] != A[j][i] for i in range(n) for j in range(n)):
            raise NotPositiveDefinite("matrix is not symmetric")
        if not _leading_minors_positive(A):
            raise NotPositiveDefinite("a leading principal minor is <= 0")
        self.A = A
        self.B = [Fraction(x) for x in (B if B is not None else [0] * n)]
        self.C = Fraction(C)
        if len(self.B) != n:
            raise ValueError("shift vector has wrong length")

    @property
    def dim(self) -> int:
        return len(self.A)


def _leading_minors_positive(A) -> bool:
    n = len(A)
    m = [row[:] for row in A]
    # exact LU without pivoting; leading minors are products of the pivots
    for k in range(n):
        piv = m[k][k]
        if piv <= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / piv
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return True


def _nahm_terms(data: NahmData, n: Fraction) -> list:
    """The terms (e, k) of the Nahm sum below q^n, in walk order, with
    e = k^T A k / 2 + k^T B + C.

    The walk goes through the coordinates left to right keeping the exact
    partial value of the exponent.  The entries of A, B and C must be
    nonnegative (ValueError otherwise), so this partial value only grows,
    and the first value of a coordinate at or above the truncation ends its
    branch.
    """
    A, B, C = data.A, data.B, data.C
    if any(x < 0 for row in A for x in row) or any(x < 0 for x in B) or C < 0:
        raise ValueError("the Nahm-sum walk needs nonnegative entries in A, B and C")
    d = data.dim
    # the walk runs on the int D e, with D the lcm of the denominators of
    # A/2, B and C, so that it builds no Fraction; for an int x, x < D n
    # exactly when x < ceil(D n) = top
    D = lcm(C.denominator, *(x.denominator for x in B),
            *((x / 2).denominator for row in A for x in row))
    half = [int(A[i][i] * D / 2) for i in range(d)]
    AD = [[int(x * D) for x in row] for row in A]
    BD = [int(x * D) for x in B]
    top = _slots_below(n, D)
    terms: list[tuple[int, tuple[int, ...]]] = []

    def walk(i, k, partial):
        if i == d:
            if partial < top:
                terms.append((partial, tuple(k)))
            return
        lin = BD[i] + sum(AD[i][j] * k[j] for j in range(i))
        ki = 0
        while True:
            add = (half[i] * ki + lin) * ki
            # add grows with ki, so the first overshoot ends the branch
            if ki > 0 and partial + add >= top:
                break
            walk(i + 1, k + [ki], partial + add)
            ki += 1

    walk(0, [], int(C * D))
    return [(Fraction(e, D), k) for e, k in terms]


def nahm_sum(data: NahmData, trunc) -> QSeries:
    """Sum of q^(k^T A k / 2 + k^T B + C) / prod (q)_{k_i} over k >= 0, mod q^trunc."""
    n = Fraction(trunc)
    return divided_sum(n, [(e, 1, k) for e, k in _nahm_terms(data, n)])


def e8_cartan_matrix() -> list[list[int]]:
    """Cartan matrix of E8 in Bourbaki labeling (node 2 attached to node 4)."""
    edges = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]
    m = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for a, b in edges:
        m[a - 1][b - 1] = m[b - 1][a - 1] = -1
    return m


def e8_cartan_inverse() -> tuple:
    """Exact inverse of the E8 Cartan matrix (an integer matrix, det = 1):
    the right half of the reduced echelon form of [A | I]."""
    n = 8
    ech = Echelon()
    for i, row in enumerate(e8_cartan_matrix()):
        aug = {j: x for j, x in enumerate(row) if x}
        aug[n + i] = 1
        ech.insert(aug)
    reduced = ech.reduced()
    # the primitive reduced rows are [I | A^-1] exactly when A^-1 is integral
    if not all(reduced.get(i, {}).get(i) == 1 for i in range(n)):
        raise ArithmeticError("the E8 Cartan matrix has no integral inverse")
    return tuple(tuple(reduced[i].get(n + j, 0) for j in range(n)) for i in range(n))


def e8_nahm_data() -> NahmData:
    inv = e8_cartan_inverse()
    return NahmData([[2 * x for x in row] for row in inv])


# ---------------------------------------------------------------------------
# quasiparticle double sums, single sums, and the three irreducible modules
# ---------------------------------------------------------------------------


# the quadratic form 4 k1^2 + 3 k1 k2 + k2^2 = k^T A k / 2 of every
# quasiparticle sum, and the matrix whose growth exponent nahm-alpha checks
QUASIPARTICLE_MATRIX = ((8, 3), (3, 2))


def _quasiparticle_terms(n: Fraction, bracket, linear=(0, 0), offset=0, t_base=0) -> list:
    """The terms (t-degree, (e, x, (k1, k2))) of the Nahm sum for
    QUASIPARTICLE_MATRIX with B = linear and C = offset, each term graded by
    t and multiplied by a bracket, mod q^n:

        sum over k1, k2 >= 0 of t^(t_base + 2k1 + k2) bracket(k1, k2)
            * q^(4k1^2 + 3k1k2 + k2^2 + l1 k1 + l2 k2 + offset) / ((q)_k1 (q)_k2)

    where linear = (l1, l2) and bracket is a list of ((a, b, c), coeff), each
    meaning coeff * q^(a k1 + b k2 + c).  Each bracket entry is a term of its
    own, at q^(e + a k1 + b k2 + c) over the divisor (q)_k1 (q)_k2 that it
    shares with the term's other entries.
    """
    out = []
    for e, (k1, k2) in _nahm_terms(NahmData(QUASIPARTICLE_MATRIX, linear, offset), n):
        out += [(t_base + 2 * k1 + k2, (e + a * k1 + b * k2 + c, x, (k1, k2)))
                for (a, b, c), x in bracket]
    return out


def _quasiparticle_sum(trunc, bracket, linear=(0, 0), offset=0) -> QSeries:
    """The quasiparticle sum of ``_quasiparticle_terms`` at t = 1: one
    ``divided_sum`` over all its terms."""
    n = Fraction(trunc)
    return divided_sum(n, [term for _, term in _quasiparticle_terms(n, bracket, linear, offset)])


def _quasiparticle_table(trunc, bracket, linear=(0, 0), offset=0, t_base=0) -> dict:
    """The quasiparticle sum of ``_quasiparticle_terms`` as a table
    {(q-exponent, t-degree): coefficient} below q^trunc, one ``divided_sum``
    per t-degree.  The table is keyed by integer q-exponents, so linear and
    offset must be integers."""
    n = Fraction(trunc)
    by_degree: dict[int, list] = {}
    for m, term in _quasiparticle_terms(n, bracket, linear, offset, t_base):
        by_degree.setdefault(m, []).append(term)
    return {(k, m): c for m, terms in by_degree.items()
            for k, c in divided_sum(n, terms).coeffs.items()}


def _fermion_half(n: Fraction, odd: bool) -> QSeries:
    """The half sum (odd False) or half difference (odd True) of the products
    over m >= 1 of (1 + q^(m-1/2)) and (1 - q^(m-1/2)), mod q^n.

    The second product is the first, P, at -q^(1/2), so the half sum is P's
    terms at integer exponents and the half difference its terms at half-odd
    exponents.  P's grid is 1/2, or 1 below q^(1/2), where no factor is kept.
    """
    p = q_product(n, ((Fraction(2 * m - 1, 2), 1, 1) for m in range(1, int(n) + 2)))
    d = p.denom
    if odd:
        return QSeries({k: c for k, c in p.coeffs.items() if k % d}, n, d)
    return QSeries({k // d: c for k, c in p.coeffs.items() if k % d == 0}, n)


# the bracket 1 - q^k1 + q^(k1+k2) of P(t, q)
_P_BRACKET = (((0, 0, 0), 1), ((1, 0, 0), -1), ((1, 1, 0), 1))


def quasiparticle_chi(trunc) -> QSeries:
    """Double sum over k >= 0 of q^(4k1^2+3k1k2+k2^2) (1 - q^k1 + q^(k1+k2))
    divided by (q)_{k1} (q)_{k2}: P(t, q) at t = 1."""
    return _quasiparticle_sum(trunc, _P_BRACKET)


MODULES = ("V0", "V_half", "V_sixteenth")

# (bracket, linear term, q-offset) of each module's quasiparticle double sum
_MODULE_SUMS = {
    "V0": ([((0, 0, 0), 1), ((4, 2, 1), -1)], (0, 0), 0),
    "V_half": ([((0, 0, 0), 1), ((8, 4, 6), -1)], (2, 0), Fraction(1, 2)),
    "V_sixteenth": ([((1, 1, 0), 1), ((4, 1, 1), 1)], (0, 0), 0),
}


def module_character(which: str, side: str, trunc) -> QSeries:
    """Unnormalized characters of the three irreducible modules.

    Classical sides: the fermionic half-sum / half-difference products for
    V0 and V_half, and prod (1+q^m) for V_sixteenth.  New sides: the
    corresponding two-variable quasiparticle double sums at t = 1.
    """
    n = Fraction(trunc)
    if side not in ("Classical", "New"):
        raise ValueError("side must be Classical or New")
    if which not in MODULES:
        raise ValueError("unknown module %r" % (which,))
    if side == "New":
        bracket, linear, offset = _MODULE_SUMS[which]
        return _quasiparticle_sum(n, bracket, linear, offset)
    if which == "V0":
        return alt_expression("FermionHalf", n)
    if which == "V_half":
        return _fermion_half(n, odd=True)
    return q_product(n, ((m, 1, 1) for m in range(1, int(n) + 1)))


# ---------------------------------------------------------------------------
# the five-class generating functions and their functional equations
# ---------------------------------------------------------------------------

# (t-degree, q-offset, linear term) of each class's quasiparticle double sum
_CLASS_SUMS = {
    "A": (0, 0, (2, 2)),
    "B": (1, 2, (5, 3)),
    "C": (2, 5, (9, 4)),
    "D": (2, 4, (8, 4)),
    "E": (3, 8, (11, 5)),
}


def class_closed_form(which: str, trunc) -> dict:
    """Generating function sum t^m q^n of one of the five partition classes,
    as the table {(n, m): coefficient} below q^trunc that
    ``partitions.count_table`` gives the class.

    The closed form is a double sum over m >= s and 0 <= k <= m - s of
    t^(m+k) q^e(m, k) [m - s, k]_q / (q)_(m - s), with s the class's
    t-degree.  Put j = m - s - k: then [j + k, k]_q / (q)_(j+k) is
    1 / ((q)_k (q)_j), t^(m+k) is t^(s + 2k + j), and e(m, k) is
    4k^2 + 3kj + j^2 + l1 k + l2 j + offset.  So the closed form is the
    quasiparticle sum with (k1, k2) = (k, j), term by term, for the class's
    row of _CLASS_SUMS.
    """
    if which not in CLASSES:
        raise ValueError("class must be one of %s" % (CLASSES,))
    t_base, offset, linear = _CLASS_SUMS[which]
    return _quasiparticle_table(trunc, [((0, 0, 0), 1)], linear, offset, t_base)


def P_of_t_q(trunc) -> dict:
    """Generating function sum p(n, m) t^m q^n as a quasiparticle double sum,
    as the table {(n, m): p(n, m)} below q^trunc."""
    return _quasiparticle_table(trunc, _P_BRACKET)


def at_t1(table: dict, trunc) -> QSeries:
    """A table {(n, m): c} at t = 1: the series sum c q^n mod q^trunc."""
    out: dict[int, int] = {}
    for (n, _), c in table.items():
        out[n] = out.get(n, 0) + c
    return QSeries(out, trunc)


def bigrade(table: dict) -> dict:
    """Substitute t -> t^(-2), q -> t*q in a table {(n, m): c}: t^m q^n maps
    to t^(n-2m) q^n."""
    out = {}
    for (n, m), c in table.items():
        if n < 2 * m:
            raise ValueError("negative t-exponent %d at t^%d q^%d" % (n - 2 * m, m, n))
        out[n, n - 2 * m] = c
    return out


def functional_equation_check(trunc) -> dict:
    """Verify ``partitions.CLASS_EQUATIONS`` on the closed forms mod q^trunc:
    the five q-difference equations of the class generating functions, and
    P_of_t_q as their sum, plus the t=0 initial conditions.

    The cells compared are every (q-exponent, t-degree) below q^trunc at
    which some closed form, or some closed form moved by a row of the
    table, has a term.  Each equation reports its first failing cell, the
    lowest in q and then in t.  The report carries the tables it checked,
    by class and under "P".
    """
    n = Fraction(trunc)
    table = {w: class_closed_form(w, n) for w in CLASSES}
    table["P"] = P_of_t_q(n)
    cells = set()
    for w, rows in CLASS_EQUATIONS.items():
        cells.update(table[w])
        for cls, a, j, e, _ in rows:
            cells.update((k + e + a * m, m + j) for k, m in table[cls])
    first = {}
    for f in class_equation_failures(table, sorted(c for c in cells if c[0] < n)):
        first.setdefault(f["class"], f)
    report = {w: {"passed": w not in first, "order": str(n),
                  "first_failure": None if w not in first else
                  {"t_degree": first[w]["m"], "q_exponent": str(first[w]["n"])}}
              for w in CLASS_EQUATIONS}
    inits = {"A": {k: c for (k, m), c in table["A"].items() if m == 0} == {0: 1}}
    for w in ("B", "C", "D", "E"):
        inits[w] = all(m for _, m in table[w])
    report["initial_conditions"] = inits
    report["closed_forms"] = table
    report["passed"] = not first and all(inits.values())
    return report
