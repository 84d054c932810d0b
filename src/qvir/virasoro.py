"""Exact linear algebra in the Virasoro vacuum module.

Vectors live in the module induced from the one-dimensional representation
of the nonnegative half (so the modes of index >= -1 kill the vacuum) and
are stored in the PBW basis: monomials are partitions with parts >= 2, the
partition (n1 >= ... >= nm) standing for the ordered product of lowering
modes applied to the vacuum.  Applying any mode normal-orders via the
bracket [L_m, L_n] = (m - n) L_{m+n} + delta_{m,-n} (m^3 - m)/12 * c.
The submodule a singular vector generates is built by applying L_-1 and
L_-2 alone to an integer multiple of it (``submodule_spaces`` has the
proof); lowering modes never reach the central term, so that closure runs
on ints.
"""

from __future__ import annotations

from fractions import Fraction

from qvir.characters import MinimalModelLabel
from qvir.linalg import Echelon, int_row, primitive
from qvir.partitions import partitions_min2, count_min2
from qvir.partitions import grevlex_key as _grevlex_key
from qvir.qseries import exact_terms


class NoSolution(ArithmeticError):
    pass


class NonUniqueSolution(ArithmeticError):
    pass


class VirVector:
    """Element of the degree-truncated vacuum module at central charge c.

    Coefficients follow the ``qseries`` rule (an int while integral), and
    the constructor is the one place that drops a zero coefficient."""

    __slots__ = ("c", "coeffs")

    def __init__(self, c, coeffs=None):
        self.c = Fraction(c)
        self.coeffs = exact_terms(coeffs) if coeffs else {}

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, VirVector) and self.c == other.c
                and self.coeffs == other.coeffs)

    def __add__(self, other: "VirVector") -> "VirVector":
        if self.c != other.c:
            raise ValueError("central charges differ")
        out = dict(self.coeffs)
        for m, v in other.coeffs.items():
            out[m] = out.get(m, 0) + v
        return VirVector(self.c, out)

    def __neg__(self):
        return VirVector(self.c, {m: -v for m, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f) -> "VirVector":
        return VirVector(self.c, {m: v * f for m, v in self.coeffs.items()})

    def degree(self) -> int:
        degs = {sum(m) for m in self.coeffs}
        if len(degs) != 1:
            raise ValueError("vector is not homogeneous")
        return degs.pop()

    def max_length(self) -> int:
        return max((len(m) for m in self.coeffs), default=0)

    def __repr__(self):
        items = sorted(self.coeffs.items(), key=lambda t: _grevlex_key(t[0]))
        bits = [f"{v}*{list(m)}" for m, v in items[:6]]
        if len(items) > 6:
            bits.append("...")
        return "VirVector(c=%s: %s)" % (self.c, " + ".join(bits or ["0"]))


_APPLY_CACHE: dict[tuple, dict] = {}


def _apply_one(c: Fraction, m: int, mono: tuple) -> dict:
    """L_m applied to one PBW monomial, normal-ordered; returns a coeff map
    that holds no zero and follows the coefficient rule."""
    key = (c, m, mono)
    out = _APPLY_CACHE.get(key)
    if out is not None:
        return out
    if not mono:
        out = {} if m >= -1 else {(-m,): 1}
    elif -m >= mono[0]:
        out = {(-m,) + mono: 1}
    else:
        n1 = mono[0]
        tail = mono[1:]
        acc: dict[tuple, int | Fraction] = {}

        def add(res: dict, f):
            for mu, v in res.items():
                acc[mu] = acc.get(mu, 0) + f * v

        inner = _apply_one(c, m, tail)
        for mu, v in inner.items():
            add(_apply_one(c, -n1, mu), v)
        add(_apply_one(c, m - n1, tail), m + n1)
        if m == n1:
            add({tail: 1}, Fraction(m ** 3 - m, 12) * c)
        out = exact_terms(acc)
    _APPLY_CACHE[key] = out
    return out


def apply_mode(m: int, v: VirVector) -> VirVector:
    out: dict[tuple, int | Fraction] = {}
    for mono, coeff in v.coeffs.items():
        for mu, f in _apply_one(v.c, m, mono).items():
            out[mu] = out.get(mu, 0) + coeff * f
    return VirVector(v.c, out)


def apply_word(word, v: VirVector) -> VirVector:
    """Apply a sequence of modes right to left (the last entry acts first)."""
    for m in reversed(list(word)):
        v = apply_mode(m, v)
    return v


def singular_vector_check(v: VirVector) -> bool:
    """True iff L_1 and L_2, hence every positive mode, annihilate v."""
    return all(not apply_mode(m, v) for m in (1, 2))


def solve_singular_vector(label: MinimalModelLabel) -> VirVector:
    """The degree-(p-1)(p'-1) vector killed by the first two positive modes,
    normalized so the power of the degree-2 mode has coefficient 1."""
    c = label.central_charge
    deg = label.singular_degree
    basis = partitions_min2(deg)
    cols = _basis_index(deg)
    ech = Echelon()
    for m in (1, 2):
        # one row per target monomial: its coefficient in L_m of each basis vector
        rows: dict[tuple, dict] = {}
        for mono in basis:
            for mu, f in _apply_one(c, m, mono).items():
                rows.setdefault(mu, {})[mono] = f
        for row in rows.values():
            ech.insert(int_row(row, cols))
    null = ech.nullspace(len(basis))
    if not null:
        raise NoSolution("no singular vector at degree %d" % deg)
    if len(null) > 1:
        raise NonUniqueSolution("nullspace dimension %d" % len(null))
    vec = null[0]
    pivot = vec.get(cols[(2,) * (deg // 2)])
    if not pivot:
        raise NoSolution("solution misses the pure degree-2 monomial")
    v = VirVector(c, {basis[j]: x / pivot for j, x in vec.items()})
    if not singular_vector_check(v):
        raise NoSolution("solved vector fails annihilation")
    return v


def _basis_index(degree: int) -> dict:
    """Column of each PBW monomial of the degree: its place in the
    grevlex-ascending partitions_min2 listing."""
    return {m: i for i, m in enumerate(partitions_min2(degree))}


def submodule_spaces(label: MinimalModelLabel, n_max: int) -> dict:
    """Degreewise echelons of the submodule generated by the singular
    vector v, over the columns of _basis_index, up to degree n_max: the
    span of v closed under L_-1 and L_-2 alone, on integer vectors.

    Why these two modes suffice: ``solve_singular_vector`` raises unless L_1
    and L_2 kill v, and they generate every positive mode, so the positive
    half of the algebra kills v and U(Vir).v = U(Vir_-).v by the PBW
    theorem.  U(Vir_-) is generated by L_-1 and L_-2, because
    [L_-1, L_-n] = (n - 1) L_-(n+1) (Kac and Raina, Bombay Lectures on
    Highest Weight Representations, Lecture 3).  Both modes raise the
    degree, so a vector of degree above n_max never leads back below it
    and cutting the closure at n_max is exact.  A negative mode never meets
    the central term (that needs L_m against L_-m with m > 0), so its action
    on PBW monomials is integral: v is scaled once to its primitive integer
    multiple, which spans the same line, and every queued vector and every
    echelon row after it holds ints only.
    """
    v = solve_singular_vector(label)
    v = VirVector(v.c, primitive(v.coeffs))
    spaces: dict[int, Echelon] = {}
    indexes: dict[int, dict] = {}

    def insert(w: VirVector) -> bool:
        d = w.degree()
        if d not in spaces:
            spaces[d], indexes[d] = Echelon(), _basis_index(d)
        index = indexes[d]
        return spaces[d].insert({index[mono]: x for mono, x in w.coeffs.items()})

    insert(v)
    queue = [v]
    while queue:
        u = queue.pop()
        deg = u.degree()
        for m in (-1, -2):
            if deg - m > n_max:
                break
            w = apply_mode(m, u)
            if w and insert(w):
                queue.append(w)
    return spaces


def quotient_graded_dims(label: MinimalModelLabel, n_max: int, spaces=None) -> list:
    """Graded dimensions of the simple quotient up to degree n_max; ``spaces``
    is ``submodule_spaces(label, n_max)`` when the caller has built it."""
    if spaces is None:
        spaces = submodule_spaces(label, n_max)
    return [count_min2(n) - (spaces[n].rank if n in spaces else 0)
            for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# the degree-9 kernel element and its higher analogues
# ---------------------------------------------------------------------------

PRINTED_SINGULAR_34 = {(2, 2, 2): 1, (3, 3): Fraction(93, 64),
                       (6,): Fraction(-27, 16), (4, 2): Fraction(-33, 8)}


def lemma_b_check() -> dict:
    """The degree-9 combination: a lift of the arc-algebra kernel generator
    lands in PBW length <= 2 after correcting by modes applied to the
    singular vector, with the printed exact coefficients."""
    lab = MinimalModelLabel(3, 4)
    v34 = solve_singular_vector(lab)
    c = v34.c
    printed_matches = v34.coeffs == PRINTED_SINGULAR_34
    w34 = VirVector(c, {(5, 2, 2): 1, (4, 3, 2): 6})
    combo = (w34
             + apply_mode(-3, v34).scale(Fraction(256, 429))
             - apply_word((-1, -2), v34).scale(Fraction(64, 429))
             - apply_word((-1, -1, -1), v34).scale(Fraction(31, 286)))
    expected = VirVector(c, {(6, 3): Fraction(27, 8), (7, 2): Fraction(87, 4),
                             (9,): Fraction(147, 32), (5, 4): Fraction(-45, 16)})
    length3 = {m: v for m, v in combo.coeffs.items() if len(m) >= 3}
    return {
        "passed": combo == expected and not length3 and printed_matches,
        "printed_singular_vector_matches": printed_matches,
        "combination_equals_expected": combo == expected,
        "length3_components_vanish": not length3,
        "w34_has_length3": any(len(m) == 3 for m in w34.coeffs),
        "max_length": combo.max_length(),
        "filtration_bound_2m_le_n_minus_5": 2 * combo.max_length() <= 9 - 5,
    }


def kernel_generator_symbol(pp: int):
    """The degree-(2p'+1) element of the arc algebra: the weight-homogeneous
    combination of [5, 2^(p'-2)] and [4, 3, 2^(p'-3)]."""
    from qvir.diffalg import DiffPoly
    c1 = Fraction(9 - 2 * pp, 3 * (pp - 2))
    return DiffPoly({(5,) + (2,) * (pp - 2): c1, (4, 3) + (2,) * (pp - 3): 1})


def lemma_bp_check(pp: int) -> dict:
    """Kernel of the arc-algebra surjection onto the associated graded of the
    (3, p') quotient: dimensions vanish below 2p'+1, are one there, and the
    kernel is spanned by the explicit symbol (its lift reduces to shorter
    PBW length modulo the submodule)."""
    from qvir import diffalg
    if pp % 3 == 0:
        raise ValueError("(3, %d) is not coprime; no such minimal model" % pp)
    lab = MinimalModelLabel(3, pp)
    w = 2 * pp + 1
    arc_ideal = (diffalg.arc_generator(pp - 1),)
    arc = diffalg.hilbert_quotient(arc_ideal, w)
    spaces = submodule_spaces(lab, w)
    # read the ranks before the symbol test below extends the degree-w echelon
    vir = quotient_graded_dims(lab, w, spaces)
    kernel_dims = [int(arc.coefficient(d)) - vir[d] for d in range(w + 1)]
    sym = kernel_generator_symbol(pp)
    not_in_arc_ideal = not diffalg.membership(sym, arc_ideal)
    # the lift: same coefficients read as PBW monomials; its class modulo the
    # submodule must drop to PBW length <= p'-2
    lift = VirVector(lab.central_charge, sym.terms)
    index = _basis_index(w)
    short = spaces.get(w, Echelon())
    for mono, i in index.items():
        if len(mono) <= pp - 2:
            short.insert({i: 1})
    symbol_vanishes = not short.reduce(int_row(lift.coeffs, index))
    return {
        "passed": (kernel_dims[:w] == [0] * w and kernel_dims[w] == 1
                   and not_in_arc_ideal and symbol_vanishes),
        "pp": pp,
        "kernel_dims": kernel_dims,
        "lowest_degree": w,
        "symbol_not_in_arc_ideal": not_in_arc_ideal,
        "symbol_vanishes_in_quotient": symbol_vanishes,
    }
