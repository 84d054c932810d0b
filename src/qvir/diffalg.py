"""The differential polynomial ring on generators of degree 2, 3, 4, ...

Monomials are partitions with parts >= 2: the partition (a1 >= ... >= am)
stands for the product of the degree-a_i generators and has weight sum(a_i).
The derivation sends the degree-n generator to (n-1) times the degree-(n+1)
one and extends by Leibniz, so it preserves the number of factors; since
both defining generators below are length-homogeneous, every weight slice of
the differential ideal splits into independent blocks by length, which keeps
the exact row reductions small.

A block inserts its rows generator by generator, derivative order upwards.
Three rules skip only redundant rows: it skips every monomial multiple of a
row that was redundant in a lower block and every row whose predecessor
under the derivation was redundant one weight down, since such a row is
then redundant too, and it stops once its rank is the number of its
monomials, keeping unit rows; ``_build_block`` has the proof.  The rank and
the reduced echelon form are those of inserting every row.  The reports read
the integer blocks only: their ranks (``hilbert_quotient``), their pivot
columns, which are the leading monomials of the slice (``groebner_check``),
and reductions against them (``membership``).

The grevlex order grades by weight; within a weight the monomial whose
partition has the larger part at the first disagreement is the smaller one,
so the descending lex listings of ``partitions`` are grevlex-ascending (its
docstring has the proof) and the columns of a block read them backwards.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from qvir.linalg import Echelon, exact_quotient, exact_terms, int_row, primitive
from qvir.partitions import (EXCEPTIONAL_PATTERNS, PATTERN_FAMILIES, contains_pattern,
                             count_min2, forbidden_patterns, grevlex_key, index_by_min,
                             partitions_min2, partitions_min2_length, pattern)
from qvir.qseries import QSeries


class ZeroPolynomial(ArithmeticError):
    """Raised when asking for the leading monomial of zero."""


# ---------------------------------------------------------------------------
# monomials and the grevlex order
# ---------------------------------------------------------------------------


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b, reverse=True))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class DiffPoly:
    """Sparse polynomial: map from monomial (partition tuple) to a nonzero
    rational, an int while it is integral (the ``linalg`` coefficient rule).
    The constructor is the one place that drops a zero coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = exact_terms(terms) if terms else {}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, DiffPoly) and self.terms == other.terms

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return DiffPoly(out)

    def scale(self, c) -> "DiffPoly":
        return DiffPoly({m: v * c for m, v in self.terms.items()})

    def divide(self, d: int) -> "DiffPoly":
        """self / d for a nonzero int d, under the coefficient rule."""
        return DiffPoly({m: exact_quotient(v, d) for m, v in self.terms.items()})

    def mul_monomial(self, mono: tuple, c=1) -> "DiffPoly":
        return DiffPoly({mono_mul(m, tuple(mono)): v * c for m, v in self.terms.items()})

    def weight(self) -> int:
        """Common weight of a homogeneous polynomial."""
        ws = {sum(m) for m in self.terms}
        if len(ws) != 1:
            raise ValueError("polynomial is not weight-homogeneous")
        return ws.pop()

    def lengths(self) -> set:
        return {len(m) for m in self.terms}

    def leading_monomial(self) -> tuple:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    def key(self) -> tuple:
        return tuple(sorted(self.terms.items()))

    def to_json_dict(self) -> dict:
        return {"weight": self.weight() if self.terms else 0,
                "terms": [[list(m), str(c)] for m, c in
                          sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]),
                                 reverse=True)]}

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)
        bits = [f"{c}*{list(m)}" for m, c in items[:6]]
        if len(items) > 6:
            bits.append("...")
        return "DiffPoly(" + " + ".join(bits or ["0"]) + ")"


def derive(f: DiffPoly) -> DiffPoly:
    """Leibniz extension of: degree-n generator -> (n-1) times degree-(n+1)."""
    out: dict[tuple, int | Fraction] = {}
    for mono, c in f.terms.items():
        seen = set()
        for i, v in enumerate(mono):
            if v in seen:
                continue
            seen.add(v)
            new = tuple(sorted(mono[:i] + (v + 1,) + mono[i + 1:], reverse=True))
            out[new] = out.get(new, 0) + c * mono.count(v) * (v - 1)
    return DiffPoly(out)


def arc_generator(k: int) -> DiffPoly:
    """The k-th power of the degree-2 generator: the arc-algebra generator
    of the (3, k+1) model (GEN_A for k = 3); alone, its differential ideal has
    the Andrews-Gordon product of index k as quotient Hilbert series."""
    return DiffPoly({(2,) * k: 1})


# the defining ideal: the cube of the degree-2 generator, and the degree-9
# element.  B_SCALED = 6*GEN_B is the scaling under which the printed
# leading-coefficient tables below hold.
GEN_A = arc_generator(3)
GEN_B = DiffPoly({(5, 2, 2): Fraction(1, 6), (4, 3, 2): 1})
GEN_B_SCALED = GEN_B.scale(6)


_DD_CACHE: dict[tuple, list] = {}


def _divided_derivatives(g: DiffPoly, n: int) -> list:
    """The cached chain d^[0] g, d^[1] g, ..., extended to order n at least."""
    chain = _DD_CACHE.setdefault(g.key(), [g])
    while len(chain) <= n:
        i = len(chain)
        chain.append(derive(chain[-1]).divide(i))
    return chain


def cached_divided_derivative(g: DiffPoly, n: int) -> DiffPoly:
    if n < 0:
        raise ValueError("n must be >= 0")
    return _divided_derivatives(g, n)[n]


# ---------------------------------------------------------------------------
# weight slices of a differential ideal
# ---------------------------------------------------------------------------


def _gens_key(gens) -> tuple:
    return tuple(g.key() for g in gens)


def _length(g: DiffPoly) -> int:
    """The factor count that every term of the generator g has."""
    lengths = g.lengths()
    if len(lengths) != 1:
        raise ValueError("a generator needs one factor count; %r has %s"
                         % (g, sorted(lengths)))
    return lengths.pop()


def _primitive(g: DiffPoly) -> DiffPoly:
    """The primitive integer multiple of g.  It generates the same ideal, and
    by the divided-power Leibniz rule, with d^[k] of the degree-n generator
    equal to C(n+k-2, k) times the degree-(n+k) one, every divided
    derivative of an integer polynomial is integral."""
    return DiffPoly(primitive(g.terms))


def _build_block(gens, d: int, l: int, gkey: tuple):
    """Echelon basis of the length-l part of the weight-d ideal slice, and
    the multipliers of the rows it kept.

    Derivation keeps the factor count of a generator, so with every
    generator of one length the slice splits into blocks by length.  Each
    generator is replaced by its primitive integer multiple, so every row is
    an int map from the start.

    The columns are the monomials of weight d and length l in grevlex-
    descending order: partitions_min2_length(d, l) read backwards (the
    ``partitions`` docstring has the proof).  The rows of the block are
    mu * d^[k] g for each generator g in turn, each k upwards and each mu in
    partitions_min2_length(d - w_g - k, l - len(g)); mu fixes k.  A row is
    redundant when it lies in the span of the rows before it.  Three rules
    skip only redundant rows, so the kept rows span the block:

    * once the block is full (its rank is the number of its monomials),
      every later row is redundant;
    * for k >= 1, the row (g, k - 1, mu) was not kept in the block
      (d - 1, l): that row is redundant there.  The derivation maps weight
      d - 1 to weight d and keeps the factor count, and
          d(mu * d^[k-1] g) = sum_i (mu_i - 1) (mu with mu_i raised by 1) d^[k-1] g
                              + k mu d^[k] g:
      rows of this block with a smaller k, and k times (g, k, mu).  A row
      before (g, k - 1, mu) in the lower block has an earlier generator, an
      order below k - 1, or order k - 1 and an earlier multiplier mu'; its
      image is made of rows with an earlier generator or an order below k,
      and of (g, k, mu'), all before (g, k, mu).  So d applied to the relation
      that makes (g, k - 1, mu) redundant writes k times (g, k, mu) as a
      combination of the rows before it;
    * for some part j of mu, the row (g, k, mu minus j) was not kept in the
      block (d - j, l - 1): that row is redundant there.  The multipliers
      of one weight and length come in descending lex order, which is the
      lex monomial order with larger variables first, so multiplying by
      x_j keeps their order.  Hence x_j maps every row before
      (g, k, mu minus j) in the lower block (earlier generators, smaller k,
      earlier multipliers) to a row before (g, k, mu) in this one, and x_j
      times a relation among the lower rows is a relation among these.

    By induction on the weight, and over the rows of each block in this
    order, a row that is skipped or that does not raise the rank is in the
    span of the rows before it (a row after a full block's early exit
    included), and the kept rows span what all rows span.  So the block's
    span, rank and reduced echelon form are those of the all-rows build.
    The lower blocks come from the cache, built only when a row reads them.
    A full block's reduced echelon form is the identity, so it stores the
    unit rows in place of the denser rows that filled it.

    Returns (echelon, monomials, kept), where kept[i] is the set of
    multipliers of the kept rows of generator gens[i].
    """
    monos = partitions_min2_length(d, l)[::-1]
    index = {m: i for i, m in enumerate(monos)}
    full = len(monos)
    ech = Echelon()
    kept = tuple(set() for _ in gens)
    for gi, g in enumerate(map(_primitive, gens)):
        wg = g.weight()
        extra = l - _length(g)
        if extra < 0:
            continue
        lower: dict[int, set] = {}

        def kept_below(j):
            out = lower.get(j)
            if out is None:
                out = lower[j] = _block_cached(gens, d - j, l - 1, gkey)[2][gi]
            return out

        chain = _divided_derivatives(g, d - wg)
        kept_before = None  # kept[gi] of the block (d - 1, l), read from k = 1 on
        for k in range(0, d - wg + 1):
            mus = partitions_min2_length(d - wg - k, extra)
            if k and mus and kept_before is None:
                kept_before = _block_cached(gens, d - 1, l, gkey)[2][gi]
            for mu in mus:
                if k and mu not in kept_before:
                    continue
                # one lookup per distinct part j of mu
                if any(mu[:i] + mu[i + 1:] not in kept_below(j)
                       for i, j in enumerate(mu) if i == 0 or j != mu[i - 1]):
                    continue
                if ech.insert({index[mono_mul(m, mu)]: c for m, c in chain[k].terms.items()}):
                    kept[gi].add(mu)
                    if ech.rank == full:
                        ech.pivots = {c: {c: 1} for c in range(full)}
                        return ech, monos, kept
    return ech, monos, kept


# (gens key, weight, length) -> _build_block's (echelon, monomials, kept)
_BLOCK_CACHE: dict[tuple, tuple] = {}


def _block_cached(gens, d: int, l: int, gkey: tuple | None = None):
    key = (_gens_key(gens) if gkey is None else gkey, d, l)
    out = _BLOCK_CACHE.get(key)
    if out is None:
        out = _BLOCK_CACHE[key] = _build_block(gens, d, l, key[0])
    return out


def _block_lengths(gens, d: int):
    """Factor counts that can occur in the weight-d slice."""
    out = set()
    for g in gens:
        lg = _length(g)
        for extra in range(0, (d - g.weight()) // 2 + 1):
            if partitions_min2_length(d, lg + extra):
                out.add(lg + extra)
    return sorted(out)


def membership(f: DiffPoly, gens) -> bool:
    """True iff homogeneous f lies in the weight slice spanned by the ideal.

    Only the blocks matching f's factor counts are materialized.
    """
    if not f:
        return True
    d = f.weight()
    by_len: dict[int, dict] = {}
    for m, c in f.terms.items():
        by_len.setdefault(len(m), {})[m] = c
    for l, terms in by_len.items():
        ech, monos, _ = _block_cached(gens, d, l)
        if ech.reduce(int_row(terms, {m: i for i, m in enumerate(monos)})):
            return False
    return True


def hilbert_quotient(gens, n_max: int) -> QSeries:
    """Graded dimension of the quotient by the differential ideal, mod q^(n_max+1)."""
    coeffs = {}
    for d in range(0, n_max + 1):
        dim = count_min2(d) - sum(_block_cached(gens, d, l)[0].rank
                                  for l in _block_lengths(gens, d))
        if dim:
            coeffs[d] = dim
    return QSeries(coeffs, n_max + 1)


# ---------------------------------------------------------------------------
# the printed derivative expansions
# ---------------------------------------------------------------------------

def _polyval(coeffs, k: int) -> int:
    v = 0
    for c in coeffs:
        v = v * k + c
    return v


# entries: (monomial at k=0, numerator polynomial in k, divisor); the whole
# expansion row may carry a scale (the 3k+10 and 3k+11 rows are printed for
# one third of the derivative).
_DERIV_A_ROWS = (
    (9, 1, (((5, 5, 5), (1,), 1), ((6, 5, 4), (6,), 1), ((6, 6, 3), (3,), 1),
            ((7, 4, 4), (3,), 1), ((7, 5, 3), (6,), 1), ((7, 6, 2), (6,), 1))),
    (10, 3, (((6, 5, 5), (1,), 1), ((6, 6, 4), (1,), 1), ((7, 5, 4), (2,), 1),
             ((7, 6, 3), (2,), 1), ((7, 7, 2), (1,), 1), ((8, 4, 4), (1,), 1),
             ((8, 5, 3), (2,), 1), ((8, 6, 2), (2,), 1))),
    (11, 3, (((6, 6, 5), (1,), 1), ((7, 5, 5), (1,), 1), ((7, 6, 4), (2,), 1),
             ((7, 7, 3), (1,), 1), ((8, 5, 4), (2,), 1), ((8, 6, 3), (2,), 1),
             ((8, 7, 2), (2,), 1))),
)

_DERIV_B_ROWS = (
    (6, 1, (((5, 5, 5), (19, 150, 389, 330), 6), ((6, 5, 4), (19, 150, 391, 340), 1),
            ((6, 6, 3), (19, 150, 395, 376), 2), ((7, 4, 4), (19, 150, 395, 344), 2),
            ((7, 5, 3), (19, 150, 397, 370), 1), ((7, 6, 2), (19, 150, 403, 448), 1))),
    (7, 1, (((6, 5, 5), (19, 169, 496, 480), 2), ((6, 6, 4), (19, 169, 498, 496), 2),
            ((7, 5, 4), (19, 169, 500, 496), 1), ((7, 6, 3), (19, 169, 504, 544), 1),
            ((7, 7, 2), (19, 169, 512, 640), 2), ((8, 4, 4), (19, 169, 506, 496), 2),
            ((8, 5, 3), (19, 169, 508, 528), 1), ((8, 6, 2), (19, 169, 514, 624), 1))),
    (8, 1, (((6, 6, 5), (19, 188, 615, 666), 2), ((7, 5, 5), (19, 188, 617, 672), 2),
            ((7, 6, 4), (19, 188, 619, 694), 1), ((7, 7, 3), (19, 188, 625, 760), 2),
            ((8, 5, 4), (19, 188, 623, 690), 1), ((8, 6, 3), (19, 188, 627, 750), 1),
            ((8, 7, 2), (19, 188, 635, 870), 1))),
)


def verify_derivative_formulas(k_max: int) -> dict:
    """Check the six printed expansion rows for 0 <= k <= k_max.

    For each row the listed shifted monomials must carry exactly the stated
    polynomial-in-k coefficients, and every unlisted monomial must be
    grevlex-smaller than all listed ones.
    """
    entries = []
    ok = True
    for gen, gen_name, rows in ((GEN_A, "a", _DERIV_A_ROWS),
                                (GEN_B_SCALED, "b", _DERIV_B_ROWS)):
        for offset, scale, table in rows:
            for k in range(0, k_max + 1):
                order = 3 * k + offset
                f = cached_divided_derivative(gen, order).divide(scale)
                listed = {}
                for mono0, num, divisor in table:
                    mono = tuple(x + k for x in mono0)
                    listed[mono] = exact_quotient(_polyval(num, k), divisor)
                entry = {"generator": gen_name, "order": order, "k": k, "passed": True,
                         "mismatches": []}
                for mono, want in listed.items():
                    got = f.terms.get(mono, 0)
                    if got != want:
                        entry["mismatches"].append(
                            {"monomial": list(mono), "expected": str(want), "actual": str(got)})
                floor_key = min(grevlex_key(m) for m in listed)
                stray = [m for m in f.terms
                         if m not in listed and grevlex_key(m) >= floor_key]
                if stray:
                    entry["mismatches"].append(
                        {"unlisted_monomials_not_smaller": [list(m) for m in stray]})
                entry["passed"] = not entry["mismatches"]
                ok = ok and entry["passed"]
                entries.append(entry)
    return {"passed": ok, "k_max": k_max, "entries": entries}


# ---------------------------------------------------------------------------
# the named ideal elements and their leading monomials
# ---------------------------------------------------------------------------

# the families with a printed element; a0..a2 are divided derivatives of GEN_A
ELEMENT_NAMES = tuple(name for name in (*PATTERN_FAMILIES, *EXCEPTIONAL_PATTERNS)
                      if not name.startswith("a"))


def _element_ingredients(name: str, k: int) -> list:
    """The printed combination as (coefficient, monomial-multiplier, base) triples.

    A base is a reference that build_element resolves: ("a", j) and ("b", j)
    name the j-th divided derivatives of GEN_A and of the 6-fold scaled
    GEN_B_SCALED (the scaling of the printed multiplier polynomials), and
    (name, k) names a previously built element.
    """
    if name == "r":
        return [(1, (), ("b", 3 * k + 1)),
                (-exact_quotient(_polyval((19, 55, 48, 12), k), 6), (), ("a", 3 * k + 4))]
    if name == "s":
        return [(1, (), ("b", 3 * k + 2)),
                (-exact_quotient(_polyval((19, 74, 91, 36), k), 6), (), ("a", 3 * k + 5))]
    if name == "t":
        return [(1, (), ("b", 3 * k)),
                (-exact_quotient(_polyval((19, 36, 17, 0), k), 6), (), ("a", 3 * k + 3))]
    if name == "u":
        if k == 0:
            return [(8, (5,), ("t", 0)), (-6, (2,), ("t", 1))]
        j = k - 1
        return [(2 * j + 10, (6 + j,), ("t", j + 1)),
                (-(2 * j + 8), (3 + j,), ("t", j + 2)),
                (-exact_quotient((2 * j + 10) * (3 * j + 20), 3), (2 + j,), ("a", 3 * j + 10))]
    if name == "v":
        return [(_polyval((11, 318, 3061, 9426), k), (2 + k,), ("t", k + 2)),
                (-_polyval((7, 90, 349, 370), k), (6 + k,), ("s", k)),
                (-_polyval((11, 191, 1029, 1745), k), (3 + k,), ("s", k + 1)),
                (-8 * _polyval((1, 19, 121, 255), k), (4 + k,), ("r", k + 1)),
                (exact_quotient(_polyval((35, 709, 5075, 14763, 13690), k), 3),
                 (6 + k,), ("a", 3 * k + 5)),
                (exact_quotient(8 * _polyval((1, 26, 254, 1102, 1785), k), 3),
                 (3 + k,), ("a", 3 * k + 8))]
    if name == "w":
        return [(k + 2, (6 + k,), ("r", k)),
                (-(k + 6), (2 + k,), ("s", k + 1))]
    if name == "y":
        if k == 0:
            return [(42, (5,), ("r", 0)), (-84, (2,), ("a", 7)),
                    (-12, (2,), ("r", 1)), (108, (6,), ("t", 0))]
        if k == 1:
            return [(-640, (6,), ("r", 1)), (2584, (3,), ("r", 2)),
                    (-4480, (5,), ("s", 1)), (Fraction(81856, 3), (2,), ("s", 2)),
                    (1216, (7,), ("t", 1)), (-10304, (4,), ("t", 2)),
                    (72128, (7,), ("a", 6)), (Fraction(112000, 3), (6,), ("a", 7))]
        j = k - 2
        return [(2 * _polyval((-1, -23, -189, -657, -810), j), (7 + j,), ("r", j + 2)),
                (_polyval((-7, -162, -1129, -2198, 1360), j), (4 + j,), ("r", j + 3)),
                (-4 * _polyval((1, 28, 289, 1302, 2160), j), (6 + j,), ("s", j + 2)),
                (exact_quotient(16 * _polyval((13, 384, 3849, 14962, 16600), j), j + 4),
                 (3 + j,), ("s", j + 3)),
                (-_polyval((5, 162, 1911, 7850, 4880), j), (8 + j,), ("t", j + 2)),
                (-_polyval((7, 207, 2265, 10841, 19080), j), (5 + j,), ("t", j + 3)),
                (_polyval((21, 691, 8865, 55173, 165650, 190800), j),
                 (8 + j,), ("a", 3 * j + 9)),
                (-2 * _polyval((1, 47, 901, 8393, 37218, 62640), j),
                 (2 + j,), ("a", 3 * j + 15)),
                (exact_quotient(2 * _polyval((9, 311, 4253, 28769, 96258, 127440), j), 3),
                 (7 + j,), ("a", 3 * j + 10))]
    if name == "z":
        return [(k + 6, (2 + k,), ("y", k + 2)),
                (-32 * _polyval((4, 165, 2427, 14184, 27440), k),
                 (8 + k, 7 + k), ("r", k))]
    if name == "e1":
        return [(3, (2,), ("s", 0)), (-1, (5,), ("a", 2))]
    if name == "e2":
        return [(1, (6,), ("y", 0)), (384, (2, 2), ("a", 11)),
                (-832, (2, 2), ("s", 2)), (-12, (7,), ("u", 0))]
    if name == "e3":
        return [(432, (2,), ("w", 1)), (11520, (7, 6), ("b", 0)),
                (73, (7,), ("y", 0)), (53088, (7, 7), ("a", 2))]
    if name == "e4":
        return [(1, (9, 8), ("u", 0)), (8, (9, 8, 6), ("a", 2)),
                (Fraction(112, 1415040), (2, 2), ("y", 3))]
    raise ValueError("unknown element %r" % (name,))


_ELEMENT_CACHE: dict[tuple, DiffPoly] = {}

# the generator behind each derivative reference of _element_ingredients
_GENERATOR_BASES = {"a": GEN_A, "b": GEN_B_SCALED}


def _base(ref) -> DiffPoly:
    """Resolve a base reference to an element of the differential ideal:
    a divided derivative of a generator, or a printed element.  Anything
    else raises, so no element is built from outside the ideal."""
    if not (isinstance(ref, tuple) and len(ref) == 2
            and type(ref[1]) is int and ref[1] >= 0):
        raise ValueError("base %r is not a (kind, index >= 0) reference" % (ref,))
    kind, j = ref
    if kind in _GENERATOR_BASES:
        return cached_divided_derivative(_GENERATOR_BASES[kind], j)
    if kind in ELEMENT_NAMES:
        return build_element(kind, j)
    raise ValueError("base %r is neither a generator derivative nor a printed element"
                     % (ref,))


def build_element(name: str, k: int = 0) -> DiffPoly:
    """The printed combination defining the named family member.

    Every term is a scalar times a monomial times a base that _base resolves
    to an ideal element, and the ideal absorbs both factors, so the result
    lies in the differential ideal by construction.  A multiplier that is not
    a monomial (parts >= 2) raises ValueError, as an unknown base does.
    """
    if name.startswith("e") and k != 0:
        raise ValueError("exceptional elements take no index")
    if (name, k) in _ELEMENT_CACHE:
        return _ELEMENT_CACHE[name, k]
    out = DiffPoly()
    for c, mono, ref in _element_ingredients(name, k):
        if not all(type(p) is int and p >= 2 for p in mono):
            raise ValueError("multiplier %r of %s_%d is not a monomial" % (mono, name, k))
        out = out + _base(ref).mul_monomial(tuple(mono), c)
    _ELEMENT_CACHE[name, k] = out
    return out


def prop51_check(k_max: int) -> dict:
    """For every forbidden pattern with family index <= k_max, check that its
    ideal element has that pattern as leading monomial.

    The element of an a-family pattern of weight d is the divided derivative
    of GEN_A of order d - 6; every other family has its printed element.
    Membership in the ideal is not tested here: build_element accepts only
    generator derivatives and printed elements as bases, so every element is
    in the ideal by construction, and each entry records "membership":
    "construction".  The leading monomial is the part of Proposition 5.1 that
    can fail: a different one is a finding, and the entry fails and carries
    the built one.
    """
    entries = []
    for family, k in ([(f, k) for k in range(k_max + 1) for f in PATTERN_FAMILIES]
                      + [(e, 0) for e in EXCEPTIONAL_PATTERNS]):
        pat = pattern(family, k)
        d = sum(pat)
        element = (build_element(family, k) if family in ELEMENT_NAMES
                   else _base(("a", d - 6)))
        lm = element.leading_monomial() if element else None
        entries.append({"pattern": list(pat), "family": family, "k": k, "weight": d,
                        "passed": lm == pat, "membership": "construction",
                        "finding": None if lm == pat else
                        {"built_lm": None if lm is None else list(lm)}})
    return {"passed": all(e["passed"] for e in entries), "k_max": k_max,
            "entries": entries, "findings": [e for e in entries if e["finding"]]}


# ---------------------------------------------------------------------------
# the degreewise Groebner property
# ---------------------------------------------------------------------------


def groebner_check(n_max: int) -> dict:
    """Degreewise: pivot monomials of the ideal slice must equal the
    monomials divisible by some claimed leading monomial, a forbidden pattern.

    The columns of a block are in grevlex-descending order and the pivot of
    an echelon row is its smallest column, so the pivot columns of the
    cached integer blocks are the leading monomials of the slice (Lazard,
    EUROCAL 1983); no reduced form is built.

    The published basis list omits the w family; the report records whether
    its patterns are covered by the others or genuinely required.
    """
    gens = (GEN_A, GEN_B)
    patterns = forbidden_patterns(n_max)
    w_lms = {pattern("w", k) for k in range(n_max)} & set(patterns)
    others = index_by_min(b for b in patterns if b not in w_lms)
    w_family = index_by_min(w_lms)
    per_degree = []
    slice_pivots = []
    ok = True
    w_only: list = []
    for d in range(0, n_max + 1):
        pivots = set()
        for l in _block_lengths(gens, d):
            ech, cols, _ = _block_cached(gens, d, l)
            pivots.update(cols[c] for c in ech.pivots)
        # partitions_min2 is grevlex-ascending: backwards, it lists the
        # pivots grevlex-descending
        monos = partitions_min2(d)
        slice_pivots.append(tuple(m for m in reversed(monos) if m in pivots))
        closure, closure_wo = set(), set()
        for m in monos:
            have = Counter(m)
            if contains_pattern(have, others):
                closure_wo.add(m)
                closure.add(m)
            elif contains_pattern(have, w_family):
                closure.add(m)
        missing = sorted(pivots - closure, key=grevlex_key)
        extra = sorted(closure - pivots, key=grevlex_key)
        needs_w = sorted(pivots - closure_wo, key=grevlex_key)
        w_only.extend(needs_w)
        good = not missing and not extra
        ok = ok and good
        per_degree.append({"weight": d, "rank": len(pivots), "passed": good,
                           "pivots_not_covered": [list(m) for m in missing[:5]],
                           "covered_not_pivot": [list(m) for m in extra[:5]],
                           "covered_only_by_w": [list(m) for m in needs_w[:5]]})
    return {"passed": ok, "n_max": n_max, "per_degree": per_degree,
            "slice_pivots": slice_pivots, "w_family_required": bool(w_only),
            "w_only_monomials": [list(m) for m in w_only[:10]]}
