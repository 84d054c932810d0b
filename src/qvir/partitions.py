"""Pattern-avoiding partitions with parts >= 2 and their class decomposition.

A partition is a weakly decreasing tuple of integers >= 2.  The avoidance
set P(n) consists of partitions of n containing none of the forbidden
sub-multisets: eleven p-indexed families plus four exceptional patterns.
P(n) splits into five classes A..E according to the shape of its smallest
parts.  The five coupled q-difference equations of the class generating
functions, and P as their sum, are written once, as the row table
``CLASS_EQUATIONS``; ``class_equation_failures`` reads it on any table of
coefficients, and ``recursion_check`` on the class counts of the walk.

P(n) is counted, listed and split into classes by one walk up the part
values 2, 3, ... whose state is the multiplicities of the last few values
(a transfer matrix), so no partition is tested against the pattern table
one at a time here; ``contains_pattern`` does that for ``diffalg``'s
monomials.

Partitions with parts >= 2 are also the monomial basis of the arc algebra
(``diffalg``) and the PBW basis of the vacuum module (``virasoro``), listed
once here by ``partitions_min2`` and ``partitions_min2_length``, both in
descending lex order.  Within one weight that is ascending grevlex order: no
partition of n is a proper prefix of another, so two of them differ first
at some part, and the one with the larger part there is the larger in lex
and the smaller in grevlex.  Read backwards, a listing is grevlex-descending.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from heapq import merge


Partition = tuple


def weight(lam: Partition) -> int:
    return sum(lam)


# ---------------------------------------------------------------------------
# the forbidden patterns
# ---------------------------------------------------------------------------

# family name -> (offsets added to p, minimal p); the index-k member has
# p = minimal p + k.  These are the leading monomials of the differential
# ideal's Groebner basis: a0..a2 lead the divided derivatives of the cube of
# the degree-2 generator, the others lead the printed elements of diffalg.
PATTERN_FAMILIES = {
    "a0": ((0, 0, 0), 2),
    "a1": ((1, 0, 0), 2),
    "a2": ((1, 1, 0), 2),
    "t": ((2, 1, 0), 2),
    "r": ((2, 2, 0), 2),
    "s": ((2, 0, 0), 3),
    "u": ((3, 3, 0, 0), 2),
    "y": ((4, 3, 0, 0), 2),
    "w": ((4, 3, 1, 0), 2),
    "v": ((4, 4, 1, 0), 2),
    "z": ((6, 5, 3, 1, 0), 2),
}

EXCEPTIONAL_PATTERNS = {
    "e1": (5, 4, 2, 2),
    "e2": (7, 6, 4, 2, 2),
    "e3": (7, 7, 4, 2, 2),
    "e4": (9, 8, 6, 4, 2, 2),
}


def pattern(family: str, k: int) -> tuple:
    """The index-k pattern of a family; an exceptional pattern has index 0."""
    if family in EXCEPTIONAL_PATTERNS:
        if k:
            raise ValueError("exceptional patterns take no index")
        return EXCEPTIONAL_PATTERNS[family]
    offsets, pmin = PATTERN_FAMILIES[family]
    return tuple(pmin + k + o for o in offsets)


def forbidden_patterns(max_weight: int) -> tuple:
    """All forbidden patterns of weight <= max_weight, family by family and
    then the exceptional ones; duplicate-free."""
    out = [pattern(family, k) for family, (offsets, pmin) in PATTERN_FAMILIES.items()
           for k in range((max_weight - sum(offsets)) // len(offsets) - pmin + 1)]
    out += [pat for pat in EXCEPTIONAL_PATTERNS.values() if sum(pat) <= max_weight]
    if len(set(out)) != len(out):
        raise AssertionError("duplicate forbidden pattern")
    return tuple(out)


def index_by_min(patterns) -> dict:
    """Smallest part -> the part counts of each of the patterns with it."""
    by_min: dict[int, list] = {}
    for pat in patterns:
        by_min.setdefault(pat[-1], []).append(Counter(pat))
    return by_min


def contains_pattern(have: Counter, by_min: dict) -> bool:
    """Whether the partition with part counts ``have`` contains one of the
    patterns indexed by ``index_by_min``."""
    # a pattern inside the partition has its smallest part among its parts
    return any(all(have[u] >= k for u, k in pat.items())
               for v in have for pat in by_min.get(v, ()))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def partitions_min2_length(n: int, m: int) -> tuple:
    """Partitions of n into exactly m parts, all >= 2, in descending lex order.

    Built from the cached rows of m - 1 parts: each largest part v, from
    the largest down, goes in front of the rows of n - v whose parts are at
    most v, a suffix of that descending listing.
    """
    if m == 0:
        return ((),) if n == 0 else ()
    if m == 1:
        return ((n,),) if n >= 2 else ()
    out = []
    for v in range(n - 2 * (m - 1), -(-n // m) - 1, -1):  # down to ceil(n/m)
        rests = partitions_min2_length(n - v, m - 1)
        out += [(v,) + rest for rest in rests[bisect_left(rests, -v, key=lambda r: -r[0]):]]
    return tuple(out)


@lru_cache(maxsize=None)
def partitions_min2(n: int) -> tuple:
    """All partitions of n into parts >= 2, in descending lex order: the rows
    of every length merged, so ascending grevlex order."""
    return tuple(merge(*(partitions_min2_length(n, m) for m in range(n // 2 + 1)),
                       reverse=True))


def count_min2(n: int) -> int:
    """Number of partitions of n with parts >= 2, summed over the lengths
    without merging their listings."""
    return sum(len(partitions_min2_length(n, m)) for m in range(n // 2 + 1)) if n >= 0 else 0


# ---------------------------------------------------------------------------
# the walk up the part values
# ---------------------------------------------------------------------------

# a tripled part is the a0 pattern (p, p, p), so no value occurs more than twice
_MAX_MULTIPLICITY = 2


def pattern_width() -> int:
    """The most consecutive part values one forbidden pattern spans, over the
    whole table (families at every index and the exceptional patterns)."""
    spans = [max(offsets) - min(offsets) + 1 for offsets, _ in PATTERN_FAMILIES.values()]
    spans += [pat[0] - pat[-1] + 1 for pat in EXCEPTIONAL_PATTERNS.values()]
    return max(spans)


def _moves(window: tuple, needs: tuple) -> tuple:
    """The allowed steps at one part value v: (multiplicity of v, next window).

    ``window`` holds the multiplicities of v-1, v-2, ...; ``needs`` are the
    patterns whose largest part is v, each as the multiplicities it needs at
    v, v-1, ...  Leaving v out is always allowed, since each of them contains v.
    """
    out = [(0, (0,) + window[:-1])]
    for mult in range(1, _MAX_MULTIPLICITY + 1):
        row = (mult,) + window
        if not any(all(have >= k for have, k in zip(row, need)) for need in needs):
            out.append((mult, row[:-1]))
    return tuple(out)


def _walk(n_max: int):
    """The move function of one walk over partitions of weight <= n_max, with
    its start window; memoised for this walk only.

    A pattern is decided when the walk places its largest part, and it spans
    at most ``pattern_width()`` values, so the window keeps that many minus
    one.  It keeps at least three, because the class tag reads the
    multiplicities of 2, 3 and 4 at value 4.
    """
    needs: dict[int, set] = {}
    width = pattern_width()
    for pat in forbidden_patterns(n_max):
        need = [0] * width
        for u in pat:
            need[pat[0] - u] += 1
        needs.setdefault(pat[0], set()).add(tuple(need))
    shared: dict[tuple, dict] = {}  # equal pattern sets share one memo
    at = {}
    for v in range(2, max(n_max, 4) + 1):
        rule = tuple(sorted(needs.get(v, ())))
        at[v] = rule, shared.setdefault(rule, {})

    def moves(v: int, window: tuple) -> tuple:
        rule, memo = at[v]
        out = memo.get(window)
        if out is None:
            out = memo[window] = _moves(window, rule)
        return out

    return moves, (0,) * (max(width, 4) - 1)


def enumerate_P(n: int) -> list:
    """All pattern-avoiding partitions of n, smallest grevlex monomial first.

    A depth-first walk up the part values 2, 3, ... over the moves that
    ``count_table`` counts; a branch ends when the weight left is neither 0
    nor reachable by parts above the current value.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    moves, start = _walk(n)
    out: list[Partition] = []
    parts: list[int] = []

    def walk(v: int, remaining: int, window: tuple):
        if remaining == 0:
            out.append(tuple(reversed(parts)))
            return
        for mult, nxt in moves(v, window):
            left = remaining - mult * v
            if left == 0 or left > v:
                parts.extend([v] * mult)
                walk(v + 1, left, nxt)
                del parts[len(parts) - mult:]

    walk(2, n, start)
    out.sort(key=grevlex_key)
    return out


def grevlex_key(lam: Partition):
    """Sort key: ascending grevlex (larger part at first disagreement sorts first)."""
    return (weight(lam), tuple(-x for x in lam))


# ---------------------------------------------------------------------------
# the five classes
# ---------------------------------------------------------------------------

CLASSES = ("A", "B", "C", "D", "E")

# The five coupled q-difference equations of the class generating functions
# F_w(t) = sum t^m q^n (partitions of n with m parts in class w), and P as
# their total.  A row (cls, a, j, e, sign) of w adds sign t^j q^e F_cls(t q^a)
# to F_w(t); on coefficients it adds sign g(cls, n - e - a(m - j), m - j) to
# g(w, n, m).  ``recursion_check`` reads the rows on the counts of the walk,
# ``characters.functional_equation_check`` on the closed-form sums.
CLASS_EQUATIONS = {
    "A": (("A", 1, 0, 0, 1), ("B", 1, 0, 0, 1), ("C", 1, 0, 0, 1), ("D", 1, 0, 0, 1)),
    "B": (("A", 1, 1, 2, 1), ("D", 2, 1, 2, -1)),
    "C": (("B", 2, 1, 1, 1), ("D", 2, 1, 2, 1)),
    "D": (("B", 1, 1, 1, 1), ("E", 2, 1, 1, -1)),
    "E": (("C", 1, 1, 1, 1),),
    "P": tuple((cls, 0, 0, 0, 1) for cls in CLASSES),
}


def _class_tag(window: tuple) -> str:
    """The class of a partition in P(n), fixed by the multiplicities (of 4,
    3, 2) at the head of the window once the walk has placed 4: A has no
    part 2; B one 2 and no 3; C one 2 and a 3; E two 2s, no 3 and a 4; D
    two 2s otherwise (a third 2 is the pattern (2, 2, 2))."""
    m4, m3, m2 = window[:3]
    if m2 == 0:
        return "A"
    if m2 == 1:
        return "C" if m3 else "B"
    return "E" if not m3 and m4 else "D"


def count_table(n_max: int) -> dict:
    """Counts a,b,c,d,e,p indexed by (n, m): partitions of n with m parts per class.

    One walk up the part values 2..n_max (the transfer-matrix method): each
    state is a window of recent multiplicities and a class tag, set once the
    walk passes 4, and carries the counts of its partial partitions by
    (weight, length).  A partition leaves the walk for the table once no
    larger part fits.  Only nonzero cells appear.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    moves, start = _walk(n_max)
    table = {cls: {} for cls in CLASSES + ("P",)}
    states = {(start, None): {(0, 0): 1}}
    for v in range(2, max(n_max, 4) + 1):
        nxt: dict[tuple, dict] = {}
        for (window, tag), cells in states.items():
            for mult, new_window in moves(v, window):
                key = (new_window, _class_tag(new_window) if v == 4 else tag)
                target = nxt.setdefault(key, {})
                add = mult * v
                for (n, m), c in cells.items():
                    if n + add <= n_max:
                        cell = (n + add, m + mult)
                        target[cell] = target.get(cell, 0) + c
        states = {}
        for key, cells in nxt.items():
            if v >= 4:  # tagged; a cell with no room for a part above v is finished
                for cell in [cell for cell in cells if cell[0] + v >= n_max]:
                    c = cells.pop(cell)
                    for cls in (key[1], "P"):
                        table[cls][cell] = table[cls].get(cell, 0) + c
            if cells:
                states[key] = cells
    return {cls: dict(sorted(cells.items())) for cls, cells in table.items()}


def class_equation_failures(table: dict, cells) -> list:
    """The equations of CLASS_EQUATIONS that fail on ``table``, a map
    {class: {(n, m): coefficient of t^m q^n}} over the five classes and P,
    at each cell (n, m) of ``cells`` in turn.  Absent cells count as zero."""
    failures = []
    for n, m in cells:
        for w, rows in CLASS_EQUATIONS.items():
            expected = sum(sign * table[cls].get((n - e - a * (m - j), m - j), 0)
                           for cls, a, j, e, sign in rows)
            actual = table[w].get((n, m), 0)
            if actual != expected:
                failures.append({"class": w, "n": n, "m": m,
                                 "actual": actual, "expected": expected})
    return failures


def recursion_check(n_max: int) -> dict:
    """Verify CLASS_EQUATIONS on the class counts of ``count_table(n_max)``
    at every cell n = 1..n_max, m <= n/2.

    The n = 0 row is the base case (only the empty partition, in class A)
    and is excluded.  The report carries the count table it checked; a
    negative n_max raises ``ValueError`` there.
    """
    t = count_table(n_max)
    cells = [(n, m) for n in range(1, n_max + 1) for m in range(n // 2 + 1)]
    failures = class_equation_failures(t, cells)
    return {"passed": not failures, "n_max": n_max, "failures": failures[:10],
            "failure_count": len(failures),
            "comparisons": len(cells) * len(CLASS_EQUATIONS), "count_table": t}
