"""Exact LCP solving by complementary-support enumeration, plus LCP degree.

LCP(A, q): find x >= 0 with w = Ax + q >= 0 and x . w = 0.  Every solution
is recovered by enumerating the 2^n candidate supports, so the order is
capped (default 16, override with the LCP_ENUM_CAP environment variable);
walk and supports check the cap when an enumeration starts.

walk visits the supports as a tree: the parent of P + {p}, with p above
every index of P, is P, and each node's integer tableau carries its
parent's fraction-free reduction on by kernel.gauss_jordan, the
Gauss-Jordan routine pivot.ppt runs too: one pivot under a nonsingular
parent, so a support costs O(n^2) integer operations per pivot instead
of a fresh O(k^3) elimination.  A singular support keeps its tableau
reduced to the block's rank, which tells whether A_II x_I = -q_I is
consistent.  Only the consistent singular supports go to the exact LP
(see simplex), which pivots in integers too.  Each LCP question builds
its integer rows once: [A | q] times one positive scale
(integer_system), from the matrix's integer image.  walk and lex_walk
take those rows, and the family LPs read the same ones.  Fraction
values are built only at the boundaries, for the solutions returned.

Each walk record carries sgn det A_II, the sign of its pivot, so a
caller that walks needs no determinant.  minor_sign is the other route to
a principal-minor sign: one determinant, for classes.is_P, which does not
walk.

lex_walk is one walk of LCP(A, 0) that gives both the R0 test and the
degree.  A nonzero solution of LCP(A, 0) needs a singular support, and the
walk yields exactly those, for classes.r0_degree's LPs.  The same walk also
solves LCP(A, q(eps)) with q(eps) = (eps, eps^2, ..., eps^n), eps -> 0+
(lexicographic degeneracy resolution: Cottle, Pang & Stone, *The Linear
Complementarity Problem*, 1992, ch. 4).  There no support is degenerate
and no singular support is consistent, so for an R0 matrix the degree is
the sum of sgn det A_II over the supports whose x_I(eps) and w(eps) are
lexicographically positive (Howe & Stone, *Linear complementarity and the
degree of mappings*, 1983).  No q is drawn at random.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .errors import EnumerationCapError
from .kernel import gauss_jordan, pivoted
from .matrices import RationalMatrix, determinant, vec_to_fractions
from .simplex import FeasibilitySystem, solve_feasibility

DEFAULT_ENUM_CAP = 16


def enumeration_cap() -> int:
    value = os.environ.get("LCP_ENUM_CAP")
    if value is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(value)
    except ValueError:
        return DEFAULT_ENUM_CAP
    return cap if cap >= 1 else DEFAULT_ENUM_CAP


def check_cap(n: int) -> None:
    cap = enumeration_cap()
    if n > cap:
        raise EnumerationCapError(
            "order %d exceeds the support-enumeration cap %d" % (n, cap)
        )


@dataclass(frozen=True)
class LcpInstance:
    matrix: RationalMatrix
    q: tuple

    def __init__(self, matrix: RationalMatrix, q: Sequence):
        qf = tuple(vec_to_fractions(q))
        if len(qf) != matrix.n:
            raise ValueError("q length %d does not match order %d" % (len(qf), matrix.n))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "q", qf)


@dataclass(frozen=True)
class LcpSolution:
    """One solution x of LCP(A, q); support is the true support
    {i : x_i > 0}, in 1-based indices."""

    x: tuple
    support: tuple


def _sign(v) -> int:
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def embed(n: int, idx: Sequence[int], values: Sequence[Fraction]) -> list:
    """Length-n vector with values at the 0-based positions idx, zero elsewhere."""
    x = [Fraction(0)] * n
    for pos, i in enumerate(idx):
        x[i] = values[pos]
    return x


def supports(n: int):
    """The 0-based index list of every support, in bitmask order, the empty
    one first.  An order above the enumeration cap raises
    EnumerationCapError.

    Each list joins a subset of the low half of the indices to one of the
    high half, both read from tables of about 2^(n/2) lists; looping over
    the high subsets outside and the low ones inside gives bitmask order,
    and no mask is scanned bit by bit."""
    check_cap(n)
    half = n // 2
    low = _subsets(range(half))
    for high in _subsets(range(half, n)):
        for idx in low:
            yield idx + high


def _subsets(indices) -> List[List[int]]:
    """Every subset of indices as a sorted list, in bitmask order."""
    table: List[List[int]] = [[]]
    for i in indices:
        table += [idx + [i] for idx in table]
    return table


def minor_sign(matrix: RationalMatrix, idx: Sequence[int]) -> int:
    """sgn det A_II for the support idx; 1 for the empty support."""
    if not idx:
        return 1
    # One matrices.determinant call per minor, the one determinant routine,
    # which perfbench's trace counts: a closed form on the block's int rows
    # up to order 5, Bareiss elimination of a copy above that (kernel).  The
    # block keeps the matrix's scale, so no denominators are cleared again
    # per minor, and the sign is read from the numerator, an int.
    return _sign(determinant(matrix.principal_submatrix(idx)).numerator)


def walk(rows: List[List[int]], lex: bool = False):
    """(mask, idx, comp, sign, solved) for the supports of LCP(A, q), in
    no fixed order, where rows is integer_system(A, q)'s; idx lists the
    support's indices, comp the others, and sign is sgn det A_II.

    solved is (d, y, w) when A_II is nonsingular: d > 0, x_I = y / d
    solves A_II x_I = -q_I, and w holds, for each j in comp, an integer
    with the sign of w_j = (Ax + q)_j.  It is None when A_II is singular
    (sign 0) and A_II x_I = -q_I is consistent; an inconsistent singular
    support is not yielded.

    With lex, solved for a nonsingular support is instead whether it
    solves LCP(A, q(eps)), q(eps) = q + (eps, eps^2, ..., eps^n) with
    eps -> 0+: whether every x_i(eps) and every w_j(eps) is
    lexicographically positive (_lex_solves).  The singular supports are
    yielded as without lex, by their consistency at q.

    The tree's root is the empty support, and the parent of P + {p},
    with p above every index of P, is P.  A node is one fraction-free
    Gauss-Jordan reduction (see kernel) of the scaled [A_{:,I} | A_{:,>p}
    | q] over all n rows, prev its last pivot, less its pivoted columns
    (prev at their own row, zero elsewhere); with lex, the reduced
    identity column e_k of each support index k follows the q column, in
    increasing k: the coefficients of eps^(k+1).  A child carries its
    parent's reduction on: it adds column p and row p, whose e_p is prev
    at row p, and kernel.gauss_jordan pivots each support column without
    a pivot on a support row without one, from prev on, so one pass
    reaches the block's rank.  A nonsingular node has prev = det of its
    scaled block, and its q column holds det * (-x_i) on the support's
    rows and det * w_j, times the system's positive scale, on the others.
    A singular node keeps its columns without a pivot first, and its
    system is consistent iff the q entries of its rows without a pivot are
    zero.  Only the tableaux on the current path and the siblings waiting
    on the stack are kept.
    """
    n = len(rows)
    check_cap(n)
    # (mask, idx, last index, prev, support columns without a pivot, tableau)
    stack = [(0, [], -1, 1, [], [list(column) for column in zip(*rows)])]
    while stack:
        mask, idx, last, prev, free, tableau = stack.pop()
        comp = [j for j in range(n) if not mask >> j & 1]
        f = len(free)
        qpos = f + n - last - 1  # the q column's place in the tableau
        qcol = tableau[qpos]
        if free:
            if not any(qcol[r] for r in free):
                yield mask, idx, comp, 0, None
        elif lex:
            yield mask, idx, comp, _sign(prev), _lex_solves(prev, tableau[qpos:], idx, comp)
        elif prev > 0:
            yield mask, idx, comp, 1, (prev, [-qcol[i] for i in idx], [qcol[j] for j in comp])
        else:
            yield mask, idx, comp, -1, (-prev, [qcol[i] for i in idx], [-qcol[j] for j in comp])
        for p in range(last + 1, n):
            at = f + p - last - 1  # column p's place
            if not free and tableau[at][p]:
                # One pivot, at (p, p), as gauss_jordan makes it, and e_p is -column p.
                column = tableau[at]
                columns = pivoted(tableau[at + 1 :], column, p, prev)
                if lex:
                    e_p = [-g for g in column]
                    e_p[p] = prev
                    columns.append(e_p)
                stack.append((mask | 1 << p, idx + [p], p, column[p], [], columns))
                continue
            columns = tableau[:f] + tableau[at:]
            if lex:  # e_p: prev at row p, which has no pivot yet
                columns.append([prev if k == p else 0 for k in range(n)])
            columns, left, piv = gauss_jordan(columns, free + [p], prev)
            stack.append((mask | 1 << p, idx + [p], p, piv, left, columns))


def _lex_solves(det: int, columns: List[List[int]], idx: List[int], comp: List[int]) -> bool:
    """Whether a nonsingular node solves LCP(A, q(eps)) (see walk).
    columns are its q column and then its e_k columns for k in idx, so
    row i lists the coefficients of 1 and of eps^(k+1), in increasing
    power, of det * (-x_i(eps)) for i in idx and of det * w_j(eps) for j
    in comp; w_j(eps) also holds det at eps^(j+1), and no e_k with k > j
    comes before it.  Each value's sign is that of its first nonzero
    coefficient, read until the first row that fails."""
    positive = det > 0
    for i in idx:  # row i of A_II^-1 is nonzero, so some column is too
        for column in columns:
            v = column[i]
            if v:
                break
        if (v > 0) == positive:
            return False
    powers = [-1] + idx  # the q column comes before every e_k
    for j in comp:
        for k, column in zip(powers, columns):
            if k > j:
                break
            v = column[j]
            if v:
                if (v > 0) != positive:
                    return False
                break
    return True


def integer_system(matrix: RationalMatrix, q: Sequence) -> Tuple[int, List[List[int]]]:
    """(scale, rows): row i is [A_i | q_i] times scale, the lcm of the
    matrix's integer_rows scale and q's denominators, so that every row
    shares one positive scale.  Each LCP question builds it once, and its
    walk and family LPs read the same rows."""
    a_scale, ints = matrix.integer_rows()
    scale = lcm(a_scale, *(v.denominator for v in q))
    f = scale // a_scale
    return scale, [
        [a * f for a in row] + [v.numerator * (scale // v.denominator)] for row, v in zip(ints, q)
    ]


def family_point(
    rows: List[List[int]], idx: List[int], comp: List[int], scale: Optional[int] = None
):
    """For a singular A_II: a point x_I >= 0 with (Ax+q)_idx = 0 and
    (Ax+q)_comp >= 0, found by exact LP, or None; with a scale, also
    sum x_I = 1, written as [scale] * |I| = scale.  rows is integer_system's
    and scale its scale.  Any such x represents an affine family of
    solutions.  walk yields singular supports only when A_II x_I = -q_I
    is consistent, so the LP runs only then."""
    system = FeasibilitySystem(len(idx))
    for i in idx:
        system.add_eq([rows[i][j] for j in idx], -rows[i][-1])
    if scale is not None:
        system.add_eq([scale] * len(idx), scale)
    for j in comp:
        system.add_ge([rows[j][i] for i in idx], -rows[j][-1])
    return solve_feasibility(system)


def _solutions(matrix: RationalMatrix, q: Sequence):
    """(mask, x) for the solutions of LCP(A, q), x a tuple, lazily: first
    each nonsingular support of the walk whose x_I and slack pass, as the
    walk meets it, then one family point per consistent singular support
    whose LP is feasible.  Those LPs run only after the walk has ended."""
    _, rows = integer_system(matrix, q)
    singular = []
    for mask, idx, comp, sign, solved in walk(rows):
        if sign == 0:
            singular.append((mask, idx, comp))
            continue
        d, y, w = solved
        if not any(v < 0 for v in y) and not any(v < 0 for v in w):
            yield mask, tuple(embed(matrix.n, idx, [Fraction(v, d) for v in y]))
    for mask, idx, comp in singular:
        point = family_point(rows, idx, comp)
        if point is not None:
            yield mask, tuple(embed(matrix.n, idx, point))


def solve_lcp(inst: LcpInstance) -> List[LcpSolution]:
    """All solutions of LCP(A, q), one representative per affine family.

    Deterministic: solutions are listed in the bitmask order of the supports
    that produced them, and duplicate solution vectors are kept once (first
    occurrence wins).
    """
    seen = {}
    for _, x in sorted(_solutions(inst.matrix, inst.q)):  # masks are distinct
        if x not in seen:
            seen[x] = LcpSolution(x, tuple(i + 1 for i, v in enumerate(x) if v > 0))
    return list(seen.values())


def is_solvable(matrix: RationalMatrix, q: Sequence) -> bool:
    """Whether LCP(A, q) has a solution; the same answer as bool(solve_lcp).

    It stops at the first solution of _solutions, so the family LPs of the
    consistent singular supports run only when no nonsingular support
    solves it, and stop at the first feasible one.
    """
    q = LcpInstance(matrix, q).q
    return next(_solutions(matrix, q), None) is not None


def lex_walk(rows: List[List[int]]) -> Tuple[list, int]:
    """(singular, degree) from one lexicographic walk of LCP(A, 0), where
    rows is integer_system(A, 0)'s.

    singular lists (mask, idx, comp) for each singular support in bitmask
    order: these are the supports that can hold a nonzero solution of
    LCP(A, 0).  degree is the sum of sgn det A_II over the supports that
    solve LCP(A, q(eps)), q(eps) = (eps, eps^2, ..., eps^n); it is the LCP
    degree of A when A is R0.
    """
    singular = []
    total = 0
    for mask, idx, comp, sign, solved in walk(rows, lex=True):
        if sign == 0:
            singular.append((mask, idx, comp))
        elif solved:
            total += sign
    return sorted(singular), total


def degree(matrix: RationalMatrix) -> int:
    """LCP degree: the sum of sgn det A_II over the solutions of LCP(A, q)
    at a nondegenerate q, here the lexicographic q(eps) of lex_walk.

    Requires the R0 property for the value to be well defined, and does not
    check it: lcpq degree and q_oracle take R0 and the degree from one walk,
    classes.r0_degree.  Exact: no q is sampled.
    """
    return lex_walk(integer_system(matrix, [0] * matrix.n)[1])[1]
