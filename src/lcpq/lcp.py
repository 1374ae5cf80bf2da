"""Exact LCP solving by complementary-support enumeration, plus LCP degree.

LCP(A, q): find x >= 0 with w = Ax + q >= 0 and x . w = 0.  Every solution
is recovered by enumerating the 2^n candidate supports, so the order is
capped (default 16, override with the LCP_ENUM_CAP environment variable);
walk and supports check the cap when an enumeration starts.

walk visits the supports as a tree: the parent of P + {p}, with p above
every index of P, is P, and the child's integer tableau is one
fraction-free pivot on the parent's (see kernel), so each support costs
O(n^2) integer operations instead of a fresh O(k^3) elimination.  A zero
pivot leaves the child singular, and the parent's tableau already tells
whether its system A_II x_I = -q_I is consistent.  Below a singular
support, one fresh elimination reduces each child's block to its rank,
which also tells whether its system is consistent.  Only the consistent
singular supports go to the exact LP (see simplex), which pivots in
integers too.  Fraction values are built only at the boundaries, for the
solutions returned.

The class predicates read sgn det A_II through minor_sign.  Both it and
walk keep every sign they learn in the matrix's own memo
(RationalMatrix.minor_signs), so the calls that one oracle run makes on a
matrix compute each principal minor once.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .errors import DegreeSamplingError, EnumerationCapError
from .kernel import clear_denominators, eliminate
from .matrices import RationalMatrix, determinant, vec_to_fractions
from .simplex import FeasibilitySystem, solve_feasibility

DEFAULT_ENUM_CAP = 16
DEGREE_DRAW_BUDGET = 64


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
    """One solution x of LCP(A, q).

    support is the true support {i : x_i > 0} (1-based indices);
    support_det_sign is the sign of det A restricted to that support (+1 for
    the empty support); a zero sign marks a singular supporting block, which
    is how representatives of affine solution families are recognised.
    nondegenerate means x + Ax + q > 0 componentwise, exactly.
    """

    x: tuple
    support: tuple
    nondegenerate: bool
    support_det_sign: int


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
    """(mask, idx, comp) for every support in bitmask order, the empty one
    first: idx lists the 0-based indices in mask, comp the others.  An order
    above the enumeration cap raises EnumerationCapError."""
    check_cap(n)
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        comp = [j for j in range(n) if not mask >> j & 1]
        yield mask, idx, comp


def minor_sign(matrix: RationalMatrix, mask: int, idx: Sequence[int]) -> int:
    """sgn det A_II for the support idx, whose bitmask is mask, read from
    or written to the matrix's memo."""
    signs = matrix.minor_signs()
    sign = signs.get(mask)
    if sign is None:
        # matrices.determinant is fraction-free too; going through it
        # keeps one determinant routine, which perfbench's trace counts.
        # The block inherits the matrix's cached scaled integer rows, so
        # no row's denominators are cleared again per minor.
        sign = _sign(determinant(matrix.principal_submatrix(idx)))
        signs[mask] = sign
    return sign


def walk(matrix: RationalMatrix, q: Sequence):
    """(mask, idx, comp, solved) for the supports of LCP(A, q), in no
    fixed order; idx lists the support's indices, comp the others.

    solved is (d, y, w) when A_II is nonsingular: d > 0, x_I = y / d
    solves A_II x_I = -q_I, and w holds, for each j in comp, an integer
    with the sign of w_j = (Ax + q)_j.  It is None when A_II is singular
    and A_II x_I = -q_I is consistent; an inconsistent singular support
    is not yielded.  Every support's minor sign goes into the matrix's
    memo.

    The tree's root is the empty support, and the parent of P + {p},
    with p above every index of P, is P.  A node keeps the row-scaled
    columns after p, and the q column, over all n rows, reduced as
    kernel.eliminate reduces them with det that of the row-scaled block:
    the q column holds det * (-x_i) on the support's rows and det * w_j,
    up to the positive row scale, on the others.  A child of a
    nonsingular node pivots its parent's columns at (p, p): every row
    but p takes a_ic <- (piv * a_ic - a_ip * a_pc) // det, where piv,
    the parent's entry at (p, p), is the det of the child's block
    (Bareiss/Montante, exact by Sylvester's identity).  A zero pivot
    makes the child singular with the parent's rank, and its system
    is consistent iff the parent's q-column entry at row p is zero.  A
    child of a singular parent runs one fresh elimination instead
    (_eliminate).  Only the tableaux on the current path and the
    siblings waiting on the stack are kept.
    """
    n = matrix.n
    check_cap(n)
    signs = matrix.minor_signs()
    rows = [clear_denominators(row + (qi,))[1] for row, qi in zip(matrix.rows, q)]
    # (mask, idx, last pivot, det of the block, tableau); a singular
    # node's tableau is whether its system is consistent instead.
    stack = [(0, [], -1, 1, [list(column) for column in zip(*rows)])]
    while stack:
        mask, idx, last, det, tableau = stack.pop()
        comp = [j for j in range(n) if not mask >> j & 1]
        if det:
            qcol = tableau[-1]
            if det > 0:
                solved = det, [-qcol[i] for i in idx], [qcol[j] for j in comp]
            else:
                solved = -det, [qcol[i] for i in idx], [-qcol[j] for j in comp]
            yield mask, idx, comp, solved
        elif tableau:  # singular, with a consistent system
            yield mask, idx, comp, None
        for p in range(last + 1, n):
            child = mask | 1 << p
            piv = tableau[p - last - 1][p] if det else 0
            if piv:
                pivot_col = tableau[p - last - 1]
                child_tableau = []
                for column in tableau[p - last :]:
                    b = column[p]
                    column = [(piv * a - f * b) // det for a, f in zip(column, pivot_col)]
                    column[p] = b  # the pivot row is left as it is
                    child_tableau.append(column)
            elif det:
                # The block has rank |P| and row p is zero on it, so the
                # system is consistent iff that row's q entry is zero.
                child_tableau = tableau[-1][p] == 0
            else:
                piv, child_tableau = _eliminate(rows, idx + [p], p)
            signs[child] = _sign(piv)
            stack.append((child, idx + [p], p, piv, child_tableau))


def _eliminate(rows: List[List[int]], idx: List[int], p: int):
    """(det, tableau) for support idx, whose highest index is p, from one
    elimination of the row-scaled [A_{:,I} | A_{:,>p} | q] over all n
    rows, the support's rows first (see kernel.eliminate).  tableau is
    walk's node tableau when det != 0, else whether A_II x_I = -q_I is
    consistent."""
    k = len(idx)
    order = idx + [j for j in range(len(rows)) if j not in idx]
    work = [[rows[i][j] for j in idx] + rows[i][p + 1 :] for i in order]
    det = eliminate(work, k)
    if det == 0:
        return 0, all(row[-1] == 0 for row in work[:k] if not any(row[:k]))
    placed = [None] * len(rows)
    for i, row in zip(order, work):
        placed[i] = row[k:]
    return det, [list(column) for column in zip(*placed)]


def _family_point(matrix: RationalMatrix, q: Sequence, idx: List[int], comp: List[int]):
    """For a singular A_II: a point x >= 0 (a tuple) on support idx with (Ax+q)_idx = 0
    and (Ax+q)_comp >= 0, found by exact LP, or None.  Any such x represents
    an affine family of solutions.  walk yields singular supports only when
    A_II x_I = -q_I is consistent, so the LP runs only then."""
    system = FeasibilitySystem(len(idx))
    for i in idx:
        system.add_eq([matrix.rows[i][j] for j in idx], -q[i])
    for j in comp:
        system.add_ge([matrix.rows[j][i] for i in idx], -q[j])
    point = solve_feasibility(system)
    return None if point is None else tuple(embed(matrix.n, idx, point))


def _solution(matrix: RationalMatrix, q: Sequence, x: tuple) -> LcpSolution:
    n = matrix.n
    w = [wi + qi for wi, qi in zip(matrix.matvec(x), q)]
    idx = [i for i in range(n) if x[i] > 0]
    det_sign = minor_sign(matrix, sum(1 << i for i in idx), idx)
    nondeg = all(x[i] + w[i] > 0 for i in range(n))
    return LcpSolution(x, tuple(i + 1 for i in idx), nondeg, det_sign)


def _solutions(matrix: RationalMatrix, q: Sequence):
    """(mask, x) for the solutions of LCP(A, q), x a tuple, lazily: first
    each nonsingular support of the walk whose x_I and slack pass, as the
    walk meets it, then one family point per consistent singular support
    whose LP is feasible.  Those LPs run only after the walk has ended."""
    singular = []
    for mask, idx, comp, solved in walk(matrix, q):
        if solved is None:
            singular.append((mask, idx, comp))
            continue
        d, y, w = solved
        if not any(v < 0 for v in y) and not any(v < 0 for v in w):
            yield mask, tuple(embed(matrix.n, idx, [Fraction(v, d) for v in y]))
    for mask, idx, comp in singular:
        x = _family_point(matrix, q, idx, comp)
        if x is not None:
            yield mask, x


def solve_lcp(inst: LcpInstance) -> List[LcpSolution]:
    """All solutions of LCP(A, q), one representative per affine family.

    Deterministic: solutions are listed in the bitmask order of the supports
    that produced them, and duplicate solution vectors are kept once (first
    occurrence wins).
    """
    matrix, q = inst.matrix, inst.q
    seen = {}
    for _, x in sorted(_solutions(matrix, q)):  # masks are distinct
        if x not in seen:
            seen[x] = _solution(matrix, q, x)
    return list(seen.values())


def is_solvable(matrix: RationalMatrix, q: Sequence) -> bool:
    """Whether LCP(A, q) has a solution; the same answer as bool(solve_lcp).

    It stops at the first solution of _solutions, so the family LPs of the
    consistent singular supports run only when no nonsingular support
    solves it, and stop at the first feasible one.
    """
    q = LcpInstance(matrix, q).q
    return next(_solutions(matrix, q), None) is not None


def _generic_degree(matrix: RationalMatrix, q: Sequence[int]) -> Optional[int]:
    """Sum of sgn det A_II over the solutions of LCP(A, q).

    None when q must be resampled: a singular-but-consistent support
    system, or an exact zero in a candidate's x_I or complementary slack.
    Only signs are needed, so no Fraction is built.
    """
    total = 0
    for mask, idx, _, solved in walk(matrix, q):
        if solved is None:
            return None
        _, y, w = solved
        if 0 in y:
            return None
        if any(v < 0 for v in y):
            continue
        if 0 in w:
            return None
        if any(v < 0 for v in w):
            continue
        total += minor_sign(matrix, mask, idx)
    return total


def degree(matrix: RationalMatrix, rng_seed: int = 0) -> int:
    """LCP degree: sum of sgn det A_II over the solutions at a generic q.

    Requires the R0 property (checked by the caller via classes.is_R0; this
    function only needs it for the value to be well defined).  Draws integer
    q vectors from a large symmetric range and resamples on any degeneracy;
    the result is independent of the seed.
    """
    n = matrix.n
    rng = random.Random(rng_seed)
    bound = 10 ** 6 * (1 + n)
    for _ in range(DEGREE_DRAW_BUDGET):
        q = [rng.randint(-bound, bound) for _ in range(n)]
        total = _generic_degree(matrix, q)
        if total is not None:
            return total
    raise DegreeSamplingError(
        "no generic q found in %d draws; matrix may not be R0" % DEGREE_DRAW_BUDGET
    )
