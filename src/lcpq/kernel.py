"""Fraction-free integer elimination: the arithmetic core of every exact solve.

A rational system is brought to integer form once: the whole of [A | b] is
multiplied by one positive scale, a common multiple of every denominator
(clear_denominators; a RationalMatrix is held as A's integer image,
integer_rows).  Scaling by a positive number keeps the sign of every minor
and leaves the solution of the system unchanged.

Elimination then runs on plain ints with the Bareiss/Montante update

    a_ij <- (p * a_ij - a_ic * a_pj) // prev

where p is the current pivot and prev the one before it (E. H. Bareiss,
*Sylvester's identity and multistep integer-preserving Gaussian
elimination*, Math. Comp. 22, 1968).  By Sylvester's identity every division
is exact, so no gcd is ever taken and the entries stay minors of the input.
Run as Gauss-Jordan over [A | b], the last pivot is det A and the right-hand
columns end up as det * x, the solution scaled by the determinant.  Callers
build a ``Fraction`` only at the boundary, when a result leaves as a value.

One Gauss-Jordan routine solves, and one loop gives a determinant alone.
gauss_jordan pivots a list of int columns on the rows it is given, one
pivoted step each: lcp.walk carries each support's tableau on from its
parent's through it, and pivot.ppt is one call on the pivot rows J, a
principal pivot transform being a walk node with other trailing columns.
bareiss_determinant runs the same update over the rows below each pivot
only, as index loops that write each row in place, since building a new
list per row per step cost more than the integer arithmetic itself.

int_determinant is the determinant entry (matrices.determinant, one call
per principal minor in the P scan).  It only reads its rows, so a block's
integer image goes in as it is.  Up to order 5 it returns a closed form;
at n = 7 and 8 most minors have such an order (119 of 127, 218 of 255),
and there the loop and the copy it writes cost 2.5-6.5x the closed form.
Order 5 shares the ten 2 x 2 minors of its last two rows among its ten
3 x 3 complements, and measured 2.2-2.3 us a block against 5.6-5.8 us
for the loop on a copy (CPython 3.11 on a shared 2-core VM, 200 random
blocks, entries in [-5, 5] and in [-30, 30]).  From order 6 on it runs
bareiss_determinant on a copy.
"""

from __future__ import annotations

from math import lcm
from typing import List, Sequence, Tuple


def clear_denominators(values: Sequence) -> Tuple[int, List[int]]:
    """(scale, ints) with ints = scale * values and scale the positive lcm of
    the denominators.  Accepts Fractions and ints."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def gauss_jordan(
    columns: List[List[int]], rows: List[int], prev: int
) -> Tuple[List[List[int]], List[int], int]:
    """(columns, left, prev): fraction-free Gauss-Jordan on the int
    columns, which are only read.  Column i is pivoted on row rows[i], and
    prev is the pivot before the first (1 on unreduced columns).

    A pivot piv on row c drops its column and updates every other one by
    a_ij <- (piv * a_ij - a_ic * a_cj) // prev off row c, leaving row c as
    it is.  Where column i is zero on its row, the first later row, or
    earlier row left without a pivot, that is nonzero there is swapped
    into its place, and row c goes to that row's place negated, so the
    block's determinant keeps its sign.  A column zero on all of them
    gets no pivot; such columns stay first and are zero on the rows in
    left, those without a pivot, so one pass reaches the block's rank and
    the system is consistent iff the trailing columns are zero on left.

    With left empty and prev 1, the last pivot is det of the block (the
    leading columns on rows), and the trailing columns hold det * x_i at
    row rows[i], x solving the system whose right-hand sides they are,
    and det * (b_r - a_r x) at every other row r.  Passed a reduced
    tableau and its last pivot, it carries that run on (lcp.walk).
    """
    left: List[int] = []
    for i, c in enumerate(rows):
        at = len(left)
        column = columns[at]
        if not column[c]:
            r = next((r for r in rows[i + 1 :] + left if column[r]), None)
            if r is None:
                left.append(c)
                continue
            columns = [list(other) for other in columns]
            for other in columns:  # row r into row c's place, row c negated into r's
                other[c], other[r] = other[r], -other[c]
            column = columns[at]
        columns = pivoted(columns[:at] + columns[at + 1 :], column, c, prev)
        prev = column[c]
    return columns, left, prev


def pivoted(columns: List[List[int]], column: List[int], c: int, prev: int) -> List[List[int]]:
    """columns after one pivot of gauss_jordan, on row c of column: the
    single step that lcp.walk also takes alone at a nonsingular parent."""
    piv = column[c]
    reduced = []
    for other in columns:
        b = other[c]
        other = [(piv * a - g * b) // prev for a, g in zip(other, column)]
        other[c] = b  # the pivot row is left as it is
        reduced.append(other)
    return reduced


def bareiss_determinant(work: List[List[int]]) -> int:
    """det of the square int rows work, by Bareiss elimination in place
    (int_determinant runs it on a copy for blocks of order 6 and more).

    Only the rows below each pivot are reduced, and only right of the
    pivot column: that column is never read again, so the entries below a
    pivot hold no meaning afterwards.  A zero pivot swaps in the first row
    below with a nonzero entry there and flips the sign; none ends the run
    with 0.  A row whose multiplier is 0 is left as it is when the pivot
    equals the one before it, and otherwise only scaled by p / prev.  The
    last entry reduced is det itself (work[0][0] for a 1 x 1 block).
    """
    k = len(work)
    if not k:
        return 1
    sign = 1
    prev = 1
    for c in range(k - 1):
        row = work[c]
        p = row[c]
        if not p:
            for r in range(c + 1, k):
                if work[r][c]:
                    break
            else:
                return 0
            work[c], work[r] = work[r], row
            row = work[c]
            p = row[c]
            sign = -sign
        cols = range(c + 1, k)
        for other in work[c + 1 :]:
            f = other[c]
            if f:
                for j in cols:
                    other[j] = (p * other[j] - f * row[j]) // prev
            elif p != prev:
                for j in cols:
                    other[j] = p * other[j] // prev
        prev = p
    return sign * work[k - 1][k - 1]


def int_determinant(rows: Sequence[Sequence[int]]) -> int:
    """det of the square int rows, which are only read: in closed form up
    to order 5, and above that by bareiss_determinant on a copy.

    Order 3 is the cofactor expansion along the first row.  Orders 4 and 5
    are Laplace's expansion along the first two rows: each of their 2 x 2
    minors times its complementary minor in the rows below, signed by the
    parity of the two columns it takes.  At order 5 the complements are
    3 x 3, each expanded along its first row, and the ten 2 x 2 minors of
    the last two rows they expand into are computed once and shared.
    """
    k = len(rows)
    if k == 5:
        (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4), (c0, c1, c2, c3, c4), d, e = rows
        d0, d1, d2, d3, d4 = d
        e0, e1, e2, e3, e4 = e
        m01, m02 = d0 * e1 - d1 * e0, d0 * e2 - d2 * e0
        m03, m04 = d0 * e3 - d3 * e0, d0 * e4 - d4 * e0
        m12, m13, m14 = d1 * e2 - d2 * e1, d1 * e3 - d3 * e1, d1 * e4 - d4 * e1
        m23, m24, m34 = d2 * e3 - d3 * e2, d2 * e4 - d4 * e2, d3 * e4 - d4 * e3
        return (
            (a0 * b1 - a1 * b0) * (c2 * m34 - c3 * m24 + c4 * m23)
            - (a0 * b2 - a2 * b0) * (c1 * m34 - c3 * m14 + c4 * m13)
            + (a0 * b3 - a3 * b0) * (c1 * m24 - c2 * m14 + c4 * m12)
            - (a0 * b4 - a4 * b0) * (c1 * m23 - c2 * m13 + c3 * m12)
            + (a1 * b2 - a2 * b1) * (c0 * m34 - c3 * m04 + c4 * m03)
            - (a1 * b3 - a3 * b1) * (c0 * m24 - c2 * m04 + c4 * m02)
            + (a1 * b4 - a4 * b1) * (c0 * m23 - c2 * m03 + c3 * m02)
            + (a2 * b3 - a3 * b2) * (c0 * m14 - c1 * m04 + c4 * m01)
            - (a2 * b4 - a4 * b2) * (c0 * m13 - c1 * m03 + c3 * m01)
            + (a3 * b4 - a4 * b3) * (c0 * m12 - c1 * m02 + c2 * m01)
        )
    if k == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
        return (
            (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
        )
    if k == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
        return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
    if k == 2:
        (a0, a1), (b0, b1) = rows
        return a0 * b1 - a1 * b0
    if k == 1:
        return rows[0][0]
    return bareiss_determinant([list(row) for row in rows])
