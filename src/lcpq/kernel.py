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

Two routines run it, one per job.  eliminate solves: Gauss-Jordan over
every row of [A | b], for the principal pivot transform (lcp.walk runs
the same update one pivot at a time).  bareiss_determinant gives a
determinant alone: the same update over the rows below each pivot only,
as index loops that write each row in place, since building a new list
per row per step cost more than the integer arithmetic itself.

int_determinant is the determinant entry (matrices.determinant, one call
per principal minor in the P scan).  It only reads its rows, so a block's
integer image goes in as it is.  Up to order 4 it returns a closed form;
at n = 7 and 8 most minors have such an order (98 of 127, 162 of 255),
and there the loop and the copy it writes cost 4-7x the closed form.  From
order 5 on it runs bareiss_determinant on a copy: a cofactor expansion of
order 5 (five 4 x 4 closed forms) measured slower than the loop.
"""

from __future__ import annotations

from math import lcm
from typing import List, Sequence, Tuple


def clear_denominators(values: Sequence) -> Tuple[int, List[int]]:
    """(scale, ints) with ints = scale * values and scale the positive lcm of
    the denominators.  Accepts Fractions and ints."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def eliminate(work: List[List[int]], k: int) -> int:
    """Fraction-free elimination in place; returns det of the leading k x k
    block, 0 when it is singular.  Rows may be swapped among the first k.

    The run is Gauss-Jordan over every row: pivots come from the first k
    rows only, a column without one is skipped, and a reduced column is
    zero outside its pivot row.  For a nonsingular block, work[i][k:] then
    holds det * x_i for i < k, x solving the system whose right-hand sides
    are the trailing columns, and a row r past k holds det * (b_r - a_r x).
    For a singular block, the first k rows left without a pivot are zero
    on the block, so the system is consistent iff their trailing entries
    are zero.
    """
    sign = 1
    prev = 1
    r = 0  # the row the next pivot goes to
    for c in range(k):
        pivot_row = r
        while pivot_row < k and work[pivot_row][c] == 0:
            pivot_row += 1
        if pivot_row == k:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            sign = -sign
        p = work[r][c]
        tail = work[r][c:]
        for i, row in enumerate(work):
            if i != r:
                f = row[c]
                row[c:] = [(p * a - f * b) // prev for a, b in zip(row[c:], tail)]
        prev = p
        r += 1
    if r < k:
        return 0
    if sign < 0:
        for row in work:
            row[k:] = [-v for v in row[k:]]
    return sign * prev


def bareiss_determinant(work: List[List[int]]) -> int:
    """det of the square int rows work, by Bareiss elimination in place
    (int_determinant runs it on a copy for blocks of order 5 and more).

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
    to order 4, and above that by bareiss_determinant on a copy.

    Order 3 is the cofactor expansion along the first row.  Order 4 is
    Laplace's expansion along the first two rows: each of their six 2 x 2
    minors times its complementary 2 x 2 minor in the last two rows, signed
    by the parity of the two columns it takes.
    """
    k = len(rows)
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
