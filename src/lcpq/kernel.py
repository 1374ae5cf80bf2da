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
every row of [A | b], for the support walk and the principal pivot
transform.  bareiss_determinant gives a determinant alone
(matrices.determinant, one call per principal minor in the P scan): the
same update over the rows below each pivot only, as index loops that
write each row in place.  For the small blocks the scan sees,
building a new list per row per step cost more than the integer
arithmetic itself.
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
    """det of the square int rows work, by Bareiss elimination in place.

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
