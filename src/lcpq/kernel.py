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

    With no columns past k (work is k x k) only the rows below each pivot
    are reduced (plain Bareiss), which is all the determinant needs, and a
    zero column ends the run.  This determinant mode updates only the
    entries right of each pivot column, so the entries below a pivot are
    not maintained and hold no meaning afterwards.  Otherwise the run is
    Gauss-Jordan over every row: pivots come from the first k rows only,
    a column without one is skipped, and a reduced column is zero outside
    its pivot row.  For a nonsingular block, work[i][k:] then holds
    det * x_i for i < k, x solving the system whose right-hand sides are
    the trailing columns, and a row r past k holds det * (b_r - a_r x).
    For a singular block, the first k rows left without a pivot are zero
    on the block, so the system is consistent iff their trailing entries
    are zero.
    """
    width = len(work[0]) if k else 0
    gauss_jordan = width > k
    sign = 1
    prev = 1
    r = 0  # the row the next pivot goes to
    for c in range(k):
        pivot_row = r
        while pivot_row < k and work[pivot_row][c] == 0:
            pivot_row += 1
        if pivot_row == k:
            if not gauss_jordan:
                return 0
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            sign = -sign
        p = work[r][c]
        if gauss_jordan:
            tail = work[r][c:]
            for i, row in enumerate(work):
                if i != r:
                    f = row[c]
                    row[c:] = [(p * a - f * b) // prev for a, b in zip(row[c:], tail)]
        else:
            # Column c below the pivot is never read again, and a row
            # with a zero multiplier under an unchanged pivot stays as it is.
            tail = work[r][c + 1 :]
            for row in work[r + 1 :]:
                f = row[c]
                if f or p != prev:
                    row[c + 1 :] = [(p * a - f * b) // prev for a, b in zip(row[c + 1 :], tail)]
        prev = p
        r += 1
    if r < k:
        return 0
    if sign < 0:
        for row in work:
            row[k:] = [-v for v in row[k:]]
    return sign * prev
