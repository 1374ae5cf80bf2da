"""Fraction-free integer elimination: the arithmetic core of every exact solve.

A rational system is brought to integer form once: each row of [A | b] is
multiplied by the positive lcm of that row's denominators.  Scaling a row by
a positive number keeps the sign of every minor and leaves the solution of
the system unchanged.

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
    """Fraction-free elimination in place on a k x (k + m) integer matrix.

    Returns det of the leading k x k block; 0 when it is singular, in which
    case work is left partly reduced.  With m > 0 the run is Gauss-Jordan
    and afterwards work[i][k:] holds det * x_i, where x solves the system
    whose right-hand sides are the trailing m columns.  With m = 0 only the
    rows below each pivot are reduced (plain Bareiss), which is all the
    determinant needs.  Rows may be swapped.
    """
    width = len(work[0]) if k else 0
    sign = 1
    prev = 1
    for c in range(k):
        pivot_row = c
        while work[pivot_row][c] == 0:
            pivot_row += 1
            if pivot_row == k:
                return 0
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            sign = -sign
        tail = work[c][c + 1 :]
        p = work[c][c]
        for i in range(0 if width > k else c + 1, k):
            if i == c:
                continue
            row = work[i]
            f = row[c]
            row[c + 1 :] = [(p * a - f * b) // prev for a, b in zip(row[c + 1 :], tail)]
        prev = p
    if sign < 0:
        for row in work:
            row[k:] = [-v for v in row[k:]]
    return sign * prev
