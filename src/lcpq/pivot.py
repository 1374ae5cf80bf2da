"""Schur complements and principal pivot transforms (PPT).

Let J be the pivot set, C its complement and E = A_JJ nonsingular.  The
PPT M of A on J has, in A's own index labelling, the blocks

    M_JJ = E^-1                M_JC = -E^-1 A_JC
    M_CJ = A_CJ E^-1           M_CC = A_CC - A_CJ E^-1 A_JC

and M_CC is the Schur complement A/E.  The whole transform is one call
of kernel.gauss_jordan, the routine the support walk carries its
tableaux on with: a PPT on J is the walk's node for the support J with
other trailing columns.  Its columns are [A_{:,J} | A_{:,C} | -I_{:,J}]
times s, the scale of the matrix's integer image
(RationalMatrix.integer_rows), and it pivots the rows J in A's own
order.  With det the determinant of the scaled pivot block s * A_JJ, the
columns left, C's and then J's, hold -det times row j of M on each row j
in J and det * s times row c of M on each row c in C.  So M is one
integer image over |det| * s, read row by row (-s times a row in J, a
row in C as it is), and no Fraction is built.  The transform is an
involution and preserves Q-membership and R0; the LCP degree picks up
the factor sgn det A_JJ.  On the whole index set (C empty) the transform
is A^-1 (M. Tsatsomeros, *Principal pivot transforms: properties and
applications*, LAA 307, 2000), and matrices.inverse is that call.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .errors import SingularPivotError
from .kernel import gauss_jordan
from .matrices import RationalMatrix


def _validate_j(matrix: RationalMatrix, j_set: Sequence[int]) -> list:
    n = matrix.n
    j_list = sorted(set(j_set))
    if not j_list:
        raise ValueError("pivot set must be nonempty")
    if j_list[0] < 1 or j_list[-1] > n:
        raise ValueError("pivot indices must lie in 1..%d" % n)
    return j_list


def schur_complement(matrix: RationalMatrix, j_set: Sequence[int]) -> RationalMatrix:
    """A/E = A_CC - A_CJ E^-1 A_JC on the complement of J, in original index
    order: the complement block of ppt(A, J)."""
    j_list = _validate_j(matrix, j_set)
    comp = [i for i in range(matrix.n) if i + 1 not in j_list]
    if not comp:
        raise ValueError("pivot set covers the whole matrix; empty complement")
    return ppt(matrix, j_list).principal_submatrix(comp)


def ppt(matrix: RationalMatrix, j_set: Sequence[int]) -> RationalMatrix:
    """Principal pivot transform of A on the block J (1-based indices)."""
    n = matrix.n
    j0 = [i - 1 for i in _validate_j(matrix, j_set)]
    comp = [i for i in range(n) if i not in j0]
    scale, ints = matrix.integer_rows()
    columns = [[row[j] for row in ints] for j in j0 + comp]
    columns += [[-scale if i == j else 0 for i in range(n)] for j in j0]
    columns, left, det = gauss_jordan(columns, j0, 1)
    if left:
        raise SingularPivotError("pivot block A_JJ is singular")
    # Column j of M is column place[j] of columns, which holds C, then J.
    # One gcd, signed as det, leaves the lcm scale M's entries would give.
    place = sorted(range(n), key=(comp + j0).__getitem__)
    out = []
    for i, row in enumerate(zip(*columns)):
        f = -scale if i in j0 else 1
        out.append([f * row[p] for p in place])
    g = gcd(det * scale, *(v for row in out for v in row)) * (1 if det > 0 else -1)
    return RationalMatrix._of_image(det * scale // g, tuple(tuple(v // g for v in row) for row in out))
