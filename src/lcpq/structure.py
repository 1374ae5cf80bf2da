"""Structural shape detection for the classifier's dispatch.

The bidiagonal-southwest (bdsw) shape allows nonzeros only on the diagonal,
the superdiagonal and the southwest corner entry (n,1).  Matrices of that
shape split into four type-classes by row sign patterns; the detector also
recognises triangular and triangular-plus-nonnegative-row block forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Optional

from .errors import NotBdswShapeError
from .matrices import (
    RationalMatrix,
    is_lower_triangular,
    is_upper_triangular,
    nonnegative_rows,
    nonpositive_rows,
)

UPPER_TRIANGULAR = "upper-triangular"
LOWER_TRIANGULAR = "lower-triangular"
TRIANGULAR_PLUS_ROW = "triangular-plus-row"
BDSW_TYPE_1 = "bdsw-type-1"
BDSW_TYPE_2 = "bdsw-type-2"
BDSW_TYPE_3 = "bdsw-type-3"
BDSW_TYPE_4 = "bdsw-type-4"
GENERAL = "general"


@dataclass(frozen=True)
class StructureClass:
    """Detected structure tag plus auxiliary data.

    k is 1-based: for bdsw-type-1 it is the index of a nonnegative row
    (normalised so k < n, see detect_structure); for bdsw-type-4 it is the
    count of negative diagonal entries.
    """

    tag: str
    k: Optional[int] = None
    notes: tuple = field(default_factory=tuple)


def is_bdsw_shape(matrix: RationalMatrix) -> bool:
    """True when nonzeros appear only on diagonal, superdiagonal, corner (n,1)."""
    if matrix.n < 2:
        return False
    _, ints = matrix.integer_rows()
    *head, last = ints
    return not any(last[1:-1]) and not any(
        any(row[:i]) or any(row[i + 2 :]) for i, row in enumerate(head)
    )


def bdsw_determinant(matrix: RationalMatrix) -> Fraction:
    """Closed-form determinant for the bdsw shape.

    det A = prod of diagonal entries
            + (-1)^(n+1) * a_12 a_23 ... a_(n-1)n * a_n1.
    """
    if not is_bdsw_shape(matrix):
        raise NotBdswShapeError("matrix does not have the bdsw zero pattern")
    n = matrix.n
    scale, ints = matrix.integer_rows()
    cycle = prod(ints[i][(i + 1) % n] for i in range(n))
    return Fraction(prod(ints[i][i] for i in range(n)) + (-1) ** (n + 1) * cycle, scale**n)


def is_triangular_plus_row(matrix: RationalMatrix) -> bool:
    """Whether A has the block form (B c; d^T a_nn) with B upper triangular
    of order n-1, d >= 0 and a_nn > 0.  The head c of the last column is
    unconstrained."""
    _, ints = matrix.integer_rows()
    *head, last = ints
    return (
        matrix.n >= 2
        and last[-1] > 0
        and min(last) >= 0
        and not any(any(row[:i]) for i, row in enumerate(head))
    )


def detect_structure(matrix: RationalMatrix) -> StructureClass:
    """Return the most specific structure tag.

    Precedence: a nonpositive row forces the general tag (classification
    short-circuits to No); bdsw-shaped matrices get their type-class, with a
    nonzero nonnegative row taking priority (type 1); only non-bdsw shapes
    fall through to the triangular tags.  Secondary shape facts (bidiagonal,
    two-by-two, triangularity of a bdsw matrix) go into notes.
    """
    n = matrix.n
    notes = []
    if n == 2:
        notes.append("two-by-two")

    bad_rows = nonpositive_rows(matrix)
    if bad_rows:
        notes.extend("nonpositive-row:%d" % (i + 1) for i in bad_rows)
        return StructureClass(GENERAL, notes=tuple(notes))

    if is_bdsw_shape(matrix):
        _, ints = matrix.integer_rows()
        if ints[n - 1][0] == 0:
            notes.append("bidiagonal")
        if is_upper_triangular(matrix):
            notes.append("upper-triangular")
        nonneg = nonnegative_rows(matrix)
        if nonneg:
            ahead = [i for i in nonneg if i < n - 1]
            if ahead:
                k = ahead[0] + 1
            else:
                # Only row n is nonnegative; rotating by n-1 moves it to
                # position 1, which is the normalised index we report.
                k = 1
                notes.append("nonnegative-row-n-normalized-to-1")
            return StructureClass(BDSW_TYPE_1, k=k, notes=tuple(notes))
        # No nonpositive and no nonnegative row: every row holds exactly one
        # positive and one negative entry among its diagonal and relevant
        # off-diagonal slot, so the sign of the diagonal decides the type.
        diag_signs = [ints[i][i] > 0 for i in range(n)]
        if all(diag_signs):
            return StructureClass(BDSW_TYPE_2, notes=tuple(notes))
        if not any(diag_signs):
            return StructureClass(BDSW_TYPE_3, notes=tuple(notes))
        return StructureClass(BDSW_TYPE_4, k=diag_signs.count(False), notes=tuple(notes))

    if is_upper_triangular(matrix):
        return StructureClass(UPPER_TRIANGULAR, notes=tuple(notes))
    if is_lower_triangular(matrix):
        return StructureClass(LOWER_TRIANGULAR, notes=tuple(notes))
    if is_triangular_plus_row(matrix):
        return StructureClass(TRIANGULAR_PLUS_ROW, notes=tuple(notes))
    return StructureClass(GENERAL, notes=tuple(notes))
