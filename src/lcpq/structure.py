"""Structural shape detection for the classifier's dispatch.

The bidiagonal-southwest (bdsw) shape allows nonzeros only on the diagonal,
the superdiagonal and the southwest corner entry (n,1).  Matrices of that
shape split into four type-classes by row sign patterns; the detector also
recognises triangular and triangular-plus-nonnegative-row block forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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

# Rule keys; TRIANGULAR_PLUS_ROW and the bdsw tags also name their rules.
NONPOSITIVE_ROW = "nonpositive-row"
ORDER_1 = "order-1"
ORDER_2 = "order-2"
TRIANGULAR = "triangular"


@dataclass(frozen=True)
class StructureClass:
    """Detected structure tag plus auxiliary data.

    k is 1-based: for bdsw-type-1 it is the index of a nonnegative row
    (normalised so k < n, see detect_structure); for bdsw-type-4 it is the
    count of negative diagonal entries.  rule keys the classifier rule that
    answers A (None if none does); row is the first nonpositive row, if any.
    """

    tag: str
    k: Optional[int] = None
    notes: tuple = field(default_factory=tuple)
    rule: Optional[str] = None
    row: Optional[int] = None


def is_bdsw_shape(matrix: RationalMatrix) -> bool:
    """True when nonzeros appear only on diagonal, superdiagonal, corner (n,1)."""
    if matrix.n < 2:
        return False
    _, ints = matrix.integer_rows()
    *head, last = ints
    return not any(last[1:-1]) and not any(
        any(row[:i]) or any(row[i + 2 :]) for i, row in enumerate(head)
    )


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
    """Return the most specific structure tag and the rule that answers A.

    Each shape predicate runs at most once.  Tag precedence: a nonpositive
    row forces the general tag; bdsw-shaped matrices get their type-class,
    with a nonzero nonnegative row taking priority (type 1); only non-bdsw
    shapes fall through to the triangular tags.  Secondary shape facts
    (bidiagonal, two-by-two, triangularity of a bdsw matrix) go into notes.

    Rule precedence: nonpositive row, order 1, order 2, triangular,
    triangular-plus-row, bdsw type.  So a bdsw matrix that is triangular,
    e.g. [[1,-1,0],[0,2,3],[0,0,1]] (tag bdsw-type-1), answers by T3.1.
    """
    n = matrix.n
    notes = ["two-by-two"] if n == 2 else []

    bad_rows = nonpositive_rows(matrix)
    if bad_rows:
        notes.extend("nonpositive-row:%d" % (i + 1) for i in bad_rows)
        return StructureClass(
            GENERAL, notes=tuple(notes), rule=NONPOSITIVE_ROW, row=bad_rows[0] + 1
        )

    upper = is_upper_triangular(matrix)
    triangular = upper or is_lower_triangular(matrix)
    plus_row = not triangular and is_triangular_plus_row(matrix)
    rule = (
        ORDER_1 if n == 1
        else ORDER_2 if n == 2
        else TRIANGULAR if triangular
        else TRIANGULAR_PLUS_ROW if plus_row
        else None  # a bdsw matrix then answers by its type
    )
    if not is_bdsw_shape(matrix):
        tag = (
            UPPER_TRIANGULAR if upper
            else LOWER_TRIANGULAR if triangular
            else TRIANGULAR_PLUS_ROW if plus_row
            else GENERAL
        )
        return StructureClass(tag, notes=tuple(notes), rule=rule)

    _, ints = matrix.integer_rows()
    if ints[n - 1][0] == 0:
        notes.append("bidiagonal")
    if upper:
        notes.append("upper-triangular")
    nonneg = nonnegative_rows(matrix)
    if nonneg:
        tag, k = BDSW_TYPE_1, nonneg[0] + 1
        if k == n:
            # Only row n is nonnegative; rotating by n-1 moves it to
            # position 1, which is the normalised index we report.
            k = 1
            notes.append("nonnegative-row-n-normalized-to-1")
    else:
        # No nonpositive and no nonnegative row: every row holds exactly one
        # positive and one negative entry among its diagonal and relevant
        # off-diagonal slot, so the sign of the diagonal decides the type.
        neg = sum(ints[i][i] <= 0 for i in range(n))
        tag = BDSW_TYPE_2 if neg == 0 else BDSW_TYPE_3 if neg == n else BDSW_TYPE_4
        k = neg if tag == BDSW_TYPE_4 else None
    return StructureClass(tag, k, tuple(notes), rule or tag)
