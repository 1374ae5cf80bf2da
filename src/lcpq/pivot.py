"""Schur complements and principal pivot transforms (PPT).

Pivoting on a nonsingular principal block E of A = (B C; D E) produces
(B - C E^-1 D, C E^-1; -E^-1 D, E^-1).  The pivot set J may be any index
set: indices are moved to the trailing positions for assembly and moved
back afterwards, so the result keeps A's index labelling.  The transform
is an involution and preserves Q-membership and R0; the LCP degree picks
up the factor sgn det A_JJ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import SingularPivotError
from .matrices import RationalMatrix, inverse


@dataclass(frozen=True)
class BlockSplit:
    """Blocks of A under the ordering (complement of J, then J); 1-based J."""

    j_set: tuple
    b: RationalMatrix | None
    c: list
    d: list
    e: RationalMatrix


def _validate_j(matrix: RationalMatrix, j_set: Sequence[int]) -> list:
    n = matrix.n
    j_list = sorted(set(j_set))
    if not j_list:
        raise ValueError("pivot set must be nonempty")
    if j_list[0] < 1 or j_list[-1] > n:
        raise ValueError("pivot indices must lie in 1..%d" % n)
    return j_list


def block_split(matrix: RationalMatrix, j_set: Sequence[int]) -> BlockSplit:
    """Split A into (B C; D E) blocks with E = A_JJ; row/col lists are 0-based
    internally but j_set is 1-based to match the structural conventions."""
    j_list = _validate_j(matrix, j_set)
    j0 = [i - 1 for i in j_list]
    comp = [i for i in range(matrix.n) if i not in j0]
    e = matrix.principal_submatrix(j0)
    b = matrix.principal_submatrix(comp) if comp else None
    c = [[matrix.rows[i][j] for j in j0] for i in comp]
    d = [[matrix.rows[i][j] for j in comp] for i in j0]
    return BlockSplit(tuple(j_list), b, c, d, e)


def schur_complement(matrix: RationalMatrix, j_set: Sequence[int]) -> RationalMatrix:
    """A/E = B - C E^-1 D on the complement of J, in original index order:
    the complement block of ppt(A, J)."""
    j_list = _validate_j(matrix, j_set)
    comp = [i for i in range(matrix.n) if i + 1 not in j_list]
    if not comp:
        raise ValueError("pivot set covers the whole matrix; empty complement")
    return ppt(matrix, j_list).principal_submatrix(comp)


def ppt(matrix: RationalMatrix, j_set: Sequence[int]) -> RationalMatrix:
    """Principal pivot transform of A on the block J (1-based indices)."""
    split = block_split(matrix, j_set)
    j0 = [i - 1 for i in split.j_set]
    comp = [i for i in range(matrix.n) if i not in j0]
    try:
        e_inv = inverse(split.e)
    except SingularPivotError:
        raise SingularPivotError("pivot block A_JJ is singular") from None
    m = len(comp)
    k = len(j0)
    n = matrix.n

    ce = [
        [
            sum((split.c[i][a] * e_inv.rows[a][b] for a in range(k)), Fraction(0))
            for b in range(k)
        ]
        for i in range(m)
    ]
    ed = [
        [
            sum((e_inv.rows[i][a] * split.d[a][j] for a in range(k)), Fraction(0))
            for j in range(m)
        ]
        for i in range(k)
    ]
    schur = [
        [
            split.b.rows[i][j] - sum((ce[i][b] * split.d[b][j] for b in range(k)), Fraction(0))
            for j in range(m)
        ]
        for i in range(m)
    ]

    # Assemble in (complement, J) order, then map back to original labels.
    out = [[Fraction(0)] * n for _ in range(n)]
    order = comp + j0
    for a in range(m):
        for b in range(m):
            out[order[a]][order[b]] = schur[a][b]
        for b in range(k):
            out[order[a]][order[m + b]] = ce[a][b]
    for a in range(k):
        for b in range(m):
            out[order[m + a]][order[b]] = -ed[a][b]
        for b in range(k):
            out[order[m + a]][order[m + b]] = e_inv.rows[a][b]
    return RationalMatrix(out)
