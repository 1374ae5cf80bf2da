"""Exact rational matrices and their parsing/linear-algebra helpers.

All entries are fractions.Fraction values; nothing in this module touches
floating point.  Matrices are immutable once constructed, so they can be
hashed, shared and reused as dictionary keys.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import prod
from typing import Iterable, Sequence

from .errors import MatrixFormatError, SingularPivotError
from .kernel import clear_denominators, eliminate


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise MatrixFormatError("boolean is not a matrix entry: %r" % (value,))
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MatrixFormatError("bad rational literal %r: %s" % (value, exc))
    raise MatrixFormatError("unsupported matrix entry type: %r" % (value,))


class RationalMatrix:
    """Immutable square matrix over the rationals.

    Indexing is 0-based internally; helpers that mirror structural
    definitions stated with 1-based indices say so explicitly.
    """

    __slots__ = ("rows", "n", "_scaled", "_signs")

    def __init__(self, rows: Iterable[Iterable]):
        converted = tuple(tuple(_to_fraction(v) for v in row) for row in rows)
        n = len(converted)
        if n == 0:
            raise MatrixFormatError("matrix must have at least one row")
        for row in converted:
            if len(row) != n:
                raise MatrixFormatError(
                    "matrix is not square: %d rows but a row of length %d" % (n, len(row))
                )
        object.__setattr__(self, "rows", converted)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return "RationalMatrix(%r)" % ([[str(v) for v in row] for row in self.rows],)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> "RationalMatrix":
        return cls([[0] * n for _ in range(n)])

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def column(self, j: int) -> tuple:
        return tuple(self.rows[i][j] for i in range(self.n))

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self.rows[j][i] for j in range(self.n)] for i in range(self.n)]
        )

    def neg(self) -> "RationalMatrix":
        return RationalMatrix([[-v for v in row] for row in self.rows])

    def scale(self, c) -> "RationalMatrix":
        c = _to_fraction(c)
        return RationalMatrix([[c * v for v in row] for row in self.rows])

    def matvec(self, x: Sequence[Fraction]) -> list:
        if len(x) != self.n:
            raise ValueError("vector length %d does not match order %d" % (len(x), self.n))
        return [sum((row[j] * x[j] for j in range(self.n)), Fraction(0)) for row in self.rows]

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if other.n != self.n:
            raise ValueError("order mismatch")
        n = self.n
        return RationalMatrix(
            [
                [
                    sum((self.rows[i][k] * other.rows[k][j] for k in range(n)), Fraction(0))
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    def scaled_rows(self) -> tuple:
        """(scales, ints): ints[i] is row i times scales[i], a positive
        integer that clears the row's denominators (see kernel).  Computed
        once per matrix; a submatrix inherits its parent's."""
        try:
            return self._scaled
        except AttributeError:
            pairs = [clear_denominators(row) for row in self.rows]
            scaled = tuple(s for s, _ in pairs), tuple(tuple(ints) for _, ints in pairs)
            object.__setattr__(self, "_scaled", scaled)
            return scaled

    def minor_signs(self) -> dict:
        """The memo mask -> sgn det A_II over this matrix's principal
        minors, which lcp.minor_sign and lcp.walk fill; the empty minor is
        1.  Made on first use; a submatrix starts its own."""
        try:
            return self._signs
        except AttributeError:
            signs = {0: 1}
            object.__setattr__(self, "_signs", signs)
            return signs

    @classmethod
    def _of_fractions(cls, rows: tuple, scaled: tuple) -> "RationalMatrix":
        """A matrix on rows, a nonempty square tuple of tuples of Fractions,
        taken as they are: no entry is converted or checked again.  scaled
        is its scaled_rows()."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "rows", rows)
        object.__setattr__(matrix, "n", len(rows))
        object.__setattr__(matrix, "_scaled", scaled)
        return matrix

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RationalMatrix":
        """Submatrix on the given 0-based index lists (must be nonempty)."""
        if not row_idx or not col_idx:
            raise ValueError("submatrix index sets must be nonempty")
        if len(row_idx) != len(col_idx):
            raise MatrixFormatError(
                "matrix is not square: %d rows but a row of length %d" % (len(row_idx), len(col_idx))
            )
        scales, ints = self.scaled_rows()
        rows = tuple([tuple([self.rows[i][j] for j in col_idx]) for i in row_idx])
        scaled = (
            tuple([scales[i] for i in row_idx]),
            tuple([tuple([ints[i][j] for j in col_idx]) for i in row_idx]),
        )
        return RationalMatrix._of_fractions(rows, scaled)

    def principal_submatrix(self, idx: Sequence[int]) -> "RationalMatrix":
        return self.submatrix(idx, idx)

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "rows": [[str(v) if v.denominator != 1 else v.numerator for v in row] for row in self.rows],
        }

    def to_plain(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows) + "\n"


def parse_matrix(text: str) -> RationalMatrix:
    """Parse a matrix from plain whitespace text or the JSON format.

    Plain format: one row per line, entries are integers or p/q fractions.
    JSON format: {"n": int, "rows": [[entry, ...], ...]} where an entry is an
    integer, an exactly-representable decimal, or a "p/q" string.  Decimals
    are converted from their literal digits, never through binary floats.
    """
    stripped = text.strip()
    if not stripped:
        raise MatrixFormatError("empty input")
    if stripped[0] in "{[":
        try:
            obj = json.loads(stripped, parse_float=Fraction, parse_int=int)
        except json.JSONDecodeError as exc:
            raise MatrixFormatError("invalid JSON: %s" % (exc,))
        if not isinstance(obj, dict) or "rows" not in obj:
            raise MatrixFormatError('JSON matrix must be an object with a "rows" key')
        rows = obj["rows"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise MatrixFormatError('"rows" must be a list of lists')
        matrix = RationalMatrix(rows)
        declared = obj.get("n")
        if declared is not None and declared != matrix.n:
            raise MatrixFormatError(
                'declared order n=%r does not match %d rows' % (declared, matrix.n)
            )
        return matrix
    rows = [line.split() for line in stripped.splitlines() if line.strip()]
    return RationalMatrix(rows)


def sign_pattern(matrix: RationalMatrix) -> tuple:
    """Entrywise signs as a tuple of tuples over {-1, 0, +1}."""
    return tuple(tuple((v > 0) - (v < 0) for v in row) for row in matrix.rows)


def determinant(matrix: RationalMatrix) -> Fraction:
    """Exact determinant by fraction-free integer elimination (see kernel)
    of the matrix's cached scaled rows."""
    scales, ints = matrix.scaled_rows()
    return Fraction(eliminate([list(row) for row in ints], matrix.n), prod(scales))


def inverse(matrix: RationalMatrix) -> RationalMatrix:
    """Exact inverse by fraction-free elimination on [A | I] (see kernel);
    raises SingularPivotError if singular.  Scaling a row of [A | I] leaves
    the solution X of A X = I unchanged."""
    n = matrix.n
    work = [
        clear_denominators(row + tuple(int(i == j) for j in range(n)))[1]
        for i, row in enumerate(matrix.rows)
    ]
    det = eliminate(work, n)
    if det == 0:
        raise SingularPivotError("matrix is singular")
    return RationalMatrix([[Fraction(v, det) for v in row[n:]] for row in work])


def solve_linear(matrix: RationalMatrix, rhs: Sequence[Fraction]):
    """Solve matrix @ x = rhs exactly.

    Returns a pair (status, x) where status is one of "unique",
    "underdetermined" (consistent with free variables, x is None) or
    "inconsistent" (x is None).
    """
    n = matrix.n
    if len(rhs) != n:
        raise ValueError("rhs length mismatch")
    work = [list(matrix.rows[i]) + [Fraction(rhs[i])] for i in range(n)]
    pivots = []
    row = 0
    for col in range(n):
        pivot_row = None
        for r in range(row, n):
            if work[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[row], work[pivot_row] = work[pivot_row], work[row]
        pivot = work[row][col]
        work[row] = [v / pivot for v in work[row]]
        for r in range(n):
            if r == row or work[r][col] == 0:
                continue
            factor = work[r][col]
            work[r] = [v - factor * p for v, p in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    for r in range(row, n):
        if work[r][n] != 0:
            return "inconsistent", None
    if len(pivots) < n:
        return "underdetermined", None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = work[r][n]
    return "unique", x


def nonpositive_rows(matrix: RationalMatrix) -> list:
    """0-based indices of rows with no positive entry (zero rows included)."""
    out = []
    for i, row in enumerate(matrix.rows):
        if all(v <= 0 for v in row):
            out.append(i)
    return out


def nonnegative_rows(matrix: RationalMatrix) -> list:
    """0-based indices of nonzero rows with no negative entry."""
    out = []
    for i, row in enumerate(matrix.rows):
        if all(v >= 0 for v in row) and any(v != 0 for v in row):
            out.append(i)
    return out


def is_upper_triangular(matrix: RationalMatrix) -> bool:
    n = matrix.n
    return all(matrix.rows[i][j] == 0 for i in range(n) for j in range(i))


def is_lower_triangular(matrix: RationalMatrix) -> bool:
    n = matrix.n
    return all(matrix.rows[i][j] == 0 for i in range(n) for j in range(i + 1, n))


def vec_to_fractions(values: Iterable) -> list:
    return [_to_fraction(v) for v in values]


def parse_vector(text: str) -> list:
    """Parse a comma- or whitespace-separated rational vector."""
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    if not parts:
        raise MatrixFormatError("empty vector")
    return [_to_fraction(p) for p in parts]
