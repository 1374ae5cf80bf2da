"""Exact rational matrices and their parsing/linear-algebra helpers.

A matrix is its integer image, A times one positive scale held as (scale,
int rows) (RationalMatrix.integer_rows), and every exact routine reads it.
A fractions.Fraction is built only at the boundary: a non-integer literal
read in, an entry read out (rows, indexing).  Matrices are immutable and
hashable.  Nothing in this module touches floating point.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import MatrixFormatError
from .kernel import clear_denominators, int_determinant


MAX_LITERAL_DIGITS = 4300

# A byte table that keeps each ASCII digit as b"0" and makes every other
# byte b" ", so that a run of digits in UTF-8 text becomes a run of b"0"
# (no byte of a multibyte character is ASCII).
_DIGITS_AS_ZEROS = bytes(48 if 48 <= b <= 57 else 32 for b in range(256))
_LONG_RUN = b"0" * (MAX_LITERAL_DIGITS + 1)
# A plain-format token read with int: an ASCII integer literal within the
# digit bound ([0-9] in a str pattern matches ASCII digits only).
_PLAIN_INT = re.compile(r"[+-]?[0-9]{1,%d}" % MAX_LITERAL_DIGITS)


def _checked_literal(text: str) -> str:
    """text, if Fraction and int can read it in bounded time: at most
    MAX_LITERAL_DIGITS digits and an exponent within +-MAX_LITERAL_DIGITS.
    Fraction builds 10**exponent, so 1e300000000 alone would take unbounded
    time and memory."""
    digits = sum(map(str.isdigit, text))
    if digits > MAX_LITERAL_DIGITS:
        raise MatrixFormatError(
            "literal of %d digits; at most %d are accepted" % (digits, MAX_LITERAL_DIGITS)
        )
    _, e, exponent = text.lower().rpartition("e")
    try:
        power = int(exponent) if e else 0
    except ValueError:
        return text  # not a number; Fraction says so
    if abs(power) > MAX_LITERAL_DIGITS:
        raise MatrixFormatError("exponent %d is beyond +-%d" % (power, MAX_LITERAL_DIGITS))
    return text


def _checked_int(text: str):
    """A JSON int literal's value, read as the plain-row route reads it:
    by int, and as a literal (named in any error) where int refuses it."""
    try:
        return int(text if len(text) <= MAX_LITERAL_DIGITS else _checked_literal(text))
    except ValueError:  # past a lowered sys.set_int_max_str_digits
        return _to_fraction(text)


def _has_long_digit_run(text: str) -> bool:
    """Whether text holds more than MAX_LITERAL_DIGITS ASCII digits in a
    row: one translate and one substring search, both in C."""
    data = text.encode("utf-8", "surrogatepass").translate(_DIGITS_AS_ZEROS)
    return _LONG_RUN in data


def _plain_row(line: str) -> list:
    """The tokens of one plain-format row: an int for each token of the
    form [+-]?[0-9]+ in ASCII with at most MAX_LITERAL_DIGITS digits (int
    and Fraction read it alike), and the token itself otherwise, which
    RationalMatrix reads as a literal and names in any error.

    A row that is all such tokens is read by one map(int): on ASCII text
    without "_" and within the bound, int accepts exactly that form."""
    tokens = line.split()
    if line.isascii() and "_" not in line and max(map(len, tokens)) <= MAX_LITERAL_DIGITS:
        try:
            return list(map(int, tokens))
        except ValueError:
            pass
    return [_plain_token(token) for token in tokens]


def _plain_token(token: str):
    if _PLAIN_INT.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # past a lowered sys.set_int_max_str_digits
            pass
    return token


def _shown(value) -> str:
    """value's repr for an error message, cut after 40 characters (of the
    str itself for a str, of the repr otherwise) with the full length, so
    one bad entry cannot fill stderr."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 40:
        return repr(value)
    head = repr(text[:40]) if isinstance(value, str) else text[:40]
    return "%s... (%d characters)" % (head, len(text))


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise MatrixFormatError("boolean is not a matrix entry: %r" % (value,))
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(_checked_literal(value))
        except ValueError:
            reason = "not a rational number"
        except ZeroDivisionError:
            reason = "zero denominator"
        # Name the literal once (Fraction's own message repeats it).
        raise MatrixFormatError("bad rational literal %s: %s" % (_shown(value), reason))
    raise MatrixFormatError("unsupported matrix entry type: %s" % _shown(value))


class RationalMatrix:
    """Immutable square matrix over the rationals, held as its integer
    image (integer_rows) alone; rows and indexing build Fractions on read.

    Indexing is 0-based internally; helpers that mirror structural
    definitions stated with 1-based indices say so explicitly.
    """

    __slots__ = ("n", "_image")

    def __init__(self, rows: Iterable[Iterable]):
        # An int enters the image as it is; anything else is read as a Fraction.
        rows = [tuple([v if type(v) is int else _to_fraction(v) for v in row]) for row in rows]
        n = len(rows)
        if n == 0:
            raise MatrixFormatError("matrix must have at least one row")
        for row in rows:
            if len(row) != n:
                raise MatrixFormatError(
                    "matrix is not square: %d rows but a row of length %d" % (n, len(row))
                )
        if all(type(v) is int for row in rows for v in row):
            image = 1, tuple(rows)
        else:
            scale, flat = clear_denominators([v for row in rows for v in row])
            image = scale, tuple(tuple(flat[i : i + n]) for i in range(0, n * n, n))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_image", image)

    @classmethod
    def _of_image(cls, scale: int, ints: tuple) -> "RationalMatrix":
        """ints / scale as given: a nonempty square tuple of int tuples, scale > 0."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "n", len(ints))
        object.__setattr__(matrix, "_image", (scale, ints))
        return matrix

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @property
    def rows(self) -> tuple:
        """The entries as Fractions, built again on each access."""
        scale, ints = self._image
        return tuple(tuple(Fraction(v, scale) for v in row) for row in ints)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        scale, ints = self._image
        return Fraction(ints[i][j], scale)

    def _reduced(self) -> tuple:
        """The image over the gcd of its scale and entries: one per value."""
        scale, ints = self._image
        g = gcd(scale, *(v for row in ints for v in row))
        if g == 1:
            return self._image
        return scale // g, tuple(tuple(v // g for v in row) for row in ints)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self._reduced() == other._reduced()

    def __hash__(self) -> int:
        return hash(self._reduced())

    def __repr__(self) -> str:
        return "RationalMatrix(%r)" % ([[str(v) for v in row] for row in self.rows],)

    def integer_rows(self) -> tuple:
        """(scale, rows), rows[i][j] = a_ij * scale: a common multiple of the
        denominators, their lcm for a matrix built from its entries (1 for
        ints).  A principal submatrix keeps its parent's scale."""
        return self._image

    def principal_submatrix(self, idx: Sequence[int]) -> "RationalMatrix":
        """A_II on the given nonempty 0-based index list."""
        if not idx:
            raise ValueError("submatrix index set must be nonempty")
        scale, ints = self._image
        # itemgetter of one index returns the entry itself, so one column
        # is picked as a slice, which keeps the row a tuple.
        j = idx[0]
        pick = itemgetter(*idx) if len(idx) > 1 else itemgetter(slice(j, j + 1))
        return RationalMatrix._of_image(scale, tuple([pick(ints[i]) for i in idx]))

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "rows": [[str(v) if v.denominator != 1 else v.numerator for v in row] for row in self.rows],
        }


def parse_matrix(text: str) -> RationalMatrix:
    """Parse a matrix from plain whitespace text or the JSON format.

    Plain format: one row per line, entries are integers or p/q fractions.
    A token that is an ASCII integer within the digit bound is read with
    int; any other token is read as a literal, and named in any error.
    JSON format: {"n": int, "rows": [[entry, ...], ...]} where an entry is an
    integer, an exactly-representable decimal, or a "p/q" string.  Decimals
    are converted from their literal digits, never through binary floats.
    A literal of more than MAX_LITERAL_DIGITS digits, or with an exponent
    beyond +-MAX_LITERAL_DIGITS, is a MatrixFormatError, and so is JSON
    nested past the interpreter's recursion limit.
    """
    stripped = text.strip()
    if not stripped:
        raise MatrixFormatError("empty input")
    if stripped[0] in "{[":
        # Every JSON int literal is one run of ASCII digits.  When no run is
        # longer than the bound, and the interpreter's int digit limit is
        # off or not below it, int reads each as _checked_int would, and
        # json calls it in C; otherwise every int takes the checked route.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        fast = (not limit or limit >= MAX_LITERAL_DIGITS) and not _has_long_digit_run(stripped)
        try:
            obj = json.loads(
                stripped,
                parse_float=_to_fraction,
                parse_int=int if fast else _checked_int,
            )
        except (json.JSONDecodeError, RecursionError) as exc:
            raise MatrixFormatError("invalid JSON: %s" % (exc,))
        if not isinstance(obj, dict) or "rows" not in obj:
            raise MatrixFormatError('JSON matrix must be an object with a "rows" key')
        rows = obj["rows"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise MatrixFormatError('"rows" must be a list of lists')
        matrix = RationalMatrix(rows)
        declared = obj.get("n")
        if declared is not None and (isinstance(declared, bool) or not isinstance(declared, int)):
            raise MatrixFormatError("declared order n=%s is not an integer" % _shown(declared))
        if declared is not None and declared != matrix.n:
            raise MatrixFormatError(
                "declared order n=%s does not match %d rows" % (_shown(declared), matrix.n)
            )
        return matrix
    rows = [_plain_row(line) for line in stripped.splitlines() if line.strip()]
    return RationalMatrix(rows)


def determinant(matrix: RationalMatrix) -> Fraction:
    """Exact determinant of the matrix's integer rows, det(scale * A) /
    scale^n: kernel.int_determinant reads the rows as they are, in closed
    form up to order 4 and by Bareiss elimination of a copy above that."""
    scale, ints = matrix.integer_rows()
    det = int_determinant(ints)
    return Fraction(det) if scale == 1 else Fraction(det, scale ** matrix.n)


def inverse(matrix: RationalMatrix) -> RationalMatrix:
    """Exact inverse: the principal pivot transform on the whole index set
    (see pivot); raises SingularPivotError if singular."""
    from .pivot import ppt

    return ppt(matrix, range(1, matrix.n + 1))


def solve_linear(matrix: RationalMatrix, rhs: Sequence[Fraction]):
    """Solve matrix @ x = rhs exactly.

    Returns a pair (status, x) where status is one of "unique",
    "underdetermined" (consistent with free variables, x is None) or
    "inconsistent" (x is None).
    """
    n = matrix.n
    if len(rhs) != n:
        raise ValueError("rhs length mismatch")
    work = [list(row) + [Fraction(v)] for row, v in zip(matrix.rows, rhs)]
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


# The sign predicates below read the integer rows: A times a positive
# scale keeps the sign of every entry, and ints compare fast.


def nonpositive_rows(matrix: RationalMatrix) -> list:
    """0-based indices of rows with no positive entry (zero rows included)."""
    _, ints = matrix.integer_rows()
    return [i for i, row in enumerate(ints) if max(row) <= 0]


def nonnegative_rows(matrix: RationalMatrix) -> list:
    """0-based indices of nonzero rows with no negative entry."""
    _, ints = matrix.integer_rows()
    return [i for i, row in enumerate(ints) if min(row) >= 0 and max(row) > 0]


def is_upper_triangular(matrix: RationalMatrix) -> bool:
    _, ints = matrix.integer_rows()
    return not any(any(row[:i]) for i, row in enumerate(ints))


def is_lower_triangular(matrix: RationalMatrix) -> bool:
    _, ints = matrix.integer_rows()
    return not any(any(row[i + 1 :]) for i, row in enumerate(ints))


def vec_to_fractions(values: Iterable) -> list:
    return [_to_fraction(v) for v in values]


def parse_vector(text: str) -> list:
    """Parse a comma- or whitespace-separated rational vector."""
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    if not parts:
        raise MatrixFormatError("empty vector")
    return [_to_fraction(p) for p in parts]
