"""Q-property classification by structure-specific determinant/sign rules.

Each classifier covers one structural family and cites the rule it applied
(identifiers T3.1 through T9.1) in its certificate.  classify_by_rules()
looks up the rule body for the rule that detect_structure named, and
classify() falls back to the exact oracle when no rule applies.  Each
public classify_* checks its input's shape and then runs the same body;
T3.2 has no public entry, as only the dispatch applies it.  A public bdsw
entry accepts only the type that detect_structure tags, as the paper's
T5-T8 each hold for one type; the rule bodies test no shape again.

Rule precedence: nonpositive row, order 1, order 2 (T9.1), triangular
(T3.1), triangular-plus-row (T3.2), bdsw type (T5.1-T8.1).  Rules that apply
together agree on the answer, so the order only picks the certificate.
classify and verify never report T5.1: its case (a_n1 >= 0, a_nn > 0) goes
to T9.1 at order 2, to T3.1 when A is triangular, and to T3.2 otherwise.
Tests, not the oracle, check that verdicts never contradict the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Optional

from .classes import DEFAULT_BUDGET, NO, YES, Verdict, q_oracle
from .errors import StructureError
from .matrices import RationalMatrix, is_lower_triangular, is_upper_triangular
from .structure import (
    BDSW_TYPE_1,
    BDSW_TYPE_2,
    BDSW_TYPE_3,
    BDSW_TYPE_4,
    NONPOSITIVE_ROW,
    ORDER_1,
    ORDER_2,
    TRIANGULAR,
    TRIANGULAR_PLUS_ROW,
    StructureClass,
    detect_structure,
)


def _positive_diagonal(matrix: RationalMatrix, rule: str, case: str, yes_data: dict) -> Verdict:
    """The rule of T3.1, T3.2 and T5.1's first case: No at the first
    nonpositive diagonal entry, else Yes.  The condition reads
    "<case> positive diagonal" or "<case> nonpositive diagonal entry"."""
    _, ints = matrix.integer_rows()
    for i, row in enumerate(ints):
        if row[i] <= 0:
            return Verdict(
                NO,
                rule,
                case + " nonpositive diagonal entry",
                {"diag_index": i + 1, "diag_value": matrix[i, i]},
            )
    return Verdict(YES, rule, case + " positive diagonal", yes_data)


def classify_triangular(matrix: RationalMatrix) -> Verdict:
    """Triangular matrices are Q iff the diagonal is positive.

    Positive-diagonal triangular matrices are simultaneously P, E and R*,
    which the certificate records.
    """
    if not (is_upper_triangular(matrix) or is_lower_triangular(matrix)):
        raise StructureError("matrix is not triangular")
    return _triangular(matrix)


def _triangular(matrix: RationalMatrix) -> Verdict:
    implied = {"implied_classes": ["P", "E", "R*"]}
    return _positive_diagonal(matrix, "T3.1", "triangular with", implied)


def _triangular_plus_row(matrix: RationalMatrix) -> Verdict:
    """Block form (B c; d^T a_nn), B upper triangular, d >= 0, a_nn > 0:
    Q iff the diagonal of A is positive."""
    return _positive_diagonal(matrix, "T3.2", "block triangular-plus-row with", {})


def classify_2x2(matrix: RationalMatrix) -> Verdict:
    """Complete 2x2 characterisation by sign pattern and determinant (T9.1).

    Unconditional Yes patterns, then determinant-gated patterns; anything
    else is No.
    """
    if matrix.n != 2:
        raise StructureError("classify_2x2 needs a 2x2 matrix")
    return _two_by_two(matrix)


def _two_by_two(matrix: RationalMatrix) -> Verdict:
    scale, ((a, b), (c, d)) = matrix.integer_rows()

    if a > 0 and c >= 0 and d > 0:
        return Verdict(YES, "T9.1", "pattern (i)-1: [+ *; >=0 +]", {})
    if a > 0 and b >= 0 and d > 0:
        return Verdict(YES, "T9.1", "pattern (i)-2: [+ >=0; * +]", {})
    if a == 0 and b > 0 and c < 0 and d > 0:
        return Verdict(YES, "T9.1", "pattern (i)-3: [0 +; - +]", {})
    if a > 0 and b < 0 and c > 0 and d == 0:
        return Verdict(YES, "T9.1", "pattern (i)-4: [+ -; + 0]", {})

    det = Fraction(a * d - b * c, scale * scale)
    if a > 0 and b < 0 and c < 0 and d > 0:
        answer = YES if det > 0 else NO
        return Verdict(answer, "T9.1", "pattern (ii)-1: [+ -; - +] needs det > 0", {"det": det})
    if a < 0 and b > 0 and c < 0 and d > 0:
        answer = YES if det > 0 else NO
        return Verdict(answer, "T9.1", "pattern (ii)-2: [- +; - +] needs det > 0", {"det": det})
    if a > 0 and b < 0 and c > 0 and d < 0:
        answer = YES if det > 0 else NO
        return Verdict(answer, "T9.1", "pattern (ii)-3: [+ -; + -] needs det > 0", {"det": det})
    if a < 0 and b > 0 and c > 0 and d < 0:
        answer = YES if det < 0 else NO
        return Verdict(answer, "T9.1", "pattern (iii): [- +; + -] needs det < 0", {"det": det})

    return Verdict(NO, "T9.1", "no admissible 2x2 sign pattern", {})


def classify_bdsw_type1(matrix: RationalMatrix, k: int) -> Verdict:
    """Type-1 bdsw (has a nonnegative row): split on the signs of a_n1, a_nn.

    Cases: a_n1 >= 0 and a_nn > 0 (positive diagonal decides, T5.1); a_n1 > 0
    and a_nn = 0 (positive leading diagonal plus negative superdiagonal,
    T5.2); a_n1 < 0 and a_nn > 0 (positive diagonal, or the nonnegative row
    k has a zero diagonal entry, positive off-diagonal and every other row
    has a positive diagonal and negative off-diagonal entry, T5.3); a_n1 > 0
    and a_nn < 0 (never Q, T5.4).  Only this function reports T5.1: the rule
    precedence (module docstring) answers its case by T9.1, T3.1 or T3.2.
    Raises StructureError unless detect_structure tags A bdsw-type-1, so a
    nonpositive row or a type-2/3/4 matrix goes to classify().
    """
    _detected(matrix, BDSW_TYPE_1)
    return _bdsw_type1(matrix, k)


def _bdsw_type1(matrix: RationalMatrix, k: int) -> Verdict:
    # No row is nonpositive, so a_nn <= 0 implies a_n1 > 0.
    n = matrix.n
    _, ints = matrix.integer_rows()
    an1, ann = ints[n - 1][0], ints[n - 1][n - 1]
    diag = [ints[i][i] for i in range(n)]

    if an1 >= 0 and ann > 0:
        return _positive_diagonal(matrix, "T5.1", "a_n1 >= 0, a_nn > 0,", {})

    if ann == 0:
        lead_ok = all(diag[i] > 0 for i in range(n - 1))
        super_ok = all(ints[i][i + 1] < 0 for i in range(n - 1))
        if lead_ok and super_ok:
            return Verdict(
                YES, "T5.2", "a_n1 > 0, a_nn = 0, positive leading diagonal, negative superdiagonal", {}
            )
        return Verdict(
            NO,
            "T5.2",
            "a_n1 > 0, a_nn = 0, leading diagonal/superdiagonal condition fails",
            {"leading_diagonal_positive": lead_ok, "superdiagonal_negative": super_ok},
        )

    if ann > 0:
        if not (1 <= k < n):
            raise StructureError("type-1 case with a_n1 < 0 needs a nonnegative row k < n")
        if any(v < 0 for v in ints[k - 1]):
            raise StructureError("row k is not nonnegative")
        if all(v > 0 for v in diag):
            return Verdict(YES, "T5.3", "a_n1 < 0, a_nn > 0, positive diagonal", {"k": k})
        # Row i's relevant off-diagonal entry is a_i(i+1), and a_n1 for i = n.
        if (
            ints[k - 1][k - 1] == 0
            and ints[k - 1][k] > 0
            and all(diag[i] > 0 and ints[i][(i + 1) % n] < 0 for i in range(n) if i != k - 1)
        ):
            return Verdict(
                YES,
                "T5.3",
                "a_n1 < 0, a_nn > 0, zero diagonal at k with positive off-diagonal, others +/-",
                {"k": k},
            )
        return Verdict(NO, "T5.3", "a_n1 < 0, a_nn > 0, neither condition holds", {"k": k})

    return Verdict(NO, "T5.4", "a_n1 > 0 and a_nn < 0 exclude the Q-property", {})


def classify_bdsw_type2(matrix: RationalMatrix) -> Verdict:
    """Type-2 bdsw (positive diagonal, negative off-diagonals): Q iff det > 0."""
    _detected(matrix, BDSW_TYPE_2)
    return _bdsw_type2(matrix)


def _bdsw_type2(matrix: RationalMatrix) -> Verdict:
    det = _cycle_determinant(matrix)
    return Verdict(YES if det > 0 else NO, "T6.1", "type-2 bdsw is Q iff det > 0", {"det": det})


def classify_bdsw_type3(matrix: RationalMatrix) -> Verdict:
    """Type-3 bdsw (negative diagonal, positive off-diagonals):
    Q iff (-1)^(n+1) det A > 0."""
    _detected(matrix, BDSW_TYPE_3)
    return _bdsw_type3(matrix)


def _bdsw_type3(matrix: RationalMatrix) -> Verdict:
    return _signed_det(matrix, matrix.n, "T7.1", "type-3 bdsw is Q iff (-1)^(n+1) det > 0", {})


def classify_bdsw_type4(matrix: RationalMatrix, k: int) -> Verdict:
    """Type-4 bdsw (mixed diagonal signs, no nonnegative or nonpositive row):
    Q iff (-1)^(k+1) det A > 0 where k counts negative diagonal entries."""
    structure = _detected(matrix, BDSW_TYPE_4)
    if k != structure.k:
        raise StructureError(
            "negative-diagonal count mismatch: got %r, matrix has %r" % (k, structure.k)
        )
    return _bdsw_type4(matrix, k)


def _bdsw_type4(matrix: RationalMatrix, k: int) -> Verdict:
    return _signed_det(matrix, k, "T8.1", "type-4 bdsw is Q iff (-1)^(k+1) det > 0", {"k": k})


def _detected(matrix: RationalMatrix, tag: str) -> StructureClass:
    """detect_structure(matrix), which must tag A with the given bdsw type."""
    structure = detect_structure(matrix)
    if structure.tag != tag:
        raise StructureError("matrix is tagged %s, not %s" % (structure.tag, tag))
    return structure


def _cycle_determinant(matrix: RationalMatrix) -> Fraction:
    """det A on the bdsw shape, in closed form: the diagonal product
    + (-1)^(n+1) a_12 a_23 ... a_(n-1)n a_n1."""
    n = matrix.n
    scale, ints = matrix.integer_rows()
    cycle = prod(ints[i][(i + 1) % n] for i in range(n))
    return Fraction(prod(ints[i][i] for i in range(n)) + (-1) ** (n + 1) * cycle, scale**n)


def _signed_det(matrix: RationalMatrix, m: int, rule: str, condition: str, data: dict) -> Verdict:
    """The rule of T7.1 and T8.1: Q iff (-1)^(m+1) det A > 0."""
    det = _cycle_determinant(matrix)
    signed = det if m % 2 else -det
    data = {"det": det, "signed_det": signed, **data}
    return Verdict(YES if signed > 0 else NO, rule, condition, data)


def _nonpositive_row(matrix: RationalMatrix, structure: StructureClass) -> Verdict:
    condition = "a row without positive entries makes some LCP(A,q) unsolvable"
    return Verdict(NO, "nonpositive-row", condition, {"row": structure.row})


def _order_1(matrix: RationalMatrix, structure: StructureClass) -> Verdict:
    value = matrix[0, 0]
    answer = YES if value > 0 else NO
    return Verdict(answer, "T3.1", "order-1 base case: Q iff the entry is positive", {"a": value})


# The rule body for each rule key that detect_structure sets.
_RULES = {
    NONPOSITIVE_ROW: _nonpositive_row,
    ORDER_1: _order_1,
    ORDER_2: lambda matrix, structure: _two_by_two(matrix),
    TRIANGULAR: lambda matrix, structure: _triangular(matrix),
    TRIANGULAR_PLUS_ROW: lambda matrix, structure: _triangular_plus_row(matrix),
    BDSW_TYPE_1: lambda matrix, structure: _bdsw_type1(matrix, structure.k),
    BDSW_TYPE_2: lambda matrix, structure: _bdsw_type2(matrix),
    BDSW_TYPE_3: lambda matrix, structure: _bdsw_type3(matrix),
    BDSW_TYPE_4: lambda matrix, structure: _bdsw_type4(matrix, structure.k),
}


def classify_by_rules(
    matrix: RationalMatrix, structure: Optional[StructureClass] = None
) -> Optional[Verdict]:
    """The structural verdict for A, or None when no rule applies.
    structure, when given, must be detect_structure(matrix); its rule key
    picks the rule body, and no shape test runs again."""
    structure = structure or detect_structure(matrix)
    body = _RULES.get(structure.rule)
    return body(matrix, structure) if body else None


def classify(
    matrix: RationalMatrix,
    oracle_budget: int = DEFAULT_BUDGET,
    oracle_seed: int = 0,
    structure: Optional[StructureClass] = None,
) -> Verdict:
    """Classify A for the Q-property: the structural rule if one applies,
    otherwise the exact oracle.  structure is as in classify_by_rules."""
    return classify_by_rules(matrix, structure) or q_oracle(
        matrix, budget=oracle_budget, rng_seed=oracle_seed
    )
