"""Q-property classification by structure-specific determinant/sign rules.

Each classifier covers one structural family and cites the rule it applied
(identifiers T3.1 through T9.1) in its certificate.  classify() is the
front door: classify_by_rules() short-circuits nonpositive rows and
dispatches to the most specific structural rule, and classify() falls back
to the exact oracle when no rule applies.  Verdicts never contradict the
oracle; that is enforced by tests, not by consulting the oracle on the
structured paths.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .classes import NO, YES, Verdict, q_oracle
from .errors import StructureError
from .matrices import (
    RationalMatrix,
    is_lower_triangular,
    is_upper_triangular,
    nonpositive_rows,
)
from .structure import (
    BDSW_TYPE_1,
    BDSW_TYPE_2,
    BDSW_TYPE_3,
    BDSW_TYPE_4,
    StructureClass,
    bdsw_determinant,
    detect_structure,
    is_bdsw_shape,
    is_triangular_plus_row,
)


def _diag(matrix: RationalMatrix) -> list:
    """The diagonal of the integer image: A's signs, no Fraction built."""
    _, ints = matrix.integer_rows()
    return [ints[i][i] for i in range(matrix.n)]


def _first_nonpositive_diag(matrix: RationalMatrix):
    for i, v in enumerate(_diag(matrix)):
        if v <= 0:
            return i + 1, matrix[i, i]
    return None


def classify_triangular(matrix: RationalMatrix) -> Verdict:
    """Triangular matrices are Q iff the diagonal is positive.

    Positive-diagonal triangular matrices are simultaneously P, E and R*,
    which the certificate records.
    """
    if not (is_upper_triangular(matrix) or is_lower_triangular(matrix)):
        raise StructureError("matrix is not triangular")
    bad = _first_nonpositive_diag(matrix)
    if bad is None:
        return Verdict(
            YES,
            "T3.1",
            "triangular with positive diagonal",
            {"implied_classes": ["P", "E", "R*"]},
        )
    return Verdict(
        NO,
        "T3.1",
        "triangular with nonpositive diagonal entry",
        {"diag_index": bad[0], "diag_value": bad[1]},
    )


def classify_triangular_plus_row(matrix: RationalMatrix) -> Verdict:
    """Block form (B c; d^T a_nn), B upper triangular, d >= 0, a_nn > 0:
    Q iff the diagonal of A is positive."""
    if not is_triangular_plus_row(matrix):
        raise StructureError(
            "matrix does not match the triangular-plus-nonnegative-row form"
        )
    bad = _first_nonpositive_diag(matrix)
    if bad is None:
        return Verdict(YES, "T3.2", "block triangular-plus-row with positive diagonal", {})
    return Verdict(
        NO,
        "T3.2",
        "block triangular-plus-row with nonpositive diagonal entry",
        {"diag_index": bad[0], "diag_value": bad[1]},
    )


def classify_2x2(matrix: RationalMatrix) -> Verdict:
    """Complete 2x2 characterisation by sign pattern and determinant (T9.1).

    Unconditional Yes patterns, then determinant-gated patterns; anything
    else is No.
    """
    if matrix.n != 2:
        raise StructureError("classify_2x2 needs a 2x2 matrix")
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

    Cases: a_n1 >= 0 and a_nn > 0 (positive diagonal decides); a_n1 > 0 and
    a_nn = 0 (positive leading diagonal plus negative superdiagonal);
    a_n1 < 0 and a_nn > 0 (positive diagonal, or the nonnegative row k has a
    zero diagonal entry, positive off-diagonal and every other row has a
    positive diagonal and negative off-diagonal entry); a_n1 > 0 and
    a_nn < 0 (never Q).
    """
    if not is_bdsw_shape(matrix):
        raise StructureError("matrix does not have the bdsw shape")
    n = matrix.n
    _, ints = matrix.integer_rows()
    an1 = ints[n - 1][0]
    ann = ints[n - 1][n - 1]
    diag = _diag(matrix)

    if an1 >= 0 and ann > 0:
        bad = _first_nonpositive_diag(matrix)
        if bad is None:
            return Verdict(YES, "T5.1", "a_n1 >= 0, a_nn > 0, positive diagonal", {})
        return Verdict(
            NO,
            "T5.1",
            "a_n1 >= 0, a_nn > 0, nonpositive diagonal entry",
            {"diag_index": bad[0], "diag_value": bad[1]},
        )

    if an1 > 0 and ann == 0:
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

    if an1 < 0 and ann > 0:
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

    if an1 > 0 and ann < 0:
        return Verdict(NO, "T5.4", "a_n1 > 0 and a_nn < 0 exclude the Q-property", {})

    raise StructureError(
        "last row is nonpositive; classify() short-circuits this case before type dispatch"
    )


def classify_bdsw_type2(matrix: RationalMatrix) -> Verdict:
    """Type-2 bdsw (positive diagonal, negative off-diagonals): Q iff det > 0."""
    if detect_structure(matrix).tag != BDSW_TYPE_2:
        raise StructureError("matrix is not a type-2 bdsw matrix")
    return _bdsw_type2(matrix)


def _bdsw_type2(matrix: RationalMatrix) -> Verdict:
    det = bdsw_determinant(matrix)
    answer = YES if det > 0 else NO
    return Verdict(answer, "T6.1", "type-2 bdsw is Q iff det > 0", {"det": det})


def classify_bdsw_type3(matrix: RationalMatrix) -> Verdict:
    """Type-3 bdsw (negative diagonal, positive off-diagonals):
    Q iff (-1)^(n+1) det A > 0."""
    if detect_structure(matrix).tag != BDSW_TYPE_3:
        raise StructureError("matrix is not a type-3 bdsw matrix")
    return _bdsw_type3(matrix)


def _bdsw_type3(matrix: RationalMatrix) -> Verdict:
    det = bdsw_determinant(matrix)
    signed = det if (matrix.n + 1) % 2 == 0 else -det
    answer = YES if signed > 0 else NO
    return Verdict(
        answer,
        "T7.1",
        "type-3 bdsw is Q iff (-1)^(n+1) det > 0",
        {"det": det, "signed_det": signed},
    )


def classify_bdsw_type4(matrix: RationalMatrix, k: int) -> Verdict:
    """Type-4 bdsw (mixed diagonal signs, no nonnegative or nonpositive row):
    Q iff (-1)^(k+1) det A > 0 where k counts negative diagonal entries."""
    structure = detect_structure(matrix)
    if structure.tag != BDSW_TYPE_4:
        raise StructureError("matrix is not a type-4 bdsw matrix")
    if k != structure.k:
        raise StructureError(
            "negative-diagonal count mismatch: got %r, matrix has %r" % (k, structure.k)
        )
    return _bdsw_type4(matrix, k)


def _bdsw_type4(matrix: RationalMatrix, k: int) -> Verdict:
    det = bdsw_determinant(matrix)
    signed = det if (k + 1) % 2 == 0 else -det
    answer = YES if signed > 0 else NO
    return Verdict(
        answer,
        "T8.1",
        "type-4 bdsw is Q iff (-1)^(k+1) det > 0",
        {"det": det, "signed_det": signed, "k": k},
    )


def classify_by_rules(
    matrix: RationalMatrix, structure: Optional[StructureClass] = None
) -> Optional[Verdict]:
    """The structural verdict for A, or None when no rule applies.

    Dispatch order: nonpositive row, order 1, order 2, triangular,
    triangular-plus-row, bdsw type rules.  When several rules apply they
    agree on the answer, so the order only affects which certificate is
    reported.  structure, when given, must be detect_structure(matrix); the
    bdsw rules then take the type from it without detecting it again.
    """
    bad = nonpositive_rows(matrix)
    if bad:
        return Verdict(
            NO,
            "nonpositive-row",
            "a row without positive entries makes some LCP(A,q) unsolvable",
            {"row": bad[0] + 1},
        )
    if matrix.n == 1:
        value = matrix[0, 0]
        answer = YES if value > 0 else NO
        return Verdict(answer, "T3.1", "order-1 base case: Q iff the entry is positive", {"a": value})
    if matrix.n == 2:
        return classify_2x2(matrix)
    if is_upper_triangular(matrix) or is_lower_triangular(matrix):
        return classify_triangular(matrix)
    if is_triangular_plus_row(matrix):
        return classify_triangular_plus_row(matrix)
    if structure is None:
        structure = detect_structure(matrix)
    if structure.tag == BDSW_TYPE_1:
        return classify_bdsw_type1(matrix, structure.k)
    if structure.tag == BDSW_TYPE_2:
        return _bdsw_type2(matrix)
    if structure.tag == BDSW_TYPE_3:
        return _bdsw_type3(matrix)
    if structure.tag == BDSW_TYPE_4:
        return _bdsw_type4(matrix, structure.k)
    return None


def classify(
    matrix: RationalMatrix,
    oracle_budget: int = 64,
    oracle_seed: int = 0,
    structure: Optional[StructureClass] = None,
) -> Verdict:
    """Classify A for the Q-property: the structural rule if one applies,
    otherwise the exact oracle.  structure is as in classify_by_rules."""
    return classify_by_rules(matrix, structure) or q_oracle(
        matrix, budget=oracle_budget, rng_seed=oracle_seed
    )
