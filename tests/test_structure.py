"""Shape detection and the bdsw determinant."""

import random

import pytest

from lcpq.classifier import (
    classify_bdsw_type1,
    classify_bdsw_type2,
    classify_bdsw_type3,
    classify_bdsw_type4,
)
from lcpq.errors import StructureError
from lcpq.matrices import RationalMatrix, determinant
from lcpq.structure import (
    BDSW_TYPE_1,
    BDSW_TYPE_2,
    BDSW_TYPE_3,
    BDSW_TYPE_4,
    GENERAL,
    LOWER_TRIANGULAR,
    TRIANGULAR_PLUS_ROW,
    UPPER_TRIANGULAR,
    detect_structure,
    is_bdsw_shape,
    is_triangular_plus_row,
)


def _random_bdsw(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-4, 4)
        off = rng.randint(-4, 4)
        if i < n - 1:
            rows[i][i + 1] = off
        else:
            rows[i][0] = off
    return RationalMatrix(rows)


def test_bdsw_shape_recognition():
    assert is_bdsw_shape(RationalMatrix([[1, 2], [3, 4]]))  # every 2x2 qualifies
    assert is_bdsw_shape(RationalMatrix([[1, 2, 0], [0, 3, 4], [5, 0, 6]]))
    assert not is_bdsw_shape(RationalMatrix([[1, 0, 2], [0, 3, 4], [5, 0, 6]]))
    assert not is_bdsw_shape(RationalMatrix([[1]]))


def test_bdsw_determinant_closed_form_matches_elimination():
    # One positive and one negative entry per row on the bdsw shape make a
    # type-2, 3 or 4 matrix; T6.1, T7.1 and T8.1 report its closed-form det.
    rng = random.Random(3)
    seen = set()
    for _ in range(80):
        n = rng.randint(2, 8)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            sign = rng.choice((-1, 1))
            rows[i][i] = sign * rng.randint(1, 4)
            rows[i][(i + 1) % n] = -sign * rng.randint(1, 4)
        m = RationalMatrix(rows)
        s = detect_structure(m)
        if s.tag == BDSW_TYPE_2:
            v, sign = classify_bdsw_type2(m), 1
        elif s.tag == BDSW_TYPE_3:
            v, sign = classify_bdsw_type3(m), (-1) ** (n + 1)
        else:
            v, sign = classify_bdsw_type4(m, s.k), (-1) ** (s.k + 1)
        assert v.data["det"] == determinant(m)
        assert v.data.get("signed_det", v.data["det"]) == sign * determinant(m)
        seen.add(s.tag)
    assert seen == {BDSW_TYPE_2, BDSW_TYPE_3, BDSW_TYPE_4}


def test_bdsw_determinant_rejects_other_shapes():
    m = RationalMatrix([[1, 0, 2], [0, 1, 0], [0, 0, 1]])
    for entry in (
        lambda: classify_bdsw_type1(m, 1),
        lambda: classify_bdsw_type2(m),
        lambda: classify_bdsw_type3(m),
        lambda: classify_bdsw_type4(m, 0),
    ):
        with pytest.raises(StructureError):
            entry()


def test_detect_type1_with_normalised_last_row():
    # Only row n is nonnegative; the detector reports k = 1 plus a note.
    s = detect_structure(RationalMatrix([[1, -1], [1, 0]]))
    assert s.tag == BDSW_TYPE_1
    assert s.k == 1
    assert "nonnegative-row-n-normalized-to-1" in s.notes


def test_detect_type1_prefers_leading_nonnegative_row():
    s = detect_structure(
        RationalMatrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, -1], [1, 0, 0, 0]])
    )
    assert s.tag == BDSW_TYPE_1
    assert s.k == 1


def test_detect_types_two_three_four():
    assert detect_structure(RationalMatrix([[1, -1], [-1, 2]])).tag == BDSW_TYPE_2
    s3 = detect_structure(RationalMatrix([[-1, 2], [1, -1]]))
    assert s3.tag == BDSW_TYPE_3 and "two-by-two" in s3.notes
    s4 = detect_structure(RationalMatrix([[-1, 1, 0], [0, -1, 1], [-2, 0, 1]]))
    assert s4.tag == BDSW_TYPE_4
    assert s4.k == 2  # number of negative diagonal entries


def test_detect_nonpositive_row_short_circuits():
    s = detect_structure(RationalMatrix([[-1, 0], [0, -1]]))
    assert s.tag == GENERAL
    assert any(note.startswith("nonpositive-row:") for note in s.notes)


def test_detect_triangular_tags_for_non_bdsw_shapes():
    up = RationalMatrix([[1, 2, 3], [0, 1, 4], [0, 0, 5]])
    assert detect_structure(up).tag == UPPER_TRIANGULAR
    low = RationalMatrix([[1, 0, 0], [2, 1, 0], [3, 4, 1]])
    assert detect_structure(low).tag == LOWER_TRIANGULAR


def test_detect_triangular_plus_row():
    m = RationalMatrix([[1, 2, -1], [0, 3, 4], [1, 2, 5]])
    assert detect_structure(m).tag == TRIANGULAR_PLUS_ROW
    assert is_triangular_plus_row(m)
    # B = [[1, 2], [0, 3]] upper triangular, d = (1, 2) >= 0, a_nn = 5 > 0;
    # the head c = (-1, 4) of the last column is unconstrained.  Breaking
    # any one of B, d or a_nn breaks the form, and the rows scaled apart
    # change nothing.
    assert is_triangular_plus_row(RationalMatrix([[1, 2, -9], [0, 3, -4], [1, 2, 5]]))
    assert not is_triangular_plus_row(RationalMatrix([[1, 2, -1], [1, 3, 4], [1, 2, 5]]))
    assert not is_triangular_plus_row(RationalMatrix([[1, 2, -1], [0, 3, 4], [1, -2, 5]]))
    assert not is_triangular_plus_row(RationalMatrix([[1, 2, -1], [0, 3, 4], [1, 2, 0]]))
    assert is_triangular_plus_row(
        RationalMatrix([["1/2", 2, "-1/3"], [0, "3/5", 4], [1, "2/7", 5]])
    )


def test_split_rejects_wrong_block_signs():
    # Negative a_nn and a negative entry in d both disqualify the form.
    assert not is_triangular_plus_row(RationalMatrix([[1, 0], [1, -1]]))
    assert not is_triangular_plus_row(RationalMatrix([[1, 2, 0], [0, 1, 0], [-1, 0, 3]]))
    assert not is_triangular_plus_row(RationalMatrix([[1]]))  # no B at order 1


def test_detect_general_fallback():
    m = RationalMatrix([[1, -1, 1], [0, 1, -1], [1, 0, 0]])
    assert detect_structure(m).tag == GENERAL


def test_bdsw_type_partition_is_exhaustive():
    # Any bdsw matrix without a nonpositive row lands in exactly one type.
    rng = random.Random(17)
    seen = set()
    for _ in range(300):
        n = rng.randint(2, 6)
        m = _random_bdsw(rng, n)
        s = detect_structure(m)
        if any(note.startswith("nonpositive-row:") for note in s.notes):
            assert s.tag == GENERAL
            continue
        assert s.tag in (BDSW_TYPE_1, BDSW_TYPE_2, BDSW_TYPE_3, BDSW_TYPE_4)
        seen.add(s.tag)
    assert seen == {BDSW_TYPE_1, BDSW_TYPE_2, BDSW_TYPE_3, BDSW_TYPE_4}
