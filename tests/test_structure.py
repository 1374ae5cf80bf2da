"""Shape detection, permutation conjugation and the bdsw determinant."""

import random
from fractions import Fraction

import pytest

from helpers import matmul, transpose
from lcpq.errors import NotBdswShapeError
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
    Permutation,
    antidiagonal_conjugate,
    bdsw_determinant,
    detect_structure,
    is_bdsw_shape,
    is_triangular_plus_row,
    rotate_conjugate,
    rotation_permutation,
)


def _random_bdsw(rng, n, allow_zero=True):
    lo = -4
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(lo, 4)
        off = rng.randint(lo, 4)
        if not allow_zero:
            while rows[i][i] == 0:
                rows[i][i] = rng.randint(lo, 4)
            while off == 0:
                off = rng.randint(lo, 4)
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
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(2, 8)
        m = _random_bdsw(rng, n)
        assert bdsw_determinant(m) == determinant(m)


def test_bdsw_determinant_rejects_other_shapes():
    with pytest.raises(NotBdswShapeError):
        bdsw_determinant(RationalMatrix([[1, 0, 2], [0, 1, 0], [0, 0, 1]]))


def test_permutation_basics():
    p = Permutation((2, 3, 1))
    assert p.apply(1) == 2
    assert p.inverse().apply(2) == 1
    assert p.compose(p.inverse()).images == (1, 2, 3)
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_permutation_conjugate_matches_matrix_product():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 5)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        a = RationalMatrix(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        )
        pm = p.matrix()
        assert p.conjugate(a) == matmul(matmul(pm, a), transpose(pm))
        # Definition check: entry (sigma(i), sigma(j)) is A[i, j].
        b = p.conjugate(a)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert b[p.apply(i) - 1, p.apply(j) - 1] == a[i - 1, j - 1]


def test_rotation_moves_row_k_to_last_position():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 6)
        m = _random_bdsw(rng, n, allow_zero=False)
        k = rng.randint(1, n - 1)
        rotated = rotate_conjugate(m, k)
        assert is_bdsw_shape(rotated)
        assert rotated[n - 1, n - 1] == m[k - 1, k - 1]
        assert rotated[n - 1, 0] == m[k - 1, k]
        assert determinant(rotated) == determinant(m)


def test_rotation_composition_wraps_mod_n():
    n = 5
    p = rotation_permutation(n, 2)
    q = rotation_permutation(n, 3)
    composed = p.compose(q)
    for i in range(1, n + 1):
        assert composed.apply(i) == ((i - 1) + (n - 2) + (n - 3)) % n + 1
    with pytest.raises(ValueError):
        rotation_permutation(4, 4)


def test_antidiagonal_conjugate_involution():
    m = RationalMatrix([[1, 2], [3, 4]])
    assert antidiagonal_conjugate(m) == RationalMatrix([[4, 3], [2, 1]])
    assert antidiagonal_conjugate(antidiagonal_conjugate(m)) == m
    rng = random.Random(61)
    for n in range(1, 7):
        for _ in range(5):
            a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
            m = RationalMatrix(a)
            flipped = antidiagonal_conjugate(m)
            assert flipped == RationalMatrix(
                [[a[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]
            )
            assert antidiagonal_conjugate(flipped) == m


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
