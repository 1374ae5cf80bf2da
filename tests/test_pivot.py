"""Schur complements and principal pivot transforms."""

import random
from fractions import Fraction

import pytest

from helpers import count_calls, identity, reference_ppt
from lcpq import kernel
from lcpq.classes import NO, YES, is_R0, q_oracle
from lcpq.errors import SingularPivotError
from lcpq.lcp import degree
from lcpq.matrices import RationalMatrix, determinant, inverse
from lcpq.pivot import ppt, schur_complement
from lcpq.structure import conjugate

TYPE4 = RationalMatrix([[-1, 1, 0], [0, -1, 1], [-2, 0, 1]])
BIG = RationalMatrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, -1], [1, 0, 0, 0]])


def _random_matrix(rng, n, lo=-4, hi=4):
    return RationalMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def _random_entry(rng, style):
    if style == "sparse" and rng.random() < 0.6:
        return 0
    if style == "fraction":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.randint(-3, 3)


def test_ppt_and_schur_complement_match_the_block_product_reference():
    # Fractional, sparse and integer entries at n = 1..7; sparse and small
    # integer blocks are often singular, where both sides must raise.
    rng = random.Random(53)
    singular = 0
    for case in range(20000):
        n = rng.randint(1, 7)
        style = ("integer", "fraction", "sparse")[case % 3]
        m = RationalMatrix([[_random_entry(rng, style) for _ in range(n)] for _ in range(n)])
        j = rng.sample(range(1, n + 1), rng.randint(1, n))
        # On the whole index set the transform is the inverse.
        whole = len(j) == n
        try:
            expected = reference_ppt(m, j)
        except SingularPivotError:
            singular += 1
            with pytest.raises(SingularPivotError):
                ppt(m, j)
            if whole:
                with pytest.raises(SingularPivotError):
                    inverse(m)
            else:
                with pytest.raises(SingularPivotError):
                    schur_complement(m, j)
            continue
        assert ppt(m, j) == expected
        if whole:
            assert inverse(m) == expected
        else:
            comp = [i for i in range(n) if i + 1 not in j]
            assert schur_complement(m, j) == expected.principal_submatrix(comp)
    assert 2000 < singular < 10000


def test_ppt_runs_one_integer_elimination(monkeypatch):
    calls = count_calls(monkeypatch, kernel.eliminate)
    m = RationalMatrix([[Fraction(1, 2), 2, 0, -1], [3, Fraction(-5, 3), 1, 0], [0, 1, 4, 2], [1, 0, -2, 3]])
    ppt(m, [2, 4])
    assert len(calls) == 1


def test_pivot_set_validation():
    for bad in ([], [0], [4]):
        with pytest.raises(ValueError):
            ppt(TYPE4, bad)
        with pytest.raises(ValueError):
            schur_complement(TYPE4, bad)
    with pytest.raises(ValueError):
        schur_complement(TYPE4, [1, 2, 3])
    # Index errors come before the singularity check.
    with pytest.raises(ValueError):
        ppt(RationalMatrix([[0, 1], [1, 0]]), [1, 3])


def test_schur_identity_blocks():
    eye = identity(4)
    for j in ([1], [2, 3], [1, 4]):
        assert schur_complement(eye, j) == identity(4 - len(j))


def test_schur_fixture():
    assert schur_complement(TYPE4, [3]) == RationalMatrix([[-1, 1], [2, -1]])


def test_schur_singular_pivot():
    with pytest.raises(SingularPivotError):
        schur_complement(RationalMatrix([[0, 1], [1, 0]]), [1])


def test_schur_determinant_identity():
    rng = random.Random(41)
    done = 0
    while done < 12:
        m = _random_matrix(rng, 5)
        k = rng.randint(1, 4)
        j = sorted(rng.sample(range(1, 6), k))
        det_e = determinant(m.principal_submatrix([i - 1 for i in j]))
        if det_e == 0:
            continue
        assert determinant(m) == determinant(schur_complement(m, j)) * det_e
        done += 1


def test_ppt_identity_fixed_point():
    eye = identity(3)
    for j in ([1], [2], [1, 3], [1, 2, 3]):
        assert ppt(eye, j) == eye


def test_ppt_full_set_is_inverse():
    m = RationalMatrix([[-1, 2], [1, -1]])
    assert ppt(m, [1, 2]) == inverse(m)


def test_ppt_involution():
    rng = random.Random(43)
    done = 0
    while done < 20:
        n = rng.randint(2, 4)
        m = _random_matrix(rng, n)
        k = rng.randint(1, n)
        j = sorted(rng.sample(range(1, n + 1), k))
        if determinant(m.principal_submatrix([i - 1 for i in j])) == 0:
            continue
        assert ppt(ppt(m, j), j) == m
        done += 1


def test_ppt_keeps_original_labels():
    # Pivoting on a middle index must agree with: send it to the back,
    # pivot on the trailing block, send it home.
    rng = random.Random(47)
    swap = [0, 2, 1]  # its own inverse
    done = 0
    while done < 10:
        m = _random_matrix(rng, 3)
        if m[1, 1] == 0:
            continue
        moved = conjugate(m, swap)
        back = conjugate(ppt(moved, [3]), swap)
        assert back == ppt(m, [2])
        done += 1


def test_ppt_singular_block():
    with pytest.raises(SingularPivotError):
        ppt(BIG, [4])


def test_ppt_type4_trailing_row_turns_nonnegative():
    # Pivot on the positive diagonal entry in the last row.
    assert TYPE4[2, 2] > 0 and TYPE4[2, 0] < 0
    out = ppt(TYPE4, [3])
    assert out.rows[2] == (Fraction(2), Fraction(0), Fraction(1))
    assert all(v >= 0 for v in out.rows[2]) and out.rows[2][-1] > 0
    nw = out.principal_submatrix([0, 1])
    assert nw == schur_complement(TYPE4, [3])


def test_ppt_degree_factor():
    cases = [
        (RationalMatrix([[-1, 2], [1, -1]]), [1]),
        (RationalMatrix([[-1, 2], [1, -1]]), [1, 2]),
        (TYPE4, [3]),
        (identity(3), [2]),
    ]
    for m, j in cases:
        det_e = determinant(m.principal_submatrix([i - 1 for i in j]))
        sign = 1 if det_e > 0 else -1
        assert degree(ppt(m, j)) == degree(m) * sign


def test_ppt_preserves_r0_answer():
    cases = [(TYPE4, [3]), (BIG, [1]), (RationalMatrix([[-1, 2], [1, -1]]), [2])]
    for m, j in cases:
        assert is_R0(m).answer == is_R0(ppt(m, j)).answer


def test_ppt_preserves_oracle_answer_when_decided():
    cases = [(TYPE4, [3]), (BIG, [1]), (RationalMatrix([[-1, 2], [1, -1]]), [1])]
    compared = 0
    for m, j in cases:
        va = q_oracle(m)
        vb = q_oracle(ppt(m, j))
        if va.answer in (YES, NO) and vb.answer in (YES, NO):
            assert va.answer == vb.answer
            compared += 1
    assert compared == len(cases)
