"""Frame embeddings, Peirce projections, and operator constructions."""

import numpy as np
import pytest

from lcpq.jordan.algebra import (
    JordanElement,
    JordanFrame,
    element_from_coords,
    element_from_eigenvalues,
    element_from_matrix,
    identity_element,
    inverse_element,
    jordan_product,
    random_element,
    random_frame,
    rn_algebra,
    standard_frame,
    sym_algebra,
    trace_inner_product,
)
from lcpq.jordan.transforms import (
    LinearTransform,
    bracket,
    conjugate_transform,
    hat_transform,
    hat_vector,
    mult_operator,
    peirce_decompose,
    peirce_projection,
    quadratic_representation,
    r_ab_transform,
    rank_one,
)
from lcpq.matrices import RationalMatrix

RN2 = rn_algebra(2)
SYM2 = sym_algebra(2)
SYM3 = sym_algebra(3)


def test_linear_transform_basics():
    eye = LinearTransform(SYM2, np.eye(SYM2.dim))
    x = element_from_matrix(SYM2, np.array([[1.0, 2.0], [2.0, 3.0]]))
    assert np.allclose(eye.apply(x).coords, x.coords)
    with pytest.raises(ValueError):
        LinearTransform(SYM2, np.eye(2))


def test_mult_operator_symmetric_and_correct():
    rng = np.random.default_rng(11)
    for algebra in (RN2, SYM3):
        c = random_element(algebra, rng)
        op = mult_operator(c)
        assert np.max(np.abs(op.matrix - op.matrix.T)) <= 1e-12
        x = random_element(algebra, rng)
        assert np.allclose(op.apply(x).coords, jordan_product(c, x).coords)


def test_hat_vector_bracket_round_trip():
    rng = np.random.default_rng(13)
    for algebra in (rn_algebra(3), SYM3):
        for frame in (standard_frame(algebra), random_frame(algebra, rng)):
            r = rng.standard_normal(len(frame))
            assert np.allclose(bracket(hat_vector(r, frame), frame), r)


def test_hat_vector_is_the_frame_sum_bit_for_bit():
    # hat_vector(r, f) and element_from_eigenvalues(f, r) are one sum of
    # r_i e_i, accumulated from +0.0, so a zero coordinate is never -0.0.
    rng = np.random.default_rng(17)
    weights = ([0.0, 0.0, 0.0], [-1.0, -2.0, -0.5], [-0.0, -1.0, 0.0], [1.0, -1.0, 2.0])
    for algebra in (rn_algebra(3), SYM3):
        for frame in (standard_frame(algebra), random_frame(algebra, rng)):
            for r in weights + (list(rng.standard_normal(3)),):
                hat = hat_vector(r, frame).coords
                summed = element_from_eigenvalues(frame, r).coords
                assert np.array_equal(hat.view(np.uint64), summed.view(np.uint64))
                assert np.array_equal(np.signbit(hat), np.signbit(summed))
                assert not np.signbit(hat[hat == 0.0]).any()


def test_hat_vector_length_check():
    with pytest.raises(ValueError):
        hat_vector([1.0, 2.0, 3.0], standard_frame(SYM2))


def test_hat_acts_as_matrix_on_rn_coordinates():
    frame = standard_frame(RN2)
    op = hat_transform(np.array([[1.0, 2.0], [3.0, 4.0]]), frame)
    x = element_from_coords(RN2, [1.0, 1.0])
    assert np.allclose(op.apply(x).coords, [3.0, 7.0])


def test_hat_accepts_exact_matrices():
    frame = standard_frame(SYM2)
    a = hat_transform(RationalMatrix([[1, 2], [3, 4]]), frame)
    b = hat_transform(np.array([[1.0, 2.0], [3.0, 4.0]]), frame)
    assert np.allclose(a.matrix, b.matrix)


def test_hat_annihilates_off_diagonal_part():
    frame = standard_frame(SYM2)
    op = hat_transform(np.array([[1.0, 2.0], [3.0, 4.0]]), frame)
    x = element_from_matrix(SYM2, np.array([[1.0, 5.0], [5.0, 2.0]]))
    out = op.apply(x)
    # Diagonal coordinates transform by the matrix; the off part dies.
    assert np.allclose(bracket(out, frame), [1.0 + 4.0, 3.0 + 8.0])
    assert abs(out.coords[2]) <= 1e-12


def test_peirce_projection_fixture():
    frame = standard_frame(SYM2)
    x = element_from_matrix(SYM2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    diagonal, off = peirce_decompose(x, frame)
    assert np.allclose(diagonal, [0.0, 0.0])
    assert np.allclose(off[(0, 1)].coords, x.coords)


def test_peirce_decompose_refuses_a_frame_with_a_nan_coordinate():
    elements = list(standard_frame(SYM3).elements)
    coords = elements[1].coords.copy()
    coords[4] = np.nan
    elements[1] = JordanElement(SYM3, coords)
    x = element_from_matrix(SYM3, np.eye(3))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="frame residual nan"):
        peirce_decompose(x, JordanFrame(SYM3, tuple(elements)))


def test_peirce_decomposition_reconstructs():
    rng = np.random.default_rng(17)
    for algebra in (SYM2, SYM3):
        frame = random_frame(algebra, rng)
        x = random_element(algebra, rng)
        diagonal, off = peirce_decompose(x, frame)
        total = np.zeros(algebra.dim)
        for lam, e in zip(diagonal, frame):
            total += lam * e.coords
        for part in off.values():
            total += part.coords
        assert np.max(np.abs(total - x.coords)) <= 1e-9


def test_peirce_projections_are_idempotent_and_complete():
    frame = standard_frame(SYM3)
    total = np.zeros((SYM3.dim, SYM3.dim))
    for i in range(3):
        for j in range(i, 3):
            p = peirce_projection(frame, i, j).matrix
            assert np.max(np.abs(p @ p - p)) <= 1e-10
            total += p
    assert np.allclose(total, np.eye(SYM3.dim))


def test_r_ab_zero_off_matrix_recovers_hat():
    rng = np.random.default_rng(19)
    frame = random_frame(SYM3, rng)
    a = rng.standard_normal((3, 3))
    direct = hat_transform(a, frame)
    via_r = r_ab_transform(a, np.zeros((3, 3)), frame)
    assert np.max(np.abs(direct.matrix - via_r.matrix)) <= 1e-12


def test_r_ab_structural_action():
    frame = standard_frame(SYM2)
    a = np.array([[2.0, 0.0], [0.0, 3.0]])
    b = np.array([[0.0, 5.0], [5.0, 0.0]])
    op = r_ab_transform(a, b, frame)
    x = element_from_matrix(SYM2, np.array([[1.0, 4.0], [4.0, 2.0]]))
    out = op.apply(x).to_matrix()
    assert np.allclose(out, np.array([[2.0, 20.0], [20.0, 6.0]]))


def test_r_ab_requires_symmetric_b():
    frame = standard_frame(SYM2)
    with pytest.raises(ValueError):
        r_ab_transform(np.eye(2), np.array([[0.0, 1.0], [2.0, 0.0]]), frame)


def test_rank_one_action():
    rng = np.random.default_rng(23)
    a = random_element(SYM2, rng)
    b = random_element(SYM2, rng)
    x = random_element(SYM2, rng)
    out = rank_one(a, b).apply(x)
    assert np.allclose(out.coords, trace_inner_product(b, x) * a.coords)


def test_constant_row_hat_is_rank_one():
    # A matrix whose rows all equal d^T embeds to <hat d, .> identity.
    frame = standard_frame(SYM2)
    d = np.array([3.0, -1.0])
    m = np.vstack([d, d])
    lhs = hat_transform(m, frame)
    rhs = rank_one(identity_element(SYM2), hat_vector(d, frame))
    assert np.max(np.abs(lhs.matrix - rhs.matrix)) <= 1e-12


def test_quadratic_representation():
    rng = np.random.default_rng(29)
    for algebra in (RN2, SYM2, SYM3):
        e = identity_element(algebra)
        assert np.allclose(
            quadratic_representation(e).matrix, np.eye(algebra.dim)
        )
        c = random_element(algebra, rng)
        p = quadratic_representation(c)
        assert np.max(np.abs(p.matrix - p.matrix.T)) <= 1e-10
        c2 = jordan_product(c, c)
        assert np.allclose(p.apply(e).coords, c2.coords)

    c = element_from_coords(RN2, [2.0, -3.0])
    assert np.allclose(
        quadratic_representation(c).matrix, np.diag([4.0, 9.0])
    )


def test_quadratic_representation_inverts_cleanly():
    rng = np.random.default_rng(31)
    c = random_element(SYM2, rng) + 4.0 * identity_element(SYM2)
    p = quadratic_representation(c)
    back = p.apply(inverse_element(c))
    assert np.max(np.abs(back.coords - c.coords)) <= 1e-7


def test_conjugate_transform():
    rng = np.random.default_rng(37)
    t = LinearTransform(SYM2, rng.standard_normal((SYM2.dim, SYM2.dim)))
    phi = LinearTransform(SYM2, rng.standard_normal((SYM2.dim, SYM2.dim)))
    out = conjugate_transform(t, phi)
    assert np.allclose(out.matrix, phi.matrix.T @ t.matrix @ phi.matrix)
    eye = LinearTransform(SYM2, np.eye(SYM2.dim))
    assert np.allclose(conjugate_transform(t, eye).matrix, t.matrix)
