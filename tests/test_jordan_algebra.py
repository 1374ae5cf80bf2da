"""Euclidean Jordan algebra layer: products, frames, spectral decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    count_calls,
    reference_element_from_matrix,
    reference_frame_from_orthogonal,
    reference_to_matrix,
    reference_validate,
)
from lcpq.jordan import algebra as jordan_algebra
from lcpq.jordan.algebra import (
    MAX_RANK,
    Algebra,
    JordanElement,
    JordanFrame,
    element_from_eigenvalues,
    element_from_matrix,
    eigenvalues_of,
    frame_from_orthogonal,
    identity_element,
    jordan_product,
    parse_algebra,
    random_element,
    random_frame,
    spectral_decomposition,
    standard_frame,
    sym_algebra,
    trace_inner_product,
    _svec_indices,
)

RN3 = Algebra("rn", 3)
SYM2 = sym_algebra(2)
SYM3 = sym_algebra(3)


def test_algebra_descriptor():
    assert parse_algebra("rn:4") == Algebra("rn", 4)
    assert parse_algebra("sym:3").dim == 6
    assert SYM3.rank == 3
    with pytest.raises(ValueError):
        Algebra("herm", 2)
    with pytest.raises(ValueError):
        Algebra("rn", 0)
    assert Algebra("sym", MAX_RANK).dim == MAX_RANK * (MAX_RANK + 1) // 2
    for kind in ("rn", "sym"):
        with pytest.raises(ValueError, match="above the maximum"):
            Algebra(kind, MAX_RANK + 1)
    with pytest.raises(ValueError, match="above the maximum"):
        parse_algebra("sym:3000")


def test_rn_product_componentwise():
    x = JordanElement(RN3, [1, 2, 3])
    y = JordanElement(RN3, [4, 5, 6])
    assert np.allclose(jordan_product(x, y).coords, [4, 10, 18])


def test_identity_is_neutral():
    rng = np.random.default_rng(1)
    for algebra in (RN3, SYM2, SYM3):
        e = identity_element(algebra)
        x = random_element(algebra, rng)
        assert np.allclose(jordan_product(x, e).coords, x.coords)


def test_product_commutes_and_satisfies_jordan_identity():
    rng = np.random.default_rng(2)
    for algebra in (RN3, SYM3):
        for _ in range(25):
            x = random_element(algebra, rng)
            y = random_element(algebra, rng)
            assert np.allclose(
                jordan_product(x, y).coords, jordan_product(y, x).coords
            )
            x2 = jordan_product(x, x)
            lhs = jordan_product(x2, jordan_product(x, y))
            rhs = jordan_product(x, jordan_product(x2, y))
            assert np.max(np.abs(lhs.coords - rhs.coords)) <= 1e-10


def test_trace_inner_product_matches_matrix_trace():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = random_element(SYM3, rng)
        y = random_element(SYM3, rng)
        direct = float(np.trace(x.to_matrix() @ y.to_matrix()))
        assert abs(trace_inner_product(x, y) - direct) <= 1e-12


def test_sym_coordinate_convention():
    mat = np.array([[2.0, 5.0], [5.0, -1.0]])
    x = element_from_matrix(SYM2, mat)
    assert np.allclose(x.coords, [2.0, -1.0, 5.0 * np.sqrt(2.0)])
    assert np.allclose(x.to_matrix(), mat)


FLOATS = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


@st.composite
def sym_cases(draw):
    """An order m in 1..12 (m = 1 has no off-diagonal coordinates), two
    elements and a nonsymmetric m x m matrix of sym:m."""
    m = draw(st.integers(min_value=1, max_value=12))
    algebra = sym_algebra(m)
    vectors = st.lists(FLOATS, min_size=algebra.dim, max_size=algebra.dim)
    x = JordanElement(algebra, np.array(draw(vectors)))
    y = JordanElement(algebra, np.array(draw(vectors)))
    mat = np.array(draw(st.lists(FLOATS, min_size=m * m, max_size=m * m))).reshape(m, m)
    return algebra, x, y, mat


@settings(max_examples=200, deadline=None)
@given(sym_cases())
def test_svec_index_maps_match_the_coordinate_loops_bit_for_bit(case):
    algebra, x, y, mat = case
    assert np.array_equal(x.to_matrix(), reference_to_matrix(x))
    assert np.array_equal(
        element_from_matrix(algebra, mat).coords,
        reference_element_from_matrix(algebra, mat).coords,
    )
    mx, my = reference_to_matrix(x), reference_to_matrix(y)
    product = reference_element_from_matrix(algebra, (mx @ my + my @ mx) / 2.0)
    assert np.array_equal(jordan_product(x, y).coords, product.coords)


def test_svec_indices_follow_off_diagonal_pairs_and_are_read_only():
    for m in range(1, 9):
        diag, rows, cols = _svec_indices(m)
        assert diag.tolist() == list(range(m))
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]  # lexicographic, i < j
        assert list(zip(rows.tolist(), cols.tolist())) == pairs
        assert _svec_indices(m)[1] is rows
        for index in (diag, rows, cols):
            with pytest.raises(ValueError):
                index[...] = 0
    assert _svec_indices(1)[1].size == 0
    one = element_from_matrix(sym_algebra(1), np.array([[3.0]]))
    assert one.coords.tolist() == [3.0] and one.to_matrix().tolist() == [[3.0]]


def test_matrix_form_rejects_the_rn_algebra():
    x = JordanElement(RN3, [1, 2, 3])
    with pytest.raises(ValueError):
        x.to_matrix()
    with pytest.raises(ValueError):
        element_from_matrix(RN3, np.eye(3))


def test_matrix_shape_checked():
    with pytest.raises(ValueError, match=r"\(3, 3\) does not match sym:2, which needs \(2, 2\)"):
        element_from_matrix(SYM2, np.arange(9.0).reshape(3, 3))
    with pytest.raises(ValueError, match=r"\(2, 2\) does not match sym:3, which needs \(3, 3\)"):
        element_from_matrix(SYM3, np.eye(2))
    with pytest.raises(ValueError, match=r"\(4,\) does not match sym:2"):
        element_from_matrix(SYM2, np.arange(4.0))


def test_coords_shape_checked():
    with pytest.raises(ValueError):
        JordanElement(SYM2, [1.0, 2.0])
    with pytest.raises(ValueError):
        JordanElement(RN3, [1.0, 2.0]) + JordanElement(RN3, [1, 2, 3])


def test_algebra_mismatch_rejected():
    x = JordanElement(RN3, [1, 2, 3])
    y = JordanElement(Algebra("rn", 4), [1, 2, 3, 4])
    with pytest.raises(ValueError):
        jordan_product(x, y)


def test_spectral_decomposition_rn():
    x = JordanElement(RN3, [3.0, -1.0, 0.0])
    eigenvalues, frame = spectral_decomposition(x)
    assert np.allclose(eigenvalues, [-1.0, 0.0, 3.0])
    frame.validate()
    back = element_from_eigenvalues(frame, eigenvalues)
    assert np.allclose(back.coords, x.coords)


def test_spectral_decomposition_sym():
    x = element_from_matrix(SYM2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    eigenvalues, frame = spectral_decomposition(x)
    assert np.allclose(eigenvalues, [-1.0, 1.0])
    frame.validate(tol=1e-9)
    back = element_from_eigenvalues(frame, eigenvalues)
    assert np.max(np.abs(back.coords - x.coords)) <= 1e-10


def test_eigenvalues_sorted_and_cone_tests():
    corner = element_from_matrix(SYM2, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.all(np.diff(eigenvalues_of(corner)) >= 0)


def test_standard_and_random_frames_validate():
    rng = np.random.default_rng(7)
    for algebra in (Algebra("rn", 4), SYM2, SYM3):
        assert standard_frame(algebra).validate() <= 1e-12
        assert random_frame(algebra, rng).validate(tol=1e-7) <= 1e-7


def test_frame_validation_catches_junk():
    e = standard_frame(SYM2)
    with pytest.raises(ValueError):
        JordanFrame(SYM2, (e[0],))
    broken = JordanFrame(SYM2, (e[0], e[0]))
    with pytest.raises(ValueError):
        broken.validate()


def test_frame_validation_refuses_elements_of_another_algebra():
    # rn:3 and sym:2 both have dimension 3
    mixed = JordanFrame(SYM2, (standard_frame(SYM2)[0], standard_frame(RN3)[0]))
    with pytest.raises(ValueError, match="elements live in different algebras"):
        mixed.validate(tol=np.inf)


def _with_nan_at(frame, i, k):
    elements = list(frame.elements)
    coords = elements[i].coords.copy()
    coords[k] = np.nan
    elements[i] = JordanElement(frame.algebra, coords)
    return JordanFrame(frame.algebra, tuple(elements))


@pytest.mark.parametrize("tol", [1e-12, 1e-7, 1.0, np.inf])
def test_frame_validation_refuses_a_nan_residual_at_every_tol(tol):
    nan_frames = [
        JordanFrame(SYM3, tuple(JordanElement(SYM3, np.full(SYM3.dim, np.nan)) for _ in range(3)))
    ]
    for algebra in (RN3, SYM3):
        for i in range(algebra.rank):
            for k in (0, algebra.dim - 1):
                nan_frames.append(_with_nan_at(standard_frame(algebra), i, k))
    for frame in nan_frames:
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match=r"^frame residual nan exceeds tolerance"):
                frame.validate(tol=tol)
            with pytest.raises(ValueError, match=r"^frame residual nan exceeds tolerance"):
                reference_validate(frame, tol)
    assert standard_frame(SYM3).validate(tol=tol) == 0.0


# Junk coordinates: seeded floats of a magnitude drawn per frame and, in
# half the frames, about one in twenty replaced by a value that overflows a
# product, an infinity or a nan (such a frame's residual is mostly inf).
SPECIALS = np.array([0.0, -0.0, 1e200, -1e200, np.inf, -np.inf, np.nan])


def _junk_frame(algebra, rng):
    shape = (algebra.rank, algebra.dim)
    spread = rng.choice([0, 3, 150])
    coords = rng.standard_normal(shape) * 10.0 ** rng.integers(-spread, spread + 1, size=shape)
    if rng.random() < 0.5:
        special = rng.random(shape) < 0.05
        coords[special] = rng.choice(SPECIALS, size=int(special.sum()))
    return JordanFrame(algebra, tuple(JordanElement(algebra, row) for row in coords))


def _frame_off_at_the_end(algebra, rng):
    """A random frame whose last two elements move by +-d, d a small element
    orthogonal to both: the sum and, to first order, the unit traces stay,
    so the worst residuals are the last pairs' products, of size |d|."""
    frame = random_frame(algebra, rng)
    a, b = frame[-2].coords, frame[-1].coords
    d = rng.standard_normal(algebra.dim)
    d -= np.dot(d, a) * a + np.dot(d, b) * b
    d *= 1e-3 / np.linalg.norm(d)
    d = JordanElement(algebra, d)
    return JordanFrame(algebra, frame.elements[:-2] + (frame[-2] + d, frame[-1] - d))


@st.composite
def frames(draw):
    """A frame of rn:m or sym:m, m in 1..12: the standard one, a random
    one, the spectral frame of a random element, a random one off at its
    end (m >= 3), or rank junk elements."""
    algebra = Algebra(draw(st.sampled_from(("rn", "sym"))), draw(st.integers(1, 12)))
    how = draw(st.sampled_from(("standard", "random", "spectral", "junk", "off")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if how == "standard":
        return standard_frame(algebra)
    if how == "random":
        return random_frame(algebra, rng)
    if how == "spectral":
        return spectral_decomposition(random_element(algebra, rng))[1]
    if how == "off" and algebra.rank >= 3:
        return _frame_off_at_the_end(algebra, rng)
    return _junk_frame(algebra, rng)


def _validate_as_the_loop(frame):
    """frame.validate(tol=inf), checked against the loop: the same float,
    bit for bit, or, for a nan residual, the same ValueError; None then."""
    try:
        expected = reference_validate(frame, np.inf)
    except ValueError as reference_error:
        assert str(reference_error).startswith("frame residual nan ")
        with pytest.raises(ValueError) as error:
            frame.validate(tol=np.inf)
        assert str(error.value) == str(reference_error)
        return None
    worst = frame.validate(tol=np.inf)
    assert type(worst) is float and worst.hex() == expected.hex()
    return worst


@settings(max_examples=300, deadline=None)
@given(frames())
def test_validate_matches_the_pairwise_loop_bit_for_bit(frame):
    with np.errstate(all="ignore"):
        worst = _validate_as_the_loop(frame)
        if worst is not None and worst > 0:
            tol = worst / 2 if np.isfinite(worst) else 1.0
            with pytest.raises(ValueError) as reference_error:
                reference_validate(frame, tol)
            with pytest.raises(ValueError, match="exceeds tolerance") as error:
                frame.validate(tol=tol)
            assert str(error.value) == str(reference_error.value)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.sampled_from(("qr", "eigh", "junk")), st.integers(0, 2**32 - 1))
def test_frame_from_orthogonal_matches_the_outer_product_loop_bit_for_bit(m, how, seed):
    algebra = sym_algebra(m)
    rng = np.random.default_rng(seed)
    if how == "qr":
        q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    elif how == "eigh":
        q = np.linalg.eigh(random_element(algebra, rng).to_matrix())[1]
    else:
        q = rng.standard_normal((m, m)) * 10.0 ** rng.integers(-150, 150, size=(m, m))
    frame = frame_from_orthogonal(algebra, q)
    reference = reference_frame_from_orthogonal(algebra, q)
    for e, r in zip(frame, reference, strict=True):
        assert e.coords.tobytes() == r.coords.tobytes()
    assert all(e.coords.base is None for e in frame)  # each element owns its coordinates


def test_frame_from_orthogonal_checks_the_shape():
    with pytest.raises(ValueError, match=r"\(3, 2\) does not match sym:3"):
        frame_from_orthogonal(SYM3, np.ones((3, 2)))
    with pytest.raises(ValueError, match="only for sym"):
        frame_from_orthogonal(RN3, np.eye(3))


@pytest.mark.parametrize("stack_floats", [1, 300, 1 << 18])
def test_validate_in_stacks_of_any_size_matches_the_pairwise_loop(monkeypatch, stack_floats):
    monkeypatch.setattr(jordan_algebra, "_STACK_FLOATS", stack_floats)
    rng = np.random.default_rng(11)
    for algebra in (Algebra("rn", 1), Algebra("rn", 7), sym_algebra(1), sym_algebra(5), sym_algebra(12)):
        frames = [random_frame(algebra, rng), _junk_frame(algebra, rng)]
        if algebra.rank >= 3:
            frames.append(_frame_off_at_the_end(algebra, rng))
            assert 1e-4 < reference_validate(frames[-1], np.inf) < 1e-2
        for frame in frames:
            with np.errstate(all="ignore"):
                _validate_as_the_loop(frame)


def test_validate_at_the_largest_rank_runs_in_stacks_and_matches_the_loop():
    frame = random_frame(sym_algebra(MAX_RANK), np.random.default_rng(3))
    assert frame.validate(tol=1e-9).hex() == reference_validate(frame, 1e-9).hex()


def test_validate_makes_no_jordan_product_call(monkeypatch):
    frame = random_frame(sym_algebra(10), np.random.default_rng(0))
    calls = count_calls(monkeypatch, jordan_product)
    frame.validate(tol=1e-9)
    random_frame(Algebra("rn", 10), np.random.default_rng(0)).validate()
    assert calls == []
    reference_validate(frame, 1e-9)  # one per pair i <= j
    assert len(calls) == 55


def test_element_from_eigenvalues_checks_length():
    with pytest.raises(ValueError):
        element_from_eigenvalues(standard_frame(SYM2), [1.0])

