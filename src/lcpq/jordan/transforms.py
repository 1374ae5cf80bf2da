"""Linear transformations on a Jordan algebra: multiplication operators,
frame embeddings of square matrices, Peirce projections and rank-one maps.

Every transform is a dense matrix acting on ambient coordinates, so
composition, adjoints and pointwise comparison are plain numpy operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..matrices import RationalMatrix
from .algebra import (
    Algebra,
    JordanElement,
    JordanFrame,
    _same_algebra,
    element_from_eigenvalues,
    jordan_product,
    trace_inner_product,
)


@dataclass(frozen=True)
class LinearTransform:
    algebra: Algebra
    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        dim = self.algebra.dim
        if matrix.shape != (dim, dim):
            raise ValueError(
                "matrix shape %r does not match algebra dim %d" % (matrix.shape, dim)
            )
        object.__setattr__(self, "matrix", matrix)

    def apply(self, x: JordanElement) -> JordanElement:
        if x.algebra != self.algebra:
            raise ValueError("element lives in a different algebra")
        return JordanElement(self.algebra, self.matrix @ x.coords)


def mult_operator(c: JordanElement) -> LinearTransform:
    """Multiplication operator L(c): x -> c o x, assembled column by column."""
    algebra = c.algebra
    dim = algebra.dim
    out = np.zeros((dim, dim))
    for k in range(dim):
        coords = np.zeros(dim)
        coords[k] = 1.0
        out[:, k] = jordan_product(c, JordanElement(algebra, coords)).coords
    return LinearTransform(algebra, out)


def hat_vector(r, frame: JordanFrame) -> JordanElement:
    """Coordinate vector into the span of the frame: sum of r_i e_i."""
    r = np.asarray(r, dtype=float)
    if r.shape != (len(frame),):
        raise ValueError("vector length %d does not match frame rank %d" % (r.size, len(frame)))
    return element_from_eigenvalues(frame, r)


def bracket(x: JordanElement, frame: JordanFrame) -> np.ndarray:
    """Frame coordinates of x: the vector of inner products with the e_i."""
    if x.algebra != frame.algebra:
        raise ValueError("element lives in a different algebra")
    return np.array([trace_inner_product(x, e) for e in frame])


def _as_float_array(matrix, rank: int) -> np.ndarray:
    if isinstance(matrix, RationalMatrix):
        # int / int rounds once, as float(Fraction) does (numpy: twice).
        scale, ints = matrix.integer_rows()
        arr = np.array([[v / scale for v in row] for row in ints])
    else:
        arr = np.asarray(matrix, dtype=float)
    if arr.shape != (rank, rank):
        raise ValueError("matrix shape %r does not match frame rank %d" % (arr.shape, rank))
    return arr


def hat_transform(matrix, frame: JordanFrame) -> LinearTransform:
    """Embed an n x n matrix along a frame: x -> hat(A [x]).

    Acts as A on frame coordinates and annihilates the off-diagonal Peirce
    components (they are orthogonal to every frame element).
    """
    a = _as_float_array(matrix, len(frame))
    e = np.column_stack([f.coords for f in frame])
    return LinearTransform(frame.algebra, e @ a @ e.T)


def peirce_projection(frame: JordanFrame, i: int, j: int) -> LinearTransform:
    """Projection onto the (i, j) Peirce space of the frame, 0-based.

    Diagonal (i == j): 2 L_i^2 - L_i projects onto the line through e_i.
    Off-diagonal (i != j): 4 L_i L_j.
    """
    li = mult_operator(frame[i])
    if i == j:
        return LinearTransform(frame.algebra, 2.0 * (li.matrix @ li.matrix) - li.matrix)
    lj = mult_operator(frame[j])
    return LinearTransform(frame.algebra, 4.0 * (li.matrix @ lj.matrix))


def peirce_decompose(
    x: JordanElement, frame: JordanFrame
) -> Tuple[np.ndarray, Dict[Tuple[int, int], JordanElement]]:
    """Split x along the frame: diagonal coordinates plus off parts x_{ij}.

    Returns (diagonal, off_parts) with 0-based keys i < j; x reconstructs as
    sum of diagonal[i] e_i plus all off parts.
    """
    if x.algebra != frame.algebra:
        raise ValueError("element lives in a different algebra")
    frame.validate(tol=1e-7)
    diagonal = bracket(x, frame)
    off_parts: Dict[Tuple[int, int], JordanElement] = {}
    for i in range(len(frame)):
        for j in range(i + 1, len(frame)):
            off_parts[(i, j)] = peirce_projection(frame, i, j).apply(x)
    return diagonal, off_parts


def rank_one(a: JordanElement, b: JordanElement) -> LinearTransform:
    """x -> <b, x> a."""
    _same_algebra(a, b)
    return LinearTransform(a.algebra, np.outer(a.coords, b.coords))

