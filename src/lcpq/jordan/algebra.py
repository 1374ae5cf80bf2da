"""Euclidean Jordan algebra elements, frames and spectral calculus.

Elements are stored as coordinate vectors in a fixed orthonormal basis of
the algebra.  For R^n that is the standard basis; for symmetric m x m
matrices the basis lists the diagonal units E_ii first, then the
off-diagonal units (E_ij + E_ji)/sqrt(2) in lexicographic (i, j) order,
i < j.  The trace inner product is then the plain dot product of
coordinates in both algebras.

The maps between sym coordinates and matrices (svec and its inverse) are
index arrays: the diagonal through np.arange(m) and the off-diagonal units
through np.triu_indices(m, 1), which lists the pairs i < j in that
lexicographic order.  They are built once per order m and are read-only,
and they also map a whole stack of elements at once (_sym_matrices, _svec).

A frame is built and checked on such stacks: frame_from_orthogonal forms
every q_i q_i^T in one product and maps them in one svec, and
JordanFrame.validate forms e_i o e_j for every pair i <= j in stacked
matrix products (_stacked_products), not one jordan_product per pair.
Each entry goes through the same float operations as in jordan_product,
so the residuals are bit for bit the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

DEFAULT_TOL = 1e-9

# The largest rank an Algebra may have.  An operator on sym:m holds
# (m(m+1)/2)^2 floats, so sym:64 already takes about 75 MB and a second per
# identities sample, and sym:3000 would not fit in memory.
MAX_RANK = 64

# JordanFrame.validate multiplies its pairs in stacks of at most this many
# floats per m x m matrix stack: at sym:64 a stack holds 64 pairs (2 MB), where
# all 2,080 pairs at once would hold 68 MB per stack.
_STACK_FLOATS = 1 << 18


@dataclass(frozen=True)
class Algebra:
    """Algebra descriptor: kind "rn" (componentwise) or "sym" (symmetric
    matrices under the symmetrised product)."""

    kind: str
    size: int  # n for rn, m for sym

    def __post_init__(self):
        if self.kind not in ("rn", "sym"):
            raise ValueError("kind must be 'rn' or 'sym'")
        if self.size < 1:
            raise ValueError("size must be positive")
        if self.size > MAX_RANK:
            raise ValueError("rank %d is above the maximum %d" % (self.size, MAX_RANK))

    @property
    def rank(self) -> int:
        return self.size

    @property
    def dim(self) -> int:
        if self.kind == "rn":
            return self.size
        return self.size * (self.size + 1) // 2


def sym_algebra(m: int) -> Algebra:
    return Algebra("sym", m)


def parse_algebra(text: str) -> Algebra:
    kind, _, size = text.partition(":")
    return Algebra(kind, int(size))


@dataclass(frozen=True)
class JordanElement:
    algebra: Algebra
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.shape != (self.algebra.dim,):
            raise ValueError(
                "coords shape %r does not match algebra dim %d"
                % (coords.shape, self.algebra.dim)
            )
        object.__setattr__(self, "coords", coords)

    def to_matrix(self) -> np.ndarray:
        """Symmetric-matrix form (sym algebra only)."""
        if self.algebra.kind != "sym":
            raise ValueError("matrix form only exists for the sym algebra")
        m = self.algebra.size
        diag, rows, cols = _svec_indices(m)
        out = np.zeros((m, m))
        out[diag, diag] = self.coords[:m]
        off = self.coords[m:] / np.sqrt(2.0)
        out[rows, cols] = off
        out[cols, rows] = off
        return out

    def __add__(self, other: "JordanElement") -> "JordanElement":
        _same_algebra(self, other)
        return JordanElement(self.algebra, self.coords + other.coords)

    def __sub__(self, other: "JordanElement") -> "JordanElement":
        _same_algebra(self, other)
        return JordanElement(self.algebra, self.coords - other.coords)

    def __mul__(self, scalar: float) -> "JordanElement":
        return JordanElement(self.algebra, self.coords * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "JordanElement":
        return JordanElement(self.algebra, -self.coords)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


@lru_cache(maxsize=None)
def _svec_indices(m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (diag, rows, cols) for sym:m: coordinate i < m is entry
    (diag[i], diag[i]), coordinate m + k is entry (rows[k], cols[k])."""
    diag = np.arange(m)
    rows, cols = np.triu_indices(m, 1)
    for index in (diag, rows, cols):
        index.setflags(write=False)
    return diag, rows, cols


# The stacked forms of JordanElement.to_matrix and element_from_matrix,
# with the same float operations.  Those two keep their own unstacked
# indexing: every jordan_product runs them, and a stack axis would cost
# it about a tenth of its time.


def _sym_matrices(m: int, coords: np.ndarray) -> np.ndarray:
    """The symmetric matrices of a k x dim stack of sym:m coordinates, k x m x m."""
    diag, rows, cols = _svec_indices(m)
    out = np.zeros((len(coords), m, m))
    out[:, diag, diag] = coords[:, :m]
    off = coords[:, m:] / np.sqrt(2.0)
    out[:, rows, cols] = off
    out[:, cols, rows] = off
    return out


def _svec(m: int, mats: np.ndarray) -> np.ndarray:
    """The sym:m coordinates of a k x m x m stack, read from each diagonal
    and upper triangle, k x dim."""
    diag, rows, cols = _svec_indices(m)
    coords = np.empty((len(mats), m * (m + 1) // 2))
    coords[:, :m] = mats[:, diag, diag]
    coords[:, m:] = mats[:, rows, cols] * np.sqrt(2.0)
    return coords


def _stacked_products(algebra: Algebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row k is the coordinates of x_k o y_k, for k x dim coordinate
    arrays x and y: jordan_product's float operations on a whole stack."""
    if algebra.kind == "rn":
        return x * y
    m = algebra.size
    mx, my = _sym_matrices(m, x), _sym_matrices(m, y)
    return _svec(m, (mx @ my + my @ mx) / 2.0)


def _same_algebra(a: JordanElement, b: JordanElement) -> None:
    if a.algebra != b.algebra:
        raise ValueError("elements live in different algebras")


def element_from_matrix(algebra: Algebra, mat: np.ndarray) -> JordanElement:
    if algebra.kind != "sym":
        raise ValueError("matrix form only exists for the sym algebra")
    m = algebra.size
    diag, rows, cols = _svec_indices(m)
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (m, m):
        raise ValueError(
            "matrix shape %r does not match sym:%d, which needs %r" % (mat.shape, m, (m, m))
        )
    coords = np.empty(algebra.dim)
    coords[:m] = mat[diag, diag]
    coords[m:] = mat[rows, cols] * np.sqrt(2.0)
    return JordanElement(algebra, coords)


def identity_element(algebra: Algebra) -> JordanElement:
    if algebra.kind == "rn":
        return JordanElement(algebra, np.ones(algebra.dim))
    coords = np.zeros(algebra.dim)
    coords[: algebra.size] = 1.0
    return JordanElement(algebra, coords)


def jordan_product(x: JordanElement, y: JordanElement) -> JordanElement:
    """x o y: componentwise for rn, (XY + YX)/2 for sym."""
    _same_algebra(x, y)
    if x.algebra.kind == "rn":
        return JordanElement(x.algebra, x.coords * y.coords)
    mx, my = x.to_matrix(), y.to_matrix()
    return element_from_matrix(x.algebra, (mx @ my + my @ mx) / 2.0)


def trace_inner_product(x: JordanElement, y: JordanElement) -> float:
    """<x, y>: sum of products for rn, trace(XY) for sym; equals the
    coordinate dot product because the basis is orthonormal."""
    _same_algebra(x, y)
    return float(np.dot(x.coords, y.coords))


@dataclass(frozen=True)
class JordanFrame:
    """Complete system of orthogonal primitive idempotents e_1..e_rank."""

    algebra: Algebra
    elements: tuple

    def __post_init__(self):
        if len(self.elements) != self.algebra.rank:
            raise ValueError("frame must have exactly rank elements")

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i: int) -> JordanElement:
        return self.elements[i]

    def validate(self, tol: float = DEFAULT_TOL) -> float:
        """Max residual over idempotency, orthogonality, unit traces and
        the completeness sum; raises ValueError above tol.

        e_i o e_j for every pair i <= j comes from stacked products, at
        most _STACK_FLOATS floats per matrix stack.  A residual that is
        nan makes the max nan, which passes no tol, not even inf: a frame
        with a nan coordinate is no frame."""
        if any(e.algebra != self.algebra for e in self.elements):
            raise ValueError("elements live in different algebras")
        coords = np.array([e.coords for e in self.elements])
        first, second = np.triu_indices(len(coords))
        size = self.algebra.size
        step = max(1, _STACK_FLOATS // (size * size))
        worst = 0.0
        for start in range(0, len(first), step):
            i, j = first[start : start + step], second[start : start + step]
            residual = _stacked_products(self.algebra, coords[i], coords[j])
            same = i == j
            residual[same] -= coords[i[same]]  # e_i o e_i - e_i
            worst = float(np.max(np.abs(residual), initial=worst))
        terms = [abs(trace_inner_product(e, e) - 1.0) for e in self.elements]
        total = element_from_eigenvalues(self, np.ones(len(self)))
        terms.append(_max_abs(total - identity_element(self.algebra)))
        # np.max, unlike the builtin max, carries a nan through.
        worst = float(np.max(terms, initial=worst))
        if not worst <= tol:
            raise ValueError("frame residual %.3e exceeds tolerance %.3e" % (worst, tol))
        return worst


def _max_abs(x: JordanElement) -> float:
    return float(np.max(np.abs(x.coords))) if x.coords.size else 0.0


def standard_frame(algebra: Algebra) -> JordanFrame:
    """Coordinate frame: standard basis vectors (rn) or E_ii units (sym)."""
    elements = []
    for i in range(algebra.rank):
        coords = np.zeros(algebra.dim)
        coords[i] = 1.0
        elements.append(JordanElement(algebra, coords))
    return JordanFrame(algebra, tuple(elements))


def frame_from_orthogonal(algebra: Algebra, q: np.ndarray) -> JordanFrame:
    """Frame e_i = q_i q_i^T from the columns of an orthogonal matrix (sym)."""
    if algebra.kind != "sym":
        raise ValueError("orthogonal-conjugated frames exist only for sym")
    m = algebra.size
    q = np.asarray(q, dtype=float)
    if q.shape != (m, m):
        raise ValueError(
            "orthogonal matrix shape %r does not match sym:%d, which needs %r" % (q.shape, m, (m, m))
        )
    coords = _svec(m, np.einsum("ai,bi->iab", q, q))
    return JordanFrame(algebra, tuple(JordanElement(algebra, row.copy()) for row in coords))


def random_frame(algebra: Algebra, rng: np.random.Generator) -> JordanFrame:
    """Random frame: rotated by a Haar-ish orthogonal matrix for sym; for rn
    the only frames are permutations of the standard one."""
    if algebra.kind == "rn":
        perm = rng.permutation(algebra.size)
        base = standard_frame(algebra)
        return JordanFrame(algebra, tuple(base[i] for i in perm))
    gauss = rng.standard_normal((algebra.size, algebra.size))
    q, r = np.linalg.qr(gauss)
    q = q @ np.diag(np.sign(np.diag(r)))
    return frame_from_orthogonal(algebra, q)


def spectral_decomposition(x: JordanElement) -> Tuple[np.ndarray, JordanFrame]:
    """Eigenvalues (ascending) and a Jordan frame with x = sum lam_i e_i."""
    algebra = x.algebra
    if algebra.kind == "rn":
        order = np.argsort(x.coords, kind="stable")
        eigenvalues = x.coords[order]
        base = standard_frame(algebra)
        frame = JordanFrame(algebra, tuple(base[i] for i in order))
        return eigenvalues, frame
    eigenvalues, vectors = np.linalg.eigh(x.to_matrix())
    frame = frame_from_orthogonal(algebra, vectors)
    return eigenvalues, frame


def eigenvalues_of(x: JordanElement) -> np.ndarray:
    if x.algebra.kind == "rn":
        return np.sort(x.coords)
    return np.linalg.eigvalsh(x.to_matrix())


def element_from_eigenvalues(
    frame: JordanFrame, eigenvalues: Sequence[float]
) -> JordanElement:
    """sum of lam_i e_i over the frame (hat_vector is this sum too),
    accumulated from +0.0, so a coordinate that sums to zero is +0.0."""
    if len(eigenvalues) != len(frame):
        raise ValueError("need one eigenvalue per frame element")
    coords = np.zeros(frame.algebra.dim)
    for lam, e in zip(eigenvalues, frame):
        coords += float(lam) * e.coords
    return JordanElement(frame.algebra, coords)


def random_element(algebra: Algebra, rng: np.random.Generator) -> JordanElement:
    return JordanElement(algebra, rng.standard_normal(algebra.dim))

