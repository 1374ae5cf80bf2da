"""Euclidean Jordan algebra elements, frames and spectral calculus.

Elements are stored as coordinate vectors in a fixed orthonormal basis of
the algebra.  For R^n that is the standard basis; for symmetric m x m
matrices the basis lists the diagonal units E_ii first, then the
off-diagonal units (E_ij + E_ji)/sqrt(2) in lexicographic (i, j) order,
i < j.  The trace inner product is then the plain dot product of
coordinates in both algebras.

The maps between sym coordinates and matrices (svec and its inverse) are
index arrays: the diagonal through np.arange(m) and the off-diagonal units
through np.triu_indices(m, 1), whose order is off_diagonal_pairs().  They
are built once per order m and are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

DEFAULT_TOL = 1e-9

# The largest rank an Algebra may have.  An operator on sym:m holds
# (m(m+1)/2)^2 floats, so sym:64 already takes about 75 MB and a second per
# identities sample, and sym:3000 would not fit in memory.
MAX_RANK = 64


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

    def off_diagonal_pairs(self) -> List[Tuple[int, int]]:
        return [(i, j) for i in range(self.size) for j in range(i + 1, self.size)]


def rn_algebra(n: int) -> Algebra:
    return Algebra("rn", n)


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


def _same_algebra(a: JordanElement, b: JordanElement) -> None:
    if a.algebra != b.algebra:
        raise ValueError("elements live in different algebras")


def element_from_coords(algebra: Algebra, coords) -> JordanElement:
    return JordanElement(algebra, np.asarray(coords, dtype=float))


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
        the completeness sum; raises ValueError above tol."""
        worst = 0.0
        for i, e in enumerate(self.elements):
            worst = max(worst, _max_abs(jordan_product(e, e) - e))
            worst = max(worst, abs(trace_inner_product(e, e) - 1.0))
            for j in range(i + 1, len(self.elements)):
                worst = max(
                    worst, _max_abs(jordan_product(e, self.elements[j]))
                )
        total = element_from_eigenvalues(self, np.ones(len(self)))
        worst = max(worst, _max_abs(total - identity_element(self.algebra)))
        if worst > tol:
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
    elements = tuple(
        element_from_matrix(algebra, np.outer(q[:, i], q[:, i]))
        for i in range(algebra.size)
    )
    return JordanFrame(algebra, elements)


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


def in_cone(x: JordanElement, tol: float = DEFAULT_TOL) -> bool:
    """Membership in the cone of squares: all eigenvalues >= -tol."""
    return bool(eigenvalues_of(x).min() >= -tol)


def in_interior(x: JordanElement, tol: float = DEFAULT_TOL) -> bool:
    """Interior membership: all eigenvalues > tol."""
    return bool(eigenvalues_of(x).min() > tol)


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


def _spectral_map(x: JordanElement, func, precondition=None) -> JordanElement:
    eigenvalues, frame = spectral_decomposition(x)
    if precondition is not None:
        precondition(eigenvalues)
    return element_from_eigenvalues(frame, [func(lam) for lam in eigenvalues])


def sqrt_element(x: JordanElement, tol: float = DEFAULT_TOL) -> JordanElement:
    def check(eigenvalues):
        if eigenvalues.min() < -tol:
            raise ValueError(
                "sqrt needs eigenvalues >= 0; min is %.3e" % eigenvalues.min()
            )

    return _spectral_map(x, lambda lam: float(np.sqrt(max(lam, 0.0))), check)


def inverse_element(x: JordanElement, tol: float = DEFAULT_TOL) -> JordanElement:
    def check(eigenvalues):
        if np.min(np.abs(eigenvalues)) <= tol:
            raise ValueError(
                "inverse needs eigenvalues bounded away from 0; min |lam| is %.3e"
                % np.min(np.abs(eigenvalues))
            )

    return _spectral_map(x, lambda lam: 1.0 / lam, check)


def random_element(algebra: Algebra, rng: np.random.Generator) -> JordanElement:
    return JordanElement(algebra, rng.standard_normal(algebra.dim))


def random_cone_element(algebra: Algebra, rng: np.random.Generator) -> JordanElement:
    """Random element of the cone of squares (y o y for Gaussian y)."""
    y = random_element(algebra, rng)
    return jordan_product(y, y)
