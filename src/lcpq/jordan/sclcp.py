"""Symmetric-cone LCP checks: embedding exact matrix-LCP solutions along a
frame, verifying cone solutions, classifying rank-one transforms for the
Q-property, and sampling-based falsifiers.

A rank-one transform given by exact eigenvalues along one frame is decided
by their signs (classify_rank_one_exact); classify_rank_one_q reads the
eigenvalues back from float elements, so it leaves a tolerance band open.

The complementarity problem for a transform L and element q asks for x in
the cone with y := L(x) + q in the cone and <x, y> = 0.  Verification is
numeric with explicit tolerances; the underlying matrix LCP is solved in
exact rational arithmetic first, so the only float error is the embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from ..classes import NO, UNDECIDED, YES, Verdict
from ..lcp import LcpInstance, solve_lcp
from ..matrices import RationalMatrix
from .algebra import (
    DEFAULT_TOL,
    JordanElement,
    JordanFrame,
    _same_algebra,
    eigenvalues_of,
    jordan_product,
    random_element,
    trace_inner_product,
)
from .transforms import LinearTransform, hat_transform, hat_vector


@dataclass(frozen=True)
class ScLcpSolutionCheck:
    """Diagnostics for a candidate cone solution x with y = L(x) + q."""

    x: JordanElement
    y: JordanElement
    x_min_eigenvalue: float
    y_min_eigenvalue: float
    inner_product: float
    tol: float
    passed: bool

    def to_json_obj(self) -> dict:
        return {
            "x_min_eigenvalue": self.x_min_eigenvalue,
            "y_min_eigenvalue": self.y_min_eigenvalue,
            "inner_product": self.inner_product,
            "tol": self.tol,
            "pass": self.passed,
        }


def verify_sc_solution(
    transform: LinearTransform,
    q: JordanElement,
    x: JordanElement,
    tol: float = DEFAULT_TOL,
) -> ScLcpSolutionCheck:
    """Check x >= 0, L(x) + q >= 0 and <x, L(x)+q> = 0 within tol."""
    y = transform.apply(x) + q
    x_min = float(eigenvalues_of(x).min())
    y_min = float(eigenvalues_of(y).min())
    inner = trace_inner_product(x, y)
    passed = x_min >= -tol and y_min >= -tol and abs(inner) <= tol
    return ScLcpSolutionCheck(x, y, x_min, y_min, inner, tol, passed)


@dataclass(frozen=True)
class EmbedOutcome:
    """Result of embedding a matrix LCP along a frame.

    status "embedded": a solution r was found exactly and its frame-diagonal
    image passed verification (check holds the record, r the rational
    solution).  status "unsolvable": the matrix LCP has no solution, which
    certifies that LCP(hat A, hat q) has no cone solution at all, not only
    no frame-diagonal one: for a cone solution x, the frame coordinates
    [x] are >= 0 (each e_i is in the cone), A[x] + q >= 0 (y = hat(A[x] +
    q) is in the cone) and [x]^T (A[x] + q) = <x, y> = 0, so [x] solves
    LCP(A, q).
    """

    status: str
    check: Optional[ScLcpSolutionCheck]
    r: Optional[Tuple[Fraction, ...]]

    @property
    def passed(self) -> bool:
        return self.status == "unsolvable" or (
            self.check is not None and self.check.passed
        )


def embed_solve(
    matrix: RationalMatrix,
    q: Sequence,
    frame: JordanFrame,
    tol: float = DEFAULT_TOL,
) -> EmbedOutcome:
    """Solve LCP(matrix, q) exactly, then verify the hat embedding of the
    first solution against the embedded transform at the given frame."""
    if matrix.n != len(frame):
        raise ValueError("matrix order %d does not match frame rank %d" % (matrix.n, len(frame)))
    instance = LcpInstance(matrix, q)
    solutions = solve_lcp(instance)
    if not solutions:
        return EmbedOutcome("unsolvable", None, None)
    r = solutions[0].x
    transform = hat_transform(matrix, frame)
    x_hat = hat_vector([float(v) for v in r], frame)
    q_hat = hat_vector([float(v) for v in instance.q], frame)
    check = verify_sc_solution(transform, q_hat, x_hat, tol)
    return EmbedOutcome("embedded", check, tuple(r))


def classify_rank_one_q(
    a: JordanElement, b: JordanElement, tol: float = DEFAULT_TOL
) -> Verdict:
    """Q-property of x -> <b, x> a, decided by eigenvalue signs.

    Yes when both factors are interior to the cone, or both interior to its
    negative.  No when the signs decisively rule out both orientations.
    Eigenvalues inside the tolerance band leave the question open."""
    data = _eigenvalue_extremes(a, b)
    a_min, a_max, b_min, b_max = data["a_min"], data["a_max"], data["b_min"], data["b_max"]
    return _eigensign_verdict(
        a_min > tol and b_min > tol,
        a_max < -tol and b_max < -tol,
        (a_min < -tol or b_min < -tol) and (a_max > tol or b_max > tol),
        data,
    )


def classify_rank_one_exact(
    alpha: Sequence[Fraction], beta: Sequence[Fraction], a: JordanElement, b: JordanElement
) -> Verdict:
    """Q-property of x -> <b, x> a for a = sum alpha_i e_i and b = sum
    beta_i e_i along one frame, decided by the exact signs of alpha and
    beta, the eigenvalues of a and b.  By the paper's rank-one theorem the
    map has Q iff a and b are both interior to the cone (every alpha_i and
    beta_i > 0) or both interior to its negative, so the answer is yes or
    no, never undecided.  The data are the float eigenvalue extremes of the
    elements a and b, as classify_rank_one_q reports them."""
    data = _eigenvalue_extremes(a, b)
    return _eigensign_verdict(
        min(alpha) > 0 and min(beta) > 0, max(alpha) < 0 and max(beta) < 0, True, data
    )


def _eigenvalue_extremes(a: JordanElement, b: JordanElement) -> dict:
    _same_algebra(a, b)
    a_eigs = eigenvalues_of(a)
    b_eigs = eigenvalues_of(b)
    return {
        "a_min": float(a_eigs.min()),
        "a_max": float(a_eigs.max()),
        "b_min": float(b_eigs.min()),
        "b_max": float(b_eigs.max()),
    }


def _eigensign_verdict(positive: bool, negative: bool, decided: bool, data: dict) -> Verdict:
    """The rank-one-eigensign verdict: yes if both factors are interior to
    the cone (positive) or to its negative (negative), else no if decided,
    else undecided."""
    if positive:
        return Verdict(YES, "rank-one-eigensign", "both factors interior to the cone", data)
    if negative:
        return Verdict(
            YES, "rank-one-eigensign", "both factors interior to the negated cone", data
        )
    if decided:
        return Verdict(
            NO,
            "rank-one-eigensign",
            "eigenvalue signs rule out both cone orientations",
            data,
        )
    return Verdict(
        UNDECIDED,
        "rank-one-eigensign",
        "an eigenvalue sits inside the tolerance band",
        data,
    )


@dataclass(frozen=True)
class SamplingReport:
    """Outcome of a randomized falsification search.

    found marks a witness; value is the witnessing quantity when found,
    otherwise the minimum observed over all samples.  Absence of a witness
    is one-sided evidence only, never a certificate.
    """

    found: bool
    witness: Optional[JordanElement]
    value: float
    samples_used: int
    note: str

    def to_json_obj(self) -> dict:
        return {
            "violation": self.found,
            "value": self.value,
            "samples": self.samples_used,
            "note": self.note,
        }


_EVIDENCE_NOTE = "sampled evidence only; absence of a violation is not a certificate"


def sample_positivity_violation(
    transform: LinearTransform,
    samples: int = 1000,
    rng_seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> SamplingReport:
    """Search normalized cone elements z = y o y / |y o y| for one mapped
    outside the cone: stop at the first z whose L(z) has min eigenvalue
    below -tol, reporting it, or after samples of them, reporting the least
    min eigenvalue seen."""
    rng = np.random.default_rng(rng_seed)
    worst = np.inf
    used = 0
    while used < samples:
        y = random_element(transform.algebra, rng)
        z = jordan_product(y, y)
        norm = z.norm()
        if norm < 1e-12:
            continue
        z = z * (1.0 / norm)
        used += 1
        value = float(eigenvalues_of(transform.apply(z)).min())
        worst = min(worst, value)
        if value < -tol:
            return SamplingReport(True, z, value, used, _EVIDENCE_NOTE)
    return SamplingReport(False, None, float(worst), used, _EVIDENCE_NOTE)
