"""Exact LCP solving by complementary-support enumeration, plus LCP degree.

LCP(A, q): find x >= 0 with w = Ax + q >= 0 and x . w = 0.  Every solution
is recovered by enumerating the 2^n candidate supports, so the order is
capped (default 16, override with the LCP_ENUM_CAP environment variable).

SupportKernel owns that enumeration.  Nonsingular supports are solved by
exact integer fraction-free elimination (see kernel); Fraction values are
built only at the boundaries, for the solutions returned, and on singular
supports, which keep the rational solve_linear / simplex path.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .errors import DegreeSamplingError, EnumerationCapError
from .kernel import clear_denominators, eliminate
from .matrices import RationalMatrix, determinant, solve_linear, vec_to_fractions
from .simplex import FeasibilitySystem, solve_feasibility

DEFAULT_ENUM_CAP = 16
DEGREE_DRAW_BUDGET = 64


def enumeration_cap() -> int:
    value = os.environ.get("LCP_ENUM_CAP")
    if value is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(value)
    except ValueError:
        return DEFAULT_ENUM_CAP
    return cap if cap >= 1 else DEFAULT_ENUM_CAP


def check_cap(n: int) -> None:
    cap = enumeration_cap()
    if n > cap:
        raise EnumerationCapError(
            "order %d exceeds the support-enumeration cap %d" % (n, cap)
        )


@dataclass(frozen=True)
class LcpInstance:
    matrix: RationalMatrix
    q: tuple

    def __init__(self, matrix: RationalMatrix, q: Sequence):
        qf = tuple(vec_to_fractions(q))
        if len(qf) != matrix.n:
            raise ValueError("q length %d does not match order %d" % (len(qf), matrix.n))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "q", qf)


@dataclass(frozen=True)
class LcpSolution:
    """One solution x of LCP(A, q).

    support is the true support {i : x_i > 0} (1-based indices);
    support_det_sign is the sign of det A restricted to that support (+1 for
    the empty support); a zero sign marks a singular supporting block, which
    is how representatives of affine solution families are recognised.
    nondegenerate means x + Ax + q > 0 componentwise, exactly.
    """

    x: tuple
    support: tuple
    nondegenerate: bool
    support_det_sign: int


def _sign(v) -> int:
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def embed(n: int, idx: Sequence[int], values: Sequence[Fraction]) -> list:
    """Length-n vector with values at the 0-based positions idx, zero elsewhere."""
    x = [Fraction(0)] * n
    for pos, i in enumerate(idx):
        x[i] = values[pos]
    return x


def supports(n: int):
    """(mask, idx, comp) for every support in bitmask order, the empty one
    first: idx lists the 0-based indices in mask, comp the others."""
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        comp = [j for j in range(n) if not mask >> j & 1]
        yield mask, idx, comp


class SupportKernel:
    """Support enumeration for one matrix, with memoised principal-minor signs.

    The class predicates read sgn det A_II through minor_sign.  LCP(A, q)
    solves each nonsingular support by fraction-free elimination on the
    integer form of [A | q] (see kernel) and records the minor signs it
    meets.  q_oracle passes one kernel to all its channels, so no principal
    minor is computed twice in an oracle call.  Constructing a kernel
    enforces the enumeration cap.
    """

    def __init__(self, matrix: RationalMatrix):
        check_cap(matrix.n)
        self.matrix = matrix
        self._signs = {0: 1}  # mask -> sgn det A_II; the empty minor is 1

    def supports(self):
        return supports(self.matrix.n)

    def minor_sign(self, mask: int, idx: Sequence[int]) -> int:
        sign = self._signs.get(mask)
        if sign is None:
            # matrices.determinant is fraction-free too; going through it
            # keeps one determinant routine, which perfbench's trace counts.
            sign = _sign(determinant(self.matrix.principal_submatrix(idx)))
            self._signs[mask] = sign
        return sign

    def integer_system(self, q: Sequence) -> List[List[int]]:
        """Rows of [A | q], each scaled by the lcm of its denominators."""
        return [clear_denominators(row + (qi,))[1] for row, qi in zip(self.matrix.rows, q)]

    def solve(self, rows: List[List[int]], mask: int, idx: Sequence[int]):
        """Solve A_II x_I = -q_I on rows = integer_system(q).

        Returns (d, y) with d > 0 and x_I = y / d, or None when A_II is
        singular.
        """
        if self._signs.get(mask) == 0:
            return None
        work = [[rows[i][j] for j in idx] + [-rows[i][-1]] for i in idx]
        det = eliminate(work, len(idx))
        self._signs[mask] = _sign(det)
        if det == 0:
            return None
        if det < 0:
            return -det, [-row[-1] for row in work]
        return det, [row[-1] for row in work]

    @staticmethod
    def slack(rows: List[List[int]], j: int, idx: Sequence[int], d: int, y: Sequence[int]) -> int:
        """An integer with the sign of w_j = (Ax + q)_j at x_I = y / d."""
        row = rows[j]
        return sum(row[i] * v for i, v in zip(idx, y)) + d * row[-1]


def _family_point(matrix: RationalMatrix, q: Sequence, idx: List[int], comp: List[int]):
    """For a singular A_II: a point x >= 0 on support idx with (Ax+q)_idx = 0
    and (Ax+q)_comp >= 0, found by exact LP, or None.  Any such x represents
    an affine family of solutions."""
    sub = matrix.principal_submatrix(idx)
    status, _ = solve_linear(sub, [-q[i] for i in idx])
    if status == "inconsistent":
        return None
    system = FeasibilitySystem(len(idx))
    for pos_r, i in enumerate(idx):
        system.add_eq(sub.rows[pos_r], -q[i])
    for j in comp:
        system.add_ge([matrix.rows[j][i] for i in idx], -q[j])
    point = solve_feasibility(system)
    if point is None:
        return None
    return embed(matrix.n, idx, point)


def _solution(kernel: SupportKernel, q: Sequence, x: tuple) -> LcpSolution:
    matrix = kernel.matrix
    n = matrix.n
    w = [wi + qi for wi, qi in zip(matrix.matvec(x), q)]
    idx = [i for i in range(n) if x[i] > 0]
    det_sign = kernel.minor_sign(sum(1 << i for i in idx), idx)
    nondeg = all(x[i] + w[i] > 0 for i in range(n))
    return LcpSolution(x, tuple(i + 1 for i in idx), nondeg, det_sign)


def solve_lcp(inst: LcpInstance, kernel: Optional[SupportKernel] = None) -> List[LcpSolution]:
    """All solutions of LCP(A, q), one representative per affine family.

    Deterministic: supports are enumerated in bitmask order and duplicate
    solution vectors are kept once (first occurrence wins).  kernel, a
    SupportKernel of the same matrix, shares its minor memo across calls.
    """
    matrix, q = inst.matrix, inst.q
    if kernel is None:
        kernel = SupportKernel(matrix)
    rows = kernel.integer_system(q)
    seen = {}
    for mask, idx, comp in kernel.supports():
        solved = kernel.solve(rows, mask, idx)
        if solved is None:
            x = _family_point(matrix, q, idx, comp)
            if x is None:
                continue
        else:
            d, y = solved
            if any(v < 0 for v in y):
                continue
            if any(kernel.slack(rows, j, idx, d, y) < 0 for j in comp):
                continue
            x = embed(matrix.n, idx, [Fraction(v, d) for v in y])
        key = tuple(x)
        if key not in seen:
            seen[key] = _solution(kernel, q, key)
    return list(seen.values())


def is_solvable(matrix: RationalMatrix, q: Sequence) -> bool:
    return bool(solve_lcp(LcpInstance(matrix, q)))


def _generic_degree(kernel: SupportKernel, q: Sequence[int]) -> Optional[int]:
    """Sum of sgn det A_II over the solutions of LCP(A, q).

    None when q must be resampled: a singular-but-consistent support
    system, or an exact zero in a candidate's x_I or complementary slack.
    Only signs are needed, so no Fraction is built.
    """
    rows = kernel.integer_system(q)
    total = 0
    for mask, idx, comp in kernel.supports():
        solved = kernel.solve(rows, mask, idx)
        if solved is None:
            sub = kernel.matrix.principal_submatrix(idx)
            status, _ = solve_linear(sub, [-q[i] for i in idx])
            if status != "inconsistent":
                return None
            continue
        d, y = solved
        if 0 in y:
            return None
        if any(v < 0 for v in y):
            continue
        slacks = [kernel.slack(rows, j, idx, d, y) for j in comp]
        if 0 in slacks:
            return None
        if any(v < 0 for v in slacks):
            continue
        total += kernel.minor_sign(mask, idx)
    return total


def degree(matrix: RationalMatrix, rng_seed: int = 0, kernel: Optional[SupportKernel] = None) -> int:
    """LCP degree: sum of sgn det A_II over the solutions at a generic q.

    Requires the R0 property (checked by the caller via classes.is_R0; this
    function only needs it for the value to be well defined).  Draws integer
    q vectors from a large symmetric range and resamples on any degeneracy;
    the result is independent of the seed.
    """
    if kernel is None:
        kernel = SupportKernel(matrix)
    n = matrix.n
    rng = random.Random(rng_seed)
    bound = 10 ** 6 * (1 + n)
    for _ in range(DEGREE_DRAW_BUDGET):
        q = [rng.randint(-bound, bound) for _ in range(n)]
        total = _generic_degree(kernel, q)
        if total is not None:
            return total
    raise DegreeSamplingError(
        "no generic q found in %d draws; matrix may not be R0" % DEGREE_DRAW_BUDGET
    )
