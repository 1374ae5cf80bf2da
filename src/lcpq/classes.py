"""LCP matrix-class membership tests and the Q-property oracle.

Every test here is decided by exact arithmetic: the class definitions are
quantified over supports, and each support reduces to a rational linear
system or LP feasibility question.  The oracle q_oracle is three-valued;
an Undecided verdict is honest, never a bug.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import CertificateError, DegreeSamplingError
from .kernel import clear_denominators
from .lcp import LcpInstance, check_cap, degree, embed, is_solvable, minor_sign, solve_lcp, supports
from .matrices import RationalMatrix, nonpositive_rows, vec_to_fractions
from .simplex import FeasibilitySystem, solve_feasibility
from .structure import is_bdsw_shape

YES = "yes"
NO = "no"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class Verdict:
    """Answer plus certificate: the rule that decided and its witness data."""

    answer: str
    rule: str
    condition: str
    data: dict = field(default_factory=dict)

    @property
    def is_yes(self) -> bool:
        return self.answer == YES

    @property
    def is_no(self) -> bool:
        return self.answer == NO

    def to_json_obj(self) -> dict:
        witness = {}
        for key, value in self.data.items():
            if isinstance(value, (list, tuple)):
                witness[key] = [str(v) for v in value]
            elif isinstance(value, Fraction):
                witness[key] = str(value)
            else:
                witness[key] = value
        return {
            "answer": self.answer,
            "theorem": self.rule,
            "condition": self.condition,
            "witness": witness,
        }


def is_R0(matrix: RationalMatrix) -> Verdict:
    """R0: x = 0 is the only solution of LCP(A, 0).

    For each nonempty support I the system A_II x_I = 0, x_I >= 0,
    sum x_I = 1, A_(I^c,I) x_I >= 0 must be infeasible.
    """
    for mask, idx, comp in supports(matrix.n):
        if minor_sign(matrix, mask, idx) != 0:
            continue  # homogeneous system only has x_I = 0, normalisation fails
        system = FeasibilitySystem(len(idx))
        for i in idx:
            system.add_eq([matrix.rows[i][j] for j in idx], 0)
        system.add_eq([Fraction(1)] * len(idx), 1)
        for j in comp:
            system.add_ge([matrix.rows[j][i] for i in idx], 0)
        point = solve_feasibility(system)
        if point is not None:
            x = embed(matrix.n, idx, point)
            return Verdict(NO, "R0", "nonzero solution of LCP(A,0)", {"x": x})
    return Verdict(YES, "R0", "LCP(A,0) has only the zero solution", {})


def is_Rd(matrix: RationalMatrix, d: Sequence) -> Verdict:
    """R(d) for d > 0: LCP(A, t d) has only trivial solutions for t >= 0.

    Equivalently both LCP(A, 0) and LCP(A, d) admit only x = 0.
    """
    dvec = vec_to_fractions(d)
    if len(dvec) != matrix.n or any(v <= 0 for v in dvec):
        raise ValueError("d must be a positive vector matching the order")
    r0 = is_R0(matrix)
    if not r0.is_yes:
        return Verdict(NO, "R(d)", "LCP(A,0) already nontrivial", dict(r0.data))
    for sol in solve_lcp(LcpInstance(matrix, dvec)):
        if sol.support:
            x = list(sol.x)
            return Verdict(NO, "R(d)", "nonzero solution of LCP(A,d)", {"x": x, "d": dvec})
    return Verdict(YES, "R(d)", "LCP(A,td) trivial for all t >= 0", {"d": dvec})


def is_E0(matrix: RationalMatrix) -> Verdict:
    """E0 (semimonotone): no 0 != x >= 0 has x_i (Ax)_i < 0 on all of supp x."""
    for _, idx, _ in itertools.islice(supports(matrix.n), 1, None):
        system = FeasibilitySystem(len(idx))
        for i in idx:
            system.add_ge([-matrix.rows[i][j] for j in idx], 1)
        point = solve_feasibility(system)
        if point is not None:
            x = embed(matrix.n, idx, point)
            return Verdict(NO, "E0", "A_II x_I <= -1 with x_I >= 0", {"x": x})
    return Verdict(YES, "E0", "no support violates semimonotonicity", {})


def is_E(matrix: RationalMatrix) -> Verdict:
    """E (strictly semimonotone): every 0 != x >= 0 has x_i (Ax)_i > 0 somewhere."""
    for _, idx, _ in itertools.islice(supports(matrix.n), 1, None):
        system = FeasibilitySystem(len(idx))
        for i in idx:
            system.add_ge([-matrix.rows[i][j] for j in idx], 0)
        system.add_eq([Fraction(1)] * len(idx), 1)
        point = solve_feasibility(system)
        if point is not None:
            x = embed(matrix.n, idx, point)
            return Verdict(NO, "E", "A_II x_I <= 0 with x_I >= 0, sum 1", {"x": x})
    return Verdict(YES, "E", "strict semimonotonicity holds on every support", {})


def is_S(matrix: RationalMatrix) -> Verdict:
    """S: some x > 0 has Ax > 0 (tested as x >= 0, Ax >= 1, then shifted)."""
    n = matrix.n
    system = FeasibilitySystem(n)
    for i in range(n):
        system.add_ge(matrix.rows[i], 1)
    point = solve_feasibility(system)
    if point is None:
        return Verdict(NO, "S", "no x >= 0 with Ax >= 1", {})
    scales, ints = matrix.scaled_rows()
    max_abs_row_sum = max(Fraction(abs(sum(row)), scale) for scale, row in zip(scales, ints))
    eps = Fraction(1, 2) / (1 + max_abs_row_sum)
    x = [v + eps for v in point]
    # Row i of ints and x_ints are positive multiples of A_i and x, so
    # their dot product has the sign of (Ax)_i.
    _, x_ints = clear_denominators(x)
    if not (
        all(v > 0 for v in x)
        and all(sum(a * b for a, b in zip(row, x_ints)) > 0 for row in ints)
    ):
        raise CertificateError("shifted S point is not strictly positive")
    return Verdict(YES, "S", "strictly positive x with Ax > 0", {"x": x})


def is_P(matrix: RationalMatrix) -> Verdict:
    """P: every principal minor is positive."""
    for mask, idx, _ in supports(matrix.n):
        if minor_sign(matrix, mask, idx) <= 0:
            return Verdict(
                NO, "P", "nonpositive principal minor", {"indices": [i + 1 for i in idx]}
            )
    return Verdict(YES, "P", "all principal minors positive", {})


def is_P0(matrix: RationalMatrix) -> Verdict:
    """P0: every principal minor is nonnegative."""
    for mask, idx, _ in supports(matrix.n):
        if minor_sign(matrix, mask, idx) < 0:
            return Verdict(
                NO, "P0", "negative principal minor", {"indices": [i + 1 for i in idx]}
            )
    return Verdict(YES, "P0", "all principal minors nonnegative", {})


def is_Z(matrix: RationalMatrix) -> Verdict:
    """Z: off-diagonal entries are all nonpositive."""
    n = matrix.n
    for i in range(n):
        for j in range(n):
            if i != j and matrix.rows[i][j] > 0:
                return Verdict(
                    NO, "Z", "positive off-diagonal entry", {"at": [i + 1, j + 1]}
                )
    return Verdict(YES, "Z", "off-diagonal entries nonpositive", {})


def is_Rstar(matrix: RationalMatrix) -> Verdict:
    """R* = R0 and E0; such matrices have the R property and hence Q."""
    r0 = is_R0(matrix)
    if not r0.is_yes:
        return Verdict(NO, "R*", "R0 fails", dict(r0.data))
    e0 = is_E0(matrix)
    if not e0.is_yes:
        return Verdict(NO, "R*", "E0 fails", dict(e0.data))
    return Verdict(YES, "R*", "R0 and E0 both hold", {})


def _sign_corners(n: int):
    """Corners of {-1,0,1}^n with at least one -1, ordered by the number of
    -1 entries and then lexicographically, generated one at a time."""

    def with_negatives(length: int, negatives: int):
        if length == 0:
            yield ()
            return
        for v in (-1, 0, 1):
            rest = negatives - (v < 0)
            if 0 <= rest < length:  # the other positions can hold rest -1s
                for tail in with_negatives(length - 1, rest):
                    yield (v,) + tail

    for negatives in range(1, n + 1):
        yield from with_negatives(n, negatives)


def _witness_candidates(n: int, budget: int, rng_seed: int):
    """Candidate q vectors for unsolvability hunting, most promising first.

    Phase one: a single -1 entry with the rest constant 0 or 1 (these hit
    the witnesses of triangular-style obstructions).  Phase two: the other
    sign-pattern corners of {-1,0,1}^n holding at least one negative entry.
    Both phases are scaled by 1 and 2.  Phase three: seeded random rational
    vectors.  Yields at most budget candidates, without duplicates.
    """
    seen = set()
    count = 0

    def emit(vec):
        nonlocal count
        key = tuple(vec)
        if key in seen or count >= budget:
            return None
        seen.add(key)
        count += 1
        return list(key)

    phase_one = []
    for i in range(n):
        for rest in (0, 1):
            vec = [Fraction(rest)] * n
            vec[i] = Fraction(-1)
            phase_one.append(vec)
    for scale in (1, 2):
        for vec in phase_one:
            got = emit([scale * v for v in vec])
            if got is not None:
                yield got

    for scale in (1, 2):
        for combo in _sign_corners(n):  # q >= 0 is always solvable by x = 0
            if count >= budget:
                return
            got = emit([Fraction(scale * v) for v in combo])
            if got is not None:
                yield got

    rng = random.Random(rng_seed)
    while count < budget:
        vec = [
            Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n)
        ]
        if all(v >= 0 for v in vec):
            continue
        got = emit(vec)
        if got is not None:
            yield got


def q_oracle(matrix: RationalMatrix, budget: int = 64, rng_seed: int = 0) -> Verdict:
    """Three-valued Q-property oracle, independent of the sign-pattern rules.

    No channels: a nonpositive row, failure of the S property, or an
    explicitly verified unsolvable q.  Yes channels: R0 together with
    nonzero LCP degree, or the R* property.  For matrices with the bdsw
    zero pattern (every 2x2 matrix has it), Q holds iff R0 holds and the
    degree is +-1, which turns the R0/degree channel into a full decision
    procedure there.

    Every channel reads principal-minor signs through the matrix's own
    memo (lcp.minor_sign), so each minor is computed once, by is_R0.  When
    those minors are all positive the matrix is P, and a P-matrix has
    exactly one solution for every q (Cottle, Pang & Stone, *The Linear
    Complementarity Problem*, 1992, ch. 3), so its degree is 1 without
    sampling one.  The witness search asks only whether each candidate q
    is solvable (lcp.is_solvable), which stops at the first solution.
    The enumeration cap is checked first, before any channel runs.
    """
    n = matrix.n
    check_cap(n)

    bad = nonpositive_rows(matrix)
    if bad:
        return Verdict(NO, "nonpositive-row", "row without positive entry", {"row": bad[0] + 1})

    s = is_S(matrix)
    if s.is_no:
        return Verdict(NO, "not-S", "no positive x with Ax > 0", {})

    bdsw = is_bdsw_shape(matrix)
    r0 = is_R0(matrix)
    deg: Optional[int] = None
    if r0.is_yes:
        if is_P(matrix).is_yes:  # reads the minors is_R0 memoised
            deg = 1
        else:
            try:
                deg = degree(matrix, rng_seed)
            except DegreeSamplingError:
                deg = None
        if deg is not None and deg != 0:
            return Verdict(
                YES, "degree-nonzero", "R0 with nonzero LCP degree", {"degree": deg}
            )
        if deg == 0 and bdsw:
            return Verdict(
                NO,
                "bdsw-degree-zero",
                "bdsw shape with R0 and degree 0",
                {"degree": 0},
            )
        if deg is None and is_E0(matrix).is_yes:  # R0 holds already: R*
            return Verdict(YES, "R-star", "R0 and E0 hold", {})
    else:
        if bdsw:
            return Verdict(
                NO,
                "bdsw-not-R0",
                "bdsw shape without the R0 property",
                dict(r0.data),
            )

    for q in _witness_candidates(n, budget, rng_seed):
        if not is_solvable(matrix, q):
            return Verdict(NO, "unsolvable-q", "LCP(A,q) has no solution", {"q": q})

    return Verdict(UNDECIDED, "undecided", "no decision within budget", {})
