"""LCP matrix-class membership tests and the Q-property oracle.

Every test here is decided by exact arithmetic: the class definitions are
quantified over supports, and each support reduces to a rational linear
system or LP feasibility question.  The oracle q_oracle is three-valued;
an Undecided verdict is honest, never a bug.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Tuple

from .errors import CertificateError
from .kernel import clear_denominators
from .lcp import (
    LcpInstance,
    check_cap,
    embed,
    family_point,
    integer_system,
    is_solvable,
    lex_walk,
    minor_sign,
    solve_lcp,
    supports,
    walk,
)
from .matrices import RationalMatrix, nonpositive_rows, vec_to_fractions
from .simplex import FeasibilitySystem, solve_feasibility
from .structure import is_bdsw_shape

YES = "yes"
NO = "no"
UNDECIDED = "undecided"
DEFAULT_BUDGET = 64  # witness candidates q_oracle tries; classify and --budget default to it


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
    """R0: x = 0 is the only solution of LCP(A, 0).  The same verdict as
    r0_degree's, from a plain walk (lcp.walk): the singular supports it
    yields are the lexicographic walk's, so the degree columns are not
    carried."""
    scale, rows = integer_system(matrix, [0] * matrix.n)
    singular = sorted((mask, idx, comp) for mask, idx, comp, sign, _ in walk(rows) if sign == 0)
    return _r0_verdict(rows, scale, singular)


def r0_degree(matrix: RationalMatrix) -> Tuple[Verdict, int]:
    """is_R0's verdict and the LCP degree, from one walk (lcp.lex_walk);
    the degree means something only when the verdict is yes.

    A nonzero solution of LCP(A, 0) on support I has A_II x_I = 0, so
    A_II is singular.  The walk yields the singular supports, and reads
    each minor's sign from its pivot, with no determinant call.
    """
    scale, rows = integer_system(matrix, [0] * matrix.n)
    singular, deg = lex_walk(rows)
    return _r0_verdict(rows, scale, singular), deg


def _r0_verdict(rows: list, scale: int, singular: list) -> Verdict:
    """The R0 verdict from the singular supports (mask, idx, comp) of
    LCP(A, 0), in bitmask order: A_II x_I = 0, sum x_I = 1, x_I >= 0,
    A_(I^c,I) x_I >= 0 must be infeasible, and the first feasible one
    gives the witness x.  That LP is lcp.family_point with the sum row,
    on the integer rows (at scale) of [A | 0] that the walk read."""
    for _, idx, comp in singular:
        point = family_point(rows, idx, comp, scale)
        if point is not None:
            x = embed(len(rows), idx, point)
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
    return _semimonotone_scan(
        matrix, "E0", False, "A_II x_I <= -1 with x_I >= 0", "no support violates semimonotonicity"
    )


def is_E(matrix: RationalMatrix) -> Verdict:
    """E (strictly semimonotone): every 0 != x >= 0 has x_i (Ax)_i > 0 somewhere."""
    return _semimonotone_scan(
        matrix,
        "E",
        True,
        "A_II x_I <= 0 with x_I >= 0, sum 1",
        "strict semimonotonicity holds on every support",
    )


def _semimonotone_scan(matrix: RationalMatrix, rule: str, strict: bool, fails: str, holds: str):
    """The first nonempty support, in bitmask order, with x_I >= 0 and
    A_II x_I <= -1 (A_II x_I <= 0 and sum x_I = 1 when strict), found by
    LP, gives a NO with that x; none gives a YES."""
    scale, rows = matrix.integer_rows()
    rhs = 0 if strict else scale
    for idx in itertools.islice(supports(matrix.n), 1, None):
        system = FeasibilitySystem(len(idx))
        for i in idx:
            system.add_ge([-rows[i][j] for j in idx], rhs)
        if strict:
            system.add_eq([scale] * len(idx), scale)
        point = solve_feasibility(system)
        if point is not None:
            return Verdict(NO, rule, fails, {"x": embed(matrix.n, idx, point)})
    return Verdict(YES, rule, holds, {})


def is_S(matrix: RationalMatrix) -> Verdict:
    """S: some x > 0 has Ax > 0.  When every row sum is positive, A1 > 0
    and x = 1 certifies it; otherwise it is tested as x >= 0, Ax >= 1 by
    LP, and the point found is shifted."""
    n = matrix.n
    scale, rows = matrix.integer_rows()  # A times scale > 0
    if all(sum(row) > 0 for row in rows):
        return Verdict(YES, "S", "strictly positive x with Ax > 0", {"x": [Fraction(1)] * n})
    system = FeasibilitySystem(n)
    for row in rows:
        system.add_ge(row, scale)
    point = solve_feasibility(system)
    if point is None:
        return Verdict(NO, "S", "no x >= 0 with Ax >= 1", {})
    max_abs_row_sum = Fraction(max(abs(sum(row)) for row in rows), scale)
    eps = Fraction(1, 2) / (1 + max_abs_row_sum)
    x = [v + eps for v in point]
    # Row i of rows and x_ints are positive multiples of A_i and x, so
    # their dot product has the sign of (Ax)_i.
    _, x_ints = clear_denominators(x)
    if not (
        all(v > 0 for v in x)
        and all(sum(a * b for a, b in zip(row, x_ints)) > 0 for row in rows)
    ):
        raise CertificateError("shifted S point is not strictly positive")
    return Verdict(YES, "S", "strictly positive x with Ax > 0", {"x": x})


def is_P(matrix: RationalMatrix) -> Verdict:
    """P: every principal minor is positive.  The first minor, in bitmask
    order, that is not gives a NO with its 1-based indices.  Each minor
    takes one determinant (lcp.minor_sign), the empty one none."""
    for idx in supports(matrix.n):
        if minor_sign(matrix, idx) <= 0:
            return Verdict(
                NO, "P", "nonpositive principal minor", {"indices": [i + 1 for i in idx]}
            )
    return Verdict(YES, "P", "all principal minors positive", {})


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
    """Candidate q vectors for unsolvability hunting, most promising first:
    one per ray, at most budget of them (a negative budget acts as 0).

    Phase one: a single -1 entry with the rest constant 0 or 1 (these hit
    the witnesses of triangular-style obstructions).  Phase two: the other
    sign-pattern corners of {-1,0,1}^n holding at least one negative entry.
    Phase three: seeded random rational vectors with a negative entry (q >= 0
    is always solvable by x = 0).  The stream ends once budget candidates in
    a row repeat a ray, so it ends even when fewer than budget rays exist.
    """
    phase_one = (
        tuple(-1 if j == i else rest for j in range(n)) for i in range(n) for rest in (0, 1)
    )
    corners = ([(v, 1) for v in c] for c in itertools.chain(phase_one, _sign_corners(n)))
    rng = random.Random(rng_seed)
    draws = (
        [(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n)]
        for _ in itertools.count()
    )
    negative = (q for q in itertools.chain(corners, draws) if min(a for a, _ in q) < 0)
    rays = _new_rays(negative, budget)
    return itertools.islice(([Fraction(a, b) for a, b in q] for q in rays), max(budget, 0))


def _new_rays(vectors, patience: int):
    """The vectors, each a list of (numerator, positive denominator) int
    pairs, whose ray (primitive integer direction) is new, in order, until
    patience of them in a row bring none.  LCP(A, tq) is solvable iff
    LCP(A, q) is, for every t > 0, because complementary cones are cones,
    so one q per ray is all a witness search needs.  The ray is read from
    the ints alone, so a repeated draw builds no Fraction."""
    seen = set()
    stale = 0
    for q in vectors:
        scale = math.lcm(*(b for _, b in q))
        ints = [a * (scale // b) for a, b in q]
        g = math.gcd(*ints)
        ray = tuple(v // g for v in ints)
        if ray not in seen:
            seen.add(ray)
            stale = 0
            yield q
        else:
            stale += 1
            if stale >= patience:
                return


def q_oracle(matrix: RationalMatrix, budget: int = DEFAULT_BUDGET, rng_seed: int = 0) -> Verdict:
    """Three-valued Q-property oracle, independent of the sign-pattern rules.

    The enumeration cap is checked first; then the channels, in order, and
    the first that decides answers:

    - nonpositive-row (no): for q = -e_i, a row i with no positive entry
      leaves (Ax + q)_i < 0 at every x >= 0.
    - not-S (no): Q implies S, since a solution at q = -1 has Ax >= 1.
    - degree-nonzero (yes): R0 with nonzero LCP degree implies Q.  A
      P-matrix is R0 with exactly one solution for every q (Cottle, Pang &
      Stone, *The Linear Complementarity Problem*, 1992, ch. 3), so degree
      1, and its minors decide it; any other matrix is walked once by
      r0_degree for both R0 and the degree.
    - bdsw-degree-zero, bdsw-not-R0 (no): on the bdsw zero pattern (every
      2x2 matrix has it) Q holds iff R0 holds and the degree is +-1, so a
      bdsw matrix the degree did not decide is not Q; R0's witness x comes
      with bdsw-not-R0.
    - unsolvable-q (no): at most budget candidate q, one per ray
      (solvability is invariant under q -> tq, t > 0), each asked only
      whether LCP(A, q) is solvable (lcp.is_solvable).
    - undecided: no channel decided within the budget.
    """
    n = matrix.n
    check_cap(n)
    bad = nonpositive_rows(matrix)
    if bad:
        return Verdict(NO, "nonpositive-row", "row without positive entry", {"row": bad[0] + 1})
    if is_S(matrix).is_no:
        return Verdict(NO, "not-S", "no positive x with Ax > 0", {})
    r0, deg = (None, 1) if is_P(matrix).is_yes else r0_degree(matrix)
    if (r0 is None or r0.is_yes) and deg != 0:
        return Verdict(YES, "degree-nonzero", "R0 with nonzero LCP degree", {"degree": deg})
    if is_bdsw_shape(matrix):
        if r0.is_no:
            return Verdict(NO, "bdsw-not-R0", "bdsw shape without the R0 property", dict(r0.data))
        return Verdict(NO, "bdsw-degree-zero", "bdsw shape with R0 and degree 0", {"degree": 0})
    for q in _witness_candidates(n, budget, rng_seed):
        if not is_solvable(matrix, q):
            return Verdict(NO, "unsolvable-q", "LCP(A,q) has no solution", {"q": q})
    return Verdict(UNDECIDED, "undecided", "no decision within budget", {})
