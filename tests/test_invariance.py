"""Verdicts that do not depend on how A is presented.

Q is invariant under A -> P D A E P^T, for a permutation P and positive
diagonals D and E: LCP(P D A E P^T, P D q) is LCP(A, q) with x -> P E^-1 x,
so q is unsolvable for A exactly when P D q is unsolvable for the image.  Q
is invariant under a principal pivot transform too, which maps LCP(A, q)
onto LCP(ppt(A, J), q') by a linear bijection q -> q' (Tucker 1963;
Tsatsomeros, LAA 307, 2000).  The oracle may still decide one side and
leave the other undecided, but it must never say yes on one side and no on
the other, and neither may classify.  Each image reorders and rescales the
principal minors that the P scan computes, so the guard also drives every
block order of the determinant through the oracle.
"""

import random
from fractions import Fraction

from lcpq.classes import NO, UNDECIDED, YES, q_oracle
from lcpq.classifier import classify_by_rules
from lcpq.errors import SingularPivotError
from lcpq.generate import GENERATOR_TYPES, draw_instances
from lcpq.lcp import is_solvable
from lcpq.matrices import RationalMatrix
from lcpq.pivot import ppt

PER_FAMILY = 25
SPARSE_PER_ORDER = 100
SPARSE_ENTRIES = (-1, 0, 0, 1, 2)


def _corpus():
    """Int rows at n = 3-5: PER_FAMILY per generate family and order (the
    2x2 family once, as it ignores n), and sparse matrices with entries from
    SPARSE_ENTRIES drawn from random.Random(5)."""
    out = []
    for n in (3, 4, 5):
        for kind in GENERATOR_TYPES:
            if kind != "2x2" or n == 3:
                out.extend(draw_instances(kind, n, PER_FAMILY, seed=n))
    rng = random.Random(5)
    for n in (3, 4, 5):
        out.extend(
            [[rng.choice(SPARSE_ENTRIES) for _ in range(n)] for _ in range(n)]
            for _ in range(SPARSE_PER_ORDER)
        )
    return out


def _scaled_conjugate(rows, rng):
    """(P D A E P^T, sigma, d) for a random permutation sigma, listed so that
    row i of the image is row sigma[i] of A, and positive rational d, e."""
    n = len(rows)
    sigma = rng.sample(range(n), n)
    d = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
    e = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
    image = [[d[i] * rows[i][j] * e[j] for j in sigma] for i in sigma]
    return RationalMatrix(image), sigma, d


def _images(rows, rng):
    """(image, sigma, d): the scaled conjugate, then ppt(A, J) for J = {1},
    {n} and every index, with sigma and d None; a singular J is skipped."""
    matrix = RationalMatrix(rows)
    yield _scaled_conjugate(rows, rng)
    n = matrix.n
    for j_set in ([1], [n], range(1, n + 1)):
        try:
            yield ppt(matrix, j_set), None, None
        except SingularPivotError:
            pass


def _flip(a, b):
    return {a, b} == {YES, NO}


def test_no_verdict_flips_under_q_preserving_transforms():
    rng = random.Random(17)
    pairs = decided = witnesses = 0
    for rows in _corpus():
        matrix = RationalMatrix(rows)
        oracle = q_oracle(matrix)
        # classify is the structural rule if one applies, else q_oracle.
        verdict = classify_by_rules(matrix) or oracle
        for image, sigma, d in _images(rows, rng):
            image_oracle = q_oracle(image)
            image_verdict = classify_by_rules(image) or image_oracle
            assert not _flip(oracle.answer, image_oracle.answer), (rows, image)
            assert not _flip(verdict.answer, image_verdict.answer), (rows, image)
            pairs += 1
            decided += UNDECIDED not in (oracle.answer, image_oracle.answer)
            if sigma is not None and oracle.rule == "unsolvable-q":
                q = oracle.data["q"]
                assert not is_solvable(image, [d[i] * q[i] for i in sigma]), (rows, q)
                witnesses += 1
    # 775 matrices give 2,680 pairs (420 singular pivot blocks are skipped),
    # all but 3 decided on both sides, and 168 unsolvable q to carry over.
    assert pairs > 2500 and decided > 0.99 * pairs and witnesses > 100
