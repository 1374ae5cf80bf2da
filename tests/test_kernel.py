"""Fraction-free integer kernel against independent exact references.

The kernel's determinant is compared with cofactor expansion, its scaled
solutions det * x with the package's rational Gauss-Jordan solve_linear,
and the support kernel's integer sign tests with the same quantities
computed in Fraction arithmetic.  Inputs cover non-integer entries, zero
rows and columns, singular and rank-deficient blocks, and right-hand sides
of the size degree() draws (about 10^7).
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_lcp_solution, cofactor_det
from lcpq.kernel import clear_denominators, eliminate
from lcpq.lcp import LcpInstance, SupportKernel, solve_lcp, supports
from lcpq.matrices import RationalMatrix, determinant, solve_linear

ENTRIES = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
RHS = st.one_of(
    st.integers(-(10 ** 7), 10 ** 7),
    st.fractions(min_value=-20, max_value=20, max_denominator=9),
)


@st.composite
def degenerate_systems(draw, max_order=5):
    """(rows, rhs): a square rational system, often made singular on purpose."""
    k = draw(st.integers(1, max_order))
    rows = [[Fraction(draw(ENTRIES)) for _ in range(k)] for _ in range(k)]
    damage = draw(st.sampled_from(["none", "zero-row", "zero-column", "repeat-row", "combination"]))
    a, b, c = (draw(st.integers(0, k - 1)) for _ in range(3))
    if damage == "zero-row":
        rows[a] = [Fraction(0)] * k
    elif damage == "zero-column":
        for row in rows:
            row[a] = Fraction(0)
    elif damage == "repeat-row":
        rows[a] = list(rows[b])
    elif damage == "combination":
        t = Fraction(draw(ENTRIES))
        rows[a] = [u + t * v for u, v in zip(rows[b], rows[c])]
    rhs = [Fraction(draw(RHS)) for _ in range(k)]
    return rows, rhs


def _kernel_solve(rows, rhs):
    """(det of the scaled integer system, y, scales) from the kernel."""
    scales, work = [], []
    for row, b in zip(rows, rhs):
        scale, ints = clear_denominators(list(row) + [b])
        scales.append(scale)
        work.append(ints)
    det = eliminate(work, len(rows))
    return det, [r[-1] for r in work], scales


@settings(max_examples=150, deadline=None, derandomize=True)
@given(degenerate_systems())
def test_kernel_matches_cofactor_det_and_solve_linear(system):
    rows, rhs = system
    det, y, scales = _kernel_solve(rows, rhs)
    reference = cofactor_det(rows)
    assert Fraction(det, math.prod(scales)) == reference
    assert determinant(RationalMatrix(rows)) == reference
    status, x = solve_linear(RationalMatrix(rows), rhs)
    if det == 0:
        assert status != "unique"
    else:
        assert status == "unique"
        assert y == [det * v for v in x]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(degenerate_systems(max_order=4), st.data())
def test_support_kernel_signs_match_fraction_arithmetic(system, data):
    rows, _ = system
    matrix = RationalMatrix(rows)
    n = matrix.n
    q = [Fraction(data.draw(RHS)) for _ in range(n)]
    kernel = SupportKernel(matrix)
    int_rows = kernel.integer_system(q)
    for mask, idx, comp in kernel.supports():
        solved = kernel.solve(int_rows, mask, idx)
        sub_det = cofactor_det([[rows[i][j] for j in idx] for i in idx]) if idx else 1
        assert kernel.minor_sign(mask, idx) == (sub_det > 0) - (sub_det < 0)
        if solved is None:
            assert sub_det == 0
            continue
        d, y = solved
        assert d > 0
        xi = []
        if idx:
            status, xi = solve_linear(matrix.principal_submatrix(idx), [-q[i] for i in idx])
            assert status == "unique"
        assert [Fraction(v, d) for v in y] == xi
        x = [Fraction(0)] * n
        for pos, i in enumerate(idx):
            x[i] = xi[pos]
        w = [wi + qi for wi, qi in zip(matrix.matvec(x), q)]
        for j in comp:
            slack = kernel.slack(int_rows, j, idx, d, y)
            assert (slack > 0) - (slack < 0) == (w[j] > 0) - (w[j] < 0)


def test_supports_enumerate_every_mask_once_in_order():
    seen = list(supports(4))
    assert [mask for mask, _, _ in seen] == list(range(16))
    for mask, idx, comp in seen:
        assert sorted(idx + comp) == list(range(4))
        assert sum(1 << i for i in idx) == mask


def test_degree_sized_right_hand_sides_stay_exact():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 7)
        rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(n)] for _ in range(n)]
        rhs = [Fraction(rng.randint(-(10 ** 7), 10 ** 7)) for _ in range(n)]
        det, y, _ = _kernel_solve(rows, rhs)
        status, x = solve_linear(RationalMatrix(rows), rhs)
        if det == 0:
            assert status != "unique" and cofactor_det(rows) == 0
        else:
            assert y == [det * v for v in x]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(degenerate_systems(max_order=4), st.data())
def test_every_solve_lcp_solution_satisfies_the_definition(system, data):
    rows, _ = system
    matrix = RationalMatrix(rows)
    q = [Fraction(data.draw(st.integers(-3, 3))) for _ in range(matrix.n)]
    solutions = solve_lcp(LcpInstance(matrix, q))
    assert len({sol.x for sol in solutions}) == len(solutions)
    for sol in solutions:
        assert check_lcp_solution(matrix, q, sol.x)
        support = [i - 1 for i in sol.support]
        assert support == [i for i in range(matrix.n) if sol.x[i] > 0]
        det = cofactor_det([[rows[i][j] for j in support] for i in support]) if support else 1
        assert sol.support_det_sign == (det > 0) - (det < 0)
