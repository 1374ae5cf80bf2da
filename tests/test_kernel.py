"""Fraction-free integer kernel against independent exact references.

The kernel's determinants (the Bareiss loop, and int_determinant, which
must leave its rows as they are) are compared with cofactor expansion, on
dense blocks up to 8 x 8 with entries up to 10^30 and on sparse ones, its
scaled solutions det * x with the package's rational Gauss-Jordan
solve_linear, and the support walk's integer sign tests with the same
quantities computed in Fraction arithmetic.  Inputs cover non-integer
entries, zero pivots, zero rows and columns, singular and rank-deficient
blocks, and right-hand sides of the size the sampled degree reference in
helpers draws (about 10^7).
"""

import math
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import check_lcp_solution, cofactor_det, matvec
from lcpq.kernel import bareiss_determinant, clear_denominators, eliminate, int_determinant
from lcpq.lcp import LcpInstance, integer_system, minor_sign, solve_lcp, supports, walk
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


def _kernel_solve(rows, rhs, extra=()):
    """(det of the scaled integer system, reduced rows, scales) from the
    kernel; extra rows (coefficients and right-hand side) go below the
    system's and are reduced without pivoting."""
    scales, work = [], []
    for row, b in list(zip(rows, rhs)) + list(extra):
        scale, ints = clear_denominators(list(row) + [b])
        scales.append(scale)
        work.append(ints)
    det = eliminate(work, len(rows))
    return det, work, scales


def _consistent(work, k):
    """Whether the rank-reduced system has a solution: every row among the
    first k that is zero on the block has a zero right-hand side."""
    return all(row[-1] == 0 for row in work[:k] if not any(row[:k]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(degenerate_systems(), st.data())
def test_kernel_matches_cofactor_det_and_solve_linear(system, data):
    rows, rhs = system
    k = len(rows)
    extra = [
        ([Fraction(data.draw(ENTRIES)) for _ in range(k)], Fraction(data.draw(RHS)))
        for _ in range(data.draw(st.integers(0, 3)))
    ]
    det, work, scales = _kernel_solve(rows, rhs, extra)
    reference = cofactor_det(rows)
    assert Fraction(det, math.prod(scales[:k])) == reference
    assert determinant(RationalMatrix(rows)) == reference
    status, x = solve_linear(RationalMatrix(rows), rhs)
    if det == 0:
        assert status != "unique"
        assert _consistent(work, k) == (status != "inconsistent")
    else:
        assert status == "unique"
        assert [row[-1] for row in work[:k]] == [det * v for v in x]
        # A row past k holds det * w for w = b - a.x, times the row's scale.
        for (a, b), scale, row in zip(extra, scales[k:], work[k:]):
            w = b - sum(u * v for u, v in zip(a, x))
            assert row[-1] == det * scale * w


SPARSE = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda k: st.lists(st.lists(SPARSE, min_size=k, max_size=k), min_size=k, max_size=k)))
@example([[0, 1], [1, 0]])  # a zero leading entry: the rows swap
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
@example([[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # zero multipliers under unchanged pivots
@example([[2, 0, 1], [0, 2, 0], [1, 0, 2]])
@example([[1, 2], [2, 4]])  # singular
def test_determinant_mode_matches_cofactor_expansion_on_sparse_blocks(rows):
    # bareiss_determinant reduces only right of each pivot column and skips
    # a row whose multiplier is 0 under an unchanged pivot; Gauss-Jordan
    # eliminate on the same block gives the same det.  int_determinant
    # takes the block as integer_rows() holds it, int tuples it cannot write.
    assert bareiss_determinant([list(row) for row in rows]) == cofactor_det(rows)
    assert eliminate([list(row) for row in rows], len(rows)) == cofactor_det(rows)
    assert int_determinant(tuple(map(tuple, rows))) == cofactor_det(rows)


BIG = st.integers(-(10 ** 30), 10 ** 30)


@st.composite
def dense_blocks(draw):
    """(k x k int rows, denominator): k <= 8, entries up to 10^30 in size,
    often with a zero pivot on the way or made singular."""
    k = draw(st.integers(1, 8))
    rows = [[draw(BIG) for _ in range(k)] for _ in range(k)]
    damage = draw(
        st.sampled_from(["none", "zero-leading", "zero-second", "zero-column", "repeat-row", "combination"])
    )
    a, b, c = (draw(st.integers(0, k - 1)) for _ in range(3))
    if damage == "zero-leading":
        rows[0][0] = 0
    elif damage == "zero-second" and k >= 3:
        # The leading 2 x 2 block is singular, so the second pivot is 0
        # after the first step and a row below is swapped in.
        t = draw(st.integers(-3, 3))
        rows[1][:2] = [t * rows[0][0], t * rows[0][1]]
    elif damage == "zero-column":
        for row in rows:
            row[a] = 0
    elif damage == "repeat-row":
        rows[a] = list(rows[b])
    elif damage == "combination":
        t = draw(st.integers(-(10 ** 6), 10 ** 6))
        rows[a] = [u + t * v for u, v in zip(rows[b], rows[c])]
    return rows, draw(st.sampled_from((1, 7, 10 ** 12 + 39)))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(dense_blocks())
@example(([[0, 10 ** 30], [10 ** 30, 1]], 1))
@example(([[2, 3, 1], [4, 6, 5], [1, 1, 1]], 1))  # the second pivot is 0
@example(([[1, 2, 3], [2, 4, 6], [0, 0, 1]], 7))  # singular, no row to swap in
@example(([[5] * 8] * 8, 10 ** 12 + 39))
def test_determinant_matches_cofactor_expansion_on_dense_blocks(block):
    rows, denominator = block
    assert bareiss_determinant([list(row) for row in rows]) == cofactor_det(rows)
    assert eliminate([list(row) for row in rows], len(rows)) == cofactor_det(rows)
    copy = [list(row) for row in rows]
    assert int_determinant(rows) == cofactor_det(rows) and rows == copy
    fractions = [[Fraction(v, denominator) for v in row] for row in rows]
    det = determinant(RationalMatrix(fractions))
    assert type(det) is Fraction and det == cofactor_det(fractions)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(degenerate_systems(max_order=4), st.data())
def test_support_kernel_signs_match_fraction_arithmetic(system, data):
    rows, _ = system
    matrix = RationalMatrix(rows)
    n = matrix.n
    q = [Fraction(data.draw(RHS)) for _ in range(n)]
    walked = walk(integer_system(matrix, q)[1])
    records = {mask: (sign, solved) for mask, _, _, sign, solved in walked}
    for mask, idx in enumerate(supports(n)):
        comp = [j for j in range(n) if j not in idx]
        sub_det = cofactor_det([[rows[i][j] for j in idx] for i in idx]) if idx else 1
        sign = (sub_det > 0) - (sub_det < 0)
        assert minor_sign(matrix, idx) == sign
        status, xi = "unique", []
        if idx:
            status, xi = solve_linear(matrix.principal_submatrix(idx), [-q[i] for i in idx])
        if sub_det == 0:
            # Singular: yielded with sign 0 and solved None when
            # consistent, not at all otherwise.
            assert status != "unique"
            assert records.get(mask, "absent") == ("absent" if status == "inconsistent" else (0, None))
            continue
        assert status == "unique"
        assert records[mask][0] == sign
        d, y, w_signs = records[mask][1]
        assert d > 0
        assert [Fraction(v, d) for v in y] == xi
        x = [Fraction(0)] * n
        for pos, i in enumerate(idx):
            x[i] = xi[pos]
        w = [wi + qi for wi, qi in zip(matvec(matrix, x), q)]
        assert len(w_signs) == len(comp)
        for j, slack in zip(comp, w_signs):
            assert (slack > 0) - (slack < 0) == (w[j] > 0) - (w[j] < 0)


def test_supports_enumerate_every_mask_once_in_order():
    seen = list(supports(4))
    assert len(seen) == 16
    for mask, idx in enumerate(seen):
        assert idx == sorted(set(idx)) and set(idx) <= set(range(4))
        assert sum(1 << i for i in idx) == mask


def test_degree_sized_right_hand_sides_stay_exact():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 7)
        rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(n)] for _ in range(n)]
        rhs = [Fraction(rng.randint(-(10 ** 7), 10 ** 7)) for _ in range(n)]
        det, work, _ = _kernel_solve(rows, rhs)
        status, x = solve_linear(RationalMatrix(rows), rhs)
        if det == 0:
            assert status != "unique" and cofactor_det(rows) == 0
        else:
            assert [row[-1] for row in work] == [det * v for v in x]


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
