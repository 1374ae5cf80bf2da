"""Support-enumeration LCP solving and the lexicographic degree."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    check_lcp_solution,
    count_calls,
    identity,
    principal_minors,
    reference_degree,
    reference_generic_degree,
    reference_lex_walk,
    reference_solve_lcp,
)
from lcpq import lcp
from lcpq.classes import is_R0
from lcpq.errors import EnumerationCapError
from lcpq.lcp import (
    DEFAULT_ENUM_CAP,
    LcpInstance,
    degree,
    enumeration_cap,
    is_solvable,
    solve_lcp,
    walk,
)
from lcpq.matrices import RationalMatrix, determinant, inverse, solve_linear
from lcpq.simplex import solve_feasibility


def _solve_2x2_by_formula(matrix, q):
    """Independent 2x2 enumeration with explicit closed forms.

    Only valid when all principal submatrices are nonsingular, which the
    caller guarantees.
    """
    a, b = matrix.rows[0]
    c, d = matrix.rows[1]
    q1, q2 = Fraction(q[0]), Fraction(q[1])
    out = set()
    if q1 >= 0 and q2 >= 0:
        out.add((Fraction(0), Fraction(0)))
    x1 = -q1 / a
    if x1 >= 0 and c * x1 + q2 >= 0:
        out.add((x1, Fraction(0)))
    x2 = -q2 / d
    if x2 >= 0 and b * x2 + q1 >= 0:
        out.add((Fraction(0), x2))
    det = a * d - b * c
    x1 = (-d * q1 + b * q2) / det
    x2 = (c * q1 - a * q2) / det
    if x1 >= 0 and x2 >= 0:
        out.add((x1, x2))
    return out


def test_solutions_satisfy_definition_exactly():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = RationalMatrix(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        )
        q = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        for sol in solve_lcp(LcpInstance(m, q)):
            assert check_lcp_solution(m, q, sol.x)
            assert sol.support == tuple(
                i + 1 for i in range(n) if sol.x[i] > 0
            )


def test_enumeration_complete_against_2x2_formulas():
    rng = random.Random(29)
    checked = 0
    while checked < 60:
        m = RationalMatrix(
            [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        )
        if m[0, 0] == 0 or m[1, 1] == 0 or determinant(m) == 0:
            continue
        q = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        expected = _solve_2x2_by_formula(m, q)
        got = {sol.x for sol in solve_lcp(LcpInstance(m, q))}
        assert got == expected
        checked += 1


def test_unsolvable_fixture():
    m = RationalMatrix(
        [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, -1], [1, 0, 0, 0]]
    )
    assert not is_solvable(m, [0, 0, 0, -1])
    assert is_solvable(m, [1, 1, 1, 1])  # x = 0 works for q >= 0


def test_singular_support_family_representative():
    # Every x >= 0 solves LCP([[0]], 0); one representative comes back.
    sols = solve_lcp(LcpInstance(RationalMatrix([[0]]), [0]))
    assert len(sols) == 1
    assert sols[0].x == (Fraction(0),)
    assert sols[0].support == ()
    assert check_lcp_solution(RationalMatrix([[0]]), [0], sols[0].x)


def test_duplicate_vectors_kept_once():
    # Supports {1} and {1,2} of this singular matrix give the same point.
    m = RationalMatrix([[1, -1], [1, -1]])
    sols = solve_lcp(LcpInstance(m, [-1, -1]))
    vectors = [s.x for s in sols]
    assert len(vectors) == len(set(vectors))
    for sol in sols:
        assert check_lcp_solution(m, [-1, -1], sol.x)


def test_instance_validation():
    with pytest.raises(ValueError):
        LcpInstance(identity(2), [1])
    inst = LcpInstance(identity(2), ["1/2", -1])
    assert inst.q == (Fraction(1, 2), Fraction(-1))


def test_enumeration_cap_default_and_override(monkeypatch):
    big = identity(DEFAULT_ENUM_CAP + 1)
    with pytest.raises(EnumerationCapError):
        solve_lcp(LcpInstance(big, [1] * big.n))

    monkeypatch.setenv("LCP_ENUM_CAP", "2")
    assert enumeration_cap() == 2
    with pytest.raises(EnumerationCapError):
        solve_lcp(LcpInstance(identity(3), [1, 1, 1]))

    monkeypatch.setenv("LCP_ENUM_CAP", "not-a-number")
    assert enumeration_cap() == DEFAULT_ENUM_CAP
    monkeypatch.setenv("LCP_ENUM_CAP", "0")
    assert enumeration_cap() == DEFAULT_ENUM_CAP


def test_degree_identity_is_one():
    assert degree(identity(3)) == 1


def test_degree_fixture_negative_one():
    m = RationalMatrix([[-1, 2], [1, -1]])
    assert degree(m) == -1
    # Sanity for the fixture: the inverse is entrywise positive.
    inv = inverse(m)
    assert all(v > 0 for row in inv.rows for v in row)


def test_degree_seed_independent():
    # degree draws nothing; the sampled reference gives its value whatever
    # generic q the seed draws.
    fixtures = [
        RationalMatrix([[-1, 2], [1, -1]]),
        RationalMatrix([[2, -1], [-1, 2]]),
        RationalMatrix([[1, 5], [0, 1]]),
    ]
    for m in fixtures:
        assert {reference_degree(m, rng_seed=s) for s in (0, 1, 2)} == {degree(m)}


def test_degree_one_for_p_matrices():
    for m in (
        RationalMatrix([[2, 1], [0, 3]]),
        RationalMatrix([[3, -1, 0], [0, 2, -1], [0, 0, 1]]),
    ):
        assert degree(m) == 1


@st.composite
def p_matrices(draw):
    """P-matrices of order 1..6: diagonally dominant with a positive
    diagonal, triangular with a positive diagonal, or a positive definite
    symmetric part plus a skew part, each then scaled by positive
    diagonal matrices on both sides."""
    n = draw(st.integers(1, 6))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    b = [[draw(entry) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["dominant", "triangular", "definite"]))
    if kind == "dominant":
        a = [row[:] for row in b]
        for i in range(n):
            a[i][i] = sum(abs(v) for j, v in enumerate(b[i]) if j != i) + draw(st.integers(1, 3))
    elif kind == "triangular":
        a = [[b[i][j] if j > i else Fraction(0) for j in range(n)] for i in range(n)]
        for i in range(n):
            a[i][i] = Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 3)))
    else:  # B^T B + I + (B - B^T): x^T A x = |Bx|^2 + |x|^2 > 0
        a = [
            [sum(b[k][i] * b[k][j] for k in range(n)) + (i == j) + b[i][j] - b[j][i] for j in range(n)]
            for i in range(n)
        ]
    left = [Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3))) for _ in range(n)]
    right = [Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3))) for _ in range(n)]
    return RationalMatrix([[left[i] * a[i][j] * right[j] for j in range(n)] for i in range(n)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p_matrices())
def test_degree_is_one_on_random_p_matrices(m):
    assert all(d > 0 for _, d in principal_minors(m.rows))
    assert degree(m) == 1


def test_degree_matches_the_sampled_reference_on_the_r0_census():
    # Every R0 matrix with entries in {-1, 0, 1} at n = 3.
    checked = 0
    for entries in itertools.product((-1, 0, 1), repeat=9):
        matrix = RationalMatrix([entries[0:3], entries[3:6], entries[6:9]])
        if is_R0(matrix).is_yes:
            assert degree(matrix) == reference_degree(matrix), matrix
            checked += 1
    assert checked == 9520


@st.composite
def rational_r0_matrices(draw):
    """Rational matrices of order 1..5 that are R0."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))
    matrix = RationalMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])
    assume(is_R0(matrix).is_yes)
    return matrix


@settings(max_examples=80, deadline=None, derandomize=True)
@given(rational_r0_matrices())
def test_degree_matches_the_sampled_reference_on_rational_r0_matrices(matrix):
    assert degree(matrix) == reference_degree(matrix)


ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
Q_ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.integers(-(10 ** 6), 10 ** 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)


@st.composite
def walk_cases(draw):
    """(matrix, q) of order 1..6, often with singular supports in the tree:
    zero or repeated rows, a zero a_11 (the first child of the root is
    singular) or a principal block [[0, 1], [1, 0]] (a nonsingular support
    above a singular one)."""
    n = draw(st.integers(1, 6))
    rows = [[Fraction(draw(ENTRIES)) for _ in range(n)] for _ in range(n)]
    damage = draw(st.sampled_from(["none", "zero-row", "repeat-row", "zero-a11", "swap-block"]))
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if damage == "zero-row":
        rows[a] = [Fraction(0)] * n
    elif damage == "repeat-row":
        rows[a] = list(rows[b])
    elif damage == "zero-a11":
        rows[0][0] = Fraction(0)
    elif damage == "swap-block" and a != b:
        rows[a][a] = rows[b][b] = Fraction(0)
        rows[a][b] = rows[b][a] = Fraction(1)
    q = [Fraction(draw(Q_ENTRIES)) for _ in range(n)]
    return RationalMatrix(rows), q


@settings(max_examples=150, deadline=None, derandomize=True)
@given(walk_cases())
def test_support_walk_matches_bitmask_order_references(case):
    matrix, q = case
    reference = reference_solve_lcp(matrix, q)
    assert solve_lcp(LcpInstance(matrix, q)) == reference
    assert is_solvable(matrix, q) == bool(reference)

    # With lex the walk reads each nonsingular support at q(eps) = q +
    # (eps, ..., eps^n).  Where q is generic, q(eps) has the solutions q
    # has, so their sign sums agree.
    lex_records = list(walk(matrix, q, lex=True))
    lex = {mask: solved for mask, _, _, _, solved in lex_records}
    assert lex == reference_lex_walk(matrix, q)
    total = reference_generic_degree(matrix, q)
    if total is not None:
        assert sum(sign for _, _, _, sign, solved in lex_records if solved) == total

    # Every support the walk yields carries its minor's sign, and a
    # support it leaves out is singular with an inconsistent system.
    expected = {}
    for mask in range(1 << matrix.n):
        idx = [i for i in range(matrix.n) if mask >> i & 1]
        det = determinant(matrix.principal_submatrix(idx)) if idx else 1
        if det == 0:
            status, _ = solve_linear(matrix.principal_submatrix(idx), [-q[i] for i in idx])
            if status == "inconsistent":
                continue
        expected[mask] = (det > 0) - (det < 0)
    for records in (list(walk(matrix, q)), lex_records):
        signs = {mask: sign for mask, _, _, sign, _ in records}
        assert len(signs) == len(records)
        assert signs == expected
    # At q = 0 every singular system is consistent, so all 2^n are yielded.
    assert sorted(mask for mask, _, _, _, _ in walk(matrix, [0] * matrix.n)) == list(
        range(1 << matrix.n)
    )


def test_inconsistent_singular_supports_skip_the_lp_and_solve_linear(monkeypatch):
    # A_II x_I = -q_I has no solution on {2} (0 = -1) or on {1, 2}
    # (x_1 = 2 and x_1 = -1), so neither support needs an LP or a rational
    # consistency check; the one solution is x = (2, 0).
    lps = count_calls(monkeypatch, solve_feasibility)
    solves = count_calls(monkeypatch, solve_linear)
    matrix = RationalMatrix([[1, 0], [1, 0]])
    q = [-2, 1]
    assert [sol.x for sol in solve_lcp(LcpInstance(matrix, q))] == [(2, 0)]
    assert sorted((mask, solved) for mask, _, _, _, solved in walk(matrix, q, lex=True)) == [
        (0, False),
        (1, True),
    ]
    assert lps == [] and solves == []

    # With q = (-2, -2) the system on {1, 2} is consistent (x_1 = 2): its
    # family LP still runs, and the lexicographic walk yields it too.
    q = [-2, -2]
    assert solve_lcp(LcpInstance(matrix, q)) == reference_solve_lcp(matrix, q)
    assert len(lps) == 1
    assert (3, None) in [(mask, solved) for mask, _, _, _, solved in walk(matrix, q, lex=True)]


def test_is_solvable_stops_at_the_first_solution(monkeypatch):
    walked = []
    def counted_walk(matrix, q):
        for record in walk(matrix, q):
            walked.append(record[0])
            yield record

    monkeypatch.setattr(lcp, "walk", counted_walk)
    lps = count_calls(monkeypatch, solve_feasibility)

    # q >= 0: the empty support, the walk's root, already solves it.
    matrix = identity(3)
    assert is_solvable(matrix, [1, 2, 3])
    assert walked == [0]
    del walked[:]
    assert len(solve_lcp(LcpInstance(matrix, [1, 2, 3]))) == 1
    assert len(walked) == 8

    # x = (2, 0) solves it on the nonsingular support {1}, so the family LP
    # of the singular support {1, 2}, which solve_lcp runs, is never needed.
    matrix = RationalMatrix([[1, 0], [1, 0]])
    q = [-2, -2]
    assert is_solvable(matrix, q)
    assert lps == []
    assert solve_lcp(LcpInstance(matrix, q))
    assert len(lps) == 1

    # Only the singular support {2} solves it (x_2 >= 1): its LP still runs.
    del lps[:]
    assert is_solvable(RationalMatrix([[0, 1], [0, 0]]), [-1, 0])
    assert len(lps) == 1


def test_zero_pivot_children_of_nonsingular_supports_need_no_elimination(monkeypatch):
    # {1} is nonsingular and the pivot of its child {1, 2} is det A = 0; the
    # parent's tableau already tells whether x_1 + x_2 = -q_1 = -q_2 is
    # consistent.
    eliminations = []
    eliminate = lcp._eliminate

    def counted(rows, idx, p, lex):
        eliminations.append(idx)
        return eliminate(rows, idx, p, lex)

    monkeypatch.setattr(lcp, "_eliminate", counted)
    matrix = RationalMatrix([[1, 1], [1, 1]])
    for q, consistent in (([-1, -1], True), ([-1, -2], False), ([Fraction(1, 2), Fraction(1, 2)], True)):
        for lex in (False, True):
            masks = [mask for mask, _, _, _, _ in walk(matrix, q, lex)]
            assert (3 in masks) == consistent
        assert solve_lcp(LcpInstance(matrix, q)) == reference_solve_lcp(matrix, q)
    assert eliminations == []
