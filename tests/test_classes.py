"""Matrix-class predicates and the three-valued Q oracle."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    RationalSystem,
    check_lcp_solution,
    cofactor_det,
    count_calls,
    identity,
    matvec,
    principal_minors,
    reference_is_R0,
    reference_q_oracle,
    reference_solve_lcp,
    reference_witness_candidates,
)
from lcpq import classes, lcp
from lcpq.classes import (
    NO,
    UNDECIDED,
    YES,
    _witness_candidates,
    is_E,
    is_E0,
    is_P,
    is_R0,
    is_Rd,
    is_Rstar,
    is_S,
    q_oracle,
)
from lcpq.classifier import classify_by_rules
from lcpq.errors import CertificateError, EnumerationCapError
from lcpq.generate import GENERATOR_TYPES, generate
from lcpq.lcp import LcpInstance, degree, integer_system, is_solvable, solve_lcp, supports, walk
from lcpq.matrices import RationalMatrix, determinant, vec_to_fractions
from lcpq.simplex import solve_feasibility


def _mixed_corpus():
    out = [
        RationalMatrix([[1, -1], [1, 0]]),
        RationalMatrix([[-1, 2], [1, -1]]),
        RationalMatrix([[2, -1], [-1, 2]]),
        RationalMatrix([[0, 1], [0, 1]]),
        RationalMatrix([[1, 5], [0, 1]]),
    ]
    for kind in ("tri", "bdsw-2", "bdsw-3", "bdsw-4", "2x2"):
        out.extend(generate(kind, 3 if kind not in ("2x2",) else 2, 4, seed=11))
    return out


def _violates_semimonotone(matrix, x, strict):
    """x is a failure witness: (Ax)_i < 0 (or <= 0) on all of supp x."""
    xv = vec_to_fractions(x)
    assert all(v >= 0 for v in xv) and any(v > 0 for v in xv)
    ax = matvec(matrix, xv)
    for i, v in enumerate(xv):
        if v > 0:
            if strict:
                assert ax[i] <= 0
            else:
                assert ax[i] < 0
    return True


def test_r0_identity_yes():
    assert is_R0(identity(3)).is_yes


def test_r0_no_despite_nonsingularity():
    # det is -1, yet LCP(A, 0) has the nonzero solution below.
    m = RationalMatrix([[0, 1], [1, 5]])
    v = is_R0(m)
    assert v.is_no
    x = vec_to_fractions(v.data["x"])
    assert any(t > 0 for t in x)
    ax = matvec(m, x)
    assert all(t >= 0 for t in x) and all(t >= 0 for t in ax)
    assert sum(a * b for a, b in zip(x, ax)) == 0


def _has_nonzero_homogeneous_solution(m):
    """Support enumeration with a pinned coordinate instead of a sum
    normalisation; independent of the route is_R0 takes."""
    n = m.n
    rows = m.rows
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        comp = [j for j in range(n) if j not in idx]
        for pinned in idx:
            system = RationalSystem(len(idx))
            for i in idx:
                system.add_eq([rows[i][j] for j in idx], 0)
            system.add_eq(
                [Fraction(1) if j == pinned else Fraction(0) for j in idx], 1
            )
            for j in comp:
                system.add_ge([rows[j][i] for i in idx], 0)
            if solve_feasibility(system.integer()) is not None:
                return True
    return False


def test_r0_matches_independent_enumeration():
    for m in _mixed_corpus():
        verdict = is_R0(m)
        assert verdict.is_yes == (not _has_nonzero_homogeneous_solution(m))
        if verdict.is_yes:
            sols = solve_lcp(LcpInstance(m, [0] * m.n))
            assert all(all(v == 0 for v in sol.x) for sol in sols)


def test_rd_identity_yes():
    v = is_Rd(identity(2), [1, 1])
    assert v.is_yes and v.data["d"] == [Fraction(1), Fraction(1)]


def test_rd_no_with_pinned_witness():
    v = is_Rd(RationalMatrix([[-1, 2], [1, -1]]), [1, 1])
    assert v.is_no
    assert v.data["x"] == [Fraction(1), Fraction(0)]


def test_rd_type4_fixture_witness():
    m = RationalMatrix([[-1, 1, 0], [0, -1, 1], [-2, 0, 1]])
    v = is_Rd(m, [1, 1, 1])
    assert v.is_no
    assert v.data["x"] == [Fraction(0), Fraction(1), Fraction(0)]
    # The witness really solves LCP(A, d).
    x = v.data["x"]
    w = [a + 1 for a in matvec(m, x)]
    assert all(t >= 0 for t in w)
    assert sum(a * b for a, b in zip(x, w)) == 0


def test_rd_rejects_bad_direction():
    with pytest.raises(ValueError):
        is_Rd(identity(2), [1, 0])
    with pytest.raises(ValueError):
        is_Rd(identity(2), [1])


def test_e0_negative_diagonal_no():
    v = is_E0(RationalMatrix([[-1, 0], [0, -1]]))
    assert v.is_no
    assert _violates_semimonotone(
        RationalMatrix([[-1, 0], [0, -1]]), v.data["x"], strict=False
    )


def test_e0_nonnegative_matrix_yes():
    assert is_E0(RationalMatrix([[1, 2], [0, 3]])).is_yes


def test_e_fixture_no_with_valid_witness():
    m = RationalMatrix([[1, -1], [1, 0]])
    v = is_E(m)
    assert v.is_no
    assert _violates_semimonotone(m, v.data["x"], strict=True)


def test_e_identity_yes():
    assert is_E(identity(3)).is_yes


def test_s_yes_with_strict_witness():
    fixture = RationalMatrix([[1, -1], [1, 0]])
    assert is_S(fixture).is_yes
    # Fractional rows check the certificate through the integer rows.
    rng = random.Random(11)
    matrices = [fixture]
    for _ in range(40):
        n = rng.randint(1, 5)
        matrices.append(RationalMatrix(
            [[Fraction(rng.randint(-6, 9), rng.randint(1, 7)) for _ in range(n)] for _ in range(n)]
        ))
    for m in matrices:
        v = is_S(m)
        if v.is_yes:
            x = vec_to_fractions(v.data["x"])
            assert all(t > 0 for t in x)
            assert all(t > 0 for t in matvec(m, x))


def test_s_certificate_check_rejects_a_point_that_is_not_strict(monkeypatch):
    from lcpq import classes

    # From the LP point 0 the shift gives x = (1/4, 1/4) and Ax = (0, 1/4).
    monkeypatch.setattr(classes, "solve_feasibility", lambda system: [Fraction(0)] * system.n_vars)
    with pytest.raises(CertificateError):
        is_S(RationalMatrix([[1, -1], [1, 0]]))


def test_s_no_for_negative_identity():
    assert is_S(RationalMatrix([[-1, 0], [0, -1]])).is_no


def test_s_takes_the_all_ones_witness_exactly_when_every_row_sum_is_positive(monkeypatch):
    lps = count_calls(monkeypatch, solve_feasibility)
    rng = random.Random(5)
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 4)
        m = RationalMatrix(
            [[Fraction(rng.randint(-4, 6), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        positive_sums = all(sum(row) > 0 for row in m.rows)
        del lps[:]
        v = is_S(m)
        seen.add((positive_sums, v.answer))
        if positive_sums:
            assert v.is_yes and v.data["x"] == [Fraction(1)] * n and lps == []
        else:
            assert len(lps) == 1
            assert v.is_no or v.data["x"] != [Fraction(1)] * n
    # Both branches ran, and the LP branch answered both ways.
    assert seen == {(True, YES), (False, YES), (False, NO)}


def test_p_and_p0_match_minor_enumeration():
    for m in _mixed_corpus():
        minors = [d for _, d in principal_minors(m.rows)]
        assert is_P(m).is_yes == all(d > 0 for d in minors)


def test_p0_but_not_p_fixture():
    m = RationalMatrix([[0, 1], [0, 1]])
    assert all(d >= 0 for _, d in principal_minors(m.rows))
    v = is_P(m)
    assert v.is_no and v.data["indices"] == [1]


def test_rstar_examples():
    assert is_Rstar(RationalMatrix([[1, 5], [0, 1]])).is_yes
    assert is_Rstar(identity(4)).is_yes
    # Solvable for every q, but semimonotonicity fails: not R*.
    v = is_Rstar(RationalMatrix([[-1, 2], [1, -1]]))
    assert v.is_no


def test_q_oracle_yes_fixture():
    v = q_oracle(RationalMatrix([[1, -1], [1, 0]]))
    assert v.is_yes and v.rule == "degree-nonzero"


def test_q_oracle_gives_p_matrices_degree_one_without_sampling(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("a P-matrix needs no R0 or degree walk")

    monkeypatch.setattr(classes, "r0_degree", no_walk)
    for rows in (
        [[2, 1, 1], [0, 3, 1], [1, 0, 2]],  # off the bdsw shape
        [[1, -1, 0], [0, 1, -1], [1, 0, 1]],  # bdsw shape
        [["1/2", 3], ["-1/3", 1]],
    ):
        v = q_oracle(RationalMatrix(rows))
        assert v.to_json_obj() == {
            "answer": "yes",
            "theorem": "degree-nonzero",
            "condition": "R0 with nonzero LCP degree",
            "witness": {"degree": 1},
        }


CAPPED_ENTRIES = {
    "q_oracle": q_oracle,
    "is_R0": is_R0,
    "is_P": is_P,
    "is_E0": is_E0,
    "is_E": is_E,
    "is_Rd": lambda m: is_Rd(m, [1] * m.n),
    "solve_lcp": lambda m: solve_lcp(LcpInstance(m, [-1] * m.n)),
    "is_solvable": lambda m: is_solvable(m, [-1] * m.n),
    "degree": degree,
}


@pytest.mark.parametrize("name", sorted(CAPPED_ENTRIES))
def test_every_enumerating_entry_enforces_the_cap(monkeypatch, name):
    monkeypatch.setenv("LCP_ENUM_CAP", "2")
    with pytest.raises(EnumerationCapError):
        CAPPED_ENTRIES[name](identity(3))
    CAPPED_ENTRIES[name](identity(2))


def test_q_oracle_checks_the_cap_before_the_nonpositive_row_channel():
    rows = [[1 if i == j else 0 for j in range(17)] for i in range(17)]
    rows[0][0] = -1  # row 1 has no positive entry
    with pytest.raises(EnumerationCapError):
        q_oracle(RationalMatrix(rows))


@pytest.mark.parametrize(
    "rows",
    [
        [[2, 1, 1, 0], [0, 3, 1, 1], [1, 0, 2, 1], [1, 1, 0, 4]],  # P: degree 1
        [[1, 2, 1], [1, 1, 0], [0, 0, 1]],  # R0, not P: the degree is walked
        [[1, -1, 1], [0, 1, -1], [1, 0, 0]],  # the witness search decides
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    ],
)
def test_q_oracle_computes_each_principal_minor_at_most_once(monkeypatch, rows):
    dets = count_calls(monkeypatch, determinant)
    matrix = RationalMatrix(rows)
    q_oracle(matrix)
    assert 0 < len(dets) <= 2 ** matrix.n - 1


@pytest.mark.parametrize(
    "rows",
    [
        [[2, 1, 1, 0], [0, 3, 1, 1], [1, 0, 2, 1], [1, 1, 0, 4]],
        [[2, -1], [-1, 2]],
        [[1, 2, 0], [0, 1, 2], [0, 0, 1]],  # triangular, unit diagonal
    ],
)
def test_q_oracle_decides_a_p_matrix_by_its_minors_alone(monkeypatch, rows):
    dets = count_calls(monkeypatch, determinant)
    walks = count_calls(monkeypatch, walk)
    matrix = RationalMatrix(rows)
    v = q_oracle(matrix)
    assert (v.answer, v.rule, v.data) == (YES, "degree-nonzero", {"degree": 1})
    assert walks == []  # neither an R0 scan nor a degree
    assert len(dets) == 2 ** matrix.n - 1  # every minor, each once


def _oracle_corpus():
    """The mixed corpus plus seeded dense and diagonally dominant matrices:
    P and not P, S and not S, R0 and not R0."""
    rng = random.Random(7)
    out = [m.rows for m in _mixed_corpus()]
    out.append([[1, 2, 1], [1, 1, 0], [0, 0, 1]])  # R0, not P: the walked degree
    out.append([[1, -1, 1], [0, 1, -1], [1, 0, 0]])  # the witness search decides
    for n in (2, 3, 3, 4, 4, 5):
        out.append([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        dominant = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            dominant[i][i] = 2 * n + 1
        out.append(dominant)
    return out


def _minor_signs_by_cofactor(matrix):
    """mask -> sgn det A_II for every principal minor, the empty one 1."""
    n = matrix.n
    rows = matrix.rows
    signs = {0: 1}
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        det = cofactor_det([[rows[i][j] for j in idx] for i in idx])
        signs[mask] = (det > 0) - (det < 0)
    return signs


def _first_nonpositive_minor_mask(matrix):
    """The bitmask of the first principal minor <= 0 in bitmask order, or
    2^n - 1 for a P-matrix: the number of minors is_P computes."""
    signs = _minor_signs_by_cofactor(matrix)
    full = (1 << matrix.n) - 1
    return next((mask for mask in range(1, full) if signs[mask] <= 0), full)


def _p_scan_corpus():
    """Seeded n = 7 and 8 matrices: dense with a positive diagonal;
    diagonally dominant (P); dominant with a nonpositive minor on the last
    two indices, the 2^(n-2) * 3-th in bitmask order; dominant with its
    last row zero (P0, not P)."""
    rng = random.Random(29)
    out = []
    for n in (7, 8, 8):
        dense = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        dominant = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            dense[i][i] = rng.randint(1, 5)
            dominant[i][i] = sum(abs(v) for v in dominant[i]) - abs(dominant[i][i]) + rng.randint(1, 5)
        late = [list(row) for row in dominant]
        late[n - 2][n - 1] = late[n - 1][n - 2] = max(late[n - 2][n - 2], late[n - 1][n - 1])
        zero_row = [list(row) for row in dominant]
        zero_row[n - 1] = [0] * n
        out += [dense, dominant, late, zero_row]
    return out


def test_is_P_and_is_P0_match_the_cofactor_minor_signs_at_n_7_and_8():
    outcomes = set()
    for rows in _p_scan_corpus():
        matrix = RationalMatrix(rows)
        signs = _minor_signs_by_cofactor(matrix)
        first = next((mask for mask in range(1, 1 << matrix.n) if signs[mask] <= 0), None)
        verdict = is_P(matrix)
        if first is None:
            assert verdict.is_yes
        else:
            assert verdict.is_no
            assert verdict.data["indices"] == [i + 1 for i in range(matrix.n) if first >> i & 1]
        outcomes.add((verdict.answer, first is not None and first >= 1 << (matrix.n - 2)))
    # P-matrices, and scans that fail on a minor past the first 2^(n-2).
    assert {(YES, False), (NO, True)} <= outcomes


def test_q_oracle_matches_the_r0_first_reference_and_reads_r0_minors_from_the_walk(monkeypatch):
    dets = count_calls(monkeypatch, determinant)
    walks = []  # (lex, records) per walk, the witness search's included
    real_walk = lcp.walk

    def recorded_walk(rows, lex=False):
        records = []
        walks.append((lex, records))
        for record in real_walk(rows, lex):
            records.append(record)
            yield record

    monkeypatch.setattr(lcp, "walk", recorded_walk)
    r0_dets = []
    r0_degree = classes.r0_degree

    def counted_r0_degree(matrix):
        before = len(dets)
        result = r0_degree(matrix)
        r0_dets.append(len(dets) - before)
        return result

    monkeypatch.setattr(classes, "r0_degree", counted_r0_degree)
    rules = set()
    r0_runs = 0
    for rows in _oracle_corpus():
        expected = reference_q_oracle(RationalMatrix(rows), budget=16)
        matrix = RationalMatrix(rows)
        del dets[:], r0_dets[:], walks[:]
        got = q_oracle(matrix, budget=16)
        assert got == expected
        rules.add(got.rule)
        # The P path computes one determinant per minor it visits, and
        # the R0 and degree walk computes none: it leaves every minor's sign.
        if got.rule in ("nonpositive-row", "not-S"):
            assert dets == []
        else:
            assert len(dets) == _first_nonpositive_minor_mask(matrix)
        assert r0_dets in ([], [0])
        r0_runs += len(r0_dets)
        # Every record of every walk carries its support's minor sign, and
        # the one lexicographic walk, at q = 0, yields all 2^n supports.
        truth = _minor_signs_by_cofactor(matrix)
        for _, records in walks:
            assert all(truth[mask] == sign for mask, _, _, sign, _ in records)
        lex_walks = [records for lex, records in walks if lex]
        assert len(lex_walks) == len(r0_dets)
        for records in lex_walks:
            assert {mask: sign for mask, _, _, sign, _ in records} == truth
    assert {"not-S", "degree-nonzero", "unsolvable-q", "bdsw-not-R0"} <= rules, rules
    assert r0_runs >= 5, r0_runs


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, 1], [1, 1, 0], [0, 0, 1]],  # degree 1, off the bdsw shape
        [[-1, 2], [1, -1]],  # degree -1
        [[-1, 1], [0, 1]],  # degree 0 on the bdsw shape: not Q
    ],
)
def test_q_oracle_walks_a_non_p_r0_matrix_once(monkeypatch, rows):
    # R0 and the degree come from one walk of LCP(A, 0): nothing is sampled,
    # and a verdict from the degree needs no further walk.
    assert is_P(RationalMatrix(rows)).is_no and is_R0(RationalMatrix(rows)).is_yes
    walks = count_calls(monkeypatch, walk)
    verdict = q_oracle(RationalMatrix(rows))
    assert len(walks) == 1
    assert verdict == reference_q_oracle(RationalMatrix(rows))


def test_determinant_counts_of_is_R0_degree_and_is_P(monkeypatch):
    dets = count_calls(monkeypatch, determinant)
    matrix = RationalMatrix([[2, 1, 1], [0, 3, 1], [1, 0, 2]])
    assert is_R0(matrix).is_yes and degree(matrix) == 1
    assert dets == []  # the walk of LCP(A, 0) reads each sign from a pivot
    # The P scan takes one determinant per nonempty minor, each call
    # afresh: nothing is kept on the matrix between calls.
    minors = 2 ** matrix.n - 1
    assert is_P(matrix).is_yes and len(dets) == minors
    assert is_P(matrix).is_yes and len(dets) == 2 * minors
    del dets[:]
    assert is_P(matrix.principal_submatrix([0, 1])).is_yes and len(dets) == 3


def test_is_P_passes_each_principal_block_to_determinant_in_bitmask_order(monkeypatch):
    """The blocks is_P hands to matrices.determinant, which perfbench's
    tracer counts: A_II for every nonempty support I in bitmask order, up
    to and including the first minor that is not positive."""
    rng = random.Random(31)
    n = 6
    dominant = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        dominant[i][i] = sum(abs(v) for v in dominant[i]) - abs(dominant[i][i]) + rng.randint(1, 5)
    # The minor on the last two indices is d1 d2 - max(d1, d2)^2 <= 0, and
    # every support before it keeps at most one of the two changed rows,
    # whose changed entry it leaves out: still dominant, still positive.
    late = [list(row) for row in dominant]
    late[n - 2][n - 1] = late[n - 1][n - 2] = max(late[n - 2][n - 2], late[n - 1][n - 1])
    blocks = count_calls(monkeypatch, determinant)
    for rows, last in ((dominant, (1 << n) - 1), (late, 3 << (n - 2))):
        matrix = RationalMatrix(rows)
        del blocks[:]
        verdict = is_P(matrix)
        if rows is dominant:
            assert verdict.is_yes
        else:
            assert verdict.is_no and verdict.data["indices"] == [n - 1, n]
        expected = [matrix.principal_submatrix(idx) for idx in list(supports(n))[1 : last + 1]]
        assert blocks == [(block,) for block in expected]


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, 1], [1, 1, 0], [0, 0, 1]],  # R0
        [[1, -1, 0], [-1, 1, 0], [0, 0, 1]],  # not R0: x = (1, 1, 0)
        [[0, 1], [1, 0]],  # not R0: x = (1, 0)
    ],
)
def test_is_R0_and_is_Rstar_walk_once_without_the_lex_columns(monkeypatch, rows):
    matrix = RationalMatrix(rows)
    expected = classes.r0_degree(matrix)[0]
    lex_flags = []

    def recorded(rows, lex=False):
        lex_flags.append(lex)
        return walk(rows, lex)

    monkeypatch.setattr(classes, "walk", recorded)
    monkeypatch.setattr(lcp, "walk", recorded)
    assert is_R0(matrix) == expected
    assert lex_flags == [False]
    is_Rstar(matrix)
    assert lex_flags == [False, False]


def test_is_R0_matches_the_per_minor_reference_on_the_small_census():
    """Every 3x3 matrix with entries in {-1, 0, 1}: the walk finds the
    reference scan's answer and, on a NO, its witness x."""
    nos = 0
    for entries in itertools.product((-1, 0, 1), repeat=9):
        rows = [entries[0:3], entries[3:6], entries[6:9]]
        got = is_R0(RationalMatrix(rows))
        assert got == reference_is_R0(RationalMatrix(rows)), rows
        nos += got.is_no
    assert nos == 10163


@st.composite
def sparse_rational_matrices(draw):
    n = draw(st.integers(1, 5))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.just(Fraction(0)),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
    )
    return RationalMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])


@settings(max_examples=300, deadline=None)
@given(sparse_rational_matrices())
def test_is_R0_matches_the_per_minor_reference_on_sparse_rational_matrices(matrix):
    got = is_R0(matrix)
    assert got == reference_is_R0(RationalMatrix(matrix.rows))
    # is_R0's walk of LCP(A, 0) yields every support, with its minor's sign.
    walked = walk(integer_system(matrix, [0] * matrix.n)[1], lex=True)
    signs = {mask: sign for mask, _, _, sign, _ in walked}
    assert signs == _minor_signs_by_cofactor(matrix)
    if got.is_no:
        assert check_lcp_solution(matrix, [0] * matrix.n, got.data["x"])
        assert any(got.data["x"])


def test_q_oracle_unsolvable_witness():
    m = RationalMatrix([[1, -1, 1], [0, 1, -1], [1, 0, 0]])
    v = q_oracle(m)
    assert v.is_no and v.rule == "unsolvable-q"
    assert v.data["q"] == [Fraction(0), Fraction(0), Fraction(-1)]
    assert not solve_lcp(LcpInstance(m, v.data["q"]))


def test_q_oracle_nonpositive_row():
    v = q_oracle(RationalMatrix([[-1, 0], [0, -1]]))
    assert v.is_no and v.rule == "nonpositive-row" and v.data["row"] == 1


def test_q_oracle_undecided_then_decided_by_budget():
    m = RationalMatrix([[1, 1, -1], [1, 1, 1], [-1, 1, 1]])
    low = q_oracle(m, budget=0)
    assert low.answer == UNDECIDED and low.rule == "undecided"
    full = q_oracle(m)
    assert full.is_no and full.rule == "unsolvable-q"
    assert full.data["q"] == [Fraction(-1), Fraction(0), Fraction(0)]


def test_q_oracle_seed_independent_answers():
    for m in (
        RationalMatrix([[1, -1], [1, 0]]),
        RationalMatrix([[-1, 2], [1, -1]]),
        RationalMatrix([[1, -1, 1], [0, 1, -1], [1, 0, 0]]),
    ):
        answers = {q_oracle(m, rng_seed=s).answer for s in (0, 1, 2)}
        assert len(answers) == 1


def test_class_chain_on_corpus():
    ones = None
    for m in _mixed_corpus():
        ones = [1] * m.n
        if is_P(m).is_yes:
            assert is_E(m).is_yes
            assert is_R0(m).is_yes
            assert is_Rd(m, ones).is_yes
        if is_E(m).is_yes:
            assert is_E0(m).is_yes
        if is_Rstar(m).is_yes:
            assert is_R0(m).is_yes and is_E0(m).is_yes
        verdict = q_oracle(m, budget=16)
        if verdict.is_yes:
            assert is_S(m).is_yes
        if all(d >= 0 for _, d in principal_minors(m.rows)):  # P0
            assert verdict.answer in (YES, NO)
            assert verdict.is_yes == is_R0(m).is_yes


def test_verdict_json_shape():
    v = q_oracle(RationalMatrix([[-1, 0], [0, -1]]))
    obj = v.to_json_obj()
    assert set(obj) == {"answer", "theorem", "condition", "witness"}
    assert obj["answer"] == NO and obj["theorem"] == "nonpositive-row"


def _direction(vec):
    """q scaled to largest absolute entry 1: equal exactly for positive
    multiples of one another."""
    top = max(abs(v) for v in vec)
    return tuple(v / top for v in vec)


def _eager_witness_candidates(n, budget, rng_seed):
    """The witness order written out eagerly: all 3^n corners built and
    sorted, then random draws, keeping the first vector of each ray."""
    seen = set()
    out = []

    def emit(vec):
        key = _direction(vec)
        if key not in seen and len(out) < budget:
            seen.add(key)
            out.append(list(vec))

    for i in range(n):
        for rest in (0, 1):
            vec = [Fraction(rest)] * n
            vec[i] = Fraction(-1)
            emit(vec)
    corners = [c for c in itertools.product((-1, 0, 1), repeat=n) if min(c) < 0]
    corners.sort(key=lambda c: (sum(1 for v in c if v < 0), c))
    for combo in corners:
        emit([Fraction(v) for v in combo])
    rng = random.Random(rng_seed)
    while len(out) < budget:
        vec = [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n)]
        if any(v < 0 for v in vec):
            emit(vec)
    return out


@pytest.mark.parametrize("n", range(2, 7))
def test_witness_candidates_equal_the_stream_that_built_fractions_first(n):
    for seed in (0, 3, -2):
        for budget in (-1, 0, 1, 7, 64, 300):
            got = list(_witness_candidates(n, budget, seed))
            assert got == list(reference_witness_candidates(n, budget, seed))
            assert all(type(v) is Fraction for q in got for v in q)
    # Long enough for the rays to run out and the stale rule to end it.
    assert list(_witness_candidates(2, 3000, 1)) == list(reference_witness_candidates(2, 3000, 1))


def test_witness_candidates_keep_the_sorted_corner_order():
    for n in range(2, 7):
        for seed in (0, 5):
            assert list(_witness_candidates(n, 200, seed)) == _eager_witness_candidates(n, 200, seed)


@pytest.mark.parametrize("n, budget", [(1, 64), (2, 5000)])
def test_witness_candidates_end_when_the_rays_run_out(n, budget):
    got = list(_witness_candidates(n, budget, 0))
    assert 0 < len(got) < budget
    assert all(min(q) < 0 for q in got)
    # no candidate is a positive multiple of another
    assert len({_direction(q) for q in got}) == len(got)


def test_witness_candidates_budget_zero_or_negative_yields_nothing():
    for budget in (0, -1, -64):
        assert list(_witness_candidates(3, budget, 0)) == []
    m = RationalMatrix([[1, 1, -1], [1, 1, 1], [-1, 1, 1]])
    assert q_oracle(m, budget=-5) == q_oracle(m, budget=0)
    assert q_oracle(m, budget=-5).answer == UNDECIDED


def test_q_oracle_finds_the_unsolvable_q_past_the_phase_one_rays():
    m = RationalMatrix([[-1, 1, 1], [1, 0, -1], [1, 1, -1]])
    v = q_oracle(m)
    assert v.is_no and v.rule == "unsolvable-q"
    assert v.data["q"] == [Fraction(-11, 4), Fraction(5, 2), Fraction(12)]
    assert reference_solve_lcp(m, v.data["q"]) == []


def test_rules_and_oracle_decide_the_whole_small_census_alike():
    """Every 3x3 matrix with entries in {-1, 0, 1}: the oracle decides each
    one, and never against a structural rule."""
    undecided = []
    contradictions = []
    for entries in itertools.product((-1, 0, 1), repeat=9):
        m = RationalMatrix([entries[0:3], entries[3:6], entries[6:9]])
        oracle = q_oracle(m)
        rules = classify_by_rules(m)
        if oracle.answer == UNDECIDED:
            undecided.append(m.rows)
        elif rules is not None and rules.answer != oracle.answer:
            contradictions.append(m.rows)
    assert undecided == [] and contradictions == []


def test_witness_candidates_memory_does_not_grow_with_three_to_the_n():
    tracemalloc.start()
    try:
        got = list(_witness_candidates(12, 64, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got) == 64
    assert peak < 2 * 1024 * 1024


@st.composite
def degenerate_matrices(draw):
    """Small matrices, structured or not, often damaged on purpose: a zero
    row or column, a repeated row, or a singular 2x2 principal block."""
    n = draw(st.integers(2, 4))
    family = draw(st.sampled_from(("random",) + GENERATOR_TYPES))
    if family == "random":
        rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    else:
        rows = [list(r) for r in generate(family, n, 1, draw(st.integers(0, 10 ** 6)))[0].rows]
        n = len(rows)
    a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    damage = draw(st.sampled_from(["none", "zero-row", "zero-column", "repeat-row", "singular-block"]))
    if damage == "zero-row":
        rows[a] = [0] * n
    elif damage == "zero-column":
        for row in rows:
            row[a] = 0
    elif damage == "repeat-row":
        rows[a] = list(rows[b])
    elif damage == "singular-block":
        rows[a][a], rows[a][b] = rows[b][a], rows[b][b]
    return RationalMatrix(rows)


@settings(max_examples=200, deadline=None)
@given(degenerate_matrices())
def test_lp_certificates_and_rules_on_degenerate_matrices(m):
    n = m.n
    r0 = is_R0(m)
    if r0.is_no:
        x = r0.data["x"]
        assert any(v != 0 for v in x)
        assert check_lcp_solution(m, [0] * n, x)
    s = is_S(m)
    if s.is_yes:
        x = s.data["x"]
        assert all(v > 0 for v in x)
        assert all(sum((a * v for a, v in zip(row, x)), Fraction(0)) > 0 for row in m.rows)
    rules = classify_by_rules(m)
    oracle = q_oracle(m)
    if rules is not None and oracle.answer != UNDECIDED:
        assert rules.answer == oracle.answer
