"""Matrix-class predicates and the three-valued Q oracle."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_lcp_solution, count_calls, principal_minors
from lcpq.classes import (
    NO,
    UNDECIDED,
    YES,
    _witness_candidates,
    is_E,
    is_E0,
    is_P,
    is_P0,
    is_R0,
    is_Rd,
    is_Rstar,
    is_S,
    is_Z,
    q_oracle,
)
from lcpq.classifier import classify_by_rules
from lcpq.errors import CertificateError, DegreeSamplingError, EnumerationCapError
from lcpq.generate import GENERATOR_TYPES, generate
from lcpq.lcp import LcpInstance, degree, is_solvable, solve_lcp
from lcpq.matrices import RationalMatrix, determinant, vec_to_fractions
from lcpq.simplex import FeasibilitySystem, solve_feasibility


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
    ax = matrix.matvec(xv)
    for i, v in enumerate(xv):
        if v > 0:
            if strict:
                assert ax[i] <= 0
            else:
                assert ax[i] < 0
    return True


def test_r0_identity_yes():
    assert is_R0(RationalMatrix.identity(3)).is_yes


def test_r0_no_despite_nonsingularity():
    # det is -1, yet LCP(A, 0) has the nonzero solution below.
    m = RationalMatrix([[0, 1], [1, 5]])
    v = is_R0(m)
    assert v.is_no
    x = vec_to_fractions(v.data["x"])
    assert any(t > 0 for t in x)
    ax = m.matvec(x)
    assert all(t >= 0 for t in x) and all(t >= 0 for t in ax)
    assert sum(a * b for a, b in zip(x, ax)) == 0


def _has_nonzero_homogeneous_solution(m):
    """Support enumeration with a pinned coordinate instead of a sum
    normalisation; independent of the route is_R0 takes."""
    n = m.n
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        comp = [j for j in range(n) if j not in idx]
        for pinned in idx:
            system = FeasibilitySystem(len(idx))
            for i in idx:
                system.add_eq([m.rows[i][j] for j in idx], 0)
            system.add_eq(
                [Fraction(1) if j == pinned else Fraction(0) for j in idx], 1
            )
            for j in comp:
                system.add_ge([m.rows[j][i] for i in idx], 0)
            if solve_feasibility(system) is not None:
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
    v = is_Rd(RationalMatrix.identity(2), [1, 1])
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
    w = [a + 1 for a in m.matvec(x)]
    assert all(t >= 0 for t in w)
    assert sum(a * b for a, b in zip(x, w)) == 0


def test_rd_rejects_bad_direction():
    with pytest.raises(ValueError):
        is_Rd(RationalMatrix.identity(2), [1, 0])
    with pytest.raises(ValueError):
        is_Rd(RationalMatrix.identity(2), [1])


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
    assert is_E(RationalMatrix.identity(3)).is_yes


def test_s_yes_with_strict_witness():
    fixture = RationalMatrix([[1, -1], [1, 0]])
    assert is_S(fixture).is_yes
    # Fractional rows check the certificate through the row-scaled integers.
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
            assert all(t > 0 for t in m.matvec(x))


def test_s_certificate_check_rejects_a_point_that_is_not_strict(monkeypatch):
    from lcpq import classes

    # From the LP point 0 the shift gives x = (1/4, 1/4) and Ax = (0, 1/4).
    monkeypatch.setattr(classes, "solve_feasibility", lambda system: [Fraction(0)] * system.n_vars)
    with pytest.raises(CertificateError):
        is_S(RationalMatrix([[1, -1], [1, 0]]))


def test_s_no_for_negative_identity():
    assert is_S(RationalMatrix([[-1, 0], [0, -1]])).is_no


def test_p_and_p0_match_minor_enumeration():
    for m in _mixed_corpus():
        minors = [d for _, d in principal_minors(m.rows)]
        assert is_P(m).is_yes == all(d > 0 for d in minors)
        assert is_P0(m).is_yes == all(d >= 0 for d in minors)


def test_p0_but_not_p_fixture():
    m = RationalMatrix([[0, 1], [0, 1]])
    assert is_P0(m).is_yes
    v = is_P(m)
    assert v.is_no and v.data["indices"] == [1]


def test_z_sign_checks():
    assert is_Z(RationalMatrix([[2, -1], [-1, 2]])).is_yes
    v = is_Z(RationalMatrix([[1, 3], [0, 1]]))
    assert v.is_no and v.data["at"] == [1, 2]


def test_rstar_examples():
    assert is_Rstar(RationalMatrix([[1, 5], [0, 1]])).is_yes
    assert is_Rstar(RationalMatrix.identity(4)).is_yes
    # Solvable for every q, but semimonotonicity fails: not R*.
    v = is_Rstar(RationalMatrix([[-1, 2], [1, -1]]))
    assert v.is_no


def test_q_oracle_yes_fixture():
    v = q_oracle(RationalMatrix([[1, -1], [1, 0]]))
    assert v.is_yes and v.rule == "degree-nonzero"


def test_q_oracle_r_star_channel_runs_r0_once(monkeypatch):
    # With the degree unsampleable, R0 = yes sends q_oracle to the R* channel,
    # where only E0 is left to check.
    from lcpq import classes

    def no_generic_q(*args, **kwargs):
        raise DegreeSamplingError("forced")

    runs = []

    def counted_r0(*args, **kwargs):
        runs.append(args)
        return is_R0(*args, **kwargs)

    monkeypatch.setattr(classes, "degree", no_generic_q)
    monkeypatch.setattr(classes, "is_R0", counted_r0)
    # Nonnegative with a positive diagonal (so R0 and E0), but the {1, 2}
    # minor is -1: not P, so the degree is sampled.  The (1, 3) entry keeps
    # it off the bdsw shape.
    v = q_oracle(RationalMatrix([[1, 2, 1], [1, 1, 0], [0, 0, 1]]))
    assert v.to_json_obj() == {
        "answer": "yes",
        "theorem": "R-star",
        "condition": "R0 and E0 hold",
        "witness": {},
    }
    assert len(runs) == 1


def test_q_oracle_gives_p_matrices_degree_one_without_sampling(monkeypatch):
    from lcpq import classes

    def no_degree(*args, **kwargs):
        raise AssertionError("a P-matrix needs no degree sample")

    monkeypatch.setattr(classes, "degree", no_degree)
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
    "is_P0": is_P0,
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
        CAPPED_ENTRIES[name](RationalMatrix.identity(3))
    CAPPED_ENTRIES[name](RationalMatrix.identity(2))


def test_q_oracle_checks_the_cap_before_the_nonpositive_row_channel():
    rows = [[1 if i == j else 0 for j in range(17)] for i in range(17)]
    rows[0][0] = -1  # row 1 has no positive entry
    with pytest.raises(EnumerationCapError):
        q_oracle(RationalMatrix(rows))


@pytest.mark.parametrize(
    "rows",
    [
        [[2, 1, 1, 0], [0, 3, 1, 1], [1, 0, 2, 1], [1, 1, 0, 4]],  # P: degree 1
        [[1, 2, 1], [1, 1, 0], [0, 0, 1]],  # R0, not P: the degree is sampled
        [[1, -1, 1], [0, 1, -1], [1, 0, 0]],  # the witness search decides
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    ],
)
def test_q_oracle_computes_each_principal_minor_at_most_once(monkeypatch, rows):
    dets = count_calls(monkeypatch, determinant)
    matrix = RationalMatrix(rows)
    q_oracle(matrix)
    assert 0 < len(dets) <= 2 ** matrix.n - 1


def test_predicates_share_the_matrixs_minor_memo(monkeypatch):
    dets = count_calls(monkeypatch, determinant)
    matrix = RationalMatrix([[2, 1, 1], [0, 3, 1], [1, 0, 2]])
    assert is_R0(matrix).is_yes
    assert len(dets) == 2 ** matrix.n - 1
    del dets[:]
    assert is_P(matrix).is_yes and is_P0(matrix).is_yes
    assert degree(matrix) == 1
    assert dets == []
    # A submatrix, or an equal matrix built again, starts a memo of its own.
    block = matrix.principal_submatrix([0, 1])
    assert block.minor_signs() == {0: 1}
    assert is_P(block).is_yes and len(dets) == 3
    assert RationalMatrix(matrix.rows).minor_signs() == {0: 1}


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
        if is_P0(m).is_yes:
            assert verdict.answer in (YES, NO)
            assert verdict.is_yes == is_R0(m).is_yes


def test_verdict_json_shape():
    v = q_oracle(RationalMatrix([[-1, 0], [0, -1]]))
    obj = v.to_json_obj()
    assert set(obj) == {"answer", "theorem", "condition", "witness"}
    assert obj["answer"] == NO and obj["theorem"] == "nonpositive-row"


def _eager_witness_candidates(n, budget, rng_seed):
    """The witness order as first written: all 3^n corners built and sorted."""
    seen = set()
    out = []

    def emit(vec):
        key = tuple(vec)
        if key not in seen and len(out) < budget:
            seen.add(key)
            out.append(list(key))

    for scale in (1, 2):
        for i in range(n):
            for rest in (0, 1):
                vec = [Fraction(scale * rest)] * n
                vec[i] = Fraction(-scale)
                emit(vec)
    corners = [c for c in itertools.product((-1, 0, 1), repeat=n) if min(c) < 0]
    corners.sort(key=lambda c: (sum(1 for v in c if v < 0), c))
    for scale in (1, 2):
        for combo in corners:
            emit([Fraction(scale * v) for v in combo])
    rng = random.Random(rng_seed)
    while len(out) < budget:
        vec = [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n)]
        if any(v < 0 for v in vec):
            emit(vec)
    return out


def test_witness_candidates_keep_the_sorted_corner_order():
    for n in range(2, 7):
        for seed in (0, 5):
            assert list(_witness_candidates(n, 200, seed)) == _eager_witness_candidates(n, 200, seed)


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
