"""Matrix-class predicates and the three-valued Q oracle."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from helpers import principal_minors
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
from lcpq.generate import generate
from lcpq.lcp import LcpInstance, solve_lcp
from lcpq.matrices import RationalMatrix, vec_to_fractions
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
    m = RationalMatrix([[1, -1], [1, 0]])
    v = is_S(m)
    assert v.is_yes
    x = vec_to_fractions(v.data["x"])
    assert all(t > 0 for t in x)
    assert all(t > 0 for t in m.matvec(x))


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
