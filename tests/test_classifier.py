"""Structure-specific Q classification rules and the dispatch front door."""

from fractions import Fraction

import pytest

from helpers import (
    census,
    conjugate,
    identity,
    neg,
    reference_classify_by_rules,
    reference_detect_structure,
)
from lcpq.classes import NO, YES, q_oracle
from lcpq.classifier import (
    classify,
    classify_2x2,
    classify_bdsw_type1,
    classify_bdsw_type2,
    classify_bdsw_type3,
    classify_bdsw_type4,
    classify_by_rules,
    classify_triangular,
)
from lcpq.errors import StructureError
from lcpq.generate import GENERATOR_TYPES, generate
from lcpq.lcp import LcpInstance, solve_lcp
from lcpq.matrices import RationalMatrix
from lcpq.structure import (
    BDSW_TYPE_1,
    BDSW_TYPE_2,
    BDSW_TYPE_3,
    BDSW_TYPE_4,
    TRIANGULAR_PLUS_ROW,
    detect_structure,
    is_bdsw_shape,
)

TYPE4 = RationalMatrix([[-1, 1, 0], [0, -1, 1], [-2, 0, 1]])
BIG = RationalMatrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, -1], [1, 0, 0, 0]])


# --- triangular --------------------------------------------------------


def test_triangular_yes():
    v = classify_triangular(RationalMatrix([[1, 7], [0, 2]]))
    assert v.is_yes and v.rule == "T3.1"
    assert v.data["implied_classes"] == ["P", "E", "R*"]


def test_triangular_no_reports_bad_entry():
    v = classify_triangular(RationalMatrix([[-1, 0], [0, -1]]))
    assert v.is_no and v.data == {"diag_index": 1, "diag_value": Fraction(-1)}


def test_triangular_no_zero_diag_certified_by_unsolvable_q():
    m = RationalMatrix([[0, 1], [0, 1]])
    v = classify_triangular(m)
    assert v.is_no and v.data["diag_index"] == 1
    q = [Fraction(1)] * m.n
    q[v.data["diag_index"] - 1] = Fraction(-1)
    assert not solve_lcp(LcpInstance(m, q))


def test_triangular_rejects_dense():
    with pytest.raises(StructureError):
        classify_triangular(RationalMatrix([[1, 2], [3, 4]]))


# --- triangular plus a nonnegative row ---------------------------------


def test_tri_plus_row_yes():
    v = classify(RationalMatrix([[1, 2, 5], [0, 3, -1], [1, 0, 2]]))
    assert v.is_yes and v.rule == "T3.2"


def test_tri_plus_row_no_on_zero_diag():
    v = classify(RationalMatrix([[0, 2, 5], [0, 3, -1], [1, 0, 2]]))
    assert v.is_no and v.rule == "T3.2"
    assert v.data == {"diag_index": 1, "diag_value": Fraction(0)}


def test_tri_plus_row_precondition():
    # T3.2 has no public entry; detect_structure names it only for the form.
    form = RationalMatrix([[1, 2, 5], [0, 3, -1], [1, 0, 2]])
    assert detect_structure(form).rule == TRIANGULAR_PLUS_ROW
    assert detect_structure(RationalMatrix([[1, -1, 1], [0, 1, -1], [1, 0, 0]])).rule is None


def test_unstructured_falls_back_to_oracle():
    v = classify(RationalMatrix([[1, -1, 1], [0, 1, -1], [1, 0, 0]]))
    assert v.is_no and v.rule == "unsolvable-q"
    assert v.data["q"] == [Fraction(0), Fraction(0), Fraction(-1)]


# --- bdsw with a nonnegative row ---------------------------------------


def test_type1_zero_corner_diagonal_rule():
    m = RationalMatrix([[1, -1], [1, 0]])
    v = classify_bdsw_type1(m, detect_structure(m).k)
    assert v.is_yes and v.rule == "T5.2"


def test_type1_superdiagonal_failure():
    v = classify_bdsw_type1(BIG, detect_structure(BIG).k)
    assert v.is_no and v.rule == "T5.2"
    assert v.data == {
        "leading_diagonal_positive": True,
        "superdiagonal_negative": False,
    }


def test_type1_zero_diag_at_k():
    m = RationalMatrix([[0, 1], [-1, 1]])
    v = classify_bdsw_type1(m, 1)
    assert v.is_yes and v.rule == "T5.3" and v.data["k"] == 1


def test_type1_positive_diagonal_cases():
    # Last row (2, 0, 1) is nonnegative with a_nn > 0, so the dispatcher
    # prefers the triangular-plus-row certificate; the direct type-1 call
    # reports T5.1 and both agree on the answer.
    m = RationalMatrix([[1, 1, 0], [0, 1, 1], [2, 0, 1]])
    v = classify(m)
    assert v.is_yes and v.rule == "T3.2"
    v = classify_bdsw_type1(m, detect_structure(m).k)
    assert v.is_yes and v.rule == "T5.1"

    m = RationalMatrix([[1, 1, 0], [0, 1, 1], [-2, 0, 1]])
    v = classify(m)
    assert v.is_yes and v.rule == "T5.3"


def test_type1_negative_corner_diagonal_pair_never_q():
    m = RationalMatrix([[1, 1, 0], [0, 1, 1], [2, 0, -1]])
    v = classify(m)
    assert v.is_no and v.rule == "T5.4"


def test_type1_rejects_nonpositive_last_row():
    m = RationalMatrix([[1, 1, 0], [0, 1, 1], [-1, 0, -1]])
    with pytest.raises(StructureError):
        classify_bdsw_type1(m, 1)


# --- bdsw with single-signed rows --------------------------------------


def test_type2_determinant_rule():
    assert classify_bdsw_type2(RationalMatrix([[2, -1], [-1, 2]])).is_yes
    v = classify_bdsw_type2(RationalMatrix([[1, -1], [-1, 1]]))
    assert v.is_no and v.data["det"] == 0

    v = classify(RationalMatrix([[1, -1, 0], [0, 1, -1], [-1, 0, 1]]))
    assert v.is_no and v.rule == "T6.1" and v.data["det"] == 0


def test_type2_rejects_other_types():
    with pytest.raises(StructureError):
        classify_bdsw_type2(RationalMatrix([[-1, 2], [1, -1]]))


def test_type3_signed_determinant_rule():
    v = classify_bdsw_type3(RationalMatrix([[-1, 2], [1, -1]]))
    assert v.is_yes and v.data["signed_det"] == 1

    assert classify_bdsw_type3(RationalMatrix([[-1, 1], [1, -1]])).is_no
    assert classify_bdsw_type3(RationalMatrix([[-2, 1], [1, -1]])).is_no

    v = classify(RationalMatrix([[-1, 2, 0], [0, -1, 1], [1, 0, -1]]))
    assert v.is_yes and v.rule == "T7.1" and v.data["signed_det"] == 1


def test_type4_signed_determinant_rule():
    v = classify(TYPE4)
    assert v.is_yes and v.rule == "T8.1"
    assert v.data == {"det": Fraction(-1), "signed_det": Fraction(1), "k": 2}

    v = classify(RationalMatrix([[-1, 1, 0], [0, -1, 1], [-1, 0, 1]]))
    assert v.is_no and v.rule == "T8.1" and v.data["det"] == 0


def test_type4_k_mismatch():
    with pytest.raises(StructureError):
        classify_bdsw_type4(TYPE4, 1)


# --- order 2 ------------------------------------------------------------


def test_2x2_unconditional_patterns():
    v = classify_2x2(RationalMatrix([[1, -9], [0, 1]]))
    assert v.is_yes and "(i)" in v.condition

    assert classify_2x2(RationalMatrix([[1, -1], [1, 0]])).is_yes
    assert classify_2x2(RationalMatrix([[0, 1], [-1, 1]])).is_yes


def test_2x2_determinant_gated_patterns():
    v = classify_2x2(RationalMatrix([[1, -2], [1, -1]]))
    assert v.is_yes and v.data["det"] == 1

    assert classify_2x2(RationalMatrix([[1, -1], [-1, 1]])).is_no
    assert classify_2x2(RationalMatrix([[-1, 2], [1, -1]])).is_yes
    assert classify_2x2(RationalMatrix([[-1, 1], [1, -1]])).is_no


def test_2x2_inadmissible_pattern():
    v = classify_2x2(RationalMatrix([[0, 1], [1, 0]]))
    assert v.is_no and v.condition == "no admissible 2x2 sign pattern"


def test_2x2_wrong_order_rejected():
    with pytest.raises(StructureError):
        classify_2x2(identity(3))


# --- dispatch ----------------------------------------------------------


def test_dispatch_nonpositive_row_first():
    v = classify(RationalMatrix([[-1, 0], [0, -1]]))
    assert v.is_no and v.rule == "nonpositive-row" and v.data["row"] == 1


def test_dispatch_order_one():
    assert classify(RationalMatrix([[2]])).is_yes
    v = classify(RationalMatrix([[0]]))
    assert v.is_no and v.rule == "nonpositive-row"
    assert classify(RationalMatrix([["1/3"]])).is_yes


def test_dispatch_triangular():
    v = classify(RationalMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]]))
    assert v.is_yes and v.rule == "T3.1"

    # Tagged bdsw-type-1, answered by T3.1: the rule order is not the tag order.
    m = RationalMatrix([[1, -1, 0], [0, 2, 3], [0, 0, 1]])
    s = detect_structure(m)
    assert s.tag == BDSW_TYPE_1 and s.notes == ("bidiagonal", "upper-triangular")
    assert classify(m).rule == "T3.1"
    m = RationalMatrix([[1, 0, 0], [0, 1, 0], [1, 0, 1]])  # lower triangular
    assert detect_structure(m).tag == BDSW_TYPE_1 and classify(m).rule == "T3.1"

    # T5.1's case (a_n1 >= 0, a_nn > 0) is triangular-plus-row: classify
    # answers by T3.2, and only the direct call reports T5.1.
    for rows, answer in [
        ([[1, 1, 0], [0, 1, 1], [2, 0, 1]], YES),
        ([[1, -1, 0], [0, 0, 1], [1, 0, 3]], NO),
    ]:
        m = RationalMatrix(rows)
        s = detect_structure(m)
        assert s.tag == BDSW_TYPE_1
        v = classify(m)
        assert v.rule == "T3.2" and v.answer == answer
        v = classify_bdsw_type1(m, s.k)
        assert v.rule == "T5.1" and v.answer == answer


def test_dispatch_matches_the_reference_chain_of_shape_tests():
    # The n <= 3 {-1,0,1} censuses and every generate family at n = 1-6.
    matrices = [m for n in (1, 2, 3) for m in census(n)]
    for kind in GENERATOR_TYPES:
        for n in range(1 if kind == "tri" else 2, 7 if kind != "2x2" else 3):
            matrices.extend(generate(kind, n, 40, seed=0))
    rules = set()
    for m in matrices:
        s = detect_structure(m)
        verdict = classify_by_rules(m, s)
        expected = reference_classify_by_rules(m)
        assert (s.tag, s.k, s.notes) == reference_detect_structure(m), m.rows
        if verdict is None or expected is None:
            assert verdict is expected is None, m.rows
        else:
            assert verdict.to_json_obj() == expected.to_json_obj(), m.rows
            rules.add(verdict.rule)
    assert rules == {  # every rule but T5.1
        "nonpositive-row", "T3.1", "T3.2", "T9.1", "T5.2", "T5.3", "T5.4", "T6.1", "T7.1", "T8.1"
    }


def test_public_bdsw_entries_never_contradict_the_oracle_on_the_census():
    # Every bdsw-shaped matrix of order 2 and 3 over {-1,0,1,2}.  Each public
    # bdsw entry refuses a matrix outside its detected type or agrees with
    # q_oracle wherever the oracle decides; type 1 is tried with k = 1 and
    # with the detected k.
    matrices = [m for n in (2, 3) for m in census(n, (-1, 0, 1, 2), "bdsw")]
    assert len(matrices) == 4352 and all(map(is_bdsw_shape, matrices))
    wrong, outside = set(), set()
    for m in matrices:
        s = detect_structure(m)
        oracle = q_oracle(m).answer
        for tag, entry in (
            (BDSW_TYPE_1, lambda: classify_bdsw_type1(m, 1)),
            (BDSW_TYPE_1, lambda: classify_bdsw_type1(m, s.k or 1)),
            (BDSW_TYPE_2, lambda: classify_bdsw_type2(m)),
            (BDSW_TYPE_3, lambda: classify_bdsw_type3(m)),
            (BDSW_TYPE_4, lambda: classify_bdsw_type4(m, s.k)),
        ):
            try:
                answer = entry().answer
            except StructureError:
                continue
            if oracle in (YES, NO) and answer != oracle:
                wrong.add(m.integer_rows()[1])
            if tag != s.tag:
                outside.add(m.integer_rows()[1])
    assert sorted(wrong) == []
    assert sorted(outside) == []


def test_rules_decide_the_n4_bdsw_census_as_the_oracle_does():
    # Every bdsw-shaped 4x4 matrix over {-1,0,1,2}: a structural rule
    # decides each one, the oracle decides each one, and they agree.
    undecided, unruled, contradictions = [], [], []
    matrices = 0
    for m in census(4, (-1, 0, 1, 2), "bdsw"):
        matrices += 1
        rules = classify_by_rules(m)
        oracle = q_oracle(m)
        if oracle.answer not in (YES, NO):
            undecided.append(m.rows)
        if rules is None:
            unruled.append(m.rows)
        elif rules.answer != oracle.answer:
            contradictions.append(m.rows)
    assert matrices == 65536
    assert undecided == [] and unruled == [] and contradictions == []


# --- invariants ---------------------------------------------------------


def test_rotation_conjugation_keeps_answer():
    fixtures = [
        TYPE4,
        RationalMatrix([[1, -1], [1, 0]]),
        RationalMatrix([[1, -1, 0], [0, 1, -1], [-1, 0, 1]]),
        RationalMatrix([[-1, 2, 0], [0, -1, 1], [1, 0, -1]]),
        BIG,
    ]
    for m in fixtures:
        base = classify(m).answer
        for k in range(1, m.n):
            rotated = conjugate(m, [(i + k) % m.n for i in range(m.n)])
            assert classify(rotated).answer == base


def test_negation_swaps_single_sign_types():
    type3 = RationalMatrix([[-1, 2, 0], [0, -1, 1], [1, 0, -1]])
    assert detect_structure(type3).tag == BDSW_TYPE_3
    assert detect_structure(neg(type3)).tag == BDSW_TYPE_2

    type2 = RationalMatrix([[2, -1], [-1, 2]])
    assert detect_structure(neg(type2)).tag == BDSW_TYPE_3


def test_2x2_rule_agrees_with_type_rules():
    seen = set()
    for m in generate("2x2", 2, 40, seed=7):
        tag = detect_structure(m).tag
        direct = classify_2x2(m).answer
        if tag == BDSW_TYPE_1:
            other = classify_bdsw_type1(m, detect_structure(m).k).answer
        elif tag == BDSW_TYPE_2:
            other = classify_bdsw_type2(m).answer
        elif tag == BDSW_TYPE_3:
            other = classify_bdsw_type3(m).answer
        elif tag == BDSW_TYPE_4:
            other = classify_bdsw_type4(m, detect_structure(m).k).answer
        else:
            continue
        assert direct == other
        seen.add(tag)
    assert len(seen) >= 3


def test_type1_yes_implies_nonnegative_diagonal():
    for m in generate("bdsw-1", 4, 30, seed=13):
        if detect_structure(m).tag != BDSW_TYPE_1:
            continue
        if classify(m).is_yes:
            assert all(m[i, i] >= 0 for i in range(m.n))


def test_classifier_never_contradicts_oracle_spot_check():
    fixtures = [
        TYPE4,
        BIG,
        RationalMatrix([[1, -1], [1, 0]]),
        RationalMatrix([[2, -1], [-1, 2]]),
        RationalMatrix([[1, 2, 5], [0, 3, -1], [1, 0, 2]]),
    ]
    for m in fixtures:
        ruled = classify(m)
        checked = q_oracle(m)
        if checked.answer in (YES, NO):
            assert ruled.answer == checked.answer
