"""End-to-end acceptance checks, one test per criterion.

Every test prints exactly one line, "criterion NN: PASS/FAIL [...]", so a
verbose run of this file reads as a scoreboard.  The checks compare the
structural classification rules against the enumeration-based oracle on
seeded random families, verify the exact determinant/inverse/degree
identities behind those rules, and exercise the symmetric-cone embedding at
the stated tolerances.  Seeds are frozen; each criterion also enforces its
wall-clock budget.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

import conftest
from helpers import check_lcp_solution, matvec
from lcpq.classes import NO, UNDECIDED, YES, is_E, is_P, is_R0, is_Rd, is_Rstar, q_oracle
from lcpq.classifier import (
    classify,
    classify_2x2,
    classify_bdsw_type1,
    classify_bdsw_type2,
    classify_bdsw_type3,
    classify_bdsw_type4,
    classify_triangular,
)
from lcpq.generate import (
    random_bdsw_type1,
    random_bdsw_type2,
    random_bdsw_type3,
    random_bdsw_type4,
    random_triangular,
)
from lcpq.jordan.algebra import (
    element_from_eigenvalues,
    identity_element,
    parse_algebra,
    random_frame,
    standard_frame,
    sym_algebra,
)
from lcpq.jordan.checks import IDENTITY_NAMES, identity_residuals
from lcpq.jordan.sclcp import (
    classify_rank_one_q,
    sample_positivity_violation,
    verify_sc_solution,
)
from lcpq.jordan.transforms import bracket, hat_transform, hat_vector, rank_one
from lcpq.lcp import LcpInstance, degree, solve_lcp
from lcpq.matrices import RationalMatrix, determinant, inverse
from lcpq.pivot import ppt, schur_complement
from lcpq.structure import (
    BDSW_TYPE_1,
    BDSW_TYPE_3,
    BDSW_TYPE_4,
    detect_structure,
)


def _report(num, budget_s, start, problems, detail):
    elapsed = time.monotonic() - start
    if elapsed >= budget_s:
        problems = problems + ["elapsed %.1fs exceeds budget %ds" % (elapsed, budget_s)]
    status = "PASS" if not problems else "FAIL"
    line = "criterion %02d: %s [%.1fs/%ds] %s" % (num, status, elapsed, budget_s, detail)
    if problems:
        line += " | first problem: %s (+%d more)" % (problems[0], len(problems) - 1)
    print(line)
    conftest.scoreboard.append(line)
    assert not problems, line


def test_criterion_01_two_by_two_exhaustive_agreement():
    start = time.monotonic()
    problems = []
    decided = 0
    for entries in itertools.product(range(-2, 3), repeat=4):
        m = RationalMatrix([[entries[0], entries[1]], [entries[2], entries[3]]])
        rule = classify_2x2(m)
        oracle = q_oracle(m)
        if rule.answer == UNDECIDED:
            problems.append("2x2 rule undecided on %s" % (entries,))
            continue
        if oracle.answer == UNDECIDED:
            # every 2x2 matrix has the bdsw shape, so the oracle must decide
            problems.append("oracle undecided on %s" % (entries,))
            continue
        decided += 1
        if rule.answer != oracle.answer:
            problems.append(
                "disagreement on %s: rule %s, oracle %s"
                % (entries, rule.answer, oracle.answer)
            )
    _report(1, 30, start, problems, "625 matrices, %d oracle-decided" % decided)


def test_criterion_02_triangular_rule_oracle_and_class_chain():
    start = time.monotonic()
    problems = []
    rng = random.Random(20260202)
    yes_count = 0
    oracle_decided = 0
    for i in range(1000):
        n = 2 + i % 5
        m = RationalMatrix(random_triangular(rng, n, 5))
        expected = all(m.rows[j][j] > 0 for j in range(n))
        v = classify_triangular(m)
        if v.is_yes != expected:
            problems.append("instance %d: rule %s, diagonal says %s" % (i, v.answer, expected))
        o = q_oracle(m)
        if o.answer != UNDECIDED:
            oracle_decided += 1
            if o.is_yes != expected:
                problems.append("instance %d: oracle %s contradicts rule" % (i, o.answer))
        if expected:
            yes_count += 1
            for name, pred in (("P", is_P), ("E", is_E), ("R*", is_Rstar)):
                if not pred(m).is_yes:
                    problems.append("instance %d: yes verdict but not %s" % (i, name))
    _report(
        2,
        120,
        start,
        problems,
        "1000 matrices, %d yes, oracle decided %d" % (yes_count, oracle_decided),
    )


def test_criterion_03_type2_determinant_rule():
    start = time.monotonic()
    problems = []
    rng = random.Random(20260203)
    yes_count = 0
    for i in range(500):
        n = 2 + i % 5
        m = RationalMatrix(random_bdsw_type2(rng, n, 5))
        det = determinant(m)
        expected = YES if det > 0 else NO
        v = classify_bdsw_type2(m)
        if v.answer != expected:
            problems.append("instance %d: rule %s, det %s" % (i, v.answer, det))
        d = classify(m)
        if d.answer != expected:
            problems.append("instance %d: dispatcher %s disagrees" % (i, d.answer))
        o = q_oracle(m)
        if o.answer == UNDECIDED:
            problems.append("instance %d: oracle undecided" % i)
        elif o.answer != expected:
            problems.append("instance %d: oracle %s contradicts det rule" % (i, o.answer))
        yes_count += expected == YES
    _report(3, 120, start, problems, "500 matrices, %d yes" % yes_count)


def test_criterion_04_type3_signed_determinant_and_inverse_positivity():
    start = time.monotonic()
    problems = []
    rng = random.Random(20260204)
    yes_count = 0
    nonsingular = 0
    for i in range(500):
        n = 2 + i % 5
        m = RationalMatrix(random_bdsw_type3(rng, n, 5))
        det = determinant(m)
        sign = Fraction(-1) ** (n + 1)
        expected = YES if sign * det > 0 else NO
        v = classify_bdsw_type3(m)
        if v.answer != expected:
            problems.append("instance %d: rule %s, signed det %s" % (i, v.answer, sign * det))
        d = classify(m)
        if d.answer != expected:
            problems.append("instance %d: dispatcher %s disagrees" % (i, d.answer))
        o = q_oracle(m)
        if o.answer == UNDECIDED:
            problems.append("instance %d: oracle undecided" % i)
        elif o.answer != expected:
            problems.append("instance %d: oracle %s contradicts rule" % (i, o.answer))
        yes_count += expected == YES
        if det != 0:
            # the signed adjugate of a nonsingular instance is entrywise positive
            nonsingular += 1
            inv = inverse(m)
            scale = det * sign
            inv_rows = inv.rows
            for r in range(n):
                for c in range(n):
                    if inv_rows[r][c] * scale <= 0:
                        problems.append(
                            "instance %d: signed adjugate entry (%d,%d) not positive" % (i, r, c)
                        )
    _report(
        4,
        120,
        start,
        problems,
        "500 matrices, %d yes, %d nonsingular" % (yes_count, nonsingular),
    )


def _rotate_to_last(matrix, j):
    """Cyclic relabeling that sends 0-based diagonal index j to the last slot.

    Cyclic shifts map the diagonal+superdiagonal+corner band to itself, so
    the result keeps the bdsw shape.
    """
    n = matrix.n
    order = [(p + j + 1) % n for p in range(n)]
    rows = matrix.rows
    return RationalMatrix([[rows[a][b] for b in order] for a in order])


def test_criterion_05_type4_rule_ppt_recursion_and_degree():
    start = time.monotonic()
    problems = []
    rng = random.Random(20260205)
    yes_count = 0
    degree_checked = 0
    for i in range(500):
        n = 3 + i % 4
        m = RationalMatrix(random_bdsw_type4(rng, n, 5))
        st = detect_structure(m)
        if st.tag != BDSW_TYPE_4:
            problems.append("instance %d: generator produced tag %s" % (i, st.tag))
            continue
        k = st.k
        det = determinant(m)
        expected = YES if (Fraction(-1) ** (k + 1)) * det > 0 else NO
        v = classify_bdsw_type4(m, k)
        if v.answer != expected:
            problems.append("instance %d: rule %s, k %d, det %s" % (i, v.answer, k, det))
        o = q_oracle(m)
        if o.answer == UNDECIDED:
            problems.append("instance %d: oracle undecided" % i)
        elif o.answer != expected:
            problems.append("instance %d: oracle %s contradicts rule" % (i, o.answer))
        yes_count += expected == YES

        # recursion invariant: pivoting on a positive diagonal entry leaves a
        # type-3 or type-4 matrix of order n-1 in the northwest block
        j = next(p for p in range(n) if m.rows[p][p] > 0)
        rot = _rotate_to_last(m, j)
        if rot.rows[n - 1][n - 1] <= 0:
            problems.append("instance %d: rotation lost the pivot entry" % i)
            continue
        piv = ppt(rot, (n,))
        nw = RationalMatrix([row[: n - 1] for row in piv.rows[: n - 1]])
        if nw != schur_complement(rot, (n,)):
            problems.append("instance %d: ppt northwest block is not the Schur complement" % i)
        sub_tag = detect_structure(nw).tag
        if sub_tag not in (BDSW_TYPE_3, BDSW_TYPE_4):
            problems.append("instance %d: pivot left tag %s" % (i, sub_tag))

        # degree transfer through single pivots: positive pivot keeps the
        # degree, negative pivot flips its sign
        if is_R0(m).is_yes:
            base = degree(m)
            if degree(rot) != base:
                problems.append("instance %d: rotation changed the degree" % i)
            if degree(piv) != base:
                problems.append("instance %d: positive pivot changed the degree" % i)
            j_neg = next(p for p in range(n) if m.rows[p][p] < 0)
            if degree(ppt(m, (j_neg + 1,))) != -base:
                problems.append("instance %d: negative pivot did not flip the degree" % i)
            degree_checked += 1
    if degree_checked < 200:
        problems.append("only %d R0 instances for the degree check" % degree_checked)
    _report(
        5,
        180,
        start,
        problems,
        "500 matrices, %d yes, degree transfer on %d" % (yes_count, degree_checked),
    )


def test_criterion_06_type1_case_rules():
    start = time.monotonic()
    problems = []
    rng = random.Random(20260206)
    case_rule = {1: "T5.1", 2: "T5.2", 3: "T5.3", 4: "T5.4"}
    per_case = {1: 0, 2: 0, 3: 0, 4: 0}
    case2_yes = 0
    for i in range(500):
        case = 1 + i % 4
        n = 2 + i % 5
        m = RationalMatrix(random_bdsw_type1(rng, n, 5, case=case))
        st = detect_structure(m)
        if st.tag != BDSW_TYPE_1:
            problems.append("instance %d: generator produced tag %s" % (i, st.tag))
            continue
        v = classify_bdsw_type1(m, st.k)
        if v.rule != case_rule[case]:
            problems.append("instance %d: case %d reported rule %s" % (i, case, v.rule))
        o = q_oracle(m)
        if o.answer == UNDECIDED:
            problems.append("instance %d: oracle undecided" % i)
        elif v.answer != o.answer:
            problems.append(
                "instance %d: case %d rule %s, oracle %s" % (i, case, v.answer, o.answer)
            )
        per_case[case] += 1
        if case == 2 and v.is_yes:
            case2_yes += 1
            if determinant(m) <= 0:
                problems.append("instance %d: case-2 yes with nonpositive determinant" % i)
    if min(per_case.values()) < 100:
        problems.append("case coverage too thin: %r" % (per_case,))
    if case2_yes == 0:
        problems.append("no case-2 yes instances drawn")
    _report(
        6,
        120,
        start,
        problems,
        "500 matrices, cases %s, %d case-2 yes" % (sorted(per_case.values()), case2_yes),
    )


def test_criterion_07_counterexample_fixtures():
    start = time.monotonic()
    problems = []

    a1 = RationalMatrix([[-1, 0], [0, -1]])
    if not classify(a1).is_no:
        problems.append("negative diagonal 2x2 not refused")

    a2 = RationalMatrix([[0, 1], [0, 1]])
    v2 = classify(a2)
    if not v2.is_no:
        problems.append("singular S-matrix 2x2 not refused")

    big = RationalMatrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, -1], [1, 0, 0, 0]])
    if determinant(big) <= 0:
        problems.append("4x4 fixture lost its positive determinant")
    v3 = classify(big)
    if not (v3.is_no and v3.rule == "T5.2"):
        problems.append("4x4 positive-determinant fixture: got %s/%s" % (v3.answer, v3.rule))

    corner = RationalMatrix([[1, -1, 1], [0, 1, -1], [1, 0, 0]])
    v4 = classify(corner)
    if not v4.is_no:
        problems.append("3x3 corner fixture not refused")
    if solve_lcp(LcpInstance(corner, [0, 0, -1])):
        problems.append("3x3 corner fixture claims a solution at (0,0,-1)")

    if solve_lcp(LcpInstance(big, [0, 0, 0, -1])):
        problems.append("4x4 fixture claims a solution at (0,0,0,-1)")

    _report(7, 1, start, problems, "5 fixtures")


def test_criterion_08_block_composition_degree_product():
    start = time.monotonic()
    problems = []
    rng = random.Random(20260208)
    built = 0
    degree_checked = 0
    q_premise = 0
    attempts = 0
    while built < 200 and attempts < 4000:
        attempts += 1
        kb = rng.randint(1, 3)
        ke = rng.randint(1, 3)
        b = RationalMatrix([[rng.randint(-3, 3) for _ in range(kb)] for _ in range(kb)])
        if not is_R0(b).is_yes:
            continue
        e_rows = [[rng.randint(0, 3) for _ in range(ke)] for _ in range(ke)]
        for t in range(ke):
            e_rows[t][t] = rng.randint(1, 3)
        e = RationalMatrix(e_rows)
        c_rows = [[rng.randint(-3, 3) for _ in range(ke)] for _ in range(kb)]
        d_rows = [[rng.randint(0, 3) for _ in range(kb)] for _ in range(ke)]
        a = RationalMatrix(
            [list(b.rows[r]) + c_rows[r] for r in range(kb)]
            + [d_rows[r] + list(e.rows[r]) for r in range(ke)]
        )
        built += 1
        if not is_R0(e).is_yes:
            problems.append("trial %d: nonnegative positive-diagonal block lost R0" % built)
            continue
        if not is_R0(a).is_yes:
            problems.append("trial %d: composition lost R0" % built)
            continue
        deg_a = degree(a)
        deg_b = degree(b)
        deg_e = degree(e)
        if deg_a != deg_b * deg_e:
            problems.append(
                "trial %d: degree product %d != %d * %d" % (built, deg_a, deg_b, deg_e)
            )
        degree_checked += 1
        if deg_a != 0:
            # nonzero degree forces solvability for the composite and, one
            # level down, for the northwest block
            o_a = q_oracle(a)
            if not o_a.is_yes:
                problems.append("trial %d: nonzero degree but oracle says %s" % (built, o_a.answer))
            o_b = q_oracle(b)
            if o_b.answer != UNDECIDED and not o_b.is_yes:
                problems.append("trial %d: composite solvable but block is not" % built)
            q_premise += 1
        if is_Rd(b, [1] * kb).is_yes and not is_Rd(a, [1] * (kb + ke)).is_yes:
            problems.append("trial %d: R(1) did not propagate" % built)
        if is_Rstar(b).is_yes and not is_Rstar(a).is_yes:
            problems.append("trial %d: R* did not propagate" % built)
    if built < 200:
        problems.append("only %d compositions built" % built)
    if q_premise < 50:
        problems.append("only %d nonzero-degree compositions" % q_premise)
    _report(
        8,
        120,
        start,
        problems,
        "200 compositions, degree product on %d, %d with nonzero degree" % (degree_checked, q_premise),
    )


def test_criterion_09_jordan_identity_residuals():
    start = time.monotonic()
    problems = []
    plan = (
        ("rn:2", 170), ("rn:3", 170), ("rn:4", 170), ("rn:5", 170), ("rn:6", 170),
        ("sym:2", 120), ("sym:3", 120), ("sym:4", 120),
    )
    checks = 0
    worst_value = 0.0
    worst_label = ""
    for text, samples in plan:
        residuals = identity_residuals(parse_algebra(text), samples, rng_seed=926)
        checks += samples * len(IDENTITY_NAMES)
        for name, value in residuals.items():
            if value > worst_value:
                worst_value = value
                worst_label = "%s/%s" % (text, name)
            if value > 1e-9:
                problems.append("%s residual %.3e on %s" % (name, value, text))
    _report(
        9,
        120,
        start,
        problems,
        "%d checks, worst residual %.2e (%s)" % (checks, worst_value, worst_label),
    )


def test_criterion_10_embedding_both_directions():
    start = time.monotonic()
    problems = []
    rng = random.Random(20260210)
    nprng = np.random.default_rng(20260210)
    embedded = 0
    planted = 0
    for i in range(200):
        n = 2 + i % 3
        algebra = sym_algebra(n)
        a = RationalMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        q = [rng.randint(-3, 3) for _ in range(n)]
        frames = (standard_frame(algebra), random_frame(algebra, nprng))

        for sol in solve_lcp(LcpInstance(a, q)):
            for frame in frames:
                transform = hat_transform(a, frame)
                q_hat = hat_vector([float(v) for v in q], frame)
                x_hat = hat_vector([float(v) for v in sol.x], frame)
                check = verify_sc_solution(transform, q_hat, x_hat, tol=1e-9)
                if not check.passed:
                    problems.append("instance %d: solution %s fails to embed" % (i, sol.x))
                embedded += 1

        # plant a complementary pair with disjoint supports, pull q back,
        # and confirm the frame-diagonal cone solution brackets to it
        mask = [rng.random() < 0.5 for _ in range(n)]
        r = [Fraction(rng.randint(1, 3)) if s else Fraction(0) for s in mask]
        w = [Fraction(0) if s else Fraction(rng.randint(0, 3)) for s in mask]
        q2 = [wi - avi for wi, avi in zip(w, matvec(a, r))]
        for frame in frames:
            transform = hat_transform(a, frame)
            q2_hat = hat_vector([float(v) for v in q2], frame)
            x_hat = hat_vector([float(v) for v in r], frame)
            check = verify_sc_solution(transform, q2_hat, x_hat, tol=1e-9)
            if not check.passed:
                problems.append("instance %d: planted cone solution fails" % i)
            back = bracket(x_hat, frame)
            if max(abs(bv - float(rv)) for bv, rv in zip(back, r)) > 1e-9:
                problems.append("instance %d: bracket drifted from the planted point" % i)
            rounded = [Fraction(round(bv)) for bv in back]
            if rounded != r:
                problems.append("instance %d: rounded bracket is not the planted point" % i)
            elif not check_lcp_solution(a, q2, rounded):
                problems.append("instance %d: bracketed point is not an exact solution" % i)
            planted += 1
    _report(
        10,
        120,
        start,
        problems,
        "%d embedded solutions, %d planted cone solutions" % (embedded, planted),
    )


def _controlled_eigenvalues(kind, rank, nprng):
    base = 0.5 + 2.5 * nprng.random(rank)
    if kind == "pos":
        return base
    if kind == "neg":
        return -base
    if kind == "mixed":
        signs = np.ones(rank)
        signs[0] = 1.0
        signs[1] = -1.0
        for t in range(2, rank):
            signs[t] = 1.0 if nprng.random() < 0.5 else -1.0
        return base * signs
    eigs = base.copy()
    eigs[0] = 0.0
    return eigs


_RANK_ONE_EXPECTED = {
    ("pos", "pos"): YES,
    ("neg", "neg"): YES,
    ("zero", "pos"): UNDECIDED,
    ("pos", "zero"): UNDECIDED,
    ("zero", "zero"): UNDECIDED,
}


def test_criterion_11_rank_one_classification_and_sampler():
    start = time.monotonic()
    problems = []
    nprng = np.random.default_rng(20260211)
    kinds = ("pos", "neg", "mixed", "zero")
    classified = 0
    sampler_runs = 0
    for text in ("sym:2", "sym:3", "rn:4"):
        algebra = parse_algebra(text)
        rank = algebra.rank
        for ka, kb in itertools.product(kinds, kinds):
            expected = _RANK_ONE_EXPECTED.get((ka, kb), NO)
            for trial in range(3):
                frame_a = random_frame(algebra, nprng)
                frame_b = random_frame(algebra, nprng)
                a = element_from_eigenvalues(frame_a, _controlled_eigenvalues(ka, rank, nprng))
                b = element_from_eigenvalues(frame_b, _controlled_eigenvalues(kb, rank, nprng))
                v = classify_rank_one_q(a, b)
                classified += 1
                if v.answer != expected:
                    problems.append(
                        "%s (%s,%s) trial %d: got %s, expected %s"
                        % (text, ka, kb, trial, v.answer, expected)
                    )
                if expected == NO and ka == "mixed":
                    report = sample_positivity_violation(
                        rank_one(a, b), samples=500, rng_seed=trial
                    )
                    sampler_runs += 1
                    if not report.found:
                        problems.append(
                            "%s (%s,%s) trial %d: no cone point mapped outside the cone"
                            % (text, ka, kb, trial)
                        )
                    elif report.value >= 0:
                        problems.append(
                            "%s (%s,%s) trial %d: witness value %.3e not negative"
                            % (text, ka, kb, trial, report.value)
                        )

    # a matrix whose rows all equal d acts as <d, x> times the all-ones
    # vector, so its hat transform is the rank-one map built from the
    # identity element and the embedded d
    ident_checked = 0
    for t in range(24):
        text = ("sym:2", "sym:3", "rn:3", "rn:5")[t % 4]
        algebra = parse_algebra(text)
        frame = random_frame(algebra, nprng)
        d = nprng.standard_normal(algebra.rank)
        constant_rows = np.tile(d, (algebra.rank, 1))
        t1 = hat_transform(constant_rows, frame)
        t2 = rank_one(identity_element(algebra), hat_vector(d, frame))
        diff = float(np.max(np.abs(t1.matrix - t2.matrix)))
        if diff > 1e-10:
            problems.append("constant-row identity drift %.3e on %s" % (diff, text))
        ident_checked += 1
    _report(
        11,
        120,
        start,
        problems,
        "%d sign-pattern cases, %d sampler runs, %d constant-row checks"
        % (classified, sampler_runs, ident_checked),
    )
