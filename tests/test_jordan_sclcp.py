"""Cone-solution verification, hat embeddings, and rank-one classification."""

from fractions import Fraction

import numpy as np
import pytest

from lcpq.jordan.algebra import (
    element_from_eigenvalues,
    identity_element,
    in_cone,
    random_frame,
    rn_algebra,
    standard_frame,
    sym_algebra,
    trace_inner_product,
)
from lcpq.jordan.sclcp import (
    _search_cone,
    classify_rank_one_q,
    embed_solve,
    sample_positivity_violation,
    verify_sc_solution,
)
from lcpq.jordan.transforms import LinearTransform, rank_one
from lcpq.matrices import RationalMatrix

SYM2 = sym_algebra(2)
SYM3 = sym_algebra(3)
TYPE4 = RationalMatrix([[-1, 1, 0], [0, -1, 1], [-2, 0, 1]])
BIG = RationalMatrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, -1], [1, 0, 0, 0]])


def test_verify_solution_pass():
    eye = LinearTransform.identity(SYM2)
    e = identity_element(SYM2)
    check = verify_sc_solution(eye, -e, e)
    assert check.passed
    assert check.x_min_eigenvalue == pytest.approx(1.0)
    assert check.y_min_eigenvalue == pytest.approx(0.0, abs=1e-12)
    assert check.inner_product == pytest.approx(0.0, abs=1e-12)


def test_verify_solution_fail_on_inner_product():
    eye = LinearTransform.identity(SYM2)
    e = identity_element(SYM2)
    check = verify_sc_solution(eye, e, e)
    assert not check.passed
    assert check.inner_product == pytest.approx(4.0)
    obj = check.to_json_obj()
    assert obj["pass"] is False and obj["tol"] == check.tol


def test_embed_simple_fixture():
    out = embed_solve(
        RationalMatrix([[1, -1], [1, 0]]), [-1, -1], standard_frame(SYM2)
    )
    assert out.status == "embedded"
    assert out.r == (Fraction(1), Fraction(0))
    assert out.passed and out.check.passed


def test_embed_on_rotated_frame():
    frame = random_frame(SYM3, np.random.default_rng(3))
    out = embed_solve(TYPE4, [-1, -1, -1], frame)
    assert out.status == "embedded"
    assert out.r == (Fraction(1), Fraction(2), Fraction(3))
    assert out.check.passed
    assert in_cone(out.check.x, tol=1e-9)


def test_embed_unsolvable_counts_as_pass():
    out = embed_solve(BIG, [0, 0, 0, -1], standard_frame(sym_algebra(4)))
    assert out.status == "unsolvable"
    assert out.check is None and out.r is None
    assert out.passed


def test_embed_rank_mismatch():
    with pytest.raises(ValueError):
        embed_solve(RationalMatrix.identity(2), [1, 1], standard_frame(SYM3))


def test_rank_one_classification():
    frame = standard_frame(rn_algebra(2))

    def verdict(ea, eb):
        return classify_rank_one_q(
            element_from_eigenvalues(frame, ea),
            element_from_eigenvalues(frame, eb),
        )

    v = verdict([1.0, 1.0], [2.0, 3.0])
    assert v.is_yes and v.condition == "both factors interior to the cone"
    assert v.data == {"a_min": 1.0, "a_max": 1.0, "b_min": 2.0, "b_max": 3.0}

    v = verdict([-1.0, -2.0], [-1.0, -3.0])
    assert v.is_yes and "negated" in v.condition

    v = verdict([1.0, -1.0], [1.0, 1.0])
    assert v.is_no

    v = verdict([0.0, 1.0], [1.0, 1.0])
    assert v.answer == "undecided"


def test_rank_one_classification_algebra_mismatch():
    a = identity_element(SYM2)
    b = identity_element(SYM3)
    with pytest.raises(ValueError):
        classify_rank_one_q(a, b)


def test_positivity_sampler_finds_witness():
    frame = standard_frame(SYM2)
    a = element_from_eigenvalues(frame, [1.0, -1.0])
    transform = rank_one(a, identity_element(SYM2))
    report = sample_positivity_violation(transform, samples=50, rng_seed=0)
    assert report.found and report.samples_used == 1
    assert report.value < 0
    assert in_cone(report.witness)
    obj = report.to_json_obj()
    assert obj["violation"] is True and obj["samples"] == 1


def test_positivity_sampler_clean_on_identity():
    report = sample_positivity_violation(
        LinearTransform.identity(SYM2), samples=40, rng_seed=1
    )
    assert not report.found
    assert report.samples_used == 40
    assert report.value >= 0
    assert "not a certificate" in report.note


def test_copositivity_sampler():
    # The cone search behind sample_positivity_violation, measuring
    # <L(z), z> on normalized cone elements z: a clean run reports the
    # least value over every sample, and a violation ends the run at once.
    def copositivity_sample(transform):
        def inner(z):
            return trace_inner_product(transform.apply(z), z)

        return _search_cone(transform, 30, 2, inner, lambda value: value <= 1e-9)

    eye = LinearTransform.identity(SYM2)
    clean = copositivity_sample(eye)
    assert not clean.found and clean.value == pytest.approx(1.0)
    assert clean.samples_used == 30

    flipped = copositivity_sample(-1.0 * eye)
    assert flipped.found and flipped.samples_used == 1


def test_samplers_are_deterministic():
    frame = standard_frame(SYM3)
    a = element_from_eigenvalues(frame, [1.0, 0.5, -0.25])
    transform = rank_one(a, identity_element(SYM3))
    first = sample_positivity_violation(transform, samples=20, rng_seed=7)
    second = sample_positivity_violation(transform, samples=20, rng_seed=7)
    assert first.value == second.value
    assert first.samples_used == second.samples_used
