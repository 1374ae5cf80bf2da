"""Cone-solution verification, hat embeddings, and rank-one classification."""

from fractions import Fraction

import numpy as np
import pytest

from helpers import identity
from lcpq.jordan.algebra import (
    eigenvalues_of,
    element_from_eigenvalues,
    identity_element,
    in_cone,
    jordan_product,
    random_element,
    random_frame,
    rn_algebra,
    standard_frame,
    sym_algebra,
)
from lcpq.jordan.sclcp import (
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
    eye = LinearTransform(SYM2, np.eye(SYM2.dim))
    e = identity_element(SYM2)
    check = verify_sc_solution(eye, -e, e)
    assert check.passed
    assert check.x_min_eigenvalue == pytest.approx(1.0)
    assert check.y_min_eigenvalue == pytest.approx(0.0, abs=1e-12)
    assert check.inner_product == pytest.approx(0.0, abs=1e-12)


def test_verify_solution_fail_on_inner_product():
    eye = LinearTransform(SYM2, np.eye(SYM2.dim))
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
        embed_solve(identity(2), [1, 1], standard_frame(SYM3))


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
        LinearTransform(SYM2, np.eye(SYM2.dim)), samples=40, rng_seed=1
    )
    assert not report.found
    assert report.samples_used == 40
    assert report.value >= 0
    assert "not a certificate" in report.note


def _cone_draws(algebra, seed):
    """The sampler's stream: normalized z = y o y / |y o y| from seeded y,
    skipping any z of norm below 1e-12."""
    rng = np.random.default_rng(seed)
    while True:
        y = random_element(algebra, rng)
        z = jordan_product(y, y)
        if z.norm() >= 1e-12:
            yield z * (1.0 / z.norm())


def test_copositivity_sampler():
    # A clean run uses every sample and reports the least min eigenvalue of
    # L(z) over them, and a violation ends the run at the first sample.
    transform = rank_one(
        element_from_eigenvalues(standard_frame(SYM2), [1.0, 2.0]), identity_element(SYM2)
    )
    clean = sample_positivity_violation(transform, samples=30, rng_seed=2)
    draws = _cone_draws(SYM2, 2)
    least = min(float(eigenvalues_of(transform.apply(next(draws))).min()) for _ in range(30))
    assert not clean.found and clean.witness is None
    assert clean.samples_used == 30 and clean.value == least

    flipped = sample_positivity_violation(LinearTransform(SYM2, -np.eye(SYM2.dim)), 30, 2)
    first = next(_cone_draws(SYM2, 2))
    assert flipped.found and flipped.samples_used == 1
    assert np.array_equal(flipped.witness.coords, first.coords)
    assert flipped.value == -float(eigenvalues_of(first).max())


def test_samplers_are_deterministic():
    frame = standard_frame(SYM3)
    a = element_from_eigenvalues(frame, [1.0, 0.5, -0.25])
    transform = rank_one(a, identity_element(SYM3))
    first = sample_positivity_violation(transform, samples=20, rng_seed=7)
    second = sample_positivity_violation(transform, samples=20, rng_seed=7)
    assert first.value == second.value
    assert first.samples_used == second.samples_used
