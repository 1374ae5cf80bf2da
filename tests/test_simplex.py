"""Exact LP feasibility: results are rational points or a definite None.

Systems are written over Fractions (helpers.RationalSystem) and solved as
integer rows at one common scale (RationalSystem.integer), which is what
the package's callers pass.  The integer tableau is also compared with the
Fraction tableau of helpers.reference_feasibility on the Fraction rows:
both follow Bland's rule, so they must pivot alike and return the
identical point, not merely a feasible one.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from helpers import RationalSystem, reference_feasibility
from lcpq.simplex import FeasibilitySystem, solve_feasibility

ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
)


def _satisfies(system, point):
    for coeffs, rhs in system.eq_rows:
        if sum((c * x for c, x in zip(coeffs, point)), Fraction(0)) != rhs:
            return False
    for coeffs, rhs in system.ge_rows:
        if sum((c * x for c, x in zip(coeffs, point)), Fraction(0)) < rhs:
            return False
    return all(x >= 0 for x in point)


def test_simplex_feasible_simplex_face():
    system = RationalSystem(2)
    system.add_eq([1, 1], 1)
    point = solve_feasibility(system.integer())
    assert point is not None and _satisfies(system, point)


def test_simplex_infeasible_negative_bound():
    # x >= 0 with x <= -1 has no solution.
    system = RationalSystem(1)
    system.add_ge([-1], 1)
    assert solve_feasibility(system.integer()) is None


def test_simplex_no_constraints_origin():
    assert solve_feasibility(RationalSystem(3).integer()) == [Fraction(0)] * 3


def test_simplex_homogeneous_support_system_infeasible():
    # The kind of system is_R0 builds for a nonsingular 1x1 support:
    # 1*x = 0 with x = 1 normalisation.
    system = RationalSystem(1)
    system.add_eq([1], 0)
    system.add_eq([1], 1)
    assert solve_feasibility(system.integer()) is None


def test_simplex_planted_feasible_points():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        planted = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n)]
        system = RationalSystem(n)
        for _ in range(rng.randint(1, 4)):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            value = sum((c * x for c, x in zip(coeffs, planted)), Fraction(0))
            if rng.random() < 0.5:
                system.add_eq(coeffs, value)
            else:
                # Loosen so the planted point stays feasible.
                system.add_ge(coeffs, value - rng.randint(0, 3))
        point = solve_feasibility(system.integer())
        assert point is not None
        assert _satisfies(system, point)


def test_simplex_redundant_rows_are_harmless():
    system = RationalSystem(2)
    system.add_eq([1, 1], 2)
    system.add_eq([2, 2], 4)  # same hyperplane twice
    system.add_ge([1, 0], 0)
    point = solve_feasibility(system.integer())
    assert point is not None and _satisfies(system, point)


def test_simplex_exactness_with_awkward_fractions():
    system = RationalSystem(2)
    system.add_eq([Fraction(1, 3), Fraction(1, 7)], Fraction(22, 21))
    system.add_ge([1, 1], 2)
    point = solve_feasibility(system.integer())
    assert point is not None
    assert _satisfies(system, point)


def test_simplex_infeasible_conflicting_equalities():
    system = RationalSystem(2)
    system.add_eq([1, 1], 1)
    system.add_eq([1, 1], 2)
    assert solve_feasibility(system.integer()) is None


def test_simplex_degenerate_cycling_guard():
    # Classic degenerate tableau; Bland's rule must terminate.
    system = RationalSystem(4)
    system.add_ge([-1, 1, -1, 1], 0)
    system.add_ge([1, -1, -1, 1], 0)
    system.add_eq([1, 1, 1, 1], 1)
    point = solve_feasibility(system.integer())
    assert point is not None and _satisfies(system, point)


@st.composite
def systems(draw):
    """Systems with fractional entries, zero, repeated and scaled rows and
    negative right-hand sides; no rows at all is allowed too."""
    n = draw(st.integers(0, 5))
    system = RationalSystem(n)
    for _ in range(draw(st.integers(0, 6))):
        add = system.add_eq if draw(st.booleans()) else system.add_ge
        kind = draw(st.sampled_from(["fresh", "zero", "repeat"]))
        rhs = draw(ENTRIES)
        if kind == "zero" or n == 0:
            add([0] * n, rhs)
        elif kind == "repeat" and (system.eq_rows or system.ge_rows):
            coeffs, old = draw(st.sampled_from(system.eq_rows + system.ge_rows))
            t = Fraction(draw(st.sampled_from([1, 2, -1, Fraction(1, 3)])))
            add([t * c for c in coeffs], t * old)
        else:
            add([draw(ENTRIES) for _ in range(n)], rhs)
    return system


@settings(max_examples=400, deadline=None)
@given(systems())
def test_simplex_matches_fraction_reference(system):
    point = solve_feasibility(system.integer())
    assert point == reference_feasibility(system)
    if point is not None:
        assert _satisfies(system, point)


def test_simplex_matches_fraction_reference_on_empty_systems():
    for n in range(4):
        system = RationalSystem(n)
        assert solve_feasibility(system.integer()) == reference_feasibility(system) == [Fraction(0)] * n
    system = RationalSystem(0)
    system.add_eq([], 0)
    system.add_ge([], -1)
    assert solve_feasibility(system.integer()) == reference_feasibility(system) == []
    system.add_ge([], 1)
    assert solve_feasibility(system.integer()) is reference_feasibility(system) is None


def test_simplex_leaves_zero_level_artificials_basic():
    # Phase one ends with two artificials still basic at level 0.  They
    # stay in the basis, and the point equals the reference's, which
    # drives them out on the entry -1 of a surplus column.
    system = RationalSystem(1)
    system.add_eq([-2], -2)
    system.add_ge([1], 1)
    system.add_ge([2], 2)
    point = solve_feasibility(system.integer())
    assert point == reference_feasibility(system) == [Fraction(1)]


def test_feasibility_system_refuses_fraction_rows():
    system = FeasibilitySystem(2)
    with pytest.raises(TypeError):
        system.add_eq([Fraction(1, 2), 1], 1)
    with pytest.raises(TypeError):
        system.add_ge([1, 1], Fraction(1, 3))
    system.add_ge([True, 2], 0)  # any int will do
    assert system.ge_rows == [([1, 2], 0)]


def test_integer_rows_at_any_common_scale_return_the_fraction_reference_point():
    rng = random.Random(3)
    feasible = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        system = RationalSystem(n)
        for _ in range(rng.randint(1, 5)):
            add = system.add_eq if rng.random() < 0.4 else system.add_ge
            add(
                [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n)],
                Fraction(rng.randint(-4, 4), rng.randint(1, 6)),
            )
        expected = reference_feasibility(system)
        feasible += expected is not None
        base = system.integer()
        for factor in (1, 2, 35):
            scaled = FeasibilitySystem(n)
            for add, part in ((scaled.add_eq, base.eq_rows), (scaled.add_ge, base.ge_rows)):
                for coeffs, rhs in part:
                    add([factor * c for c in coeffs], factor * rhs)
            assert solve_feasibility(scaled) == expected
    assert 50 < feasible < 250, feasible


def test_per_row_scales_can_move_the_point_a_common_scale_keeps():
    # Scaling one row alone reweights the phase-one objective, so Bland's
    # rule takes another path: the reason callers pass one common scale.
    system = RationalSystem(2)
    system.add_eq([-2, -3], -3)
    system.add_ge([3, 3], -2)
    assert solve_feasibility(system.integer()) == reference_feasibility(system)
    assert reference_feasibility(system) == [Fraction(3, 2), Fraction(0)]
    per_row = FeasibilitySystem(2)
    per_row.add_eq([-4, -6], -6)
    per_row.add_ge([3, 3], -2)
    assert solve_feasibility(per_row) == [Fraction(0), Fraction(1)]
