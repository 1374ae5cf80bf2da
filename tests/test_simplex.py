"""Exact LP feasibility: results are rational points or a definite None.

The integer tableau is also compared with the Fraction tableau of
helpers.reference_feasibility: both follow Bland's rule, so they must pivot
alike and return the identical point, not merely a feasible one.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_feasibility
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
    system = FeasibilitySystem(2)
    system.add_eq([1, 1], 1)
    point = solve_feasibility(system)
    assert point is not None and _satisfies(system, point)


def test_simplex_infeasible_negative_bound():
    # x >= 0 with x <= -1 has no solution.
    system = FeasibilitySystem(1)
    system.add_ge([-1], 1)
    assert solve_feasibility(system) is None


def test_simplex_no_constraints_origin():
    assert solve_feasibility(FeasibilitySystem(3)) == [Fraction(0)] * 3


def test_simplex_homogeneous_support_system_infeasible():
    # The kind of system is_R0 builds for a nonsingular 1x1 support:
    # 1*x = 0 with x = 1 normalisation.
    system = FeasibilitySystem(1)
    system.add_eq([1], 0)
    system.add_eq([1], 1)
    assert solve_feasibility(system) is None


def test_simplex_planted_feasible_points():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        planted = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n)]
        system = FeasibilitySystem(n)
        for _ in range(rng.randint(1, 4)):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            value = sum((c * x for c, x in zip(coeffs, planted)), Fraction(0))
            if rng.random() < 0.5:
                system.add_eq(coeffs, value)
            else:
                # Loosen so the planted point stays feasible.
                system.add_ge(coeffs, value - rng.randint(0, 3))
        point = solve_feasibility(system)
        assert point is not None
        assert _satisfies(system, point)


def test_simplex_redundant_rows_are_harmless():
    system = FeasibilitySystem(2)
    system.add_eq([1, 1], 2)
    system.add_eq([2, 2], 4)  # same hyperplane twice
    system.add_ge([1, 0], 0)
    point = solve_feasibility(system)
    assert point is not None and _satisfies(system, point)


def test_simplex_exactness_with_awkward_fractions():
    system = FeasibilitySystem(2)
    system.add_eq([Fraction(1, 3), Fraction(1, 7)], Fraction(22, 21))
    system.add_ge([1, 1], 2)
    point = solve_feasibility(system)
    assert point is not None
    assert _satisfies(system, point)


def test_simplex_infeasible_conflicting_equalities():
    system = FeasibilitySystem(2)
    system.add_eq([1, 1], 1)
    system.add_eq([1, 1], 2)
    assert solve_feasibility(system) is None


def test_simplex_degenerate_cycling_guard():
    # Classic degenerate tableau; Bland's rule must terminate.
    system = FeasibilitySystem(4)
    system.add_ge([-1, 1, -1, 1], 0)
    system.add_ge([1, -1, -1, 1], 0)
    system.add_eq([1, 1, 1, 1], 1)
    point = solve_feasibility(system)
    assert point is not None and _satisfies(system, point)


@st.composite
def systems(draw):
    """Systems with fractional entries, zero, repeated and scaled rows and
    negative right-hand sides; no rows at all is allowed too."""
    n = draw(st.integers(0, 5))
    system = FeasibilitySystem(n)
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
    point = solve_feasibility(system)
    assert point == reference_feasibility(system)
    if point is not None:
        assert _satisfies(system, point)


def test_simplex_matches_fraction_reference_on_empty_systems():
    for n in range(4):
        system = FeasibilitySystem(n)
        assert solve_feasibility(system) == reference_feasibility(system) == [Fraction(0)] * n
    system = FeasibilitySystem(0)
    system.add_eq([], 0)
    system.add_ge([], -1)
    assert solve_feasibility(system) == reference_feasibility(system) == []
    system.add_ge([], 1)
    assert solve_feasibility(system) is reference_feasibility(system) is None


def test_simplex_negative_pivot_in_drive_out():
    # Phase one ends with two artificials still basic at level 0, and each
    # is driven out on the entry -1 of a surplus column, so the pivot turns
    # negative and the tableau is negated back to a positive scale.
    system = FeasibilitySystem(1)
    system.add_eq([-2], -2)
    system.add_ge([1], 1)
    system.add_ge([2], 2)
    point = solve_feasibility(system)
    assert point == reference_feasibility(system) == [Fraction(1)]
