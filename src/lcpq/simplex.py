"""Exact rational LP feasibility via phase-one simplex with Bland's rule.

Only feasibility is ever needed here: the matrix-class tests reduce to
"does this system of equalities/inequalities with nonnegative variables
have a solution".  Bland's rule guarantees termination and exact arithmetic
removes every tolerance question.

The tableau is kept in integers (J. Edmonds, *Systems of distinct
representatives and linear algebra*, J. Res. NBS 71B, 1967; the scheme of
lrs).  Callers pass integer rows: the rational system times one positive
scale shared by every row, read from their matrix's one integer image
(RationalMatrix.integer_rows, lcp.integer_system).  One scale scales every
row and the phase-one objective alike, so the simplex makes the sign and
ratio decisions of the rational run and returns its point, whatever the
scale.  Rows at different scales would reweight the objective and could
move Bland's path.  Each pivot on entry p updates

    T[i][j] <- (p * T[i][j] - T[i][c] * T[r][j]) // d,   d <- p

where d is the previous pivot.  Every division is exact, since the entries
stay d times the rational tableau (d is the basis determinant), so no gcd
is ever taken.  Fraction values are built only for the returned point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import index
from typing import List, Optional, Tuple

Row = Tuple[List[int], int]


@dataclass
class FeasibilitySystem:
    """Constraint system over variables x_0..x_{n_vars-1}, all x >= 0.

    eq_rows are (coeffs, rhs) meaning coeffs . x == rhs;
    ge_rows are (coeffs, rhs) meaning coeffs . x >= rhs.
    Coefficients and right-hand sides are ints: the rational system times
    one positive scale shared by every row (see the module docstring).
    A Fraction is refused with TypeError.
    """

    n_vars: int
    eq_rows: List[Row] = field(default_factory=list)
    ge_rows: List[Row] = field(default_factory=list)

    def add_eq(self, coeffs, rhs) -> None:
        self.eq_rows.append((list(map(index, coeffs)), index(rhs)))

    def add_ge(self, coeffs, rhs) -> None:
        self.ge_rows.append((list(map(index, coeffs)), index(rhs)))


def solve_feasibility(system: FeasibilitySystem) -> Optional[List[Fraction]]:
    """Return a feasible point, or None when the system is infeasible."""
    n = system.n_vars
    rows = system.eq_rows + system.ge_rows
    for coeffs, _ in rows:
        if len(coeffs) != n:
            raise ValueError("coefficient length mismatch")
    m = len(rows)
    if m == 0:
        return [Fraction(0)] * n

    # Tableau rows [A | -surplus | b], rhs >= 0 after sign normalisation,
    # then one unit artificial column per row.  A unit surplus column is a
    # rescaled surplus variable, which moves no sign or ratio decision.
    n_eq = len(system.eq_rows)
    width = n + m - n_eq
    total = width + m
    tableau = []
    for r, (coeffs, rhs) in enumerate(rows):
        surplus = [0] * (m - n_eq)
        if r >= n_eq:
            surplus[r - n_eq] = -1
        art = [0] * m
        art[r] = 1
        if rhs < 0:
            tableau.append([-v for v in coeffs + surplus] + art + [-rhs])
        else:
            tableau.append(coeffs + surplus + art + [rhs])
    basis = [width + r for r in range(m)]

    # Objective row: reduced costs for min sum of artificials, which start
    # basic with cost 1, so their reduced cost is 0.
    obj = [-sum(col) for col in zip(*tableau)]
    obj[width:total] = [0] * m
    tableau.append(obj)

    d = 1  # previous pivot; the tableau is d times the rational one

    def pivot(row: int, col: int) -> None:
        nonlocal d
        p = tableau[row][col]
        prow = tableau[row]
        for i, cur in enumerate(tableau):
            if i == row:
                continue
            f = cur[col]
            if f:
                tableau[i] = [(p * a - f * b) // d for a, b in zip(cur, prow)]
            elif p != d:
                tableau[i] = [(p * a) // d for a in cur]
        d = p
        basis[row] = col

    while True:
        # Bland: entering = lowest-index column with negative reduced cost.
        obj = tableau[m]
        enter = None
        for c in range(total):
            if obj[c] < 0:
                enter = c
                break
        if enter is None:
            break
        # Ratio test by cross-multiplication; d > 0 in phase one, so every
        # sign is that of the rational tableau.  Ties resolved by lowest
        # basis variable index (Bland).
        leave = None
        for r in range(m):
            coeff = tableau[r][enter]
            if coeff > 0:
                if leave is None:
                    leave = r
                    continue
                left = tableau[r][total] * tableau[leave][enter]
                right = tableau[leave][total] * coeff
                if left < right or (left == right and basis[r] < basis[leave]):
                    leave = r
        if leave is None:
            raise RuntimeError("phase-one objective unbounded; malformed tableau")
        pivot(leave, enter)

    if tableau[m][total] != 0:
        return None

    # Artificials still basic sit at level 0 once the objective is 0, so
    # driving them out would pivot on a zero right-hand side: every basic
    # value stays, the entering variable comes in at 0, and the point read
    # below is the same.  They stay in the basis.
    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(tableau[r][total], d)
    return x
