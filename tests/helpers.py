"""Shared test helpers: independent reference implementations.

The routines here deliberately avoid the package's own algorithms so the
tests compare two different computations.  Determinants use cofactor
expansion (the package uses Gaussian elimination), LCP solutions are
checked straight from the definition, LP feasibility pivots a Fraction
tableau (the package pivots in integers), and LCP(A, q) and the degree sum
loop over the supports in bitmask order with a rational solve per support
(the package walks a tree of integer pivots).  The sym svec maps loop over
the coordinates one pair (i, j) at a time (the package uses index arrays),
with the same float operations, so both must agree bit for bit.
"""

import sys
from fractions import Fraction
from itertools import combinations

import numpy as np

from lcpq.jordan.algebra import JordanElement
from lcpq.lcp import LcpSolution
from lcpq.matrices import solve_linear
from lcpq.simplex import FeasibilitySystem


def count_calls(monkeypatch, function):
    """Count calls of function through every lcpq module that holds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("lcpq") and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counted)
    return calls


def cofactor_det(rows):
    """Determinant by first-row cofactor expansion, exact over Fraction."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        entry = Fraction(rows[0][j])
        if entry == 0:
            continue
        minor = [
            [rows[i][c] for c in range(n) if c != j] for i in range(1, n)
        ]
        sign = -1 if j % 2 else 1
        total += sign * entry * cofactor_det(minor)
    return total


def check_lcp_solution(matrix, q, x):
    """Exact check of x >= 0, w = Ax + q >= 0, x . w = 0."""
    xf = [Fraction(v) for v in x]
    qf = [Fraction(v) for v in q]
    if any(v < 0 for v in xf):
        return False
    w = [wi + qi for wi, qi in zip(matrix.matvec(xf), qf)]
    if any(v < 0 for v in w):
        return False
    return sum((a * b for a, b in zip(xf, w)), Fraction(0)) == 0


def principal_minors(rows):
    """All principal minors (nonempty index sets), exact, via cofactor_det."""
    n = len(rows)
    out = []
    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            sub = [[rows[i][j] for j in idx] for i in idx]
            out.append((idx, cofactor_det(sub)))
    return out


def reference_feasibility(system):
    """Phase-one simplex with Bland's rule on a Fraction tableau.

    The rational form of lcpq.simplex.solve_feasibility, which pivots in
    integers: both must return the identical point, or both None.
    """
    n = system.n_vars
    n_surplus = len(system.ge_rows)

    # Tableau rows over [x | surplus] with rhs >= 0 after sign normalisation.
    rows = []
    for coeffs, rhs in system.eq_rows:
        if len(coeffs) != n:
            raise ValueError("coefficient length mismatch")
        rows.append(([Fraction(c) for c in coeffs] + [Fraction(0)] * n_surplus, Fraction(rhs)))
    for s, (coeffs, rhs) in enumerate(system.ge_rows):
        if len(coeffs) != n:
            raise ValueError("coefficient length mismatch")
        surplus = [Fraction(0)] * n_surplus
        surplus[s] = Fraction(-1)
        rows.append(([Fraction(c) for c in coeffs] + surplus, Fraction(rhs)))

    m = len(rows)
    width = n + n_surplus
    if m == 0:
        return [Fraction(0)] * n

    tableau = []
    for coeffs, rhs in rows:
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
        tableau.append(coeffs + [rhs])

    # Phase one: artificial variable per row, minimise their sum.
    total = width + m
    for r in range(m):
        art = [Fraction(0)] * m
        art[r] = Fraction(1)
        tableau[r] = tableau[r][:width] + art + [tableau[r][width]]
    basis = [width + r for r in range(m)]

    # Objective row: reduced costs for min sum of artificials.
    obj = [Fraction(0)] * (total + 1)
    for r in range(m):
        for c in range(total + 1):
            obj[c] -= tableau[r][c]
    # Artificial columns start basic with cost 1, so their reduced cost is 0.
    for r in range(m):
        obj[width + r] = Fraction(0)

    def pivot(row: int, col: int) -> None:
        piv = tableau[row][col]
        tableau[row] = [v / piv for v in tableau[row]]
        for r in range(m):
            if r == row:
                continue
            factor = tableau[r][col]
            if factor != 0:
                tableau[r] = [v - factor * p for v, p in zip(tableau[r], tableau[row])]
        factor = obj[col]
        if factor != 0:
            for c in range(total + 1):
                obj[c] -= factor * tableau[row][c]
        basis[row] = col

    while True:
        # Bland: entering = lowest-index column with negative reduced cost.
        enter = None
        for c in range(total):
            if obj[c] < 0:
                enter = c
                break
        if enter is None:
            break
        # Ratio test; ties resolved by lowest basis variable index (Bland).
        leave = None
        best = None
        for r in range(m):
            coeff = tableau[r][enter]
            if coeff > 0:
                ratio = tableau[r][total] / coeff
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave is None:
            raise RuntimeError("phase-one objective unbounded; malformed tableau")
        pivot(leave, enter)

    if -obj[total] != 0:
        return None

    # Drive leftover artificials out of the basis; rows that cannot pivot on
    # any structural column are redundant and can stay (rhs is 0 there).
    for r in range(m):
        if basis[r] >= width:
            for c in range(width):
                if tableau[r][c] != 0:
                    pivot(r, c)
                    break

    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tableau[r][total]
    return x


def _sign(v):
    return (v > 0) - (v < 0)


def _support_solution(matrix, q, idx):
    """solve_linear's status for A_II x_I = -q_I, and the length-n x it
    gives (zero off idx) when that solution is unique."""
    x = [Fraction(0)] * matrix.n
    if not idx:
        return "unique", x
    status, xi = solve_linear(matrix.principal_submatrix(idx), [-q[i] for i in idx])
    if status == "unique":
        for i, v in zip(idx, xi):
            x[i] = v
    return status, x


def _principal_sign(matrix, idx):
    return _sign(cofactor_det([[matrix.rows[i][j] for j in idx] for i in idx])) if idx else 1


def reference_solve_lcp(matrix, q):
    """lcpq.lcp.solve_lcp by a bitmask-order loop over the supports.

    A nonsingular support is solved in Fraction arithmetic; a singular one
    takes the point reference_feasibility finds on the system lcp's family
    LP builds.  The first occurrence of each vector is kept.
    """
    n = matrix.n
    q = [Fraction(v) for v in q]
    seen = {}
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        comp = [j for j in range(n) if not mask >> j & 1]
        status, x = _support_solution(matrix, q, idx)
        if status != "unique":
            system = FeasibilitySystem(len(idx))
            for i in idx:
                system.add_eq([matrix.rows[i][j] for j in idx], -q[i])
            for j in comp:
                system.add_ge([matrix.rows[j][i] for i in idx], -q[j])
            point = reference_feasibility(system)
            if point is None:
                continue
            x = [Fraction(0)] * n
            for i, v in zip(idx, point):
                x[i] = v
        w = [wi + qi for wi, qi in zip(matrix.matvec(x), q)]
        if any(v < 0 for v in x) or any(w[j] < 0 for j in comp):
            continue
        key = tuple(x)
        if key not in seen:
            support = [i for i in range(n) if x[i] > 0]
            seen[key] = LcpSolution(
                key,
                tuple(i + 1 for i in support),
                all(x[i] + w[i] > 0 for i in range(n)),
                _principal_sign(matrix, support),
            )
    return list(seen.values())


def reference_generic_degree(matrix, q):
    """lcpq.lcp._generic_degree by a bitmask-order loop over the supports,
    in Fraction arithmetic: None on a consistent singular support or an
    exact zero in a candidate's x_I or complementary slack."""
    n = matrix.n
    q = [Fraction(v) for v in q]
    total = 0
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        comp = [j for j in range(n) if not mask >> j & 1]
        status, x = _support_solution(matrix, q, idx)
        if status != "unique":
            if status != "inconsistent":
                return None
            continue
        xi = [x[i] for i in idx]
        if 0 in xi:
            return None
        if any(v < 0 for v in xi):
            continue
        w = [wi + qi for wi, qi in zip(matrix.matvec(x), q)]
        slacks = [w[j] for j in comp]
        if 0 in slacks:
            return None
        if any(v < 0 for v in slacks):
            continue
        total += _principal_sign(matrix, idx)
    return total


def reference_to_matrix(x):
    """JordanElement.to_matrix by a loop over the sym coordinates."""
    if x.algebra.kind != "sym":
        raise ValueError("matrix form only exists for the sym algebra")
    m = x.algebra.size
    out = np.zeros((m, m))
    for i in range(m):
        out[i, i] = x.coords[i]
    root2 = np.sqrt(2.0)
    for pos, (i, j) in enumerate(x.algebra.off_diagonal_pairs(), start=m):
        out[i, j] = out[j, i] = x.coords[pos] / root2
    return out


def reference_element_from_matrix(algebra, mat):
    """lcpq.jordan.algebra.element_from_matrix by a loop over the sym
    coordinates; reads the upper triangle of a nonsymmetric mat."""
    if algebra.kind != "sym":
        raise ValueError("matrix form only exists for the sym algebra")
    m = algebra.size
    mat = np.asarray(mat, dtype=float)
    coords = np.zeros(algebra.dim)
    for i in range(m):
        coords[i] = mat[i, i]
    root2 = np.sqrt(2.0)
    for pos, (i, j) in enumerate(algebra.off_diagonal_pairs(), start=m):
        coords[pos] = mat[i, j] * root2
    return JordanElement(algebra, coords)
