"""Shared test helpers: independent reference implementations.

The routines here deliberately avoid the package's own algorithms so the
tests compare two different computations.  Determinants use cofactor
expansion (the package uses Gaussian elimination), LCP solutions are
checked straight from the definition, LP feasibility pivots a Fraction
tableau (the package pivots in integers), and LCP(A, q) and the degree sum
loop over the supports in bitmask order with a rational solve per support
(the package walks a tree of integer pivots).  The sym svec maps loop over
the coordinates one pair (i, j) at a time (the package uses index arrays),
with the same float operations, so both must agree bit for bit.  The
principal pivot transform is assembled from Fraction block products around
a Fraction Gauss-Jordan inverse of the pivot block (the package runs one
integer elimination).  The witness stream builds its Fractions before it
reads a ray (the package reads rays from the drawn ints), and the Q oracle
decides S by LP alone and scans R0 before it asks for P (the package takes
x = 1 when A1 > 0 and asks for P first).  R0 is a scan of the supports in
bitmask order with a cofactor sign per minor, and the degree is sampled at
random q until one is generic (the package reads both from one
lexicographic walk of LCP(A, 0)).  A Jordan frame is validated by one
jordan_product per pair of elements and built by one outer product per
column (the package multiplies stacks of pairs and maps all columns in one
svec), with the same float operations, so the two agree bit for bit.  LP
systems are written over Fractions (RationalSystem) and handed to the
package as integer rows at one common scale.
"""

import math
import random
import sys
from fractions import Fraction
from itertools import chain, combinations, count, islice

import numpy as np

from lcpq.classes import NO, UNDECIDED, YES, Verdict, _sign_corners, is_P
from lcpq.errors import SingularPivotError
from lcpq.jordan import algebra as jordan_algebra
from lcpq.jordan.algebra import (
    JordanElement,
    JordanFrame,
    element_from_eigenvalues,
    identity_element,
    trace_inner_product,
)
from lcpq.kernel import clear_denominators
from lcpq.lcp import LcpSolution, check_cap, is_solvable
from lcpq.matrices import RationalMatrix, nonpositive_rows, solve_linear
from lcpq.simplex import FeasibilitySystem, solve_feasibility
from lcpq.structure import is_bdsw_shape


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
    """Determinant by first-row cofactor expansion, exact over Fraction.
    The minor on the last rows and a set of columns is expanded once and
    kept, so a k x k block takes about k 2^k products, not k!."""
    n = len(rows)
    entries = [[Fraction(v) for v in row] for row in rows]
    minors = {(): Fraction(1)}

    def minor(cols):
        # Rows n - len(cols) .. n - 1 on the columns cols, expanded along
        # the first of those rows.
        if cols not in minors:
            row = entries[n - len(cols)]
            total = Fraction(0)
            for pos, j in enumerate(cols):
                if row[j]:
                    term = row[j] * minor(cols[:pos] + cols[pos + 1 :])
                    total += -term if pos % 2 else term
            minors[cols] = total
        return minors[cols]

    return minor(tuple(range(n)))


def matmul(a, b):
    """The product of two RationalMatrix objects of one order, by the
    definition."""
    n = a.n
    a_rows, b_rows = a.rows, b.rows
    return RationalMatrix(
        [
            [sum((a_rows[i][k] * b_rows[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)
        ]
    )


def matvec(matrix, x):
    """A x for a RationalMatrix A, over Fraction, by the definition."""
    if len(x) != matrix.n:
        raise ValueError("vector length %d does not match order %d" % (len(x), matrix.n))
    return [sum((a * Fraction(v) for a, v in zip(row, x)), Fraction(0)) for row in matrix.rows]


def identity(n):
    """The n x n identity RationalMatrix."""
    return RationalMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def transpose(matrix):
    """The transpose of a RationalMatrix."""
    return RationalMatrix([list(column) for column in zip(*matrix.rows)])


def neg(matrix):
    """-A for a RationalMatrix A."""
    return RationalMatrix([[-v for v in row] for row in matrix.rows])


def plain_text(matrix):
    """The matrix in parse_matrix's plain format: one row per line, each
    entry an integer or p/q."""
    return "".join(" ".join(str(v) for v in row) + "\n" for row in matrix.rows)


def check_lcp_solution(matrix, q, x):
    """Exact check of x >= 0, w = Ax + q >= 0, x . w = 0."""
    xf = [Fraction(v) for v in x]
    qf = [Fraction(v) for v in q]
    if any(v < 0 for v in xf):
        return False
    w = [wi + qi for wi, qi in zip(matvec(matrix, xf), qf)]
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


class RationalSystem:
    """A feasibility system over Fraction rows, with the add_eq/add_ge and
    eq_rows/ge_rows of lcpq.simplex.FeasibilitySystem, which takes ints.
    reference_feasibility reads it as it is; integer() is the system the
    package solves: every row times the one common scale, the lcm of all
    denominators."""

    def __init__(self, n_vars):
        self.n_vars = n_vars
        self.eq_rows = []
        self.ge_rows = []

    def add_eq(self, coeffs, rhs):
        self.eq_rows.append(([Fraction(c) for c in coeffs], Fraction(rhs)))

    def add_ge(self, coeffs, rhs):
        self.ge_rows.append(([Fraction(c) for c in coeffs], Fraction(rhs)))

    def integer(self):
        rows = self.eq_rows + self.ge_rows
        scale = math.lcm(*(v.denominator for coeffs, rhs in rows for v in (*coeffs, rhs)))
        system = FeasibilitySystem(self.n_vars)
        for add, part in ((system.add_eq, self.eq_rows), (system.add_ge, self.ge_rows)):
            for coeffs, rhs in part:
                add([c.numerator * (scale // c.denominator) for c in coeffs],
                    rhs.numerator * (scale // rhs.denominator))
        return system


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


def _principal_sign(rows, idx):
    """sgn det A_II by cofactor expansion, for A's Fraction rows."""
    return _sign(cofactor_det([[rows[i][j] for j in idx] for i in idx])) if idx else 1


def reference_solve_lcp(matrix, q):
    """lcpq.lcp.solve_lcp by a bitmask-order loop over the supports.

    A nonsingular support is solved in Fraction arithmetic; a singular one
    takes the point reference_feasibility finds on the system lcp's family
    LP builds.  The first occurrence of each vector is kept.
    """
    n = matrix.n
    rows = matrix.rows
    q = [Fraction(v) for v in q]
    seen = {}
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        comp = [j for j in range(n) if not mask >> j & 1]
        status, x = _support_solution(matrix, q, idx)
        if status != "unique":
            system = RationalSystem(len(idx))
            for i in idx:
                system.add_eq([rows[i][j] for j in idx], -q[i])
            for j in comp:
                system.add_ge([rows[j][i] for i in idx], -q[j])
            point = reference_feasibility(system)
            if point is None:
                continue
            x = [Fraction(0)] * n
            for i, v in zip(idx, point):
                x[i] = v
        w = [wi + qi for wi, qi in zip(matvec(matrix, x), q)]
        if any(v < 0 for v in x) or any(w[j] < 0 for j in comp):
            continue
        key = tuple(x)
        if key not in seen:
            seen[key] = LcpSolution(key, tuple(i + 1 for i in range(n) if x[i] > 0))
    return list(seen.values())


def reference_generic_degree(matrix, q):
    """The sum of sgn det A_II over the solutions of LCP(A, q), by a
    bitmask-order loop over the supports in Fraction arithmetic: None when
    q is not generic, that is on a consistent singular support or an exact
    zero in a candidate's x_I or complementary slack."""
    n = matrix.n
    rows = matrix.rows
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
        w = [wi + qi for wi, qi in zip(matvec(matrix, x), q)]
        slacks = [w[j] for j in comp]
        if 0 in slacks:
            return None
        if any(v < 0 for v in slacks):
            continue
        total += _principal_sign(rows, idx)
    return total


def _lex_sign(coefficients):
    """The sign of a polynomial in eps -> 0+: that of its first nonzero
    coefficient, 0 when there is none."""
    return next((_sign(v) for v in coefficients if v), 0)


def reference_lex_walk(matrix, q):
    """mask -> what lcpq.lcp.walk(rows, lex=True) yields as solved, where
    rows is lcpq.lcp.integer_system(matrix, q)'s, by a bitmask-order loop
    over the supports of the matrix in Fraction arithmetic: None for a
    singular support whose system A_II x_I = -q_I is consistent (an
    inconsistent one is left out), and for a nonsingular one whether every
    x_i(eps) and w_j(eps) is positive at q(eps) = q + (eps, ..., eps^n).
    Their coefficients come from a Fraction Gauss-Jordan inverse B of
    A_II: x_I(eps) = -B q_I - sum over k in I of eps^(k+1) B e_k, and
    w_j(eps) = (A x(eps))_j + q_j + eps^(j+1)."""
    n = matrix.n
    rows = matrix.rows
    q = [Fraction(v) for v in q]
    out = {}
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        comp = [j for j in range(n) if not mask >> j & 1]
        if _principal_sign(rows, idx) == 0:
            status, _ = _support_solution(matrix, q, idx)
            if status != "inconsistent":
                out[mask] = None
            continue
        inverse = _fraction_inverse([[rows[i][j] for j in idx] for i in idx])
        # Row t of x holds the coefficients of x_(idx[t]): power 0, then
        # the powers k + 1 of k in idx, in increasing order.
        x = [[-sum(b * q[i] for b, i in zip(row, idx))] + [-b for b in row] for row in inverse]
        solved = all(_lex_sign(row) > 0 for row in x)
        for j in comp:
            w = [sum(rows[j][i] * row[c] for i, row in zip(idx, x)) for c in range(len(idx) + 1)]
            w[0] += q[j]
            below = [c + 1 for c, k in enumerate(idx) if k < j]
            solved = solved and _lex_sign([w[c] for c in [0] + below] + [1]) > 0
        out[mask] = solved
    return out


def reference_degree(matrix, rng_seed=0, draws=64):
    """The LCP degree of an R0 matrix as lcpq.lcp.degree computed it before
    it walked LCP(A, q(eps)): reference_generic_degree at integer q drawn
    from +-10^6 (1 + n), redrawn while q is not generic."""
    n = matrix.n
    rng = random.Random(rng_seed)
    bound = 10 ** 6 * (1 + n)
    for _ in range(draws):
        total = reference_generic_degree(matrix, [rng.randint(-bound, bound) for _ in range(n)])
        if total is not None:
            return total
    raise AssertionError("no generic q in %d draws; the matrix may not be R0" % draws)


def reference_to_matrix(x):
    """JordanElement.to_matrix by a loop over the sym coordinates."""
    if x.algebra.kind != "sym":
        raise ValueError("matrix form only exists for the sym algebra")
    m = x.algebra.size
    out = np.zeros((m, m))
    for i in range(m):
        out[i, i] = x.coords[i]
    root2 = np.sqrt(2.0)
    for pos, (i, j) in enumerate(combinations(range(m), 2), start=m):
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
    for pos, (i, j) in enumerate(combinations(range(m), 2), start=m):
        coords[pos] = mat[i, j] * root2
    return JordanElement(algebra, coords)


def _fraction_inverse(rows):
    """Inverse by Gauss-Jordan on [E | I] over Fraction; SingularPivotError
    if E is singular."""
    k = len(rows)
    work = [list(row) + [Fraction(int(a == b)) for b in range(k)] for a, row in enumerate(rows)]
    for c in range(k):
        pivot_row = next((r for r in range(c, k) if work[r][c] != 0), None)
        if pivot_row is None:
            raise SingularPivotError("pivot block A_JJ is singular")
        work[c], work[pivot_row] = work[pivot_row], work[c]
        pivot = work[c][c]
        work[c] = [v / pivot for v in work[c]]
        for r in range(k):
            factor = work[r][c]
            if r != c and factor != 0:
                work[r] = [v - factor * p for v, p in zip(work[r], work[c])]
    return [row[k:] for row in work]


def reference_ppt(matrix, j_set):
    """lcpq.pivot.ppt by block products: with A = (B C; D E), E = A_JJ and
    B on the complement, the transform is (B - C E^-1 D, C E^-1; -E^-1 D,
    E^-1), placed back under A's index labels.  E^-1 comes from Fraction
    Gauss-Jordan on [E | I].  Raises what ppt raises: ValueError for
    an empty J or an index outside 1..n, SingularPivotError for a singular
    A_JJ."""
    n = matrix.n
    j_list = sorted(set(j_set))
    if not j_list:
        raise ValueError("pivot set must be nonempty")
    if j_list[0] < 1 or j_list[-1] > n:
        raise ValueError("pivot indices must lie in 1..%d" % n)
    j0 = [i - 1 for i in j_list]
    comp = [i for i in range(n) if i not in j0]
    k = len(j0)
    m = len(comp)
    rows = matrix.rows
    e_inv = _fraction_inverse([[rows[i][j] for j in j0] for i in j0])
    c = [[rows[i][j] for j in j0] for i in comp]
    d = [[rows[i][j] for j in comp] for i in j0]

    ce = [
        [sum((c[i][a] * e_inv[a][b] for a in range(k)), Fraction(0)) for b in range(k)]
        for i in range(m)
    ]
    ed = [
        [sum((e_inv[i][a] * d[a][j] for a in range(k)), Fraction(0)) for j in range(m)]
        for i in range(k)
    ]
    schur = [
        [
            rows[comp[i]][comp[j]] - sum((ce[i][b] * d[b][j] for b in range(k)), Fraction(0))
            for j in range(m)
        ]
        for i in range(m)
    ]

    out = [[Fraction(0)] * n for _ in range(n)]
    order = comp + j0
    for a in range(m):
        for b in range(m):
            out[order[a]][order[b]] = schur[a][b]
        for b in range(k):
            out[order[a]][order[m + b]] = ce[a][b]
    for a in range(k):
        for b in range(m):
            out[order[m + a]][order[b]] = -ed[a][b]
        for b in range(k):
            out[order[m + a]][order[m + b]] = e_inv[a][b]
    return RationalMatrix(out)


def reference_witness_candidates(n, budget, rng_seed):
    """lcpq.classes._witness_candidates as it was when every draw built its
    Fractions first and read its ray from them."""
    phase_one = (
        tuple(-1 if j == i else rest for j in range(n)) for i in range(n) for rest in (0, 1)
    )
    corners = ([Fraction(v) for v in c] for c in chain(phase_one, _sign_corners(n)))
    rng = random.Random(rng_seed)
    draws = (
        [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n)]
        for _ in count()
    )
    negative = (q for q in chain(corners, draws) if min(q) < 0)

    def new_rays(vectors, patience):
        seen = set()
        stale = 0
        for q in vectors:
            _, ints = clear_denominators(q)
            g = math.gcd(*ints)
            ray = tuple(v // g for v in ints)
            if ray not in seen:
                seen.add(ray)
                stale = 0
                yield q
            else:
                stale += 1
                if stale >= patience:
                    return

    return islice(new_rays(negative, budget), max(budget, 0))


def reference_random_triangular(rng, n, entry_range=5):
    """lcpq.generate.random_triangular as it was before it transposed its
    int rows: the same draws, and a lower triangle made by transposing the
    upper one after its entries became Fractions."""
    side = "upper" if rng.random() < 0.5 else "lower"
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-entry_range, entry_range)
        for j in range(i + 1, n):
            rows[i][j] = rng.randint(-entry_range, entry_range)
    matrix = RationalMatrix(rows)
    return matrix if side == "upper" else transpose(matrix)


def reference_is_R0(matrix):
    """lcpq.classes.is_R0 as it was before it walked LCP(A, 0): a scan of
    the supports in bitmask order that takes each minor's sign from
    cofactor expansion and runs the LP of each singular support in turn.
    The LP is the package's (test_simplex holds it to the Fraction
    tableau), so the census comparison stays fast."""
    n = matrix.n
    rows = matrix.rows
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        comp = [j for j in range(n) if not mask >> j & 1]
        if _principal_sign(rows, idx) != 0:
            continue  # x_I = 0 is the only solution, and sum x_I = 1 fails
        system = RationalSystem(len(idx))
        for i in idx:
            system.add_eq([rows[i][j] for j in idx], 0)
        system.add_eq([1] * len(idx), 1)
        for j in comp:
            system.add_ge([rows[j][i] for i in idx], 0)
        point = solve_feasibility(system.integer())
        if point is not None:
            x = [Fraction(0)] * n
            for i, v in zip(idx, point):
                x[i] = v
            return Verdict(NO, "R0", "nonzero solution of LCP(A,0)", {"x": x})
    return Verdict(YES, "R0", "LCP(A,0) has only the zero solution", {})


def reference_q_oracle(matrix, budget=64, rng_seed=0):
    """lcpq.classes.q_oracle with its earlier prologue: S by LP alone, then
    the R0 scan (reference_is_R0), then P, and the sampled degree
    (reference_degree)."""
    n = matrix.n
    check_cap(n)
    bad = nonpositive_rows(matrix)
    if bad:
        return Verdict(NO, "nonpositive-row", "row without positive entry", {"row": bad[0] + 1})
    system = RationalSystem(n)
    for row in matrix.rows:
        system.add_ge(row, 1)
    if reference_feasibility(system) is None:
        return Verdict(NO, "not-S", "no positive x with Ax > 0", {})
    bdsw = is_bdsw_shape(matrix)
    r0 = reference_is_R0(matrix)
    if r0.is_yes:
        if is_P(matrix).is_yes:
            deg = 1
        else:
            deg = reference_degree(matrix, rng_seed)
        if deg:
            return Verdict(YES, "degree-nonzero", "R0 with nonzero LCP degree", {"degree": deg})
        if bdsw:
            return Verdict(NO, "bdsw-degree-zero", "bdsw shape with R0 and degree 0", {"degree": 0})
    elif bdsw:
        return Verdict(NO, "bdsw-not-R0", "bdsw shape without the R0 property", dict(r0.data))
    for q in reference_witness_candidates(n, budget, rng_seed):
        if not is_solvable(matrix, q):
            return Verdict(NO, "unsolvable-q", "LCP(A,q) has no solution", {"q": q})
    return Verdict(UNDECIDED, "undecided", "no decision within budget", {})


def reference_validate(frame, tol):
    """lcpq.jordan.algebra.JordanFrame.validate by one jordan_product per
    pair of frame elements, i <= j, taking the max residual; a nan
    residual makes it nan, which no tol passes.  jordan_product is looked
    up on its module at each call, so that count_calls sees the calls."""
    residuals = []
    for i, e in enumerate(frame.elements):
        residuals.append(_reference_max_abs(jordan_algebra.jordan_product(e, e) - e))
        residuals.append(abs(trace_inner_product(e, e) - 1.0))
        for j in range(i + 1, len(frame.elements)):
            f = frame.elements[j]
            residuals.append(_reference_max_abs(jordan_algebra.jordan_product(e, f)))
    total = element_from_eigenvalues(frame, np.ones(len(frame)))
    residuals.append(_reference_max_abs(total - identity_element(frame.algebra)))
    worst = math.nan if any(math.isnan(r) for r in residuals) else max(residuals)
    if not worst <= tol:
        raise ValueError("frame residual %.3e exceeds tolerance %.3e" % (worst, tol))
    return worst


def _reference_max_abs(x):
    return float(np.max(np.abs(x.coords))) if x.coords.size else 0.0


def reference_frame_from_orthogonal(algebra, q):
    """lcpq.jordan.algebra.frame_from_orthogonal by one np.outer and one
    coordinate loop (reference_element_from_matrix) per column of q."""
    return JordanFrame(
        algebra,
        tuple(
            reference_element_from_matrix(algebra, np.outer(q[:, i], q[:, i]))
            for i in range(algebra.size)
        ),
    )
