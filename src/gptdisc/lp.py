"""Dense two-phase simplex solver with primal/dual optimality certificates.

Problems are kept in standard form (minimize ``c . x`` subject to
``A x = b``, ``x >= 0``).

The pivot rule is Bland's (lowest eligible index enters, ratio ties broken
by lowest basis index), which guarantees termination in exact arithmetic
and makes every solve deterministic.  Pivot magnitudes below
``PIVOT_FLOOR`` are never used; an entering column whose positive entries
all sit below the floor is skipped.  Everything is dense numpy: the
measurement LP has one row per model dimension and one column per
effect generator, 3 x 128 for the order-128 polygon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, finite_array

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: Reduced costs above -REDUCED_COST_TOL are treated as nonnegative.
REDUCED_COST_TOL = 1e-12
#: Pivot entries at or below this magnitude are never pivoted on.
PIVOT_FLOOR = 1e-12

_MAX_ITER = 20_000


@dataclass(frozen=True, eq=False)
class LpProblem:
    """Standard-form linear program: minimize ``objective . x`` s.t. ``eq_matrix x = eq_rhs``, ``x >= 0``."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self):
        eq_matrix = finite_array(self.eq_matrix, "eq_matrix", (None, None))
        m, n = eq_matrix.shape
        object.__setattr__(self, "objective", finite_array(self.objective, "objective", (n,)))
        object.__setattr__(self, "eq_matrix", eq_matrix)
        object.__setattr__(self, "eq_rhs", finite_array(self.eq_rhs, "eq_rhs", (m,)))

    @property
    def n_rows(self) -> int:
        return self.eq_matrix.shape[0]


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Solver output; ``x``/``y`` are None unless optimal."""

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    y: np.ndarray | None = None


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """Pivot on ``(row, col)``: one outer-product update by the scaled pivot row, which then replaces its row."""
    pivot_row = tableau[row] / tableau[row, col]
    tableau -= tableau[:, col, None] * pivot_row
    np.add(pivot_row, 0.0, out=tableau[row])  # pivot_row - 0 * pivot_row, so -0.0 reads 0.0
    basis[row] = col


def _run_phase(tableau: np.ndarray, basis: list[int], enter_limit: int) -> str:
    """Run simplex iterations on ``tableau`` until optimal or unbounded.

    The last tableau row holds reduced costs, the last column the rhs.
    Only columns below ``enter_limit`` may enter the basis.
    """
    m = len(basis)
    rhs = tableau[:m, -1]
    for _ in range(_MAX_ITER):
        entering = -1
        leaving = -1
        for j in (tableau[-1, :enter_limit] < -REDUCED_COST_TOL).nonzero()[0]:
            column = tableau[:m, j]
            usable = column > PIVOT_FLOOR
            if not usable.any():
                if np.all(column <= 0.0):
                    return UNBOUNDED
                continue  # only near-degenerate pivots available: skip column
            ratios = np.divide(rhs, column, out=np.full(m, np.inf), where=usable)
            best = ratios.min()
            ties = (ratios <= best + PIVOT_FLOOR * (1.0 + abs(best))).nonzero()[0]
            leaving = min(ties.tolist(), key=basis.__getitem__)
            entering = int(j)
            break
        if entering < 0:
            return OPTIMAL
        _pivot(tableau, basis, leaving, entering)
    raise NumericalFailureError("simplex iteration guard exceeded (possible cycling)")


def solve_lp(problem: LpProblem, tol: float = 1e-9) -> LpSolution:
    """Solve a standard-form LP, returning a certified solution.

    On ``optimal`` status the solution satisfies the certificate
    invariants checked by :func:`check_certificate`.  Infeasibility and
    unboundedness are reported through ``status``; only the iteration
    guard (``_MAX_ITER`` pivots per phase) and a phase-1 "unbounded"
    raise :class:`NumericalFailureError`.
    """
    c = problem.objective
    m, n = problem.eq_matrix.shape

    sign = np.where(problem.eq_rhs < 0.0, -1.0, 1.0)
    a = problem.eq_matrix * sign[:, None]
    b = problem.eq_rhs * sign

    # Phase 1: artificial basis, minimize the sum of artificials.
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1, :n] = -a.sum(axis=0)
    tableau[-1, -1] = -b.sum()
    basis = list(range(n, n + m))

    status = _run_phase(tableau, basis, enter_limit=n)
    if status == UNBOUNDED:
        raise NumericalFailureError("phase-1 problem reported unbounded")
    infeasibility = -tableau[-1, -1]
    if infeasibility > tol:
        return LpSolution(status=INFEASIBLE)

    # Drive leftover artificials out of the basis; rows that cannot be
    # pivoted are redundant and get dropped.
    kept_rows = []
    for i in range(m):
        if basis[i] < n:
            kept_rows.append(i)
            continue
        row = np.abs(tableau[i, :n])
        j = int(np.argmax(row))
        if row[j] > PIVOT_FLOOR:
            _pivot(tableau, basis, i, j)
            kept_rows.append(i)
    m2 = len(kept_rows)

    # Phase 2 tableau: original columns only, fresh reduced costs.
    phase2 = np.zeros((m2 + 1, n + 1))
    phase2[:m2, :n] = tableau[kept_rows, :n]
    phase2[:m2, -1] = tableau[kept_rows, -1]
    basis2 = [basis[i] for i in kept_rows]
    phase2[-1, :n] = c
    phase2[-1] -= c[basis2] @ phase2[:m2]

    status = _run_phase(phase2, basis2, enter_limit=n)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED)

    x = np.zeros(n)
    x[basis2] = phase2[:m2, -1]

    # Dual multipliers from the final basis, mapped back to original rows.
    y = np.zeros(m)
    if m2 > 0:
        basis_matrix = a[kept_rows][:, basis2]
        y_kept = np.linalg.solve(basis_matrix.T, c[basis2])
        y[kept_rows] = y_kept
    y *= sign

    x.setflags(write=False)
    y.setflags(write=False)
    return LpSolution(status=OPTIMAL, x=x, objective=float(c @ x), y=y)


def check_certificate(problem: LpProblem, solution: LpSolution, tol: float = 1e-9) -> bool:
    """Re-verify the optimality certificate of ``solution`` by direct arithmetic.

    Checks primal feasibility, dual feasibility (reduced costs >= -tol),
    complementary slackness and the duality gap, independently of how the
    solution was produced.
    """
    if solution.status != OPTIMAL:
        return False
    x = solution.x
    y = solution.y
    if x is None or y is None:
        return False
    a = problem.eq_matrix
    b = problem.eq_rhs
    c = problem.objective
    if np.min(x, initial=0.0) < -tol:
        return False
    if np.max(np.abs(a @ x - b), initial=0.0) > tol:
        return False
    reduced = c - a.T @ y
    if np.min(reduced, initial=0.0) < -tol:
        return False
    if np.max(np.abs(x * reduced), initial=0.0) > tol:
        return False
    if abs(float(c @ x) - float(b @ y)) > tol:
        return False
    return True


def feasibility_gap(eq_matrix, eq_rhs, tol: float = 1e-9) -> float:
    """Smallest L1 residual ``min ||A x - b||_1`` over ``x >= 0``.

    Zero (up to ``tol``) exactly when ``A x = b`` has a nonnegative
    solution; with a cone's generators as columns, model validation decides
    membership in the effect cone this way, without the cone's facets.
    """
    a = np.atleast_2d(np.asarray(eq_matrix, dtype=float))
    b = np.atleast_1d(np.asarray(eq_rhs, dtype=float))
    m, n = a.shape
    elastic = np.hstack([a, np.eye(m), -np.eye(m)])
    cost = np.concatenate([np.zeros(n), np.ones(2 * m)])
    sol = solve_lp(LpProblem(cost, elastic, b), tol=tol)
    if sol.status != OPTIMAL:
        raise NumericalFailureError("elastic feasibility problem did not solve")
    return max(float(sol.objective), 0.0)
