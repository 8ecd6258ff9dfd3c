"""Dense two-phase simplex solver with primal/dual optimality certificates.

Problems are kept in standard form (minimize ``c . x`` subject to
``A x = b``, ``x >= 0``).

The pivot rule is Bland's (lowest eligible index enters, ratio ties broken
by lowest basis index), which guarantees termination in exact arithmetic
and makes every solve deterministic.  Pivot magnitudes at or below
``PIVOT_FLOOR`` are never used; an entering column whose positive entries
all sit at or below the floor is skipped.  The tableau is dense numpy,
and pivots update it with whole-array operations; the ratio test reads
the entering column as Python floats, because the measurement LP has
few rows and many columns: one row per model dimension and one column
per effect generator, 3 x 128 for the order-128 polygon.  Phase 2 runs
in the phase-1 tableau, whose artificial columns may no longer enter; they
began as the identity at zero cost, so their final reduced costs are
``-c_B B^-1``, and the dual multipliers are read there, with no basis solve.

Phase 1 reads the rows ``A x = b`` only, never the objective or the
tolerance, so :func:`phase_one` runs it once, drives the leftover
artificials out, and returns a read-only :class:`PhaseOneStart`;
:func:`solve_lp` runs phase 2 on a copy of that start for each
objective.  A model keeps the start of its measurement LP's rows, so
every ensemble after the first on that model pays for phase 2 alone.

:func:`solve_lp` checks its own answer: it returns ``optimal`` only when
:func:`certificate_residual`, recomputed from the problem by direct
arithmetic, is at most its ``tol``, and raises
:class:`NumericalFailureError` naming the worst residual otherwise, so no
caller re-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, check_tol, finite_array, owned

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

    numpy scans the reduced-cost row for eligible columns.  The ratio test
    reads the entering column and the rhs as Python floats (``tolist()``):
    they hold one entry per row, and with the measurement LP's d rows each
    numpy call costs more than its arithmetic.  Its divisions, floor
    comparisons, minimum and tie band are the IEEE double operations a
    vectorized test applies entry by entry, so every choice is the same.
    """
    m = len(basis)
    rows = range(m)
    for _ in range(_MAX_ITER):
        for j in (tableau[-1, :enter_limit] < -REDUCED_COST_TOL).nonzero()[0]:
            column = tableau[:m, j].tolist()
            usable = [i for i in rows if column[i] > PIVOT_FLOOR]
            if not usable:
                if all(a <= 0.0 for a in column):
                    return UNBOUNDED
                continue  # only near-degenerate pivots available: skip column
            rhs = tableau[:m, -1].tolist()
            ratios = [rhs[i] / column[i] for i in usable]
            best = min(ratios)
            band = best + PIVOT_FLOOR * (1.0 + abs(best))
            leaving = min((i for i, r in zip(usable, ratios) if r <= band), key=basis.__getitem__)
            _pivot(tableau, basis, leaving, int(j))
            break
        else:
            return OPTIMAL
    raise NumericalFailureError("simplex iteration guard exceeded (possible cycling)")


@dataclass(frozen=True, eq=False)
class PhaseOneStart:
    """Phase 1 of the rows ``A x = b``, which no objective enters, kept for every LP on those rows.

    ``sign`` flips the rows of ``A`` whose rhs is negative.  ``tableau``, ``n + m + 1`` wide, is phase 1's
    final tableau with its leftover artificials driven out: the rows not dropped as redundant, whose basic
    columns are ``basis``, and a last row that each solve overwrites with its reduced costs; a solve reads
    its multipliers off the ``m`` artificial columns.  ``infeasibility`` is phase 1's optimal value, the
    least sum of artificials.  The arrays are read-only.
    """

    sign: np.ndarray
    tableau: np.ndarray
    basis: tuple[int, ...]
    infeasibility: float


def phase_one(eq_matrix: np.ndarray, eq_rhs: np.ndarray) -> PhaseOneStart:
    """Run phase 1 on the rows ``eq_matrix x = eq_rhs``, ``x >= 0``: an artificial basis, minimizing the artificials' sum.

    Then each artificial still basic is pivoted out on its row's largest entry; a row with no entry above
    ``PIVOT_FLOOR`` is redundant and is dropped.
    """
    m, n = eq_matrix.shape
    sign = np.where(eq_rhs < 0.0, -1.0, 1.0)
    a = eq_matrix * sign[:, None]
    b = eq_rhs * sign

    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1, :n] = -a.sum(axis=0)
    tableau[-1, -1] = -b.sum()
    basis = list(range(n, n + m))

    if _run_phase(tableau, basis, enter_limit=n) == UNBOUNDED:
        raise NumericalFailureError("phase-1 problem reported unbounded")
    infeasibility = float(-tableau[-1, -1])  # read first: a pivot on an artificial at a positive level moves it
    kept_rows = []
    for i in range(m):
        if basis[i] < n:
            kept_rows.append(i)
        elif n:  # with no column at all, no row can be pivoted
            row = np.abs(tableau[i, :n])
            j = int(np.argmax(row))
            if row[j] > PIVOT_FLOOR:
                _pivot(tableau, basis, i, j)
                kept_rows.append(i)
    tableau = tableau[kept_rows + [m]]
    basis = tuple(basis[i] for i in kept_rows)
    return owned(PhaseOneStart, sign=sign, tableau=tableau, basis=basis, infeasibility=infeasibility)


def solve_lp(problem: LpProblem, tol: float = 1e-9, start: PhaseOneStart | None = None) -> LpSolution:
    """Solve a standard-form LP, returning a certified solution.

    ``start`` is :func:`phase_one` of the problem's own rows, built here when none is given: a
    caller that solves many objectives on the same rows passes one start to each, and every solve
    then runs phase 2 only, on a copy, with the same bits as a solve without it.  A start whose
    shape differs from the problem's raises :class:`InvalidInputError`.  ``tol`` bounds the phase-1
    infeasibility that still counts as feasible and the :func:`certificate_residual` of an
    ``optimal`` solution; one outside ``(0, MAX_TOL]`` raises :class:`InvalidInputError`.  ``y`` is
    read off the artificial columns, so a row dropped as redundant may get a nonzero multiplier.
    Infeasibility and unboundedness are reported through ``status``.  The iteration guard
    (``_MAX_ITER`` pivots per phase), a phase-1 "unbounded" and a certificate residual above
    ``tol`` (or NaN) raise :class:`NumericalFailureError`; the last names the worst residual, so a
    start built from other rows of the same shape cannot give a wrong ``x``.
    """
    tol = check_tol(tol)
    c = problem.objective
    m, n = problem.eq_matrix.shape
    if start is None:
        start = phase_one(problem.eq_matrix, problem.eq_rhs)
    shape = (len(start.sign), start.tableau.shape[1] - len(start.sign) - 1)  # the tableau is n + m + 1 wide
    if shape != (m, n):
        raise InvalidInputError(f"phase-1 start of shape {shape} does not fit an LP of shape {(m, n)}")
    if start.infeasibility > tol:
        return LpSolution(status=INFEASIBLE)

    # Phase 2 in a copy of the start's tableau: the kept rows, artificial
    # columns that may not enter, and a last row of fresh reduced costs.
    tableau = start.tableau.copy()
    basis = list(start.basis)
    tableau[-1, :n] = c
    tableau[-1, n:] = 0.0
    tableau[-1] -= c[basis] @ tableau[:-1]

    status = _run_phase(tableau, basis, enter_limit=n)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED)

    x = np.zeros(n)
    x[basis] = tableau[:-1, -1]
    # The artificial columns' reduced costs are -c_B B^-1, the multipliers of the sign-flipped rows.
    y = -start.sign * tableau[-1, n:-1]

    solution = owned(LpSolution, status=OPTIMAL, x=x, objective=float(c @ x), y=y)
    residual = certificate_residual(problem, solution)
    if not residual <= tol:
        raise NumericalFailureError(f"LP certificate failed: worst residual {residual:g}")
    return solution


def certificate_residual(problem: LpProblem, solution: LpSolution) -> float:
    """Worst violation of the optimality certificate of an optimal ``solution``, by direct arithmetic.

    The largest of: ``-min x`` (primal sign), ``max |A x - b|`` (primal
    rows), ``-min (c - A^T y)`` (dual feasibility), ``max |x (c - A^T y)|``
    (complementary slackness) and ``|c.x - b.y|`` (duality gap); NaN when
    any of them is NaN, so a NaN never reads as a small residual.
    """
    x = solution.x
    y = solution.y
    a = problem.eq_matrix
    b = problem.eq_rhs
    c = problem.objective
    reduced = c - a.T @ y
    residuals = (  # 0.0 - m, not -m, so that an exact solution reads 0.0, not -0.0
        0.0 - np.minimum.reduce(x, initial=0.0),
        np.maximum.reduce(np.abs(a @ x - b), initial=0.0),
        0.0 - np.minimum.reduce(reduced, initial=0.0),
        np.maximum.reduce(np.abs(x * reduced), initial=0.0),
        abs(float(c @ x) - float(b @ y)),
    )
    return math.nan if any(map(math.isnan, residuals)) else float(max(residuals))


def feasibility_gap(eq_matrix, eq_rhs, tol: float = 1e-9) -> float:
    """Smallest L1 residual ``min ||A x - b||_1`` over ``x >= 0``.

    Zero (up to ``tol``) exactly when ``A x = b`` has a nonnegative
    solution; with a cone's generators as columns, model validation decides
    membership in the effect cone this way, without the cone's facets.
    :func:`solve_lp` certifies the elastic LP, so a failed certificate
    raises :class:`NumericalFailureError` with the worst residual.  A bad
    ``eq_matrix`` (m x n) or ``eq_rhs`` (m), or a ``tol`` outside
    ``(0, MAX_TOL]``, raises :class:`InvalidInputError`.
    """
    a = finite_array(eq_matrix, "eq_matrix", (None, None))
    m, n = a.shape
    b = finite_array(eq_rhs, "eq_rhs", (m,))
    elastic = np.hstack([a, np.eye(m), -np.eye(m)])
    cost = np.concatenate([np.zeros(n), np.ones(2 * m)])
    sol = solve_lp(owned(LpProblem, objective=cost, eq_matrix=elastic, eq_rhs=b), tol=tol)
    if sol.status != OPTIMAL:
        raise NumericalFailureError("elastic feasibility problem did not solve")
    return max(float(sol.objective), 0.0)
