"""Independent brute-force verification paths.

Nothing here shares code paths with the simplex engine's pivoting: the
dual problem is solved by exhaustive vertex enumeration over constraint
subsets, and small LPs can be checked against exhaustive basic-solution
enumeration.  These routines exist so every solver output is checkable
without trusting the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NumericalFailureError, UnsupportedSizeError
from .lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem
from .model import Ensemble

#: Hard bounds keeping subset enumeration at desk scale.
MAX_ORACLE_DIM = 4
MAX_ORACLE_CONSTRAINTS = 60

#: Feasibility tolerance of the enumerator; fixed so the oracle cannot be weakened.
ORACLE_FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Exhaustively determined guessing probability and minimizing vertex."""

    p_guess: float
    k: np.ndarray
    vertices_examined: int


def dual_vertex_enumeration(ensemble: Ensemble) -> OracleResult:
    """Solve ``min u[K] s.t. K >= q_x w_x`` by enumerating all constraint-subset vertices.

    Every dim-subset of the constraints ``g_j[K] = g_j[q_x w_x]`` is
    solved as a linear system; feasible solutions are compared directly.
    No pivoting heuristics are involved, so the result is an independent
    check on the simplex path.
    """
    model = ensemble.model
    dim = model.dim
    if dim > MAX_ORACLE_DIM:
        raise UnsupportedSizeError(f"dual vertex enumeration supports dim <= {MAX_ORACLE_DIM}")
    gens = model.effect_gens
    normals = np.tile(gens, (ensemble.n_states, 1))  # (n*g, dim), x-major
    rhs = (ensemble.weighted_states() @ gens.T).reshape(-1)
    m = normals.shape[0]
    if m > MAX_ORACLE_CONSTRAINTS:
        raise UnsupportedSizeError(
            f"{m} constraints exceed the enumeration bound {MAX_ORACLE_CONSTRAINTS}"
        )
    if m < dim:
        raise UnsupportedSizeError("fewer constraints than dimensions; no vertex exists")

    subsets = np.array(list(combinations(range(m), dim)))
    mats = normals[subsets]  # (s, dim, dim)
    vecs = rhs[subsets]  # (s, dim)
    solvable = _nonsingular(mats)
    if not solvable.any():
        raise NumericalFailureError("no nonsingular constraint subset found")
    candidates = np.linalg.solve(mats[solvable], vecs[solvable][..., None])[..., 0]
    feasible = np.all(candidates @ normals.T >= rhs[None, :] - ORACLE_FEASIBILITY_TOL, axis=1)
    vertices = candidates[feasible]
    if vertices.shape[0] == 0:
        raise NumericalFailureError("vertex enumeration found no feasible point")
    objectives = vertices @ model.unit_effect
    best = float(objectives.min())
    near = vertices[objectives <= best + 1e-12]
    k = min(map(tuple, near))  # lexicographic tie-break for determinism
    k_arr = np.array(k)
    k_arr.setflags(write=False)
    return OracleResult(p_guess=best, k=k_arr, vertices_examined=int(vertices.shape[0]))


def brute_force_lp(problem: LpProblem, tol: float = 1e-9) -> tuple[str, float | None]:
    """Solve a small standard-form LP by enumerating all basic solutions.

    Returns ``(status, objective)`` where the objective is None unless
    optimal.  Unboundedness is detected by scanning improving extreme
    rays at every feasible basis, so the result is complete for pointed
    standard-form feasible regions.
    """
    a = problem.eq_matrix
    b = problem.eq_rhs
    c = problem.objective
    m, n = a.shape
    if m == 0:
        return (OPTIMAL, 0.0) if np.all(c >= -tol) else (UNBOUNDED, None)
    if m > n:
        reduced_rows = _independent_rows(a, b)
        if reduced_rows is None:
            return (INFEASIBLE, None)
        a, b = reduced_rows
        m = a.shape[0]

    best: float | None = None
    unbounded = False
    idx = np.array(list(combinations(range(n), m)))
    mats = a.T[idx].transpose(0, 2, 1)  # (subsets, m, m); columns follow the basis
    for basis, mat, ok in zip(idx, mats, _nonsingular(mats)):
        if not ok:
            continue
        x_basis = np.linalg.solve(mat, b)
        if x_basis.min(initial=0.0) < -tol:
            continue
        value = float(c[basis] @ x_basis)
        best = value if best is None else min(best, value)
        nonbasic = np.setdiff1d(np.arange(n), basis)
        if nonbasic.size:
            directions = np.linalg.solve(mat, a[:, nonbasic])  # B^{-1} A_j per column
            ray_feasible = np.all(directions <= tol, axis=0)
            reduced = c[nonbasic] - c[basis] @ directions
            if np.any(ray_feasible & (reduced < -tol)):
                unbounded = True
    if unbounded:
        return (UNBOUNDED, None)
    if best is None:
        return (INFEASIBLE, None)
    return (OPTIMAL, best)


def _nonsingular(mats: np.ndarray) -> np.ndarray:
    """Relative determinant filter over a stack of square matrices: False where (near-)singular."""
    row_norms = np.linalg.norm(mats, axis=2)
    dets = np.linalg.det(mats)
    scale = np.prod(np.where(row_norms > 0.0, row_norms, 1.0), axis=1)
    return np.abs(dets) > 1e-12 * np.where(scale > 0.0, scale, 1.0)


def _independent_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Greedy maximal independent row subset of ``A x = b``; None if the system is inconsistent."""
    kept: list[int] = []
    for i in range(a.shape[0]):
        if np.linalg.matrix_rank(a[kept + [i]]) > len(kept):
            kept.append(i)
        elif np.linalg.matrix_rank(np.hstack([a, b[:, None]])[kept + [i]]) > len(kept):
            return None  # row is dependent in A but not in [A|b]
    return a[kept], b[kept]
