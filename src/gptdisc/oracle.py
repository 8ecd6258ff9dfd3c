"""Independent brute-force verification path.

Nothing here shares code paths with the simplex engine's pivoting: the
dual problem is solved by exhaustive vertex enumeration over constraint
subsets, so every solver output is checkable without trusting the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NumericalFailureError, UnsupportedSizeError, owned
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
    rhs = (ensemble.weighted_states @ gens.T).reshape(-1)
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
    return owned(OracleResult, p_guess=best, k=np.array(k), vertices_examined=int(vertices.shape[0]))


def _nonsingular(mats: np.ndarray) -> np.ndarray:
    """Relative determinant filter over a stack of square matrices: False where (near-)singular."""
    row_norms = np.linalg.norm(mats, axis=2)
    dets = np.linalg.det(mats)
    scale = np.prod(np.where(row_norms > 0.0, row_norms, 1.0), axis=1)
    return np.abs(dets) > 1e-12 * np.where(scale > 0.0, scale, 1.0)
