"""Independent brute-force verification path.

Nothing here shares code paths with the simplex engine's pivoting: the
dual problem is solved by exhaustive vertex enumeration over constraint
subsets, so every solver output is checkable without trusting the solver.
The constraints ``g_j[K] >= q_x g_j[w_x]`` of one generator are one
constraint ``g_j[K] >= t_j``, with ``t_j`` the largest target over the
states, so each subset of distinct effect generators is solved once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NumericalFailureError, UnsupportedSizeError, owned
from .model import Ensemble

#: Hard bounds keeping subset enumeration at desk scale: N·g constraints, and C(g, d) generator subsets.
MAX_ORACLE_CONSTRAINTS = 60
MAX_ORACLE_SUBSETS = 2**14

#: Feasibility tolerance of the enumerator; fixed so the oracle cannot be weakened.
ORACLE_FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Exhaustively determined guessing probability and minimizing vertex."""

    p_guess: float
    k: np.ndarray
    vertices_examined: int


def dual_vertex_enumeration(ensemble: Ensemble) -> OracleResult:
    """Solve ``min u[K] s.t. K >= q_x w_x`` by enumerating the vertices of its feasible set.

    In effect-generator coordinates the feasible set is ``g_j[K] >= t_j``
    with ``t_j = max_x g_j[q_x w_x]``.  Each of the C(g, dim) subsets of
    distinct generators whose matrix is nonsingular is solved once, as
    ``g_j[K] = t_j`` on the subset, and the feasible solutions are compared
    directly.  No pivoting heuristics are involved, so the result is an
    independent check on the simplex path.  Both size bounds are checked
    from the shapes before any array is formed; past either, or when no
    subset is nonsingular, :class:`UnsupportedSizeError` is raised.
    """
    model = ensemble.model
    dim = model.dim
    gens = model.effect_gens
    n_gens = gens.shape[0]
    m = ensemble.n_states * n_gens
    if m > MAX_ORACLE_CONSTRAINTS:
        raise UnsupportedSizeError(
            f"{m} constraints exceed the enumeration bound {MAX_ORACLE_CONSTRAINTS}"
        )
    n_subsets = math.comb(n_gens, dim)
    if n_subsets > MAX_ORACLE_SUBSETS:
        raise UnsupportedSizeError(
            f"{n_subsets} effect-generator subsets exceed the enumeration bound {MAX_ORACLE_SUBSETS}"
        )
    if m < dim:
        raise UnsupportedSizeError("fewer constraints than dimensions; no vertex exists")

    # (s, dim) generator indices; s = 0 when there are fewer generators than dim.
    subsets = np.array(list(combinations(range(n_gens), dim)), dtype=np.intp).reshape(-1, dim)
    mats = gens[subsets]  # (s, dim, dim)
    solvable = _nonsingular(mats)
    if not solvable.any():
        raise UnsupportedSizeError("no nonsingular subset of effect generators; no vertex exists")
    targets = (ensemble.weighted_states @ gens.T).max(axis=0)  # (g,): t_j = max_x g_j[q_x w_x]
    candidates = np.linalg.solve(mats[solvable], targets[subsets[solvable], None])[..., 0]
    feasible = np.all(candidates @ gens.T >= targets - ORACLE_FEASIBILITY_TOL, axis=1)
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
