"""Independent brute-force verification path.

Nothing here shares code paths with the simplex engine's pivoting: the
dual problem is solved by exhaustive vertex enumeration over constraint
subsets, so every solver output is checkable without trusting the solver.
A subset that repeats an effect generator (for two states) is singular, so
each subset of distinct generators is factored once, for every assignment
of states to its generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

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
    A subset that names one generator twice has two equal rows and is
    singular, so only the C(g, dim) subsets of distinct generators are
    factored, each once, against its N^dim right-hand sides: one per way
    of giving each chosen generator a state x. No pivoting heuristics are
    involved, so the result is an independent check on the simplex path.
    """
    model = ensemble.model
    dim = model.dim
    if dim > MAX_ORACLE_DIM:
        raise UnsupportedSizeError(f"dual vertex enumeration supports dim <= {MAX_ORACLE_DIM}")
    gens = model.effect_gens
    n_states = ensemble.n_states
    m = n_states * gens.shape[0]
    if m > MAX_ORACLE_CONSTRAINTS:
        raise UnsupportedSizeError(
            f"{m} constraints exceed the enumeration bound {MAX_ORACLE_CONSTRAINTS}"
        )
    if m < dim:
        raise UnsupportedSizeError("fewer constraints than dimensions; no vertex exists")

    # (s, dim) generator indices; s = 0 when there are fewer generators than dim.
    subsets = np.array(list(combinations(range(gens.shape[0]), dim)), dtype=np.intp).reshape(-1, dim)
    mats = gens[subsets]  # (s, dim, dim)
    solvable = _nonsingular(mats)
    if not solvable.any():
        raise NumericalFailureError("no nonsingular constraint subset found")
    subsets = subsets[solvable]
    targets = ensemble.weighted_states @ gens.T  # (n, g): g_j[q_x w_x]
    owners = np.array(list(product(range(n_states), repeat=dim))).T  # (dim, n^dim): the state of each chosen generator
    rhs = targets[owners, subsets[:, :, None]]  # (s, dim, n^dim)
    candidates = np.linalg.solve(mats[solvable], rhs).transpose(0, 2, 1).reshape(-1, dim)
    # g_j[K] >= g_j[q_x w_x] for all x iff it holds at the largest target; max(t) - tol == max(t - tol) in floats.
    feasible = np.all(candidates @ gens.T >= targets.max(axis=0) - ORACLE_FEASIBILITY_TOL, axis=1)
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
