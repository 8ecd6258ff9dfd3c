"""Geometric structure of optimal solutions.

At optimum the polytope of scaled given states ``q_x w_x`` and the
polytope of scaled complementary states ``r_x d_x`` are congruent:
corresponding edges are equal-length and anti-parallel,

    q_x w_x - q_y w_y = r_y d_y - r_x d_x   for all x, y.

With the stability vectors ``s_x = K - q_x w_x - r_x d_x``, the identity's
residual at (x, y) is ``s_y - s_x``, so ``2 max_x |s_x|`` bounds all of them.
For uniform priors the common weight ``r`` equals the edge-length ratio
of the two polytopes and the guessing probability is ``1/N + r``.  Norms
here are Euclidean on ambient coordinates; at optimum the ratio is
norm-independent because the difference vectors are anti-parallel.
Every function here raises :class:`InvalidInputError` for a ``tol``
outside ``(0, MAX_TOL]``, as the solver does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrimination import DiscriminationSolution, row_norms
from .errors import InvalidInputError, PreconditionError, UndefinedRatioError, finite_array
from .model import DEFAULT_TOL, Ensemble, check_tol


@dataclass(frozen=True)
class CongruenceReport:
    """A bound on every pairwise congruence residual and the edge-length ratio statistics."""

    max_residual: float
    ratio: float | None
    ratio_spread: float
    skipped: tuple[int, ...]


def congruence_check(solution: DiscriminationSolution, tol: float = DEFAULT_TOL) -> CongruenceReport:
    """Check edge congruence of the given-state and complementary polytopes.

    ``max_residual`` is the bound ``2 max_x |s_x|`` over the stated pairs, 0 when none is stated; the ratios
    are those of the edges between consecutive stated pairs whose ``d`` differ by more than ``tol``.
    Degenerate complementary pairs cannot contribute a vertex and are skipped; their indices are reported.
    """
    tol = check_tol(tol)
    weights, stated, d = solution.weights, solution.stated, solution.stated_d
    weighted = solution.ensemble.weighted_states[stated]
    stability = solution.symmetry_operator - weighted - weights[stated, None] * d  # s_x, as verify_kkt forms it
    max_residual = 2.0 * float(np.maximum.reduce(row_norms(stability), initial=0.0))
    d_edges = row_norms(d[1:] - d[:-1])
    keep = d_edges > tol
    ratios = row_norms((weighted[1:] - weighted[:-1])[keep]) / d_edges[keep]
    ratio = float(np.add.reduce(ratios) / ratios.size) if ratios.size else None
    spread = float(np.maximum.reduce(ratios) - np.minimum.reduce(ratios)) if ratios.size else 0.0
    skipped = tuple(np.flatnonzero(~stated).tolist())
    return CongruenceReport(max_residual=max_residual, ratio=ratio, ratio_spread=spread, skipped=skipped)


def ratio_r(solution: DiscriminationSolution, tol: float = DEFAULT_TOL) -> float:
    """Edge-length ratio of the two polytopes for a uniform-prior solution.

    Read from :func:`congruence_check` (for uniform priors
    ``q_x w_x - q_y w_y = (w_x - w_y) / N``), whose residual bound must be
    within ``tol``, whose ratio must be identical across the edges it reads
    and must match ``p_guess - 1/N``; a failure means the supplied solution
    is not optimal.
    """
    tol = check_tol(tol)
    ens = solution.ensemble
    n = ens.n_states
    if float(np.max(np.abs(ens.priors - 1.0 / n))) > tol:
        raise PreconditionError("ratio is defined for uniform priors only")
    report = congruence_check(solution, tol)
    if report.max_residual > tol:
        raise InvalidInputError(f"congruence residual {report.max_residual:g}; solution is not optimal")
    if report.ratio is None:
        raise UndefinedRatioError("all complementary vertex pairs are degenerate or coincident")
    if report.ratio_spread > tol:
        raise InvalidInputError(f"per-pair ratios disagree (spread {report.ratio_spread:g}); solution is not optimal")
    if abs(report.ratio - (solution.p_guess - 1.0 / n)) > tol:
        raise InvalidInputError(f"ratio {report.ratio:g} does not match p_guess - 1/N = {solution.p_guess - 1.0 / n:g}")
    return report.ratio


def symmetric_axis_k(ensemble: Ensemble, axis, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Closed-form dual-feasible operator ``K`` along a strictly interior axis.

    Scales ``axis`` by the smallest factor making ``K >= q_x w_x`` for
    every state, which is the largest ratio ``g[q_x w_x] / g[axis]`` over
    effect generators and states.  The result is always dual feasible; it
    is optimal when the ensemble has a transitive symmetry fixing the
    axis, which the caller should confirm through the KKT report.
    """
    tol = check_tol(tol)
    model = ensemble.model
    direction = finite_array(axis, "axis", (model.dim,))
    if abs(float(model.unit_effect @ direction) - 1.0) > tol:
        raise PreconditionError("axis must be normalized (u[axis] = 1)")
    gen_values = model.effect_gens @ direction
    if gen_values.size == 0 or float(gen_values.min()) <= tol:
        raise PreconditionError("axis must be strictly interior (g[axis] > 0 for every effect generator)")
    targets = ensemble.weighted_states @ model.effect_gens.T  # (x, j) -> g_j[q_x w_x]
    scale = float((targets / gen_values[None, :]).max())
    k = scale * direction
    k.setflags(write=False)
    return k
