"""Optimal discrimination: the measurement LP and its KKT certificates.

The primal problem maximizes the average success probability
``sum_x q_x e_x[w_x]`` over measurements; its dual minimizes ``u[K]``
over operators ``K`` dominating every ``q_x w_x`` in the effect order.
``K`` is the Lagrange multiplier of the completeness rows
``sum_x e_x = u``, so one certified solve of the measurement LP yields
both the optimal measurement and ``K``.  With one column per effect
generator ``g_j``, earning ``t_j = max_x q_x g_j[w_x]``, dual feasibility
``g_j[K] >= t_j`` is exactly ``K >= q_x w_x``; zero gap is strong duality.

Every complementary number is read off ``v_x = K - q_x w_x``: the weight
``r_x = u[K] - q_x`` and, where ``r_x`` exceeds the tolerance, the
normalized complementary state ``d_x = v_x / r_x``, so that
``K = q_x w_x + r_x d_x``; optimal effects obey slackness, ``e_x[v_x] = 0``.
``d_x`` is a state only when effects are unrestricted (a restricted
effect cone has a larger dual).  A solution stores no LP objective
values; :func:`verify_kkt` recomputes the duality gap and is the one
check of the stated numbers and optimality conditions on untrusted solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import cone_ge, member_of
from .errors import InternalInconsistencyError, InvalidInputError
from .lp import OPTIMAL, LpProblem, check_certificate, solve_lp
from .model import DEFAULT_TOL, MAX_TOL, Ensemble, Measurement, validate_ensemble, validate_model


@dataclass(frozen=True)
class ComplementaryPair:
    """Weight ``r`` and normalized complementary state ``d`` for one outcome.

    ``d`` is None when the pair is degenerate (``r`` within tolerance of
    zero); such a pair claims only ``r d = 0``, not that ``K = q w``.
    """

    r: float
    d: np.ndarray | None

    @property
    def degenerate(self) -> bool:
        return self.d is None


@dataclass(frozen=True)
class DiscriminationSolution:
    """Optimal discrimination data: value, measurement, symmetry operator, pairs."""

    ensemble: Ensemble
    p_guess: float
    measurement: Measurement
    symmetry_operator: np.ndarray
    complementary: tuple[ComplementaryPair, ...]


@dataclass(frozen=True)
class KktReport:
    """Residuals of every optimality condition and every claimed value, recomputed from scratch.

    With ``v_x = K - q_x w_x``: ``stability_residuals[x]`` is ``|v_x - r_x d_x|``
    (``|r_x|`` for a null ``d``), ``orthogonality_residuals[x]`` is ``|e_x[v_x]|``,
    ``value_residual`` is ``|p_guess - u[K]|`` and ``weight_residuals[x]``
    is ``|r_x - (u[K] - q_x)|``.
    """

    stability_residuals: np.ndarray
    positivity_ok: tuple[bool, ...]
    orthogonality_residuals: np.ndarray
    measurement_residual: float
    gap: float
    effects_in_cone: tuple[bool, ...]
    value_residual: float
    weight_residuals: np.ndarray

    def passes(self, tol: float = DEFAULT_TOL) -> bool:
        return (
            bool(np.all(self.stability_residuals <= tol))
            and all(self.positivity_ok)
            and bool(np.all(self.orthogonality_residuals <= tol))
            and self.measurement_residual <= tol
            and self.gap <= tol
            and all(self.effects_in_cone)
            and self.value_residual <= tol
            and bool(np.all(self.weight_residuals <= tol))
        )


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair, summed exactly as ``a[x] @ b[x]`` sums one pair."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, summed exactly as ``np.linalg.norm`` sums one vector."""
    return np.sqrt(_row_dots(rows, rows))


def _rewards(ensemble: Ensemble) -> np.ndarray:
    """``q_x g_j[w_x]`` with outcomes as rows and effect generators as columns."""
    return ensemble.priors[:, None] * (ensemble.states @ ensemble.model.effect_gens.T)


def build_primal(ensemble: Ensemble) -> LpProblem:
    """Measurement LP: minimize ``-sum_j C_j t_j`` s.t. ``sum_j C_j g_j = u``, ``C >= 0`` (d rows, g columns).

    The full LP's other N - 1 columns of each ``g_j`` cannot bind: their reduced
    costs ``g_j[K] - q_x g_j[w_x]`` are at least ``g_j[K] - t_j >= -tol``.
    """
    return LpProblem(-_rewards(ensemble).max(axis=0), ensemble.model.effect_gens.T, ensemble.model.unit_effect)


def measurement_from_primal(ensemble: Ensemble, x: np.ndarray) -> Measurement:
    """Effects ``e_x = sum_j C_j g_j`` over the ``g_j`` whose ``t_j`` outcome x attains, ties to the lowest x."""
    owners = _rewards(ensemble).argmax(axis=0)
    return Measurement(((owners == np.arange(ensemble.n_states)[:, None]) * x) @ ensemble.model.effect_gens)


def no_measurement_value(ensemble: Ensemble) -> float:
    """Value of guessing the most likely state with the trivial measurement."""
    return float(ensemble.priors.max())


def solve_discrimination(ensemble: Ensemble, tol: float = DEFAULT_TOL) -> DiscriminationSolution:
    """Solve the measurement LP once and assemble the full certificate.

    ``K`` is the negated multiplier vector of the completeness rows, so
    ``p_guess = u[K] = -b.y``; :func:`check_certificate` has already
    bounded its distance from the primal value ``-c.x`` by ``tol``.
    Raises :class:`InvalidInputError` when ``tol`` is outside
    ``(0, MAX_TOL]``, the ensemble fails validation, or the LP fails and
    so does :func:`validate_model`; :class:`InternalInconsistencyError`
    when the LP of a valid model is not solved optimally, its certificate
    fails :func:`check_certificate`, or ``p_guess`` falls outside the
    sandwich bound ``[max_x q_x, 1]``.
    """
    if not 0.0 < tol <= MAX_TOL:
        raise InvalidInputError(f"tol must lie in (0, {MAX_TOL:g}], got {tol!r}")
    check = validate_ensemble(ensemble, tol=max(tol, 1e-12))
    if not check.valid:
        raise InvalidInputError("; ".join(check.issues))

    problem = build_primal(ensemble)
    primal = solve_lp(problem, tol=tol)
    if primal.status != OPTIMAL:
        model_check = validate_model(ensemble.model, tol=max(tol, 1e-12))
        if not model_check.valid:
            raise InvalidInputError("; ".join(model_check.issues))
        raise InternalInconsistencyError(f"measurement LP must be solvable (status {primal.status})")
    if not check_certificate(problem, primal, tol):
        raise InternalInconsistencyError("measurement LP certificate failed re-verification")
    k = -primal.y
    p_guess = float(problem.eq_rhs @ k)  # u[K]

    if p_guess < no_measurement_value(ensemble) - 10.0 * tol or p_guess > 1.0 + 10.0 * tol:
        raise InternalInconsistencyError(f"guessing probability {p_guess!r} outside sandwich bound")

    weights = p_guess - ensemble.priors  # r_x
    states = (k - ensemble.weighted_states()) / np.where(weights > tol, weights, 1.0)[:, None]  # d_x = v_x / r_x
    states.setflags(write=False)
    pairs = tuple(ComplementaryPair(r=float(r), d=d if r > tol else None) for r, d in zip(weights, states))

    k.setflags(write=False)
    return DiscriminationSolution(
        ensemble=ensemble,
        p_guess=p_guess,
        measurement=measurement_from_primal(ensemble, primal.x),
        symmetry_operator=k,
        complementary=pairs,
    )


def verify_kkt(
    ensemble: Ensemble, solution: DiscriminationSolution, tol: float = DEFAULT_TOL
) -> KktReport:
    """Recompute every optimality residual of ``solution`` from scratch.

    Works on untrusted solutions: nothing from the solver is assumed, and
    all quantities are derived from the ensemble, the measurement, ``K``
    and the complementary pairs.  A passing report certifies optimality
    (KKT conditions are sufficient here because strong duality holds) and
    every number the solution states, ``p_guess`` and the weights included.
    """
    model = ensemble.model
    dim = model.dim
    k = np.asarray(solution.symmetry_operator, dtype=float)
    effects = solution.measurement.effects
    if effects.shape != (ensemble.n_states, dim) or k.shape != (dim,):
        raise InvalidInputError("solution shapes do not match the ensemble")
    if len(solution.complementary) != ensemble.n_states:
        raise InvalidInputError("one complementary pair per state is required")

    weighted = ensemble.weighted_states()
    margins = k - weighted  # v_x
    measurement_residual = float(np.linalg.norm(effects.sum(axis=0) - model.unit_effect))
    primal_value = float(np.sum(ensemble.priors * np.einsum("xd,xd->x", effects, ensemble.states)))
    value = float(model.unit_effect @ k)  # u[K]
    weights = np.array([pair.r for pair in solution.complementary], dtype=float)
    stated = np.array([not pair.degenerate for pair in solution.complementary], dtype=bool)
    d = np.array([pair.d for pair in solution.complementary if not pair.degenerate]).reshape(-1, dim)
    stability = np.abs(weights)  # a null d claims only r_x d_x = 0
    stability[stated] = row_norms(margins[stated] - weights[stated, None] * d)
    return KktReport(
        stability_residuals=stability,
        positivity_ok=tuple(cone_ge(k, qw, model.effect_cone, tol) for qw in weighted),
        orthogonality_residuals=np.abs(_row_dots(effects, margins)),
        measurement_residual=measurement_residual,
        gap=abs(primal_value - value),
        effects_in_cone=tuple(member_of(model.effect_cone, e, tol) for e in effects),
        value_residual=abs(solution.p_guess - value),
        weight_residuals=np.abs(weights - (value - ensemble.priors)),
    )
