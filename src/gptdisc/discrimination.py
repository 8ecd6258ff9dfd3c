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
A solution states each number once: ``K``, the mask of the stated ``d_x``
and those ``d_x`` as rows; every ``r_x`` is read off ``K``.
``d_x`` is a state only when effects are unrestricted (a restricted
effect cone has a larger dual).  A measurement is stated by its support,
rows ``(x, j, c)`` of its coefficients ``c = C[x, j]`` on the effect
generators: the solver's are the at most d basic ``C_j > 0`` of a private
LP formed only from inputs that :func:`solve_discrimination` validated.  A
:class:`DiscriminationSolution` checks the numbers handed to its
constructor and stores no LP objective values; :func:`verify_kkt`
recomputes the duality gap and the residual of every optimality
condition, and :meth:`KktReport.passes` holds each of them to one
tolerance, so untrusted solutions need no other check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InternalInconsistencyError, InvalidInputError, finite_array, owned
from .lp import OPTIMAL, LpProblem, solve_lp
from .model import DEFAULT_TOL, Ensemble, GptModel, check_tol, validate_ensemble, validate_model


@dataclass(frozen=True, eq=False)
class DiscriminationSolution:
    """Optimal discrimination data: value, measurement support, symmetry operator ``K``, pairs.

    Each ``support`` row ``(x, j, c)`` adds ``c g_j`` to the effect ``e_x`` of outcome x, with the effect generators in
    file order; a pair ``(x, j)`` left out has ``C[x, j] = 0``, and no pair is stated twice.  The pairs
    ``(r_x, d_x)`` are read off ``K``: the :attr:`weights` ``r_x = u[K] - q_x``, the N booleans ``stated`` that
    mark which ``d_x`` are given, and those ``d_x`` as the rows of ``stated_d``, in outcome order.  An unstated
    ``d_x`` (``r_x`` within tolerance of zero) makes a degenerate pair, which claims only ``r_x d_x = 0``, not
    ``K = q_x w_x``.  The constructor is the one reader of numbers handed in; the solver's record skips it.  It
    raises :class:`InvalidInputError` unless ``p_guess`` is a finite scalar, ``support`` is a finite (k, 3) array
    whose pairs ``(x, j)`` are distinct integers in [0, N) x [0, g), ``K`` has d entries, ``stated`` is N booleans
    and ``stated_d`` is a finite array of one d-vector per stated pair.
    """

    ensemble: Ensemble
    p_guess: float
    support: np.ndarray
    symmetry_operator: np.ndarray
    stated: np.ndarray
    stated_d: np.ndarray

    def __post_init__(self):
        n, (g, dim) = self.ensemble.n_states, self.ensemble.model.effect_gens.shape
        object.__setattr__(self, "p_guess", float(finite_array(self.p_guess, "p_guess", ())))
        support = finite_array(self.support, "solution support", (None, 3))
        for index, name, bound in ((support[:, 0], "outcome", n), (support[:, 1], "generator", g)):
            if not np.all((index == np.floor(index)) & (index >= 0.0) & (index < bound)):
                raise InvalidInputError(f"solution support {name} indices must be integers in [0, {bound})")
        if len(np.unique(support[:, 0] * g + support[:, 1])) < len(support):  # repeats within tol could sum below it
            raise InvalidInputError("solution support must state each (outcome, generator) pair once")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "symmetry_operator", finite_array(self.symmetry_operator, "solution K", (dim,)))
        try:
            stated = np.array(self.stated)
        except ValueError:  # a ragged list
            stated = np.zeros(0)
        if stated.dtype != bool or stated.shape != (n,):
            raise InvalidInputError(f"one complementary pair per state is required (stated must be {n} booleans)")
        stated.setflags(write=False)
        object.__setattr__(self, "stated", stated)
        object.__setattr__(self, "stated_d", finite_array(self.stated_d, "complementary states d", (stated.sum(), dim)))

    @property
    def weights(self) -> np.ndarray:
        """The weights ``r_x = u[K] - q_x`` of the pairs, one per state."""
        return self.ensemble.model.unit_effect @ self.symmetry_operator - self.ensemble.priors


@dataclass(frozen=True, eq=False)
class KktReport:
    """Residuals of every optimality condition and every claimed value, recomputed from scratch.

    With ``v_x = K - q_x w_x``: ``stability_residuals[x]`` is ``|v_x - r_x d_x|`` (``|r_x|`` for a null ``d``),
    ``positivity_residuals[x]`` is ``max_j -g_j[v_x]`` over the effect generators as given, and 0 when every
    ``g_j[v_x] >= 0``; for support row i, ``(x, j, c)``, ``orthogonality_residuals[i]`` is ``|c g_j[v_x]|``, the
    LP's complementary slackness of that coefficient, and ``effect_residuals[i]`` is ``max(0, -c)``;
    ``value_residual`` is ``|p_guess - u[K]|``, with ``r_x = u[K] - q_x`` throughout.
    No field is a verdict: :meth:`passes` is the one place a tolerance is applied.
    """

    stability_residuals: np.ndarray
    positivity_residuals: np.ndarray
    orthogonality_residuals: np.ndarray
    measurement_residual: float
    gap: float
    effect_residuals: np.ndarray
    value_residual: float

    def worst_residuals(self) -> dict[str, float]:
        """Each field name mapped to its largest residual; a NaN anywhere in a field makes its entry NaN."""
        return {f.name: float(np.maximum.reduce(getattr(self, f.name), axis=None, initial=0.0)) for f in fields(self)}

    def passes(self, tol: float = DEFAULT_TOL) -> bool:
        """True iff every residual is at most ``tol``; :class:`InvalidInputError` on a ``tol`` outside ``(0, MAX_TOL]``."""
        tol = check_tol(tol)
        return all(worst <= tol for worst in self.worst_residuals().values())


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair, summed exactly as ``a[x] @ b[x]`` sums one pair."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, summed exactly as ``np.linalg.norm`` sums one vector."""
    return np.sqrt(_row_dots(rows, rows))


def _reward_matrix(ensemble: Ensemble) -> np.ndarray:
    """The rewards ``q_x g_j[w_x]`` with outcomes as rows and effect generators as columns."""
    return ensemble.priors[:, None] * (ensemble.states @ ensemble.model.effect_gens.T)


def _build_primal(model: GptModel, rewards: np.ndarray) -> LpProblem:
    """Measurement LP: minimize ``-sum_j C_j t_j`` s.t. ``sum_j C_j g_j = u``, ``C >= 0`` (d rows, g columns).

    ``t_j = max_x rewards[x, j]`` for the :func:`_reward_matrix` of a validated ensemble of ``model``.  The full
    LP's other N - 1 columns of each ``g_j`` cannot bind: their reduced costs ``g_j[K] - q_x g_j[w_x]`` are at
    least ``g_j[K] - t_j >= -tol``.  The model's rows go in uncopied, and the objective, formed from validated values, unchecked.
    """
    return owned(LpProblem, objective=-rewards.max(axis=0), eq_matrix=model.effect_gens.T, eq_rhs=model.unit_effect)


def _support_from_primal(rewards: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rows ``(x, j, C_j)`` of the ``C_j > 0`` (so none is ``-0.0``), owned by the lowest x attaining ``t_j``."""
    basic = np.flatnonzero(x > 0.0)
    return np.array((rewards[:, basic].argmax(axis=0), basic, x[basic]), order="F").T  # C-ordered, as a file's rows


def no_measurement_value(ensemble: Ensemble) -> float:
    """Value of guessing the most likely state with the trivial measurement."""
    return float(ensemble.priors.max())


def solve_discrimination(ensemble: Ensemble, tol: float = DEFAULT_TOL) -> DiscriminationSolution:
    """Solve the measurement LP once and assemble the full certificate.

    ``K`` is the negated multiplier vector of the completeness rows, so
    ``p_guess = u[K] = -b.y``; :func:`solve_lp` has already bounded its
    distance from the primal value ``-c.x`` by ``tol``.  The model, then
    the ensemble, is validated first through its kept verdicts at
    ``max(tol, 1e-12)``.  Raises :class:`InvalidInputError` with the first
    failing report's issues, or when ``tol`` is outside ``(0, MAX_TOL]``;
    :class:`NumericalFailureError` when the LP's certificate fails;
    :class:`InternalInconsistencyError` when the LP of validated inputs is
    not solved optimally or ``p_guess`` falls outside the sandwich bound
    ``[max_x q_x, 1]``.
    """
    tol = check_tol(tol)
    for validate, subject in ((validate_model, ensemble.model), (validate_ensemble, ensemble)):
        check = validate(subject, tol=max(tol, 1e-12))
        if not check.valid:
            raise InvalidInputError("; ".join(check.issues))

    rewards = _reward_matrix(ensemble)
    problem = _build_primal(ensemble.model, rewards)
    primal = solve_lp(problem, tol=tol, start=ensemble.model.measurement_start)
    if primal.status != OPTIMAL:
        raise InternalInconsistencyError(f"measurement LP must be solvable (status {primal.status})")
    k = -primal.y
    p_guess = float(problem.eq_rhs @ k)  # u[K]

    if p_guess < no_measurement_value(ensemble) - 10.0 * tol or p_guess > 1.0 + 10.0 * tol:
        raise InternalInconsistencyError(f"guessing probability {p_guess!r} outside sandwich bound")

    weights = p_guess - ensemble.priors  # r_x, the bits of DiscriminationSolution.weights
    stated = weights > tol
    return owned(
        DiscriminationSolution,
        ensemble=ensemble,
        p_guess=p_guess,
        support=_support_from_primal(rewards, primal.x),
        symmetry_operator=k,
        stated=stated,
        stated_d=(k - ensemble.weighted_states[stated]) / weights[stated, None],  # d_x = v_x / r_x
    )


def verify_kkt(ensemble: Ensemble, solution: DiscriminationSolution) -> KktReport:
    """Recompute every optimality residual of ``solution`` from scratch.

    Works on untrusted solutions: nothing from the solver is assumed, and all quantities are derived from the
    ensemble, the support rows ``(x, j, c)``, ``K`` and the complementary pairs.  A passing report certifies
    optimality (KKT conditions are sufficient here because strong duality holds) and every number the solution
    states, ``p_guess`` included.  Positivity, ``K >= q_x w_x``, is measured as the most negative ``g[K - q_x w_x]``
    over the supplied effect generators ``g`` as given, unnormalized; each row's slackness ``c g_j[v_x]`` is read off
    the same products, and its completeness and value terms are gathered by row; each pair has one row, so ``c`` is
    ``C[x, j]`` itself.  Every field is a residual: :meth:`KktReport.passes` applies the one tolerance.  The solution
    checked its numbers when it was built, so only its fit to ``ensemble`` is checked: :class:`InvalidInputError`
    when the number of states, of effect generators or the dimension differ.  With one row of ``stated_d`` per
    stated pair, equal lengths mean every pair is stated; then the stability rows are formed on whole arrays.
    """
    model, k, support, theirs = ensemble.model, solution.symmetry_operator, solution.support, solution.ensemble
    if (theirs.n_states, theirs.model.effect_gens.shape) != (ensemble.n_states, model.effect_gens.shape):
        raise InvalidInputError("solution shapes do not match the ensemble")
    rows, gens, c = support[:, 0].astype(np.intp), support[:, 1].astype(np.intp), support[:, 2]
    used = model.effect_gens[gens]  # g_j of each support row

    margins = k - ensemble.weighted_states  # v_x
    slack = margins @ model.effect_gens.T  # g_j[v_x]
    completeness = c @ used - model.unit_effect
    measurement_residual = math.sqrt(completeness @ completeness)  # np.linalg.norm's own formula
    primal_value = float(c @ _row_dots(ensemble.weighted_states[rows], used))  # sum of c g_j[q_x w_x]
    value = float(model.unit_effect @ k)  # u[K]
    weights, stated, d = value - ensemble.priors, solution.stated, solution.stated_d  # r_x
    if len(d) == len(stated):  # every pair stated: one row of d per state
        stability = row_norms(margins - weights[:, None] * d)
    else:
        stability = np.abs(weights)  # a null d claims only r_x d_x = 0
        stability[stated] = row_norms(margins[stated] - weights[stated, None] * d)
    return KktReport(
        stability_residuals=stability,
        positivity_residuals=0.0 - np.minimum.reduce(slack, axis=1, initial=0.0),  # K >= q_x w_x
        orthogonality_residuals=np.abs(c * slack[rows, gens]),
        measurement_residual=measurement_residual,
        gap=abs(primal_value - value),
        effect_residuals=0.0 - np.minimum(c, 0.0),  # 0.0 - m, not -m, writes no -0.0
        value_residual=abs(solution.p_guess - value),
    )
