"""GPT models and ensembles, plus framework-axiom validation.

A model is an ambient dimension ``d``, a finite set of extremal
normalized states, a finite set of extremal effects, and the unit
effect ``u``.  States pair with effects through the Euclidean inner
product; valid effects map every state into ``[0, 1]``, and a measurement's
effects, stated by their coefficients on the effect generators, sum to ``u``.

States are stored normalized (``u[w] = 1``); validation reports
unnormalized inputs as errors instead of silently rescaling them.  The
effect cone is the one generated by the *supplied* effect generators;
validation additionally reports whether that cone coincides with the
full dual of the state cone (the unrestricted-effects reading).  The
state cone's facets are read off the effect generators when those
certify them (every facet simplicial and among the generators), and
come from the double description of the state generators otherwise.

Models and ensembles are frozen and hold read-only arrays, so each keeps
what it derives.  A model keeps its state cone, the phase-1 start of its
measurement LP (whose rows ``sum_j C_j g_j = u`` no ensemble changes, so
every solve after the first on a model runs phase 2 only), and the
verdict of :func:`validate_model` for each ``tol`` it was validated at.
An ensemble keeps its scaled states ``q_x w_x`` and the verdict of
:func:`validate_ensemble` for each ``tol``, so the caller's validation,
the solve and both certificate checks scale and check it once.  A repeat
validation returns a fresh report from the kept verdict;
``dataclasses.replace`` gives a new object that keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cone import PolyhedralCone, certified_facets, inside, unit_rows
from .errors import MAX_TOL, check_dim, check_tol, finite_array, owned  # the tol check, also read from here
from .lp import PhaseOneStart, feasibility_gap, phase_one

DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GptModel:
    """A finitely generated GPT: state/effect cone generators and the unit effect."""

    dim: int
    state_gens: np.ndarray
    effect_gens: np.ndarray
    unit_effect: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", check_dim(self.dim))
        object.__setattr__(self, "state_gens", finite_array(self.state_gens, "state_gens", (None, self.dim)))
        object.__setattr__(self, "effect_gens", finite_array(self.effect_gens, "effect_gens", (None, self.dim)))
        object.__setattr__(self, "unit_effect", finite_array(self.unit_effect, "unit_effect", (self.dim,)))

    @cached_property
    def state_cone(self) -> PolyhedralCone:
        """The cone of the state generators, with its dual already set when the effect generators certify its facets."""
        cone = PolyhedralCone(self.dim, self.state_gens)
        facets = certified_facets(cone, unit_rows(self.effect_gens)[1])
        if facets is not None:
            vars(cone)["dual"] = owned(PolyhedralCone, dim=self.dim, generators=facets, units=facets, lineality=0)
        return cone

    @cached_property
    def measurement_start(self) -> PhaseOneStart:
        """Phase 1 of the measurement LP's completeness rows ``effect_gens.T C = unit_effect``, shared by its ensembles."""
        return phase_one(self.effect_gens.T, self.unit_effect)

    @cached_property
    def _verdicts(self) -> dict:
        """:func:`validate_model`'s findings by ``tol``."""
        return {}


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A discrimination instance: N states of a model with prior probabilities.

    Like its model, an ensemble keeps its scaled states and its :func:`validate_ensemble` verdicts.
    """

    model: GptModel
    states: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", finite_array(self.states, "states", (None, self.model.dim)))
        object.__setattr__(self, "priors", finite_array(self.priors, "priors", (self.n_states,)))

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    @cached_property
    def weighted_states(self) -> np.ndarray:
        """The scaled states ``q_x w_x`` as rows: one read-only array, formed on first use and shared by every caller."""
        weighted = self.priors[:, None] * self.states
        weighted.setflags(write=False)
        return weighted

    @cached_property
    def _verdicts(self) -> dict:
        """:func:`validate_ensemble`'s findings by ``tol``."""
        return {}


@dataclass
class ValidationReport:
    """Violated invariants (issues) and soft findings (warnings); empty issues means valid."""

    issues: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    unrestricted_effects: bool | None = None

    @property
    def valid(self) -> bool:
        return not self.issues


def validate_model(model: GptModel, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check every framework axiom of a model; all problems are reported, never raised.

    Pointedness needs no test of its own: with ``u[w] = 1`` on every state
    generator, ``u`` is strictly positive on the cone, so a cone that is not
    pointed always fails normalization.  Nor does ``u``'s membership in
    unrestricted effects, the dual of the state cone: ``u[w] = 1`` decides it.
    The rank of the state generators is ``dim`` less the lines that the state
    cone's dual keeps, so no SVD is run.  Also reports whether the effect cone
    equals the full dual of the state cone: every pairing is nonnegative and
    every state facet lies within ``tol`` of a unit effect generator (a new
    array of the nonzero ``effect_gens`` scaled to unit length) or else in the
    effect cone by :func:`feasibility_gap`, tried facet by facet until one
    fails.  No effect cone is built, and the state cone is dualized only when
    the effect generators do not certify its facets; past ``MAX_DUAL_ENTRIES``
    that raises :class:`UnsupportedSizeError`, and a ``tol`` outside
    ``(0, MAX_TOL]`` raises :class:`InvalidInputError`.  The findings are
    computed once per model and ``tol``; each call returns a new report.
    """
    return _kept(model, check_tol(tol), _validate_model)


def _kept(subject: GptModel | Ensemble, tol: float, validate) -> ValidationReport:
    """A new report of the findings ``subject`` keeps for ``tol``, from ``validate(subject, tol)`` on first use."""
    verdicts = subject._verdicts
    if tol not in verdicts:
        report = validate(subject, tol)
        verdicts[tol] = (tuple(report.issues), tuple(report.warnings), report.unrestricted_effects)
    issues, warnings, unrestricted_effects = verdicts[tol]
    return ValidationReport(list(issues), list(warnings), unrestricted_effects)


def _validate_model(model: GptModel, tol: float) -> ValidationReport:
    report = ValidationReport()
    u = model.unit_effect
    residuals = np.abs(model.state_gens @ u - 1.0)
    for i in np.flatnonzero(residuals > tol):
        report.issues.append(f"u[w]=1 violated for state generator {i}, residual {residuals[i]:g}")
    effects = model.effect_gens
    pairings = model.state_gens @ effects.T  # pairings[i, j] = e_j . w_i
    lows, highs = pairings.min(axis=0, initial=np.inf), pairings.max(axis=0, initial=-np.inf)
    for j in np.flatnonzero((lows < -tol) | (highs > 1.0 + tol)):
        if lows[j] < -tol:
            low = int(np.argmin(pairings[:, j]))
            report.issues.append(f"effect generator {j} negative on state generator {low}, value {lows[j]:g}")
        if highs[j] > 1.0 + tol:
            high = int(np.argmax(pairings[:, j]))
            report.issues.append(f"effect generator {j} exceeds 1 on state generator {high}, value {highs[j]:g}")
    state_cone = model.state_cone
    if state_cone.rank < model.dim:
        report.warnings.append(f"state cone is not full-dimensional (rank {state_cone.rank} < {model.dim})")
    facets, units = state_cone.facets, unit_rows(effects)[1]
    # One Gram argmax shortlists each facet's nearest unit generator (none is infinitely far), then one distance.
    nearest = units[(facets @ units.T).argmax(axis=1)] if len(units) else np.full_like(facets, np.inf)
    matched = np.linalg.norm(facets - nearest, axis=1) <= tol
    fits = (feasibility_gap(effects.T, f, tol) <= tol for f in facets[~matched])  # lazy: stops at the first miss
    report.unrestricted_effects = bool(pairings.min(initial=0.0) >= -tol and all(fits))
    # Unrestricted effects are the dual of S, which holds u exactly when u[w] >= 0 on S: normalization decides it.
    if not report.unrestricted_effects:
        report.warnings.append(
            "effect cone differs from the full dual of the state cone (restricted effects); "
            "the solver uses the supplied cone as given"
        )
        if feasibility_gap(effects.T, u, tol) > tol:
            report.issues.append("unit effect is not in the cone of the effect generators")
    return report


def validate_ensemble(ensemble: Ensemble, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Report prior-simplex and per-state problems, assuming a validated model; only a bad ``tol`` raises.

    The findings are computed once per ensemble and ``tol``; each call returns a new report.
    """
    return _kept(ensemble, check_tol(tol), _validate_ensemble)


def _validate_ensemble(ensemble: Ensemble, tol: float) -> ValidationReport:
    report = ValidationReport()
    priors = ensemble.priors
    for i in np.flatnonzero(priors < -tol):
        report.issues.append(f"prior {i} negative ({priors[i]:g})")
    total = float(priors.sum())
    if abs(total - 1.0) > tol:
        report.issues.append(f"priors sum {total:g}")
    residuals = np.abs(ensemble.states @ ensemble.model.unit_effect - 1.0)
    contained = inside(ensemble.model.state_cone.facets, ensemble.states, tol)
    for i in np.flatnonzero((residuals > tol) | ~contained):
        if residuals[i] > tol:
            report.issues.append(f"state {i} is not normalized (u[w] residual {residuals[i]:g})")
        if not contained[i]:
            report.issues.append(f"state {i} is outside the state cone")
    return report
