"""The regular-polygon GPT family and its worked discrimination demos.

States sit at the vertices of a regular n-gon of radius
``r_n = cos(pi/n)^(-1/2)`` at unit height; effect generators differ
between even n (edge-midpoint directions at half height) and odd n
(vertex-aligned, scaled by ``1/(1 + r_n^2)``).  The unit effect is
``(0, 0, 1)``.

``n`` is the polygon order; ensembles may use any states of the model,
so the number of discriminated states is independent of ``n`` (the
no-measurement demo puts five states on the order-4 polygon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .discrimination import (
    DiscriminationSolution,
    KktReport,
    no_measurement_value,
    solve_discrimination,
    verify_kkt,
)
from .errors import InvalidInputError
from .model import DEFAULT_TOL, Ensemble, GptModel, Measurement
from .oracle import dual_vertex_enumeration

#: Threshold claimed for the analogous five-state quantum ensemble.
QUANTUM_ANALOGUE_THRESHOLD = 0.2
#: Closed-form dual-feasibility bound for this model: f[p w4 - q0 w0] = (3p-1)/4 >= 0.
AXIS_FEASIBILITY_THRESHOLD = 1.0 / 3.0


def polygon_radius(n: int) -> float:
    """The vertex radius ``cos(pi/n)^(-1/2)``."""
    if n < 3:
        raise InvalidInputError("polygon order must be at least 3")
    return 1.0 / math.sqrt(math.cos(math.pi / n))

def polygon_model(n: int) -> GptModel:
    """Build the order-``n`` polygon model (states, effects, unit effect)."""
    r = polygon_radius(n)
    x = np.arange(n)
    state_angles = 2.0 * np.pi * x / n
    states = np.column_stack([r * np.cos(state_angles), r * np.sin(state_angles), np.ones(n)])
    if n % 2 == 0:
        effect_angles = (2.0 * x - 1.0) * np.pi / n
        effects = 0.5 * np.column_stack(
            [r * np.cos(effect_angles), r * np.sin(effect_angles), np.ones(n)]
        )
    else:
        effects = states / (1.0 + r * r)
    return GptModel(dim=3, state_gens=states, effect_gens=effects, unit_effect=np.array([0.0, 0.0, 1.0]))


def uniform_vertex_ensemble(n: int) -> Ensemble:
    """Uniform priors over all vertex states of the order-``n`` polygon."""
    model = polygon_model(n)
    return Ensemble(model=model, states=model.state_gens, priors=np.full(n, 1.0 / n))


def demo_n3() -> DiscriminationSolution:
    """Uniform three-state discrimination on the triangle: perfect, value 1."""
    return solve_discrimination(uniform_vertex_ensemble(3))


@dataclass(frozen=True)
class DemoN4Result:
    """Square-demo output: the solved instance plus the alternate optimal measurements."""

    solution: DiscriminationSolution
    alternates: tuple[tuple[str, Measurement, KktReport], ...]


def demo_n4() -> DemoN4Result:
    """Uniform four-state discrimination on the square: value 1/2, non-unique optima.

    Verifies three distinct optimal measurements through the KKT report:
    the halved effect family, and the two two-outcome strategies that
    guess randomly between the pair of states an effect cannot exclude.
    """
    ensemble = uniform_vertex_ensemble(4)
    solution = solve_discrimination(ensemble)
    f = ensemble.model.effect_gens
    candidates = [
        ("halved-effects", Measurement(f / 2.0)),
        # f0 leaves {w0, w3} possible, f2 leaves {w1, w2}; guess uniformly.
        ("f0-f2-randomized", Measurement(np.array([f[0] / 2, f[2] / 2, f[2] / 2, f[0] / 2]))),
        # f1 leaves {w0, w1} possible, f3 leaves {w2, w3}.
        ("f1-f3-randomized", Measurement(np.array([f[1] / 2, f[1] / 2, f[3] / 2, f[3] / 2]))),
    ]
    alternates = tuple(
        (name, measurement, verify_kkt(ensemble, replace(solution, measurement=measurement)))
        for name, measurement in candidates
    )
    return DemoN4Result(solution=solution, alternates=alternates)


@cache  # one square model per process for the mixture instances, so its cones' facets are computed once
def _square_model() -> GptModel:
    return polygon_model(4)


def no_measurement_ensemble(p: float) -> Ensemble:
    """Four square vertices with prior ``(1-p)/4`` each, plus their mixture with prior ``p``."""
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError("mixture prior p must lie in [0, 1]")
    model = _square_model()
    mixture = model.state_gens.mean(axis=0)
    states = np.vstack([model.state_gens, mixture])
    priors = np.array([(1.0 - p) / 4.0] * 4 + [p])
    return Ensemble(model=model, states=states, priors=priors)


def demo_no_measurement(p: float) -> DiscriminationSolution:
    """Solve the five-state mixture instance for a given mixture prior ``p``."""
    return solve_discrimination(no_measurement_ensemble(p))


@dataclass(frozen=True)
class ThresholdScan:
    """Grid of (p, p_guess, no-measurement-optimal) rows plus the measured threshold."""

    rows: tuple[tuple[float, float, bool], ...]
    p_star: float | None


def threshold_scan(p_grid) -> ThresholdScan:
    """Locate where guessing without measuring becomes optimal.

    Each grid point is solved and flagged; the threshold ``p_star`` (the
    smallest flagged prior) is then bisected to 1e-6, with the bisection
    decided by the vertex-enumeration oracle rather than the solver.
    """
    grid = [float(p) for p in p_grid]
    if any(p < 0.0 or p > 1.0 for p in grid):
        raise InvalidInputError("grid values must lie in [0, 1]")

    rows = []
    for p in grid:
        solution = demo_no_measurement(p)
        baseline = no_measurement_value(solution.ensemble)
        rows.append((p, solution.p_guess, solution.p_guess <= baseline + DEFAULT_TOL))

    def oracle_flag(p: float) -> bool:
        ensemble = no_measurement_ensemble(p)
        result = dual_vertex_enumeration(ensemble)
        return result.p_guess <= no_measurement_value(ensemble) + DEFAULT_TOL

    flagged = sorted(p for p, _, flag in rows if flag)
    if not flagged:
        return ThresholdScan(rows=tuple(rows), p_star=None)
    hi = flagged[0]
    lo = 0.0
    if oracle_flag(lo):
        return ThresholdScan(rows=tuple(rows), p_star=lo)
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if oracle_flag(mid):
            hi = mid
        else:
            lo = mid
    return ThresholdScan(rows=tuple(rows), p_star=hi)
