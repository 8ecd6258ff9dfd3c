import itertools

import numpy as np
import pytest

import gptdisc.cone as cone
from gptdisc import Ensemble, GptModel, LpProblem, PolyhedralCone, dual_cone, polygon_model
from gptdisc.discrimination import build_primal, reward_matrix
from gptdisc.errors import finite_array


def random_polygon_ensemble(rng: np.random.Generator) -> Ensemble:
    """Random mixed states on a random polygon model with random priors."""
    order = int(rng.integers(3, 9))
    model = polygon_model(order)
    n_states = int(rng.integers(2, 7))
    weights = rng.random((n_states, order))
    weights /= weights.sum(axis=1, keepdims=True)
    priors = rng.random(n_states)
    priors /= priors.sum()
    return Ensemble(model=model, states=weights @ model.state_gens, priors=priors)


def random_polytope_model(rng: np.random.Generator, d: int, k: int) -> GptModel:
    """Model whose states are k Gaussian points of the plane u = e_d and whose effects span the full dual."""
    states = np.hstack([rng.normal(size=(k, d - 1)), np.ones((k, 1))])
    effects = dual_cone(PolyhedralCone(d, states)).generators
    effects = effects / (states @ effects.T).max(axis=0)[:, None]
    return GptModel(dim=d, state_gens=states, effect_gens=effects, unit_effect=np.eye(d)[-1])


def _signs(n: int) -> np.ndarray:
    """All 2^n sign vectors in {-1, 1}^n as rows."""
    return np.array(list(itertools.product([-1.0, 1.0], repeat=n)))


def hypercube_model(n: int) -> GptModel:
    """The n-cube ("squit"; n = 2 is the gbit) in d = n + 1: 2^n states (s, 1), 2n effects (1 +- x_i)/2, u = e_d."""
    states = np.hstack([_signs(n), np.ones((2**n, 1))])
    effects = np.hstack([np.vstack([np.eye(n), -np.eye(n)]), np.ones((2 * n, 1))]) / 2.0
    return GptModel(dim=n + 1, state_gens=states, effect_gens=effects, unit_effect=np.eye(n + 1)[-1])


def cross_polytope_model(n: int) -> GptModel:
    """The n-cross-polytope in d = n + 1: 2n states (+-e_i, 1), 2^n effects (1 + s.x)/2, u = e_d."""
    states = np.hstack([np.vstack([np.eye(n), -np.eye(n)]), np.ones((2 * n, 1))])
    effects = np.hstack([_signs(n), np.ones((2**n, 1))]) / 2.0
    return GptModel(dim=n + 1, state_gens=states, effect_gens=effects, unit_effect=np.eye(n + 1)[-1])


def boxworld_model() -> GptModel:
    """Two gbits under no-signaling ("boxworld"; Barrett, PRA 75, 032304, 2007) in d = 9.

    The 16 coordinates ``p(ab|xy)`` (index 8x + 4y + 2a + b) are projected
    onto the 9-d span of the 24 vertices: first the 16 local deterministic
    boxes ``[a = f(x)][b = g(y)]``, then the 8 PR boxes ``[a + b = xy + sx + ty + c (mod 2)] / 2``.
    The effects are the 16 coordinates and ``u = sum_ab p(ab|00)``.
    """
    x, y, a, b = np.array(list(itertools.product([0, 1], repeat=4))).T
    functions = np.array(list(itertools.product([0, 1], repeat=2)))  # f as the table (f(0), f(1))
    local = [(a == f[x]) & (b == g[y]) for f in functions for g in functions]
    pr = [((a + b) % 2 == (x * y + s * x + t * y + c) % 2) / 2.0 for s, t, c in itertools.product([0, 1], repeat=3)]
    boxes = np.array(local + pr, dtype=float)
    basis = np.linalg.svd(boxes)[2][:9]  # orthonormal rows spanning the boxes, which have rank 9
    return GptModel(dim=9, state_gens=boxes @ basis.T, effect_gens=basis.T, unit_effect=basis[:, :4].sum(axis=1))


def slack_form(c, a_ub, b_ub) -> LpProblem:
    """Standard form of ``min c.x s.t. a_ub x <= b_ub, x >= 0``: one zero-cost slack per row."""
    a_ub = np.asarray(a_ub, dtype=float)
    m = a_ub.shape[0]
    return LpProblem(np.concatenate([c, np.zeros(m)]), np.hstack([a_ub, np.eye(m)]), b_ub)


def measurement_lp(ensemble: Ensemble) -> LpProblem:
    """The measurement LP that ``solve_discrimination`` solves: one column per effect generator."""
    return build_primal(ensemble.model, reward_matrix(ensemble))


def full_measurement_lp(ensemble: Ensemble) -> LpProblem:
    """Measurement LP over every coefficient ``c[x, j]``: column ``x * g + j`` carries ``g_j`` with reward ``q_x g_j[w_x]``."""
    gens = ensemble.model.effect_gens
    n, g = ensemble.n_states, gens.shape[0]
    objective = -(ensemble.priors[:, None] * (ensemble.states @ gens.T)).reshape(n * g)
    return LpProblem(objective, np.tile(gens.T, n), ensemble.model.unit_effect)


def effects_of(solution) -> np.ndarray:
    """The effects ``e_x = sum_j C[x, j] g_j`` of a solution's measurement, as rows."""
    return solution.coefficients @ solution.ensemble.model.effect_gens


def evaluate(effect, state) -> float:
    """Probability pairing of an effect and a state (Euclidean inner product)."""
    e = finite_array(effect, "effect", (None,))
    return float(e @ finite_array(state, "state", e.shape))


def effect_cone(model: GptModel) -> PolyhedralCone:
    """The cone of a model's supplied effect generators."""
    return PolyhedralCone(model.dim, model.effect_gens)


def same_generator_set(a: PolyhedralCone, b: PolyhedralCone, tol: float = 1e-9) -> bool:
    """True iff the generator sets coincide up to positive scaling and order."""
    if a.dim != b.dim or a.n_generators != b.n_generators:
        return False
    if a.n_generators == 0:
        return True
    ua = a.generators / np.linalg.norm(a.generators, axis=1, keepdims=True)
    ub = b.generators / np.linalg.norm(b.generators, axis=1, keepdims=True)
    unmatched = list(range(ub.shape[0]))
    for ga in ua:
        hit = next((k for k in unmatched if np.linalg.norm(ga - ub[k]) <= tol), None)
        if hit is None:
            return False
        unmatched.remove(hit)
    return True


def counted_dual_cones(monkeypatch) -> list[int]:
    """Patch ``dual_cone`` to record the generator count of every cone it dualizes."""
    calls = []
    real_dual_cone = cone.dual_cone

    def counting_dual_cone(c):
        calls.append(c.n_generators)
        return real_dual_cone(c)

    monkeypatch.setattr(cone, "dual_cone", counting_dual_cone)
    return calls


@pytest.fixture
def triangle_model():
    return polygon_model(3)


@pytest.fixture
def square_model():
    return polygon_model(4)
