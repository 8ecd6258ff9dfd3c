"""Model and ensemble builders shared by the tests, kept free of pytest so that other tools can import them."""

import itertools

import numpy as np

from gptdisc import Ensemble, GptModel, PolyhedralCone, dual_cone, polygon_model


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


def restricted_square_model() -> GptModel:
    """The square's states with twelve effects ``(1 + (cos t, sin t) . x / 2) / 2``: a restricted 12-gon effect cone."""
    square = polygon_model(4)
    t = 2 * np.pi * np.arange(12) / 12
    effects = np.column_stack([np.cos(t) / 2, np.sin(t) / 2, np.ones(12)]) / 2
    return GptModel(dim=3, state_gens=square.state_gens, effect_gens=effects, unit_effect=square.unit_effect)


def square_with_effect_zero_scaled(factor: float) -> GptModel:
    """The square with effect generator 0 scaled by ``factor``: invalid past 1, though its measurement LP solves."""
    square = polygon_model(4)
    effects = square.effect_gens.copy()
    effects[0] *= factor
    return GptModel(dim=3, state_gens=square.state_gens, effect_gens=effects, unit_effect=square.unit_effect)
