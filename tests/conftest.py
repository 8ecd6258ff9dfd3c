import numpy as np
import pytest

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


@pytest.fixture
def triangle_model():
    return polygon_model(3)


@pytest.fixture
def square_model():
    return polygon_model(4)
