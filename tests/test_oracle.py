import numpy as np
import pytest
from numpy.testing import assert_allclose

from gptdisc import (
    Ensemble,
    GptModel,
    UnsupportedSizeError,
    dual_vertex_enumeration,
    polygon_model,
    solve_discrimination,
)
from gptdisc.polygon import uniform_vertex_ensemble

from conftest import random_polygon_ensemble


def test_enumeration_square():
    result = dual_vertex_enumeration(uniform_vertex_ensemble(4))
    assert result.p_guess == pytest.approx(0.5, abs=1e-12)
    assert_allclose(result.k, [0.0, 0.0, 0.5], atol=1e-9)
    assert result.vertices_examined >= 1


def test_enumeration_triangle():
    result = dual_vertex_enumeration(uniform_vertex_ensemble(3))
    assert result.p_guess == pytest.approx(1.0, abs=1e-12)


def test_enumeration_single_state():
    model = polygon_model(4)
    ensemble = Ensemble(model=model, states=model.state_gens[:1], priors=np.array([1.0]))
    result = dual_vertex_enumeration(ensemble)
    assert result.p_guess == pytest.approx(1.0, abs=1e-12)


def test_enumeration_dimension_bound():
    model = GptModel(
        dim=5,
        state_gens=np.hstack([np.ones((1, 1)), np.zeros((1, 3)), np.ones((1, 1))]),
        effect_gens=np.eye(5),
        unit_effect=np.array([0.0, 0.0, 0.0, 0.0, 1.0]),
    )
    ensemble = Ensemble(model=model, states=model.state_gens, priors=np.array([1.0]))
    with pytest.raises(UnsupportedSizeError):
        dual_vertex_enumeration(ensemble)


def test_enumeration_constraint_bound():
    model = polygon_model(11)
    ensemble = Ensemble(
        model=model, states=model.state_gens, priors=np.full(11, 1.0 / 11.0)
    )
    with pytest.raises(UnsupportedSizeError):
        dual_vertex_enumeration(ensemble)


def test_enumeration_agrees_with_solver_on_random_instances():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        ensemble = random_polygon_ensemble(rng)
        sol = solve_discrimination(ensemble)
        oracle = dual_vertex_enumeration(ensemble)
        assert abs(oracle.p_guess - sol.p_guess) <= 1e-8


def test_enumeration_deterministic():
    ensemble = uniform_vertex_ensemble(6)
    first = dual_vertex_enumeration(ensemble)
    second = dual_vertex_enumeration(ensemble)
    assert first.p_guess == second.p_guess
    assert np.array_equal(first.k, second.k)
