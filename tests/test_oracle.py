import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gptdisc.oracle as oracle
from gptdisc import (
    Ensemble,
    GptModel,
    NumericalFailureError,
    UnsupportedSizeError,
    dual_vertex_enumeration,
    polygon_model,
    solve_discrimination,
)
from gptdisc.polygon import no_measurement_ensemble, uniform_vertex_ensemble

from conftest import (
    all_subsets_vertex_enumeration,
    cross_polytope_model,
    hypercube_model,
    random_polygon_ensemble,
    random_polytope_model,
)


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


def _mixed_ensemble(model: GptModel, n_states: int, seed: int) -> Ensemble:
    """``n_states`` random mixtures of the model's state generators, with random priors."""
    rng = np.random.default_rng(seed)
    weights = rng.random((n_states, model.state_gens.shape[0]))
    weights /= weights.sum(axis=1, keepdims=True)
    priors = rng.random(n_states)
    return Ensemble(model=model, states=weights @ model.state_gens, priors=priors / priors.sum())


def _duplicated_effect_ensemble() -> Ensemble:
    square = polygon_model(4)
    model = GptModel(
        dim=3,
        state_gens=square.state_gens,
        effect_gens=np.vstack([square.effect_gens, square.effect_gens[:1]]),
        unit_effect=square.unit_effect,
    )
    return Ensemble(model=model, states=square.state_gens, priors=np.full(4, 0.25))


def _random_polytope_ensemble(seed: int) -> Ensemble:
    model = random_polytope_model(np.random.default_rng(seed), 4, 6)
    return _mixed_ensemble(model, min(4, oracle.MAX_ORACLE_CONSTRAINTS // model.effect_gens.shape[0]), seed)


NO_MEASUREMENT_GRID = [round(0.05 * k, 2) for k in range(21)]  # the grid of `gptdisc demo no-measurement`
REFERENCE_CASES = (
    [pytest.param(lambda n=n: uniform_vertex_ensemble(n), id=f"uniform-{n}") for n in range(3, 8)]
    + [pytest.param(lambda p=p: no_measurement_ensemble(p), id=f"no-measurement-{p:g}") for p in NO_MEASUREMENT_GRID]
    + [pytest.param(lambda s=s: random_polygon_ensemble(np.random.default_rng(s)), id=f"random-polygon-{s}") for s in range(20)]
    + [pytest.param(lambda n=n: _mixed_ensemble(hypercube_model(3), n, n), id=f"cube3-{n}") for n in range(1, 11)]
    + [pytest.param(lambda: _mixed_ensemble(cross_polytope_model(3), 6, 0), id="cross-polytope3-6")]
    + [pytest.param(lambda s=s: _random_polytope_ensemble(s), id=f"random-polytope4-{s}") for s in range(5)]
    + [pytest.param(_duplicated_effect_ensemble, id="duplicated-effect")]
    + [pytest.param(lambda: _mixed_ensemble(polygon_model(12), 5, 0), id="bound-12x5")]
)


@pytest.mark.parametrize("build", REFERENCE_CASES)
def test_enumeration_matches_the_all_subsets_reference(build):
    ensemble = build()
    result = dual_vertex_enumeration(ensemble)
    reference = all_subsets_vertex_enumeration(ensemble)
    assert result.vertices_examined == reference.vertices_examined
    assert abs(result.p_guess - reference.p_guess) <= 1e-12
    assert_allclose(result.k, reference.k, rtol=0.0, atol=1e-9)


def test_fewer_effect_generators_than_dim_have_no_nonsingular_subset():
    square = polygon_model(4)
    model = GptModel(dim=3, state_gens=square.state_gens, effect_gens=square.effect_gens[:2], unit_effect=square.unit_effect)
    ensemble = Ensemble(model=model, states=square.state_gens[:2], priors=np.array([0.5, 0.5]))
    with pytest.raises(NumericalFailureError, match="^no nonsingular constraint subset found$"):
        dual_vertex_enumeration(ensemble)


def test_the_constraint_bound_is_checked_before_any_array_is_formed():
    # 2,000 states on the order-512 polygon: 1,024,000 constraints, whose tiled normals alone would be 24.6 MB.
    ensemble = _mixed_ensemble(polygon_model(512), 2000, 0)
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedSizeError, match="1024000 constraints"):
            dual_vertex_enumeration(ensemble)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _recorded_solves(monkeypatch) -> list[tuple[int, ...]]:
    """Wrap ``np.linalg.solve`` as ``gptdisc.oracle`` sees it, recording the shape of every stack it factors."""
    shapes = []
    real_solve = oracle.np.linalg.solve

    def recording_solve(a, b):
        shapes.append(np.shape(a))
        return real_solve(a, b)

    monkeypatch.setattr(oracle.np.linalg, "solve", recording_solve)
    return shapes


def test_each_generator_subset_is_factored_once(monkeypatch):
    ensemble = _mixed_ensemble(polygon_model(12), 5, 0)
    assert ensemble.n_states * 12 == oracle.MAX_ORACLE_CONSTRAINTS
    shapes = _recorded_solves(monkeypatch)
    dual_vertex_enumeration(ensemble)
    assert len(shapes) == 1
    assert shapes[0][1:] == (3, 3)
    assert shapes[0][0] <= 220  # C(12, 3): one factorization per subset of distinct generators


def test_past_the_bound_nothing_is_solved(monkeypatch):
    ensemble = uniform_vertex_ensemble(11)
    shapes = _recorded_solves(monkeypatch)
    with pytest.raises(UnsupportedSizeError):
        dual_vertex_enumeration(ensemble)
    assert shapes == []
