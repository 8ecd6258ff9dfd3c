"""The records the package builds for itself, against those its checked constructors build, and where numbers are checked."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import gptdisc
import gptdisc.errors as errors
import gptdisc.lp as lp_module
from gptdisc import (
    DiscriminationSolution,
    Ensemble,
    GptModel,
    congruence_check,
    feasibility_gap,
    polygon_model,
    solve_discrimination,
    validate_ensemble,
    verify_kkt,
)
from gptdisc.discrimination import _build_primal, _reward_matrix
from gptdisc.polygon import no_measurement_ensemble, uniform_vertex_ensemble

from conftest import random_polygon_ensemble


def _assert_same_record(built, checked):
    """Every field of ``built`` has the type, or the bits, dtype, shape and read-only flag, of ``checked``'s."""
    assert type(built) is type(checked)
    for f in dataclasses.fields(built):
        a, b = getattr(built, f.name), getattr(checked, f.name)
        if isinstance(a, np.ndarray):
            assert isinstance(b, np.ndarray), f.name
            assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, b.flags.writeable), f.name
            assert a.tobytes() == b.tobytes(), f.name
        elif isinstance(a, float):
            assert type(b) is float and np.float64(a).tobytes() == np.float64(b).tobytes(), f.name
        else:
            assert type(a) is type(b) and (a is b or a == b), f.name


_ENSEMBLES = {
    "polygon": uniform_vertex_ensemble,
    "mixture": no_measurement_ensemble,
    "random": lambda seed: random_polygon_ensemble(np.random.default_rng(seed)),
}
_INSTANCES = (
    [("polygon", n) for n in range(3, 17)]
    + [("mixture", p) for p in (0.3, 0.5, 0.7, 0.9)]
    + [("random", seed) for seed in range(20)]
)


@pytest.mark.parametrize("kind, arg", _INSTANCES, ids=[f"{kind}-{arg}" for kind, arg in _INSTANCES])
def test_records_built_unchecked_equal_the_checked_constructors_records(kind, arg):
    ensemble = _ENSEMBLES[kind](arg)
    model = ensemble.model
    problem = _build_primal(model, _reward_matrix(ensemble))
    solution = solve_discrimination(ensemble)
    # dataclasses.replace with no changes runs the constructor, so every field passes finite_array again.
    for record in (model, ensemble, problem, solution):
        _assert_same_record(record, dataclasses.replace(record))
    assert np.shares_memory(problem.eq_matrix, model.effect_gens) and problem.eq_rhs is model.unit_effect


def _count_entry_checks(monkeypatch) -> list:
    """The names that ``finite_array`` is called with from now on, from every module that imports it."""
    names = []
    real = errors.finite_array

    def counted(value, name, shape):
        names.append(name)
        return real(value, name, shape)

    for info in pkgutil.iter_modules(gptdisc.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            module = importlib.import_module(f"gptdisc.{info.name}")
            if getattr(module, "finite_array", None) is real:
                monkeypatch.setattr(module, "finite_array", counted)
    return names


def _certify(ensemble):
    assert validate_ensemble(ensemble).valid
    solution = solve_discrimination(ensemble)
    assert verify_kkt(ensemble, solution).passes()
    congruence_check(solution)


@pytest.mark.parametrize("caller_built, expected", [(True, ["states", "priors"]), (False, [])])
def test_a_warm_instance_checks_only_the_numbers_handed_in(monkeypatch, caller_built, expected):
    model = polygon_model(8)
    _certify(uniform_vertex_ensemble(8))  # the model keeps its state facets and its measurement LP's phase-1 start
    rng = np.random.default_rng(8)
    weights = rng.random((4, 8))
    states = (weights / weights.sum(axis=1, keepdims=True)) @ model.state_gens
    priors = rng.random(4) / 2.0
    priors[-1] = 1.0 - priors[:-1].sum()
    names = _count_entry_checks(monkeypatch)
    _certify(Ensemble(model=model, states=states, priors=priors) if caller_built else uniform_vertex_ensemble(8))
    assert names == expected


def _assert_unshared(arrays, record):
    """Each caller's array is still writeable and shares no memory with any array field of ``record``."""
    for array in arrays:
        assert array.flags.writeable
        for f in dataclasses.fields(record):
            value = getattr(record, f.name)
            assert not (isinstance(value, np.ndarray) and np.shares_memory(array, value)), f.name


def test_a_callers_arrays_stay_writeable_and_unshared(monkeypatch):
    polygon = polygon_model(5)
    gens = [np.array(a) for a in (polygon.state_gens, polygon.effect_gens, polygon.unit_effect)]
    model = GptModel(3, *gens)
    _assert_unshared(gens, model)
    states, priors = np.array(model.state_gens), np.full(5, 0.2)
    ensemble = Ensemble(model, states, priors)
    _assert_unshared([states, priors], ensemble)

    rewards = _reward_matrix(ensemble)
    _assert_unshared([rewards], _build_primal(model, rewards))

    solved = solve_discrimination(ensemble)
    numbers = [np.array(a) for a in (solved.coefficients, solved.symmetry_operator, solved.stated, solved.stated_d)]
    _assert_unshared(numbers, DiscriminationSolution(ensemble, solved.p_guess, *numbers))

    problems = []
    solve_lp = lp_module.solve_lp

    def recorded(problem, **kwargs):
        problems.append(problem)
        return solve_lp(problem, **kwargs)

    monkeypatch.setattr(lp_module, "solve_lp", recorded)
    eq_matrix, eq_rhs = np.array(model.effect_gens.T), np.array(model.unit_effect)
    assert feasibility_gap(eq_matrix, eq_rhs) <= 1e-9
    (problem,) = problems
    _assert_unshared([eq_matrix, eq_rhs], problem)
