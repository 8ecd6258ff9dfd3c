import dataclasses
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gptdisc import (
    Ensemble,
    InvalidInputError,
    PreconditionError,
    UndefinedRatioError,
    congruence_check,
    polygon_model,
    ratio_r,
    solve_discrimination,
    symmetric_axis_k,
    verify_kkt,
)
from gptdisc.oracle import dual_vertex_enumeration
from gptdisc.polygon import no_measurement_ensemble, uniform_vertex_ensemble

from conftest import random_polygon_ensemble

AXIS = np.array([0.0, 0.0, 1.0])


def test_congruence_square_solution():
    sol = solve_discrimination(uniform_vertex_ensemble(4))
    report = congruence_check(sol)
    assert report.max_residual <= 1e-9
    assert report.ratio == pytest.approx(0.25, abs=1e-9)
    assert report.ratio_spread <= 1e-9
    assert report.skipped == ()


def test_congruence_triangle_solution():
    sol = solve_discrimination(uniform_vertex_ensemble(3))
    assert congruence_check(sol).max_residual <= 1e-9


def test_congruence_detects_swapped_complementary_state():
    sol = solve_discrimination(uniform_vertex_ensemble(3))
    broken = dataclasses.replace(sol, stated_d=sol.stated_d[[0, 0, 2]])  # outcome 1 states outcome 0's d
    report = congruence_check(broken)
    edge = np.linalg.norm(sol.stated_d[1] - sol.stated_d[0])
    # s_1 = r (d_1 - d_0) with r = 2/3, so the bound is twice that; the exact worst edge residual is |s_1| itself.
    assert report.max_residual == pytest.approx((4.0 / 3.0) * edge, abs=1e-9)
    assert report.max_residual >= (2.0 / 3.0) * edge
    assert report.max_residual > 1e-3


def test_congruence_skips_degenerate_pairs():
    sol = solve_discrimination(no_measurement_ensemble(0.5))
    report = congruence_check(sol)
    assert report.skipped == (4,)
    assert report.max_residual <= 1e-9


def test_ratio_square():
    sol = solve_discrimination(uniform_vertex_ensemble(4))
    assert ratio_r(sol) == pytest.approx(0.25, abs=1e-9)


def test_ratio_triangle():
    sol = solve_discrimination(uniform_vertex_ensemble(3))
    value = ratio_r(sol)
    assert value == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert value == pytest.approx(sol.p_guess - 1.0 / 3.0, abs=1e-9)


def test_ratio_antipodal_pair_on_square():
    model = polygon_model(4)
    ensemble = Ensemble(
        model=model,
        states=model.state_gens[[0, 2]],
        priors=np.array([0.5, 0.5]),
    )
    sol = solve_discrimination(ensemble)
    oracle = dual_vertex_enumeration(ensemble)
    assert sol.p_guess == pytest.approx(1.0, abs=1e-9)
    assert oracle.p_guess == pytest.approx(1.0, abs=1e-9)
    assert ratio_r(sol) == pytest.approx(0.5, abs=1e-9)


def test_ratio_requires_uniform_priors():
    model = polygon_model(4)
    ensemble = Ensemble(model=model, states=model.state_gens, priors=np.array([0.4, 0.3, 0.2, 0.1]))
    sol = solve_discrimination(ensemble)
    with pytest.raises(PreconditionError):
        ratio_r(sol)


def test_ratio_undefined_when_all_pairs_degenerate():
    model = polygon_model(4)
    ensemble = Ensemble(model=model, states=model.state_gens[:1], priors=np.array([1.0]))
    sol = solve_discrimination(ensemble)
    with pytest.raises(UndefinedRatioError):
        ratio_r(sol)


def test_ratio_matches_uniform_excess_on_random_uniform_instances():
    rng = np.random.default_rng(99)
    for _ in range(10):
        ensemble = random_polygon_ensemble(rng)
        n = ensemble.n_states
        uniform = Ensemble(model=ensemble.model, states=ensemble.states, priors=np.full(n, 1.0 / n))
        sol = solve_discrimination(uniform)
        try:
            value = ratio_r(sol)
        except UndefinedRatioError:
            continue
        assert value == pytest.approx(sol.p_guess - 1.0 / n, abs=1e-9)


def test_axis_operator_square():
    ensemble = uniform_vertex_ensemble(4)
    k = symmetric_axis_k(ensemble, AXIS)
    assert_allclose(k, [0.0, 0.0, 0.5], atol=1e-12)


def test_axis_operator_triangle():
    ensemble = uniform_vertex_ensemble(3)
    k = symmetric_axis_k(ensemble, AXIS)
    assert_allclose(k, [0.0, 0.0, 1.0], atol=1e-12)


def test_axis_operator_mixture_at_half():
    ensemble = no_measurement_ensemble(0.5)
    k = symmetric_axis_k(ensemble, AXIS)
    assert_allclose(k, 0.5 * ensemble.states[4], atol=1e-12)
    sol = solve_discrimination(ensemble)
    variant = dataclasses.replace(sol, symmetry_operator=k)
    assert verify_kkt(ensemble, variant).passes(1e-9)


def test_axis_operator_always_dual_feasible_and_upper_bound():
    rng = np.random.default_rng(7)
    for _ in range(10):
        ensemble = random_polygon_ensemble(rng)
        k = symmetric_axis_k(ensemble, AXIS)
        gens = ensemble.model.effect_gens
        margins = gens @ (k[:, None] - ensemble.weighted_states.T)
        assert margins.min() >= -1e-9
        sol = solve_discrimination(ensemble)
        assert float(ensemble.model.unit_effect @ k) >= sol.p_guess - 1e-9


def test_axis_operator_rejects_non_interior_axis():
    ensemble = uniform_vertex_ensemble(4)
    boundary = ensemble.states[0]  # vertex direction: some effects pair to zero
    with pytest.raises(PreconditionError):
        symmetric_axis_k(ensemble, boundary)
    with pytest.raises(PreconditionError):
        symmetric_axis_k(ensemble, np.array([0.0, 0.0, 2.0]))


@pytest.mark.parametrize("axis", ["abc", [0.0, 0.0, np.nan], [True, False, True], [0.0, 1.0]],
                         ids=["string", "nan", "bool", "short"])
def test_axis_operator_rejects_a_malformed_axis(axis):
    with pytest.raises(InvalidInputError, match="axis"):
        symmetric_axis_k(uniform_vertex_ensemble(4), axis)


def _half_way_to_the_axis(d):
    d = d.copy()
    d[0] = d[0] * 0.5 + np.array([0.0, 0.0, 0.5])
    return d


@pytest.mark.parametrize(
    "n, tamper",
    [
        (4, _half_way_to_the_axis),
        # Both keep every consecutive edge ratio at p_guess - 1/N, so only the congruence residual rejects them.
        (3, lambda d: d[[0, 0, 2]]),
        (4, lambda d: d[[2, 3, 0, 1]]),
    ],
    ids=["square-half-way", "triangle-repeated-d", "square-antipodal-d"],
)
def test_ratio_rejects_inconsistent_solution(n, tamper):
    sol = solve_discrimination(uniform_vertex_ensemble(n))
    broken = dataclasses.replace(sol, stated_d=tamper(sol.stated_d))
    with pytest.raises(InvalidInputError):
        ratio_r(broken)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 5.0], ids=["nan", "negative", "above-max"])
@pytest.mark.parametrize(
    "check",
    [
        lambda sol, tol: verify_kkt(sol.ensemble, sol).passes(tol),
        congruence_check,
        ratio_r,
        lambda sol, tol: symmetric_axis_k(sol.ensemble, AXIS, tol),
    ],
    ids=["passes", "congruence_check", "ratio_r", "symmetric_axis_k"],
)
def test_verification_rejects_tolerance_outside_range(check, tol):
    # Unchecked, nan made congruence_check report no ratio and ratio_r raise UndefinedRatioError, -1 made
    # ratio_r call the uniform square non-uniform, and 5 let passes() accept any residual below 5.
    with pytest.raises(InvalidInputError, match="tol must lie in"):
        check(solve_discrimination(uniform_vertex_ensemble(4)), tol)


@pytest.mark.parametrize("seed", range(6))
def test_congruence_report_matches_a_loop_over_pairs(seed):
    # A loop over every pair of stated pairs is the reference: each edge residual lies within the report's bound
    # (up to the rounding of the loop's own sums), which is twice the worst stability residual of verify_kkt, on the
    # solution and on one whose d are stated in reverse; the ratios of the edges between consecutive stated pairs
    # give the report's ratio statistics bit for bit, with degenerate pairs skipped (the mixture at p = 0.5 has one).
    ensemble = random_polygon_ensemble(np.random.default_rng(seed)) if seed < 5 else no_measurement_ensemble(0.5)
    sol = solve_discrimination(ensemble)
    stated = np.flatnonzero(sol.stated).tolist()
    weighted = ensemble.weighted_states
    for candidate in (sol, dataclasses.replace(sol, stated_d=sol.stated_d[::-1])):
        pairs = dict(zip(stated, zip(candidate.weights[candidate.stated], candidate.stated_d)))
        bound = congruence_check(candidate).max_residual
        for x, y in combinations(stated, 2):
            (rx, dx), (ry, dy) = pairs[x], pairs[y]
            assert np.linalg.norm(weighted[x] - weighted[y] + rx * dx - ry * dy) <= bound + 1e-14
        assert bound == 2 * verify_kkt(ensemble, candidate).stability_residuals[candidate.stated].max(initial=0.0)
    report = congruence_check(sol)
    d = dict(zip(stated, sol.stated_d))
    ratios = []
    for x, y in zip(stated, stated[1:]):
        if (d_edge := np.linalg.norm(d[x] - d[y])) > 1e-9:
            ratios.append(np.linalg.norm(weighted[x] - weighted[y]) / d_edge)
    assert report.ratio == (float(np.mean(ratios)) if ratios else None)
    assert report.ratio_spread == (max(ratios) - min(ratios) if ratios else 0.0)


def test_congruence_at_order_1024_stays_within_one_megabyte():
    # The report needs a few N x d arrays, 25 kB each here; a loop's worth of pairs is N(N-1)/2 x d, 12.6 MB each.
    sol = solve_discrimination(uniform_vertex_ensemble(1024))
    tracemalloc.start()
    try:
        report = congruence_check(sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert report.max_residual <= 1e-9
    assert report.ratio_spread <= 1e-9
