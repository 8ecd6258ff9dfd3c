import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gptdisc import (
    Ensemble,
    GptModel,
    InvalidInputError,
    Measurement,
    build_primal,
    no_measurement_value,
    polygon_model,
    solve_discrimination,
    solve_lp,
    symmetric_axis_k,
    validate_ensemble,
    validate_model,
    verify_kkt,
)
from gptdisc.discrimination import measurement_from_primal
from gptdisc.lp import OPTIMAL, LpSolution, check_certificate, feasibility_gap
from gptdisc.oracle import MAX_ORACLE_CONSTRAINTS, dual_vertex_enumeration
from gptdisc.polygon import no_measurement_ensemble, uniform_vertex_ensemble

from conftest import full_measurement_lp, random_polygon_ensemble, random_polytope_model


def single_state_ensemble():
    model = polygon_model(4)
    return Ensemble(model=model, states=model.state_gens[:1], priors=np.array([1.0]))


def test_primal_single_state_is_always_identified():
    sol = solve_lp(build_primal(single_state_ensemble()))
    assert sol.status == OPTIMAL
    assert_allclose(-sol.objective, 1.0, atol=1e-9)


def test_primal_triangle_reaches_perfect_discrimination():
    sol = solve_lp(build_primal(uniform_vertex_ensemble(3)))
    assert_allclose(-sol.objective, 1.0, atol=1e-9)


def test_primal_square_value_is_half():
    sol = solve_lp(build_primal(uniform_vertex_ensemble(4)))
    assert_allclose(-sol.objective, 0.5, atol=1e-9)


def test_dual_square_minimizer_is_axis_point():
    ensemble = uniform_vertex_ensemble(4)
    k = solve_discrimination(ensemble).symmetry_operator
    assert_allclose(k, [0.0, 0.0, 0.5], atol=1e-9)
    oracle = dual_vertex_enumeration(ensemble)
    assert_allclose(oracle.k, k, atol=1e-9)


def test_dual_triangle_minimizer_is_unit_axis_point():
    ensemble = uniform_vertex_ensemble(3)
    k = solve_discrimination(ensemble).symmetry_operator
    assert_allclose(k, [0.0, 0.0, 1.0], atol=1e-9)


def test_average_state_is_dual_feasible_with_value_one():
    # K = sum_x q_x w_x satisfies every constraint and has u[K] = 1.
    ensemble = uniform_vertex_ensemble(4)
    k = ensemble.weighted_states().sum(axis=0)
    gens = ensemble.model.effect_gens
    margins = gens @ (k[:, None] - ensemble.weighted_states().T)
    assert margins.min() >= -1e-12
    assert_allclose(float(ensemble.model.unit_effect @ k), 1.0, atol=1e-12)
    # The measurement LP's multipliers give the dual value -b.y = u[K].
    problem = build_primal(ensemble)
    assert -float(problem.eq_rhs @ solve_lp(problem).y) <= 1.0 + 1e-12


def test_triangle_solution_certificate():
    sol = solve_discrimination(uniform_vertex_ensemble(3))
    assert_allclose(sol.p_guess, 1.0, atol=1e-9)
    assert_allclose(sol.measurement.effects, sol.ensemble.model.effect_gens, atol=1e-9)
    for pair in sol.complementary:
        assert pair.r == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert_allclose(sol.complementary[0].d, [-np.sqrt(2.0) / 2.0, 0.0, 1.0], atol=1e-9)


def test_square_solution_certificate():
    sol = solve_discrimination(uniform_vertex_ensemble(4))
    assert_allclose(sol.p_guess, 0.5, atol=1e-9)
    states = sol.ensemble.states
    for x, pair in enumerate(sol.complementary):
        assert pair.r == pytest.approx(0.25, abs=1e-9)
        assert_allclose(pair.d, states[(x + 2) % 4], atol=1e-9)


def test_mixture_instance_at_half_prior():
    sol = solve_discrimination(no_measurement_ensemble(0.5))
    assert_allclose(sol.p_guess, 0.5, atol=1e-9)
    assert_allclose(sol.symmetry_operator, [0.0, 0.0, 0.5], atol=1e-9)
    oracle = dual_vertex_enumeration(no_measurement_ensemble(0.5))
    assert_allclose(oracle.p_guess, 0.5, atol=1e-9)


def test_invalid_ensemble_rejected_by_solver():
    model = polygon_model(4)
    bad = Ensemble(model=model, states=model.state_gens[:2], priors=np.array([0.5, 0.6]))
    with pytest.raises(InvalidInputError):
        solve_discrimination(bad)


@pytest.mark.parametrize(
    "effect_gens, issue",
    [
        pytest.param(lambda gens: gens[:1], "unit effect is not in the cone", id="infeasible-lp"),
        pytest.param(lambda gens: np.vstack([gens, -gens[:1]]), "negative on state generator", id="unbounded-lp"),
    ],
)
def test_invalid_model_rejected_by_solver(effect_gens, issue):
    # Both models make the measurement LP fail; that is bad input, not a solver fault.
    square = polygon_model(4)
    model = GptModel(
        dim=3, state_gens=square.state_gens, effect_gens=effect_gens(square.effect_gens), unit_effect=square.unit_effect
    )
    uniform = uniform_vertex_ensemble(4)
    with pytest.raises(InvalidInputError, match=issue):
        solve_discrimination(Ensemble(model=model, states=uniform.states, priors=uniform.priors))


def test_kkt_report_on_solver_output():
    sol = solve_discrimination(uniform_vertex_ensemble(4))
    report = verify_kkt(sol.ensemble, sol)
    assert report.passes(1e-9)
    assert report.stability_residuals.max() <= 1e-9
    assert report.orthogonality_residuals.max() <= 1e-9
    assert report.measurement_residual <= 1e-9
    assert report.gap <= 1e-9


def classical_simplex_ensemble():
    """Three vertices of the 9-d classical simplex and its barycentre: above the dual-cone bound."""
    eye = np.eye(9)
    simplex = GptModel(dim=9, state_gens=eye, effect_gens=eye, unit_effect=np.ones(9))
    return Ensemble(model=simplex, states=np.vstack([eye[:3], np.full(9, 1.0 / 9.0)]), priors=[0.3, 0.3, 0.2, 0.2])


def kkt_reference_ensembles():
    rng = np.random.default_rng(45)
    return (
        [uniform_vertex_ensemble(n) for n in range(3, 25)]
        + [random_polygon_ensemble(rng) for _ in range(20)]
        + [no_measurement_ensemble(0.5)]
        + [classical_simplex_ensemble()]
    )


def test_kkt_array_pass_matches_per_outcome_reference():
    # The residuals are computed for all outcomes at once; each must equal,
    # bit for bit, the per-outcome formula on the solver's output and on a
    # solution with K shifted off the optimum.  A null d claims only r d = 0.
    for ensemble in kkt_reference_ensembles():
        sol = solve_discrimination(ensemble)
        shifted = dataclasses.replace(sol, symmetry_operator=sol.symmetry_operator + 1e-3)
        for candidate in (sol, shifted):
            report = verify_kkt(ensemble, candidate)
            for x, pair in enumerate(candidate.complementary):
                q, w = float(ensemble.priors[x]), ensemble.states[x]
                margin = candidate.symmetry_operator - q * w
                if pair.degenerate:
                    stability = abs(pair.r)
                else:
                    stability = float(np.linalg.norm(margin - pair.r * pair.d))
                orthogonality = abs(float(candidate.measurement.effects[x] @ margin))
                assert report.stability_residuals[x] == stability
                assert report.orthogonality_residuals[x] == orthogonality


def test_kkt_accepts_two_outcome_alternative():
    # Measuring {f0, f2} and guessing the matching vertex pair is optimal:
    # f0 pairs to zero with both complementary states it can produce.
    ensemble = uniform_vertex_ensemble(4)
    sol = solve_discrimination(ensemble)
    f = ensemble.model.effect_gens
    zeros = np.zeros(3)
    alt = dataclasses.replace(
        sol, measurement=Measurement(np.array([f[0], zeros, f[2], zeros]))
    )
    report = verify_kkt(ensemble, alt)
    assert report.passes(1e-9)
    d0 = sol.complementary[0].d
    assert float(f[0] @ d0) == pytest.approx(0.0, abs=1e-9)


def test_kkt_flags_perturbed_symmetry_operator():
    sol = solve_discrimination(uniform_vertex_ensemble(4))
    tampered = dataclasses.replace(sol, symmetry_operator=np.array([0.0, 0.0, 0.6]))
    report = verify_kkt(sol.ensemble, tampered)
    assert not report.passes(1e-9)
    assert report.stability_residuals.max() == pytest.approx(0.1, abs=1e-9)


def _rescaled_pairs(sol):
    # (2 r, d / 2) keeps every product r_x d_x, so only the weights themselves can expose it.
    pairs = tuple(dataclasses.replace(pair, r=2.0 * pair.r, d=pair.d / 2.0) for pair in sol.complementary)
    return dataclasses.replace(sol, complementary=pairs)


def _swapped_states(sol):
    # Outcomes 0 and 1 of the square are both non-degenerate; each now states the other's d.
    first, second = sol.complementary[:2]
    pairs = (dataclasses.replace(first, d=second.d), dataclasses.replace(second, d=first.d)) + sol.complementary[2:]
    return dataclasses.replace(sol, complementary=pairs)


def _falsely_degenerate(sol):
    # Marking a pair degenerate claims r d = 0, which its kept r = 1/4 contradicts.
    pairs = (dataclasses.replace(sol.complementary[0], d=None),) + sol.complementary[1:]
    return dataclasses.replace(sol, complementary=pairs)


def _degenerate_weight_raised(sol):
    pairs = tuple(dataclasses.replace(pair, r=0.25) if pair.degenerate else pair for pair in sol.complementary)
    return dataclasses.replace(sol, complementary=pairs)


@pytest.mark.parametrize(
    "ensemble, tamper, field",
    [
        pytest.param(uniform_vertex_ensemble(4), lambda sol: dataclasses.replace(sol, p_guess=0.9),
                     "value_residual", id="p-guess"),
        pytest.param(uniform_vertex_ensemble(4), _rescaled_pairs, "weight_residuals", id="rescaled-pairs"),
        # At p = 0.5 the mixture's pair is degenerate (d is None): its r is checked against u[K] - q.
        pytest.param(no_measurement_ensemble(0.5), _degenerate_weight_raised, "weight_residuals", id="degenerate-r"),
        pytest.param(uniform_vertex_ensemble(4), _swapped_states, "stability_residuals", id="swapped-d"),
        pytest.param(uniform_vertex_ensemble(4), _falsely_degenerate, "stability_residuals", id="false-degenerate"),
    ],
)
def test_kkt_rejects_claims_not_read_off_k(ensemble, tamper, field):
    sol = solve_discrimination(ensemble)
    assert verify_kkt(ensemble, sol).passes(1e-9)
    report = verify_kkt(ensemble, tamper(sol))
    assert not report.passes(1e-9)
    assert np.max(getattr(report, field)) > 0.2


def test_kkt_value_and_weight_residuals_are_zero_on_solver_output():
    for ensemble in (uniform_vertex_ensemble(13), no_measurement_ensemble(0.5)):
        report = verify_kkt(ensemble, solve_discrimination(ensemble))
        assert report.value_residual == 0.0
        assert not report.weight_residuals.any()


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), 0.5])
def test_solver_rejects_tolerance_outside_range(tol):
    with pytest.raises(InvalidInputError, match="tol"):
        solve_discrimination(uniform_vertex_ensemble(4), tol=tol)


def test_no_measurement_value_examples():
    assert no_measurement_value(uniform_vertex_ensemble(4)) == pytest.approx(0.25)
    assert no_measurement_value(no_measurement_ensemble(0.5)) == pytest.approx(0.5)
    assert no_measurement_value(no_measurement_ensemble(0.1)) == pytest.approx(0.225)


def test_strong_duality_and_sandwich_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(20):
        ensemble = random_polygon_ensemble(rng)
        sol = solve_discrimination(ensemble)
        assert verify_kkt(ensemble, sol).gap <= 1e-8
        assert ensemble.priors.max() - 1e-9 <= sol.p_guess <= 1.0 + 1e-9
        for x, pair in enumerate(sol.complementary):
            if not pair.degenerate:
                recon = ensemble.priors[x] * ensemble.states[x] + pair.r * pair.d
                assert np.linalg.norm(sol.symmetry_operator - recon) <= 1e-9


def test_orthogonality_at_optimum_on_random_instances():
    rng = np.random.default_rng(43)
    for _ in range(10):
        ensemble = random_polygon_ensemble(rng)
        sol = solve_discrimination(ensemble)
        for x in range(ensemble.n_states):
            margin = sol.symmetry_operator - ensemble.priors[x] * ensemble.states[x]
            assert abs(float(sol.measurement.effects[x] @ margin)) <= 1e-9


def test_zero_prior_padding_keeps_value():
    ensemble = uniform_vertex_ensemble(4)
    sol = solve_discrimination(ensemble)
    model = ensemble.model
    padded = Ensemble(
        model=model,
        states=np.vstack([ensemble.states, model.state_gens.mean(axis=0)]),
        priors=np.append(ensemble.priors, 0.0),
    )
    padded_sol = solve_discrimination(padded)
    assert padded_sol.p_guess == pytest.approx(sol.p_guess, abs=1e-9)


def test_prior_permutation_keeps_value_and_weights():
    rng = np.random.default_rng(44)
    ensemble = random_polygon_ensemble(rng)
    sol = solve_discrimination(ensemble)
    perm = rng.permutation(ensemble.n_states)
    shuffled = Ensemble(
        model=ensemble.model, states=ensemble.states[perm], priors=ensemble.priors[perm]
    )
    shuffled_sol = solve_discrimination(shuffled)
    assert shuffled_sol.p_guess == pytest.approx(sol.p_guess, abs=1e-9)
    original_r = np.array([pair.r for pair in sol.complementary])
    shuffled_r = np.array([pair.r for pair in shuffled_sol.complementary])
    assert_allclose(shuffled_r, original_r[perm], atol=1e-9)


def test_repeated_states_kept_as_distinct_outcomes():
    model = polygon_model(4)
    ensemble = Ensemble(
        model=model,
        states=np.vstack([model.state_gens[0], model.state_gens[0]]),
        priors=np.array([0.5, 0.5]),
    )
    sol = solve_discrimination(ensemble)
    assert sol.measurement.effects.shape[0] == 2
    # Every generator earns the same on both outcomes; ties go to the lowest label.
    assert np.all(sol.measurement.effects[1] == 0.0)
    assert sol.p_guess == pytest.approx(0.5, abs=1e-9)


def test_restricted_effects_force_trivial_guessing():
    # With only the unit effect available every measurement is a coin flip,
    # so the best strategy is guessing the most likely state.
    model = polygon_model(4)
    restricted = type(model)(
        dim=3,
        state_gens=model.state_gens,
        effect_gens=np.array([[0.0, 0.0, 1.0]]),
        unit_effect=model.unit_effect,
    )
    ensemble = Ensemble(
        model=restricted, states=model.state_gens[:2], priors=np.array([0.7, 0.3])
    )
    sol = solve_discrimination(ensemble)
    assert sol.p_guess == pytest.approx(0.7, abs=1e-9)
    # The effect cone is not full-dimensional here, so its dual contains
    # lines: K - q_x w_x need not vanish at the degenerate index, whose
    # null d claims only r_x d_x = 0, and the certificate passes.
    report = verify_kkt(ensemble, sol)
    assert all(report.positivity_ok)
    assert all(report.effects_in_cone)
    assert report.orthogonality_residuals.max() <= 1e-9
    assert report.measurement_residual <= 1e-9
    assert report.gap <= 1e-9
    assert report.passes()


def test_measurement_reconstruction_matches_generators():
    ensemble = uniform_vertex_ensemble(3)
    problem = build_primal(ensemble)
    sol = solve_lp(problem)
    measurement = measurement_from_primal(ensemble, sol.x)
    total = measurement.effects.sum(axis=0)
    assert_allclose(total, ensemble.model.unit_effect, atol=1e-12)


def full_lp_ensembles():
    rng = np.random.default_rng(46)
    return (
        [uniform_vertex_ensemble(n) for n in range(3, 40)]
        + [random_polygon_ensemble(rng) for _ in range(100)]
        + [no_measurement_ensemble(round(0.05 * k, 2)) for k in range(21)]
        + [classical_simplex_ensemble()]
    )


def test_collapsed_lp_certifies_the_full_measurement_lp():
    # The LP has one column per effect generator; scattering each C_j to the
    # outcome that owns it must give an optimal point of the full LP over
    # every c[x, j], certified by the same multipliers y.
    for ensemble in full_lp_ensembles():
        dim, g = ensemble.model.dim, ensemble.model.effect_gens.shape[0]
        problem = build_primal(ensemble)
        assert problem.eq_matrix.shape == (dim, g)
        sol = solve_lp(problem)
        assert check_certificate(problem, sol)
        full = full_measurement_lp(ensemble)
        owner = (-full.objective).reshape(ensemble.n_states, g).argmax(axis=0)
        scattered = np.zeros((ensemble.n_states, g))
        scattered[owner, np.arange(g)] = sol.x
        lifted = LpSolution(OPTIMAL, x=scattered.reshape(-1), objective=sol.objective, y=sol.y)
        assert check_certificate(full, lifted), (ensemble.model.dim, ensemble.n_states)
        measurement = measurement_from_primal(ensemble, sol.x)
        assert_allclose(measurement.effects, scattered @ ensemble.model.effect_gens, atol=0.0)


def test_uniform_polygons_match_axis_operator_through_order_128():
    # Orders 13, 15, 18 and 24 broke the former separate dual LP; every
    # order must now solve with a passing certificate.
    for n in range(3, 129):
        ensemble = uniform_vertex_ensemble(n)
        sol = solve_discrimination(ensemble)
        axis_value = float(ensemble.model.unit_effect @ symmetric_axis_k(ensemble, (0.0, 0.0, 1.0)))
        assert sol.p_guess == pytest.approx(axis_value, abs=1e-9), n
        assert verify_kkt(ensemble, sol).passes(), n


def test_random_prior_sweep_up_to_order_16_passes_kkt_and_oracle():
    rng = np.random.default_rng(2024)
    oracle_checked = 0
    for _ in range(100):
        order = int(rng.integers(3, 17))
        model = polygon_model(order)
        n_states = int(rng.integers(2, 7))
        weights = rng.random((n_states, order))
        weights /= weights.sum(axis=1, keepdims=True)
        priors = rng.random(n_states)
        priors /= priors.sum()
        ensemble = Ensemble(model=model, states=weights @ model.state_gens, priors=priors)
        sol = solve_discrimination(ensemble)
        assert verify_kkt(ensemble, sol).passes(), (order, n_states)
        if n_states * order <= MAX_ORACLE_CONSTRAINTS:
            oracle = dual_vertex_enumeration(ensemble)
            assert sol.p_guess == pytest.approx(oracle.p_guess, abs=1e-9), (order, n_states)
            oracle_checked += 1
    assert oracle_checked >= 50


def test_solve_discrimination_makes_exactly_one_lp_solve(monkeypatch):
    import gptdisc.discrimination as discrimination

    calls = []

    def counting_solve_lp(*args, **kwargs):
        calls.append(args[0].n_rows)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(discrimination, "solve_lp", counting_solve_lp)
    ensemble = uniform_vertex_ensemble(12)
    sol = solve_discrimination(ensemble)
    assert calls == [ensemble.model.dim]
    assert sol.p_guess == pytest.approx(float(ensemble.model.unit_effect @ sol.symmetry_operator))


def _certified_pipeline(ensemble):
    model_report = validate_model(ensemble.model)
    assert model_report.valid and model_report.unrestricted_effects is True
    assert validate_ensemble(ensemble).valid
    assert verify_kkt(ensemble, solve_discrimination(ensemble)).passes()


def test_certified_pipeline_solves_one_lp(monkeypatch):
    import gptdisc.discrimination as discrimination
    import gptdisc.lp as lp

    calls = []

    def counting_solve_lp(*args, **kwargs):
        calls.append(args[0].n_rows)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counting_solve_lp)
    monkeypatch.setattr(discrimination, "solve_lp", counting_solve_lp)
    ensemble = uniform_vertex_ensemble(24)
    _certified_pipeline(ensemble)
    # Validation and membership read cached facets; the measurement LP (d rows) is the only solve.
    assert calls == [ensemble.model.dim]


def test_certified_pipeline_decides_membership_without_lp(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("cone membership called the LP solver")

    monkeypatch.setattr("gptdisc.cone.feasibility_gap", forbidden)
    _certified_pipeline(uniform_vertex_ensemble(24))


@pytest.mark.parametrize("seed", range(300))
def test_random_polytope_model_validates_and_solves(seed):
    # Dimensions 3..6; the pointedness LP that validation used to solve failed on seeds 67, 214 and 282.
    d = 3 + seed % 4
    model = random_polytope_model(np.random.default_rng(seed), d, d + 2 + seed % 7)
    k = model.state_gens.shape[0]
    _certified_pipeline(Ensemble(model=model, states=model.state_gens, priors=np.full(k, 1.0 / k)))


def test_membership_above_dual_cone_bound_uses_lp(monkeypatch):
    import gptdisc.cone as cone

    calls = []

    def counting_gap(*args, **kwargs):
        calls.append(1)
        return feasibility_gap(*args, **kwargs)

    monkeypatch.setattr(cone, "feasibility_gap", counting_gap)
    eye = np.eye(9)
    model = GptModel(dim=9, state_gens=eye, effect_gens=eye, unit_effect=np.ones(9))
    report = validate_model(model)
    assert report.valid and report.unrestricted_effects is None
    assert any("unrestricted-effects check skipped" in w for w in report.warnings)
    ensemble = Ensemble(model=model, states=np.vstack([eye[:3], np.full(9, 1.0 / 9.0)]), priors=[0.3, 0.3, 0.2, 0.2])
    assert validate_ensemble(ensemble).valid
    sol = solve_discrimination(ensemble)
    # Outcomes 0, 1, 2 guess their vertex; the other six guess the mixture: 0.8 + 6 * 0.2 / 9.
    assert sol.p_guess == pytest.approx(14.0 / 15.0, abs=1e-9)
    assert verify_kkt(ensemble, sol).passes()
    assert calls
