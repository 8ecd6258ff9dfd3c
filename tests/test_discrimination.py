import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gptdisc import (
    Ensemble,
    GptModel,
    InternalInconsistencyError,
    InvalidInputError,
    congruence_check,
    member_of,
    no_measurement_value,
    polygon_model,
    solve_discrimination,
    solve_lp,
    symmetric_axis_k,
    validate_ensemble,
    validate_model,
    verify_kkt,
)
from gptdisc.cli import main
from gptdisc.cone import inside
from gptdisc.discrimination import _build_primal, _measurement_from_primal, _reward_matrix, _row_dots, row_norms
from gptdisc.lp import OPTIMAL, LpSolution, certificate_residual
from gptdisc.oracle import MAX_ORACLE_CONSTRAINTS, dual_vertex_enumeration
from gptdisc.polygon import no_measurement_ensemble, uniform_vertex_ensemble
from gptdisc.serialize import dumps, ensemble_to_dict

from conftest import (
    boxworld_model,
    check_certificate,
    cone_ge,
    counted_dual_cones,
    cross_polytope_model,
    effect_cone,
    effects_of,
    full_measurement_lp,
    hypercube_model,
    measurement_lp,
    random_polygon_ensemble,
    random_polytope_model,
)


def single_state_ensemble():
    model = polygon_model(4)
    return Ensemble(model=model, states=model.state_gens[:1], priors=np.array([1.0]))


def test_primal_single_state_is_always_identified():
    sol = solve_lp(measurement_lp(single_state_ensemble()))
    assert sol.status == OPTIMAL
    assert_allclose(-sol.objective, 1.0, atol=1e-9)


def test_primal_triangle_reaches_perfect_discrimination():
    sol = solve_lp(measurement_lp(uniform_vertex_ensemble(3)))
    assert_allclose(-sol.objective, 1.0, atol=1e-9)


def test_primal_square_value_is_half():
    sol = solve_lp(measurement_lp(uniform_vertex_ensemble(4)))
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
    k = ensemble.weighted_states.sum(axis=0)
    gens = ensemble.model.effect_gens
    margins = gens @ (k[:, None] - ensemble.weighted_states.T)
    assert margins.min() >= -1e-12
    assert_allclose(float(ensemble.model.unit_effect @ k), 1.0, atol=1e-12)
    # The measurement LP's multipliers give the dual value -b.y = u[K].
    problem = measurement_lp(ensemble)
    assert -float(problem.eq_rhs @ solve_lp(problem).y) <= 1.0 + 1e-12


def test_triangle_solution_certificate():
    sol = solve_discrimination(uniform_vertex_ensemble(3))
    assert_allclose(sol.p_guess, 1.0, atol=1e-9)
    assert_allclose(effects_of(sol), sol.ensemble.model.effect_gens, atol=1e-9)
    assert sol.stated.all()
    assert_allclose(sol.weights, 2.0 / 3.0, atol=1e-9)
    assert_allclose(sol.stated_d[0], [-np.sqrt(2.0) / 2.0, 0.0, 1.0], atol=1e-9)


def test_square_solution_certificate():
    sol = solve_discrimination(uniform_vertex_ensemble(4))
    assert_allclose(sol.p_guess, 0.5, atol=1e-9)
    assert sol.stated.all()
    assert_allclose(sol.weights, 0.25, atol=1e-9)
    assert_allclose(sol.stated_d, np.roll(sol.ensemble.states, -2, axis=0), atol=1e-9)  # d_x = w_{x+2}


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
    # Both models would make the measurement LP fail; the solver validates the model before it builds the LP.
    square = polygon_model(4)
    model = GptModel(
        dim=3, state_gens=square.state_gens, effect_gens=effect_gens(square.effect_gens), unit_effect=square.unit_effect
    )
    uniform = uniform_vertex_ensemble(4)
    with pytest.raises(InvalidInputError, match=issue):
        solve_discrimination(Ensemble(model=model, states=uniform.states, priors=uniform.priors))


def _square_with_effect_zero_scaled(factor):
    square = polygon_model(4)
    effects = square.effect_gens.copy()
    effects[0] *= factor
    return GptModel(dim=3, state_gens=square.state_gens, effect_gens=effects, unit_effect=square.unit_effect)


def test_a_model_whose_lp_solves_is_still_validated_by_the_solver():
    # The measurement LP of this model is optimal, at p_guess 0.5 with a passing KKT report.
    uniform = uniform_vertex_ensemble(4)
    ensemble = Ensemble(model=_square_with_effect_zero_scaled(1.5), states=uniform.states, priors=uniform.priors)
    with pytest.raises(InvalidInputError, match=r"^effect generator 0 exceeds 1 on state generator 0, value 1\.5$"):
        solve_discrimination(ensemble)


def test_the_model_is_validated_before_the_ensemble():
    model = _square_with_effect_zero_scaled(1.5)
    bad = Ensemble(model=model, states=model.state_gens[:2], priors=np.array([0.5, 0.6]))
    assert not validate_ensemble(bad).valid
    with pytest.raises(InvalidInputError, match=r"^effect generator 0 exceeds 1"):
        solve_discrimination(bad)


def test_an_unsolved_lp_of_validated_inputs_is_a_solver_fault(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("gptdisc.discrimination.solve_lp", lambda problem, **kwargs: LpSolution(status="unbounded"))
    ensemble = uniform_vertex_ensemble(5)
    assert validate_model(ensemble.model).valid and validate_ensemble(ensemble).valid
    with pytest.raises(InternalInconsistencyError, match="status unbounded"):
        solve_discrimination(ensemble)
    path = tmp_path / "pentagon.json"
    path.write_text(dumps(ensemble_to_dict(ensemble)))
    assert main(["solve", str(path)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == "numerical failure: measurement LP must be solvable (status unbounded)"


def test_kkt_report_on_solver_output():
    sol = solve_discrimination(uniform_vertex_ensemble(4))
    report = verify_kkt(sol.ensemble, sol)
    assert report.passes(1e-9)
    assert report.stability_residuals.max() <= 1e-9
    assert report.orthogonality_residuals.max() <= 1e-9
    assert report.measurement_residual <= 1e-9
    assert report.gap <= 1e-9


def classical_simplex_ensemble():
    """Three vertices of the 9-d classical simplex and its barycentre."""
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
            stated_d = iter(candidate.stated_d)
            for x, (r, stated) in enumerate(zip(candidate.weights, candidate.stated)):
                q, w = float(ensemble.priors[x]), ensemble.states[x]
                margin = candidate.symmetry_operator - q * w
                if stated:
                    stability = float(np.linalg.norm(margin - r * next(stated_d)))
                else:
                    stability = abs(r)
                orthogonality = abs(float(effects_of(candidate)[x] @ margin))
                assert report.stability_residuals[x] == stability
                assert report.orthogonality_residuals[x] == orthogonality


def test_kkt_accepts_two_outcome_alternative():
    # Measuring {f0, f2} and guessing the matching vertex pair is optimal:
    # f0 pairs to zero with both complementary states it can produce.
    ensemble = uniform_vertex_ensemble(4)
    sol = solve_discrimination(ensemble)
    f = ensemble.model.effect_gens
    alt = dataclasses.replace(sol, coefficients=np.diag([1.0, 0.0, 1.0, 0.0]))  # effects f0, 0, f2, 0
    report = verify_kkt(ensemble, alt)
    assert report.passes(1e-9)
    d0 = sol.stated_d[0]
    assert float(f[0] @ d0) == pytest.approx(0.0, abs=1e-9)


def test_kkt_flags_perturbed_symmetry_operator():
    sol = solve_discrimination(uniform_vertex_ensemble(4))
    tampered = dataclasses.replace(sol, symmetry_operator=np.array([0.0, 0.0, 0.6]))
    report = verify_kkt(sol.ensemble, tampered)
    assert not report.passes(1e-9)
    # r_x = u[K] - 1/4 = 0.35 and d_x = w_{x+2}, so s_x = K - w_x / 4 - 0.35 w_{x+2} has height 0 and
    # in-plane length 0.1 times the square's radius 2^(1/4): about 0.1189.
    assert report.stability_residuals.max() == pytest.approx(0.1 * 2.0**0.25, abs=1e-9)


def _rescaled_pairs(sol):
    # r_x is read off K, so halving every d leaves |r_x d_x| / 2 of v_x unexplained: 2/3 * sqrt(3/2) / 2 on the triangle.
    return dataclasses.replace(sol, stated_d=sol.stated_d / 2.0)


def _swapped_states(sol):
    # Outcomes 0 and 1 of the square are both non-degenerate; each now states the other's d.
    return dataclasses.replace(sol, stated_d=sol.stated_d[[1, 0, 2, 3]])


def _falsely_degenerate(sol):
    # Marking a pair degenerate claims r d = 0, which its kept r = 1/4 contradicts.
    return dataclasses.replace(sol, stated=np.arange(4) > 0, stated_d=sol.stated_d[1:])



@pytest.mark.parametrize(
    "ensemble, tamper, field",
    [
        pytest.param(uniform_vertex_ensemble(4), lambda sol: dataclasses.replace(sol, p_guess=0.9),
                     "value_residual", id="p-guess"),
        pytest.param(uniform_vertex_ensemble(3), _rescaled_pairs, "stability_residuals", id="rescaled-pairs"),
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


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("symmetry_operator", np.array([0.0, np.nan, 0.5]), id="nan-K"),
        pytest.param("symmetry_operator", np.array([np.inf, 0.0, 0.5]), id="inf-K"),
        pytest.param("p_guess", float("nan"), id="nan-p-guess"),
    ],
)
def test_kkt_rejects_nonfinite_symmetry_operator_and_p_guess(field, value):
    sol = solve_discrimination(uniform_vertex_ensemble(4))
    with pytest.raises(InvalidInputError, match="non-finite"):
        verify_kkt(sol.ensemble, dataclasses.replace(sol, **{field: value}))


def _cone_check_models():
    yield from (hypercube_model(3), hypercube_model(4), cross_polytope_model(3), cross_polytope_model(4), boxworld_model())
    for seed in range(20):
        d = 3 + seed % 4
        yield random_polytope_model(np.random.default_rng(seed), d, d + 2 + seed % 7)


def test_batched_kkt_cone_checks_match_per_row_checks():
    rng = np.random.default_rng(0)
    mixed = 0
    for model in _cone_check_models():
        assert validate_model(model).valid
        effects = effect_cone(model)
        k = model.state_gens.shape[0]
        ensemble = Ensemble(model=model, states=model.state_gens, priors=rng.dirichlet(np.ones(k)))
        sol = solve_discrimination(ensemble)
        # Shrinking K and moving half of the effects along -u (whose coefficients are C summed over x)
        # makes some entries False.
        coefficients = sol.coefficients
        tampered = dataclasses.replace(
            sol,
            symmetry_operator=sol.symmetry_operator * rng.uniform(0.5, 1.0),
            coefficients=coefficients - 0.3 * (np.arange(k) % 2)[:, None] * coefficients.sum(axis=0),
        )
        for candidate in (sol, tampered):
            report = verify_kkt(ensemble, candidate)
            margins = [(candidate.symmetry_operator, q * w) for q, w in zip(ensemble.priors, ensemble.states)]
            positive = report.positivity_residuals <= 1e-9
            assert positive.tolist() == [cone_ge(a, b, effects) for a, b in margins]
            rows = candidate.coefficients
            accepted = report.effect_residuals <= 1e-9
            assert accepted.tolist() == [all(c >= -1e-9 for c in row) for row in rows]
            # Nonnegative coefficients are a membership certificate: every accepted effect is in the cone.
            for ok, e in zip(accepted, effects_of(candidate)):
                assert not ok or member_of(effects, e)
            mixed += len(set(positive.tolist())) == 2 and len(set(accepted.tolist())) == 2
    assert mixed >= 20


def _restricted_square_ensemble() -> Ensemble:
    """The square's states with twelve effects ``(1 + (cos t, sin t) . x / 2) / 2``: a restricted effect cone."""
    square = polygon_model(4)
    t = 2 * np.pi * np.arange(12) / 12
    effects = np.column_stack([np.cos(t) / 2, np.sin(t) / 2, np.ones(12)]) / 2
    model = GptModel(dim=3, state_gens=square.state_gens, effect_gens=effects, unit_effect=square.unit_effect)
    return Ensemble(model=model, states=square.state_gens, priors=np.array([0.1, 0.2, 0.3, 0.4]))


def test_one_tolerance_decides_the_kkt_verdict():
    # Moving 1e-6 of generator 0's coefficient from outcome 3 to outcome 0 keeps every effect sum.  When
    # verify_kkt decided effect membership at a tol of its own, the report it built at 1e-3 passed at 1e-9.
    ensemble = uniform_vertex_ensemble(4)
    sol = solve_discrimination(ensemble)
    coefficients = sol.coefficients.copy()
    coefficients[0, 0] += 1e-6
    coefficients[3, 0] -= 1e-6
    assert coefficients[3, 0] == -1e-6
    report = verify_kkt(ensemble, dataclasses.replace(sol, coefficients=coefficients))
    assert report.effect_residuals[3] == 1e-6
    assert report.worst_residuals()["effect_residuals"] == 1e-6
    assert not report.passes(1e-9)
    assert report.passes(1e-3)


def test_residuals_decide_as_the_boolean_checks_did():
    # positivity_residuals <= tol and effect_residuals <= tol must agree, entry by entry, with the checks that
    # verify_kkt once made at its own tol: inside(effect generators, K - q_x w_x, tol) and C.min(axis=1) >= -tol.
    cube = hypercube_model(3)
    ensembles = [uniform_vertex_ensemble(n) for n in range(3, 25)] + [
        _restricted_square_ensemble(),
        Ensemble(model=cube, states=cube.state_gens, priors=np.full(8, 0.125)),
    ]
    seen = {}
    for ensemble in ensembles:
        sol = solve_discrimination(ensemble)
        n, g = sol.coefficients.shape
        # Shifts of 1e-10, 1e-6 and 1e-1 straddle both tolerances; one outcome in four keeps its row.
        sizes = np.array([0.0, 1e-10, 1e-6, 1e-1])[np.arange(n) % 4]
        candidates = [sol] + [
            dataclasses.replace(
                sol,
                symmetry_operator=sol.symmetry_operator * (1.0 - shrink),
                coefficients=sol.coefficients - sizes[:, None] * (np.arange(g) == (n + 1) % g),
            )
            for shrink in (1e-10, 1e-6, 1e-2)
        ]
        for candidate in candidates:
            report = verify_kkt(ensemble, candidate)
            margins = candidate.symmetry_operator - ensemble.weighted_states
            for tol in (1e-9, 1e-3):
                positive = inside(ensemble.model.effect_gens, margins, tol)
                in_cone = candidate.coefficients.min(axis=1, initial=0.0) >= -tol
                assert (report.positivity_residuals <= tol).tolist() == positive.tolist()
                assert (report.effect_residuals <= tol).tolist() == in_cone.tolist()
                seen.setdefault(("positivity", tol), set()).update(positive.tolist())
                seen.setdefault(("effect", tol), set()).update(in_cone.tolist())
    assert all(verdicts == {True, False} for verdicts in seen.values()) and len(seen) == 4


@pytest.mark.parametrize(
    "field, value",
    [("gap", np.nan), ("stability_residuals", np.array([0.0, np.nan, 0.0, 0.0]))],
    ids=["scalar", "array"],
)
def test_a_nan_residual_fails(field, value):
    ensemble = uniform_vertex_ensemble(4)
    report = dataclasses.replace(verify_kkt(ensemble, solve_discrimination(ensemble)), **{field: value})
    assert np.isnan(report.worst_residuals()[field])
    assert not report.passes(1e-3)


WORST_RESIDUAL_CASES = {
    "array": np.array([1e-3, 2.0]),
    "empty": np.zeros(0),
    "scalar": 0.25,
    "negative-zero": -0.0,
    "negative-zeros": np.array([-0.0, -1.0]),
    "nan": np.array([np.nan, 1.0]),
}


@pytest.mark.parametrize("name", WORST_RESIDUAL_CASES)
def test_worst_residuals_match_np_max_bit_for_bit(name):
    value = WORST_RESIDUAL_CASES[name]
    ensemble = uniform_vertex_ensemble(4)
    report = dataclasses.replace(verify_kkt(ensemble, solve_discrimination(ensemble)), stability_residuals=value, gap=value)
    expected = np.array(float(np.max(value, initial=0.0))).tobytes()
    worst = report.worst_residuals()
    assert np.array(worst["stability_residuals"]).tobytes() == np.array(worst["gap"]).tobytes() == expected


def test_kkt_value_and_weight_residuals_are_zero_on_solver_output():
    for ensemble in (uniform_vertex_ensemble(13), no_measurement_ensemble(0.5)):
        sol = solve_discrimination(ensemble)
        assert verify_kkt(ensemble, sol).value_residual == 0.0
        # The weights read off K are the ones the solver divided by, bit for bit.
        assert sol.weights.tobytes() == (sol.p_guess - ensemble.priors).tobytes()


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
        stated = sol.stated
        recon = ensemble.weighted_states[stated] + sol.weights[stated, None] * sol.stated_d
        assert np.linalg.norm(sol.symmetry_operator - recon, axis=1).max(initial=0.0) <= 1e-9


def test_orthogonality_at_optimum_on_random_instances():
    rng = np.random.default_rng(43)
    for _ in range(10):
        ensemble = random_polygon_ensemble(rng)
        sol = solve_discrimination(ensemble)
        for x in range(ensemble.n_states):
            margin = sol.symmetry_operator - ensemble.priors[x] * ensemble.states[x]
            assert abs(float(effects_of(sol)[x] @ margin)) <= 1e-9


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
    assert_allclose(shuffled_sol.weights, sol.weights[perm], atol=1e-9)


def test_repeated_states_kept_as_distinct_outcomes():
    model = polygon_model(4)
    ensemble = Ensemble(
        model=model,
        states=np.vstack([model.state_gens[0], model.state_gens[0]]),
        priors=np.array([0.5, 0.5]),
    )
    sol = solve_discrimination(ensemble)
    assert sol.coefficients.shape == (2, 4)
    # Every generator earns the same on both outcomes; ties go to the lowest label.
    assert np.all(sol.coefficients[1] == 0.0)
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
    assert report.positivity_residuals.max() <= 1e-9
    assert report.effect_residuals.max() <= 1e-9
    assert report.orthogonality_residuals.max() <= 1e-9
    assert report.measurement_residual <= 1e-9
    assert report.gap <= 1e-9
    assert report.passes()


def test_measurement_reconstruction_matches_generators():
    ensemble = uniform_vertex_ensemble(3)
    problem = measurement_lp(ensemble)
    sol = solve_lp(problem)
    total = (_measurement_from_primal(_reward_matrix(ensemble), sol.x) @ ensemble.model.effect_gens).sum(axis=0)
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
        problem = measurement_lp(ensemble)
        assert problem.eq_matrix.shape == (dim, g)
        sol = solve_lp(problem)
        assert check_certificate(problem, sol)
        full = full_measurement_lp(ensemble)
        owner = (-full.objective).reshape(ensemble.n_states, g).argmax(axis=0)
        scattered = np.zeros((ensemble.n_states, g))
        scattered[owner, np.arange(g)] = np.maximum(sol.x, 0.0)  # the solver clips rounding below zero
        lifted = LpSolution(OPTIMAL, x=scattered.reshape(-1), objective=sol.objective, y=sol.y)
        assert check_certificate(full, lifted), (ensemble.model.dim, ensemble.n_states)
        coefficients = _measurement_from_primal(_reward_matrix(ensemble), sol.x)
        assert_allclose(coefficients, scattered, atol=0.0)
        assert not np.signbit(coefficients).any()  # no negative entry and no -0.0


def _dense_measurement(rewards, x):
    """The N x g owner mask that measurement_from_primal replaced, kept as its reference."""
    owners = rewards.argmax(axis=0)
    return (owners == np.arange(len(rewards))[:, None]) * (np.maximum(x, 0.0) + 0.0)


def _measurement_inputs():
    rng = np.random.default_rng(46)
    ensembles = [uniform_vertex_ensemble(n) for n in (*range(3, 25), 128)]
    ensembles += [random_polygon_ensemble(rng) for _ in range(20)] + [no_measurement_ensemble(0.5)]
    for ensemble in ensembles:
        rewards = _reward_matrix(ensemble)
        yield rewards, solve_lp(_build_primal(ensemble.model, rewards)).x
    # Tied owners, a basic value a rounding error below zero, -0.0 and an exact zero.
    yield np.array([[1.0, 2.0, 0.5, 3.0, 1.0], [1.0, 2.0, 0.7, 3.0, 0.0]]), np.array([0.5, -1e-17, -0.0, 0.0, 0.25])


def test_measurement_from_the_basic_columns_matches_the_dense_owner_mask():
    # Placing only the positive C_j must give the dense expression's bytes: the lowest-x tie rule,
    # clipping below zero and no -0.0.  The square's primal has a basic C_j a rounding error below zero.
    inputs = list(_measurement_inputs())
    assert any((x < 0.0).any() for _, x in inputs[:-1])
    for rewards, x in inputs:
        coefficients = _measurement_from_primal(rewards, x)
        expected = _dense_measurement(rewards, x)
        assert coefficients.shape == expected.shape and coefficients.tobytes() == expected.tobytes()


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

    monkeypatch.setattr("gptdisc.lp.solve_lp", forbidden)  # feasibility_gap's solver; the measurement LP is unpatched
    _certified_pipeline(uniform_vertex_ensemble(24))


def _restricted_pipeline(ensemble):
    """Validation finds restricted effects and no issue; the solution's certificate passes. Returns ``p_guess``."""
    model_report = validate_model(ensemble.model)
    assert model_report.issues == [] and model_report.unrestricted_effects is False
    assert validate_ensemble(ensemble).valid
    sol = solve_discrimination(ensemble)
    assert verify_kkt(ensemble, sol).passes()
    return sol.p_guess


def test_certified_pipeline_dualizes_only_the_state_cone(monkeypatch):
    calls = counted_dual_cones(monkeypatch)
    for order in range(3, 33):
        calls.clear()
        _certified_pipeline(uniform_vertex_ensemble(order))
        assert calls == []  # the effect generators certify the state facets
    for order in range(4, 33):  # every other effect: a restricted effect cone, decided without its dual
        model = polygon_model(order)
        model = dataclasses.replace(model, effect_gens=model.effect_gens[::2])
        calls.clear()
        _restricted_pipeline(Ensemble(model=model, states=model.state_gens, priors=np.full(order, 1.0 / order)))
        assert calls == [order]


@pytest.mark.parametrize("order", [4, 5])
def test_zero_and_rescaled_effect_generators_change_no_answer(order):
    # A zero row and a copy of generator 1 at 0.4 times its scale leave the effect cone as it is.
    plain = polygon_model(order)
    padded = dataclasses.replace(plain, effect_gens=np.vstack([plain.effect_gens, np.zeros(3), 0.4 * plain.effect_gens[1]]))
    answers = []
    for model in (plain, padded):
        report = validate_model(model)
        ensemble = Ensemble(model=model, states=model.state_gens, priors=np.full(order, 1.0 / order))
        sol = solve_discrimination(ensemble)
        answers.append(((report.issues, report.warnings, report.unrestricted_effects), sol.p_guess))
        assert verify_kkt(ensemble, sol).passes()
    assert answers[0][0] == answers[1][0] == ([], [], True)
    assert answers[0][1] == pytest.approx(answers[1][1], abs=1e-12)


def test_eight_dimensional_polytope_never_dualizes_its_effect_generators(monkeypatch):
    model = random_polytope_model(np.random.default_rng(1), 8, 20)
    assert model.effect_gens.shape[0] == 504
    calls = counted_dual_cones(monkeypatch)
    _certified_pipeline(Ensemble(model=model, states=model.state_gens, priors=np.full(20, 1.0 / 20.0)))
    assert calls == []  # the effect generators certify the state facets
    # Without effect generator 0 these effect cones are restricted; their duals took seconds or passed
    # MAX_DUAL_ENTRIES, but only the state cone is dualized, and the optimum stays the unrestricted one.
    for d, k in ((8, 20), (8, 24), (9, 18)):
        full = random_polytope_model(np.random.default_rng(1), d, k)
        priors = np.full(k, 1.0 / k)
        expected = solve_discrimination(Ensemble(model=full, states=full.state_gens, priors=priors)).p_guess
        restricted = dataclasses.replace(full, effect_gens=full.effect_gens[1:])
        calls.clear()
        assert _restricted_pipeline(Ensemble(model=restricted, states=full.state_gens, priors=priors)) == pytest.approx(
            expected, abs=1e-9
        )
        assert calls == [k]
    assert expected == pytest.approx(0.28434712957834846, abs=1e-9)  # (9, 18)


def test_kkt_reads_effect_membership_off_the_coefficients():
    # On the square f0 + f2 = f1 + f3 = u, so adding t (f0 - f1 + f2 - f3) to one outcome keeps every effect.
    ensemble = uniform_vertex_ensemble(4)
    sol = solve_discrimination(ensemble)
    assert verify_kkt(ensemble, sol).effect_residuals.max() == 0.0
    shift = np.zeros((4, 4))
    shift[1] = 2.0 * np.array([1.0, -1.0, 1.0, -1.0])
    tampered = dataclasses.replace(sol, coefficients=sol.coefficients + shift)
    assert_allclose(effects_of(tampered), effects_of(sol), atol=1e-15)
    assert tampered.coefficients.min() < 0.0
    report = verify_kkt(ensemble, tampered)
    assert (report.effect_residuals <= 1e-9).tolist() == [True, False, True, True]
    assert report.effect_residuals[1] == 2.0
    assert report.measurement_residual <= 1e-9 and report.gap <= 1e-9 and not report.passes()


def test_kkt_rejects_coefficients_of_the_wrong_shape():
    ensemble = uniform_vertex_ensemble(4)  # d = 3, g = 4
    sol = solve_discrimination(ensemble)
    for coefficients in (effects_of(sol), sol.coefficients[:3]):
        with pytest.raises(InvalidInputError, match="solution coefficients has shape"):
            verify_kkt(ensemble, dataclasses.replace(sol, coefficients=coefficients))


@pytest.mark.parametrize(
    "other",
    [
        uniform_vertex_ensemble(3),
        uniform_vertex_ensemble(5),
        # Four states and four effect generators, as on the square, but in dimension 4.
        Ensemble(
            model=GptModel(dim=4, state_gens=np.eye(4), effect_gens=np.eye(4), unit_effect=np.ones(4)),
            states=np.eye(4),
            priors=np.full(4, 0.25),
        ),
    ],
    ids=["triangle", "pentagon", "simplex-dim-4"],
)
def test_kkt_rejects_a_solution_of_another_ensemble(other):
    sol = solve_discrimination(uniform_vertex_ensemble(4))
    with pytest.raises(InvalidInputError, match="shapes do not match"):
        verify_kkt(other, sol)


@pytest.mark.parametrize(
    "tamper, name",
    [
        pytest.param(lambda sol: {"p_guess": float("nan")}, "p_guess", id="nan-p-guess"),
        pytest.param(lambda sol: {"symmetry_operator": np.array([0.0, np.nan, 0.5])}, "solution K", id="nan-K"),
        pytest.param(
            lambda sol: {"stated_d": np.vstack([np.full(3, np.nan), sol.stated_d[1:]])},
            "complementary states d",
            id="nan-d",
        ),
    ],
)
def test_solution_checks_its_numbers_when_built(tamper, name):
    sol = solve_discrimination(uniform_vertex_ensemble(4))
    with pytest.raises(InvalidInputError, match=name):
        dataclasses.replace(sol, **tamper(sol))


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("family", [hypercube_model, cross_polytope_model])
def test_reference_family_solves_to_the_axis_value_with_one_dual(family, n, monkeypatch):
    calls = counted_dual_cones(monkeypatch)
    model = family(n)
    k = model.state_gens.shape[0]
    ensemble = Ensemble(model=model, states=model.state_gens, priors=np.full(k, 1.0 / k))
    _certified_pipeline(ensemble)
    # An n-cube's facets are (n - 1)-cubes, simplicial only for the square: only larger cubes dualize their states.
    assert calls == ([k] if family is hypercube_model and n >= 3 else [])
    u = model.unit_effect
    p_guess = solve_discrimination(ensemble).p_guess
    assert p_guess == pytest.approx(float(u @ symmetric_axis_k(ensemble, u)), abs=1e-9)
    assert p_guess == pytest.approx(2.0 / k, abs=1e-9)


def test_boxworld_validates_unrestricted_with_one_dual(monkeypatch):
    calls = counted_dual_cones(monkeypatch)
    report = validate_model(boxworld_model())
    assert report.valid and report.unrestricted_effects is True
    assert report.warnings == []
    assert calls == [24]


@pytest.mark.parametrize(
    "boxes, expected",
    [(slice(None), 1.0 / 6.0), (slice(16, None), 0.25), (slice(16), 0.25)],
    ids=["all-24", "pr-8", "local-16"],
)
def test_boxworld_uniform_ensembles_solve_to_the_axis_value(boxes, expected):
    model = boxworld_model()
    states = model.state_gens[boxes]
    k = len(states)
    ensemble = Ensemble(model=model, states=states, priors=np.full(k, 1.0 / k))
    _certified_pipeline(ensemble)
    p_guess = solve_discrimination(ensemble).p_guess
    assert p_guess == pytest.approx(expected, abs=1e-9)
    axis_k = symmetric_axis_k(ensemble, states.mean(axis=0))
    assert p_guess == pytest.approx(float(model.unit_effect @ axis_k), abs=1e-9)


@pytest.mark.parametrize(
    "tamper",
    [
        pytest.param(lambda d, x: d[:2] if x == 1 else d, id="one-wrong-length"),
        pytest.param(lambda d, x: np.append(d, 0.0), id="all-wrong-length"),
        pytest.param(lambda d, x: np.where(np.arange(len(d)) == 0, np.nan, d) if x == 2 else d, id="nan"),
    ],
)
@pytest.mark.parametrize("check", [verify_kkt, lambda ensemble, sol: congruence_check(sol)], ids=["kkt", "congruence"])
def test_malformed_stated_complementary_state_is_invalid_input(tamper, check):
    ensemble = uniform_vertex_ensemble(4)
    sol = solve_discrimination(ensemble)
    stated_d = [tamper(d, x) for x, d in enumerate(sol.stated_d)]  # every pair of the square is stated
    with pytest.raises(InvalidInputError, match="complementary states d"):
        check(ensemble, dataclasses.replace(sol, stated_d=stated_d))


@pytest.mark.parametrize(
    "tamper",
    [
        pytest.param(lambda sol: {"stated": sol.stated[:3], "stated_d": sol.stated_d[:3]}, id="three-pairs"),
        pytest.param(lambda sol: {"stated": np.append(sol.stated, True),
                                  "stated_d": np.vstack([sol.stated_d, sol.stated_d[:1]])}, id="five-pairs"),
        pytest.param(lambda sol: {"stated": sol.stated[:3]}, id="stated-three"),
        pytest.param(lambda sol: {"stated": [1, 0, 1, 1]}, id="stated-not-boolean"),
        pytest.param(lambda sol: {"stated": [[True], True, True, True]}, id="stated-ragged"),
        # Four ones match the four rows of d, but as integers they would index the pairs, not mask them.
        pytest.param(lambda sol: {"stated": [1, 1, 1, 1]}, id="stated-ones"),
        pytest.param(lambda sol: {"stated_d": np.vstack([sol.stated_d, sol.stated_d[:1]])}, id="stated-d-extra-row"),
    ],
)
@pytest.mark.parametrize("check", [verify_kkt, lambda ensemble, sol: congruence_check(sol)], ids=["kkt", "congruence"])
def test_malformed_complementary_pairs_are_invalid_input(tamper, check):
    ensemble = uniform_vertex_ensemble(4)
    sol = solve_discrimination(ensemble)
    with pytest.raises(InvalidInputError, match="complementary"):
        check(ensemble, dataclasses.replace(sol, **tamper(sol)))


@pytest.mark.parametrize("seed", range(300))
def test_random_polytope_model_validates_and_solves(seed):
    # Dimensions 3..6; the pointedness LP that validation used to solve failed on seeds 67, 214 and 282.
    d = 3 + seed % 4
    model = random_polytope_model(np.random.default_rng(seed), d, d + 2 + seed % 7)
    k = model.state_gens.shape[0]
    _certified_pipeline(Ensemble(model=model, states=model.state_gens, priors=np.full(k, 1.0 / k)))


def test_nine_dimensional_simplex_validates_with_one_dual(monkeypatch):
    calls = counted_dual_cones(monkeypatch)
    ensemble = classical_simplex_ensemble()
    report = validate_model(ensemble.model)
    assert report.valid and report.unrestricted_effects is True
    assert report.warnings == []
    assert validate_ensemble(ensemble).valid
    sol = solve_discrimination(ensemble)
    # Outcomes 0, 1, 2 guess their vertex; the other six guess the mixture: 0.8 + 6 * 0.2 / 9.
    assert sol.p_guess == pytest.approx(14.0 / 15.0, abs=1e-9)
    assert verify_kkt(ensemble, sol).passes()
    assert calls == []  # each facet is tight on eight independent vertices, so the effect generators certify it


def _solution_bits(sol):
    """Every number a solution states, as bytes, so that ``-0.0`` and ``0.0`` differ."""
    arrays = (sol.p_guess, sol.coefficients, sol.symmetry_operator, sol.stated, sol.stated_d)
    return [np.asarray(a).tobytes() for a in arrays]


def _uniform_ensemble(model: GptModel) -> Ensemble:
    k = len(model.state_gens)
    return Ensemble(model=model, states=model.state_gens, priors=np.full(k, 1.0 / k))


WARM_AND_COLD_CASES = {
    **{f"uniform{n}": lambda n=n: uniform_vertex_ensemble(n) for n in range(3, 65)},
    **{f"mixed{seed}": lambda seed=seed: random_polygon_ensemble(np.random.default_rng(seed)) for seed in range(8)},
    "restricted-square": _restricted_square_ensemble,
    "cube3": lambda: _uniform_ensemble(hypercube_model(3)),
    "boxworld": lambda: _uniform_ensemble(boxworld_model()),
    "no-measurement-0.7": lambda: no_measurement_ensemble(0.7),
}


@pytest.mark.parametrize("name", WARM_AND_COLD_CASES)
def test_warm_and_cold_solves_are_bitwise_equal(name):
    ensemble = WARM_AND_COLD_CASES[name]()
    model = ensemble.model
    ramp = np.arange(1.0, ensemble.n_states + 1)
    solve_discrimination(Ensemble(model=model, states=ensemble.states, priors=ramp / ramp.sum()))
    assert "measurement_start" in vars(model)
    warm = solve_discrimination(ensemble)
    fresh = dataclasses.replace(model)
    assert "measurement_start" not in vars(fresh)
    cold = solve_discrimination(Ensemble(model=fresh, states=ensemble.states, priors=ensemble.priors))
    assert _solution_bits(warm) == _solution_bits(cold)


def test_phase_one_runs_once_per_model(monkeypatch):
    import gptdisc.lp as lp

    phases = []
    run_phase = lp._run_phase

    def counting_run_phase(tableau, basis, enter_limit):
        phases.append(len(basis))
        return run_phase(tableau, basis, enter_limit)

    monkeypatch.setattr(lp, "_run_phase", counting_run_phase)
    model = polygon_model(12)
    rng = np.random.default_rng(5)
    counts = []
    for _ in range(3):
        priors = rng.random(12)
        phases.clear()
        solve_discrimination(Ensemble(model=model, states=model.state_gens, priors=priors / priors.sum()))
        counts.append(len(phases))
        if len(counts) == 1:
            start = model.measurement_start
            arrays = (start.sign, start.tableau)
            kept = [a.copy() for a in arrays]
    assert counts == [2, 1, 1]  # phase 1 and phase 2, then phase 2 alone
    assert model.measurement_start is start
    for array, copy in zip(arrays, kept):
        assert not array.flags.writeable
        assert array.tobytes() == copy.tobytes()
    phases.clear()
    solve_discrimination(_uniform_ensemble(dataclasses.replace(model)))
    assert len(phases) == 2  # a replaced model keeps no start


def test_a_start_from_other_rows_fails_the_solve_loudly():
    from gptdisc import NumericalFailureError
    from gptdisc.lp import phase_one

    model = dataclasses.replace(polygon_model(8))
    vars(model)["measurement_start"] = phase_one(2.0 * model.effect_gens.T, model.unit_effect)
    with pytest.raises(NumericalFailureError, match=r"worst residual 0\.5$"):
        solve_discrimination(_uniform_ensemble(model))


@pytest.mark.parametrize("n_effects", [0, 2], ids=["none", "two-adjacent"])
def test_an_infeasible_start_names_the_unit_effect_on_every_solve(n_effects):
    # The effect cone misses u, so phase 1 ends infeasible, and nothing past it may run: with no effect
    # generator at all there is no column to drive an artificial out on.
    square = polygon_model(4)
    effects = square.effect_gens[:n_effects]
    model = GptModel(dim=3, state_gens=square.state_gens, effect_gens=effects, unit_effect=square.unit_effect)
    for _ in range(2):
        with pytest.raises(InvalidInputError, match="unit effect is not in the cone of the effect generators"):
            solve_discrimination(_uniform_ensemble(model))
    assert model.measurement_start.infeasibility > 0.5


def _parent_kkt_fields(ensemble: Ensemble, solution) -> dict:
    """``verify_kkt``'s fields by the reference expressions: ``np.linalg.norm``, ``np.sum`` and ``.min(initial=...)``."""
    model = ensemble.model
    k, coefficients = solution.symmetry_operator, solution.coefficients
    effects = coefficients @ model.effect_gens
    margins = k - ensemble.priors[:, None] * ensemble.states
    value = float(model.unit_effect @ k)
    weights, stated = value - ensemble.priors, solution.stated  # r_x = u[K] - q_x
    stability = np.abs(weights)
    stability[stated] = row_norms(margins[stated] - weights[stated, None] * solution.stated_d)
    primal_value = float(np.sum(ensemble.priors * np.einsum("xd,xd->x", effects, ensemble.states)))
    return {
        "stability_residuals": stability,
        "positivity_residuals": 0.0 - (margins @ model.effect_gens.T).min(axis=1, initial=0.0),
        "orthogonality_residuals": np.abs(_row_dots(effects, margins)),
        "measurement_residual": float(np.linalg.norm(effects.sum(axis=0) - model.unit_effect)),
        "gap": abs(primal_value - value),
        "effect_residuals": 0.0 - coefficients.min(axis=1, initial=0.0),
        "value_residual": abs(solution.p_guess - value),
    }


def _parent_congruence_fields(solution, tol: float = 1e-9) -> dict:
    """``congruence_check``'s fields by the reference expressions: ``np.diff``, ``np.mean`` and ``.max()``."""
    ensemble, stated, d = solution.ensemble, solution.stated, solution.stated_d
    weights = float(ensemble.model.unit_effect @ solution.symmetry_operator) - ensemble.priors  # r_x = u[K] - q_x
    weighted = (ensemble.priors[:, None] * ensemble.states)[stated]
    stability = solution.symmetry_operator - weighted - weights[stated, None] * d
    d_edges = row_norms(np.diff(d, axis=0))
    keep = d_edges > tol
    ratios = row_norms(np.diff(weighted, axis=0)[keep]) / d_edges[keep]
    return {
        "max_residual": 2.0 * float(row_norms(stability).max(initial=0.0)),
        "ratio": float(np.mean(ratios)) if ratios.size else None,
        "ratio_spread": float(ratios.max() - ratios.min()) if ratios.size else 0.0,
        "skipped": tuple(np.flatnonzero(~stated).tolist()),
    }


def _parent_certificate_residual(problem, solution) -> float:
    """``certificate_residual`` by the reference expressions ``np.min`` and ``np.max``."""
    x, y, a, b, c = solution.x, solution.y, problem.eq_matrix, problem.eq_rhs, problem.objective
    reduced = c - a.T @ y
    residuals = (  # 0.0 - m, so that an exact solution reads 0.0, as certificate_residual does
        0.0 - np.min(x, initial=0.0),
        np.max(np.abs(a @ x - b), initial=0.0),
        0.0 - np.min(reduced, initial=0.0),
        np.max(np.abs(x * reduced), initial=0.0),
        abs(float(c @ x) - float(b @ y)),
    )
    return math.nan if any(map(math.isnan, residuals)) else float(max(residuals))


def _bits(value):
    """A value's type, shape and bytes, so that ``-0.0`` and ``0.0`` differ; None and tuples as they are."""
    if value is None or isinstance(value, tuple):
        return value
    return type(value), np.shape(value), np.asarray(value, dtype=float).tobytes()


def _one_stated_pair(sol):
    stated = np.arange(sol.ensemble.n_states) == np.flatnonzero(sol.stated)[0]
    return dataclasses.replace(sol, stated=stated, stated_d=sol.stated_d[:1])


def _no_stated_pair(sol):
    return dataclasses.replace(sol, stated=np.zeros(sol.ensemble.n_states, bool), stated_d=np.zeros((0, 3)))


@pytest.mark.parametrize("name", [*WARM_AND_COLD_CASES, "one-stated-pair", "no-stated-pair"])
def test_check_path_matches_the_reference_expressions_bit_for_bit(name):
    if name in WARM_AND_COLD_CASES:
        ensemble = WARM_AND_COLD_CASES[name]()
        sol = solve_discrimination(ensemble)
    else:
        ensemble = uniform_vertex_ensemble(4)
        sol = (_one_stated_pair if name == "one-stated-pair" else _no_stated_pair)(solve_discrimination(ensemble))
    kkt = verify_kkt(ensemble, sol)
    assert {f.name: _bits(getattr(kkt, f.name)) for f in dataclasses.fields(kkt)} == {
        field: _bits(value) for field, value in _parent_kkt_fields(ensemble, sol).items()
    }
    report = congruence_check(sol)
    assert {f.name: _bits(getattr(report, f.name)) for f in dataclasses.fields(report)} == {
        field: _bits(value) for field, value in _parent_congruence_fields(sol).items()
    }
    # Both layers form the same s_x, so the congruence bound is twice the worst stated stability residual.
    assert _bits(report.max_residual) == _bits(2.0 * float(np.max(kkt.stability_residuals[sol.stated], initial=0.0)))
    if name.endswith("stated-pair"):
        assert report.ratio is None
    problem = measurement_lp(ensemble)
    primal = solve_lp(problem)
    assert _bits(certificate_residual(problem, primal)) == _bits(_parent_certificate_residual(problem, primal))
    facets = ensemble.model.state_cone.facets
    assert inside(facets, ensemble.states, 1e-9).tolist() == (
        (ensemble.states @ facets.T).min(axis=1, initial=0.0) >= -1e-9
    ).tolist()
