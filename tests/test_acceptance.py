"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line so the suite can be read as a
checklist (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gptdisc import (
    Ensemble,
    congruence_check,
    demo_n3,
    demo_n4,
    dual_cone,
    dual_vertex_enumeration,
    polygon_model,
    ratio_r,
    solve_discrimination,
    solve_lp,
    threshold_scan,
    verify_kkt,
)
from gptdisc.lp import OPTIMAL
from gptdisc.polygon import AXIS_FEASIBILITY_THRESHOLD, QUANTUM_ANALOGUE_THRESHOLD

from conftest import brute_force_lp, check_certificate, effect_cone, effects_of, same_generator_set, slack_form
from families import random_polygon_ensemble


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number}] PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_triangle_demo():
    with criterion(1, "triangle demo: p_guess = 1, aligned-effect measurement, KKT passes, < 1 s"):
        start = time.perf_counter()
        sol = demo_n3()
        report = verify_kkt(sol.ensemble, sol)
        elapsed = time.perf_counter() - start
        assert sol.p_guess == pytest.approx(1.0, abs=1e-9)
        assert_allclose(effects_of(sol), sol.ensemble.model.effect_gens, atol=1e-9)
        assert report.passes(1e-9)
        assert elapsed < 1.0


def test_criterion_2_square_demo():
    with criterion(2, "square demo: p_guess = 1/2, K = (0,0,1/2), d_x = w_{x+2}, 3 optimal measurements, < 1 s"):
        start = time.perf_counter()
        result = demo_n4()
        elapsed = time.perf_counter() - start
        sol = result.solution
        assert sol.p_guess == pytest.approx(0.5, abs=1e-9)
        assert_allclose(sol.symmetry_operator, [0.0, 0.0, 0.5], atol=1e-9)
        assert sol.stated.all()
        assert_allclose(sol.stated_d, np.roll(sol.ensemble.states, -2, axis=0), atol=1e-9)  # d_x = w_{x+2}
        assert len(result.alternates) == 3
        for name, _, report in result.alternates:
            assert report.passes(1e-9), name
        assert elapsed < 1.0


def test_criterion_3_uniform_prior_ratio():
    with criterion(3, "polytope ratio: 1/4 on the square demo, matches p_guess - 1/N on the triangle"):
        square = solve_discrimination(
            Ensemble(
                model=polygon_model(4),
                states=polygon_model(4).state_gens,
                priors=np.full(4, 0.25),
            )
        )
        assert ratio_r(square) == pytest.approx(0.25, abs=1e-9)
        triangle = demo_n3()
        assert abs(ratio_r(triangle) - (triangle.p_guess - 1.0 / 3.0)) <= 1e-9


def test_criterion_4_no_measurement_scan():
    with criterion(4, "mixture scan: solver = oracle on grid, p_guess = p with K = p*w4 above p*, p* to 1e-6, < 10 s"):
        start = time.perf_counter()
        from gptdisc.polygon import no_measurement_ensemble

        grid = [round(0.05 * k, 2) for k in range(21)]
        scan = threshold_scan(grid)
        for p, p_guess, flag in scan.rows:
            ensemble = no_measurement_ensemble(p)
            oracle = dual_vertex_enumeration(ensemble)
            assert abs(oracle.p_guess - p_guess) <= 1e-8
            if p >= scan.p_star:
                sol = solve_discrimination(ensemble)
                max_prior = float(ensemble.priors.max())
                assert sol.p_guess == pytest.approx(max_prior, abs=1e-9)
                assert sol.p_guess == pytest.approx(p, abs=1e-9)
                assert_allclose(sol.symmetry_operator, p * ensemble.states[4], atol=1e-9)
                assert flag
        # Threshold read off the dominance certificate in closed form, reported beside both reference figures:
        # the quantum-analogue 1/5 claim does not hold for this model, the
        # dual-feasibility bound 1/3 does.
        assert scan.p_star == pytest.approx(AXIS_FEASIBILITY_THRESHOLD, abs=2e-6)
        assert abs(scan.p_star - QUANTUM_ANALOGUE_THRESHOLD) > 0.1
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0


def test_criterion_5_strong_duality_suite():
    with criterion(5, "200 random ensembles: gap <= 1e-8, sandwich bound, KKT, congruence <= 1e-7, solver = oracle, < 60 s"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260809)
        for _ in range(200):
            ensemble = random_polygon_ensemble(rng)
            sol = solve_discrimination(ensemble)
            report = verify_kkt(ensemble, sol)
            assert report.gap <= 1e-8
            assert ensemble.priors.max() - 1e-9 <= sol.p_guess <= 1.0 + 1e-9
            assert report.passes(1e-9)
            assert congruence_check(sol).max_residual <= 1e-7
            oracle = dual_vertex_enumeration(ensemble)
            assert abs(oracle.p_guess - sol.p_guess) <= 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0


def test_criterion_6_cone_involution():
    with criterion(6, "dual-cone involution for n in 3..12; dual(state cone) matches effect directions for n in {3,4}"):
        for order in range(3, 13):
            model = polygon_model(order)
            for cone in (model.state_cone, effect_cone(model)):
                assert same_generator_set(dual_cone(dual_cone(cone)), cone, 1e-9), order
        for order in (3, 4):
            model = polygon_model(order)
            assert same_generator_set(dual_cone(model.state_cone), effect_cone(model), 1e-9)


def test_criterion_7_lp_engine_vs_enumeration():
    with criterion(7, "500 random LPs: simplex matches basic-solution enumeration within 1e-8, certificates pass"):
        rng = np.random.default_rng(7_2026)
        optimal_count = 0
        for _ in range(500):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 9))
            a = np.round(rng.uniform(-3, 3, size=(m, n)) * 2) / 2
            b = np.round(rng.uniform(-2, 4, size=m) * 2) / 2
            c = np.round(rng.uniform(-3, 3, size=n) * 2) / 2
            problem = slack_form(c, a, b)
            sol = solve_lp(problem)
            status, objective = brute_force_lp(problem)
            assert sol.status == status
            if status == OPTIMAL:
                optimal_count += 1
                assert abs(sol.objective - objective) <= 1e-8
                assert check_certificate(problem, sol, tol=1e-9)
        assert optimal_count > 100  # the family must actually exercise the optimizer


def test_criterion_8_invariance_suite():
    with criterion(8, "50 random instances: zero-prior padding and prior permutation keep p_guess within 1e-9"):
        rng = np.random.default_rng(8_2026)
        for _ in range(50):
            ensemble = random_polygon_ensemble(rng)
            sol = solve_discrimination(ensemble)

            pad_state = ensemble.model.state_gens.mean(axis=0)
            padded = Ensemble(
                model=ensemble.model,
                states=np.vstack([ensemble.states, pad_state]),
                priors=np.append(ensemble.priors, 0.0),
            )
            assert solve_discrimination(padded).p_guess == pytest.approx(sol.p_guess, abs=1e-9)

            perm = rng.permutation(ensemble.n_states)
            shuffled = Ensemble(
                model=ensemble.model,
                states=ensemble.states[perm],
                priors=ensemble.priors[perm],
            )
            assert solve_discrimination(shuffled).p_guess == pytest.approx(sol.p_guess, abs=1e-9)
