import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gptdisc import (
    Ensemble,
    InvalidInputError,
    LpProblem,
    LpSolution,
    feasibility_gap,
    solve_lp,
)
import gptdisc.lp as lp_module
from gptdisc.lp import INFEASIBLE, OPTIMAL, UNBOUNDED
from gptdisc.polygon import no_measurement_ensemble, uniform_vertex_ensemble

from conftest import (
    boxworld_model,
    brute_force_lp,
    check_certificate,
    hypercube_model,
    measurement_lp,
    random_polygon_ensemble,
    slack_form,
)


def test_simplex_equality_split():
    sol = solve_lp(LpProblem([1.0, 1.0], [[1.0, 1.0]], [1.0]))
    assert sol.status == OPTIMAL
    assert_allclose(sol.objective, 1.0, atol=1e-12)


def test_inequality_converter_adds_slack():
    prob = slack_form([-1.0], [[1.0]], [2.0])
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert_allclose(sol.objective, -2.0, atol=1e-12)
    assert_allclose(sol.x[0], 2.0, atol=1e-12)


def test_square_ensemble_dual_value_is_half():
    # Uniform four-state instance: the symmetry-operator value -b.y, read
    # from the measurement LP's multipliers, is 1/2.
    problem = measurement_lp(uniform_vertex_ensemble(4))
    sol = solve_lp(problem)
    assert sol.status == OPTIMAL
    assert_allclose(-float(problem.eq_rhs @ sol.y), 0.5, atol=1e-9)


def test_infeasible_reported_by_status():
    sol = solve_lp(LpProblem([0.0], [[1.0], [1.0]], [1.0, 2.0]))
    assert sol.status == INFEASIBLE
    assert sol.x is None


def test_unbounded_reported_by_status():
    sol = solve_lp(LpProblem([-1.0, 0.0], [[0.0, 1.0]], [1.0]))
    assert sol.status == UNBOUNDED


def test_negative_rhs_handled_by_phase_one():
    # -x1 <= -1 means x1 >= 1.
    prob = slack_form([1.0], [[-1.0]], [-1.0])
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert_allclose(sol.objective, 1.0, atol=1e-12)


def test_redundant_rows_dropped():
    prob = LpProblem([1.0, 2.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert_allclose(sol.objective, 1.0, atol=1e-12)
    assert check_certificate(prob, sol)


def test_dimension_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        LpProblem([1.0, 2.0], [[1.0]], [1.0])


def test_certificate_accepts_solver_output():
    rng = np.random.default_rng(11)
    for _ in range(25):
        # Nonnegative objective keeps the problem bounded; rhs > 0 keeps x=0 feasible.
        prob = slack_form(
            rng.uniform(0, 2, 4),
            rng.uniform(-2, 2, (5, 4)),
            rng.uniform(0.5, 3, 5),
        )
        sol = solve_lp(prob)
        assert sol.status == OPTIMAL
        assert check_certificate(prob, sol)


def test_certificate_rejects_perturbed_basic_coordinate():
    prob = LpProblem([1.0, 1.0, 0.0], [[1.0, 2.0, 1.0]], [2.0])
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    j = int(np.argmax(sol.x))
    x = sol.x.copy()
    x[j] += 1e-3
    tampered = LpSolution(status=sol.status, x=x, objective=sol.objective, y=sol.y)
    assert not check_certificate(prob, tampered)


@pytest.mark.parametrize("field", ["x", "y"])
def test_certificate_rejects_a_nan(field):
    prob = LpProblem([1.0, 1.0, 0.0], [[1.0, 2.0, 1.0]], [2.0])
    sol = solve_lp(prob)
    values = {"x": sol.x.copy(), "y": sol.y.copy()}
    values[field][-1] = np.nan
    tampered = LpSolution(status=sol.status, objective=sol.objective, **values)
    assert np.isnan(lp_module.certificate_residual(prob, tampered))
    assert not check_certificate(prob, tampered)


def test_certificate_against_enumeration_on_random_three_var_lp():
    rng = np.random.default_rng(3)
    prob = slack_form(
        rng.uniform(-2, 2, 3),
        rng.uniform(-1, 2, (4, 3)),
        rng.uniform(0.5, 2.5, 4),
    )
    sol = solve_lp(prob)
    status, objective = brute_force_lp(prob)
    assert sol.status == status == OPTIMAL
    assert_allclose(sol.objective, objective, atol=1e-10)
    assert check_certificate(prob, sol)


def test_strong_duality_gap_zero_when_optimal():
    rng = np.random.default_rng(5)
    for _ in range(50):
        prob = slack_form(
            rng.uniform(-1, 2, 3),
            rng.uniform(-2, 2, (4, 3)),
            rng.uniform(-0.5, 2, 4),
        )
        sol = solve_lp(prob)
        if sol.status == OPTIMAL:
            assert abs(sol.objective - float(prob.eq_rhs @ sol.y)) <= 1e-9


def test_deterministic_bit_for_bit():
    rng = np.random.default_rng(17)
    prob = slack_form(
        rng.uniform(-2, 2, 5),
        rng.uniform(-2, 2, (6, 5)),
        rng.uniform(-1, 3, 6),
    )
    first = solve_lp(prob)
    second = solve_lp(prob)
    assert first.status == second.status
    if first.status == OPTIMAL:
        assert first.objective == second.objective
        assert np.array_equal(first.x, second.x)
        assert np.array_equal(first.y, second.y)


def test_degenerate_vertex_does_not_cycle():
    # Classic degenerate instance: multiple bases describe the optimum.
    prob = _degenerate_lp()
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    status, objective = brute_force_lp(prob)
    assert status == OPTIMAL
    assert_allclose(sol.objective, objective, atol=1e-9)
    assert_allclose(sol.objective, -0.05, atol=1e-9)
    assert check_certificate(prob, sol)


def _degenerate_lp():
    return slack_form(
        [-0.75, 150.0, -0.02, 6.0],
        [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
        [0.0, 0.0, 1.0],
    )


def test_pivot_sequence_matches_the_recorded_sequence(monkeypatch):
    # Recorded from the simplex whose pivot divided the row in place and subtracted a copied column's
    # outer product, and whose ratio test wrote the usable ratios by mask: Bland's rule must take the
    # same (row, column) pivots, phase-1 drive-out included, from any rewrite of those steps.
    expected = {
        "uniform3": [(0, 0), (1, 1), (2, 2)],
        "uniform8": [(0, 0), (0, 1), (0, 2), (1, 3), (0, 0), (2, 4)],
        "uniform13": [(0, 0), (0, 1), (0, 2), (0, 3), (1, 4), (0, 0), (1, 5), (1, 6), (2, 7)],
        "uniform24": [
            (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 7), (0, 0), (1, 8), (1, 9), (1, 10),
            (1, 11), (2, 12),
        ],
        # 66 pivots, each scanning a reduced-cost row in which most of the 128 columns are eligible.
        "uniform128": [(0, j) for j in range(33)] + [(1, 33), (0, 0)] + [(1, j) for j in range(34, 64)] + [(2, 64)],
        "mixed0": [(0, 0), (0, 1), (0, 2), (1, 3), (0, 0), (2, 4)],
        "mixed1": [(0, 0), (0, 1), (1, 2), (0, 0), (2, 3), (2, 4), (0, 1)],
        "mixed2": [(0, 0), (0, 1), (0, 2), (1, 3), (0, 0), (2, 4), (2, 6), (0, 1), (0, 2), (0, 7)],
        "mixed3": [(0, 0), (0, 1), (1, 2), (0, 0), (1, 3), (2, 4)],
        "no-measurement-0.1": [(0, 0), (0, 1), (1, 2), (2, 0)],
        "no-measurement-0.3": [(0, 0), (0, 1), (1, 2), (2, 0)],
        "degenerate": [(0, 0), (1, 1), (0, 2), (1, 3), (2, 0), (1, 4)],
    }
    problems = {f"uniform{n}": measurement_lp(uniform_vertex_ensemble(n)) for n in (3, 8, 13, 24, 128)}
    problems.update({f"mixed{seed}": measurement_lp(random_polygon_ensemble(np.random.default_rng(seed))) for seed in range(4)})
    problems.update({f"no-measurement-{p}": measurement_lp(no_measurement_ensemble(p)) for p in (0.1, 0.3)})
    problems["degenerate"] = _degenerate_lp()
    pivot = lp_module._pivot
    pivots = []

    def recording_pivot(tableau, basis, row, col):
        pivots.append((int(row), int(col)))
        pivot(tableau, basis, row, col)

    monkeypatch.setattr(lp_module, "_pivot", recording_pivot)
    for name, problem in problems.items():
        pivots.clear()
        assert solve_lp(problem).status == OPTIMAL, name
        assert pivots == expected[name], name


@pytest.mark.parametrize("objective, status", [([0.0, 2.0, 0.5], OPTIMAL), ([1.0, -1.0, 0.0], UNBOUNDED)])
def test_lp_without_rows(objective, status):
    prob = LpProblem(objective, np.zeros((0, 3)), np.zeros(0))
    sol = solve_lp(prob)
    assert sol.status == status == brute_force_lp(prob)[0]
    if status == OPTIMAL:
        assert sol.objective == 0.0
        assert sol.x.tolist() == [0.0, 0.0, 0.0]
        assert sol.y.shape == (0,)
        assert check_certificate(prob, sol)


def _vectorized_choice(tableau, basis, enter_limit):
    """Bland's choice by the vectorized ratio test: ``(leaving row, entering column)``, or the status if none."""
    m = len(basis)
    rhs = tableau[:m, -1]
    for j in (tableau[-1, :enter_limit] < -lp_module.REDUCED_COST_TOL).nonzero()[0]:
        column = tableau[:m, j]
        usable = column > lp_module.PIVOT_FLOOR
        if not usable.any():
            if np.all(column <= 0.0):
                return UNBOUNDED
            continue
        ratios = np.divide(rhs, column, out=np.full(m, np.inf), where=usable)
        best = ratios.min()
        ties = (ratios <= best + lp_module.PIVOT_FLOOR * (1.0 + abs(best))).nonzero()[0]
        return min(ties.tolist(), key=basis.__getitem__), int(j)
    return OPTIMAL


def _tableau(columns, rhs, reduced_costs, basis):
    """Tableau ``[columns | slacks | rhs]`` whose row ``i`` has slack column ``basis[i]`` basic."""
    n, m = len(reduced_costs), len(rhs)
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = np.asarray(columns, dtype=float).T
    tableau[np.arange(m), basis] = 1.0
    tableau[:m, -1] = rhs
    tableau[-1, :n] = reduced_costs
    return tableau


FLOOR = lp_module.PIVOT_FLOOR
#: (columns, rhs, reduced costs, basis, the first pivot or the status without one)
RATIO_TEST_CASES = {
    # Column 0's positive entries sit at or below the floor, so column 1 enters.
    "floor": ([[FLOOR, 0.5 * FLOOR], [1.0, 2.0]], [1.0, 1.0], [-1.0, -1.0], [2, 3], (1, 1)),
    "floor-and-negative": ([[FLOOR, -1.0], [0.0, 3.0]], [1.0, 1.0], [-1.0, -1.0], [2, 3], (1, 1)),
    # Every entry of the eligible column is nonpositive.
    "nonpositive": ([[-1.0, 0.0, -0.0]], [1.0, 2.0, 0.0], [-1.0], [1, 2, 3], UNBOUNDED),
    # Ratios 1, 1 + 1e-13 and 1 share one tie band: row 1, whose basic index is lowest, leaves.
    "ties": ([[1.0, 1.0, 2.0]], [1.0, 1.0 + 1e-13, 2.0], [-1.0], [3, 1, 2], (1, 0)),
    # The band is closed: a ratio of exactly best + 1e-12 ties with best = 0.
    "band-edge": ([[1.0, 1.0]], [0.0, FLOOR], [-1.0], [2, 1], (1, 0)),
    # The band scales with |best|: 1e6 + 5e-7 ties with 1e6.
    "band-scale": ([[1.0, 1.0]], [1e6, 1e6 + 5e-7], [-1.0], [2, 1], (1, 0)),
    # Ratios -0.0 and 0.0 tie: row 1, whose basic index is lower, leaves.
    "negative-zero-rhs": ([[1.0, 1.0]], [-0.0, 0.0], [-1.0], [2, 1], (1, 0)),
}


@pytest.mark.parametrize("name", RATIO_TEST_CASES)
def test_ratio_test_matches_the_vectorized_formula(monkeypatch, name):
    columns, rhs, reduced_costs, basis, expected = RATIO_TEST_CASES[name]
    tableau = _tableau(columns, rhs, reduced_costs, basis)
    basis = list(basis)
    enter_limit = len(reduced_costs)
    pivot = lp_module._pivot
    pivots = []

    def checked_pivot(tableau, basis, row, col):
        assert (row, col) == _vectorized_choice(tableau, basis, enter_limit)
        pivots.append((row, col))
        pivot(tableau, basis, row, col)

    monkeypatch.setattr(lp_module, "_pivot", checked_pivot)
    status = lp_module._run_phase(tableau, basis, enter_limit)
    assert status == _vectorized_choice(tableau, basis, enter_limit)
    if expected == UNBOUNDED:
        assert (status, pivots) == (UNBOUNDED, [])
    else:
        assert pivots[0] == expected


def test_pivot_turns_negative_zeros_of_the_pivot_row_positive():
    # A zero over a negative pivot is -0.0; the row keeps the sign the row operation x - 0 * x gives it.
    tableau = np.array([[-2.0, 0.0, 4.0], [1.0, -0.0, 3.0], [0.5, 2.0, -1.0]])
    basis = [5, 6]
    lp_module._pivot(tableau, basis, 0, 0)
    assert basis == [0, 6]
    assert tableau[0].tolist() == [1.0, 0.0, -2.0]
    assert np.signbit(tableau[0]).tolist() == [False, False, True]
    assert_allclose(tableau[1:], [[0.0, 0.0, 5.0], [0.0, 2.0, 0.0]], atol=0.0)


def test_iteration_guard_raises_numerical_failure(monkeypatch):
    from gptdisc import NumericalFailureError

    prob = slack_form(
        [-1.0, -2.0, -1.0],
        [[1.0, 1.0, 0.5], [0.5, 1.0, 1.0]],
        [2.0, 2.0],
    )
    monkeypatch.setattr("gptdisc.lp._MAX_ITER", 1)
    with pytest.raises(NumericalFailureError):
        solve_lp(prob)


def test_feasibility_gap_raises_on_a_failed_certificate(monkeypatch):
    from gptdisc import NumericalFailureError

    phase_one = lp_module.phase_one

    def shifted_phase_one(eq_matrix, eq_rhs):
        # Phase 1 of rows whose first rhs is 1e-3 off, below the engine's check: x misses row 0 by 1e-3.
        return phase_one(eq_matrix, eq_rhs + np.array([1e-3, 0.0]))

    monkeypatch.setattr(lp_module, "phase_one", shifted_phase_one)
    with pytest.raises(NumericalFailureError, match="worst residual 0.001"):
        feasibility_gap(np.array([[1.0], [0.0]]), np.array([1.0, -1.0]))


def test_feasibility_gap_measures_l1_distance():
    # v = (1, -1) cannot be reached from the nonnegative x-axis cone.
    gap = feasibility_gap(np.array([[1.0], [0.0]]), np.array([1.0, -1.0]))
    assert_allclose(gap, 1.0, atol=1e-9)
    assert feasibility_gap(np.array([[1.0], [0.0]]), np.array([2.0, 0.0])) <= 1e-12


@pytest.mark.parametrize(
    "eq_matrix, eq_rhs",
    [
        ([[True, False]], [1.0]),
        ([[1.0, 0.0]], [True]),
        ([["1", "0"]], ["1"]),
        ("abc", [1]),
        ([[1.0, 0.0], [1.0]], [1.0, 0.0]),
        ([[1.0, np.nan]], [1.0]),
        ([[1.0, 0.0]], [np.nan]),
    ],
    ids=["boolean-matrix", "boolean-rhs", "numeric-strings", "string", "ragged", "nan-matrix", "nan-rhs"],
)
def test_feasibility_gap_rejects_what_is_not_an_array_of_numbers(eq_matrix, eq_rhs):
    # Read with np.asarray(..., dtype=float), the booleans and the numeric strings gave a gap of 0.0.
    with pytest.raises(InvalidInputError):
        feasibility_gap(eq_matrix, eq_rhs)


def _bits(solution):
    """Everything a solution states, as bytes, so that ``-0.0`` and ``0.0`` differ."""
    arrays = (solution.x, solution.y, np.array(solution.objective, dtype=float))
    return solution.status, [None if a is None else a.tobytes() for a in arrays]


def _problems_of_this_module():
    rng = np.random.default_rng(11)
    problems = {
        "equality-split": LpProblem([1.0, 1.0], [[1.0, 1.0]], [1.0]),
        "slack": slack_form([-1.0], [[1.0]], [2.0]),
        "infeasible": LpProblem([0.0], [[1.0], [1.0]], [1.0, 2.0]),
        "unbounded": LpProblem([-1.0, 0.0], [[0.0, 1.0]], [1.0]),
        "negative-rhs": slack_form([1.0], [[-1.0]], [-1.0]),
        "redundant-rows": LpProblem([1.0, 2.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0]),
        "degenerate": _degenerate_lp(),
        "without-rows": LpProblem([1.0, -1.0, 0.0], np.zeros((0, 3)), np.zeros(0)),
        "without-columns": LpProblem(np.zeros(0), np.zeros((1, 0)), [0.0]),
    }
    for i in range(10):
        problems[f"random{i}"] = slack_form(rng.uniform(-2, 2, 5), rng.uniform(-2, 2, (6, 5)), rng.uniform(-1, 3, 6))
    problems.update({f"uniform{n}": measurement_lp(uniform_vertex_ensemble(n)) for n in (3, 8, 13, 24, 128)})
    problems.update({f"mixed{seed}": measurement_lp(random_polygon_ensemble(np.random.default_rng(seed))) for seed in range(4)})
    problems.update({f"no-measurement-{p}": measurement_lp(no_measurement_ensemble(p)) for p in (0.1, 0.3)})
    return problems


def test_a_solve_from_a_start_equals_a_solve_without_one():
    for name, problem in _problems_of_this_module().items():
        start = lp_module.phase_one(problem.eq_matrix, problem.eq_rhs)
        cold = solve_lp(problem)
        # The start is reused: its second solve reads the drive-out that the first one kept.
        assert _bits(solve_lp(problem, start=start)) == _bits(cold), name
        assert _bits(solve_lp(problem, start=start)) == _bits(cold), name


def test_lp_without_columns():
    # Rows that no column can pivot on are redundant when their rhs is zero, and infeasible otherwise.
    sol = solve_lp(LpProblem(np.zeros(0), np.zeros((1, 0)), [0.0]))
    assert (sol.status, sol.x.tolist(), sol.y.tolist(), sol.objective) == (OPTIMAL, [], [0.0], 0.0)
    assert solve_lp(LpProblem(np.zeros(0), np.zeros((1, 0)), [1.0])).status == INFEASIBLE


@pytest.mark.parametrize("scale", [2.0, 0.5])
def test_start_from_other_rows_of_the_same_shape_fails_the_certificate(scale):
    from gptdisc import NumericalFailureError

    problem = measurement_lp(uniform_vertex_ensemble(8))
    start = lp_module.phase_one(scale * problem.eq_matrix, problem.eq_rhs)  # its x is the true x over scale
    residual = abs(1.0 - 1.0 / scale)  # |A x - b| on the row u = (0, 0, 1)
    with pytest.raises(NumericalFailureError, match=rf"worst residual {residual:g}$"):
        solve_lp(problem, start=start)


@pytest.mark.parametrize("rows, columns", [(4, 8), (2, 8), (3, 9), (3, 7)])
def test_start_of_another_shape_is_rejected(rows, columns):
    problem = measurement_lp(uniform_vertex_ensemble(8))
    start = lp_module.phase_one(np.ones((rows, columns)), np.ones(rows))
    with pytest.raises(InvalidInputError, match=rf"start of shape \({rows}, {columns}\) does not fit an LP of shape \(3, 8\)"):
        solve_lp(problem, start=start)


FEASIBLE = LpProblem([1.0, 2.0], [[1.0, 1.0]], [1.0])  # min x1 + 2 x2 s.t. x1 + x2 = 1


@pytest.mark.parametrize(
    "tol", [-1.0, 0.0, np.nan, np.inf, 2e-3, "1e-9", None, [1e-9]],
    ids=["negative", "zero", "nan", "inf", "above-max", "string", "none", "list"],
)
def test_solve_lp_and_feasibility_gap_check_their_tol(tol):
    # At tol = -1 the feasible LP read as infeasible, NaN failed its certificate, and a string raised a raw TypeError.
    with pytest.raises(InvalidInputError, match="^tol must"):
        solve_lp(FEASIBLE, tol=tol)
    with pytest.raises(InvalidInputError, match="^tol must"):
        feasibility_gap(np.eye(2), np.ones(2), tol=tol)


def test_the_tol_check_lives_in_errors_and_is_still_read_from_model():
    import gptdisc.errors
    import gptdisc.model

    assert gptdisc.model.check_tol is gptdisc.errors.check_tol
    assert gptdisc.model.MAX_TOL == gptdisc.errors.MAX_TOL == 1e-3
    assert solve_lp(FEASIBLE, tol=1e-3).status == solve_lp(FEASIBLE, tol=np.float32(1e-6)).status == OPTIMAL


def test_the_certificate_residual_of_an_exact_solution_is_positive_zero():
    sol = solve_lp(FEASIBLE)
    assert (sol.x.tolist(), sol.y.tolist()) == ([1.0, 0.0], [1.0])
    residual = lp_module.certificate_residual(FEASIBLE, sol)
    assert residual == 0.0
    assert math.copysign(1.0, residual) == 1.0  # it read -0.0, and a failure named "worst residual -0"


def _uniform_ensemble(model):
    k = len(model.state_gens)
    return Ensemble(model=model, states=model.state_gens, priors=np.full(k, 1.0 / k))


TABLEAU_DUAL_CASES = {
    # The second row repeats the first, so phase 1 drops it.
    "repeated-row": lambda: LpProblem([1.0, 2.0, 0.0], [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 0.0, 2.0]], [1.0, 1.0, 1.5]),
    # x1 - x2 = -1 has a negative rhs, so phase 1 flips its sign; its multiplier is -2.
    "negative-rhs": lambda: LpProblem([1.0, 3.0, 1.0], [[1.0, -1.0, 0.0], [1.0, 1.0, 1.0]], [-1.0, 3.0]),
    "uniform256": lambda: measurement_lp(uniform_vertex_ensemble(256)),  # 130 pivots
    "cube3": lambda: measurement_lp(_uniform_ensemble(hypercube_model(3))),
    "boxworld": lambda: measurement_lp(_uniform_ensemble(boxworld_model())),
}


@pytest.mark.parametrize("name", TABLEAU_DUAL_CASES)
def test_the_duals_read_off_the_tableau_certify_the_solve(monkeypatch, name):
    problem = TABLEAU_DUAL_CASES[name]()
    run_phase = lp_module._run_phase
    bases = []

    def recording_run_phase(tableau, basis, enter_limit):
        status = run_phase(tableau, basis, enter_limit)
        bases.append(list(basis))
        return status

    monkeypatch.setattr(lp_module, "_run_phase", recording_run_phase)
    sol = solve_lp(problem)
    assert sol.status == OPTIMAL
    a, b, c = problem.eq_matrix, problem.eq_rhs, problem.objective
    assert lp_module.certificate_residual(problem, sol) <= 1e-12
    assert abs(float(c @ sol.x) - float(b @ sol.y)) <= 1e-12
    basis = bases[-1]  # phase 2's final basis
    if name == "repeated-row":  # the repeated rows' multipliers add up to the one row's, solved without the repeat
        assert len(basis) == len(b) - 1
        reference = np.linalg.solve(a[1:, basis].T, c[basis])
        assert_allclose([sol.y[0] + sol.y[1], sol.y[2]], reference, rtol=0.0, atol=1e-12)
    else:  # no row was dropped: the multipliers solve B^T y = c_B, by an independent LU solve
        assert len(basis) == len(b)
        assert_allclose(sol.y, np.linalg.solve(a[:, basis].T, c[basis]), rtol=0.0, atol=1e-12)
