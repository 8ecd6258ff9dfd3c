import numpy as np
import pytest
from numpy.testing import assert_allclose

from gptdisc import (
    InvalidInputError,
    demo_n3,
    demo_n4,
    demo_no_measurement,
    no_measurement_value,
    polygon_model,
    polygon_radius,
    threshold_scan,
    uniform_vertex_ensemble,
    solve_discrimination,
    validate_model,
)
from gptdisc.polygon import (
    AXIS_FEASIBILITY_THRESHOLD,
    QUANTUM_ANALOGUE_THRESHOLD,
    _guessing_is_optimal,
    _polygon_model,
    no_measurement_ensemble,
)

from conftest import counted_dual_cones, effects_of
from families import random_polygon_ensemble

SQRT2 = np.sqrt(2.0)
SQRT6 = np.sqrt(6.0)


def test_radius_identity():
    for n in range(3, 13):
        r = polygon_radius(n)
        assert r * r * np.cos(np.pi / n) == pytest.approx(1.0, abs=1e-12)


def test_triangle_states_match_closed_form():
    model = polygon_model(3)
    expected = np.array(
        [
            [SQRT2, 0.0, 1.0],
            [-SQRT2 / 2.0, SQRT6 / 2.0, 1.0],
            [-SQRT2 / 2.0, -SQRT6 / 2.0, 1.0],
        ]
    )
    assert_allclose(model.state_gens, expected, atol=1e-12)
    # Odd order: effects are the states scaled into the dual normalization.
    assert_allclose(model.effect_gens, expected / 3.0, atol=1e-12)


def test_square_effects_match_closed_form():
    model = polygon_model(4)
    r4 = polygon_radius(4)
    expected_f0 = 0.5 * np.array([r4 / SQRT2, -r4 / SQRT2, 1.0])
    assert_allclose(model.effect_gens[0], expected_f0, atol=1e-12)
    assert_allclose(model.effect_gens.sum(axis=0), 2.0 * model.unit_effect, atol=1e-12)


def test_halved_square_effects_form_a_measurement():
    model = polygon_model(4)
    assert_allclose((model.effect_gens / 2.0).sum(axis=0), model.unit_effect, atol=1e-12)


def test_order_below_three_rejected():
    with pytest.raises(InvalidInputError):
        polygon_model(2)


@pytest.mark.parametrize("order", range(3, 13))
def test_family_validates_and_effects_sum_to_unit_multiple(order):
    model = polygon_model(order)
    assert validate_model(model).valid
    total = model.effect_gens.sum(axis=0)
    r = polygon_radius(order)
    factor = order / 2.0 if order % 2 == 0 else order / (1.0 + r * r)
    assert_allclose(total, factor * model.unit_effect, atol=1e-9)


@pytest.mark.parametrize("order", [3, 5, 7, 9, 11])
def test_odd_order_aligned_pairing_is_one(order):
    model = polygon_model(order)
    for x in range(order):
        assert float(model.effect_gens[x] @ model.state_gens[x]) == pytest.approx(1.0, abs=1e-12)


def test_triangle_demo():
    sol = demo_n3()
    assert sol.p_guess == pytest.approx(1.0, abs=1e-9)
    assert_allclose(effects_of(sol), sol.ensemble.model.effect_gens, atol=1e-9)
    assert_allclose(sol.weights, 2.0 / 3.0, atol=1e-9)


def test_square_demo_and_alternates():
    result = demo_n4()
    sol = result.solution
    assert sol.p_guess == pytest.approx(0.5, abs=1e-9)
    names = [name for name, _, _ in result.alternates]
    assert names == ["halved-effects", "f0-f2-randomized", "f1-f3-randomized"]
    assert all(report.passes() for _, _, report in result.alternates)
    f = sol.ensemble.model.effect_gens
    w = sol.ensemble.states
    # Per-state success of the halved effect family is 1/2.
    for x in range(4):
        assert 0.5 * float(f[x] @ w[x]) == pytest.approx(0.5, abs=1e-12)


def test_mixture_demo_values():
    assert demo_no_measurement(0.5).p_guess == pytest.approx(0.5, abs=1e-9)
    assert demo_no_measurement(0.0).p_guess == pytest.approx(0.5, abs=1e-9)
    assert demo_no_measurement(1.0).p_guess == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(InvalidInputError):
        demo_no_measurement(1.5)


def test_scan_flags_and_threshold():
    scan = threshold_scan([0.05, 0.9])
    rows = dict((p, flag) for p, _, flag in scan.rows)
    assert rows[0.05] is False
    assert rows[0.9] is True
    assert scan.p_star == pytest.approx(AXIS_FEASIBILITY_THRESHOLD, abs=2e-6)
    # The quantum-analogue figure is *not* the threshold of this model.
    assert scan.p_star > QUANTUM_ANALOGUE_THRESHOLD + 0.1


def test_scan_monotone_flags():
    grid = [round(0.1 * k, 1) for k in range(11)]
    scan = threshold_scan(grid)
    flags = [flag for _, _, flag in scan.rows]
    first_true = flags.index(True)
    assert all(flags[first_true:])
    assert not any(flags[:first_true])


def test_scan_computes_the_square_facets_once_per_process(monkeypatch):
    calls = counted_dual_cones(monkeypatch)
    threshold_scan([0.0, 0.25, 0.5])
    threshold_scan([0.75, 1.0])
    # Every grid point and the closed-form threshold share one square model, whose
    # state facets the effect generators certify: no double description runs.
    assert calls == []
    assert no_measurement_ensemble(0.2).model is no_measurement_ensemble(0.5).model is polygon_model(4)


def _solver_flag(ensemble, p_guess: float) -> bool:
    """The solver's reading of point (i): its optimum is no better than guessing the likeliest state."""
    return p_guess <= no_measurement_value(ensemble) + 1e-9


@pytest.mark.parametrize("grid", [[round(0.05 * k, 2) for k in range(21)], [round(0.005 * k, 3) for k in range(201)]], ids=["21", "201"])
def test_scan_flags_are_the_solvers_flags(grid):
    scan = threshold_scan(grid)
    assert [flag for _, _, flag in scan.rows] == [_solver_flag(no_measurement_ensemble(p), p_guess) for p, p_guess, _ in scan.rows]
    assert any(flag for _, _, flag in scan.rows) and not all(flag for _, _, flag in scan.rows)


def test_the_dominance_certificate_is_the_solvers_flag_on_random_polygon_ensembles():
    rng = np.random.default_rng(17)
    flags = []
    for _ in range(300):
        ensemble = random_polygon_ensemble(rng)
        flags.append(_guessing_is_optimal(ensemble))
        assert flags[-1] == _solver_flag(ensemble, solve_discrimination(ensemble).p_guess)
    assert 0 < sum(flags) < 300


POINT_I_FAMILIES = {
    "random-seeds-0-399": lambda: [(seed, random_polygon_ensemble(np.random.default_rng(seed))) for seed in range(400)],
    "grid-21": lambda: [(p, no_measurement_ensemble(p)) for p in (round(0.05 * k, 2) for k in range(21))],
}


@pytest.mark.parametrize("family", POINT_I_FAMILIES)
def test_a_pair_is_unstated_exactly_when_guessing_without_measuring_is_optimal(family):
    # Point (i): r_x = p_guess - q_x vanishes for some x only where p_guess is the largest prior, which is where
    # the dominance certificate holds.  This is the property that sends a check down its masked or whole-array path.
    degenerate = []
    for label, ensemble in POINT_I_FAMILIES[family]():
        solution = solve_discrimination(ensemble)
        degenerate.append(not solution.stated.all())
        assert degenerate[-1] == _guessing_is_optimal(ensemble), label
        if degenerate[-1]:
            assert abs(solution.p_guess - ensemble.priors.max()) <= 1e-9, label
    assert 0 < sum(degenerate) < len(degenerate)


def test_the_threshold_is_the_closed_form_one_third():
    assert threshold_scan([]).p_star == AXIS_FEASIBILITY_THRESHOLD == 1.0 / 3.0


def test_scan_rejects_out_of_range_grid():
    with pytest.raises(InvalidInputError):
        threshold_scan([0.5, 1.2])


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: polygon_model(4.0), id="float-order"),
        pytest.param(lambda: polygon_model("5"), id="string-order"),
        pytest.param(lambda: uniform_vertex_ensemble(4.5), id="float-ensemble-order"),
        pytest.param(lambda: no_measurement_ensemble("a"), id="string-p"),
        pytest.param(lambda: no_measurement_ensemble(float("nan")), id="nan-p"),
        pytest.param(lambda: threshold_scan(["a"]), id="string-grid"),
        pytest.param(lambda: threshold_scan([0.5, float("nan")]), id="nan-grid"),
    ],
)
def test_polygon_family_rejects_malformed_arguments(build):
    with pytest.raises(InvalidInputError):
        build()


@pytest.mark.parametrize("order", [3, 4, 5, 24])
def test_polygon_model_is_one_shared_object_per_order(order):
    assert polygon_model(order) is polygon_model(order) is polygon_model(np.int64(order))
    assert polygon_model(order) is not polygon_model(order + 1)


def test_shared_polygon_models_are_bounded():
    # An order-4,096 model with its facets holds about 0.5 MB, so an unbounded memo over a sweep would keep ~1 GB.
    assert _polygon_model.cache_parameters()["maxsize"] == 128


@pytest.mark.parametrize("order", [5.0, "5", [5], True, 2], ids=repr)
def test_a_cached_order_still_rejects_malformed_orders(order):
    polygon_model(5)
    with pytest.raises(InvalidInputError, match="polygon order must be an integer"):
        polygon_model(order)


def test_polygon_family_accepts_numpy_integer_orders():
    assert uniform_vertex_ensemble(np.int64(5)).n_states == 5
    assert_allclose(polygon_model(np.int64(5)).state_gens, polygon_model(5).state_gens, atol=0.0)


def test_mixture_ensemble_layout():
    ensemble = no_measurement_ensemble(0.3)
    assert ensemble.n_states == 5
    assert_allclose(ensemble.states[4], [0.0, 0.0, 1.0], atol=1e-12)
    assert_allclose(ensemble.priors, [0.175, 0.175, 0.175, 0.175, 0.3], atol=1e-12)
