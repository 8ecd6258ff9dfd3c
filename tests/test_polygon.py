import numpy as np
import pytest
from numpy.testing import assert_allclose

from gptdisc import (
    InvalidInputError,
    demo_n3,
    demo_n4,
    demo_no_measurement,
    polygon_model,
    polygon_radius,
    threshold_scan,
    validate_model,
)
from gptdisc.polygon import (
    AXIS_FEASIBILITY_THRESHOLD,
    QUANTUM_ANALOGUE_THRESHOLD,
    no_measurement_ensemble,
)

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
    assert_allclose(sol.measurement.effects, sol.ensemble.model.effect_gens, atol=1e-9)
    for pair in sol.complementary:
        assert pair.r == pytest.approx(2.0 / 3.0, abs=1e-9)


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
    import gptdisc.cone as cone

    calls = []
    real_dual_cone = cone.dual_cone

    def counting_dual_cone(c):
        calls.append(c.n_generators)
        return real_dual_cone(c)

    monkeypatch.setattr(cone, "dual_cone", counting_dual_cone)
    threshold_scan([0.0, 0.25, 0.5])
    threshold_scan([0.75, 1.0])
    # Every grid point and bisection step shares one square model, so its
    # state cone's double description runs at most once (none if an
    # earlier test already ran it in this process).
    assert len(calls) <= 1
    assert no_measurement_ensemble(0.2).model is no_measurement_ensemble(0.5).model


def test_scan_rejects_out_of_range_grid():
    with pytest.raises(InvalidInputError):
        threshold_scan([0.5, 1.2])


def test_mixture_ensemble_layout():
    ensemble = no_measurement_ensemble(0.3)
    assert ensemble.n_states == 5
    assert_allclose(ensemble.states[4], [0.0, 0.0, 1.0], atol=1e-12)
    assert_allclose(ensemble.priors, [0.175, 0.175, 0.175, 0.175, 0.3], atol=1e-12)
