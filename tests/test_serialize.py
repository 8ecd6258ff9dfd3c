import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gptdisc import Ensemble, InvalidInputError, polygon_model, solve_discrimination, verify_kkt
from gptdisc.discrimination import KktReport
from gptdisc.geometry import CongruenceReport, congruence_check
from gptdisc.polygon import no_measurement_ensemble, uniform_vertex_ensemble
from gptdisc.serialize import (
    dumps,
    ensemble_from_dict,
    ensemble_to_dict,
    load_ensemble,
    load_model,
    model_from_dict,
    model_to_dict,
    solution_from_dict,
    solution_to_dict,
)


def test_dumps_round_trips_doubles_bit_for_bit():
    values = [0.5, 1 / 3, np.pi, 2 ** 0.25, 1e-17, -123.456789012345678]
    values += [-0.0, 0.1, 1e16, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    bits = np.array(values).view(np.uint64)
    assert np.array_equal(np.array(json.loads(dumps(values))).view(np.uint64), bits)
    # Files written with 17 significant digits, integral reals keeping a ".0", read back exactly too.
    texts = [format(v, ".17g") for v in values]
    old_layout = "[" + ", ".join(t + ".0" if t.lstrip("-").isdigit() else t for t in texts) + "]"
    assert np.array_equal(np.array(json.loads(old_layout)).view(np.uint64), bits)


@pytest.mark.parametrize("value", [[float("nan")], {"k": np.inf}, {1, 2}], ids=["nan", "inf", "set"])
def test_dumps_rejects_what_has_no_json_form(value):
    with pytest.raises(InvalidInputError, match="cannot serialize"):
        dumps(value)


def test_integral_doubles_read_back_as_floats_with_their_sign():
    parsed = json.loads(dumps([-0.0, 1.0]))
    assert all(type(v) is float for v in parsed)
    assert parsed == [0.0, 1.0]
    assert math.copysign(1.0, parsed[0]) == -1.0


def test_model_round_trip(tmp_path):
    model = polygon_model(5)
    path = tmp_path / "model.json"
    path.write_text(dumps(model_to_dict(model)))
    loaded = load_model(path)
    assert loaded.dim == 3
    assert_allclose(loaded.state_gens, model.state_gens)
    assert_allclose(loaded.effect_gens, model.effect_gens)
    assert_allclose(loaded.unit_effect, model.unit_effect)


def test_ensemble_round_trip_inline_and_by_path(tmp_path):
    ensemble = uniform_vertex_ensemble(4)
    inline = ensemble_from_dict(json.loads(dumps(ensemble_to_dict(ensemble))))
    assert_allclose(inline.states, ensemble.states)

    model_path = tmp_path / "model.json"
    model_path.write_text(dumps(model_to_dict(ensemble.model)))
    ens_path = tmp_path / "ens.json"
    ens_path.write_text(
        json.dumps(
            {
                "model": "model.json",  # relative to the ensemble file
                "states": ensemble.states.tolist(),
                "priors": ensemble.priors.tolist(),
            }
        )
    )
    loaded = load_ensemble(ens_path)
    assert_allclose(loaded.priors, ensemble.priors)


def _reversed(ensemble: Ensemble) -> Ensemble:
    return Ensemble(model=ensemble.model, states=ensemble.states[::-1], priors=ensemble.priors[::-1])


@pytest.mark.parametrize(
    "ensemble",
    [
        uniform_vertex_ensemble(4),
        # Reversed, the mixture's degenerate pair ("d": null) comes first, so the stated d rows follow it.
        _reversed(no_measurement_ensemble(0.7)),
    ],
    ids=["square", "null-d-first"],
)
def test_solution_round_trip_preserves_certificate(ensemble):
    solution = solve_discrimination(ensemble)
    kkt, congruence = verify_kkt(ensemble, solution), congruence_check(solution)
    text = dumps(solution_to_dict(solution, kkt, congruence))
    rebuilt = solution_from_dict(json.loads(text), ensemble)
    assert rebuilt.p_guess == pytest.approx(solution.p_guess)
    assert_allclose(rebuilt.symmetry_operator, solution.symmetry_operator)
    assert verify_kkt(ensemble, rebuilt).passes(1e-9)
    assert dumps(solution_to_dict(rebuilt, kkt, congruence)) == text


def test_reports_render_from_their_own_fields():
    ensemble = uniform_vertex_ensemble(4)
    solution = solve_discrimination(ensemble)
    kkt = verify_kkt(ensemble, solution)
    payload = json.loads(dumps(solution_to_dict(solution, kkt, congruence_check(solution))))
    assert list(payload["kkt"]) == [field.name for field in dataclasses.fields(KktReport)]
    assert list(payload["geometry"]) == [field.name for field in dataclasses.fields(CongruenceReport)]
    assert payload["kkt"]["value_residual"] == 0
    assert [len(d) for d in payload["complementary_states"]] == [3] * 4  # one d per state, no weights


def test_malformed_model_rejected():
    with pytest.raises(InvalidInputError):
        model_from_dict({"dim": 3})
    with pytest.raises(InvalidInputError):
        model_from_dict({"dim": "three", "unit_effect": [0, 0, 1], "state_generators": [], "effect_generators": []})
    with pytest.raises(InvalidInputError):
        model_from_dict([1, 2, 3])


def test_unreadable_file_rejected(tmp_path):
    with pytest.raises(InvalidInputError):
        load_model(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidInputError):
        load_model(bad)


def test_dumps_is_deterministic():
    payload = {"a": [1.0, 2.0, 0.1], "b": {"c": True, "d": None}, "e": "text"}
    assert dumps(payload) == dumps(payload)
    parsed = json.loads(dumps(payload))
    assert parsed["a"][2] == 0.1
