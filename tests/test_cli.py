import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from gptdisc import Ensemble, GptModel, polygon_model
from gptdisc.cli import main
from gptdisc.errors import NumericalFailureError
from gptdisc.oracle import OracleResult
from gptdisc.polygon import uniform_vertex_ensemble
from gptdisc.serialize import dumps, ensemble_to_dict, model_to_dict

from families import hypercube_model, restricted_square_model


@pytest.fixture
def square_files(tmp_path):
    model_path = tmp_path / "square.json"
    model_path.write_text(dumps(model_to_dict(polygon_model(4))))
    model = json.loads(model_path.read_text())
    ensemble = {
        "model": str(model_path),
        "states": model["state_generators"],
        "priors": [0.25, 0.25, 0.25, 0.25],
    }
    ensemble_path = tmp_path / "square-uniform.json"
    ensemble_path.write_text(json.dumps(ensemble))
    return model_path, ensemble_path


def test_solve_square(square_files, capsys):
    _, ensemble_path = square_files
    assert main(["solve", str(ensemble_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_guess"] == pytest.approx(0.5, abs=1e-9)
    assert payload["kkt"]["measurement_residual"] <= 1e-9
    assert payload["geometry"]["max_residual"] <= 1e-9
    assert "oracle" not in payload


def test_solve_with_oracle_agreement(square_files, capsys):
    _, ensemble_path = square_files
    assert main(["solve", str(ensemble_path), "--oracle"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle"]["p_guess"] == pytest.approx(0.5, abs=1e-9)


def test_solve_triangle_inline_model(tmp_path, capsys):
    model = model_to_dict(polygon_model(3))
    ensemble = {
        "model": json.loads(dumps(model)),
        "states": json.loads(dumps(model))["state_generators"],
        "priors": [1 / 3, 1 / 3, 1 / 3],
    }
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(ensemble))
    assert main(["solve", str(path), "--oracle"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_guess"] == pytest.approx(1.0, abs=1e-9)
    assert payload["oracle"]["p_guess"] == pytest.approx(1.0, abs=1e-9)


def test_solve_rejects_bad_priors(tmp_path, capsys):
    model = model_to_dict(polygon_model(4))
    ensemble = {
        "model": json.loads(dumps(model)),
        "states": json.loads(dumps(model))["state_generators"][:2],
        "priors": [0.5, 0.6],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(ensemble))
    assert main(["solve", str(path)]) == 1
    assert "priors sum 1.1" in capsys.readouterr().err


def test_solve_missing_file_is_invalid_input(capsys):
    assert main(["solve", "/nonexistent/ens.json"]) == 1


@pytest.mark.parametrize("command", ["solve", "export-vertices"])
def test_file_that_is_not_utf8_exits_one_with_an_error_line(command, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main([command, str(path)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(path) in line


@pytest.mark.parametrize("dim", [3.0, True])
def test_model_file_with_a_non_integer_dim_exits_one(dim, square_files, capsys):
    model_path, ensemble_path = square_files
    model_path.write_text(json.dumps({**json.loads(model_path.read_text()), "dim": dim}))
    assert main(["solve", str(ensemble_path)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: dim must be an integer of at least 1, got {dim!r}"


def test_solve_numerical_failure_maps_to_exit_two(square_files, capsys, monkeypatch):
    _, ensemble_path = square_files

    def explode(*args, **kwargs):
        raise NumericalFailureError("injected")

    monkeypatch.setattr("gptdisc.cli.solve_discrimination", explode)
    assert main(["solve", str(ensemble_path)]) == 2


def test_a_failed_measurement_certificate_maps_to_exit_two(square_files, capsys, monkeypatch):
    # The model's phase-1 start comes from rows twice the model's, so the engine's own certificate check fails.
    import gptdisc.lp as lp

    _, ensemble_path = square_files
    monkeypatch.setattr("gptdisc.model.phase_one", lambda eq_matrix, eq_rhs: lp.phase_one(2.0 * eq_matrix, eq_rhs))
    assert main(["solve", str(ensemble_path)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("numerical failure: ") and "worst residual" in line


def test_solve_oracle_disagreement_maps_to_exit_three(square_files, capsys, monkeypatch):
    _, ensemble_path = square_files

    def bogus(ensemble):
        return OracleResult(p_guess=0.75, k=np.array([0.0, 0.0, 0.75]), vertices_examined=1)

    monkeypatch.setattr("gptdisc.cli.dual_vertex_enumeration", bogus)
    assert main(["solve", str(ensemble_path), "--oracle"]) == 3


@pytest.mark.parametrize("name", ["n3", "n4", "no-measurement"])
def test_demo_oracle_disagreement_maps_to_exit_three(name, capsys, monkeypatch):
    def bogus(ensemble):
        return OracleResult(p_guess=-1.0, k=np.zeros(3), vertices_examined=1)

    monkeypatch.setattr("gptdisc.cli.dual_vertex_enumeration", bogus)
    assert main(["demo", name]) == 3
    assert "oracle disagreement" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["solve", "{ensemble}", "--seed", "1"], id="solve-seed"),
        pytest.param(["solve", "{ensemble}", "--format", "json"], id="solve-format"),
        pytest.param(["verify", "{ensemble}", "{ensemble}", "--oracle"], id="verify-oracle"),
        pytest.param(["demo", "n3", "--oracle"], id="demo-oracle"),
        pytest.param(["demo", "n3", "--tol", "1e-6"], id="demo-tol"),
    ],
)
def test_removed_flags_are_rejected(square_files, argv, capsys):
    _, ensemble_path = square_files
    assert main([arg.format(ensemble=ensemble_path) for arg in argv]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_solve_oracle_past_its_size_bound_is_skipped(tmp_path, capsys):
    # 5 states on the order-13 polygon give 65 oracle constraints, over the bound of 60.
    model = polygon_model(13)
    ensemble = Ensemble(model=model, states=model.state_gens[:5], priors=np.full(5, 0.2))
    ensemble_path = tmp_path / "e13.json"
    ensemble_path.write_text(dumps(ensemble_to_dict(ensemble)))
    solution_path = tmp_path / "solution.json"
    assert main(["solve", str(ensemble_path), "--oracle", "--out", str(solution_path)]) == 0
    assert "warning: oracle skipped: 65 constraints exceed" in capsys.readouterr().err
    assert "oracle" not in json.loads(solution_path.read_text())
    assert main(["verify", str(ensemble_path), str(solution_path)]) == 0


def test_solve_oracle_with_no_vertex_is_skipped(tmp_path, capsys):
    # The square's states with the effect generator (0, 0, 1/2) given twice: valid, restricted, and no
    # three generators span the space, so the oracle's feasible set has no vertex.
    square = polygon_model(4)
    model = GptModel(dim=3, state_gens=square.state_gens, effect_gens=np.array([[0.0, 0.0, 0.5]] * 2), unit_effect=square.unit_effect)
    ensemble_path = tmp_path / "flat.json"
    ensemble_path.write_text(dumps(ensemble_to_dict(Ensemble(model=model, states=square.state_gens[:2], priors=[0.6, 0.4]))))
    solution_path = tmp_path / "solution.json"
    assert main(["solve", str(ensemble_path), "--oracle", "--out", str(solution_path)]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning: oracle")]
    assert warnings == ["warning: oracle skipped: no nonsingular subset of effect generators; no vertex exists"]
    payload = json.loads(solution_path.read_text())
    assert "oracle" not in payload
    assert payload["p_guess"] == pytest.approx(0.6, abs=1e-12)


def test_polygon_command_emits_model(tmp_path):
    out = tmp_path / "model.json"
    assert main(["polygon", "--n", "5", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["dim"] == 3
    assert len(data["state_generators"]) == 5
    assert len(data["effect_generators"]) == 5


def test_polygon_command_rejects_small_order(capsys):
    assert main(["polygon", "--n", "2"]) == 1


def test_demo_n3(capsys):
    assert main(["demo", "n3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_guess"] == pytest.approx(1.0, abs=1e-9)
    assert payload["oracle"]["p_guess"] == pytest.approx(1.0, abs=1e-9)


def test_demo_n4_reports_three_alternates(capsys):
    assert main(["demo", "n4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_guess"] == pytest.approx(0.5, abs=1e-9)
    assert len(payload["alternates"]) == 3
    assert all(alt["kkt"]["passed"] for alt in payload["alternates"])


def test_demo_no_measurement_csv_and_threshold(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert main(["demo", "no-measurement", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,p_guess,no_measurement_optimal"
    assert len(lines) == 22
    flags = [line.split(",")[2] == "true" for line in lines[1:]]
    assert flags == sorted(flags)
    assert "p* = 0.333333" in err
    assert "0.2" in err  # quantum-analogue threshold reported side by side


def test_demo_rejects_unknown_name(capsys):
    assert main(["demo", "n5"]) == 1


def test_verify_round_trip(square_files, tmp_path, capsys):
    _, ensemble_path = square_files
    solution_path = tmp_path / "solution.json"
    assert main(["solve", str(ensemble_path), "--out", str(solution_path)]) == 0
    assert main(["verify", str(ensemble_path), str(solution_path)]) == 0


def test_verify_writes_its_verdict_to_out(square_files, tmp_path, capsys):
    _, ensemble_path = square_files
    solution_path = tmp_path / "solution.json"
    assert main(["solve", str(ensemble_path), "--out", str(solution_path)]) == 0
    verdict_path = tmp_path / "verdict.txt"
    assert main(["verify", str(ensemble_path), str(solution_path), "--out", str(verdict_path)]) == 0
    assert verdict_path.read_text() == "verification passed\n"
    assert capsys.readouterr().out == ""
    assert main(["verify", str(ensemble_path), str(solution_path)]) == 0
    assert capsys.readouterr().out == "verification passed\n"


def test_verify_accepts_file_with_old_top_level_gap(square_files, tmp_path, capsys):
    # Files written before the duplicate top-level "gap" key was dropped still verify.
    _, ensemble_path = square_files
    solution_path = tmp_path / "solution.json"
    assert main(["solve", str(ensemble_path), "--out", str(solution_path)]) == 0
    data = json.loads(solution_path.read_text())
    assert "gap" not in data
    data["gap"] = data["kkt"]["gap"]
    old_path = tmp_path / "old.json"
    old_path.write_text(json.dumps(data))
    assert main(["verify", str(ensemble_path), str(old_path)]) == 0
    assert capsys.readouterr().out.endswith("verification passed\n")


def test_verify_tampered_k_exit_four(square_files, tmp_path, capsys):
    _, ensemble_path = square_files
    solution_path = tmp_path / "solution.json"
    assert main(["solve", str(ensemble_path), "--out", str(solution_path)]) == 0
    data = json.loads(solution_path.read_text())
    data["K"][2] += 0.1
    tampered_path = tmp_path / "tampered.json"
    tampered_path.write_text(json.dumps(data))
    assert main(["verify", str(ensemble_path), str(tampered_path)]) == 4
    assert "0.1" in capsys.readouterr().err


def test_verify_tampered_p_guess_exit_four(square_files, tmp_path, capsys):
    _, ensemble_path = square_files
    solution_path = tmp_path / "solution.json"
    assert main(["solve", str(ensemble_path), "--out", str(solution_path)]) == 0
    data = json.loads(solution_path.read_text())
    assert data["p_guess"] == pytest.approx(0.5, abs=1e-12)
    data["p_guess"] = 0.9
    tampered_path = tmp_path / "tampered.json"
    tampered_path.write_text(json.dumps(data))
    assert main(["verify", str(ensemble_path), str(tampered_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("verification failed: ")
    assert "KKT check failed: value_residual 0.4" in err


def test_verify_halved_complementary_states_exit_four(square_files, tmp_path, capsys):
    # r_x = 1/4 is read off K, so each halved d leaves r_x d_x / 2 of v_x unexplained.
    _, ensemble_path = square_files
    solution_path = tmp_path / "solution.json"
    assert main(["solve", str(ensemble_path), "--out", str(solution_path)]) == 0
    data = json.loads(solution_path.read_text())
    data["complementary_states"] = [[v / 2.0 for v in d] for d in data["complementary_states"]]
    tampered_path = tmp_path / "tampered.json"
    tampered_path.write_text(json.dumps(data))
    assert main(["verify", str(ensemble_path), str(tampered_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("verification failed: ")
    assert "KKT check failed: stability_residuals" in err


def test_verify_rejects_a_file_that_states_the_weights(square_files, tmp_path, capsys):
    # The previous schema stated {"r": r_x, "d": d_x} pairs under "complementary"; no reader accepts it.
    ensemble_path, solution_path, data = _square_solution(square_files, tmp_path)
    d = data.pop("complementary_states")
    data["complementary"] = [{"r": 0.25, "d": row} for row in d]
    solution_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(ensemble_path), str(solution_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: solution is missing required field 'complementary_states'"
    ]


def test_verify_rejects_complementary_state_of_wrong_length(square_files, tmp_path):
    _, ensemble_path = square_files
    solution_path = tmp_path / "solution.json"
    assert main(["solve", str(ensemble_path), "--out", str(solution_path)]) == 0
    data = json.loads(solution_path.read_text())
    data["complementary_states"][0] = [0.5, 1.0]
    malformed_path = tmp_path / "malformed.json"
    malformed_path.write_text(json.dumps(data))
    proc = subprocess.run(
        [sys.executable, "-m", "gptdisc", "verify", str(ensemble_path), str(malformed_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "ensemble, tamper",
    [
        pytest.param(uniform_vertex_ensemble(4), lambda data: data.update(p_guess=float("nan")), id="nan-p-guess"),
        pytest.param(uniform_vertex_ensemble(4), lambda data: data.update(complementary_states=5),
                     id="complementary-not-list"),
        pytest.param(uniform_vertex_ensemble(4), lambda data: [row.pop() for row in data["support"]],
                     id="measurement-missing-row"),
    ],
)
def test_verify_rejects_malformed_solution_numbers(ensemble, tamper, tmp_path):
    ensemble_path = tmp_path / "ensemble.json"
    ensemble_path.write_text(dumps(ensemble_to_dict(ensemble)))
    solution_path = tmp_path / "solution.json"
    assert main(["solve", str(ensemble_path), "--out", str(solution_path)]) == 0
    data = json.loads(solution_path.read_text())
    tamper(data)
    solution_path.write_text(json.dumps(data))
    proc = subprocess.run(
        [sys.executable, "-m", "gptdisc", "verify", str(ensemble_path), str(solution_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_solve_warns_once_about_restricted_effects(tmp_path, capsys):
    square = polygon_model(4)
    model = GptModel(
        dim=3, state_gens=square.state_gens, effect_gens=[[0.0, 0.0, 1.0]], unit_effect=square.unit_effect
    )
    ensemble = Ensemble(model=model, states=square.state_gens[:2], priors=[0.7, 0.3])
    ensemble_path = tmp_path / "restricted.json"
    ensemble_path.write_text(dumps(ensemble_to_dict(ensemble)))
    solution_path = tmp_path / "solution.json"
    assert main(["solve", str(ensemble_path), "--out", str(solution_path)]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert len([line for line in warnings if "restricted" in line]) == 1
    # The certificate the solver writes for a restricted model verifies.
    assert main(["verify", str(ensemble_path), str(solution_path)]) == 0


def test_solve_past_the_dual_cone_cap_exits_one_with_an_error_line(tmp_path, capsys, monkeypatch):
    model = restricted_square_model()  # a restricted 12-gon effect cone on the square's states
    ensemble_path = tmp_path / "restricted.json"
    ensemble_path.write_text(dumps(ensemble_to_dict(Ensemble(model=model, states=model.state_gens[:2], priors=[0.5, 0.5]))))
    polygon_path = tmp_path / "polygon.json"  # the order-12 polygon: twelve state generators
    polygon_path.write_text(dumps(ensemble_to_dict(uniform_vertex_ensemble(12))))
    cube = hypercube_model(3)  # eight state generators; its square facets fail the certificate
    cube_path = tmp_path / "cube.json"
    cube_path.write_text(dumps(ensemble_to_dict(Ensemble(model=cube, states=cube.state_gens, priors=np.full(8, 0.125)))))
    # The square's state dual stays under 10 entries, and no path dualizes the twelve effect generators.
    monkeypatch.setattr("gptdisc.cone.MAX_DUAL_ENTRIES", 10)
    assert main(["solve", str(ensemble_path), "--oracle"]) == 0
    # The effect generators certify the 12-gon's state facets, so no double description runs.
    assert main(["solve", str(polygon_path), "--oracle"]) == 0
    capsys.readouterr()
    # The cube's state dual does not stay under the cap.
    assert main(["solve", str(cube_path), "--oracle"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1  # no "oracle skipped" warning
    assert lines[0] == "error: dual cone product has 15 entries, over MAX_DUAL_ENTRIES = 10 at cut 7 of 8"


def _square_solution(square_files, tmp_path):
    _, ensemble_path = square_files
    solution_path = tmp_path / "solution.json"
    assert main(["solve", str(ensemble_path), "--out", str(solution_path)]) == 0
    return ensemble_path, solution_path, json.loads(solution_path.read_text())


def test_verify_ignores_a_kkt_block_with_verdict_fields(square_files, tmp_path):
    # Older solution files state positivity and effect membership as booleans; verify recomputes the report.
    ensemble_path, solution_path, data = _square_solution(square_files, tmp_path)
    kkt = data["kkt"]
    kkt["positivity_ok"] = [residual <= 1e-9 for residual in kkt.pop("positivity_residuals")]
    kkt["effects_in_cone"] = [residual <= 1e-9 for residual in kkt.pop("effect_residuals")]
    solution_path.write_text(json.dumps(data))
    assert main(["verify", str(ensemble_path), str(solution_path)]) == 0


@pytest.mark.parametrize("order", [3, 4, 8])
def test_solution_residuals_hold_no_negative_zero(tmp_path, order):
    # Both residuals are 0.0 minus a row minimum that is often -0.0 or 0.0; negating that minimum would write -0.0.
    ensemble_path = tmp_path / "ensemble.json"
    ensemble_path.write_text(dumps(ensemble_to_dict(uniform_vertex_ensemble(order))))
    solution_path = tmp_path / "solution.json"
    assert main(["solve", str(ensemble_path), "--out", str(solution_path)]) == 0
    kkt = json.loads(solution_path.read_text())["kkt"]
    for field in ("positivity_residuals", "effect_residuals"):
        assert all(math.copysign(1.0, residual) == 1.0 for residual in kkt[field]), field


def test_verify_accepts_two_outcome_alternative(square_files, tmp_path):
    ensemble_path, _, data = _square_solution(square_files, tmp_path)
    data["support"] = [[0, 0, 1.0], [2, 2, 1.0]]  # effects f0, 0, f2, 0
    alt_path = tmp_path / "alternative.json"
    alt_path.write_text(json.dumps(data))
    assert main(["verify", str(ensemble_path), str(alt_path)]) == 0


def test_verify_fails_on_a_negative_coefficient(square_files, tmp_path, capsys):
    ensemble_path, solution_path, data = _square_solution(square_files, tmp_path)
    # f0 pays w0 and w3 alike, so moving 2 f0 from outcome 3 to outcome 0 keeps the completeness sum, the value and
    # every row's slackness, but its coefficient -2 is no certificate.  Outcome 0 already states (0, 0, c), which
    # takes the 2; outcome 3 gains the row (3, 0, -2).
    pairs = [row[:2] for row in data["support"]]
    assert [0, 0] in pairs and [3, 0] not in pairs
    data["support"][pairs.index([0, 0])][2] += 2.0
    data["support"].append([3, 0, -2.0])
    solution_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(ensemble_path), str(solution_path)]) == 4
    assert capsys.readouterr().err == "verification failed: KKT check failed: effect_residuals 2\n"


def test_verify_rejects_a_negative_coefficient_split_over_repeated_rows(square_files, tmp_path, capsys):
    # Stated as 2,000 rows of -1e-3, the -2 of the move above would leave every row's effect residual within
    # --tol 1e-3, so a pair may be stated only once.
    ensemble_path, solution_path, data = _square_solution(square_files, tmp_path)
    pairs = [row[:2] for row in data["support"]]
    data["support"][pairs.index([0, 0])][2] += 2.0
    data["support"] += [[3, 0, -1e-3]] * 2_000
    solution_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(ensemble_path), str(solution_path), "--tol", "1e-3"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: solution support must state each (outcome, generator) pair once"
    ]


@pytest.mark.parametrize("effects_as", ["coefficients", "measurement", "support"])
def test_verify_rejects_a_measurement_stated_as_effects(effects_as, square_files, tmp_path, capsys):
    # The square has g = 4 effect generators in d = 3.  Files of the older schemas, N x g coefficients under
    # "coefficients" or N x d effects under "measurement", exit 1 on the missing support; effects stated as
    # support rows, which are 3 wide here, exit 1 on their outcome indices.
    ensemble_path, solution_path, data = _square_solution(square_files, tmp_path)
    coefficients = np.zeros((4, 4))
    for x, j, c in data.pop("support"):
        coefficients[x, j] += c
    effects = coefficients @ polygon_model(4).effect_gens
    data[effects_as] = (coefficients if effects_as == "coefficients" else effects).tolist()
    solution_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(ensemble_path), str(solution_path)]) == 1
    expected = {
        "coefficients": "error: solution is missing required field 'support'",
        "measurement": "error: solution is missing required field 'support'",
        "support": "error: solution support outcome indices must be integers in [0, 4)",
    }
    assert capsys.readouterr().err.splitlines() == [expected[effects_as]]


def _set_first_state(value):
    return lambda data: data["complementary_states"].__setitem__(0, value)


def _set_support(row, column, value):
    return lambda data: data["support"][row].__setitem__(column, value)


@pytest.mark.parametrize(
    "tamper, field",
    [
        pytest.param(lambda data: data.update(p_guess="0.5"), "p_guess", id="p-guess-string"),
        pytest.param(lambda data: data.update(p_guess=float("nan")), "p_guess", id="p-guess-nan"),
        pytest.param(lambda data: data.update(K=data["K"][:2]), "solution K", id="k-short"),
        pytest.param(lambda data: data["K"].__setitem__(0, float("nan")), "solution K", id="k-nan"),
        pytest.param(lambda data: data.update(complementary_states={}), "'complementary_states'",
                     id="complementary-object"),
        pytest.param(_set_first_state(0.25), "complementary states d", id="pair-number"),
        pytest.param(_set_first_state("abc"), "complementary states d", id="d-string"),
        pytest.param(_set_first_state([0.5, 1.0]), "complementary states d", id="d-short"),
        pytest.param(_set_first_state(True), "complementary states d", id="d-true"),
        pytest.param(_set_first_state(float("nan")), "complementary states d", id="d-nan"),
        pytest.param(lambda data: data["complementary_states"][0].__setitem__(0, float("nan")),
                     "complementary states d", id="d-entry-nan"),
        pytest.param(lambda data: data["complementary_states"].pop(), "complementary pair", id="three-pairs"),
        pytest.param(lambda data: data["complementary_states"].append(data["complementary_states"][0]),
                     "complementary pair", id="five-pairs"),
        pytest.param(lambda data: data["support"][0].pop(), "solution support", id="support-ragged"),
        pytest.param(_set_support(0, 2, float("nan")), "solution support", id="support-nan"),
        pytest.param(_set_support(0, 2, True), "solution support", id="support-true"),
        pytest.param(_set_support(0, 2, "0.5"), "solution support", id="support-string"),
        pytest.param(lambda data: data.update(support=[row[:2] for row in data["support"]]), "solution support",
                     id="support-pairs"),
        pytest.param(_set_support(0, 0, 0.5), "solution support outcome", id="support-x-half"),
        pytest.param(_set_support(0, 0, -1), "solution support outcome", id="support-x-negative"),
        pytest.param(_set_support(0, 0, 4), "solution support outcome", id="support-x-past-n"),
        pytest.param(_set_support(0, 1, 1.5), "solution support generator", id="support-j-half"),
        pytest.param(_set_support(0, 1, -1), "solution support generator", id="support-j-negative"),
        pytest.param(_set_support(0, 1, 4), "solution support generator", id="support-j-past-g"),
        pytest.param(lambda data: data.update(support=[]), "solution support", id="support-empty"),
        pytest.param(lambda data: data["support"].append(data["support"][-1]), "solution support", id="support-repeat"),
    ],
)
def test_verify_names_the_malformed_solution_field(tamper, field, square_files, tmp_path, capsys):
    ensemble_path, solution_path, data = _square_solution(square_files, tmp_path)
    tamper(data)
    solution_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(ensemble_path), str(solution_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("error: ") and field in line


def test_export_vertices_counts(tmp_path):
    model_path = tmp_path / "m.json"
    for order, rows in ((3, 6), (4, 8), (5, 10)):
        assert main(["polygon", "--n", str(order), "--out", str(model_path)]) == 0
        out = tmp_path / f"v{order}.csv"
        assert main(["export-vertices", str(model_path), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "kind,index,x,y,z"
        assert len(lines) == rows + 1


def test_export_vertices_square_effect_height(tmp_path):
    model_path = tmp_path / "m4.json"
    assert main(["polygon", "--n", "4", "--out", str(model_path)]) == 0
    out = tmp_path / "v4.csv"
    assert main(["export-vertices", str(model_path), "--out", str(out)]) == 0
    for line in out.read_text().strip().splitlines()[1:]:
        kind, _, _, _, z = line.split(",")
        if kind == "effect":
            assert float(z) == pytest.approx(0.5, abs=1e-12)


def test_byte_deterministic_output(square_files, tmp_path):
    _, ensemble_path = square_files
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["solve", str(ensemble_path), "--oracle", "--out", str(first)]) == 0
    assert main(["solve", str(ensemble_path), "--oracle", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_stdin_dash_input(square_files, capsys, monkeypatch):
    model_path, _ = square_files
    model = json.loads(model_path.read_text())
    ensemble = {
        "model": model,
        "states": model["state_generators"],
        "priors": [0.25, 0.25, 0.25, 0.25],
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(ensemble)))
    assert main(["solve", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_guess"] == pytest.approx(0.5, abs=1e-9)


def test_tolerance_bounds_enforced(square_files, capsys):
    _, ensemble_path = square_files
    assert main(["solve", str(ensemble_path), "--tol", "0.5"]) == 1
    assert main(["solve", str(ensemble_path), "--tol", "-1e-9"]) == 1
    # A NaN tolerance fails every comparison, so a valid model would be reported as invalid.
    capsys.readouterr()
    for command in (["solve", str(ensemble_path)], ["verify", str(ensemble_path), str(ensemble_path)]):
        for value in ("nan", "inf"):
            assert main([*command, "--tol", value]) == 1
            assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing-dir/model.json", "."], ids=["missing-directory", "is-a-directory"])
def test_write_failure_is_invalid_input(tmp_path, target):
    proc = subprocess.run(
        [sys.executable, "-m", "gptdisc", "polygon", "--n", "4", "--out", str(tmp_path / target)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([], id="no-command"),
        pytest.param(["bogus"], id="unknown-command"),
        pytest.param(["solve"], id="missing-positional"),
        pytest.param(["polygon"], id="missing-n"),
        pytest.param(["polygon", "--n", "x"], id="n-not-int"),
        pytest.param(["demo"], id="demo-without-name"),
        pytest.param(["polygon", "--n", "4", "--ou", "-"], id="option-prefix"),
        pytest.param(["demo", "n3", "extra"], id="extra-positional"),
    ],
)
def test_usage_errors_exit_one_with_error_line(argv):
    proc = subprocess.run([sys.executable, "-m", "gptdisc", *argv], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]], ids=["top", "solve"])
def test_help_exits_zero_with_usage_on_stdout(argv, capsys):
    assert main(argv) == 0
    assert "usage:" in capsys.readouterr().out.lower()


def test_cli_import_leaves_click_unloaded():
    code = "import sys, gptdisc.cli; print('click' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_script_subprocess(square_files):
    _, ensemble_path = square_files
    proc = subprocess.run(
        [sys.executable, "-m", "gptdisc", "solve", str(ensemble_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p_guess"] == pytest.approx(0.5, abs=1e-9)
