import io
import json
import subprocess
import sys

import numpy as np
import pytest

from gptdisc import Ensemble, GptModel, polygon_model
from gptdisc.cli import main
from gptdisc.errors import NumericalFailureError
from gptdisc.oracle import OracleResult
from gptdisc.polygon import no_measurement_ensemble, uniform_vertex_ensemble
from gptdisc.serialize import dumps, ensemble_to_dict, model_to_dict


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


def test_solve_numerical_failure_maps_to_exit_two(square_files, capsys, monkeypatch):
    _, ensemble_path = square_files

    def explode(*args, **kwargs):
        raise NumericalFailureError("injected")

    monkeypatch.setattr("gptdisc.cli.solve_discrimination", explode)
    assert main(["solve", str(ensemble_path)]) == 2


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
    assert "No such option" in capsys.readouterr().err


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
    assert "p_guess 0.9" in err


def test_verify_rescaled_complementary_weights_exit_four(square_files, tmp_path, capsys):
    # (2 r, d / 2) keeps every product r_x d_x, so only the weights themselves can expose it.
    _, ensemble_path = square_files
    solution_path = tmp_path / "solution.json"
    assert main(["solve", str(ensemble_path), "--out", str(solution_path)]) == 0
    data = json.loads(solution_path.read_text())
    for pair in data["complementary"]:
        pair["r"] *= 2.0
        pair["d"] = [v / 2.0 for v in pair["d"]]
    tampered_path = tmp_path / "tampered.json"
    tampered_path.write_text(json.dumps(data))
    assert main(["verify", str(ensemble_path), str(tampered_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("verification failed: ")
    assert "complementary weights" in err


def test_verify_rejects_complementary_state_of_wrong_length(square_files, tmp_path):
    _, ensemble_path = square_files
    solution_path = tmp_path / "solution.json"
    assert main(["solve", str(ensemble_path), "--out", str(solution_path)]) == 0
    data = json.loads(solution_path.read_text())
    data["complementary"][0]["d"] = [0.5, 1.0]
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


def _nan_weight_on_degenerate_pair(data):
    pair = next(pair for pair in data["complementary"] if pair["d"] is None)
    pair["r"] = float("nan")


@pytest.mark.parametrize(
    "ensemble, tamper",
    [
        pytest.param(uniform_vertex_ensemble(4), lambda data: data.update(p_guess=float("nan")), id="nan-p-guess"),
        # At p = 0.5 the mixture's pair is degenerate (d is null): its r is the only number it states.
        pytest.param(no_measurement_ensemble(0.5), _nan_weight_on_degenerate_pair, id="nan-r-degenerate"),
        pytest.param(uniform_vertex_ensemble(4), lambda data: data.update(complementary=5), id="complementary-not-list"),
        pytest.param(uniform_vertex_ensemble(4), lambda data: data["measurement"].pop(), id="measurement-missing-row"),
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


def test_verify_accepts_two_outcome_alternative(square_files, tmp_path, capsys):
    _, ensemble_path = square_files
    solution_path = tmp_path / "solution.json"
    assert main(["solve", str(ensemble_path), "--out", str(solution_path)]) == 0
    data = json.loads(solution_path.read_text())
    model = polygon_model(4)
    f = model.effect_gens
    zeros = [0.0, 0.0, 0.0]
    data["measurement"] = [list(f[0]), zeros, list(f[2]), zeros]
    alt_path = tmp_path / "alternative.json"
    alt_path.write_text(json.dumps(data))
    assert main(["verify", str(ensemble_path), str(alt_path)]) == 0


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
