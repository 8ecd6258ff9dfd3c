"""End-to-end checks of the command line, run as ``python -m gptdisc`` subprocesses on the imported package.

The module fixture writes the input files, then runs both demos and every
``solve`` and ``verify`` that must exit 0, at ``PYTHONHASHSEED`` 0 and 1
where the outputs must be byte-identical across hash seeds.  Each test then
checks one property of what was written: that byte identity, the p = 0.7
mixture's ``null`` complementary state, the library's warm and owned
solutions against the command's, the oracle blocks, strict JSON and the
support's size, or the exit code and error line of an altered or invalid
file.  One test solves and verifies an order-1,024 polygon of its own.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gptdisc
from gptdisc import Ensemble, GptModel, congruence_check, solve_discrimination, validate_ensemble, verify_kkt
from gptdisc.errors import InvalidInputError
from gptdisc.oracle import dual_vertex_enumeration
from gptdisc.polygon import no_measurement_ensemble, uniform_vertex_ensemble
from gptdisc.serialize import dumps, ensemble_to_dict, load_ensemble, solution_to_dict

from families import hypercube_model, restricted_square_model, square_with_effect_zero_scaled

SRC = str(Path(gptdisc.__file__).parents[1])


def run(*args, seed: str | None = None, code: int = 0) -> str:
    """Run ``python -m gptdisc *args`` on the package this process imported, check its exit code and return its stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    if seed is not None:
        env["PYTHONHASHSEED"] = seed
    result = subprocess.run([sys.executable, "-m", "gptdisc", *map(str, args)], env=env, capture_output=True, text=True)
    assert result.returncode == code, result.stderr
    return result.stderr


def write_ensemble(path: Path, model: GptModel, states, priors) -> None:
    path.write_text(dumps(ensemble_to_dict(Ensemble(model=model, states=states, priors=priors))))


def write_uniform(model_path: Path, path: Path) -> None:
    """An ensemble file of every state generator of the model file at ``model_path``, with uniform priors."""
    model = json.loads(model_path.read_text())
    n = len(model["state_generators"])
    path.write_text(json.dumps({"model": model, "states": model["state_generators"], "priors": [1 / n] * n}))


@pytest.fixture(scope="module")
def out(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("ci")
    run("polygon", "--n", 5, "--out", out / "pentagon.json")
    write_uniform(out / "pentagon.json", out / "pentagon-uniform.json")
    # The order-256 polygon with uniform priors: its measurement LP takes 130 pivots.
    run("polygon", "--n", 256, "--out", out / "polygon256.json")
    write_uniform(out / "polygon256.json", out / "uniform256.json")
    restricted = restricted_square_model()
    write_ensemble(out / "restricted.json", restricted, restricted.state_gens, [0.1, 0.2, 0.3, 0.4])
    # The 3-cube: its square facets fail the facet certificate, so its state cone takes the double description.
    cube = hypercube_model(3)
    write_ensemble(out / "cube.json", cube, cube.state_gens, [0.125] * 8)
    # The no-measurement mixture at p = 0.7: its pair on the mixture is degenerate.
    (out / "mixture.json").write_text(dumps(ensemble_to_dict(no_measurement_ensemble(0.7))))
    for seed in ("0", "1"):
        run("demo", "n4", "--out", out / f"n4-{seed}.json", seed=seed)
        run("demo", "no-measurement", "--out", out / f"no-measurement-{seed}.csv", seed=seed)
        run("solve", "--oracle", out / "pentagon-uniform.json", "--out", out / f"pentagon-{seed}.solution.json", seed=seed)
        for case in ("restricted", "cube", "mixture"):
            run("solve", "--oracle", out / f"{case}.json", "--out", out / f"{case}-{seed}.solution.json", seed=seed)
            run("verify", out / f"{case}.json", out / f"{case}-{seed}.solution.json", seed=seed)
        run("solve", out / "uniform256.json", "--out", out / f"uniform256-{seed}.solution.json", seed=seed)
    # The oracle solves each generator subset once, in one stacked solve: five mixed states on the order-12 polygon
    # (60 constraints, the bound) and seven on the 4-cube (d = 5, 56 constraints, C(8, 5) = 56 subsets) run it too.
    run("polygon", "--n", 12, "--out", out / "polygon12.json")
    model = json.loads((out / "polygon12.json").read_text())
    w = np.random.default_rng(0).random((5, 12))
    w /= w.sum(axis=1, keepdims=True)
    states = (w @ np.array(model["state_generators"])).tolist()
    (out / "mixed12.json").write_text(json.dumps({"model": model, "states": states, "priors": [0.1, 0.15, 0.2, 0.25, 0.3]}))
    cube4 = hypercube_model(4)
    w = np.random.default_rng(0).random((7, 16))
    w /= w.sum(axis=1, keepdims=True)
    write_ensemble(out / "cube4.json", cube4, w @ cube4.state_gens, np.arange(1.0, 8.0) / 28)
    for case in ("mixed12", "cube4"):
        run("solve", "--oracle", out / f"{case}.json", "--out", out / f"{case}.solution.json")
        run("verify", out / f"{case}.json", out / f"{case}.solution.json")
    run("verify", out / "pentagon-uniform.json", out / "pentagon-0.solution.json")
    run("verify", out / "uniform256.json", out / "uniform256-0.solution.json")
    return out


@pytest.mark.parametrize(
    "name", ["n4-{}.json", "no-measurement-{}.csv"]
    + [f"{case}-{{}}.solution.json" for case in ("pentagon", "restricted", "cube", "uniform256", "mixture")]
)
def test_output_is_byte_identical_across_hash_seeds(out, name):
    assert (out / name.format(0)).read_bytes() == (out / name.format(1)).read_bytes()


def test_the_mixture_states_a_null_complementary_state(out):
    assert None in json.loads((out / "mixture-0.solution.json").read_text())["complementary_states"]


@pytest.mark.parametrize("case, oracle", [("uniform256", False), ("cube", True), ("restricted", True)])
def test_a_warm_model_and_ensemble_give_the_commands_solution(out, case, oracle):
    # A model that has solved an ensemble of other priors keeps its phase-1 start, and an ensemble that has been
    # validated, solved and checked keeps its verdict and scaled states; its next solution is the command's cold one,
    # byte for byte.  The restricted model's validation also solves feasibility_gap's LP, so both callers of solve_lp
    # run here, warm and cold.
    e = load_ensemble(out / f"{case}.json")
    w = np.arange(1.0, e.n_states + 1)
    solve_discrimination(Ensemble(model=e.model, states=e.states, priors=w / w.sum()))
    assert validate_ensemble(e).valid
    first = solve_discrimination(e)
    verify_kkt(e, first)
    congruence_check(first)
    s = solve_discrimination(e)
    o = dual_vertex_enumeration(e) if oracle else None
    warm = out / f"{case}-warm.solution.json"
    warm.write_text(dumps(solution_to_dict(s, verify_kkt(e, s), congruence_check(s), o)))
    assert warm.read_bytes() == (out / f"{case}-0.solution.json").read_bytes()


def test_uniform_vertex_ensemble_gives_the_commands_solution(out):
    # uniform_vertex_ensemble(5) builds its model, ensemble and solution without the entry checks that the command's
    # file records pass through; its solution file is the command's, byte for byte.
    e = uniform_vertex_ensemble(5)
    s = solve_discrimination(e)
    owned = out / "pentagon-owned.solution.json"
    owned.write_text(dumps(solution_to_dict(s, verify_kkt(e, s), congruence_check(s), dual_vertex_enumeration(e))))
    assert owned.read_bytes() == (out / "pentagon-0.solution.json").read_bytes()


@pytest.mark.parametrize("case", ["cube-0", "mixed12", "cube4"])
def test_an_oracle_solution_carries_its_oracle_block(out, case):
    # A skipped oracle writes no oracle block, so each --oracle solution must carry one.
    assert "oracle" in json.loads((out / f"{case}.solution.json").read_text())


def altered_pentagon_solution(out: Path, name: str, alter) -> Path:
    """The pentagon's seed-0 solution after ``alter(data)``, written as ``altered/pentagon-<name>.solution.json``."""
    data = json.loads((out / "pentagon-0.solution.json").read_text())
    alter(data)
    (out / "altered").mkdir(exist_ok=True)
    path = out / "altered" / f"pentagon-{name}.solution.json"
    path.write_text(json.dumps(data))
    return path


def test_a_tampered_p_guess_fails_verification_on_the_value_residual(out):
    # A p_guess moved by 1e-6 fails verification with exit 4, and the KKT failure line names value_residual.
    def tamper(s):
        s["p_guess"] += 1e-6

    err = run("verify", out / "pentagon-uniform.json", altered_pentagon_solution(out, "tampered", tamper), code=4)
    assert "value_residual" in err


def test_swapped_complementary_states_fail_verification_on_both_checks(out):
    # Pairs 0 and 1 stating each other's d fail with exit 4, on both the KKT stability residuals and the congruence residual.
    def swap(s):
        c = s["complementary_states"]
        c[0], c[1] = c[1], c[0]

    err = run("verify", out / "pentagon-uniform.json", altered_pentagon_solution(out, "swapped", swap), code=4)
    assert "stability_residuals" in err and "congruence residual" in err


def test_a_solution_in_the_previous_schema_exits_one_on_the_missing_field(out):
    # Files in the previous schemas state no support: N x g "coefficients", N x d effects under "measurement", and
    # N x g "coefficients" with {"r", "d"} pairs under "complementary".  Each exits 1 on the one missing field.
    gens = np.array(json.loads((out / "pentagon.json").read_text())["effect_generators"])

    def dense(s):
        coefficients = np.zeros((5, len(gens)))
        for x, j, c in s.pop("support"):
            coefficients[x, j] += c
        return coefficients

    def coefficients(s):
        s["coefficients"] = dense(s).tolist()

    def measurement(s):
        s["measurement"] = (dense(s) @ gens).tolist()

    def pairs(s):
        coefficients(s)
        s["complementary"] = [{"r": s["p_guess"] - 0.2, "d": d} for d in s.pop("complementary_states")]

    for downgrade in (coefficients, measurement, pairs):
        path = altered_pentagon_solution(out, downgrade.__name__, downgrade)
        err = run("verify", out / "pentagon-uniform.json", path, code=1)
        assert err.rstrip("\n") == "error: solution is missing required field 'support'", downgrade.__name__


def test_every_written_file_is_strict_json_with_no_negative_coefficient(out):
    # NaN and Infinity are not JSON tokens.  Every solution, and every alternate of the n4 demo, states a nonempty
    # support of [x, j, c] rows with x and j JSON integers and no negative or -0.0 coefficient c.
    def refuse(token):
        raise AssertionError(f"{token} is not JSON")

    supports = []
    for path in sorted(out.glob("*.json")):
        data = json.loads(path.read_text(), parse_constant=refuse)
        if isinstance(data, dict) and "p_guess" in data:
            supports += [(path.name, data["support"])]
            supports += [(f"{path.name} {alt['name']}", alt["support"]) for alt in data.get("alternates", [])]
    assert len(supports) >= 20  # the fixture's 14 solution files, 2 of them n4 demos with 3 alternates each
    for name, support in supports:
        assert support, name
        for x, j, c in support:
            assert type(x) is int and type(j) is int, name
            assert type(c) is float and math.copysign(1.0, c) > 0, name


@pytest.mark.parametrize("seed", ["0", "1"])
def test_an_order_256_solution_states_at_most_three_rows_in_under_40_kb(out, seed):
    # The measurement LP has d = 3 rows, so a basic optimum states at most 3 positive coefficients.
    path = out / f"uniform256-{seed}.solution.json"
    assert len(json.loads(path.read_text())["support"]) <= 3
    assert path.stat().st_size < 40_000


def test_an_order_1024_polygon_solves_and_verifies_in_under_150_kb(tmp_path):
    run("polygon", "--n", 1024, "--out", tmp_path / "polygon1024.json")
    write_uniform(tmp_path / "polygon1024.json", tmp_path / "uniform1024.json")
    run("solve", tmp_path / "uniform1024.json", "--out", tmp_path / "uniform1024.solution.json")
    run("verify", tmp_path / "uniform1024.json", tmp_path / "uniform1024.solution.json")
    assert (tmp_path / "uniform1024.solution.json").stat().st_size < 150_000


def test_a_scaled_effect_generator_is_rejected_by_the_command_and_the_library(tmp_path):
    # The square with effect generator 0 scaled by 1.5: its measurement LP solves, but the model is invalid,
    # so both the command and a library call reject it with the validation text.
    model = square_with_effect_zero_scaled(1.5)
    path = tmp_path / "scaled.json"
    write_ensemble(path, model, model.state_gens, [0.25] * 4)
    issue = "effect generator 0 exceeds 1 on state generator 0, value 1.5"
    assert run("solve", path, code=1).rstrip("\n") == f"error: {issue}"
    with pytest.raises(InvalidInputError) as raised:
        solve_discrimination(load_ensemble(path))
    assert f"{raised.type.__module__}.{raised.type.__qualname__}" == "gptdisc.errors.InvalidInputError"
    assert str(raised.value) == issue
