"""Self-tests of the benchmark harness on tiny workloads.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

import gptdisc  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def tiny_polygon():
    return run.PolygonUniform(seed=0, orders=range(3, 6))


def declared(kind):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def emitted(workload, trace, workdir):
    measurement, values, counts = run.benchmark(workload, 0.0, trace, 0.1, workdir)
    units = run.spans.PER_LAYER if trace else run.END_TO_END
    result = run.report(workload.name, 0, trace, measurement, values, counts, units, {})
    return result


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass_emits_exactly_the_declared_metrics(trace, tmp_path):
    result = emitted(tiny_polygon(), trace, tmp_path)
    kind = "per_layer" if trace else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared(kind)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_cli_pass_emits_exactly_the_declared_metrics(trace, tmp_path):
    result = emitted(run.Cli(seed=0, workdir=tmp_path, sizes=((4, 3),)), trace, tmp_path)
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == set(declared(kind))
    assert result["correct"]
    if trace:
        # Two solves validate the ensemble twice each, two verifies once each,
        # and the demo's threshold scan solves 21 ensembles.
        assert result["metrics"]["model.validate_ensemble.calls"]["value"] == 2 * 2 + 2 * 1 + 21
        assert result["metrics"]["cli.main.self_s"]["value"] > 0


def test_tampered_p_guess_trips_the_gate(monkeypatch):
    solve = gptdisc.solve_discrimination

    def tampered(ensemble, *args, **kwargs):
        solution = solve(ensemble, *args, **kwargs)
        return dataclasses.replace(solution, p_guess=solution.p_guess + 1e-6)

    monkeypatch.setattr(gptdisc, "solve_discrimination", tampered)
    workload = tiny_polygon()
    workload.reference = workload.references()
    measurement = run.measure(workload, 0.0, trace=False)
    assert len(measurement.gate_failures) == len(workload.specs)
    assert not measurement.failures
    result = run.report(workload.name, 0, False, measurement, {}, {}, {}, {})
    assert result["correct"] is False


@pytest.fixture
def failing_order_4(monkeypatch):
    """Make every solve of the order-4 polygon raise a ``NumericalFailureError``."""
    solve = gptdisc.solve_discrimination

    def failing(ensemble, *args, **kwargs):
        if ensemble.n_states == 4:
            raise gptdisc.NumericalFailureError("forced for the test")
        return solve(ensemble, *args, **kwargs)

    monkeypatch.setattr(gptdisc, "solve_discrimination", failing)


def test_forced_gptdisc_error_is_counted_not_gated(failing_order_4):
    workload = tiny_polygon()
    workload.reference = workload.references()
    measurement = run.measure(workload, 0.0, trace=False)
    assert not measurement.gate_failures
    assert dict(measurement.failures) == {
        ("n=4", "solve_discrimination: NumericalFailureError: forced for the test"): 1
    }
    result = run.report(workload.name, 0, False, measurement, {}, {}, {}, {})
    assert (result["correct"], result["attempted"], result["failed"]) == (True, len(workload.specs), 1)


def test_attempted_and_failed_count_one_pass_however_many_run(failing_order_4):
    workload = tiny_polygon()
    workload.reference = workload.references()
    measurement = run.measure(workload, 0.0, trace=True)  # a traced run makes at least two passes
    assert len(measurement.pass_counts) >= 2
    result = run.report(workload.name, 0, True, measurement, {}, {}, {}, {})
    assert (result["attempted"], result["failed"]) == (len(workload.specs), 1)


def test_times_are_scaled_to_the_reference_probe_time():
    outcome = run.Outcome(None, "x", "instance", 0.3, solve_s=0.2, probe_s=2 * run.REFERENCE_PROBE_S)
    assert run.scaled(outcome, "instance_s") == pytest.approx(0.15)
    assert run.scaled(outcome, "solve_s") == pytest.approx(0.1)
    assert run.scaled(outcome, "verify_s") is None


def test_cli_exit_other_than_numerical_failure_trips_the_gate(tmp_path):
    workload = run.Cli(seed=0, workdir=tmp_path, sizes=((4, 3),))
    solve = workload.commands[0]
    workload.commands[0] = dataclasses.replace(solve, args=solve.args + ("--no-such-flag",))
    workload.reference = workload.references()
    measurement = run.measure(workload, 0.0, trace=False)
    assert not measurement.failures
    assert len(measurement.gate_failures) == 1
    assert measurement.gate_failures[0].startswith("solve e0: exit code 1: ")


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    args = [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(args, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
