"""Benchmark of gptdisc's certified minimum-error solve.

Run from the repository root (the package is read from ``src``; nothing
needs installing):

    python3 perfbench/run.py --workload polygon-uniform --seed 1 --seconds 30 --trace 0

Workloads (inputs are made from ``--seed``; see ``perfbench/README.md``):

* ``polygon-uniform``: ``uniform_vertex_ensemble(n)`` for every order n in
  3..24, a fresh model per instance -- a few large LPs.
* ``mixed-random``: 2 to 6 random mixed states with random priors on
  polygon orders 3..16 -- thousands of tiny membership and pruning LPs.
* ``cli``: ``python -m gptdisc solve`` (with and without ``--oracle``),
  ``verify`` of each solution and ``demo no-measurement``, as subprocesses.

In-process instances run the certified pipeline ``validate_model`` ->
``validate_ensemble`` -> ``solve_discrimination`` -> ``verify_kkt`` ->
``congruence_check`` through the public API.  Every answer is checked
after its pass, outside the timed region: a wrong answer fails the run
(exit code 1, ``"correct": false``), while a raised ``GptDiscError`` (or the
CLI's numerical-failure exit code 2) is counted in ``failed`` with its stage
and message.  Every end-to-end time is scaled to a reference host speed
by a fixed probe run around each timed step (``REFERENCE_PROBE_S``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of ``spans.PER_LAYER``
with ``--trace 1``.  Results, and with ``--trace 1`` every span, are also
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import multiprocessing
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

#: Largest allowed distance between a computed ``p_guess`` and its reference.
ANSWER_TOL = 1e-9
#: Fresh processes timed for ``setup_s`` (one sample varies by up to 2x) and for the CLI start-up costs.
SETUP_REPEATS = 15
STARTUP_REPEATS = 5
#: Time of :func:`probe_s` on the reference host.  Every end-to-end time is
#: reported at that host speed: each timed instance, command or set-up
#: process is scaled by ``REFERENCE_PROBE_S`` over the mean of the probes
#: run just before and just after it (see :func:`probe_s`).
REFERENCE_PROBE_S = 2e-3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "instance_ms.p50": "ms",
    "instance_ms.p90": "ms",
    "solve_ms.p50": "ms",
    "verify_ms.p50": "ms",
    "peak_rss_mb": "MB",
}


class GateFailure(Exception):
    """An answer that is wrong: it fails the run instead of being counted."""


@dataclass
class Outcome:
    """One timed instance (or, for ``cli``, one command).

    ``error`` holds ``"<stage>: <error>"`` for a counted failure; ``answer``
    holds what the gate checks.
    """

    spec: object
    label: str
    kind: str
    instance_s: float
    solve_s: float | None = None
    verify_s: float | None = None
    error: str | None = None
    answer: object = None
    probe_s: float = REFERENCE_PROBE_S


@dataclass
class Certified:
    ensemble: object
    model_report: object
    ensemble_report: object
    solution: object
    kkt: object
    congruence: object


def certified_solve(spec, label: str, build) -> Outcome:
    """Time ``build()`` plus the certified pipeline on the ensemble it returns.

    ``solve_s`` covers construction, both validations and the solve;
    ``verify_s`` covers ``verify_kkt`` and ``congruence_check``.  Functions
    are looked up on the package at call time, so a traced pass sees them.
    """
    import gptdisc

    stage = "ensemble"
    solve_s = None
    start = time.perf_counter()
    try:
        ensemble = build()
        stage = "validate_model"
        model_report = gptdisc.validate_model(ensemble.model)
        stage = "validate_ensemble"
        ensemble_report = gptdisc.validate_ensemble(ensemble)
        stage = "solve_discrimination"
        solution = gptdisc.solve_discrimination(ensemble)
        solved = time.perf_counter()
        solve_s = solved - start
        stage = "verify_kkt"
        kkt = gptdisc.verify_kkt(ensemble, solution)
        stage = "congruence_check"
        congruence = gptdisc.congruence_check(solution)
        end = time.perf_counter()
    except gptdisc.GptDiscError as exc:
        end = time.perf_counter()
        return Outcome(
            spec, label, "instance", end - start, solve_s if solve_s is not None else end - start,
            error=f"{stage}: {type(exc).__name__}: {exc}",
        )
    answer = Certified(ensemble, model_report, ensemble_report, solution, kkt, congruence)
    return Outcome(spec, label, "instance", end - start, solve_s, end - solved, answer=answer)


def check_certificate(label: str, answer: Certified) -> None:
    """Gates shared by the in-process workloads: every input is valid and every report must pass."""
    report = answer.model_report
    if not report.valid or report.unrestricted_effects is not True:
        raise GateFailure(f"{label}: valid polygon model reported as {report.issues or report.warnings}")
    if not answer.ensemble_report.valid:
        raise GateFailure(f"{label}: valid ensemble reported as {answer.ensemble_report.issues}")
    if not answer.kkt.passes():
        raise GateFailure(f"{label}: KKT report fails")
    if answer.congruence.max_residual > ANSWER_TOL:
        raise GateFailure(f"{label}: congruence residual {answer.congruence.max_residual:g}")


class InProcess:
    """A workload whose instances are ensembles solved in this process."""

    specs: list

    def label(self, spec) -> str:
        raise NotImplementedError

    def ensemble(self, spec):
        raise NotImplementedError

    def run_pass(self, traced: bool):
        tracer = spans.Tracer() if traced else None
        outcomes = []
        if tracer:
            tracer.install()
        try:
            probes = Probes()
            for spec in self.specs:
                label = self.label(spec)
                if tracer:
                    tracer.instance = label
                outcome, outcome.probe_s = probes.around(lambda: certified_solve(spec, label, lambda: self.ensemble(spec)))
                outcomes.append(outcome)
        finally:
            if tracer:
                tracer.uninstall()
        return outcomes, [(self.name, tracer.take())] if tracer else []

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class PolygonUniform(InProcess):
    """Uniform priors over all vertices of the order-n polygon, every order in each pass.

    An order-n solve takes time of order n^4, so the largest orders fill
    most of a pass, and a short solve is swayed more by the host's
    sub-second speed changes than a long one.  To steady the mid-size
    orders that set ``instance_ms.p50``, order n appears
    ``floor((max order / n)^2)`` times per pass, from 1 to ``MAX_REPEATS``,
    each time with a fresh model.  The repeats depend on n only, never on
    measured speed.
    """

    name = "polygon-uniform"
    MAX_REPEATS = 4

    def __init__(self, seed: int, orders=range(3, 25)):
        top = max(orders)
        self.specs = [n for n in orders for _ in range(min(self.MAX_REPEATS, max(1, (top * top) // (n * n))))]
        random.Random(seed).shuffle(self.specs)

    def label(self, n) -> str:
        return f"n={n}"

    def ensemble(self, n):
        import gptdisc

        return gptdisc.uniform_vertex_ensemble(n)

    def references(self) -> dict:
        import gptdisc

        reference = {}
        for n in set(self.specs):
            ensemble = gptdisc.uniform_vertex_ensemble(n)
            axis_k = gptdisc.symmetric_axis_k(ensemble, (0.0, 0.0, 1.0))
            reference[n] = float(ensemble.model.unit_effect @ axis_k)
        return reference

    def check(self, spec, outcome: Outcome) -> None:
        import gptdisc

        check_certificate(outcome.label, outcome.answer)
        solution = outcome.answer.solution
        if abs(solution.p_guess - self.reference[spec]) > ANSWER_TOL:
            raise GateFailure(
                f"{outcome.label}: p_guess {solution.p_guess!r} vs axis operator {self.reference[spec]!r}"
            )
        try:
            gptdisc.ratio_r(solution)
        except gptdisc.GptDiscError as exc:
            raise GateFailure(f"{outcome.label}: ratio_r fails: {exc}") from exc


class MixedRandom(InProcess):
    """Random mixed states with random priors, drawn like ``tests/conftest.py`` over more orders.

    Every (order, state count) pair occurs once per pass, so seeds differ
    in the mixtures and priors, not in the mix of sizes.
    """

    name = "mixed-random"
    orders = range(3, 17)
    state_counts = range(2, 7)

    def __init__(self, seed: int):
        import numpy as np

        rng = np.random.default_rng(seed)
        specs = []
        for order in self.orders:
            for n_states in self.state_counts:
                weights = rng.random((n_states, order))
                weights /= weights.sum(axis=1, keepdims=True)
                priors = rng.random(n_states)
                priors /= priors.sum()
                specs.append((len(specs), order, weights, priors))
        self.specs = [specs[i] for i in rng.permutation(len(specs))]

    def label(self, spec) -> str:
        index, order, weights, _ = spec
        return f"#{index} order={order} states={weights.shape[0]}"

    def ensemble(self, spec):
        import gptdisc

        _, order, weights, priors = spec
        model = gptdisc.polygon_model(order)
        return gptdisc.Ensemble(model=model, states=weights @ model.state_gens, priors=priors)

    def references(self) -> dict:
        """Oracle ``p_guess`` wherever vertex enumeration is within its size bound."""
        import gptdisc

        reference = {}
        for spec in self.specs:
            _, order, weights, _ = spec
            if weights.shape[0] * order <= gptdisc.oracle.MAX_ORACLE_CONSTRAINTS:
                reference[spec[0]] = gptdisc.dual_vertex_enumeration(self.ensemble(spec)).p_guess
        return reference

    def check(self, spec, outcome: Outcome) -> None:
        check_certificate(outcome.label, outcome.answer)
        expected = self.reference.get(spec[0])
        p_guess = outcome.answer.solution.p_guess
        if expected is not None and abs(p_guess - expected) > ANSWER_TOL:
            raise GateFailure(f"{outcome.label}: p_guess {p_guess!r} vs oracle {expected!r}")


@dataclass
class Child:
    seconds: float
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def child_env() -> dict:
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}


def run_child(args: list[str], workdir: Path) -> Child:
    """Run one subprocess to completion; time it from spawn to exit and read its peak RSS."""
    out_path, err_path = workdir / "child.stdout", workdir / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(seconds, proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a ``cli`` pass.

    ``reference`` names the ensemble whose oracle value a ``solve`` output
    must match; ``needs`` names the ``solve`` whose output a ``verify`` reads.
    """

    label: str
    kind: str
    args: tuple
    output: Path | None = None
    reference: str | None = None
    needs: str | None = None


#: The CLI's exit code for a ``NumericalFailureError`` or ``InternalInconsistencyError``, the
#: failures counted in ``failed``.  Every other non-zero exit (invalid input, a usage error,
#: oracle disagreement, failed verification, a crash) is a wrong answer and trips the gate.
EXIT_NUMERICAL_FAILURE = 2


class Cli:
    """``python -m gptdisc`` run as a user runs it, one subprocess per command.

    Each ensemble file has a fixed (polygon order, state count) from
    ``sizes`` and seeded mixtures and priors, so seeds do not change problem
    sizes.  Every size keeps ``states x order <= 60``, within the
    vertex-enumeration bound of ``--oracle``.
    """

    name = "cli"

    def __init__(self, seed: int, workdir: Path, sizes=((4, 5), (8, 4), (12, 5), (16, 3))):
        import numpy as np

        import gptdisc
        from gptdisc import serialize

        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.files = {}
        self.commands = []
        for index, (order, n_states) in enumerate(sizes):
            weights = rng.random((n_states, order))
            weights /= weights.sum(axis=1, keepdims=True)
            priors = rng.random(n_states)
            priors /= priors.sum()
            model = gptdisc.polygon_model(order)
            ensemble = gptdisc.Ensemble(model=model, states=weights @ model.state_gens, priors=priors)
            name = f"e{index}"
            path = workdir / f"{name}.json"
            path.write_text(serialize.dumps(serialize.ensemble_to_dict(ensemble)))
            self.files[name] = path
            solves = []
            for flags in ((), ("--oracle",)):
                solution = workdir / f"{name}{''.join(flags)}.solution.json"
                label = " ".join(("solve", name, *flags))
                self.commands.append(Command(
                    label, "solve", ("solve", str(path), *flags, "--out", str(solution)), solution, reference=name,
                ))
                solves.append((label, solution))
            for label, solution in solves:
                self.commands.append(Command(
                    label.replace("solve", "verify", 1), "verify", ("verify", str(path), str(solution)), needs=label,
                ))
        demo = workdir / "demo.csv"
        self.commands.append(Command("demo no-measurement", "demo", ("demo", "no-measurement", "--out", str(demo)), demo))
        self.first_output: dict[str, bytes] = {}
        self.peak_kb: dict[str, int] = {}

    def references(self) -> dict:
        import gptdisc
        from gptdisc import serialize

        return {
            name: gptdisc.dual_vertex_enumeration(serialize.load_ensemble(path)).p_guess
            for name, path in self.files.items()
        }

    def run_pass(self, traced: bool):
        outcomes, span_lists, solved = [], [], set()
        probes = Probes()
        spans_path = self.workdir / "spans.json"
        if traced:
            prefix = [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(spans_path)]
        else:
            prefix = [sys.executable, "-m", "gptdisc"]
        for command in self.commands:
            if command.needs is not None and command.needs not in solved:
                continue
            for stale in (command.output, spans_path if traced else None):
                if stale is not None and stale.exists():
                    stale.unlink()
            child, probe = probes.around(lambda: run_child(prefix + list(command.args), self.workdir))
            self.peak_kb[command.label] = max(self.peak_kb.get(command.label, 0), child.maxrss_kb)
            if traced:
                span_lists.append((command.label, json.loads(spans_path.read_text())))
            error = None
            stderr = child.stderr.decode(errors="replace").strip()
            if child.returncode == EXIT_NUMERICAL_FAILURE and stderr.startswith("numerical failure: "):
                error = f"{command.kind}: exit {child.returncode}: {stderr.splitlines()[-1]}"
            elif child.returncode == 0 and command.kind == "solve":
                solved.add(command.label)
            output = command.output
            produced = output.read_bytes() if output is not None and output.exists() else None
            outcomes.append(Outcome(
                command, command.label, command.kind, child.seconds,
                solve_s=child.seconds if command.kind == "solve" else None,
                verify_s=child.seconds if command.kind == "verify" else None,
                error=error, answer=(child, produced), probe_s=probe,
            ))
        return outcomes, span_lists

    def check(self, command: Command, outcome: Outcome) -> None:
        child, produced = outcome.answer
        if child.returncode != 0:
            tail = child.stderr.decode(errors="replace").strip()[-300:]
            raise GateFailure(f"{command.label}: exit code {child.returncode}: {tail}")
        if command.kind == "verify":
            if b"verification passed" not in child.stdout:
                raise GateFailure(f"{command.label}: verify did not report a pass")
            return
        if produced is None:
            raise GateFailure(f"{command.label}: no output written")
        if produced != self.first_output.setdefault(command.label, produced):
            raise GateFailure(f"{command.label}: output differs from the first pass's bytes")
        if command.reference is not None:
            payload = json.loads(produced)
            expected = self.reference[command.reference]
            found = [payload["p_guess"]] + ([payload["oracle"]["p_guess"]] if "oracle" in payload else [])
            if any(abs(value - expected) > ANSWER_TOL for value in found):
                raise GateFailure(f"{command.label}: p_guess {found} vs oracle {expected!r}")

    def peak_rss_kb(self) -> float:
        """Median over commands of each command's peak RSS.

        Not the largest: which commands run, and how far a failing solve
        gets, depends on the seed, and the largest process is the oracle on
        one file whenever that file's solve succeeds.
        """
        return statistics.median(self.peak_kb.values())


WORKLOADS = ("polygon-uniform", "mixed-random", "cli")


def build_workload(name: str, seed: int, workdir: Path):
    """The workload's inputs; only ``cli`` writes files, into ``workdir``."""
    if name == "polygon-uniform":
        return PolygonUniform(seed)
    if name == "mixed-random":
        return MixedRandom(seed)
    return Cli(seed, workdir)


def percentile(samples, fraction: float) -> float:
    """Percentile interpolated between closest ranks; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Measurement:
    untraced_walls: list
    traced_walls: list
    outcomes: list
    traced_metrics: list
    span_records: list
    failures: Counter
    gate_failures: list
    pass_counts: list


def probe_s() -> float:
    """Time a fixed mix of small numpy products and Python arithmetic, about 2 ms.

    The mix resembles the inner loops of gptdisc's dense simplex and does
    not call gptdisc, so a change to the program cannot change it.  On a
    shared 2-vCPU VM (Intel Xeon, 2.1 GHz) a vCPU's speed changes by up to
    a third, within seconds and over minutes, and the probe's time follows
    the program's: over 100 s, raw pass times of one mixed-random input
    ranged over +-27 %, and the same times scaled by adjacent probes over
    +-6 %.
    """
    import numpy as np

    matrix = np.linspace(0.5, 1.5, 576).reshape(24, 24)
    vector = np.ones(24)
    start = time.perf_counter()
    for _ in range(200):
        product = matrix @ vector
        vector = product / np.abs(product).max()
        total = 0
        for i in range(60):
            total += i * i
    return time.perf_counter() - start


class Probes:
    """Runs :func:`probe_s` between consecutive timed steps and pairs each step with its two neighbours."""

    def __init__(self):
        self.last = probe_s()

    def around(self, step):
        """``step()``'s result and the mean of the probes run just before and just after it."""
        result = step()
        before, self.last = self.last, probe_s()
        return result, (before + self.last) / 2


@contextlib.contextmanager
def on_fastest_cpu():
    """Run the block pinned to the allowed CPU that runs a fixed probe fastest; subprocesses inherit the pin.

    On a shared host the CPUs of a small VM slow down by up to half,
    independently and for seconds to minutes at a time; choosing the
    least-loaded CPU before each pass keeps that out of the figures.
    """
    allowed = os.sched_getaffinity(0)
    timings = []
    for cpu in sorted(allowed):
        os.sched_setaffinity(0, {cpu})
        timings.append((min(probe_s() for _ in range(3)), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def measure(workload, seconds: float, trace: bool) -> Measurement:
    """Run whole passes while another one is expected to end within half a pass of ``seconds``.

    With ``trace`` untraced and traced passes alternate, so the tracing
    overhead is measured on the same inputs in the same run.
    """
    result = Measurement([], [], [], [], [], Counter(), [], [])
    start = time.perf_counter()
    passes = 0
    while True:
        traced = trace and passes % 2 == 1
        with on_fastest_cpu():
            outcomes, span_lists = workload.run_pass(traced)
        passes += 1
        wall = sum(scaled(outcome, "instance_s") for outcome in outcomes)
        result.pass_counts.append((len(outcomes), sum(outcome.error is not None for outcome in outcomes)))
        (result.traced_walls if traced else result.untraced_walls).append(wall)
        if traced:
            totals = defaultdict(float)
            for _, process_spans in span_lists:
                spans.layer_totals(process_spans, totals)
            result.traced_metrics.append(spans.layer_metrics(totals))
            result.span_records.extend(
                (passes, label, span) for label, process_spans in span_lists for span in process_spans
            )
        for outcome in outcomes:
            if outcome.error is not None:
                result.failures[(outcome.label, outcome.error)] += 1
                continue
            try:
                workload.check(outcome.spec, outcome)
            except GateFailure as exc:
                result.gate_failures.append(str(exc))
            outcome.answer = None  # checked; keeping it would grow the harness's own memory
        result.outcomes.extend(outcomes)
        elapsed = time.perf_counter() - start
        enough = passes >= (2 if trace else 1)
        if enough and elapsed + 0.5 * elapsed / passes >= seconds:
            return result


def scaled(outcome: Outcome, field: str) -> float | None:
    """``outcome``'s time in ``field`` at the reference host speed, or None if it has none."""
    seconds = getattr(outcome, field)
    return None if seconds is None else seconds * REFERENCE_PROBE_S / outcome.probe_s


def median_ms(outcomes, field: str, scale=True) -> tuple[list, int]:
    """Each instance's median time over the run's passes, in ms, and the number of samples behind them.

    The times are at the reference host speed unless ``scale`` is false.
    Unlike a minimum, the median does not drift with the number of passes
    that fit in the run, so faster code is not also given more chances.
    """
    times = defaultdict(list)
    for outcome in outcomes:
        seconds = scaled(outcome, field) if scale else getattr(outcome, field)
        if seconds is not None:
            times[outcome.label].append(seconds * 1000.0)
    return [statistics.median(repeats) for repeats in times.values()], sum(map(len, times.values()))


def end_to_end_metrics(workload, measurement: Measurement, setup_s: float) -> tuple[dict, dict]:
    """Values and sample counts of the end-to-end metrics."""
    instance_ms, instance_n = median_ms(measurement.outcomes, "instance_s")
    solve_ms, solve_n = median_ms(measurement.outcomes, "solve_s")
    verify_ms, verify_n = median_ms(measurement.outcomes, "verify_s")
    values = {
        "setup_s": setup_s,
        "wall_s": sum(instance_ms) / 1000.0,
        "instance_ms.p50": percentile(instance_ms, 0.5),
        "instance_ms.p90": percentile(instance_ms, 0.9),
        "solve_ms.p50": percentile(solve_ms, 0.5),
        "verify_ms.p50": percentile(verify_ms, 0.5),
        "peak_rss_mb": workload.peak_rss_kb() * 1024 / 1e6,
    }

    def median_of(instances, samples):
        return f"median of each of {len(instances)} instances, {samples} samples"

    counts = {
        "setup_s": f"median of {SETUP_REPEATS} processes",
        "wall_s": f"sum of the medians of each of {len(instance_ms)} instances, {len(measurement.untraced_walls)} passes",
        "instance_ms.p50": median_of(instance_ms, instance_n),
        "instance_ms.p90": median_of(instance_ms, instance_n),
        "solve_ms.p50": median_of(solve_ms, solve_n),
        "verify_ms.p50": median_of(verify_ms, verify_n),
        "peak_rss_mb": "whole run",
    }
    raw_ms, _ = median_ms(measurement.outcomes, "instance_s", scale=False)
    probe_ms = statistics.median(outcome.probe_s for outcome in measurement.outcomes) * 1000.0
    counts["wall_s"] += f"; unscaled {sum(raw_ms) / 1000.0:.4g} s, median probe {probe_ms:.4g} ms"
    return values, counts


def per_layer_metrics(measurement: Measurement, startup: dict) -> dict:
    """Median over traced passes of each span metric, plus start-up costs and tracing overhead."""
    values = {
        name: statistics.median(metrics[name] for metrics in measurement.traced_metrics)
        for name in measurement.traced_metrics[0]
    }
    values.update(startup)
    untraced = statistics.median(measurement.untraced_walls)
    values["trace.overhead_frac"] = statistics.median(measurement.traced_walls) / untraced - 1.0
    return values


def timed_setup_s(name: str, seed: int, workdir: Path) -> float:
    """Median over fresh processes of the time to import gptdisc and build the workload's inputs.

    Each process's time is scaled to the reference host speed by the probes
    run just before and just after it.
    """
    args = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        with on_fastest_cpu():
            child, probe = Probes().around(lambda: run_child(args, workdir))
        if child.returncode != 0:
            raise RuntimeError(f"setup process failed: {child.stderr.decode(errors='replace')}")
        times.append(float(child.stdout.decode().strip().splitlines()[-1]) * REFERENCE_PROBE_S / probe)
    return statistics.median(times)


def setup_only(name: str, seed: int) -> float:
    """The set-up a fresh process pays, timed from before ``import gptdisc``."""
    workdir = WORK / f"setup-{os.getpid()}"
    workdir.mkdir()
    try:
        start = time.perf_counter()
        import gptdisc  # noqa: F401

        build_workload(name, seed, workdir)
        return time.perf_counter() - start
    finally:
        shutil.rmtree(workdir)


def startup_costs(workdir: Path) -> dict:
    """``cli.interpreter_ms`` (a bare interpreter) and ``cli.import_ms`` (``import gptdisc.cli``), medians."""
    interpreter, imports = [], []
    code = "import time; t = time.perf_counter(); import gptdisc.cli; print(time.perf_counter() - t)"
    for _ in range(STARTUP_REPEATS):
        with on_fastest_cpu():
            interpreter.append(run_child([sys.executable, "-c", "pass"], workdir).seconds * 1000.0)
            child = run_child([sys.executable, "-c", code], workdir)
        imports.append(float(child.stdout.decode().strip()) * 1000.0)
    return {"cli.interpreter_ms": statistics.median(interpreter), "cli.import_ms": statistics.median(imports)}


def environment(seed: int) -> dict:
    import importlib.metadata
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "openblas": openblas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout; "unknown" outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def report(name, seed, trace, measurement, values, counts, units, env) -> dict:
    """Print the human-readable report and return the result object."""
    # Every pass runs the same instances, so one pass's counts are the run's.  The largest over passes
    # keeps a failure that showed in one pass only; on the seed commit every failure repeats in each pass.
    attempted = max(count for count, _ in measurement.pass_counts)
    failed = max(count for _, count in measurement.pass_counts)
    print(f"# perfbench workload={name} seed={seed} trace={int(trace)}")
    print("# env " + json.dumps(env))
    for metric, value in values.items():
        count = f"  ({counts[metric]})" if metric in counts else ""
        print(f"{metric:52s} {value:.6g} {units[metric]}{count}")
    print(f"{'failed_frac':52s} {failed / attempted:.6g}  ({failed}/{attempted})")
    for (label, error), times in sorted(measurement.failures.items()):
        print(f"failure x{times}: {label}: {error}")
    for message in measurement.gate_failures:
        print(f"WRONG ANSWER: {message}")
    return {
        "correct": not measurement.gate_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in values.items()},
    }


def references_in_child(workload) -> dict:
    """``workload.references()``, computed in a forked process.

    The reference computations (vertex enumeration above all) are not part
    of the measured work, so they are kept out of this process's peak RSS.
    """
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        return pool.submit(workload.references).result()


def benchmark(workload, seconds: float, trace: bool, setup_s: float, workdir: Path) -> tuple[Measurement, dict, dict]:
    """Measure ``workload`` and return the measurement, metric values and sample counts."""
    workload.reference = references_in_child(workload)
    measurement = measure(workload, seconds, trace)
    if trace:
        return measurement, per_layer_metrics(measurement, startup_costs(workdir)), {}
    values, counts = end_to_end_metrics(workload, measurement, setup_s)
    return measurement, values, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # On SIGTERM, unwind so that the running subprocess is killed and waited for and the work dir removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (SRC / "gptdisc" / "__init__.py").is_file():
        print(f"perfbench: no gptdisc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.setup_only:
        print(repr(setup_only(args.workload, args.seed)))
        return 0

    trace = bool(args.trace)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_s = 0.0 if trace else timed_setup_s(args.workload, args.seed, workdir)
        workload = build_workload(args.workload, args.seed, workdir)
        measurement, values, counts = benchmark(workload, args.seconds, trace, setup_s, workdir)
    finally:
        shutil.rmtree(workdir)
    units = spans.PER_LAYER if trace else END_TO_END
    env = environment(args.seed)
    result = report(args.workload, args.seed, trace, measurement, values, counts, units, env)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    record = {**result, "env": env, "samples": counts, "failures": [
        {"instance": label, "error": error, "times": times} for (label, error), times in sorted(measurement.failures.items())
    ], "wrong_answers": measurement.gate_failures}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if trace:
        with open(OUT / f"{stem}-spans.jsonl", "w") as handle:
            for pass_index, process, span in measurement.span_records:
                handle.write(json.dumps([pass_index, process, *span]) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
