"""Command-line front end.

Subcommands: ``solve`` (ensemble file -> solution JSON with KKT and
geometry reports), ``polygon`` (emit a polygon model file), ``demo``
(the three worked examples), ``verify`` (re-check an untrusted solution
certificate), and ``export-vertices`` (CSV plot data).

Exit codes: 0 success, 1 invalid model/ensemble/arguments, 2 numerical
failure, 3 oracle disagreement beyond 1e-6 (with ``--oracle``), 4 failed
verification.  Reading or writing ``-`` means standard input/output.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import click
import numpy as np

from . import polygon as polygon_mod
from .discrimination import solve_discrimination, verify_kkt
from .errors import (
    GptDiscError,
    InternalInconsistencyError,
    InvalidInputError,
    NumericalFailureError,
    UnsupportedSizeError,
)
from .geometry import congruence_check
from .model import DEFAULT_TOL, MAX_TOL, validate_ensemble, validate_model
from .oracle import dual_vertex_enumeration
from .serialize import (
    dumps,
    format_real,
    load_ensemble,
    load_json,
    load_model,
    model_to_dict,
    solution_from_dict,
    solution_to_dict,
)

ORACLE_AGREEMENT_TOL = 1e-6

EXIT_INVALID_INPUT = 1
EXIT_NUMERICAL_FAILURE = 2
EXIT_ORACLE_DISAGREEMENT = 3
EXIT_VERIFICATION_FAILED = 4


class OracleDisagreementError(GptDiscError):
    """Solver and vertex-enumeration oracle disagree beyond tolerance."""


class VerificationFailedError(GptDiscError):
    """A KKT or congruence check failed during re-verification."""


def _write_out(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _validated_ensemble(source: str, tol: float):
    ensemble = load_ensemble(source)
    model_report = validate_model(ensemble.model, tol)
    if not model_report.valid:
        raise InvalidInputError("; ".join(model_report.issues))
    for warning in model_report.warnings:
        click.echo(f"warning: {warning}", err=True)
    ensemble_report = validate_ensemble(ensemble, tol)
    if not ensemble_report.valid:
        raise InvalidInputError("; ".join(ensemble_report.issues))
    return ensemble


def _oracle_agreement(ensemble, p_guess: float, context: str = ""):
    """Run the vertex-enumeration oracle and raise unless it agrees with ``p_guess``."""
    oracle_result = dual_vertex_enumeration(ensemble)
    if abs(oracle_result.p_guess - p_guess) > ORACLE_AGREEMENT_TOL:
        raise OracleDisagreementError(
            f"{context}solver p_guess {p_guess!r} vs oracle {oracle_result.p_guess!r}"
        )
    return oracle_result


def _solution_payload(solution, tol: float, oracle: bool):
    """Solution JSON with KKT and congruence reports, oracle-checked when asked.

    An ensemble past the oracle's size bounds is not an input fault: the
    check is skipped with a warning and the payload has no oracle block.
    """
    ensemble = solution.ensemble
    kkt = verify_kkt(ensemble, solution, tol=tol)
    congruence = congruence_check(solution, tol=tol)
    oracle_result = None
    if oracle:
        try:
            oracle_result = _oracle_agreement(ensemble, solution.p_guess)
        except UnsupportedSizeError as exc:
            click.echo(f"warning: oracle skipped: {exc}", err=True)
    return solution_to_dict(solution, kkt, congruence, oracle_result)


_tol_option = click.option(
    "--tol",
    "tolerance",
    type=click.FloatRange(0.0, MAX_TOL, min_open=True),
    default=DEFAULT_TOL,
    show_default=True,
    help="Numeric tolerance.",
)
_out_option = click.option("--out", default="-", show_default=True, help="Output file, '-' for stdout.")


@click.group()
def cli():
    """Optimal state discrimination in finitely generated GPT models."""


@cli.command("solve")
@click.argument("ensemble_file")
@_tol_option
@_out_option
@click.option("--oracle", is_flag=True, help="Cross-check against the vertex-enumeration oracle.")
def cmd_solve(ensemble_file, tolerance, oracle, out):
    """Solve the discrimination instance in ENSEMBLE_FILE."""
    ensemble = _validated_ensemble(ensemble_file, tolerance)
    solution = solve_discrimination(ensemble, tol=tolerance)
    _write_out(out, dumps(_solution_payload(solution, tolerance, oracle)))


@cli.command("polygon")
@click.option("--n", "order", type=int, required=True, help="Polygon order (>= 3).")
@_out_option
def cmd_polygon(order, out):
    """Emit the order-n polygon model as model JSON."""
    model = polygon_mod.polygon_model(order)
    _write_out(out, dumps(model_to_dict(model)))


@cli.command("demo")
@click.argument("name", type=click.Choice(["n3", "n4", "no-measurement"]))
@_out_option
def cmd_demo(name, out):
    """Run a worked example: n3, n4, or no-measurement."""
    if name == "n3":
        _write_out(out, dumps(_solution_payload(polygon_mod.demo_n3(), DEFAULT_TOL, oracle=True)))
        return
    if name == "n4":
        result = polygon_mod.demo_n4()
        payload = _solution_payload(result.solution, DEFAULT_TOL, oracle=True)
        payload["alternates"] = [
            {
                "name": alt_name,
                "measurement": measurement.effects,
                "kkt": {**dataclasses.asdict(report), "passed": report.passes()},
            }
            for alt_name, measurement, report in result.alternates
        ]
        _write_out(out, dumps(payload))
        return
    _demo_no_measurement(out)


def _demo_no_measurement(out: str) -> None:
    grid = [round(0.05 * k, 2) for k in range(21)]
    scan = polygon_mod.threshold_scan(grid)
    for p, p_guess, _ in scan.rows:
        _oracle_agreement(polygon_mod.no_measurement_ensemble(p), p_guess, context=f"at p={p:g}: ")
    lines = ["p,p_guess,no_measurement_optimal"]
    for p, p_guess, flag in scan.rows:
        lines.append(f"{format_real(p)},{format_real(p_guess)},{str(flag).lower()}")
    _write_out(out, "\n".join(lines) + "\n")
    click.echo(f"measured no-measurement threshold p* = {format_real(scan.p_star)}", err=True)
    click.echo(
        f"closed-form dual-feasibility bound = {format_real(polygon_mod.AXIS_FEASIBILITY_THRESHOLD)}",
        err=True,
    )
    click.echo(
        f"quantum-analogue threshold = {format_real(polygon_mod.QUANTUM_ANALOGUE_THRESHOLD)}",
        err=True,
    )


@cli.command("verify")
@click.argument("ensemble_file")
@click.argument("solution_file")
@_tol_option
@_out_option
def cmd_verify(ensemble_file, solution_file, tolerance, out):
    """Re-verify a solution certificate against its ensemble."""
    ensemble = _validated_ensemble(ensemble_file, tolerance)
    solution = solution_from_dict(load_json(solution_file), ensemble)
    kkt = verify_kkt(ensemble, solution, tol=tolerance)
    congruence = congruence_check(solution, tol=tolerance)
    failures = []
    if not kkt.passes(tolerance):
        failures.append(
            "KKT check failed: "
            f"p_guess {solution.p_guess!r} residual {kkt.value_residual:g}, "
            f"complementary weights residual {np.max(kkt.weight_residuals):g}, "
            f"stability {np.max(kkt.stability_residuals):g}, "
            f"orthogonality {np.max(kkt.orthogonality_residuals):g}, "
            f"measurement residual {kkt.measurement_residual:g}, gap {kkt.gap:g}, "
            f"positivity {list(kkt.positivity_ok)}, effects-in-cone {list(kkt.effects_in_cone)}"
        )
    if congruence.max_residual > tolerance:
        failures.append(f"congruence residual {congruence.max_residual:g} exceeds tolerance")
    if failures:
        raise VerificationFailedError("; ".join(failures))
    _write_out(out, "verification passed\n")


@cli.command("export-vertices")
@click.argument("model_file")
@_out_option
def cmd_export_vertices(model_file, out):
    """Write state and effect generators of a model file as CSV plot data."""
    model = load_model(model_file)
    header = "kind,index," + ",".join(["x", "y", "z"] if model.dim == 3 else [f"c{i}" for i in range(model.dim)])
    lines = [header]
    for kind, rows in (("state", model.state_gens), ("effect", model.effect_gens)):
        for index, row in enumerate(rows):
            coords = ",".join(format_real(v) for v in row)
            lines.append(f"{kind},{index},{coords}")
    _write_out(out, "\n".join(lines) + "\n")


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except (click.UsageError, InvalidInputError) as exc:
        click.echo(f"error: {_message(exc)}", err=True)
        return EXIT_INVALID_INPUT
    except (NumericalFailureError, InternalInconsistencyError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return EXIT_NUMERICAL_FAILURE
    except OracleDisagreementError as exc:
        click.echo(f"oracle disagreement: {exc}", err=True)
        return EXIT_ORACLE_DISAGREEMENT
    except VerificationFailedError as exc:
        click.echo(f"verification failed: {exc}", err=True)
        return EXIT_VERIFICATION_FAILED
    except click.exceptions.Exit as exc:  # --help and friends
        return int(exc.exit_code)
    except GptDiscError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_INVALID_INPUT
    return 0


def _message(exc) -> str:
    if isinstance(exc, click.UsageError):
        return exc.format_message()
    return str(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
