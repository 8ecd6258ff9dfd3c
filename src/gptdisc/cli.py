"""Command-line front end, on the standard library's ``argparse``.

Subcommands: ``solve`` (ensemble file -> solution JSON with KKT and
geometry reports), ``polygon`` (emit a polygon model file), ``demo``
(the three worked examples), ``verify`` (re-check an untrusted solution
certificate), and ``export-vertices`` (CSV plot data).

Exit codes: 0 success, 1 invalid model/ensemble/arguments, 2 numerical
failure, 3 oracle disagreement beyond 1e-6 (with ``--oracle``), 4 failed
verification.  Usage errors and unreadable or unwritable files exit 1
with one ``error:`` line on stderr.  Reading or writing ``-`` means
standard input/output.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

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
    load_ensemble,
    load_json,
    load_model,
    model_to_dict,
    solution_from_dict,
    solution_to_dict,
    support_to_list,
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
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {out}: {exc}") from exc


def _validated_ensemble(source: str, tol: float):
    ensemble = load_ensemble(source)
    model_report = validate_model(ensemble.model, tol)
    if not model_report.valid:
        raise InvalidInputError("; ".join(model_report.issues))
    for warning in model_report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
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
    kkt = verify_kkt(ensemble, solution)
    congruence = congruence_check(solution, tol=tol)
    oracle_result = None
    if oracle:
        try:
            oracle_result = _oracle_agreement(ensemble, solution.p_guess)
        except UnsupportedSizeError as exc:
            print(f"warning: oracle skipped: {exc}", file=sys.stderr)
    return solution_to_dict(solution, kkt, congruence, oracle_result)


def cmd_solve(args) -> None:
    """Solve the discrimination instance in an ensemble file."""
    ensemble = _validated_ensemble(args.ensemble_file, args.tol)
    solution = solve_discrimination(ensemble, tol=args.tol)
    _write_out(args.out, dumps(_solution_payload(solution, args.tol, args.oracle)))


def cmd_polygon(args) -> None:
    """Emit the order-n polygon model as model JSON."""
    model = polygon_mod.polygon_model(args.order)
    _write_out(args.out, dumps(model_to_dict(model)))


def cmd_demo(args) -> None:
    """Run a worked example: n3, n4, or no-measurement."""
    if args.name == "no-measurement":
        _demo_no_measurement(args.out)
        return
    if args.name == "n3":
        payload = _solution_payload(polygon_mod.demo_n3(), DEFAULT_TOL, oracle=True)
    else:
        result = polygon_mod.demo_n4()
        payload = _solution_payload(result.solution, DEFAULT_TOL, oracle=True)
        payload["alternates"] = [
            {
                "name": alt_name,
                "support": support_to_list(support),
                "kkt": {**dataclasses.asdict(report), "passed": report.passes()},
            }
            for alt_name, support, report in result.alternates
        ]
    _write_out(args.out, dumps(payload))


def _demo_no_measurement(out: str) -> None:
    grid = [round(0.05 * k, 2) for k in range(21)]
    scan = polygon_mod.threshold_scan(grid)
    for p, p_guess, _ in scan.rows:
        _oracle_agreement(polygon_mod.no_measurement_ensemble(p), p_guess, context=f"at p={p:g}: ")
    lines = ["p,p_guess,no_measurement_optimal"]
    for p, p_guess, flag in scan.rows:
        lines.append(f"{float(p)!r},{float(p_guess)!r},{str(flag).lower()}")
    _write_out(out, "\n".join(lines) + "\n")
    print(f"no-measurement threshold p* = {float(scan.p_star)!r}", file=sys.stderr)
    print(f"closed-form dual-feasibility bound = {polygon_mod.AXIS_FEASIBILITY_THRESHOLD!r}", file=sys.stderr)
    print(f"quantum-analogue threshold = {polygon_mod.QUANTUM_ANALOGUE_THRESHOLD!r}", file=sys.stderr)


def cmd_verify(args) -> None:
    """Re-verify a solution certificate against its ensemble."""
    ensemble = _validated_ensemble(args.ensemble_file, args.tol)
    solution = solution_from_dict(load_json(args.solution_file), ensemble)
    kkt = verify_kkt(ensemble, solution)
    congruence = congruence_check(solution, tol=args.tol)
    failures = []
    if not kkt.passes(args.tol):
        failing = (f"{name} {v:g}" for name, v in kkt.worst_residuals().items() if not v <= args.tol)  # NaN too
        failures.append("KKT check failed: " + ", ".join(failing))
    if congruence.max_residual > args.tol:
        failures.append(f"congruence residual {congruence.max_residual:g} exceeds tolerance")
    if failures:
        raise VerificationFailedError("; ".join(failures))
    _write_out(args.out, "verification passed\n")


def cmd_export_vertices(args) -> None:
    """Write the state and effect generators of a model file as CSV plot data."""
    model = load_model(args.model_file)
    header = "kind,index," + ",".join(["x", "y", "z"] if model.dim == 3 else [f"c{i}" for i in range(model.dim)])
    lines = [header]
    for kind, rows in (("state", model.state_gens), ("effect", model.effect_gens)):
        for index, row in enumerate(rows):
            coords = ",".join(map(repr, row.tolist()))
            lines.append(f"{kind},{index},{coords}")
    _write_out(args.out, "\n".join(lines) + "\n")


def tolerance(text: str) -> float:
    """The ``--tol`` type: a float with ``0 < tol <= MAX_TOL``, a range that NaN and infinities miss."""
    tol = float(text)
    if not 0.0 < tol <= MAX_TOL:
        raise argparse.ArgumentTypeError(f"{text} is not in the range 0 < tol <= {MAX_TOL:g}")
    return tol


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``InvalidInputError`` instead of exiting."""

    def error(self, message):
        raise InvalidInputError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gptdisc",
        description="Optimal state discrimination in finitely generated GPT models.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for run in (cmd_solve, cmd_polygon, cmd_demo, cmd_verify, cmd_export_vertices):
        name = run.__name__.removeprefix("cmd_").replace("_", "-")
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run)
        sub.add_argument("--out", default="-", help="Output file, '-' for stdout (default).")
    solve, polygon, demo, verify, export = commands.choices.values()
    solve.add_argument("ensemble_file")
    solve.add_argument("--oracle", action="store_true", help="Cross-check against the vertex-enumeration oracle.")
    polygon.add_argument("--n", dest="order", type=int, required=True, help="Polygon order (>= 3).")
    demo.add_argument("name", choices=["n3", "n4", "no-measurement"])
    verify.add_argument("ensemble_file")
    verify.add_argument("solution_file")
    export.add_argument("model_file")
    for sub in (solve, verify):
        sub.add_argument("--tol", type=tolerance, default=DEFAULT_TOL, help="Numeric tolerance (default %(default)g).")
    return parser


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        args = _parser().parse_args(argv)
        args.run(args)
    except SystemExit as exc:  # --help
        return exc.code
    except (NumericalFailureError, InternalInconsistencyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except OracleDisagreementError as exc:
        print(f"oracle disagreement: {exc}", file=sys.stderr)
        return EXIT_ORACLE_DISAGREEMENT
    except VerificationFailedError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    except GptDiscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
