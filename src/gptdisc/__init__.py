"""Optimal minimum-error state discrimination in finitely generated GPTs.

The package solves the measurement (primal) problem of minimum-error
discrimination over polyhedral state and effect cones, reads the
symmetry operator (the dual optimum) off the same solve's multipliers,
certifies optimality through KKT residual reports,
exposes the congruent-polytope geometry of optimal solutions, and ships
the regular-polygon model family with its worked examples.
"""

from .cone import PolyhedralCone, cones_equal, dual_cone, member_of
from .discrimination import (
    DiscriminationSolution,
    KktReport,
    no_measurement_value,
    solve_discrimination,
    verify_kkt,
)
from .errors import (
    GptDiscError,
    InternalInconsistencyError,
    InvalidInputError,
    NumericalFailureError,
    PreconditionError,
    UndefinedRatioError,
    UnsupportedSizeError,
)
from .geometry import CongruenceReport, congruence_check, ratio_r, symmetric_axis_k
from .lp import LpProblem, LpSolution, feasibility_gap, solve_lp
from .model import (
    DEFAULT_TOL,
    Ensemble,
    GptModel,
    ValidationReport,
    validate_ensemble,
    validate_model,
)
from .oracle import OracleResult, dual_vertex_enumeration
from .polygon import (
    DemoN4Result,
    ThresholdScan,
    demo_n3,
    demo_n4,
    demo_no_measurement,
    no_measurement_ensemble,
    polygon_model,
    polygon_radius,
    threshold_scan,
    uniform_vertex_ensemble,
)

__version__ = "0.1.0"

__all__ = [
    "PolyhedralCone",
    "cones_equal",
    "dual_cone",
    "member_of",
    "DiscriminationSolution",
    "KktReport",
    "no_measurement_value",
    "solve_discrimination",
    "verify_kkt",
    "GptDiscError",
    "InternalInconsistencyError",
    "InvalidInputError",
    "NumericalFailureError",
    "PreconditionError",
    "UndefinedRatioError",
    "UnsupportedSizeError",
    "CongruenceReport",
    "congruence_check",
    "ratio_r",
    "symmetric_axis_k",
    "LpProblem",
    "LpSolution",
    "feasibility_gap",
    "solve_lp",
    "DEFAULT_TOL",
    "Ensemble",
    "GptModel",
    "ValidationReport",
    "validate_ensemble",
    "validate_model",
    "OracleResult",
    "dual_vertex_enumeration",
    "DemoN4Result",
    "ThresholdScan",
    "demo_n3",
    "demo_n4",
    "demo_no_measurement",
    "no_measurement_ensemble",
    "polygon_model",
    "polygon_radius",
    "threshold_scan",
    "uniform_vertex_ensemble",
]
