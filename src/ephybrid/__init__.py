"""Cutting-halfspace solver for equilibrium and fixed-point problems.

The solver finds a common point of the solution set of a monotone,
Lipschitz-type continuous equilibrium problem and the fixed-point set
of a nonexpansive mapping.  Each iteration costs one strongly convex
prox subproblem (a small dense QP, solved exactly by an active-set
method) plus an explicit projection onto two constructed halfspaces.
An extragradient baseline, two built-in Nash-Cournot benchmark
problems, and a benchmark CLI round out the package.
"""

from .hybrid import (
    AlphaSchedule,
    HybridParams,
    InvariantViolation,
    IterationRecord,
    MaxIterExceeded,
    RunReport,
    StoppingRule,
    extragradient_solve,
    hybrid_iterate,
    solve,
    validate_params,
)
from .linalg import spectral_norm
from .problems import (
    AffineOperator,
    AveragedProjections,
    IdentityMapping,
    LipschitzConstants,
    ProblemBundle,
    QuadraticBifunction,
    nash_cournot_constants,
    vip_as_bifunction,
)
from .qp import ProxSolver, prox_step, solve_qp_active_set
from .sets import (
    Box,
    Halfspace,
    Polyhedron,
    WholeSpace,
    project_two_halfspaces,
)
from .experiments import (
    ExperimentConfig,
    builtin_example1,
    builtin_example2,
    load_config,
    run_grid,
)
from .reporting import ReportRow, emit_reports, trace_to_csv, write_report_json

__version__ = "0.1.0"

__all__ = [
    "AffineOperator",
    "AlphaSchedule",
    "AveragedProjections",
    "Box",
    "ExperimentConfig",
    "Halfspace",
    "HybridParams",
    "IdentityMapping",
    "InvariantViolation",
    "IterationRecord",
    "LipschitzConstants",
    "MaxIterExceeded",
    "Polyhedron",
    "ProblemBundle",
    "ProxSolver",
    "QuadraticBifunction",
    "ReportRow",
    "RunReport",
    "StoppingRule",
    "WholeSpace",
    "builtin_example1",
    "builtin_example2",
    "emit_reports",
    "extragradient_solve",
    "hybrid_iterate",
    "load_config",
    "nash_cournot_constants",
    "project_two_halfspaces",
    "prox_step",
    "run_grid",
    "solve",
    "solve_qp_active_set",
    "spectral_norm",
    "trace_to_csv",
    "validate_params",
    "vip_as_bifunction",
    "write_report_json",
]
