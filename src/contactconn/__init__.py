"""Canonical connections for sub-Riemannian contact structures on
coordinate charts: exact order-2 jet arithmetic, chart-level exterior
calculus, adapted frames, the canonical partial connection and its
promotion, the classical 3-dimensional comparison, and a deterministic
verification CLI.
"""

from .connection import (
    FullConnection,
    PartialConnection,
    canonical_partial_connection,
    full_torsion,
    nabla_H,
    nabla_H_vector,
    partial_torsion,
    promote,
    promotion_residual,
    sigma,
    sigma_inv,
)
from .contact import (
    AdaptedFrame,
    ContactCheck,
    ContactStructure,
    adapted_frame,
    check_contact,
    classify,
    lambda_spectrum,
    rotate_frame,
)
from .errors import (
    AllPointsSkippedError,
    ContactConnError,
    DegenerateFrameError,
    DegenerateMetricError,
    ExprDomainError,
    InconsistentStructureError,
    LinearSolveResidualError,
    NotContactError,
    ParseError,
    SingularMatrixError,
    SpecError,
    SuiteUnavailableError,
    SymmetryError,
    UnknownIdentifierError,
    UnknownManifoldError,
)
from .expressions import Expr, parse_expr, pretty
from .forms import (
    FormField,
    apply_vector,
    d_from_jets,
    wedge,
)
from .jets import Jet, JetArray, eval_jet, jet_linear_solve
from .registry import (
    ManifoldSpec,
    builtin_registry,
    get_manifold,
    load_spec,
)
from .report import PointRecord, Report, SuiteResult, render_report
from .sampling import SplitMix64, sample_box
from .suites import run_suites
from .tw3d import (
    TWData,
    check_rotation_covariance,
    compare_full,
    compare_partial,
    promoted_from_invariants,
    rotate_coframe,
    solve_structure_equations,
    tw_coframe,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptedFrame",
    "AllPointsSkippedError",
    "ContactCheck",
    "ContactConnError",
    "ContactStructure",
    "DegenerateFrameError",
    "DegenerateMetricError",
    "Expr",
    "ExprDomainError",
    "FormField",
    "FullConnection",
    "InconsistentStructureError",
    "Jet",
    "JetArray",
    "LinearSolveResidualError",
    "ManifoldSpec",
    "NotContactError",
    "ParseError",
    "PartialConnection",
    "PointRecord",
    "Report",
    "SingularMatrixError",
    "SpecError",
    "SplitMix64",
    "SuiteResult",
    "SuiteUnavailableError",
    "SymmetryError",
    "TWData",
    "UnknownIdentifierError",
    "UnknownManifoldError",
    "adapted_frame",
    "apply_vector",
    "builtin_registry",
    "canonical_partial_connection",
    "check_contact",
    "check_rotation_covariance",
    "classify",
    "compare_full",
    "compare_partial",
    "d_from_jets",
    "eval_jet",
    "full_torsion",
    "get_manifold",
    "jet_linear_solve",
    "lambda_spectrum",
    "load_spec",
    "nabla_H",
    "nabla_H_vector",
    "parse_expr",
    "partial_torsion",
    "pretty",
    "promote",
    "promoted_from_invariants",
    "promotion_residual",
    "render_report",
    "rotate_frame",
    "rotate_coframe",
    "run_suites",
    "sample_box",
    "sigma",
    "sigma_inv",
    "solve_structure_equations",
    "tw_coframe",
    "wedge",
]
