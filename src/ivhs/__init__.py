"""Exact-arithmetic invariants of the infinitesimal variation of Hodge structure.

The package computes, over the rationals and with no rounding anywhere:
canonical multiplication matrices and their ranks/kernels for plane,
complete-intersection and hyperelliptic curve models; Jacobian-ring
cup-product matrices for smooth plane curves; genus and delta-invariant
bookkeeping; and rank-defect predictions for degenerating families.
"""

from .degeneration import (
    DegenerationError,
    DegenerationReport,
    DegenerationSpec,
    SmoothingStep,
    rank_defect,
    step,
    yukawa_defect,
)
from .invariants import (
    PETRI_CLASSES,
    UNDOCUMENTED,
    ClassMuReport,
    CurveInvariants,
    SingularityRecord,
    bicanonical_dim,
    ci_genus,
    class_mu_report,
    curve_invariants,
    plane_pa,
    singularity,
    sym2_dim,
)
from .jacobian import (
    InvariantError,
    IVHSReport,
    JacobianContext,
    SmoothnessError,
    graded_piece_dim,
    ivhs_matrix,
    ivhs_max_rank,
    jacobian_context,
)
from .linalg import ExactMatrix, SparseRow
from .mult import (
    MultiplicationReport,
    RegularSequenceError,
    ci_mu,
    hyperelliptic_mu,
    plane_mu,
)
from .poly import (
    PLANE_VARS,
    SPACE_VARS,
    Monomial,
    Polynomial,
    PolynomialSyntaxError,
    VariableMismatchError,
    VariableSet,
    graded_monomials,
    monomial_count,
    parse_polynomial,
)
from .quotient import (
    GradedQuotientContext,
    ideal_degree_dim,
    koszul_expected_dim,
    quotient_context,
)
from .fixtures import FIXTURES_DIR, FixtureResult, FixtureSuiteResult, run_fixture_suite
from .report import Report, render_json, render_text
from .specfile import SpecFileError, load_degeneration_spec

__all__ = [
    "ClassMuReport",
    "CurveInvariants",
    "DegenerationError",
    "DegenerationReport",
    "DegenerationSpec",
    "ExactMatrix",
    "FIXTURES_DIR",
    "FixtureResult",
    "FixtureSuiteResult",
    "GradedQuotientContext",
    "InvariantError",
    "IVHSReport",
    "JacobianContext",
    "Monomial",
    "MultiplicationReport",
    "PETRI_CLASSES",
    "PLANE_VARS",
    "Polynomial",
    "PolynomialSyntaxError",
    "RegularSequenceError",
    "Report",
    "SPACE_VARS",
    "SingularityRecord",
    "SmoothingStep",
    "SmoothnessError",
    "SparseRow",
    "SpecFileError",
    "UNDOCUMENTED",
    "VariableMismatchError",
    "VariableSet",
    "bicanonical_dim",
    "ci_genus",
    "ci_mu",
    "class_mu_report",
    "curve_invariants",
    "graded_monomials",
    "graded_piece_dim",
    "hyperelliptic_mu",
    "ideal_degree_dim",
    "ivhs_matrix",
    "ivhs_max_rank",
    "jacobian_context",
    "koszul_expected_dim",
    "load_degeneration_spec",
    "monomial_count",
    "parse_polynomial",
    "plane_mu",
    "plane_pa",
    "quotient_context",
    "rank_defect",
    "render_json",
    "render_text",
    "run_fixture_suite",
    "singularity",
    "step",
    "sym2_dim",
    "yukawa_defect",
]
