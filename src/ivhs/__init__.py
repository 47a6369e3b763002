"""Exact-arithmetic invariants of the infinitesimal variation of Hodge structure.

The package computes, over the rationals and with no rounding anywhere:
canonical multiplication matrices and their ranks/kernels for plane,
complete-intersection and hyperelliptic curve models; Jacobian-ring
cup-product matrices for smooth plane curves; genus and delta-invariant
bookkeeping; and rank-defect predictions for degenerating families.
"""

from importlib import import_module

# The exports of each module, imported on first access (PEP 562): the CLI
# runs one command per process, and a command imports only its own modules.
_EXPORTS = {
    "degeneration": ("DegenerationError", "DegenerationReport", "DegenerationSpec",
                     "SmoothingStep", "rank_defect", "step", "yukawa_defect"),
    "fixtures": ("FIXTURES_DIR", "FixtureResult", "FixtureSuiteResult", "run_fixture_suite"),
    "invariants": ("PETRI_CLASSES", "UNDOCUMENTED", "ClassMuReport", "CurveInvariants",
                   "InvariantError", "SingularityRecord", "bicanonical_dim", "ci_genus",
                   "class_mu_report", "curve_invariants", "plane_pa", "singularity",
                   "sym2_dim"),
    "jacobian": ("IVHSReport", "JacobianContext", "SmoothnessError", "ivhs_matrix",
                 "ivhs_max_rank", "jacobian_context"),
    "linalg": ("ExactMatrix",),
    "mult": ("MultiplicationReport", "RegularSequenceError", "ci_mu", "hyperelliptic_mu",
             "plane_mu"),
    "poly": ("PLANE_VARS", "SPACE_VARS", "Polynomial", "PolynomialSyntaxError",
             "VariableMismatchError", "VariableSet", "graded_monomials", "monomial_count",
             "parse_polynomial"),
    "quotient": ("GradedQuotientContext", "ideal_degree_dim", "ideal_relations",
                 "koszul_expected_dim", "quotient_context"),
    "report": ("Report", "SparseRow", "render_json", "render_text"),
    "specfile": ("SpecFileError", "load_degeneration_spec"),
}
_SUBMODULES = ("cli", *_EXPORTS)
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
