"""Jacobian-ring model of the IVHS for smooth plane curves.

For a smooth degree-d curve cut out by F, the graded pieces of
S/(dF/dx, dF/dy, dF/dz) realize the Hodge data: degree d-3 carries the
canonical sections, degree d the deformation classes, and degree 2d-3
the target of the cup product. Multiplying by a class xi of degree d and
reducing gives the cup-product matrix, whose rank measures how much of
the period map the direction xi sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .linalg import ExactMatrix
from .poly import Polynomial, graded_monomials, monomial_count
from .quotient import GradedQuotientContext, ideal_degree_dim, quotient_context


class SmoothnessError(ValueError):
    """The declared curve is not smooth, so the Jacobian model does not apply."""


class InvariantError(ValueError):
    """An identity the Jacobian model guarantees did not hold (a defect, not bad input)."""


@dataclass(frozen=True)
class JacobianContext:
    """Quotient data for the three graded pieces used by the cup product."""

    curve: Polynomial
    degree: int
    partials: tuple[Polynomial, Polynomial, Polynomial]
    sections: GradedQuotientContext      # degree d-3
    deformations: GradedQuotientContext  # degree d
    targets: GradedQuotientContext       # degree 2d-3
    socle_degree: int


@dataclass(frozen=True)
class IVHSReport:
    """Cup-product matrix of one deformation class, with its exact rank."""

    xi: Polynomial
    matrix: ExactMatrix
    rank: int
    is_max: bool


def jacobian_context(curve: Polynomial) -> JacobianContext:
    """Build the graded quotient contexts from the partial derivatives of F.

    Smoothness is validated by checking that the quotient vanishes one
    degree past the socle degree 3(d-2); a singular curve leaves the
    quotient infinite-dimensional and fails this check.
    """
    if len(curve.variables) != 3:
        raise ValueError("the Jacobian model expects a plane curve in 3 variables")
    d = curve.homogeneous_degree()
    if d is None or d < 4:
        raise ValueError("curve must be homogeneous of degree >= 4")
    partials = tuple(curve.partial(i) for i in range(3))
    for i, p in enumerate(partials):
        if p.is_zero():
            raise SmoothnessError(
                f"partial derivative in {curve.variables.names[i]} vanishes "
                "identically; the curve is a cone and not smooth"
            )
    socle = 3 * (d - 2)
    if ideal_degree_dim(list(partials), socle + 1) != monomial_count(3, socle + 1):
        raise SmoothnessError(
            "the partial derivatives do not cut out a finite-length quotient "
            f"(nonzero piece in degree {socle + 1}); the curve is singular"
        )
    ctx = JacobianContext(
        curve=curve,
        degree=d,
        partials=partials,  # type: ignore[arg-type]
        sections=quotient_context(list(partials), d - 3),
        deformations=quotient_context(list(partials), d),
        targets=quotient_context(list(partials), 2 * d - 3),
        socle_degree=socle,
    )
    # Duality about the socle degree: (d-3) + (2d-3) = 3(d-2).
    if ctx.sections.dim != ctx.targets.dim:
        raise InvariantError(
            f"duality fails: degree {d - 3} has dimension {ctx.sections.dim} but "
            f"degree {2 * d - 3} has {ctx.targets.dim}"
        )
    return ctx


def graded_piece_dim(ctx: JacobianContext, k: int) -> int:
    """Dimension of the degree-k piece of the Jacobian quotient."""
    if k < 0:
        return 0
    return monomial_count(3, k) - ideal_degree_dim(list(ctx.partials), k)


def ivhs_matrix(ctx: JacobianContext, xi: Polynomial) -> IVHSReport:
    """Cup-product matrix of the class of xi acting on the canonical sections."""
    if xi.variables != ctx.curve.variables:
        raise ValueError("xi is over a different variable set")
    if not xi.is_zero() and xi.homogeneous_degree() != ctx.degree:
        raise ValueError(f"xi must be homogeneous of degree {ctx.degree}")
    matrix = ctx.targets.matrix_of(xi.mul_monomial(m) for m in ctx.sections.basis)
    rank = matrix.rank()
    return IVHSReport(xi=xi, matrix=matrix, rank=rank, is_max=rank == ctx.sections.dim)


def ivhs_max_rank(ctx: JacobianContext, budget: int) -> tuple[IVHSReport, bool]:
    """Deterministic search for a deformation class of maximal cup-product rank.

    Candidates are tried in a fixed order: every degree-d monomial first,
    then sums (unit coefficients) of k = 2, 3, ... distinct monomials from
    the quotient basis of the degree-d piece, combinations enumerated in
    graded-lex order. The first candidate attaining the best rank wins,
    and the search stops as soon as the rank equals the section count.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    best: IVHSReport | None = None
    tried = 0
    for xi in _candidates(ctx):
        report = ivhs_matrix(ctx, xi)
        if best is None or report.rank > best.rank:
            best = report
        tried += 1
        if best.is_max or tried >= budget:
            break
    if best is None:
        raise InvariantError("the candidate list is empty")
    return best, best.is_max


def _candidates(ctx: JacobianContext):
    variables = ctx.curve.variables
    for m in graded_monomials(variables, ctx.degree):
        yield Polynomial.from_monomial(variables, m)
    pool = ctx.deformations.basis
    for k in range(2, len(pool) + 1):
        for combo in combinations(pool, k):
            total = Polynomial.zero(variables)
            for m in combo:
                total = total + Polynomial.from_monomial(variables, m)
            yield total
