"""Jacobian-ring model of the IVHS for smooth plane curves.

For a smooth degree-d curve cut out by F, the graded pieces of
S/(dF/dx, dF/dy, dF/dz) realize the Hodge data: degree d-3 carries the
canonical sections, degree d the deformation classes, and degree 2d-3
the target of the cup product. Multiplying by a class xi of degree d and
reducing gives the cup-product matrix, whose rank measures how much of
the period map the direction xi sees. The matrix is read from the class
table of the degree 2d-3 piece, by adding exponents, with no product
polynomial built.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from operator import add
from typing import NamedTuple

from .invariants import InvariantError
from .linalg import Entry, ExactMatrix, _rank_bound, _ratio
from .poly import Polynomial, graded_monomials, monomial_count
from .quotient import (GradedQuotientContext, ideal_degree_dim, koszul_expected_dim,
                       quotient_context)


class SmoothnessError(ValueError):
    """The declared curve is not smooth, so the Jacobian model does not apply."""


class PieceDims(NamedTuple):
    """Dimensions of the three graded pieces used by the cup product."""

    sections: int      # degree d-3
    deformations: int  # degree d
    targets: int       # degree 2d-3


class JacobianContext:
    """A smooth plane curve and its partials; each graded piece is built when first read.

    The partials of a smooth curve are a regular sequence of three forms of
    degree d-1, so the Koszul complex resolves S/J_F (Eisenbud, "Commutative
    Algebra", section 17): the dimension of its degree-k piece is the t^k
    coefficient of ((1 - t^(d-1)) / (1 - t))^3 (Carlson and Griffiths 1980,
    "Infinitesimal variations of Hodge structure and the global Torelli
    problem"). `dims` reads that closed form. `sections`, `deformations` and
    `targets` are the quotient contexts of degrees d-3, d and 2d-3. The
    sections piece lies below the partials' degree d-1, so it is free and
    takes no elimination; the other two take one exact elimination each. A
    built piece off the closed form raises InvariantError.
    """

    def __init__(self, curve: Polynomial, degree: int,
                 partials: tuple[Polynomial, Polynomial, Polynomial], socle_degree: int):
        self.curve, self.degree, self.partials = curve, degree, partials
        self.socle_degree = socle_degree

    @cached_property
    def sections(self) -> GradedQuotientContext:
        return self._piece(self.degree - 3)

    @cached_property
    def deformations(self) -> GradedQuotientContext:
        return self._piece(self.degree)

    @cached_property
    def targets(self) -> GradedQuotientContext:
        return self._piece(2 * self.degree - 3)

    @property
    def dims(self) -> PieceDims:
        """The dimensions in degrees d-3, d and 2d-3, from the Hilbert series."""
        d = self.degree
        return PieceDims(*map(self._hilbert, (d - 3, d, 2 * d - 3)))

    def _hilbert(self, k: int) -> int:
        return koszul_expected_dim((self.degree - 1,) * 3, 3, k)

    def _piece(self, k: int) -> GradedQuotientContext:
        """The degree-k quotient context; raises InvariantError off the Hilbert series."""
        piece, expected = quotient_context(self.partials, k), self._hilbert(k)
        if piece.dim != expected:
            raise InvariantError(
                f"the degree-{k} piece has dimension {piece.dim}, but the Hilbert "
                f"series of a smooth curve's Jacobian ring gives {expected}"
            )
        return piece


class IVHSReport(NamedTuple):
    """Cup-product matrix of one deformation class, with its exact rank.

    `matrix` keeps the sparse rows read from the class table: one row per
    target basis element, one column per canonical section.
    """

    xi: Polynomial
    matrix: ExactMatrix
    rank: int
    is_max: bool


def jacobian_context(curve: Polynomial) -> JacobianContext:
    """Certify that the curve is smooth; its graded pieces are built when read.

    The curve is smooth exactly when its partials have no common zero, that
    is when the quotient vanishes in Macaulay's degree sum(deg F_i - 1) + 1
    = 3d-5, one past the socle degree 3(d-2) (Macaulay 1902, "Some formulae
    in elimination"; Cox, Little and O'Shea, "Using Algebraic Geometry",
    ch. 3 section 4). That is the one rank taken here, certified by
    `quotient.ideal_degree_dim` against the number of monomials; it reads
    Macaulay's square matrix first, so when that is nonsingular mod p no
    other multiple is built. `dims` is then a closed form, and no piece is
    eliminated until it is read.
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
    if ideal_degree_dim(partials, socle + 1) != monomial_count(3, socle + 1):
        raise SmoothnessError(
            "the partial derivatives do not cut out a finite-length quotient "
            f"(nonzero piece in degree {socle + 1}); the curve is singular"
        )
    return JacobianContext(curve=curve, degree=d, partials=partials,  # type: ignore[arg-type]
                           socle_degree=socle)


def ivhs_matrix(ctx: JacobianContext, xi: Polynomial) -> IVHSReport:
    """Cup-product matrix of the class of xi acting on the canonical sections."""
    if xi.variables != ctx.curve.variables:
        raise ValueError("xi is over a different variable set")
    if not xi.is_zero() and xi.homogeneous_degree() != ctx.degree:
        raise ValueError(f"xi must be homogeneous of degree {ctx.degree}")
    return _ranked(ctx, xi, _cup_rows(ctx, xi))


def _cup_rows(ctx: JacobianContext, xi: Polynomial) -> list[dict[int, Entry]]:
    """Rows (over the target basis) of the cup-product matrix of xi, nonzero entries only.

    Column j is the class of xi * s_j for the j-th section s_j: the sum
    of c * classes[e + s_j] over the terms c * x^e of xi, divided once by D.
    """
    target = ctx.targets
    terms = list(xi.terms.items())
    rows: list[dict[int, Entry]] = [{} for _ in range(target.dim)]
    for j, s in enumerate(ctx.sections.basis):
        column: dict[int, Entry] = {}
        for e, c in terms:
            for k, x in target.classes[tuple(map(add, e, s))]:
                column[k] = column.get(k, 0) + c * x
        for k, a in column.items():
            if a:
                rows[k][j] = _ratio(a, target.scale)
    return rows


def _ranked(ctx: JacobianContext, xi: Polynomial, rows: list[dict[int, Entry]]) -> IVHSReport:
    """The report of xi: its `_cup_rows` wrapped with no copy, ranked by `ExactMatrix.rank`."""
    matrix = ExactMatrix(len(rows), ctx.sections.dim, tuple(rows))
    rank = matrix.rank()
    return IVHSReport(xi=xi, matrix=matrix, rank=rank, is_max=rank == matrix.cols)


def ivhs_max_rank(ctx: JacobianContext, budget: int) -> tuple[IVHSReport, bool]:
    """Deterministic search for a deformation class of maximal cup-product rank.

    Candidates are tried in a fixed order: every degree-d monomial first,
    then sums (unit coefficients) of k = 2, 3, ... distinct monomials from
    the quotient basis of the degree-d piece, combinations enumerated in
    graded-lex order. The first candidate attaining the best rank wins,
    and the search stops as soon as the rank equals the section count.

    Each candidate's matrix is read from the class table of the target
    piece (`_cup_rows`). A candidate whose rank bound (`linalg._rank_bound`:
    rows, nonzero rows, nonzero columns) is at most the best rank so far
    cannot displace the first best, so its matrix is not eliminated; it
    still counts against `budget`, so the result is the one of ranking
    every candidate.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    best: IVHSReport | None = None
    tried = 0
    for xi in _candidates(ctx):
        rows = _cup_rows(ctx, xi)
        if best is None or _rank_bound(rows) > best.rank:
            report = _ranked(ctx, xi, rows)
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
            yield Polynomial(variables, dict.fromkeys(combo, 1))
