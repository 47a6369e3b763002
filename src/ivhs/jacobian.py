"""Jacobian-ring model of the IVHS for smooth plane curves.

For a smooth degree-d curve cut out by F, the graded pieces of
S/(dF/dx, dF/dy, dF/dz) realize the Hodge data: degree d-3 carries the
canonical sections, degree d the deformation classes, and degree 2d-3
the target of the cup product. Multiplying by a class xi of degree d and
reducing gives the cup-product matrix, whose rank measures how much of
the period map the direction xi sees. The matrix is read from the class
table of the degree 2d-3 piece, by adding exponents, with no product
polynomial built.

The table holds D (the piece's `scale`) times each class, in integers.
The matrix stays in those integers, one column per section, through its
certified rank (`linalg._certified_rank`; rank M^T = rank M, and
`_rank_bound` is the same for M and M^T) and through the max-rank
search; only the rows of the report that is returned are divided by D.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import lcm
from operator import add
from typing import Iterator, NamedTuple, Sequence

from .invariants import InvariantError
from .linalg import Entry, _certified_rank, _rank_bound, _ratio
from .poly import Polynomial, graded_monomials, monomial_count
from .quotient import (GradedQuotientContext, ideal_degree_dim, koszul_expected_dim,
                       quotient_context)
from .report import SparseRow


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
    problem"). `dims` reads that closed form, once per context. `sections`,
    `deformations` and `targets` are the quotient contexts of degrees d-3, d
    and 2d-3. The sections piece lies below the partials' degree d-1, so it
    is free and takes no elimination; the other two take one exact
    elimination each. A built piece off its entry of `dims` raises
    InvariantError.
    """

    def __init__(self, curve: Polynomial, degree: int,
                 partials: tuple[Polynomial, Polynomial, Polynomial], socle_degree: int):
        self.curve, self.degree, self.partials = curve, degree, partials
        self.socle_degree = socle_degree

    @cached_property
    def sections(self) -> GradedQuotientContext:
        return self._piece(self.degree - 3, self.dims.sections)

    @cached_property
    def deformations(self) -> GradedQuotientContext:
        return self._piece(self.degree, self.dims.deformations)

    @cached_property
    def targets(self) -> GradedQuotientContext:
        return self._piece(2 * self.degree - 3, self.dims.targets)

    @cached_property
    def dims(self) -> PieceDims:
        """The dimensions in degrees d-3, d and 2d-3, from the Hilbert series."""
        d = self.degree
        return PieceDims(*(koszul_expected_dim((d - 1,) * 3, 3, k) for k in (d - 3, d, 2 * d - 3)))

    def _piece(self, k: int, expected: int) -> GradedQuotientContext:
        """The degree-k quotient context; raises InvariantError unless its dimension is
        `expected`, the Hilbert series' (`dims`)."""
        piece = quotient_context(self.partials, k)
        if piece.dim != expected:
            raise InvariantError(
                f"the degree-{k} piece has dimension {piece.dim}, but the Hilbert "
                f"series of a smooth curve's Jacobian ring gives {expected}"
            )
        return piece


class IVHSReport(NamedTuple):
    """Cup-product matrix of one deformation class, with its exact rank.

    `matrix` holds one `SparseRow` per target basis element, over the
    canonical sections, with exact int or `Fraction` values, positions
    increasing: the rows of the one class whose report this is.
    """

    xi: Polynomial
    matrix: tuple[SparseRow, ...]
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
    Macaulay's square matrix first, its rows last-first, so when that is
    nonsingular mod p no other multiple is built. Otherwise the other
    multiples follow; a rank mod p that still falls short is decided by
    `linalg._rank_bound` of all of them (a singular point at a vertex
    leaves a column zero) or else by their exact echelon basis. `dims` is
    then a closed form, and no piece is eliminated until it is read.
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
    """Cup-product matrix of the class of xi acting on the canonical sections.

    The matrix is ranked as L*D times its columns, integers: L clears xi's
    denominators once and D is the target piece's `scale`. Only the
    report's rows are divided by L*D.
    """
    if xi.variables != ctx.curve.variables:
        raise ValueError("xi is over a different variable set")
    if not xi.is_zero() and xi.homogeneous_degree() != ctx.degree:
        raise ValueError(f"xi must be homogeneous of degree {ctx.degree}")
    scale = lcm(*(c.denominator for c in xi.terms.values()))
    columns = _summed([(c.numerator * (scale // c.denominator), _read(ctx, e))
                       for e, c in xi.terms.items()], ctx.sections.dim)
    rank = _certified_rank(columns, _rank_bound(columns))
    return _report(ctx, xi, columns, scale * ctx.targets.scale, rank)


def _read(ctx: JacobianContext, e: tuple[int, ...]) -> list[Sequence[tuple[int, int]]]:
    """The columns of the monomial x^e: for each section s_j, the class-table entry of
    e + s_j, D times the class of x^e * s_j as (target position, integer) pairs."""
    classes = ctx.targets.classes
    return [classes[tuple(map(add, e, s))] for s in ctx.sections.basis]


def _summed(terms: list[tuple[int, list[Sequence[tuple[int, int]]]]], sections: int
            ) -> list[dict[int, int]]:
    """Integer columns of the cup product, one per section, nonzero entries only.

    Each term is a nonzero integer c and the columns (`_read`) of one monomial;
    column j of the sum is the sum of c times column j of each term.
    """
    summed = []
    for j in range(sections):
        column: dict[int, int] = {}
        for c, columns in terms:
            for k, x in columns[j]:
                # Table entries are nonzero, so a zero sum drops a key already present.
                if a := column.get(k, 0) + c * x:
                    column[k] = a
                else:
                    del column[k]
        summed.append(column)
    return summed


def _report(ctx: JacobianContext, xi: Polynomial, columns: list[dict[int, int]], scale: int,
            rank: int) -> IVHSReport:
    """The report of xi, its exact rows read off `scale` times its columns."""
    rows: list[list[tuple[int, Entry]]] = [[] for _ in range(ctx.targets.dim)]
    for j, column in enumerate(columns):
        for k, a in column.items():
            rows[k].append((j, _ratio(a, scale)))
    n = len(columns)
    return IVHSReport(xi=xi, matrix=tuple(SparseRow(n, row) for row in rows), rank=rank,
                      is_max=rank == n)


def ivhs_max_rank(ctx: JacobianContext, budget: int) -> IVHSReport:
    """Deterministic search for a deformation class of maximal cup-product rank.

    Candidates are tried in a fixed order: every degree-d monomial first,
    then sums (unit coefficients) of k = 2, 3, ... distinct monomials from
    the quotient basis of the degree-d piece, combinations enumerated in
    graded-lex order. The first candidate attaining the best rank wins,
    and the search stops as soon as the rank equals the section count.
    Its report is returned; `is_max` tells whether it reached that count.

    A candidate is the tuple of its monomials. Each monomial's D-scaled
    columns are read from the class table of the target piece once per
    call, with two bitmasks (`_masks`): the sections whose column is
    nonzero and the target positions those columns touch. A candidate's
    columns are the sum of its monomials' (`_summed`), nonzero only inside
    the union of their supports, so min(sections in the ORed section
    masks, positions in the ORed position masks) bounds its rank. A
    candidate whose bound is at most the best rank so far cannot displace
    the first best: it is not summed. One that is summed is ranked only
    when its `linalg._rank_bound` (nonzero columns, nonzero target
    positions of the sum) beats the best too. A skipped candidate still
    counts against `budget`, so the result is the one of ranking every
    candidate. Only the winner becomes a `Polynomial` with exact rows.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    n = ctx.sections.dim
    read: dict[tuple[int, ...], tuple[list[Sequence[tuple[int, int]]], int, int]] = {}
    best: tuple[int, tuple, list[dict[int, int]]] | None = None  # rank, candidate, columns
    tried = 0
    for candidate in _candidates(ctx):
        sections = positions = 0
        for m in candidate:
            if m not in read:
                own = _read(ctx, m)
                read[m] = own, *_masks(own)
            _, s, t = read[m]
            sections, positions = sections | s, positions | t
        if best is None or min(sections.bit_count(), positions.bit_count()) > best[0]:
            columns = _summed([(1, read[m][0]) for m in candidate], n)
            bound = _rank_bound(columns)
            if best is None or bound > best[0]:
                rank = _certified_rank(columns, bound)
                if best is None or rank > best[0]:
                    best = rank, candidate, columns
        tried += 1
        if best[0] == n or tried >= budget:
            break
    if best is None:
        raise InvariantError("the candidate list is empty")
    rank, candidate, columns = best
    xi = Polynomial(ctx.curve.variables, dict.fromkeys(candidate, 1))
    return _report(ctx, xi, columns, ctx.targets.scale, rank)


def _masks(columns: list[Sequence[tuple[int, int]]]) -> tuple[int, int]:
    """Bitmasks of the sections whose column is nonzero and of the target positions
    those columns touch."""
    sections = positions = 0
    for j, column in enumerate(columns):
        if column:
            sections |= 1 << j
            for k, _ in column:
                positions |= 1 << k
    return sections, positions


def _candidates(ctx: JacobianContext) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The search's candidates in order, each the tuple of its monomials (exponent tuples)."""
    for m in graded_monomials(ctx.curve.variables, ctx.degree):
        yield (m,)
    pool = ctx.deformations.basis
    for k in range(2, len(pool) + 1):
        yield from combinations(pool, k)
