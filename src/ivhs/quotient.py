"""Degree-k pieces of quotients S/I for explicitly generated homogeneous ideals.

Because every space handled here lives in one degree k with generators of
degree at most k, the degree-k piece of the ideal is exactly the span of
the monomial multiples of the generators; no Groebner bases are needed at
these sizes. `_multiple_rows` builds that matrix as sparse rows (a dict
from column to coefficient), adding exponent tuples into an index of the
degree-k monomials; the shifts are listed once per generator degree.

Macaulay's order: with generator g_i matched to variable x_i, the
multiple s * g_i is listed first when no x_j^(deg g_j) with j < i
divides s * x_i^(deg g_i), that is, when it is the row of that monomial
in Macaulay's matrix; every other multiple follows. For the three
partials of a plane curve of degree d in degree 3d-5 (Macaulay's degree
sum(deg g_i - 1) + 1) every monomial has exactly one such row, so the
first rows form Macaulay's square matrix.

Where only a dimension is read, `ideal_degree_dim` returns the certified
rank of those rows (`linalg._rank`: the rank mod p when it reaches the
rank bound, else the exact rank). A smooth curve's Jacobian ideal fills
its degree 3d-5 piece; when Macaulay's square matrix is nonsingular mod
p, the modular pass stops after its rows, and otherwise the remaining
rows decide. A piece where the ideal has syzygies falls back.

`quotient_context` runs the one exact elimination of `linalg` on the
same sparse rows (an echelon basis by gcd-divided row insertion, then
bottom-up back substitution): the non-pivot columns are a monomial basis
of the quotient, and the sparse integer reduced rows, on those columns
and scaled by D (the lcm of their pivot entries), give every monomial's
class. That class table, `classes`, is keyed by exponent tuple, so a
caller that adds exponents (as `jacobian.ivhs_matrix` does for xi times
a section) reads a class without building a `Monomial` or a product
polynomial. `reduce` is a single sparse pass over the terms of f
followed by one division by D, and `matrix_of` stacks the classes of a
sequence of products as the columns of one matrix, kept as sparse rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import add, lt
from typing import Iterable, Mapping, Sequence

from .linalg import Entry, ExactMatrix, _echelon, _rank, _ratio
from .poly import (
    Monomial,
    Polynomial,
    VariableMismatchError,
    VariableSet,
    _exponents,
    graded_monomials,
    monomial_count,
)


@dataclass(frozen=True)
class GradedQuotientContext:
    """Degree-k piece of S/(generators): monomial basis plus reduction data.

    `basis` lists the monomials representing the quotient; `reduce` maps
    any degree-k polynomial to its coordinate vector over that basis.
    `classes` sends the exponent tuple of every degree-k monomial to
    `scale` (D) times its coordinates, as sparse (basis position, integer)
    pairs.
    """

    variables: VariableSet
    degree: int
    generators: tuple[Polynomial, ...]
    basis: tuple[Monomial, ...]
    scale: int = field(repr=False)
    classes: Mapping[tuple[int, ...], tuple[tuple[int, int], ...]] = field(
        repr=False, compare=False
    )

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def monomials(self) -> tuple[Monomial, ...]:
        """Every degree-k monomial, in `graded_monomials` order; built on each read."""
        return tuple(graded_monomials(self.variables, self.degree))

    def reduce(self, f: Polynomial) -> tuple[Entry, ...]:
        """Coordinates of the class of f in `basis`; generator multiples go to zero."""
        if f.variables != self.variables:
            raise VariableMismatchError("polynomial over a different variable set")
        if not f.is_zero() and f.homogeneous_degree() != self.degree:
            raise ValueError(
                f"expected a homogeneous polynomial of degree {self.degree}"
            )
        acc: list[Entry] = [0] * len(self.basis)
        for m, c in f.terms.items():
            for k, x in self.classes[m.exponents]:
                acc[k] += c * x
        return tuple(_ratio(a, self.scale) if a else 0 for a in acc)

    def matrix_of(self, products: Iterable[Polynomial]) -> ExactMatrix:
        """The matrix whose column j is `reduce` of the j-th product (rows follow `basis`)."""
        rows: list[dict[int, Entry]] = [{} for _ in range(self.dim)]
        cols = 0
        for f in products:
            column = self.reduce(f)
            for r, x in compress(enumerate(column), column):
                rows[r][cols] = x
            cols += 1
        return ExactMatrix(self.dim, cols, tuple(rows))


def _validated(generators: Sequence[Polynomial]) -> tuple[VariableSet, list[Polynomial]]:
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    variables = gens[0].variables
    for g in gens:
        if g.variables != variables:
            raise VariableMismatchError("generators over different variable sets")
        if g.is_zero():
            raise ValueError("zero generator")
        g.homogeneous_degree()  # raises when inhomogeneous
    return variables, gens


def _multiple_rows(
    generators: Sequence[Polynomial], k: int
) -> tuple[VariableSet, list[tuple[int, ...]], list[dict[int, Entry]]]:
    """Column exponents and sparse rows (column -> coefficient) of the degree-k multiples.

    The rows come in Macaulay's order (see the module docstring): the rows
    of Macaulay's matrix, then the others, each part generator by generator.
    """
    variables, gens = _validated(generators)
    if k < 0:
        raise ValueError("degree must be nonnegative")
    n = len(variables)
    columns = _exponents(n, k)
    index = {e: i for i, e in enumerate(columns)}
    degrees = [g.homogeneous_degree() for g in gens]
    shifts: dict[int, list[tuple[int, ...]]] = {}
    first: list[dict[int, Entry]] = []
    rest: list[dict[int, Entry]] = []
    for i, (g, dg) in enumerate(zip(gens, degrees)):
        if dg > k:
            continue
        if dg not in shifts:
            shifts[dg] = _exponents(n, k - dg)
        # s * x_i^dg is divisible by x_j^(deg g_j) exactly when s_j >= deg g_j.
        below = degrees[:i] if i < n else None
        terms = [(m.exponents, c) for m, c in g.terms.items()]
        for s in shifts[dg]:
            row = {index[tuple(map(add, e, s))]: c for e, c in terms}
            if below is not None and all(map(lt, s, below)):
                first.append(row)
            else:
                rest.append(row)
    return variables, columns, first + rest


def ideal_degree_dim(generators: Sequence[Polynomial], k: int) -> int:
    """Dimension of the degree-k piece of the ideal spanned by the generators."""
    _, columns, rows = _multiple_rows(generators, k)
    return _rank(rows)


def quotient_context(generators: Sequence[Polynomial], k: int) -> GradedQuotientContext:
    """Build the degree-k quotient: basis monomials are the non-pivot columns.

    A pivot monomial is congruent to minus its RREF row on the free
    columns, so D times its class is read off the reduced row directly.
    """
    variables, columns, rows = _multiple_rows(generators, k)
    ech = _echelon(rows, len(columns))
    classes = {columns[f]: ((pos, ech.scale),) for pos, f in enumerate(ech.free)}
    for c, red in zip(ech.pivots, ech.reduced):
        classes[columns[c]] = tuple((pos, -x) for pos, x in red)
    return GradedQuotientContext(
        variables=variables,
        degree=k,
        generators=tuple(generators),
        basis=tuple(Monomial(columns[f]) for f in ech.free),
        scale=ech.scale,
        classes=classes,
    )


def koszul_expected_dim(a: int, b: int, nvars: int, k: int) -> int:
    """Quotient dimension in degree k predicted for a regular sequence of degrees (a, b)."""
    if a < 1 or b < 1:
        raise ValueError("generator degrees must be positive")
    return (
        monomial_count(nvars, k)
        - monomial_count(nvars, k - a)
        - monomial_count(nvars, k - b)
        + monomial_count(nvars, k - a - b)
    )
