"""Degree-k pieces of quotients S/I for explicitly generated homogeneous ideals.

Because every space handled here lives in one degree k with generators of
degree at most k, the degree-k piece of the ideal is exactly the span of
the monomial multiples of the generators; no Groebner bases are needed at
these sizes. `_multiple_rows` gives that matrix as an iterator of sparse
integer rows (a dict from column to coefficient), each built when it is
read, so a caller that stops early never builds the rest.

Columns are the degree-k monomials in `graded_monomials` order, numbered
from the tail sums t_i(e) = e_i + ... + e_(n-1) of an exponent vector e:
col(e) = sum over i = 1..n-1 of C(t_i(e) + n-1-i, n-i), the number of
degree-k vectors that come before e. Tail sums add, so the column of the
product of a generator term x^e and a shift x^s is a sum of table entries
at t_i(e) + t_i(s); one lazy map per generator term runs over the tail
sums of all its shifts, with no exponent tuple of a product and no index
of the columns. Nor is a shift built: the tail sums of the degree-m
shifts are the sequences m >= t_1 >= ... >= t_(n-1) >= 0, which
`combinations_with_replacement(range(m, -1, -1), n - 1)` lists in
reverse lex order (the shifts in reverse graded-lex order), and
s_j = t_j - t_(j+1) (t_0 = m) where an exponent is needed.

Macaulay's order: with generator g_i matched to variable x_i, the
multiple s * g_i is one of Macaulay's rows when no x_j^(deg g_j) with
j < i divides s * x_i^(deg g_i), that is, when it is the row of that
monomial in Macaulay's matrix. Listed generator by generator, shifts in
graded-lex order, those rows come first, last one first, and every
other multiple follows, in that listing's order. For the three
partials of a plane curve of degree d in degree 3d-5 (Macaulay's degree
sum(deg g_i - 1) + 1) every monomial has exactly one such row, so the
first rows form Macaulay's square matrix. The rows of g_1 there are the
shifts with t_1 > m - deg g_0, a prefix in reverse lex order; for a
later generator, a mask on that prefix picks its rows.

Where only a dimension is read, `ideal_degree_dim` takes the certified
rank of those rows (`linalg._certified_rank`) against the closed-form
bound min(number of multiples, number of monomials); the number of
multiples is a sum of `monomial_count`s, so the bound needs no row, and
a piece with no generator of degree <= k is 0 with no row built. A
smooth curve's Jacobian ideal fills its degree 3d-5 piece: when
Macaulay's square matrix is nonsingular mod p, the modular pass reaches
the bound after its rows and the other multiples are never built.
Otherwise the same pass reads on to the last row, and `_rank_bound` of
all the rows, or failing that their exact rank, decides; a piece where
the ideal has syzygies falls back that way.

Row order: every pass, modular or exact, reads the rows in this one
order. Rank, pivots and echelon do not depend on it (see `linalg`), but
the work does. Macaulay's rows are the likeliest to be independent, so
they come first, and last-first they take fewer reductions: the
smoothness pass on the benchmark's seed-0 curves of degree 6, 7 and 8
takes 84, 139 and 156, against 107, 166 and 191 in graded-lex order.
The early stop is kept: there are at most min(multiples, monomials) of
Macaulay's rows (one per monomial), so a pass certified against that
bound reads all of them before it can reach it, and then reads as many
rows as in graded-lex order, since the rank after them and the rows
after them are the same. The exact passes (`quotient_context`,
`ideal_relations`) read every row. Where every multiple is one of
Macaulay's rows, as for one generator and on the Jacobian pieces below
degree 3d-5 (shifts of degree below d-1), they read the multiples in
reverse, which leaves less back substitution: on the targets piece of
the quintic F_5 (30 rows, 36 columns) the echelon basis takes 17 row
reductions either way, and back substitution then subtracts 26 reduced
rows, against 40 in graded-lex order.

`quotient_context` runs the one exact elimination of `linalg` on the
same sparse rows (an echelon basis by gcd-divided row insertion, then
bottom-up back substitution): the non-pivot columns are a monomial basis
of the quotient, and the sparse integer reduced rows, on those columns
and scaled by D (the lcm of their pivot entries), give every monomial's
class. The columns run from the grlex-largest monomial down, so the
pivots are the grlex leading monomials of I_k, `basis` is the standard
monomials, and `classes[m]` is D times the normal form of m modulo the
reduced grlex Groebner basis of I, first variable heaviest. A free
piece, one with no generator of degree <= k, takes no elimination: its
basis is every degree-k monomial, D is 1 and each monomial is its own
class, read off the monomials with no row built.
That class table, `classes`, is keyed by exponent tuple, the one form of a
monomial, so a caller that adds exponents (as `jacobian.ivhs_matrix`
does for xi times a section) reads a class without building a product
polynomial. `reduce` reads the table in batches, monomial by monomial
(how `mult` reads products); a form's class is the sum of its terms'
entries times their coefficients, which `jacobian` adds up itself.

`ideal_relations(target, monomials)` gives the ideal's forms in the
degree of a built context that use only `monomials`: the linear
relations among their classes, as the canonical kernel basis of the
matrix of those classes (how `mult` reads the kernel of its products;
the argument is in its docstring). It reads the context's generators,
degree and stored `monomials`, so no generator is checked twice. It
runs the same elimination once, with the columns renumbered: the other
degree-k monomials first, then `monomials` reversed. The reduced rows
with a pivot among `monomials`, read back in their order and made
primitive with a positive first entry (`linalg._primitive`), are that
basis. No class matrix is built or eliminated, and a free piece, whose
basis is every monomial, has no relation: it returns none, with no row
built.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import (accumulate, chain, combinations, combinations_with_replacement, compress,
                       islice, repeat)
from operator import add, and_, lt, not_
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .linalg import _certified_rank, _echelon, _integer_rows, _primitive
from .poly import Polynomial, VariableMismatchError, VariableSet, _exponents, monomial_count


class GradedQuotientContext(NamedTuple):
    """Degree-k piece of S/(generators): monomial basis plus reduction data.

    `monomials` lists every degree-k monomial (exponent tuple), in
    `graded_monomials` order, and `basis` those representing the quotient.
    `classes` sends each of `monomials` to `scale` (D) times its
    coordinates, as sparse (basis position, integer) pairs; `reduce` reads
    it for a batch of monomials.
    """

    variables: VariableSet
    degree: int
    generators: tuple[Polynomial, ...]
    monomials: tuple[tuple[int, ...], ...]
    basis: tuple[tuple[int, ...], ...]
    scale: int
    classes: Mapping[tuple[int, ...], tuple[tuple[int, int], ...]]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, monomials: Iterable[tuple[int, ...]]
               ) -> list[tuple[tuple[int, int], ...]]:
        """D times the class of each degree-k monomial (an exponent tuple): its `classes` entry."""
        try:
            return list(map(self.classes.__getitem__, monomials))
        except KeyError as missing:
            if len(m := missing.args[0]) != len(self.variables):
                raise VariableMismatchError("monomial over a different variable set") from None
            raise ValueError(f"expected a monomial of degree {self.degree}, got {m}") from None


def _validated(generators: Sequence[Polynomial], k: int
               ) -> tuple[VariableSet, list[Polynomial], list[int]]:
    """The variable set, the generators and their degrees; raises on a mixed or zero
    generator, then on a negative degree k."""
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    variables = gens[0].variables
    degrees = []
    for g in gens:
        if g.variables != variables:
            raise VariableMismatchError("generators over different variable sets")
        if g.is_zero():
            raise ValueError("zero generator")
        degrees.append(g.homogeneous_degree())  # raises when inhomogeneous
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return variables, gens, degrees


def _multiple_rows(gens: Sequence[Polynomial], degrees: Sequence[int], k: int
                   ) -> Iterator[dict[int, int]]:
    """Sparse integer rows (column -> coefficient) of the degree-k multiples, each built when read.

    The rows come in Macaulay's order (see the module docstring), which
    every pass reads: the rows of Macaulay's matrix last-first, then the
    others, generator by generator. A generator with denominators is
    scaled once by their lcm, which keeps the row space. The column of
    e + s is a sum of table entries at the tail sums of e and s (see the
    module docstring): one lazy map per generator term runs over the tail
    sums of the shifts s, so no exponent tuple of a shift or of a product
    is built.
    """
    n = len(gens[0].variables)
    # Places i = n-2, ..., 1: C(t + n-1-i, n-i), the partial sums of place i+1 (t at n-1).
    tables, table = [], range(k + 1)
    for _ in range(n - 2):
        table = list(accumulate(table))
        tables.append(table)
    shifts: dict[int, list[tuple[int, ...]]] = {}
    firsts, rests = [], []
    for i, (g, dg) in enumerate(zip(gens, degrees)):
        if dg > k:
            continue
        m = k - dg
        if m not in shifts:  # the tail sums of the degree-m shifts, place by place, lex reversed
            shifts[m] = list(zip(*combinations_with_replacement(range(m, -1, -1), n - 1)))
        sums, first = shifts[m], monomial_count(n, m)  # first: g's rows in Macaulay's matrix
        if i:  # g's other rows follow those, in graded-lex order
            # Macaulay's rows have s_j < deg g_j for j < i; s_0 = m - t_1 < deg g_0 holds on
            # the shifts before the last C(c + n-1, n-1), those with t_1 <= c = m - deg g_0.
            first = first - monomial_count(n, m - degrees[0]) if i < n else 0
            if i == 1 or not first:
                sums = [t[:first] + t[first:][::-1] for t in sums]
            else:  # of those, a mask keeps the ones with s_j = t_j - t_(j+1) < deg g_j, j > 0
                heads = [t[:first] for t in sums]
                macaulay = list(reduce(partial(map, and_), [
                    map(lt, heads[j - 1], map(degrees[j].__add__, heads[j])) for j in range(1, i)]))
                first, rest = sum(macaulay), list(map(not_, reversed(macaulay)))
                sums = [(*compress(u, macaulay), *t[len(u):][::-1], *compress(u[::-1], rest))
                        for t, u in zip(sums, heads)]
        rows = _rows(tables, g, m, sums[::-1])
        firsts.append(islice(rows, first))  # drawn from the same iterator as the rest
        rests.append(rows)
    return chain(*reversed(firsts), *rests)


def _rows(tables: list[list[int]], g: Polynomial, m: int,
          sums: list[tuple[int, ...]]) -> Iterator[dict[int, int]]:
    """The rows of g times the degree-m shifts with these tail sums, each built when read.

    `sums` runs over the places i = n-1, ..., 1, as `accumulate` gives a term's tail
    sums u, and `tables` over i = n-2, ..., 1. The summand at place n-1 is
    u_(n-1) + t_(n-1), so u_(n-1) is added once into the entries read at place n-2.
    """
    [terms] = _integer_rows([g.terms])  # g scaled by the lcm of its denominators
    coeffs = list(terms.values())
    columns = []
    for e in g.terms:
        if not tables:  # n <= 2: the column is e_1 + t_1, or 0
            columns.append(map(add, sums[0], repeat(e[-1])) if sums else repeat(0, 1))
            continue
        last, *u = accumulate(e[:0:-1])  # u_(n-1), then u_(n-2), ..., u_1
        raised = list(map(last.__add__, tables[0][u[0]:u[0] + m + 1]))
        column = map(add, sums[0], map(raised.__getitem__, sums[1]))
        for table, t, ts in zip(tables[1:], u[1:], sums[2:]):
            column = map(add, column, map(table[t:].__getitem__, ts))
        columns.append(column)
    return map(dict, map(zip, zip(*columns), repeat(coeffs)))


def ideal_degree_dim(generators: Sequence[Polynomial], k: int, syzygies: int = 0) -> int:
    """Dimension of the degree-k piece of the ideal spanned by the generators.

    `syzygies` counts independent linear dependencies among the multiples
    that the caller knows of. The rank is certified against the closed-form
    bound min(multiples - syzygies, monomials), so the rows past the point
    where the rank mod p reaches it are never built; a pass that falls
    short has read every multiple (see `linalg` for why its fallback test
    needs no `syzygies`).
    """
    variables, gens, degrees = _validated(generators, k)
    n = len(variables)
    count = sum(monomial_count(n, k - dg) for dg in degrees)
    if not 0 <= syzygies <= count:
        raise ValueError(f"syzygies {syzygies} is not in [0, {count}], the number of multiples")
    if not count:
        return 0
    bound = min(count - syzygies, monomial_count(n, k))
    return _certified_rank(_multiple_rows(gens, degrees, k), bound)


def quotient_context(generators: Sequence[Polynomial], k: int) -> GradedQuotientContext:
    """Build the degree-k quotient: basis monomials are the non-pivot columns.

    A pivot monomial is congruent to minus its RREF row on the free
    columns, so D times its class is read off the reduced row directly.
    A piece with no generator of degree <= k is free: its basis is every
    monomial, D is 1, and no row is built or eliminated.
    """
    variables, gens, degrees = _validated(generators, k)
    columns = _exponents(len(variables), k)
    if min(degrees) > k:  # no multiple: the piece is free, each monomial its own class
        return GradedQuotientContext(variables, k, tuple(generators), columns, columns, 1,
                                     {m: ((pos, 1),) for pos, m in enumerate(columns)})
    ech = _echelon(_multiple_rows(gens, degrees, k), len(columns))
    classes = {columns[f]: ((pos, ech.scale),) for pos, f in enumerate(ech.free)}
    for c, red in zip(ech.pivots, ech.reduced):
        classes[columns[c]] = tuple((pos, -x) for pos, x in red)
    return GradedQuotientContext(
        variables=variables,
        degree=k,
        generators=tuple(generators),
        monomials=columns,
        basis=tuple(columns[f] for f in ech.free),
        scale=ech.scale,
        classes=classes,
    )


def ideal_relations(target: GradedQuotientContext, monomials: Sequence[tuple[int, ...]]
                    ) -> list[tuple[tuple[int, int], ...]]:
    """The ideal's degree-k forms that use only `monomials`, as their canonical basis.

    k is the target's degree. One vector per free column of the matrix
    whose column j is the class of monomials[j]: its nonzero (position,
    value) pairs, positions increasing, last at that column and 0 at the
    other free columns; primitive, lead entry positive, in the order of the
    free columns. The multiples are eliminated once with the other monomials
    as the first columns and `monomials` reversed after them (see the
    module docstring). A free piece, whose basis is every monomial, has
    none and takes no elimination once the arguments are checked.
    """
    columns = target.monomials
    last = len(columns) - 1
    number = {m: last - j for j, m in enumerate(monomials)}
    others = [m for m in columns if m not in number]
    if len(number) < len(monomials) or len(others) + len(number) != len(columns):
        raise ValueError(f"expected distinct monomials of degree {target.degree} "
                         f"in {len(target.variables)} variables")
    if target.dim == len(columns):  # no multiple: the piece is free, with no relation
        return []
    first = len(others)
    number.update(zip(others, range(first)))
    renumber = [number[m] for m in columns]
    gens = target.generators
    rows = _multiple_rows(gens, [g.homogeneous_degree() for g in gens], target.degree)
    ech = _echelon(({renumber[c]: x for c, x in row.items()} for row in rows),
                   len(columns))
    relations = []
    for c, red in zip(reversed(ech.pivots), reversed(ech.reduced)):
        if c < first:
            break
        # The reduced row's other entries sit at free columns right of c: positions before it.
        relations.append(_primitive(
            [*((last - ech.free[f], x) for f, x in reversed(red)), (last - c, ech.scale)]))
    return relations


def koszul_expected_dim(degrees: Sequence[int], nvars: int, k: int) -> int:
    """Quotient dimension in degree k predicted for a regular sequence of these degrees.

    The Koszul complex (Eisenbud, "Commutative Algebra", section 17) gives the sum over the
    subsets T of the degrees of (-1)^|T| monomial_count(nvars, k - sum(T)).
    """
    if min(degrees, default=1) < 1:
        raise ValueError("generator degrees must be positive")
    return sum((-1) ** r * monomial_count(nvars, k - sum(subset))
               for r in range(len(degrees) + 1) for subset in combinations(degrees, r))
