"""Canonical multiplication maps Sym^2 H^0(omega) -> H^0(omega^2) as explicit matrices.

Three concrete models are supported: plane curves (dualizing sheaf cut
out by degree d-3 forms), complete intersections of two surfaces in
3-space (degree a+b-4 forms modulo the two equations), and hyperelliptic
curves (pure exponent arithmetic on the affine differentials x^i dx/y).

The Sym^2 source is the list of unordered pairs (i <= j) of section-basis
elements in index-lex order; the column for a pair is the reduction of the
product, taken once (no factor of two), so ranks and kernels match the
monomial-pair conventions used for hand computations.

Many pairs share a product (every hyperelliptic column is e_{i+j}), so
the matrix M is never eliminated itself. Let P be the matrix whose column
k is the class of the distinct product m_k, products in the order of
their first pair; M is P gathered by `index[j]`, the distinct product of
pair j. P is never eliminated either. A vector lambda is in its kernel
exactly when sum_k lambda_k m_k lies in the ideal's piece in the degree
of the products, so P's kernel is the ideal's forms that use only the
products: all of F * S_{d-6} for a plane curve, whose products are every
monomial of degree 2d-6, and the part of (q, c)_{2p_a} on the products
for a complete intersection. `quotient.ideal_relations` reads them from
the target context, off one elimination of the ideal's multiples, and
they are P's canonical kernel basis (one primitive vector per free
column, lead entry positive), because:

- That basis depends only on the kernel: vector f is the one with its
  last nonzero entry at free column f and 0 at the other free columns.
- With the other monomials as the first columns and the products
  reversed after them, the reduced rows whose pivot is a product span
  the ideal's forms that vanish on the other monomials.
- Read in the products' order, such a row ends at its pivot and is 0 at
  the other kept pivots. So the kept pivots are the last entries of the
  kernel vectors, P's free columns, and each row is a multiple of the
  vector of its pivot; primitive with a positive first entry, it is that
  vector.

M's canonical kernel (one primitive vector per non-pivot column of M,
lead entry positive) follows from P's:

- A repeated column equals an earlier one, so greedy pivots never land
  on it, and the first occurrences span what P spans: M's pivots are the
  first occurrences of P's pivots, and column j of M's RREF is column
  index[j] of P's.
- The first occurrence of a free column of P therefore gets that
  column's kernel vector, moved to pair positions (first occurrences are
  increasing, so the lead entry stays the lead).
- A repeat j of a pivot column p gets e_p - e_j.
- A repeat j of a free column f gets f's vector with its last entry (at
  f's first pair) moved to j: the same entries, so the same gcd, and the
  same lead unless that entry is the only one.

P's columns come from one `target.reduce` call: the class-table entry of
m_k is D times column k, and no product polynomial is built. M's entries
are those entries divided by D.

`_report` makes one pass over the pairs, in order: it appends column
index[j] of P to M's sparse rows at j, so each row comes out with
positions increasing, notes each column's first pair and emits pair j's
kernel vector by the rules above, and its relation: e_p - e_j's text,
"<label p> - <label j>", is written there, any other by `_signed_sum`.
M is never eliminated, so the report keeps its rows as they are
written: `SparseRow`s, like the kernel's.

A free target, with no generator of degree <= that of the products,
takes no elimination at all. `quotient_context` decides it, once: each
class is a unit vector, and `ideal_relations` returns no relation when
the basis is every monomial, so P has full column rank, and M's kernel
is the repeat relations e_first - e_j alone. Plane curves of degree
d <= 5 (2d-6 < d) take this route through `quotient_context` like every
other plane curve. The hyperelliptic model has no equation to divide by:
its unit columns (row i+j of the 2g-1 exponents) are written directly.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from operator import add
from typing import Iterable, NamedTuple, Sequence

from .linalg import Entry, _ratio
from .poly import Polynomial, _monomial_text, _signed_sum, graded_monomials, monomial_count
from .quotient import (GradedQuotientContext, ideal_degree_dim, ideal_relations,
                       koszul_expected_dim, quotient_context)
from .report import SparseRow


class RegularSequenceError(ValueError):
    """The two equations do not behave like a regular sequence in the degrees used."""


class MultiplicationReport(NamedTuple):
    """Multiplication matrix of a concrete model with its rank and kernel.

    `matrix` holds M's rows, one per target basis element, as `SparseRow`s
    of length `source_dim`: positions increasing, each value a nonzero int,
    or a Fraction with denominator > 1. `kernel_rows` are primitive
    integer vectors over the Sym^2 pair basis, also `SparseRow`s;
    kernel_relations renders each kernel vector as a quadratic relation in
    the pair labels.
    """

    model: str
    source_dim: int
    target_dim: int
    rank: int
    kernel_dim: int
    matrix: tuple[SparseRow, ...]
    kernel_rows: tuple[SparseRow, ...]
    pairs: tuple[tuple[int, int], ...]
    section_labels: tuple[str, ...]
    pair_labels: tuple[str, ...]
    kernel_relations: tuple[str, ...]


def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations_with_replacement(range(n), 2))


def _report(model: str, index: Sequence[int], columns: Sequence[Sequence[tuple[int, Entry]]],
            kernel: Iterable[Sequence[tuple[int, int]]], target_dim: int,
            section_labels: list[str]) -> MultiplicationReport:
    """Report of the matrix M whose column j is column `index[j]` of P.

    `columns[k]` holds the nonzero (row, value) entries of column k of P,
    and `kernel` the nonzero (column, value) entries of P's canonical
    kernel vectors; M's rows and canonical kernel come out of one pass
    over the pairs (see the module docstring).
    """
    pairs = _pairs(len(section_labels))
    n = len(pairs)
    rows: list[list[tuple[int, Entry]]] = [[] for _ in range(target_dim)]
    # The last nonzero entry of a kernel vector of P sits at its free column.
    free = {entries[-1][0]: entries for entries in kernel}
    first: dict[int, int] = {}
    pair_labels = tuple(f"{section_labels[i]}*{section_labels[j]}" for i, j in pairs)
    vectors, relations = [], []
    for j, k in enumerate(index):
        for r, x in columns[k]:
            rows[r].append((j, x))
        p = first.setdefault(k, j)
        entries = free.get(k)
        if p != j and entries is None:  # a repeat of a pivot column: e_p - e_j
            vectors.append([(p, 1), (j, -1)])
            relations.append(f"{pair_labels[p]} - {pair_labels[j]}")
        elif entries is not None:
            if p == j:  # moved to pair positions once, for its repeats too
                free[k] = entries = [(first[c], x) for c, x in entries]
            vectors.append(entries if p == j else [*entries[:-1], (j, entries[-1][1])])
            relations.append(_signed_sum(vectors[-1], pair_labels.__getitem__))
    return MultiplicationReport(
        model=model,
        source_dim=n,
        target_dim=target_dim,
        rank=n - len(vectors),
        kernel_dim=len(vectors),
        matrix=tuple(SparseRow(n, entries) for entries in rows),
        kernel_rows=tuple(SparseRow(n, entries) for entries in vectors),
        pairs=pairs,
        section_labels=tuple(section_labels),
        pair_labels=pair_labels,
        kernel_relations=tuple(relations),
    )


def _monomial_sym2_report(
    model: str, sections: Sequence[tuple[int, ...]], target: GradedQuotientContext
) -> MultiplicationReport:
    """Report of the products of monomial sections, pairs in index-lex order, in `target`."""
    products = [tuple(map(add, a, b)) for a, b in combinations_with_replacement(sections, 2)]
    distinct = {m: k for k, m in enumerate(dict.fromkeys(products))}
    columns = target.reduce(distinct)
    kernel = ideal_relations(target, list(distinct))
    if target.scale != 1:
        columns = [[(r, _ratio(x, target.scale)) for r, x in column] for column in columns]
    return _report(model, [distinct[m] for m in products], columns, kernel, target.dim,
                   [_monomial_text(m, target.variables) for m in sections])


def _plane_degree(curve: Polynomial) -> int:
    """The degree d >= 4 of a plane curve equation; a ValueError for any other input."""
    if len(curve.variables) != 3:
        raise ValueError("plane model expects 3 variables")
    d = curve.homogeneous_degree()
    if d is None:
        raise ValueError("curve equation must be nonzero")
    if d < 4:
        raise ValueError("plane model expects degree >= 4")
    return d


def plane_mu(curve: Polynomial, singular: bool = False) -> MultiplicationReport:
    """Multiplication matrix for a degree-d plane curve, d >= 4.

    Canonical sections are all degree d-3 monomials; the target is the
    degree 2d-6 quotient by the curve equation (for d <= 5 all of
    S_{2d-6}, a free target). The construction only uses that the curve
    is reduced with planar Gorenstein singularities, so declared-singular
    inputs are accepted and labeled.
    """
    d = _plane_degree(curve)
    model = f"{'singular-plane' if singular else 'plane'}(d={d})"
    return _monomial_sym2_report(model, graded_monomials(curve.variables, d - 3),
                                 quotient_context([curve], 2 * d - 6))


def ci_mu(eq1: Polynomial, eq2: Polynomial) -> MultiplicationReport:
    """Multiplication matrix for a complete intersection of type (a, b) in 3-space.

    Raises RegularSequenceError when the computed quotient dimensions
    disagree with the inclusion-exclusion count for a regular sequence;
    the check runs in the source degree a+b-4, the target degree
    2(a+b-4), and, for a+b <= 6, the first syzygy degree a+b (where a
    dependent pair such as (Q, Q*L) first becomes visible): a pair that is
    not regular shares a factor h of degree t >= 1, so (c/h)*q - (q/h)*c is
    a syzygy of degree a+b-t and the count fails from there on, in
    2(a+b-4) once a+b >= 7. The degree-(a+b) multiples satisfy the Koszul
    syzygy c*q - q*c, so their rank is at most rows - 1, and a rank of
    rows - 1 mod p certifies that check.
    """
    if eq1.variables != eq2.variables or len(eq1.variables) != 4:
        raise ValueError("complete-intersection model expects a shared set of 4 variables")
    da, db = eq1.homogeneous_degree(), eq2.homogeneous_degree()
    if da is None or db is None:
        raise ValueError("generators must be nonzero")
    first, second = (eq1, eq2) if da <= db else (eq2, eq1)
    a, b = min(da, db), max(da, db)
    if a + b < 5:
        raise ValueError("type (a,b) needs a+b >= 5 for an effective dualizing sheaf")
    gens = [first, second]
    pa = a + b - 4
    source = quotient_context(gens, pa)
    target = quotient_context(gens, 2 * pa)
    checks = [(pa, source.dim), (2 * pa, target.dim)]
    if a + b < 7:  # from 7 on, a shared factor fails in degree 2(a+b-4) already
        checks.append((a + b, monomial_count(4, a + b) - ideal_degree_dim(gens, a + b, syzygies=1)))
    for k, computed in checks:
        expected = koszul_expected_dim((a, b), 4, k)
        if computed != expected:
            raise RegularSequenceError(
                f"quotient dimension {computed} in degree {k} differs from the "
                f"regular-sequence count {expected}; the pair of degrees ({a},{b}) "
                "is not a regular sequence there"
            )
    return _monomial_sym2_report(f"complete-intersection({a},{b})", source.basis, target)


def hyperelliptic_mu(g: int) -> MultiplicationReport:
    """Multiplication matrix for a hyperelliptic curve of genus g >= 2.

    Sections are x^i dx/y for i = 0..g-1, products land at exponent i+j,
    so column (i, j) is e_{i+j} of the 2g-1 exponents; the rank is 2g-1,
    and the target is free (unit columns, no kernel), so nothing is eliminated.
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    index = [i + j for i, j in _pairs(g)]
    units = [((r, 1),) for r in range(2 * g - 1)]
    return _report(f"hyperelliptic(g={g})", index, units, (), len(units),
                   [f"s{i}" for i in range(g)])
