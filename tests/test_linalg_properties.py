"""Property tests of the exact core against the independent Fraction oracle.

Matrices up to 9 x 10 with integer or rational entries, including
products of thin factors so that rank deficiency and free columns
between pivots are common, entries of +-PRIME (which vanish mod the
prime of the certified rank), rows scaled by a common factor (possibly
negative) and a combination of two rows, which reduces to zero. The
modular pass of the certified rank is checked against dense elimination
mod the prime on rows with unsorted keys, residues near the prime and
multiples of it. The exact echelon is checked to be the same `Echelon`
for every order of its rows, and to leave them unmodified; the modular
and certified ranks and the echelon are the same for every row order at
the production prime and at 2 and 3, where the exact fallback runs, and
so is the certified rank under a bound lowered by planted dependencies.
"""

from copy import deepcopy
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivhs import (
    PLANE_VARS,
    Polynomial,
    graded_monomials,
    parse_polynomial,
    quotient_context,
)
import ivhs.linalg
from ivhs.linalg import (PRIME, Echelon, _certified_rank, _echelon, _integer_rows, _primitive,
                         _rank_bound, _rank_mod_p)

from oracles import (added, coordinates, gauss_eliminate, gauss_kernel, gauss_rank, mat_vec,
                     quotient_class_oracle, rank_mod_p_oracle, scaled, times_monomial)

INTEGERS = st.integers(-6, 6)
RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
WITH_PRIME = INTEGERS | st.sampled_from([PRIME, -PRIME])


def _grid(elements, rows, cols):
    return st.lists(
        st.lists(elements, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def matrices(draw):
    elements = draw(st.sampled_from([INTEGERS, RATIONALS, WITH_PRIME]))
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(1, 10))
    if draw(st.booleans()):
        grid = draw(_grid(elements, rows, cols))
    else:
        inner = draw(st.integers(0, 4))
        left, right = draw(_grid(elements, rows, inner)), draw(_grid(elements, inner, cols))
        grid = [
            [sum((left[i][t] * right[t][j] for t in range(inner)), 0) for j in range(cols)]
            for i in range(rows)
        ]
    if grid and draw(st.booleans()):
        i, k = draw(st.integers(0, rows - 1)), draw(st.sampled_from([-6, -1, 2, 4]))
        grid[i] = [k * e for e in grid[i]]
    if grid and draw(st.booleans()):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        a, b = draw(INTEGERS), draw(INTEGERS)
        grid.append([a * x + b * y for x, y in zip(grid[i], grid[j])])
    return grid


def _sparse(rows):
    """Dense rows as the sparse integer rows a command eliminates, each cleared of denominators."""
    return _integer_rows([{j: x for j, x in enumerate(row) if x} for row in rows])


def _rank(rows):
    sparse = _sparse(rows)
    return _certified_rank(sparse, _rank_bound(sparse))


def _cols(rows):
    return len(rows[0]) if rows else 1


def _kernel(ech, cols):
    """The kernel vector of each free column f, D*e_f - sum_i red_i[f]*e_(c_i), made primitive."""
    columns = [[] for _ in ech.free]
    for c, red in zip(ech.pivots, ech.reduced):
        for k, x in red:
            columns[k].append((c, -x))
    basis = []
    for f, entries in zip(ech.free, columns):
        v = [0] * cols
        for c, x in _primitive([*entries, (f, ech.scale)]):
            v[c] = x
        basis.append(tuple(v))
    return basis


def _rref(ech, nrows, cols):
    """The dense RREF: 1 at each pivot, the D-scaled free entries divided by D, zero rows last."""
    reduced = [[0] * cols for _ in range(nrows)]
    for row, c, red in zip(reduced, ech.pivots, ech.reduced):
        row[c] = 1
        for k, x in red:
            row[ech.free[k]] = Fraction(x, ech.scale)
    return reduced


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_matches_oracle_and_transpose(rows):
    transposed = [list(col) for col in zip(*rows)]
    rank = _rank(rows)
    assert rank == gauss_rank(rows)
    assert rank == _rank(transposed)
    assert rank == gauss_rank(transposed)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_is_the_canonical_primitive_basis(rows):
    cols = _cols(rows)
    kernel = _kernel(_echelon(_sparse(rows), cols), cols)
    assert _rank(rows) + len(kernel) == cols
    for v, expected in zip(kernel, gauss_kernel(rows, cols)):
        assert all(type(x) is int for x in v)
        assert all(e == 0 for e in mat_vec(rows, v))
        assert gcd(*v) == 1
        assert next(x for x in v if x) > 0
        # Same line as the oracle's vector, which has a 1 in its free column.
        scale = next(x for x, e in zip(v, expected) if e == 1)
        assert list(v) == [scale * e for e in expected]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_matches_oracle_and_is_idempotent(rows):
    cols = _cols(rows)
    ech = _echelon(_sparse(rows), cols)
    expected, expected_pivots = gauss_eliminate(rows)
    assert list(ech.pivots) == expected_pivots
    assert _rref(ech, len(rows), cols) == expected
    # The D-scaled reduced rows, eliminated again, give the same echelon.
    scaled_rows = [{c: ech.scale, **{ech.free[k]: x for k, x in red}}
                   for c, red in zip(ech.pivots, ech.reduced)]
    assert _echelon(scaled_rows, cols) == ech
    # The reduced rows hold nonzeros only, free columns increasing.
    assert all(all(x for _, x in red) and [k for k, _ in red] == sorted({k for k, _ in red})
               for red in ech.reduced)


@st.composite
def sparse_integer_rows(draw):
    """Sparse integer rows on some of 10 columns (the rest zero), zero rows allowed.

    A last row may be a combination of two others, so the rank falls short
    of the bound; a +-PRIME entry vanishes mod the prime.
    """
    columns = draw(st.lists(st.integers(0, 9), min_size=1, max_size=10, unique=True))
    entry = WITH_PRIME.filter(bool)
    rows = draw(st.lists(st.dictionaries(st.sampled_from(columns), entry), max_size=9))
    if rows and draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        i, j = draw(INTEGERS), draw(INTEGERS)
        combined = {c: i * a.get(c, 0) + j * b.get(c, 0) for c in a.keys() | b.keys()}
        rows.append({c: x for c, x in combined.items() if x})
    return rows


@settings(max_examples=200, deadline=None)
@given(sparse_integer_rows())
def test_rank_mod_p_stopped_at_the_bound_is_the_full_rank_mod_p(rows):
    assert _rank_mod_p(rows, _rank_bound(rows)) == _rank_mod_p(rows)
    dense = [[row.get(c, 0) for c in range(10)] for row in rows]
    assert _certified_rank(rows, _rank_bound(rows)) == gauss_rank(dense)


# Small entries, residues near PRIME (so that a lead is not 1 after an elimination),
# multiples of PRIME (which vanish mod the prime) and entries past it.
MODULAR = (INTEGERS | st.integers(PRIME - 2**20, PRIME - 1)
           | st.sampled_from([PRIME, -PRIME, 2 * PRIME]) | st.integers(-2**40, 2**40)).filter(bool)


@st.composite
def modular_rows(draw):
    """Sparse integer rows on up to 8 columns, keys in no particular order.

    A last row may be a combination of two others with large factors, so
    eliminations meet large leads and the rank falls short of the row count.
    """
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), MODULAR), max_size=8))
    if rows and draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        i, j = draw(MODULAR), draw(MODULAR)
        combined = {c: i * a.get(c, 0) + j * b.get(c, 0) for c in a.keys() | b.keys()}
        rows.append({c: x for c, x in combined.items() if x})
    return [dict(draw(st.permutations(list(row.items())))) for row in rows], ncols


@settings(max_examples=300, deadline=None)
@given(modular_rows(), st.data())
def test_rank_mod_p_matches_dense_elimination_and_writes_no_row(problem, data):
    rows, ncols = problem
    before = deepcopy(rows)
    rank = rank_mod_p_oracle(rows, ncols, PRIME)
    # A bound stops the pass once the rank reaches it, never earlier.
    below = [data.draw(st.integers(1, rank - 1))] if rank > 1 else []
    for bound in [None, _rank_bound(rows), *below]:
        assert _rank_mod_p(rows, bound) == (rank if bound is None else min(rank, bound))
        assert [list(row.items()) for row in rows] == [list(row.items()) for row in before]


# Small entries and entries within 3 of +-PRIME, so reductions meet large leads.
NEAR_PRIME = (INTEGERS | st.integers(PRIME - 3, PRIME + 3)
              | st.integers(-PRIME - 3, -PRIME + 3)).filter(bool)


@st.composite
def echelon_rows(draw):
    """Sparse integer rows on up to 8 columns, keys in no particular order.

    Zero rows, a repeated row and a combination of two rows (which reduces
    to zero) may be among them.
    """
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), NEAR_PRIME), max_size=8))
    rows += [{}] * draw(st.integers(0, 2))
    if rows and draw(st.booleans()):
        rows.append(dict(draw(st.sampled_from(rows))))
    if rows and draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        i, j = draw(NEAR_PRIME), draw(NEAR_PRIME)
        combined = {c: i * a.get(c, 0) + j * b.get(c, 0) for c in a.keys() | b.keys()}
        rows.append({c: x for c, x in combined.items() if x})
    return [dict(draw(st.permutations(list(row.items())))) for row in rows], ncols


def _oracle_echelon(rows, ncols):
    """The `Echelon` of the rows, read off the oracle's RREF: D is the lcm of its denominators."""
    reduced, pivots = gauss_eliminate([[row.get(c, 0) for c in range(ncols)] for row in rows])
    reduced = reduced[:len(pivots)]
    free = tuple(c for c in range(ncols) if c not in pivots)
    scale = lcm(*(e.denominator for row in reduced for e in row))
    return Echelon(tuple(pivots), free, scale, tuple(
        tuple((k, int(scale * row[f])) for k, f in enumerate(free) if row[f]) for row in reduced))


@settings(max_examples=300, deadline=None)
@given(echelon_rows(), st.data())
def test_echelon_is_the_same_for_every_row_order_and_writes_no_row(problem, data):
    rows, ncols = problem
    expected = _oracle_echelon(rows, ncols)
    # Every order of up to 5 rows; three drawn orders of more.
    orders = (permutations(rows) if len(rows) <= 5
              else [rows, *(data.draw(st.permutations(rows)) for _ in range(3))])
    for order in orders:
        order = list(order)
        before = deepcopy(order)
        assert _echelon(order, ncols) == expected
        assert [list(row.items()) for row in order] == [list(row.items()) for row in before]


@pytest.mark.parametrize("prime", [PRIME, 2, 3])
@settings(max_examples=150, deadline=None)
@given(echelon_rows(), st.data())
def test_ranks_and_echelon_are_the_same_for_every_row_order(prime, problem, data):
    # Mod 2 and 3 the modular rank often falls short, so the exact fallback runs.
    rows, ncols = problem
    dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    rank, rank_p = gauss_rank(dense), rank_mod_p_oracle(rows, ncols, prime)
    bounds = (_rank_bound(rows), min(len(rows), ncols))  # of held rows; of a stream
    expected = _echelon(rows, ncols)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ivhs.linalg, "PRIME", prime)
        for _ in range(3):
            order = data.draw(st.permutations(rows))
            assert _rank_mod_p(order) == rank_p
            for bound in bounds:
                assert _rank_mod_p(order, bound) == min(rank_p, bound)
                assert _certified_rank(iter(order), bound) == rank
            assert _echelon(order, ncols) == expected


@pytest.mark.parametrize("prime", [PRIME, 2, 3])
@settings(max_examples=150, deadline=None)
@given(echelon_rows(), st.data())
def test_certified_rank_under_a_bound_lowered_by_planted_dependencies(prime, problem, data):
    # Each planted row is a combination of the drawn rows, one more dependency among the
    # rows each, so min(rows - s, columns) bounds the rank for s planted rows, as
    # `quotient.ideal_degree_dim` passes it with `syzygies=s`. Mod 2 and 3 the pass often
    # falls short of it, and the fallback, which counts every row, must still decide.
    rows, ncols = problem
    planted = []
    for _ in range(data.draw(st.integers(0, 3)) if rows else 0):
        weights = data.draw(st.lists(INTEGERS, min_size=len(rows), max_size=len(rows)))
        combined = {c: sum(w * row.get(c, 0) for w, row in zip(weights, rows))
                    for c in range(ncols)}
        planted.append({c: x for c, x in combined.items() if x})
    held = rows + planted
    rank = gauss_rank([[row.get(c, 0) for c in range(ncols)] for row in held])
    bound = min(len(held) - len(planted), ncols)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ivhs.linalg, "PRIME", prime)
        for _ in range(3):
            assert _certified_rank(iter(data.draw(st.permutations(held))), bound) == rank


def test_certified_rank_falls_back_on_the_rows_as_given(monkeypatch):
    # Mod PRIME the rows are equal, so the pass reaches rank 1 of the bound 2;
    # over Q they are independent, and the exact fallback must see them unchanged.
    rows = [{1: 3, 0: 2}, {0: 2, 1: 3 + PRIME}]
    before = deepcopy(rows)
    seen = []
    echelon_basis = ivhs.linalg._echelon_basis

    def recorded(kept):
        seen.append(deepcopy(kept))
        return echelon_basis(kept)

    monkeypatch.setattr(ivhs.linalg, "_echelon_basis", recorded)
    assert _rank_mod_p(rows) == 1
    assert _certified_rank(iter(rows), 2) == 2
    assert seen == [before] and rows == before


# Polynomials in x, y, z of one degree, with small rational coefficients.
def _forms(degree):
    monomials = graded_monomials(PLANE_VARS, degree)
    return st.dictionaries(
        st.sampled_from(monomials), RATIONALS, min_size=1, max_size=len(monomials)
    ).map(lambda terms: Polynomial(PLANE_VARS, terms))


@st.composite
def quotients(draw):
    k = draw(st.integers(2, 5))
    degrees = draw(st.lists(st.integers(1, k), min_size=1, max_size=3))
    gens = [draw(_forms(d).filter(lambda p: not p.is_zero())) for d in degrees]
    return gens, k


@settings(max_examples=60, deadline=None)
@given(quotients(), st.data())
def test_reduce_kills_the_ideal_and_reads_the_basis_as_units(problem, data):
    gens, k = problem
    ctx = quotient_context(gens, k)
    for gen in gens:
        for m in graded_monomials(PLANE_VARS, k - gen.homogeneous_degree()):
            assert not any(coordinates(ctx, times_monomial(gen, m)))
    for position, m in enumerate(ctx.basis):
        unit = coordinates(ctx, Polynomial(PLANE_VARS, {m: 1}))
        assert unit == tuple(int(j == position) for j in range(ctx.dim))
    monomials = data.draw(st.lists(st.sampled_from(graded_monomials(PLANE_VARS, k)), max_size=4))
    _assert_columns_are_classes(ctx, monomials)


def _is_normal(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


@settings(max_examples=60, deadline=None)
@given(quotients(), st.data())
def test_every_number_is_an_int_unless_it_has_a_denominator(problem, data):
    # RATIONALS draws Fractions such as Fraction(2, 1); sums, products and
    # derivatives of them land on integers too. All must be stored as ints.
    gens, k = problem
    f, g = data.draw(_forms(k)), data.draw(_forms(k))
    m = data.draw(st.sampled_from(graded_monomials(PLANE_VARS, data.draw(st.integers(0, 2)))))
    c = data.draw(RATIONALS)
    derived = [parse_polynomial(str(f), PLANE_VARS), added(f, g), scaled(g, c), times_monomial(f, m)]
    for p in derived + [f.partial(i) for i in range(len(PLANE_VARS))]:
        assert all(map(_is_normal, p.terms.values())), p.terms
    # D times a class is an integer vector.
    ctx = quotient_context(gens, k)
    assert all(type(x) is int for column in ctx.reduce(list(f.terms)) for _, x in column)


def _assert_columns_are_classes(ctx, monomials):
    # One batch call gives, monomial by monomial, what a call on that monomial alone
    # gives, as nonzero (position, value) pairs with positions increasing.
    columns = ctx.reduce(iter(monomials))
    assert columns == [ctx.reduce([m])[0] for m in monomials]
    for column in columns:
        assert all(x for _, x in column)
        assert [k for k, _ in column] == sorted({k for k, _ in column})
        assert all(0 <= k < ctx.dim for k, _ in column)


def test_reduce_of_a_rational_pivot_class():
    # x^2 = -(1/3)(y^2 + z^2) modulo 3x^2 + y^2 + z^2 (after scaling by 1/2).
    gen = Polynomial(
        PLANE_VARS,
        {(2, 0, 0): Fraction(3, 2), (0, 2, 0): Fraction(1, 2), (0, 0, 2): Fraction(1, 2)},
    )
    ctx = quotient_context([gen], 2)
    assert (2, 0, 0) not in ctx.basis
    x2 = coordinates(ctx, Polynomial(PLANE_VARS, {(2, 0, 0): 1}))
    by_monomial = dict(zip(ctx.basis, x2))
    assert by_monomial[(0, 2, 0)] == Fraction(-1, 3)
    assert by_monomial[(0, 0, 2)] == Fraction(-1, 3)
    assert sum(1 for c in x2 if c) == 2
    _assert_columns_are_classes(ctx, graded_monomials(PLANE_VARS, 2))
    assert not any(coordinates(ctx, gen)) and not any(coordinates(ctx, scaled(gen, Fraction(2, 5))))


@settings(max_examples=80, deadline=None)
@given(quotients(), st.data())
def test_reduce_is_scale_times_the_oracle_coordinates(problem, data):
    # Each monomial's column is D times its oracle class; a form of 0-4 terms with
    # rational coefficients (zeros included) sums to its oracle class.
    gens, k = problem
    ctx = quotient_context(gens, k)
    gen_terms = [g.terms for g in gens]
    monomials = graded_monomials(PLANE_VARS, k)
    drawn = data.draw(st.lists(st.sampled_from(monomials), max_size=4))
    for m, column in zip(drawn, ctx.reduce(drawn)):
        basis, coords = quotient_class_oracle(gen_terms, 3, k, {m: 1})
        assert list(ctx.basis) == basis
        assert column == tuple((j, ctx.scale * c) for j, c in enumerate(coords) if c)
    form = data.draw(st.dictionaries(st.sampled_from(monomials), RATIONALS, max_size=4))
    _, coords = quotient_class_oracle(gen_terms, 3, k, form)
    assert coordinates(ctx, Polynomial(PLANE_VARS, form)) == tuple(coords)


@settings(max_examples=40, deadline=None)
@given(quotients())
def test_a_monomial_with_coefficient_one_reads_its_class_entry(problem):
    ctx = quotient_context(*problem)
    monomials = graded_monomials(PLANE_VARS, ctx.degree)
    columns = ctx.reduce(monomials)
    assert len(columns) == len(monomials)
    assert all(column is ctx.classes[m] for m, column in zip(monomials, columns))
