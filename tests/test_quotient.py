"""Graded quotient pieces: golden dimensions, reduction, brute-force agreement."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivhs import (
    PLANE_VARS,
    SPACE_VARS,
    ExactMatrix,
    Polynomial,
    VariableMismatchError,
    VariableSet,
    graded_monomials,
    ideal_degree_dim,
    ideal_relations,
    koszul_expected_dim,
    monomial_count,
    parse_polynomial,
    quotient_context,
)

import ivhs.quotient
from ivhs.linalg import PRIME
from oracles import (coordinates, dense_monomials, gauss_rank, quotient_class_oracle,
                     quotient_dim_oracle, times_monomial)

QUADRIC = parse_polynomial("x0*x1-x2*x3", SPACE_VARS)
CUBIC = parse_polynomial("x0^3+x1^3+x2^3+x3^3", SPACE_VARS)
CUBIC2 = parse_polynomial("x0^3+2*x1^3+3*x2^3+4*x3^3", SPACE_VARS)
FERMAT4 = parse_polynomial("x^4+y^4+z^4", PLANE_VARS)


def test_two_cubics_span_eight_quartics():
    assert ideal_degree_dim([CUBIC, CUBIC2], 4) == 8


def test_generator_above_degree_contributes_nothing():
    assert ideal_degree_dim([FERMAT4], 2) == 0


def test_unique_quadric():
    assert ideal_degree_dim([QUADRIC], 2) == 1


def test_quartic_quotient_in_degree_two_is_everything():
    ctx = quotient_context([FERMAT4], 2)
    assert ctx.dim == 6
    assert list(ctx.basis) == graded_monomials(PLANE_VARS, 2)
    assert list(ctx.monomials) == graded_monomials(PLANE_VARS, 2)


def test_quadric_cubic_quotient_degree_two():
    assert quotient_context([QUADRIC, CUBIC], 2).dim == 9


def test_cubic_pair_quotient_degree_four():
    assert quotient_context([CUBIC, CUBIC2], 4).dim == 27


def test_reduce_swaps_quadric_terms():
    # x0*x1 and x2*x3 agree modulo the quadric
    ctx = quotient_context([QUADRIC], 2)
    lhs = coordinates(ctx, parse_polynomial("x0*x1", SPACE_VARS))
    rhs = coordinates(ctx, parse_polynomial("x2*x3", SPACE_VARS))
    assert lhs == rhs
    position = list(ctx.basis).index((0, 0, 1, 1))
    assert lhs[position] == 1
    assert sum(1 for c in lhs if c) == 1


def test_reduce_zero_polynomial():
    ctx = quotient_context([QUADRIC], 2)
    assert coordinates(ctx, Polynomial(SPACE_VARS, {})) == (Fraction(0),) * 9


def test_reduce_kills_generator_multiples():
    gens = [parse_polynomial(t, PLANE_VARS) for t in ("x^3", "y^3", "z^3")]
    ctx = quotient_context(gens, 5)
    reduced = coordinates(ctx, parse_polynomial("x^3*y^2", PLANE_VARS))
    assert all(c == 0 for c in reduced)


def test_generator_multiples_reduce_to_zero_in_context():
    ctx = quotient_context([QUADRIC, CUBIC], 4)
    for g in (QUADRIC, CUBIC):
        dg = g.homogeneous_degree()
        for m in graded_monomials(SPACE_VARS, 4 - dg):
            assert all(c == 0 for c in coordinates(ctx, times_monomial(g, m)))


def test_single_generator_dimension_formula():
    # A nonzero form of degree d is a non-zerodivisor: dim = S_k - S_{k-d}
    gens = {
        1: parse_polynomial("x+2*y", PLANE_VARS),
        2: parse_polynomial("x^2-y*z", PLANE_VARS),
        3: parse_polynomial("x^3+y^3+x*y*z", PLANE_VARS),
        4: FERMAT4,
        5: parse_polynomial("x^5+y^5+z^5+x*y^2*z^2", PLANE_VARS),
    }
    for d, g in gens.items():
        for k in range(2 * d + 1):
            expected = monomial_count(3, k) - monomial_count(3, k - d)
            assert quotient_context([g], k).dim == expected


def test_koszul_expected_dims():
    assert koszul_expected_dim((2, 3), 4, 2) == 9
    assert koszul_expected_dim((3, 3), 4, 4) == 27
    assert koszul_expected_dim((2, 3), 4, 0) == 1


def test_complete_intersection_matches_koszul():
    for k in range(7):
        assert quotient_context([QUADRIC, CUBIC], k).dim == koszul_expected_dim((2, 3), 4, k)


def test_monomial_ideals_against_divisibility_oracle():
    # Exhaustive: every single monomial generator of degree <= 5 in 3 variables
    for d in range(1, 6):
        for gen in graded_monomials(PLANE_VARS, d):
            g = Polynomial.from_monomial(PLANE_VARS, gen)
            for k in range(9):
                divisible = sum(
                    1
                    for m in graded_monomials(PLANE_VARS, k)
                    if all(a >= b for a, b in zip(m, gen))
                )
                expected = monomial_count(3, k) - divisible
                assert monomial_count(3, k) - ideal_degree_dim([g], k) == expected


def test_dense_generators_against_elimination_oracle():
    rng = random.Random(17)
    for d in range(1, 6):
        mons = graded_monomials(PLANE_VARS, d)
        terms = {m: rng.randrange(-3, 4) for m in mons}
        if not any(terms.values()):
            terms[mons[0]] = 1
        g = Polynomial(PLANE_VARS, terms)
        for k in range(7):
            oracle = quotient_dim_oracle(g.terms, 3, d, k)
            assert quotient_context([g], k).dim == oracle


def test_multi_generator_against_elimination_oracle():
    # two- and three-generator sets in <= 3 variables, degrees <= 3, k <= 6
    sets = [
        ["x^2", "y^2"],
        ["x^2-y*z", "y^2-x*z"],
        ["x^3", "y^3", "z^3"],
        ["x*y", "y*z", "x*z"],
    ]
    for texts in sets:
        gens = [parse_polynomial(t, PLANE_VARS) for t in texts]
        for k in range(7):
            columns = graded_monomials(PLANE_VARS, k)
            index = {m: i for i, m in enumerate(columns)}
            rows = []
            for g in gens:
                dg = g.homogeneous_degree()
                if dg > k:
                    continue
                for shift in graded_monomials(PLANE_VARS, k - dg):
                    row = [Fraction(0)] * len(columns)
                    for m, c in times_monomial(g, shift).terms.items():
                        row[index[m]] += c
                    rows.append(row)
            assert quotient_context(gens, k).dim == len(columns) - gauss_rank(rows)


# Entries that vanish mod p, or whose row is scaled by p when its
# denominators are cleared, make the rank mod p drop below the rank over Q.
COEFFICIENTS = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    st.sampled_from([PRIME, -PRIME, 2 * PRIME, Fraction(1, PRIME)]),
)


@st.composite
def generator_sets(draw):
    """1-3 sparse generators of degrees 1-3 in x, y, z, as exponent -> coefficient."""
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 3))
        gens.append(draw(st.dictionaries(
            st.sampled_from(dense_monomials(3, d)), COEFFICIENTS, min_size=1, max_size=4
        )))
    return gens, draw(st.integers(0, 5))


@settings(max_examples=200, deadline=None)
@given(generator_sets())
def test_ideal_degree_dim_matches_dense_oracle(problem):
    gen_terms, k = problem
    columns = dense_monomials(3, k)
    index = {e: i for i, e in enumerate(columns)}
    rows = []
    for terms in gen_terms:
        d = sum(next(iter(terms)))
        for shift in dense_monomials(3, k - d):  # none when d > k
            row = [Fraction(0)] * len(columns)
            for e, c in terms.items():
                row[index[tuple(a + b for a, b in zip(e, shift))]] += c
            rows.append(row)
    gens = [Polynomial(PLANE_VARS, t) for t in gen_terms]
    assert ideal_degree_dim(gens, k) == gauss_rank(rows)


@st.composite
def relation_problems(draw):
    """1-3 generators in 2-4 variables, a degree k and a shuffled list of degree-k monomials.

    The list is every monomial of degree k or some of them (as the
    products of a complete intersection are), down to a single one; with
    k below every generator's degree the piece is free.
    """
    n = draw(st.integers(2, 4))
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    gens = [draw(st.dictionaries(st.sampled_from(dense_monomials(n, d)), COEFFICIENTS,
                                 min_size=1, max_size=4)) for d in degrees]
    k = draw(st.integers(min(degrees) - 1, 7 - n))
    every = dense_monomials(n, k)
    monomials = draw(st.one_of(st.permutations(every),
                               st.lists(st.sampled_from(every), min_size=1, unique=True)))
    return n, gens, k, monomials


@settings(max_examples=100, deadline=None)
@given(relation_problems())
def test_ideal_relations_are_the_kernel_of_the_products_classes(problem):
    n, gen_terms, k, monomials = problem
    gens = [Polynomial(VariableSet(f"v{i}" for i in range(n)), t) for t in gen_terms]
    relations = ideal_relations(gens, k, monomials)
    # The route it replaces: the canonical kernel of the matrix whose column j
    # is D times the class of monomials[j], compressed to its nonzero entries.
    ctx = quotient_context(gens, k)
    rows = [{} for _ in range(ctx.dim)]
    for j, column in enumerate(ctx.reduce(monomials)):
        for r, x in column:
            rows[r][j] = x
    kernel = ExactMatrix(ctx.dim, len(monomials), rows).kernel_basis()
    assert relations == [tuple((j, x) for j, x in enumerate(v) if x) for v in kernel]
    if all(sum(next(iter(t))) > k for t in gen_terms):
        assert relations == []
    for entries in relations:
        form = {monomials[j]: x for j, x in entries}
        assert not any(quotient_class_oracle(gen_terms, n, k, form)[1])


def test_ideal_relations_reject_repeated_or_foreign_monomials():
    with pytest.raises(ValueError, match="distinct monomials of degree 2"):
        ideal_relations([QUADRIC], 2, [(1, 1, 0, 0), (1, 1, 0, 0)])
    with pytest.raises(ValueError, match="distinct monomials of degree 2"):
        ideal_relations([QUADRIC], 2, [(1, 1, 0, 0), (3, 0, 0, 0)])


def test_a_free_piece_has_no_relation_and_builds_no_row(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a free piece built a row or ran an elimination")

    monkeypatch.setattr(ivhs.quotient, "_multiple_rows", forbidden)
    monkeypatch.setattr(ivhs.quotient, "_echelon", forbidden)
    quintic = parse_polynomial("x^5+y^5+z^5+x*y^4+3*x^2*z^3", PLANE_VARS)
    # Degree 4, where the quintic's sections multiply, holds no multiple of it.
    assert ideal_relations([quintic], 4, graded_monomials(PLANE_VARS, 4)) == []
    # The arguments are checked all the same.
    for monomials in ([(4, 0, 0), (4, 0, 0)], [(4, 0, 0), (5, 0, 0)], [(4, 0, 0, 0)]):
        with pytest.raises(ValueError, match="distinct monomials of degree 4 in 3 variables"):
            ideal_relations([quintic], 4, monomials)


@pytest.mark.parametrize("syzygies", [-1, 3])
def test_ideal_degree_dim_rejects_syzygies_outside_the_multiples(syzygies):
    # Over-claimed, the bound would go negative and the fallback would never run:
    # the rank of x and PRIME*y is 2, and 1 mod PRIME.
    gens = [parse_polynomial(v, PLANE_VARS) for v in ("x", f"{PRIME}*y")]
    with pytest.raises(ValueError, match="syzygies"):
        ideal_degree_dim(gens, 1, syzygies=syzygies)


def test_rejects_zero_generator():
    with pytest.raises(ValueError):
        quotient_context([Polynomial(PLANE_VARS, {})], 2)


def test_rejects_inhomogeneous_generator():
    bad = parse_polynomial("x^2+x", PLANE_VARS)
    with pytest.raises(ValueError):
        quotient_context([bad], 2)


def test_reduce_validates_degree_and_variables():
    ctx = quotient_context([QUADRIC], 2)
    with pytest.raises(ValueError):
        coordinates(ctx, parse_polynomial("x0^3", SPACE_VARS))
    with pytest.raises(VariableMismatchError):
        coordinates(ctx, parse_polynomial("x^2", PLANE_VARS))


def test_reduce_names_the_degree_of_a_monomial_it_has_no_class_for():
    ctx = quotient_context([QUADRIC], 2)
    with pytest.raises(ValueError, match=r"degree 2, got \(3, 0, 0, 0\)"):
        ctx.reduce([(1, 1, 0, 0), (3, 0, 0, 0)])
    with pytest.raises(ValueError, match=r"degree 2, got \(0, 0, 0, 1\)"):
        ctx.reduce(iter([(1, 1, 0, 0), (0, 0, 0, 1)]))


def test_reduce_rejects_a_monomial_over_other_variables():
    ctx = quotient_context([QUADRIC], 2)
    for monomials in ([(2, 0, 0)], [(1, 1, 0, 0), (0, 2, 0)]):
        with pytest.raises(VariableMismatchError):
            ctx.reduce(monomials)
