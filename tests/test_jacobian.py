"""Jacobian-ring cup products: dimensions, golden matrices, deterministic search."""

import random
from fractions import Fraction
from functools import cache
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ivhs.jacobian
import ivhs.linalg
from ivhs import (
    PLANE_VARS,
    Polynomial,
    SmoothnessError,
    graded_monomials,
    ideal_degree_dim,
    ivhs_matrix,
    ivhs_max_rank,
    jacobian_context,
    koszul_expected_dim,
    monomial_count,
    parse_polynomial,
    plane_pa,
)
from oracles import added, coordinates, cup_rank_oracle, ideal_rank_oracle, times_monomial

FERMAT4 = parse_polynomial("x^4+y^4+z^4", PLANE_VARS)
FERMAT5 = parse_polynomial("x^5+y^5+z^5", PLANE_VARS)
# The Fermat quartic, F_5 and the Fermat sextic.
ORACLE_CURVES = ("x^4+y^4+z^4", "x^5+y^5+z^5+x*y^4+3*x^2*z^3", "x^6+y^6+z^6")


@pytest.fixture(scope="module")
def quartic_ctx():
    return jacobian_context(FERMAT4)


@cache
def _context(text):
    return jacobian_context(parse_polynomial(text, PLANE_VARS))


def _dense(matrix):
    """A report's matrix as dense rows."""
    return [row.dense() for row in matrix]


def _rank_dim(ctx, k):
    """The degree-k dimension as a certified rank of the partials' multiples."""
    return monomial_count(3, k) - ideal_degree_dim(ctx.partials, k)


def _hilbert(d, k):
    """The closed form: the coefficient of t^k in ((1 - t^(d-1)) / (1 - t))^3."""
    return koszul_expected_dim((d - 1,) * 3, 3, k)


def test_quartic_dimensions(quartic_ctx):
    ctx = quartic_ctx
    assert ctx.sections.dim == 3
    assert ctx.deformations.dim == 6
    assert ctx.targets.dim == 3
    assert ctx.socle_degree == 6


def test_quartic_target_basis_is_the_squarefree_socle_neighbors(quartic_ctx):
    names = [str(Polynomial(PLANE_VARS, {m: 1})) for m in quartic_ctx.targets.basis]
    assert names == ["x^2*y^2*z", "x^2*y*z^2", "x*y^2*z^2"]


def test_quintic_degree_two_piece_is_genus():
    ctx = jacobian_context(FERMAT5)
    assert _rank_dim(ctx, 2) == 6 == plane_pa(5)


def test_section_dim_is_genus_for_small_degrees():
    for d in (4, 5, 6):
        terms = "+".join(f"{v}^{d}" for v in ("x", "y", "z"))
        ctx = jacobian_context(parse_polynomial(terms, PLANE_VARS))
        assert ctx.sections.dim == plane_pa(d)


def test_duality_of_graded_dimensions():
    for curve in (FERMAT4, FERMAT5):
        ctx = jacobian_context(curve)
        dims = [_rank_dim(ctx, k) for k in range(ctx.socle_degree + 1)]
        assert dims == dims[::-1]
        assert _rank_dim(ctx, ctx.socle_degree) == 1


def test_cone_point_rejected():
    with pytest.raises(SmoothnessError):
        jacobian_context(parse_polynomial("x^4+y^4", PLANE_VARS))


@pytest.mark.parametrize("curve", [
    "x*y*z^2+x^4+y^4",        # a node at [0:0:1]
    "y^2*z^2+x^3*z+x^4+y^4",  # a cusp there
    "y^2*z^2+x^4+y^4+x*y^3",  # a tacnode there
])
def test_singular_quartics_rejected(curve):
    with pytest.raises(SmoothnessError, match="singular"):
        jacobian_context(parse_polynomial(curve, PLANE_VARS))


def test_non_reduced_conic_square_rejected():
    conic = parse_polynomial("x^2+y^2+z^2", PLANE_VARS)
    square = added(added(times_monomial(conic, (2, 0, 0)), times_monomial(conic, (0, 2, 0))),
                   times_monomial(conic, (0, 0, 2)))
    assert square == parse_polynomial("x^4+y^4+z^4+2*x^2*y^2+2*x^2*z^2+2*y^2*z^2", PLANE_VARS)
    with pytest.raises(SmoothnessError):
        jacobian_context(square)


def test_ideal_class_acts_by_zero(quartic_ctx):
    # x^3*y = y * (x^3) lies in the partials ideal, so its class is zero
    rep = ivhs_matrix(quartic_ctx, parse_polynomial("x^3*y", PLANE_VARS))
    assert rep.rank == 0
    assert not rep.is_max
    assert not any(row.entries for row in rep.matrix)


def test_hand_checked_maximal_class(quartic_ctx):
    xi = parse_polynomial("x^2*y*z + x*y^2*z + x*y*z^2", PLANE_VARS)
    rep = ivhs_matrix(quartic_ctx, xi)
    m = _dense(rep.matrix)
    assert m == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    # determinant by direct expansion: 1*(0-1) - 1*(1-0) + 0 = -2
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    assert det == -2
    assert rep.rank == 3
    assert rep.is_max


def test_zero_class_gives_zero_matrix(quartic_ctx):
    rep = ivhs_matrix(quartic_ctx, Polynomial(PLANE_VARS, {}))
    assert rep.rank == 0


def test_degree_mismatch_rejected(quartic_ctx):
    with pytest.raises(ValueError):
        ivhs_matrix(quartic_ctx, parse_polynomial("x^3", PLANE_VARS))


def test_search_budget_one_sees_only_the_leading_monomial(quartic_ctx):
    best, achieved = ivhs_max_rank(quartic_ctx, 1)
    assert str(best.xi) == "x^4"
    assert best.rank == 0
    assert not achieved


def test_search_achieves_max_within_fifty(quartic_ctx):
    best, achieved = ivhs_max_rank(quartic_ctx, 50)
    assert achieved
    assert best.rank == 3
    # deterministic witness: first all 15 monomials (rank <= 2), then pairs
    # of quotient-basis monomials; the fourth pair already has full rank
    assert str(best.xi) == "x^2*y^2 + x*y*z^2"


def test_search_is_reproducible(quartic_ctx):
    first = ivhs_max_rank(quartic_ctx, 50)
    second = ivhs_max_rank(quartic_ctx, 50)
    assert str(first[0].xi) == str(second[0].xi)
    assert first[0].matrix == second[0].matrix


def test_quintic_search_pinned_result():
    ctx = jacobian_context(FERMAT5)
    best, achieved = ivhs_max_rank(ctx, 200)
    assert achieved
    assert best.rank == 6
    assert str(best.xi) == "x^3*y*z + x*y^2*z^2"


@cache
def _oracle_rank(curve, candidate):
    """The dense oracle's rank of the sum of the candidate's monomials (shared across budgets)."""
    ctx = _context(curve)
    return cup_rank_oracle(ctx.curve.terms, dict.fromkeys(candidate, 1), ctx.degree)


def _unpruned_search(curve, budget):
    """The search as specified, each candidate ranked by the dense oracle: the first of
    the best rank, and that rank."""
    ctx = _context(curve)
    best = None
    for candidate in islice(ivhs.jacobian._candidates(ctx), budget):
        rank = _oracle_rank(curve, candidate)
        if best is None or rank > best[1]:
            best = candidate, rank
        if rank == ctx.sections.dim:
            break
    return best


@pytest.mark.parametrize("curve", ORACLE_CURVES)
@pytest.mark.parametrize("budget", [1, 7, 50, 200])
def test_pruned_search_matches_ranking_every_candidate(curve, budget):
    ctx = _context(curve)
    best, achieved = ivhs_max_rank(ctx, budget)
    candidate, rank = _unpruned_search(curve, budget)
    xi = Polynomial(PLANE_VARS, dict.fromkeys(candidate, 1))
    assert (best.xi, best.rank, achieved) == (xi, rank, rank == ctx.sections.dim)
    # The winner's rows are its cup product, column by column.
    rows = _dense(best.matrix)
    for j, s in enumerate(ctx.sections.basis):
        assert tuple(row[j] for row in rows) == coordinates(ctx.targets, times_monomial(xi, s))


@pytest.mark.parametrize("curve", ORACLE_CURVES)
def test_support_masks_bound_every_candidates_rank(curve):
    ctx = _context(curve)
    n = ctx.sections.dim
    for candidate in islice(ivhs.jacobian._candidates(ctx), 200):
        read = [ivhs.jacobian._read(ctx, m) for m in candidate]
        sections = positions = 0
        for s, t in map(ivhs.jacobian._masks, read):
            sections, positions = sections | s, positions | t
        columns = ivhs.jacobian._summed([(1, c) for c in read], n)
        # The summed columns lie inside the union of the supports, so the masks
        # bound the rank at least as loosely as the support of the sum does.
        bound = ivhs.linalg._rank_bound(columns)
        assert min(sections.bit_count(), positions.bit_count()) >= bound
        assert bound >= _oracle_rank(curve, candidate)


def test_sextic_search_pinned_result():
    best, achieved = ivhs_max_rank(_context("x^6+y^6+z^6"), 200)
    assert (str(best.xi), best.rank, achieved) == ("x^4*y*z + x^2*y^2*z^2", 9, False)


_COEFFICIENTS = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6)),
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORACLE_CURVES), st.data())
def test_xi_matrix_matches_the_dense_oracle(curve, data):
    ctx = _context(curve)
    monomials = graded_monomials(PLANE_VARS, ctx.degree)
    chosen = data.draw(st.lists(st.sampled_from(monomials), max_size=4, unique=True))
    xi = Polynomial(PLANE_VARS, {m: data.draw(_COEFFICIENTS) for m in chosen})
    rep = ivhs_matrix(ctx, xi)
    assert rep.rank == cup_rank_oracle(ctx.curve.terms, xi.terms, ctx.degree)
    # The rows the payload renders hold exact nonzeros only (an int when integral),
    # columns increasing.
    for row in rep.matrix:
        positions = [j for j, _ in row.entries]
        assert row.length == ctx.sections.dim and positions == sorted(set(positions))
        assert all((type(x) is int and x) or (type(x) is Fraction and x.denominator > 1)
                   for _, x in row.entries)
    rows = _dense(rep.matrix)
    for j, s in enumerate(ctx.sections.basis):
        column = tuple(row[j] for row in rows)
        assert column == coordinates(ctx.targets, times_monomial(xi, s))


def test_matrix_is_linear_in_the_class(quartic_ctx):
    rng = random.Random(31)
    mons = graded_monomials(PLANE_VARS, 4)
    for _ in range(10):
        a = Polynomial(PLANE_VARS, {m: rng.randrange(-3, 4) for m in mons})
        b = Polynomial(PLANE_VARS, {m: rng.randrange(-3, 4) for m in mons})
        left = _dense(ivhs_matrix(quartic_ctx, added(a, b)).matrix)
        ra = _dense(ivhs_matrix(quartic_ctx, a).matrix)
        rb = _dense(ivhs_matrix(quartic_ctx, b).matrix)
        assert left == [[x + y for x, y in zip(row_a, row_b)] for row_a, row_b in zip(ra, rb)]


def test_jacobian_multiples_act_by_zero(quartic_ctx):
    # every degree-4 multiple of a partial derivative has zero class
    rng = random.Random(37)
    partials = list(quartic_ctx.partials)
    for _ in range(15):
        p = rng.choice(partials)
        shift = rng.choice(graded_monomials(PLANE_VARS, 4 - p.homogeneous_degree()))
        rep = ivhs_matrix(quartic_ctx, times_monomial(p, shift))
        assert rep.rank == 0


def test_budget_must_be_positive(quartic_ctx):
    with pytest.raises(ValueError):
        ivhs_max_rank(quartic_ctx, 0)


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_hilbert_function_matches_sympy_groebner(d):
    sympy = pytest.importorskip("sympy")
    text = f"x^{d}+y^{d}+z^{d}+x*y^{d - 1}+3*x^2*z^{d - 2}"
    ctx = jacobian_context(parse_polynomial(text, PLANE_VARS))
    gens = sympy.symbols("x y z")
    curve = sympy.sympify(text.replace("^", "**"))
    basis = sympy.groebner([sympy.diff(curve, v) for v in gens], *gens, order="grevlex")
    leads = [sympy.Poly(g, *gens).monoms(order="grevlex")[0] for g in basis.exprs]

    def standard_count(k):
        return sum(
            not any(all(a >= b for a, b in zip(m, lead)) for lead in leads)
            for m in graded_monomials(PLANE_VARS, k)
        )

    hilbert = [standard_count(k) for k in range(3 * d - 4)]
    assert hilbert[-1] == 0 and hilbert[3 * (d - 2)] == 1
    assert hilbert == [_rank_dim(ctx, k) for k in range(3 * d - 4)]
    assert hilbert == [_hilbert(d, k) for k in range(3 * d - 4)]
    dims = (ctx.sections.dim, ctx.deformations.dim, ctx.targets.dim)
    assert dims == (hilbert[d - 3], hilbert[d], hilbert[2 * d - 3])


def _five_term_curve(d):
    """x^d, y^d, z^d, x*y^(d-1) and x^2*z^(d-2) with coefficients drawn with seed d:
    signed ints, one of them replaced by a fraction p/q in lowest terms, q > 1."""
    rng = random.Random(d)
    coefficients = [rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]) for _ in range(5)]
    coefficients[rng.randrange(5)] = Fraction(rng.choice([-7, -5, -1, 1, 5, 7]),
                                              rng.choice([2, 3, 4, 6]))
    monomials = [f"x^{d}", f"y^{d}", f"z^{d}", f"x*y^{d - 1}", f"x^2*z^{d - 2}"]
    return "+".join(f"{c}*{m}" for c, m in zip(coefficients, monomials)).replace("+-", "-")


@pytest.mark.parametrize("text", [_five_term_curve(d) for d in (5, 6, 7)])
def test_target_classes_are_grlex_normal_forms_modulo_sympy_groebner(text):
    # The targets piece's basis is the grlex standard monomials, and each class
    # times D is D times the grlex normal form modulo the reduced Groebner basis
    # of the partials, entry for entry.
    sympy = pytest.importorskip("sympy")
    ctx = jacobian_context(parse_polynomial(text, PLANE_VARS))
    targets = ctx.targets
    gens = sympy.symbols("x y z")
    curve = sympy.sympify(text.replace("^", "**"))
    basis = sympy.groebner([sympy.diff(curve, v) for v in gens], *gens, order="grlex")
    leads = [sympy.Poly(g, *gens).monoms(order="grlex")[0] for g in basis.exprs]
    k = targets.degree
    # Within one degree, grlex descending is lex descending on the exponent tuples.
    monomials = sorted((e for e in product(range(k + 1), repeat=3) if sum(e) == k),
                       reverse=True)
    standard = [m for m in monomials
                if not any(all(a >= b for a, b in zip(m, lead)) for lead in leads)]
    assert list(targets.basis) == standard
    position = {m: j for j, m in enumerate(standard)}
    for m in monomials:
        _, remainder = basis.reduce(sympy.Mul(*(v ** e for v, e in zip(gens, m))))
        terms = sympy.Poly(remainder, *gens).terms() if remainder else []
        expected = sorted((position[e], targets.scale * Fraction(str(c))) for e, c in terms)
        assert targets.classes[m] == tuple(expected), m


def _dense_quintic():
    rng = random.Random(7)
    return "+".join(f"{rng.randint(1, 9)}*x^{a}*y^{b}*z^{5 - a - b}"
                    for a in range(6) for b in range(6 - a))


@pytest.mark.parametrize("text", [
    *(f"x^{d}+y^{d}+z^{d}+x*y^{d - 1}+3*x^2*z^{d - 2}" for d in range(4, 8)),
    pytest.param(_dense_quintic(), id="dense-quintic"),  # all 21 monomials of degree 5
    "x^3*y+y^3*z+z^3*x",    # Klein: Macaulay's square matrix is singular
])
def test_hilbert_series_matches_the_dense_rank_oracle(text):
    ctx = jacobian_context(parse_polynomial(text, PLANE_VARS))
    d, gens = ctx.degree, [p.terms for p in ctx.partials]
    for k in range(-1, 3 * d - 4):
        assert _hilbert(d, k) == monomial_count(3, k) - ideal_rank_oracle(gens, 3, k)
    assert ctx.dims == tuple(_hilbert(d, k) for k in (d - 3, d, 2 * d - 3))
