"""Canonical multiplication matrices for the three concrete models."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivhs import (
    PLANE_VARS,
    Polynomial,
    SPACE_VARS,
    RegularSequenceError,
    ci_genus,
    ci_mu,
    graded_monomials,
    hyperelliptic_mu,
    parse_polynomial,
    plane_mu,
    plane_pa,
    quotient_context,
    sym2_dim,
)
from ivhs.mult import _monomial_sym2_report
from ivhs.report import SparseRow

from oracles import (coordinates, gauss_kernel, gauss_rank, identity_rows, mat_vec,
                     primitive, quadric_terms, times_monomial)

FERMAT4 = parse_polynomial("x^4+y^4+z^4", PLANE_VARS)
QUADRIC = parse_polynomial("x0*x1-x2*x3", SPACE_VARS)
CUBIC = parse_polynomial("x0^3+x1^3+x2^3+x3^3", SPACE_VARS)

# The 9x10 grid of the genus-4 quadric/cubic model in the pair basis
# x0^2, x0x1, x0x2, x0x3, x1^2, x1x2, x1x3, x2^2, x2x3, x3^2 and the
# degree-2 basis with x0x1 eliminated in favor of x2x3.
CI_23_MATRIX = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
]


def _assert_consistent(report):
    assert report.rank + report.kernel_dim == report.source_dim
    assert report.rank <= min(report.source_dim, report.target_dim)
    for v in _kernel(report):
        assert all(e == 0 for e in mat_vec(_matrix(report), v))


def _matrix(report):
    return [r.dense() for r in report.matrix]


def _kernel(report):
    return [r.dense() for r in report.kernel_rows]


def _sections(report, variables):
    """The exponent tuples of the report's sections, read back from their labels."""
    return [next(iter(parse_polynomial(label, variables).terms))
            for label in report.section_labels]


def _times(a, b):
    return tuple(x + y for x, y in zip(a, b))


# --- plane curves ---------------------------------------------------------

def test_plane_quartic_is_identity():
    rep = plane_mu(FERMAT4)
    assert rep.model == "plane(d=4)"
    assert (rep.source_dim, rep.target_dim) == (6, 6)
    assert _matrix(rep) == identity_rows(6)
    assert rep.rank == 6
    assert rep.kernel_dim == 0
    assert _kernel(rep) == []
    _assert_consistent(rep)


def test_plane_quartic_section_count_is_genus():
    rep = plane_mu(FERMAT4)
    assert len(rep.section_labels) == plane_pa(4) == 3
    assert rep.source_dim == sym2_dim(plane_pa(4))


def test_plane_quintic_counts():
    rep = plane_mu(parse_polynomial("x^5+y^5+z^5", PLANE_VARS))
    assert (rep.source_dim, rep.target_dim) == (21, 15)
    assert (rep.rank, rep.kernel_dim) == (15, 6)
    _assert_consistent(rep)
    # independent count: the 21 pair products hit exactly the 15 quartic monomials
    sections = _sections(rep, PLANE_VARS)
    products = {_times(sections[i], sections[j]) for i, j in rep.pairs}
    assert len(products) == 15


def test_plane_septic_against_bruteforce():
    curve = parse_polynomial("x^7+y^7+z^7", PLANE_VARS)
    rep = plane_mu(curve)
    assert rep.source_dim == 120
    # oracle: rank of {pair products} union {curve * linear} minus the
    # rank of {curve * linear}, all over the 45 degree-8 monomials
    columns = graded_monomials(PLANE_VARS, 8)
    index = {m: i for i, m in enumerate(columns)}
    def as_row(poly):
        row = [Fraction(0)] * len(columns)
        for m, c in poly.terms.items():
            row[index[m]] += c
        return row
    ideal_rows = [as_row(times_monomial(curve, m)) for m in graded_monomials(PLANE_VARS, 1)]
    sections = _sections(rep, PLANE_VARS)
    product_rows = [
        as_row(Polynomial(PLANE_VARS, {_times(sections[i], sections[j]): 1}))
        for i, j in rep.pairs
    ]
    ideal_rank = gauss_rank(ideal_rows)
    assert ideal_rank == 3
    assert rep.target_dim == 45 - ideal_rank == 42
    mu_rank = gauss_rank(product_rows + ideal_rows) - ideal_rank
    assert rep.rank == mu_rank == 42
    assert rep.kernel_dim == 78
    _assert_consistent(rep)


def test_plane_degree_bounds_and_labels():
    with pytest.raises(ValueError):
        plane_mu(parse_polynomial("x^3+y^3+z^3", PLANE_VARS))
    with pytest.raises(ValueError):
        plane_mu(parse_polynomial("x^4+y^3", PLANE_VARS))
    singular = plane_mu(parse_polynomial("x^4+y^4", PLANE_VARS), singular=True)
    assert singular.model == "singular-plane(d=4)"
    _assert_consistent(singular)


# --- complete intersections ----------------------------------------------

def test_ci_quadric_cubic_matches_hand_grid():
    rep = ci_mu(QUADRIC, CUBIC)
    assert rep.model == "complete-intersection(2,3)"
    assert (rep.source_dim, rep.target_dim) == (10, 9)
    assert rep.rank == 9
    assert rep.kernel_dim == 1
    assert _matrix(rep) == CI_23_MATRIX
    assert _kernel(rep) == [[0, 1, 0, 0, 0, 0, 0, 0, -1, 0]]
    assert rep.kernel_relations == ("x0*x1 - x2*x3",)
    _assert_consistent(rep)


def test_ci_section_count_is_genus():
    assert len(ci_mu(QUADRIC, CUBIC).section_labels) == ci_genus(2, 3) == 4


def test_ci_kernel_vector_from_independent_solver():
    # solve the pinned 9x10 system directly with a separate elimination
    kernel = gauss_kernel(CI_23_MATRIX, 10)
    assert len(kernel) == 1
    v = kernel[0]
    scale = v[1]
    normalized = tuple(e / scale for e in v)
    assert normalized == (0, 1, 0, 0, 0, 0, 0, 0, -1, 0)


def test_ci_kernel_lifts_to_the_quadric():
    rep = ci_mu(QUADRIC, CUBIC)
    exponents = _sections(rep, SPACE_VARS)
    assert quadric_terms(exponents, rep.pairs, _kernel(rep)[0]) == QUADRIC.terms


def test_ci_cubic_pair_counts():
    other = parse_polynomial("x0^3+2*x1^3+3*x2^3+4*x3^3", SPACE_VARS)
    rep = ci_mu(CUBIC, other)
    assert (rep.source_dim, rep.target_dim) == (55, 27)
    assert rep.rank == 27
    assert len(rep.section_labels) == ci_genus(3, 3) == 10
    _assert_consistent(rep)


def test_ci_degenerate_pair_raises_diagnostic():
    dependent = times_monomial(QUADRIC, (1, 0, 0, 0))
    with pytest.raises(RegularSequenceError):
        ci_mu(QUADRIC, dependent)


def test_ci_rejects_small_type():
    q2 = parse_polynomial("x0^2+x1^2+x2^2+x3^2", SPACE_VARS)
    with pytest.raises(ValueError):
        ci_mu(QUADRIC, q2)  # type (2,2) has trivial dualizing degree


def test_ci_argument_order_is_normalized():
    assert ci_mu(CUBIC, QUADRIC).model == "complete-intersection(2,3)"


# --- hyperelliptic curves -------------------------------------------------

def test_hyperelliptic_genus3():
    rep = hyperelliptic_mu(3)
    assert (rep.source_dim, rep.target_dim) == (6, 5)
    assert (rep.rank, rep.kernel_dim) == (5, 1)
    assert rep.kernel_relations == ("s0*s2 - s1*s1",)
    _assert_consistent(rep)


def test_hyperelliptic_genus2_no_kernel():
    rep = hyperelliptic_mu(2)
    assert (rep.source_dim, rep.target_dim) == (3, 3)
    assert (rep.rank, rep.kernel_dim) == (3, 0)


def test_hyperelliptic_genus5_counts():
    rep = hyperelliptic_mu(5)
    assert (rep.source_dim, rep.target_dim) == (15, 9)
    assert (rep.rank, rep.kernel_dim) == (9, 6)
    # brute-force pair enumeration: distinct exponent sums i+j
    sums = {i + j for i in range(5) for j in range(i, 5)}
    assert len(sums) == 9


def test_hyperelliptic_rank_formula_exhaustive():
    for g in range(2, 13):
        rep = hyperelliptic_mu(g)
        assert rep.rank == 2 * g - 1
        assert rep.kernel_dim == g * (g + 1) // 2 - (2 * g - 1)
        _assert_consistent(rep)


def test_hyperelliptic_rejects_low_genus():
    with pytest.raises(ValueError):
        hyperelliptic_mu(1)


# --- distinct products against the per-pair dense matrix -------------------

@st.composite
def section_problems(draw):
    """Monomial sections of degree k in any order, and a degree-2k quotient.

    The generators are a form with rational coefficients and a monomial,
    so some products reduce to zero and others to rational classes.
    """
    k = draw(st.integers(1, 3))
    sections = tuple(draw(st.lists(st.sampled_from(graded_monomials(PLANE_VARS, k)),
                                   min_size=1, max_size=8, unique=True)))
    d = draw(st.integers(1, 2 * k))
    form = Polynomial(PLANE_VARS, draw(st.dictionaries(
        st.sampled_from(graded_monomials(PLANE_VARS, d)),
        st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool),
        min_size=1, max_size=4)))
    monomial = draw(st.sampled_from(graded_monomials(PLANE_VARS, draw(st.integers(1, 2 * k)))))
    return sections, quotient_context([form, Polynomial(PLANE_VARS, {monomial: 1})],
                                      2 * k)


@settings(max_examples=100, deadline=None)
@given(section_problems())
def test_distinct_products_give_the_dense_kernel(problem):
    sections, target = problem
    rep = _monomial_sym2_report("test", sections, target)
    columns = [coordinates(target, Polynomial(PLANE_VARS, {_times(a, b): 1}))
               for a, b in combinations_with_replacement(sections, 2)]
    rows = [[col[r] for col in columns] for r in range(target.dim)]
    kernel = [primitive(v) for v in gauss_kernel(rows, len(columns))]
    assert _matrix(rep) == rows
    assert _kernel(rep) == [list(v) for v in kernel]
    # The sparse rows hold exactly the nonzeros, in increasing position order.
    for sparse, dense in (([r.entries for r in rep.matrix], rows),
                          ([r.entries for r in rep.kernel_rows], kernel)):
        assert [list(r) for r in sparse] == [[(j, x) for j, x in enumerate(v) if x] for v in dense]
    assert rep.rank == gauss_rank(rows) and rep.source_dim == len(columns)


# --- the record: M's rows as written, never a matrix object --------------

RECORDS = {
    # The degree-6 classes divide by the 3/7 term: M has Fraction entries.
    "rational_sextic": (lambda: plane_mu(parse_polynomial("x^6+y^6+z^6+3/7*x*y^5", PLANE_VARS)),
                        True),
    "ci": (lambda: ci_mu(QUADRIC, CUBIC), False),
    "hyperelliptic": (lambda: hyperelliptic_mu(6), False),
}


@pytest.mark.parametrize("name", RECORDS)
def test_the_matrix_is_the_sparse_rows_as_written(name):
    build, rational = RECORDS[name]
    rep = build()
    assert type(rep.matrix) is tuple and len(rep.matrix) == rep.target_dim
    values = []
    for row in rep.matrix:
        assert type(row) is SparseRow and row.length == rep.source_dim
        positions = [j for j, _ in row.entries]
        assert positions == sorted(set(positions))
        assert all(0 <= j < rep.source_dim for j in positions)
        values += [x for _, x in row.entries]
    assert all((type(x) is int and x != 0) or (type(x) is Fraction and x.denominator > 1)
               for x in values)
    assert any(type(x) is Fraction for x in values) == rational
    for v in map(SparseRow.dense, rep.kernel_rows):
        assert all(sum(x * v[j] for j, x in row.entries) == 0 for row in rep.matrix)
