"""The streamed multiples against a naive builder, and their rank against the Fraction oracle.

`quotient._multiple_rows` must yield the rows of the exponent-index
oracle in Macaulay's order (Macaulay's rows last-first, then the
others), row for row. `quotient.ideal_degree_dim` ranks those rows as
they are built, against the bound min(multiples, monomials). Generators
here have coefficients of +-PRIME (which vanish mod the prime of the
certified rank) and rationals, leave variables out (zero columns),
repeat one another up to a factor, and meet degrees where their Koszul
syzygies keep the rank below the bound.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ivhs.linalg
import ivhs.quotient
from ivhs import Polynomial, VariableSet, ideal_degree_dim, monomial_count
from ivhs.linalg import PRIME

from oracles import dense_monomials, ideal_rank_oracle, macaulay_rows_oracle

COEFFICIENTS = (st.integers(-4, 4).filter(bool) | st.sampled_from([PRIME, -PRIME])
                | st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))


@st.composite
def ideals(draw, small=False):
    """1-4 generators in 1-4 variables; if `small`, each of degree k or k-1 (few shifts)."""
    nvars = draw(st.integers(1, 4))
    used = draw(st.integers(1, nvars))  # the other variables give zero columns
    k = draw(st.integers(1, 5) if small else st.integers(0, 5))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        if gens and draw(st.booleans()):  # a multiple of an earlier generator
            terms = draw(st.sampled_from(gens))
            factor = draw(st.sampled_from([-2, 1, Fraction(1, 3), PRIME]))
            gens.append({e: c * factor for e, c in terms.items()})
            continue
        degrees = st.integers(k - 1, k).filter(bool) if small else st.integers(1, k + 1)
        degree = draw(degrees)
        pool = [e + (0,) * (nvars - used) for e in dense_monomials(used, degree)]
        chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
        gens.append({e: draw(COEFFICIENTS) for e in chosen})
    return nvars, k, gens


def _polynomials(nvars, gens):
    variables = VariableSet(tuple(f"x{i}" for i in range(nvars)))
    return [Polynomial(variables, g) for g in gens]


@settings(max_examples=150, deadline=None)
@given(ideals() | ideals(small=True))
# A third generator in two variables has no Macaulay row: it follows the second's other row.
@example((2, 2, [{(1, 0): 1}, {(0, 1): 1}, {(1, 1): 1}]))
def test_streamed_rows_are_the_naive_rows_in_macaulays_order(problem):
    # ideals(small=True) draws small pieces: one shift of a generator of degree k,
    # one per variable of a generator of degree k - 1.
    nvars, k, gens = problem
    polys = _polynomials(nvars, gens)
    rows = list(ivhs.quotient._multiple_rows(polys, [p.homogeneous_degree() for p in polys], k))
    assert rows == macaulay_rows_oracle(gens, nvars, k)


@pytest.mark.parametrize("degrees", [(2,), (3, 1), (2, 2, 2), (1, 3, 2), (2, 1, 2, 3)])
def test_the_first_rows_are_macaulays_square_matrix(degrees):
    # For pure powers x_i^(d_i) in Macaulay's degree sum(d_i - 1) + 1, every
    # monomial is divisible by some x_i^(d_i): its row in Macaulay's matrix is
    # the unit row of its column, so the first rows are a permutation matrix.
    nvars, k = len(degrees), sum(degrees) - len(degrees) + 1
    gens = [{tuple(d * (j == i) for j in range(nvars)): i + 2} for i, d in enumerate(degrees)]
    polys = _polynomials(nvars, gens)
    rows = list(ivhs.quotient._multiple_rows(polys, list(degrees), k))
    square = monomial_count(nvars, k)
    assert sorted(c for row in rows[:square] for c in row) == list(range(square))
    assert all(len(row) == 1 for row in rows[:square])
    assert rows == macaulay_rows_oracle(gens, nvars, k)


@settings(max_examples=150, deadline=None)
@given(ideals())
def test_streamed_rank_matches_the_oracle_and_builds_only_the_rows_read(problem):
    nvars, k, gens = problem
    polys = _polynomials(nvars, gens)
    built, passes = [0], []
    real_rows, real_pass = ivhs.quotient._rows, ivhs.linalg._rank_mod_p

    def counted_rows(*args):
        def build(row):
            built[0] += 1
            return row
        return map(build, real_rows(*args))

    def counted_pass(rows, bound=None):
        read = [0]

        def reading():
            for row in rows:
                read[0] += 1
                yield row

        rank = real_pass(reading(), bound)
        passes.append((bound, rank, read[0]))
        return rank

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ivhs.quotient, "_rows", counted_rows)
        patch.setattr(ivhs.linalg, "_rank_mod_p", counted_pass)
        dim = ideal_degree_dim(polys, k)
    assert dim == ideal_rank_oracle(gens, nvars, k)
    multiples = sum(monomial_count(nvars, k - sum(next(iter(g)))) for g in gens)
    if not multiples:  # no generator of degree <= k: no pass, no row
        assert passes == [] and built == [0]
        return
    [(bound, rank, read)] = passes  # one modular pass, never a second
    assert bound == min(multiples, monomial_count(nvars, k))
    if rank == bound:
        # The rows after the last one the pass read are never built.
        assert dim == bound and built[0] == read <= multiples
    else:
        assert built[0] == read == multiples
