"""The certified rank of the streamed multiples against the Fraction oracle.

`quotient.ideal_degree_dim` ranks the degree-k multiples of the
generators as `quotient._multiple_rows` builds them, against the bound
min(multiples, monomials). Generators here have coefficients of +-PRIME
(which vanish mod the prime of the certified rank) and rationals, leave
variables out (zero columns), repeat one another up to a factor, and
meet degrees where their Koszul syzygies keep the rank below the bound.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ivhs.linalg
import ivhs.quotient
from ivhs import Polynomial, VariableSet, ideal_degree_dim, monomial_count
from ivhs.linalg import PRIME

from oracles import dense_monomials, ideal_rank_oracle

COEFFICIENTS = (st.integers(-4, 4).filter(bool) | st.sampled_from([PRIME, -PRIME])
                | st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))


@st.composite
def ideals(draw):
    nvars = draw(st.integers(1, 4))
    used = draw(st.integers(1, nvars))  # the other variables give zero columns
    k = draw(st.integers(0, 5))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        if gens and draw(st.booleans()):  # a multiple of an earlier generator
            terms = draw(st.sampled_from(gens))
            factor = draw(st.sampled_from([-2, 1, Fraction(1, 3), PRIME]))
            gens.append({e: c * factor for e, c in terms.items()})
            continue
        degree = draw(st.integers(1, k + 1))
        pool = [e + (0,) * (nvars - used) for e in dense_monomials(used, degree)]
        chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
        gens.append({e: draw(COEFFICIENTS) for e in chosen})
    return nvars, k, gens


@settings(max_examples=150, deadline=None)
@given(ideals())
def test_streamed_rank_matches_the_oracle_and_builds_only_the_rows_read(problem):
    nvars, k, gens = problem
    variables = VariableSet(tuple(f"x{i}" for i in range(nvars)))
    polys = [Polynomial(variables, g) for g in gens]
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
