"""Polynomials, monomial enumeration, and the equation parser."""

import random
from collections.abc import Mapping
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivhs import (
    PLANE_VARS,
    SPACE_VARS,
    Polynomial,
    PolynomialSyntaxError,
    VariableMismatchError,
    VariableSet,
    graded_monomials,
    parse_polynomial,
)
from ivhs.poly import _exponents

from oracles import added, graded_exponents, scaled, times_monomial


def P(text, variables=PLANE_VARS):
    return parse_polynomial(text, variables)


# --- parsing ------------------------------------------------------------

def test_parse_fermat_quartic():
    f = P("x^4+y^4+z^4")
    assert len(f.terms) == 3
    assert f.homogeneous_degree() == 4
    assert f.terms[(4, 0, 0)] == 1


def test_parse_quadric_with_minus():
    q = P("x0*x1-x2*x3", SPACE_VARS)
    assert len(q.terms) == 2
    assert q.terms[(1, 1, 0, 0)] == 1
    assert q.terms[(0, 0, 1, 1)] == -1


def test_parse_zero():
    assert P("0").is_zero()


def test_parse_juxtaposed_variables():
    assert P("xy") == P("x*y")
    assert P("x0x1", SPACE_VARS) == P("x0*x1", SPACE_VARS)


def test_parse_coefficients_and_signs():
    f = P("-x^2 + 3*y*z - 1/2*z^2")
    assert f.terms[(2, 0, 0)] == -1
    assert f.terms[(0, 1, 1)] == 3
    assert f.terms[(0, 0, 2)] == Fraction(-1, 2)


def test_parse_repeated_variable_accumulates():
    assert P("x*x*y") == P("x^2*y")


def test_parse_sums_repeated_and_cancelling_terms():
    assert P("x+y-x+x") == P("x+y")
    assert P("1/2*x+1/2*x-y+y") == P("x")
    assert P("x^2-x^2").is_zero()


def test_parse_many_terms_equals_dict_built():
    # Every one of the 1,891 monomials of degree 60: one dict, not a sum per term.
    mons = graded_monomials(PLANE_VARS, 60)
    text = "+".join(f"3*{Polynomial.from_monomial(PLANE_VARS, m)}" for m in mons)
    assert P(text) == Polynomial(PLANE_VARS, {m: 3 for m in mons})


@pytest.mark.parametrize("bad", ["x^", "x +", "", "x^4 4", "()", "z^²", "٣*x"])
def test_parse_syntax_errors_report_position(bad):
    with pytest.raises(PolynomialSyntaxError) as err:
        P(bad)
    assert "position" in str(err.value)


AB_VARS = VariableSet(("a", "ab", "b"))


@pytest.mark.parametrize("text,variables,message,position", [
    ("", PLANE_VARS, "empty input", 0),
    ("   ", PLANE_VARS, "empty input", 3),
    ("-", PLANE_VARS, "expected a term", 1),
    ("x +", PLANE_VARS, "expected a term", 3),
    ("+-x", PLANE_VARS, "expected a term", 1),
    ("x^", PLANE_VARS, "expected exponent after '^'", 1),
    ("x^y", PLANE_VARS, "expected exponent after '^'", 1),
    ("x^-2", PLANE_VARS, "negative exponent", 2),
    ("2x", PLANE_VARS, "missing '*' between number and variable", 1),
    ("2 x", PLANE_VARS, "missing '*' between number and variable", 2),
    ("1/0*x", PLANE_VARS, "expected nonzero integer denominator", 2),
    ("3/", PLANE_VARS, "expected nonzero integer denominator", 2),
    ("x*2", PLANE_VARS, "expected variable after '*'", 2),
    ("x**2", PLANE_VARS, "expected variable after '*'", 2),
    ("x^2^3", PLANE_VARS, "expected '+' or '-'", 3),
    ("x/2", PLANE_VARS, "expected '+' or '-'", 1),
    ("²", PLANE_VARS, "unexpected character '²'", 0),
    ("٣*x", PLANE_VARS, "unexpected character '٣'", 0),
    ("()", PLANE_VARS, "unexpected character '('", 0),
    ("x+w", PLANE_VARS, "unknown variable 'w'", 2),
    ("é", PLANE_VARS, "unknown variable 'é'", 0),
    ("x0x4", SPACE_VARS, "unknown variable 'x4'", 2),
    ("abc", AB_VARS, "unknown variable 'c'", 2),
    ("*x", PLANE_VARS, "expected a term", 0),
    ("x+*y", PLANE_VARS, "expected a term", 2),
    ("x + * y", PLANE_VARS, "expected a term", 4),
])
def test_parse_error_message_and_position(text, variables, message, position):
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(text, variables)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_parse_splits_identifier_runs_longest_name_first():
    assert parse_polynomial("abab", AB_VARS) == Polynomial(AB_VARS, {(0, 2, 0): 1})
    assert parse_polynomial("aba", AB_VARS) == Polynomial(AB_VARS, {(1, 1, 0): 1})


def test_parse_unknown_variable():
    with pytest.raises(PolynomialSyntaxError) as err:
        P("x+w")
    assert "unknown variable" in str(err.value)


def test_parse_negative_exponent():
    with pytest.raises(PolynomialSyntaxError) as err:
        P("x^-2")
    assert "negative exponent" in str(err.value)


def test_parse_requires_star_after_number():
    with pytest.raises(PolynomialSyntaxError):
        P("2x")


def test_print_parse_round_trip():
    texts = [
        "x^4+y^4+z^4",
        "x0*x1-x2*x3",
        "0",
        "-x^2+3*y*z-1/2*z^2",
        "x^3*y + 7*z^4",
    ]
    for text in texts:
        f = P(text) if "x0" not in text else P(text, SPACE_VARS)
        assert parse_polynomial(str(f), f.variables) == f


# --- monomial enumeration ------------------------------------------------

def test_graded_monomials_degree_one_order():
    names = [str(Polynomial.from_monomial(PLANE_VARS, m))
             for m in graded_monomials(PLANE_VARS, 1)]
    assert names == ["x", "y", "z"]


def test_graded_monomials_degree_two_order():
    names = [str(Polynomial.from_monomial(PLANE_VARS, m))
             for m in graded_monomials(PLANE_VARS, 2)]
    assert names == ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]


def test_graded_monomials_quartics_in_four_variables():
    assert len(graded_monomials(SPACE_VARS, 4)) == 35


def test_graded_monomial_counts_exhaustive():
    for n in range(1, 7):
        variables = VariableSet(tuple(f"v{i}" for i in range(n)))
        for k in range(21):
            mons = graded_monomials(variables, k)
            assert len(mons) == comb(k + n - 1, n - 1)
            assert len(set(mons)) == len(mons)


@pytest.mark.parametrize("n", range(1, 5))
def test_exponents_match_the_brute_force_enumeration(n):
    variables = VariableSet(tuple(f"v{i}" for i in range(n)))
    for k in range(9):
        assert _exponents(n, k) == tuple(graded_exponents(n, k))
        assert graded_monomials(variables, k) == graded_exponents(n, k)


# --- arithmetic ----------------------------------------------------------

def test_product_of_variables():
    assert times_monomial(P("x"), (0, 1, 0)) == P("x*y")


def test_difference_of_squares():
    s = P("x+y")
    product = added(times_monomial(s, (1, 0, 0)), scaled(times_monomial(s, (0, 1, 0)), -1))
    assert product == P("x^2-y^2")


def _random_poly(rng, variables, degree, terms=3):
    out = Polynomial(variables, {})
    mons = graded_monomials(variables, degree)
    for _ in range(terms):
        m = rng.choice(mons)
        c = rng.randrange(-5, 6)
        out = added(out, Polynomial(variables, {m: c}))
    return out


def test_partial_derivatives():
    assert P("x^4+y^4+z^4").partial(0) == P("4*x^3")
    assert P("x^2").partial(1).is_zero()
    assert P("x*y").partial(0) == P("y")


def test_euler_relation_on_random_homogeneous_polynomials():
    # sum_i v_i * df/dv_i = deg(f) * f for homogeneous f
    rng = random.Random(23)
    for _ in range(100):
        variables = PLANE_VARS if rng.random() < 0.5 else SPACE_VARS
        d = rng.randrange(1, 6)
        f = _random_poly(rng, variables, d, terms=4)
        total = Polynomial(variables, {})
        for i in range(len(variables)):
            unit = tuple(int(j == i) for j in range(len(variables)))
            total = added(total, times_monomial(f.partial(i), unit))
        assert total == scaled(f, d)


class _Pairs(Mapping):
    """A mapping read from (key, value) pairs, so a key need not be hashable."""

    def __init__(self, pairs):
        self.pairs = pairs

    def __getitem__(self, key):
        return next(v for k, v in self.pairs if k == key)

    def __iter__(self):
        return (k for k, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)


def test_monomials_are_tuples_of_nonnegative_ints_of_the_right_arity():
    assert Polynomial(PLANE_VARS, {(1, 0, 2): 1}) == P("x*z^2")
    with pytest.raises(VariableMismatchError):
        Polynomial(PLANE_VARS, {(1, 0): 1})
    for key in ((-1, 0, 1), (1.5, 0, 0), (True, 0, 0)):
        with pytest.raises(ValueError):
            Polynomial(PLANE_VARS, {key: 1})
    with pytest.raises(ValueError):
        Polynomial(PLANE_VARS, _Pairs([([1, 0, 0], 1)]))


def test_homogeneous_degree_rejects_mixed():
    f = P("x^2+x")
    with pytest.raises(ValueError):
        f.homogeneous_degree()
    assert P("0").homogeneous_degree() is None


def test_variable_set_validation():
    with pytest.raises(ValueError):
        VariableSet(())
    with pytest.raises(ValueError):
        VariableSet(("x", "x"))
    with pytest.raises(ValueError):
        VariableSet(("2x",))
    # Identifiers that no identifier run of polynomial text can spell.
    for name in ("x\u0301", "a\u203fb"):
        with pytest.raises(ValueError, match="invalid variable name"):
            VariableSet((name,))


@st.composite
def polynomials(draw):
    variables = draw(st.sampled_from([PLANE_VARS, SPACE_VARS, AB_VARS]))
    monomials = st.tuples(*[st.integers(0, 7)] * len(variables))
    coefficients = st.one_of(
        st.integers(-10**6, 10**6),
        st.fractions(min_value=-50, max_value=50, max_denominator=40),
    )
    return Polynomial(variables, draw(st.dictionaries(monomials, coefficients, max_size=8)))


@settings(max_examples=300, deadline=None)
@given(polynomials())
def test_parse_inverts_str(f):
    assert parse_polynomial(str(f), f.variables) == f
