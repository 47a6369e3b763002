"""The contracts of the package's value types.

Records are `typing.NamedTuple`s: they unpack, compare equal to the tuple
of their fields, give `_asdict()` in field order and refuse assignment.
Types that validate or normalize their input are plain classes with only
the comparisons something uses: `ExactMatrix` and `Polynomial` compare by
value and are unhashable, and `VariableSet` compares and hashes by its
names.
"""

import importlib

import pytest

from ivhs import (
    PLANE_VARS,
    DegenerationError,
    DegenerationSpec,
    ExactMatrix,
    Polynomial,
    SmoothingStep,
    VariableSet,
    curve_invariants,
    parse_polynomial,
    singularity,
    step,
)

RECORDS = [
    ("degeneration", "DegenerationReport"),
    ("fixtures", "FixtureResult"),
    ("fixtures", "FixtureSuiteResult"),
    ("invariants", "ClassMuReport"),
    ("invariants", "CurveInvariants"),
    ("invariants", "SingularityRecord"),
    ("jacobian", "IVHSReport"),
    ("jacobian", "PieceDims"),
    ("linalg", "Echelon"),
    ("mult", "MultiplicationReport"),
    ("quotient", "GradedQuotientContext"),
    ("report", "Kind"),
    ("report", "Report"),
]


@pytest.mark.parametrize("module,name", RECORDS, ids=[n for _, n in RECORDS])
def test_a_record_is_a_named_tuple_that_refuses_assignment(module, name):
    cls = getattr(importlib.import_module(f"ivhs.{module}"), name)
    values = tuple(range(len(cls._fields)))
    record = cls(*values)
    assert record == values and tuple(record) == values
    assert list(record._asdict()) == list(cls._fields)
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], -1)


# --- ExactMatrix -----------------------------------------------------------------


def test_exact_matrix_equality_ignores_the_key_order_of_the_rows_given():
    a = ExactMatrix(2, 3, ({0: 1, 2: 5}, {1: 2}))
    b = ExactMatrix(2, 3, ({2: 5, 0: 1}, {1: 2}))
    assert a == b
    assert [list(row) for row in b.sparse] == [[0, 2], [1]]


def test_exact_matrices_differing_in_one_entry_or_shape_are_unequal():
    a = ExactMatrix.from_rows([[1, 0, 5], [0, 2, 0]])
    assert a != ExactMatrix.from_rows([[1, 0, 5], [0, 3, 0]])
    assert a != ExactMatrix(2, 4, ({0: 1, 2: 5}, {1: 2}))
    assert a != [[1, 0, 5], [0, 2, 0]]


def test_exact_matrix_is_unhashable():
    with pytest.raises(TypeError):
        hash(ExactMatrix(2, 2, ({0: 1}, {1: 1})))


# --- Polynomial and VariableSet --------------------------------------------------


def test_polynomials_compare_by_variables_and_terms():
    p = parse_polynomial("x^2 - 3*y*z", PLANE_VARS)
    assert p == Polynomial(PLANE_VARS, {(0, 1, 1): -3, (2, 0, 0): 1})
    assert p != parse_polynomial("x^2 - 2*y*z", PLANE_VARS)
    assert p != Polynomial(VariableSet(("a", "b", "c")), p.terms)
    assert p != "x^2 - 3*y*z"


def test_polynomial_is_unhashable():
    with pytest.raises(TypeError):
        hash(parse_polynomial("x", PLANE_VARS))


def test_variable_sets_compare_and_hash_by_their_names():
    names = VariableSet(["x", "y", "z"])
    assert names == PLANE_VARS and hash(names) == hash(PLANE_VARS)
    assert {PLANE_VARS: 1}[names] == 1
    assert names != VariableSet(("x", "y", "w"))
    assert names != ("x", "y", "z")


# --- SmoothingStep and DegenerationSpec ------------------------------------------


@pytest.mark.parametrize("initial,target", [("node", "tacnode"), ("smooth", "smooth")])
def test_a_smoothing_step_validates_in_its_constructor(initial, target):
    with pytest.raises(DegenerationError):
        SmoothingStep(singularity(initial), singularity(target))


def test_a_degeneration_spec_rejects_more_delta_than_its_genus():
    with pytest.raises(DegenerationError, match="exceeds arithmetic genus"):
        DegenerationSpec(1, [step("tacnode", "smooth")])


def test_a_degeneration_spec_computes_its_central_fiber():
    spec = DegenerationSpec(pa=6, steps=[step("node", "smooth"), step("cusp", "node")])
    assert type(spec.steps) is tuple and [s.initial.kind for s in spec.steps] == ["node", "cusp"]
    assert spec.central == curve_invariants(6, [singularity("node"), singularity("cusp")])
