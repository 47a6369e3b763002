"""The contracts of the package's value types.

Records are `typing.NamedTuple`s: they unpack, compare equal to the tuple
of their fields, give `_asdict()` in field order and refuse assignment.
Types that validate or normalize their input are plain classes with only
the comparisons something uses: `Polynomial` compares by value (records
that hold one, such as `IVHSReport.xi`, compare by value) and is
unhashable, and `VariableSet` compares and hashes by its names.
"""

import importlib

import pytest

from ivhs import (
    PLANE_VARS,
    DegenerationError,
    DegenerationSpec,
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
