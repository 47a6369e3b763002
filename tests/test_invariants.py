"""Genus calculus, delta catalog, and Petri-class dimension reports."""

import pytest

from ivhs import (
    PLANE_VARS,
    UNDOCUMENTED,
    bicanonical_dim,
    ci_genus,
    class_mu_report,
    curve_invariants,
    graded_monomials,
    plane_pa,
    singularity,
    sym2_dim,
)


@pytest.mark.parametrize("d,expected", [(5, 6), (4, 3), (1, 0), (3, 1), (7, 15)])
def test_plane_pa(d, expected):
    assert plane_pa(d) == expected


def test_plane_pa_matches_adjoint_monomial_count():
    for d in range(3, 12):
        assert plane_pa(d) == len(graded_monomials(PLANE_VARS, d - 3))


@pytest.mark.parametrize("a,b,expected", [(2, 3, 4), (3, 3, 10), (2, 2, 1), (2, 4, 9), (3, 5, 31)])
def test_ci_genus(a, b, expected):
    assert ci_genus(a, b) == expected


def test_ci_genus_low_types():
    # ab(a+b-4) is even for every integer pair, so these all come out integral
    assert ci_genus(1, 1) == 0  # a line
    assert ci_genus(1, 2) == 0  # a conic
    assert ci_genus(1, 3) == 1  # a plane cubic
    with pytest.raises(ValueError):
        ci_genus(0, 3)


@pytest.mark.parametrize(
    "kind,delta,branches",
    [
        ("node", 1, 2),
        ("cusp", 1, 1),
        ("tacnode", 2, 2),
        ("ordinary:3", 3, 3),
        ("ordinary:2", 1, 2),
        ("A:1", 1, 2),
        ("A:2", 1, 1),
        ("A:3", 2, 2),
        ("A:4", 2, 1),
        ("smooth", 0, 1),
    ],
)
def test_singularity_catalog(kind, delta, branches):
    record = singularity(kind)
    assert record.delta == delta
    assert record.branches == branches


def test_catalog_coherence():
    # the parametric extensions agree with the named types
    assert singularity("ordinary:2").delta == singularity("node").delta == 1
    assert singularity("A:1").delta == 1
    assert singularity("A:3").delta == singularity("tacnode").delta == 2
    assert singularity("ordinary:3").delta == 3


@pytest.mark.parametrize(
    "bad",
    # The index takes ASCII digits only: no underscore, other digits, sign or blank.
    ["ordinary:1", "A:0", "swallowtail", "ordinary:x", "A:1_0", "A:\u0663", "ordinary:+3",
     "ordinary:-3", "A:\t2", "A: 2", "A:"],
)
def test_unknown_kind_rejected(bad):
    with pytest.raises(ValueError):
        singularity(bad)


def test_curve_invariants_nodal_quintic():
    inv = curve_invariants(6, [singularity("node")])
    assert inv.geometric_genus == 5
    assert inv.total_delta == 1
    assert inv.arithmetic_genus == inv.geometric_genus + inv.total_delta


def test_curve_invariants_smooth():
    inv = curve_invariants(4, [])
    assert inv.geometric_genus == 4
    assert inv.total_delta == 0


def test_curve_invariants_nodal_space_curve():
    inv = curve_invariants(4, [singularity("node")])
    assert inv.geometric_genus == 3


def test_curve_invariants_rejects_excess_delta():
    with pytest.raises(ValueError):
        curve_invariants(1, [singularity("tacnode")])


@pytest.mark.parametrize("g,expected", [(5, 12), (4, 9), (2, 3)])
def test_bicanonical_dim(g, expected):
    assert bicanonical_dim(g) == expected


@pytest.mark.parametrize("g,expected", [(5, 15), (10, 55), (1, 1)])
def test_sym2_dim(g, expected):
    assert sym2_dim(g) == expected


def test_class_report_trigonal_genus5():
    rep = class_mu_report(5, "trigonal")
    assert (rep.sym2, rep.target) == (15, 12)
    assert rep.mu_kernel == 3
    assert rep.max_ivhs_rank == 4


def test_class_report_hyperelliptic_genus3():
    rep = class_mu_report(3, "hyperelliptic")
    assert rep.mu_rank == 5
    assert rep.mu_kernel == 1
    assert rep.max_ivhs_rank == 2


def test_class_report_petri_genus3():
    rep = class_mu_report(3, "petri_general_nonhyperelliptic")
    assert rep.mu_kernel == 0
    assert rep.max_ivhs_rank == 3


def test_class_report_plane_quintic():
    rep = class_mu_report(6, "plane_quintic")
    assert (rep.sym2, rep.target, rep.mu_kernel) == (21, 15, 6)
    assert rep.max_ivhs_rank == UNDOCUMENTED


def test_class_report_undocumented_markers():
    assert class_mu_report(5, "hyperelliptic").max_ivhs_rank == UNDOCUMENTED
    assert class_mu_report(6, "trigonal").max_ivhs_rank == UNDOCUMENTED


def test_class_report_rank_kernel_split():
    cases = [
        (3, "hyperelliptic"),
        (5, "hyperelliptic"),
        (3, "petri_general_nonhyperelliptic"),
        (7, "petri_general_nonhyperelliptic"),
        (4, "trigonal"),
        (5, "trigonal"),
        (6, "plane_quintic"),
    ]
    for g, cls in cases:
        rep = class_mu_report(g, cls)
        assert rep.sym2 == rep.mu_rank + rep.mu_kernel


def test_class_report_compatibility_errors():
    with pytest.raises(ValueError):
        class_mu_report(3, "trigonal")
    with pytest.raises(ValueError):
        class_mu_report(5, "plane_quintic")
    with pytest.raises(ValueError):
        class_mu_report(1, "hyperelliptic")
    with pytest.raises(ValueError):
        class_mu_report(4, "bielliptic")
