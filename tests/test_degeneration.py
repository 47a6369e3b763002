"""Rank defects, limiting weight-graded dimensions, vanishing-cycle counts."""

import random

import pytest

from ivhs import (
    DegenerationError,
    DegenerationSpec,
    curve_invariants,
    rank_defect,
    singularity,
    step,
    yukawa_defect,
)


def spec(pa, *steps):
    return DegenerationSpec(pa=pa, steps=tuple(step(a, b) for a, b in steps))


def test_quintic_node_smoothing():
    rep = rank_defect(spec(6, ("node", "smooth")))
    assert rep.rank_defect == 1
    assert rep.predicted_max_rank == 5
    assert rep.vanishing_cycle_dim == 1
    assert (rep.gr_w1_dim, rep.gr_w2_dim) == (10, 1)


def test_tacnode_partial_smoothing():
    rep = rank_defect(spec(8, ("tacnode", "node")))
    assert rep.rank_defect == 1
    assert rep.predicted_max_rank == 7


def test_tacnode_full_smoothing():
    rep = rank_defect(spec(8, ("tacnode", "smooth")))
    assert rep.rank_defect == 2
    assert rep.predicted_max_rank == 6


def test_triple_point_smoothing():
    rep = rank_defect(spec(10, ("ordinary:3", "smooth")))
    assert rep.rank_defect == 3
    assert rep.predicted_max_rank == 7


def test_equisingular_family_keeps_full_rank():
    rep = rank_defect(spec(6, ("node", "node"), ("cusp", "cusp")))
    assert rep.rank_defect == 0
    assert rep.predicted_max_rank == 6


def test_delta_increase_rejected():
    with pytest.raises(DegenerationError):
        step("node", "tacnode")


def test_excess_delta_rejected():
    with pytest.raises(DegenerationError):
        spec(1, ("tacnode", "smooth"))


def test_report_identities_on_random_specs():
    rng = random.Random(41)
    kinds = ["node", "cusp", "tacnode", "ordinary:3", "ordinary:4", "A:4", "A:5"]
    for _ in range(60):
        chosen = [rng.choice(kinds) for _ in range(rng.randrange(0, 4))]
        steps = []
        for kind in chosen:
            init = singularity(kind)
            targets = [k for k in kinds + ["smooth"] if singularity(k).delta <= init.delta]
            steps.append((kind, rng.choice(targets)))
        delta_initial = sum(singularity(k).delta for k, _ in steps)
        pa = delta_initial + rng.randrange(0, 5)
        rep = rank_defect(spec(pa, *steps))
        assert 0 <= rep.rank_defect <= rep.delta_initial <= pa
        assert rep.predicted_max_rank + rep.vanishing_cycle_dim == pa
        assert rep.gr_w1_dim % 2 == 0
        assert rep.gr_w1_dim + 2 * rep.gr_w2_dim == 2 * pa


def test_strictly_smoothing_step_lowers_prediction():
    base = rank_defect(spec(8, ("tacnode", "tacnode")))
    partial = rank_defect(spec(8, ("tacnode", "node")))
    full = rank_defect(spec(8, ("tacnode", "smooth")))
    assert base.predicted_max_rank > partial.predicted_max_rank > full.predicted_max_rank


def test_mhs_dims_examples():
    nodal_quintic = curve_invariants(6, [singularity("node")])
    assert (nodal_quintic.gr_w1, nodal_quintic.gr_w2) == (10, 1)
    genus4_node = curve_invariants(4, [singularity("node")])
    assert (genus4_node.gr_w1, genus4_node.gr_w2) == (6, 1)
    # the filtration formulas give 6 + 1 = 7 for the full H^1 here
    assert genus4_node.gr_w1 + genus4_node.gr_w2 == 7
    smooth = curve_invariants(4, [])
    assert (smooth.gr_w1, smooth.gr_w2) == (8, 0)


def test_equisingular_rank_split():
    # the maximal equisingular rank p_a splits as normalization genus + delta
    nodal = curve_invariants(6, [singularity("node")])
    assert (nodal.arithmetic_genus, nodal.geometric_genus, nodal.total_delta) == (6, 5, 1)
    smooth = curve_invariants(7, [])
    assert (smooth.arithmetic_genus, smooth.geometric_genus) == (7, 7)
    tacnodal = curve_invariants(6, [singularity("tacnode")])
    assert (tacnodal.geometric_genus, tacnodal.total_delta) == (4, 2)


def test_yukawa_defect_counts_nodes():
    assert yukawa_defect(0) == 0
    assert yukawa_defect(1) == 1
    assert yukawa_defect(5) == 5
    with pytest.raises(ValueError):
        yukawa_defect(-1)
