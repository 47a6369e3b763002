"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Every
comparison is exact integer/rational equality; there are no tolerances.
"""

import json
import random
from contextlib import contextmanager

from ivhs import (
    FIXTURES_DIR,
    PLANE_VARS,
    Polynomial,
    SPACE_VARS,
    class_mu_report,
    graded_monomials,
    hyperelliptic_mu,
    ci_mu,
    ivhs_matrix,
    ivhs_max_rank,
    jacobian_context,
    curve_invariants,
    monomial_count,
    parse_polynomial,
    plane_mu,
    quotient_context,
    rank_defect,
    singularity,
    step,
    DegenerationSpec,
    ideal_degree_dim,
)
from ivhs.linalg import _certified_rank, _echelon, _rank_bound

from oracles import (added, identity_rows, quadric_terms, quotient_dim_oracle, scaled,
                     times_monomial)


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL - {title}")
        raise
    print(f"criterion {number}: PASS - {title}")


def test_criterion_1_fermat_quartic_identity():
    with criterion(1, "plane quartic multiplication matrix is the 6x6 identity"):
        rep = plane_mu(parse_polynomial("x^4+y^4+z^4", PLANE_VARS))
        assert [r.dense() for r in rep.matrix] == identity_rows(6)
        assert (rep.source_dim, rep.target_dim) == (6, 6)
        assert rep.rank == 6
        assert rep.kernel_dim == 0 and [r.dense() for r in rep.kernel_rows] == []


def test_criterion_2_quadric_cubic_intersection():
    with criterion(2, "(2,3) intersection: rank 9, kernel spanned by the quadric"):
        quadric = parse_polynomial("x0*x1-x2*x3", SPACE_VARS)
        cubic = parse_polynomial("x0^3+x1^3+x2^3+x3^3", SPACE_VARS)
        rep = ci_mu(quadric, cubic)
        assert (rep.source_dim, rep.target_dim) == (10, 9)
        assert rep.rank == 9
        kernel = [r.dense() for r in rep.kernel_rows]
        assert kernel == [[0, 1, 0, 0, 0, 0, 0, 0, -1, 0]]
        exponents = [next(iter(parse_polynomial(label, SPACE_VARS).terms))
                     for label in rep.section_labels]
        assert quadric_terms(exponents, rep.pairs, kernel[0]) == quadric.terms


def test_criterion_3_cubic_pair_dimensions():
    with criterion(3, "(3,3) pair: quotient dimension 27, symmetric square 55"):
        c1 = parse_polynomial("x0^3+x1^3+x2^3+x3^3", SPACE_VARS)
        c2 = parse_polynomial("x0^3+2*x1^3+3*x2^3+4*x3^3", SPACE_VARS)
        assert quotient_context([c1, c2], 4).dim == 27
        rep = ci_mu(c1, c2)  # raises if the regular-sequence cross-check fails
        assert rep.source_dim == 55
        assert rep.target_dim == 27


def test_criterion_4_hyperelliptic_genus3():
    with criterion(4, "hyperelliptic g=3: rank 5, kernel 1, max cup rank 2"):
        rep = hyperelliptic_mu(3)
        assert (rep.rank, rep.kernel_dim) == (5, 1)
        cls = class_mu_report(3, "hyperelliptic")
        assert cls.max_ivhs_rank == 2


def test_criterion_5_trigonal_genus5():
    with criterion(5, "trigonal g=5: sym2 15, target 12, kernel 3, max rank 4"):
        cls = class_mu_report(5, "trigonal")
        assert cls.sym2 == 15
        assert cls.target == 12
        assert cls.mu_kernel == 3
        assert cls.max_ivhs_rank == 4


def test_criterion_6_jacobian_cup_products():
    with criterion(6, "quartic Jacobian ring: dims (3,6,3), witness rank 3, "
                      "ideal direction rank 0"):
        ctx = jacobian_context(parse_polynomial("x^4+y^4+z^4", PLANE_VARS))
        assert (ctx.sections.dim, ctx.deformations.dim, ctx.targets.dim) == (3, 6, 3)
        witness = ivhs_matrix(
            ctx, parse_polynomial("x^2*y*z + x*y^2*z + x*y*z^2", PLANE_VARS)
        )
        assert witness.rank == 3
        best = ivhs_max_rank(ctx, 50)
        assert best.is_max and best.rank == 3
        ideal_direction = ivhs_matrix(ctx, parse_polynomial("x^3*y", PLANE_VARS))
        assert ideal_direction.rank == 0
        # the shipped fixture documents why this direction acts by zero
        fixture = json.loads(
            (FIXTURES_DIR / "jacobian_quartic_ideal_direction.json").read_text()
        )
        assert fixture["expected"]["xi"]["rank"] == 0
        assert "ideal" in fixture["note"]


def test_criterion_7_degeneration_defects():
    with criterion(7, "rank defects: node 1, tacnode 1/2, triple point 3, "
                      "equisingular 0"):
        quintic = rank_defect(DegenerationSpec(6, (step("node", "smooth"),)))
        assert quintic.rank_defect == 1
        assert quintic.predicted_max_rank == 5
        partial = rank_defect(DegenerationSpec(8, (step("tacnode", "node"),)))
        assert partial.rank_defect == 1
        assert partial.predicted_max_rank == 8 - 1
        full = rank_defect(DegenerationSpec(8, (step("tacnode", "smooth"),)))
        assert full.rank_defect == 2
        triple = rank_defect(DegenerationSpec(9, (step("ordinary:3", "smooth"),)))
        assert triple.rank_defect == 3
        for pa in (4, 6, 9):
            equi = rank_defect(DegenerationSpec(pa, (step("node", "node"),)))
            assert equi.rank_defect == 0
            assert equi.predicted_max_rank == pa


def test_criterion_8_mhs_dimensions():
    with criterion(8, "weight-graded dims: nodal quintic (10,1); genus-4 fixture "
                      "records 7 next to the quoted 8"):
        dims = curve_invariants(6, [singularity("node")])
        assert (dims.gr_w1, dims.gr_w2) == (10, 1)
        genus4 = curve_invariants(4, [singularity("node")])
        assert (genus4.gr_w1, genus4.gr_w2) == (6, 1)
        assert genus4.gr_w1 + genus4.gr_w2 == 7
        fixture = json.loads((FIXTURES_DIR / "mhs_genus4_node.json").read_text())
        assert fixture["expected"] == {"mhs": {"gr_w1": 6, "gr_w2": 1}}
        assert "8" in fixture["note"]  # the competing count is recorded


def test_criterion_9_property_suites():
    with criterion(9, "property suites: rank-nullity, Euler, duality, "
                      "hyperelliptic ranks, quotient oracle"):
        # 200 random small matrices: the certified rank + the echelon's free columns = columns
        rng = random.Random(99)
        for _ in range(200):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            dense = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
            m = [{j: x for j, x in enumerate(row) if x} for row in dense]
            assert _certified_rank(m, _rank_bound(m)) + len(_echelon(m, cols).free) == cols

        # Euler relation on 100 random polynomials
        for _ in range(100):
            variables = PLANE_VARS if rng.random() < 0.5 else SPACE_VARS
            d = rng.randrange(1, 6)
            mons = graded_monomials(variables, d)
            f = Polynomial(
                variables, {rng.choice(mons): rng.randrange(-5, 6) for _ in range(4)}
            )
            total = Polynomial(variables, {})
            for i in range(len(variables)):
                unit = tuple(int(j == i) for j in range(len(variables)))
                total = added(total, times_monomial(f.partial(i), unit))
            assert total == scaled(f, d)

        # Jacobian duality dims for d in {4, 5}
        for d in (4, 5):
            terms = "+".join(f"{v}^{d}" for v in ("x", "y", "z"))
            ctx = jacobian_context(parse_polynomial(terms, PLANE_VARS))
            dims = [monomial_count(3, k) - ideal_degree_dim(ctx.partials, k)
                    for k in range(ctx.socle_degree + 1)]
            assert dims == dims[::-1]

        # hyperelliptic rank formula for g = 2..12
        for g in range(2, 13):
            assert hyperelliptic_mu(g).rank == 2 * g - 1

        # quotient dimensions against the brute-force oracle: every single
        # monomial generator with d <= 5, k <= 8 (exhaustive), plus one dense
        # generator per degree
        for d in range(1, 6):
            for gen in graded_monomials(PLANE_VARS, d):
                g = Polynomial(PLANE_VARS, {gen: 1})
                for k in range(9):
                    not_divisible = sum(
                        1
                        for m in graded_monomials(PLANE_VARS, k)
                        if not all(a >= b for a, b in zip(m, gen))
                    )
                    computed = monomial_count(3, k) - ideal_degree_dim([g], k)
                    assert computed == not_divisible
        for d in range(1, 6):
            mons = graded_monomials(PLANE_VARS, d)
            terms = {m: rng.randrange(-3, 4) for m in mons}
            if not any(terms.values()):
                terms[mons[0]] = 1
            g = Polynomial(PLANE_VARS, terms)
            for k in range(9):
                assert quotient_context([g], k).dim == quotient_dim_oracle(
                    g.terms, 3, d, k
                )
