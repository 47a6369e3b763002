"""μ on a free target: plane curves of degree d <= 5 and hyperelliptic curves.

In degree 2d-6 < d a plane curve's equation has no multiple, so every
product of two sections is a monomial of its own, as every hyperelliptic
product x^(i+j) is. These checks build that pair -> monomial incidence
densely in `oracles.py` and solve it there, with nothing of the package.
"""

import random
from fractions import Fraction

import pytest

from ivhs import PLANE_VARS, Polynomial, hyperelliptic_mu, parse_polynomial, plane_mu
from ivhs.cli import run_command

from oracles import gauss_kernel, gauss_rank, graded_exponents, pair_incidence, primitive


def _seeded_curve(d, seed):
    """A degree-d plane curve with signed integer and rational coefficients on random terms."""
    rng = random.Random(seed)
    terms = {}
    for e in rng.sample(graded_exponents(3, d), rng.randint(1, 8)):
        c = rng.choice([x for x in range(-9, 10) if x])
        terms[e] = Fraction(c, rng.randint(1, 7)) if rng.random() < 0.5 else c
    return Polynomial(PLANE_VARS, terms)


def _assert_matches_the_incidence(rep, sections, targets):
    incidence = pair_incidence(sections, targets)
    assert [r.dense() for r in rep.matrix] == incidence
    kernel = [primitive(v) for v in gauss_kernel(incidence, len(incidence[0]))]
    assert [tuple(row.dense()) for row in rep.kernel_rows] == kernel
    assert rep.rank == gauss_rank(incidence) == len(targets)
    assert (rep.target_dim, rep.kernel_dim) == (len(targets), len(kernel))


CURVES = {
    4: [*(_seeded_curve(4, seed) for seed in range(6)), parse_polynomial("x^4", PLANE_VARS),
        parse_polynomial("x^4+y^4", PLANE_VARS)],
    5: [*(_seeded_curve(5, seed) for seed in range(6, 12)),
        parse_polynomial("x^5+y^5+z^5+x*y^4+3*x^2*z^3", PLANE_VARS),
        parse_polynomial("-2/3*x^5+y^4*z", PLANE_VARS)],
}


@pytest.mark.parametrize("d", sorted(CURVES))
def test_plane_mu_is_the_pair_incidence(d):
    sections, targets = graded_exponents(3, d - 3), graded_exponents(3, 2 * d - 6)
    reports = [plane_mu(curve) for curve in CURVES[d]]
    _assert_matches_the_incidence(reports[0], sections, targets)
    # F has no multiple in degree 2d-6, so the report depends on d alone.
    assert all(rep == reports[0] for rep in reports)
    assert reports[0].model == f"plane(d={d})"
    singular = plane_mu(CURVES[d][-1], singular=True)
    assert singular.model == f"singular-plane(d={d})"
    assert singular._replace(model=reports[0].model) == reports[0]


@pytest.mark.parametrize("g", range(2, 7))
def test_hyperelliptic_mu_is_the_pair_incidence(g):
    rep = hyperelliptic_mu(g)
    _assert_matches_the_incidence(rep, [(i,) for i in range(g)], [(k,) for k in range(2 * g - 1)])


def test_declared_singularities_change_only_the_model_line():
    smooth = run_command(["mu", "plane", "--poly", "x^4+y^4+z^4"])
    singular = run_command(["mu", "plane", "--poly", "x^4+y^4", "--sing", "node"])
    assert smooth[0] == singular[0] == 0
    changed = [(a, b) for a, b in zip(smooth[1].splitlines(), singular[1].splitlines()) if a != b]
    assert changed == [("model: plane(d=4)", "model: singular-plane(d=4)")]
    assert len(smooth[1].splitlines()) == len(singular[1].splitlines())
