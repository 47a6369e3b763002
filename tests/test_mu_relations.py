"""Relations every mu and xi payload keeps, checked at the benchmark's sizes with no oracle.

A curve and any nonzero multiple of it cut out the same ideal, and so do
two equations of equal degree in either order, so each pair prints the
same payload. Swapping two variables permutes the sections: it keeps the
rank and the kernel dimension, and each kernel vector, with its pairs
swapped, is annihilated by the swapped curve's matrix. With the equal
dimension that makes the swapped kernel the kernel of the swapped matrix.

The cup product with a class xi is linear in xi and kills the Jacobian
ideal: -(3/7)*xi gives -3/7 times xi's matrix, and xi + sum s_i * dF/dx_i
gives xi's matrix. Swapping two variables in both the curve and xi
permutes the bases of every piece, so it keeps the rank and the dims.
"""

import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm

import pytest

from ivhs import PLANE_VARS, SPACE_VARS, parse_polynomial
from ivhs.cli import run_command

XYZ, X0123 = ("x", "y", "z"), ("x0", "x1", "x2", "x3")


def _text(terms, names, scale=1):
    """The polynomial sum(c * x^e) over (c, e) pairs, each c multiplied by `scale`."""
    out = ""
    for c, e in terms:
        c = Fraction(c) * scale
        monomial = "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(names, e) if k)
        out += f"{'+' if c > 0 else '-'}{abs(c)}*{monomial}"
    return out.lstrip("+")


def _plane(d):
    """F_d = x^d + y^d + z^d + x*y^(d-1) + 3*x^2*z^(d-2), as (coefficient, exponent) pairs."""
    return [(1, (d, 0, 0)), (1, (0, d, 0)), (1, (0, 0, d)), (1, (1, d - 1, 0)),
            (3, (2, 0, d - 2))]


CI_CUBIC = [(1, (3, 0, 0, 0)), (1, (0, 3, 0, 0)), (1, (0, 0, 3, 0)), (1, (0, 0, 0, 3)),
            (-4, (1, 2, 0, 0))]
CI_QUARTIC = [(1, (4, 0, 0, 0)), (2, (0, 4, 0, 0)), (3, (0, 0, 4, 0)), (5, (0, 0, 0, 4))]


def _payload(*argv):
    code, out = run_command([*argv, "--json"])
    assert code == 0, out
    return json.loads(out)["payload"]


@pytest.mark.parametrize("d", [8, 9])
def test_plane_mu_of_a_multiple_of_the_curve_is_the_same_payload(d):
    curve = _plane(d)
    payload = _payload("mu", "plane", f"--poly={_text(curve, XYZ)}")
    assert payload == _payload("mu", "plane", f"--poly={_text(curve, XYZ, Fraction(-3, 7))}")
    g = (d - 1) * (d - 2) // 2
    assert (payload["rank"], payload["kernel_dim"]) == (3 * g - 3, g * (g + 1) // 2 - 3 * g + 3)


def test_ci_mu_of_a_multiple_of_the_quartic_is_the_same_payload():
    q = f"--q={_text(CI_CUBIC, X0123)}"
    payload = _payload("mu", "ci", q, f"--c={_text(CI_QUARTIC, X0123)}")
    assert payload == _payload("mu", "ci", q, f"--c={_text(CI_QUARTIC, X0123, Fraction(2, 5))}")
    # Genus 1 + 12*3/2 = 19: 190 pairs onto the 54 sections of omega^2.
    assert (payload["rank"], payload["kernel_dim"]) == (54, 136)


def test_ci_mu_of_two_cubics_is_the_same_payload_in_either_order():
    other = _text([(1, (3, 0, 0, 0)), (-2, (0, 3, 0, 0)), (Fraction(1, 3), (0, 0, 3, 0)),
                   (7, (0, 0, 0, 3)), (1, (0, 1, 1, 1))], X0123)
    cubic = _text(CI_CUBIC, X0123)
    payload = _payload("mu", "ci", f"--q={cubic}", f"--c={other}")
    assert payload == _payload("mu", "ci", f"--q={other}", f"--c={cubic}")
    # Genus 10: 55 pairs onto the 27 sections of omega^2.
    assert (payload["rank"], payload["kernel_dim"]) == (27, 28)


def _integer_rows(matrix):
    """The payload's matrix, each row scaled by the lcm of its denominators."""
    rows = []
    for row in matrix:
        entries = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in entries))
        rows.append([int(x * scale) for x in entries])
    return rows


def _swapped(terms, order):
    return [(c, tuple(e[i] for i in order)) for c, e in terms]


@pytest.mark.parametrize("model,flags,names,order", [
    # x and y swapped in F_8: the sections, all quintics, are permuted.
    ("plane", [("--poly", _plane(8))], XYZ, (1, 0, 2)),
    # x2 and x3 swapped in the (3,4) pair: the cubic is fixed, so the
    # sections, the cubics but x0^3, are permuted; the products do not
    # cover the sextics.
    ("ci", [("--q", CI_CUBIC), ("--c", CI_QUARTIC)], X0123, (0, 1, 3, 2)),
])
def test_swapping_two_variables_permutes_the_mu_kernel(model, flags, names, order):
    payload = _payload("mu", model, *(f"{f}={_text(t, names)}" for f, t in flags))
    swapped = _payload("mu", model,
                       *(f"{f}={_text(_swapped(t, order), names)}" for f, t in flags))
    assert (swapped["rank"], swapped["kernel_dim"]) == (payload["rank"], payload["kernel_dim"])
    variables = PLANE_VARS if model == "plane" else SPACE_VARS

    def sections(p):
        return [next(iter(parse_polynomial(s, variables).terms)) for s in p["section_labels"]]

    place = {e: i for i, e in enumerate(sections(swapped))}
    image = [place[tuple(e[i] for i in order)] for e in sections(payload)]
    pairs = {p: j for j, p in enumerate(combinations_with_replacement(range(len(image)), 2))}
    moved = [pairs[tuple(sorted((image[i], image[j])))] for i, j in pairs]
    rows = _integer_rows(swapped["matrix"])
    for v in payload["kernel_basis"]:
        w = [0] * len(v)
        for j, x in enumerate(v):
            w[moved[j]] = x
        assert all(sum(a * x for a, x in zip(row, w) if x) == 0 for row in rows)


def _degree(d):
    return [(a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)]


def _combined(*term_lists):
    """The sum of the terms of every list, like terms added and zeros dropped."""
    total = {}
    for terms in term_lists:
        for c, e in terms:
            total[e] = total.get(e, 0) + Fraction(c)
    return [(c, e) for e, c in total.items() if c]


def _partial(terms, i):
    return [(c * e[i], tuple(k - (j == i) for j, k in enumerate(e))) for c, e in terms if e[i]]


def _times(linear, terms):
    """The product of a linear form, given by its three coefficients, and the terms."""
    return _combined(*([(a * c, tuple(k + (j == i) for j, k in enumerate(e))) for c, e in terms]
                       for i, a in enumerate(linear)))


def _class(rng, d):
    """A seeded class of degree d: four monomials with coefficients in +-1..9."""
    return [(rng.choice((-1, 1)) * rng.randint(1, 9), e) for e in rng.sample(_degree(d), 4)]


# F_5 to F_8, whose xi matrices the benchmark's xi_sweep ranks at d = 5, and a dense quintic.
_DENSE = random.Random(7)
XI_CURVES = {**{f"F_{d}": _plane(d) for d in range(5, 9)},
             "dense_quintic": [(_DENSE.randint(1, 9), e) for e in _degree(5)]}


def _xi_case(name):
    """The curve, a seeded class xi of its degree and the payload of `jacobian --xi`."""
    curve = XI_CURVES[name]
    xi = _class(random.Random(name), sum(curve[0][1]))
    return curve, xi, _xi_payload(curve, xi)


def _xi_payload(curve, xi):
    return _payload("jacobian", f"--poly={_text(curve, XYZ)}", f"--xi={_text(xi, XYZ)}")


def _fractions(matrix):
    return [[Fraction(x) for x in row] for row in matrix]


@pytest.mark.parametrize("name", XI_CURVES)
def test_a_multiple_of_xi_scales_its_matrix(name):
    curve, xi, payload = _xi_case(name)
    scaled = _xi_payload(curve, _combined([(c * Fraction(-3, 7), e) for c, e in xi]))["xi"]
    plain = payload["xi"]
    assert plain["rank"] > 0 and scaled["rank"] == plain["rank"]
    assert _fractions(scaled["matrix"]) == [[Fraction(-3, 7) * x for x in row]
                                            for row in _fractions(plain["matrix"])]


@pytest.mark.parametrize("name", XI_CURVES)
def test_xi_plus_the_jacobian_ideal_has_the_matrix_of_xi(name):
    curve, xi, payload = _xi_case(name)
    rng = random.Random(f"{name}:ideal")
    linears = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
    moved = _combined(xi, *(_times(s, _partial(curve, i)) for i, s in enumerate(linears)))
    shifted = _xi_payload(curve, moved)["xi"]
    assert moved != xi and shifted["class"] != payload["xi"]["class"]
    assert {k: shifted[k] for k in ("matrix", "rank", "is_max")} == \
        {k: payload["xi"][k] for k in ("matrix", "rank", "is_max")}


@pytest.mark.parametrize("name", XI_CURVES)
def test_swapping_x_and_y_keeps_the_xi_rank_and_dims(name):
    curve, xi, payload = _xi_case(name)
    swapped = _xi_payload(_swapped(curve, (1, 0, 2)), _swapped(xi, (1, 0, 2)))
    assert swapped["xi"]["rank"] == payload["xi"]["rank"]
    assert swapped["dims"] == payload["dims"]
