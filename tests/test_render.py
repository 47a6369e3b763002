"""The JSON renderer against its oracle, `json.dumps(sort_keys=True, indent=2)`."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivhs import cli, report
from ivhs.report import _json

# Its mu matrix holds "p/q" strings: the normal form of degree-6 products divides by 3/7.
RATIONAL_PLANE = "x^6+y^6+z^6+3/7*x*y^5"

CHARACTERS = st.one_of(st.characters(), st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7fé€😀'))
HUGE_INTEGERS = st.integers(-(10**400), 10**400)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    HUGE_INTEGERS,
    st.floats(),
    st.text(CHARACTERS),
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(st.text(CHARACTERS), children),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(VALUES)
@example([1, [2, "a"], {"k": None}, 3.5, (), {}, [], -7])
@example({"b": [[1, -2], [True, None, "é"]], "a": ({"": [0.0]},)})
# Integer lists are spliced into a cached all-zeros text; a bool, however
# falsy, keeps a list on the encoder.
@example([0] * 200 + [-3] + [0] * 263 + [12])
@example([0, False, 0])
@example([0, 10**400, 0])
@example({"kernel": [[0, 0, 1], [0, -2, 0], [5]], "rows": ([[0] * 4, (7, 0)],)})
def test_json_matches_stdlib(value):
    assert _json(value, "") == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [{1: "a"}, {"a": [{None: 1}]}, {"a": {(1,): 2}}])
def test_non_str_key_raises_type_error(value):
    with pytest.raises(TypeError):
        _json(value, "")


GOLDEN = Path(__file__).parent / "golden"

# One command per report kind, then the empty branches of the text rendering
# (trivial kernel, no singularities, no xi or search), keyed by text golden.
REPORT_KINDS = {
    "mu_plane": ["mu", "plane", "--poly", "x^5+y^5+z^5+x*y^4"],
    "mu_plane_rational": ["mu", "plane", "--poly", RATIONAL_PLANE],
    "mu_ci": ["mu", "ci", "--q=x0*x1-x2*x3", "--c=x0^3+x1^3+x2^3+x3^3"],
    "mu_hyperelliptic": ["mu", "hyperelliptic", "--genus", "4"],
    "jacobian": ["jacobian", "--poly", "x^4+y^4+z^4", "--xi=x^2*y*z+1/3*x^4", "--budget", "5"],
    "class": ["class", "--genus", "5", "--class", "trigonal"],
    "invariants": ["invariants", "--pa", "6", "--sing=node,cusp"],
    "degenerate": ["degenerate", "--pa", "5", "--step=node:smooth", "--step=cusp:node"],
    "mu_plane_trivial_kernel": ["mu", "plane", "--poly", "x^4+y^4+z^4"],
    "invariants_smooth": ["invariants", "--pa", "3"],
    "jacobian_dims_only": ["jacobian", "--poly", "x^5+y^5+z^5"],
}


@pytest.mark.parametrize("argv", list(REPORT_KINDS.values()))
def test_render_json_matches_stdlib_for_every_report_kind(argv, monkeypatch):
    rendered = []

    def capture(rep):
        rendered.append(rep)
        return report.render_json(rep)

    monkeypatch.setattr(cli, "render_json", capture)
    code, out = cli.run_command(argv + ["--json"])
    assert code == 0, out
    (rep,) = rendered
    assert out == json.dumps(rep.to_dict(), sort_keys=True, indent=2) + "\n"


def test_rational_matrix_renders_fractions_as_strings():
    code, out = cli.run_command(["mu", "plane", "--poly", RATIONAL_PLANE, "--json"])
    assert code == 0, out
    cells = [e for row in json.loads(out)["payload"]["matrix"] for e in row]
    assert "-3/7" in cells and {type(e) for e in cells} == {int, str}


@pytest.mark.parametrize("name", REPORT_KINDS)
def test_text_output_matches_golden_bytes(name):
    code, out = cli.run_command(REPORT_KINDS[name])
    assert code == 0, out
    assert out == (GOLDEN / f"{name}.txt").read_text()
