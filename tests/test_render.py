"""The JSON renderer against its oracle, `json.dumps(sort_keys=True, indent=2)`."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivhs import cli, report
from ivhs.report import SparseRow, _emit, _grid_text

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


def _json(value, indent):
    """The JSON `_emit` gives for a value nested at `indent`: its pieces, joined."""
    out = []
    _emit(value, indent, out)
    return "".join(out)


@settings(max_examples=200, deadline=None)
@given(VALUES)
@example([1, [2, "a"], {"k": None}, 3.5, (), {}, [], -7])
@example({"b": [[1, -2], [True, None, "é"]], "a": ({"": [0.0]},)})
# Lists of ints, long or huge, with or without bools, go to the scalar-list
# encoder; only a SparseRow is spliced into a cached all-zeros text.
@example([0] * 200 + [-3] + [0] * 263 + [12])
@example([0, False, 0])
@example([0, 10**400, 0])
@example({"kernel": [[0, 0, 1], [0, -2, 0], [5]], "rows": ([[0] * 4, (7, 0)],)})
def test_json_matches_stdlib(value):
    assert _json(value, "") == json.dumps(value, sort_keys=True, indent=2)


# Entries of a payload row: ints of any size and sign, and "p/q" texts.
ROW_ENTRIES = st.one_of(
    st.integers(),
    st.integers(10**299, 10**300).flatmap(lambda n: st.sampled_from([n, -n])),
    st.tuples(st.integers(), st.integers(2, 10**6)).map(lambda t: f"{t[0]}/{t[1]}"),
).filter(lambda x: x != 0)


@st.composite
def dense_rows(draw):
    length = draw(st.one_of(st.integers(0, 3), st.integers(4, 1500)))
    nonzero = draw(st.dictionaries(st.integers(0, length - 1), ROW_ENTRIES,
                                   max_size=min(length, 12))) if length else {}
    return [nonzero.get(i, 0) for i in range(length)]


def sparse(dense):
    return SparseRow(len(dense), [(i, x) for i, x in enumerate(dense) if x != 0])


@settings(max_examples=150, deadline=None)
@given(dense_rows(), dense_rows())
@example([], [0])
@example([7], [0] * 900)
@example([-(10**300)] + [0] * 40 + [10**300 - 1], ["-3/7", 0, "1/2"])
def test_sparse_row_json_matches_stdlib_on_its_dense_row(first, second):
    row = sparse(first)
    assert _json(row, "") == json.dumps(first, sort_keys=True, indent=2)
    nested = {"matrix": [row, sparse(second)], "kernel": [[row]], "rank": 1}
    plain = {"matrix": [first, second], "kernel": [[first]], "rank": 1}
    assert _json(nested, "") == json.dumps(plain, sort_keys=True, indent=2)
    assert row == first and list(row) == first
    assert [row, sparse(second)] == [first, second]
    assert row != first + [1] and row != tuple(first)


@settings(max_examples=150, deadline=None)
@given(dense_rows())
@example([])
@example(["-3/7", 0, 12])
def test_text_grid_of_sparse_rows_matches_the_plain_join(first):
    # The rows of a grid share a length; plain lists print through the join.
    second = first[::-1]
    text = _grid_text([first, second])
    assert text == ["  " + " ".join(map(str, row)) for row in (first, second)]
    assert _grid_text([sparse(first), sparse(second)]) == text
    assert _grid_text([]) == ["  (empty)"]


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


def _densified(value):
    """A sparse row as its dense list, for the stdlib encoder; anything else stays an error."""
    if type(value) is SparseRow:
        return list(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
    assert out == json.dumps(rep.to_dict(), sort_keys=True, indent=2, default=_densified) + "\n"


@pytest.mark.parametrize("kind, inputs", [
    ("plane_mu", {"poly": RATIONAL_PLANE}),
    ("ci_mu", {"q": "x0*x1-x2*x3", "c": "x0^3+x1^3+x2^3+x3^3"}),
    ("hyperelliptic_mu", {"genus": 4}),
])
def test_mu_payload_equals_its_decoded_json(kind, inputs):
    # The fixture suite compares payload values with == against decoded JSON.
    payload = report.KINDS[kind].compute(inputs)
    decoded = json.loads(report.render_json(report.Report(kind, {}, payload)))["payload"]
    assert decoded == payload and payload == decoded


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("name", ["mu_plane", "mu_plane_rational", "mu_ci", "mu_hyperelliptic",
                                  "jacobian"])
def test_cli_never_builds_the_dense_accessors(name, json_flag, monkeypatch):
    # JSON and text output of every matrix-printing command come from the sparse rows,
    # with no row densified.
    payload = json.loads(cli.run_command(REPORT_KINDS[name] + ["--json"])[1])["payload"]
    printed = len(payload.get("xi", payload)["matrix"])
    assert printed > 0
    densified = []
    dense = SparseRow.dense
    monkeypatch.setattr(SparseRow, "dense", lambda row: densified.append(row) or dense(row))
    code, out = cli.run_command(REPORT_KINDS[name] + json_flag)
    assert code == 0, out
    assert densified == []


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
