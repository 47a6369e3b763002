"""CLI dispatch, exit codes, rendering invariants, spec files, fixture suite."""

import argparse
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ivhs
import ivhs.jacobian
from ivhs import (
    FIXTURES_DIR,
    Report,
    SpecFileError,
    load_degeneration_spec,
    render_json,
    run_fixture_suite,
)
from ivhs.cli import _build_parser, run_command
from ivhs.report import KINDS
from test_reach import KIND_EXAMPLES

GOLDEN = Path(__file__).parent / "golden"


def ok(argv):
    code, out = run_command(argv)
    assert code == 0, out
    return out


# --- exit codes -----------------------------------------------------------

def test_unknown_subcommand_is_usage_error():
    code, out = run_command(["bogus"])
    assert code == 64


def test_missing_subcommand_is_usage_error():
    code, _ = run_command([])
    assert code == 64
    code, _ = run_command(["mu"])
    assert code == 64


@pytest.mark.parametrize("argv, code, prefix", [
    (["mu", "hyperelliptic", "--genus", "3"], 0, "kind: hyperelliptic_mu\n"),
    (["mu", "plane", "--poly", "x^4+*y"], 2, "error: --poly: "),
    (["mu"], 64, "usage error: "),
    (["mu", "plane", "--help"], 0, "usage: ivhs mu plane [-h] --poly POLY"),
], ids=["report", "validation_error", "usage_error", "help"])
def test_console_entry_point_writes_one_stream_and_exits_with_the_code(argv, code, prefix,
                                                                        monkeypatch):
    # cli.main in a fresh interpreter: a report or help goes to stdout, an error to stderr.
    monkeypatch.setenv("COLUMNS", "80")  # the same help width in both processes
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "ivhs.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    written, silent = (done.stdout, done.stderr) if code == 0 else (done.stderr, done.stdout)
    assert (done.returncode, silent) == (code, ""), done.stderr
    assert written.startswith(prefix)
    assert written == run_command(argv)[1]


def test_bad_polynomial_is_validation_error():
    code, out = run_command(["mu", "plane", "--poly", "x^4+w^4"])
    assert code == 2
    assert "--poly" in out and "unknown variable" in out


def test_singular_plane_curve_accepted_but_jacobian_rejects():
    code, _ = run_command(["mu", "plane", "--poly", "x^4+y^4"])
    assert code == 0
    code, out = run_command(["jacobian", "--poly", "x^4+y^4"])
    assert code == 2
    assert "not smooth" in out


def test_low_genus_is_validation_error():
    code, _ = run_command(["mu", "hyperelliptic", "--genus", "1"])
    assert code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["invariants", "--pa", "-1"], "--pa: arithmetic genus must be nonnegative, got -1"),
        (["degenerate", "--pa", "-1", "--step", "node:smooth"],
         "--pa: arithmetic genus must be nonnegative, got -1"),
        (["degenerate", "--pa", "1", "--step", "tacnode:node"],
         "--pa: total delta 2 exceeds arithmetic genus 1"),
        (["jacobian", "--poly", "x^4+y^4+z^4", "--budget", "0"],
         "--budget: budget must be positive"),
        (["mu", "hyperelliptic", "--genus", "1"], "--genus: genus must be at least 2"),
        (["class", "--genus", "1", "--class", "hyperelliptic"],
         "--genus: genus must be at least 2"),
        (["class", "--genus", "5", "--class", "bogus"], "--class: unknown curve class 'bogus'"),
        (["jacobian", "--poly", "x^4+y^4+z^4", "--xi", "x^3"],
         "--xi: xi must be homogeneous of degree 4"),
        (["mu", "plane", "--poly", "x^3+y^3+z^3"], "--poly: plane model expects degree >= 4"),
        (["jacobian", "--poly", "x^4+y^4+x*y*z^2"],
         "--poly: the partial derivatives do not cut out a finite-length quotient "
         "(nonzero piece in degree 7); the curve is singular"),
        (["jacobian", "--poly", "x^3+y^3+z^3"], "--poly: curve must be homogeneous of degree >= 4"),
        (["jacobian", "--poly", "x^5+y^5"],
         "--poly: partial derivative in z vanishes identically; the curve is a cone and not smooth"),
        (["invariants", "--pa", "30", "--sing", "A:1_0"], "--sing: malformed singularity kind 'A:1_0'"),
        (["mu", "plane", "--poly", "x^4+y^4+z^4", "--sing", "node,node,node,node"],
         "--sing: total delta 4 exceeds arithmetic genus 3"),
        (["mu", "ci", "--q", "x0*x1-x2*x3", "--c", "x0"],
         "--q/--c: type (a,b) needs a+b >= 5 for an effective dualizing sheaf"),
        (["mu", "ci", "--q", "x0^2", "--c", "x0^3"],
         "--q/--c: quotient dimension 36 in degree 5 differs from the regular-sequence count "
         "27; the pair of degrees (2,3) is not a regular sequence there"),
        (["mu", "plane", "--poly", "*x^4+y^4+z^4"], "--poly: expected a term (at position 0)"),
    ],
)
def test_range_errors_name_their_flag(argv, message):
    assert run_command(argv) == (2, f"error: {message}\n")


def test_cup_products_build_no_product_polynomial(monkeypatch):
    # The xi matrices are read from the target class table by adding exponents.
    argvs = [["jacobian", "--poly", "x^5+y^5+z^5+x*y^4", "--xi=x^3*y*z-2/3*x*y^2*z^2"],
             ["jacobian", "--poly", "x^6+y^6+z^6", "--budget", "200"]]
    argvs += [argv + ["--json"] for argv in argvs]
    expected = [ok(argv) for argv in argvs]

    def forbidden(*args):
        raise AssertionError("the cup-product path reduced a product polynomial")

    monkeypatch.setattr(ivhs.GradedQuotientContext, "reduce", forbidden)
    assert [ok(argv) for argv in argvs] == expected


def test_mu_products_build_no_product_polynomial(monkeypatch):
    # The products of sections are read from the target class table in one reduce call,
    # so the only polynomials a mu command builds are the ones it parses.
    argvs = [["mu", "plane", "--poly", "x^6+y^6+z^6+3/7*x*y^5"],
             ["mu", "ci", "--q=x0*x1-x2*x3", "--c=x0^3+x1^3+x2^3+x3^3"],
             ["mu", "ci", "--q=x0^3+x1^3+x2^3+x3^3", "--c=x0^3+2*x1^3+3*x2^3+4*x3^3"]]
    argvs += [argv + ["--json"] for argv in argvs]
    expected = [ok(argv) for argv in argvs]
    built = []
    init = ivhs.Polynomial.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(ivhs.Polynomial, "__init__", counted)
    for argv, output in zip(argvs, expected):
        built.clear()
        assert ok(argv) == output
        assert len(built) == (1 if argv[1] == "plane" else 2)


def test_invariant_errors_do_not_blame_a_flag(monkeypatch):
    real = ivhs.jacobian.quotient_context

    def lopsided(generators, k):
        # Degree 2d-3 = 5 answers with the degree-4 piece, which is larger.
        return real(generators, 4 if k == 5 else k)

    # A cup product builds the degree-5 piece, which the Hilbert series checks.
    monkeypatch.setattr(ivhs.jacobian, "quotient_context", lopsided)
    assert run_command(["jacobian", "--poly", "x^4+y^4+z^4", "--xi", "x^2*y^2"]) == (
        2, "error: the degree-5 piece has dimension 6, but the Hilbert series of a "
        "smooth curve's Jacobian ring gives 3\n"
    )
    monkeypatch.undo()
    monkeypatch.setattr(ivhs.jacobian, "_candidates", lambda ctx: iter(()))
    assert run_command(["jacobian", "--poly", "x^4+y^4+z^4", "--budget", "3"]) == (
        2, "error: the candidate list is empty\n"
    )


def test_unlucky_prime_coefficient_gives_the_fermat_dims():
    # 2^30 - 35 is the modulus of the rank mod p: the z-partial vanishes mod p,
    # so the smoothness check falls back to the exact rank.
    dims = json.loads(ok(["jacobian", "--poly", "x^4+y^4+1073741789*z^4", "--json"]))
    assert dims["payload"]["dims"] == {"sections": 3, "deformations": 6, "targets": 3}


# --- golden renderings ------------------------------------------------------

# The command of each JSON golden.
JSON_GOLDENS = {
    "mu_plane_quartic.json": ["mu", "plane", "--poly", "x^4+y^4+z^4", "--json"],
    "degenerate_quintic_node.json": ["degenerate", "--pa", "6", "--step", "node:smooth", "--json"],
    "class_trigonal_g5.json": ["class", "--genus", "5", "--class", "trigonal", "--json"],
}


@pytest.mark.parametrize("argv,golden", [(argv, name) for name, argv in JSON_GOLDENS.items()])
def test_json_output_matches_golden_bytes(argv, golden):
    out = ok(argv)
    assert out == (GOLDEN / golden).read_text()


def _parsers(parser):
    """`parser` and each of its subparsers, depth first."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_help_matches_golden_bytes(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    text = "".join(f"=== {p.prog} ===\n{p.format_help()}" for p in _parsers(_build_parser()))
    assert text == (GOLDEN / "help.txt").read_text()


def test_help_is_returned_not_written(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    _, *sections = re.split(r"^=== (.+) ===\n", (GOLDEN / "help.txt").read_text(), flags=re.M)
    golden = dict(zip(sections[::2], sections[1::2]))
    parsers = list(_parsers(_build_parser()))
    assert sorted(p.prog for p in parsers) == sorted(golden)
    for parser in parsers:
        words = parser.prog.split()[1:]
        assert run_command([*words, "--help"]) == (0, golden[parser.prog]), parser.prog
    assert capsys.readouterr() == ("", "")


def test_quartic_report_values():
    out = ok(["mu", "plane", "--poly", "x^4+y^4+z^4", "--json"])
    payload = json.loads(out)["payload"]
    assert payload["rank"] == 6
    assert payload["kernel_dim"] == 0
    assert payload["matrix"] == [
        [1 if i == j else 0 for j in range(6)] for i in range(6)
    ]


def test_degenerate_report_values():
    out = ok(["degenerate", "--pa", "6", "--step", "node:smooth", "--json"])
    payload = json.loads(out)["payload"]
    assert payload["rank_defect"] == 1
    assert payload["predicted_max_rank"] == 5


def test_json_round_trip_and_stability():
    out = ok(["mu", "ci", "--q", "x0*x1-x2*x3", "--c", "x0^3+x1^3+x2^3+x3^3",
              "--json"])
    report = Report(**json.loads(out))
    assert render_json(report) == out


def test_text_and_json_numeric_content_agree():
    base = ["jacobian", "--poly", "x^4+y^4+z^4", "--xi", "x^3*y", "--budget", "50"]
    text = ok(base)
    payload = json.loads(ok(base + ["--json"]))["payload"]
    assert f"xi_rank: {payload['xi']['rank']}" in text
    assert f"best_rank: {payload['search']['best_rank']}" in text
    dims = payload["dims"]
    assert (
        f"dims: sections {dims['sections']}, deformations "
        f"{dims['deformations']}, targets {dims['targets']}"
    ) in text


def test_step_parsing_with_parametric_kinds():
    out = ok(["degenerate", "--pa", "8", "--step", "ordinary:3:smooth", "--json"])
    payload = json.loads(out)["payload"]
    assert payload["steps"] == [{"initial": "ordinary:3", "target": "smooth"}]
    out = ok(["degenerate", "--pa", "8", "--step", "A:3:A:1", "--json"])
    payload = json.loads(out)["payload"]
    assert payload["rank_defect"] == 1


def test_step_validation_errors():
    code, out = run_command(["degenerate", "--pa", "6"])
    assert code == 2
    assert "--step" in out


@pytest.mark.parametrize(
    "text,message",
    [
        # Both kinds are in the catalog; the fault is the delta increase.
        ("node:tacnode", "step node -> tacnode increases delta (1 -> 2)"),
        ("ordinary:2:ordinary:3", "step ordinary:2 -> ordinary:3 increases delta (1 -> 3)"),
        ("A:1:A:3", "step A:1 -> A:3 increases delta (1 -> 2)"),
        ("node:bogus", "cannot read 'node:bogus' as initial:target with catalog kinds"),
        ("node", "cannot read 'node' as initial:target with catalog kinds"),
        ("A:1_0:smooth", "cannot read 'A:1_0:smooth' as initial:target with catalog kinds"),
        ("smooth:smooth",
         "step smooth -> smooth: 'smooth' is allowed only as a degeneration target"),
    ],
)
def test_step_errors_name_the_step_and_its_fault(text, message):
    argv = ["degenerate", "--pa", "9", "--step", text]
    assert run_command(argv) == (2, f"error: --step: {message}\n")


def test_declared_singularities_switch_plane_model_label():
    out = ok(["mu", "plane", "--poly", "x^4+y^4", "--sing", "node", "--json"])
    assert json.loads(out)["payload"]["model"] == "singular-plane(d=4)"


@pytest.mark.parametrize(
    "argv",
    [
        ["mu", "plane", "--poly", "x^4+y^4+z^4", "--sing", "smooth"],
        ["invariants", "--pa", "3", "--sing", "smooth,smooth"],
        ["invariants", "--pa", "3", "--sing", "node, smooth"],
    ],
)
def test_smooth_is_not_a_declared_singularity(argv):
    assert run_command(argv) == (
        2, "error: --sing: 'smooth' is allowed only as a degeneration target\n")


@pytest.mark.parametrize(
    "argv, kinds",
    [
        (["invariants", "--pa", "6", "--sing", "node, cusp", "--json"], ["node", "cusp"]),
        (["mu", "plane", "--poly", "x^4+y^4", "--sing", "node,A:02", "--json"],
         ["node", "A:2"]),
    ],
)
def test_each_declared_kind_is_resolved_once(monkeypatch, argv, kinds):
    expected = ok(argv)
    calls = []
    real = ivhs.invariants.singularity

    def counted(kind):
        calls.append(kind)
        return real(kind)

    monkeypatch.setattr(ivhs.invariants, "singularity", counted)
    assert ok(argv) == expected
    assert len(calls) == 2
    assert json.loads(expected)["provenance"]["singularities"] == kinds


@pytest.mark.parametrize(
    "kind, inputs",
    [
        ("invariants", {"pa": 3, "singularities": ["smooth"]}),
        ("plane_mu", {"poly": "x^4+y^4+z^4", "singularities": ["smooth"]}),
        ("plane_mu", {"poly": "x^4+y^4+z^4", "singularities": ["node", " smooth"]}),
    ],
)
def test_compute_rejects_smooth_as_a_declared_singularity(kind, inputs):
    # The fixture suite calls `compute` with no CLI parsing in front of it.
    with pytest.raises(ValueError, match="^--sing: 'smooth' is allowed only as a degeneration"):
        KINDS[kind].compute(inputs)


# --- one path from inputs to payload ----------------------------------------

SHARED_PATH_EXAMPLES = [
    *(argv for argv in KIND_EXAMPLES if argv[0] != "fixtures"),
    ["invariants", "--pa", "6", "--sing", "node, A:02", "--json"],
    ["degenerate", str(FIXTURES_DIR / "specs" / "quintic_node.json"), "--json"],
]


@pytest.mark.parametrize("argv", SHARED_PATH_EXAMPLES, ids=lambda argv: " ".join(argv[:2]))
def test_a_commands_provenance_computes_its_payload(argv):
    # What a fixture would pass: the echoed inputs, without `command`.
    printed = json.loads(ok(argv))
    inputs = {k: v for k, v in printed["provenance"].items() if k != "command"}
    assert KINDS[printed["kind"]].compute(inputs) == printed["payload"]


@pytest.mark.parametrize(
    "inputs, argv, message",
    [
        ({"pa": 6}, ["--pa", "6"], "--step: at least one step is required"),
        ({"pa": 6, "steps": []}, ["--pa", "6"], "--step: at least one step is required"),
        ({"specfile": "specs/quintic_node.json", "pa": 6},
         ["specs/quintic_node.json", "--pa", "6"],
         "specfile: cannot combine a spec file with --pa/--step"),
    ],
)
def test_a_fixture_is_held_to_the_commands_input_rules(tmp_path, monkeypatch, inputs, argv,
                                                        message):
    # A spec file the command and the fixture both name relative to the fixture directory.
    shutil.copytree(FIXTURES_DIR / "specs", tmp_path / "specs")
    monkeypatch.chdir(tmp_path)
    assert run_command(["degenerate", *argv]) == (2, f"error: {message}\n")
    fixture = {"kind": "degeneration", "inputs": inputs, "expected": {}}
    (tmp_path / "bad.json").write_text(json.dumps(fixture))
    assert run_fixture_suite(tmp_path).results == [("bad", False, [f"error: {message}"])]


# --- declared input types ----------------------------------------------------

# The JSON type of each input of each kind, written out here rather than read from
# `KINDS`: the fuzz below checks the declared table against it. A list is an array of
# its one item type.
INPUT_TYPES = {
    "plane_mu": {"poly": str, "singularities": [str]},
    "ci_mu": {"q": str, "c": str},
    "hyperelliptic_mu": {"genus": int},
    "jacobian_ivhs": {"poly": str, "xi": str, "budget": int},
    "class_report": {"genus": int, "class": str},
    "invariants": {"pa": int, "singularities": [str]},
    "degeneration": {"specfile": str, "pa": int, "steps": [str]},
    "genus": {"plane_degree": int, "ci_type": [int]},
    "yukawa": {"nodes": int},
}
# Inputs a command echoes as null when their flag is left out.
NULLABLE = {("jacobian_ivhs", "xi"), ("jacobian_ivhs", "budget")}
# Valid inputs of each kind, to which the fuzz puts one wrong value.
VALID_INPUTS = {
    "plane_mu": {"poly": "x^4+y^4+z^4", "singularities": ["node"]},
    "ci_mu": {"q": "x0*x1-x2*x3", "c": "x0^3+x1^3+x2^3+x3^3"},
    "hyperelliptic_mu": {"genus": 3},
    "jacobian_ivhs": {"poly": "x^4+y^4+z^4", "xi": "x^3*y", "budget": 5},
    "class_report": {"genus": 5, "class": "trigonal"},
    "invariants": {"pa": 6, "singularities": ["node"]},
    "degeneration": {"pa": 6, "steps": ["node:smooth"]},
    "genus": {"plane_degree": 4},
    "yukawa": {"nodes": 1},
}
# Text that a TypeError, KeyError or AttributeError of CPython would put in a message.
BARE_EXCEPTION = re.compile(r"TypeError|KeyError|AttributeError|not supported between|"
                            r"unsupported operand|has no attribute|object is not|positional "
                            r"argument|^error: '\w+'$")


def _label(kind, key):
    """How a message names an input: by its flag, or by its key when it has none."""
    flag = next(i.flag for i in KINDS[kind].inputs if i.key == key)
    return flag or repr(key)


def _wrong_values(rng):
    """One value of each JSON type (str, bool, float, list, object, null), drawn by `rng`;
    the array holds no string and no integer, so it is wrong for every declared array."""
    return [rng.choice(["", "7", "node", "x^4+y^4+z^4", "-1"]), rng.choice([True, False]),
            rng.choice([0.0, 1.5, -2.0, 1e300]), [rng.choice([1.5, None, {}, True, []])],
            {rng.choice(["a", "pa", "poly"]): rng.choice([1, "x"])}, None]


def _is_wrong(value, want, nullable):
    if value is None and nullable:
        return False
    if type(want) is list:
        return type(value) is not list or any(type(v) is not want[0] for v in value)
    return type(value) is not want


def test_the_declared_inputs_are_the_written_out_types():
    declared = {kind: {i.key: i.type for i in k.inputs} for kind, k in KINDS.items()}
    assert declared == INPUT_TYPES
    assert VALID_INPUTS.keys() == KINDS.keys()


@pytest.mark.parametrize("seed", range(3))
def test_a_wrong_json_type_at_any_input_is_named_by_its_flag(tmp_path, seed):
    rng = random.Random(seed)
    expected = {}
    for kind, types in INPUT_TYPES.items():
        for key, want in types.items():
            for n, value in enumerate(_wrong_values(rng)):
                if not _is_wrong(value, want, (kind, key) in NULLABLE):
                    continue
                name = f"{kind}-{key}-{n}"
                inputs = {**VALID_INPUTS[kind], key: value}
                fixture = {"name": name, "kind": kind, "inputs": inputs, "expected": {}}
                (tmp_path / f"{name}.json").write_text(json.dumps(fixture))
                expected[name] = _label(kind, key)
    assert len(expected) >= 5 * sum(map(len, INPUT_TYPES.values()))
    results = run_fixture_suite(tmp_path).results
    assert sorted(r.name for r in results) == sorted(expected)
    for name, ok, (message,) in results:
        assert not ok
        assert message.startswith(f"error: {expected[name]}"), (name, message)
        assert not BARE_EXCEPTION.search(message), (name, message)


@pytest.mark.parametrize("kind, inputs, message", [
    ("invariants", {"pa": True}, "--pa is a boolean, not an integer"),
    ("yukawa", {"nodes": 1.5}, "'nodes' is a number, not an integer"),
    ("degeneration", {"pa": "6", "steps": ["node:smooth"]}, "--pa is a string, not an integer"),
    ("jacobian_ivhs", {"poly": "x^4+y^4+z^4", "budget": "5"},
     "--budget is a string, not an integer"),
    ("invariants", {"pa": 6, "singularities": "node"}, "--sing is a string, not an array"),
    ("invariants", {"pa": 6, "singularities": ["node", 2]},
     "--sing[1] is an integer, not a string"),
    ("plane_mu", {}, "missing key --poly"),
    ("class_report", {"class": "trigonal"}, "missing key --genus"),
    ("ci_mu", {}, "missing key --q, --c"),
    ("yukawa", {}, "missing key 'nodes'"),
    ("genus", {}, "'ci_type': two degrees are required when 'plane_degree' is not given"),
    ("genus", {"ci_type": [2]},
     "'ci_type': two degrees are required when 'plane_degree' is not given"),
    # A rule of a fixture-only kind names its key, and an undeclared key is refused.
    ("yukawa", {"nodes": -1}, "'nodes': node count must be nonnegative"),
    ("genus", {"plane_degree": 0}, "'plane_degree': degree must be positive"),
    ("invariants", {"pa": 6, "sing": ["node"]}, "unknown key 'sing'"),
    ("plane_mu", {"poly": "x^4+y^4+z^4", "xi": "x^4", "model": 1}, "unknown key 'model', 'xi'"),
], ids=["bool_pa", "float_nodes", "string_pa", "string_budget", "string_sing", "int_sing",
        "no_poly", "no_genus", "no_q_c", "no_nodes", "no_degree", "one_degree",
        "negative_nodes", "zero_degree", "unknown_sing", "unknown_keys"])
def test_a_fixture_input_of_the_wrong_type_or_missing_is_refused(tmp_path, kind, inputs,
                                                                 message):
    # A payload came back for each of the first two before their types were checked.
    fixture = {"kind": kind, "inputs": inputs, "expected": {}}
    (tmp_path / "bad.json").write_text(json.dumps(fixture))
    assert run_fixture_suite(tmp_path).results == [("bad", False, [f"error: {message}"])]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        KINDS[kind].compute(inputs)


def test_compute_accepts_the_command_a_provenance_echoes_as_a_string():
    # `run_command` hands `compute` its provenance, `command` included. (A fixture file's
    # `name` and `note` pass the suite's shape check: every shipped fixture has a `name`.)
    inputs = {"pa": 6, "singularities": ["node"]}
    payload = KINDS["invariants"].compute(dict(inputs))
    assert KINDS["invariants"].compute({"command": "invariants", **inputs}) == payload
    with pytest.raises(ValueError, match="^'command' is an integer, not a string$"):
        KINDS["invariants"].compute({"command": 1, **inputs})


def test_a_spec_file_fixture_input_is_a_string_relative_to_the_fixture_directory(tmp_path):
    shutil.copytree(FIXTURES_DIR / "specs", tmp_path / "specs")
    fixture = {"kind": "degeneration", "inputs": {"specfile": "specs/missing.json"},
               "expected": {}}
    (tmp_path / "bad.json").write_text(json.dumps(fixture))
    assert run_fixture_suite(tmp_path).results == [
        ("bad", False, [f"error: {tmp_path / 'specs' / 'missing.json'}: file not found"])]


def test_a_poly_that_begins_with_a_minus_is_joined_to_its_flag():
    # Given as a separate word, `-x^4...` reads as an option (exit 64); joined with `=`,
    # it is the flag's value.
    assert run_command(["mu", "plane", "--poly", "-x^4+y^4+z^4"])[0] == 64
    joined = json.loads(ok(["mu", "plane", "--poly=-x^4+y^4+z^4", "--json"]))
    reordered = json.loads(ok(["mu", "plane", "--poly", "y^4+z^4-x^4", "--json"]))
    assert joined["payload"] == reordered["payload"]
    assert joined["provenance"]["poly"] == "-x^4+y^4+z^4"


# --- degeneration spec files -------------------------------------------------

def test_load_shipped_spec_files():
    spec = load_degeneration_spec(FIXTURES_DIR / "specs" / "quintic_node.json")
    assert spec.pa == 6
    assert len(spec.steps) == 1
    assert spec.steps[0].initial.kind == "node"
    assert spec.steps[0].target.kind == "smooth"

    spec = load_degeneration_spec(FIXTURES_DIR / "specs" / "tacnode_partial.json")
    assert spec.steps[0].initial.kind == "tacnode"
    assert spec.steps[0].target.kind == "node"


def test_degenerate_subcommand_reads_spec_file():
    path = FIXTURES_DIR / "specs" / "quintic_node.json"
    out = ok(["degenerate", str(path), "--json"])
    assert json.loads(out)["payload"]["predicted_max_rank"] == 5


def test_spec_file_errors_name_the_file(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(SpecFileError) as err:
        load_degeneration_spec(missing)
    assert "nope.json" in str(err.value)

    bad = tmp_path / "bad.json"
    bad.write_text('{"pa": 6}')
    with pytest.raises(SpecFileError) as err:
        load_degeneration_spec(bad)
    assert "steps" in str(err.value)

    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"pa": 6, "steps": [{"initial": "swallowtail", "target": "smooth"}]}')
    with pytest.raises(SpecFileError) as err:
        load_degeneration_spec(unknown)
    assert "swallowtail" in str(err.value)

    # A JSON bool is a Python int; it must not be read as p_a = 1.
    boolean = tmp_path / "bool.json"
    boolean.write_text('{"pa": true, "steps": [{"initial": "node", "target": "smooth"}]}')
    with pytest.raises(SpecFileError) as err:
        load_degeneration_spec(boolean)
    assert "field 'pa' must be a nonnegative integer" in str(err.value)

    digits = tmp_path / "digits.json"
    digits.write_text('{"pa": 30, "steps": [{"initial": "A:1_0", "target": "smooth"}]}')
    with pytest.raises(SpecFileError) as err:
        load_degeneration_spec(digits)
    assert str(err.value) == f"{digits}: steps[0]: malformed singularity kind 'A:1_0'"

    smooth = tmp_path / "smooth.json"
    smooth.write_text('{"pa": 3, "steps": [{"initial": "smooth", "target": "smooth"}]}')
    with pytest.raises(SpecFileError) as err:
        load_degeneration_spec(smooth)
    assert str(err.value) == (f"{smooth}: steps[0]: step smooth -> smooth: "
                              "'smooth' is allowed only as a degeneration target")

    increase = tmp_path / "increase.json"
    increase.write_text('{"pa": 6, "steps": [{"initial": "node", "target": "tacnode"}]}')
    with pytest.raises(SpecFileError):
        load_degeneration_spec(increase)

    with pytest.raises(SpecFileError) as err:
        load_degeneration_spec(tmp_path)
    assert str(err.value) == f"{tmp_path}: cannot read (Is a directory)"

    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{}")
    with pytest.raises(SpecFileError) as err:
        load_degeneration_spec(utf16)
    assert str(err.value).startswith(f"{utf16}: cannot read (")

    code, out = run_command(["degenerate", str(missing)])
    assert code == 2
    code, out = run_command(["degenerate", str(tmp_path)])
    assert (code, out.startswith(f"error: {tmp_path}: cannot read (")) == (2, True)


def test_parser_keeps_no_state_between_calls():
    ok(["degenerate", "--pa", "6", "--step", "node:smooth"])
    code, out = run_command(["degenerate", "--pa", "6"])
    assert (code, out) == (2, "error: --step: at least one step is required\n")


# --- fixture suite -----------------------------------------------------------

def test_fixture_suite_passes():
    suite = run_fixture_suite()
    assert suite.ok, [r.to_dict() for r in suite.results if not r.ok]
    assert suite.summary_dict()["failed"] == 0


def test_fixture_suite_cli_emits_json_objects():
    code, out = run_command(["fixtures", "--json"])
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    summary = lines[-1]
    assert summary["failed"] == 0
    assert all(entry["status"] == "pass" for entry in lines[:-1])
    assert len(lines) - 1 == summary["total"]


def test_perturbed_fixture_fails_suite(tmp_path):
    shutil.copytree(FIXTURES_DIR, tmp_path / "fixtures")
    target = tmp_path / "fixtures" / "plane_quartic_identity.json"
    data = json.loads(target.read_text())
    data["expected"]["rank"] = 7
    target.write_text(json.dumps(data))
    code, out = run_command(["fixtures", "--dir", str(tmp_path / "fixtures")])
    assert code != 0
    assert "FAIL plane_quartic_identity" in out
    assert "rank" in out
    suite = run_fixture_suite(tmp_path / "fixtures")
    assert not suite.ok
    failing = [r for r in suite.results if not r.ok]
    assert [r.name for r in failing] == ["plane_quartic_identity"]


def test_perturbed_nested_fixture_names_the_key_path(tmp_path):
    shutil.copy(FIXTURES_DIR / "jacobian_quartic_max.json", tmp_path)
    target = tmp_path / "jacobian_quartic_max.json"
    data = json.loads(target.read_text())
    data["expected"]["xi"]["rank"] = 2
    target.write_text(json.dumps(data))
    code, out = run_command(["fixtures", "--dir", str(tmp_path)])
    assert code == 1
    assert out.startswith("FAIL jacobian_quartic_max: xi.rank: expected 2, got 3")


def test_fixture_dir_without_fixtures_is_a_validation_error(tmp_path):
    regular = tmp_path / "plain.txt"
    regular.write_text("{}")
    # A missing path, a regular file, and a directory with no *.json file.
    for path in (tmp_path / "missing", regular, tmp_path):
        code, out = run_command(["fixtures", "--dir", str(path)])
        assert code == 2
        assert out.startswith(f"error: --dir: {path}: ")


def test_malformed_fixture_fails_alone(tmp_path):
    shutil.copy(FIXTURES_DIR / "jacobian_quartic_max.json", tmp_path)
    (tmp_path / "truncated.json").write_text('{"name": "x", ')
    code, out = run_command(["fixtures", "--dir", str(tmp_path)])
    assert code == 1
    assert out.splitlines() == [
        "PASS jacobian_quartic_max",
        "FAIL truncated: error: Expecting property name enclosed in double quotes: "
        "line 1 column 15 (char 14)",
        "passed 1/2",
    ]


@pytest.mark.parametrize("text, error", [
    ('{"inputs": {}, "expected": {}}', "missing key 'kind'"),
    ('{"kind": "genus", "expected": {}}', "missing key 'inputs'"),
    ('{"kind": "genus", "inputs": {"plane_degree": 4}}', "missing key 'expected'"),
    ('{"other": 1}', "missing key 'kind', 'inputs', 'expected'"),
    ('[1, 2]', "the top level is an array, not an object"),
    ('"genus"', "the top level is a string, not an object"),
    ('{"kind": "genus", "inputs": [4], "expected": {}}', "'inputs' is an array, not an object"),
    ('{"kind": "genus", "inputs": {}, "expected": null}', "'expected' is null, not an object"),
    ('{"kind": ["genus"], "inputs": {}, "expected": {}}', "'kind' is an array, not a string"),
], ids=["no_kind", "no_inputs", "no_expected", "other_json", "array", "string",
        "array_inputs", "null_expected", "array_kind"])
def test_a_fixture_of_the_wrong_shape_names_its_fault(tmp_path, text, error):
    shutil.copy(FIXTURES_DIR / "jacobian_quartic_max.json", tmp_path)
    (tmp_path / "wrong.json").write_text(text)
    code, out = run_command(["fixtures", "--dir", str(tmp_path)])
    assert code == 1
    assert out.splitlines() == ["PASS jacobian_quartic_max", f"FAIL wrong: error: {error}",
                                "passed 1/2"]
    # A fixture that names itself is reported by its name.
    (tmp_path / "wrong.json").write_text('{"name": "named", "kind": "genus"}')
    assert run_command(["fixtures", "--dir", str(tmp_path)])[1].splitlines()[1] == (
        "FAIL named: error: missing key 'inputs', 'expected'")


def test_every_export_resolves():
    assert [name for name in ivhs.__all__ if not hasattr(ivhs, name)] == []
