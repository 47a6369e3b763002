"""`run_command` parses an argv with the leaf parser its command words name,
and that gives what the whole parser tree gives.

The reference is the tree's own `_build_parser().parse_args(argv)`. Each
argv must give an equal namespace, or the same usage error, or the same
help text. The inputs are every command of seeds 0-3 of the benchmark's
workloads (`perfbench/workloads.py`, read and not written, as in
`test_pinned_outputs.py`) and argvs at argparse's edges: help, `--`,
abbreviated options, option-like values, unknown words and missing
values. Argparse's handling of these differs between Python versions,
which is why CI runs this on each of them.
"""

import argparse

import pytest

from ivhs import FIXTURES_DIR
from ivhs.cli import UsageError, _build_parser, _Help, _parse
from test_pinned_outputs import WORKLOADS

QUARTIC = ["--poly", "x^4+y^4+z^4"]
SPEC = str(FIXTURES_DIR / "specs" / "quintic_node.json")

EDGE_ARGVS = {
    "no_arguments": [],
    "help": ["-h"],
    "long_help_before_a_command": ["--help", "jacobian"],
    "help_before_mu": ["-h", "mu"],
    "mu_alone": ["mu"],
    "mu_help": ["mu", "-h"],
    "mu_help_before_a_model": ["mu", "-h", "plane"],
    "mu_unknown_model": ["mu", "bogus"],
    "leaf_help": ["mu", "plane", "-h"],
    "leaf_help_after_flags": ["mu", "plane", *QUARTIC, "--help"],
    "leaf_help_before_a_flag_without_value": ["class", "--help", "--genus"],
    "no_poly": ["mu", "plane"],
    "poly_without_value": ["mu", "plane", "--poly"],
    "unknown_command": ["nope"],
    "abbreviated_command": ["jac", *QUARTIC],
    "abbreviated_model": ["mu", "pl", *QUARTIC],
    "abbreviated_genus": ["class", "--gen", "5", "--class", "trigonal"],
    "abbreviated_class": ["class", "--genus", "5", "--cl", "trigonal"],
    "abbreviated_genus_alone": ["--gen", "5"],
    "abbreviated_class_alone": ["--cl", "trigonal"],
    "abbreviated_json": ["mu", "plane", *QUARTIC, "--js"],
    "ambiguous_prefix": ["mu", "plane", *QUARTIC, "--j"],
    "single_dash_long_option": ["class", "-genus", "5"],
    "xi_joined_negative": ["jacobian", *QUARTIC, "--xi=-x^4"],
    "xi_separate_negative": ["jacobian", *QUARTIC, "--xi", "-x^4"],
    "invalid_int": ["class", "--genus", "x", "--class", "trigonal"],
    "negative_budget": ["jacobian", *QUARTIC, "--budget", "-1"],
    "double_dash_first": ["--", "mu", "plane", *QUARTIC],
    "double_dash_after_mu": ["mu", "--", "plane", *QUARTIC],
    "double_dash_before_flags": ["mu", "plane", "--", *QUARTIC],
    "double_dash_after_flags": ["mu", "plane", *QUARTIC, "--"],
    "double_dash_before_spec_file": ["degenerate", "--json", "--", SPEC],
    "double_dash_after_spec_file": ["degenerate", SPEC, "--"],
    "stray_positional": ["mu", "plane", *QUARTIC, "stray"],
    "stray_positional_between_flags": ["class", "--genus", "5", "stray", "--class", "trigonal"],
    "two_spec_files": ["degenerate", SPEC, SPEC],
    "repeated_json": ["class", "--genus", "5", "--class", "trigonal", "--json", "--json"],
    "repeated_poly": ["mu", "plane", *QUARTIC, "--poly", "x^5+y^5+z^5"],
    "empty_sing_joined": ["mu", "plane", *QUARTIC, "--sing="],
    "empty_sing_separate": ["mu", "plane", *QUARTIC, "--sing", ""],
    "unknown_flag": ["invariants", "--pa", "6", "-x"],
    "fixtures_extra_word": ["fixtures", "extra"],
    "fixtures_dir_without_value": ["fixtures", "--dir"],
    "ci_without_c": ["mu", "ci", "--q", "x0*x1-x2*x3"],
    "joined_genus": ["mu", "hyperelliptic", "--genus=3"],
    "dash_as_a_word": ["mu", "plane", "-", *QUARTIC],
}


def _outcome(parse, argv):
    """What `parse` makes of argv: its namespace, its usage error or its help text."""
    try:
        return vars(parse(list(argv)))
    except UsageError as e:
        return "usage error", str(e)
    except _Help as e:
        return "help", str(e)


def _tree_outcomes(argvs):
    parser = _build_parser()
    return [_outcome(parser.parse_args, argv) for argv in argvs]


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_each_benchmark_command_is_parsed_by_its_leaf_alone(workload, monkeypatch):
    argvs = [argv for seed in range(4) for argv in WORKLOADS.commands(workload, seed)]
    expected = _tree_outcomes(argvs)

    def whole_tree(*args, **kwargs):
        raise AssertionError("a command was parsed by the whole tree")

    for name in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(_build_parser(), name, whole_tree)
    assert [_outcome(_parse, argv) for argv in argvs] == expected
    assert all(isinstance(outcome, dict) and "command" in outcome for outcome in expected)


@pytest.mark.parametrize("argv", EDGE_ARGVS.values(), ids=EDGE_ARGVS.keys())
def test_an_edge_argv_gives_what_the_tree_gives(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _outcome(_parse, argv) == _tree_outcomes([argv])[0]


def test_the_leaves_are_the_trees_own_parsers():
    parser = _build_parser()
    tree = {}

    def walk(node, words):
        subparsers = [a for a in node._actions if isinstance(a, argparse._SubParsersAction)]
        if not subparsers:
            tree[words] = node
        for action in subparsers:
            for word, sub in action.choices.items():
                walk(sub, (*words, word))

    walk(parser, ())
    assert parser.leaves.keys() == tree.keys()
    assert all(parser.leaves[words] is leaf for words, leaf in tree.items())
