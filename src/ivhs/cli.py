"""Command-line front end.

One subcommand per computation family: `mu plane`, `mu ci`,
`mu hyperelliptic`, `jacobian`, `class`, `invariants`, `degenerate`,
`fixtures`. Output is a deterministic text report, or canonical JSON
with --json. Exit codes: 0 success, 2 input validation, 64 usage.

Routing: an argv whose first words name a leaf subcommand (`mu plane`,
`jacobian`, ...) is parsed once, by that leaf's parser, which is the
same object as in the whole tree, so help, errors, abbreviations and
`--` behave as argparse gives them there. Any other argv goes to the
top-level parser; for such an argv it, and the `mu` parser under it,
can only give help or a usage error. `run_command` returns help and
errors with their exit code and writes nothing.

Inputs: each leaf's flags are built from the declared inputs of its
report kind (`report.KINDS`), and the provenance is the declared keys
the parsed namespace holds. `compute` checks them against the same table
as a fixture's inputs, then applies the kind's rules; the CLI owns none.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .report import KINDS, _NULL, Input, Report, _flag, _module, render_json, render_text

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Help(Exception):
    """-h/--help was given; the exception carries the parser's help text."""


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's help layout, with the help column placed as CPython 3.10-3.12 place it.

    CPython 3.13 adds each subcommand's own indent to the width that sets
    the column, which widens the subcommand lists; here the widest
    invocation of an action and its subcommands plus the action's indent
    sets it, so the help is the same text on every supported version.
    """

    def add_argument(self, action):
        if action.help is not argparse.SUPPRESS:
            actions = [action, *self._iter_indented_subactions(action)]
            width = max(len(self._format_action_invocation(a)) for a in actions)
            self._action_max_length = max(self._action_max_length, width + self._current_indent)
            self._add_item(self._format_action, [action])


class _Parser(argparse.ArgumentParser):
    leaves: dict[tuple[str, ...], _Parser]  # the root's leaf parsers (see _build_parser)

    def __init__(self, *args, formatter_class=_HelpFormatter, **kwargs):
        super().__init__(*args, formatter_class=formatter_class, **kwargs)

    def error(self, message):  # argparse would sys.exit(2); route to exit 64
        raise UsageError(message)

    def print_help(self, file=None):  # argparse would write stdout and exit 0
        raise _Help(self.format_help())


# Each leaf subcommand, in help order: its words, its help line and its report kind, whose
# declared inputs are its flags. `fixtures` runs the fixture suite and has no kind.
_LEAVES = {
    ("mu", "plane"): ("plane curve of degree >= 4", "plane_mu"),
    ("mu", "ci"): ("complete intersection in x0..x3", "ci_mu"),
    ("mu", "hyperelliptic"): ("hyperelliptic curve by genus", "hyperelliptic_mu"),
    ("jacobian",): ("Jacobian-ring cup-product matrices", "jacobian_ivhs"),
    ("class",): ("multiplication counts for a curve class", "class_report"),
    ("invariants",): ("genus/delta bookkeeping", "invariants"),
    ("degenerate",): ("rank defect of a degeneration", "degeneration"),
    ("fixtures",): ("run the golden-fixture suite", None),
}
_FIXTURE_FLAGS = (Input("dir", str, "--dir", "override the fixture directory", _NULL),)


@cache
def _build_parser() -> _Parser:
    """The parser, built on first use; parsing leaves it unchanged.

    `parser.leaves` maps the command words of each leaf subcommand, such
    as ("mu", "plane") or ("jacobian",), to that subcommand's parser.
    """
    # The help describes the commands: the docstring's paragraphs up to the routing notes.
    description = __doc__ and "\n\n".join(__doc__.split("\n\n")[:2])
    parser = _Parser(prog="ivhs", description=description, add_help=True)
    sub = parser.add_subparsers(dest="command", metavar="command")
    mu = sub.add_parser("mu", help="canonical multiplication matrices")
    groups = {(): sub, ("mu",): mu.add_subparsers(dest="model", metavar="model")}
    parser.leaves = {}
    for words, (help_line, kind) in _LEAVES.items():
        leaf = parser.leaves[words] = groups[words[:-1]].add_parser(words[-1], help=help_line)
        for arg in KINDS[kind].inputs if kind else _FIXTURE_FLAGS:
            names = {"dest": arg.key, "metavar": arg.flag[2:].upper()} if arg.flag[0] == "-" else {}
            leaf.add_argument(arg.flag, help=arg.help, **{"type": int if arg.type is int else None,
                              "default": argparse.SUPPRESS, **names, **arg.options})
        leaf.add_argument("--json", action="store_true")
        leaf.set_defaults(kind=kind)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace of `_build_parser().parse_args(argv)`, parsed by one leaf.

    When the first two words, or else the first word, name a leaf, only
    that leaf's parser reads the rest; `command` and `model` are the
    words. Any other argv goes to the whole tree, which for such an argv
    can only give help, a usage error or a namespace without a `kind`.
    """
    parser = _build_parser()
    words = tuple(argv[:2])
    if words not in parser.leaves:
        words = words[:1]
        if words not in parser.leaves:
            return parser.parse_args(argv)
    args = parser.leaves[words].parse_args(argv[len(words):])
    for dest, word in zip(("command", "model"), words):
        setattr(args, dest, word)
    return args


def _run_fixtures(args) -> tuple[int, str]:
    suite = _flag("dir", _module("fixtures").run_fixture_suite, args.dir)
    if args.json:
        lines = [json.dumps(r.to_dict(), sort_keys=True) for r in suite.results]
        lines.append(json.dumps(suite.summary_dict(), sort_keys=True))
    else:
        lines = [f"PASS {r.name}" if r.ok else f"FAIL {r.name}: {'; '.join(r.mismatches)}"
                 for r in suite.results]
        lines.append(f"passed {suite.passed}/{len(suite.results)}")
    return (EXIT_OK if suite.ok else 1), "\n".join(lines) + "\n"


def run_command(argv: list[str]) -> tuple[int, str]:
    """Dispatch one CLI invocation; returns (exit code, rendered output).

    It writes nothing and does not exit: -h/--help returns
    (0, the help text), a usage error (64, its message) and an invalid
    input (2, its message). The leaf parser of the command words parses
    the argv (`_parse`); the top-level and `mu` parsers serve only help
    and usage errors.
    """
    try:
        args = _parse(argv)
        if args.command == "fixtures":
            return _run_fixtures(args)
        if "kind" not in args:
            raise UsageError("a subcommand is required (see --help)")
        command = " ".join(filter(None, (args.command, getattr(args, "model", None))))
        kind = KINDS[args.kind]
        provenance = {"command": command,
                      **{i.key: getattr(args, i.key) for i in kind.inputs if i.key in args}}
        report = Report(args.kind, provenance, kind.compute(provenance))
    except _Help as e:
        return EXIT_OK, str(e)
    except UsageError as e:
        return EXIT_USAGE, f"usage error: {e}\n"
    except ValueError as e:
        return EXIT_VALIDATION, f"error: {e}\n"
    rendered = render_json(report) if args.json else render_text(report)
    return EXIT_OK, rendered


def main() -> None:
    code, output = run_command(sys.argv[1:])
    stream = sys.stdout if code == EXIT_OK else sys.stderr
    stream.write(output)
    sys.exit(code)


if __name__ == "__main__":
    main()
