"""Command-line front end.

One subcommand per computation family: `mu plane`, `mu ci`,
`mu hyperelliptic`, `jacobian`, `class`, `invariants`, `degenerate`,
`fixtures`. Output is a deterministic text report, or canonical JSON
with --json. Exit codes: 0 success, 2 input validation, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import TYPE_CHECKING

from .report import KINDS, Report, _flag, _module, render_json, render_text

if TYPE_CHECKING:
    from .invariants import SingularityRecord

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); route to exit 64
        raise UsageError(message)


@cache
def _build_parser() -> _Parser:
    """The parser, built on first use; parsing leaves it unchanged."""
    parser = _Parser(prog="ivhs", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", metavar="command")

    mu = sub.add_parser("mu", help="canonical multiplication matrices")
    mu_sub = mu.add_subparsers(dest="model", metavar="model")

    plane = mu_sub.add_parser("plane", help="plane curve of degree >= 4")
    plane.add_argument("--poly", required=True, help="curve equation in x, y, z")
    plane.add_argument("--sing", default=None, help="declared singularities kind[,kind...]")
    plane.set_defaults(kind="plane_mu", inputs=lambda a: {
        "poly": a.poly, "singularities": [s.kind for s in a.sing]})

    ci = mu_sub.add_parser("ci", help="complete intersection in x0..x3")
    ci.add_argument("--q", required=True, help="first equation")
    ci.add_argument("--c", required=True, help="second equation")
    ci.set_defaults(kind="ci_mu", inputs=lambda a: {"q": a.q, "c": a.c})

    hyp = mu_sub.add_parser("hyperelliptic", help="hyperelliptic curve by genus")
    hyp.add_argument("--genus", type=int, required=True)
    hyp.set_defaults(kind="hyperelliptic_mu", inputs=lambda a: {"genus": a.genus})

    jac = sub.add_parser("jacobian", help="Jacobian-ring cup-product matrices")
    jac.add_argument("--poly", required=True, help="smooth plane curve in x, y, z")
    jac.add_argument("--xi", default=None, help="deformation class of degree d")
    jac.add_argument("--budget", type=int, default=None, help="max-rank search budget")
    jac.set_defaults(kind="jacobian_ivhs", inputs=lambda a: {
        "poly": a.poly, "xi": a.xi, "budget": a.budget})

    cls = sub.add_parser("class", help="multiplication counts for a curve class")
    cls.add_argument("--genus", type=int, required=True)
    cls.add_argument("--class", dest="petri_class", required=True,
                     help=f"one of: {', '.join(_module('invariants').PETRI_CLASSES)}")
    cls.set_defaults(kind="class_report", inputs=lambda a: {
        "genus": a.genus, "class": a.petri_class})

    inv = sub.add_parser("invariants", help="genus/delta bookkeeping")
    inv.add_argument("--pa", type=int, required=True, help="arithmetic genus")
    inv.add_argument("--sing", default=None, help="singularities kind[,kind...]")
    inv.set_defaults(kind="invariants", inputs=lambda a: {
        "pa": a.pa, "singularities": [s.kind for s in a.sing]})

    deg = sub.add_parser("degenerate", help="rank defect of a degeneration")
    deg.add_argument("specfile", nargs="?", default=None,
                     help="JSON document {pa, steps:[{initial, target}]}")
    deg.add_argument("--pa", type=int, default=None, help="arithmetic genus")
    deg.add_argument("--step", action="append", default=[],
                     help="initial:target (repeatable)")
    deg.set_defaults(kind="degeneration", inputs=_degeneration_inputs)

    fix = sub.add_parser("fixtures", help="run the golden-fixture suite")
    fix.add_argument("--dir", default=None, help="override the fixture directory")

    for subparser in (plane, ci, hyp, jac, cls, inv, deg, fix):
        subparser.add_argument("--json", action="store_true")
    return parser


def _parse_sings(text: str | None) -> list[SingularityRecord]:
    """The catalog records of a --sing list, each kind resolved once."""
    if not text:
        return []
    singularity = _module("invariants").singularity
    return [_flag("sing", singularity, part) for part in text.split(",")]


def _degeneration_inputs(args) -> dict:
    if args.specfile is not None:
        if args.pa is not None or args.step:
            raise ValueError("specfile: cannot combine a spec file with --pa/--step")
        return {"specfile": args.specfile}
    if args.pa is None:
        raise ValueError("--pa: required when no spec file is given")
    if not args.step:
        raise ValueError("--step: at least one step is required")
    return {"pa": args.pa, "steps": args.step}


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
    """Dispatch one CLI invocation; returns (exit code, rendered output)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "fixtures":
            return _run_fixtures(args)
        if "kind" not in args:
            raise UsageError("a subcommand is required (see --help)")
        command = " ".join(filter(None, (args.command, getattr(args, "model", None))))
        resolved = {}
        if "sing" in args:  # `compute` takes the records; the provenance echoes their kinds
            resolved["sings"] = args.sing = _parse_sings(args.sing)
        provenance = {"command": command, **args.inputs(args)}
        report = Report(args.kind, provenance, KINDS[args.kind].compute(provenance, **resolved))
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
