"""Every function and method of the package is reached by some command.

The commands below (one per report kind, the fixture suite in text and
JSON, a degeneration spec file, the README's examples and two input
errors) run under
`sys.setprofile`, which records the code object of every Python call.
Functions are matched by code object, never by name or line number: a
decorated function reports the decorator's line, and Python 3.10 code
objects carry no qualified name. Properties, class- and static methods,
cached properties and `functools.cache` wrappers are unwrapped to the
function they hold, and the caches are cleared first, so a result cached
by an earlier test cannot hide a call.
"""

import functools
import importlib
import json
import sys
from pathlib import Path

import ivhs
from ivhs.cli import run_command

PACKAGE = Path(ivhs.__file__).resolve().parent

# What no command reaches, each with the reason it stays.
ALLOWED = {
    "linalg.ExactMatrix.from_rows": "the benchmark's tracer wraps it by name",
    "linalg.ExactMatrix.rref": "the benchmark's tracer wraps it by name",
    "linalg.ExactMatrix.kernel_basis": "the benchmark's tracer wraps it by name",
    "quotient.GradedQuotientContext.monomials": "the benchmark's tracer reads it",
    "linalg.ExactMatrix.__eq__": "a library caller compares matrices by value",
    "poly.Polynomial.__eq__": "a library caller compares polynomials by value",
    "report.SparseRow.__iter__": "a library caller reads a payload row as its dense list",
    "report.SparseRow.__repr__": "a library caller prints a payload row as its dense list",
    "cli.main": "the console entry point; the commands here run through run_command",
    "__init__.__getattr__": "the package's lazy exports; the commands import submodules",
    "__init__.__dir__": "the package's lazy exports; the commands import submodules",
    "poly.VariableSet.__init__": "builds PLANE_VARS and SPACE_VARS when ivhs.poly is imported",
}

README_EXAMPLES = [
    ["mu", "plane", "--poly", "x^4+y^4+z^4"],
    ["mu", "ci", "--q", "x0*x1-x2*x3", "--c", "x0^3+x1^3+x2^3+x3^3"],
    ["mu", "hyperelliptic", "--genus", "3"],
    ["jacobian", "--poly", "x^4+y^4+z^4", "--xi", "x^3*y", "--budget", "50"],
    ["class", "--genus", "5", "--class", "trigonal"],
    ["invariants", "--pa", "6", "--sing", "node"],
    ["degenerate", "--pa", "6", "--step", "node:smooth"],
    ["fixtures"],
]

# One argv per report kind, in JSON; the sextic's matrix has "p/q" entries.
KIND_EXAMPLES = [
    ["mu", "plane", "--poly", "x^6+y^6+z^6+3/7*x*y^5", "--sing", "node", "--json"],
    ["mu", "ci", "--q", "x0^3+x1^3+x2^3+x3^3", "--c", "x0^4+2*x1^4+3*x2^4+5*x3^4", "--json"],
    ["mu", "hyperelliptic", "--genus", "4", "--json"],
    ["jacobian", "--poly", "x^5+y^5+z^5+x*y^4", "--xi=x^3*y*z-2/3*x*y^2*z^2", "--budget", "5",
     "--json"],
    ["class", "--genus", "6", "--class", "plane_quintic", "--json"],
    ["invariants", "--pa", "10", "--sing", "cusp,tacnode,A:4", "--json"],
    ["degenerate", "--pa", "8", "--step", "ordinary:3:node", "--step", "cusp:smooth", "--json"],
    ["fixtures", "--json"],
]


# A usage error (a required flag left out) and a syntax error, with their exit codes.
ERROR_EXAMPLES = [
    (["jacobian", "--xi", "x^4"], 64),
    (["mu", "plane", "--poly", "x^4+*y"], 2),
]


def _definitions():
    """name -> code object of each function and method defined in the package's files.

    Clears every `functools` cache on the way, so the next call of a cached
    function runs its body.
    """
    found = {}

    def add(name, obj):
        if isinstance(obj, property):
            parts = (obj.fget, obj.fset, obj.fdel)
        elif isinstance(obj, (classmethod, staticmethod)):
            parts = (obj.__func__,)
        elif isinstance(obj, functools.cached_property):
            parts = (obj.func,)
        else:
            parts = (obj,)
        for part in parts:
            while hasattr(part, "__wrapped__"):
                if hasattr(part, "cache_clear"):
                    part.cache_clear()
                part = part.__wrapped__
            code = getattr(part, "__code__", None)
            if code is not None and Path(code.co_filename).resolve().parent == PACKAGE:
                found.setdefault(name, code)

    for module_name in ("__init__", *ivhs._SUBMODULES):
        module = ivhs if module_name == "__init__" else importlib.import_module(
            f"ivhs.{module_name}")
        for attr, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for method, member in vars(obj).items():
                    add(f"{module_name}.{attr}.{method}", member)
            elif getattr(obj, "__module__", None) == module.__name__:
                add(f"{module_name}.{attr}", obj)
    return found


def test_every_function_is_reached_by_a_command(tmp_path):
    spec = tmp_path / "family.json"
    spec.write_text(json.dumps({"pa": 6, "steps": [{"initial": "node", "target": "smooth"}]}))
    argvs = [*README_EXAMPLES, *KIND_EXAMPLES, ["degenerate", str(spec)],
             *(argv for argv, _ in ERROR_EXAMPLES)]
    expected = [0] * (len(argvs) - len(ERROR_EXAMPLES)) + [code for _, code in ERROR_EXAMPLES]
    definitions = _definitions()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [run_command(argv)[0] for argv in argvs]
    finally:
        sys.setprofile(None)
    assert codes == expected
    unreached = {name for name, code in definitions.items() if code not in called}
    assert unreached - set(ALLOWED) == set()
    # An entry stays only while it is needed.
    assert set(ALLOWED) - unreached == set()
