"""Every function and method of the package is reached by some command.

The commands below (one per report kind, the fixture suite in text and
JSON, a degeneration spec file, the README's examples, two input
errors and a help request) run under
`sys.setprofile`, which records the code object of every Python call.
Functions are matched by code object, never by name or line number: a
decorated function reports the decorator's line, and Python 3.10 code
objects carry no qualified name. Properties, class- and static methods,
cached properties and `functools.cache` wrappers are unwrapped to the
function they hold, and the caches are cleared first, so a result cached
by an earlier test cannot hide a call.

`ExactMatrix` is in the allow-list only for the names the benchmark's
tracer wraps; a second test keeps those entries in step with the tracer.
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
    "linalg.ExactMatrix.__init__": "builds from_rows's matrices, which the benchmark's tracer ranks",
    "linalg.ExactMatrix.rank": "the benchmark's tracer wraps it by name",
    "linalg._normal_row": "ExactMatrix.__init__'s row check",
    "linalg.ExactMatrix.from_rows": "the benchmark's tracer wraps it by name",
    "linalg.ExactMatrix.rref": "the benchmark's tracer wraps it by name",
    "linalg.ExactMatrix.kernel_basis": "the benchmark's tracer wraps it by name",
    "poly.Polynomial.__eq__": "records that hold a Polynomial (IVHSReport.xi, "
                              "GradedQuotientContext.generators) compare by value",
    "report.SparseRow.__repr__": "fixture mismatch messages and pytest print payload rows",
    "cli.main": "the console entry point; test_cli.py runs it in a subprocess, unprofiled here",
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


# A usage error (a required flag left out), a syntax error and a help request, with their
# exit codes.
CODED_EXAMPLES = [
    (["jacobian", "--xi", "x^4"], 64),
    (["mu", "plane", "--poly", "x^4+*y"], 2),
    (["mu", "plane", "--help"], 0),
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
             *(argv for argv, _ in CODED_EXAMPLES)]
    expected = [0] * (len(argvs) - len(CODED_EXAMPLES)) + [code for _, code in CODED_EXAMPLES]
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


def test_exact_matrix_keeps_only_the_names_the_tracer_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import spans

    wrapped = {f"linalg.ExactMatrix.{name}"
               for _, cls, names in spans.METHODS if cls == "ExactMatrix" for name in names}
    allowed = {name for name in ALLOWED if name.startswith("linalg.ExactMatrix.")}
    assert allowed == wrapped | {"linalg.ExactMatrix.__init__"}, (
        "the tracer's ExactMatrix names changed: once it wraps none, delete the class, "
        "linalg._normal_row, their block in tests/test_linalg.py and their entries here "
        "(ROADMAP item 25)")
