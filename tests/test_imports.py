"""Imports: every imported name is used, no module imports a banned module, each
command loads only its kind's modules, and the package resolves its exports lazily.

The first two checks are stdlib `ast` walks over `src/ivhs/*.py`; the
unused-name walk leaves `__init__.py` out, since its names are the
package's exports. The others run a fresh interpreter, since a module
this process loaded stays loaded.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ivhs

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ivhs"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SUBMODULES = sorted(p.stem for p in MODULES)
BANNED = ("dataclasses", "inspect")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_banned_module(path):
    """`dataclasses` and `inspect` stay out of the package, for the cold start.

    The CLI runs one command per process, so import time is paid by every
    command. `import dataclasses` pulls in `inspect`, `ast`, `dis` and
    `tokenize`, 9-12 ms of a fresh interpreter, and each frozen dataclass
    takes about 1 ms to build, against 0.15 ms for a `typing.NamedTuple`
    and 0.01 ms for a plain class. Records are NamedTuples, and types that
    validate are plain classes.
    """
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module.split(".")[0])
    assert sorted(imported & set(BANNED)) == []


def fresh(code: str, *args: str) -> object:
    """The JSON that `code` prints in a fresh interpreter importing `ivhs` from src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(proc.stdout)


# --- module footprint of each command -----------------------------------------

LOADED = """
import json, sys
import ivhs.cli
code = ivhs.cli.run_command(sys.argv[2:])[0] if len(sys.argv) > 2 else 0
print(json.dumps([code, sorted(m[5:] for m in sys.modules if m.startswith("ivhs.")),
                  sorted(m for m in sys.argv[1].split(",") if m in sys.modules)]))
"""
ALGEBRA = {"linalg", "poly", "quotient", "jacobian", "mult"}
ELSEWHERE = {"degeneration", "specfile", "fixtures"}
SPEC = str(PACKAGE / "fixtures" / "specs" / "tacnode_partial.json")
FOOTPRINTS = [
    pytest.param([], ALGEBRA | ELSEWHERE, id="import"),
    pytest.param(["jacobian", "--poly", "x^4+y^4+z^4", "--xi", "x^3*y", "--json"],
                 {"mult"} | ELSEWHERE, id="jacobian"),
    pytest.param(["jacobian", "--poly", "x^4+y^4+z^4", "--budget", "20"],
                 {"mult"} | ELSEWHERE, id="jacobian budget"),
    pytest.param(["mu", "plane", "--poly", "x^4+y^4+z^4", "--sing", "node"],
                 {"jacobian"} | ELSEWHERE, id="mu plane"),
    pytest.param(["mu", "ci", "--q", "x0*x1-x2*x3", "--c", "x0^3+x1^3+x2^3+x3^3"],
                 {"jacobian"} | ELSEWHERE, id="mu ci"),
    pytest.param(["mu", "hyperelliptic", "--genus", "3", "--json"],
                 {"jacobian"} | ELSEWHERE, id="mu hyperelliptic"),
    pytest.param(["class", "--genus", "5", "--class", "trigonal"], ALGEBRA, id="class"),
    pytest.param(["invariants", "--pa", "6", "--sing", "node,cusp", "--json"], ALGEBRA,
                 id="invariants"),
    pytest.param(["degenerate", "--pa", "6", "--step", "node:smooth"], ALGEBRA,
                 id="degenerate steps"),
    pytest.param(["degenerate", SPEC], ALGEBRA, id="degenerate specfile"),
    pytest.param(["fixtures"], set(), id="fixtures"),
]


@pytest.mark.parametrize("argv,unused", FOOTPRINTS)
def test_a_command_loads_only_the_modules_of_its_kind(argv, unused):
    code, loaded, banned = fresh(LOADED, ",".join(BANNED), *argv)
    assert code == 0
    assert sorted(unused & set(loaded)) == []
    assert banned == []


# --- the lazy package surface -------------------------------------------------

def test_star_import_binds_every_export_in_a_fresh_interpreter():
    code = ("import json, ivhs\nnames = {}\nexec('from ivhs import *', names)\n"
            "print(json.dumps(sorted(set(ivhs.__all__) - set(names))))")
    assert fresh(code) == []


def test_every_submodule_resolves_by_attribute_in_a_fresh_interpreter():
    code = ("import json, sys, ivhs\n"
            "print(json.dumps([getattr(ivhs, m).__name__ for m in sys.argv[1:]]))")
    assert fresh(code, *SUBMODULES) == [f"ivhs.{m}" for m in SUBMODULES]


def test_dir_lists_every_export_and_the_lazy_table_names_no_other():
    assert set(ivhs.__all__) <= set(dir(ivhs))
    assert sorted(ivhs._HOME) == sorted(ivhs.__all__)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        ivhs.no_such_name


@pytest.mark.parametrize("name", ivhs.__all__)
def test_each_export_is_the_object_of_its_defining_module(name):
    home = importlib.import_module(f"ivhs.{ivhs._HOME[name]}")
    value = getattr(ivhs, name)
    assert value is getattr(home, name)
    if hasattr(value, "__qualname__"):  # a class or function, not a constant
        assert value.__module__ == home.__name__


def test_invariant_error_keeps_its_jacobian_name():
    assert ivhs.jacobian.InvariantError is ivhs.InvariantError
