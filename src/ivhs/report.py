"""Report kinds, their payloads, and deterministic text/JSON rendering.

Every result the CLI prints is a Report: a kind tag, its inputs echoed
as `provenance` (plus the subcommand as `command`), and a JSON-ready
payload with a fixed field set per kind. `KINDS` defines each kind once,
as `compute(inputs) -> payload`, `text(payload) -> lines` (the same
numeric content) and the `Input`s the CLI builds its flags from. The CLI
and the fixture suite both call `compute`, so a fixture checks the
payload the CLI prints, and its inputs pass a command's checks: the one
typed check (`_check_shape`, naming the flag; a key no input declares is
refused), then the kind's rules: each declared singularity is resolved
once (`smooth` refused) and its catalog spelling written back, which the
provenance echoes, and a degeneration takes a spec file or else `pa` and
at least one step. Each `compute` builds its payload from its model's
record in one step; only `mu_report` is a function of its own, shared by
the three mu kinds, and `matrix_payload` is the one formatter of a
record's exact rows. JSON output is canonical (sorted keys, no
timestamps), so renderings compare byte for byte.

Each `compute` imports the computation modules it uses when it is
first called (`_module`); at import time this module loads only
`invariants`, the closed-form arithmetic, which also holds
`InvariantError`. The CLI runs one command per process, so importing
every module for every command would cost a fresh interpreter more than
most commands do: a `class` command never loads `linalg` or
`fractions`, and `jacobian` never loads `mult`. `_module` is a cached
lookup, not an `import` statement in the function body: on CPython 3.11
such a statement runs the import machinery on every call, 12-18 us with
cold caches on a 2-core host, about 5% of a `class` command.

For the same reason no module of the package defines a `@dataclass`:
importing its module, with the `inspect`, `ast`, `dis` and `tokenize`
it pulls in, costs 9-12 ms of a fresh interpreter, and a frozen
dataclass takes about 1 ms to build (exec'd methods), against 0.15 ms
for a `typing.NamedTuple` and 0.01 ms for a plain class (CPython 3.11,
one CPU, no bytecode cache). `Report`, `Kind` and the other records are
NamedTuples: they unpack, compare equal to the tuple of their fields,
and `_asdict()` gives their fields in order, which is the key order of
the `class` and `invariants` payloads.

Matrix rows and kernel vectors, nearly all of the output and mostly
zeros, are `SparseRow`s in the payload: a length and the nonzero
(position, value) pairs, each value an int or the "p/q" text of
`number`. The rows of a mu record and of an IVHS record are
`SparseRow`s already, with exact values. A row compares equal to a
list as its dense form, so a payload still compares `==` to its decoded
JSON.

Rendering contract: `render_json` is byte-identical to
`json.dumps(report._asdict(), sort_keys=True, indent=2)` of the report
with sparse rows densified, plus a newline, and dictionary keys must be
`str` (any other key raises TypeError). The stdlib uses its C encoder
only when `indent` is None, so with `indent=2` every integer of a kernel
basis or matrix would pass through pure-Python generators. `_emit`
writes the nesting itself, appending every piece to one list that is
joined once: a mu report is megabytes of text, and a copy per nesting
level would cost a pass over it per level, at a price that depends on
where the allocator finds room for each copy. One loop writes a list of
sparse rows (a bare row is a run of one): it looks up the cached text of
an all-zeros list of a row's length at its indentation once per run of
one length, and splices each nonzero in over its one-character "0", at a
fixed stride: an int as `str(x)` (how the encoder writes it), any other
entry as its JSON. A list of plain scalars (ints, strings, bools, None)
goes to one C-encoder call whose item separator carries the newline and
the indentation. Any other scalar is written as the encoder writes it: a
str by `encode_basestring_ascii`, an int by `str`, and only a bool or
None through `json.dumps`.
"""

from __future__ import annotations

import json
from functools import cache, lru_cache
from importlib import import_module
from json.encoder import encode_basestring_ascii
from types import ModuleType
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple, Sequence

from . import invariants

if TYPE_CHECKING:
    from .invariants import SingularityRecord
    from .linalg import Entry
    from .mult import MultiplicationReport

# Item types of the lists handed whole to the C encoder (reports hold no floats).
_SCALARS = frozenset({int, str, bool, type(None)})


class SparseRow:
    """A row kept as its length and its nonzero (position, value) pairs, positions increasing.

    It compares equal to a list, and prints, as the dense row it stands for.
    """

    __slots__ = ("length", "entries")

    def __init__(self, length: int, entries: Sequence[tuple[int, Any]]):
        self.length = length
        self.entries = entries

    def dense(self) -> list:
        row = [0] * self.length
        for j, x in self.entries:
            row[j] = x
        return row

    def __eq__(self, other):
        if isinstance(other, SparseRow):
            other = other.dense()
        return self.dense() == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return repr(self.dense())


def number(value: Entry) -> int | str:
    """JSON encoding of an exact rational: int when integral, else 'p/q'."""
    return value if type(value) is int else f"{value.numerator}/{value.denominator}"


def matrix_payload(rows: Iterable[SparseRow]) -> list[SparseRow]:
    """Payload rows of a record's exact rows: the same lengths, each value as its `number`."""
    return [SparseRow(row.length, [(j, number(x)) for j, x in row.entries]) for row in rows]


class Report(NamedTuple):
    kind: str
    provenance: dict
    payload: dict


def render_json(report: Report) -> str:
    out: list[str] = []
    _emit(report._asdict(), "", out)
    out.append("\n")
    return "".join(out)


@cache
def _scalar_list_encoder(inner: str):
    """C-speed encoder of a scalar list whose items are separated by a newline and `inner`."""
    return json.JSONEncoder(separators=(",\n" + inner, ": ")).encode


@lru_cache(maxsize=64)
def _zeros_list(length: int, indent: str) -> str:
    """The JSON of `[0] * length` nested at `indent`, length >= 1 (bounded: a process may
    render many sizes)."""
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(["0"] * length) + f"\n{indent}]"


def _sparse_rows(rows: Sequence[SparseRow], indent: str, out: list[str]) -> None:
    """Append the JSON of the rows nested at `indent`, separated by a comma and a newline."""
    sep, length = ",\n" + indent, None
    start, stride = len(indent) + 4, len(indent) + 5  # "[\n" + inner, then ",\n" + inner + "0"
    for n, row in enumerate(rows):
        if n:
            out.append(sep)
        if row.length != length:  # a run of rows of one length shares its zeros text
            length = row.length
            text = _zeros_list(length, indent) if length else "[]"
        done = 0
        for i, x in row.entries:
            at = start + i * stride
            out.append(text[done:at])
            # An entry is an int or a 'p/q' string (`number`), encoded as `json.dumps` would.
            out.append(str(x) if type(x) is int else encode_basestring_ascii(x))
            done = at + 1
        out.append(text[done:])


def _emit(value: Any, indent: str, out: list[str]) -> None:
    """Append the pieces of `json.dumps(value, sort_keys=True, indent=2)`, for a value nested
    at `indent`, to `out`, to be joined once."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = ",\n" + inner
        out.append("{\n" + inner)
        for n, k in enumerate(sorted(value)):
            if n:
                out.append(sep)
            out.append(encode_basestring_ascii(k) + ": ")
            _emit(value[k], inner, out)
        out.append("\n" + indent + "}")
        return
    if type(value) is SparseRow:
        _sparse_rows((value,), indent, out)
        return
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n" + inner)
        if (types := set(map(type, value))) <= _SCALARS:
            out.append(_scalar_list_encoder(inner)(value)[1:-1])
        elif types == {SparseRow}:
            _sparse_rows(value, inner, out)
        else:
            sep = ",\n" + inner
            for n, v in enumerate(value):
                if n:
                    out.append(sep)
                _emit(v, inner, out)
        out.append("\n" + indent + "]")
        return
    if type(value) is str:
        out.append(encode_basestring_ascii(value))
    elif type(value) is int:  # not a bool
        out.append(str(value))
    else:  # a bool or None
        out.append(json.dumps(value))


def mu_report(rep: MultiplicationReport) -> dict:
    """The payload of a mu record, shared by the plane, ci and hyperelliptic kinds."""
    return {
        "model": rep.model,
        "source_dim": rep.source_dim,
        "target_dim": rep.target_dim,
        "rank": rep.rank,
        "kernel_dim": rep.kernel_dim,
        "section_labels": list(rep.section_labels),
        "pair_labels": list(rep.pair_labels),
        "matrix": matrix_payload(rep.matrix),
        "kernel_basis": list(rep.kernel_rows),
        "kernel_relations": list(rep.kernel_relations),
    }


def _flag(label: str, fn: Callable[..., Any], *args) -> Any:
    """fn(*args), where a ValueError names the faulty input `label`, as `_check_shape` does.

    An `InvariantError` is a defect, not bad input, and passes unchanged.
    """
    try:
        return fn(*args)
    except invariants.InvariantError:
        raise
    except ValueError as e:
        raise ValueError(f"{label}: {e}") from None


@cache
def _module(name: str) -> ModuleType:
    """The package module `name`, imported when a command first needs it."""
    return import_module(f"{__package__}.{name}")


def _declared(inputs: dict) -> list[SingularityRecord]:
    """The records of the declared singularities, each kind resolved once; `smooth` is a
    degeneration target only.

    The catalog spelling of each kind is written back to
    `inputs["singularities"]`, so the provenance echoes "A:2" for "A:02".
    """
    sings = [_flag("--sing", invariants.singularity, kind)
             for kind in inputs.get("singularities", [])]
    if any(s.kind == "smooth" for s in sings):
        raise ValueError("--sing: 'smooth' is allowed only as a degeneration target")
    inputs["singularities"] = [s.kind for s in sings]
    return sings


def _plane_mu(inputs: dict) -> dict:
    mult, poly = _module("mult"), _module("poly")
    sings = _declared(inputs)
    curve = _flag("--poly", poly.parse_polynomial, inputs["poly"], poly.PLANE_VARS)
    if sings:
        pa = invariants.plane_pa(_flag("--poly", mult._plane_degree, curve))
        _flag("--sing", invariants.curve_invariants, pa, sings)
    return mu_report(_flag("--poly", mult.plane_mu, curve, bool(sings)))


def _ci_mu(inputs: dict) -> dict:
    poly = _module("poly")
    q = _flag("--q", poly.parse_polynomial, inputs["q"], poly.SPACE_VARS)
    c = _flag("--c", poly.parse_polynomial, inputs["c"], poly.SPACE_VARS)
    # A fault of the pair (its type, or not a regular sequence) names both flags.
    return mu_report(_flag("--q/--c", _module("mult").ci_mu, q, c))


def _hyperelliptic_mu(inputs: dict) -> dict:
    return mu_report(_flag("--genus", _module("mult").hyperelliptic_mu, inputs["genus"]))


def _jacobian(inputs: dict) -> dict:
    jacobian, poly = _module("jacobian"), _module("poly")
    curve = _flag("--poly", poly.parse_polynomial, inputs["poly"], poly.PLANE_VARS)
    ctx = _flag("--poly", jacobian.jacobian_context, curve)
    xi = search = None
    if inputs.get("xi") is not None:
        rep = _flag("--xi", jacobian.ivhs_matrix, ctx,
                    _flag("--xi", poly.parse_polynomial, inputs["xi"], poly.PLANE_VARS))
        xi = {"class": str(rep.xi), "rank": rep.rank, "is_max": rep.is_max,
              "matrix": matrix_payload(rep.matrix)}
    if (budget := inputs.get("budget")) is not None:
        best = _flag("--budget", jacobian.ivhs_max_rank, ctx, budget)
        search = {"budget": budget, "best_class": str(best.xi), "best_rank": best.rank,
                  "achieved_max": best.is_max}
    # `ctx.dims` is a closed form, computed once per context: a piece built above was checked
    # against it.
    return {"curve": str(ctx.curve), "degree": ctx.degree, "socle_degree": ctx.socle_degree,
            "dims": ctx.dims._asdict(), "xi": xi, "search": search}


def _invariants(inputs: dict) -> dict:
    inv = _flag("--pa", invariants.curve_invariants, inputs["pa"], _declared(inputs))
    return {
        "arithmetic_genus": inv.arithmetic_genus,
        "geometric_genus": inv.geometric_genus,
        "total_delta": inv.total_delta,
        "singularities": [s._asdict() for s in inv.singularities],
        "equisingular_rank": {
            "total": inv.arithmetic_genus,
            "from_normalization": inv.geometric_genus,
            "from_singularities": inv.total_delta,
        },
        "mhs": {"gr_w1": inv.gr_w1, "gr_w2": inv.gr_w2},
    }


def _class(inputs: dict) -> dict:
    petri_class = _flag("--class", invariants._known_class, inputs["class"])
    return _flag("--genus", invariants.class_mu_report, inputs["genus"], petri_class)._asdict()


def _degeneration(inputs: dict) -> dict:
    degeneration = _module("degeneration")
    if "specfile" in inputs:
        if "pa" in inputs or "steps" in inputs:
            raise ValueError("specfile: cannot combine a spec file with --pa/--step")
        spec = _module("specfile").load_degeneration_spec(inputs["specfile"])
    else:
        if "pa" not in inputs:
            raise ValueError("--pa: required when no spec file is given")
        if not inputs.get("steps"):
            raise ValueError("--step: at least one step is required")
        steps = tuple(_flag("--step", degeneration._parse_step, s) for s in inputs["steps"])
        spec = _flag("--pa", degeneration.DegenerationSpec, inputs["pa"], steps)
    rep = degeneration.rank_defect(spec)
    return {
        "arithmetic_genus": spec.pa,
        "steps": [{"initial": s.initial.kind, "target": s.target.kind} for s in spec.steps],
        "delta_initial": rep.delta_initial,
        "delta_target": rep.delta_target,
        "rank_defect": rep.rank_defect,
        "predicted_max_rank": rep.predicted_max_rank,
        "gr_w1": rep.gr_w1_dim,
        "gr_w2": rep.gr_w2_dim,
        "vanishing_cycles": rep.vanishing_cycle_dim,
    }


def _genus(inputs: dict) -> dict:
    if "plane_degree" in inputs:
        return {"value": _flag("'plane_degree'", invariants.plane_pa, inputs["plane_degree"])}
    if len(inputs.get("ci_type", ())) != 2:
        raise ValueError("'ci_type': two degrees are required when 'plane_degree' is not given")
    return {"value": _flag("'ci_type'", invariants.ci_genus, *inputs["ci_type"])}


def _yukawa(inputs: dict) -> dict:
    return {"defect": _flag("'nodes'", _module("degeneration").yukawa_defect, inputs["nodes"])}


def _fields(p: dict, keys) -> list[str]:
    return [f"{key}: {p[key]}" for key in keys]


def _grid_text(grid: list[SparseRow]) -> list[str]:
    """Rows as "  " + entries joined by spaces, each row's nonzeros spliced into one zeros line."""
    lines, zeros = [], ""
    for row in grid:
        zeros = zeros or "  " + " ".join(["0"] * row.length)
        pieces, done = [], 0
        for i, x in row.entries:
            pieces += (zeros[done:2 + 2 * i], str(x))
            done = 3 + 2 * i
        lines.append("".join(pieces) + zeros[done:])
    return lines or ["  (empty)"]


def _mu_text(p: dict) -> list[str]:
    return [
        *_fields(p, ("model", "source_dim", "target_dim", "rank", "kernel_dim")),
        "matrix:",
        *_grid_text(p["matrix"]),
        "kernel:",
        *([f"  {rel}" for rel in p["kernel_relations"]] or ["  (trivial)"]),
    ]


def _jacobian_text(p: dict) -> list[str]:
    d, x, s = p["dims"], p["xi"], p["search"]
    lines = _fields(p, ("curve", "degree", "socle_degree"))
    lines.append(f"dims: sections {d['sections']}, deformations {d['deformations']}, "
                 f"targets {d['targets']}")
    if x:
        lines += [f"xi: {x['class']}", f"xi_rank: {x['rank']} (max: {x['is_max']})",
                  "xi_matrix:", *_grid_text(x["matrix"])]
    if s:
        lines += [f"search_budget: {s['budget']}", f"best_class: {s['best_class']}",
                  f"best_rank: {s['best_rank']} (achieved_max: {s['achieved_max']})"]
    return lines


def _invariants_text(p: dict) -> list[str]:
    e, mhs = p["equisingular_rank"], p["mhs"]
    return [
        *_fields(p, ("arithmetic_genus", "geometric_genus", "total_delta")),
        "singularities:",
        *([f"  {s['kind']}: delta {s['delta']}, branches {s['branches']}"
           for s in p["singularities"]] or ["  (none)"]),
        f"equisingular_rank: {e['total']} = {e['from_normalization']} "
        f"(normalization) + {e['from_singularities']} (singularities)",
        f"mhs: gr_w1 {mhs['gr_w1']}, gr_w2 {mhs['gr_w2']}",
    ]


def _degeneration_text(p: dict) -> list[str]:
    return [
        f"arithmetic_genus: {p['arithmetic_genus']}",
        "steps:",
        *(f"  {s['initial']} -> {s['target']}" for s in p["steps"]),
        *_fields(p, ("delta_initial", "delta_target", "rank_defect", "predicted_max_rank",
                     "gr_w1", "gr_w2", "vanishing_cycles")),
    ]


class Input(NamedTuple):
    """One declared input of a report kind. `type` is its JSON type: int, str, dict, or `[t]`
    for an array of t. `flag` is an option, a positional's name, or None for an input only a
    fixture gives. `options` are the flag's argparse options beyond dest, metavar and
    `type=int`; a flag with no default there is echoed only when given."""

    key: str
    type: Any
    flag: str | None = None
    help: str | None = None
    options: dict = {}


_REQUIRED = {"required": True}  # `required` holds for a fixture too
_NULL = {"default": None}  # an option left out, echoed as null
_GENUS = Input("genus", int, "--genus", options=_REQUIRED)
_COMMAND = Input("command", str)  # the subcommand a command's provenance echoes
# `--sing`: comma-separated singularity kinds, none when left out or empty.
_SINGS = {"type": lambda text: text.split(",") if text else [], "default": []}
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def _expect(label: str, value: Any, want: Any) -> None:
    """A ValueError naming `label` unless `value` has the JSON type `want` (see `Input`)."""
    if type(want) is list:
        _expect(label, value, list)
        for n, item in enumerate(value):
            _expect(f"{label}[{n}]", item, want[0])
    elif type(value) is not want:
        raise ValueError(f"{label} is {_JSON_TYPES[type(value)]}, not {_JSON_TYPES[want]}")


def _check_shape(value: dict, inputs: Sequence[Input]) -> None:
    """A ValueError naming the fault unless `value` holds only declared inputs, every required
    one, and each with its JSON type, or null for a `_NULL` option; named by flag, else key."""
    missing = [i.flag or repr(i.key) for i in inputs
               if i.options.get("required") and i.key not in value]
    if missing:
        raise ValueError("missing key " + ", ".join(missing))
    unknown = value.keys() - {i.key for i in inputs}
    if unknown:
        raise ValueError("unknown key " + ", ".join(sorted(map(repr, unknown))))
    for i in inputs:
        if i.key in value and not (value[i.key] is None and i.options == _NULL):
            _expect(i.flag or repr(i.key), value[i.key], i.type)


class Kind(NamedTuple):
    """A report kind: its payload built from checked inputs, text lines and declared inputs."""

    build: Callable[[dict], dict]
    text: Callable[[dict], list[str]] | None
    inputs: tuple[Input, ...]

    def compute(self, inputs: dict) -> dict:
        _check_shape(inputs, (*self.inputs, _COMMAND))
        return self.build(inputs)


# Each compute looks its builders up on their modules when called: a command
# loads only the modules of its kind, and a wrapper put on the module
# attribute (a profiler's, say) sees every call.
KINDS = {
    "plane_mu": Kind(_plane_mu, _mu_text, (
        Input("poly", str, "--poly", "curve equation in x, y, z", _REQUIRED),
        Input("singularities", [str], "--sing", "declared singularities kind[,kind...]", _SINGS))),
    "ci_mu": Kind(_ci_mu, _mu_text, (Input("q", str, "--q", "first equation", _REQUIRED),
                                     Input("c", str, "--c", "second equation", _REQUIRED))),
    "hyperelliptic_mu": Kind(_hyperelliptic_mu, _mu_text, (_GENUS,)),
    "jacobian_ivhs": Kind(_jacobian, _jacobian_text, (
        Input("poly", str, "--poly", "smooth plane curve in x, y, z", _REQUIRED),
        Input("xi", str, "--xi", "deformation class of degree d", _NULL),
        Input("budget", int, "--budget", "max-rank search budget", _NULL))),
    "class_report": Kind(_class, lambda p: _fields(p, p), (_GENUS, Input(
        "class", str, "--class", f"one of: {', '.join(invariants.PETRI_CLASSES)}",
        {**_REQUIRED, "metavar": "PETRI_CLASS"}))),
    "invariants": Kind(_invariants, _invariants_text, (
        Input("pa", int, "--pa", "arithmetic genus", _REQUIRED),
        Input("singularities", [str], "--sing", "singularities kind[,kind...]", _SINGS))),
    "degeneration": Kind(_degeneration, _degeneration_text, (
        Input("specfile", str, "specfile", "JSON document {pa, steps:[{initial, target}]}",
              {"nargs": "?"}),
        Input("pa", int, "--pa", "arithmetic genus"),
        Input("steps", [str], "--step", "initial:target (repeatable)", {"action": "append"}))),
    # Kinds with no subcommand, checked by the fixture suite only.
    "genus": Kind(_genus, None, (Input("plane_degree", int), Input("ci_type", [int]))),
    "yukawa": Kind(_yukawa, None, (Input("nodes", int, options=_REQUIRED),)),
}


def render_text(report: Report) -> str:
    return "\n".join([f"kind: {report.kind}", *KINDS[report.kind].text(report.payload)]) + "\n"
