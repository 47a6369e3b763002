"""Report kinds, their payloads, and deterministic text/JSON rendering.

Every result the CLI prints is a Report: a kind tag, its inputs echoed
as `provenance` (plus the subcommand as `command`), and a JSON-ready
payload with a fixed field set per kind. `KINDS` defines each kind once,
as `compute(inputs) -> payload` and `text(payload) -> lines` (the same
numeric content); the CLI and the fixture suite both call `compute`, so
a fixture checks the payload the CLI prints. Each `compute` builds its
payload from its model's record in one step; only `mu_report` is a
function of its own, shared by the three mu kinds, and `matrix_payload`
is the one formatter of matrix rows. JSON output is canonical (sorted
keys, no timestamps), so renderings compare byte for byte.

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
joined once: a mu report is megabytes of text, and a copy per
nesting level would cost a pass over it per level, at a price that
depends on where the allocator finds room for each copy. A sparse row
is the cached text of an all-zeros list of its length at its indentation
with each nonzero spliced in: every item of that text is a one-character
"0" at a fixed stride, an int is written as `str(x)` (how the encoder
writes it) and any other entry as its JSON. A list of plain scalars
(ints, strings, bools, None) goes to one C-encoder call whose item
separator carries the newline and the indentation.
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


def matrix_payload(cols: int, rows: Iterable[Iterable[tuple[int, Entry]]]) -> list[SparseRow]:
    """Payload rows of length `cols` from their nonzero (position, value) pairs, as `number`s."""
    return [SparseRow(cols, [(j, number(x)) for j, x in row]) for row in rows]


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


def _sparse_list(length: int, entries: Iterable[tuple[int, Any]], indent: str,
                 out: list[str]) -> None:
    """Append the JSON of the list of `length` with the nonzero (position, value) `entries`."""
    if not length:
        out.append("[]")
        return
    text = _zeros_list(length, indent)
    start, stride = len(indent) + 4, len(indent) + 5  # "[\n" + inner, then ",\n" + inner + "0"
    inner = indent + "  "
    done = 0
    for i, x in entries:
        at = start + i * stride
        out.append(text[done:at])
        if type(x) is int:
            out.append(str(x))
        else:
            _emit(x, inner, out)
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
        _sparse_list(value.length, value.entries, indent, out)
        return
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n" + inner)
        if set(map(type, value)) <= _SCALARS:
            out.append(_scalar_list_encoder(inner)(value)[1:-1])
        else:
            sep = ",\n" + inner
            for n, v in enumerate(value):
                if n:
                    out.append(sep)
                _emit(v, inner, out)
        out.append("\n" + indent + "]")
        return
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
        "matrix": matrix_payload(rep.source_dim, [row.entries for row in rep.matrix]),
        "kernel_basis": list(rep.kernel_rows),
        "kernel_relations": list(rep.kernel_relations),
    }


def _flag(key: str, fn: Callable[..., Any], *args) -> Any:
    """fn(*args), where a ValueError names the flag `--key` whose value is at fault.

    An `InvariantError` is a defect, not bad input, and passes unchanged.
    """
    try:
        return fn(*args)
    except invariants.InvariantError:
        raise
    except ValueError as e:
        raise ValueError(f"--{key}: {e}") from None


@cache
def _module(name: str) -> ModuleType:
    """The package module `name`, imported when a command first needs it."""
    return import_module(f"{__package__}.{name}")


def _declared(kinds: list[str], sings: list[SingularityRecord] | None) -> list[SingularityRecord]:
    """The declared singularities of a --sing list; `smooth` is a degeneration target only.

    `sings` are the records of `kinds` when the CLI has resolved them
    already; a fixture passes its kinds alone, and they are resolved here.
    """
    if sings is None:
        sings = [_flag("sing", invariants.singularity, kind) for kind in kinds]
    if any(s.kind == "smooth" for s in sings):
        raise ValueError("--sing: 'smooth' is allowed only as a degeneration target")
    return sings


def _plane_mu(inputs: dict, sings: list[SingularityRecord] | None = None) -> dict:
    mult, poly = _module("mult"), _module("poly")
    sings = _declared(inputs.get("singularities") or [], sings)
    curve = _flag("poly", poly.parse_polynomial, inputs["poly"], poly.PLANE_VARS)
    if sings:
        pa = invariants.plane_pa(_flag("poly", mult._plane_degree, curve))
        _flag("sing", invariants.curve_invariants, pa, sings)
    return mu_report(_flag("poly", mult.plane_mu, curve, bool(sings)))


def _ci_mu(inputs: dict) -> dict:
    poly = _module("poly")
    q = _flag("q", poly.parse_polynomial, inputs["q"], poly.SPACE_VARS)
    c = _flag("c", poly.parse_polynomial, inputs["c"], poly.SPACE_VARS)
    # A fault of the pair (its type, or not a regular sequence) names both flags.
    return mu_report(_flag("q/--c", _module("mult").ci_mu, q, c))


def _hyperelliptic_mu(inputs: dict) -> dict:
    return mu_report(_flag("genus", _module("mult").hyperelliptic_mu, inputs["genus"]))


def _jacobian(inputs: dict) -> dict:
    jacobian, poly = _module("jacobian"), _module("poly")
    curve = _flag("poly", poly.parse_polynomial, inputs["poly"], poly.PLANE_VARS)
    ctx = _flag("poly", jacobian.jacobian_context, curve)
    xi = search = None
    if inputs.get("xi") is not None:
        rep = _flag("xi", jacobian.ivhs_matrix, ctx,
                    _flag("xi", poly.parse_polynomial, inputs["xi"], poly.PLANE_VARS))
        xi = {"class": str(rep.xi), "rank": rep.rank, "is_max": rep.is_max,
              "matrix": matrix_payload(ctx.sections.dim, [row.entries for row in rep.matrix])}
    if (budget := inputs.get("budget")) is not None:
        best, achieved = _flag("budget", jacobian.ivhs_max_rank, ctx, budget)
        search = {"budget": budget, "best_class": str(best.xi), "best_rank": best.rank,
                  "achieved_max": achieved}
    # `ctx.dims` is a closed form, computed once per context: a piece built above was checked
    # against it.
    return {"curve": str(ctx.curve), "degree": ctx.degree, "socle_degree": ctx.socle_degree,
            "dims": ctx.dims._asdict(), "xi": xi, "search": search}


def _invariants(inputs: dict, sings: list[SingularityRecord] | None = None) -> dict:
    sings = _declared(inputs["singularities"], sings)
    inv = _flag("pa", invariants.curve_invariants, inputs["pa"], sings)
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
    petri_class = _flag("class", invariants._known_class, inputs["class"])
    return _flag("genus", invariants.class_mu_report, inputs["genus"], petri_class)._asdict()


def _degeneration(inputs: dict) -> dict:
    degeneration = _module("degeneration")
    if "specfile" in inputs:
        spec = _module("specfile").load_degeneration_spec(inputs["specfile"])
    else:
        steps = tuple(_flag("step", degeneration._parse_step, s) for s in inputs["steps"])
        spec = _flag("pa", degeneration.DegenerationSpec, inputs["pa"], steps)
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
        return {"value": invariants.plane_pa(inputs["plane_degree"])}
    return {"value": invariants.ci_genus(*inputs["ci_type"])}


def _yukawa(inputs: dict) -> dict:
    return {"defect": _module("degeneration").yukawa_defect(inputs["nodes"])}


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


class Kind(NamedTuple):
    """A report kind: its payload computed from inputs, and the text lines of a payload.

    A kind with a --sing list also takes `sings`, the records the CLI
    resolved from it, so each kind is resolved once.
    """

    compute: Callable[..., dict]
    text: Callable[[dict], list[str]] | None = None


# Each compute looks its builders up on their modules when called: a command
# loads only the modules of its kind, and a wrapper put on the module
# attribute (a profiler's, say) sees every call.
KINDS = {
    "plane_mu": Kind(_plane_mu, _mu_text),
    "ci_mu": Kind(_ci_mu, _mu_text),
    "hyperelliptic_mu": Kind(_hyperelliptic_mu, _mu_text),
    "jacobian_ivhs": Kind(_jacobian, _jacobian_text),
    "class_report": Kind(_class, lambda p: _fields(p, p)),
    "invariants": Kind(_invariants, _invariants_text),
    "degeneration": Kind(_degeneration, _degeneration_text),
    # Kinds with no subcommand, checked by the fixture suite only.
    "genus": Kind(_genus),
    "yukawa": Kind(_yukawa),
}


def render_text(report: Report) -> str:
    return "\n".join([f"kind: {report.kind}", *KINDS[report.kind].text(report.payload)]) + "\n"
