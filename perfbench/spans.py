"""Per-layer spans for `ivhs`, recorded from outside the package.

`Tracer.install()` replaces each public function of every `ivhs` module
in every namespace that looks it up (modules bind imported names at
import time, so `ivhs.cli.plane_mu` and `ivhs.mult.plane_mu` are both
patched), plus the elimination methods of `ExactMatrix` and
`GradedQuotientContext.reduce`. Each wrapped call appends one span
(name, start, end, parent span, pass, command, size, matrix) to an
in-memory list; `uninstall()` restores the originals. Nothing under `src/` changes.
"""

from __future__ import annotations

import json
import types
from math import comb
from time import perf_counter_ns

MODULES = ("cli", "degeneration", "fixtures", "invariants", "jacobian", "linalg",
           "mult", "poly", "quotient", "report", "specfile")
METHODS = (("linalg", "ExactMatrix", ("from_rows", "rank", "rref", "kernel_basis")),
           ("quotient", "GradedQuotientContext", ("reduce",)))
# Called once per monomial or matrix entry: a span there would cost more
# than the work it measures.
SKIP = {"poly.grlex_key", "report.number"}

REPORT_BUILDERS = {"report.mu_report", "report.jacobian_report", "report.class_report",
                   "report.invariants_report", "report.degeneration_report",
                   "report.matrix_payload"}
REPORT_RENDERERS = {"report.render_json", "report.render_text"}


def _quotient_cells(args, ctx) -> int:
    """Rows x cols of the matrix of monomial multiples behind a quotient context."""
    n = len(ctx.variables)
    rows = sum(comb(ctx.degree - g.homogeneous_degree() + n - 1, n - 1)
               for g in ctx.generators if g.homogeneous_degree() <= ctx.degree)
    return rows * len(ctx.monomials)


SIZES = {
    "quotient.quotient_context": _quotient_cells,
    "linalg.from_rows": lambda args, m: m.rows * m.cols,
    "linalg.rank": lambda args, r: args[0].rows * args[0].cols,
    "linalg.rref": lambda args, r: args[0].rows * args[0].cols,
    "linalg.kernel_basis": lambda args, basis: len(basis),
    "report.render_json": lambda args, text: len(text.encode()),
    "report.render_text": lambda args, text: len(text.encode()),
}


class Tracer:
    """Span recorder.

    A span is a tuple (name, start_ns, end_ns, parent, pass, command,
    size, matrix): `parent` is the index of the enclosing span or -1,
    `size` the layer's count (cells, entries, vectors, bytes) or None, and
    `matrix` numbers the distinct matrices that `rank`/`rref` eliminate
    within one command (None for other spans).
    """

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.pass_no = 0
        self.command = 0
        # Matrices eliminated in the current command, kept alive so ids stay unique.
        self.matrices: dict[int, tuple[int, object]] = {}
        self._saved: list[tuple[object, str, object]] = []

    def begin_command(self, pass_no: int, command: int) -> None:
        self.pass_no, self.command = pass_no, command
        self.matrices.clear()

    def _wrap(self, name: str, fn):
        size_of = SIZES.get(name)
        eliminates = name in ("linalg.rank", "linalg.rref")

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(index)
            size = matrix = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    size = size_of(args, result)
                return result
            finally:
                end = perf_counter_ns()
                self.stack.pop()
                if eliminates:
                    matrix = self.matrices.setdefault(
                        id(args[0]), (len(self.matrices), args[0]))[0]
                self.spans[index] = (name, start, end, parent, self.pass_no,
                                     self.command, size, matrix)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {m: getattr(self.package, m) for m in MODULES}
        wrappers: dict[int, object] = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith(self.package.__name__ + ".")):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if name in SKIP:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._patch(module, attr, wrappers[id(obj)])
        for module, cls_name, methods in METHODS:
            cls = getattr(modules[module], cls_name)
            for attr in methods:
                raw = cls.__dict__[attr]
                name = f"{module}.{attr}"
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def take(self) -> list[tuple]:
        """The spans recorded so far (parents index into this list); starts a new list."""
        taken, self.spans = self.spans, []
        return taken


def write(recorded: list[tuple], path) -> None:
    """One JSON object per span; `parent` indexes the spans of the same pass."""
    keys = ("name", "start_ns", "end_ns", "parent", "pass", "command", "size", "matrix")
    with open(path, "w") as out:
        for span in recorded:
            out.write(json.dumps(dict(zip(keys, span))) + "\n")


def unit(metric: str) -> str:
    if metric.endswith(("calls", "cells", "entries", "vectors", "candidates")):
        return "count"
    if metric.endswith("bytes"):
        return "B"
    return "ratio" if metric.endswith("per_matrix") else "s"


def layer_metrics(spans: list[tuple], factors: list[float]) -> dict[str, float]:
    """Per-layer metrics of the spans of one pass (see BENCHMARK.json `per_layer`).

    A span's self time is multiplied by factors[its command], which turns
    seconds into the reference seconds of the end-to-end metrics.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    sizes: dict[str, int] = {}
    for i, (name, start, end, parent, _, command, size, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        own = (end - start - child_ns[i]) / 1e9 * factors[command]
        self_s[name] = self_s.get(name, 0.0) + own
        if size is not None:
            sizes[name] = sizes.get(name, 0) + size

    def total(table, names):
        return sum(v for k, v in table.items() if k in names)

    def prefixed(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    m: dict[str, float] = {"cli.run_command.self_s": self_s.get("cli.run_command", 0.0)}
    for name, stats in (
        ("poly.parse_polynomial", ("calls", "self_s")),
        ("quotient.quotient_context", ("calls", "self_s", "cells")),
        ("quotient.reduce", ("calls", "self_s")),
        ("linalg.from_rows", ("calls", "self_s", "entries")),
        ("linalg.rank", ("calls", "self_s", "cells")),
        ("linalg.rref", ("calls", "self_s", "cells")),
        ("linalg.kernel_basis", ("calls", "self_s", "vectors")),
        ("jacobian.jacobian_context", ("calls", "self_s")),
        ("jacobian.ivhs_matrix", ("calls", "self_s")),
        ("fixtures.run_fixture_suite", ("self_s",)),
    ):
        for stat in stats:
            table = {"calls": calls, "self_s": self_s}.get(stat, sizes)
            m[f"{name}.{stat}"] = table.get(name, 0)
    eliminations = calls.get("linalg.rank", 0) + calls.get("linalg.rref", 0)
    matrices = len({(command, matrix) for *_, command, _, matrix in spans
                    if matrix is not None})
    m["linalg.elim_per_matrix"] = eliminations / matrices if matrices else 0.0
    m["mult.calls"] = prefixed(calls, "mult.")
    m["mult.self_s"] = prefixed(self_s, "mult.")
    m["jacobian.ivhs_max_rank.candidates"] = sum(
        1 for name, _, _, parent, *_ in spans
        if name == "jacobian.ivhs_matrix" and parent >= 0
        and spans[parent][0] == "jacobian.ivhs_max_rank")
    m["report.build.self_s"] = total(self_s, REPORT_BUILDERS)
    m["report.render.self_s"] = total(self_s, REPORT_RENDERERS)
    m["report.render.bytes"] = total(sizes, REPORT_RENDERERS)
    m["invariants.self_s"] = prefixed(self_s, "invariants.")
    m["degeneration.self_s"] = prefixed(self_s, "degeneration.")
    m["trace.self_sum_s"] = sum(self_s.values())
    return m
