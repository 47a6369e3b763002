"""Report envelopes and deterministic text/JSON rendering.

Every CLI computation is wrapped in a Report: a kind tag, an echo of the
inputs, and a JSON-ready payload with a fixed field set per kind. JSON
output is canonical (sorted keys, no timestamps) so renderings can be
compared byte for byte; the text rendering carries exactly the same
numeric content.

Rendering contract: `render_json` is byte-identical to
`json.dumps(report.to_dict(), sort_keys=True, indent=2)` plus a newline,
and dictionary keys must be `str` (any other key raises TypeError). The
stdlib uses its C encoder only when `indent` is None, so with `indent=2`
every integer of a kernel basis or matrix would pass through pure-Python
generators. `_json` writes the nesting itself and hands each list of
plain scalars (the rows and kernel vectors, nearly all of the output) to
one C-encoder call whose item separator carries the newline and the
indentation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Any

from .degeneration import DegenerationReport, DegenerationSpec, EquisingularRank, MhsDims
from .invariants import ClassMuReport, CurveInvariants
from .jacobian import IVHSReport, JacobianContext
from .linalg import ExactMatrix
from .mult import MultiplicationReport

# Item types of the lists handed whole to the C encoder (reports hold no floats).
_SCALARS = frozenset({int, str, bool, type(None)})


def number(value: int | Fraction) -> int | str:
    """JSON encoding of an exact rational: int when integral, else 'p/q'."""
    if type(value) is int:
        return value
    f = Fraction(value)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def matrix_payload(m: ExactMatrix) -> list[list[int | str]]:
    if {int}.issuperset(map(type, m.entries)):
        return m.to_lists()
    return [[number(e) for e in m.row(i)] for i in range(m.rows)]


def matrix_text(m: ExactMatrix, indent: str = "  ") -> list[str]:
    if m.rows == 0:
        return [f"{indent}(empty, 0 x {m.cols})"]
    return [indent + " ".join(str(e) for e in m.row(i)) for i in range(m.rows)]


@dataclass(frozen=True)
class Report:
    kind: str
    provenance: dict
    payload: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, "provenance": self.provenance, "payload": self.payload}

    @classmethod
    def from_json(cls, text: str) -> "Report":
        data = json.loads(text)
        return cls(kind=data["kind"], provenance=data["provenance"], payload=data["payload"])


def render_json(report: Report) -> str:
    return _json(report.to_dict(), "") + "\n"


@cache
def _scalar_list_encoder(inner: str):
    """C-speed encoder of a scalar list whose items are separated by a newline and `inner`."""
    return json.JSONEncoder(separators=(",\n" + inner, ": ")).encode


def _json(value: Any, indent: str) -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` for a value nested at `indent`."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = (",\n" + inner).join(
            [f"{encode_basestring_ascii(k)}: {_json(value[k], inner)}" for k in sorted(value)]
        )
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _SCALARS.issuperset(map(type, value)):
            body = _scalar_list_encoder(inner)(value)[1:-1]
        else:
            body = (",\n" + inner).join([_json(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    return json.dumps(value)


def mu_report(kind: str, rep: MultiplicationReport, provenance: dict) -> Report:
    payload = {
        "model": rep.model,
        "source_dim": rep.source_dim,
        "target_dim": rep.target_dim,
        "rank": rep.rank,
        "kernel_dim": rep.kernel_dim,
        "section_labels": list(rep.section_labels),
        "pair_labels": list(rep.pair_labels),
        "matrix": matrix_payload(rep.matrix),
        "kernel_basis": [list(v) for v in rep.kernel_basis],
        "kernel_relations": list(rep.kernel_relations),
    }
    return Report(kind=kind, provenance=provenance, payload=payload)


def jacobian_report(
    ctx: JacobianContext,
    provenance: dict,
    xi_report: IVHSReport | None = None,
    search: tuple[IVHSReport, bool, int] | None = None,
) -> Report:
    payload: dict[str, Any] = {
        "curve": str(ctx.curve),
        "degree": ctx.degree,
        "socle_degree": ctx.socle_degree,
        "dims": {
            "sections": ctx.sections.dim,
            "deformations": ctx.deformations.dim,
            "targets": ctx.targets.dim,
        },
        "xi": None,
        "search": None,
    }
    if xi_report is not None:
        payload["xi"] = {
            "class": str(xi_report.xi),
            "rank": xi_report.rank,
            "is_max": xi_report.is_max,
            "matrix": matrix_payload(xi_report.matrix),
        }
    if search is not None:
        best, achieved, budget = search
        payload["search"] = {
            "budget": budget,
            "best_class": str(best.xi),
            "best_rank": best.rank,
            "achieved_max": achieved,
        }
    return Report(kind="jacobian_ivhs", provenance=provenance, payload=payload)


def class_report(rep: ClassMuReport, provenance: dict) -> Report:
    payload = {
        "genus": rep.genus,
        "petri_class": rep.petri_class,
        "sym2": rep.sym2,
        "target": rep.target,
        "mu_rank": rep.mu_rank,
        "mu_kernel": rep.mu_kernel,
        "max_ivhs_rank": rep.max_ivhs_rank,
    }
    return Report(kind="class_report", provenance=provenance, payload=payload)


def invariants_report(
    inv: CurveInvariants, split: EquisingularRank, mhs: MhsDims, provenance: dict
) -> Report:
    payload = {
        "arithmetic_genus": inv.arithmetic_genus,
        "geometric_genus": inv.geometric_genus,
        "total_delta": inv.total_delta,
        "singularities": [
            {"kind": s.kind, "delta": s.delta, "branches": s.branches}
            for s in inv.singularities
        ],
        "equisingular_rank": {
            "total": split.total,
            "from_normalization": split.from_normalization,
            "from_singularities": split.from_singularities,
        },
        "mhs": {"gr_w1": mhs.gr_w1, "gr_w2": mhs.gr_w2},
    }
    return Report(kind="invariants", provenance=provenance, payload=payload)


def degeneration_report(
    spec: DegenerationSpec, rep: DegenerationReport, provenance: dict
) -> Report:
    payload = {
        "arithmetic_genus": spec.pa,
        "steps": [
            {"initial": s.initial.kind, "target": s.target.kind} for s in spec.steps
        ],
        "delta_initial": rep.delta_initial,
        "delta_target": rep.delta_target,
        "rank_defect": rep.rank_defect,
        "predicted_max_rank": rep.predicted_max_rank,
        "gr_w1": rep.gr_w1_dim,
        "gr_w2": rep.gr_w2_dim,
        "vanishing_cycles": rep.vanishing_cycle_dim,
    }
    return Report(kind="degeneration", provenance=provenance, payload=payload)


def render_text(report: Report) -> str:
    lines = [f"kind: {report.kind}"]
    p = report.payload
    if report.kind in ("plane_mu", "ci_mu", "hyperelliptic_mu"):
        lines.append(f"model: {p['model']}")
        lines.append(f"source_dim: {p['source_dim']}")
        lines.append(f"target_dim: {p['target_dim']}")
        lines.append(f"rank: {p['rank']}")
        lines.append(f"kernel_dim: {p['kernel_dim']}")
        lines.append("matrix:")
        lines.extend(_grid_text(p["matrix"]))
        lines.append("kernel:")
        if p["kernel_relations"]:
            lines.extend(f"  {rel}" for rel in p["kernel_relations"])
        else:
            lines.append("  (trivial)")
    elif report.kind == "jacobian_ivhs":
        lines.append(f"curve: {p['curve']}")
        lines.append(f"degree: {p['degree']}")
        lines.append(f"socle_degree: {p['socle_degree']}")
        d = p["dims"]
        lines.append(
            f"dims: sections {d['sections']}, deformations {d['deformations']}, "
            f"targets {d['targets']}"
        )
        if p["xi"]:
            x = p["xi"]
            lines.append(f"xi: {x['class']}")
            lines.append(f"xi_rank: {x['rank']} (max: {x['is_max']})")
            lines.append("xi_matrix:")
            lines.extend(_grid_text(x["matrix"]))
        if p["search"]:
            s = p["search"]
            lines.append(f"search_budget: {s['budget']}")
            lines.append(f"best_class: {s['best_class']}")
            lines.append(f"best_rank: {s['best_rank']} (achieved_max: {s['achieved_max']})")
    elif report.kind == "class_report":
        for key in ("genus", "petri_class", "sym2", "target", "mu_rank", "mu_kernel",
                    "max_ivhs_rank"):
            lines.append(f"{key}: {p[key]}")
    elif report.kind == "invariants":
        lines.append(f"arithmetic_genus: {p['arithmetic_genus']}")
        lines.append(f"geometric_genus: {p['geometric_genus']}")
        lines.append(f"total_delta: {p['total_delta']}")
        lines.append("singularities:")
        if p["singularities"]:
            for s in p["singularities"]:
                lines.append(f"  {s['kind']}: delta {s['delta']}, branches {s['branches']}")
        else:
            lines.append("  (none)")
        e = p["equisingular_rank"]
        lines.append(
            f"equisingular_rank: {e['total']} = {e['from_normalization']} "
            f"(normalization) + {e['from_singularities']} (singularities)"
        )
        lines.append(f"mhs: gr_w1 {p['mhs']['gr_w1']}, gr_w2 {p['mhs']['gr_w2']}")
    elif report.kind == "degeneration":
        lines.append(f"arithmetic_genus: {p['arithmetic_genus']}")
        lines.append("steps:")
        for s in p["steps"]:
            lines.append(f"  {s['initial']} -> {s['target']}")
        for key in ("delta_initial", "delta_target", "rank_defect",
                    "predicted_max_rank", "gr_w1", "gr_w2", "vanishing_cycles"):
            lines.append(f"{key}: {p[key]}")
    else:
        lines.append(_json(p, ""))
    return "\n".join(lines) + "\n"


def _grid_text(grid: list[list[int | str]]) -> list[str]:
    if not grid:
        return ["  (empty)"]
    return ["  " + " ".join(str(e) for e in row) for row in grid]
