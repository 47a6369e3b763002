"""Golden-fixture suite: recompute every pinned example and compare exactly.

Fixtures are JSON files shipped with the package. Each declares a kind,
the inputs, and the expected values; the runner recomputes the result
and reports one pass/fail entry per fixture. Expected matrices are
pinned in the global graded-lex basis order the computation uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .degeneration import (
    DegenerationSpec,
    equisingular_rank,
    mhs_dims,
    rank_defect,
    step,
    yukawa_defect,
)
from .invariants import ci_genus, class_mu_report, curve_invariants, plane_pa, singularity
from .jacobian import ivhs_matrix, ivhs_max_rank, jacobian_context
from .mult import ci_mu, hyperelliptic_mu, plane_mu
from .poly import PLANE_VARS, SPACE_VARS, parse_polynomial
from .report import matrix_payload
from .specfile import load_degeneration_spec

FIXTURES_DIR = Path(__file__).parent / "fixtures"


@dataclass
class FixtureResult:
    name: str
    ok: bool
    mismatches: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "fixture": self.name,
            "status": "pass" if self.ok else "fail",
            "mismatches": self.mismatches,
        }


@dataclass
class FixtureSuiteResult:
    results: list[FixtureResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def passed(self) -> int:
        return sum(r.ok for r in self.results)

    def summary_dict(self) -> dict:
        return {
            "total": len(self.results),
            "passed": self.passed,
            "failed": len(self.results) - self.passed,
        }


def run_fixture_suite(fixtures_dir: str | Path | None = None) -> FixtureSuiteResult:
    base = Path(fixtures_dir) if fixtures_dir is not None else FIXTURES_DIR
    results = []
    for path in sorted(base.glob("*.json")):
        fixture = json.loads(path.read_text())
        name = fixture.get("name", path.stem)
        try:
            actual = _evaluate(fixture, base)
            mismatches = _compare(fixture["expected"], actual)
        except Exception as e:  # a crash is a failing fixture, not a crashed suite
            results.append(FixtureResult(name, False, [f"error: {e}"]))
            continue
        results.append(FixtureResult(name, not mismatches, mismatches))
    return FixtureSuiteResult(results)


def _evaluate(fixture: dict, base: Path) -> dict:
    kind = fixture["kind"]
    inputs = fixture["inputs"]
    if kind == "plane_mu":
        rep = plane_mu(parse_polynomial(inputs["poly"], PLANE_VARS))
        return _mu_actual(rep)
    if kind == "ci_mu":
        rep = ci_mu(
            parse_polynomial(inputs["eq1"], SPACE_VARS),
            parse_polynomial(inputs["eq2"], SPACE_VARS),
        )
        return _mu_actual(rep)
    if kind == "hyperelliptic_mu":
        return _mu_actual(hyperelliptic_mu(inputs["genus"]))
    if kind == "class_report":
        rep = class_mu_report(inputs["genus"], inputs["petri_class"])
        return {
            "sym2": rep.sym2,
            "target": rep.target,
            "mu_rank": rep.mu_rank,
            "mu_kernel": rep.mu_kernel,
            "max_ivhs_rank": rep.max_ivhs_rank,
        }
    if kind == "jacobian":
        ctx = jacobian_context(parse_polynomial(inputs["poly"], PLANE_VARS))
        actual: dict = {
            "dims": {
                "sections": ctx.sections.dim,
                "deformations": ctx.deformations.dim,
                "targets": ctx.targets.dim,
            },
            "socle_degree": ctx.socle_degree,
        }
        if "xi" in inputs:
            xi_rep = ivhs_matrix(ctx, parse_polynomial(inputs["xi"], PLANE_VARS))
            actual["xi_rank"] = xi_rep.rank
            actual["xi_is_max"] = xi_rep.is_max
            actual["xi_matrix"] = matrix_payload(xi_rep.matrix)
        if "budget" in inputs:
            best, achieved = ivhs_max_rank(ctx, inputs["budget"])
            actual["search_best_rank"] = best.rank
            actual["search_achieved_max"] = achieved
            actual["search_best_class"] = str(best.xi)
        return actual
    if kind == "degeneration":
        if "spec_file" in inputs:
            spec = load_degeneration_spec(base / inputs["spec_file"])
        else:
            spec = DegenerationSpec(
                pa=inputs["pa"],
                steps=tuple(step(s["initial"], s["target"]) for s in inputs["steps"]),
            )
        rep = rank_defect(spec)
        return {
            "delta_initial": rep.delta_initial,
            "delta_target": rep.delta_target,
            "rank_defect": rep.rank_defect,
            "predicted_max_rank": rep.predicted_max_rank,
            "gr_w1": rep.gr_w1_dim,
            "gr_w2": rep.gr_w2_dim,
            "vanishing_cycles": rep.vanishing_cycle_dim,
        }
    if kind == "mhs":
        dims = mhs_dims(
            inputs["pa"], [singularity(k) for k in inputs["singularities"]]
        )
        return {"gr_w1": dims.gr_w1, "gr_w2": dims.gr_w2}
    if kind == "invariants":
        sings = [singularity(k) for k in inputs["singularities"]]
        inv = curve_invariants(inputs["pa"], sings)
        split = equisingular_rank(inputs["pa"], sings)
        return {
            "geometric_genus": inv.geometric_genus,
            "total_delta": inv.total_delta,
            "equisingular_total": split.total,
            "equisingular_from_normalization": split.from_normalization,
            "equisingular_from_singularities": split.from_singularities,
        }
    if kind == "genus":
        if "plane_degree" in inputs:
            return {"value": plane_pa(inputs["plane_degree"])}
        a, b = inputs["ci_type"]
        return {"value": ci_genus(a, b)}
    if kind == "yukawa":
        return {"defect": yukawa_defect(inputs["nodes"])}
    raise ValueError(f"unknown fixture kind {kind!r}")


def _mu_actual(rep) -> dict:
    return {
        "source_dim": rep.source_dim,
        "target_dim": rep.target_dim,
        "rank": rep.rank,
        "kernel_dim": rep.kernel_dim,
        "matrix": matrix_payload(rep.matrix),
        "kernel_basis": [list(v) for v in rep.kernel_basis],
        "kernel_relations": list(rep.kernel_relations),
    }


def _compare(expected: dict, actual: dict) -> list[str]:
    """Every expected key must be present and equal; extra actual keys are fine."""
    mismatches = []
    for key, want in expected.items():
        if key not in actual:
            mismatches.append(f"{key}: missing from computed result")
            continue
        got = actual[key]
        if isinstance(want, dict) and isinstance(got, dict):
            for sub in _compare(want, got):
                mismatches.append(f"{key}.{sub}")
        elif want != got:
            mismatches.append(f"{key}: expected {want!r}, got {got!r}")
    return mismatches
