"""Golden-fixture suite: recompute every pinned example and compare exactly.

Fixtures are JSON files shipped with the package. Each names a report
kind of `report.KINDS`, its `inputs` (the provenance keys the CLI echoes
for that kind, without `command`) and the `expected` values, a subset of
the payload compared key by key, recursively into nested objects. The
runner computes the payload the CLI would print and reports one
pass/fail entry per fixture. A `specfile` input is named relative to the
fixture directory. Expected matrices are pinned in the global graded-lex
basis order the computation uses. `report._check_shape`, the one typed
check, holds a fixture to the keys and types of `_SHAPE`, and `compute`
its inputs to the kind's; a fault fails the fixture alone, named by its
flag or key.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .report import KINDS, _REQUIRED, Input, _check_shape, _expect

FIXTURES_DIR = Path(__file__).parent / "fixtures"


class FixtureResult(NamedTuple):
    name: str
    ok: bool
    mismatches: list[str]

    def to_dict(self) -> dict:
        return {
            "fixture": self.name,
            "status": "pass" if self.ok else "fail",
            "mismatches": self.mismatches,
        }


class FixtureSuiteResult(NamedTuple):
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
    """Run every `*.json` fixture of the directory; one that cannot be read fails alone."""
    base = Path(fixtures_dir) if fixtures_dir is not None else FIXTURES_DIR
    if not base.is_dir():
        raise ValueError(f"{base}: not a directory")
    paths = sorted(base.glob("*.json"))
    if not paths:
        raise ValueError(f"{base}: no *.json fixture files")
    results = []
    for path in paths:
        name = path.stem
        try:
            fixture = json.loads(path.read_text())
            _expect("the top level", fixture, dict)
            name = fixture.get("name", name)
            _check_shape(fixture, _SHAPE)
            if fixture["kind"] not in KINDS:
                raise ValueError(f"unknown fixture kind {fixture['kind']!r}")
            inputs = fixture["inputs"]
            if type(inputs.get("specfile")) is str:  # named relative to the fixture directory
                inputs = {**inputs, "specfile": str(base / inputs["specfile"])}
            mismatches = _compare(fixture["expected"], KINDS[fixture["kind"]].compute(inputs))
        except Exception as e:  # a crash is a failing fixture, not a crashed suite
            results.append(FixtureResult(name, False, [f"error: {e}"]))
            continue
        results.append(FixtureResult(name, not mismatches, mismatches))
    return FixtureSuiteResult(results)


_SHAPE = (Input("kind", str, options=_REQUIRED), Input("inputs", dict, options=_REQUIRED),
          Input("expected", dict, options=_REQUIRED), Input("name", str), Input("note", str))


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
