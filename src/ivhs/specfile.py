"""Ingestion of degeneration descriptions from JSON documents.

Schema: {"pa": int, "steps": [{"initial": kind, "target": kind}, ...]}
with kinds drawn from the singularity catalog (node, cusp, tacnode,
ordinary:m, A:k) plus "smooth" as a target.
"""

from __future__ import annotations

import json
from pathlib import Path

from .degeneration import DegenerationError, DegenerationSpec, step


class SpecFileError(ValueError):
    """Malformed degeneration document; the message names the file and field."""


def load_degeneration_spec(path: str | Path) -> DegenerationSpec:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise SpecFileError(f"{path}: file not found") from None
    except OSError as e:
        raise SpecFileError(f"{path}: cannot read ({e.strerror or e})") from None
    except UnicodeDecodeError as e:
        raise SpecFileError(f"{path}: cannot read ({e})") from None
    except json.JSONDecodeError as e:
        raise SpecFileError(f"{path}: invalid JSON ({e})") from None
    return degeneration_spec_from_dict(data, source=str(path))


def degeneration_spec_from_dict(data: object, source: str = "<spec>") -> DegenerationSpec:
    if not isinstance(data, dict):
        raise SpecFileError(f"{source}: expected a JSON object")
    if "pa" not in data:
        raise SpecFileError(f"{source}: missing field 'pa'")
    pa = data["pa"]
    if type(pa) is not int or pa < 0:
        raise SpecFileError(f"{source}: field 'pa' must be a nonnegative integer")
    raw_steps = data.get("steps")
    if not isinstance(raw_steps, list):
        raise SpecFileError(f"{source}: missing or non-list field 'steps'")
    steps = []
    for i, raw in enumerate(raw_steps):
        where = f"{source}: steps[{i}]"
        if not isinstance(raw, dict):
            raise SpecFileError(f"{where}: expected an object")
        for key in ("initial", "target"):
            if key not in raw or not isinstance(raw[key], str):
                raise SpecFileError(f"{where}: missing string field '{key}'")
        try:
            steps.append(step(raw["initial"], raw["target"]))
        except ValueError as e:
            raise SpecFileError(f"{where}: {e}") from None
    try:
        return DegenerationSpec(pa=pa, steps=tuple(steps))
    except DegenerationError as e:
        raise SpecFileError(f"{source}: {e}") from None
