"""The benchmark's seed-0 commands still print their pinned outputs, byte for byte,
and the commands of seeds 1-3 pass the benchmark's own output checks.

`perfbench/workloads.py` generates the commands, `perfbench/pinned.json`
holds the sha256 of each seed-0 output and `perfbench/verify.py` checks an
output against closed forms and recomputes what it can (A*v == 0 for each
kernel vector, primitive and in echelon order), sharing no code with
`ivhs`. All three are read here and nothing under `perfbench/` is written.
The commands run through `run_command`, as the benchmark runs them.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from ivhs.cli import run_command

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PINNED = json.loads((PERFBENCH / "pinned.json").read_text())


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")
VERIFY = _load("verify")


@pytest.mark.parametrize("workload", sorted(PINNED["workloads"]))
def test_seed_0_outputs_match_the_pinned_sha256(workload):
    pins = PINNED["workloads"][workload]
    cmds = WORKLOADS.commands(workload, PINNED["seed"])
    assert hashlib.sha256(json.dumps(cmds).encode()).hexdigest() == pins["commands_sha256"]
    digests = [hashlib.sha256(run_command(list(argv))[1].encode()).hexdigest()
               for argv in cmds]
    assert digests == pins["stdout_sha256"]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_unpinned_seeds_pass_the_benchmark_checks(workload, seed):
    problems = {}
    for argv in WORKLOADS.commands(workload, seed):
        found = VERIFY.check(argv, *run_command(list(argv)))
        if found:
            problems[" ".join(argv)] = found
    assert problems == {}
