"""The benchmark's seed-0 commands still print their pinned outputs, byte for byte.

`perfbench/workloads.py` generates the commands and `perfbench/pinned.json`
holds the sha256 of each output; both are read here and nothing under
`perfbench/` is written. The commands run through `run_command`, as the
benchmark runs them.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from ivhs.cli import run_command

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PINNED = json.loads((PERFBENCH / "pinned.json").read_text())


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("workload", sorted(PINNED["workloads"]))
def test_seed_0_outputs_match_the_pinned_sha256(workload):
    pins = PINNED["workloads"][workload]
    cmds = WORKLOADS.commands(workload, PINNED["seed"])
    assert hashlib.sha256(json.dumps(cmds).encode()).hexdigest() == pins["commands_sha256"]
    digests = [hashlib.sha256(run_command(list(argv))[1].encode()).hexdigest()
               for argv in cmds]
    assert digests == pins["stdout_sha256"]
