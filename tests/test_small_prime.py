"""A certified rank does not depend on the prime: every pinned output is the
same with `linalg.PRIME` lowered to 2 and to 3.

`linalg._rank_mod_p` reads `PRIME` when it runs. Mod a small prime a rank
falls short of the rank over Q far more often than at the production
prime, so the exact fallback runs where a shortcut that trusted the
modular rank, or took pivots from a modular pass, would print something
else. The sweep runs the text and JSON goldens, the fixture suite, the
README's CLI examples (text and --json), its Python quick example and the
benchmark's seed-0 commands, whose sha256 `perfbench/pinned.json` pins.
It also counts the exact fallbacks (`linalg._echelon_basis` calls), so
that a sweep which never left the modular path cannot pass.
"""

import hashlib
import re
import shlex
from pathlib import Path

import pytest

from ivhs import linalg
from ivhs.cli import run_command
from test_cli import GOLDEN, JSON_GOLDENS
from test_pinned_outputs import PINNED, WORKLOADS
from test_render import REPORT_KINDS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
(CLI_BLOCK,) = re.findall(r"^## CLI\n\n```sh\n(.*?)^```", README, re.S | re.M)
README_ARGVS = [shlex.split(line)[1:] for line in CLI_BLOCK.splitlines()]
(PYTHON_BLOCK,) = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)


def _sweep():
    """Every output of the sweep, keyed by what printed it, and the exact fallbacks run."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        fallbacks = []
        basis = linalg._echelon_basis
        monkeypatch.setattr(linalg, "_echelon_basis",
                            lambda rows: fallbacks.append(1) or basis(rows))
        return _outputs(), len(fallbacks)


def _outputs():
    outputs = {name + ".txt": run_command(argv) for name, argv in REPORT_KINDS.items()}
    outputs.update((name, run_command(argv)) for name, argv in JSON_GOLDENS.items())
    outputs["fixtures"] = run_command(["fixtures"])
    for argv in README_ARGVS:
        outputs[shlex.join(argv)] = run_command(argv)
        outputs[shlex.join(argv + ["--json"])] = run_command(argv + ["--json"])
    namespace: dict = {}
    exec(compile(PYTHON_BLOCK, "README.md", "exec"), namespace)
    outputs["README python"] = namespace["report"]
    for workload in PINNED["workloads"]:
        outputs[workload] = [hashlib.sha256(run_command(list(argv))[1].encode()).hexdigest()
                             for argv in WORKLOADS.commands(workload, PINNED["seed"])]
    return outputs


@pytest.fixture(scope="module")
def at_production_prime():
    return _sweep()


def test_the_sweep_at_the_production_prime_prints_the_goldens_and_pins(at_production_prime):
    outputs, _ = at_production_prime
    for name in [name + ".txt" for name in REPORT_KINDS] + list(JSON_GOLDENS):
        assert outputs[name] == (0, (GOLDEN / name).read_text()), name
    for workload, pins in PINNED["workloads"].items():
        assert outputs[workload] == pins["stdout_sha256"], workload
    code, text = outputs["fixtures"]
    assert code == 0 and text.endswith("passed 27/27\n")


@pytest.mark.parametrize("prime", [2, 3])
def test_every_output_is_the_same_at_a_small_prime(prime, at_production_prime, monkeypatch):
    expected, fallbacks = at_production_prime
    monkeypatch.setattr(linalg, "PRIME", prime)
    outputs, small_prime_fallbacks = _sweep()
    assert [name for name in expected if outputs[name] != expected[name]] == []
    assert small_prime_fallbacks > fallbacks
