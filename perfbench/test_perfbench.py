"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def cli():
    return run.import_cli().cli


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_commands(workload):
    assert workloads.commands(workload, 7) == workloads.commands(workload, 7)
    assert workloads.commands(workload, 7) != workloads.commands(workload, 8)
    pins = json.loads(run.PINNED.read_text())
    assert (run.commands_digest(workloads.commands(workload, pins["seed"]))
            == pins["workloads"][workload]["commands_sha256"])


def test_is_smooth_agrees_with_the_program(cli):
    for d in (4, 5):
        for a in (-3, -2, -1, 1, 2, 3):
            for b in (-3, -2, -1, 1, 2, 3):
                code, _ = cli.run_command(["jacobian", "--poly",
                                           workloads.plane_curve(d, a, b)])
                assert (code == 0) == workloads.is_smooth(d, a, b), (d, a, b)


def _output(cli, workload: str, index: int) -> tuple[list[str], str]:
    argv = workloads.commands(workload, 0)[index]
    code, output = cli.run_command(list(argv))
    assert code == 0 and verify.check(argv, code, output) == []
    return argv, output


def test_verification_catches_tampered_mu_json(cli):
    argv, output = _output(cli, "mu_kernels", 2)  # mu ci: rational matrix entries
    data = json.loads(output)
    data["payload"]["kernel_basis"][-1][0] += 1
    assert verify.check(argv, 0, json.dumps(data))
    data = json.loads(output)
    data["payload"]["rank"] -= 1
    assert verify.check(argv, 0, json.dumps(data))


@pytest.mark.parametrize("workload, index, old, new", [
    ("xi_sweep", 0, "xi_rank: ", "xi_rank: 1"),       # rank recomputed from the matrix
    ("xi_sweep", 31, "rank: ", "rank: 1"),            # mu plane text
    ("jacobian_rings", 0, '"sections": ', '"sections": 1'),
    ("xi_sweep", 61, "mu_kernel: ", "mu_kernel: 1"),  # class
    ("xi_sweep", 62, "total_delta: ", "total_delta: 1"),
    ("xi_sweep", 63, "rank_defect: ", "rank_defect: 1"),
    ("xi_sweep", 109, "PASS ", "FAIL "),
])
def test_verification_catches_tampered_text(cli, workload, index, old, new):
    argv, output = _output(cli, workload, index)
    assert old in output
    assert verify.check(argv, 0, output.replace(old, new, 1))
    assert verify.check(argv, 2, output)


def test_pinned_hash_catches_a_changed_byte(cli):
    class Tampering:
        @staticmethod
        def run_command(argv):
            code, output = cli.run_command(argv)
            return code, output.replace('"curve": ', '"curve":  ', 1)

    bench_run = run.Run("jacobian_rings", 0, 0, limit=1)
    bench_run.warm_up(Tampering)
    assert bench_run.problems == {0: ["output differs from the pinned sha256"]}
    assert bench_run.counts() == (1, 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = result_of(bench("--workload", workload, "--seed", "0", "--seconds", "0",
                                 "--trace", str(trace), "--limit", "1"))
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}
        for m in BENCHMARK[section]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if trace:
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            # Root spans cover each command, so self times add up to the traced wall.
            assert metrics["trace.self_sum_s"] <= metrics["trace.wall_s"]
            assert metrics["trace.wall_s"] - metrics["trace.self_sum_s"] < 0.01


def test_mu_plane_eliminates_two_matrices_three_times():
    result = result_of(bench("--workload", "mu_kernels", "--seconds", "0", "--trace", "1",
                             "--limit", "1"))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["linalg.elim_per_matrix"] == 1.5
    assert metrics["mult.calls"] == 1 and metrics["linalg.kernel_basis.calls"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "xi_sweep", "--seconds", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
