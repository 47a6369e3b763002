"""Benchmark of the `ivhs` command line, driven in process.

    python3 perfbench/run.py --workload mu_kernels --seed 0 --seconds 25 --trace 0

`ivhs` is pure Python: the benchmark imports it from `src/` of the
checkout that holds this file, and builds nothing. One closed-loop
client in one thread sends the workload's commands (workloads.py) to
`ivhs.cli.run_command`, the function `ivhs` calls from `main`, each only
after the previous one returned. A run:

1. times set-up: starts a fresh interpreter SETUP_SAMPLES times and
   takes the time from its start to `ivhs.cli` imported (median);
2. runs one warm-up pass and checks its outputs (verify.py, and the
   pinned sha256 of every output for the pinned seed);
3. repeats timed passes until --seconds have elapsed since the warm-up
   began; every output must hash equal to the warm-up's. With --trace 1
   untraced and traced passes alternate, and the traced ones give the
   per-layer metrics (spans.py); spans are written to perfbench/out/.

End-to-end times are in reference seconds (see `reference`): the speed
of the shared hosts this runs on drifts by up to 2x within minutes, for
all CPU work alike, so each timed command is bracketed by a fixed
pure-Python computation that does not use ivhs, and its seconds are
multiplied by REFERENCE_CALL_S / (the mean per-call time of the two
brackets). A change to ivhs moves a scaled time as much as the raw one.
Raw seconds are printed with the record. Per-layer self times are scaled
by the factor of the command they belong to.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` (command executions) and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import verify
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINNED = HERE / "pinned.json"
SETUP_SAMPLES = 15
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import ivhs.cli; "
              "print(time.perf_counter())")

_rng = random.Random(1)
REFERENCE_MATRIX = [[Fraction(_rng.randint(-9, 9)) for _ in range(14)] for _ in range(12)]
REFERENCE_CALL_S = 0.0035  # one exact rank of REFERENCE_MATRIX on an unloaded host
REFERENCE_SHARE = 0.1      # bracket length as a share of the command it brackets
REFERENCE_MAX_CALLS = 60
SETUP_BRACKET_CALLS = 10

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s", "cmd_p90_s": "s",
                    "peak_rss_mb": "MB", "output_bytes": "B"}


class BenchmarkError(Exception):
    """The benchmark cannot run here (no source tree, failed import)."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def commands_digest(cmds: list[list[str]]) -> str:
    return sha256(json.dumps(cmds))


def reference(calls: int) -> float:
    """Mean seconds per exact rank of REFERENCE_MATRIX over `calls` calls, GC off."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(calls):
            verify.exact_rank(REFERENCE_MATRIX)
        return (time.perf_counter() - start) / calls
    finally:
        gc.enable()


def bracket_calls(latency: float) -> int:
    """Reference calls to bracket a command of `latency` seconds with."""
    return max(1, min(REFERENCE_MAX_CALLS, round(REFERENCE_SHARE * latency / REFERENCE_CALL_S)))


def factors(refs: list[float]) -> list[float]:
    """Reference seconds per second for each command; refs[i], refs[i + 1] bracket command i."""
    return [REFERENCE_CALL_S * 2 / (a + b) for a, b in zip(refs, refs[1:])]


def scaled(latencies: list[float], refs: list[float]) -> list[float]:
    return [x * f for x, f in zip(latencies, factors(refs))]


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Seconds from a fresh interpreter's start to `ivhs.cli` imported, and brackets.

    The first start only warms the file cache and is discarded. No
    bytecode cache is written (see main), so every start compiles ivhs from
    source. CLOCK_MONOTONIC (time.perf_counter) is shared by parent and
    child.
    """
    times, refs = [], []
    for i in range(samples + 1):
        if i:
            refs.append(reference(SETUP_BRACKET_CALLS))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchmarkError(f"importing ivhs.cli failed:\n{proc.stderr}")
        if i:
            times.append(float(proc.stdout) - start)
    refs.append(reference(SETUP_BRACKET_CALLS))
    return times, refs


def import_cli():
    if not (SRC / "ivhs" / "cli.py").is_file():
        raise BenchmarkError(f"no ivhs source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import ivhs
    import ivhs.cli
    if SRC.resolve() not in Path(ivhs.__file__).resolve().parents:
        raise BenchmarkError(f"imported ivhs from {ivhs.__file__}, not from {SRC}")
    return ivhs


def commit_of(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """One workload's commands, their checks and the count of failed executions."""

    def __init__(self, workload: str, seed: int, seconds: float, limit: int | None):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        full = workloads.commands(workload, seed)
        self.cmds = full[:limit] if limit else full
        self.problems: dict[int, list[str]] = {}
        self.executions = [0] * len(self.cmds)
        self.mismatches = 0
        self.expected: list[str] = []   # output sha256 per command
        self.brackets: list[int] = []   # reference calls before each command, and after
        self.output_bytes = 0
        pins = json.loads(PINNED.read_text())
        self.pinned = None
        if seed == pins["seed"]:
            entry = pins["workloads"][workload]
            if entry["commands_sha256"] != commands_digest(full):
                raise BenchmarkError("the generator no longer gives the pinned commands")
            self.pinned = entry["stdout_sha256"]

    def warm_up(self, cli) -> None:
        """Run and check one pass; later passes must reproduce its output hashes."""
        gc.collect()
        for i, argv in enumerate(self.cmds):
            start = time.perf_counter()
            code, output = cli.run_command(list(argv))
            self.brackets.append(bracket_calls(time.perf_counter() - start))
            self.executions[i] += 1
            problems = verify.check(argv, code, output)
            digest = sha256(output)
            if self.pinned is not None and digest != self.pinned[i]:
                problems.append("output differs from the pinned sha256")
            if problems:
                self.problems[i] = problems
            self.expected.append(digest)
            self.output_bytes += len(output.encode())
        self.brackets.append(self.brackets[-1])

    def timed_pass(self, cli, tracer=None, pass_no=0, bracket=False):
        """One closed-loop pass: latencies, and the reference brackets when asked."""
        gc.collect()
        latencies, refs = [], []
        for i, argv in enumerate(self.cmds):
            if bracket:
                refs.append(reference(self.brackets[i]))
            if tracer is not None:
                tracer.begin_command(pass_no, i)
            start = time.perf_counter()
            code, output = cli.run_command(list(argv))
            latencies.append(time.perf_counter() - start)
            self.executions[i] += 1
            if code != 0 or sha256(output) != self.expected[i]:
                self.mismatches += 1
        if bracket:
            refs.append(reference(self.brackets[-1]))
        return latencies, refs

    def counts(self) -> tuple[int, int]:
        attempted = sum(self.executions)
        failed = sum(self.executions[i] for i in self.problems) + self.mismatches
        return attempted, min(failed, attempted)


def end_to_end(run: Run, cli) -> tuple[dict[str, float], dict]:
    setup_raw, setup_refs = measure_setup(SETUP_SAMPLES)
    setup = scaled(setup_raw, setup_refs)
    deadline = time.perf_counter() + run.seconds
    run.warm_up(cli)
    raw, passes = [], []
    while not passes or time.perf_counter() < deadline:
        latencies, refs = run.timed_pass(cli, bracket=True)
        raw.append(latencies)
        passes.append(scaled(latencies, refs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # A command's latency is its median over the passes; percentiles run over commands.
    latencies = [statistics.median(cmd) for cmd in zip(*passes)]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(p) for p in passes),
        "cmd_p50_s": statistics.median(latencies),
        "cmd_p90_s": percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb,
        "output_bytes": run.output_bytes,
    }
    detail = {"setup_samples": len(setup), "passes": len(passes),
              "raw_setup_s": statistics.median(setup_raw),
              "raw_wall_s": statistics.median(sum(p) for p in raw)}
    return metrics, detail


def per_layer(run: Run, cli, ivhs) -> tuple[dict[str, float], dict]:
    deadline = time.perf_counter() + run.seconds
    run.warm_up(cli)
    tracer = spans.Tracer(ivhs)
    untraced, traced, layers, recorded = [], [], [], []
    while not traced or time.perf_counter() < deadline:
        untraced.append(sum(scaled(*run.timed_pass(cli, bracket=True))))
        tracer.install()
        try:
            latencies, refs = run.timed_pass(cli, tracer, len(traced), bracket=True)
        finally:
            tracer.uninstall()
        traced.append(sum(scaled(latencies, refs)))
        pass_spans = tracer.take()
        layers.append(spans.layer_metrics(pass_spans, factors(refs)))
        recorded.extend(pass_spans)
    OUT.mkdir(exist_ok=True)
    spans.write(recorded, OUT / f"spans-{run.workload}-seed{run.seed}.jsonl")
    metrics = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    detail = {"passes": len(untraced), "traced_passes": len(traced), "spans": len(recorded)}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="run only the first N commands (smoke tests)")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # set-up time must not depend on earlier runs
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the commands, their reference brackets and the set-up children.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        run = Run(args.workload, args.seed, args.seconds, args.limit)
        ivhs = import_cli()
        if args.trace:
            metrics, detail = per_layer(run, ivhs.cli, ivhs)
            units = {k: spans.unit(k) for k in metrics}
        else:
            metrics, detail = end_to_end(run, ivhs.cli)
            units = END_TO_END_UNITS
    except BenchmarkError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    attempted, failed = run.counts()
    record = {
        "commit": commit_of(ROOT), "python": platform.python_version(),
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commands": len(run.cmds),
        "pinned_hashes_checked": run.pinned is not None, **detail,
    }
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    for i, problems in sorted(run.problems.items()):
        print(f"FAIL command {i} {' '.join(run.cmds[i])}: {'; '.join(problems)}")
    print("record " + json.dumps(record, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    if not args.trace:
        p90_note = "" if len(run.cmds) >= 100 else ", fewer than 100: p90 is indicative"
        print(f"  cmd_p50_s and cmd_p90_s over {len(run.cmds)} commands{p90_note}, "
              f"each the median of {detail['passes']} passes")
    print(f"  fail_ratio {failed / attempted:.6g} ({failed} of {attempted} executions)")
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, **result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
