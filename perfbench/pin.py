"""Rewrite pinned.json: the sha256 of every command's output for the pinned seed.

    python3 perfbench/pin.py

Run this only when a change is meant to alter the program's output; the
outputs are checked (verify.py) before anything is written.
"""

from __future__ import annotations

import json
import sys

import run
import verify
import workloads

SEED = 0


def main() -> int:
    cli = run.import_cli().cli
    pins = {"seed": SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        cmds = workloads.commands(name, SEED)
        hashes = []
        for argv in cmds:
            code, output = cli.run_command(list(argv))
            problems = verify.check(argv, code, output)
            if problems:
                print(f"{name}: {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            hashes.append(run.sha256(output))
        pins["workloads"][name] = {"commands_sha256": run.commands_digest(cmds),
                                   "stdout_sha256": hashes}
    run.PINNED.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
