"""Cross-process determinism check of the benchmark's deterministic outputs.

Runs every workload twice, in separate processes, on the development seed
and on the held-out seed from ``workloads.json``, and fails unless the
``deterministic`` line (answer and artifact digests, tree digests, page,
split and hedge counts, simulated latencies) is byte-equal between the
two runs of each seed.  Inside every run, ``run.py`` also repeats a pass
on an input set and checks that it reproduces the first one.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def deterministic_line(workload: str, seed: int) -> str:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    for line in completed.stdout.splitlines():
        if line.startswith("deterministic "):
            return line
    raise RuntimeError(f"{workload} seed {seed}: no deterministic line")


def main() -> int:
    spec = json.loads((HERE / "workloads.json").read_text())
    failures = 0
    for workload in spec["workloads"]:
        for seed in (spec["dev_seed"], spec["holdout_seed"]):
            first = deterministic_line(workload, seed)
            second = deterministic_line(workload, seed)
            same = first == second
            failures += not same
            print(f"{workload:16s} seed {seed}: {'equal' if same else 'DIFFERENT'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
