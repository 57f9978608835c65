#!/usr/bin/env python3
"""Self-test of the benchmark's seeding and counters.

    python3 perfbench/selftest.py

For every workload it checks that one seed always gives the same operation
list and another seed a different one, and that two traced runs of the same
seed report identical counts.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

BLOCKS = 3
# per-layer metrics that are counts of work, not times
TIMED_UNITS = ("s",)
UNCOUNTED = ("trace.overhead",)


def op_list(workload: str, seed: int) -> list[tuple]:
    return [op for block in itertools.islice(workloads.blocks(workload, seed), BLOCKS) for op in block]


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--trace", "1", "--blocks", "2",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=HERE.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: traced run failed: {proc.stderr.strip()[-500:]}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] not in TIMED_UNITS and k not in UNCOUNTED}


def main() -> int:
    failures = 0
    for workload in WORKLOADS:
        checks = {
            "same seed, same operations": op_list(workload, 7) == op_list(workload, 7),
            "other seed, other operations": op_list(workload, 7) != op_list(workload, 8),
            "same seed, same counts": traced_counts(workload, 7) == traced_counts(workload, 7),
        }
        for name, ok in checks.items():
            print(f"{'PASS' if ok else 'FAIL'} [{workload}] {name}")
            failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
