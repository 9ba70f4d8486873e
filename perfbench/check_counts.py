"""The benchmark's own test: per-layer counts must repeat exactly.

Runs the traced pass of each workload twice under the pinned hash seed
and once under a second hash seed, and compares every count metric
(everything the tracer reports except times).  Exits 1 if two runs under
the pinned seed disagree; a difference under the second hash seed is
reported but does not fail the check.

Run from the repository root:  python3 perfbench/check_counts.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import HASH_SEED, ROOT, WORKLOADS, per_layer_unit  # noqa: E402

SEED = 1  # the workload seed of the traced passes
SECOND_HASH_SEED = "12345"


def traced_counts(workload: str, hash_seed: str) -> dict:
    work = ROOT / ".perfbench_work" / ("counts-%s-%s-%d" % (workload, hash_seed, os.getpid()))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(SEED),
             "--passes", "1", "--trace", "1", "--work", str(work)],
            cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    layers = json.loads(proc.stdout.strip().splitlines()[-1])["per_layer"]
    return {k: v for k, v in layers.items() if per_layer_unit(k) != "s"}


def diff(a: dict, b: dict) -> list[str]:
    return ["%s: %s vs %s" % (k, a[k], b[k]) for k in sorted(a) if a[k] != b[k]]


def main() -> int:
    failed = False
    for workload in WORKLOADS:
        first = traced_counts(workload, HASH_SEED)
        again = traced_counts(workload, HASH_SEED)
        other = traced_counts(workload, SECOND_HASH_SEED)
        mismatch, hash_dependent = diff(first, again), diff(first, other)
        failed = failed or bool(mismatch)
        print("%s: %d count metrics; repeat under PYTHONHASHSEED=%s: %s; under %s: %s"
              % (workload, len(first), HASH_SEED, "exact" if not mismatch else "DIFFERENT",
                 SECOND_HASH_SEED, "exact" if not hash_dependent else "different"))
        for line in mismatch + hash_dependent:
            print("  " + line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
