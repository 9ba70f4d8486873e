"""qgames benchmark: fixed, seeded mixes of qg jobs timed end to end.

Run from the repository root:

  python3 perfbench/run.py --workload play_defeat --seed 1 --seconds 25 --trace 0

Each workload runs in a fresh child process (perfbench/child.py) with a
pinned PYTHONHASHSEED, one job at a time (a closed loop with one client).
The job list is repeated for a number of passes fixed by --seconds
alone, so that two versions of the program always do the same work.
Set-up is timed in SETUP_REPEATS extra set-up-only children, half of
them started before the measuring child and half after it, and in the
measuring child.

The shared host's speed drifts by up to a factor of two within seconds,
so every end-to-end time is scaled to a fixed host speed: the child
times a short fixed pure-Python loop (the probe) before and after every
job and, from an interval timer, during it, and reports each job's time
(probes taken out) multiplied by the probe's nominal time over its mean
measured time.  The times as measured are printed above the JSON line.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of one traced pass (after one untraced pass, for the tracing overhead).
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("play_defeat", "synth_bitarena", "solve_explicit")
# passes in a run of RUN_SECONDS; other --seconds scale them.  A pass
# holds about 7, 3.5 and 11 s of job time at the reference host speed,
# and 10, 5 and 15 s of wall time on the 2-CPU host the benchmark was
# written on.
PASSES = {"play_defeat": 3, "synth_bitarena": 5, "solve_explicit": 2}
RUN_SECONDS = 25
MIN_PASSES = 2
SETUP_REPEATS = 6
HASH_SEED = "0"
CHILD_TIMEOUT_S = 170.0
TAIL_BEYOND = 10

UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
         "top_rung_s": "s", "growth_x2": "x", "peak_rss_mb": "MB",
         "verdict_ok_ratio": "ratio", "conclusive_ratio": "ratio"}
PER_LAYER_UNITS = {"calls": "count", "built": "count", "edges_validated": "count",
                   "steps": "count", "nodes": "count", "inconclusive": "count",
                   "bytes_out": "B", "self_s": "s", "overhead_s": "s",
                   "complete_ratio": "ratio", "ok_ratio": "ratio",
                   "profiles": "count-computed"}


def run_child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py")] + args, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("perfbench: child timed out")
    if proc.returncode != 0:
        raise SystemExit("perfbench: child exited with %d" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def growth_x2(ladder: dict, times: dict) -> float:
    """2**slope of log time on log size, one intercept per ladder series."""
    series: dict = {}
    for name, (s, size) in ladder.items():
        series.setdefault(s, []).append((math.log(size), math.log(times[name])))
    sxy = sxx = 0.0
    for points in series.values():
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        sxy += sum((x - mx) * (y - my) for x, y in points)
        sxx += sum((x - mx) ** 2 for x, _ in points)
    return 2.0 ** (sxy / sxx)


def quantile(values, q: float) -> float:
    """The q-quantile of values, interpolated linearly between ranks."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, list[str]]:
    """The job-time median and tail percentile are taken within each
    pass and the median over the passes is reported; the tail percentile
    is the highest that leaves TAIL_BEYOND job runs beyond it over all
    passes.  The top rung and the growth fit use each job's median over
    the passes."""
    passes = res["passes"]
    medians = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    n = sum(len(p) for p in passes)
    tail_q = max(0.5, 1 - TAIL_BEYOND / n)  # short runs report the median
    verdicts = [v for _, v, _ in res["verdicts"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(p.values()) for p in passes),
        "job_p50_s": statistics.median(quantile(p.values(), 0.5) for p in passes),
        "job_tail_s": statistics.median(quantile(p.values(), tail_q) for p in passes),
        "top_rung_s": medians[res["top"]],
        "growth_x2": growth_x2(res["ladder"], medians),
        "peak_rss_mb": res["peak_rss_mb"],
        "verdict_ok_ratio": 1 - verdicts.count("fail") / len(verdicts),
        "conclusive_ratio": 1 - verdicts.count("inconclusive") / len(verdicts),
    }
    notes = [
        "job_tail_s is p%.1f of %d job runs (%d beyond it), median over %d passes"
        % (100.0 * tail_q, n, round(n * (1 - tail_q)), len(passes)),
        "verdict_fail_ratio %.4f  inconclusive_ratio %.4f  (over %d jobs)"
        % (1 - metrics["verdict_ok_ratio"], 1 - metrics["conclusive_ratio"], len(verdicts)),
        "%d passes; top rung: %s" % (len(passes), res["top"]),
        "as measured: wall_s %.4f s, top_rung_s %.4f s; probe loop %.2f-%.2f ms (median %.2f)"
        % (statistics.median(sum(p.values()) for p in res["raw_passes"]),
           statistics.median(p[res["top"]] for p in res["raw_passes"]),
           1e3 * min(res["speeds"]), 1e3 * max(res["speeds"]), 1e3 * statistics.median(res["speeds"])),
    ]
    return metrics, notes


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qgames" / "__init__.py").is_file():
        print("perfbench: no qgames sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    work = ROOT / ".perfbench_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    passes = 1 if args.trace else max(
        MIN_PASSES, round(PASSES[args.workload] * args.seconds / RUN_SECONDS))
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--passes", str(passes), "--trace", str(args.trace), "--work", str(work)]
    try:
        setup_children = 0 if args.trace else SETUP_REPEATS // 2
        setups = [run_child(child_args + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(setup_children)]
        res = run_child(child_args, deadline)
        setups += [run_child(child_args + ["--setup-only"], deadline)["setup_s"]
                   for _ in range(setup_children)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, verdict, message in res["verdicts"]:
        if verdict != "ok":
            print("%s: %s: %s" % (verdict, name, message))
    if args.trace:
        values = res["per_layer"]
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    else:
        values, notes = end_to_end(res, setups + [res["setup_s"]])
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        for line in notes:
            print(line)
    for k, m in metrics.items():
        print("%-36s %14.6g %s" % (k, m["value"], m["unit"]))
    failed = sum(1 for _, v, _ in res["verdicts"] if v == "fail")
    print(json.dumps({"correct": failed == 0, "attempted": len(res["verdicts"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
