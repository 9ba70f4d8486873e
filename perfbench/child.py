"""One workload run in a fresh process: set-up, the job passes, the
verdict gate, and (with --trace 1) the traced pass.

Usage (normally started by perfbench/run.py):
  python3 perfbench/child.py --workload W --seed N --passes R --trace 0|1
                             --work DIR [--setup-only]

Prints one JSON object as its last stdout line.  Jobs run one at a time
in this process; ``qg`` jobs go through ``qgames.cli.main(argv)``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from before qgames is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import zlib  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OK, FAILED, INCONCLUSIVE = "ok", "fail", "inconclusive"
RANDOM_FM_COUNT = 50
SCHEDULE_LINE = re.compile(r"^\s+m=(\d+) k=(\d+)$")
# what cmd_synthesize prints on stderr when it refuses a losing start
REFUSALS = ("outside the winning region", "outside the winnable region")
CAPPED_M_MAX, CAPPED_NODE_CAP = 14, 20000
CSV_COMMA = re.compile(r",(?![^(]*\))")  # vertex ids like d(1,2) hold commas
# Host speed: the time of a short fixed loop (reference_loop), sampled
# PROBE_AROUND times before and after every job and every PROBE_PERIOD_S
# during it.  Every reported time is scaled to a host on which the loop
# takes PROBE_NOMINAL_S (about its time on the 2-CPU host this benchmark
# was written on, in its fast phases).
PROBE_ITERATIONS, PROBE_AROUND, PROBE_PERIOD_S, PROBE_NOMINAL_S = 300, 5, 0.05, 0.001
SETUP_PROBES = 20


@dataclass
class Job:
    name: str
    argv: Optional[list] = None          # a qg command line, or
    fn: Optional[Callable] = None        # a library call returning its result
    check: Optional[Callable] = None     # (mods, job, outcome) -> (verdict, message)
    series: Optional[str] = None         # ladder series; None when off the ladder
    size: int = 0                        # ladder variable
    expect: Optional[str] = None         # "win" or "lose" for synthesis jobs
    out: Optional[Path] = None           # the --out file of a qg job
    spec: str = ""                       # arena spec of a qg job
    capture: bool = False                # keep what cli.ramsey_adversary returns


@dataclass
class Outcome:
    rc: Optional[int] = None
    stdout: str = ""
    stderr: str = ""
    result: object = None
    captured: list = field(default_factory=list)
    error: Optional[str] = None


# ---------------------------------------------------------------------------
# Host speed


def reference_loop() -> int:
    """A fixed pure-Python workload that calls no qgames code: tuple
    hashing into a dict, Fraction arithmetic, small lists and string
    formatting, the operations the jobs spend their time on."""
    counts: dict = {}
    total = Fraction(0)
    rows = []
    for i in range(PROBE_ITERATIONS):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        total += Fraction(i % 7 - 3, 1 + i % 5)
        rows.append("%d,%d" % (i, sum([j * i for j in range(8)])))
    return len(counts) + len(rows) + total.denominator


def probe() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def scale(took: float, samples: list[float]) -> float:
    """A time taken at the host speed the probe samples show, scaled to
    the reference host speed."""
    return took * PROBE_NOMINAL_S / statistics.fmean(samples)


class ProbedTimer:
    """Times a block and samples the host speed around it and, from a
    SIGALRM interval timer, inside it; the probes run inside the block
    are taken out of its time.  The host's speed drifts within a job,
    so samples from its two ends alone misjudge a long one."""

    def _tick(self, signum, frame) -> None:
        self.inside.append(probe())

    def __enter__(self) -> "ProbedTimer":
        self.samples = [probe() for _ in range(PROBE_AROUND)]
        self.inside: list[float] = []
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        # a tick that fired before the timer stopped runs its handler at
        # the next call, still inside the timed block
        signal.signal(signal.SIGALRM, self.previous)
        self.raw = time.perf_counter() - self.t0 - sum(self.inside)
        self.samples += self.inside + [probe() for _ in range(PROBE_AROUND)]
        self.speed = statistics.fmean(self.samples)
        self.scaled = scale(self.raw, self.samples)
        return False


# ---------------------------------------------------------------------------
# Set-up


def import_qgames():
    src = ROOT / "src"
    if not (src / "qgames" / "__init__.py").is_file():
        raise SystemExit("perfbench: no qgames sources under %s" % src)
    sys.path.insert(0, str(src))
    import qgames
    import qgames.cli  # noqa: F401  (imports every other module)
    if Path(qgames.__file__).resolve().parent != (src / "qgames").resolve():
        raise SystemExit("perfbench: imported qgames from %s, not %s" % (qgames.__file__, src))
    return sys.modules


def random_fm(mods, seed: int, k: int):
    """A seeded finite-memory strategy on a4 with k memory states whose
    update and delay-or-exit choice come from a CRC of their inputs."""
    arena_mod, strategies = mods["qgames.arena"], mods["qgames.strategies"]

    def h(*parts) -> int:
        return zlib.crc32(("|".join(map(str, parts)) + "#%d" % seed).encode())

    def update(m, e):
        return h("u", m, e.src, e.dst, e.weight) % k

    def decide(ar, v, m):
        if v.name != "t":
            return ar.edges(v)[0]
        want = "r0" if h("d", v, m) % 2 else "g"
        return next(e for e in ar.edges(v) if e.dst.name == want)

    return strategies.FiniteMemory(arena_mod.MealyMemory(tuple(range(k)), 0, update),
                                   decide, name="rand%d_k%d" % (seed, k))


def play_defeat_jobs(mods, rng: random.Random, passes: int) -> list[list[Job]]:
    jobs = []
    for h in (1000, 2000, 4000):
        for series, p1 in (("fm", "always_delay"), ("scripted", "sigma_100000")):
            out = Path("sim-%s-%d.csv" % (series, h))
            jobs.append(Job("simulate %s H=%d" % (p1, h), spec="zoo:a4", out=out,
                            argv=["simulate", "--arena", "zoo:a4", "--p1", p1,
                                  "--p2", "p2_enter_1", "--horizon", str(h), "--out", str(out)],
                            check=check_simulate, series=series, size=h))
    for name in ("always_delay", "delay_twice_exit"):
        out = Path("cert-%s.json" % name)
        jobs.append(Job("defeat %s" % name, spec="zoo:a4", out=out, capture=True,
                        argv=["defeat", "--arena", "zoo:a4", "--strategy", name, "--out", str(out)],
                        check=check_defeat))
    strategies = [random_fm(mods, rng.randint(0, 10 ** 6), rng.randint(1, 3))
                  for _ in range(RANDOM_FM_COUNT)]
    jobs.append(Job("ramsey+check on %d random fm" % RANDOM_FM_COUNT,
                    fn=lambda: ramsey_batch(mods, strategies), check=check_batch))
    return [jobs] * passes


def synth_bitarena_jobs(mods, rng: random.Random, passes: int) -> list[list[Job]]:
    jobs = []
    for m_max in (10, 12, 14, 16):
        out = Path("bit-%d.strategy" % m_max)
        jobs.append(Job("synthesize bitarena M=%d" % m_max, spec="zoo:bitarena", out=out,
                        argv=["synthesize", "--arena", "zoo:bitarena", "--objective",
                              "tp:limsup:>=:0", "--m-max", str(m_max), "--out", str(out)],
                        check=check_synthesis, series="sc1bit", size=m_max, expect="win"))
    jobs.append(Job("synthesize bitarena M=%d node cap %d" % (CAPPED_M_MAX, CAPPED_NODE_CAP),
                    fn=lambda: capped_sc1bit(mods, CAPPED_M_MAX, CAPPED_NODE_CAP),
                    check=check_capped))
    return [jobs] * passes


def solve_explicit_jobs(mods, rng: random.Random, passes: int) -> list[list[Job]]:
    """Per pass and cell, one pool arena of each verdict class the cell
    holds (winning and losing start), so every pass runs the same mix;
    pass p takes the class's entry (offset + p) mod class size, the
    offsets drawn from the seed."""
    pool = json.loads((HERE / "pool.json").read_text())
    parse_ext = mods["qgames.objectives"].parse_ext
    classes = []
    for cell, entries in sorted(pool.items()):
        for expect in ("win", "lose"):
            members = [e for e in entries
                       if (parse_ext(e["start_value"]) >= 0) == (expect == "win")]
            if members:
                classes.append((cell, expect, members, rng.randrange(len(members))))
    per_pass = []
    for p in range(passes):
        jobs = []
        for cell, expect, members, offset in classes:
            kind, n, w = cell.split("-")
            stem = "%s-%s-p%d" % (cell, expect, p)
            path, out = Path(stem + ".arena"), Path(stem + ".strategy")
            path.write_text(members[(offset + p) % len(members)]["arena"])
            argv = ["synthesize", "--arena", str(path), "--objective", "%s:limsup:>=:0" % kind,
                    "--m-max", "4", "--out", str(out)]
            jobs.append(Job("synthesize %s %s" % (cell, expect), argv=argv, spec=str(path),
                            out=out, check=check_synthesis, expect=expect,
                            series="%s-%s-%s" % (kind, w, expect) if kind == "mp" else None,
                            size=int(n[1:])))
        per_pass.append(jobs)
    return per_pass


WORKLOADS = {
    # name: (job lists per pass, zoo entries built in set-up, top-rung job name)
    "play_defeat": (play_defeat_jobs, ("a4",), "simulate sigma_100000 H=4000"),
    "synth_bitarena": (synth_bitarena_jobs, ("bitarena",), "synthesize bitarena M=16"),
    "solve_explicit": (solve_explicit_jobs, (), "synthesize mp-n12-w6 win"),
}


def setup(workload: str, seed: int, work: Path, passes: int):
    mods = import_qgames()
    make_jobs, entries, top = WORKLOADS[workload]
    for name in entries:
        mods["qgames.zoo"].make(name)
    rng = random.Random(seed)
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)  # relative artifact paths keep the jobs' output byte counts fixed
    per_pass = make_jobs(mods, rng, passes)
    ordered = []
    for jobs in per_pass:  # a new order in every pass, so no run depends on one order
        ordered.append(rng.sample(jobs, len(jobs)))
    return mods, ordered, top


# ---------------------------------------------------------------------------
# Library jobs (inputs the qg command line cannot express)


def ramsey_batch(mods, strategies):
    zoo, adversaries, engine = mods["qgames.zoo"], mods["qgames.adversaries"], mods["qgames.engine"]
    out = []
    for sigma in strategies:
        entry = zoo.make("a4")
        _, result = adversaries.ramsey_adversary(sigma, entry, window=400)
        cert = result.certificate
        check = None if cert is None else engine.check_certificate(
            cert, {"arena": entry.arena, "v0": entry.start, "sigma1": sigma, "sigma2": result.p2})
        out.append((sigma.name, cert, check))
    return out


def capped_sc1bit(mods, m_max: int, node_cap: int):
    zoo, synthesis = mods["qgames.zoo"], mods["qgames.synthesis"]
    entry = zoo.make("bitarena")
    oracle = synthesis.WPrimeOracle(entry.wprime, entry.strategies["safe"],
                                    entry.extras["winning_from"])
    return entry, synthesis.sc1bit_synthesize(entry.arena, entry.start, m_max, oracle,
                                              depth_cap=200, node_cap=node_cap)


# ---------------------------------------------------------------------------
# Running jobs


def run_job(mods, job: Job) -> Outcome:
    outcome = Outcome()
    if job.fn is not None:
        outcome.result = job.fn()
        return outcome
    cli = mods["qgames.cli"]
    restore = None
    if job.capture:
        inner = restore = cli.ramsey_adversary

        def capturing(*args, **kwargs):
            result = inner(*args, **kwargs)
            outcome.captured.append((args, result))
            return result

        cli.ramsey_adversary = capturing
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome.rc = cli.main(job.argv)
    finally:
        if restore is not None:
            cli.ramsey_adversary = restore
    outcome.stdout, outcome.stderr = out.getvalue(), err.getvalue()
    return outcome


def run_pass(mods, jobs: list[Job]):
    """Runs each job, then judges it and drops its outcome, untimed, so
    that every job starts from the same heap whatever ran before it.
    Returns the job times as measured, the same scaled to the reference
    host speed, the mean probe time of each job, the verdicts, and the
    bytes the jobs wrote."""
    raw, scaled, speeds, verdicts, written = {}, {}, [], [], 0
    for job in jobs:
        if job.out is not None:
            job.out.unlink(missing_ok=True)  # the gate must not read an earlier pass's file
        gc.collect()  # every job starts from a collected heap, as in a fresh qg process
        with ProbedTimer() as timer:
            try:
                outcome = run_job(mods, job)
            except Exception as exc:  # a crash is a failed verdict, not a benchmark error
                outcome = Outcome(error="%s: %s" % (type(exc).__name__, exc))
        raw[job.name], scaled[job.name] = timer.raw, timer.scaled
        speeds.append(timer.speed)
        verdicts.append((job.name,) + judge(mods, job, outcome))
        written += bytes_out(job, outcome)
        del outcome  # not alive while the next job runs
    return raw, scaled, speeds, verdicts, written


def judge(mods, job: Job, outcome: Outcome) -> tuple[str, str]:
    if outcome.error is not None:
        return FAILED, "raised " + outcome.error
    try:
        return job.check(mods, job, outcome)
    except Exception as exc:  # an unreadable artifact fails the job
        return FAILED, "check raised %s: %s" % (type(exc).__name__, exc)


def bytes_out(job: Job, outcome: Outcome) -> int:
    written = len(outcome.stdout.encode()) + len(outcome.stderr.encode())
    if job.out is not None and job.out.exists():
        written += job.out.stat().st_size
    return written


# ---------------------------------------------------------------------------
# The verdict gate: each job against its committed expected answer


def load_arena(mods, spec: str):
    if spec.startswith("zoo:"):
        entry = mods["qgames.zoo"].parse_uri(spec)
        return entry.arena, entry.start
    arena = mods["qgames.cli"].parse_arena(Path(spec).read_text())
    return arena, arena.start


def check_simulate(mods, job: Job, outcome: Outcome):
    """a4 known-good data: both player-1 strategies delay at every
    decision vertex within these horizons, so the play never reaches the
    r0 sink and has exactly H steps along a4's edges."""
    if outcome.rc != 0:
        return FAILED, "exit %s: %s" % (outcome.rc, outcome.stderr.strip())
    arena_mod = mods["qgames.arena"]
    arena, start = load_arena(mods, job.spec)
    lines = job.out.read_text().splitlines()
    cols = CSV_COMMA.split(lines[0])
    at, tp = start, Fraction(0)
    for line in lines[1:]:
        row = dict(zip(cols, CSV_COMMA.split(line)))
        src, dst = arena_mod.VertexId.parse(row["from"]), arena_mod.VertexId.parse(row["to"])
        edge = arena_mod.Edge(src, Fraction(row["weight"]), dst)
        tp += edge.weight
        if src != at or edge not in arena.edges(src) or Fraction(row["tp"]) != tp:
            return FAILED, "step %s is not a continuation of the play" % row["step"]
        if src.name == "t" and dst.name != "g":
            return FAILED, "player 1 exits at step %s" % row["step"]
        at = dst
    if len(lines) - 1 != job.size:
        return FAILED, "%d steps, expected %d" % (len(lines) - 1, job.size)
    return OK, "%d steps, tp %s" % (job.size, tp)


def check_defeat(mods, job: Job, outcome: Outcome):
    """a4 known-good data: every finite-memory strategy is defeated, and
    the written certificate re-checks against the in-memory opponent."""
    if outcome.rc == 2:
        return INCONCLUSIVE, outcome.stdout.strip().splitlines()[-1]
    if outcome.rc != 0:
        return FAILED, "exit %s: %s" % (outcome.rc, outcome.stderr.strip())
    if len(outcome.captured) != 1:
        return FAILED, "the defeat did not go through ramsey_adversary once"
    args, (_, result) = outcome.captured[0]
    sigma, entry = args[:2]
    engine = mods["qgames.engine"]
    cert = engine.certificate_from_json(job.out.read_text())
    check = engine.check_certificate(cert, {"arena": entry.arena, "v0": entry.start,
                                            "sigma1": sigma, "sigma2": result.p2})
    if not check.ok:
        return FAILED, "certificate re-check: %s" % "; ".join(check.diagnostics)
    return OK, type(cert).__name__


def check_batch(mods, job: Job, outcome: Outcome):
    """Every random finite-memory strategy is defeated with a certificate
    the checker accepts (a4 known-good data, acceptance criterion 04)."""
    engine = mods["qgames.engine"]
    for name, cert, check in outcome.result:
        if cert is None or check is None or not check.ok:
            return FAILED, "%s: no accepted certificate" % name
        if isinstance(cert, engine.EarlyExitNegative) and not cert.final_tp < 0:
            return FAILED, "%s: early exit with total %s" % (name, cert.final_tp)
    return OK, "%d strategies defeated" % len(outcome.result)


def recertify(mods, arena, start, strategy, schedule, objective: str, m_max: int):
    """Re-check every (m, k_m) level of a synthesized strategy, after
    checking that the schedule has m_max levels with increasing k_m."""
    ks = [k for _, k in schedule]
    if len(schedule) != m_max or any(a >= b for a, b in zip(ks, ks[1:])):
        return FAILED, "schedule %s is not %d levels with increasing k" % (schedule, m_max)
    engine, objectives = mods["qgames.engine"], mods["qgames.objectives"]
    subs = objectives.decompose(objectives.parse_objective(objective)).sub
    check = engine.check_certificate(engine.LevelSatisfaction(list(schedule)),
                                     {"arena": arena, "v0": start, "sigma1": strategy,
                                      "subs": subs})
    if not check.ok:
        return FAILED, "level re-check: %s" % "; ".join(check.diagnostics)
    return OK, "%d levels re-certified" % len(schedule)


def check_synthesis(mods, job: Job, outcome: Outcome):
    """Exit 0 only on a winning start, with a strategy file that parses
    back and re-certifies; exit 1 only on a losing start that the solver
    refused as outside the winning region; exit 2 counts as inconclusive."""
    if outcome.rc == 2:
        return INCONCLUSIVE, outcome.stdout.strip().splitlines()[-1]
    if outcome.rc == 1:
        if job.expect != "lose":
            return FAILED, "exit 1 on a winning start: %s%s" % (outcome.stdout.strip()[-200:],
                                                              outcome.stderr.strip())
        if not any(refusal in outcome.stderr for refusal in REFUSALS):
            return FAILED, "exit 1 without refusing the start: %s%s" % (
                outcome.stdout.strip()[-200:], outcome.stderr.strip())
        return OK, "refuted"
    if outcome.rc != 0:
        return FAILED, "exit %s" % outcome.rc
    if job.expect != "win":
        return FAILED, "certified a losing start"
    schedule = [(int(m.group(1)), int(m.group(2)))
                for m in map(SCHEDULE_LINE.match, outcome.stdout.splitlines()) if m]
    strategy = mods["qgames.strategies"].parse_strategy(job.out.read_text())
    arena, start = load_arena(mods, job.spec)
    objective = job.argv[job.argv.index("--objective") + 1]
    m_max = int(job.argv[job.argv.index("--m-max") + 1])
    return recertify(mods, arena, start, strategy, schedule, objective, m_max)


def check_capped(mods, job: Job, outcome: Outcome):
    entry, report = outcome.result
    if report.certified:
        return recertify(mods, entry.arena, entry.start, report.strategy, report.schedule,
                         "tp:limsup:>=:0", CAPPED_M_MAX)
    if report.failure:
        return INCONCLUSIVE, report.failure
    return FAILED, "not certified on a winning start"


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    mods, per_pass, top = setup(args.workload, args.seed, Path(args.work), args.passes)
    setup_s = time.perf_counter() - T_START
    setup_s = scale(setup_s, [probe() for _ in range(SETUP_PROBES)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes, raw_passes, speeds, verdicts = [], [], [], []
    for jobs in per_pass:
        raw, times, pass_speeds, pass_verdicts, _ = run_pass(mods, jobs)
        verdicts += pass_verdicts
        passes.append(times)
        raw_passes.append(raw)
        speeds += pass_speeds
    result = {"setup_s": setup_s, "passes": passes, "raw_passes": raw_passes, "speeds": speeds,
              "verdicts": verdicts, "top": top,
              "ladder": {j.name: [j.series, j.size] for j in per_pass[0] if j.series}}

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            _, times, _, pass_verdicts, written = run_pass(mods, per_pass[0])
            verdicts += pass_verdicts
        finally:
            tracer.remove()
        layers = tracer.metrics()
        layers["cli.bytes_out"] = written
        layers["trace.overhead_s"] = sum(times.values()) - sum(passes[0].values())
        result["per_layer"] = layers
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
