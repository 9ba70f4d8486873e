"""Byte identity of ``qg`` output, as a committed corpus of jobs.

Each job is a short list of ``qg`` command lines run in-process through
``cli.main`` in a fresh directory, which holds the job's input files and a
``data`` link to ``tests/data``.  A job's digest is the sha256 of every
step's exit code, stdout and stderr, then of every file the directory holds
afterwards.  ``tests/data/identity.json`` keeps the digest of every job,
keyed by its id.

Each step runs with the cyclic collector off and ``gc.DEBUG_SAVEALL`` set,
as a ``qg`` job runs with the collector off (``cli.main``), so what it
leaves in reference cycles is kept for a look: a job fails if that holds
an instance of a ``qgames`` class or anything besides the closures of one
``json.dumps(indent=2)`` call, which hold each other.

The corpus:
- ``qg synthesize --out`` on the 80 benchmark pool arenas, each with its
  cell's family (mp or tp), at r in {-1, 0, 1, -1/2} and ``--m-max`` 4 and
  8; the printed schedule goes to ``qg verify --objective`` as a
  ``LevelSatisfaction`` certificate;
- ``zoo:bitarena`` at ``--m-max`` 16, 64 and 256, verified the same way, and
  the 64-level schedule reversed, with a level repeated, with its last
  level one too low, with a level at k = 3, and under small ``QG_NODE_CAP``
  values;
- ``qg synthesize`` on every zoo entry, and on bitarena with objectives it
  refuses;
- ``qg defeat --out`` with every player-1 strategy of every entry and every
  ``tests/data/inconclusive`` and ``zoo_p2`` file, at ``--horizon`` 2, 5,
  20 and 200; each buchib certificate goes to ``qg verify --p2 pad_1``;
- ``qg simulate`` on every pair of each entry's strategies;
- ``qg validate --depth 30`` and ``qg zoo export --depth 6`` on every entry;
- ``qg bench`` at 20 and 60, ``qg zoo list`` and README's command lines;
- ``qg verify`` of every file of ``tests/data/certificates`` on a loop.

Run ``PYTHONPATH=src python tests/identity.py`` to check every job (the
default; it names each job whose digest changed or that left reference
cycles, with the first type it found there, and exits 1 if one did),
or with ``--write`` to regenerate the digests.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import types
from pathlib import Path

from qgames import cli, zoo

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"
DIGESTS = DATA / "identity.json"
POOL = TESTS.parent / "perfbench" / "pool.json"

# a loops with weight w or leaves for b at -1, and b returns at once
LOOP = ("vertex a owner=1\nvertex b owner=2\nedge a b weight=-1\nedge a a weight=%s\n"
        "edge b a weight=0\nstart a\n")
LOOP_P1 = "strategy loop kind=memoryless\nmove a -> a weight=%s\n"

# the zoo URIs the defeat, simulate, validate and export jobs run on
URIS = ["zoo:%s" % name for name in zoo.names()] + ["zoo:a1prime?b=1", "zoo:buchib?b=1"]

# the player-2 zoo strategies of the factories, at an index each
FACTORY_P2 = {"a2": ["p2_pick_1"], "a3": ["p2_enter_1"], "a4": ["p2_enter_1"],
              "a4guarded": ["p2_enter_1"]}


def _job(steps, files=None):
    return {"steps": steps, "files": files or {}}


def _synthesize_and_verify(arena, objective, m_max, depth=None, files=None):
    deep = [] if depth is None else ["--depth", str(depth)]
    return _job([["synthesize", "--arena", arena, "--objective", objective, "--m-max", str(m_max)]
                 + deep + ["--out", "s.strategy"],
                 ["levels"],
                 ["verify", "--arena", arena, "--p1", "s.strategy", "--objective", objective,
                  "--cert", "levels.json"]], files)


def _pool_jobs():
    pool = json.loads(POOL.read_text())
    for cell, members in sorted(pool.items()):
        family = cell.split("-")[0]
        for index, member in enumerate(members):
            for r in ("-1", "0", "1", "-1/2"):
                for m_max in (4, 8):
                    yield ("pool %s-%d %s>=%s m-max=%d" % (cell, index, family, r, m_max),
                           _synthesize_and_verify("arena.txt", "%s:limsup:>=:%s" % (family, r),
                                                  m_max, files={"arena.txt": member["arena"]}))


def _bitarena_jobs():
    objective = "tp:limsup:>=:0"
    for m_max, depth in ((16, 400), (64, 400), (256, 1100)):
        yield ("bitarena m-max=%d" % m_max,
               _synthesize_and_verify("zoo:bitarena", objective, m_max, depth))
    synthesize, _, verify = _synthesize_and_verify("zoo:bitarena", objective, 64, 400)["steps"]
    for change in ("reversed", "repeated", "lowered", "early"):
        yield ("bitarena m-max=64 levels %s" % change,
               _job([synthesize, ["levels", change], verify]))
    for cap in (20, 50, 117, 500):
        yield ("bitarena m-max=64 QG_NODE_CAP=%d" % cap,
               _job([synthesize, ["levels"], ["env", "QG_NODE_CAP", str(cap)], verify]))


def _refusal_jobs():
    for uri in URIS:
        yield ("synthesize %s" % uri,
               _job([["synthesize", "--arena", uri, "--objective", "tp:limsup:>=:0",
                      "--m-max", "2"]]))
    for objective in ("tp:limsup:>:0", "tp:limsup:>=:1", "mp:limsup:>=:0", "tp:liminf:>=:0",
                      "buchi-all:2", "tp:limsup:>=:x"):
        yield ("synthesize zoo:bitarena %s" % objective,
               _job([["synthesize", "--arena", "zoo:bitarena", "--objective", objective]]))


def _player(entry, name):
    return entry.strategy(name).player


def _defeat_jobs():
    files = sorted("data/%s/%s" % (folder, path.name) for folder in ("inconclusive", "zoo_p2")
                   for path in (DATA / folder).iterdir())
    for uri in URIS:
        entry = zoo.parse_uri(uri)
        own = [name for name in sorted(entry.strategies) if _player(entry, name) == 1]
        for strategy in own + files:
            for horizon in (2, 5, 20, 200):
                steps = [["defeat", "--arena", uri, "--strategy", strategy,
                          "--horizon", str(horizon), "--out", "cert.json"]]
                if entry.name == "buchib":
                    steps.append(["verify", "--arena", uri, "--p1", strategy, "--p2", "pad_1",
                                  "--cert", "cert.json"])
                yield "defeat %s %s --horizon %d" % (uri, strategy, horizon), _job(steps)


def _simulate_jobs():
    for uri in URIS:
        entry = zoo.parse_uri(uri)
        names = sorted(entry.strategies)
        p1s = [name for name in names if _player(entry, name) == 1]
        p2s = ([name for name in names if _player(entry, name) == 2]
               + FACTORY_P2.get(entry.name, []) + ["data/zoo_p2/idle.strategy"])
        for p1 in p1s:
            for p2 in p2s:
                yield ("simulate %s %s %s" % (uri, p1, p2),
                       _job([["simulate", "--arena", uri, "--p1", p1, "--p2", p2,
                              "--horizon", "60", "--out", "play.csv"]]))


def _zoo_jobs():
    for uri in URIS:
        yield "validate %s" % uri, _job([["validate", "--arena", uri, "--depth", "30"]])
        yield "zoo export %s" % uri, _job([["zoo", "export", "--arena", uri, "--depth", "6"]])
    for horizon in (20, 60):
        yield "bench --horizon %d" % horizon, _job([["bench", "--horizon", str(horizon)]])
    yield "zoo list", _job([["zoo", "list"]])
    # README's command lines
    yield "readme zoo export a4 800", _job([["zoo", "export", "--arena", "zoo:a4",
                                             "--depth", "800"]])
    yield "readme simulate a4 4000", _job([["simulate", "--arena", "zoo:a4", "--p1",
                                            "always_delay", "--p2", "p2_enter_1",
                                            "--horizon", "4000"]])
    yield "readme defeat a4", _job([["defeat", "--arena", "zoo:a4", "--strategy",
                                     "delay_twice_exit"]])


def _certificate_jobs():
    for path in sorted((DATA / "certificates").iterdir()):
        for w in ("0", "-1", "1"):
            for objective in (None, "tp:limsup:>=:0", "tp:limsup:>=:+inf", "buchi-all:2"):
                argv = ["verify", "--arena", "loop.txt", "--p1", "loop.strategy",
                        "--p2", "data/zoo_p2/idle.strategy", "--cert",
                        "data/certificates/%s" % path.name]
                yield ("verify %s w=%s %s" % (path.stem, w, objective),
                       _job([argv + (["--objective", objective] if objective else [])],
                            {"loop.txt": LOOP % w, "loop.strategy": LOOP_P1 % w}))


def jobs() -> dict:
    """Every job of the corpus, by id."""
    corpus = {}
    for make in (_pool_jobs, _bitarena_jobs, _refusal_jobs, _defeat_jobs, _simulate_jobs,
                 _zoo_jobs, _certificate_jobs):
        for job_id, job in make():
            assert job_id not in corpus, job_id
            corpus[job_id] = job
    return corpus


def _levels(stdout: str, change=None) -> str:
    """The schedule ``qg synthesize`` printed, as a LevelSatisfaction
    certificate, changed as named."""
    levels = [[int(word[2:]) for word in line.split()] for line in stdout.splitlines()
              if line.startswith("  m=")]
    if change == "reversed":
        levels.reverse()
    elif change == "repeated":
        levels.insert(len(levels) // 2, levels[len(levels) // 3])
    elif change == "lowered":
        levels[-1][1] -= 1
    elif change == "early":  # k below the last level's step index
        levels.append([levels[-1][0], 3])
    return json.dumps({"schema": "qg-cert/1", "variant": "LevelSatisfaction",
                       "body": {"levels": levels}}, indent=2, sort_keys=True) + "\n"


def _cycle(garbage):
    """The type of the first instance of a ``qgames`` class in ``garbage``,
    else of the first object outside the closures of
    ``json.dumps(indent=2)``, which hold each other for the length of one
    call; None if there is neither."""
    held = {id(obj) for obj in garbage}
    todo = [obj for obj in garbage
            if isinstance(obj, types.FunctionType) and obj.__module__ == "json.encoder"]
    dumps = set()
    while todo:
        obj = todo.pop()
        if id(obj) not in dumps:
            dumps.add(id(obj))
            todo.extend(ref for ref in gc.get_referents(obj) if id(ref) in held)
    strays = [type(obj) for obj in garbage
              if type(obj).__module__.startswith("qgames") or id(obj) not in dumps]
    strays.sort(key=lambda cls: not cls.__module__.startswith("qgames"))
    return "%s.%s" % (strays[0].__module__, strays[0].__qualname__) if strays else None


def cycles(fn):
    """``fn()``, run with the collector off as a ``qg`` job is, and what it
    left in reference cycles (``_cycle``)."""
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.freeze()  # what exists now is not fn's, and the collection skips it
    gc.set_debug(debug | gc.DEBUG_SAVEALL)
    try:
        result = fn()
        gc.collect()
        return result, _cycle(gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(debug)
        gc.unfreeze()
        if enabled:
            gc.enable()


def _call(argv):
    """A step's exit code, stdout and stderr, and what it left in
    reference cycles."""
    out, err = io.StringIO(), io.StringIO()

    def step():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return cli.main(argv)
            except Exception as exc:  # a raise is output too: it must stay the same
                return "raised %s: %s" % (type(exc).__name__, exc)

    code, cycle = cycles(step)
    return code, out.getvalue(), err.getvalue(), cycle


def run(job) -> tuple:
    """The job's digest, from a fresh directory, and the first thing that
    one of its steps left in reference cycles (None if none did)."""
    h = hashlib.sha256()
    here, env = os.getcwd(), dict(os.environ)
    cycle = None
    with tempfile.TemporaryDirectory() as workdir:
        try:
            os.chdir(workdir)
            os.symlink(DATA, "data")
            for name, text in job["files"].items():
                Path(name).write_text(text)
            stdout = ""
            for argv in job["steps"]:
                if argv[0] == "levels":
                    Path("levels.json").write_text(_levels(stdout, *argv[1:]))
                    continue
                if argv[0] == "env":
                    os.environ[argv[1]] = argv[2]
                    continue
                code, stdout, stderr, left = _call(argv)
                cycle = cycle or left
                h.update(repr((argv, code, stdout, stderr)).encode())
            for name in sorted(os.listdir(".")):
                if name != "data":
                    h.update(repr((name, Path(name).read_bytes())).encode())
        finally:
            os.chdir(here)
            os.environ.clear()
            os.environ.update(env)
    return h.hexdigest(), cycle


def sample(ids, count: int, seed: int) -> list:
    return sorted(random.Random(seed).sample(sorted(ids), min(count, len(ids))))


def check(corpus: dict, ids) -> list:
    """A line for each id among ``ids`` whose digest differs from the
    committed one, and for each whose steps leave reference cycles."""
    committed = json.loads(DIGESTS.read_text())
    problems = []
    for job_id in ids:
        got, cycle = run(corpus[job_id])
        if got != committed.get(job_id):
            problems.append("changed: %s" % job_id)
        if cycle is not None:
            problems.append("cycle: %s leaves a %s in a reference cycle" % (job_id, cycle))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the digests")
    args = parser.parse_args(argv)
    corpus = jobs()
    if args.write:
        DIGESTS.write_text(json.dumps({job_id: run(job)[0] for job_id, job in corpus.items()},
                                      indent=1, sort_keys=True) + "\n")
        print("%d digests written to %s" % (len(corpus), DIGESTS.relative_to(TESTS.parent)))
        return 0
    committed = json.loads(DIGESTS.read_text())
    stale = sorted(set(committed) - set(corpus))
    problems = check(corpus, sorted(corpus))
    for job_id in stale:
        print("no such job: %s" % job_id)
    for line in problems:
        print(line)
    changed = sum(line.startswith("changed: ") for line in problems)
    print("%d jobs, %d changed, %d leave reference cycles"
          % (len(corpus), changed, len(problems) - changed))
    return 1 if problems or stale else 0


if __name__ == "__main__":
    sys.exit(main())
