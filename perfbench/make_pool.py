"""Regenerate perfbench/pool.json, the committed explicit arenas of the
solve_explicit workload together with their expected verdicts.

Each arena has n vertices split evenly between the players, out-degrees
2 and 3 in alternation within each player's vertices (so every arena of a
cell has the same number of positional profiles), distinct edge targets,
and integer weights drawn uniformly from [-W, W] with at least one edge
of weight -W or W.  The expected verdict comes from
``qgames.synthesis.brute_force_values`` with a raised profile cap: the
max-min over positional profile pairs, which never runs the value solver
under test.  Only the value at the start vertex is stored.

Run from the repository root:  python3 perfbench/make_pool.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qgames.cli import parse_arena  # noqa: E402
from qgames.objectives import format_ext  # noqa: E402
from qgames.synthesis import brute_force_values  # noqa: E402

POOL_SIZE = 8
BRUTE_FORCE_CAP = 1 << 24
# (objective kind, value family, n, W) for every rung of the workload
CELLS = [("mp", "mp", n, w) for n in (6, 8, 10, 12) for w in (2, 6)] + \
        [("tp", "tpsup", 5, 6), ("tp", "tpsup", 10, 2)]


def cell_name(kind: str, n: int, w: int) -> str:
    return "%s-n%d-w%d" % (kind, n, w)


def make_arena(rng: random.Random, name: str, n: int, w: int) -> str:
    vertices = ["n(%d)" % i for i in range(n)]
    owners = [1] * (n // 2) + [2] * (n - n // 2)
    rng.shuffle(owners)
    degree = {}
    for player in (1, 2):
        mine = [v for v, o in zip(vertices, owners) if o == player]
        pattern = [2 + (k % 2) for k in range(len(mine))]
        rng.shuffle(pattern)
        degree.update(zip(mine, pattern))
    edges = []
    for v in vertices:
        for dst in rng.sample(vertices, degree[v]):
            edges.append([v, dst, rng.randint(-w, w)])
    if not any(abs(e[2]) == w for e in edges):
        rng.choice(edges)[2] = rng.choice((-w, w))
    lines = ["arena %s" % name]
    lines += ["vertex %s owner=%d" % (v, o) for v, o in zip(vertices, owners)]
    lines += ["edge %s %s weight=%d" % (src, dst, wt) for src, dst, wt in edges]
    lines.append("start %s" % vertices[0])
    return "\n".join(lines) + "\n"


def main() -> int:
    pool = {}
    for kind, family, n, w in CELLS:
        name = cell_name(kind, n, w)
        entries = []
        for k in range(POOL_SIZE):
            rng = random.Random("%s/%d" % (name, k))
            text = make_arena(rng, "%s-%d" % (name, k), n, w)
            arena = parse_arena(text)
            values = brute_force_values(arena, family, cap=BRUTE_FORCE_CAP)
            if values is None:
                raise SystemExit("%s/%d: profile space exceeds the cap" % (name, k))
            entries.append({"arena": text, "start_value": format_ext(values[arena.start])})
            print(name, k, entries[-1]["start_value"], flush=True)
        pool[name] = entries
    out = Path(__file__).resolve().parent / "pool.json"
    out.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
