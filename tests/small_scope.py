"""Small scope, whole scope: every explicit arena up to a bound.

``arena_at(i)`` is the i-th of the 46 656 arenas on the vertices n(0),
n(1) and n(2), started at n(0): each vertex is owned by player 1 or 2
and has 1 or 2 distinct successors, each edge weighing -1 or +1.
``arenas()`` yields each of them once.  ``check`` runs one arena through
``solve_values`` against ``brute_force_values`` for mp and tpsup, and
through ``qg synthesize --m-max 4`` at r = -1, 0 and 1, which must exit
0 exactly where the start value is at least r and 1 elsewhere.  The
synthesize jobs call ``cli.cmd_synthesize``, the handler of
``qg synthesize``, as ``cli.main`` runs it: an ``Inconclusive`` is exit 2
and a start outside the region exit 1.

Run as a script, ``PYTHONPATH=src python tests/small_scope.py``, for the
whole space; it prints each problem and exits 1 if there is one.
"""

import argparse
import contextlib
import io
import itertools
import os
import sys
import tempfile
from fractions import Fraction

from qgames import cli
from qgames.arena import ArenaExplicit, Edge, VertexId
from qgames.engine import Inconclusive
from qgames.synthesis import brute_force_values, solve_values

VERTICES = [VertexId("n", (i,)) for i in range(3)]
# a vertex's row: its owner, then (successor index, weight) per edge
ROWS = [(owner, tuple(zip(successors, weights)))
        for owner in (1, 2)
        for count in (1, 2)
        for successors in itertools.combinations(range(3), count)
        for weights in itertools.product((-1, 1), repeat=count)]
SIZE = len(ROWS) ** len(VERTICES)  # 36 rows per vertex: 46 656 arenas
# objective prefix -> the value family it is decided by
FAMILIES = {"mp": "mp", "tp": "tpsup"}


def arena_at(index: int) -> ArenaExplicit:
    """The arena whose vertex rows are the base-36 digits of ``index``."""
    owners, edges = {}, []
    for v in VERTICES:
        index, digit = divmod(index, len(ROWS))
        owner, out = ROWS[digit]
        owners[v] = owner
        edges += [Edge(v, Fraction(w), VERTICES[d]) for d, w in out]
    return ArenaExplicit(owners, edges, VERTICES[0], name="s")


def arenas():
    return (arena_at(index) for index in range(SIZE))


def synthesize(path: str, objective: str) -> int:
    """The exit code of ``qg synthesize --arena PATH --objective OBJ
    --m-max 4``."""
    args = argparse.Namespace(arena=path, objective=objective, m_max=4, depth=200, out=None)
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.cmd_synthesize(args)
        except Inconclusive:
            return cli.INCONCLUSIVE
        except ValueError as exc:
            if " is outside the " not in str(exc):
                raise
            return cli.FAILED


def check(index: int, workdir: str) -> list[str]:
    """The problems of arena ``index``, each naming it."""
    arena = arena_at(index)
    path = os.path.join(workdir, "arena.txt")
    with open(path, "w") as fh:
        fh.write(cli.serialize_arena(arena))
    problems = []
    for prefix, family in FAMILIES.items():
        values = solve_values(arena, family).values
        if values != brute_force_values(arena, family):
            problems.append("arena %d: %s values differ from brute force" % (index, family))
        for r in (-1, 0, 1):
            code = synthesize(path, "%s:limsup:>=:%d" % (prefix, r))
            if code != (0 if values[arena.start] >= r else 1):
                problems.append("arena %d: %s r=%d exits %d at start value %s"
                                % (index, prefix, r, code, values[arena.start]))
    return problems


def sweep(indices) -> list[str]:
    with tempfile.TemporaryDirectory() as workdir:
        return [problem for index in indices for problem in check(index, workdir)]


if __name__ == "__main__":
    problems = sweep(range(SIZE))
    for problem in problems:
        print(problem)
    print("%d arenas, %d problems" % (SIZE, len(problems)))
    sys.exit(1 if problems else 0)
