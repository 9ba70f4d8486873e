"""Reference checks that the tests compare the library against.

No ``qg`` job runs these.  Each states a property of arenas, strategies,
objectives or minimal histories by the most direct computation: a step
count by a first-reach walk, a strategy's move by folding a whole
history, a Buchi game against a step-counter table by a search of its
finite graph, a lasso's membership by its exact limit, and the prefix
preorder by comparing two whole words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from qgames.arena import Arena, Edge, History, MealyMemory, VertexId, Weight, reach
from qgames.engine import Node
from qgames.objectives import BUCHI_ALL, Lasso, Objective, OpenSub, lasso_limit
from qgames.strategies import FiniteMemory, Memoryless, StepCounterTable, Strategy, move

LE = "LE"
GE = "GE"
BOTH = "BOTH"


# ---------------------------------------------------------------------------
# Step counts


class StepCounter:
    """Counts elapsed steps; the update ignores the edge.  ``product``
    takes it as a memory, which makes a generator whose every history to
    a vertex has one length."""

    initial = 0

    def update(self, state: int, edge: Edge) -> int:
        return state + 1


@dataclass
class StepCountResult:
    """Result of the step-count encoding check.

    ``levels`` maps each reached vertex to the unique length of every
    history from the start reaching it.  ``counterexample`` holds two
    histories with the same endpoint and different lengths when the arena
    does not encode the step count.  ``frontier`` lists vertices first seen
    at the final level, whose uniqueness could not be confirmed.
    """

    levels: Optional[dict[VertexId, int]]
    counterexample: Optional[tuple[History, History]]
    frontier: tuple[VertexId, ...] = ()


class _StepConflict(Exception):
    """The first edge of a step-count walk that does not end one step
    further from the start than its source."""


def encodes_step_count(arena: Arena, v0: VertexId, depth: int) -> StepCountResult:
    """Decide whether every history from v0 to a vertex has a fixed length.

    One ``reach`` walk to ``depth`` gives each vertex its first-reach
    distance, which the walk's ``edges`` callback keeps in a map of its
    own, and records the edge that first reached it.  The arena encodes
    the step count to ``depth`` iff every edge out of a vertex at distance
    d < ``depth`` ends at distance d + 1.  Each edge is checked when the
    walk expands its source, as the target's distance is final then; the
    walk stops at the first edge that fails, and the counterexample is the
    first-reach path to its target and the one to its source extended by
    the edge.  Raises ``Inconclusive`` past ``DEFAULT_VERTEX_CAP``
    vertices, unless a conflict comes first.
    """
    dist: dict[VertexId, int] = {v0: 0}
    first_edge: dict[VertexId, Edge] = {}

    def edges(v: VertexId) -> tuple[Edge, ...]:
        out = arena.edges(v)
        d = dist[v] + 1
        for e in out:
            if dist.setdefault(e.dst, d) != d:
                raise _StepConflict(e)
            first_edge.setdefault(e.dst, e)
        return out

    def path_to(v: VertexId) -> History:
        path: list[Edge] = []
        while v != v0:
            path.append(first_edge[v])
            v = path[-1].src
        return History(v0, tuple(reversed(path)))

    try:
        reached = reach(arena, v0, depth, edges)
    except _StepConflict as conflict:
        (e,) = conflict.args
        return StepCountResult(None, (path_to(e.dst), path_to(e.src).extend(e)))
    return StepCountResult(reached, None,
                           tuple(sorted(v for v, d in reached.items() if d == depth)))


# ---------------------------------------------------------------------------
# Strategies over whole histories


def decide(arena: Arena, sigma: Strategy, history: History) -> Edge:
    """The strategy's move after the whole history, its state folded from
    the first edge (``strategies.move``)."""
    state = sigma.initial
    for e in history.edges:
        state = sigma.step_state(state, e)
    return move(arena, sigma, history.to_vertex, state)


def consistent(arena: Arena, strategy: Strategy, history: History) -> bool:
    """True iff the history follows the strategy at every owned vertex."""
    state = strategy.initial
    at = history.origin
    for e in history.edges:
        if arena.owner(at) == strategy.player and move(arena, strategy, at, state) != e:
            return False
        state = strategy.step_state(state, e)
        at = e.dst
    return True


def collapse_sc_fm(arena: Arena, strategy: Strategy, n_map: dict[VertexId, int]
                   ) -> Strategy:
    """Collapse a k-mode step-counter table on a step-count-encoding arena
    into a k-state finite-memory strategy (memoryless for k = 1).

    The new decision at (v, m) is the old decision at (v, n_v, m) and the
    new memory update on edge e is the old mode update at step
    n_{from(e)}.  Faithful whenever every history from the start to v has
    length exactly n_v.
    """
    if not isinstance(strategy, StepCounterTable):
        raise TypeError("collapse applies to step-counter strategies, got %s"
                        % type(strategy).__name__)

    def level(v: VertexId) -> int:
        try:
            return n_map[v]
        except KeyError:
            raise KeyError("vertex %s missing from the step-count map" % (v,))

    modes = tuple(range(strategy.k))
    table = {(v, mode): move(arena, strategy, v, (n, mode))
             for v, n in n_map.items() if arena.owner(v) == strategy.player for mode in modes}
    name = strategy.name + "+collapsed"
    if strategy.k == 1:
        return Memoryless({v: e for (v, _), e in table.items()}, player=strategy.player, name=name)

    def update(mode, edge: Edge):
        return strategy.bit_update.get((level(edge.src), mode, edge), mode)

    return FiniteMemory(MealyMemory(modes, 0, update), table, player=strategy.player, name=name)


def starves_a_colour(arena: Arena, table: StepCounterTable) -> bool:
    """Whether player 2 can keep colour 0 or colour 1 away forever, from
    some step on, against a ``fallback=first`` step-counter table on a
    finite arena such as buchib.  The table's move at a step past its last
    row, S, is its move at S, so the game is played on the finite graph
    of (vertex, min(step, S)); with the table fixed it is player 2's
    alone, who wins iff a reachable node starts an infinite path with no
    edge of the colour."""
    settle = 1 + max((s for _, s, _ in table.table), default=-1)

    def successors(node):
        v, t = node
        owner, out = arena.row(v)
        edges = (move(arena, table, v, (t, 0)),) if owner == table.player else out
        return [(e, (e.dst, min(t + 1, settle))) for e in edges]

    reached, todo = {(arena.start, 0)}, [(arena.start, 0)]
    while todo:
        for _, nxt in successors(todo.pop()):
            if nxt not in reached:
                reached.add(nxt)
                todo.append(nxt)
    for colour in (0, 1):
        alive = set(reached)  # shrinks to the nodes with an infinite colour-free path
        while True:
            dead = {node for node in alive if not any(
                e.weight != colour and nxt in alive for e, nxt in successors(node))}
            if not dead:
                break
            alive -= dead
        if alive:
            return True
    return False


# ---------------------------------------------------------------------------
# Objectives on whole words


def already_satisfies(open_sub: OpenSub, word: Sequence[Weight]) -> bool:
    """True iff some prefix position within the word is a witness
    (``OpenSub.step_satisfies``).  Monotone: once true, true for every
    extension."""
    tp = 0
    for j, c in enumerate(word, start=1):
        tp += c
        if open_sub.step_satisfies(j, tp, c):
            return True
    return False


def prefix_compare(open_sub: OpenSub, w1: Sequence[Weight], w2: Sequence[Weight]) -> str:
    """Total comparison of equal-length prefixes by continuation quality
    (``OpenSub.rank``).

    ``LE`` means every continuation winning after w1 wins after w2 as
    well, ``GE`` the converse, ``BOTH`` both.  A word that already
    satisfies the sub-objective dominates everything of its length.
    """
    if len(w1) != len(w2):
        raise ValueError("prefix_compare needs equal-length words (%d vs %d)" % (len(w1), len(w2)))
    r1, r2 = (open_sub.rank(already_satisfies(open_sub, w), sum(w)) for w in (w1, w2))
    if r1 == r2:
        return BOTH
    return LE if r1 < r2 else GE


def eval_on_lasso(objective: Objective, lasso: Lasso) -> bool:
    """Exact membership of prefix . cycle^omega in the objective."""
    if objective.kind == BUCHI_ALL:
        seen = set(lasso.cycle)
        return all(c in seen for c in range(objective.colour_count))
    value = lasso_limit(objective.kind, objective.mode, lasso)
    if objective.relation == ">":
        return value > objective.threshold
    return value >= objective.threshold


# ---------------------------------------------------------------------------
# Minimal histories


def domination_holds(arena: Arena, v0: VertexId, open_sub: OpenSub,
                     levels: list[dict[VertexId, Node]],
                     histories_by_level: list[list[History]]) -> bool:
    """Every given history must dominate the kept minimal history at its
    (endpoint, length) cell."""
    for d, hs in enumerate(histories_by_level):
        for h in hs:
            node = levels[d].get(h.to_vertex)
            if node is None:
                return False
            kept = tuple(e.weight for e in node.edges())
            if prefix_compare(open_sub, kept, h.word) not in (BOTH, LE):
                return False
    return True
