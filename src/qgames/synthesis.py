"""Finite-arena value solvers and constructive strategy synthesis.

The synthesizers realize the two constructive upper bounds: a pure
step-counter strategy for prefix-independent objectives that decompose
into open, step-monotonic sub-objectives (bubble construction), and a
step-counter-plus-one-bit strategy for the limsup-total-payoff-at-least-r
objective, r finite.  Both work bubble by bubble: certify one open
sub-objective up to a bound level, freeze the table up to that level,
continue with a fresh winning continuation.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

from .arena import Arena, ArenaExplicit, Edge, VertexId, Weight, exact
from .engine import (Inconclusive, KoenigBound, Layers, Node, depth_cap_exhausted, koenig_bound,
                     koenig_layers)
from .objectives import (Decomposition, ExtValue, Objective, OpenSub, POS_INF, NEG_INF, TP, MP,
                         decompose)
from .strategies import ERROR, FIRST_EDGE, Memoryless, StepCounterTable, Strategy, move

# ---------------------------------------------------------------------------
# Value solving on finite arenas


class ValueMap(NamedTuple):
    """Values per vertex and a memoryless player-1 strategy achieving them
    against every opponent: player 1's final profile of strategy
    improvement."""

    values: dict[VertexId, ExtValue]
    witness: Memoryless


# the largest positional profile space either player may enumerate in the
# max-min oracle ``brute_force_values``
PROFILE_CAP = 1 << 14


def solve_values(arena: ArenaExplicit, family: str) -> ValueMap:
    """Game values per vertex for mean payoff (``_mp_values``) or limsup
    total payoff (``_tpsup_values``), by strategy improvement
    (``_improve``), which ends on a pair of positional profiles.  The pair
    is the proof, checked once here after the family's loop (``_proven``):
    player 1's profile holds the values from below and player 2's from
    above, each by one Bellman-Ford under the family's pair of weighs.
    Player 1's final profile is the witness.
    """
    if not isinstance(arena, ArenaExplicit):
        raise TypeError("value solving needs an explicit finite arena")
    solve = {"mp": _mp_values, "tpsup": _tpsup_values}.get(family)
    if solve is None:
        raise ValueError("unknown value family %r" % family)
    view = _view(arena)
    values, step, weighs = solve(view)
    _proven(view, values, step, weighs)
    return ValueMap(values, _witness(view, step, family + "_witness"))


def _proven(view: _View, values: dict[VertexId, ExtValue], step: list[tuple[int, int]],
            weighs: tuple[_Weigh, _Weigh]) -> None:
    """Raise unless player 1's moves of the profile hold the values from
    below under the first weigh and player 2's from above under the
    second (``_holds``): together they prove max-min = min-max = values."""
    for player, weigh in zip((1, 2), weighs):
        if not _holds(view, player, step, weigh):
            shown = {v: x if isinstance(x, float) else Fraction(x) for v, x in values.items()}
            raise RuntimeError("value attainment cross-check failed: player %d's final profile "
                               "does not hold %r" % (player, shown))  # finite values as Fractions


class _View(NamedTuple):
    """An explicit arena indexed by position in its sorted vertex order.

    ``succ[i]`` lists the edges of vertex i, in the arena's edge order, as
    (successor index, weight * denom) integer pairs; ``edges[i]`` holds
    the same edges as ``Edge`` objects, read only to name a witness.
    """

    vertices: tuple[VertexId, ...]
    p1: tuple[bool, ...]
    succ: tuple[tuple[tuple[int, int], ...], ...]
    edges: tuple[tuple[Edge, ...], ...]
    denom: int

    def restrict(self, keep: list[int]) -> _View:
        """The subarena on the given ascending vertex indices."""
        index = {i: k for k, i in enumerate(keep)}
        kept = [[j for j, (d, _) in enumerate(self.succ[i]) if d in index] for i in keep]
        return _View(tuple(self.vertices[i] for i in keep), tuple(self.p1[i] for i in keep),
                     tuple(tuple((index[self.succ[i][j][0]], self.succ[i][j][1]) for j in js)
                           for i, js in zip(keep, kept)),
                     tuple(tuple(self.edges[i][j] for j in js) for i, js in zip(keep, kept)),
                     self.denom)


def _view(arena: ArenaExplicit) -> _View:
    vertices = arena.vertices
    index = {v: i for i, v in enumerate(vertices)}
    edges = tuple(arena.edges(v) for v in vertices)
    denom = math.lcm(*(e.weight.denominator for es in edges for e in es))
    succ = tuple(tuple((index[e.dst], e.weight.numerator * (denom // e.weight.denominator))
                       for e in es) for es in edges)
    return _View(vertices, tuple(arena.owner(v) == 1 for v in vertices), succ, edges, denom)


def _witness(view: _View, step: list[tuple[int, int]], name: str) -> Memoryless:
    """Player 1's moves of the profile, each the first of equal
    (successor, weight) edges, as ``max`` picks it."""
    return Memoryless({v: edges[out.index(move)]
                       for v, p1, out, edges, move in zip(view.vertices, view.p1, view.succ,
                                                          view.edges, step) if p1}, name=name)


def _improve(view: _View, step: list[tuple[int, int]], evaluate, key, escape=None):
    """Strategy improvement (Hoffman & Karp, 1966) from the profile
    step[i] = (successor, weight), changed in place: player 2
    best-responds by Howard's (1960) policy iteration, then player 1
    switches against the reply, until neither switches; the final
    profile's evaluate(step).  key(vals, sign) orders the edges (d, w) for
    the player maximizing sign times the value, and a vertex switches to
    its best edge only if that beats its current one.  Where none does,
    escape(p1, vals) may still switch some, and says whether it did."""
    def switch(p1: bool, vals) -> bool:
        rank = key(vals, 1 if p1 else -1)
        better = [(i, max(out, key=rank)) for i, out in enumerate(view.succ) if view.p1[i] == p1]
        better = [(i, e) for i, e in better if rank(e) > rank(step[i])]
        for i, e in better:
            step[i] = e
        return bool(better) or (escape is not None and escape(p1, vals))

    while True:
        vals = evaluate(step)
        while switch(False, vals):
            vals = evaluate(step)
        if not switch(True, vals):
            return vals


def _mp_values(view: _View) -> tuple[dict[VertexId, ExtValue], list[tuple[int, int]], tuple]:
    """Mean-payoff values, every vertex's final (successor, scaled weight)
    move and the weighs proving them, by ``_improve`` from both players'
    first edges.  A vertex switches by the key (gain[d], w scale - gain[d]
    + bias[d]) of ``_evaluate``, least for player 2.  A weigh fails an
    edge moving the gain against the holder and weighs an in-class edge
    (d, w) from gain c w scale - c, negated for player 2, so that a cycle
    beating the holder is negative."""
    scale = math.lcm(*range(1, len(view.vertices) + 1))
    step = [out[0] for out in view.succ]

    def key(vals: tuple[list[int], list[int]], sign: int):
        gain, bias = vals
        return lambda e: (sign * gain[e[0]], sign * (e[1] * scale - gain[e[0]] + bias[e[0]]))

    gain, bias = _improve(view, step, lambda step: _evaluate(step, scale), key)

    def weighs(sign: int):
        def weigh(i: int, d: int, w: int):
            if gain[d] == gain[i]:
                return sign * (w * scale - gain[i])
            return None if (gain[d] - gain[i]) * sign > 0 else _FAIL

        return weigh

    values = {v: exact(g, scale * view.denom) for v, g in zip(view.vertices, gain)}
    return values, step, (weighs(1), weighs(-1))


def _lassos(step: list[tuple[int, int]]):
    """(path, cycle) pairs holding every vertex once, when vertex i always
    moves along step[i] = (successor, weight): the cycle the path closes,
    empty if the path runs into an earlier pair."""
    walked = [-1] * len(step)  # the first start whose walk reached the vertex
    for s in range(len(step)):
        path, u = [], s
        while walked[u] < 0:
            walked[u] = s
            path.append(u)
            u = step[u][0]
        if path:
            cut = path.index(u) if walked[u] == s else len(path)
            yield path[:cut], path[cut:]


def _evaluate(step: list[tuple[int, int]], scale: int) -> tuple[list[int], list[int]]:
    """Gain and bias of every vertex when vertex i always moves along
    step[i] = (successor, weight): the gain is the mean of the cycle the
    play ends in times ``scale``, a multiple of every cycle length; the
    bias is 0 at the least index of each cycle, else w scale - gain +
    bias(successor)."""
    gain, bias = [0] * len(step), [0] * len(step)
    for path, cycle in _lassos(step):
        if cycle:
            # the rest of the cycle leads to its least index like a path
            at = cycle.index(min(cycle))
            gain[cycle[at]] = sum(step[c][1] for c in cycle) * (scale // len(cycle))
            path += cycle[at + 1:] + cycle[:at]
        for p in reversed(path):
            d, w = step[p]
            gain[p] = g = gain[d]
            bias[p] = w * scale - g + bias[d]
    return gain, bias


_FAIL = object()  # the weight of an edge along which a profile does not hold
# (i, d, w) -> the weight in ``_holds`` of edge i -> d of weight w, None to leave it out
_Weigh = Callable[[int, int, int], object]


def _reply_graph(view: _View, holder: int, step: list[tuple[int, int]],
                 weigh: _Weigh) -> Optional[list[list[tuple]]]:
    """The holder's moves step[i] and every reply edge, as (d, weigh(i, d,
    w), (d, w)) at each vertex i, leaving out those weighed None; None if
    one weighs ``_FAIL``."""
    out = []
    for i, (p1, edges) in enumerate(zip(view.p1, view.succ)):
        kept = []
        for d, w in ((step[i],) if p1 == (holder == 1) else edges):
            x = weigh(i, d, w)
            if x is _FAIL:
                return None
            if x is not None:
                kept.append((d, x, (d, w)))
        out.append(kept)
    return out


def _holds(view: _View, holder: int, step: list[tuple[int, int]], weigh: _Weigh) -> bool:
    """Does the holder's profile hold against every reply: no edge fails
    and the weighed edges close no negative cycle?"""
    graph = _reply_graph(view, holder, step, weigh)
    return graph is not None and _negative_cycle(graph) is None


def _negative_cycle(out: list[list[tuple]]) -> Optional[list[tuple]]:
    """The (vertex, move) pairs of a negative cycle in the graph whose
    vertex u has the edges out[u] = (successor, weight, move), or None:
    Bellman-Ford from a virtual source, then back along the lowering edges
    from a vertex lowered in the last round."""
    n = len(out)
    dist, pred = [0] * n, [None] * n
    for _ in range(n + 1):
        last = None
        for u, edges in enumerate(out):
            for d, w, move in edges:
                if dist[u] + w < dist[d]:
                    dist[d], pred[d], last = dist[u] + w, (u, move), d
        if last is None:
            return None
    # lowered in round n + 1, so n lowering edges back lead onto the cycle
    for _ in range(n):
        last = pred[last][0]
    cycle = [pred[last]]
    while cycle[-1][0] != last:
        cycle.append(pred[cycle[-1][0]])
    return cycle


def _tpsup_values(view: _View) -> tuple[dict[VertexId, ExtValue], list[tuple[int, int]], tuple]:
    """Limsup-TP values, every vertex's final move and the weighs proving
    them (``_tp_weighs``): +/-inf on the positive/negative mean-payoff
    regions, with mean payoff's moves, and ``_improve`` on w + val(d) of
    ``_pair_values`` on the zero region.  Edges leaving it are never taken (entering the positive region
    contradicts a zero mean for the maximizer, the negative region yields
    -inf, and dually), and mean payoff's final profile, which keeps to it
    with zero cycles only, is the start.  Where no single edge improves, a
    player switches onto a cycle beating the other's profile by
    ``_tp_weighs``: of value-keeping edges w + val(d) = val(v), wholly on
    positive values for player 2 and through a negative value for player
    1, along which the running total is val(start) - val(current)."""
    mp, step, _ = _mp_values(view)
    target = [POS_INF if x > 0 else NEG_INF if x < 0 else 0 for x in mp.values()]
    zero = [i for i, x in enumerate(target) if x == 0]
    if zero:
        sub = view.restrict(zero)
        index = {i: k for k, i in enumerate(zero)}
        sub_step = [(index[step[i][0]], step[i][1]) for i in zero]

        def key(val: list[ExtValue], sign: int):
            return lambda e: sign * (e[1] + val[e[0]])

        seen = set()  # the profiles at player 1's cycle switches

        def escape(p1: bool, val: list[ExtValue]) -> bool:
            # every other switch improves its player's values, but player
            # 1's cycle switch can lower some, so a loop repeats a profile here
            if p1:
                if tuple(sub_step) in seen:
                    raise AssertionError("strategy improvement revisited a profile")
                seen.add(tuple(sub_step))
            below, above = _tp_weighs(val)
            graph = _reply_graph(sub, 2 if p1 else 1, sub_step, above if p1 else below)
            cycle = graph and _negative_cycle(graph)
            for u, move in cycle or ():
                if sub.p1[u] == p1:
                    sub_step[u] = move
            return bool(cycle)

        val = _improve(sub, sub_step, _pair_values, key, escape)
        for i, x, (d, w) in zip(zero, val, sub_step):
            target[i] = x
            step[i] = (zero[d], w)
    values = {v: x if isinstance(x, float) else exact(x, view.denom)
              for v, x in zip(view.vertices, target)}
    return values, step, _tp_weighs(target)


def _pair_values(step: list[tuple[int, int]]) -> list[ExtValue]:
    """Limsup TP of the play from every vertex when vertex i always moves
    along step[i] = (successor, weight)."""
    val: list = [None] * len(step)
    for path, cycle in _lassos(step):
        if cycle:
            # prefix sums phi along the cycle; from c the running total of a
            # zero cycle peaks at max(phi) - phi(c), so it is 0 at the first
            # peak, and the rest of the cycle leads there like a path
            phi = list(itertools.accumulate([step[c][1] for c in cycle[:-1]], initial=0))
            total = phi[-1] + step[cycle[-1]][1]
            at = phi.index(max(phi))
            val[cycle[at]] = POS_INF if total > 0 else NEG_INF if total < 0 else 0
            path += cycle[at + 1:] + cycle[:at]
        for p in reversed(path):
            val[p] = val[step[p][0]] + step[p][1]
    return val


def _tp_weighs(target: list) -> tuple[_Weigh, _Weigh]:
    """Weighs for ``_holds`` of player 1's profile from below and player
    2's from above the scaled limsup-TP values ``target``.  Lasso values
    keep target(i) = w + target(d) along every move, and along such edges
    the running total is target(start) - target(current).  So a reply
    beats player 1 only by a cycle of sum <= 0 among the +inf vertices or
    by one of such edges through positive values alone, and player 2 by a
    cycle of sum >= 0 among the -inf vertices or by one of such edges
    through a negative value: exactly the negative cycles.  So mean
    payoff, which only seeds the loop, needs no proof of its own."""
    n = len(target)

    def below(i: int, d: int, w: int):
        t, u = target[i], target[d]
        if t == POS_INF:
            return n * w - 1 if u == POS_INF else _FAIL
        if t == NEG_INF or w + u > t:
            return None
        return _FAIL if w + u < t else -1 if t > 0 and u > 0 else None

    def above(i: int, d: int, w: int):
        t, u = target[i], target[d]
        if t == NEG_INF:
            return -n * w - 1 if u == NEG_INF else _FAIL
        if t == POS_INF or w + u < t:
            return None
        return _FAIL if w + u > t else -1 if t < 0 else 0

    return below, above


def _max_min(view: _View, kind: str, cap: int
             ) -> Optional[tuple[dict[VertexId, ExtValue], Optional[dict[VertexId, Edge]]]]:
    """Per vertex, the max over player-1 positional profiles of the min
    over player-2 profiles of the limsup lasso value, and the first
    player-1 profile attaining it at every vertex (None if none does);
    None if either player has more than ``cap`` profiles."""
    succ = view.succ
    own1, own2 = ([i for i, p1 in enumerate(view.p1) if p1 == mine] for mine in (True, False))
    if max(math.prod(len(succ[i]) for i in own) for own in (own1, own2)) > cap:
        return None
    scale = math.lcm(*range(1, len(succ) + 1)) if kind == MP else 1
    replies = [[succ[i][j] for i, j in zip(own2, combo)]
               for combo in itertools.product(*(range(len(succ[i])) for i in own2))]
    combos1 = list(itertools.product(*(range(len(succ[i])) for i in own1)))
    step = list(succ)
    worst = []
    for combo in combos1:
        for i, j in zip(own1, combo):
            step[i] = succ[i][j]
        low = None
        for reply in replies:
            for i, move in zip(own2, reply):
                step[i] = move
            vals = _evaluate(step, scale)[0] if kind == MP else _pair_values(step)
            low = vals if low is None else list(map(min, low, vals))
        worst.append(low)
    best = [max(column) for column in zip(*worst)]
    values = {v: x if isinstance(x, float) else exact(x, view.denom * scale)
              for v, x in zip(view.vertices, best)}
    first = next((combo for combo, low in zip(combos1, worst) if low == best), None)
    return values, None if first is None else {
        view.vertices[i]: view.edges[i][j] for i, j in zip(own1, first)}


def brute_force_values(arena: ArenaExplicit, family: str, cap: int = PROFILE_CAP
                       ) -> Optional[dict[VertexId, ExtValue]]:
    """Max-min over all memoryless profile pairs, evaluated on lassos."""
    solved = _max_min(_view(arena), MP if family == "mp" else TP, cap)
    return None if solved is None else solved[0]


# ---------------------------------------------------------------------------
# Minimal consistent histories and the step-counter conversion


def _minimal_layers(arena: Arena, v0: VertexId, sigma: Strategy, open_sub: Optional[OpenSub],
                    depth: int, node_cap: Optional[int] = None, resume=None) -> Layers:
    """Layers keeping one minimal consistent history per vertex: the first
    of least ``OpenSub.rank``, or of least (satisfied, total) without a
    sub-objective.

    The prefix order is a congruence, so extending only the kept minima
    preserves the property that the kept history at a cell is dominated by
    no consistent history there.  Any history of least rank is minimal, so
    the construction may read its cell off any of several.
    """
    rank = (lambda satisfied, tp: (satisfied, tp)) if open_sub is None else open_sub.rank
    return Layers(arena, v0, sigma, depth, open_sub=open_sub, key=lambda node: node.vertex,
                  order=lambda node: rank(node.satisfied, node.tp), node_cap=node_cap,
                  resume=resume)


def minimal_history_levels(arena: Arena, v0: VertexId, sigma_prime: Strategy,
                           open_sub: OpenSub, depth: int
                           ) -> Union[list[dict[VertexId, Node]], Inconclusive]:
    """Per (vertex, level) minimal sigma_prime-consistent history, or the
    Inconclusive of an exhausted node cap."""
    walk = _minimal_layers(arena, v0, sigma_prime, open_sub, depth)
    levels = [{node.vertex: node for node in layer} for layer in walk]
    return walk.truncated or levels


def sc_from_strategy(arena: Arena, v0: VertexId, sigma_prime: Strategy, open_sub: OpenSub,
                     depth: int, node_cap: Optional[int] = None
                     ) -> Union[StepCounterTable, Inconclusive]:
    """Step-counter table playing, at (v, s) for s below the depth, the
    move the given strategy makes after the minimal consistent length-s
    history ending at v, or the Inconclusive of an exhausted node cap."""
    walk = _minimal_layers(arena, v0, sigma_prime, open_sub, depth - 1, node_cap)
    table = {(node.vertex, node.depth, 0): walk.moves(node)[0]
             for layer in walk for node in layer
             if arena.owner(node.vertex) == sigma_prime.player}
    return walk.truncated or StepCounterTable(table, depth, FIRST_EDGE, player=sigma_prime.player,
                                              name=sigma_prime.name + "+sc")


# ---------------------------------------------------------------------------
# The winning-region oracle


class WPrimeOracle(NamedTuple):
    """Winning-region oracle at a ``threshold`` r: a region over (vertex,
    sum) pairs, a safe memoryless strategy that never leaves it, and
    ``winning_from(v, total)``, a strategy winning from every pair of the
    region.  A synthesis asks for it once (``_start``), and each bubble's
    composite plays it as its tail from the boundary pair on.

    ``wprime`` must be upward closed in the sum: if (v, r) is in the
    region, so is (v, r') for every r' >= r.  The final report checks
    only the lowest sum of each cell it walks (``_final_report``).
    """

    wprime: Callable[[VertexId, Weight], bool]
    safe: Strategy
    winning_from: Callable[[VertexId, Weight], Strategy]
    threshold: Weight = 0


def finite_mp_oracle(arena: ArenaExplicit, threshold: Weight = 0) -> WPrimeOracle:
    """Limsup mean payoff >= threshold: the vertices of value at least the
    threshold, won by the mean-payoff witness."""
    vm = solve_values(arena, "mp")
    return WPrimeOracle(lambda v, r: vm.values[v] >= threshold, vm.witness,
                        lambda v, r: vm.witness, threshold)


def finite_wprime_oracle(arena: ArenaExplicit, threshold: Weight = 0) -> WPrimeOracle:
    """Limsup total payoff >= threshold: the (vertex, sum) pairs with sum +
    value >= threshold, upward closed in the sum, and the limsup-TP
    witness as the safe strategy and from every pair.  The witness never
    leaves the region: its moves keep the value, weight + value of the
    target = value, and every reply keeps it or raises it.  An infinite
    value is a float, so the one comparison decides its pairs too."""
    vm = solve_values(arena, "tpsup")
    return WPrimeOracle(lambda v, total: total + vm.values[v] >= threshold, vm.witness,
                        lambda v, r: vm.witness, threshold)


# ---------------------------------------------------------------------------
# Bubble synthesis (step counter, prefix-independent objectives)


class SynthReport(NamedTuple):
    schedule: list[tuple[int, int]]  # (m, k_m)
    strategy: Optional[Strategy]
    level_certs: list[tuple[int, int, bool]]  # (m, k_m, recertified)
    region_ok: Optional[bool]  # None: the synthesis stopped before the region check
    failure: Optional[str] = None

    @property
    def certified(self) -> bool:
        return (self.failure is None and self.region_ok
                and all(ok for (_, _, ok) in self.level_certs))


def _failed(schedule: list[tuple[int, int]], why: str,
            region_ok: Optional[bool] = None) -> SynthReport:
    """A synthesis that stopped before it had a strategy."""
    return SynthReport(schedule, None, [], region_ok, failure=why)


def bubble_synthesize(arena: Arena, v0: VertexId, decomposition: Decomposition,
                      m_max: int, oracle: WPrimeOracle, depth_cap: int = 400,
                      node_cap: Optional[int] = None) -> SynthReport:
    """Fix a step-counter table on growing step intervals, one open
    sub-objective per bubble, then re-certify every level on the final
    table and check the winning region is never left."""
    cont = _start(v0, m_max, oracle)
    fixed: dict[tuple[VertexId, int, int], Edge] = {}
    schedule: list[tuple[int, int]] = []
    k_prev = 0
    for m in range(1, m_max + 1):
        sub = decomposition.sub(m)
        comp = StepCounterTable(fixed, k_prev, ERROR, tail=cont)
        kb = koenig_bound(arena, v0, comp, sub, depth_cap, node_cap)
        if not isinstance(kb, KoenigBound):
            return _failed(schedule, "bubble %d: %s" % (m, kb))
        k_m = max(kb.level, k_prev + 1)
        sc = sc_from_strategy(arena, v0, comp, sub, k_m, node_cap)
        if isinstance(sc, Inconclusive):
            return _failed(schedule, "bubble %d: %s" % (m, sc))
        fixed = sc.table
        k_prev = k_m
        schedule.append((m, k_m))

    strategy = StepCounterTable(fixed, k_prev, FIRST_EDGE, name="bubble_sc")
    return _final_report(arena, v0, strategy, schedule, decomposition.sub, oracle.wprime,
                         node_cap)


def _start(v0: VertexId, m_max: int, oracle: WPrimeOracle) -> Strategy:
    """The continuation a synthesis starts from, ``winning_from(v0, 0)``,
    once it has refused fewer than one bubble and a start pair outside
    the region."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if not oracle.wprime(v0, 0):
        raise ValueError("start %s with sum 0 is outside the winning region at threshold %s"
                         % (v0, oracle.threshold))
    return oracle.winning_from(v0, 0)


def _final_report(arena: Arena, v0: VertexId, strategy: Strategy,
                  schedule: list[tuple[int, int]], subs: Callable[[int], OpenSub],
                  member: Callable[[VertexId, Weight], bool], node_cap: Optional[int]
                  ) -> SynthReport:
    """Re-certify every scheduled level on the final strategy and check
    that no consistent history up to the last level leaves the region.

    One ``koenig_layers`` walk of the final strategy without sub-objective,
    to the last level, serves both.  Each level's ``koenig_bound`` resumes,
    with its node count, from that walk's layer below the step index: no
    branch fires, so none is pruned, before it.  The walk keeps the lowest
    total of each (vertex, state) cell, and the region is upward
    closed in the total (``WPrimeOracle``), so checking the kept nodes
    checks every consistent history.  It reads only the final strategy,
    independently of the synthesizer.
    """
    walk = koenig_layers(arena, v0, strategy, schedule[-1][1] if schedule else 0,
                         node_cap=node_cap)
    resumes = [(layer, d, walk.created) for d, layer in enumerate(walk)]
    level_certs = []
    for (m, k_m) in schedule:
        sub = subs(m)
        start = max(min(sub.step_index, k_m) - 1, 0)
        # a node cap that ended the walk at or below the level's layer is
        # named here, as a walk from the root would name it
        again = (koenig_bound(arena, v0, strategy, sub, k_m, node_cap, resumes[start])
                 if start < len(resumes) else walk.truncated)
        if isinstance(again, Inconclusive) and again.node_cap is not None:
            return SynthReport(schedule, strategy, level_certs, None,
                               failure="level m=%d: %s" % (m, again.reason))
        level_certs.append((m, k_m, isinstance(again, KoenigBound) and again.level <= k_m))
    if walk.truncated is not None:
        return SynthReport(schedule, strategy, level_certs, None,
                           failure="region check: %s" % walk.truncated.reason)
    region_ok = all(member(node.vertex, node.tp) for layer, _, _ in resumes for node in layer)
    return SynthReport(schedule, strategy, level_certs, region_ok)


# ---------------------------------------------------------------------------
# Step-counter + 1 bit synthesis for limsup total payoff >= r


def sc1bit_synthesize(arena: Arena, v0: VertexId, m_max: int, oracle: WPrimeOracle,
                      depth_cap: int = 400, node_cap: Optional[int] = None) -> SynthReport:
    """Synthesize a step-counter-plus-one-bit strategy for the objective
    that the running total payoff is at least the oracle's ``threshold``
    (r) in the limit superior.

    Per bubble, with boundary k: the scheduled sub-objective, member k+1
    of ``decompose``'s schedule, asks for a running total at least
    r - 1/(k+1) at some position past k+1.  Bit 0
    mimics the strategy induced by minimal consistent histories; the bit
    flips to 1 as soon as the mimicked history's one-step extension
    already satisfies the sub-objective, after which a safe memoryless
    strategy keeps the (vertex, sum) pair in the region; the bit resets at
    every bubble boundary.

    Each bubble's walks resume from the layer before its boundary, kept
    as it stands by two walks of the live table, whose state the bubble's
    composite shares up to its boundary: no scheduled sub-objective fires
    by the boundary, and the table and bit updates at a depth are final
    before they expand it, so those layers are the ones the bubble's walks
    would build from the root.
    """
    cont = _start(v0, m_max, oracle)
    subs = decompose(Objective(TP, threshold=oracle.threshold)).sub

    # the table under construction; each bubble fills the levels it adds
    live = StepCounterTable({}, depth_cap, ERROR, k=2, name="sc1bit_partial")
    table, bitupd = live.table, live.bit_update
    runs = _run_layers(arena, v0, live, None, depth_cap, node_cap)
    mimics = _minimal_layers(arena, v0, live, None, depth_cap, node_cap)
    kept = [(runs, iter(runs)), (mimics, iter(mimics))]
    schedule: list[tuple[int, int]] = []
    k_prev = 0

    for _ in range(m_max):
        m_sched = k_prev + 1
        sub = subs(m_sched)
        resumes = [None, None]
        if k_prev > 0:
            # the run walk, then the minimal-history walk, resumed from the
            # layer before the boundary as it stands
            resumes = []
            for walk, layers in kept:
                layer = next((layer for layer in layers if layer[0].depth == k_prev - 1), None)
                if walk.truncated is not None:
                    return _failed(schedule, "bubble m=%d: %s" % (m_sched, walk.truncated.reason))
                resumes.append((layer, k_prev - 1, walk.created))
            # reset the bit entering this bubble: the update on every edge
            # crossing the boundary, from the run walk's layer, yields mode 0
            for node in resumes[0][0]:
                for e in runs.moves(node):
                    bitupd[(k_prev - 1, 0, e)] = 0
                    bitupd[(k_prev - 1, 1, e)] = 0

        built = _build_bubble(arena, v0, live, sub, k_prev, oracle, cont, depth_cap, node_cap,
                              *resumes)
        if isinstance(built, Inconclusive):
            return _failed(schedule, "bubble m=%d: %s" % (m_sched, built))
        k_m, violation = built
        if violation is not None:
            return _failed(schedule, "left the winning region: %s" % violation, False)
        schedule.append((m_sched, k_m))
        k_prev = k_m

    strategy = StepCounterTable(table, k_prev, FIRST_EDGE, k=2, bit_update=bitupd, name="sc1bit")
    return _final_report(arena, v0, strategy, schedule, subs, oracle.wprime, node_cap)


def _run_layers(arena: Arena, v0: VertexId, live: StepCounterTable, sub: Optional[OpenSub],
                depth: int, node_cap: Optional[int], resume=None) -> Layers:
    """Consistent layers of the live table merging on (vertex, bit,
    running total, satisfied), keeping the first duplicate: its history
    backs the minimal-history cell when the mimic never reaches its
    vertex."""
    return Layers(arena, v0, live, depth, open_sub=sub,
                  key=lambda node: (node.vertex, node.state[1], node.tp, node.satisfied),
                  node_cap=node_cap, resume=resume)


def _build_bubble(arena: Arena, v0: VertexId, live: StepCounterTable, sub: OpenSub,
                  k_prev: int, oracle: WPrimeOracle, cont: Strategy, depth_cap: int,
                  node_cap: Optional[int], run_from=None, mimic_from=None):
    """Extend the live table over one bubble.

    Walks the minimal consistent histories of the composite (the live
    table up to k_prev, whose cells there are final, with the tail
    ``cont``) and the consistent tree of the live table in lockstep, from
    the root or from the given resume points (see ``Layers``).  At each
    level from k_prev on, the minimal histories fill the bit-0 moves and
    bit updates before the live walk expands the level: bit 0 mimics the
    minimal history, bit 1 plays safe.  Returns (k_m, violation), or the
    Inconclusive of an exhausted depth or node cap.
    """
    table, bitupd = live.table, live.bit_update
    comp = StepCounterTable(table, k_prev, ERROR, k=2, bit_update=bitupd, tail=cont)
    mimics = _minimal_layers(arena, v0, comp, sub, depth_cap, node_cap, mimic_from)
    runs = _run_layers(arena, v0, live, sub, depth_cap, node_cap, run_from)
    for d, (cells, frontier) in enumerate(zip(mimics, runs), max(k_prev - 1, 0)):
        for node in frontier:
            if not oracle.wprime(node.vertex, node.tp):
                return (d, "(%s, %s) at step %d" % (node.vertex, node.tp, d))
        if d >= max(k_prev, 1) and d >= sub.step_index and all(n.satisfied for n in frontier):
            return (max(d, k_prev + 1), None)
        if d == depth_cap:
            return depth_cap_exhausted(depth_cap, sum(not n.satisfied for n in frontier))
        if d >= k_prev:
            # a bit reset at a bubble boundary can land on a safe-strategy
            # detour the mimic never reaches: back the cell by the run itself
            reached = {node.vertex for node in cells}
            for node in frontier:
                if node.state[1] == 0 and node.vertex not in reached:
                    reached.add(node.vertex)
                    state = _backing_state(comp, node, k_prev)
                    cells.append(Node(node.vertex, d, node.tp, node.parent, node.edge, state,
                                      node.satisfied))
            for node in cells:
                moves = mimics.moves(node)
                if arena.owner(node.vertex) == 1:
                    table[(node.vertex, d, 0)] = moves[0]
                for e in moves:
                    fires = node.satisfied or sub.step_satisfies(d + 1, node.tp + e.weight, e.weight)
                    bitupd[(d, 0, e)] = 1 if fires else 0
        for node in frontier:
            key = (node.vertex, d, 1)
            if arena.owner(node.vertex) == 1 and node.state[1] == 1 and key not in table:
                table[key] = move(arena, oracle.safe, node.vertex, None)
    return mimics.truncated or runs.truncated


def _backing_state(comp: StepCounterTable, node: Node, k_prev: int):
    """The composite's state after a run node's history, folded from its
    ancestor before the boundary, whose live-table (step, mode) the
    composite shares."""
    edges = []
    while node.depth > max(k_prev - 1, 0):
        edges.append(node.edge)
        node = node.parent
    start = node.state if k_prev > 0 else comp.initial
    return reduce(comp.step_state, reversed(edges), start)
