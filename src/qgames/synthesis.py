"""Finite-arena value solvers and constructive strategy synthesis.

The synthesizers realize the two constructive upper bounds: a pure
step-counter strategy for prefix-independent objectives that decompose
into open, step-monotonic sub-objectives (bubble construction), and a
step-counter-plus-one-bit strategy for the limsup-total-payoff-at-least-0
objective.  Both work bubble by bubble: certify one open sub-objective up
to a bound level, freeze the table up to that level, continue with a
fresh winning continuation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from fractions import Fraction
from typing import Callable, Optional, Union

from .arena import Arena, ArenaExplicit, Edge, History, VertexId, node_cap_from_env
from .engine import Inconclusive, KoenigBound, Layers, Node, koenig_bound
from .objectives import (Decomposition, Lasso, OpenSub, lasso_limit,
                         prefix_compare, LE, BOTH, POS_INF, NEG_INF, TP, MP)
from .strategies import (ERROR, FIRST_EDGE, Memoryless, StepCounterPlusK,
                         StepCounterTable, Strategy)

ExtValue = Union[Fraction, float]


# ---------------------------------------------------------------------------
# Value solving on finite arenas


@dataclass
class ValueMap:
    family: str
    values: dict[VertexId, ExtValue]
    witness: Optional[Memoryless]


# the largest positional profile space either player may enumerate
PROFILE_CAP = 1 << 14


class ProfileCapExceeded(RuntimeError):
    """A positional enumeration would pass ``PROFILE_CAP`` profiles."""


def solve_values(arena: ArenaExplicit, family: str) -> ValueMap:
    """Game values per vertex for mean payoff or limsup total payoff.

    Mean payoff uses exact value iteration long enough that rounding to
    denominators at most |V| recovers the value.  Limsup total payoff is
    +/-inf on the positive/negative mean-payoff regions and a bounded
    exact fixed point on the zero region.  The returned witness is a
    memoryless strategy achieving the value against every memoryless
    opponent, found by enumeration and absent if the profile space
    exceeds ``PROFILE_CAP``.
    """
    if not isinstance(arena, ArenaExplicit):
        raise TypeError("value solving needs an explicit finite arena")
    if family == "mp":
        values = _mp_values(arena)
        return ValueMap("mp", values, _mp_witness(arena, values, PROFILE_CAP))
    if family == "tpsup":
        values = _tpsup_values(arena)
        solved = _max_min(arena, TP, PROFILE_CAP)
        if solved is None:
            return ValueMap("tpsup", values, None)
        attained, moves = solved
        if attained != values:
            raise RuntimeError("value attainment cross-check failed: %r vs %r"
                               % (values, attained))
        return ValueMap("tpsup", values,
                        None if moves is None else Memoryless(moves, name="tpsup_witness"))
    raise ValueError("unknown value family %r" % family)


def _scaled_int_weights(arena: ArenaExplicit) -> tuple[dict[Edge, int], int, int]:
    import math

    denom = 1
    for v in arena.vertices:
        for e in arena.edges(v):
            denom = denom * e.weight.denominator // math.gcd(denom, e.weight.denominator)
    scaled = {}
    w_max = 1
    for v in arena.vertices:
        for e in arena.edges(v):
            w = int(e.weight * denom)
            scaled[e] = w
            w_max = max(w_max, abs(w))
    return scaled, denom, w_max


def _mp_values(arena: ArenaExplicit) -> dict[VertexId, ExtValue]:
    scaled, denom, w_max = _scaled_int_weights(arena)
    vs = arena.vertices
    n = len(vs)
    horizon = 4 * n * n * n * w_max
    x = {v: 0 for v in vs}
    for _ in range(horizon):
        x = {v: (max if arena.owner(v) == 1 else min)(
            scaled[e] + x[e.dst] for e in arena.edges(v)) for v in vs}
    out: dict[VertexId, ExtValue] = {}
    for v in vs:
        out[v] = Fraction(x[v], horizon).limit_denominator(n) / denom
    return out


def _reachable(arena: ArenaExplicit, v: VertexId, moves: dict[VertexId, Edge]) -> set[VertexId]:
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        es = [moves[u]] if u in moves else list(arena.edges(u))
        for e in es:
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return seen


def _min_cycle_mean(arena: ArenaExplicit, vertices: set[VertexId],
                    moves: dict[VertexId, Edge]) -> Optional[Fraction]:
    """Minimum mean over cycles inside ``vertices`` of the graph where
    player-1 vertices follow ``moves`` and the rest keep all edges."""
    vs = sorted(vertices)
    index = {v: k for k, v in enumerate(vs)}
    n = len(vs)
    edges = []
    for v in vs:
        es = [moves[v]] if v in moves else list(arena.edges(v))
        for e in es:
            if e.dst in vertices:
                edges.append((index[v], index[e.dst], e.weight))
    # Karp: d[k][v] = min weight of a k-edge walk ending at v
    inf = None
    d = [[inf] * n for _ in range(n + 1)]
    for v in range(n):
        d[0][v] = Fraction(0)
    for k in range(1, n + 1):
        for (a, b, w) in edges:
            if d[k - 1][a] is not None:
                cand = d[k - 1][a] + w
                if d[k][b] is None or cand < d[k][b]:
                    d[k][b] = cand
    best = None
    for v in range(n):
        if d[n][v] is None:
            continue
        worst = None
        for k in range(n):
            if d[k][v] is None:
                continue
            mean = (d[n][v] - d[k][v]) / (n - k)
            if worst is None or mean > worst:
                worst = mean
        if worst is not None and (best is None or worst < best):
            best = worst
    return best


def _profiles(arena: ArenaExplicit, player: int, cap: int
              ) -> Optional[list[dict[VertexId, Edge]]]:
    """Every positional strategy of the player as a vertex -> edge map, or
    None if there are more than ``cap``."""
    owned = [v for v in arena.vertices if arena.owner(v) == player]
    size = 1
    for v in owned:
        size *= len(arena.edges(v))
        if size > cap:
            return None
    return [dict(zip(owned, combo)) for combo in itertools.product(*map(arena.edges, owned))]


def _mp_witness(arena: ArenaExplicit, values: dict[VertexId, ExtValue],
                cap: int) -> Optional[Memoryless]:
    profiles = _profiles(arena, 1, cap)
    if profiles is None:
        return None
    for moves in profiles:
        if all(_min_cycle_mean(arena, _reachable(arena, v, moves), moves) == values[v]
               for v in arena.vertices):
            return Memoryless(moves, name="mp_witness")
    return None


def _tpsup_values(arena: ArenaExplicit, cap: int = PROFILE_CAP) -> dict[VertexId, ExtValue]:
    mp = _mp_values(arena)
    out: dict[VertexId, ExtValue] = {}
    zero = set()
    for v in arena.vertices:
        if mp[v] > 0:
            out[v] = POS_INF
        elif mp[v] < 0:
            out[v] = NEG_INF
        else:
            zero.add(v)
    if not zero:
        return out
    # exact values on the zero-mean region.  Edges leaving the region are
    # never taken: entering the positive region contradicts a zero mean
    # for the maximizer, the negative region yields -inf, and dually for
    # the minimizer, so the restricted subgame is non-blocking.  Limsup
    # total payoff admits positional optimal strategies for both players
    # on finite arenas, so a max-min over positional profiles evaluated
    # on the induced lassos is exact.
    adj: dict[VertexId, list[Edge]] = {}
    for v in zero:
        keep = [e for e in arena.edges(v) if e.dst in zero]
        if not keep:
            raise AssertionError("zero region not closed at %s" % v)
        adj[v] = keep
    sub = ArenaExplicit({v: arena.owner(v) for v in zero},
                        [e for es in adj.values() for e in es],
                        min(zero), name=arena.name + "+zero")
    solved = _max_min(sub, TP, cap)
    if solved is None:
        raise ProfileCapExceeded("zero-region profile space exceeds the cap %d" % cap)
    out.update(solved[0])
    return out


def lasso_of_profiles(arena: ArenaExplicit, v: VertexId, moves1: dict[VertexId, Edge],
                      moves2: dict[VertexId, Edge]) -> Lasso:
    """The unique lasso from v when both players play positionally."""
    at = v
    seen = {v: 0}
    weights = []
    while True:
        e = moves1[at] if arena.owner(at) == 1 else moves2[at]
        weights.append(e.weight)
        at = e.dst
        if at in seen:
            cut = seen[at]
            return Lasso(tuple(weights[:cut]), tuple(weights[cut:]))
        seen[at] = len(weights)


def _max_min(arena: ArenaExplicit, kind: str, cap: int
             ) -> Optional[tuple[dict[VertexId, ExtValue], Optional[dict[VertexId, Edge]]]]:
    """Per vertex, the max over player-1 positional profiles of the min
    over player-2 profiles of the limsup lasso value, and the first
    player-1 profile attaining it at every vertex (None if none does);
    None if either profile space exceeds ``cap``."""
    p1_profiles = _profiles(arena, 1, cap)
    p2_profiles = _profiles(arena, 2, cap)
    if p1_profiles is None or p2_profiles is None:
        return None
    vs = arena.vertices
    worst = [{v: min(lasso_limit(kind, "limsup", lasso_of_profiles(arena, v, m1, m2))
                     for m2 in p2_profiles)
              for v in vs}
             for m1 in p1_profiles]
    values = {v: max(w[v] for w in worst) for v in vs}
    return values, next((m1 for m1, w in zip(p1_profiles, worst) if w == values), None)


def brute_force_values(arena: ArenaExplicit, family: str, cap: int = PROFILE_CAP
                       ) -> Optional[dict[VertexId, ExtValue]]:
    """Max-min over all memoryless profile pairs, evaluated on lassos."""
    solved = _max_min(arena, MP if family == "mp" else TP, cap)
    return None if solved is None else solved[0]


# ---------------------------------------------------------------------------
# sigma_safe and the W' region


def sigma_safe(arena: ArenaExplicit
               ) -> tuple[Memoryless, Callable[[VertexId, Fraction], bool], ValueMap]:
    """Memoryless strategy maximizing weight + value of the target, which
    never leaves the winnable (vertex, sum) region; the region itself,
    upward closed in the sum; and the solved values."""
    vm = solve_values(arena, "tpsup")

    def score(e: Edge) -> ExtValue:
        val = vm.values[e.dst]
        if isinstance(val, float):
            return val
        return e.weight + val

    # the first edge of highest score
    table = {v: max(arena.edges(v), key=score) for v in arena.vertices if arena.owner(v) == 1}

    def contains(v: VertexId, r: Fraction) -> bool:
        val = vm.values[v]
        if val == POS_INF:
            return True
        if val == NEG_INF:
            return False
        return r + val >= 0

    return Memoryless(table, name="sigma_safe"), contains, vm


# ---------------------------------------------------------------------------
# Minimal consistent histories and the step-counter conversion


def _lex(arena: Arena, node: Node) -> tuple[int, ...]:
    """Edge indices along the node's history, for lexicographic ties."""
    return tuple(arena.edges(e.src).index(e) for e in node.edges())


def _less_minimal(arena: Arena, open_sub: OpenSub, a: Node, b: Node) -> bool:
    """Is candidate a strictly more minimal (worse continuation-wise) than
    the kept b, or equivalent with a smaller lexicographic key?"""
    if a.satisfied != b.satisfied:
        return b.satisfied
    if open_sub.family != "buchi" and not a.satisfied:
        # equal lengths, so TP order coincides with MP order
        if a.tp != b.tp:
            return a.tp < b.tp
    return _lex(arena, a) < _lex(arena, b)


def _minimal_layers(arena: Arena, v0: VertexId, sigma: Strategy, open_sub: OpenSub,
                    depth: int, node_cap: Optional[int] = None) -> Layers:
    """Layers keeping one minimal consistent history per vertex.

    The prefix order is a congruence, so extending only the kept minima
    preserves the property that the kept history at a cell is dominated by
    no consistent history there; ties break lexicographically over edge
    indices.
    """
    return Layers(arena, v0, sigma, depth, open_sub=open_sub, key=lambda node: node.vertex,
                  prefer=lambda node, kept: _less_minimal(arena, open_sub, node, kept),
                  node_cap=node_cap)


def minimal_history_levels(arena: Arena, v0: VertexId, sigma_prime: Strategy,
                           open_sub: OpenSub, depth: int
                           ) -> Union[list[dict[VertexId, Node]], Inconclusive]:
    """Per (vertex, level) minimal sigma_prime-consistent history, or the
    Inconclusive of an exhausted node cap."""
    walk = _minimal_layers(arena, v0, sigma_prime, open_sub, depth)
    levels = [{node.vertex: node for node in layer} for layer in walk]
    return walk.truncated or levels


def _sc_table(arena: Arena, v0: VertexId, sigma: Strategy, open_sub: OpenSub, depth: int,
              node_cap: Optional[int] = None
              ) -> Union[dict[tuple[VertexId, int], Edge], Inconclusive]:
    """(v, s) -> the move sigma makes after the minimal consistent
    length-s history ending at v, for s below the depth."""
    walk = _minimal_layers(arena, v0, sigma, open_sub, depth - 1, node_cap)
    table = {(node.vertex, node.depth): sigma.choose(arena, node.vertex, node.depth, node.state)
             for layer in walk for node in layer
             if node.depth < depth and arena.owner(node.vertex) == sigma.player}
    return walk.truncated or table


def sc_from_strategy(arena: Arena, v0: VertexId, sigma_prime: Strategy,
                     open_sub: OpenSub, depth: int) -> Union[StepCounterTable, Inconclusive]:
    """Step-counter table playing, at (v, s), the move the given strategy
    makes after the minimal consistent length-s history ending at v."""
    table = _sc_table(arena, v0, sigma_prime, open_sub, depth)
    if isinstance(table, Inconclusive):
        return table
    return StepCounterTable(table, depth, FIRST_EDGE, player=sigma_prime.player,
                            name=sigma_prime.name + "+sc")


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
            if prefix_compare(open_sub, node.word(), h.word) not in (BOTH, LE):
                return False
    return True


# ---------------------------------------------------------------------------
# Oracles


@dataclass
class RegionOracle:
    """Winning-region oracle for a prefix-independent objective: region
    membership plus a winning strategy from any member vertex."""

    in_region: Callable[[VertexId], bool]
    strategy_from: Callable[[VertexId], Strategy]
    uniform_memoryless: bool = False


def finite_mp_oracle(arena: ArenaExplicit) -> RegionOracle:
    vm = solve_values(arena, "mp")
    if vm.witness is None:
        raise ProfileCapExceeded("no memoryless witness within the profile cap %d" % PROFILE_CAP)

    def in_region(v: VertexId) -> bool:
        return vm.values[v] >= 0

    return RegionOracle(in_region, lambda v: vm.witness, uniform_memoryless=True)


@dataclass
class WPrimeOracle:
    """Oracle for the non-prefix-independent limsup-TP>=0 objective:
    region over (vertex, sum) pairs, a safe memoryless strategy, and a
    winning strategy from any pair in the region."""

    wprime: Callable[[VertexId, Fraction], bool]
    safe: Strategy
    winning_from: Callable[[VertexId, Fraction], Strategy]


def finite_wprime_oracle(arena: ArenaExplicit) -> WPrimeOracle:
    safe, region, vm = sigma_safe(arena)
    if vm.witness is None:
        raise ProfileCapExceeded("no memoryless witness within the profile cap %d" % PROFILE_CAP)
    return WPrimeOracle(region, safe, lambda v, r: vm.witness)


# ---------------------------------------------------------------------------
# Bubble synthesis (step counter, prefix-independent objectives)


@dataclass
class SynthReport:
    schedule: list[tuple[int, int]]  # (m, k_m)
    strategy: Optional[Strategy]
    level_certs: list[tuple[int, int, bool]]  # (m, k_m, recertified)
    region_ok: bool
    complete: bool
    failure: Optional[str] = None

    @property
    def certified(self) -> bool:
        return (self.complete and self.region_ok
                and all(ok for (_, _, ok) in self.level_certs))


class _Composite(Strategy):
    """A fixed table up to the boundary step, then a winning continuation
    from the reached (vertex, running total) pair.

    The state is the fixed table's state and the running total up to the
    boundary, then the boundary pair and the continuation's own state.
    """

    def __init__(self, v0: VertexId, fixed: Strategy, boundary: int,
                 continuation: Callable[[VertexId, Fraction], Strategy],
                 step_determined: bool):
        self.name = "composite@%d" % boundary
        self._v0 = v0
        self._fixed = fixed
        self._boundary = boundary
        self._continuation = continuation
        self._cache: dict[tuple[VertexId, Fraction], Strategy] = {}
        # True when decisions depend on (vertex, step) only
        self._step_determined = step_determined

    def _cont(self, at: tuple[VertexId, Fraction]) -> Strategy:
        strat = self._cache.get(at)
        if strat is None:
            strat = self._cache[at] = self._continuation(*at)
        return strat

    def _enter(self, at: tuple[VertexId, Fraction]):
        return (at, self._cont(at).initial_state())

    def initial_state(self):
        if self._boundary == 0:
            return self._enter((self._v0, Fraction(0)))
        return (None, (0, self._fixed.initial_state(), Fraction(0)))

    def step_state(self, state, edge):
        at, inner = state
        if at is not None:
            return (at, self._cont(at).step_state(inner, edge))
        steps, fixed_state, tp = inner
        steps, tp = steps + 1, tp + edge.weight
        if steps == self._boundary:
            return self._enter((edge.dst, tp))
        return (None, (steps, self._fixed.step_state(fixed_state, edge), tp))

    def choose(self, arena, vertex, step, state):
        at, inner = state
        if at is not None:
            return self._cont(at).choose(arena, vertex, step - self._boundary, inner)
        return self._fixed.choose(arena, vertex, step, inner[1])

    def signature(self, step, state):
        return () if self._step_determined else None


def bubble_synthesize(arena: Arena, v0: VertexId, decomposition: Decomposition,
                      m_max: int, oracle: RegionOracle, depth_cap: int = 400,
                      node_cap: Optional[int] = None) -> SynthReport:
    """Fix a step-counter table on growing step intervals, one open
    sub-objective per bubble, then re-certify every level on the final
    table and check the winning region is never left."""
    if node_cap is None:
        node_cap = node_cap_from_env()
    if not oracle.in_region(v0):
        raise ValueError("start vertex %s is outside the winning region" % v0)
    fixed: dict[tuple[VertexId, int], Edge] = {}
    schedule: list[tuple[int, int]] = []
    k_prev = 0
    for m in range(1, m_max + 1):
        sub = decomposition.sub(m)
        comp = _Composite(v0, StepCounterTable(fixed, k_prev, ERROR), k_prev,
                          lambda w, r: oracle.strategy_from(w),
                          step_determined=oracle.uniform_memoryless)
        kb = koenig_bound(arena, v0, comp, sub, depth_cap, node_cap)
        if not isinstance(kb, KoenigBound):
            return SynthReport(schedule, None, [], False, False,
                               failure="bubble %d: %r" % (m, kb))
        k_m = max(kb.level, k_prev + 1)
        new_fixed = _sc_table(arena, v0, comp, sub, k_m, node_cap)
        if isinstance(new_fixed, Inconclusive):
            return SynthReport(schedule, None, [], False, False,
                               failure="bubble %d: %r" % (m, new_fixed))
        if any(new_fixed[key] != fixed.get(key) for key in new_fixed if key[1] < k_prev):
            return SynthReport(schedule, None, [], False, False,
                               failure="bubble %d rewrote the fixed table" % m)
        fixed = new_fixed
        k_prev = k_m
        schedule.append((m, k_m))

    strategy = StepCounterTable(fixed, k_prev, FIRST_EDGE, name="bubble_sc")
    return _final_report(arena, v0, strategy, schedule, decomposition.sub,
                         lambda v, r: oracle.in_region(v), node_cap)


def _final_report(arena: Arena, v0: VertexId, strategy: Strategy,
                  schedule: list[tuple[int, int]], subs: Callable[[int], OpenSub],
                  member: Callable[[VertexId, Fraction], bool], node_cap: int) -> SynthReport:
    """Re-certify every scheduled level on the final strategy and check
    that no consistent history up to the last level leaves the region."""
    level_certs = []
    for (m, k_m) in schedule:
        again = koenig_bound(arena, v0, strategy, subs(m), k_m, node_cap)
        if isinstance(again, Inconclusive) and again.node_cap is not None:
            return SynthReport(schedule, strategy, level_certs, False, False,
                               failure="level m=%d: %s" % (m, again.reason))
        level_certs.append((m, k_m, isinstance(again, KoenigBound) and again.level <= k_m))
    walk = _merged_layers(arena, v0, strategy, schedule[-1][1] if schedule else 0, node_cap)
    region_ok = all(member(node.vertex, node.tp) for layer in walk for node in layer)
    if walk.truncated is not None:
        return SynthReport(schedule, strategy, level_certs, False, False,
                           failure="region check: %s" % walk.truncated.reason)
    return SynthReport(schedule, strategy, level_certs, region_ok, True)


def _merged_layers(arena: Arena, v0: VertexId, strategy: Strategy, depth: int,
                   node_cap: int) -> Layers:
    """Consistent layers merging histories with equal (vertex, signature,
    running total): they take the same edges and meet the same (vertex,
    sum) regions from there on."""
    def key(node: Node):
        sig = strategy.signature(node.depth, node.state)
        return None if sig is None else (node.vertex, sig, node.tp)

    return Layers(arena, v0, strategy, depth, key=key, node_cap=node_cap)


# ---------------------------------------------------------------------------
# Step-counter + 1 bit synthesis for limsup total payoff >= 0


def sc1bit_synthesize(arena: Arena, v0: VertexId, m_max: int, oracle: WPrimeOracle,
                      depth_cap: int = 400, node_cap: Optional[int] = None) -> SynthReport:
    """Synthesize a step-counter-plus-one-bit strategy for the objective
    that the running total payoff is at least 0 in the limit superior.

    Per bubble, with boundary k: the scheduled sub-objective asks for a
    running total at least -1/(k+1) at some position past k+1.  Bit 0
    mimics the strategy induced by minimal consistent histories; the bit
    flips to 1 as soon as the mimicked history's one-step extension
    already satisfies the sub-objective, after which a safe memoryless
    strategy keeps the (vertex, sum) pair winnable; the bit resets at
    every bubble boundary.
    """
    if node_cap is None:
        node_cap = node_cap_from_env()
    if not oracle.wprime(v0, Fraction(0)):
        raise ValueError("start %s with sum 0 is outside the winnable region" % v0)

    # the table under construction; each bubble fills the levels it adds
    live = StepCounterPlusK(2, {}, depth_cap, {}, ERROR, name="sc1bit_partial")
    table, bitupd = live.table, live.bit_update
    schedule: list[tuple[int, int]] = []
    k_prev = 0

    for _ in range(m_max):
        m_sched = k_prev + 1
        sub = OpenSub("tp-sup", m=m_sched)

        # reset the bit entering this bubble: the update on every edge
        # crossing the boundary yields mode 0
        if k_prev > 0:
            walk = _merged_layers(arena, v0, live, k_prev - 1, node_cap)
            *_, last = walk
            if walk.truncated is not None:
                return SynthReport(schedule, None, [], False, False,
                                   failure="bubble m=%d: %s" % (m_sched, walk.truncated.reason))
            for node in last:
                for e in walk.moves(node):
                    bitupd[(k_prev - 1, 0, e)] = 0
                    bitupd[(k_prev - 1, 1, e)] = 0
        comp = _Composite(v0, StepCounterPlusK(2, table, k_prev, bitupd, ERROR), k_prev,
                          oracle.winning_from, step_determined=False)

        built = _build_bubble(arena, v0, comp, live, sub, k_prev, oracle, depth_cap, node_cap)
        if isinstance(built, Inconclusive):
            return SynthReport(schedule, None, [], False, False,
                               failure="bubble m=%d: %s" % (m_sched, built.reason))
        if built is None:
            return SynthReport(schedule, None, [], False, False,
                               failure="bubble m=%d: no bound within the depth cap" % m_sched)
        k_m, violation = built
        if violation is not None:
            return SynthReport(schedule, None, [], False, False,
                               failure="left the winnable region: %s" % violation)
        schedule.append((m_sched, k_m))
        k_prev = k_m

    strategy = StepCounterPlusK(2, table, k_prev, bitupd, FIRST_EDGE, name="sc1bit")
    return _final_report(arena, v0, strategy, schedule, lambda m: OpenSub("tp-sup", m=m),
                         oracle.wprime, node_cap)


def _build_bubble(arena: Arena, v0: VertexId, comp: Strategy, live: StepCounterPlusK,
                  sub: OpenSub, k_prev: int, oracle: WPrimeOracle, depth_cap: int,
                  node_cap: int):
    """Extend the live table over one bubble.

    Walks the minimal consistent histories of the composite and the
    consistent tree of the live table in lockstep.  At each level from
    k_prev on, the minimal histories fill the bit-0 moves and bit updates
    before the live walk expands the level: bit 0 mimics the minimal
    history, bit 1 plays safe.  Returns (k_m, violation), None if the
    depth cap is hit before every consistent branch satisfies, or the
    Inconclusive of an exhausted node cap.
    """
    table, bitupd = live.table, live.bit_update
    mimics = _minimal_layers(arena, v0, comp, sub, depth_cap, node_cap)
    # a later duplicate replaces the kept node: its history backs the
    # minimal-history cell when the mimic never reaches its vertex
    runs = Layers(arena, v0, live, depth_cap, open_sub=sub,
                  key=lambda node: (node.vertex, node.state[1], node.tp, node.satisfied),
                  prefer=lambda node, kept: True, node_cap=node_cap)
    for d, (cells, frontier) in enumerate(zip(mimics, runs)):
        for node in frontier:
            if not oracle.wprime(node.vertex, node.tp):
                return (d, "(%s, %s) at step %d" % (node.vertex, node.tp, d))
        if d == depth_cap:
            return None
        if d >= max(k_prev, 1) and d >= sub.step_index and all(n.satisfied for n in frontier):
            return (max(d, k_prev + 1), None)
        if d >= k_prev:
            # a bit reset at a bubble boundary can land on a safe-strategy
            # detour the mimic never reaches: back the cell by the run itself
            reached = {node.vertex for node in cells}
            for node in frontier:
                if node.state[1] == 0 and node.vertex not in reached:
                    reached.add(node.vertex)
                    state = reduce(comp.step_state, node.edges(), comp.initial_state())
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
                table[key] = oracle.safe.choose(arena, node.vertex, d, None)
    return mimics.truncated or runs.truncated
