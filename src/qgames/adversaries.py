"""Constructive opponent counterstrategies with checkable certificates.

Each routine targets a specific zoo family and a class of maximizer
strategies that provably cannot win there, builds the punishing opponent
explicitly, simulates the unique resulting play, and packages the
evidence as a certificate the engine can re-check independently.  The
caller picks the routine for the entry (``cli.cmd_defeat``); a routine
refuses a strategy outside its class with a ``ValueError`` naming the
class, and a window, horizon or probe cap exhausted before a verdict
raises ``engine.Inconclusive`` naming it.
"""

from __future__ import annotations

import itertools
from functools import cache, reduce
from typing import Callable, NamedTuple, Optional, Union

from .arena import (Arena, Edge, LetterMemory, VertexId, Weight, V, _new_edge, _new_vertex,
                    node_cap_from_env)
from .engine import (Certificate, ColourStarvation, Divergence, EarlyExitNegative,
                     Inconclusive, PlayRecord, lasso, play, _round_signature)
from .strategies import StepCounterTable, Strategy
from .zoo import ZooEntry, a4_router, _edge_to, _edge_to_weight


class DefeatResult(NamedTuple):
    p2: Strategy
    certificate: Optional[Certificate]
    record: PlayRecord
    partial: bool
    notes: list[str]


def _require_incremental_fm(sigma: Strategy, entry: ZooEntry, note: str = "") -> None:
    if sigma.mealy is None:
        raise ValueError("only finite-memory strategies can be defeated on zoo entry %r, got %s%s"
                         % (entry.name, type(sigma).__name__, note))


def _decrease_certificate(record: PlayRecord, starts: list[int]) -> Union[Divergence, str]:
    """The Divergence claiming that every round between successive
    ``starts`` loses at least 1 and that the rounds close a cycle, or why
    the play does not support that claim."""
    payoffs = [record.tp_at(bb) - record.tp_at(aa) for aa, bb in zip(starts, starts[1:])]
    if not payoffs or max(payoffs) > -1:
        return "a round failed to lose at least 1; no certificate"
    elevation = max(
        max(record.tp_at(x) for x in range(aa, bb + 1)) - record.tp_at(aa)
        for aa, bb in zip(starts, starts[1:]))
    last = _round_signature(record, starts[-1])
    cf = next((idx for idx, step in enumerate(starts[:-1])
               if _round_signature(record, step) == last), None)
    if cf is None:
        return "memory cycle did not close within the horizon"
    return Divergence("decrease", starts, len(record.edges), decrease=1,
                      elevation=elevation, cycle_from=cf)


def _exit_defeat(p2: Strategy, record: PlayRecord, note: str) -> Optional[DefeatResult]:
    """The early-exit defeat of a play absorbed below 0, or None."""
    if record.termination != "sink" or not record.final_tp < 0:
        return None
    cert = EarlyExitNegative(record.final_tp, 0, len(record.edges))
    return DefeatResult(p2, cert, record, False, [note])


# ---------------------------------------------------------------------------
# Finite memory loses the repeated match game (A1' and A2)

# rounds in a match-game play: two steps each on a1prime, sixteen on a2
_ROUNDS = 24
# the highest challenge probed on a2, and the longest descent followed
_PROBE_CAP = 256
_DESCENT_CAP = 4096
_WINS_THERE = "; match_plus_one is player 1's winning strategy there"


def defeat_a1prime(sigma: Strategy, entry: ZooEntry) -> DefeatResult:
    """Opponent beating any finite-memory responder on a1prime: track the
    responder's memory, precompute the largest number it can answer from
    that state, and owe one more."""
    _require_incremental_fm(sigma, entry, _WINS_THERE)
    arena = entry.arena
    b = entry.params["b"]
    s, t = V("s"), V("t")

    def owed(state) -> Weight:
        """One more than the most the responder answers from ``state`` at s."""
        return 1 + max(sigma.choose(arena, t, sigma.step_state(state, e)).weight
                       for e in arena.edges(s))

    # the opponent carries the responder's memory state along the play
    def decide(ar: Arena, v: VertexId, state) -> Edge:
        return _edge_to_weight(ar, s, -min(owed(state), b))

    p2 = Strategy("owe_one_more", sigma.initial, sigma.step_state, decide, player=2)
    horizon = 2 * _ROUNDS
    record = play(arena, entry.start, sigma, p2, horizon)
    starts = record.steps_at(lambda v: v == s)
    # the cap bound the response wherever the play owed more than b, the
    # challenge chosen or, at b = 1, forced
    capped = any(owed(sigma.initial if step == 0 else record.mem1_trace[step - 1]) > b
                 for step in starts if step < len(record.edges))
    return _finish_decrease(p2, record, starts, partial=capped,
                            notes=(["truncation cap bound the response"] if capped else []))


def _finish_decrease(p2: Strategy, record: PlayRecord, starts: list[int], partial: bool,
                     notes: list[str]) -> DefeatResult:
    cert = _decrease_certificate(record, starts)
    if isinstance(cert, str):
        return DefeatResult(p2, None, record, True, notes + [cert])
    return DefeatResult(p2, cert, record, partial, notes)


def defeat_a2(sigma: Strategy, entry: ZooEntry) -> DefeatResult:
    """Opponent beating any finite-memory responder on a2: challenge each
    round just high enough that the responder, from its memory at the
    round start, answers too low or descends past the cap."""
    _require_incremental_fm(sigma, entry, _WINS_THERE)
    arena = entry.arena
    INF = None  # descent never exits within the cap

    def descent_length(v: VertexId, state) -> Optional[int]:
        """The steps the responder descends from b(i, 0) before it climbs."""
        for k in range(_DESCENT_CAP):
            move = sigma.choose(arena, v, state)
            if move.dst.name == "a":
                return k
            state = sigma.step_state(state, move)
            v = move.dst
        return INF

    # memoized per (i, memory state) so the opponent is pure
    @cache
    def probe(i: int, m0) -> int:
        """Challenge height j making this round lose: the responder either
        answers k < j or descends past the cap."""
        state = m0
        v = V("a", (i, 0))
        for j in range(1, _PROBE_CAP + 1):
            climb = _edge_to(arena, v, "a")
            state = sigma.step_state(state, climb)
            v = climb.dst
            dive = _edge_to(arena, v, "b")
            k = descent_length(dive.dst, sigma.step_state(state, dive))
            if k is INF or k < j:
                return j
        raise Inconclusive("no losing challenge within the probe cap %d" % _PROBE_CAP)

    # state: the responder's memory now and on the latest arrival at a round
    # start a(i, 0) (its initial memory before the first arrival)
    def update(state, e: Edge):
        m = sigma.step_state(state[0], e)
        return m, (m if e.dst.name == "a" and e.dst.params[1] == 0 else state[1])

    def decide(ar: Arena, v: VertexId, state) -> Edge:
        i, jj = v.params
        return _edge_to(ar, v, "a" if jj < probe(i, state[1]) else "b")

    p2 = Strategy("owe_one_more_a2", (sigma.initial,) * 2, update, decide, player=2)
    horizon = max(64, _ROUNDS * 16)
    record = play(arena, entry.start, sigma, p2, horizon)
    starts = record.steps_at(lambda v: v.name == "a" and v.params[1] == 0)
    if len(starts) >= 3 and starts[-1] - starts[-2] > 0:
        result = _finish_decrease(p2, record, starts, False, [])
        if result.certificate is not None:
            return result
    # the responder descends forever: certify along the descent itself
    return _certify_endless_descent(p2, record)


def _certify_endless_descent(p2: Strategy, record: PlayRecord) -> DefeatResult:
    tail = record.steps_at(lambda v: v.name == "b")
    runs = [step for step in tail if step + 8 <= len(record.edges)
            and all(record.vertex_at(x).name == "b" for x in range(step, step + 8))]
    if len(runs) < 3:
        return DefeatResult(p2, None, record, True,
                            ["no usable round or descent structure found"])
    # pick boundaries sharing the responder's memory state
    by_state: dict[object, list[int]] = {}
    for step in runs:
        by_state.setdefault(record.mem_at(1, step), []).append(step)
    best = max(by_state.values(), key=len)
    if len(best) < 2:
        return DefeatResult(p2, None, record, True,
                            ["descent memory state never repeats in the window"])
    return _finish_decrease(p2, record, best, False,
                            ["responder never exits the descending chain"])


# ---------------------------------------------------------------------------
# Step counters lose on A3


def _require_step_counter(sigma: Strategy, what: str) -> None:
    if not isinstance(sigma, StepCounterTable):
        raise ValueError("%s needs a step-counter table, got %s" % (what, type(sigma).__name__))
    if sigma.k != 1:
        raise ValueError("%s needs a step-counter table with one mode, got %d modes"
                         % (what, sigma.k))


def defeat_sc_on_A3(sigma: Strategy, entry: ZooEntry, horizon: int = 400) -> DefeatResult:
    """On A3 every history reaching the i-th decision vertex t(i) has
    length 3i+1, so a step-counter table decides there by its cell
    (t(i), 3i+1); a missing cell never exits (it delays or is refused).  If a
    row exits at some t(i), enter at the least such i (total -1).  With no
    exit row the strategy delays forever: enter at the first vertex, and
    certify the stagnation below 0 by a probe play one step past the
    horizon, as far as a certificate's self-check replays
    (``engine._check_play``)."""
    _require_step_counter(sigma, "defeat_sc_on_A3")
    arena = entry.arena
    exit_index = min((v.params[0] for (v, step, _), e in sigma.table.items()
                      if v.name == "t" and step == 3 * v.params[0] + 1 < sigma.horizon
                      and e.dst.name == "r0"), default=None)
    if exit_index is not None:
        p2 = entry.strategy("p2_enter_%d" % exit_index)
        result = _exit_defeat(p2, play(arena, entry.start, sigma, p2, horizon),
                              "entered at index %d, the strategy's own exit step" % exit_index)
        if result is None:
            raise Inconclusive("horizon too small to absorb after entering at %d" % exit_index)
        return result
    probe = play(arena, entry.start, sigma, entry.strategy("p2_enter_0"), horizon + 1)
    starts = [s for s in probe.steps_at(lambda v: v.name == "t") if s <= horizon]
    if len(starts) < 2:
        raise Inconclusive("horizon too small to cover any decision vertex")
    cert = Divergence("stagnation", starts, horizon, ceiling=-1, cycle_from=0)
    return DefeatResult(entry.strategy("p2_enter_0"), cert, probe, False,
                        ["no exit within the horizon; the play stays at -1"])


# ---------------------------------------------------------------------------
# Ramsey adversary on A4


class AdversaryPlan(NamedTuple):
    entry: int
    routing: list[int]


# A closed-form path on A4 is its first vertex and its runs of equal
# letters.  A run (letter, params, steps) is len(steps) edges of the
# letter's (src name, weight, dst name); the k-th ends at the dst name with
# parameters params + (steps[k],), and each edge starts where the last ended.

def _entry_path(i: int) -> tuple:
    """The descent from s(i) to the i-th decision vertex: one weight -1 edge
    into d(i, 1), 2i+1 more through d(i, 2..2i+2), then a weight-0 edge to
    t(i)."""
    return V("s", (i,)), ((("s", -1, "d"), (i,), range(1, 2)),
                           (("d", -1, "d"), (i,), range(2, 2 * i + 3)),
                           (("d", 0, "t"), (), range(i, i + 1)))


def _gadget_path(i: int, j: int) -> tuple:
    """The delay path from the i-th decision vertex stretched j rounds: one
    delay edge, j-1 climbs, then the 2j-step drop to t(i+j)."""
    return V("t", (i,)), ((("t", 1, "g"), (i,), range(1, 2)),
                           (("g", 1, "g"), (i,), range(2, j + 1)),
                           (("g", -1, "dr"), (i, j), range(1, 2)),
                           (("dr", -1, "dr"), (i, j), range(2, 2 * j)),
                           (("dr", 0, "t"), (), range(i + j, i + j + 1)))


def _path_edges(path: tuple):
    """The path's edges in order, the named tuples built without their
    ``__new__`` frames."""
    at, runs = path
    for (_, weight, name), params, steps in runs:
        for p in steps:
            nxt = _new_vertex((name, params + (p,)))
            yield _new_edge((at, weight, nxt))
            at = nxt


def _fold(sigma: Strategy, states: list, path: tuple) -> list:
    """``sigma``'s memory after ``path`` from each of ``states``.  A
    ``LetterMemory`` folds each run in at most K+1 checked steps
    (``LetterMemory.run``); any other memory folds the path edge by edge."""
    memory = sigma.mealy
    if isinstance(memory, LetterMemory):
        for letter, _, steps in path[1]:
            states = [memory.run(m, letter, len(steps)) for m in states]
        return states
    edges = list(_path_edges(path)) if len(states) > 1 else _path_edges(path)
    return [reduce(sigma.step_state, edges, m) for m in states]


# the most monochromatic cliques tried before giving up
_MAX_CLIQUES = 64


def ramsey_adversary(sigma: Strategy, entry: ZooEntry, window: int = 2000,
                     horizon: int = 4000) -> tuple[AdversaryPlan, DefeatResult]:
    """Defeat a finite-memory strategy on the delay-gadget arena.

    Pairs of decision indices are coloured by the strategy's exit profile
    at both endpoints plus its memory update along the stretched delay
    path between them.  On a monochromatic clique of size K+2 the memory
    at successive decision vertices follows one fixed map, so the
    strategy either exits within K delays (entering deep enough makes the
    total negative) or its memory cycles while every stretched delay
    loses at least 1.
    """
    _require_incremental_fm(sigma, entry)
    arena = entry.arena
    states = list(sigma.mealy.states)
    index = {m: n for n, m in enumerate(states)}
    K = len(states)
    size = K + 2

    @cache
    def exit_profile(i: int) -> tuple:
        t_i = V("t", (i,))
        return tuple(sigma.choose(arena, t_i, m).dst.name == "r0" for m in states)

    @cache
    def gadget_update(i: int, j: int) -> tuple:
        return tuple(index[m] for m in _fold(sigma, states, _gadget_path(i, j)))

    def label(i: int, k: int) -> tuple:
        """The pair's colour: both exit profiles (per state, whether the
        strategy exits) and the update along the delay (per state, the
        successor state's index)."""
        return exit_profile(i) + exit_profile(k), gadget_update(i, k - i)

    lo, hi = K, K + window
    entry_state = _entry_states(sigma, entry)

    # cheap pre-pass: an entry index where the strategy exits at once
    # already loses -i-1; no clique machinery needed
    for i in range(lo, min(hi, lo + 256) + 1):
        # the descent costs O(i) steps, so skip it when no state exits
        if not any(exit_profile(i)):
            continue
        if exit_profile(i)[index[entry_state(i)]]:
            p2 = a4_router(i, [1])
            result = _exit_defeat(p2, play(arena, entry.start, sigma, p2, horizon),
                                  "exits immediately when entered at %d" % i)
            if result is not None:
                return AdversaryPlan(i, [i]), result

    failed_first: dict[int, int] = {}
    for clique in itertools.islice(_cliques(lo, hi, size, label), _MAX_CLIQUES):
        if failed_first.get(clique[0], 0) >= 2:
            continue
        # independent re-verification of monochromaticity
        labels = {label(a, bb) for a, bb in itertools.combinations(clique, 2)}
        assert len(labels) == 1, "clique search returned a non-monochromatic set"
        result = _run_plan(sigma, entry, clique, states, index,
                           entry_state, exit_profile, gadget_update, horizon)
        if result is not None:
            return AdversaryPlan(clique[0], list(clique)), result
        failed_first[clique[0]] = failed_first.get(clique[0], 0) + 1
    raise Inconclusive("no monochromatic index clique of size %d within window %d; enlarge "
                       "the window (existence is guaranteed only in the infinite limit)"
                       % (size, window))


def _cliques(lo: int, hi: int, size: int, label, chosen: tuple = (), colour=None):
    """Lexicographically ordered monochromatic cliques with gaps >= 2 that
    extend ``chosen`` (all of colour ``colour``), as many as the caller
    takes.  It recurses through its own module-level name: a nested
    function that calls itself is a reference cycle, and ``cli.main`` runs
    a job with the cyclic collector off."""
    if len(chosen) == size:
        yield chosen
        return
    for cand in range(chosen[-1] + 2 if chosen else lo, hi + 1):
        if len(chosen) == 1:
            yield from _cliques(lo, hi, size, label, chosen + (cand,), label(chosen[0], cand))
        elif not chosen or all(label(c, cand) == colour for c in chosen):
            yield from _cliques(lo, hi, size, label, chosen + (cand,), colour)


def _run_plan(sigma: Strategy, entry: ZooEntry, clique: tuple, states, index,
              entry_state, exit_profile, gadget_update, horizon) -> Optional[DefeatResult]:
    arena = entry.arena
    gaps = [b - a for a, b in zip(clique, clique[1:])]
    # predicted memory trajectory at successive decision vertices
    traj = [index[entry_state(clique[0])]]
    f = exit_profile(clique[0])
    delta = gadget_update(clique[0], clique[1] - clique[0])
    while len(traj) < len(clique) and not f[traj[-1]]:
        traj.append(delta[traj[-1]])
    exits_at = len(traj) - 1 if f[traj[-1]] else None

    if exits_at is not None:
        p2 = a4_router(clique[0], gaps[:max(exits_at, 1)])
        return _exit_defeat(p2, play(arena, entry.start, sigma, p2, horizon),
                            "exited after %d delays from entry %d" % (exits_at, clique[0]))

    # no exit on the clique: the memory trajectory repeats; cycle the gaps
    cycle_from = next((traj.index(mn) for n, mn in enumerate(traj) if traj.index(mn) < n), 0)
    p2 = a4_router(clique[0], gaps, cycle_from=cycle_from)
    record = play(arena, entry.start, sigma, p2, horizon)
    if record.termination == "sink":
        # the strategy exited once the cycled gaps left the clique; a
        # negative total still defeats it, otherwise try another clique
        return _exit_defeat(p2, record, "late exit beyond the clique from entry %d" % clique[0])
    starts = record.steps_at(lambda v: v.name == "t")
    if len(starts) < 3:
        return None
    cert = _decrease_certificate(record, starts)
    if isinstance(cert, str):
        return None
    # monochromatic-cycle soundness: the predicted round map must match
    # the simulated memory trace at every certified boundary
    for n, step in enumerate(starts[:len(traj)]):
        if record.mem_at(1, step) != states[traj[n]]:
            return None
    return DefeatResult(p2, cert, record, False,
                        ["all-delay memory cycle from round %d" % cycle_from])


def _entry_states(sigma: Strategy, entry: ZooEntry) -> Callable[[int], object]:
    """Lookup of the strategy's memory on arrival at t(i) when the opponent
    enters at index i.  One walk along the s-chain, shared by every index
    and extended on demand, gives the memory at s(i).  The descent to t(i)
    is folded from its closed form (``_entry_path``): in O(K) checked steps
    for a ``LetterMemory``, else edge by edge, each edge built as it is
    folded."""
    def chain():
        v, state = entry.start, sigma.initial
        while True:
            (j,) = v.params
            if j >= 0:
                yield state
            e = _edge_to(entry.arena, v, "s")  # the guard s(-1) has only this edge
            v, state = e.dst, sigma.step_state(state, e)

    walk = chain()
    at_s: list = []  # memory on arrival at s(0), s(1), ...

    def lookup(i: int):
        while len(at_s) <= i:
            at_s.append(next(walk))
        (state,) = _fold(sigma, [at_s[i]], _entry_path(i))
        return state

    return lookup


# ---------------------------------------------------------------------------
# Step counters lose the two-colour objective on BuchiB


def defeat_sc_buchi(sigma: Strategy, entry: ZooEntry) -> DefeatResult:
    """Pad every arrival at the decision vertex by one step (``pad_1``)
    until the lasso closes (``engine.lasso``): past its last row a
    ``fallback=first`` table plays v's first edge, the exit, so the loop
    colour never recurs.  A ``fallback=error`` table stops at its first
    missing cell (``HorizonExceeded``)."""
    _require_step_counter(sigma, "defeat_sc_buchi")
    p2 = entry.strategy("pad_1")
    cap = node_cap_from_env()
    edges, cycle_from = lasso(entry.arena, entry.start, sigma, p2, cap)
    if cycle_from is None:
        raise Inconclusive("the play closes no lasso within the node cap %d" % cap, node_cap=cap)
    closure = len(edges)
    after = max((i + 1 for i, e in enumerate(edges) if e.weight == 1), default=0)
    record = play(entry.arena, entry.start, sigma, p2, closure)
    return DefeatResult(p2, ColourStarvation(1, after, closure), record, False,
                        ["the lasso closes at step %d; colour 1 does not occur from step %d on"
                         % (closure, after)])
