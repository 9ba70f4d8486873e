"""Parametric arena families with their strategies and regions.

Each entry bundles a lazily generated arena, the closed-form strategies
the analysis of that arena relies on, each keeping only the summary of
the history it decides from, and (where relevant) a closed-form
winning-region predicate.  Entries are addressed by ``zoo:<name>?k=v``
URIs on the command line.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .arena import (DEFAULT_VERTEX_CAP, Arena, Edge, LetterMemory, MealyMemory, VertexId, Weight,
                    P1, P2, V, _new_edge, _new_vertex, make_edge, read_number)
from .strategies import FiniteMemory, Memoryless, Strategy

E = make_edge  # short alias used heavily by the expansions


class _ZooEntry(NamedTuple):
    arena: Arena
    note: str
    params: dict = None  # the URI parameters, set by ``make``
    strategies: dict[str, Strategy] = None
    strategy_factories: dict[str, Callable[[int], Strategy]] = None
    wprime: Optional[Callable[[VertexId, Weight], bool]] = None
    extras: dict = None


class ZooEntry(_ZooEntry):
    """An arena with its analysis's strategies; the entry's name and start
    are the arena's.  Each dict left out (None) is a fresh empty one."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        return self._replace(**{name: {} for name in ("params", "strategies",
                                                      "strategy_factories", "extras")
                                if getattr(self, name) is None})

    @property
    def name(self) -> str:
        return self.arena.name

    @property
    def start(self) -> VertexId:
        return self.arena.start

    def strategy(self, name: str) -> Strategy:
        """A named strategy, or a factory's at the index ``name`` ends in,
        written as it prints and at least 0."""
        if name in self.strategies:
            return self.strategies[name]
        for prefix, factory in self.strategy_factories.items():
            if name.startswith(prefix):
                suffix = name[len(prefix):]
                try:
                    arg = int(suffix)
                except ValueError:
                    continue
                if arg < 0 or str(arg) != suffix:
                    raise ValueError("entry %s strategy %r must end in an integer of at least 0,"
                                     " written as it prints" % (self.name, name))
                return factory(arg)
        have = sorted(self.strategies) + ["%s<int>" % p for p in sorted(self.strategy_factories)]
        raise KeyError("entry %s has no strategy %r (have: %s)" % (self.name, name, ", ".join(have)))


def _edge_to(arena: Arena, v: VertexId, dst_name: str) -> Edge:
    for e in arena.edges(v):
        if e.dst.name == dst_name:
            return e
    raise KeyError("no edge from %s to a %r vertex" % (v, dst_name))


def _edge_to_weight(arena: Arena, v: VertexId, weight) -> Edge:
    for e in arena.edges(v):
        if e.weight == weight:
            return e
    raise KeyError("no edge of weight %s at %s" % (weight, v))


def _last_edge(last: Optional[Edge], e: Edge) -> Edge:
    """Running summary keeping the latest edge (``None`` before any)."""
    return e


# ---------------------------------------------------------------------------
# A1 and A1': one-shot and repeated match-the-number games (truncated)


def _make_a1(b: int, repeated: bool = False) -> ZooEntry:
    if not 1 <= b <= DEFAULT_VERTEX_CAP:  # before any of its b edges is built
        raise ValueError("zoo parameter 'b' must be between 1 and the vertex cap %d, got %d"
                         % (DEFAULT_VERTEX_CAP, b))
    s, t, q = V("s"), V("t"), V("q")
    back = s if repeated else q

    def expand(v: VertexId):
        if v == s:
            return P2, tuple(E(s, -i, t) for i in range(1, b + 1))
        if v == t:
            return P1, tuple(E(t, i, back) for i in range(0, b + 1))
        if v == q and not repeated:
            return P1, (E(q, 0, q),)
        raise KeyError(v)

    name = "a1prime" if repeated else "a1"
    arena = Arena(name, s, expand)

    def match_plus_one(ar: Arena, v: VertexId, last: Edge) -> Edge:
        challenge = -last.weight  # P2 just played -i
        return _edge_to_weight(ar, t, min(challenge + 1, b))

    note = ("one challenge-response round (repeated when primed): the opponent "
            "owes -i, the responder answers +j; every finite-memory responder "
            "tops out at some bound and loses to -bound-1. Truncated to "
            "challenges 1..%d." % b)
    return ZooEntry(arena, note,
                    strategies={"match_plus_one": Strategy("match_plus_one", None, _last_edge,
                                                           match_plus_one)})


# ---------------------------------------------------------------------------
# A2: acyclic finitely branching unfolding of the repeated match game


def _make_a2() -> ZooEntry:
    def expand(v: VertexId):
        name, params = v
        if len(params) == 2 and min(params) >= 0:
            i, j = params
            if name == "a":  # P2 climbing chain, +1 per step
                return P2, (E(v, 1, V("a", (i, j + 1))), E(v, -2 * j, V("b", (i, 0))))
            if name == "b":  # P1 descending chain, -1 per step
                return P1, (E(v, -1, V("b", (i, j + 1))), E(v, 2 * j, V("a", (i + 1, 0))))
        raise KeyError(v)

    arena = Arena("a2", V("a", (0, 0)), expand)

    def latest_challenge(j: Optional[int], e: Edge) -> Optional[int]:
        # P2 descends from a(i, j) to b(i, 0)
        return e.src.params[1] if e.src.name == "a" and e.dst.name == "b" else j

    def match_plus_one(ar: Arena, v: VertexId, challenge: Optional[int]) -> Edge:
        k = v.params[1]
        if challenge is None:
            challenge = k - 1  # suffix start inside the chain: exit now
        return _edge_to(ar, v, "a" if k >= challenge + 1 else "b")

    note = ("acyclic, finitely branching round game: the opponent climbs j "
            "unit steps then drops 2j, the responder descends k unit steps "
            "then regains 2k; answering k = j+1 nets +1 per round, so the "
            "running mean is positive at every round boundary.")
    return ZooEntry(arena, note,
                    strategies={"match_plus_one": Strategy("match_plus_one", None,
                                                           latest_challenge, match_plus_one)},
                    strategy_factories={"p2_pick_": _a2_p2_pick})


def _a2_p2_pick(j: int) -> Strategy:
    def choose(ar: Arena, v: VertexId) -> Edge:
        return _edge_to(ar, v, "a" if v.params[1] < j else "b")

    return Memoryless(choose, player=2, name="p2_pick_%d" % j)


# ---------------------------------------------------------------------------
# A3: the step-counter defeater


def _a3_expand(v: VertexId):
    """A3's rows; a vertex outside its family's domain falls through to ``KeyError(v)``."""
    name, params = v
    if name == "s" and len(params) == 1:
        (i,) = params
        if i >= 0:
            descent_to = V("t", (0,)) if i == 0 else V("d", (i, 1))
            return P2, (E(v, 1, V("s", (i + 1,))), E(v, -1, descent_to))
    elif name == "d" and len(params) == 2:  # descent intermediates, 2i+1 weight -1 edges total
        i, p = params
        if 1 <= p <= 2 * i:
            nxt = V("t", (i,)) if p == 2 * i else V("d", (i, p + 1))
            return P2, (E(v, -1, nxt),)
    elif name == "t" and len(params) == 1:
        (i,) = params
        if i >= 0:
            return P1, (E(v, 0, V("e", (i, 1))), E(v, i, V("r0", ())))
    elif name == "e" and len(params) == 2:  # delay intermediates, 3 weight-0 edges per delay
        i, p = params
        if i >= 0 and p in (1, 2):
            nxt = V("t", (i + 1,)) if p == 2 else V("e", (i, p + 1))
            return P1, (E(v, 0, nxt),)
    elif name == "r0" and not params:
        return P1, (E(v, 0, v),)
    raise KeyError(v)


def _make_a3() -> ZooEntry:
    arena = Arena("a3", V("s", (0,)), _a3_expand)

    note = ("top row of +1 steps with -1 descents of length 2i+1, so every "
            "entry lands at the i-th decision vertex with total exactly "
            "-i-1; three-step weight-0 delays link decision vertices; the "
            "exit from the j-th one regains +j. Delaying twice then exiting "
            "always banks at least +1, but a pure step-counter's decision at "
            "each vertex is pinned to one step and can be entered against.")
    return ZooEntry(arena, note,
                    strategies={"delay_twice_exit": delay_twice_exit_fm("e")},
                    strategy_factories={"p2_enter_": _a3_p2_enter})


def delay_twice_exit_fm(delay_dst_name: str) -> FiniteMemory:
    """Three-state strategy: delay at the first two decision vertices seen,
    exit at the third.  The state counts taken delays, capped at 2; its
    update reads only an edge's letter, so the memory is a ``LetterMemory``."""

    def update(m, letter):
        src, _, dst = letter
        if src == "t" and dst == delay_dst_name:
            return min(m + 1, 2)
        return m

    def decide(ar: Arena, v: VertexId, m):
        return _edge_to(ar, v, "r0" if m == 2 else delay_dst_name)

    return FiniteMemory(LetterMemory((0, 1, 2), 0, update), decide,
                        name="delay_twice_exit")


def _a3_p2_enter(i: int) -> Strategy:
    def choose(ar: Arena, v: VertexId) -> Edge:
        advance = _edge_to(ar, v, "s")
        if v.params[0] < i:
            return advance
        # the descent goes to t(0) or d(i, 1): the edge that does not advance
        return next(e for e in ar.edges(v) if e != advance)

    return Memoryless(choose, player=2, name="p2_enter_%d" % i)


# ---------------------------------------------------------------------------
# A4: the delay-gadget arena defeating finite memory plus a step counter


def _a4_expand(v: VertexId):
    """A4's rows, built frame-free (``_new_vertex``, ``_new_edge``): every
    weight is an int affine in the int parameters, so exact as built.  A
    vertex outside its family's domain falls through to ``KeyError(v)``."""
    name, params = v
    if name == "s" and len(params) == 1:
        (i,) = params
        if i >= 0:
            return P2, (_new_edge((v, -1, _new_vertex(("d", (i, 1))))),
                        _new_edge((v, 0, _new_vertex(("s", (i + 1,))))))
    elif name == "d" and len(params) == 2:  # entry descent: 2i+3 edges, total -2(i+1)
        i, p = params
        if i >= 0 and 1 <= p <= 2 * i + 2:
            if p == 2 * i + 2:
                return P2, (_new_edge((v, 0, _new_vertex(("t", (i,))))),)
            return P2, (_new_edge((v, -1, _new_vertex(("d", (i, p + 1))))),)
    elif name == "t" and len(params) == 1:
        (i,) = params
        if i >= 0:
            return P1, (_new_edge((v, 1, _new_vertex(("g", (i, 1))))),
                        _new_edge((v, i + 1, _new_vertex(("r0", ())))))
    elif name == "g" and len(params) == 2:  # gadget chain: climb +1 or drop towards t(i+j)
        i, j = params
        if i >= 0 and j >= 1:
            return P2, (_new_edge((v, -1, _new_vertex(("dr", (i, j, 1))))),
                        _new_edge((v, 1, _new_vertex(("g", (i, j + 1))))))
    elif name == "dr" and len(params) == 3:  # drop path: 2j edges in total, summing to -2j+1
        i, j, p = params
        if i >= 0 and 1 <= p <= 2 * j - 1:
            if p == 2 * j - 1:
                return P2, (_new_edge((v, 0, _new_vertex(("t", (i + j,))))),)
            return P2, (_new_edge((v, -1, _new_vertex(("dr", (i, j, p + 1))))),)
    elif name == "r0" and not params:
        return P1, (_new_edge((v, 0, v)),)
    raise KeyError(v)


def _a4guarded_expand(v: VertexId):
    """a4guarded's rows: a4's, and its start, the guard s(-1), into s(0)."""
    if v == ("s", (-1,)):
        return P2, (E(v, 1, V("s", (0,))),)
    return _a4_expand(v)


def _count_delay(delays: int, e: Edge) -> int:
    """Delay count on A4 after one more edge."""
    return delays + 1 if e.src.name == "t" and e.dst.name == "g" else delays


def _make_a4(guarded: bool = False) -> ZooEntry:
    arena = (Arena("a4guarded", V("s", (-1,)), _a4guarded_expand) if guarded
             else Arena("a4", V("s", (0,)), _a4_expand))

    def sigma_k_factory(k: int) -> Strategy:
        def decide(ar: Arena, v: VertexId, delays: int) -> Edge:
            return _edge_to(ar, v, "g" if delays < k else "r0")

        return Strategy("sigma_%d" % k, 0, _count_delay, decide)

    # state: (index of the first decision vertex reached, delays taken)
    def adaptive_update(state, e: Edge):
        entry, delays = state
        if entry is None and e.dst.name == "t":
            entry = e.dst.params[0]
        return entry, _count_delay(delays, e)

    def adaptive_decide(ar: Arena, v: VertexId, state) -> Edge:
        entry, delays = state
        if entry is None:
            entry = v.params[0]
        return _edge_to(ar, v, "g" if delays < entry + 1 else "r0")

    always_delay = FiniteMemory(MealyMemory((0,), 0, lambda m, e: 0),
                                lambda ar, v, m: _edge_to(ar, v, "g"), name="always_delay")

    note = ("delay-gadget arena: entering at the i-th decision vertex costs "
            "-2(i+1); the opponent can stretch each delay j extra rounds for "
            "payoff -j+1 over 3j steps, so all entry paths share a length; "
            "exiting the k-th vertex regains k+1. Adapting the number of "
            "delays to the observed entry wins exactly 0, while any finite "
            "bank of delay counts can be routed into ever-longer stretches.")
    return ZooEntry(arena, note,
                    strategies={
                        "adaptive": Strategy("adaptive", (None, 0), adaptive_update,
                                             adaptive_decide),
                        "delay_twice_exit": delay_twice_exit_fm("g"),
                        "always_delay": always_delay,
                    },
                    strategy_factories={
                        "sigma_": sigma_k_factory,
                        "p2_enter_": lambda i: a4_router(i, [1]),
                    })


def a4_router(entry: int, gaps: list[int], cycle_from: int = 0) -> Strategy:
    """Opponent routing on A4: enter at ``entry``, then stretch each delay
    by the successive gaps (cycling from ``cycle_from`` when exhausted)."""
    if entry < 0 or not gaps or any(g < 1 for g in gaps):
        raise ValueError("entry >= 0 and gaps >= 1 required")

    def gap_at(idx: int) -> int:
        if idx < len(gaps):
            return gaps[idx]
        cycle = gaps[cycle_from:] or gaps
        return cycle[(idx - len(gaps)) % len(cycle)]

    def decide(ar: Arena, v: VertexId, delays: int) -> Edge:
        if v.name == "s":
            return _edge_to(ar, v, "s" if v.params[0] < entry else "d")
        # at g(i, j): the current stretch began at the latest delay
        return _edge_to(ar, v, "g" if v.params[1] < gap_at(delays - 1) else "dr")

    return Strategy("router_%d_%s" % (entry, "-".join(map(str, gaps))), 0, _count_delay,
                    decide, player=2)


# ---------------------------------------------------------------------------
# BitArena: total-payoff rounds where one bit of memory is essential


def _bit_expand(v: VertexId):
    """BitArena's rows: v(0), then round i >= 1 from v(i); a vertex
    outside them is ``KeyError(v)``."""
    name, params = v
    i = params[0] if len(params) == 1 else -1  # -1: in no family's domain
    if name == "v" and i == 0:
        return P2, (E(v, -1, V("v", (1,))),)
    if i >= 1:
        if name == "v":
            return P2, (E(v, 0, V("vz", (i,))), E(v, i, V("vc", (i,))))
        if name == "vz":
            return P2, (E(v, 0, V("u", (i,))),)
        if name == "vc":
            return P2, (E(v, -i - 1, V("u", (i,))),)
        if name == "u":
            return P1, (E(v, 0, V("uz", (i,))), E(v, i, V("uc", (i,))))
        if name == "uz":
            return P1, (E(v, 0, V("v", (i + 1,))),)
        if name == "uc":
            return P1, (E(v, -i - 1, V("v", (i + 1,))),)
    raise KeyError(v)


def bitarena_wprime(v: VertexId, r: Weight) -> bool:
    """Closed-form region of (vertex, current sum) pairs the maximizer wins
    the limsup-total-payoff-at-least-0 game from."""
    (i,) = v.params
    if v.name == "v":
        return r >= (0 if i == 0 else -i)
    if v.name in ("vz", "u"):
        return r >= -i - 1
    if v.name == "uz":
        return r >= -(i + 1)
    if v.name in ("vc", "uc"):
        return r >= 0
    raise KeyError(v)


def _make_bitarena() -> ZooEntry:
    arena = Arena("bitarena", V("v", (0,)), _bit_expand)

    def opp_update(m, e: Edge):
        if e.src.name == "v":
            return 1 if e.dst.name == "vc" else 0
        return m

    def opp_decide(ar: Arena, v: VertexId, m):
        return _edge_to(ar, v, "uz" if m == 1 else "uc")

    opposite = FiniteMemory(MealyMemory((0, 1), 0, opp_update), opp_decide,
                            name="opposite")

    def p2_const(dst_name: str, label: str) -> Strategy:
        return Memoryless(lambda ar, v: _edge_to(ar, v, dst_name), player=2, name=label)

    note = ("alternating climb-or-stay rounds: in round i either side may "
            "swing +i then -i-1 or keep level over two steps, so all "
            "histories to a vertex share a length; playing the opposite of "
            "the opponent's round move loses exactly 1 per round while "
            "touching 0 once each round, which wins the limsup total-payoff "
            "condition; with only a step counter the touching rounds can be "
            "dodged.")
    return ZooEntry(arena, note,
                    strategies={
                        "opposite": opposite,
                        "allzero": p2_const("vz", "allzero"),
                        "allclimb": p2_const("vc", "allclimb"),
                        "safe": Memoryless(lambda ar, v: _edge_to(ar, v, "uz"), name="safe"),
                    },
                    wprime=bitarena_wprime,
                    extras={"winning_from": bitarena_winning_from})


def bitarena_winning_from(vertex: VertexId, r: Weight) -> Strategy:
    """A strategy winning the limsup-TP>=0 game from every pair of the
    region, whichever pair it is asked at (a composite asks once, at the
    start pair): respond with the opposite of the opponent's move each
    full round, stay level on a partial first round."""

    def decide(ar: Arena, v: VertexId, last: Optional[Edge]) -> Edge:
        if last is not None and last.src.name == "vz":
            return _edge_to(ar, v, "uc")
        return _edge_to(ar, v, "uz")

    return Strategy("opposite_from_%s" % (vertex,), None, _last_edge, decide)


# ---------------------------------------------------------------------------
# Buechi-style entries


def _make_buchia(k: int) -> ZooEntry:
    if k < 2:
        raise ValueError("need at least 2 colours")
    def expand(v: VertexId):
        name, params = v
        i = params[0] if len(params) == 1 else -1  # -1: in no family's domain
        if name == "x" and i >= 0:
            forward = E(v, 0, V("x", (i + 1,)))
            if i == 0:
                return P1, (forward,)
            colour = 1 + (i - 1) % (k - 1)
            return P1, (forward, E(v, colour, V("y", (i,))))
        if name == "y" and i >= 1:
            return P1, (E(v, 0, V("x", (i + 1,))),)
        raise KeyError(v)

    arena = Arena("buchia", V("x", (0,)), expand)

    note = ("infinite line with cyclically coloured detours; sweeping every "
            "detour sees all %d colour codes infinitely often. With an "
            "unbounded colour supply no finite-memory walker can keep "
            "reaching new colours; this entry truncates the palette." % k)
    return ZooEntry(arena, note,
                    strategies={"round_robin": Memoryless(lambda ar, v: _edge_to(ar, v, "y"),
                                                          name="round_robin")})


def _make_buchib(b: int) -> ZooEntry:
    if not 1 <= b <= DEFAULT_VERTEX_CAP:  # before any of its b edges is built
        raise ValueError("zoo parameter 'b' must be between 1 and the vertex cap %d, got %d"
                         % (DEFAULT_VERTEX_CAP, b))
    def expand(v: VertexId):
        name, params = v
        if name == "v" and not params:
            return P1, (E(v, 1, v), E(v, 0, V("u", ())))
        if name == "u" and not params:
            out = [E(v, 0, V("v", ())) if n == 1 else E(v, 0, V("w", (n, 1))) for n in range(1, b + 1)]
            return P2, tuple(out)
        if name == "w" and len(params) == 2:
            n, p = params  # the padding of length n, at its p-th vertex
            if 1 <= p < n <= b:
                nxt = V("v", ()) if p == n - 1 else V("w", (n, p + 1))
                return P2, (E(v, 0, nxt),)
        raise KeyError(v)

    arena = Arena("buchib", V("v", ()), expand)

    def alternating(ar: Arena, v: VertexId, last: Optional[Edge]) -> Edge:
        if last is not None and last.src == v and last.dst == v:
            return _edge_to(ar, v, "u")  # colour 0 after the colour-1 loop
        return _edge_to(ar, v, "v")

    note = ("two colours: a colour-1 self-loop at the decision vertex and a "
            "colour-0 exit into opponent-chosen colour-0 padding of length "
            "1..%d; alternating loop-then-exit sees both colours forever, "
            "but any step-counter exit schedule can be padded into." % b)
    # player 2 pads every arrival by one step, the edge back to v
    pad_1 = Memoryless({V("u", ()): E(V("u", ()), 0, V("v", ()))}, player=2, name="pad_1")
    return ZooEntry(arena, note,
                    strategies={"alternating": Strategy("alternating", None, _last_edge,
                                                        alternating), "pad_1": pad_1})


# ---------------------------------------------------------------------------
# Non-uniformity example: debts resolved arbitrarily far down a free ray


def _make_nonuniform(start_index: int) -> ZooEntry:
    def expand(v: VertexId):
        name, params = v
        if name == "st" and params == (start_index,):
            return P1, (E(v, -start_index, V("ray", (0,))),)
        if name == "ray" and len(params) == 1 and params[0] >= 0:
            (j,) = params
            return P1, (E(v, j, V("r0", ())), E(v, 0, V("ray", (j + 1,))))
        if name == "r0" and not params:
            return P1, (E(v, 0, v),)
        raise KeyError(v)

    arena = Arena("nonuniform", V("st", (start_index,)), expand)

    def exit_at_factory(j: int) -> Strategy:
        def choose(ar: Arena, v: VertexId) -> Edge:
            return _edge_to(ar, v, "r0" if v.params[0] >= j else "ray")

        return Memoryless(choose, name="exit_at_%d" % j)

    note = ("every start vertex owes its own debt before a shared free ray "
            "whose j-th exit repays +j; each start wins by exiting far "
            "enough, but no single strategy with a step counter and one bit "
            "serves all starts, because the required exit point grows with "
            "the debt while the shared ray looks identical.")
    return ZooEntry(arena, note,
                    strategy_factories={"exit_at_": exit_at_factory})


# ---------------------------------------------------------------------------
# Registry


# name -> (factory, the URI parameters it takes with their defaults)
_REGISTRY: dict[str, tuple[Callable[..., ZooEntry], dict]] = {
    "a1": (_make_a1, {"b": 8}),
    "a1prime": (lambda b: _make_a1(b, repeated=True), {"b": 8}),
    "a2": (_make_a2, {}),
    "a3": (_make_a3, {}),
    "a4": (_make_a4, {}),
    "a4guarded": (lambda: _make_a4(guarded=True), {}),
    "bitarena": (_make_bitarena, {}),
    "buchia": (_make_buchia, {"k": 3}),
    "buchib": (_make_buchib, {"b": 6}),
    "nonuniform": (_make_nonuniform, {"start_index": 0}),
}


def names() -> list[str]:
    return sorted(_REGISTRY)


def make(name: str, **params) -> ZooEntry:
    try:
        factory, declared = _REGISTRY[name]
    except KeyError:
        raise KeyError("unknown zoo entry %r (have: %s)" % (name, ", ".join(names())))
    for key in params:
        if key not in declared:
            raise ValueError("zoo entry %r takes no parameter %r (accepted: %s)"
                             % (name, key, ", ".join(declared) or "none"))
    params = {**declared, **params}
    return factory(**params)._replace(params=params)


def parse_uri(uri: str) -> ZooEntry:
    """Parse ``zoo:<name>?<k>=<v>&...`` into an entry."""
    if not uri.startswith("zoo:"):
        raise ValueError("zoo URIs start with 'zoo:'")
    rest = uri[len("zoo:"):]
    name, _, query = rest.partition("?")
    params = {}
    if query:
        for pair in query.split("&"):
            key, _, val = pair.partition("=")
            if not key or not val:
                raise ValueError("malformed zoo parameter %r" % pair)
            if key in params:
                raise ValueError("zoo parameter %r given twice" % key)
            params[key] = read_number(int, val, "zoo parameter %r must be an integer" % key)
            if str(params[key]) != val:
                raise ValueError("zoo parameter %r must be written %s, got %r"
                                 % (key, params[key], val))
    return make(name, **params)
