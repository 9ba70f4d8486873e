"""Play simulation, consistent-history exploration, and certificates.

All infinite-play claims are certified through finite evidence: sink
payoffs, bound levels at which an open sub-objective is satisfied on
every consistent branch, or divergence witnesses (a repeating memory
cycle whose rounds strictly decrease the total payoff).  Certificate
checkers re-derive every claimed quantity from scratch.

Each certificate variant is one named tuple, listed once in ``Certificate``:
``needs`` names the context keys its check reads, ``check`` re-derives the
claim (the play-based variants from one replay, ``_check_play`` or, for a
colour starvation, ``lasso``, each capped by ``QG_NODE_CAP``), and
``certificate_to_json`` and ``certificate_from_json`` write and read each
field by its annotation (``_annotations``, ``_WRITERS``, ``_READERS``).
"""

from __future__ import annotations

import itertools
import json
from math import gcd
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Union, get_args

from .arena import (_VERTEX_FORMATS, Arena, Edge, History, Inconclusive, VertexId, Weight,
                    exact, node_cap_from_env)
from .objectives import Lasso, OpenSub
from .strategies import Strategy

CERT_SCHEMA = "qg-cert/1"


# ---------------------------------------------------------------------------
# Play simulation


class PlayRecord(NamedTuple):
    origin: VertexId
    edges: list[Edge]
    tp_trace: list[Weight]
    mem1_trace: list[object]
    mem2_trace: list[object]
    termination: str  # "horizon" | "sink"

    @property
    def final_tp(self) -> Weight:
        return self.tp_trace[-1] if self.tp_trace else 0

    def history(self) -> History:
        return History(self.origin, tuple(self.edges))

    def vertex_at(self, step: int) -> VertexId:
        if step == 0:
            return self.origin
        return self.edges[step - 1].dst

    def tp_at(self, step: int) -> Weight:
        if step == 0:
            return 0
        return self.tp_trace[step - 1]

    def steps_at(self, where: Callable[[VertexId], bool]) -> list[int]:
        """Every step, 0 to the last, at which the play is at a vertex ``where`` holds for."""
        return [step for step in range(len(self.edges) + 1) if where(self.vertex_at(step))]

    def mem_at(self, player: int, step: int):
        """The player's traced memory at ``step``: ``None`` before the first step."""
        return None if step == 0 else (self.mem1_trace, self.mem2_trace)[player - 1][step - 1]

    def to_csv(self) -> str:
        """The ``qg simulate`` CSV of the recorded play (``csv_lines``)."""
        return "".join(csv_lines(self.origin, zip(self.edges, self.tp_trace,
                                                  self.mem1_trace, self.mem2_trace)))


def _fmt_mem(state) -> str:
    if state is None:
        return "-"
    return str(state).replace(",", ";").replace(" ", "")


def csv_lines(origin: VertexId, steps: Iterable[tuple[Edge, Weight, object, object]]
              ) -> Iterator[str]:
    """The header, then one line per step of a play from ``origin``, each
    ending in a newline, as the steps ``(edge, tp, mem1, mem2)`` come.
    ``mp`` is the exact tp/(step+1), found without a Fraction division:
    with tp = n/d in lowest terms and g = gcd(n, step+1), (n/g) /
    (d*(step+1)/g) is in lowest terms.  A vertex with at most three
    parameters is formatted inline (``VertexId.__str__`` without its
    frame), and a memory state is formatted once per run of steps that
    trace the same object: the same object prints the same text, and
    neither hashing nor equality is asked of a state."""
    yield "step,from,to,weight,tp,mp,mem1,mem2\n"
    formats, short = _VERTEX_FORMATS, len(_VERTEX_FORMATS)
    src = str(origin)  # each row starts where the previous one ended
    last1 = last2 = None  # the states formatted last, as text1 and text2
    text1 = text2 = "-"
    j = 0
    for e, tp, m1, m2 in steps:
        name, params = v = e.dst
        dst = formats[len(params)] % (name, *params) if len(params) < short else str(v)
        if m1 is not last1:
            last1, text1 = m1, _fmt_mem(m1)
        if m2 is not last2:
            last2, text2 = m2, _fmt_mem(m2)
        n, k = tp.numerator, j + 1
        g = gcd(n, k)
        den = tp.denominator * (k // g)
        yield "%d,%s,%s,%s,%s,%s,%s,%s\n" % (
            j, src, dst, e.weight, tp, n // g if den == 1 else "%d/%d" % (n // g, den),
            text1, text2)
        src, j = dst, k


def steps(arena: Arena, v0: VertexId, sigma1: Strategy, sigma2: Strategy,
          horizon: int) -> Iterator[tuple[Edge, Weight, object, object]]:
    """The unique play consistent with both strategies, one step at a time,
    up to the horizon or until an absorbing weight-0 self-loop is reached:
    each step is ``(edge, tp, mem1, mem2)``, the edge taken, the running
    total after it and each strategy's state after it where the strategy
    traces its state (``None`` where not).  A vertex with one edge is a
    forced move, taken without asking either strategy
    (``strategies.move``); both states still fold every edge.  Nothing of
    a step is kept once it is yielded."""
    if sigma1.player != 1 or sigma2.player != 2:
        raise ValueError("play expects a player-1 and a player-2 strategy in order")
    state1, state2 = sigma1.initial, sigma2.initial
    trace1, trace2 = sigma1.traces_state, sigma2.traces_state
    # the loop's methods, bound once
    row = arena.row
    choose1, choose2 = sigma1.choose, sigma2.choose
    step1, step2 = sigma1.step_state, sigma2.step_state
    at = v0
    tp = 0
    for _ in range(horizon):
        owner, out = row(at)
        if len(out) == 1:  # a forced move, asked of neither strategy
            edge = out[0]
            if edge.dst == at and edge.weight == 0:  # Arena.is_sink, inline
                return
        else:
            if owner == 1:
                edge = choose1(arena, at, state1)
            else:
                edge = choose2(arena, at, state2)
            if edge.src != at or edge not in out:
                raise ValueError("strategy for player %d returned a non-edge %s at %s"
                                 % (owner, edge, at))
        state1 = step1(state1, edge)
        state2 = step2(state2, edge)
        tp += edge.weight
        yield edge, tp, state1 if trace1 else None, state2 if trace2 else None
        at = edge.dst


def play(arena: Arena, v0: VertexId, sigma1: Strategy, sigma2: Strategy,
         horizon: int) -> PlayRecord:
    """The play of ``steps``, recorded; it ends at a ``sink`` when its last
    vertex is one, else at the ``horizon``."""
    edges, tp_trace, mem1, mem2 = ([list(column) for column in
                                    zip(*steps(arena, v0, sigma1, sigma2, horizon))]
                                   or ([], [], [], []))
    at = edges[-1].dst if edges else v0
    return PlayRecord(v0, edges, tp_trace, mem1, mem2,
                      "sink" if arena.is_sink(at) else "horizon")


def lasso(arena: Arena, v0: VertexId, sigma1: Strategy, sigma2: Strategy,
          horizon: int) -> tuple[list[Edge], Optional[int]]:
    """The edges of the play of ``steps`` up to the horizon, and where its
    lasso's cycle starts, or None: it stops at the first position whose
    vertex and both strategies' settled values (``Strategy.settled``, not
    None) repeat an earlier one's, from which the play repeats forever."""
    edges, seen = [], {}
    state1, state2, at = sigma1.initial, sigma2.initial, v0
    for edge, *_ in itertools.chain(steps(arena, v0, sigma1, sigma2, horizon), [(None,)]):
        key = (at, sigma1.settled(state1), sigma2.settled(state2))
        if None not in key[1:] and seen.setdefault(key, len(edges)) < len(edges):
            return edges, seen[key]
        if edge is None:  # a sink repeats its weight-0 self-loop forever
            return (edges + [Edge(at, 0, at)], len(edges)) if arena.is_sink(at) else (edges, None)
        edges.append(edge)
        state1, state2 = sigma1.step_state(state1, edge), sigma2.step_state(state2, edge)
        at = edge.dst


# ---------------------------------------------------------------------------
# Consistent-history exploration


class Node:
    """One consistent history in a layered walk: where it ends, its length
    and running total, whether the walk's open sub-objective fired along
    it, the strategy's state after it, and the node and edge it extends."""

    __slots__ = ("vertex", "depth", "tp", "parent", "edge", "state", "satisfied")

    def __init__(self, vertex: VertexId, depth: int, tp: Weight, parent: Optional[Node],
                 edge: Optional[Edge], state: object = None, satisfied: bool = False):
        self.vertex = vertex
        self.depth = depth
        self.tp = tp
        self.parent = parent
        self.edge = edge
        self.state = state
        self.satisfied = satisfied

    def edges(self) -> tuple[Edge, ...]:
        out = []
        node = self
        while node.edge is not None:
            out.append(node.edge)
            node = node.parent
        out.reverse()
        return tuple(out)


class Layers:
    """Breadth-first layers of the sigma-consistent histories from v0, to
    a depth.

    Opponent vertices branch over all edges; owned vertices follow the
    strategy where it has a choice (``moves``).  Each layer (a list of
    Nodes) is yielded before it is expanded, so the caller may read it,
    append nodes to it to have them expanded too, or stop.  With
    ``prune``, a satisfied child is dropped before it is built.  With a
    ``key``, children with equal keys merge into the one of least
    ``order``, the first of several that tie, or the first of all
    without an ``order``; without one, none merge.  With an ``open_sub``,
    ``satisfied`` records whether it fired along the history.  Each
    child kept counts against the node cap; exhausting it ends the walk
    with ``truncated`` set to an Inconclusive naming the cap and depth.

    ``resume`` = (layer, depth, created) starts the walk at a layer that
    another walk reached, instead of at the root: the layer at that depth
    and the nodes created up to it.  Depths in the truncation message and
    the node count then read as those of a walk from the root, provided
    the skipped prefix is the one this walk would have built.
    """

    def __init__(self, arena: Arena, v0: VertexId, sigma: Strategy, depth: int,
                 open_sub: Optional[OpenSub] = None, prune: bool = False,
                 key: Optional[Callable[[Node], Hashable]] = None,
                 order: Optional[Callable[[Node], object]] = None,
                 node_cap: Optional[int] = None,
                 resume: Optional[tuple[list[Node], int, int]] = None):
        self.arena, self.v0, self.sigma, self.depth = arena, v0, sigma, depth
        self.open_sub, self.prune, self.key, self.order = open_sub, prune, key, order
        self.node_cap = node_cap_from_env() if node_cap is None else node_cap
        self.resume = resume
        self.created = 0
        self.truncated: Optional[Inconclusive] = None

    def moves(self, node: Node) -> tuple[Edge, ...]:
        """The edges the walk takes from a node: the strategy's choice
        where its player has one (``strategies.move``), else every edge."""
        owner, out = self.arena.row(node.vertex)
        if owner == self.sigma.player and len(out) > 1:
            return (self.sigma.choose(self.arena, node.vertex, node.state),)
        return out

    def __iter__(self) -> Iterator[list[Node]]:
        sigma, sub, order = self.sigma, self.open_sub, self.order
        if self.resume is None:
            root = Node(self.v0, 0, 0, None, None, sigma.initial)
            layer, first, self.created = [root], 0, 1
        else:
            layer, first, self.created = self.resume
        for d in range(first, self.depth):
            yield layer
            unmerged: list[Node] = []
            merged: dict[Hashable, Node] = {}
            for node in layer:
                for e in self.moves(node):
                    tp = node.tp + e.weight
                    sat = node.satisfied or (sub is not None
                                             and sub.step_satisfies(d + 1, tp, e.weight))
                    if sat and self.prune:
                        continue
                    child = Node(e.dst, d + 1, tp, node, e, sigma.step_state(node.state, e), sat)
                    if self.key is None:
                        unmerged.append(child)
                    else:
                        k = self.key(child)
                        kept = merged.get(k)
                        if kept is None or (order is not None and order(child) < order(kept)):
                            merged[k] = child
                    self.created += 1
                    if self.created > self.node_cap:
                        self.truncated = Inconclusive(
                            "node cap %d exceeded at depth %d" % (self.node_cap, d + 1),
                            node_cap=self.node_cap)
                        return
            layer = unmerged + list(merged.values())
        yield layer


class ExploreResult(NamedTuple):
    levels: list[list[Node]]
    nodes: int
    truncated: Optional[Inconclusive] = None

    @property
    def complete(self) -> bool:
        return self.truncated is None

    @property
    def level_widths(self) -> list[int]:
        return [len(level) for level in self.levels]


def explore_consistent(arena: Arena, v0: VertexId, sigma: Strategy, depth: int
                       ) -> ExploreResult:
    """Level-indexed tree of all sigma-consistent histories from v0, with
    no merging.  Exceeding the node cap (``QG_NODE_CAP``) yields the
    levels completed so far and the truncation."""
    walk = Layers(arena, v0, sigma, depth)
    levels = list(walk)
    return ExploreResult(levels, walk.created, walk.truncated)


# ---------------------------------------------------------------------------
# Koenig bound


class KoenigBound(NamedTuple):
    level: int
    open_sub: OpenSub

    needs = ("sigma1",)

    def check(self, context: dict) -> CheckResult:
        again = koenig_bound(context["arena"], context["v0"], context["sigma1"], self.open_sub,
                             self.level)
        if not isinstance(again, KoenigBound):
            return CheckResult(False, ["bound did not reproduce: %s" % (again,)])
        return CheckResult(True, ["bound reproduced at level %d" % again.level])


def depth_cap_exhausted(depth: int, remaining: int) -> Inconclusive:
    """A walk that reached its depth cap with branches left unsatisfied."""
    return Inconclusive("depth cap %d exhausted with %d unsatisfied branch%s"
                        % (depth, remaining, "" if remaining == 1 else "es"))


def koenig_layers(arena: Arena, v0: VertexId, sigma: Strategy, depth: int,
                  open_sub: Optional[OpenSub] = None, node_cap: Optional[int] = None,
                  resume: Optional[tuple[list[Node], int, int]] = None) -> Layers:
    """Layers pruning satisfied branches and merging histories with equal
    (vertex, strategy state), keeping the lowest running total."""
    return Layers(arena, v0, sigma, depth, open_sub=open_sub,
                  prune=True,
                  key=lambda node: (node.vertex, node.state),
                  order=lambda node: node.tp, node_cap=node_cap, resume=resume)


def koenig_bound(arena: Arena, v0: VertexId, sigma: Strategy, open_sub: OpenSub,
                 max_depth: int, node_cap: Optional[int] = None,
                 resume: Optional[tuple[list[Node], int, int]] = None
                 ) -> Union[KoenigBound, Inconclusive]:
    """Least level by which every sigma-consistent history satisfies the
    open sub-objective.

    Satisfied branches are pruned (the predicate is monotone).  Branches
    in equal (vertex, strategy state), whose decisions agree forever, are
    merged, keeping the lowest running total, which is the hardest to
    satisfy.  Otherwise the walk ends in the Inconclusive of the cap that
    stopped it: the node cap, or ``max_depth`` with branches unsatisfied.
    With ``resume`` (see ``Layers``) levels count from the resumed depth.
    """
    walk = koenig_layers(arena, v0, sigma, max_depth, open_sub, node_cap, resume)
    for d, frontier in enumerate(walk, 0 if resume is None else resume[1]):
        if not frontier:
            return KoenigBound(d, open_sub)
    if walk.truncated is not None:
        return walk.truncated
    return depth_cap_exhausted(max_depth, len(frontier))


# ---------------------------------------------------------------------------
# Certificates


# a claim about the one play of both strategies: its needs, and its check on
# one replay of ``horizon`` + 1 steps (the variant's ``check_record``)
_PLAY_NEEDS = ("sigma1", "sigma2")


def _replay_length(claim) -> int:
    """The steps a play claim replays, ``horizon`` + 1, below the node cap."""
    cap = node_cap_from_env()
    if claim.horizon >= cap:
        raise Inconclusive("%s claims %d steps; replaying them passes the node cap %d"
                           % (type(claim).__name__, claim.horizon, cap), node_cap=cap)
    return claim.horizon + 1


def _check_play(claim, context: dict) -> CheckResult:
    record = play(context["arena"], context["v0"], context["sigma1"], context["sigma2"],
                  _replay_length(claim))
    return claim.check_record(context["arena"], record, CheckResult(True))


class SinkPayoff(NamedTuple):
    final_tp: Weight
    sink: VertexId
    steps: int

    needs, check = _PLAY_NEEDS, _check_play
    horizon = property(lambda self: self.steps)

    def check_record(self, arena: Arena, record: PlayRecord, result: CheckResult) -> CheckResult:
        if record.termination != "sink":
            return result.fail("play does not reach a sink within %d steps" % self.steps)
        final_vertex = record.vertex_at(len(record.edges))
        if not arena.is_sink(final_vertex):
            return result.fail("%s is not an absorbing weight-0 self-loop" % (final_vertex,))
        if final_vertex != self.sink:
            return result.fail("sink mismatch: played %s, claimed %s" % (final_vertex, self.sink))
        if record.final_tp != self.final_tp:
            return result.fail("final TP %s differs from claimed %s"
                               % (record.final_tp, self.final_tp))
        result.diagnostics.append("sink %s reached with TP %s" % (self.sink, self.final_tp))
        return result


class EarlyExitNegative(NamedTuple):
    final_tp: Weight
    threshold: Weight
    steps: int

    needs, check = _PLAY_NEEDS, _check_play
    horizon = property(lambda self: self.steps)

    def check_record(self, arena: Arena, record: PlayRecord, result: CheckResult) -> CheckResult:
        if record.termination != "sink":
            return result.fail("play does not reach a sink within %d steps" % self.steps)
        if record.final_tp != self.final_tp:
            return result.fail("final TP %s differs from claimed %s"
                               % (record.final_tp, self.final_tp))
        if not record.final_tp < self.threshold:
            return result.fail("final TP %s is not below the threshold %s"
                               % (record.final_tp, self.threshold))
        result.diagnostics.append("absorbed with TP %s < %s" % (self.final_tp, self.threshold))
        return result


class LevelSatisfaction(NamedTuple):
    levels: list[tuple[int, int]]  # (m, k_m)

    needs = ("sigma1", "subs")

    def check(self, context: dict) -> CheckResult:
        """``context["subs"]`` maps m to the open sub-objective bounded at k_m."""
        if not self.levels:
            return CheckResult(False, ["no level claimed"])
        result = CheckResult(True)
        for m, k_m in self.levels:
            again = koenig_bound(context["arena"], context["v0"], context["sigma1"],
                                 context["subs"](m), k_m)
            if not isinstance(again, KoenigBound):
                return result.fail("level (m=%d, k=%d) failed: %s" % (m, k_m, again))
            result.diagnostics.append("m=%d certified at level %d <= %d" % (m, again.level, k_m))
        return result


class _Divergence(NamedTuple):
    mode: str
    round_starts: list[int]
    horizon: int
    decrease: Optional[Weight] = None
    elevation: Optional[Weight] = None
    ceiling: Optional[Weight] = None
    cycle_from: int = 0  # index into round_starts where the cycle closes
    round_states: list[str] = None  # None: a fresh [] (``Divergence``)


class Divergence(_Divergence):
    """Finite evidence that the total payoff tends to minus infinity, or
    stays pinned below a negative ceiling, along the unique play.

    ``mode`` is ``decrease`` (every full round after the first boundary
    loses at least ``decrease``, with in-round spikes at most
    ``elevation`` above the round start, optionally TP capped by an
    absolute ``ceiling``, and the round map over memory states closes a
    cycle) or ``stagnation`` (round payoffs never positive and TP never
    above ``ceiling`` < 0 after the first boundary).
    """

    needs, check = _PLAY_NEEDS, _check_play

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        return self if self.round_states is not None else self._replace(round_states=[])

    def check_record(self, arena: Arena, record: PlayRecord, result: CheckResult) -> CheckResult:
        if record.termination == "sink":
            return result.fail("play reaches a sink; no divergence")
        starts = self.round_starts
        if len(starts) < 2 or any(b <= a for a, b in zip(starts, starts[1:])):
            return result.fail("round boundaries must be strictly increasing, >= 2 of them")
        if starts[0] < 0:
            return result.fail("round boundary %d is before step 0" % starts[0])
        if starts[-1] > self.horizon:
            return result.fail("round boundaries exceed the simulated horizon")

        if self.mode == "decrease":
            if self.decrease is None or self.decrease < 1:
                return result.fail("decrease certificates need a per-round decrease >= 1")
            if self.elevation is None or self.elevation < 0:
                return result.fail("decrease certificates need an elevation bound >= 0")
            for a, b in zip(starts, starts[1:]):
                round_payoff = record.tp_at(b) - record.tp_at(a)
                if round_payoff > -self.decrease:
                    return result.fail("round at step %d has payoff %s > -%s"
                                       % (a, round_payoff, self.decrease))
                spike = max(record.tp_at(s) for s in range(a, b + 1)) - record.tp_at(a)
                if spike > self.elevation:
                    return result.fail("in-round spike %s exceeds elevation bound %s"
                                       % (spike, self.elevation))
        elif self.mode == "stagnation":
            if self.ceiling is None or self.ceiling >= 0:
                return result.fail("stagnation certificates need a negative ceiling")
            for a, b in zip(starts, starts[1:]):
                if record.tp_at(b) - record.tp_at(a) > 0:
                    return result.fail("round at step %d gains payoff" % a)
        else:
            return result.fail("unknown divergence mode %r" % self.mode)
        if self.ceiling is not None:
            high = max(record.tp_at(s) for s in range(starts[0], len(record.edges) + 1))
            if high > self.ceiling:
                return result.fail("TP reaches %s above the ceiling %s" % (high, self.ceiling))

        # Cycle closure: the round map over (vertex, strategy memory) must
        # repeat so the certified rounds describe the whole infinite play.
        cf = self.cycle_from
        if not (0 <= cf < len(starts) - 1):
            return result.fail("cycle_from out of range")
        sig_a = _round_signature(record, starts[cf])
        sig_b = _round_signature(record, starts[-1])
        if sig_a != sig_b:
            return result.fail("round-start states differ: %r vs %r" % (sig_a, sig_b))
        if self.round_states:
            recomputed = [_round_signature(record, s) for s in starts]
            if [str(s) for s in recomputed] != self.round_states:
                return result.fail("claimed round states do not match the replay")
        result.diagnostics.append("verified %d rounds, cycle closes from round %d"
                                  % (len(starts) - 1, cf))
        return result


class ColourStarvation(NamedTuple):
    """From ``after_step`` on, the named colour never occurs in the play:
    in the whole play where the replay of ``horizon`` + 1 steps closes its
    lasso (``lasso``), else in the steps replayed."""

    colour: Weight
    after_step: int
    horizon: int

    needs = _PLAY_NEEDS

    def check(self, context: dict) -> CheckResult:
        result = CheckResult(True)
        if not 0 <= self.after_step <= self.horizon:
            return result.fail("after_step %d is outside steps 0 to %d"
                               % (self.after_step, self.horizon))
        edges, first = lasso(context["arena"], context["v0"], context["sigma1"],
                             context["sigma2"], _replay_length(self))
        colours, end = [e.weight for e in edges], len(edges)
        if first is not None:  # the cycle repeats forever: unroll it one period past after_step
            colours = Lasso(tuple(colours[:first]), tuple(colours[first:])).unroll(
                max(self.after_step, first) + end - first)
        tail = colours[self.after_step:]
        if self.colour in tail:
            return result.fail("colour %s occurs again at step %d"
                               % (self.colour, self.after_step + tail.index(self.colour)))
        result.diagnostics.append("colour %s absent after step %d" % (self.colour, self.after_step)
                                  + (" over %d steps" % end if first is None else
                                     "; the lasso closes at step %d, repeating steps %d to %d "
                                     "forever" % (end, first, end)))
        return result


Certificate = Union[SinkPayoff, EarlyExitNegative, KoenigBound, LevelSatisfaction,
                    Divergence, ColourStarvation]
_VARIANTS = {cls.__name__: cls for cls in get_args(Certificate)}


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps({"schema": CERT_SCHEMA, "variant": type(cert).__name__,
                       "body": _write(cert)}, indent=2, sort_keys=True) + "\n"


def _annotations(cls) -> dict[str, str]:
    """A record's fields and their annotations as written, read from the
    named tuple that declares them (the first class with ``_fields``)."""
    types = next(c for c in cls.__mro__ if "_fields" in vars(c)).__annotations__
    return {name: getattr(t, "__forward_arg__", t) for name, t in types.items()}


def _write(obj) -> dict:
    """A record's fields, each written by its annotation (``_WRITERS``)."""
    return {name: _WRITERS.get(t, _same)(value)
            for (name, t), value in zip(_annotations(type(obj)).items(), obj)}


def _same(value):
    return value


def _exactly(kind: type, what: str) -> Callable:
    """The reader of a JSON value of exactly ``kind``: ``true`` is no int."""
    def read(value):
        if type(value) is not kind:
            raise ValueError("%s is not %s" % (json.dumps(value), what))
        return value
    return read


_int, _text = _exactly(int, "an integer"), _exactly(str, "a string")


def _optional(fn: Callable) -> Callable:
    return lambda x: None if x is None else fn(x)


def _read_open_sub(sub) -> OpenSub:
    """An open sub-objective; one written without a threshold has r = 0."""
    read = OpenSub(sub["family"], m=_int(sub["m"]), i=_int(sub["i"]),
                  colour=_optional(exact)(sub["colour"]),
                  threshold=exact(sub.get("threshold", 0)))
    _no_other_keys(sub, read._fields, "open sub-objective")
    return read


def _no_other_keys(data: dict, fields, what: str) -> None:
    """Refuse a key of ``data`` that no field reads, naming it."""
    other = next((key for key in data if key not in fields), None)
    if other is not None:
        raise ValueError("%s has no field %r" % (what, other))


# field annotation -> how certificate_to_json writes the field, if not as it
# is: exact values as strings, an int among them too
_WRITERS: dict[str, Callable] = {
    "Weight": str,
    "Optional[Weight]": _optional(str),
    "VertexId": str,
    "OpenSub": _write,
}

# certificate field annotation -> how certificate_from_json reads the field
_READERS: dict[str, Callable] = {
    "int": _int,
    "str": _text,
    "Weight": exact,
    "Optional[Weight]": _optional(exact),
    "VertexId": lambda text: VertexId.parse(_text(text)),
    "OpenSub": _read_open_sub,
    "list[int]": lambda xs: [_int(x) for x in xs],
    "list[str]": lambda xs: [str(x) for x in xs],
    "list[tuple[int, int]]": lambda xs: [(_int(m), _int(k)) for m, k in xs],
}


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict, refusing a key it repeats (``json`` keeps the last)."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError("certificate repeats key %r" % key)
        data[key] = value
    return data


def certificate_from_json(text: str) -> Certificate:
    """The certificate a ``certificate_to_json`` text holds.  A key that no
    field reads, or that an object repeats at any level, is refused and
    named."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError("certificate is not JSON: %s" % exc)
    if not isinstance(data, dict):
        raise ValueError("certificate must be a JSON object")
    if data.get("schema") != CERT_SCHEMA:
        raise ValueError("unknown certificate schema %r" % data.get("schema"))
    _no_other_keys(data, ("schema", "variant", "body"), "certificate")
    variant = data.get("variant")
    body = data.get("body", {})
    if not isinstance(body, dict):
        raise ValueError("certificate body must be a JSON object")
    cls = _VARIANTS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ValueError("unknown certificate variant %r" % variant)
    values = {}
    try:
        for name, t in _annotations(cls).items():  # a field with a default may be absent
            if name in body or name not in cls._field_defaults:
                values[name] = _READERS[t](body[name])
    except KeyError as exc:
        raise ValueError("%s certificate body lacks %s" % (variant, exc))
    except (TypeError, ValueError) as exc:  # TypeError: a field of the wrong JSON shape
        raise ValueError("%s certificate field %s: %s" % (variant, name, exc))
    _no_other_keys(body, cls._fields, "%s certificate body" % variant)
    return cls(**values)


class CheckResult(NamedTuple("CheckResult", [("ok", bool), ("diagnostics", list)])):
    def __new__(cls, ok: bool, diagnostics: Optional[list[str]] = None):
        return tuple.__new__(cls, (ok, [] if diagnostics is None else diagnostics))

    def fail(self, msg: str) -> CheckResult:
        """This result failed, with ``msg`` added to its diagnostics."""
        self.diagnostics.append(msg)
        return self._replace(ok=False)


_CONTEXT_ROLES = {"sigma1": "the player-1 strategy", "sigma2": "the opponent strategy",
                  "subs": "the open sub-objectives"}


def missing_context(cert: Certificate, context: dict,
                    labels: Optional[dict[str, str]] = None) -> Optional[str]:
    """A message naming what the certificate's check needs and the context
    lacks, or None.  ``labels`` names the context keys for the reader
    (default: the keys themselves)."""
    missing = [key for key in cert.needs if context.get(key) is None]
    if not missing:
        return None
    return "%s certificate needs %s" % (type(cert).__name__, " and ".join(
        "%s (%s)" % (_CONTEXT_ROLES[key], (labels or {}).get(key, key)) for key in missing))


def check_certificate(cert: Certificate, context: dict) -> CheckResult:
    """Independently re-derive every claim in the certificate from
    ``context``: ``arena``, ``v0`` and the keys its ``needs`` names.  A
    missing key raises a ValueError naming it."""
    if type(cert) not in _VARIANTS.values():
        return CheckResult(False, ["unknown certificate %r" % (cert,)])
    missing = missing_context(cert, context)
    if missing:
        raise ValueError(missing)
    return cert.check(context)


def _round_signature(record: PlayRecord, step: int):
    """Vertex family plus both strategies' memory states at a position.

    Successive rounds of a diverging play visit different indexed
    vertices of the same family (t_i, t_{i+j}, ...), so the closure check
    compares the vertex name and the repeating memory states; the
    quantitative round bounds carry the payoff claim.
    """
    return (record.vertex_at(step).name, _fmt_mem(record.mem_at(1, step)),
            _fmt_mem(record.mem_at(2, step)))
