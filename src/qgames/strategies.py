"""Strategy representations and evaluation.

A strategy for one player is a pure function from histories ending in
that player's vertices to outgoing edges.  Every strategy is a
``Strategy``: a state starts at ``initial``, ``step_state`` folds each
edge into it (a step counter's step too), and ``choose`` decides from
(vertex, state) alone, so a play folds each edge into each state once
and walks merge histories on the state.  A vertex with one edge carries
no decision: ``move`` takes it, and ``choose`` is asked only at the
strategy's player's vertices with more than one edge.  The classes nest
as in the paper: a general ``Strategy`` folds any summary (a counter,
the last edge, an opponent's memory); a ``FiniteMemory`` strategy
declares a checked finite memory (``mealy``); a ``Memoryless`` table has
one memory state; and a ``StepCounterTable`` with k modes (k = 1 is a
pure step counter, ``kind=sc``; k > 1 is ``kind=sc+k``) keeps (step,
mode).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from .arena import Arena, Edge, LetterMemory, MealyMemory, VertexId, make_edge, read_number

FIRST_EDGE = "first"
ERROR = "error"


class HorizonExceeded(ValueError):
    """A ``fallback=error`` table asked for a cell it lacks."""


class Strategy:
    """The general strategy: ``update`` folds the state forward one edge
    at a time from ``initial``, forced or not, and ``decide(arena, vertex,
    state)`` picks the move where its player has a choice (``move``).
    Subclasses keep this interface and name what bounds their state."""

    player: int = 1
    initial = None
    # the strategy's finite memory, or None (a step count, an unbounded summary)
    mealy: Optional[MealyMemory] = None

    def __init__(self, name: str, initial, update: Callable[[object, Edge], object],
                 decide: Callable[[Arena, VertexId, object], Edge], player: int = 1):
        self.name = name
        self.initial = initial
        # the callback itself is the update, one frame per edge
        self.step_state = update
        self.decide = decide
        self.player = player

    @property
    def traces_state(self) -> bool:
        """Whether plays record the state in their memory traces: only a
        finite memory's, since a state that grows with the history would
        keep a Divergence's rounds from ever closing."""
        return self.mealy is not None

    def choose(self, arena: Arena, vertex: VertexId, state) -> Edge:
        return self.decide(arena, vertex, state)

    def settled(self, state):
        """Once not None, a value that with the vertex decides every later
        move and settled value (``engine.lasso``): a finite memory's state."""
        return None if self.mealy is None else (state,)


class Memoryless(Strategy):
    mealy = LetterMemory((None,), None, lambda state, letter: None)  # one state

    def __init__(self, table: Union[dict[VertexId, Edge], Callable[[Arena, VertexId], Edge]],
                 player: int = 1, name: str = "memoryless"):
        self.table, self.player, self.name = table, player, name

    def step_state(self, state, edge: Edge):
        return None

    def choose(self, arena, vertex, state):
        if callable(self.table):
            return self.table(arena, vertex)
        try:
            return self.table[vertex]
        except KeyError:
            raise KeyError("memoryless table has no entry for %s" % (vertex,))


class FiniteMemory(Strategy):
    """A Mealy memory structure plus a (vertex, state) decision table, a
    dict or a callable; a dict is turned into its lookup once, here."""

    def __init__(self, mealy: MealyMemory,
                 table: Union[dict[tuple[VertexId, object], Edge],
                              Callable[[Arena, VertexId, object], Edge]],
                 player: int = 1, name: str = "fm"):
        decide = table
        if not callable(table):
            def decide(arena, vertex, state):
                try:
                    return table[(vertex, state)]
                except KeyError:
                    raise KeyError("fm table has no entry for (%s, %r)" % (vertex, state))
        # the memory's own checked update, one frame per edge
        super().__init__(name, mealy.initial, mealy.update, decide, player)
        self.mealy = mealy
        self.table = table


class StepCounterTable(Strategy):
    """Decisions from (vertex, step, mode) with ``k`` modes, fixed up to a
    horizon; ``k = 1`` is a pure step counter (``kind=sc``).

    The state is (step, mode): the step is the counter's memory, folded
    one edge at a time like any other.  ``bit_update`` maps (step, mode,
    edge) to the next mode; missing entries keep the mode unchanged so
    partial tables degrade gracefully past the horizon.  A cell the table
    lacks goes to the fallback rule, and so does a step past the horizon
    unless the table has a ``tail``: that strategy plays from the horizon
    on, from ``tail.initial``, in the state (tail, the tail's state), as
    in a synthesizer's composite.  Both dicts are kept as given, not
    copied.
    """

    initial = (0, 0)

    def __init__(self, table: dict[tuple[VertexId, int, int], Edge], horizon: int,
                 fallback: str = FIRST_EDGE, *, k: int = 1,
                 bit_update: Optional[dict[tuple[int, int, Edge], int]] = None,
                 player: int = 1, name: str = "sc", tail: Optional[Strategy] = None):
        self.k = k
        self.table = table
        self.horizon = horizon
        self.bit_update = {} if bit_update is None else bit_update
        self.fallback = fallback
        self.player = player
        self.name = name
        self.tail = tail
        if tail is not None and horizon == 0:
            self.initial = (tail, tail.initial)

    # one mode's state is the step, which a play's CSV prints anyway, and a
    # tail's may grow with the history: tracing either keeps Divergences open
    traces_state = property(lambda self: self.k > 1 and self.tail is None)

    def step_state(self, state, edge):
        s, m = state
        tail = self.tail
        if tail is not None:
            if s is tail:
                return (tail, tail.step_state(m, edge))
            if s + 1 == self.horizon:
                return (tail, tail.initial)
        return (s + 1, self.bit_update.get((s, m, edge), m))

    def choose(self, arena, vertex, state):
        step, mode = state
        if step is self.tail:
            return step.choose(arena, vertex, mode)
        hit = self.table.get((vertex, step, mode)) if step < self.horizon else None
        if hit is not None:
            return hit
        if self.fallback == FIRST_EDGE:
            return arena.edges(vertex)[0]
        raise HorizonExceeded("no table entry for %s at step %d and fallback is 'error'"
                              % (vertex, step))

    def settled(self, state):
        """The tail's settled value from the horizon on, where there is a
        tail; else the mode, once a ``fallback=first`` table is past its
        last row and mode update: it plays first edges from there.  The
        latest rows are read first, as tables are filled in step order."""
        step, mode = state
        if step is self.tail:
            return step.settled(mode)
        first = self.tail is None and self.fallback == FIRST_EDGE
        return mode if first and not (any(s >= step for _, s, _ in reversed(self.table)) or any(
            s >= step for s, _, _ in reversed(self.bit_update))) else None


def move(arena: Arena, strategy: Strategy, vertex: VertexId, state) -> Edge:
    """The edge taken at ``vertex``: the strategy's choice at a vertex of
    its player with more than one edge, the first edge anywhere else."""
    owner, out = arena.row(vertex)
    if owner == strategy.player and len(out) > 1:
        return strategy.choose(arena, vertex, state)
    return out[0]


# ---------------------------------------------------------------------------
# File format


def table_edges(strategy: Strategy) -> list[Edge]:
    """Every edge a table strategy's rows name: its moves, then the edges
    of its mode updates."""
    return list(strategy.table.values()) + [e for _, _, e in getattr(strategy, "bit_update", ())]


def serialize_strategy(strategy: Strategy) -> str:
    """Strategy file text for table-based strategies."""
    lines = []
    if isinstance(strategy, Memoryless):
        if callable(strategy.table):
            raise ValueError("callable-backed strategy is not serializable")
        lines.append("strategy %s kind=memoryless player=%d" % (strategy.name, strategy.player))
        for v in sorted(strategy.table):
            e = strategy.table[v]
            lines.append("move %s -> %s weight=%s" % (v, e.dst, e.weight))
    elif isinstance(strategy, StepCounterTable):
        if strategy.tail is not None:  # the file would play fallback= in its place
            raise ValueError("strategy %s has a tail, which has no file form" % strategy.name)
        one = strategy.k == 1
        lines.append("strategy %s kind=%s horizon=%d fallback=%s player=%d"
                     % (strategy.name, "sc" if one else "sc+k states=%d" % strategy.k,
                        strategy.horizon, strategy.fallback, strategy.player))
        for (v, s, m) in sorted(strategy.table, key=lambda key: (key[1], key[2], key[0])):
            e = strategy.table[(v, s, m)]
            lines.append("move %s %sstep=%d -> %s weight=%s"
                         % (v, "" if one else "state=%d " % m, s, e.dst, e.weight))
        # one mode has no update to write: every entry keeps mode 0
        updates = {} if one else strategy.bit_update
        for (s, m, e) in sorted(updates, key=lambda key: (key[0], key[1], key[2].src,
                                                          key[2].dst, key[2].weight)):
            nm = updates[(s, m, e)]
            lines.append("bitupd state=%d step=%d edge=%s->%s weight=%s -> %d"
                         % (m, s, e.src, e.dst, e.weight, nm))
    else:
        raise ValueError("strategy kind %s is not serializable" % type(strategy).__name__)
    return "\n".join(lines) + "\n"


# kind -> the attributes of its move rows
_MOVE_ROWS = {"memoryless": (), "sc": ("step",), "sc+k": ("step", "state")}
# kind -> the attributes its header line may name besides kind=
_HEADER_KEYS = {"memoryless": ("player",), "sc": ("horizon", "fallback", "player"),
                "sc+k": ("states", "horizon", "fallback", "player")}


def parse_strategy(text: str) -> Strategy:
    """Parse the strategy file format; inverse of serialize_strategy.

    One rule holds for every row of every kind: it names exactly the
    attributes its kind's table reads, each in range, and fills a cell no
    earlier row filled.  So no row is dropped or overwritten.  The header
    too names only attributes its kind reads."""
    header = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "strategy":
                header = _parse_header(parts)
            elif parts[0] == "move":
                rows.append((lineno, "move", *_parse_move(parts)))
            elif parts[0] == "bitupd":
                rows.append((lineno, "bitupd", *_parse_bitupd(parts)))
            else:
                raise ValueError("unknown directive %r" % parts[0])
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc))
    if header is None:
        raise ValueError("missing 'strategy' header line")
    name, kind, attrs = header
    player = _header_int(attrs, kind, "player", 1, "1")
    if player > 2:
        raise ValueError("%s strategy header player=%d must be 1 or 2" % (kind, player))
    fallback = {"first": FIRST_EDGE, "error": ERROR}.get(attrs.get("fallback", "first"))
    if fallback is None:
        raise ValueError("unknown fallback rule %r" % attrs.get("fallback"))
    if kind == "fm":
        raise ValueError("fm strategy files are not supported; use sc or sc+k")
    if kind not in _MOVE_ROWS:
        raise ValueError("unknown strategy kind %r" % kind)
    unread = [key for key in attrs if key not in _HEADER_KEYS[kind]]
    if unread:
        raise ValueError("%s strategy header takes no %s=" % (kind, unread[0]))
    states = _header_int(attrs, kind, "states", 1) if kind == "sc+k" else 1
    horizon = _header_int(attrs, kind, "horizon", 0) if kind != "memoryless" else None
    # row attribute -> the header attribute bounding it, and its value
    bounds = {"state": ("states", states), "step": ("horizon", horizon)}
    names = _MOVE_ROWS[kind]
    tables: dict[str, dict] = {"move": {}, "bitupd": {}}
    first = {}  # (directive, cell) -> the line that filled it
    for lineno, directive, row, edge, mode in rows:
        if directive == "bitupd" and kind != "sc+k":
            raise ValueError("line %d: a kind=%s strategy has no bitupd rows" % (lineno, kind))
        if directive == "move" and row.keys() != set(names):
            raise ValueError("line %d: %s move attributes must be %s" % (
                lineno, kind, " and ".join(sorted(key + "=" for key in names)) or "none"))
        for key in names:
            _below(lineno, "%s %s=%d" % (directive, key, row[key]), row[key], *bounds[key])
        if directive == "move":
            # a kind=sc row plays in mode 0, the one mode
            cell = (edge.src, row["step"], row.get("state", 0)) if names else edge.src
        else:
            _below(lineno, "bitupd target mode %d" % mode, mode, *bounds["state"])
            cell = (row["step"], row["state"], edge)
        if (directive, cell) in first:
            raise ValueError("line %d: %s repeats the cell of line %d"
                             % (lineno, directive, first[directive, cell]))
        first[directive, cell] = lineno
        tables[directive][cell] = edge if directive == "move" else mode
    table = tables["move"]
    if kind == "memoryless":
        return Memoryless(table, player=player, name=name)
    return StepCounterTable(table, horizon, fallback, k=states, bit_update=tables["bitupd"],
                            player=player, name=name)


def _header_int(attrs: dict, kind: str, key: str, least: int,
                default: Optional[str] = None) -> int:
    """The header's integer ``key=``, at least ``least``."""
    text = attrs.get(key, default)
    if text is None:
        raise ValueError("%s strategy header needs %s=" % (kind, key))
    try:
        value = int(text)
    except ValueError:
        raise ValueError("%s strategy header %s=%s is not an integer" % (kind, key, text))
    if value < least:
        raise ValueError("%s strategy header %s=%d must be at least %d" % (kind, key, value, least))
    return value


def _below(lineno: int, what: str, value: int, bound_key: str, bound: int) -> None:
    """Refuse a row the table never reads: 0 <= value < bound."""
    if value < 0:
        raise ValueError("line %d: %s is negative" % (lineno, what))
    if value >= bound:
        raise ValueError("line %d: %s is not below %s=%d" % (lineno, what, bound_key, bound))


def _attributes(words: list[str], readers: Optional[dict] = None, directive: str = "") -> dict:
    """The ``key=value`` words of a line, left to right, each key once.
    With ``readers`` only their keys are allowed and each value goes
    through its reader; without, any key is kept as text but every word
    needs an ``=``."""
    attrs = {}
    for word in words:
        key, eq, val = word.partition("=")
        if key in attrs:
            raise ValueError("%s repeats %s=" % (directive, key))
        if readers is None:
            if not eq:
                raise ValueError("malformed attribute %r" % word)
            attrs[key] = val
        elif key in readers:
            attrs[key] = readers[key](val)
        else:
            raise ValueError("unknown %s attribute %r" % (directive, key))
    return attrs


def _parse_header(parts: list[str]):
    if len(parts) < 3:
        raise ValueError("strategy header needs a name and kind=")
    attrs = _attributes(parts[2:], directive="strategy header")
    if "kind" not in attrs:
        raise ValueError("strategy header needs kind=")
    return parts[1], attrs.pop("kind"), attrs


def _integer(what: str) -> Callable[[str], int]:
    """The reader of an integer, naming ``what`` when the text is none."""
    return lambda text: read_number(int, text, "%s must be an integer" % what)


def _parse_move(parts: list[str]):
    # move <vertex> [state=<m>] [step=<s>] -> <to> weight=<w>
    try:
        arrow = parts.index("->")
    except ValueError:
        raise ValueError("move line without ->")
    v = VertexId.parse(parts[1])
    attrs = _attributes(parts[2:arrow], {"state": _integer("state="), "step": _integer("step=")},
                        "move")
    rest = parts[arrow + 1:]
    if len(rest) != 2 or not rest[1].startswith("weight="):
        raise ValueError("move line needs '-> <to> weight=<w>'")
    dst = VertexId.parse(rest[0])
    return attrs, make_edge(v, rest[1][len("weight="):], dst), None


def _edge_ends(text: str) -> tuple[VertexId, VertexId]:
    src, _, dst = text.partition("->")
    return VertexId.parse(src), VertexId.parse(dst)


def _parse_bitupd(parts: list[str]):
    # bitupd state=<m> step=<s> edge=<from>-><to> weight=<w> -> <m'>
    try:
        arrow = len(parts) - 1 - parts[::-1].index("->")
    except ValueError:
        raise ValueError("bitupd line without ->")
    attrs = _attributes(parts[1:arrow], {"state": _integer("state="), "step": _integer("step="),
                                         "edge": _edge_ends, "weight": str}, "bitupd")
    if len(attrs) < 4:
        raise ValueError("bitupd needs state=, step=, edge= and weight=")
    if arrow + 1 == len(parts):
        raise ValueError("bitupd line needs a target mode after ->")
    src, dst = attrs.pop("edge")
    target = _integer("bitupd target mode")(parts[arrow + 1])
    return attrs, make_edge(src, attrs.pop("weight"), dst), target
