"""Game arenas: explicit graphs, lazy generators, histories, memory structures.

An arena is a directed graph whose vertices are partitioned between two
players and whose edges carry exact rational weights: an ``int`` when
integral, else a ``Fraction`` (``exact``).  An integral ``Fraction``, as a
sum of fractional weights may be, compares, hashes and prints as its
``int``; only ``repr`` and ``type`` tell them apart.  Arenas are
non-blocking (every vertex has at least one outgoing edge) and finitely
branching.  Both kinds keep their rows in one store, ``Arena``'s: an
explicit arena fills it when built, from rows (``explicit_rows``) when
derived from another, and keeps every row; a generator is an ``Arena``
with a deterministic ``expand``, which fills it one vertex at a time and
empties it when it holds ``ROW_STORE_BOUND`` rows, so a generator's
store stays bounded however long a play or walk runs.

Vertices and edges are immutable named tuples, so hashing, equality and
ordering are the tuple's own, in C; they compare equal to plain tuples
with the same fields.  Being tuples, a lone one must be wrapped for
``%``-formatting: ``"%s" % (v,)``.

A finite memory is a ``MealyMemory``, whose update reads whole edges, or
a ``LetterMemory``, whose update reads only an edge's letter
``(src.name, weight, dst.name)``.  A letter memory folds a run of n equal
letters in at most K+1 transitions (``LetterMemory.run``).

The play path is every step of ``engine.steps`` (read the row, ask the
owner's strategy, check the edge, fold it into both memories), the
``qg simulate`` CSV lines (``engine.csv_lines``) and the Ramsey
adversary's folds of its closed-form paths (``adversaries._fold``: a
letter memory by runs, any other memory one update per edge).  On a
generator a play's visit to a vertex outside the store expands its row
and orders it, a two-edge row by comparing its fields, and stores a row
that ``expand`` returned in order as it came (``Arena.row``): the
largest share of a ``qg simulate`` job on a4 (see README).  Code on that
path keeps three rules.  Weights stay exact: each goes through ``exact``
(which takes an ``int`` as it is) unless it is an ``int`` by construction.
``VertexId`` and ``Edge`` stay named tuples; a hot loop may build them
frame-free, from one field tuple, with ``_new_vertex`` and ``_new_edge``
(``tuple.__new__`` bound to the class, which skips only the Python frame
of their ``__new__``), and ``_new_edge`` only with an ``int`` weight or
one already exact; ``validate`` reports a generator edge whose weight is
not.  Checks are kept: ``steps`` refuses a non-edge, and a memory refuses
a state outside its set on every transition it computes, the steps
inside ``LetterMemory.run`` included.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional

Weight = int | Fraction  # an int when integral, see ``exact``

P1 = 1
P2 = 2

DEFAULT_VERTEX_CAP = 10**6
# rows a generator's store holds at most: a full store is emptied before
# the next row goes in (``Arena.row``)
ROW_STORE_BOUND = 1024


class Inconclusive(Exception):
    """A cap exhausted before a verdict, naming the cap: the vertex cap
    (``DEFAULT_VERTEX_CAP``), a node cap, a depth cap or a window.
    Routines that end in one verdict raise it; walks whose callers go on
    from a partial result return it.  ``node_cap`` is set if it bound."""

    def __init__(self, reason: str, node_cap: Optional[int] = None):
        self.reason, self.node_cap = reason, node_cap

    def __str__(self) -> str:
        return self.reason


# "name", "name(a)", "name(a,b)", "name(a,b,c)": the text of a vertex with
# few parameters, in one formatting
_VERTEX_FORMATS = ("%s", "%s(%s)", "%s(%s,%s)", "%s(%s,%s,%s)")


class VertexId(NamedTuple):
    """Structured vertex identifier: a name plus integer parameters.

    Totally ordered (name first, then parameters) so that edge lists and
    all downstream tie-breaking are deterministic.
    """

    name: str
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        name, params = self
        n = len(params)
        if n < len(_VERTEX_FORMATS):
            return _VERTEX_FORMATS[n] % (name, *params)
        return "%s(%s)" % (name, ",".join(map(str, params)))

    @staticmethod
    def parse(text: str) -> "VertexId":
        """The vertex that prints as ``text``.  Another text that reads as
        a vertex, such as ``n(01)``, ``n(+1)``, ``n()`` or one with spaces
        around it, is refused and named: no two texts read as one vertex."""
        raw, text = text, text.strip()
        if text.endswith(")") and "(" in text:
            name, _, rest = text.partition("(")
            body = rest[:-1]
            if not name:
                raise ValueError("vertex id with empty name: %r" % text)
            params = tuple(read_number(int, p, "vertex %s parameter must be an integer" % text)
                           for p in body.split(",")) if body else ()
            v = VertexId(name, params)
        elif "(" in text or ")" in text:
            raise ValueError("malformed vertex id: %r" % text)
        else:
            v = VertexId(text)
        if str(v) != raw:
            raise ValueError("vertex id %r must be written %s" % (raw, v))
        return v


V = VertexId  # short alias used heavily by the zoo


class Edge(NamedTuple):
    src: VertexId
    weight: Weight
    dst: VertexId

    def __str__(self) -> str:
        return "%s -%s-> %s" % (self.src, self.weight, self.dst)


# an edge's (dst, weight), the order of every edge row, as a C sort key
_edge_sort_key = itemgetter(2, 1)
# _new_vertex((name, params)) is VertexId(name, params) and _new_edge((src,
# weight, dst)) is Edge(src, weight, dst), without the Python frame of the
# named tuple's __new__; _new_edge takes the weight as it is, so it must be
# an int or already exact (``make_edge`` makes it so)
_new_vertex = partial(tuple.__new__, VertexId)
_new_edge = partial(tuple.__new__, Edge)


def exact(x, d: int = 1) -> Weight:
    """``x / d`` as a canonical exact rational: an ``int`` when integral,
    else a ``Fraction``.  ``x`` is an int or a Fraction, or, with no ``d``,
    a text ``Fraction()`` takes (an integer text is read by ``int``), such
    as ``"-5/6"``, but no float, no bool and no text with an exponent,
    whose integer (``"1e99999999"``) could take minutes to build.  Every
    division of exact values goes through here: ``int / int`` would be a
    float."""
    if d != 1:
        x = Fraction(x, d)
    elif type(x) is int:
        return x
    elif type(x) is str and x.removeprefix("-").isdecimal():
        return int(x)
    elif type(x) in (float, bool) or type(x) is str and ("e" in x or "E" in x):
        raise ValueError("not an exact number: %r" % (x,))
    elif type(x) is not Fraction:
        try:
            x = Fraction(x)
        except ZeroDivisionError:  # a text such as "1/0"
            raise ValueError("zero denominator in %r" % (x,)) from None
    return x.numerator if x.denominator == 1 else x


def read_number(reader: Callable[[str], object], text: str, rule: str):
    """``reader(text)``, or a ValueError stating the rule the text breaks
    (a zero denominator, as ``exact`` names it)."""
    try:
        return reader(text)
    except ValueError as exc:
        if isinstance(exc.__context__, ZeroDivisionError):
            raise
        raise ValueError("%s, got %r" % (rule, text)) from None


def _canonical(weight) -> bool:
    """Whether ``weight`` is as ``exact`` leaves it: an ``int``, or a
    ``Fraction`` that is not integral."""
    return type(weight) is int or (type(weight) is Fraction and weight.denominator != 1)


def make_edge(src: VertexId, weight, dst: VertexId) -> Edge:
    """An edge with its weight made exact, a file's text too; an ``int``
    weight, the common case in generator rows, is taken as it is."""
    if type(weight) is not int:
        weight = read_number(exact, weight, "weight= must be a number")
    return _new_edge((src, weight, dst))


class Arena:
    """The row store: ``_cache`` maps a vertex to its row ``(owner,
    edges)``, the edges sorted by (dst, weight), ties kept in the order
    given.  On a miss ``row`` stores the row of ``expand``, a pure function
    kept uncached, in a store bounded by ``ROW_STORE_BOUND`` rows; with no
    ``expand`` a vertex outside the store is a ``KeyError``."""

    def __init__(self, name: str, start: Optional[VertexId], expand: Optional[Callable] = None):
        self.name = name
        self.start = start
        self.expand = expand
        self._cache: dict[VertexId, tuple[int, tuple[Edge, ...]]] = {}

    def row(self, v: VertexId) -> tuple[int, tuple[Edge, ...]]:
        """The owner of ``v`` and its edges, from one lookup.  A row expanded
        on a miss is put in (dst, weight) order as a stable sort would: two
        edges by comparing fields, more by ``sorted``.  An ``(owner, edges)``
        tuple of edges already in order is stored as ``expand`` returned it,
        any other row as a new tuple.  A store holding ``ROW_STORE_BOUND``
        rows is emptied before the row goes in: ``expand`` is pure, so an
        evicted row is built equal on its next read, and an explicit arena,
        which never misses, keeps every row."""
        hit = self._cache.get(v)
        if hit is not None:
            return hit
        if self.expand is None:
            raise KeyError(v)
        owner, es = row = self.expand(v)
        if type(es) is not tuple:
            es = tuple(es)
        n = len(es)
        if n == 2:
            a, b = es
            if b.dst < a.dst or b.dst == a.dst and b.weight < a.weight:
                es = (b, a)
        elif n > 2:
            es = tuple(sorted(es, key=_edge_sort_key))
        elif not n:
            raise ValueError("generator produced blocking vertex %s" % (v,))
        if type(row) is not tuple or row[1] is not es:
            row = (owner, es)
        cache = self._cache
        if len(cache) >= ROW_STORE_BOUND:
            cache.clear()
        cache[v] = row
        return row

    def owner(self, v: VertexId) -> int:
        return self.row(v)[0]

    def edges(self, v: VertexId) -> tuple[Edge, ...]:
        hit = self._cache.get(v)
        return (hit if hit is not None else self.row(v))[1]

    def is_sink(self, v: VertexId) -> bool:
        """A sink is a vertex whose only edge is a weight-0 self-loop."""
        es = self.edges(v)
        return len(es) == 1 and es[0].dst == v and es[0].weight == 0


class ArenaExplicit(Arena):
    """Finite arena given by explicit vertex and edge maps, every row
    stored when built; a vertex without edges is kept for ``validate``."""

    def __init__(self, owners: dict[VertexId, int], edges: Iterable[Edge],
                 start: Optional[VertexId] = None, name: str = "arena"):
        if len(owners) > DEFAULT_VERTEX_CAP:
            raise Inconclusive("vertex cap %d exceeded by an arena of %d vertices"
                               % (DEFAULT_VERTEX_CAP, len(owners)))
        super().__init__(name, start)
        buckets: dict[VertexId, list[Edge]] = {v: [] for v in owners}
        for e in edges:
            if e.src not in owners:
                raise ValueError("edge from undeclared vertex %s" % (e.src,))
            if e.dst not in owners:
                raise ValueError("edge to undeclared vertex %s" % (e.dst,))
            buckets[e.src].append(e)
        if start is not None and start not in owners:
            raise ValueError("start vertex %s not declared" % (start,))
        self._cache = {v: (owners[v], tuple(sorted(bucket, key=_edge_sort_key)))
                       for v, bucket in buckets.items()}
        self.vertices: tuple[VertexId, ...] = tuple(sorted(owners))


class History(NamedTuple("History", [("origin", VertexId), ("edges", tuple)])):
    """A finite contiguous edge sequence from an origin vertex.

    Length 0 is allowed (the empty history at ``origin``).  Its fields'
    named tuple is unbound: the traced pass wraps any ``edges`` that a
    class of this module defines.
    """

    def __new__(cls, origin: VertexId, edges: tuple[Edge, ...] = ()):
        self = tuple.__new__(cls, (origin, edges))
        self.__post_init__()
        return self

    def __post_init__(self):
        at = self.origin
        for e in self.edges:
            if e.src != at:
                raise ValueError("non-contiguous history at %s: %s" % (at, e))
            at = e.dst

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def to_vertex(self) -> VertexId:
        return self.edges[-1].dst if self.edges else self.origin

    @property
    def word(self) -> tuple[Weight, ...]:
        return tuple(e.weight for e in self.edges)

    def total(self) -> Weight:
        return sum(e.weight for e in self.edges)

    def extend(self, *edges: Edge) -> "History":
        """Longer by the given edges; checks only the new ones."""
        at = self.to_vertex
        for e in edges:
            if e.src != at:
                raise ValueError("non-contiguous history at %s: %s" % (at, e))
            at = e.dst
        return History._checked(self.origin, self.edges + edges)

    def prefix(self, n: int) -> "History":
        return History._checked(self.origin, self.edges[:n])

    def suffix_from(self, n: int) -> "History":
        return History._checked(self.prefix(n).to_vertex, self.edges[n:])

    @staticmethod
    def _checked(origin: VertexId, edges: tuple[Edge, ...]) -> "History":
        """A history from edges already known to be contiguous from origin,
        built without re-validating them."""
        return tuple.__new__(History, (origin, edges))


# ---------------------------------------------------------------------------
# Memory structures


class MealyMemory:
    """Finite memory: explicit state set with an edge-driven update."""

    def __init__(self, states: Iterable, initial, update: Callable[[object, Edge], object]):
        self.states = tuple(states)
        self.initial = initial
        self._update = update

    def update(self, state, edge: Edge):
        nxt = self._update(state, edge)
        if nxt not in self.states:
            raise ValueError("memory update left the state set: %r" % (nxt,))
        return nxt


class LetterMemory(MealyMemory):
    """Finite memory whose update reads only an edge's letter
    ``(src.name, weight, dst.name)``, never the vertex parameters (a
    chromatic memory).  The update function takes ``(state, letter)``:
    ``step`` applies it to a letter, ``update`` to an edge's letter, and
    every transition either computes is checked against the state set."""

    step = MealyMemory.update  # the checked update, applied to a letter

    def update(self, state, edge: Edge):
        return self.step(state, (edge.src.name, edge.weight, edge.dst.name))

    def run(self, state, letter: tuple, n: int):
        """The state after ``n`` equal letters: the transitions are followed
        until a state repeats, at most K+1 checked steps, and the n-th state
        is read off the path and the cycle it closes."""
        path = [state]
        at = {state: 0}
        while len(path) <= n:
            nxt = self.step(path[-1], letter)
            if nxt in at:
                start = at[nxt]
                return path[start + (n - start) % (len(path) - start)]
            at[nxt] = len(path)
            path.append(nxt)
        return path[n]


def _encode_mem_state(state) -> tuple[int, ...]:
    if isinstance(state, bool):
        return (int(state),)
    if isinstance(state, int):
        return (state,)
    if isinstance(state, tuple) and not isinstance(state, (VertexId, Edge)):
        out: list[int] = []
        for part in state:
            out.extend(_encode_mem_state(part))
        return tuple(out)
    raise TypeError("cannot encode memory state %r into a product vertex" % (state,))


def product(arena: Arena, memory) -> Arena:
    """Product arena: vertices (v, m) from the start, updates through the memory.

    ``memory`` is a ``MealyMemory`` or any object with its ``initial``
    and ``update(state, edge)``, such as a step counter.  Product vertices
    are encoded as VertexIds whose name is the base name suffixed with
    ``*`` and whose parameters append the encoded memory state; two (v, m)
    that encode alike are refused.  Explicit x Mealy stays explicit;
    anything else (a memory without a state set, or a generator input)
    becomes a generator.
    """
    if arena.start is None:
        raise ValueError("product needs a start vertex")

    state_of: dict[VertexId, tuple[VertexId, object]] = {}

    def register(v: VertexId, state) -> VertexId:
        pv = VertexId(v.name + "*", v.params + _encode_mem_state(state))
        seen = state_of.setdefault(pv, (v, state))
        if seen != (v, state):
            raise ValueError("memory states %r at %s and %r at %s share the product vertex %s"
                             % (seen[1], seen[0], state, v, pv))
        return pv

    root = register(arena.start, memory.initial)

    def expand(pv: VertexId) -> tuple[int, tuple[Edge, ...]]:
        try:
            v, state = state_of[pv]
        except KeyError:
            raise ValueError("unreachable product vertex %s" % (pv,))
        out = []
        for e in arena.edges(v):
            nxt = register(e.dst, memory.update(state, e))
            out.append(Edge(pv, e.weight, nxt))
        return arena.owner(v), tuple(out)

    gen = Arena(arena.name + "@mem", root, expand)
    if isinstance(arena, ArenaExplicit) and isinstance(memory, MealyMemory):
        return explicit_rows(gen, [register(v, state) for v in arena.vertices
                                   for state in memory.states])
    return gen


def explicit_rows(arena: Arena, vertices: Iterable[VertexId]) -> ArenaExplicit:
    """The rows of ``arena.expand`` on the given vertices, as an explicit
    arena with its start and name: every derived explicit arena is built
    here, a transform's on an explicit input and ``truncate_generator``'s."""
    rows = {v: arena.expand(v) for v in vertices}
    return ArenaExplicit({v: owner for v, (owner, _) in rows.items()},
                         [e for _, es in rows.values() for e in es], arena.start, name=arena.name)


# ---------------------------------------------------------------------------
# Validation and structural checks


class ValidationReport(NamedTuple("ValidationReport", [("violations", list), ("explored", int)])):
    def __new__(cls, violations: Optional[list[str]] = None, explored: int = 0):
        return tuple.__new__(cls, ([] if violations is None else violations, explored))

    @property
    def ok(self) -> bool:
        return not self.violations


def reach(arena: Arena, start: VertexId, depth: int,
          edges: Optional[Callable[[VertexId], Iterable[Edge]]] = None) -> dict[VertexId, int]:
    """Every vertex within ``depth`` steps of ``start``, in the order first
    reached, mapped to its distance, breadth first.  Vertices at distance
    ``depth`` are not expanded; ``edges`` (``arena.edges`` by default)
    lists a vertex's edges, once per expanded vertex in the walk's order.
    Raises ``Inconclusive``, naming the distance, as soon as the walk
    reaches more than ``DEFAULT_VERTEX_CAP`` vertices."""
    edges = edges or arena.edges
    reached = {start: 0}
    layer = [start]
    d = 0
    while layer and d < depth:
        d += 1  # one int per layer, shared by its vertices
        nxt = []
        for v in layer:
            for e in edges(v):
                if e.dst not in reached:
                    reached[e.dst] = d
                    if len(reached) > DEFAULT_VERTEX_CAP:
                        raise Inconclusive("vertex cap %d exceeded at distance %d"
                                           % (DEFAULT_VERTEX_CAP, d))
                    nxt.append(e.dst)
        layer = nxt
    return reached


def validate(arena: Arena, depth: int = 50) -> ValidationReport:
    """Check non-blocking, endpoint declaration, and generator determinism.

    Explicit arenas are checked in full; a generator's vertices within
    ``depth`` steps of its start are expanded (``reach``), each
    probed twice to catch nondeterministic expansion, and each edge's
    weight must be canonical exact (``exact``): a generator may build its
    edges with ``_new_edge``, which does not make them so.  A walk past
    the vertex cap raises ``Inconclusive`` (``reach``): no verdict.
    """
    if isinstance(arena, ArenaExplicit):
        return ValidationReport(["blocking vertex %s" % (v,) for v in arena.vertices
                                 if not arena.edges(v)], len(arena.vertices))
    report = ValidationReport()
    if arena.start is None:
        report.violations.append("generator without a start vertex")
        return report

    def probe(v: VertexId) -> tuple[Edge, ...]:
        try:
            first = arena.expand(v)
            second = arena.expand(v)
        except Exception as exc:  # expansion itself failed
            report.violations.append("expansion failed at %s: %s" % (v, exc))
            return ()
        if first != second:
            report.violations.append("nondeterministic expansion at %s" % (v,))
        owner, es = first
        es = tuple(sorted(es, key=_edge_sort_key))
        if owner not in (P1, P2):
            report.violations.append("bad owner at %s: %r" % (v, owner))
        if not es:
            report.violations.append("blocking vertex %s" % (v,))
        report.violations.extend("edge source mismatch at %s: %s" % (v, e)
                                 for e in es if e.src != v)
        report.violations.extend("weight not canonical exact at %s: %r" % (v, e.weight)
                                 for e in es if not _canonical(e.weight))
        return es

    return report._replace(explored=len(reach(arena, arena.start, depth + 1, probe)))


def node_cap_from_env(default: int = 10**6) -> int:
    """``QG_NODE_CAP``, or ``default`` when unset; ValueError unless a positive integer."""
    raw = os.environ.get("QG_NODE_CAP")
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError("QG_NODE_CAP must be a positive integer")
    return cap
