"""Payoff functions, quantitative objectives, open decompositions, lassos.

Objectives are sets of infinite weight words defined by a limit of total
payoff (TP) or mean payoff (MP).  The synthesizers work with countable
intersections of *open* sub-objectives: each open sub-objective is
witnessed by a finite prefix (``OpenSub.step_satisfies`` at one of its
positions), and ``OpenSub.rank`` orders equal-length prefixes by how good
their continuations are.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Union

from .arena import Arena, ArenaExplicit, Weight, exact, read_number

POS_INF = float("inf")
NEG_INF = float("-inf")

ExtValue = Union[Weight, float]  # floats only ever hold +-infinity

TP = "tp"
MP = "mp"
BUCHI_ALL = "buchi-all"


class _Objective(NamedTuple):
    kind: str
    mode: str = "limsup"  # limsup | liminf
    relation: str = ">="  # > | >=
    threshold: ExtValue = 0
    colour_count: int = 0


class Objective(_Objective):
    """A limit objective: kind, limit mode, relation, threshold.

    ``kind`` is ``tp``, ``mp``, or ``buchi-all``; for the latter
    ``colour_count`` gives the colour codes 0..k-1 and the numeric fields
    are ignored.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    def __post_init__(self):
        if self.kind not in (TP, MP, BUCHI_ALL):
            raise ValueError("unknown objective kind %r" % self.kind)
        if self.kind == BUCHI_ALL:
            if self.colour_count < 1:
                raise ValueError("buchi-all needs a positive colour count")
            return
        if self.mode not in ("limsup", "liminf"):
            raise ValueError("mode must be limsup or liminf")
        if self.relation not in (">", ">="):
            raise ValueError("relation must be > or >=")
        if self.kind == MP and isinstance(self.threshold, float):
            raise ValueError("mean-payoff thresholds must be finite")

    def __str__(self) -> str:
        if self.kind == BUCHI_ALL:
            return "buchi-all:%d" % self.colour_count
        return "%s:%s:%s:%s" % (self.kind, self.mode, self.relation, format_ext(self.threshold))


def format_ext(x: ExtValue) -> str:
    if x == POS_INF:
        return "+inf"
    if x == NEG_INF:
        return "-inf"
    return str(x)


def parse_ext(text: str) -> ExtValue:
    if text in ("+inf", "inf"):
        return POS_INF
    if text == "-inf":
        return NEG_INF
    return exact(text)


def parse_objective(text: str) -> Objective:
    """Parse CLI objective syntax, e.g. ``tp:limsup:>=:0`` or ``buchi-all:3``."""
    parts = text.strip().split(":")
    if parts[0] == BUCHI_ALL:
        if len(parts) != 2:
            raise ValueError("buchi-all syntax: buchi-all:<k>")
        count = read_number(int, parts[1], "buchi-all colour count must be an integer")
        return Objective(BUCHI_ALL, colour_count=count)
    if len(parts) != 4:
        raise ValueError("objective syntax: kind:mode:relation:threshold")
    kind, mode, rel, thr = parts
    return Objective(kind, mode, rel, read_number(
        parse_ext, thr, "objective threshold must be a number, +inf or -inf"))


def classify(obj: Objective) -> str:
    """Borel level and memory-sufficiency metadata for the variant."""
    if obj.kind == BUCHI_ALL:
        return "Pi02; step-counter sufficient, finite memory insufficient"
    thr = obj.threshold
    key = (obj.kind, obj.mode, obj.relation, format_ext(thr) if isinstance(thr, float) else "fin")
    table = {
        (MP, "liminf", ">", "fin"): "Sigma02; memoryless sufficient (prior work)",
        (TP, "liminf", ">", "-inf"): "Sigma02; memoryless sufficient (prior work)",
        (MP, "limsup", ">=", "fin"): "Pi02; step counter sufficient, finite memory insufficient",
        (TP, "limsup", ">=", "+inf"): "Pi02; step counter sufficient, finite memory insufficient",
        (TP, "limsup", ">=", "fin"): "Pi02; step counter plus one bit sufficient, step counter alone insufficient",
        (TP, "limsup", ">", "fin"): "Sigma03 over Q; over Z rewrite as a >= threshold",
        (MP, "limsup", ">", "fin"): "Sigma03; sufficiency open",
        (MP, "liminf", ">=", "fin"): "Sigma03; sufficiency open",
        (TP, "liminf", ">=", "+inf"): "Sigma03; sufficiency open",
        (TP, "liminf", ">", "fin"): "step counter plus finite memory insufficient",
        (TP, "liminf", ">=", "fin"): "step counter plus finite memory insufficient",
    }
    return table.get(key, "unclassified variant")


# ---------------------------------------------------------------------------
# Open sub-objectives


class _OpenSub(NamedTuple):
    family: str
    m: int = 1
    i: int = 1
    colour: Optional[Weight] = None
    threshold: Weight = 0


class OpenSub(_OpenSub):
    """An open sub-objective with an ``already satisfies`` prefix witness.

    Families, r the ``threshold`` (which ``tp-inf`` and ``buchi`` ignore):
      - ``mp-sup``:   some j >= i with MP(w<=j) >= r - 1/m
      - ``tp-inf``:   some j >= i with TP(w<=j) >= m
      - ``tp-sup``:   some j >= m with TP(w<=j) >= r - 1/m
      - ``buchi``:    some j >= i with c_j = colour
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    def __post_init__(self):
        if self.family not in ("mp-sup", "tp-inf", "tp-sup", "buchi"):
            raise ValueError("unknown open sub-objective family %r" % self.family)
        if self.family != "buchi" and self.m < 1:
            raise ValueError("index m must be >= 1")
        if self.i < 1:
            raise ValueError("step index must be >= 1")
        if self.family == "buchi" and self.colour is None:
            raise ValueError("buchi sub-objective needs a colour")

    @property
    def step_index(self) -> int:
        """Least position at which the witness predicate may fire."""
        if self.family == "tp-sup":
            return self.m
        return self.i

    def step_satisfies(self, j: int, tp: Weight, colour: Optional[Weight] = None) -> bool:
        """Does position j (1-based), with running total ``tp`` and step
        colour ``colour``, witness the sub-objective?"""
        if j < self.step_index:
            return False
        if self.family == "mp-sup":
            return (tp - self.threshold * j) * self.m >= -j  # MP >= r - 1/m without division
        if self.family == "tp-inf":
            return tp >= self.m
        if self.family == "tp-sup":
            return (tp - self.threshold) * self.m >= -1  # TP >= r - 1/m without division
        return colour == self.colour

    def rank(self, satisfied: bool, total: Weight) -> tuple:
        """Where a prefix stands among those of its length, higher ranks
        having more winning continuations: a satisfied prefix above all,
        then unsatisfied ones by total (at equal lengths the mean-payoff
        order is the total order, and the threshold moves every total
        alike), all alike for a Buchi colour."""
        if satisfied:
            return (True,)
        if self.family == "buchi":
            return (False,)
        return (False, total)


# ---------------------------------------------------------------------------
# Lassos


class Lasso(NamedTuple("Lasso", [("prefix", tuple), ("cycle", tuple)])):
    """An ultimately periodic weight word: prefix followed by a repeated cycle."""

    def __new__(cls, prefix: tuple[Weight, ...], cycle: tuple[Weight, ...]):
        if not cycle:
            raise ValueError("lasso cycle must be non-empty")
        return tuple.__new__(cls, (prefix, cycle))

    def unroll(self, steps: int) -> list[Weight]:
        out = list(self.prefix)
        while len(out) < steps:
            out.extend(self.cycle)
        return out[:steps]


def lasso_limit(kind: str, mode: str, lasso: Lasso) -> ExtValue:
    """Exact limit of the running TP or MP over the lasso's infinite word."""
    cycle_sum = sum(lasso.cycle)
    if kind == MP:
        return exact(cycle_sum, len(lasso.cycle))
    if kind != TP:
        raise ValueError("no numeric limit for kind %r" % kind)
    if cycle_sum > 0:
        return POS_INF
    if cycle_sum < 0:
        return NEG_INF
    base = sum(lasso.prefix)
    partials = []
    run = base
    for c in lasso.cycle:
        run += c
        partials.append(run)
    return max(partials) if mode == "limsup" else min(partials)


# ---------------------------------------------------------------------------
# Decompositions into open sub-objectives


class Unsupported(NamedTuple):
    reason: str


class Decomposition:
    """A countable decreasing-or-indexed family of open sub-objectives.

    ``sub(n)`` returns the n-th member (1-based) of the linear schedule.
    """

    def __init__(self, objective: Objective, label: str, gen: Callable[[int], OpenSub]):
        self.objective = objective
        self.label = label
        self._gen = gen

    def sub(self, n: int) -> OpenSub:
        if n < 1:
            raise ValueError("sub-objective index is 1-based")
        return self._gen(n)


def _diagonal_pair(n: int) -> tuple[int, int]:
    """n-th pair (m, i), m, i >= 1, ordered by (m + i, m) ascending."""
    total = 2
    k = n
    while True:
        count = total - 1  # pairs with this diagonal sum
        if k <= count:
            m = k
            return m, total - m
        k -= count
        total += 1


def decompose(objective: Objective) -> Union[Decomposition, Unsupported]:
    """Open decomposition of the objectives the synthesizers support.  A
    finite threshold r of ``mp:limsup:>=`` and ``tp:limsup:>=`` rides in
    every sub-objective (``OpenSub.threshold``); labels do not name it."""
    if objective.kind == BUCHI_ALL:
        k = objective.colour_count

        def buchi_gen(n: int) -> OpenSub:
            q, r = divmod(n - 1, k)
            return OpenSub("buchi", i=q + 1, colour=r)

        return Decomposition(objective, "buchi-all(%d)" % k, buchi_gen)

    thr = objective.threshold
    if objective.kind == MP and (objective.mode, objective.relation) == ("limsup", ">="):
        def mp_gen(n: int) -> OpenSub:
            m, i = _diagonal_pair(n)
            return OpenSub("mp-sup", m=m, i=i, threshold=thr)

        return Decomposition(objective, "mp-limsup>=r", mp_gen)

    if objective.kind == TP and (objective.mode, objective.relation) == ("limsup", ">="):
        if thr == POS_INF:
            def tpinf_gen(n: int) -> OpenSub:
                m, i = _diagonal_pair(n)
                return OpenSub("tp-inf", m=m, i=i)

            return Decomposition(objective, "tp-limsup=+inf", tpinf_gen)
        if thr != NEG_INF:
            def tpsup_gen(n: int) -> OpenSub:
                return OpenSub("tp-sup", m=n, threshold=thr)

            return Decomposition(objective, "tp-limsup>=r", tpsup_gen)

    return Unsupported(classify(objective))


# ---------------------------------------------------------------------------
# Strict total-payoff thresholds


def rewrite_strict_tp(arena: Arena, objective: Objective) -> Objective:
    """A strict total-payoff objective ``> r``, r finite, as ``>= r + 1/D``,
    D the lcm of r's and every edge weight's denominator: r and every
    running total are multiples of 1/D.  Any other objective is returned
    as it is.  On a generator, whose weights cannot all be read, a strict
    finite one raises ``ValueError``.  Only the objective is rewritten."""
    thr = objective.threshold
    if objective.kind != TP or objective.relation != ">" or isinstance(thr, float):
        return objective
    if not isinstance(arena, ArenaExplicit):
        raise ValueError("a strict total-payoff threshold is rewritten over the common "
                         "denominator of every weight, which a generator cannot list; "
                         "rewrite it as >= first")
    d = math.lcm(thr.denominator,
                 *(e.weight.denominator for v in arena.vertices for e in arena.edges(v)))
    return Objective(TP, objective.mode, ">=", exact(thr * d + 1, d))
