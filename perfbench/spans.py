"""Per-layer tracing for the traced run.

The tracer wraps public functions of the ``qgames`` modules from outside:
methods are patched on their class objects (every binding site shares
the class), module-level functions in every ``qgames`` module that binds
the same function object by name (``qgames.cli.play`` as well as
``qgames.engine.play``).  Timed wrappers keep a stack of child time so
that each name's self time is its span minus the spans it contains.
Spans are folded into per-name totals in memory as they close and are
read out when the traced pass ends; hot, tiny functions are only counted.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from math import prod

MODULES = ("arena", "objectives", "strategies", "engine", "zoo",
           "adversaries", "synthesis", "cli")

# (metric prefix, module, class or None, attribute, timed)
TARGETS = [
    ("arena.history", "arena", "History", "__post_init__", False),
    ("arena.edges", "arena", "*", "edges", False),
    ("strategies.decide", "strategies", "*", "decide", True),
    ("strategies.choose", "strategies", "*", "choose", False),
    ("strategies.parse", "strategies", None, "parse_strategy", True),
    ("strategies.serialize", "strategies", None, "serialize_strategy", True),
    ("objectives.step_satisfies", "objectives", "OpenSub", "step_satisfies", False),
    ("objectives.lasso_limit", "objectives", None, "lasso_limit", True),
    ("engine.play", "engine", None, "play", True),
    ("engine.explore", "engine", None, "explore_consistent", True),
    ("engine.koenig", "engine", None, "koenig_bound", True),
    ("engine.check", "engine", None, "check_certificate", True),
    ("zoo.make", "zoo", None, "make", True),
    ("adversaries.ramsey", "adversaries", None, "ramsey_adversary", True),
    ("synthesis.solve_values", "synthesis", None, "solve_values", True),
    ("synthesis.brute_force", "synthesis", None, "brute_force_values", True),
    ("synthesis.min_history", "synthesis", None, "minimal_history_levels", True),
    ("synthesis.sc1bit", "synthesis", None, "sc1bit_synthesize", True),
    ("synthesis.bubble", "synthesis", None, "bubble_synthesize", True),
    ("cli.main", "cli", None, "main", True),
]


def _profile_space(arena) -> int:
    """Positional profile pairs of an explicit arena, computed from its
    out-degrees (not counted inside the solver)."""
    return prod(len(arena.edges(v)) for v in arena.vertices)


class Tracer:
    """Patches the targets on ``install`` and undoes it on ``remove``."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._stack = [0.0]
        self._undo: list = []
        self._engine = sys.modules["qgames.engine"]
        self._hooks = {
            "arena.history": lambda args, r: self._add("arena.history.edges_validated",
                                                       len(args[0].edges)),
            "engine.play": lambda args, r: self._add("engine.play.steps", len(r.edges)),
            "engine.explore": self._explore_hook,
            "engine.koenig": lambda args, r: self._add(
                "engine.koenig.inconclusive", isinstance(r, self._engine.Inconclusive)),
            "engine.check": lambda args, r: self._add("engine.check.ok", bool(r.ok)),
            "synthesis.solve_values": self._profiles_hook,
            "synthesis.brute_force": self._profiles_hook,
        }

    def _add(self, name: str, amount) -> None:
        self.counts[name] += int(amount)

    def _explore_hook(self, args, result) -> None:
        self._add("engine.explore.nodes", result.nodes)
        self._add("engine.explore.complete", bool(result.complete))

    def _profiles_hook(self, args, result) -> None:
        self._add("synthesis.profiles", _profile_space(args[0]))

    # -- wrappers ---------------------------------------------------------
    def _timed(self, name: str, fn):
        stack, self_s, calls, hook = self._stack, self.self_s, self.calls, self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                inner = stack.pop()
                stack[-1] += span
                self_s[name] += span - inner
                calls[name] += 1
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        calls, hook = self.calls, self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = [sys.modules["qgames." + m] for m in MODULES]
        for name, module, cls, attr, timed in TARGETS:
            mod = sys.modules["qgames." + module]
            wrap = self._timed if timed else self._counted
            if cls is None:
                orig = getattr(mod, attr)
                wrapped = wrap(name, orig)
                for other in mods:
                    if other.__dict__.get(attr) is orig:
                        self._set(other, attr, wrapped)
                continue
            classes = [getattr(mod, cls)] if cls != "*" else [
                c for c in vars(mod).values()
                if inspect.isclass(c) and c.__module__ == mod.__name__]
            for c in classes:
                if attr in c.__dict__:
                    self._set(c, attr, wrap(name, c.__dict__[attr]))

    def remove(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- read-out ---------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer totals; ratios are 1.0 when the layer was not called."""
        c, n, s = self.calls, self.counts, self.self_s

        def ratio(good: str, total: str) -> float:
            return n[good] / c[total] if c[total] else 1.0

        return {
            "arena.history.built": c["arena.history"],
            "arena.history.edges_validated": n["arena.history.edges_validated"],
            "arena.edges.calls": c["arena.edges"],
            "strategies.decide.calls": c["strategies.decide"],
            "strategies.decide.self_s": s["strategies.decide"],
            "strategies.choose.calls": c["strategies.choose"],
            "strategies.parse.self_s": s["strategies.parse"],
            "strategies.serialize.self_s": s["strategies.serialize"],
            "objectives.step_satisfies.calls": c["objectives.step_satisfies"],
            "objectives.lasso_limit.calls": c["objectives.lasso_limit"],
            "objectives.lasso_limit.self_s": s["objectives.lasso_limit"],
            "engine.play.calls": c["engine.play"],
            "engine.play.steps": n["engine.play.steps"],
            "engine.play.self_s": s["engine.play"],
            "engine.explore.calls": c["engine.explore"],
            "engine.explore.nodes": n["engine.explore.nodes"],
            "engine.explore.self_s": s["engine.explore"],
            "engine.explore.complete_ratio": ratio("engine.explore.complete", "engine.explore"),
            "engine.koenig.calls": c["engine.koenig"],
            "engine.koenig.self_s": s["engine.koenig"],
            "engine.koenig.inconclusive": n["engine.koenig.inconclusive"],
            "engine.check.calls": c["engine.check"],
            "engine.check.self_s": s["engine.check"],
            "engine.check.ok_ratio": ratio("engine.check.ok", "engine.check"),
            "zoo.make.self_s": s["zoo.make"],
            "adversaries.ramsey.calls": c["adversaries.ramsey"],
            "adversaries.ramsey.self_s": s["adversaries.ramsey"],
            "synthesis.solve_values.self_s": s["synthesis.solve_values"],
            "synthesis.brute_force.self_s": s["synthesis.brute_force"],
            "synthesis.profiles": n["synthesis.profiles"],
            "synthesis.min_history.self_s": s["synthesis.min_history"],
            "synthesis.sc1bit.self_s": s["synthesis.sc1bit"],
            "synthesis.bubble.self_s": s["synthesis.bubble"],
            "cli.main.self_s": s["cli.main"],
        }
