"""Command-line interface: validate, simulate, defeat, synthesize, verify,
zoo inspection, and a small benchmark grid.

Exit codes: 0 success / accepted certificate, 1 refuted, failed or a
malformed command line, 2 inconclusive (a cap or window was exhausted
before a verdict).  All numeric output is exact rational text; artifacts
are written atomically.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from typing import Iterable, Optional

from . import zoo
from .arena import (Arena, ArenaExplicit, Edge, VertexId, explicit_rows, make_edge,
                    node_cap_from_env, reach, read_number, validate)
from .engine import (Inconclusive, certificate_from_json, certificate_to_json,
                     check_certificate, csv_lines, explore_consistent, missing_context, steps)
from .objectives import Decomposition, Unsupported, decompose, parse_objective, rewrite_strict_tp
from .strategies import Strategy, parse_strategy, serialize_strategy, table_edges
from .synthesis import (SynthReport, WPrimeOracle, bubble_synthesize, finite_mp_oracle,
                        finite_wprime_oracle, sc1bit_synthesize)
from .adversaries import (defeat_a1prime, defeat_a2, defeat_sc_buchi, defeat_sc_on_A3,
                          ramsey_adversary)

OK, FAILED, INCONCLUSIVE = 0, 1, 2


# ---------------------------------------------------------------------------
# Arena text format


class _VertexTexts(dict):
    """Vertex text -> its ``VertexId``, each distinct text parsed once."""

    def __missing__(self, text: str) -> VertexId:
        v = self[text] = VertexId.parse(text)
        return v


def parse_arena(text: str, name_hint: str = "arena") -> ArenaExplicit:
    """Parse the line-based arena format into an explicit arena, which
    checks the edges' endpoints and the start (``ArenaExplicit``).  A
    second ``arena`` or ``start`` line, or a vertex declared twice, is
    refused."""
    vertex = _VertexTexts()
    name: Optional[str] = None
    owners: dict[VertexId, int] = {}
    edges: list[Edge] = []
    start: Optional[VertexId] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "arena":
                if len(parts) != 2:
                    raise ValueError("arena line takes exactly one name")
                if name is not None:
                    raise ValueError("arena declared twice")
                name = parts[1]
            elif parts[0] == "vertex":
                if len(parts) != 3 or not parts[2].startswith("owner="):
                    raise ValueError("vertex syntax: vertex <id> owner=<1|2>")
                v = vertex[parts[1]]
                owner = read_number(int, parts[2][len("owner="):], "owner= must be an integer")
                if owner not in (1, 2):
                    raise ValueError("owner must be 1 or 2")
                if v in owners:
                    raise ValueError("vertex %s declared twice" % (v,))
                owners[v] = owner
            elif parts[0] == "edge":
                if len(parts) != 4 or not parts[3].startswith("weight="):
                    raise ValueError("edge syntax: edge <from> <to> weight=<w>")
                edges.append(make_edge(vertex[parts[1]], parts[3][len("weight="):],
                                       vertex[parts[2]]))
            elif parts[0] == "start":
                if len(parts) != 2:
                    raise ValueError("start line takes exactly one vertex")
                if start is not None:
                    raise ValueError("start declared twice")
                start = vertex[parts[1]]
            else:
                raise ValueError("unknown directive %r" % parts[0])
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc))
    if start is None:
        raise ValueError("no start vertex")
    arena = ArenaExplicit(owners, edges, start, name=name or name_hint)
    for v in owners:  # in the file's order
        if not arena.edges(v):
            raise ValueError("blocking vertex %s has no outgoing edge" % (v,))
    return arena


def serialize_arena(arena: ArenaExplicit) -> str:
    """Canonical text form: sorted vertices, deterministically sorted edges."""
    lines = ["arena %s" % arena.name]
    for v in arena.vertices:
        lines.append("vertex %s owner=%d" % (v, arena.owner(v)))
    for v in arena.vertices:
        for e in arena.edges(v):
            lines.append("edge %s %s weight=%s" % (e.src, e.dst, e.weight))
    lines.append("start %s" % (arena.start,))
    return "\n".join(lines) + "\n"


def truncate_generator(arena: Arena, depth: int) -> ArenaExplicit:
    """A generator's rows within ``depth`` steps of its start, as an explicit
    arena (``explicit_rows``); a boundary vertex's row is a weight-0 self-loop."""
    dist = reach(arena, arena.start, depth)

    def expand(v: VertexId):
        owner, es = arena.row(v)
        return owner, es if dist[v] < depth else (Edge(v, 0, v),)

    return explicit_rows(Arena(arena.name, arena.start, expand), dist)


# ---------------------------------------------------------------------------
# Helpers


def _atomic_write(path: str, lines: Iterable[str]) -> None:
    """Writes the lines to a temporary file beside ``path``, renamed onto
    it after the last line: a failure part-way leaves ``path`` as it was."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qg-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(lines: Iterable[str], out: Optional[str]) -> None:
    """Writes the lines to ``out`` (``_atomic_write``), or to stdout after
    the last one, spooled meanwhile to an anonymous temporary file: either
    way a failure part-way writes nothing, and the text is never held whole."""
    if out:
        _atomic_write(out, lines)
        return
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        spool.writelines(lines)
        spool.seek(0)
        shutil.copyfileobj(spool, sys.stdout)


def _load_arena(spec: str):
    """Returns (arena, zoo entry or None)."""
    if spec.startswith("zoo:"):
        entry = zoo.parse_uri(spec)
        return entry.arena, entry
    with open(spec) as fh:
        return parse_arena(fh.read(), name_hint=os.path.splitext(os.path.basename(spec))[0]), None


def _load_strategy(spec: str, arena: Arena, entry, player: int) -> Strategy:
    """A strategy file or zoo strategy, refused in another player's role; a
    file is refused unless every edge its rows name is an edge of the arena."""
    if os.path.exists(spec):
        with open(spec) as fh:
            strat = parse_strategy(fh.read())
        edges = table_edges(strat)
    elif entry is not None:
        strat, edges = entry.strategy(spec), ()
    else:
        raise ValueError("no such strategy file and no zoo entry to look up %r" % spec)
    if strat.player != player:
        raise ValueError("strategy %r is for player %d, requested player %d"
                         % (spec, strat.player, player))
    for e in edges:
        try:
            out = arena.edges(e.src)
        except (KeyError, ValueError):  # a generator's expand refuses the vertex
            raise ValueError("strategy %r names vertex %s, which is not in arena %s"
                             % (spec, e.src, arena.name))
        if e not in out:
            raise ValueError("strategy %r names %s, which is not an edge of arena %s"
                             % (spec, e, arena.name))
    return strat


def _read_objective(text: str, arena: Arena) -> Decomposition:
    """The decomposition of an ``--objective``.  A strict finite
    total-payoff threshold is rewritten as ``>=`` first
    (``rewrite_strict_tp``, which refuses a generator); an objective with
    no decomposition is refused, named as typed."""
    deco = decompose(rewrite_strict_tp(arena, parse_objective(text)))
    if isinstance(deco, Unsupported):
        raise ValueError("objective %s: %s" % (text, deco.reason))
    return deco


def _err(msg: str) -> int:
    print("error: %s" % msg, file=sys.stderr)
    return FAILED


# ---------------------------------------------------------------------------
# Subcommands


def cmd_validate(args) -> int:
    arena, _ = _load_arena(args.arena)
    report = validate(arena, depth=args.depth)
    for line in report.violations:
        print("violation: %s" % line)
    print("validate: %s (%d vertices explored)" % ("ok" if report.ok else "failed",
                                                   report.explored))
    return OK if report.ok else FAILED


def cmd_simulate(args) -> int:
    arena, entry = _load_arena(args.arena)
    p1 = _load_strategy(args.p1, arena, entry, 1)
    p2 = _load_strategy(args.p2, arena, entry, 2)
    _emit(csv_lines(arena.start, steps(arena, arena.start, p1, p2, args.horizon)), args.out)
    return OK


def cmd_defeat(args) -> int:
    arena, entry = _load_arena(args.arena)
    if entry is None:
        return _err("defeat targets zoo entries; pass a zoo: URI")
    sigma = _load_strategy(args.strategy, arena, entry, 1)
    # the one map from a zoo entry to its adversary; these three read no option
    plain = {"a1prime": defeat_a1prime, "a2": defeat_a2, "buchib": defeat_sc_buchi}
    if entry.name in plain:
        result = plain[entry.name](sigma, entry)
    elif entry.name == "a3":
        result = defeat_sc_on_A3(sigma, entry, horizon=args.horizon)
    elif entry.name in ("a4", "a4guarded"):
        plan, result = ramsey_adversary(sigma, entry, window=args.window,
                                        horizon=max(args.horizon, 2000))
        print("plan: enter %d, route %s" % (plan.entry, plan.routing))
    else:
        return _err("no adversary routine for zoo entry %r" % entry.name)
    for note in result.notes:
        print("note: %s" % note)
    if result.certificate is None:
        print("defeat: no certificate (partial)")
        return INCONCLUSIVE
    check = check_certificate(result.certificate,
                              {"arena": arena, "v0": arena.start,
                               "sigma1": sigma, "sigma2": result.p2})
    if not check.ok:  # a refuted certificate is never emitted
        print("self-check failed: %s" % "; ".join(check.diagnostics))
        return FAILED
    _emit([certificate_to_json(result.certificate)], args.out)
    if args.out:
        print("certificate written to %s" % args.out)
    print("defeat: certificate accepted%s" % (" (partial)" if result.partial else ""))
    return OK


def _synth_report_text(report: SynthReport) -> str:
    lines = ["schedule:"]
    for m, k in report.schedule:
        lines.append("  m=%d k=%d" % (m, k))
    for m, k, ok in report.level_certs:
        lines.append("level m=%d k=%d recertified=%s" % (m, k, "yes" if ok else "NO"))
    lines.append("region preserved: %s" % {True: "yes", False: "NO", None: "not checked"}[
        report.region_ok])
    lines.append("certified: %s" % ("yes" if report.certified else "NO"))
    if report.failure:
        lines.append("failure: %s" % report.failure)
    return "\n".join(lines) + "\n"


# decomposition label -> (the winning-region oracle of an explicit arena at a
# threshold, the synthesizer, called by its module-level name); a generator
# takes the zoo entry's W' fields, which serve tp-limsup>=r at r = 0
_FINITE_ORACLES = {
    "tp-limsup>=r": (finite_wprime_oracle, lambda arena, start, deco, m_max, oracle, depth:
                     sc1bit_synthesize(arena, start, m_max, oracle, depth_cap=depth)),
    "mp-limsup>=r": (finite_mp_oracle, lambda arena, start, deco, m_max, oracle, depth:
                     bubble_synthesize(arena, start, deco, m_max, oracle, depth_cap=depth)),
}


def cmd_synthesize(args) -> int:
    arena, entry = _load_arena(args.arena)
    deco = _read_objective(args.objective, arena)
    objective = deco.objective
    if deco.label not in _FINITE_ORACLES:
        return _err("synthesis supports tp:limsup:>=:<finite> and "
                    "mp:limsup:>=:<finite> objectives")
    finite_oracle, synthesize = _FINITE_ORACLES[deco.label]
    if isinstance(arena, ArenaExplicit):
        oracle = finite_oracle(arena, objective.threshold)
    elif deco.label == "tp-limsup>=r" and objective.threshold == 0 and entry.wprime is not None:
        oracle = WPrimeOracle(entry.wprime, entry.strategies["safe"],
                              entry.extras["winning_from"])
    else:
        return _err("zoo entry %r has no winning-region oracle for %s" % (entry.name, objective))
    try:
        report = synthesize(arena, arena.start, deco, args.m_max, oracle, args.depth)
    except ValueError as exc:  # a refusal names a rewritten strict objective as typed
        if parse_objective(args.objective) == objective:
            raise
        raise ValueError("%s (%s is read as %s)" % (exc, args.objective, objective)) from None
    print(_synth_report_text(report), end="")
    if report.strategy is not None and args.out:
        _atomic_write(args.out, [serialize_strategy(report.strategy)])
        print("strategy written to %s" % args.out)
    if report.certified:
        return OK
    return INCONCLUSIVE if report.failure else FAILED


def cmd_verify(args) -> int:
    with open(args.cert) as fh:
        cert = certificate_from_json(fh.read())
    arena, entry = _load_arena(args.arena)
    context = {"arena": arena, "v0": arena.start}
    if args.p1:
        context["sigma1"] = _load_strategy(args.p1, arena, entry, 1)
    if args.p2:
        context["sigma2"] = _load_strategy(args.p2, arena, entry, 2)
    if args.objective:
        context["subs"] = _read_objective(args.objective, arena).sub
    missing = missing_context(cert, context,
                              {"sigma1": "--p1", "sigma2": "--p2", "subs": "--objective"})
    if missing:
        return _err(missing)
    result = check_certificate(cert, context)
    for line in result.diagnostics:
        print(line)
    print("verify: %s" % ("accepted" if result.ok else "refuted"))
    return OK if result.ok else FAILED


def cmd_zoo_list(args) -> int:
    for name in zoo.names():
        entry = zoo.make(name)
        strategies = sorted(entry.strategies)
        print("%s: %s" % (name, entry.note))
        if strategies:
            print("  strategies: %s" % ", ".join(strategies))
    return OK


def cmd_zoo_export(args) -> int:
    arena, entry = _load_arena(args.arena)
    if entry is None:
        return _err("zoo export takes a zoo: URI")
    explicit = truncate_generator(arena, args.depth)
    _emit([serialize_arena(explicit)], args.out)
    return OK


_BENCH_GRID = [
    # (zoo URI, strategy, label for what the run demonstrates)
    ("zoo:a1prime?b=8", "match_plus_one", "unbounded replies win the repeated match game"),
    ("zoo:a2", "match_plus_one", "answering one more wins the finitely branching rounds"),
    ("zoo:a3", "delay_twice_exit", "two delays then exit bank at least 1"),
    ("zoo:a4", "adaptive", "adapting delays to the entry reaches exactly 0"),
    ("zoo:bitarena", "opposite", "one bit of memory tracks the opponent's round move"),
    ("zoo:buchia?k=3", "round_robin", "sweeping detours sees every colour"),
    ("zoo:buchib?b=6", "alternating", "loop-then-exit alternates both colours"),
]


def cmd_bench(args) -> int:
    rows = []
    truncated = []
    for uri, strat_name, label in _BENCH_GRID:
        entry = zoo.parse_uri(uri)
        sigma = entry.strategy(strat_name)
        tree = explore_consistent(entry.arena, entry.start, sigma, min(args.horizon, 12))
        width = max(tree.level_widths)
        rows.append((uri, strat_name, sigma.__class__.__name__, width, label))
        if tree.truncated is not None:
            truncated.append("%s: %s" % (uri, tree.truncated.reason))
    name_w = max(len(r[0]) for r in rows)
    strat_w = max(len(r[1]) for r in rows)
    print("%-*s  %-*s  %-16s  %5s  %s" % (name_w, "arena", strat_w, "strategy",
                                          "class", "width", "demonstrates"))
    for uri, sn, cls, width, label in rows:
        print("%-*s  %-*s  %-16s  %5d  %s" % (name_w, uri, strat_w, sn, cls, width, label))
    for line in truncated:
        print("inconclusive: %s" % line)
    return INCONCLUSIVE if truncated else OK


# ---------------------------------------------------------------------------
# Argument parsing

# every option a subcommand may take, with its argparse keywords
_OPTIONS = {
    "--arena": {"help": "arena file or zoo:<name>?k=v URI"},
    "--horizon": {"type": int, "default": 200},
    "--depth": {"type": int, "default": 40},
    "--window": {"type": int, "default": 2000},
    "--m-max": {"type": int, "default": 3},
    "--out": {}, "--strategy": {}, "--cert": {}, "--objective": {}, "--p1": {}, "--p2": {},
}

# option dest -> its least value, checked before any handler runs
_BOUNDS = {"horizon": 0, "depth": 0, "window": 0, "m_max": 1}

# subcommand -> its handler, its options (a trailing ``!`` makes one
# required), the option defaults it overrides and its parser's keywords;
# a two-word name is a subcommand of the first word's parser (_GROUPS)
_COMMANDS = {
    "validate": (cmd_validate, "--arena! --depth", {}, {"help": "check arena well-formedness"}),
    "simulate": (cmd_simulate, "--arena! --horizon --out --p1! --p2!", {},
                 {"help": "play two strategies, emit the play CSV"}),
    "defeat": (cmd_defeat, "--arena! --horizon --out --strategy! --window", {}, {
        "help": "construct an opponent defeating the strategy",
        "epilog": "--horizon is the horizon on a3; on a4 and a4guarded the play horizon is "
                  "max(--horizon, 2000); a1prime, a2 and buchib do not read it"}),
    "synthesize": (cmd_synthesize, "--arena! --depth --out --objective! --m-max", {"depth": 200},
                   {"help": "synthesize a certified strategy"}),
    "verify": (cmd_verify, "--arena! --cert! --p1 --p2 --objective", {},
               {"help": "re-check a certificate file"}),
    "zoo list": (cmd_zoo_list, "", {}, {}),
    "zoo export": (cmd_zoo_export, "--arena! --depth --out", {}, {}),
    "bench": (cmd_bench, "--horizon", {}, {"help": "tournament grid over zoo arenas"}),
}
_GROUPS = {"zoo": {"help": "inspect or export zoo arenas"}}


def build_parser() -> argparse.ArgumentParser:
    """The whole parser of ``_COMMANDS``, built afresh on every call.
    ``main`` builds it only for a line that is not canonical
    (``_canonical_args``): it reads every such line, and words every help,
    usage and error text."""
    parser = argparse.ArgumentParser(prog="qg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for name, (fn, options, defaults, parser_kw) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group and group not in groups:
            groups[group] = sub.add_parser(group, **_GROUPS[group]).add_subparsers(required=True)
        p = (groups[group] if group else sub).add_parser(leaf, **parser_kw)
        for option in options.split():
            flag = option.rstrip("!")
            p.add_argument(flag, required=option.endswith("!"), **_OPTIONS[flag])
        p.set_defaults(fn=fn, **defaults)
    return parser


def _canonical_args(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace ``build_parser`` reads from a canonical ``argv``, read
    from ``_COMMANDS`` alone; None for any other line.  A line is canonical
    when its subcommand's every required flag is present and every word
    after the subcommand is a flag the subcommand declares, spelled
    exactly and given once, followed by a value that does not start with
    ``-`` (an ``int`` option's value read by ``int``)."""
    words = 2 if argv[:1] == ["zoo"] else 1
    command = _COMMANDS.get(" ".join(argv[:words]))
    if command is None:
        return None
    fn, options, defaults, _ = command
    flags, values = argv[words::2], argv[words + 1::2]
    given = dict(zip(flags, values))
    declared = {option.rstrip("!"): option for option in options.split()}
    required = {flag for flag, option in declared.items() if option[-1] == "!"}
    if (len(flags) != len(values) or len(given) != len(flags)
            or not required <= given.keys() <= declared.keys()
            or any(value.startswith("-") for value in values)):
        return None
    args = {"command": argv[0]}
    for flag in declared:
        dest = flag[2:].replace("-", "_")
        args[dest] = defaults.get(dest, _OPTIONS[flag].get("default"))
        if flag in given:
            try:
                args[dest] = _OPTIONS[flag].get("type", str)(given[flag])
            except ValueError:
                return None
    return argparse.Namespace(**args, fn=fn)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _canonical_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits 2 on a malformed command line, 0 after --help
            return FAILED if exc.code else OK
    try:
        node_cap_from_env()
        for option, least in _BOUNDS.items():
            if getattr(args, option, least) < least:
                return _err("--%s must be at least %d" % (option.replace("_", "-"), least))
        return args.fn(args)
    except Inconclusive as exc:  # a cap is not a refutation
        print("inconclusive: %s" % exc)
        return INCONCLUSIVE
    except KeyError as exc:  # str() of a KeyError is the repr of its message
        return _err(str(exc.args[0]) if exc.args else str(exc))
    except (OSError, ValueError) as exc:
        return _err(str(exc))


if __name__ == "__main__":
    sys.exit(main())
