import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qgames.arena import Edge, VertexId, make_edge, reach, validate
from qgames.engine import play
from qgames.strategies import Memoryless, Strategy, parse_strategy, serialize_strategy
from qgames.zoo import ZooEntry, a4_router, bitarena_wprime, make, names, parse_uri

from history_scans import scanning
from oracles import decide

F = Fraction
V = VertexId

P2_FIRST = Memoryless(lambda ar, v: ar.edges(v)[0], player=2)
P1_FIRST = Memoryless(lambda ar, v: ar.edges(v)[0])


def test_registry_names():
    assert names() == ["a1", "a1prime", "a2", "a3", "a4", "a4guarded",
                       "bitarena", "buchia", "buchib", "nonuniform"]


def test_a_zoo_entry_reads_its_name_and_start_from_its_arena():
    assert not {"name", "start"} & set(ZooEntry._fields)
    for name in names():
        entry = make(name)
        assert entry.name == entry.arena.name == name
        assert entry.start == entry.arena.start


@pytest.mark.parametrize("name", ["a4", "a4guarded"])
def test_a4_has_no_negative_index_below_the_guard(name):
    """Only a4guarded answers its guard s(-1): a4 plays never reach it."""
    arena = make(name).arena
    if name == "a4guarded":
        assert arena.edges(V("s", (-1,))) == (Edge(V("s", (-1,)), 1, V("s", (0,))),)
    else:
        with pytest.raises(KeyError):
            arena.row(V("s", (-1,)))
    for i in (-2, -5):
        with pytest.raises(KeyError):
            arena.row(V("s", (i,)))


@pytest.mark.parametrize("name, vertex", [
    ("a4", "t(-4)"), ("a4", "d(-3,1)"), ("a4", "d(1,9)"), ("a4", "d(0,0)"), ("a4", "g(2,-1)"),
    ("a4", "g(-1,1)"), ("a4", "dr(0,0,5)"), ("a4", "dr(0,1,2)"), ("a4", "dr(-1,2,1)"),
    ("a3", "s(-5)"), ("a3", "t(-2)"), ("a3", "d(0,1)"), ("a3", "d(1,3)"), ("a3", "d(2,0)"),
    ("a3", "e(1,7)"), ("a3", "e(1,0)"), ("a3", "e(-1,1)"),
    # every entry at its default parameters, wrong arities included
    ("a1", "s(1)"), ("a1prime", "q"), ("a2", "a(-1,0)"), ("a2", "b(0,-3)"), ("a2", "a(1)"),
    ("a3", "r0(1)"), ("a3", "s(1,2)"), ("a4", "r0(0)"), ("a4", "g(1)"), ("a4guarded", "t"),
    ("bitarena", "v(-3)"), ("bitarena", "u(0)"), ("bitarena", "vz(-1)"), ("bitarena", "v(1,2)"),
    ("buchia", "x(-1)"), ("buchia", "y(0)"), ("buchia", "x"), ("buchib", "w(0,5)"),
    ("buchib", "w(1,0)"), ("buchib", "w(7,1)"), ("buchib", "v(3)"), ("nonuniform", "ray(-2)"),
    ("nonuniform", "st(-1)"), ("nonuniform", "st(1)"), ("nonuniform", "r0(1)"),
])
def test_a3_and_a4_refuse_a_vertex_outside_its_family(name, vertex):
    with pytest.raises(KeyError):
        make(name).arena.row(V.parse(vertex))


# the vertex family names of every zoo entry
_FAMILIES = "s t q a b d e r0 g dr v vz vc u uz uc x y w st ray".split()


@pytest.mark.parametrize("name", names())
def test_a3_and_a4_have_rows_exactly_at_their_reachable_vertices(name):
    """Within a box of parameters and arities, a vertex of any entry's
    family names has a row iff a play from the start reaches it
    (a4guarded's start s(-1) leads into a4's s(0), and a4 has no row at
    the guard)."""
    arena = make(name).arena
    box = [V(family, params) for family in _FAMILIES for arity in range(4)
           for params in itertools.product(range(-2, 6), repeat=arity)]
    reached = set(reach(arena, arena.start, 40))
    answered = set()
    for v in box:
        try:
            assert arena.edges(v)
        except KeyError:
            continue
        answered.add(v)
    assert answered == reached & set(box)


@pytest.mark.parametrize("name", names())
def test_every_zoo_generator_validates_to_depth_30(name):
    # validate also names a weight that is not canonical exact, which the
    # frame-free a4 rows do not pass through make_edge to become
    arena = make(name).arena
    report = validate(arena, depth=30)
    assert report.violations == []
    assert report.explored > 1


@pytest.mark.parametrize("name", names())
def test_every_zoo_row_is_edges_of_vertex_ids_as_make_edge_builds_them(name):
    arena = make(name).arena
    for v in reach(arena, arena.start, 12):
        for e in arena.edges(v):
            rebuilt = make_edge(V(*e.src), e.weight, V(*e.dst))
            assert type(e) is Edge and e == rebuilt
            assert type(e.weight) is type(rebuilt.weight)
            for end in (e.src, e.dst):
                assert type(end) is VertexId and type(end.params) is tuple
                assert all(type(p) is int for p in end.params)


def test_parse_uri_with_params():
    entry = parse_uri("zoo:buchia?k=4")
    assert entry.params == {"k": 4}
    assert parse_uri("zoo:a3").name == "a3"


def test_entries_report_their_declared_uri_parameters():
    entry = parse_uri("zoo:nonuniform?start_index=3")
    assert (entry.params, entry.start) == ({"start_index": 3}, V("st", (3,)))
    assert make("nonuniform").params == {"start_index": 0}
    assert make("a1prime").params == {"b": 8}
    assert make("a4guarded").params == {}


@pytest.mark.parametrize("name, strategy", [
    ("a3", "p2_enter_01"), ("a3", "p2_enter_+1"), ("a3", "p2_enter_ 1"), ("a3", "p2_enter_1_0"),
    ("a3", "p2_enter_-1"), ("a4", "p2_enter_-1"), ("a4", "sigma_02"), ("a2", "p2_pick_\u0663"),
])
def test_a_zoo_strategy_index_reads_only_as_the_integer_it_prints(name, strategy):
    with pytest.raises(ValueError) as refused:
        make(name).strategy(strategy)
    assert str(refused.value) == ("entry %s strategy %r must end in an integer of at least 0,"
                                  " written as it prints" % (name, strategy))


@pytest.mark.parametrize("value", ["+8", "08", " 8", "8 ", "8_0", "-0", "\u0668"])
def test_a_zoo_uri_value_reads_only_as_the_integer_it_prints(value):
    with pytest.raises(ValueError) as refused:
        parse_uri("zoo:buchib?b=" + value)
    assert str(refused.value) == "zoo parameter 'b' must be written %d, got %r" % (
        int(value), value)
    assert parse_uri("zoo:nonuniform?start_index=-3").start == V("st", (-3,))


def test_parse_uri_errors():
    with pytest.raises(ValueError):
        parse_uri("menagerie:a3")
    with pytest.raises(ValueError):
        parse_uri("zoo:buchia?k=")
    with pytest.raises(KeyError):
        parse_uri("zoo:nosuch")
    with pytest.raises(ValueError):
        make("buchia", k=1)


def test_strategy_factory_resolution():
    entry = make("a3")
    sigma = entry.strategy("p2_enter_5")
    assert sigma.player == 2
    with pytest.raises(KeyError):
        entry.strategy("nonexistent")
    with pytest.raises(KeyError):
        entry.strategy("p2_enter_x")


def test_a1prime_match_plus_one_banks_one_per_round():
    entry = make("a1prime", b=8)

    def pick3(ar, v):
        if v == V("s"):
            for e in ar.edges(v):
                if e.weight == F(-3):
                    return e
        return ar.edges(v)[0]

    p2 = Memoryless(pick3, player=2)
    record = play(entry.arena, entry.start, entry.strategy("match_plus_one"),
                  p2, 20)
    # every return to s nets challenge -3 answered by +4
    arrivals = [record.tp_at(j) for j in range(1, 21)
                if record.vertex_at(j) == V("s")]
    assert arrivals == list(range(1, len(arrivals) + 1))


def test_a2_match_plus_one_positive_round_boundaries():
    entry = make("a2")
    record = play(entry.arena, entry.start, entry.strategy("match_plus_one"),
                  entry.strategy("p2_pick_2"), 60)
    boundaries = [record.tp_at(j) for j in range(1, 61)
                  if record.vertex_at(j).name == "a"
                  and record.vertex_at(j).params[1] == 0]
    assert boundaries
    assert all(tp > 0 for tp in boundaries)
    # each completed round nets exactly +1
    assert boundaries == list(range(1, len(boundaries) + 1))


@pytest.mark.parametrize("i", range(6))
def test_a3_entry_total_and_recovery(i):
    entry = make("a3")
    p2 = entry.strategy("p2_enter_%d" % i)
    record = play(entry.arena, entry.start, entry.strategy("delay_twice_exit"),
                  p2, 200)
    # the descent lands at the i-th decision vertex with total -i-1
    first_t = next(j for j in range(1, len(record.edges) + 1)
                   if record.vertex_at(j).name == "t")
    assert record.vertex_at(first_t) == V("t", (i,))
    assert record.tp_at(first_t) == F(-i - 1)
    # two delays then exiting from the (i+2)-th vertex regains i+2
    assert record.termination == "sink"
    assert record.final_tp == F(1)


def test_a4_arrivals_share_step_counts():
    entry = make("a4")
    router = a4_router(2, [2, 1])
    record = play(entry.arena, entry.start, entry.strategy("adaptive"),
                  router, 400)
    for j in range(1, len(record.edges) + 1):
        v = record.vertex_at(j)
        if v.name == "t":
            assert j == 3 * (v.params[0] + 1)
    assert record.termination == "sink"
    assert record.final_tp == F(0)


@pytest.mark.parametrize("i,k", [(0, 1), (1, 3), (2, 2), (4, 5)])
def test_a4_fixed_delay_budget_algebra(i, k):
    # entry at the i-th vertex costs -2(i+1); k delays then an exit
    # recover i+k+1 regardless of how the opponent stretches them
    entry = make("a4")
    sigma = entry.strategy("sigma_%d" % k)
    router = a4_router(i, [1, 2, 1])
    record = play(entry.arena, entry.start, sigma, router, 600)
    assert record.termination == "sink"
    assert record.final_tp == F(-2 * (i + 1) + i + k + 1)


def test_bitarena_opposite_loses_one_per_round_touching_zero():
    entry = make("bitarena")
    record = play(entry.arena, entry.start, entry.strategy("opposite"),
                  entry.strategy("allzero"), 60)
    touched = 0
    for j in range(1, 61):
        v = record.vertex_at(j)
        if v.name == "v":
            assert record.tp_at(j) == F(-v.params[0])
        if record.tp_at(j) == 0 and j > 0:
            touched += 1
    assert touched >= 10


def test_bitarena_opposite_vs_allclimb_touches_zero():
    entry = make("bitarena")
    record = play(entry.arena, entry.start, entry.strategy("opposite"),
                  entry.strategy("allclimb"), 60)
    zeros = [j for j in range(1, 61) if record.tp_at(j) == 0]
    assert len(zeros) >= 10
    for j in range(1, 61):
        v = record.vertex_at(j)
        if v.name == "v":
            assert record.tp_at(j) == F(-v.params[0])


def test_bitarena_wprime_spot_checks():
    for i in range(1, 6):
        assert bitarena_wprime(V("v", (i,)), F(-i))
        assert not bitarena_wprime(V("v", (i,)), F(-i - 1))
    assert bitarena_wprime(V("v", (0,)), F(0))
    assert bitarena_wprime(V("vc", (3,)), F(0))
    assert not bitarena_wprime(V("vc", (3,)), F(-1, 2))
    assert bitarena_wprime(V("u", (2,)), F(-3))
    assert not bitarena_wprime(V("u", (2,)), F(-4))


def test_bitarena_winning_from_interior_vertex():
    entry = make("bitarena")
    v0 = V("v", (3,))
    sigma = entry.extras["winning_from"](v0, F(-3))
    record = play(entry.arena, v0, sigma, entry.strategy("allclimb"), 60)
    # running sum -3 + tp returns to 0 in every round
    hits = [j for j in range(1, 61) if F(-3) + record.tp_at(j) == 0]
    assert len(hits) >= 10


def test_buchia_round_robin_sees_every_colour():
    entry = make("buchia", k=4)
    record = play(entry.arena, entry.start, entry.strategy("round_robin"),
                  P2_FIRST, 80)
    seen = [e.weight for e in record.edges]
    for colour in (F(0), F(1), F(2), F(3)):
        assert seen.count(colour) >= 3


def test_buchib_alternating_sees_both_colours():
    entry = make("buchib", b=6)
    record = play(entry.arena, entry.start, entry.strategy("alternating"),
                  P2_FIRST, 60)
    colours = [e.weight for e in record.edges]
    assert colours.count(F(1)) >= 5
    assert colours.count(F(0)) >= 5


@pytest.mark.parametrize("j", [3, 5, 9])
def test_nonuniform_exit_point_sets_final_total(j):
    entry = make("nonuniform", start_index=5)
    sigma = entry.strategy("exit_at_%d" % j)
    record = play(entry.arena, entry.start, sigma, P2_FIRST, 200)
    assert record.termination == "sink"
    assert record.final_tp == F(-5 + j)


# ---------------------------------------------------------------------------
# The A4 strategies carry counters; these history scans are the
# definitions they must agree with on every history.


def _scan_edge_to(ar, v, dst_name):
    return next(e for e in ar.edges(v) if e.dst.name == dst_name)


def _scan_delays(h):
    return sum(1 for e in h.edges if e.src.name == "t" and e.dst.name == "g")


def _scan_sigma_k(k):
    def fn(ar, h):
        v = h.to_vertex
        if v.name != "t":
            return ar.edges(v)[0]
        return _scan_edge_to(ar, v, "g" if _scan_delays(h) < k else "r0")

    return scanning("scan_sigma_%d" % k, fn)


def _scan_adaptive():
    def fn(ar, h):
        v = h.to_vertex
        if v.name != "t":
            return ar.edges(v)[0]
        entry = next((e.dst.params[0] for e in h.edges if e.dst.name == "t"),
                     v.params[0])
        return _scan_edge_to(ar, v, "g" if _scan_delays(h) < entry + 1 else "r0")

    return scanning("scan_adaptive", fn)


def _scan_router(entry, gaps, cycle_from=0):
    def gap_at(idx):
        if idx < len(gaps):
            return gaps[idx]
        cycle = gaps[cycle_from:] or gaps
        return cycle[(idx - len(gaps)) % len(cycle)]

    def fn(ar, h):
        v = h.to_vertex
        if v.name == "s":
            return _scan_edge_to(ar, v, "s" if v.params[0] < entry else "d")
        if v.name == "g":
            if v.params[1] < gap_at(_scan_delays(h) - 1):
                return _scan_edge_to(ar, v, "g")
            return next(e for e in ar.edges(v) if e.dst.name != "g")
        return ar.edges(v)[0]

    return scanning("scan_router", fn, player=2)


ROUTINGS = [("a4", 0, [1], 0), ("a4", 2, [2, 1], 0), ("a4", 3, [1, 4, 2], 1),
            ("a4", 1, [3, 3, 1, 2], 2), ("a4guarded", 2, [2, 5], 1)]
P1_NAMES = ["adaptive", "sigma_0", "sigma_1", "sigma_2", "sigma_5", "sigma_100"]


def _scan_p1(name):
    return _scan_adaptive() if name == "adaptive" else _scan_sigma_k(int(name[6:]))


@pytest.mark.parametrize("zoo_name,entry_index,gaps,cycle_from", ROUTINGS)
def test_a4_counting_strategies_match_history_scans(zoo_name, entry_index, gaps,
                                                     cycle_from):
    entry = make(zoo_name)
    router = a4_router(entry_index, gaps, cycle_from)
    scan_router = _scan_router(entry_index, gaps, cycle_from)
    for p1_name in P1_NAMES:
        sigma, scan = entry.strategy(p1_name), _scan_p1(p1_name)
        record = play(entry.arena, entry.start, sigma, router, 250)
        assert record.to_csv() == play(entry.arena, entry.start, scan, scan_router,
                                       250).to_csv()
        history = record.history()
        # every prefix, and every prefix of suffixes starting at a decision
        # vertex (where the adaptive rule reads the entry off the vertex)
        starts = [0] + [j for j in range(1, len(history))
                        if record.vertex_at(j).name == "t"][:3]
        for start in starts:
            tail = history.suffix_from(start)
            for n in range(len(tail) + 1):
                h = tail.prefix(n)
                assert decide(entry.arena, sigma, h) == decide(entry.arena, scan, h)
                assert decide(entry.arena, router, h) == decide(entry.arena, scan_router, h)


# ---------------------------------------------------------------------------
# The other player-1 strategies keep the last edge, the latest challenge or
# nothing at all; these full-history functions are the definitions they
# must agree with on every history.


def _ref_match_plus_one_a1(b):
    def fn(ar, h):
        v = h.to_vertex
        if v != V("t"):
            return ar.edges(v)[0]
        reply = min(int(-h.edges[-1].weight) + 1, b)
        return next(e for e in ar.edges(v) if e.weight == reply)

    return fn


def _ref_match_plus_one_a2(ar, h):
    v = h.to_vertex
    if v.name != "b":
        return ar.edges(v)[0]
    k = v.params[1]
    # a suffix starting inside the chain has seen no challenge: exit now
    challenge = next((e.src.params[1] for e in reversed(h.edges)
                      if e.dst.name == "b" and e.dst.params[1] == 0 and e.src.name == "a"),
                     k - 1)
    return _scan_edge_to(ar, v, "a" if k >= challenge + 1 else "b")


def _ref_round_robin(ar, h):
    v = h.to_vertex
    if v.name == "x" and len(ar.edges(v)) > 1:
        return _scan_edge_to(ar, v, "y")
    return ar.edges(v)[0]


def _ref_alternating(ar, h):
    v = h.to_vertex
    if v.name != "v":
        return ar.edges(v)[0]
    last = h.edges[-1] if h.edges else None
    if last is not None and last.src == v and last.dst == v:
        return _scan_edge_to(ar, v, "u")
    return _scan_edge_to(ar, v, "v")


def _ref_exit_at(j):
    def fn(ar, h):
        v = h.to_vertex
        if v.name != "ray":
            return ar.edges(v)[0]
        return _scan_edge_to(ar, v, "r0" if v.params[0] >= j else "ray")

    return fn


HORIZON = 48
ZOO_P2 = Path(__file__).parent / "data" / "zoo_p2"


def _challenge(c):
    return parse_strategy("strategy challenge_%d kind=memoryless player=2\n"
                          "move s -> t weight=-%d\n" % (c, c))


@pytest.mark.parametrize("b", [1, 6])
def test_buchib_pad_1_is_the_zoo_p2_file(b):
    # the buchib adversary's opponent, which qg verify --p2 pad_1 rebuilds
    assert serialize_strategy(make("buchib", b=b).strategy("pad_1")) == \
        (ZOO_P2 / "buchib_pad_1.strategy").read_text()


def _p2_file(name):
    return parse_strategy((ZOO_P2 / name).read_text())


def _seeded(seed, draws, pick):
    """Player 2 moving by pick(arena, vertex, draw), one seeded draw per step."""
    rng = random.Random(seed)
    by_step = [rng.choice(draws) for _ in range(HORIZON)]
    return Strategy("seeded_%d" % seed, 0, lambda n, e: n + 1,
                    lambda ar, v, n: pick(ar, v, by_step[n]), player=2)


def _challenge_by_draw(ar, v, c):
    return next(e for e in ar.edges(v) if e.weight == -c) if v == V("s") else ar.edges(v)[0]


def _climb_by_draw(ar, v, climb):
    return _scan_edge_to(ar, v, "a" if climb else "b")


def _pad_by_draw(ar, v, n):
    if v.name != "u":
        return ar.edges(v)[0]
    want = V("v", ()) if n == 1 else V("w", (n, 1))
    return next(e for e in ar.edges(v) if e.dst == want)


# (zoo entry, its parameters, player-1 strategy, reference, opponents)
REWRITTEN = [
    ("a1", {"b": 8}, "match_plus_one", _ref_match_plus_one_a1(8),
     [lambda entry, c=c: _challenge(c) for c in (2, 8)]),
    ("a1prime", {"b": 8}, "match_plus_one", _ref_match_plus_one_a1(8),
     [lambda entry, c=c: _challenge(c) for c in range(1, 9)]
     + [lambda entry: _seeded(1, range(1, 9), _challenge_by_draw)]),
    ("a1prime", {"b": 3}, "match_plus_one", _ref_match_plus_one_a1(3),
     [lambda entry: _seeded(2, range(1, 4), _challenge_by_draw)]),
    ("a2", {}, "match_plus_one", _ref_match_plus_one_a2,
     [lambda entry, j=j: entry.strategy("p2_pick_%d" % j) for j in (0, 1, 3, 7)]
     + [lambda entry: _seeded(3, (True, True, False), _climb_by_draw)]),
    ("buchib", {"b": 6}, "alternating", _ref_alternating,
     [lambda entry: _p2_file("buchib_pad_1.strategy"),
      lambda entry: _p2_file("buchib_pad_4.strategy"),
      lambda entry: _seeded(4, range(1, 7), _pad_by_draw)]),
    ("buchia", {"k": 3}, "round_robin", _ref_round_robin,
     [lambda entry: _p2_file("idle.strategy")]),
    ("buchia", {"k": 5}, "round_robin", _ref_round_robin,
     [lambda entry: _p2_file("idle.strategy")]),
    ("nonuniform", {"start_index": 3}, "exit_at_5", _ref_exit_at(5),
     [lambda entry: _p2_file("idle.strategy")]),
    ("nonuniform", {"start_index": 0}, "exit_at_60", _ref_exit_at(60),
     [lambda entry: _p2_file("idle.strategy")]),
]


@pytest.mark.parametrize("zoo_name,params,p1_name,reference,opponents", REWRITTEN,
                         ids=["a1", "a1prime", "a1prime-b3", "a2", "buchib", "buchia-k3",
                              "buchia-k5", "nonuniform-3", "nonuniform-0"])
def test_rewritten_zoo_strategies_match_history_scans(zoo_name, params, p1_name, reference,
                                                      opponents):
    entry = make(zoo_name, **params)
    sigma, scan = entry.strategy(p1_name), scanning("scan_" + p1_name, reference)
    for opponent in opponents:
        p2 = opponent(entry)
        record = play(entry.arena, entry.start, sigma, p2, HORIZON)
        assert record.to_csv() == play(entry.arena, entry.start, scan, p2,
                                       HORIZON).to_csv()
        history = record.history()
        # every prefix of every suffix; a1's reply reads the challenge
        # off the last edge, so its suffixes start where a round does
        starts = [j for j in range(len(history) + 1)
                  if not zoo_name.startswith("a1") or record.vertex_at(j) == V("s")]
        for start in starts:
            tail = history.suffix_from(start)
            for n in range(len(tail) + 1):
                h = tail.prefix(n)
                assert decide(entry.arena, sigma, h) == reference(entry.arena, h)


def test_a2_match_plus_one_exits_at_once_inside_a_descending_chain():
    # started in the chain with no challenge seen, exit now and regain 2k
    entry = make("a2")
    b03 = V("b", (0, 3))
    record = play(entry.arena, b03, entry.strategy("match_plus_one"),
                  entry.strategy("p2_pick_2"), 12)
    assert record.edges[0] == Edge(b03, F(6), V("a", (1, 0)))
    # then each round answers challenge 2 with 3 and nets +1
    assert [record.tp_at(j) for j in (1, 8)] == [F(6), F(7)]
    assert record.final_tp == F(4)
