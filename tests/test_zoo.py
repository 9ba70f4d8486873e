from fractions import Fraction

import pytest

from qgames.arena import VertexId
from qgames.engine import play
from qgames.strategies import Memoryless, Scripted
from qgames.zoo import a4_router, bitarena_wprime, make, names, parse_uri

F = Fraction
V = VertexId

P2_FIRST = Memoryless(lambda ar, v: ar.edges(v)[0], player=2)
P1_FIRST = Memoryless(lambda ar, v: ar.edges(v)[0])


def test_registry_names():
    assert names() == ["a1", "a1prime", "a2", "a3", "a4", "a4guarded",
                       "bitarena", "buchia", "buchib", "nonuniform"]


def test_parse_uri_with_params():
    entry = parse_uri("zoo:buchia?k=4")
    assert entry.params == {"k": 4}
    assert parse_uri("zoo:a3").name == "a3"


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
    seen = record.colours
    for colour in (F(0), F(1), F(2), F(3)):
        assert seen.count(colour) >= 3


def test_buchib_alternating_sees_both_colours():
    entry = make("buchib", b=6)
    record = play(entry.arena, entry.start, entry.strategy("alternating"),
                  P2_FIRST, 60)
    assert record.colours.count(F(1)) >= 5
    assert record.colours.count(F(0)) >= 5


@pytest.mark.parametrize("j", [3, 5, 9])
def test_nonuniform_exit_point_sets_final_total(j):
    entry = make("nonuniform", start_index=5)
    sigma = entry.strategy("exit_at_%d" % j)
    record = play(entry.arena, entry.start, sigma, P2_FIRST, 200)
    assert record.termination == "sink"
    assert record.final_tp == F(-5 + j)


# ---------------------------------------------------------------------------
# The A4 strategies carry counters; these history-scanning scripts are the
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

    return Scripted("scan_sigma_%d" % k, fn)


def _scan_adaptive():
    def fn(ar, h):
        v = h.to_vertex
        if v.name != "t":
            return ar.edges(v)[0]
        entry = next((e.dst.params[0] for e in h.edges if e.dst.name == "t"),
                     v.params[0])
        return _scan_edge_to(ar, v, "g" if _scan_delays(h) < entry + 1 else "r0")

    return Scripted("scan_adaptive", fn)


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

    return Scripted("scan_router", fn, player=2)


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
                assert sigma.decide(entry.arena, h) == scan.decide(entry.arena, h)
                assert router.decide(entry.arena, h) == scan_router.decide(entry.arena, h)
