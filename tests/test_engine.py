import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qgames.arena import (ROW_STORE_BOUND, Arena, ArenaExplicit, Edge, History, MealyMemory,
                          ValidationReport, VertexId, make_edge)
from qgames.engine import (CheckResult, ColourStarvation, Divergence, EarlyExitNegative,
                           Inconclusive, KoenigBound, LevelSatisfaction, PlayRecord,
                           SinkPayoff, certificate_from_json, certificate_to_json,
                           check_certificate,
                           explore_consistent, koenig_bound, koenig_layers, missing_context,
                           play)
from qgames.objectives import OpenSub
from qgames.strategies import FIRST_EDGE, FiniteMemory, Memoryless, StepCounterTable, Strategy
from qgames.zoo import ZooEntry, make

from history_scans import scanning

F = Fraction
V = VertexId


def E(src, w, dst):
    return Edge(src, F(w), dst)


A, B, C, S = V("a"), V("b"), V("c"), V("s")


def branch_arena():
    # P1 at a picks +1 to b; P2 at b returns via -1 or 0; s is a sink
    return ArenaExplicit(
        {A: 1, B: 2, S: 1},
        [E(A, 1, B), E(A, -2, S), E(B, -1, A), E(B, 0, A), E(S, 0, S)],
        A)


P1_UP = Memoryless({A: E(A, 1, B)})
P1_SINK = Memoryless({A: E(A, -2, S)})


def test_play_records_traces_and_csv():
    arena = branch_arena()
    p2 = Memoryless({B: E(B, -1, A)}, player=2)
    record = play(arena, A, P1_UP, p2, 5)
    assert [str(e.dst) for e in record.edges] == ["b", "a", "b", "a", "b"]
    assert record.tp_trace == [F(1), F(0), F(1), F(0), F(1)]
    assert record.final_tp == F(1)
    assert record.tp_at(0) == F(0)
    assert record.vertex_at(2) == A
    csv = record.to_csv()
    assert csv.splitlines()[0] == "step,from,to,weight,tp,mp,mem1,mem2"
    assert len(csv.splitlines()) == 6


def test_csv_mp_column_is_the_exact_mean_payoff():
    # seeded random explicit arenas with weights k/6 and random positional
    # players: every mp field is str(tp / (step + 1)), a zero total included
    rng = random.Random(11)
    zeros = 0
    for _ in range(150):
        vs = [V("n", (i,)) for i in range(rng.randint(2, 6))]
        owners = {v: rng.choice((1, 2)) for v in vs}
        arena = ArenaExplicit(owners, [E(v, F(rng.randint(-12, 12), 6), rng.choice(vs))
                                       for v in vs for _ in range(rng.randint(1, 3))], vs[0])
        pick = {v: rng.choice(arena.edges(v)) for v in vs}
        p1 = Memoryless({v: e for v, e in pick.items() if owners[v] == 1})
        p2 = Memoryless({v: e for v, e in pick.items() if owners[v] == 2}, player=2)
        record = play(arena, vs[0], p1, p2, 40)
        rows = [line.split(",") for line in record.to_csv().splitlines()[1:]]
        assert len(rows) == len(record.edges)
        for step, (row, tp) in enumerate(zip(rows, record.tp_trace)):
            assert row[4] == str(tp)
            assert row[5] == str(tp / (step + 1))
            zeros += tp == 0
    assert zeros > 0


def test_csv_memory_columns_print_each_state_as_its_own_text():
    # equal states that print differently, unhashable states, one object
    # traced at steps apart, and vertices of 0 to 4 parameters
    loop = [V("n", (1, 2, 3, 4)), V("n"), V("n", (1,)), V("n", (1, 2)), V("n", (1, 2, 3))]
    edges = [make_edge(u, 1, w) for u, w in zip(loop, loop[1:] + loop[:1])] * 2
    shared = [1, (2, 3)]
    mem1 = [1, 1, True, True, 1, 1.0, (1, 2), (1, True), None, 1]
    mem2 = [shared, shared, [1, (2, 3)], None, "a b,c", "a b,c", shared, 0, 0, shared]
    text1 = ["1", "1", "True", "True", "1", "1.0", "(1;2)", "(1;True)", "-", "1"]
    text2 = ["[1;(2;3)]"] * 3 + ["-", "ab;c", "ab;c", "[1;(2;3)]", "0", "0", "[1;(2;3)]"]
    record = PlayRecord(loop[0], edges, list(range(1, 11)), mem1, mem2, "horizon")
    assert record.to_csv().splitlines()[1:] == [
        "%d,%s,%s,1,%d,1,%s,%s" % (j, e.src, e.dst, j + 1, t1, t2)
        for j, (e, t1, t2) in enumerate(zip(edges, text1, text2))]
    assert str(loop[0]) == "n(1,2,3,4)" and str(loop[1]) == "n"


def test_integer_weights_give_int_totals_and_an_exact_mp_column():
    arena = ArenaExplicit({A: 1, B: 2}, [make_edge(A, 1, B), make_edge(B, 2, A)], A)
    record = play(arena, A, Memoryless({A: arena.edges(A)[0]}),
                  Memoryless({B: arena.edges(B)[0]}, player=2), 5)
    assert record.tp_trace == [1, 3, 4, 6, 7]
    assert {type(tp) for tp in record.tp_trace + [record.final_tp, record.tp_at(0)]} == {int}
    rows = [line.split(",") for line in record.to_csv().splitlines()[1:]]
    assert [row[5] for row in rows] == ["1", "3/2", "4/3", "3/2", "7/5"]
    empty = play(arena, A, Memoryless({A: arena.edges(A)[0]}),
                 Memoryless({B: arena.edges(B)[0]}, player=2), 0)
    assert empty.final_tp == 0 and type(empty.final_tp) is int


def test_a_branch_that_never_fires_names_the_depth_cap_it_exhausts():
    arena = ArenaExplicit({A: 1}, [make_edge(A, -2, A)], A)
    sigma = Memoryless({A: arena.edges(A)[0]})
    capped = koenig_bound(arena, A, sigma, OpenSub("tp-sup", m=1), 10)
    assert isinstance(capped, Inconclusive)
    assert capped.reason == "depth cap 10 exhausted with 1 unsatisfied branch"
    check = KoenigBound(1, OpenSub("tp-sup", m=1)).check({"arena": arena, "v0": A, "sigma1": sigma})
    assert check.diagnostics == [
        "bound did not reproduce: depth cap 1 exhausted with 1 unsatisfied branch"]


def test_play_stops_at_sink():
    arena = branch_arena()
    p2 = Memoryless({B: E(B, 0, A)}, player=2)
    record = play(arena, A, P1_SINK, p2, 50)
    assert record.termination == "sink"
    assert record.final_tp == F(-2)
    assert len(record.edges) == 1


def test_play_runs_on_through_a_weighted_self_loop():
    # only a weight-0 self-loop is a sink; a lone -2 loop is played to the horizon
    arena = ArenaExplicit({A: 1}, [make_edge(A, -2, A)], A)
    record = play(arena, A, Memoryless({A: arena.edges(A)[0]}),
                  Memoryless({}, player=2), 5)
    assert record.termination == "horizon"
    assert record.tp_trace == [-2, -4, -6, -8, -10]


def test_a_play_record_answers_where_the_play_is_and_what_each_player_remembers():
    entry = make("a4")
    # the opponent enters at once and drops at once (the first edge), counting steps mod 7
    counter = FiniteMemory(MealyMemory(range(7), 0, lambda m, e: (m + 1) % 7),
                           lambda ar, v, m: ar.edges(v)[0], player=2)
    record = play(entry.arena, entry.start, entry.strategy("delay_twice_exit"), counter, 60)
    steps = range(len(record.edges) + 1)
    for name in ("s", "t", "g", "r0"):
        at = record.steps_at(lambda v: v.name == name)
        assert at == [step for step in steps if record.vertex_at(step).name == name]
        assert at
    assert record.steps_at(lambda v: v == entry.start) == [0]
    assert record.mem1_trace != record.mem2_trace
    for player, trace in ((1, record.mem1_trace), (2, record.mem2_trace)):
        assert record.mem_at(player, 0) is None
        assert [record.mem_at(player, step) for step in steps[1:]] == trace


def test_play_rejects_non_edge():
    arena = branch_arena()
    bad = Memoryless({A: E(A, 7, B)})
    p2 = Memoryless({B: E(B, 0, A)}, player=2)
    with pytest.raises(ValueError):
        play(arena, A, bad, p2, 3)


def test_a_long_generator_play_keeps_a_bounded_row_store(monkeypatch):
    def a4_play():
        entry = make("a4")
        return entry.arena, play(entry.arena, entry.start, entry.strategy("always_delay"),
                                 entry.strategy("p2_enter_1"), 5000)

    arena, record = a4_play()
    assert len(record.edges) == 5000 and record.termination == "horizon"
    assert len(arena._cache) <= ROW_STORE_BOUND
    # the reference: every row of the play, stored once and never evicted
    monkeypatch.setattr("qgames.arena.ROW_STORE_BOUND", 10**6)
    whole, _ = a4_play()
    assert len(whole._cache) == 5001
    # at a bound of 2 the store is emptied every other row: the play writes
    # the same CSV, and every row, read again after its eviction, is built
    # equal to the reference
    monkeypatch.setattr("qgames.arena.ROW_STORE_BOUND", 2)
    small, again = a4_play()
    assert again.to_csv() == record.to_csv()
    for v, row in whole._cache.items():
        assert small.row(v) == row
    assert len(small._cache) <= 2


def test_explore_consistent_widths():
    arena = branch_arena()
    tree = explore_consistent(arena, A, P1_UP, 4)
    # P2's two replies at b double the branch count every other level
    assert tree.level_widths == [1, 1, 2, 2, 4]
    assert tree.complete


def grow_arena():
    # P1 gains 1, P2 replies 0 or 1: the total payoff can only grow
    return ArenaExplicit(
        {A: 1, B: 2},
        [E(A, 1, B), E(B, 0, A), E(B, 1, A)], A)


def test_koenig_bound_tp_inf():
    arena = grow_arena()
    one = Memoryless({A: E(A, 1, B)})
    res = koenig_bound(arena, A, one, OpenSub("tp-inf", m=1, i=1), 10)
    assert isinstance(res, KoenigBound)
    assert res.level == 1
    # against the worst reply 0, TP reaches 2 at step 3
    res2 = koenig_bound(arena, A, one, OpenSub("tp-inf", m=2, i=1), 10)
    assert isinstance(res2, KoenigBound)
    assert res2.level == 3


def test_koenig_bound_runs_a_capped_branch_to_the_depth_cap():
    arena = branch_arena()
    # P2 replying -1 forever keeps TP at most 1, so TP >= 2 never fires
    res = koenig_bound(arena, A, P1_UP, OpenSub("tp-inf", m=2, i=1), 30)
    assert isinstance(res, Inconclusive)
    assert res.reason == "depth cap 30 exhausted with 1 unsatisfied branch"


def test_koenig_bound_inconclusive_on_depth():
    arena = grow_arena()
    one = Memoryless({A: E(A, 1, B)})
    res = koenig_bound(arena, A, one, OpenSub("tp-inf", m=50, i=1), 6)
    assert isinstance(res, Inconclusive)


def test_koenig_bound_caps_a_cycle_below_the_bar_and_bounds_one_touching_it():
    # P1 memoryless into a cycle whose running totals stay below the bar
    arena = ArenaExplicit(
        {A: 1, B: 2},
        [E(A, -1, B), E(B, 0, A), E(B, 1, A)], A)
    down = Memoryless({A: E(A, -1, B)})
    res = koenig_bound(arena, A, down, OpenSub("tp-inf", m=1, i=1), 30)
    assert isinstance(res, Inconclusive)
    assert res.reason == "depth cap 30 exhausted with 1 unsatisfied branch"
    # but a zero cycle touching the bar is bounded for tp-sup: the step
    # index alone delays satisfaction
    up = ArenaExplicit(
        {A: 1, B: 2},
        [E(A, 1, B), E(B, -1, A), E(B, 0, B)], A)
    sigma = Memoryless({A: E(A, 1, B)})
    res2 = koenig_bound(arena=up, v0=A, sigma=sigma,
                        open_sub=OpenSub("tp-sup", m=3), max_depth=10)
    assert isinstance(res2, KoenigBound)


def _lap_arena():
    # the opponent at a goes to d through b (weight 0) or c (weight -1);
    # player 1 at d goes back to a (a choice, as d also reaches the sink e)
    d, e = V("d"), V("e")
    arena = ArenaExplicit({A: 2, B: 2, C: 2, d: 1, e: 1},
                          [E(A, 0, B), E(A, -1, C), E(B, 0, d), E(C, 0, d),
                           E(d, 0, A), E(d, 0, e), E(e, 0, e)], A)
    return arena, d


def _back_to_a(arena, d, states, update):
    """A finite-memory player 1 whose table sends d back to a in every state."""
    return FiniteMemory(MealyMemory(states, 0, update),
                        {(d, m): arena.edges(d)[0] for m in states})


def test_a_koenig_walk_over_a_finite_memory_strategy_merges_on_vertex_and_memory_state():
    arena, d = _lap_arena()
    never = OpenSub("tp-inf", m=1, i=1)  # no total here reaches 1
    one = _back_to_a(arena, d, (0,), lambda m, e: 0)
    # which branch was taken last: the two histories at d differ in memory
    branch = _back_to_a(arena, d, (0, 1),
                        lambda m, e: int(e.dst == C) if e.src == A else m)
    def widths(sigma):
        return [len(layer) for layer in koenig_layers(arena, A, sigma, 6, never)]

    assert widths(one) == [1, 2, 1, 1, 2, 1, 1]
    # the histories at d stay apart; at b or c the branch just taken sets the state
    assert widths(branch) == [1, 2, 2, 2, 2, 2, 2]
    # a general strategy folding the same update merges on its state alike
    general = Strategy("branch", 0, branch.mealy.update, branch.choose)
    assert widths(general) == [1, 2, 2, 2, 2, 2, 2]
    # the merged history at d keeps the lower total, through c
    layers = list(koenig_layers(arena, A, one, 2, never))
    assert [(node.vertex, node.tp) for node in layers[2]] == [(d, -1)]


def test_a_finite_memory_walk_that_never_fires_names_its_branches_at_the_depth_cap():
    arena, d = _lap_arena()
    never = OpenSub("tp-inf", m=1, i=1)
    one = _back_to_a(arena, d, (0,), lambda m, e: 0)
    capped = koenig_bound(arena, A, one, never, 10)
    assert isinstance(capped, Inconclusive)
    assert capped.reason == "depth cap 10 exhausted with 2 unsatisfied branches"
    # a memory that flips on every lap
    laps = _back_to_a(arena, d, (0, 1), lambda m, e: 1 - m if e.src == d else m)
    capped = koenig_bound(arena, A, laps, never, 5)
    assert isinstance(capped, Inconclusive)
    assert capped.reason == "depth cap 5 exhausted with 1 unsatisfied branch"
    capped = koenig_bound(arena, A, laps, never, 10)
    assert isinstance(capped, Inconclusive)
    assert capped.reason == "depth cap 10 exhausted with 2 unsatisfied branches"


def _debt_then_loop():
    """The opponent's one edge of weight -1/2 from b to a, then a one-state
    finite-memory player 1 looping at a with weight 0 (a also reaches the
    sink s): every running total is -1/2."""
    arena = ArenaExplicit({B: 2, A: 1, S: 1},
                          [E(B, F(-1, 2), A), E(A, 0, A), E(A, -1, S), E(S, 0, S)], B)
    return arena, FiniteMemory(MealyMemory((0,), 0, lambda m, e: 0), {(A, 0): E(A, 0, A)})


def test_a_loop_below_the_threshold_bar_runs_to_the_depth_cap_and_one_at_it_is_bounded():
    # the totals -1/2 stay in [-1/m, r - 1/m) at m = 2 and r = 1: capped at
    # r = 1, while at r = 0 the bar -1/2 is reached, so the bound is the step index
    arena, sigma = _debt_then_loop()
    assert koenig_bound(arena, B, sigma, OpenSub("tp-sup", m=2), 10) \
        == KoenigBound(2, OpenSub("tp-sup", m=2))
    capped = koenig_bound(arena, B, sigma, OpenSub("tp-sup", m=2, threshold=1), 10)
    assert isinstance(capped, Inconclusive)
    assert capped.reason == "depth cap 10 exhausted with 1 unsatisfied branch"


def test_a_koenig_bound_written_without_a_threshold_reads_as_threshold_0_and_rechecks():
    text = ('{"schema": "qg-cert/1", "variant": "KoenigBound", "body": {"level": 2, '
            '"open_sub": {"colour": null, "family": "tp-sup", "i": 1, "m": 2}}}')
    cert = certificate_from_json(text)
    assert cert == KoenigBound(2, OpenSub("tp-sup", m=2)) and cert.open_sub.threshold == 0
    arena, sigma = _debt_then_loop()
    assert check_certificate(cert, {"arena": arena, "v0": B, "sigma1": sigma}).ok


def test_a_nonzero_threshold_round_trips_through_a_certificate():
    cert = KoenigBound(3, OpenSub("tp-sup", m=2, threshold=F(-3, 2)))
    text = certificate_to_json(cert)
    assert json.loads(text)["body"]["open_sub"]["threshold"] == "-3/2"
    assert certificate_from_json(text) == cert


def test_certificate_json_roundtrip_all_variants():
    certs = [
        SinkPayoff(F(-2), S, 1),
        EarlyExitNegative(F(-1), F(0), 9),
        KoenigBound(3, OpenSub("tp-sup", m=2)),
        KoenigBound(2, OpenSub("buchi", colour=F(1), i=2)),
        LevelSatisfaction([(1, 1), (2, 4)]),
        Divergence("decrease", [0, 2, 4], 6, decrease=F(1), elevation=F(1),
                   ceiling=F(0), cycle_from=0, round_states=["x", "x", "x"]),
        Divergence("stagnation", [0, 3], 6, ceiling=F(-1)),
        ColourStarvation(F(1), 4, 60),
    ]
    for cert in certs:
        again = certificate_from_json(certificate_to_json(cert))
        assert again == cert


CERTIFICATES = Path(__file__).parent / "data" / "certificates"


@pytest.mark.parametrize("name,cert", [
    ("sink_payoff", SinkPayoff(F(-2), S, 1)),
    ("early_exit_negative", EarlyExitNegative(F(-1), F(0), 9)),
    ("koenig_bound_tp_sup", KoenigBound(3, OpenSub("tp-sup", m=2))),
    ("koenig_bound_buchi", KoenigBound(2, OpenSub("buchi", colour=F(1), i=2))),
    ("level_satisfaction", LevelSatisfaction([(1, 1), (2, 4)])),
    ("divergence_decrease", Divergence("decrease", [0, 2, 4], 6, decrease=F(1), elevation=F(1),
                                       ceiling=F(0), cycle_from=0, round_states=["x", "x", "x"])),
    ("divergence_stagnation", Divergence("stagnation", [0, 3], 6, ceiling=F(-1))),
    ("colour_starvation", ColourStarvation(F(1), 4, 60)),
])
def test_every_certificate_variant_writes_its_pinned_json_text(name, cert):
    """The text pins each variant's field names, value types and defaults
    as written; it reads back as an equal certificate of the same variant."""
    text = (CERTIFICATES / (name + ".json")).read_text()
    assert certificate_to_json(cert) == text
    again = certificate_from_json(text)
    assert type(again) is type(cert) and again == cert


@pytest.mark.parametrize("build,field", [
    (lambda: ValidationReport(), "violations"),
    (lambda: CheckResult(True), "diagnostics"),
    (lambda: Divergence("stagnation", [0, 3], 6, ceiling=F(-1)), "round_states"),
    (lambda: ZooEntry(None, ""), "params"),
    (lambda: ZooEntry(None, ""), "strategies"),
    (lambda: ZooEntry(None, ""), "strategy_factories"),
    (lambda: ZooEntry(None, ""), "extras"),
])
def test_a_record_field_left_out_is_a_fresh_empty_list_or_dict(build, field):
    first, second = getattr(build(), field), getattr(build(), field)
    assert first == second and not first and first is not second


def test_certificate_json_writes_int_values_as_strings_and_reads_them_back_equal():
    cert = EarlyExitNegative(-5, 0, 9)
    text = certificate_to_json(cert)
    assert json.loads(text)["body"] == {"final_tp": "-5", "threshold": "0", "steps": 9}
    assert text == certificate_to_json(EarlyExitNegative(F(-5), F(0), 9))
    assert certificate_from_json(text) == cert
    buchi = KoenigBound(2, OpenSub("buchi", colour=1, i=2))
    assert json.loads(certificate_to_json(buchi))["body"]["open_sub"]["colour"] == "1"
    again = certificate_from_json(certificate_to_json(buchi))
    assert again == buchi and type(again.open_sub.colour) is int


def test_sink_payoff_names_a_final_vertex_that_is_not_a_sink():
    t = V("t", (5,))
    arena = ArenaExplicit({t: 1}, [E(t, 1, t)], t)
    record = PlayRecord(t, [], [], [], [], "sink")
    check = SinkPayoff(F(0), t, 0).check_record(arena, record, CheckResult(True))
    assert not check.ok
    assert check.diagnostics == ["t(5) is not an absorbing weight-0 self-loop"]


def test_certificate_json_rejects_unknown_schema():
    with pytest.raises(ValueError):
        certificate_from_json('{"schema": "other/9", "variant": "SinkPayoff", "body": {}}')


def test_a_play_whose_last_step_lands_on_a_sink_ends_on_the_sink():
    p2 = Memoryless({B: E(B, 0, A)}, player=2)
    for horizon in (1, 2):
        record = play(branch_arena(), A, P1_SINK, p2, horizon)
        assert record.edges == [E(A, -2, S)]
        assert record.termination == "sink"


@pytest.mark.parametrize("cert, needed", [
    (SinkPayoff(F(-2), S, 1), "the player-1 strategy (sigma1) and the opponent strategy (sigma2)"),
    (EarlyExitNegative(F(-1), F(0), 9),
     "the player-1 strategy (sigma1) and the opponent strategy (sigma2)"),
    (Divergence("stagnation", [0, 3], 6, ceiling=F(-1)),
     "the player-1 strategy (sigma1) and the opponent strategy (sigma2)"),
    (ColourStarvation(F(1), 4, 60),
     "the player-1 strategy (sigma1) and the opponent strategy (sigma2)"),
    (KoenigBound(3, OpenSub("tp-sup", m=2)), "the player-1 strategy (sigma1)"),
    (LevelSatisfaction([(1, 1)]),
     "the player-1 strategy (sigma1) and the open sub-objectives (subs)"),
], ids=["sink", "early-exit", "divergence", "starvation", "koenig", "levels"])
def test_each_certificate_names_what_its_check_needs(cert, needed):
    message = "%s certificate needs %s" % (type(cert).__name__, needed)
    assert missing_context(cert, {}) == message
    with pytest.raises(ValueError) as raised:
        check_certificate(cert, {"arena": branch_arena(), "v0": A})
    assert str(raised.value) == message


def test_a_non_certificate_fails_the_check():
    check = check_certificate("nonsense", {})
    assert not check.ok
    assert check.diagnostics == ["unknown certificate 'nonsense'"]


def test_check_sink_payoff_and_tamper():
    arena = branch_arena()
    p2 = Memoryless({B: E(B, 0, A)}, player=2)
    cert = SinkPayoff(F(-2), S, 1)
    ctx = {"arena": arena, "v0": A, "sigma1": P1_SINK, "sigma2": p2}
    assert check_certificate(cert, ctx).ok
    assert not check_certificate(SinkPayoff(F(-1), S, 1), ctx).ok
    assert not check_certificate(SinkPayoff(F(-2), B, 1), ctx).ok


def test_check_divergence_decrease_with_ceiling():
    # P1 forced single edges: rounds a -> b -> a lose 1 and spike to +1
    arena = ArenaExplicit(
        {A: 1, B: 1},
        [E(A, 1, B), E(B, -2, A)], A)
    one = Memoryless(lambda ar, v: ar.edges(v)[0])
    p2 = Memoryless(lambda ar, v: ar.edges(v)[0], player=2)
    cert = Divergence("decrease", [0, 2, 4, 6], 8, decrease=F(1),
                      elevation=F(1), ceiling=F(1), cycle_from=0)
    ctx = {"arena": arena, "v0": A, "sigma1": one, "sigma2": p2}
    assert check_certificate(cert, ctx).ok
    # an absolute ceiling below the observed spike is refuted
    low = Divergence("decrease", [0, 2, 4, 6], 8, decrease=F(1),
                     elevation=F(1), ceiling=F(0), cycle_from=0)
    assert not check_certificate(low, ctx).ok
    # claiming a larger per-round decrease than observed is refuted
    greedy = Divergence("decrease", [0, 2, 4, 6], 8, decrease=F(2),
                        elevation=F(1), ceiling=F(1), cycle_from=0)
    assert not check_certificate(greedy, ctx).ok


def test_check_divergence_stagnation():
    arena = ArenaExplicit(
        {A: 1, B: 1},
        [E(A, -1, B), E(B, 0, A)], A)
    one = Memoryless(lambda ar, v: ar.edges(v)[0])
    p2 = Memoryless(lambda ar, v: ar.edges(v)[0], player=2)
    ctx = {"arena": arena, "v0": A, "sigma1": one, "sigma2": p2}
    cert = Divergence("stagnation", [2, 4, 6], 8, ceiling=F(-1))
    assert check_certificate(cert, ctx).ok
    # a non-negative ceiling is rejected outright
    bad = Divergence("stagnation", [2, 4, 6], 8, ceiling=F(0))
    assert not check_certificate(bad, ctx).ok


def test_check_colour_starvation():
    arena = ArenaExplicit(
        {A: 1, B: 1},
        [E(A, 1, B), E(B, 0, A)], A)
    one = Memoryless(lambda ar, v: ar.edges(v)[0])
    p2 = Memoryless(lambda ar, v: ar.edges(v)[0], player=2)
    ctx = {"arena": arena, "v0": A, "sigma1": one, "sigma2": p2}
    # colour 2 never occurs at all
    assert check_certificate(ColourStarvation(F(2), 0, 20), ctx).ok
    # colour 1 keeps occurring, so the claim is refuted
    assert not check_certificate(ColourStarvation(F(1), 2, 20), ctx).ok


def test_check_colour_starvation_closes_a_sink_on_its_weight_0_self_loop():
    # A reaches the sink S at step 1, and the infinite play then takes S's
    # self-loop forever: colour 0 recurs, colour 1 does not
    arena = ArenaExplicit({A: 1, S: 1}, [E(A, 1, S), E(S, 0, S)], A)
    first = Memoryless(lambda ar, v: ar.edges(v)[0])
    ctx = {"arena": arena, "v0": A, "sigma1": first,
           "sigma2": Memoryless(lambda ar, v: ar.edges(v)[0], player=2)}
    check = check_certificate(ColourStarvation(F(0), 1, 5), ctx)
    assert check == (False, ["colour 0 occurs again at step 1"])
    check = check_certificate(ColourStarvation(F(1), 1, 5), ctx)
    assert check == (True, ["colour 1 absent after step 1; the lasso closes at step 2, "
                            "repeating steps 1 to 2 forever"])


def test_check_koenig_bound_reproduces():
    arena = grow_arena()
    one = Memoryless({A: E(A, 1, B)})
    sub = OpenSub("tp-inf", m=2, i=1)
    cert = koenig_bound(arena, A, one, sub, 10)
    assert isinstance(cert, KoenigBound)
    ctx = {"arena": arena, "v0": A, "sigma1": one}
    assert check_certificate(cert, ctx).ok
    tampered = KoenigBound(cert.level - 1, sub)
    assert not check_certificate(tampered, ctx).ok


def test_check_level_satisfaction():
    arena = grow_arena()
    one = Memoryless({A: E(A, 1, B)})
    ctx = {"arena": arena, "v0": A, "sigma1": one,
           "subs": lambda m: OpenSub("tp-inf", m=m, i=1)}
    good = LevelSatisfaction([(1, 1), (2, 3)])
    assert check_certificate(good, ctx).ok
    bad = LevelSatisfaction([(2, 2)])
    assert not check_certificate(bad, ctx).ok
    # a schedule claiming nothing certifies nothing
    assert check_certificate(LevelSatisfaction([]), ctx) == (False, ["no level claimed"])


def test_level_satisfaction_asks_only_what_walks_from_the_root_ask():
    # a loops at 0 or leaves for b at -1, and b returns; each level's walk
    # from the root ends by step 2, its one branch satisfied, so the table
    # needs cells at steps 0 and 1 only, and the one walk the levels share
    # must not ask for more; nor is the sub-objective of a level past a
    # refuted one asked for, though there is none of m = 0
    arena = ArenaExplicit({A: 1, B: 2}, [E(A, -1, B), E(A, 0, A), E(B, 0, A)], A)
    table = StepCounterTable({(A, 0, 0): E(A, 0, A), (A, 1, 0): E(A, 0, A)}, 2, "error")
    ctx = {"arena": arena, "v0": A, "sigma1": table,
           "subs": lambda m: OpenSub("tp-sup", m=m)}
    assert check_certificate(LevelSatisfaction([(1, 1), (2, 5)]), ctx) == (
        True, ["m=1 certified at level 1 <= 1", "m=2 certified at level 2 <= 5"])
    assert check_certificate(LevelSatisfaction([(2, 1), (0, 5)]), ctx) == (
        False, ["level (m=2, k=1) failed: depth cap 1 exhausted with 1 unsatisfied branch"])


def test_plays_validate_linearly_many_history_edges(monkeypatch):
    # a play checks each history edge a bounded number of times, also with
    # a strategy deciding from the full history, and reads a bounded number
    # of arena rows per step
    validated = [0]
    rows = [0]
    post_init, extend, row = History.__post_init__, History.extend, Arena.row

    def counting_post_init(self):
        validated[0] += len(self.edges)
        post_init(self)

    def counting_extend(self, *edges):
        validated[0] += len(edges)
        return extend(self, *edges)

    monkeypatch.setattr(History, "__post_init__", counting_post_init)
    def counting_row(self, v):
        rows[0] += 1
        return row(self, v)

    monkeypatch.setattr(History, "extend", counting_extend)
    monkeypatch.setattr(Arena, "row", counting_row)
    entry = make("a4")
    first = scanning("first_edge", lambda ar, h: ar.edges(h.to_vertex)[0])
    for horizon in (1000, 2000):
        for p1 in (entry.strategy("sigma_100000"), first):
            validated[0] = rows[0] = 0
            record = play(entry.arena, entry.start, p1, entry.strategy("p2_enter_1"),
                          horizon)
            assert len(record.edges) == horizon
            assert validated[0] <= 2 * horizon
            # the play's row and the strategy's edge lookup per step, then
            # the sink test after the last step
            assert rows[0] <= 2 * horizon + 1
