from fractions import Fraction

import pytest

from qgames.arena import ArenaExplicit, Edge, History, MealyMemory, VertexId, product
from qgames.engine import play
from qgames.strategies import (ERROR, FIRST_EDGE, FiniteMemory, HorizonExceeded,
                               Memoryless, StepCounterTable, Strategy, parse_strategy,
                               serialize_strategy)

from oracles import StepCounter, collapse_sc_fm, consistent, encodes_step_count

F = Fraction
V = VertexId


def E(src, w, dst):
    return Edge(src, F(w), dst)


A, B, C = V("a"), V("b"), V("c")


def two_choice_arena():
    return ArenaExplicit(
        {A: 1, B: 2, C: 1},
        [E(A, 1, B), E(A, 0, C), E(B, -1, A), E(B, 0, A), E(C, 0, A)],
        A)


def test_memoryless_table_and_fallback():
    arena = two_choice_arena()
    sigma = Memoryless({A: E(A, 0, C)})
    assert sigma.choose(arena, A, None).dst == C
    # vertices missing from the table are an error, not a silent fallback
    with pytest.raises(KeyError) as exc:
        sigma.choose(arena, C, None)
    assert exc.value.args == ("memoryless table has no entry for c",)


def test_a_strategy_names_its_finite_memory():
    mealy = MealyMemory((0, 1), 0, lambda m, e: 1 - m)
    assert FiniteMemory(mealy, {}).mealy is mealy
    one = Memoryless({}).mealy
    assert (one.states, one.initial, one.update(None, E(A, 1, B))) == ((None,), None, None)
    for sigma in (StepCounterTable({}, 3), StepCounterTable({}, 3, k=2),
                  Strategy("t", 0, lambda n, e: n + 1, lambda ar, v, n: ar.edges(v)[0])):
        assert sigma.mealy is None


def test_collapse_names_a_vertex_missing_from_the_step_count_map():
    d = V("d", (2,))
    arena = ArenaExplicit({A: 1, d: 2}, [E(A, 0, d), E(d, 1, A)], A)
    sigma = StepCounterTable({(A, 0, 0): E(A, 0, d)}, 4, FIRST_EDGE, k=2)
    collapsed = collapse_sc_fm(arena, sigma, {A: 0})
    with pytest.raises(KeyError) as exc:
        collapsed.step_state(collapsed.initial, E(d, 1, A))
    assert exc.value.args == ("vertex d(2) missing from the step-count map",)


def test_finite_memory_threads_state():
    arena = two_choice_arena()
    mealy = MealyMemory((0, 1), 0, lambda m, e: 1 - m)
    sigma = FiniteMemory(mealy, lambda ar, v, m: ar.edges(v)[m % len(ar.edges(v))])
    state = sigma.initial
    first = sigma.choose(arena, A, state)
    state = sigma.step_state(state, first)
    assert state == 1
    assert sigma.choose(arena, A, state) != first


def test_step_counter_table_horizon_behaviour():
    arena = two_choice_arena()
    table = {(A, 0, 0): E(A, 0, C), (A, 2, 0): E(A, 1, B)}
    sigma = StepCounterTable(table, horizon=3, fallback=FIRST_EDGE)
    assert sigma.choose(arena, A, (0, 0)).dst == C
    assert sigma.choose(arena, A, (2, 0)).dst == B
    # past the horizon the fallback takes over
    assert sigma.choose(arena, A, (9, 0)) == arena.edges(A)[0]
    strict = StepCounterTable(table, horizon=3, fallback=ERROR)
    with pytest.raises(HorizonExceeded):
        strict.choose(arena, A, (9, 0))


def test_step_counter_plus_k_bit_update():
    arena = two_choice_arena()
    flip = E(A, 1, B)
    table = {(A, 0, 0): E(A, 0, C), (A, 0, 1): flip}
    bitupd = {(0, 0, E(A, 0, C)): 1}
    sigma = StepCounterTable(table, 4, FIRST_EDGE, k=2, bit_update=bitupd)
    state = sigma.initial
    assert state == (0, 0)
    move = sigma.choose(arena, A, state)
    state = sigma.step_state(state, move)
    assert state == (1, 1)
    # missing bit-update entries keep the mode
    state = sigma.step_state(state, E(C, 0, A))
    assert state == (2, 1)


@pytest.mark.parametrize("horizon", [0, 2])
def test_a_table_with_a_tail_plays_its_rows_then_the_tail_from_its_initial_state(horizon):
    arena = two_choice_arena()
    # the tail counts the edges it has folded and switches its move every
    # second choice, so a tail that shared the table's steps would differ
    tail = Strategy("switch", 0, lambda n, e: n + 1, lambda ar, v, n: ar.edges(v)[n // 2 % 2])
    p2 = Memoryless({B: E(B, -1, A)}, player=2)
    sigma = StepCounterTable({(A, 0, 0): E(A, 0, C)}, horizon, ERROR, tail=tail)
    edges = play(arena, A, sigma, p2, 12).edges
    assert edges[:horizon] == [E(A, 0, C), E(C, 0, A)][:horizon]
    assert edges[horizon:] == play(arena, A, tail, p2, 12 - horizon).edges
    assert sigma.initial == ((tail, 0) if horizon == 0 else (0, 0))


def test_a_table_with_a_tail_traces_no_state_and_has_no_file_form():
    tail = Memoryless({}, name="witness")
    assert StepCounterTable({}, 3, k=2).traces_state
    sigma = StepCounterTable({}, 3, k=2, name="composite", tail=tail)
    assert not sigma.traces_state
    # written without its tail, the file would play fallback=first from step 3
    with pytest.raises(ValueError) as exc:
        serialize_strategy(sigma)
    assert exc.value.args == ("strategy composite has a tail, which has no file form",)


def test_consistent_accepts_own_play_and_rejects_deviation():
    arena = two_choice_arena()
    sigma = Memoryless({A: E(A, 1, B)})
    p2 = Memoryless({B: E(B, -1, A)}, player=2)
    record = play(arena, A, sigma, p2, 6)
    assert consistent(arena, sigma, record.history())
    deviant = History(A, (E(A, 0, C),))
    assert not consistent(arena, sigma, deviant)


def _sc_encoding_arena():
    # strict alternation a -> b -> a encodes the step count mod nothing:
    # use the step-counter product to make lengths unique
    base = ArenaExplicit({A: 1, B: 2},
                         [E(A, 1, B), E(B, -1, A), E(B, 0, A)], A)
    return product(base, StepCounter())


def test_collapse_sc_to_memoryless_is_faithful():
    arena = _sc_encoding_arena()
    start = arena.start
    res = encodes_step_count(arena, start, 12)
    assert res.counterexample is None
    levels = res.levels

    table = {}
    for v, n in levels.items():
        if arena.owner(v) == 1:
            table[(v, n, 0)] = arena.edges(v)[n % len(arena.edges(v))]
    sigma = StepCounterTable(table, 12, FIRST_EDGE)
    collapsed = collapse_sc_fm(arena, sigma, levels)
    assert isinstance(collapsed, Memoryless)
    p2 = Memoryless(lambda ar, v: ar.edges(v)[-1], player=2)
    r1 = play(arena, start, sigma, p2, 10)
    r2 = play(arena, start, collapsed, p2, 10)
    assert r1.edges == r2.edges


def test_collapse_sc_plus_k_is_faithful():
    arena = _sc_encoding_arena()
    start = arena.start
    levels = encodes_step_count(arena, start, 12).levels

    table = {}
    bitupd = {}
    for v, n in levels.items():
        es = arena.edges(v)
        if arena.owner(v) == 1:
            table[(v, n, 0)] = es[0]
            table[(v, n, 1)] = es[-1]
        for e in es:
            bitupd[(n, 0, e)] = 1 if e.weight < 0 else 0
            bitupd[(n, 1, e)] = 1
    sigma = StepCounterTable(table, 12, FIRST_EDGE, k=2, bit_update=bitupd)
    collapsed = collapse_sc_fm(arena, sigma, levels)
    assert isinstance(collapsed, FiniteMemory)
    p2 = Memoryless(lambda ar, v: ar.edges(v)[0], player=2)
    r1 = play(arena, start, sigma, p2, 10)
    r2 = play(arena, start, collapsed, p2, 10)
    assert r1.edges == r2.edges


def test_a_collapsed_two_mode_table_chooses_from_its_fm_table_as_the_table_does():
    # player 1 chooses at a between weights 0 and 1; the mode is the
    # opponent's last move at b, so both modes pick at a
    base = ArenaExplicit({A: 1, B: 2}, [E(A, 0, B), E(A, 1, B), E(B, -1, A), E(B, 0, A)], A)
    arena = product(base, StepCounter())
    levels = encodes_step_count(arena, arena.start, 12).levels
    table, bitupd = {}, {}
    for v, n in levels.items():
        es = arena.edges(v)
        if arena.owner(v) == 1:
            table[(v, n, 0)], table[(v, n, 1)] = es[-1], es[0]
        else:
            for mode in (0, 1):
                bitupd[(n, mode, es[0])], bitupd[(n, mode, es[1])] = 1, 0
    sigma = StepCounterTable(table, 12, FIRST_EDGE, k=2, bit_update=bitupd)
    collapsed = collapse_sc_fm(arena, sigma, levels)
    assert isinstance(collapsed, FiniteMemory) and isinstance(collapsed.table, dict)
    p2 = Memoryless(lambda ar, v: ar.edges(v)[v.params[-1] // 2 % 2], player=2)
    r1 = play(arena, arena.start, sigma, p2, 10)
    r2 = play(arena, arena.start, collapsed, p2, 10)
    assert r1.edges == r2.edges
    assert {e.weight for e in r2.edges if e.src.name == "a*"} == {0, 1}
    with pytest.raises(KeyError) as exc:
        collapsed.choose(arena, V("a*", (20,)), 0)
    assert exc.value.args == ("fm table has no entry for (a*(20), 0)",)


def test_collapse_rejects_other_kinds():
    arena = two_choice_arena()
    with pytest.raises(TypeError):
        collapse_sc_fm(arena, Memoryless({}), {})


def test_serialize_parse_memoryless_roundtrip():
    sigma = Memoryless({A: E(A, 1, B), C: E(C, 0, A)}, name="demo")
    text = serialize_strategy(sigma)
    back = parse_strategy(text)
    assert isinstance(back, Memoryless)
    assert back.table == sigma.table
    assert serialize_strategy(back) == text


def test_serialize_parse_sc_roundtrip():
    table = {(A, 0, 0): E(A, 0, C), (A, 2, 0): E(A, 1, B)}
    sigma = StepCounterTable(table, 5, FIRST_EDGE, name="sched")
    back = parse_strategy(serialize_strategy(sigma))
    assert isinstance(back, StepCounterTable)
    assert back.table == table and back.horizon == 5


def test_serialize_parse_sc_plus_k_roundtrip():
    table = {(A, 0, 0): E(A, 0, C), (A, 1, 1): E(A, 1, B)}
    bitupd = {(0, 0, E(A, 0, C)): 1, (1, 1, E(A, 1, B)): 0}
    sigma = StepCounterTable(table, 4, FIRST_EDGE, k=2, bit_update=bitupd, name="bit")
    text = serialize_strategy(sigma)
    back = parse_strategy(text)
    assert isinstance(back, StepCounterTable) and back.k == 2
    assert back.table == table
    assert back.bit_update == bitupd
    assert serialize_strategy(back) == text


def test_a_one_mode_sc_k_file_is_a_kind_sc_table():
    rows = "move a step=0 -> c weight=0\nmove a step=2 -> b weight=1\n"
    sc = parse_strategy("strategy s kind=sc horizon=3 fallback=error\n" + rows)
    one = parse_strategy("strategy s kind=sc+k states=1 horizon=3 fallback=error\n"
                         + rows.replace("step=", "state=0 step=")
                         + "bitupd state=0 step=0 edge=a->c weight=0 -> 0\n")
    for sigma in (sc, one):
        assert isinstance(sigma, StepCounterTable) and sigma.k == 1
        assert sigma.table == {(A, 0, 0): E(A, 0, C), (A, 2, 0): E(A, 1, B)}
        assert (sigma.horizon, sigma.fallback, sigma.traces_state) == (3, ERROR, False)
    assert serialize_strategy(one) == serialize_strategy(sc) == (
        "strategy s kind=sc horizon=3 fallback=error player=1\n" + rows)
    assert parse_strategy(serialize_strategy(StepCounterTable({}, 1, k=2))).traces_state


def test_fm_files_are_rejected():
    # no fm file is written, and a hand-written one is not read
    mealy = MealyMemory((0,), 0, lambda m, e: 0)
    sigma = FiniteMemory(mealy, {(A, 0): E(A, 1, B)})
    with pytest.raises(ValueError, match="strategy kind FiniteMemory is not serializable"):
        serialize_strategy(sigma)
    with pytest.raises(ValueError, match="fm strategy files are not supported"):
        parse_strategy("strategy fm kind=fm states=1 player=1\nmove a state=0 -> b weight=1\n")


def test_parse_strategy_error_reporting():
    with pytest.raises(ValueError, match="missing 'strategy' header"):
        parse_strategy("move a -> b weight=1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_strategy("strategy x kind=memoryless\nnonsense here\n")
