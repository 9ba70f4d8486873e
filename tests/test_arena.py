import random
from fractions import Fraction

import pytest

from qgames.arena import (Arena, ArenaExplicit, Edge, History, Inconclusive, LetterMemory,
                          MealyMemory, VertexId, _new_edge, _new_vertex, exact, make_edge,
                          node_cap_from_env, product, reach, validate)
from qgames.engine import SinkPayoff, certificate_to_json
from qgames.zoo import make

from oracles import StepCounter, encodes_step_count

V = VertexId
F = Fraction


def E(src, w, dst):
    return Edge(src, F(w), dst)


def chain_arena():
    a, b, c = V("a"), V("b"), V("c")
    return ArenaExplicit(
        {a: 1, b: 2, c: 1},
        [E(a, 1, b), E(b, -1, c), E(c, 0, c)],
        a, name="chain")


def test_vertex_id_parse_and_order():
    v = VertexId.parse("t(3,4)")
    assert v.name == "t" and v.params == (3, 4)
    assert str(v) == "t(3,4)"
    assert VertexId.parse(str(v)) == v
    assert V("a") < V("b")
    assert V("t", (1,)) < V("t", (2,))


@pytest.mark.parametrize("text, prints", [
    ("n(01)", "n(1)"), ("n(+1)", "n(1)"), ("n(1_0)", "n(10)"), ("n(\u0663)", "n(3)"),
    ("n(-0)", "n(0)"), ("n(1, 2)", "n(1,2)"), ("n()", "n"), (" n", "n"), ("n(1) ", "n(1)"),
])
def test_vertex_id_parse_refuses_a_text_its_vertex_does_not_print(text, prints):
    # two texts never read as one vertex
    with pytest.raises(ValueError) as exc:
        VertexId.parse(text)
    assert str(exc.value) == "vertex id %r must be written %s" % (text, prints)


def test_vertex_and_edge_are_immutable_values_hashed_as_their_field_tuples():
    v, w = V("r", (3,)), V("s")
    e = E(v, -1, w)
    assert (str(v), str(w), str(e)) == ("r(3)", "s", "r(3) --1-> s")
    assert repr(v) == "VertexId(name='r', params=(3,))"
    assert repr(e) == ("Edge(src=VertexId(name='r', params=(3,)), weight=Fraction(-1, 1), "
                       "dst=VertexId(name='s', params=()))")
    # name first, then parameters
    assert sorted([V("b"), V("a", (2,)), V("a", (1, 5)), V("a")]) == [
        V("a"), V("a", (1, 5)), V("a", (2,)), V("b")]
    for obj, attr in ((v, "name"), (v, "params"), (e, "weight"), (e, "dst")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
    # the hash of the field tuple, as before: set and dict orders stay seed-stable
    assert hash(v) == hash(("r", (3,))) and hash(w) == hash(("s", ()))
    assert hash(e) == hash((v, F(-1), w))


def test_certificate_json_writes_a_sink_vertex_as_its_string():
    text = certificate_to_json(SinkPayoff(F(-2), V("r", (3,)), 4))
    assert '"sink": "r(3)"' in text


def test_edges_sorted_by_dst_then_weight():
    a, b, c = V("a"), V("b"), V("c")
    arena = ArenaExplicit(
        {a: 1, b: 1, c: 1},
        [E(a, 5, c), E(a, 2, b), E(a, 1, c), E(b, 0, b), E(c, 0, c)],
        a)
    assert [(e.dst, e.weight) for e in arena.edges(a)] == [
        (b, F(2)), (c, F(1)), (c, F(5))]


def test_history_contiguity_and_accessors():
    a, b, c = V("a"), V("b"), V("c")
    h = History(a, (E(a, 1, b), E(b, -2, c)))
    assert len(h) == 2
    assert h.to_vertex == c
    assert h.word == (F(1), F(-2))
    assert h.total() == F(-1)
    assert h.prefix(1).to_vertex == b
    assert h.suffix_from(1).origin == b
    with pytest.raises(ValueError):
        History(a, (E(b, 1, c),))


def test_history_extend_checks_only_the_new_edges():
    a, b, c = V("a"), V("b"), V("c")
    h = History(a).extend(E(a, 1, b)).extend(E(b, -2, c), E(c, 0, a))
    assert h == History(a, (E(a, 1, b), E(b, -2, c), E(c, 0, a)))
    assert h.prefix(2) == History(a, h.edges[:2])
    assert h.suffix_from(1) == History(b, h.edges[1:])
    with pytest.raises(ValueError):
        h.extend(E(b, 1, c))


def test_is_sink_absorbing_zero_loop():
    arena = chain_arena()
    assert arena.is_sink(V("c"))
    assert not arena.is_sink(V("a"))


def test_validate_reports_blocking_vertex():
    a, b = V("a"), V("b")
    arena = ArenaExplicit({a: 1, b: 2}, [E(a, 0, b)], a)
    report = validate(arena)
    assert not report.ok
    assert report.violations == ["blocking vertex b"]


def test_validate_generator_nondeterminism():
    rng = random.Random(7)
    a = V("a")

    def expand(v):
        w = F(rng.randint(0, 5))
        return 1, (Edge(v, w, a),)

    gen = Arena("flaky", a, expand)
    report = validate(gen, depth=4)
    assert not report.ok
    assert "nondeterministic expansion at a" in report.violations


def test_generator_blocks_on_empty_expansion():
    a, b = V("a"), V("b")

    def expand(v):
        if v == a:
            return 1, (E(a, 0, b),)
        return 2, ()

    gen = Arena("generator", a, expand)
    gen.edges(a)
    with pytest.raises(ValueError, match=r"^generator produced blocking vertex b$"):
        gen.edges(b)


def test_product_with_mealy_memory_stays_explicit():
    arena = chain_arena()
    mealy = MealyMemory((0, 1), 0, lambda m, e: 1 if e.weight < 0 else m)
    prod = product(arena, mealy)
    assert isinstance(prod, ArenaExplicit)
    start = prod.start
    assert start.name == "a*"
    # memory flips to 1 after the negative edge and never returns
    level0 = prod.edges(start)
    assert len(level0) == 1
    nxt = level0[0].dst
    assert nxt.params[-1] == 0
    after = prod.edges(nxt)[0].dst
    assert after.params[-1] == 1


def test_product_with_step_counter_encodes_steps():
    a, b = V("a"), V("b")
    base = ArenaExplicit({a: 1, b: 2},
                         [E(a, 1, b), E(b, -1, a), E(b, 0, a)], a)
    prod = product(base, StepCounter())
    res = encodes_step_count(prod, prod.start, 8)
    assert res.counterexample is None
    assert res.levels is not None


def test_encodes_step_count_counterexample():
    a, b, c = V("a"), V("b"), V("c")
    # two paths a->c of lengths 1 and 2
    arena = ArenaExplicit(
        {a: 1, b: 1, c: 1},
        [E(a, 0, b), E(a, 0, c), E(b, 0, c), E(c, 0, c)],
        a)
    res = encodes_step_count(arena, a, 6)
    assert res.levels is None
    h1, h2 = res.counterexample
    assert h1.to_vertex == h2.to_vertex == c
    assert len(h1) != len(h2)


def test_reach_maps_each_vertex_to_its_distance_in_the_order_first_reached():
    a, b, c, d = V("a"), V("b"), V("c"), V("d")
    arena = ArenaExplicit({a: 1, b: 1, c: 1, d: 1},
                          [E(a, 0, c), E(a, 0, b), E(b, 0, d), E(c, 0, a), E(d, 0, d)], a)
    assert list(reach(arena, a, 2).items()) == [(a, 0), (b, 1), (c, 1), (d, 2)]
    assert list(reach(arena, a, 1).items()) == [(a, 0), (b, 1), (c, 1)]
    assert reach(arena, a, 0) == {a: 0}


def _history_lengths(arena, v0, depth):
    """Vertex -> the lengths up to ``depth`` of the histories from v0 to
    it, by brute force over every length."""
    lengths = {}
    at = {v0}
    for n in range(depth + 1):
        for v in at:
            lengths.setdefault(v, set()).add(n)
        at = {e.dst for v in at for e in arena.edges(v)}
    return lengths


def _layered_arena(rng):
    # most edges go to the next layer, so some arenas encode the step count
    # up to a small depth and the others break it at varied depths
    layers = [[V("l", (i, j)) for j in range(rng.randint(1, 3))]
              for i in range(rng.randint(1, 5))]
    vs = [v for layer in layers for v in layer]
    edges = [E(v, rng.randint(-2, 2),
               rng.choice(layers[(i + 1) % len(layers)] if rng.random() < 0.8 else vs))
             for i, layer in enumerate(layers) for v in layer for _ in range(rng.randint(1, 3))]
    return ArenaExplicit({v: rng.choice((1, 2)) for v in vs}, edges, layers[0][0])


def test_encodes_step_count_matches_history_lengths_by_brute_force():
    rng = random.Random(26)
    seen = set()
    for _ in range(400):
        base = _layered_arena(rng)
        depth = rng.randint(0, 8)
        for arena in (base, product(base, StepCounter())):
            lengths = _history_lengths(arena, arena.start, depth)
            res = encodes_step_count(arena, arena.start, depth)
            seen.add((arena is base, res.counterexample is None))
            if all(len(ns) == 1 for ns in lengths.values()):
                assert res.counterexample is None
                assert res.levels == {v: min(ns) for v, ns in lengths.items()}
                assert res.frontier == tuple(sorted(v for v, ns in lengths.items()
                                                    if ns == {depth}))
                continue
            assert res.levels is None and res.frontier == ()
            h1, h2 = res.counterexample
            for h in (h1, h2):
                at = arena.start
                for e in h.edges:
                    assert e in arena.edges(at)
                    at = e.dst
                assert at == h.to_vertex
                assert len(h) in lengths[at]
            assert h1.to_vertex == h2.to_vertex and len(h1) != len(h2)
    # explicit arenas both encode the step count and break it; products encode it
    assert seen == {(True, True), (True, False), (False, True)}


def test_every_vertex_walk_stops_when_it_passes_the_vertex_cap(monkeypatch):
    monkeypatch.setattr("qgames.arena.DEFAULT_VERTEX_CAP", 500)
    entry = make("a4")
    # the step counter's product encodes the step count, so no conflict
    # stops its walk before the cap does
    counted = product(entry.arena, StepCounter())
    with pytest.raises(Inconclusive, match="^vertex cap 500 exceeded at distance 21$"):
        encodes_step_count(counted, counted.start, 400)
    assert len(counted._cache) <= 501
    # a4 itself answers at its first conflict, the depth-5 pair into r0,
    # long before the cap
    entry = make("a4")
    res = encodes_step_count(entry.arena, entry.start, 400)
    assert res.levels is None
    assert [(len(h), str(h.to_vertex)) for h in res.counterexample] == [(4, "r0"), (5, "r0")]
    assert len(entry.arena._cache) < 50
    # a cap is no verdict, so validate names it instead of a violation
    arena = make("a4").arena
    with pytest.raises(Inconclusive, match="^vertex cap 500 exceeded at distance 21$"):
        validate(arena, depth=400)
    assert len(arena._cache) <= 501
    owners = {V("v", (i,)): 1 for i in range(501)}
    with pytest.raises(Inconclusive, match="^vertex cap 500 exceeded by an arena of 501 vertices$"):
        ArenaExplicit(owners, [E(v, 0, v) for v in owners], V("v", (0,)))


def test_letter_memory_runs_equal_single_checked_steps():
    rng = random.Random(27)
    letters = [("a", w, "b") for w in (-1, 0, 1)] + [("b", 0, "a")]
    for _ in range(300):
        k = rng.randint(1, 4)
        table = {(m, a): rng.randrange(k) for m in range(k) for a in letters}
        calls = []

        def update(m, a):
            calls.append(m)
            return table[(m, a)]

        memory = LetterMemory(range(k), 0, update)
        for _ in range(5):
            state, letter, n = rng.randrange(k), rng.choice(letters), rng.randint(0, 60)
            want = state
            for _ in range(n):
                want = memory.step(want, letter)
            calls.clear()
            assert memory.run(state, letter, n) == want
            assert len(calls) <= min(n, k + 1)
        # update reads the edge's letter only
        src, w, dst = letter
        assert memory.update(state, Edge(V(src, (n,)), w, V(dst, (k, n)))) == \
            memory.step(state, letter)
    memory = LetterMemory((0, 1), 0, lambda m, a: m + 1)
    assert memory.run(0, ("a", 0, "b"), 1) == 1
    with pytest.raises(ValueError, match=r"^memory update left the state set: 2$"):
        memory.run(0, ("a", 0, "b"), 2)


def test_node_cap_env_override(monkeypatch):
    monkeypatch.setenv("QG_NODE_CAP", "123")
    assert node_cap_from_env() == 123
    monkeypatch.delenv("QG_NODE_CAP")
    assert node_cap_from_env(55) == 55


@pytest.mark.parametrize("value", ["lots", "0", "-5"])
def test_node_cap_env_rejects_a_value_below_one_or_not_a_number(monkeypatch, value):
    monkeypatch.setenv("QG_NODE_CAP", value)
    with pytest.raises(ValueError, match="^QG_NODE_CAP must be a positive integer$"):
        node_cap_from_env()


def test_make_edge_coerces_weight():
    # an int when integral, a Fraction only when the weight has a denominator
    for weight, want in ((3, 3), ("4/2", 2), (F(6, 3), 2), ("-5/6", F(-5, 6))):
        e = make_edge(V("a"), weight, V("b"))
        assert e.weight == want
        assert type(e.weight) is type(want)


@pytest.mark.parametrize("value, d, want", [
    (7, 1, 7), (-3, 1, -3), (F(6, 3), 1, 2), (F(-5, 6), 1, F(-5, 6)),
    ("-0", 1, 0), ("4/2", 1, 2), ("1.5", 1, F(3, 2)),
    (3, 2, F(3, 2)), (4, 2, 2), (F(1, 2), 3, F(1, 6)), (F(3, 2), 3, F(1, 2)),
])
def test_exact_is_an_int_when_integral_and_a_fraction_otherwise(value, d, want):
    got = exact(value, d)
    assert got == want and type(got) is type(want)
    assert str(got) == str(F(want))  # an integral Fraction prints as its int


def test_explicit_arena_names_an_undeclared_endpoint_or_start():
    a, b = V("a", (1,)), V("b", (2, 3))
    with pytest.raises(ValueError) as exc:
        ArenaExplicit({b: 1}, [E(a, 0, b)], b)
    assert str(exc.value) == "edge from undeclared vertex a(1)"
    with pytest.raises(ValueError) as exc:
        ArenaExplicit({a: 1}, [E(a, 0, b)], a)
    assert str(exc.value) == "edge to undeclared vertex b(2,3)"
    with pytest.raises(ValueError) as exc:
        ArenaExplicit({a: 1}, [E(a, 0, a)], b)
    assert str(exc.value) == "start vertex b(2,3) not declared"


def test_product_names_an_unreachable_vertex():
    prod = product(chain_arena(), StepCounter())
    with pytest.raises(ValueError) as exc:
        prod.edges(V("c*", (9,)))
    assert str(exc.value) == "unreachable product vertex c*(9)"


def test_validate_names_a_blocking_generator_vertex():
    stuck = Arena("generator", V("b", (7,)), lambda v: (2, ()))
    assert validate(stuck, depth=0).violations == ["blocking vertex b(7)"]


@pytest.mark.parametrize("state", [V("s"), E(V("s"), 1, V("t"))], ids=["vertex", "edge"])
def test_product_refuses_a_vertex_or_edge_memory_state_by_its_whole_value(state):
    mealy = MealyMemory((state,), state, lambda m, e: m)
    with pytest.raises(TypeError) as exc:
        product(chain_arena(), mealy)
    assert str(exc.value) == "cannot encode memory state %r into a product vertex" % (state,)


def test_product_appends_a_flat_tuple_state_to_the_vertex_parameters():
    # a (min(step, h), mode) memory: the step saturates at h = 2, the mode
    # flips on a negative edge
    states = tuple((step, mode) for step in range(3) for mode in (0, 1))
    mealy = MealyMemory(states, (0, 0), lambda m, e: (min(m[0] + 1, 2), m[1] ^ (e.weight < 0)))
    prod = product(chain_arena(), mealy)
    assert isinstance(prod, ArenaExplicit) and len(prod.vertices) == 3 * len(states)
    assert prod.start == V("a*", (0, 0))
    assert prod.edges(V("b*", (1, 0))) == (E(V("b*", (1, 0)), -1, V("c*", (2, 1))),)
    assert prod.edges(V("c*", (2, 1))) == (E(V("c*", (2, 1)), 0, V("c*", (2, 1))),)


def test_product_encodes_a_bool_state_as_an_int():
    mealy = MealyMemory((False, True), False, lambda m, e: m or e.weight < 0)
    prod = product(chain_arena(), mealy)
    assert len(prod.vertices) == 6
    assert prod.edges(V("b*", (0,))) == (E(V("b*", (0,)), -1, V("c*", (1,))),)
    assert prod.edges(V("a*", (1,))) == (E(V("a*", (1,)), 1, V("b*", (1,))),)


def test_product_refuses_two_memory_states_that_encode_alike():
    # both states flatten to the parameters (1, 2)
    a, b = V("a"), V("b")
    arena = ArenaExplicit({a: 1, b: 2}, [E(a, 0, b), E(b, 0, a)], a)
    mealy = MealyMemory((((1,), 2), (1, (2,))), ((1,), 2), lambda m, e: m)
    with pytest.raises(ValueError) as exc:
        product(arena, mealy)
    assert str(exc.value) == ("memory states ((1,), 2) at a and (1, (2,)) at a share "
                              "the product vertex a*(1,2)")
    # so do a state at a(1) and another at a(1,2)
    a1, a12 = V("a", (1,)), V("a", (1, 2))
    arena = ArenaExplicit({a1: 1, a12: 2}, [E(a1, 0, a12), E(a12, 0, a1)], a1)
    with pytest.raises(ValueError) as exc:
        product(arena, MealyMemory((2, ()), 2, lambda m, e: m))
    assert str(exc.value) == "memory states 2 at a(1) and () at a(1,2) share the product vertex a*(1,2)"


def _rows():
    """Rows of a small arena, each edge list out of (dst, weight) order."""
    a, b, c = V("a"), V("b", (1,)), V("c", (2, 3))
    return a, {a: (1, (E(a, 2, c), E(a, 0, b), E(a, -1, b))),
               b: (2, (E(b, 1, a), E(b, 0, c))),
               c: (1, (E(c, 0, c),))}


def test_explicit_and_generated_arenas_of_the_same_rows_read_alike():
    a, rows = _rows()
    explicit = ArenaExplicit({v: owner for v, (owner, _) in rows.items()},
                             [e for _, es in rows.values() for e in es], a)
    generated = Arena("generator", a, rows.__getitem__)
    assert explicit.start == generated.start == a
    for v, (owner, es) in rows.items():
        want = (owner, tuple(sorted(es, key=lambda e: (e.dst, e.weight))))
        assert explicit.row(v) == generated.row(v) == want
        assert explicit.owner(v) == generated.owner(v) == owner
        assert explicit.edges(v) == generated.edges(v) == want[1]
        assert explicit.is_sink(v) == generated.is_sink(v) == (v == V("c", (2, 3)))
    assert explicit._cache == generated._cache
    # one row store: neither kind reads a row, an owner, edges or a start its own way
    assert not {"row", "owner", "edges", "is_sink", "start"} & set(vars(ArenaExplicit))


@pytest.mark.parametrize("read", ["row", "owner", "edges"])
def test_both_kinds_raise_a_key_error_naming_an_undeclared_vertex(read):
    a, rows = _rows()
    explicit = ArenaExplicit({v: owner for v, (owner, _) in rows.items()},
                             [e for _, es in rows.values() for e in es], a)
    generated = Arena("generator", a, rows.__getitem__)
    for arena in (explicit, generated):
        with pytest.raises(KeyError) as exc:
            getattr(arena, read)(V("z", (9,)))
        assert exc.value.args == (V("z", (9,)),)


def test_an_explicit_arena_keeps_a_blocking_vertex_that_a_generator_refuses():
    a, b = V("a"), V("b", (7,))
    explicit = ArenaExplicit({a: 1, b: 2}, [E(a, 0, b)], a)
    assert explicit.row(b) == (2, ()) and explicit.edges(b) == ()
    assert validate(explicit).violations == ["blocking vertex b(7)"]
    generated = Arena("generator", a, {a: (1, (E(a, 0, b),)), b: (2, ())}.__getitem__)
    with pytest.raises(ValueError, match=r"^generator produced blocking vertex b\(7\)$"):
        generated.row(b)
    assert b not in generated._cache


def test_explicit_vertices_are_one_sorted_tuple_on_every_read():
    vs = [V("n", (i,)) for i in (5, 0, 12, 3)] + [V("m")]
    arena = ArenaExplicit({v: 1 for v in vs}, [E(v, 0, v) for v in vs], vs[0])
    first = arena.vertices
    assert first == tuple(sorted(vs))
    assert arena.vertices is first


def test_the_frame_free_constructors_build_the_named_tuples():
    v = _new_vertex(("g", (2, 1)))
    e = _new_edge((v, -1, V("dr", (2, 1, 1))))
    assert type(v) is VertexId and v == V("g", (2, 1)) and str(v) == "g(2,1)"
    assert type(e) is Edge and e == make_edge(V("g", (2, 1)), -1, V("dr", (2, 1, 1)))
    assert (e.src, e.weight, e.dst) == (v, -1, V("dr", (2, 1, 1)))


def _rows_of(rows):
    """A generator from a map of vertex -> edge list, each row's edges in
    the order given."""
    return Arena("generator", next(iter(rows)), lambda v: (1, tuple(rows[v])))


_a, _b, _c = V("a"), V("b", (1,)), V("b", (2,))


@pytest.mark.parametrize("edges", [
    [make_edge(_a, 0, _b), make_edge(_a, 5, _a)],  # reversed
    [make_edge(_a, 5, _a), make_edge(_a, 0, _b)],  # in order
    [make_edge(_a, 1, _b), make_edge(_a, -1, _b)],  # equal targets
    [make_edge(_a, -1, _b), make_edge(_a, 1, _b)],
    [make_edge(_a, 1, _c), make_edge(_a, 1, _b)],  # equal weights
    [make_edge(_a, 2, _b), _new_edge((_a, F(2), _b))],  # equal keys keep their order
    [_new_edge((_a, F(2), _b)), make_edge(_a, 2, _b)],
    [make_edge(_a, 3, _c), make_edge(_a, 1, _b), make_edge(_a, -1, _b)],  # three edges
    [make_edge(_a, F(1, 2), _a), make_edge(_a, 0, _c), make_edge(_a, F(-1, 2), _a),
     make_edge(_a, 0, _b)],
], ids=["reversed", "ordered", "targets-1+1", "targets+1-1", "weights", "ties-int-first",
        "ties-fraction-first", "three", "four"])
def test_a_generator_row_is_its_edges_in_stable_dst_weight_order(edges):
    rows = {_a: edges, _b: [make_edge(_b, 0, _b)], _c: [make_edge(_c, 0, _c)]}
    owner, row = _rows_of(rows).row(_a)
    want = tuple(sorted(edges, key=lambda e: (e.dst, e.weight)))
    assert owner == 1 and row == want
    # equal keys keep the order given, which == cannot see
    assert [type(e.weight) for e in row] == [type(e.weight) for e in want]
    assert all(got is e for got, e in zip(row, want))


def test_validate_names_a_generator_edge_whose_weight_is_not_canonical_exact():
    # built past make_edge, as a frame-free expansion may build them
    a, b = V("a"), V("b", (3,))
    rows = {a: [_new_edge((a, F(4, 2), b)), _new_edge((a, 3, a))],
            b: [_new_edge((b, 0.5, a)), _new_edge((b, F(1, 2), b))]}
    report = validate(_rows_of(rows), depth=3)
    assert report.violations == ["weight not canonical exact at a: Fraction(2, 1)",
                                 "weight not canonical exact at b(3): 0.5"]
    # make_edge refuses the float, which is not exact, and makes the rest canonical
    with pytest.raises(ValueError, match=r"^weight= must be a number, got 0\.5$"):
        make_edge(*rows[b][0])
    rows[b][0] = _new_edge((b, F(1, 2), a))
    fixed = {v: [make_edge(*e) for e in es] for v, es in rows.items()}
    assert validate(_rows_of(fixed), depth=3).ok
