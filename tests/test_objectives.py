import random
from fractions import Fraction

import pytest

from qgames.arena import Arena, ArenaExplicit, Edge, VertexId
from qgames.objectives import (NEG_INF, POS_INF, Lasso, Objective, OpenSub, Unsupported,
                               _diagonal_pair, classify, decompose, format_ext, lasso_limit,
                               parse_ext, parse_objective, rewrite_strict_tp)

from oracles import BOTH, GE, LE, already_satisfies, eval_on_lasso, prefix_compare

F = Fraction
V = VertexId


def test_objective_parse_format_roundtrip():
    for text in ["tp:limsup:>=:0", "mp:liminf:>:-3/2", "tp:limsup:>=:+inf",
                 "buchi-all:3"]:
        obj = parse_objective(text)
        assert str(obj) == text
    assert parse_ext("-inf") == NEG_INF
    assert format_ext(POS_INF) == "+inf"
    with pytest.raises(ValueError):
        parse_objective("tp:limsup:>=")
    with pytest.raises(ValueError):
        Objective("mp", threshold=POS_INF)


def test_classification_table():
    assert "memoryless" in classify(Objective("mp", "liminf", ">", F(0)))
    assert "step counter sufficient" in classify(Objective("mp", "limsup", ">=", F(0)))
    assert "one bit" in classify(Objective("tp", "limsup", ">=", F(0)))
    assert "insufficient" in classify(Objective("tp", "liminf", ">=", F(0)))
    assert "Pi02" in classify(Objective("buchi-all", colour_count=2))


def test_open_sub_step_satisfies():
    mp = OpenSub("mp-sup", m=2, i=3)
    # MP >= -1/2 at position j >= 3 without division: tp * m >= -j
    assert not mp.step_satisfies(2, F(0))
    assert mp.step_satisfies(3, F(-3, 2))
    assert not mp.step_satisfies(3, F(-2))

    tpsup = OpenSub("tp-sup", m=4)
    assert tpsup.step_index == 4
    assert not tpsup.step_satisfies(3, F(5))
    assert tpsup.step_satisfies(4, F(-1, 4))
    assert not tpsup.step_satisfies(4, F(-1, 3))

    tpinf = OpenSub("tp-inf", m=3, i=2)
    assert tpinf.step_satisfies(2, F(3))
    assert not tpinf.step_satisfies(2, F(2))

    buchi = OpenSub("buchi", colour=F(1), i=2)
    assert buchi.step_satisfies(2, F(0), F(1))
    assert not buchi.step_satisfies(1, F(0), F(1))
    assert not buchi.step_satisfies(2, F(0), F(0))


def test_already_satisfies_is_monotone_under_extension():
    rng = random.Random(11)
    subs = [OpenSub("mp-sup", m=2, i=2), OpenSub("tp-inf", m=2, i=1),
            OpenSub("tp-sup", m=3), OpenSub("buchi", colour=F(1), i=2)]
    for _ in range(300):
        word = tuple(F(rng.randint(-3, 3)) for _ in range(rng.randint(0, 8)))
        ext = word + tuple(F(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4)))
        for sub in subs:
            if already_satisfies(sub, word):
                assert already_satisfies(sub, ext)


def test_a_threshold_is_a_shift_of_the_word_for_mp_and_its_definition_for_tp():
    # mp-sup at r is mp-sup at 0 on the word minus r at every step; tp-sup at
    # r is some j >= m with TP(w<=j) >= r - 1/m
    rng = random.Random(29)
    for _ in range(400):
        word = [F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(rng.randint(0, 9))]
        r = F(rng.randint(-6, 6), rng.choice((1, 2, 4)))
        m, i = rng.randint(1, 5), rng.randint(1, 5)
        assert already_satisfies(OpenSub("mp-sup", m, i, threshold=r), word) \
            == already_satisfies(OpenSub("mp-sup", m, i), [x - r for x in word])
        totals = [sum(word[:j]) for j in range(1, len(word) + 1)]
        assert already_satisfies(OpenSub("tp-sup", m, threshold=r), word) \
            == any(t >= r - F(1, m) for t in totals[m - 1:])


def _random_word(rng, n):
    return tuple(F(rng.randint(-3, 3)) for _ in range(n))


def test_prefix_compare_totality_and_congruence():
    rng = random.Random(5)
    subs = [OpenSub("mp-sup", m=2, i=2), OpenSub("tp-inf", m=3, i=1),
            OpenSub("tp-sup", m=2), OpenSub("buchi", colour=F(2), i=1)]
    for _ in range(200):
        n = rng.randint(1, 7)
        w1, w2 = _random_word(rng, n), _random_word(rng, n)
        for sub in subs:
            r = prefix_compare(sub, w1, w2)
            assert r in (LE, GE, BOTH)
            # antisymmetry of the underlying relations
            rr = prefix_compare(sub, w2, w1)
            assert (r == BOTH) == (rr == BOTH)
            if r == LE:
                assert rr == GE
            # congruence: a common extension preserves LE
            tail = _random_word(rng, rng.randint(1, 3))
            if r in (LE, BOTH) and not already_satisfies(sub, w1 + tail):
                ext = prefix_compare(sub, w1 + tail, w2 + tail)
                assert ext in (LE, BOTH)


def test_prefix_compare_transitivity():
    rng = random.Random(23)
    sub = OpenSub("tp-sup", m=2)
    for _ in range(200):
        n = rng.randint(1, 6)
        ws = [_random_word(rng, n) for _ in range(3)]
        rs = [prefix_compare(sub, ws[0], ws[1]), prefix_compare(sub, ws[1], ws[2])]
        if all(r in (LE, BOTH) for r in rs):
            assert prefix_compare(sub, ws[0], ws[2]) in (LE, BOTH)


def test_prefix_compare_ranks_satisfied_first_then_totals_except_for_buchi():
    buchi = OpenSub("buchi", colour=2, i=1)
    assert prefix_compare(buchi, (0, 0), (1, 1)) == BOTH  # unsatisfied, totals unread
    assert prefix_compare(buchi, (0, 0), (1, 2)) == LE
    mp = OpenSub("mp-sup", m=1, i=1)  # neither word reaches a mean of -1
    assert prefix_compare(mp, (-3, -3), (-3, -4)) == GE
    tp_inf = OpenSub("tp-inf", m=3, i=1)  # satisfied at step 1 beats a higher total
    assert prefix_compare(tp_inf, (3, -3), (2, 0)) == GE


def test_prefix_compare_rejects_unequal_lengths():
    with pytest.raises(ValueError):
        prefix_compare(OpenSub("tp-sup", m=1), (F(0),), (F(0), F(1)))


def test_lasso_limit_signs():
    pos = Lasso((F(-5),), (F(1),))
    assert lasso_limit("tp", "limsup", pos) == POS_INF
    neg = Lasso((), (F(1), F(-2)))
    assert lasso_limit("tp", "limsup", neg) == NEG_INF
    zero = Lasso((F(2),), (F(1), F(-1)))
    assert lasso_limit("tp", "limsup", zero) == F(3)
    assert lasso_limit("tp", "liminf", zero) == F(2)
    assert lasso_limit("mp", "limsup", Lasso((), (F(1), F(2)))) == F(3, 2)


def test_eval_on_lasso_agrees_with_long_simulation():
    rng = random.Random(3)
    objectives = [
        Objective("tp", "limsup", ">=", F(0)),
        Objective("tp", "limsup", ">", F(-1)),
        Objective("tp", "liminf", ">=", F(0)),
        Objective("mp", "limsup", ">=", F(0)),
        Objective("mp", "liminf", ">", F(-1, 2)),
    ]
    for _ in range(50):
        prefix = tuple(F(rng.randint(-2, 2)) for _ in range(rng.randint(0, 4)))
        cycle = tuple(F(rng.randint(-2, 2)) for _ in range(rng.randint(1, 5)))
        lasso = Lasso(prefix, cycle)
        word = lasso.unroll(4000)
        tail = []
        tp = F(0)
        for j, w in enumerate(word, start=1):
            tp += w
            if j > 2000:
                tail.append((tp, tp / j))
        for obj in objectives:
            vals = [t[0] if obj.kind == "tp" else t[1] for t in tail]
            approx = max(vals) if obj.mode == "limsup" else min(vals)
            exact = lasso_limit(obj.kind, obj.mode, lasso)
            if obj.kind == "tp" and exact in (POS_INF, NEG_INF):
                # divergence visible in the simulated tail direction
                assert (approx > 100) == (exact == POS_INF) or abs(approx) <= 100
                continue
            want = eval_on_lasso(obj, lasso)
            got = approx > obj.threshold if obj.relation == ">" else approx >= obj.threshold
            if obj.kind == "mp":
                # simulated mean approaches the exact mean; compare via the limit
                got = exact > obj.threshold if obj.relation == ">" else exact >= obj.threshold
            assert want == got


def test_eval_on_lasso_buchi():
    obj = Objective("buchi-all", colour_count=2)
    assert eval_on_lasso(obj, Lasso((F(5),), (F(0), F(1))))
    assert not eval_on_lasso(obj, Lasso((F(1),), (F(0),)))


def test_diagonal_pair_enumeration():
    pairs = [_diagonal_pair(n) for n in range(1, 7)]
    assert pairs == [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]
    seen = set(pairs)
    assert len(seen) == len(pairs)


def test_decompose_families():
    mp = decompose(Objective("mp", "limsup", ">=", F(0)))
    assert mp.sub(1).family == "mp-sup"
    tp0 = decompose(Objective("tp", "limsup", ">=", F(0)))
    assert [tp0.sub(n).m for n in (1, 2, 3)] == [1, 2, 3]
    tpinf = decompose(Objective("tp", "limsup", ">=", POS_INF))
    assert tpinf.sub(1).family == "tp-inf"
    buchi = decompose(Objective("buchi-all", colour_count=2))
    assert [buchi.sub(n).colour for n in (1, 2, 3)] == [F(0), F(1), F(0)]
    assert buchi.sub(3).i == 2
    assert isinstance(decompose(Objective("tp", "liminf", ">=", F(0))), Unsupported)
    # a finite threshold rides in every sub-objective; the label does not name it
    mp1 = decompose(Objective("mp", "limsup", ">=", F(1)))
    assert (mp1.label, mp1.sub(3)) == ("mp-limsup>=r", OpenSub("mp-sup", m=2, i=1, threshold=1))
    tp1 = decompose(Objective("tp", "limsup", ">=", F(-3, 2)))
    assert (tp1.label, tp1.sub(2)) == ("tp-limsup>=r", OpenSub("tp-sup", m=2, threshold=F(-3, 2)))
    assert isinstance(decompose(Objective("tp", "limsup", ">=", NEG_INF)), Unsupported)


def _loop_arena():
    a = V("a")
    return ArenaExplicit({a: 1}, [Edge(a, F(1), a), Edge(a, F(1, 2), a)], a)


def test_shift_strict_tp_uses_common_denominator():
    # weights have denominator 2, so > 0 becomes >= 1/2
    obj = rewrite_strict_tp(_loop_arena(), Objective("tp", "limsup", ">", F(0)))
    assert (obj.kind, obj.mode, obj.relation, obj.threshold) == ("tp", "limsup", ">=", F(1, 2))


def test_shift_strict_tp_reads_a_denominator_far_from_the_start():
    # a weight-0 path whose only 1/3 weight is the 45th edge, then a loop:
    # every total is a multiple of 1/3, so > 0 means >= 1/3
    path = [V("p", (i,)) for i in range(46)]
    edges = [Edge(a, F(0), b) for a, b in zip(path[:44], path[1:45])]
    edges += [Edge(path[44], F(1, 3), path[45]), Edge(path[45], F(0), path[45])]
    arena = ArenaExplicit({v: 1 for v in path}, edges, path[0])
    obj = rewrite_strict_tp(arena, Objective("tp", "limsup", ">", F(0)))
    assert (obj.relation, obj.threshold) == (">=", F(1, 3))


def test_shift_strict_tp_refuses_a_generator():
    arena = _loop_arena()
    generator = Arena("generator", arena.start, lambda v: (1, arena.edges(v)))
    with pytest.raises(ValueError, match="generator"):
        rewrite_strict_tp(generator, Objective("tp", "limsup", ">", F(0)))
    # any objective but a strict finite tp threshold is returned as it is
    for obj in (Objective("tp", "limsup", ">=", F(0)), Objective("tp", "limsup", ">", POS_INF),
                Objective("mp", "limsup", ">", F(1, 2)), Objective("buchi-all", colour_count=2)):
        assert rewrite_strict_tp(generator, obj) is obj


def test_quotients_of_integer_words_are_fractions_not_floats():
    # int / int is a float, and 1.5 == F(3, 2), so check the type and the text
    got = lasso_limit("mp", "limsup", Lasso((5,), (1, 2)))
    assert type(got) is Fraction and str(got) == "3/2"
    # a sum of fractions mixed with ints is exact
    assert str(lasso_limit("tp", "limsup", Lasso((F(1, 2),), (1, F(-1, 2), F(-1, 2))))) == "3/2"


def test_parsed_thresholds_and_shifted_weights_are_ints_when_integral():
    assert [type(parse_ext(t)) for t in ("3", "-4/2", "1/2")] == [int, int, Fraction]
    a = V("a")
    arena = ArenaExplicit({a: 1}, [Edge(a, 2, a), Edge(a, -1, a)], a)
    # > 0 over integer weights is >= 1
    obj = rewrite_strict_tp(arena, Objective("tp", "limsup", ">", 0))
    assert obj.threshold == 1 and type(obj.threshold) is int
