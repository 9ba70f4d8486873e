"""The integer-indexed value layer of ``synthesis`` against the direct
algorithms it replaces or cross-checks, kept here as oracles: value
iteration until Zwick and Paterson's bounds isolate every value, the greedy profiles' bounds by
Karp's least cycle means, Karp's cycle mean once per start vertex, and the
max-min that walks one lasso per vertex and profile pair.  Mean-payoff
values come from strategy improvement, checked from both sides at its
fixed point; the tests below compare it with value iteration, with the
Karp bounds and with the max-min over every profile pair, on tie-heavy
arenas too, and check its final player-1 profile, the witness, by Karp's
cycle mean from every vertex.  Limsup-TP values come from the same loop
on the zero region, with a switch onto value-keeping cycles; the tests
compare them with the max-min, on tie-heavy arenas too, and check the
witness by the least lasso value over every player-2 reply."""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qgames import synthesis
from qgames.arena import ArenaExplicit, Edge, VertexId
from qgames.cli import parse_arena
from qgames.objectives import MP, NEG_INF, POS_INF, TP, Lasso, lasso_limit, parse_ext
from qgames.synthesis import (PROFILE_CAP, _evaluate, _max_min, _mp_values, _proven,
                              _tp_weighs, _tpsup_values, _view, brute_force_values, solve_values)

F = Fraction
V = VertexId


def E(src, w, dst):
    return Edge(src, F(w), dst)


# ---------------------------------------------------------------------------
# Oracles


def fixed_horizon_mp_values(arena):
    """Value iteration, stopped at the first multiple k of n at which
    Zwick and Paterson's bound |x_k - k v| <= 2nW leaves every vertex one
    candidate value p/q with q <= n; by k = 4n^3 W it always does."""
    vs = arena.vertices
    index = {v: i for i, v in enumerate(vs)}
    denom = 1
    for v in vs:
        for e in arena.edges(v):
            denom = denom * e.weight.denominator // math.gcd(denom, e.weight.denominator)
    rows = [(arena.owner(v) == 1, [(index[e.dst], int(e.weight * denom)) for e in arena.edges(v)])
            for v in vs]
    w_max = max([1] + [abs(w) for _, out in rows for _, w in out])
    n = len(vs)
    slack = 2 * n * w_max
    x = [0] * n
    for k in range(1, 4 * n * n * n * w_max + 1):
        x = [(max if p1 else min)([w + x[d] for d, w in out]) for p1, out in rows]
        if k % n == 0:
            values = list(itertools.takewhile(lambda value: value is not None, (
                _only_fraction(xi - slack, xi + slack, k, n) for xi in x)))
            if len(values) == n:
                return {v: value / denom for v, value in zip(vs, values)}
    raise AssertionError("value iteration isolated no value set by round 4n^3 W")


def _only_fraction(a, b, k, n):
    """The one fraction p/q with q <= n in [a/k, b/k], or None if there are
    none or several; every p of each q counts, each fraction once, in
    lowest terms."""
    found = None
    for q in range(1, n + 1):
        for p in range(-(-a * q // k), b * q // k + 1):
            if math.gcd(p, q) == 1:
                if found is not None:
                    return None
                found = F(p, q)
    return found


def _all_profiles(arena, player):
    owned = [v for v in arena.vertices if arena.owner(v) == player]
    return [dict(zip(owned, combo)) for combo in itertools.product(*map(arena.edges, owned))]


def _reachable(arena, v, moves):
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for e in [moves[u]] if u in moves else arena.edges(u):
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return seen


def _min_cycle_mean(arena, vertices, moves):
    vs = sorted(vertices)
    index = {v: k for k, v in enumerate(vs)}
    n = len(vs)
    edges = [(index[v], index[e.dst], e.weight)
             for v in vs for e in ([moves[v]] if v in moves else arena.edges(v))
             if e.dst in vertices]
    d = [[None] * n for _ in range(n + 1)]
    d[0] = [F(0)] * n
    for k in range(1, n + 1):
        for (a, b, w) in edges:
            if d[k - 1][a] is not None and (d[k][b] is None or d[k - 1][a] + w < d[k][b]):
                d[k][b] = d[k - 1][a] + w
    return min(max((d[n][v] - d[k][v]) / (n - k) for k in range(n) if d[k][v] is not None)
               for v in range(n) if d[n][v] is not None)


def _least_cycle_means(out):
    """Per vertex, the least mean of a cycle reachable from it in the graph
    whose vertex i has the (successor, weight) edges ``out[i]``, none
    empty: Karp (1978) on each strongly connected component, then the
    least over the components each vertex reaches."""
    reach = []
    for s in range(len(out)):
        seen, stack = {s}, [s]
        while stack:
            for d, _ in out[stack.pop()]:
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        reach.append(seen)
    mean = {}  # the least cycle mean of the vertex's component
    for s, seen in enumerate(reach):
        if s in mean:
            continue
        comp = [u for u in seen if s in reach[u]]
        local = {u: a for a, u in enumerate(comp)}
        into = [[] for _ in comp]  # (predecessor, weight)
        for u in comp:
            for d, w in out[u]:
                if d in local:
                    into[local[d]].append((local[u], w))
        if not all(into):
            continue  # one vertex without a self-loop
        # walks[k][b]: least weight of a k-edge walk in the component ending at b
        m = len(comp)
        walks = [[0] * m]
        for _ in range(m):
            walks.append([min(walks[-1][a] + w for a, w in ins) for ins in into])
        # means scaled by a common multiple of the walk-length differences
        scale = math.lcm(*range(1, m + 1))
        mean.update(dict.fromkeys(comp, F(min(
            max((walks[m][b] - walks[k][b]) * (scale // (m - k)) for k in range(m))
            for b in range(m)), scale)))
    return [min(mean[u] for u in seen if u in mean) for seen in reach]


def karp_greedy_certificate(view, x):
    """The greedy profiles' bounds by Karp: under player 1's, the least
    cycle mean reachable from each vertex; under player 2's, the greatest.
    Their means where the two agree at every vertex, else None."""
    def greedy(i, best):
        return (best(view.succ[i], key=lambda e: e[1] + x[e[0]]),)

    low = _least_cycle_means([greedy(i, max) if p1 else out
                              for i, (p1, out) in enumerate(zip(view.p1, view.succ))])
    high = _least_cycle_means([tuple((d, -w) for d, w in (out if p1 else greedy(i, min)))
                               for i, (p1, out) in enumerate(zip(view.p1, view.succ))])
    return low if all(a == -b for a, b in zip(low, high)) else None


def _lasso(arena, v, moves1, moves2):
    at = v
    seen = {v: 0}
    weights = []
    while True:
        e = moves1[at] if arena.owner(at) == 1 else moves2[at]
        weights.append(e.weight)
        at = e.dst
        if at in seen:
            return Lasso(tuple(weights[:seen[at]]), tuple(weights[seen[at]:]))
        seen[at] = len(weights)


def per_vertex_lasso_max_min(arena, kind):
    p1, p2 = _all_profiles(arena, 1), _all_profiles(arena, 2)
    worst = [{v: min(lasso_limit(kind, "limsup", _lasso(arena, v, m1, m2)) for m2 in p2)
              for v in arena.vertices}
             for m1 in p1]
    values = {v: max(w[v] for w in worst) for v in arena.vertices}
    return values, next((m1 for m1, w in zip(p1, worst) if w == values), None)


# ---------------------------------------------------------------------------
# Arenas


def random_arena(rng):
    n = rng.randint(2, 7)
    vs = [V("n", (i,)) for i in range(n)]
    owners = {v: rng.choice((1, 2)) for v in vs}
    edges = [E(v, F(rng.randint(-2, 2), rng.randint(1, 3)), rng.choice(vs))
             for v in vs for _ in range(rng.randint(1, 3))]
    return ArenaExplicit(owners, edges, vs[0])


def random_arenas(seed, count=200):
    rng = random.Random(seed)
    return [random_arena(rng) for _ in range(count)]


def pool_shaped_arena(rng, n, w):
    """n vertices split evenly between the players, out-degrees 2 and 3 in
    alternation, distinct successors, integer weights in [-w, w]: the shape
    of the benchmark pool's arenas."""
    vs = [V("n", (i,)) for i in range(n)]
    owners = [1] * (n // 2) + [2] * (n - n // 2)
    rng.shuffle(owners)
    degree = {}
    for player in (1, 2):
        mine = [v for v, o in zip(vs, owners) if o == player]
        pattern = [2 + k % 2 for k in range(len(mine))]
        rng.shuffle(pattern)
        degree.update(zip(mine, pattern))
    edges = [E(v, rng.randint(-w, w), d) for v in vs for d in rng.sample(vs, degree[v])]
    return ArenaExplicit(dict(zip(vs, owners)), edges, vs[0])


TIE_WEIGHTS = [-1, 0, 1] * 6 + [F(1, 2), F(-1, 2), F(1, 3), F(-2, 3)]


def tie_heavy_arena(rng):
    """1 to 8 vertices, a few with one owner only, out-degrees 1 to 3, a
    quarter of the edges self-loops, weights mostly -1, 0 and 1: many
    profiles tie, which is where a switching rule can go wrong."""
    n = rng.randint(1, 8)
    vs = [V("n", (i,)) for i in range(n)]
    mode = rng.random()
    owners = {v: 1 if mode < 0.15 else 2 if mode < 0.3 else rng.choice((1, 2)) for v in vs}
    edges = [E(v, rng.choice(TIE_WEIGHTS), v if rng.random() < 0.25 else rng.choice(vs))
             for v in vs for _ in range(rng.randint(1, 3))]
    return ArenaExplicit(owners, edges, vs[0])


def cycle(owner, weights, name="c"):
    vs = [V(name, (i,)) for i in range(len(weights))]
    return ({v: owner for v in vs},
            [E(v, w, vs[(i + 1) % len(vs)]) for i, (v, w) in enumerate(zip(vs, weights))])


def test_mp_values_match_the_fixed_horizon_loop():
    for arena in random_arenas(51):
        assert _mp_values(_view(arena))[0] == fixed_horizon_mp_values(arena)


def test_mp_values_match_brute_force_on_tie_heavy_arenas():
    rng = random.Random(58)
    one_player = 0
    for _ in range(1500):
        arena = tie_heavy_arena(rng)
        assert _mp_values(_view(arena))[0] == brute_force_values(arena, "mp")
        one_player += len({arena.owner(v) for v in arena.vertices}) == 1
    assert one_player > 100


def test_evaluate_gives_lasso_means_and_a_bias_solving_every_step():
    # gain: the lasso's mean times the scale; bias: 0 at the least index of
    # each cycle, and w scale - gain + bias(successor) at every vertex
    rng = random.Random(59)
    for arena in random_arenas(59):
        view = _view(arena)
        n = len(view.vertices)
        moves = [rng.randrange(len(out)) for out in view.succ]
        step = [out[j] for out, j in zip(view.succ, moves)]
        profile = {v: arena.edges(v)[j] for v, j in zip(view.vertices, moves)}
        scale = math.lcm(*range(1, n + 1))
        gain, bias = _evaluate(step, scale)
        for i, v in enumerate(view.vertices):
            lasso = _lasso(arena, v, profile, profile)
            assert F(gain[i], scale * view.denom) == lasso_limit(MP, "limsup", lasso)
            d, w = step[i]
            assert bias[i] == w * scale - gain[i] + bias[d]
            walk = [i]
            for _ in range(n):
                walk.append(step[walk[-1]][0])
            if i in walk[1:] and i == min(walk):
                assert bias[i] == 0


@pytest.mark.parametrize("kind", [TP, MP])
def test_max_min_matches_per_vertex_lassos(kind):
    for arena in random_arenas(53):
        assert _max_min(_view(arena), kind, PROFILE_CAP) == per_vertex_lasso_max_min(arena, kind)


def test_least_cycle_means_match_karp_per_start_vertex():
    rng = random.Random(54)
    for arena in random_arenas(54):
        view = _view(arena)
        out, moves = list(view.succ), {}
        for i, v in enumerate(view.vertices):
            if arena.owner(v) == 1:
                j = rng.randrange(len(out[i]))
                out[i], moves[v] = (out[i][j],), arena.edges(v)[j]
        assert [mean / view.denom for mean in _least_cycle_means(out)] == [
            _min_cycle_mean(arena, _reachable(arena, v, moves), moves) for v in view.vertices]


def test_tpsup_witness_holds_every_value():
    # under the witness, the least limsup TP over every player-2 positional
    # reply is each vertex's value
    arenas = random_arenas(55) + _pool_arenas("tp")
    assert len(arenas) == 216
    for arena in arenas:
        vm = solve_values(arena, "tpsup")
        replies = _all_profiles(arena, 2)
        for v in arena.vertices:
            assert min(lasso_limit(TP, "limsup", _lasso(arena, v, vm.witness.table, reply))
                       for reply in replies) == vm.values[v]


def test_tpsup_values_match_brute_force_on_tie_heavy_arenas():
    rng = random.Random(64)
    zero_regions = 0
    for _ in range(3000):
        arena = tie_heavy_arena(rng)
        values = solve_values(arena, "tpsup").values
        assert values == brute_force_values(arena, "tpsup")
        zero_regions += any(not isinstance(x, float) for x in values.values())
    assert zero_regions > 1000


def _numbered_arena(owners, edges):
    n = [V("n", (i,)) for i in range(len(owners))]
    return ArenaExplicit(dict(zip(n, owners)), [E(n[a], w, n[b]) for a, w, b in edges], n[0])


@pytest.mark.parametrize("owners, edges, values", [
    # player 2 closes n(1) n(2) of sum 0 instead of paying 1 into n(0)
    ((2, 2, 2), [(0, 0, 0), (1, 1, 0), (1, 0, 2), (2, 1, 0), (2, 0, 1)], [0, 0, 0]),
    # player 1 loops at n(1) instead of paying 1 into n(0)
    ((1, 1), [(0, 0, 0), (1, -1, 0), (1, 0, 1)], [0, 0]),
], ids=["player-2", "player-1"])
def test_tpsup_values_switch_onto_a_value_keeping_cycle(owners, edges, values):
    # mean payoff's final profile keeps the first edges, from which no
    # single edge improves: each takes the value of its successor plus its
    # weight.  Only the cycle of such edges reaches the values, and the
    # first edges do not hold them
    arena = _numbered_arena(owners, edges)
    view = _view(arena)
    first = [out[0] for out in view.succ]
    assert _mp_values(view)[1] == first
    solved, step, weighs = _tpsup_values(view)
    assert list(solved.values()) == values == list(brute_force_values(arena, "tpsup").values())
    assert step != first
    _proven(view, solved, step, weighs)
    with pytest.raises(RuntimeError, match="value attainment cross-check failed"):
        _proven(view, solved, first, weighs)


def test_tpsup_values_survive_a_cycle_switch_that_player_2_leaves():
    # at the values, player 2's edge p -> n can close the value-keeping
    # cycle a p n a through n's negative value, and player 1 switches a
    # onto it.  Player 2 then leaves it by its other value-keeping edge,
    # p -> q, closing a p q a on positive values only, which lowers a, p
    # and q to 0 until a switches back to t.  Every edge order ends on the
    # values
    a, p, n, q, t = (V(x) for x in "apnqt")
    owners = {a: 1, p: 2, n: 1, q: 1, t: 1}
    rest = [E(n, -2, a), E(q, 0, a), E(t, 0, t)]
    for at_a in itertools.permutations([E(a, 1, t), E(a, 0, p)]):
        for at_p in itertools.permutations([E(p, 2, n), E(p, 0, q)]):
            arena = ArenaExplicit(owners, [*at_a, *at_p, *rest], a)
            values = solve_values(arena, "tpsup").values
            assert values == {a: 1, p: 1, n: -1, q: 1, t: 0} == brute_force_values(
                arena, "tpsup")


def test_tpsup_witness_cross_checks_both_sides():
    # a value raised by 1 or 1/2 is not held from below by player 1's final
    # profile, one lowered by 1 not from above by player 2's; either side
    # missing raises, with the other side checked at the solved values
    checked = 0
    for arena in random_arenas(56, count=40):
        view = _view(arena)
        values, step, held = _tpsup_values(view)
        zero = [v for v, x in values.items() if not isinstance(x, float)]
        if not zero:
            continue
        _proven(view, values, step, held)
        for delta in (1, -1, F(1, 2)):
            moved = {**values, zero[0]: values[zero[0]] + delta}
            below, above = _tp_weighs([moved[v] * view.denom for v in view.vertices])
            side = 1 if delta > 0 else 2
            weighs = (below, held[1]) if side == 1 else (held[0], above)
            with pytest.raises(RuntimeError, match="value attainment cross-check failed: "
                               "player %d's" % side):
                _proven(view, moved, step, weighs)
        checked += 1
    assert checked


@pytest.mark.parametrize("loop, value", [(0, 1), (1, POS_INF)], ids=["zero-region", "plus-inf"])
def test_tpsup_witness_drops_a_first_tight_edge_that_closes_a_losing_cycle(loop, value):
    # n(0) is player 1's.  Its first edge, to player 2's n(1), is tight and
    # closes n(0) n(1) n(0) of sum 0; its second, of weight 1, leads to a
    # loop of weight ``loop`` at n(2).  With a zero loop n(0) and n(1) have
    # value 1, which the cycle's running total never reaches; with a
    # positive one they are +inf, and the cycle's sum is not positive.
    # Either way the witness takes the second edge
    n = [V("n", (i,)) for i in range(3)]
    arena = ArenaExplicit({n[0]: 1, n[1]: 2, n[2]: 2}, [
        E(n[0], 0, n[1]), E(n[0], 1, n[2]), E(n[1], 0, n[0]), E(n[2], loop, n[2])])
    vm = solve_values(arena, "tpsup")
    assert vm.values[n[0]] == vm.values[n[1]] == value
    assert vm.witness.table == {n[0]: E(n[0], 1, n[2])}


def test_mp_values_are_the_karp_bounds_wherever_these_agree():
    # at k = n, 2n, 4n and 8n rounds of value iteration, on random arenas
    # (some with one player, whose other side holds vacuously) and on the
    # benchmark pool, wherever the greedy profiles' Karp bounds meet
    pool = json.loads(POOL.read_text())
    arenas = random_arenas(57) + [parse_arena(m["arena"]) for ms in pool.values() for m in ms]
    certified = {True: 0, False: 0}
    one_player = 0
    for arena in arenas:
        view = _view(arena)
        values = [x * view.denom for x in _mp_values(view)[0].values()]
        n = len(view.vertices)
        rows = list(zip(view.p1, view.succ))
        x = [0] * n
        for k in range(1, 8 * n + 1):
            x = [(max if p1 else min)([w + x[d] for d, w in out]) for p1, out in rows]
            if k in (n, 2 * n, 4 * n, 8 * n):
                bounds = karp_greedy_certificate(view, x)
                assert bounds is None or bounds == values
                certified[bounds is not None] += 1
                one_player += bounds is not None and len(set(view.p1)) == 1
    assert certified[True] and certified[False] and one_player


def test_mp_values_one_player_twelve_cycle():
    # the mean 1/12 needs the whole scale lcm(1..12), and player 2, who owns
    # no vertex, holds it vacuously
    owners, edges = cycle(1, [1] + [0] * 11)
    arena = ArenaExplicit(owners, edges)
    values = _mp_values(_view(arena))[0]
    assert values == {v: F(1, 12) for v in owners}
    assert values == fixed_horizon_mp_values(arena)


def test_mp_values_separate_farey_neighbours():
    # a 3-cycle of mean 1/3 and a 4-cycle of mean 1/4 (1*4 - 1*3 = 1, so
    # no fraction of denominator at most 4 lies between them); x picks the
    # larger, y the smaller.  Values of one arena are never adjacent in the
    # Farey sequence of its own size: a pair of optimal positional profiles
    # takes them from disjoint cycles, whose lengths sum to at most n.
    o3, e3 = cycle(2, [1, 0, 0], "t")
    o4, e4 = cycle(1, [1, 0, 0, 0], "f")
    x, y = V("x"), V("y")
    t0, f0 = V("t", (0,)), V("f", (0,))
    arena = ArenaExplicit({**o3, **o4, x: 1, y: 2},
                          e3 + e4 + [E(x, 0, t0), E(x, 0, f0), E(y, 0, t0), E(y, 0, f0)])
    values = _mp_values(_view(arena))[0]
    assert values[x] == F(1, 3) and values[y] == F(1, 4)
    assert values == fixed_horizon_mp_values(arena)
    vm = solve_values(arena, "mp")
    assert vm.witness.table[x] == E(x, 0, t0)


def test_mp_values_check_the_fixed_point_from_both_sides(monkeypatch):
    # each side's final profile is checked against every reply; a side
    # that does not hold the gains raises
    o3, e3 = cycle(2, [1, 0, 0], "t")
    o4, e4 = cycle(1, [1, 0, 0, 0], "f")
    x, y = V("x"), V("y")
    t0, f0 = V("t", (0,)), V("f", (0,))
    arena = ArenaExplicit({**o3, **o4, x: 1, y: 2},
                          e3 + e4 + [E(x, 0, t0), E(x, 0, f0), E(y, 0, t0), E(y, 0, f0)])
    holds = synthesis._holds
    for failing in (1, 2, None):
        sides = []

        def checked(view, side, step, weigh):
            sides.append(side)
            assert all(move in out for move, out in zip(step, view.succ))
            return side != failing and holds(view, side, step, weigh)

        monkeypatch.setattr(synthesis, "_holds", checked)
        if failing is None:
            assert solve_values(arena, "mp").values == fixed_horizon_mp_values(arena)
        else:
            with pytest.raises(RuntimeError, match="player %d's final profile does not hold"
                               % failing):
                solve_values(arena, "mp")
        assert sides == [1, 2][:failing]


@pytest.mark.parametrize("family", ["mp", "tpsup"])
def test_solve_values_proves_each_solve_once(monkeypatch, family):
    # one check from below by player 1, then one from above by player 2, per
    # call: limsup TP does not re-prove the mean-payoff gains it starts from
    holds = synthesis._holds
    sides = []

    def checked(view, side, step, weigh):
        sides.append(side)
        return holds(view, side, step, weigh)

    monkeypatch.setattr(synthesis, "_holds", checked)
    arenas = _pool_arenas("tp")[:1] + random_arenas(62, count=40)
    for arena in arenas:
        sides.clear()
        solve_values(arena, family)
        assert sides == [1, 2]


def test_mp_values_without_a_greedy_certificate():
    # ties in x_k can keep a greedy profile off the optimal cycle at every
    # check (in arena 170 player 2 keeps the zero self-loop at n(0), which
    # ties the -1/2 two-cycle through n(1) at every even k); strategy
    # improvement must still give the values
    uncertified = []
    for index, arena in enumerate(random_arenas(60)):
        view = _view(arena)
        n = len(view.vertices)
        rows = list(zip(view.p1, view.succ))
        x, bounds = [0] * n, []
        for k in range(1, 8 * n + 1):
            x = [(max if p1 else min)([w + x[d] for d, w in out]) for p1, out in rows]
            if k in (n, 2 * n, 4 * n, 8 * n):
                bounds.append(karp_greedy_certificate(view, x))
        if not any(bounds):
            uncertified.append(index)
            assert _mp_values(view)[0] == fixed_horizon_mp_values(arena)
    assert 170 in uncertified


POOL = Path(__file__).parent.parent / "perfbench" / "pool.json"


def test_solve_values_match_the_benchmark_pool():
    # start values derived by brute force when the pool was built
    pool = json.loads(POOL.read_text())
    assert sum(map(len, pool.values())) == 80
    for cell, members in pool.items():
        family = {"mp": "mp", "tp": "tpsup"}[cell.split("-")[0]]
        for member in members:
            arena = parse_arena(member["arena"])
            assert solve_values(arena, family).values[arena.start] == parse_ext(
                member["start_value"]), cell


def test_solved_values_are_ints_or_fractions_with_a_denominator_and_floats_only_when_infinite():
    pool = json.loads(POOL.read_text())
    kinds = set()
    for members in pool.values():
        for member in members:
            arena = parse_arena(member["arena"])
            for family in ("mp", "tpsup"):
                for x in solve_values(arena, family).values.values():
                    if type(x) is float:
                        assert x in (POS_INF, NEG_INF)
                    else:
                        assert type(x) is int or (type(x) is F and x.denominator > 1)
                    kinds.add(type(x))
    assert kinds == {int, F, float}


def _pool_arenas(kind):
    pool = json.loads(POOL.read_text())
    return [parse_arena(m["arena"]) for cell, ms in pool.items() if cell.startswith(kind)
            for m in ms]


def _pool_shaped_arenas(w):
    # past n = 24 player 1 has more than 2^14 profiles
    rng = random.Random(61 + w)
    return [pool_shaped_arena(rng, n, w)
            for n, count in [(n, 12) for n in range(8, 13)] + [(n, 3) for n in (24, 36, 48)]
            for _ in range(count)]


@pytest.mark.parametrize("arenas", [lambda: random_arenas(52), lambda: _pool_arenas("mp"),
                                    lambda: _pool_shaped_arenas(2),
                                    lambda: _pool_shaped_arenas(6)],
                         ids=["random", "pool", "pool-shaped-w2", "pool-shaped-w6"])
def test_mp_witness_holds_every_value(arenas):
    # under strategy improvement's final player-1 profile, the least cycle
    # mean reachable from every vertex is the vertex's value
    for arena in arenas():
        vm = solve_values(arena, "mp")
        moves = vm.witness.table
        assert set(moves) == {v for v in arena.vertices if arena.owner(v) == 1}
        assert all(e in arena.edges(v) for v, e in moves.items())
        for v in arena.vertices:
            assert _min_cycle_mean(arena, _reachable(arena, v, moves), moves) == vm.values[v]


def test_mp_values_after_a_heavy_transient():
    # a weight-3 path into a cycle of mean 1/3 and a lone zero loop at z:
    # value iteration after 2n^2 W = 486 rounds still reads x_k / k nearer
    # 3/8 than 1/3 at the path's head, while the path only adds to the bias
    path = [V("p", (i,)) for i in range(5)]
    z = V("z")
    owners, edges = cycle(2, [1, 0, 0], "c")
    owners.update({v: 1 for v in path + [z]})
    edges += [E(a, 3, b) for a, b in zip(path, path[1:] + [V("c", (0,))])]
    edges.append(E(z, 0, z))
    arena = ArenaExplicit(owners, edges)
    values = _mp_values(_view(arena))[0]
    assert values == {v: F(0) if v == z else F(1, 3) for v in owners}
    assert values == fixed_horizon_mp_values(arena)
