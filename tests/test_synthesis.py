import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qgames.arena import ArenaExplicit, Edge, History, VertexId
from qgames.cli import main, parse_arena
from qgames.engine import (Inconclusive, KoenigBound, Layers, explore_consistent, koenig_bound,
                           koenig_layers, play)
from qgames.objectives import (NEG_INF, OpenSub, Objective, POS_INF, decompose)
from qgames.strategies import Memoryless, StepCounterTable
from qgames.strategies import serialize_strategy
from qgames.synthesis import (WPrimeOracle, brute_force_values, bubble_synthesize,
                              finite_mp_oracle, finite_wprime_oracle, minimal_history_levels,
                              sc1bit_synthesize, sc_from_strategy, solve_values)
from qgames.synthesis import _final_report
from qgames.zoo import make

from oracles import decide, domination_holds

F = Fraction
V = VertexId

A, B, C, D = V("a"), V("b"), V("c"), V("d")

POOL = Path(__file__).parent.parent / "perfbench" / "pool.json"


def E(src, w, dst):
    return Edge(src, F(w), dst)


def pos_arena():
    # a gains 1, the opponent either refunds it or idles at 0
    return ArenaExplicit(
        {A: 1, B: 2},
        [E(A, 1, B), E(B, -1, A), E(B, 0, B)], A)


def test_mp_values_hand_computed():
    arena = ArenaExplicit(
        {A: 1, B: 2},
        [E(A, 1, A), E(A, -1, A), E(A, 0, B), E(B, 2, B), E(B, 3, B)], A)
    vm = solve_values(arena, "mp")
    assert vm.values[A] == F(2)
    assert vm.values[B] == F(2)
    # the maximizer prefers reaching b over its own +1 loop
    assert vm.witness is not None
    assert vm.witness.table[A].dst == B


def test_mp_values_opponent_controls_cycle():
    arena = ArenaExplicit(
        {A: 1, B: 2},
        [E(A, 0, B), E(B, -1, B), E(B, 1, B)], A)
    vm = solve_values(arena, "mp")
    assert vm.values[A] == F(-1)
    assert vm.values[B] == F(-1)


def test_tpsup_values_pos_arena():
    vm = solve_values(pos_arena(), "tpsup")
    assert vm.values[A] == F(1)
    assert vm.values[B] == F(0)


def test_tpsup_values_transient_spike_is_not_the_limit():
    x, y, z = V("x"), V("y"), V("z")
    arena = ArenaExplicit(
        {x: 1, y: 1, z: 1},
        [E(x, 5, y), E(y, -5, z), E(z, 0, z)], x)
    vm = solve_values(arena, "tpsup")
    # the forced word 5, -5, 0, 0, ... peaks at 5 but settles at 0
    assert vm.values[x] == F(0)
    assert vm.values[y] == F(-5)
    assert vm.values[z] == F(0)


def test_tpsup_values_infinite_regions():
    arena = ArenaExplicit(
        {A: 1, B: 2},
        [E(A, 1, A), E(A, 0, B), E(B, -1, B)], A)
    vm = solve_values(arena, "tpsup")
    assert vm.values[A] == POS_INF
    assert vm.values[B] == NEG_INF


def _random_arena(rng, n=4):
    vs = [V("n", (i,)) for i in range(n)]
    owners = {v: rng.choice((1, 2)) for v in vs}
    edges = []
    for v in vs:
        for _ in range(rng.randint(1, 2)):
            edges.append(E(v, rng.randint(-2, 2), rng.choice(vs)))
    return ArenaExplicit(owners, edges, vs[0])


@pytest.mark.parametrize("family", ["mp", "tpsup"])
def test_solve_values_matches_brute_force(family):
    rng = random.Random(17)
    for _ in range(25):
        arena = _random_arena(rng)
        vm = solve_values(arena, family)
        bf = brute_force_values(arena, family)
        assert bf is not None
        assert vm.values == bf


def test_sigma_safe_region_is_value_shifted():
    oracle = finite_wprime_oracle(pos_arena())
    region, safe = oracle.wprime, oracle.safe
    assert region(A, F(0))
    assert region(A, F(-1))
    assert not region(A, F(-2))
    assert region(B, F(0))
    assert not region(B, F(-1, 2))
    record = play(pos_arena(), A, safe,
                  Memoryless(lambda ar, v: ar.edges(v)[0], player=2), 10)
    assert all(tp >= F(0) for tp in record.tp_trace[::2])


def _consistent_histories(arena, v0, sigma, depth):
    levels = [[History(v0)]]
    for d in range(depth):
        nxt = []
        for h in levels[d]:
            v = h.to_vertex
            if arena.owner(v) == sigma.player:
                moves = [decide(arena, sigma, h)]
            else:
                moves = list(arena.edges(v))
            for e in moves:
                nxt.append(History(v0, h.edges + (e,)))
        levels.append(nxt)
    return levels


@pytest.mark.parametrize("m", [1, 2, 3])
def test_minimal_histories_dominate_bitarena(m):
    # histories consistent with the collapsed step-counter strategy stay
    # inside the kept cells and are dominated by the kept minima there
    entry = make("bitarena")
    sigma = entry.strategy("opposite")
    sub = OpenSub("tp-sup", m=m)
    depth = 12
    levels = minimal_history_levels(entry.arena, entry.start, sigma, sub, depth)
    sc = sc_from_strategy(entry.arena, entry.start, sigma, sub, depth)
    byl = _consistent_histories(entry.arena, entry.start, sc, depth)
    assert domination_holds(entry.arena, entry.start, sub, levels, byl)


def test_sc_from_strategy_beats_every_entry():
    # the table plays the source's move after the minimal consistent
    # history, which still banks +1 against every descent choice
    entry = make("a3")
    sigma = entry.strategy("delay_twice_exit")
    sub = OpenSub("tp-inf", m=1, i=1)
    sc = sc_from_strategy(entry.arena, entry.start, sigma, sub, 60)
    assert isinstance(sc, StepCounterTable)
    for i in (0, 1, 3):
        p2 = entry.strategy("p2_enter_%d" % i)
        r_sc = play(entry.arena, entry.start, sc, p2, 120)
        assert any(tp >= F(1) for tp in r_sc.tp_trace)


def test_bubble_synthesize_mp_on_pos_arena():
    arena = pos_arena()
    oracle = finite_mp_oracle(arena)
    decomp = decompose(Objective("mp", "limsup", ">=", F(0)))
    report = bubble_synthesize(arena, A, decomp, 3, oracle)
    assert report.certified
    assert [m for m, _ in report.schedule] == [1, 2, 3]
    ks = [k for _, k in report.schedule]
    assert ks == sorted(ks)


def test_bubble_synthesize_rejects_losing_start():
    arena = ArenaExplicit({A: 1}, [E(A, -1, A)], A)
    oracle = finite_mp_oracle(arena)
    decomp = decompose(Objective("mp", "limsup", ">=", F(0)))
    refusal = r"^start a with sum 0 is outside the winning region at threshold 0$"
    with pytest.raises(ValueError, match=refusal):
        bubble_synthesize(arena, A, decomp, 2, oracle)
    with pytest.raises(ValueError, match=refusal):
        sc1bit_synthesize(arena, A, 2, finite_wprime_oracle(arena))


# a's only edge is a loop of weight -1: mean payoff -1, limsup total -inf
LOSING_LOOP = "arena loop\nvertex a owner=1\nedge a a weight=-1\nstart a\n"


@pytest.mark.parametrize("r", ["-1/2", "0", "1"])
@pytest.mark.parametrize("family", ["mp", "tp"])
def test_both_synthesizers_refuse_a_losing_start_in_one_message_naming_r(tmp_path, capsys,
                                                                         family, r):
    arena = parse_arena(LOSING_LOOP)
    deco = decompose(Objective(family, "limsup", ">=", F(r)))
    refusal = "start a with sum 0 is outside the winning region at threshold %s" % r
    with pytest.raises(ValueError) as refused:
        if family == "mp":
            bubble_synthesize(arena, A, deco, 2, finite_mp_oracle(arena, F(r)))
        else:
            sc1bit_synthesize(arena, A, 2, finite_wprime_oracle(arena, F(r)))
    assert str(refused.value) == refusal
    path = tmp_path / "loop.txt"
    path.write_text(LOSING_LOOP)
    out = tmp_path / "loop.strategy"
    assert main(["synthesize", "--arena", str(path), "--objective",
                 "%s:limsup:>=:%s" % (family, r), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % refusal)
    assert not out.exists()


def test_sc1bit_on_pos_arena():
    arena = pos_arena()
    oracle = finite_wprime_oracle(arena)
    report = sc1bit_synthesize(arena, A, 3, oracle)
    assert report.certified
    assert len(report.schedule) == 3


def test_sc1bit_on_bitarena_with_scripted_oracle():
    entry = make("bitarena")
    oracle = WPrimeOracle(entry.wprime, entry.strategy("safe"),
                          entry.extras["winning_from"])
    report = sc1bit_synthesize(entry.arena, entry.start, 3, oracle)
    assert report.certified
    assert report.schedule == [(1, 1), (2, 4), (5, 8)]
    assert all(ok for (_, _, ok) in report.level_certs)


def test_sc1bit_rejects_start_outside_region():
    arena = pos_arena()
    oracle = finite_wprime_oracle(arena)
    bad = WPrimeOracle(lambda v, r: False, oracle.safe, oracle.winning_from)
    with pytest.raises(ValueError):
        sc1bit_synthesize(arena, A, 1, bad)


def test_sc1bit_reports_a_region_violation_but_a_cap_as_not_checked():
    arena = pos_arena()
    oracle = finite_wprime_oracle(arena)
    # a region without b, which every play reaches at step 1
    only_a = WPrimeOracle(lambda v, r: v == A, oracle.safe, oracle.winning_from)
    left = sc1bit_synthesize(arena, A, 1, only_a)
    assert (left.failure, left.region_ok) == ("left the winning region: (b, 1) at step 1", False)
    capped = sc1bit_synthesize(arena, A, 1, oracle, depth_cap=0)
    assert capped.failure.startswith("bubble m=1: depth cap 0 exhausted")
    assert capped.region_ok is None and not capped.certified


def test_solve_values_type_and_family_guards():
    entry = make("a3")
    with pytest.raises(TypeError):
        solve_values(entry.arena, "mp")
    with pytest.raises(ValueError):
        solve_values(pos_arena(), "discounted")


def _bitarena_sc1bit(m_max, node_cap=None, depth_cap=200):
    entry = make("bitarena")
    oracle = WPrimeOracle(entry.wprime, entry.strategies["safe"],
                          entry.extras["winning_from"])
    return sc1bit_synthesize(entry.arena, entry.start, m_max, oracle,
                             depth_cap=depth_cap, node_cap=node_cap)


def test_sc1bit_bitarena_certifies_within_a_small_node_cap():
    # merged layers stay polynomial, so 20000 nodes cover fourteen bubbles
    report = _bitarena_sc1bit(14, node_cap=20000)
    assert report.certified, report.failure
    assert len(report.schedule) == 14


def test_sc1bit_bitarena_certifies_forty_bubbles():
    report = _bitarena_sc1bit(40)
    assert report.certified, report.failure
    assert len(report.schedule) == 40


def test_synthesizers_name_an_exhausted_node_cap():
    report = _bitarena_sc1bit(3, node_cap=5)
    assert not report.certified
    assert "node cap 5 exceeded at depth" in report.failure
    assert "depth cap" not in report.failure
    decomp = decompose(Objective("mp", "limsup", ">=", F(0)))
    report = bubble_synthesize(pos_arena(), A, decomp, 3, finite_mp_oracle(pos_arena()),
                               node_cap=2)
    assert not report.certified
    assert "node cap 2 exceeded at depth" in report.failure


@pytest.mark.parametrize("node_cap, failure", [
    (5, "bubble m=2: node cap 5 exceeded at depth 3"),
    (20, "bubble m=9: node cap 20 exceeded at depth 11"),
    (50, "bubble m=25: node cap 50 exceeded at depth 26"),
    (100, "bubble m=49: node cap 100 exceeded at depth 51"),
])
def test_sc1bit_bitarena_names_the_bubble_and_depth_of_an_exhausted_node_cap(node_cap,
                                                                            failure):
    # the count and the depth are those of a walk from the root, although
    # each bubble's walks resume from the previous boundary
    assert _bitarena_sc1bit(14, node_cap=node_cap).failure == failure


@pytest.mark.parametrize("depth_cap, m, count", [
    (3, 2, 1), (10, 9, 1), (30, 29, 1),
    # a bubble that closes at the cap itself is not cut by it
    (4, 5, 2), (8, 9, 2), (100, 101, 2),
], ids=["3-2", "10-9", "30-29", "4-5", "8-9", "100-101"])
def test_sc1bit_bitarena_names_the_bubble_of_an_exhausted_depth_cap(depth_cap, m, count):
    report = _bitarena_sc1bit(30, depth_cap=depth_cap)
    assert report.failure == "bubble m=%d: depth cap %d exhausted with %d unsatisfied %s" % (
        m, depth_cap, count, "branch" if count == 1 else "branches")


def test_sc1bit_work_grows_linearly_in_m_max(monkeypatch):
    # every walk the synthesizer builds itself (not the re-certification
    # inside koenig_bound), counting the children it creates past the
    # layer it starts from
    import qgames.synthesis as synthesis

    walks = []

    class Counting(synthesis.Layers):
        def __iter__(self):
            walks.append(self)
            layers = super().__iter__()
            start = next(layers)
            self.start_created = self.created
            yield start
            yield from layers

    monkeypatch.setattr(synthesis, "Layers", Counting)

    def children(m_max):
        walks.clear()
        assert _bitarena_sc1bit(m_max).certified
        return sum(walk.created - walk.start_created for walk in walks)

    small, large = children(16), children(32)
    assert large <= 2.3 * small, (small, large)


def test_sc1bit_whole_job_work_grows_linearly_in_m_max(monkeypatch):
    # every walk of the job, the re-certification inside koenig_bound
    # included, counting the children it creates past the layer it starts from
    from qgames import engine

    walks = []
    walk = engine.Layers.__iter__

    def counting(self):
        walks.append(self)
        layers = walk(self)
        start = next(layers)
        self.start_created = self.created
        yield start
        yield from layers

    monkeypatch.setattr(engine.Layers, "__iter__", counting)

    def children(m_max):
        walks.clear()
        assert _bitarena_sc1bit(m_max).certified
        return sum(walk.created - walk.start_created for walk in walks)

    small, large = children(16), children(32)
    assert large <= 2.3 * small, (small, large)


def test_synthesis_does_not_depend_on_which_equal_history_a_walk_keeps(tmp_path, capsys,
                                                                       monkeypatch):
    # any history of least rank is minimal, so the minimal-history and run
    # walks may keep the last of several equal children instead of the
    # first: every report and file stays the same.  The cases are the pool
    # cells and bitarena job where equal children meet.
    import qgames.synthesis as synthesis
    pool = json.loads(POOL.read_text())
    jobs = []
    for cell in ("tp-n10-w2", "tp-n5-w6", "mp-n6-w6", "mp-n8-w2"):
        for k, member in enumerate(pool[cell]):
            path = tmp_path / ("%s-%d.txt" % (cell, k))
            path.write_text(member["arena"])
            jobs.append((str(path), cell[:2], "4"))
    jobs.append(("zoo:bitarena", "tp", "16"))
    out = tmp_path / "out.strategy"

    def synthesized():
        results = []
        for arena, kind, m_max in jobs:
            code = main(["synthesize", "--arena", arena, "--objective", kind + ":limsup:>=:0",
                         "--m-max", m_max, "--out", str(out)])
            results.append((code, capsys.readouterr(), out.exists() and out.read_text()))
            out.unlink(missing_ok=True)
        return results

    first = synthesized()
    replaced = []

    def last_first(layers):
        """``layers`` with merges keeping the last of equal children: the
        walk asks each child's key once, as it creates the child."""
        def walk(*args, **kwargs):
            walk = layers(*args, **kwargs)
            key, rank = walk.key, walk.order or (lambda node: ())
            count, least, number = itertools.count(), {}, {}

            def numbered(node):
                number[node] = next(count)
                k, r = key(node), rank(node)
                if (node.depth, k) in least and r == least[node.depth, k]:
                    replaced.append(k)  # this child replaces the kept one
                least[node.depth, k] = min(least.get((node.depth, k), r), r)
                return k

            walk.key, walk.order = numbered, lambda node: (rank(node), -number[node])
            return walk

        return walk

    monkeypatch.setattr(synthesis, "_minimal_layers", last_first(synthesis._minimal_layers))
    monkeypatch.setattr(synthesis, "_run_layers", last_first(synthesis._run_layers))
    assert synthesized() == first
    assert replaced
    assert sum(code == 0 for code, _, _ in first) > len(jobs) // 2


def _recertified_from_the_root(arena, v0, report, subs, node_cap):
    """Level certificates and failure of a koenig_bound walk from the root
    per scheduled level."""
    certs = []
    for m, k in report.schedule:
        again = koenig_bound(arena, v0, report.strategy, subs(m), k, node_cap)
        if isinstance(again, Inconclusive) and again.node_cap is not None:
            return certs, "level m=%d: %s" % (m, again.reason)
        certs.append((m, k, isinstance(again, KoenigBound) and again.level <= k))
    return certs, None


def _assert_recertified_as_from_the_root(arena, report, subs, member, node_caps):
    assert report.certified, report.failure
    for node_cap in node_caps:
        again = _final_report(arena, arena.start, report.strategy, report.schedule, subs,
                              member, node_cap)
        failure = again.failure if (again.failure or "").startswith("level") else None
        assert (again.level_certs, failure) == _recertified_from_the_root(
            arena, arena.start, report, subs, node_cap), node_cap


def _tp_sub(m):
    return OpenSub("tp-sup", m=m)


def test_sc1bit_recertification_matches_walks_from_the_root_on_bitarena():
    entry = make("bitarena")
    for m_max in range(1, 41):
        _assert_recertified_as_from_the_root(entry.arena, _bitarena_sc1bit(m_max), _tp_sub,
                                             entry.wprime, (None, 7 * m_max))


def _pool_arenas(kind):
    pool = json.loads(POOL.read_text())
    return [parse_arena(member["arena"]) for cell, members in sorted(pool.items())
            if cell.startswith(kind) for member in members]


def test_sc1bit_recertification_matches_walks_from_the_root_on_the_tp_pool():
    arenas = _pool_arenas("tp-")
    assert len(arenas) == 16
    for arena in arenas:
        oracle = finite_wprime_oracle(arena)
        if oracle.wprime(arena.start, F(0)):
            report = sc1bit_synthesize(arena, arena.start, 8, oracle)
            _assert_recertified_as_from_the_root(arena, report, _tp_sub, oracle.wprime,
                                                 (None, 10, 30, 100))


def test_bubble_recertification_matches_walks_from_the_root_on_the_mp_pool():
    # mp-sup step indices run 1, 2, 1, 3, ..., so a level may resume below
    # the layer the previous level resumed from
    decomp = decompose(Objective("mp", "limsup", ">=", F(0)))
    for arena in _pool_arenas("mp-"):
        oracle = finite_mp_oracle(arena)
        if oracle.wprime(arena.start, F(0)):
            report = bubble_synthesize(arena, arena.start, decomp, 4, oracle)
            _assert_recertified_as_from_the_root(arena, report, decomp.sub, oracle.wprime,
                                                 (None, 5, 10, 30, 100))


@pytest.mark.parametrize("node_cap, failure", [
    (4, "level m=5: node cap 4 exceeded at depth 3"),
    (10, "level m=5: node cap 10 exceeded at depth 6"),
    (50, "level m=25: node cap 50 exceeded at depth 26"),
    (117, "region check: node cap 117 exceeded at depth 59"),
    (120, None),
])
def test_final_report_names_the_level_or_region_check_of_an_exhausted_node_cap(node_cap,
                                                                               failure):
    # the synthesis itself runs uncapped; caps 4 and 10 bind before and
    # after the layer that level m=5 resumes from (depth 4)
    entry = make("bitarena")
    report = _bitarena_sc1bit(16)
    again = _final_report(entry.arena, entry.start, report.strategy, report.schedule, _tp_sub,
                          entry.wprime, node_cap)
    assert again.failure == failure
    assert again.region_ok is (True if failure is None else None)


def test_sc1bit_resets_the_bit_on_every_boundary_edge():
    # two histories crossing a boundary on different edges can meet at
    # the same (vertex, bit, total); both edges still reset the bit
    from qgames.engine import explore_consistent

    n = [V("n", (i,)) for i in range(5)]
    arena = ArenaExplicit(
        {n[0]: 2, n[1]: 1, n[2]: 2, n[3]: 1, n[4]: 2},
        [E(n[0], 4, n[3]), E(n[0], 4, n[0]), E(n[0], 6, n[2]), E(n[1], 2, n[0]),
         E(n[1], 4, n[4]), E(n[2], 2, n[2]), E(n[2], 2, n[0]), E(n[3], 3, n[1]),
         E(n[3], 5, n[4]), E(n[3], -2, n[3]), E(n[4], -1, n[2]), E(n[4], 3, n[3])], n[0])
    report = sc1bit_synthesize(arena, n[0], 4, finite_wprime_oracle(arena))
    assert report.certified, report.failure
    sigma = report.strategy
    tree = explore_consistent(arena, n[0], sigma, report.schedule[-1][1])
    for _, k in report.schedule[:-1]:
        crossing = {node.edge for node in tree.levels[k]}
        assert crossing
        for e in crossing:
            assert sigma.bit_update[(k - 1, 0, e)] == sigma.bit_update[(k - 1, 1, e)] == 0


def test_minimal_histories_break_ties_lexicographically():
    # both level-2 histories at d have total 0 and neither satisfies, so
    # the one through the smaller edge index at a (to b) is kept
    arena = ArenaExplicit(
        {A: 2, B: 2, C: 2, D: 2},
        [E(A, 0, B), E(A, 0, C), E(B, 0, D), E(C, 0, D), E(D, 0, D)], A)
    levels = minimal_history_levels(arena, A, Memoryless({}), OpenSub("tp-sup", m=5), 3)
    assert [e.dst for e in levels[2][D].edges()] == [B, D]


def test_minimal_histories_break_ties_on_the_first_differing_edge():
    # a-b-d takes edge indices (0, 1) and a-c-d takes (1, 0): the first
    # edge decides, not the last
    arena = ArenaExplicit(
        {A: 2, B: 2, C: 2, D: 2},
        [E(A, 0, B), E(A, 0, C), E(B, 0, C), E(B, 0, D), E(C, 0, D), E(D, 0, D)], A)
    levels = minimal_history_levels(arena, A, Memoryless({}), OpenSub("tp-sup", m=5), 3)
    assert [e.dst for e in levels[2][D].edges()] == [B, D]


@pytest.mark.parametrize("m_max", [0, -1])
def test_synthesizers_reject_fewer_than_one_bubble(m_max):
    decomp = decompose(Objective("mp", "limsup", ">=", F(0)))
    with pytest.raises(ValueError, match="m_max must be at least 1"):
        bubble_synthesize(pos_arena(), A, decomp, m_max, finite_mp_oracle(pos_arena()))
    with pytest.raises(ValueError, match="m_max must be at least 1"):
        sc1bit_synthesize(pos_arena(), A, m_max, finite_wprime_oracle(pos_arena()))


def test_bubble_synthesize_names_an_exhausted_depth_cap():
    decomp = decompose(Objective("mp", "limsup", ">=", F(0)))
    report = bubble_synthesize(pos_arena(), A, decomp, 3, finite_mp_oracle(pos_arena()),
                               depth_cap=1)
    assert report.failure == "bubble 2: depth cap 1 exhausted with 1 unsatisfied branch"


# the maximizer must leave a's losing loop for the b-c cycle of mean 1/2;
# the opponent at c pays -1 or +1, so histories reach a vertex with several totals
LEAVE_A_LOOP = ArenaExplicit({A: 1, B: 1, C: 2},
                             [E(A, -1, A), E(A, 0, B), E(B, 2, C), E(B, -1, B), E(C, -1, B),
                              E(C, 1, A)], A)


@pytest.mark.parametrize("arena", [pos_arena(), LEAVE_A_LOOP], ids=["pos", "leave_a_loop"])
def test_bubble_synthesize_reads_a_hand_built_uniform_oracle(arena):
    vm = solve_values(arena, "mp")
    oracle = WPrimeOracle(lambda v, r: vm.values[v] >= 0, vm.witness,
                          lambda v, r: vm.witness)
    decomp = decompose(Objective("mp", "limsup", ">=", F(0)))
    built = bubble_synthesize(arena, arena.start, decomp, 4, finite_mp_oracle(arena))
    report = bubble_synthesize(arena, arena.start, decomp, 4, oracle)
    assert report.certified and built.certified
    assert report.schedule == built.schedule
    assert serialize_strategy(report.strategy) == serialize_strategy(built.strategy)


def test_a_strategy_starts_in_its_initial_state():
    assert StepCounterTable({}, 3).initial == (0, 0)
    oracle = finite_mp_oracle(LEAVE_A_LOOP)
    for boundary in (0, 2):
        comp = StepCounterTable({}, boundary, tail=oracle.winning_from(A, 0))
        root, = next(iter(Layers(LEAVE_A_LOOP, A, comp, 1)))
        assert comp.initial is not None and root.state == comp.initial
    # before its boundary a composite's state is its table's own
    assert comp.initial == (0, 0)


S, X = V("s"), V("x")
# the opponent at s reaches x with a total of 0 or 1; player 1 keeps x or leaves it
TWO_TOTALS = ArenaExplicit({S: 2, X: 1}, [E(S, 0, X), E(S, 1, X), E(X, 0, X), E(X, 1, S)], S)


@pytest.mark.parametrize("oracle", [finite_wprime_oracle, finite_mp_oracle], ids=["tp", "mp"])
def test_a_koenig_walk_over_a_composite_holds_one_node_per_vertex_under_either_oracle(oracle):
    # the continuation wins from every pair of the region, so the state
    # past the boundary keeps no running total for histories to differ on
    comp = StepCounterTable({}, 3, tail=oracle(TWO_TOTALS).winning_from(S, 0))
    widths = [len(layer) for layer in koenig_layers(TWO_TOTALS, S, comp, 8)]
    assert widths == [1] * 9


def test_a_synthesis_asks_the_oracle_once_at_the_start_pair():
    entry = make("bitarena")
    asked = []

    def winning_from(vertex, total):
        asked.append((vertex, total))
        return entry.extras["winning_from"](vertex, total)

    oracle = WPrimeOracle(entry.wprime, entry.strategies["safe"], winning_from)
    report = sc1bit_synthesize(entry.arena, entry.start, 6, oracle)
    assert report.certified
    # one continuation for all six bubbles' composites
    assert asked == [(entry.start, 0)]


@pytest.mark.parametrize("boundary", [0, 3])
def test_a_koenig_walk_over_a_composite_under_a_uniform_oracle_holds_one_node_per_vertex(boundary):
    comp = StepCounterTable({}, boundary, tail=finite_mp_oracle(LEAVE_A_LOOP).winning_from(A, 0))
    layers = list(koenig_layers(LEAVE_A_LOOP, A, comp, 12))
    assert all(len(layer) == len({node.vertex for node in layer}) for layer in layers)
    # unmerged, some layer holds two histories to one vertex
    tree = explore_consistent(LEAVE_A_LOOP, A, comp, 12).levels
    assert any(len(level) > len({node.vertex for node in level}) for level in tree)
