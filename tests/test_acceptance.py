"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line on success; failures surface as
ordinary assertion errors with context.
"""

import hashlib
import itertools
import random
import time
import zlib
from fractions import Fraction

import pytest

from qgames.adversaries import defeat_sc_on_A3, ramsey_adversary
from qgames.arena import (ArenaExplicit, Edge, History, MealyMemory, VertexId)
from qgames.cli import main as cli_main
from qgames.engine import (Divergence, EarlyExitNegative, check_certificate,
                           play)
from qgames.objectives import Lasso, Objective, OpenSub, lasso_limit, decompose
from qgames.strategies import FIRST_EDGE, FiniteMemory, Memoryless, StepCounterTable
from qgames.synthesis import (brute_force_values, bubble_synthesize, finite_mp_oracle,
                              minimal_history_levels, sc1bit_synthesize,
                              sc_from_strategy, solve_values, WPrimeOracle)
from qgames.zoo import a4_router, make

from history_scans import scanning
from oracles import (BOTH, GE, LE, already_satisfies, decide, domination_holds, eval_on_lasso,
                     prefix_compare)

F = Fraction
V = VertexId


def _ok(n, msg):
    print("criterion %d: PASS - %s" % (n, msg))


# ---------------------------------------------------------------------------
# 1. A4 path-length invariant


def test_criterion_01_a4_path_lengths():
    t0 = time.monotonic()
    entry = make("a4")
    arena = entry.arena
    depths = {}
    frontier = {entry.start}
    for d in range(3 * 13 + 1):
        nxt = set()
        for v in frontier:
            depths.setdefault(v, set()).add(d)
            if v.name == "r0":
                continue
            for e in arena.edges(v):
                nxt.add(e.dst)
        frontier = nxt
    for v in frontier:
        depths.setdefault(v, set()).add(3 * 13 + 1)
    for k in range(13):
        assert depths[V("t", (k,))] == {3 * (k + 1)}, k
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    _ok(1, "every path to the k-th decision vertex has length 3(k+1), "
           "k <= 12, in %.2fs" % elapsed)


# ---------------------------------------------------------------------------
# Fast structural walker for A4 (used by criteria 2 and 3)


def _walk_a4(arena, entry_k, gaps, delay_budget):
    """Walk the unique play where P2 enters at entry_k and stretches the
    c-th delay by gaps[c], while P1 takes delay_budget delays then exits.
    Returns (tp at first decision vertex, final tp, steps)."""
    v = V("s", (0,))
    tp = F(0)
    delays = 0
    entry_tp = None
    steps = 0
    while True:
        if v.name == "r0":
            return entry_tp, tp, steps
        if v.name == "s":
            want = "s" if v.params[0] < entry_k else "d"
        elif v.name == "t":
            if entry_tp is None:
                entry_tp = tp
            want = "g" if delays < delay_budget else "r0"
            if want == "g":
                delays += 1
        elif v.name == "g":
            want = "g" if v.params[1] < gaps[delays - 1] else "dr"
        else:
            want = None  # single edge
        es = arena.edges(v)
        if want is None:
            e = es[0]
        else:
            e = next(x for x in es if x.dst.name == want)
        tp += e.weight
        v = e.dst
        steps += 1
        assert steps < 5000


def test_criterion_02_a4_payoff_formula():
    entry = make("a4")
    rng = random.Random(42)
    for _ in range(200):
        i = rng.randint(0, 10)
        k = rng.randint(0, 6)
        gaps = [rng.randint(1, 5) for _ in range(max(k, 1))]
        entry_tp, final_tp, _ = _walk_a4(entry.arena, i, gaps, k)
        assert entry_tp == F(-2 * (i + 1))
        assert final_tp - entry_tp == F(i + k + 1), (i, k, gaps)
    _ok(2, "TP gained from the i-th decision vertex to the sink is exactly "
           "i+k+1 over 200 samples")


def test_criterion_03_a4_adaptive_wins():
    entry = make("a4")
    arena = entry.arena
    count = 0
    for k in range(7):
        for gaps in itertools.product(range(1, 5), repeat=k + 1):
            # the adaptive rule takes entry+1 delays then exits
            entry_tp, final_tp, _ = _walk_a4(arena, k, list(gaps), k + 1)
            assert entry_tp == F(-2 * (k + 1))
            assert final_tp == F(0), (k, gaps)
            count += 1
    # never-exit branches: the opponent climbs the gadget forever and the
    # total payoff grows monotonically within it
    for k in range(7):
        v = V("s", (0,))
        tp, trace = F(0), []
        for _ in range(80):
            es = arena.edges(v)
            if v.name == "s":
                e = next(x for x in es if x.dst.name == ("s" if v.params[0] < k else "d"))
            elif v.name == "t":
                e = next(x for x in es if x.dst.name == "g")
            elif v.name == "g":
                e = next(x for x in es if x.dst.name == "g")
            else:
                e = es[0]
            tp += e.weight
            trace.append(tp)
            v = e.dst
        tail = trace[-30:]
        assert all(b > a for a, b in zip(tail, tail[1:]))
    _ok(3, "adaptive play exits with TP exactly 0 on all %d exit branches; "
           "never-exit branches climb monotonically" % count)


# ---------------------------------------------------------------------------
# 4. Ramsey adversary completeness at desk scale


def _random_fm(seed, K):
    def h(*parts):
        return zlib.crc32(("|".join(map(str, parts)) + "#%d" % seed).encode())

    def update(m, e):
        return h("u", m, e.src, e.dst, e.weight) % K

    def decide(ar, v, m):
        if v.name != "t":
            return ar.edges(v)[0]
        want = "r0" if h("d", v, m) % 2 else "g"
        return next(e for e in ar.edges(v) if e.dst.name == want)

    return FiniteMemory(MealyMemory(tuple(range(K)), 0, update), decide,
                        name="rand%d" % seed)


def test_criterion_04_ramsey_desk_scale():
    t0 = time.monotonic()
    entry = make("a4")
    strategies = [entry.strategy("delay_twice_exit")]
    rng = random.Random(7)
    strategies += [_random_fm(rng.randint(0, 10 ** 6), rng.randint(1, 3))
                   for _ in range(50)]
    for sigma in strategies:
        plan, result = ramsey_adversary(sigma, entry, window=400)
        cert = result.certificate
        assert isinstance(cert, (EarlyExitNegative, Divergence)), sigma.name
        if isinstance(cert, EarlyExitNegative):
            assert cert.final_tp < 0
        ctx = {"arena": entry.arena, "v0": entry.start,
               "sigma1": sigma, "sigma2": result.p2}
        assert check_certificate(cert, ctx).ok, sigma.name
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _ok(4, "all 51 finite-memory strategies defeated with verified "
           "certificates in %.1fs" % elapsed)


# ---------------------------------------------------------------------------
# 5. A3 claims


def test_criterion_05_a3_claims():
    entry = make("a3")
    sigma = entry.strategy("delay_twice_exit")
    for i in range(16):
        record = play(entry.arena, entry.start, sigma,
                      entry.strategy("p2_enter_%d" % i), 400)
        assert record.termination == "sink"
        assert record.final_tp >= F(1), i

    rng = random.Random(13)
    t_edges = {}
    for i in range(13):
        t = V("t", (i,))
        for e in entry.arena.edges(t):
            t_edges[(i, e.dst.name)] = e
    for n in range(50):
        table = {}
        for i in range(13):
            if rng.random() < 0.5:
                table[(V("t", (i,)), 3 * i + 1, 0)] = t_edges[(i, "r0")]
        sc = StepCounterTable(table, 40, FIRST_EDGE, name="sampled%d" % n)
        result = defeat_sc_on_A3(sc, entry)
        cert = result.certificate
        assert cert is not None, n
        if isinstance(cert, EarlyExitNegative):
            assert cert.final_tp < 0
        else:
            assert isinstance(cert, Divergence)
            assert cert.mode == "stagnation" and cert.ceiling <= F(-1)
        ctx = {"arena": entry.arena, "v0": entry.start,
               "sigma1": sc, "sigma2": result.p2}
        assert check_certificate(cert, ctx).ok, n
    _ok(5, "delay-twice-exit banks >= 1 for entries i <= 15; 50 sampled "
           "step-counter tables all defeated with verified certificates")


# ---------------------------------------------------------------------------
# 6. Step-counter conversion domination


def test_criterion_06_domination_to_depth_24():
    entry = make("bitarena")
    sigma = entry.strategy("opposite")
    depth = 24
    checked = 0
    for m in (1, 2, 3):
        sub = OpenSub("tp-sup", m=m)
        levels = minimal_history_levels(entry.arena, entry.start, sigma, sub, depth)
        sc = sc_from_strategy(entry.arena, entry.start, sigma, sub, depth)
        byl = [[History(entry.start)]]
        for d in range(depth):
            nxt = []
            for h in byl[d]:
                v = h.to_vertex
                if entry.arena.owner(v) == 1:
                    moves = [decide(entry.arena, sc, h)]
                else:
                    moves = list(entry.arena.edges(v))
                nxt.extend(History(entry.start, h.edges + (e,)) for e in moves)
            byl.append(nxt)
        assert domination_holds(entry.arena, entry.start, sub, levels, byl)
        checked += sum(len(hs) for hs in byl)
    _ok(6, "minimal histories dominate all %d consistent histories to "
           "depth 24 for m <= 3" % checked)


# ---------------------------------------------------------------------------
# 7. Bubble synthesis over random arenas


def _random_arena(rng, n=6):
    vs = [V("n", (i,)) for i in range(rng.randint(2, n))]
    owners = {v: rng.choice((1, 2)) for v in vs}
    edges = []
    for v in vs:
        for _ in range(rng.randint(1, 2)):
            edges.append(Edge(v, F(rng.randint(-2, 2)), rng.choice(vs)))
    return ArenaExplicit(owners, edges, vs[0])


def test_criterion_07_bubble_synthesis_batch():
    t0 = time.monotonic()
    rng = random.Random(2024)
    decomp = decompose(Objective("mp", "limsup", ">=", F(0)))
    done = 0
    while done < 100:
        arena = _random_arena(rng)
        bf = brute_force_values(arena, "mp")
        if bf is None or bf[arena.start] < 0:
            continue
        oracle = finite_mp_oracle(arena)
        report = bubble_synthesize(arena, arena.start, decomp, 4, oracle)
        assert report.certified, (done, report.failure, report.level_certs)
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _ok(7, "bubble synthesis certified all 100 winning random arenas "
           "(m_max=4) in %.1fs" % elapsed)


# ---------------------------------------------------------------------------
# 8. SC+1-bit synthesis on BitArena, and step counters alone losing


def test_criterion_08_sc1bit_and_step_counter_defeats():
    entry = make("bitarena")
    oracle = WPrimeOracle(entry.wprime, entry.strategy("safe"),
                          entry.extras["winning_from"])
    report = sc1bit_synthesize(entry.arena, entry.start, 3, oracle)
    assert report.certified
    assert len(report.schedule) == 3
    assert report.region_ok

    # every pure step-counter table over rounds 1..5 loses: the opponent
    # mirrors the table's round choice, so no round ever touches 0 again
    arena = entry.arena
    u_edges = {}
    for i in range(1, 16):
        for e in arena.edges(V("u", (i,))):
            u_edges[(i, e.dst.name)] = e
    for bits in itertools.product("zc", repeat=5):
        table = {}
        for i, b in enumerate(bits, start=1):
            table[(V("u", (i,)), 4 * i - 1, 0)] = u_edges[(i, "u" + b)]
        sc = StepCounterTable(table, 20, FIRST_EDGE, name="rounds5")

        def choice(i):
            return bits[i - 1] if i <= 5 else "c"  # fallback is the climb edge

        def mirror(ar, h):
            v = h.to_vertex
            if v.name == "v" and len(ar.edges(v)) > 1:
                want = "v" + choice(v.params[0])
                return next(e for e in ar.edges(v) if e.dst.name == want)
            return ar.edges(v)[0]

        p2 = scanning("mirror", mirror, player=2)
        record = play(arena, entry.start, sc, p2, 80)
        starts = [4 * i - 3 for i in range(12, 19)]
        spikes = max(
            max(record.tp_at(s) for s in range(a, b + 1)) - record.tp_at(a)
            for a, b in zip(starts, starts[1:]))
        cert = Divergence("decrease", starts, 80, decrease=F(1),
                          elevation=spikes, ceiling=F(0), cycle_from=0)
        ctx = {"arena": arena, "v0": entry.start, "sigma1": sc, "sigma2": p2}
        assert check_certificate(cert, ctx).ok, bits
    _ok(8, "sc+1bit certified 3 bubbles with the region preserved; all 32 "
           "round-5 step-counter tables diverge under the mirroring opponent")


# ---------------------------------------------------------------------------
# 9. Objective oracle equivalence


def test_criterion_09_lasso_oracle_equivalence():
    rng = random.Random(99)
    variants = [Objective(kind, mode, rel, F(rng2))
                for kind in ("tp", "mp") for mode in ("limsup", "liminf")
                for rel, rng2 in ((">", 0), (">=", 0))]
    assert len(variants) == 8
    for _ in range(200):
        prefix = tuple(F(rng.randint(-3, 3)) for _ in range(rng.randint(0, 5)))
        cycle = tuple(F(rng.randint(-3, 3)) for _ in range(rng.randint(1, 6)))
        lasso = Lasso(prefix, cycle)
        word = lasso.unroll(10 ** 4)
        # every weight is integral, so the partial sums are exact as ints
        assert all(w.denominator == 1 for w in word)
        sums = list(itertools.accumulate(w.numerator for w in word))
        c = len(cycle)
        csum = sum(cycle)
        window = sums[-2 * c:]
        for obj in variants:
            if obj.kind == "tp":
                if csum > 0:
                    limit = float("inf")
                elif csum < 0:
                    limit = float("-inf")
                else:
                    tail = window[-c:]
                    limit = max(tail) if obj.mode == "limsup" else min(tail)
            else:
                limit = F(sums[-1] - sums[-1 - c], c)
            if isinstance(limit, float):
                sim = limit > obj.threshold
            elif obj.relation == ">":
                sim = limit > obj.threshold
            else:
                sim = limit >= obj.threshold
            assert eval_on_lasso(obj, lasso) == sim, (obj, lasso)
    _ok(9, "eval_on_lasso matches the 10^4-step partial-sum limit on 200 "
           "lassos for all 8 objective variants")


# ---------------------------------------------------------------------------
# 10. Property suites and CLI determinism


def _rand_word(rng, n):
    return tuple(F(rng.randint(-3, 3)) for _ in range(n))


def test_criterion_10_property_suites(tmp_path, capsys):
    rng = random.Random(4)
    families = [OpenSub("mp-sup", m=2, i=2), OpenSub("tp-inf", m=2, i=1),
                OpenSub("tp-sup", m=3), OpenSub("buchi", colour=F(1), i=2)]
    for sub in families:
        for _ in range(1000):
            n = rng.randint(1, 7)
            w1, w2, w3 = (_rand_word(rng, n) for _ in range(3))
            r12 = prefix_compare(sub, w1, w2)
            assert r12 in (LE, GE, BOTH)
            r23 = prefix_compare(sub, w2, w3)
            if r12 in (LE, BOTH) and r23 in (LE, BOTH):
                assert prefix_compare(sub, w1, w3) in (LE, BOTH)
            tail = _rand_word(rng, rng.randint(1, 3))
            if r12 in (LE, BOTH) and not already_satisfies(sub, w1 + tail):
                assert prefix_compare(sub, w1 + tail, w2 + tail) in (LE, BOTH)

    for _ in range(1000):
        word = _rand_word(rng, rng.randint(0, 8))
        ext = word + _rand_word(rng, rng.randint(1, 4))
        for sub in families:
            if already_satisfies(sub, word):
                assert already_satisfies(sub, ext)

    for _ in range(100):
        arena = _random_arena(rng, n=4)
        for family in ("mp", "tpsup"):
            vm = solve_values(arena, family)
            assert vm.values == brute_force_values(arena, family)

    # CLI determinism: every command run twice produces identical output
    arena_path = tmp_path / "pos.txt"
    arena_path.write_text(
        "arena pos\nvertex a owner=1\nvertex b owner=2\n"
        "edge a b weight=1\nedge b a weight=-1\nedge b b weight=0\nstart a\n")
    t2, r0 = V("t", (2,)), V("r0")
    sc = StepCounterTable({(t2, 7, 0): Edge(t2, F(2), r0)}, 8, FIRST_EDGE,
                          name="exit2")
    from qgames.strategies import serialize_strategy
    strat_path = tmp_path / "exit2.strategy"
    strat_path.write_text(serialize_strategy(sc))
    cert_path = tmp_path / "cert.json"

    runs = [
        ["validate", "--arena", str(arena_path)],
        ["simulate", "--arena", "zoo:bitarena", "--p1", "opposite",
         "--p2", "allzero", "--horizon", "16"],
        ["defeat", "--arena", "zoo:a3", "--strategy", str(strat_path),
         "--out", str(cert_path)],
        ["verify", "--arena", "zoo:a3", "--cert", str(cert_path),
         "--p1", str(strat_path), "--p2", "p2_enter_2"],
        ["synthesize", "--arena", str(arena_path), "--objective",
         "tp:limsup:>=:0", "--m-max", "2"],
        ["zoo", "list"],
        ["zoo", "export", "--arena", "zoo:a4", "--depth", "5"],
        ["bench"],
    ]
    for argv in runs:
        digests = []
        for _ in range(2):
            code = cli_main(argv)
            out = capsys.readouterr().out
            assert code == 0, (argv, out)
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert digests[0] == digests[1], argv
    _ok(10, "prefix-order properties (4000 pairs), monotonicity (1000), "
            "value-solver brute-force agreement (100 arenas), and CLI "
            "determinism hashes all hold")
