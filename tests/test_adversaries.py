import zlib
from fractions import Fraction

import pytest

from qgames.adversaries import (AdversaryPlan, DefeatResult, defeat_a1prime, defeat_a2,
                                defeat_sc_buchi, defeat_sc_on_A3, ramsey_adversary)
from qgames.arena import Edge, LetterMemory, MealyMemory, VertexId
from qgames.engine import (ColourStarvation, Divergence, EarlyExitNegative,
                           Inconclusive, check_certificate)
from qgames.strategies import (ERROR, FIRST_EDGE, FiniteMemory, HorizonExceeded, Memoryless,
                               StepCounterTable, Strategy)
from qgames.zoo import make

F = Fraction
V = VertexId


def _pick_weight(w):
    def choose(ar, v):
        for e in ar.edges(v):
            if e.weight == F(w):
                return e
        return ar.edges(v)[0]

    return choose


def _ctx(entry, result):
    return {"arena": entry.arena, "v0": entry.start,
            "sigma1": None, "sigma2": result.p2}


def test_defeat_memoryless_always_three_on_a1prime():
    entry = make("a1prime", b=8)
    sigma = Memoryless(_pick_weight(3), name="always3")
    result = defeat_a1prime(sigma, entry)
    assert not result.partial
    assert isinstance(result.certificate, Divergence)
    assert result.certificate.mode == "decrease"
    # the opponent owes one more than the fixed reply
    assert result.record.edges[0].weight == F(-4)
    ctx = _ctx(entry, result)
    ctx["sigma1"] = sigma
    assert check_certificate(result.certificate, ctx).ok


def test_defeat_two_state_alternator_on_a1prime():
    entry = make("a1prime", b=8)
    mealy = MealyMemory((0, 1), 0,
                        lambda m, e: 1 - m if e.src == V("t") else m)

    def decide(ar, v, m):
        if v != V("t"):
            return ar.edges(v)[0]
        return _pick_weight(1 if m == 0 else 5)(ar, v)

    sigma = FiniteMemory(mealy, decide, name="alternator")
    result = defeat_a1prime(sigma, entry)
    assert isinstance(result.certificate, Divergence)
    # challenges track the state-dependent replies 1 and 5
    challenges = [e.weight for e in result.record.edges if e.src == V("s")]
    assert challenges[:4] == [F(-2), F(-6), F(-2), F(-6)]
    ctx = {"arena": entry.arena, "v0": entry.start,
           "sigma1": sigma, "sigma2": result.p2}
    assert check_certificate(result.certificate, ctx).ok


def test_defeat_fm_match_truncation_cap_is_partial():
    entry = make("a1prime", b=8)
    sigma = Memoryless(_pick_weight(8), name="always_top")
    result = defeat_a1prime(sigma, entry)
    assert result.partial
    assert result.certificate is None
    assert any("cap" in n or "failed" in n for n in result.notes)


def test_defeat_fm_match_guards():
    for defeat, entry in ((defeat_a1prime, make("a1prime")), (defeat_a2, make("a2"))):
        with pytest.raises(ValueError, match="^only finite-memory strategies"):
            defeat(entry.strategy("match_plus_one"), entry)


def test_defeat_fm_match_on_a2():
    entry = make("a2")
    sigma = Memoryless(lambda ar, v: ar.edges(v)[0], name="first")
    result = defeat_a2(sigma, entry)
    assert result.certificate is not None
    ctx = {"arena": entry.arena, "v0": entry.start,
           "sigma1": sigma, "sigma2": result.p2}
    assert check_certificate(result.certificate, ctx).ok


def _descend_forever(states):
    """A responder on a2 that never leaves the descending chain, with a
    memory stepping through ``states`` states on every edge."""
    def decide(ar, v, m):
        if v.name == "b":
            return next(e for e in ar.edges(v) if e.dst.name == "b")
        return ar.edges(v)[0]

    mealy = MealyMemory(tuple(range(states)), 0, lambda m, e: (m + 1) % states)
    return FiniteMemory(mealy, decide, name="descend_forever")


@pytest.mark.parametrize("states", [1, 2])
def test_defeat_fm_match_certifies_an_endless_descent_on_a2(states):
    # every probed challenge is answered by descending past the cap, so the
    # opponent dives at once and the rounds are taken along the descent,
    # between boundaries that share the responder's memory state
    entry = make("a2")
    sigma = _descend_forever(states)
    result = defeat_a2(sigma, entry)
    assert result.notes == ["responder never exits the descending chain"]
    assert not result.partial
    cert = result.certificate
    assert isinstance(cert, Divergence) and cert.mode == "decrease"
    assert cert.round_starts[:3] == [2, 2 + states, 2 + 2 * states]
    assert [e.dst for e in result.record.edges[:2]] == [V("a", (0, 1)), V("b", (0, 0))]
    ctx = {"arena": entry.arena, "v0": entry.start,
           "sigma1": sigma, "sigma2": result.p2}
    assert check_certificate(cert, ctx).ok


def _exit_every_third_step(horizon):
    """A step-counter table on buchib exiting the decision vertex at steps
    1, 4, 7, ... below its horizon and looping there at every other step;
    from the horizon on, ``fallback=first`` exits at every step."""
    v, u = V("v", ()), V("u", ())
    table = {(v, s, 0): Edge(v, F(0), u) if s % 3 == 1 else Edge(v, F(1), v)
             for s in range(horizon)}
    return StepCounterTable(table, horizon, name="exit_every_third_step")


@pytest.mark.parametrize("horizon, after, closure", [(60, 58, 62), (200, 199, 202),
                                                     (600, 598, 602)])
def test_defeat_sc_buchi_claims_the_lasso_past_an_every_third_step_exit(horizon, after,
                                                                        closure):
    # padded by one step, each exit at 3k+1 returns to v at 3k+3, which
    # loops; past the last row every arrival exits, and the lasso closes
    # two steps after the play passes it
    entry = make("buchib", b=6)
    sigma = _exit_every_third_step(horizon)
    result = defeat_sc_buchi(sigma, entry)
    assert isinstance(result, DefeatResult)
    assert result.p2 is entry.strategy("pad_1")
    assert result.notes == ["the lasso closes at step %d; colour 1 does not occur from step %d on"
                            % (closure, after)]
    assert [e.dst for e in result.record.edges[1:5]] == \
        [V("u", ()), V("v", ()), V("v", ()), V("u", ())]
    cert = result.certificate
    assert cert == ColourStarvation(1, after, closure)
    ctx = {"arena": entry.arena, "v0": entry.start,
           "sigma1": sigma, "sigma2": result.p2}
    check = check_certificate(cert, ctx)
    assert check.ok
    assert check.diagnostics == ["colour 1 absent after step %d; the lasso closes at step %d, "
                                 "repeating steps %d to %d forever"
                                 % (after, closure, closure - 2, closure)]


def _a3_table(name, exits):
    # every history reaches a3's decision vertex t(i) at step 3i+1; the
    # table exits where exits(i) holds and delays elsewhere, at every
    # step below the default defeat horizon 400
    arena = make("a3").arena
    table = {}
    for i in range(133):
        t = V("t", (i,))
        table[(t, 3 * i + 1, 0)] = next(e for e in arena.edges(t)
                                     if (e.dst.name == "r0") == exits(i))
    return StepCounterTable(table, 400, FIRST_EDGE, name=name)


def _exit_from(index):
    return _a3_table("exit_from_%d" % index, lambda i: i >= index)


def test_defeat_sc_on_a3_enters_at_the_exit_step():
    entry = make("a3")
    result = defeat_sc_on_A3(_exit_from(2), entry)
    assert isinstance(result, DefeatResult)
    cert = result.certificate
    assert isinstance(cert, EarlyExitNegative)
    assert cert.final_tp == F(-1)
    ctx = {"arena": entry.arena, "v0": entry.start,
           "sigma1": _exit_from(2), "sigma2": result.p2}
    assert check_certificate(cert, ctx).ok


def test_defeat_sc_on_a3_never_exit_stagnates():
    entry = make("a3")
    sigma = _a3_table("never_exit", lambda i: False)
    result = defeat_sc_on_A3(sigma, entry)
    assert isinstance(result, DefeatResult)
    cert = result.certificate
    assert isinstance(cert, Divergence)
    assert cert.mode == "stagnation" and cert.ceiling == F(-1)
    ctx = {"arena": entry.arena, "v0": entry.start,
           "sigma1": sigma, "sigma2": result.p2}
    assert check_certificate(cert, ctx).ok


def test_defeat_sc_on_a3_rejects_history_dependent_strategies():
    entry = make("a3")
    with pytest.raises(ValueError):
        defeat_sc_on_A3(entry.strategy("delay_twice_exit"), entry)
    with pytest.raises(ValueError):
        defeat_sc_on_A3(Strategy("free", None, lambda last, e: e,
                                 lambda ar, v, last: ar.edges(v)[0]), entry)


def test_ramsey_defeats_always_delay():
    entry = make("a4")
    sigma = entry.strategy("always_delay")
    plan, result = ramsey_adversary(sigma, entry)
    assert isinstance(plan, AdversaryPlan)
    assert isinstance(result.certificate, Divergence)
    ctx = {"arena": entry.arena, "v0": entry.start,
           "sigma1": sigma, "sigma2": result.p2}
    assert check_certificate(result.certificate, ctx).ok


def test_ramsey_defeats_delay_twice_exit():
    entry = make("a4")
    sigma = entry.strategy("delay_twice_exit")
    plan, result = ramsey_adversary(sigma, entry)
    cert = result.certificate
    assert isinstance(cert, EarlyExitNegative)
    # entering at depth ell costs -2(ell+1); two stretched delays and the
    # final exit recover at most 2 + (ell') + 1 short of the debt
    assert cert.final_tp == F(-plan.entry + 1)
    ctx = {"arena": entry.arena, "v0": entry.start,
           "sigma1": sigma, "sigma2": result.p2}
    assert check_certificate(cert, ctx).ok


def test_ramsey_defeats_delay_twice_exit_on_the_guarded_arena():
    # the guard edge adds +1 to every play, so the exit lands one above
    # a4's total; any negative total still defeats the strategy
    entry = make("a4guarded")
    sigma = entry.strategy("delay_twice_exit")
    plan, result = ramsey_adversary(sigma, entry)
    cert = result.certificate
    assert isinstance(cert, EarlyExitNegative)
    assert (plan.entry, cert.final_tp, cert.steps) == (3, F(-1), 26)
    assert result.notes == ["exited after 2 delays from entry 3"]
    ctx = {"arena": entry.arena, "v0": entry.start,
           "sigma1": sigma, "sigma2": result.p2}
    assert check_certificate(cert, ctx).ok


def test_ramsey_certifies_a_late_exit_beyond_the_clique():
    # the memory toggles on every delay and the strategy exits in state 1
    # only from t(12) on, so no exit is predicted on the clique below 12;
    # cycling its gaps exits at t(15) after 5 delays from entry 5, total -1
    def decide(ar, v, m):
        if v.name != "t":
            return ar.edges(v)[0]
        exits = m == 1 and v.params[0] >= 12
        return next(e for e in ar.edges(v) if (e.dst.name == "r0") == exits)

    sigma = FiniteMemory(MealyMemory((0, 1), 0, lambda m, e: (
        1 - m if e.src.name == "t" and e.dst.name == "g" else m)), decide, name="late")
    entry = make("a4")
    plan, result = ramsey_adversary(sigma, entry, window=24)
    assert (plan.entry, plan.routing) == (5, [5, 7, 9, 11])
    assert result.notes == ["late exit beyond the clique from entry 5"]
    assert result.certificate == EarlyExitNegative(F(-1), F(0), 49)
    ctx = {"arena": entry.arena, "v0": entry.start,
           "sigma1": sigma, "sigma2": result.p2}
    assert check_certificate(result.certificate, ctx).ok


def test_ramsey_guards_and_no_clique():
    entry = make("a4")
    with pytest.raises(ValueError):
        ramsey_adversary(entry.strategy("adaptive"), entry)
    with pytest.raises(Inconclusive, match="of size 3 within window 1;"):
        ramsey_adversary(entry.strategy("always_delay"), entry, window=1)


def _buchib_table(entry, name, exits, fallback=FIRST_EDGE):
    # exits at the steps where exits(step) holds and loops elsewhere, past
    # the longest padding and one
    v = V("v", ())
    table = {(v, step, 0): next(e for e in entry.arena.edges(v)
                             if (e.dst.name == "u") == exits(step))
             for step in range(607)}
    return StepCounterTable(table, 607, fallback, name=name)


def test_defeat_sc_buchi_starves_the_loop_colour():
    entry = make("buchib", b=6)
    sigma = _buchib_table(entry, "always_exit", lambda step: True)
    result = defeat_sc_buchi(sigma, entry)
    assert isinstance(result, DefeatResult)
    cert = result.certificate
    assert isinstance(cert, ColourStarvation)
    assert cert.colour == F(1)
    # v at the even steps, u at the odd ones: past the last row at 606 the
    # lasso closes from u at 607 to u at 609
    assert (cert.after_step, cert.horizon) == (0, 609)
    ctx = {"arena": entry.arena, "v0": entry.start,
           "sigma1": sigma, "sigma2": result.p2}
    assert check_certificate(cert, ctx).ok


def test_defeat_sc_buchi_stops_an_error_table_at_its_first_missing_cell():
    # the table exits once and loops through step 606; at 607 it has no
    # cell, and fallback=error refuses to play on
    entry = make("buchib", b=6)
    sigma = _buchib_table(entry, "exit_once", lambda step: step == 0, ERROR)
    with pytest.raises(HorizonExceeded,
                       match="^no table entry for v at step 607 and fallback is 'error'$"):
        defeat_sc_buchi(sigma, entry)


def test_defeat_sc_buchi_guards():
    entry = make("buchib")
    with pytest.raises(ValueError):
        defeat_sc_buchi(entry.strategy("alternating"), entry)


def _entry_state_by_walk(sigma, entry, ell0):
    # reference: walk the generator from the start, entering at ell0
    arena = entry.arena
    state = sigma.initial
    v = entry.start
    while v.name != "t":
        if v.name == "s" and v.params[0] >= 0:
            dst = "s" if v.params[0] < ell0 else "d"
            e = next(e for e in arena.edges(v) if e.dst.name == dst)
        else:
            e = arena.edges(v)[0]
        state = sigma.step_state(state, e)
        v = e.dst
    return state


def test_ramsey_entry_states_match_the_per_index_walk():
    from qgames.adversaries import _entry_states

    # a memory that folds every edge's endpoints and weight, so a wrong
    # descent edge in the closed form changes the state
    def fold(m, e):
        return (m * 7 + 3 * sum(e.src.params) + sum(e.dst.params) + int(e.weight)) % 5

    for name in ("a4", "a4guarded"):
        entry = make(name)
        folding = FiniteMemory(MealyMemory(range(5), 0, fold),
                               lambda ar, v, m: ar.edges(v)[0], name="fold")
        for sigma in (entry.strategy("always_delay"), entry.strategy("delay_twice_exit"),
                      folding):
            lookup = _entry_states(sigma, entry)
            order = [7, 0, 3, 40, 1] + list(range(45))
            assert [lookup(i) for i in order] == \
                [_entry_state_by_walk(sigma, entry, i) for i in order], (name, sigma.name)


def test_ramsey_entry_fold_feeds_the_arenas_own_descent_edges():
    # the descent is built as it is folded: it must be the arena's rows
    # edge by edge, named tuples with int weights, for every entry index
    from qgames.adversaries import _entry_states

    for name in ("a4", "a4guarded"):
        entry = make(name)
        fed = []

        def record(m, e):
            fed.append(e)
            return m

        sigma = FiniteMemory(MealyMemory((0,), 0, record), lambda ar, v, m: ar.edges(v)[0],
                             name="record")
        lookup = _entry_states(sigma, entry)
        arena = entry.arena
        for i in range(301):
            fed.clear()
            lookup(i)
            descent = [e for e in fed if e.dst.name != "s"]  # the s-chain walk is shared
            v, want = V("s", (i,)), []
            while v.name != "t":
                e = next(e for e in arena.edges(v) if e.dst.name != "s")
                want.append(e)
                v = e.dst
            assert descent == want, (name, i)
            assert all(type(e) is Edge and type(e.src) is type(e.dst) is VertexId
                       and type(e.weight) is int for e in descent), (name, i)


def _exit_everywhere(ar, v, m):
    if v.name == "t":
        return next(e for e in ar.edges(v) if e.dst.name == "r0")
    return ar.edges(v)[0]


def _escaping_fm(escapes):
    """Two memory states; the update leaves them on an edge ``escapes``
    holds for; every decision vertex exits."""

    def update(m, e):
        return 7 if escapes(e) else m

    return FiniteMemory(MealyMemory((0, 1), 0, update), _exit_everywhere, name="escape")


def test_a_memory_update_leaving_its_state_set_raises_through_play_and_the_entry_fold():
    from qgames.engine import play

    entry = make("a4")
    sigma = _escaping_fm(lambda e: e.dst.name == "t")
    with pytest.raises(ValueError, match=r"^memory update left the state set: 7$"):
        play(entry.arena, entry.start, sigma, entry.strategy("p2_enter_1"), 100)
    # inside a descent only, so the s-chain walk does not raise it first
    sigma = _escaping_fm(lambda e: e.dst.name == "d" and e.dst.params[1] == 2)
    with pytest.raises(ValueError, match=r"^memory update left the state set: 7$"):
        ramsey_adversary(sigma, entry)


def _escaping_letter_fm(escape_letter):
    """A two-state letter memory that leaves its state set on one letter;
    every decision vertex exits."""
    memory = LetterMemory((0, 1), 0, lambda m, a: 7 if a == escape_letter else m)
    return FiniteMemory(memory, _exit_everywhere, name="escape")


def test_a_letter_memory_leaving_its_state_set_inside_a_descent_run_raises():
    from qgames.engine import play

    entry = make("a4")
    # the run of weight -1 descent edges, which the entry fold takes in one
    # LetterMemory.run and play takes edge by edge
    sigma = _escaping_letter_fm(("d", -1, "d"))
    with pytest.raises(ValueError, match=r"^memory update left the state set: 7$"):
        play(entry.arena, entry.start, sigma, entry.strategy("p2_enter_1"), 100)
    with pytest.raises(ValueError, match=r"^memory update left the state set: 7$"):
        ramsey_adversary(sigma, entry)


def _arena_path(arena, v, step, stop):
    """The edges from v along the arena's own rows, ``step`` picking each
    edge, up to the first edge into a vertex that ``stop`` holds for."""
    out = []
    while True:
        e = step(v)
        assert e in arena.edges(v)
        out.append(e)
        v = e.dst
        if stop(v):
            return out


def _gadget_walk(arena, i, j):
    # the delay edge, j-1 climbs, then the drop to t(i+j)
    def step(v):
        want = {"t": "g", "g": "g" if v.params[-1] < j else "dr", "dr": "dr"}[v.name]
        return next((e for e in arena.edges(v) if e.dst.name == want), arena.edges(v)[0])

    return _arena_path(arena, V("t", (i,)), step, lambda v: v.name == "t")


def _descent_walk(arena, i):
    return _arena_path(arena, V("s", (i,)),
                       lambda v: next(e for e in arena.edges(v) if e.dst.name != "s"),
                       lambda v: v.name == "t")


@pytest.mark.parametrize("name", ["a4", "a4guarded"])
def test_a4_paths_are_the_arenas_own_rows_in_runs_of_their_letters(name):
    from qgames.adversaries import _entry_path, _gadget_path, _path_edges

    arena = make(name).arena
    cases = [(_entry_path(i), _descent_walk(arena, i)) for i in list(range(0, 301, 7)) + [256, 300]]
    cases += [(_gadget_path(i, j), _gadget_walk(arena, i, j))
              for i in (0, 1, 2, 7, 40, 255, 256, 300) for j in range(1, 41)]
    for path, want in cases:
        assert list(_path_edges(path)) == want
        assert all(type(e) is Edge and type(e.src) is type(e.dst) is VertexId
                   and type(e.weight) is int for e in want)
        # the runs' letters, repeated, are the letters of the arena's edges
        assert [letter for letter, _, steps in path[1] for _ in steps] == \
            [(e.src.name, e.weight, e.dst.name) for e in want]


def _letter_fm(seed, k):
    """A k-state letter memory whose update is a CRC of the state and the
    letter; every decision vertex delays."""
    def update(m, letter):
        return zlib.crc32(repr((m, letter, seed)).encode()) % k

    def decide(ar, v, m):
        return next((e for e in ar.edges(v) if e.dst.name == "g"), ar.edges(v)[0])

    return FiniteMemory(LetterMemory(range(k), 0, update), decide, name="letters")


@pytest.mark.parametrize("name", ["a4", "a4guarded"])
def test_letter_runs_fold_as_the_per_edge_walk_over_the_arenas_rows(name):
    from qgames.adversaries import _entry_states, _fold, _gadget_path

    entry = make(name)
    for seed, k in ((1, 1), (2, 2), (3, 3), (4, 4), (5, 4)):
        sigma = _letter_fm(seed, k)
        states = list(sigma.mealy.states)
        lookup = _entry_states(sigma, entry)
        indices = list(range(0, 301, 7)) + [256, 257, 299, 300]
        assert [lookup(i) for i in indices] == \
            [_entry_state_by_walk(sigma, entry, i) for i in indices], (seed, k)
        for i in (0, 1, 5, 256, 300):
            for j in range(1, 41):
                walk = _gadget_walk(entry.arena, i, j)
                want = []
                for m in states:
                    for e in walk:
                        m = sigma.step_state(m, e)
                    want.append(m)
                assert _fold(sigma, states, _gadget_path(i, j)) == want, (seed, k, i, j)
