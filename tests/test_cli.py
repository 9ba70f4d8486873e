from fractions import Fraction
from pathlib import Path

import argparse
import gc
import hashlib
import importlib.util
import itertools
import json
import os
import random
import subprocess
import sys
import time
import types
import pytest

from qgames.adversaries import DefeatResult, defeat_sc_buchi, ramsey_adversary
from qgames.arena import ArenaExplicit, Edge, VertexId, exact
from qgames.cli import build_parser, main, parse_arena, serialize_arena, truncate_generator
from qgames.engine import (ColourStarvation, EarlyExitNegative, LevelSatisfaction,
                           certificate_from_json, certificate_to_json, check_certificate, play)
from qgames.objectives import parse_objective, rewrite_strict_tp
from qgames.strategies import (FIRST_EDGE, StepCounterTable, Strategy,
                               parse_strategy, serialize_strategy, table_edges)
from qgames.synthesis import WPrimeOracle, brute_force_values
from qgames import cli, engine, zoo
from qgames.zoo import make

import oracles
import small_scope
import sweeps
from test_values import random_arenas

F = Fraction
V = VertexId

POS_ARENA = """\
arena pos
vertex a owner=1
vertex b owner=2
edge a b weight=1
edge b a weight=-1
edge b b weight=0
start a
"""


PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_arena_roundtrip():
    arena = parse_arena(POS_ARENA)
    assert arena.name == "pos"
    assert arena.owner(V("a")) == 1
    assert arena.start == V("a")
    text = serialize_arena(arena)
    again = parse_arena(text)
    assert serialize_arena(again) == text


@pytest.mark.parametrize("text,needle", [
    ("vortex a owner=1\nstart a\n", "line 1"),
    ("vertex a owner=3\nstart a\n", "owner must be 1 or 2"),
    ("vertex a owner=1\nvertex a owner=2\nstart a\n", "declared twice"),
    ("vertex a owner=1\nedge a a weight=0\n", "no start vertex"),
    ("vertex a owner=1\nedge a b weight=0\nstart a\n", "edge to undeclared vertex"),
    ("vertex a owner=1\nvertex b owner=2\nedge a b weight=0\nstart a\n",
     "blocking vertex b"),
    # the whole message, naming a vertex with parameters
    ("vertex a(1) owner=1\nvertex a(1) owner=2\nstart a(1)\n",
     r"^line 2: vertex a\(1\) declared twice$"),
    ("vertex a owner=1\nedge b(2) a weight=0\nstart a\n", r"^edge from undeclared vertex b\(2\)$"),
    ("vertex a owner=1\nedge a b(2,5) weight=0\nstart a\n", r"^edge to undeclared vertex b\(2,5\)$"),
    ("vertex a owner=1\nvertex b(4) owner=2\nedge a b(4) weight=0\nstart a\n",
     r"^blocking vertex b\(4\) has no outgoing edge$"),
    # the arena checks the start before the file's blocking vertices
    ("vertex a owner=1\nvertex b owner=2\nedge a b weight=0\nstart c\n",
     r"^start vertex c not declared$"),
    # a repeated start or arena line is refused, not overwritten
    ("vertex a owner=1\nedge a a weight=0\nstart a\nstart a\n", r"^line 4: start declared twice$"),
    ("arena x\nvertex a owner=1\narena y\nedge a a weight=0\nstart a\n",
     r"^line 3: arena declared twice$"),
    # a number the file cannot hold is named with its field
    ("arena x\nvertex n(0) owner=x\nstart n(0)\n", r"^line 2: owner= must be an integer, got 'x'$"),
    ("vertex n(x) owner=1\nstart n(x)\n",
     r"^line 1: vertex n\(x\) parameter must be an integer, got 'x'$"),
    ("vertex n(0) owner=1\nvertex n(1) owner=2\nedge n(0) n(1) weight=abc\n",
     r"^line 3: weight= must be a number, got 'abc'$"),
    # a vertex is read only from the text it prints; a text is parsed again after it failed
    ("vertex n(01) owner=1\nedge n(1) n(+1) weight=0\nstart n(\u0663)\n",
     r"^line 1: vertex id 'n\(01\)' must be written n\(1\)$"),
    ("vertex n(1) owner=1\nedge n(1) n(x) weight=0\nedge n(x) n(1) weight=0\nstart n(1)\n",
     r"^line 2: vertex n\(x\) parameter must be an integer, got 'x'$"),
])
def test_parse_arena_errors(text, needle):
    with pytest.raises(ValueError, match=needle):
        parse_arena(text)


def _arena_digest(text: str) -> str:
    """The digest of an arena file's parse: its canonical text, its start
    and its edges with their weights' types."""
    arena = parse_arena(text)
    rows = [(e.src, e.weight, e.dst) for v in arena.vertices for e in arena.edges(v)]
    return hashlib.sha256((serialize_arena(arena) + repr(arena.start)
                           + repr(rows)).encode()).hexdigest()[:16]


def test_parse_arena_reads_every_file_as_before():
    # the digests were taken before parse_arena read each vertex text once
    # and each integer weight text without a Fraction
    data = Path(__file__).parent / "data"
    want = json.loads((data / "arena_identity.json").read_text())
    pool = json.loads((PERFBENCH / "pool.json").read_text())
    assert {"%s[%d]" % (cell, i): _arena_digest(m["arena"]) for cell, ms in sorted(pool.items())
            for i, m in enumerate(ms)} == want["pool"]
    assert {str(p.relative_to(data)): _arena_digest(p.read_text())
            for p in sorted(data.glob("**/arena.txt"))} == want["data"]
    assert [_arena_digest(serialize_arena(a)) for a in random_arenas(46)] == want["random"]
    assert (len(want["pool"]), len(want["data"]), len(want["random"])) == (80, 6, 200)


_NOT_A_NUMBER = "line 3: weight= must be a number, got %r"


@pytest.mark.parametrize("weight, want", [
    ("+5", 5), ("05", 5), ("-0", 0), ("2/4", F(1, 2)), ("1.5", F(3, 2)), (".5", F(1, 2)),
    ("-2/3", F(-2, 3)), ("1.", 1), ("-7", -7),
    # Fraction reads underscores from Python 3.11 on
    ("1_000", 1000 if sys.version_info >= (3, 11) else _NOT_A_NUMBER % "1_000"),
    ("\u0663", 3),  # a decimal digit that is not ASCII
    ("", _NOT_A_NUMBER % ""), ("abc", _NOT_A_NUMBER % "abc"),
    ("1/0", "line 3: zero denominator in '1/0'"), ("nan", _NOT_A_NUMBER % "nan"),
    ("inf", _NOT_A_NUMBER % "inf"), ("n(x)", _NOT_A_NUMBER % "n(x)"),
    ("--5", _NOT_A_NUMBER % "--5"), ("\u00b2", _NOT_A_NUMBER % "\u00b2"),
    ("1/-2", _NOT_A_NUMBER % "1/-2"),
    # a number with an exponent is refused, however small its value
    ("1e3", _NOT_A_NUMBER % "1e3"), ("1.5E-3", _NOT_A_NUMBER % "1.5E-3"),
    ("-1e999999999", _NOT_A_NUMBER % "-1e999999999"),
])
def test_parse_arena_reads_each_weight_text_as_before(weight, want):
    text = "arena t\nvertex a owner=1\nedge a a weight=%s\nstart a\n" % weight
    if isinstance(want, str):
        with pytest.raises(ValueError) as refused:
            parse_arena(text)
        assert str(refused.value) == want
        return
    (edge,) = parse_arena(text).edges(V("a"))
    assert edge.weight == want and type(edge.weight) is type(want)


@pytest.mark.parametrize("src, dst", [("b(2)", "a"), ("a", "b(2,5)")], ids=["source", "target"])
def test_parse_arena_names_an_undeclared_endpoint_as_the_explicit_arena_does(src, dst):
    with pytest.raises(ValueError) as from_file:
        parse_arena("vertex a owner=1\nedge %s %s weight=0\nstart a\n" % (src, dst))
    with pytest.raises(ValueError) as from_maps:
        ArenaExplicit({V("a"): 1}, [Edge(V.parse(src), 0, V.parse(dst))], V("a"))
    assert str(from_file.value) == str(from_maps.value)
    assert "undeclared vertex" in str(from_file.value)


def test_truncate_generator_seals_the_boundary():
    entry = make("a3")
    explicit = truncate_generator(entry.arena, 5)
    boundary = [v for v in explicit.vertices
                if explicit.edges(v) == (Edge(v, F(0), v),)
                and not entry.arena.is_sink(v)]
    assert boundary
    text = serialize_arena(explicit)
    assert serialize_arena(parse_arena(text)) == text


def test_cli_validate_ok(tmp_path, capsys):
    path = _write(tmp_path, "pos.txt", POS_ARENA)
    assert main(["validate", "--arena", path]) == 0
    out = capsys.readouterr().out
    assert "validate: ok" in out


def test_cli_validate_zoo_uri(capsys):
    assert main(["validate", "--arena", "zoo:bitarena", "--depth", "10"]) == 0


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("outcome, code", [
    (types.SimpleNamespace(ok=True, violations=[], explored=1), 0),
    (ValueError("no such vertex"), 1),
    (engine.Inconclusive("vertex cap exceeded"), 2),
    (RuntimeError("a bug"), RuntimeError),
])
def test_cli_runs_a_job_with_the_cyclic_collector_off_and_restores_the_callers_state(
        monkeypatch, capsys, collecting, outcome, code):
    seen = []

    def validate(arena, depth):
        seen.append(gc.isenabled())
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(cli, "validate", validate)
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if code is RuntimeError:
            with pytest.raises(RuntimeError):
                main(["validate", "--arena", "zoo:a4"])
        else:
            assert main(["validate", "--arena", "zoo:a4"]) == code
        assert seen == [False]
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if before else gc.disable)()


def test_cli_simulate_deterministic_csv(tmp_path):
    out1 = str(tmp_path / "r1.csv")
    out2 = str(tmp_path / "r2.csv")
    argv = ["simulate", "--arena", "zoo:bitarena", "--p1", "opposite",
            "--p2", "allzero", "--horizon", "20"]
    assert main(argv + ["--out", out1]) == 0
    assert main(argv + ["--out", out2]) == 0
    data = Path(out1).read_text()
    assert data == Path(out2).read_text()
    assert data.splitlines()[0] == "step,from,to,weight,tp,mp,mem1,mem2"
    assert len(data.splitlines()) == 21


ZOO_P2 = Path(__file__).parent / "data" / "zoo_p2"


# sha256 of qg simulate's CSV on zoo arenas, fixed before the play loop and
# the CSV writer were reworked, and (the last five rows) before the
# player-1 zoo strategies kept only the summary they decide from; the a4
# H=1000 rows were taken before the generator rows, the memory folds and
# the CSV writer were made leaner, and the last two rows (a4guarded's
# s(-1) guard; three traced memory states) before a4's rows were built
# frame-free and the CSV writer formatted each memory state once
@pytest.mark.parametrize("arena, p1, p2, horizon, digest", [
    ("zoo:a4", "sigma_100000", "p2_enter_1", 4000,
     "f2464833f423081252f61b9191abb8e14b3f4c78127c4cd1d121df5db3d6dbcf"),
    ("zoo:a4", "always_delay", "p2_enter_1", 4000,
     "4928835b4a09ca3dbd59ea5e2057fe875a6adc1c6808bff7be1a352edcb413cf"),
    ("zoo:a4", "sigma_100000", "p2_enter_1", 1000,
     "f094eb8b2a0a6f51d5be5d0da21996fa4759d8dbc6538752ec3da761ff08fad8"),
    ("zoo:a4", "always_delay", "p2_enter_1", 1000,
     "898c8e5b3bee3c6663cd1e4f71a10d4ac2ca72eed650438bf612740af52a0dbe"),
    ("zoo:bitarena", "opposite", "allzero", 200,
     "8269bdf86e8379742663cf6cf1ed91654e8a6a89dd952173b13e92e8b1811c97"),
    ("zoo:a1prime", "match_plus_one", str(ZOO_P2 / "a1prime_challenge_3.strategy"), 200,
     "3ca766369e339b2bba62ba3734a51c5a2f3417d46393eebe876eb4a7a419efe7"),
    ("zoo:a2", "match_plus_one", "p2_pick_3", 400,
     "f69a8f386733efa137ebcdc77cef703efabae836f15c32b4a10b7bcfcf70efb3"),
    ("zoo:buchia", "round_robin", str(ZOO_P2 / "idle.strategy"), 200,
     "1829a327045fabf069eb4d5ac46f0d52e8981e552e644ab6f7a03f1f6d01bb4e"),
    ("zoo:buchib", "alternating", str(ZOO_P2 / "buchib_pad_4.strategy"), 200,
     "30631d1e60ec253a940f1c795e870c9196c974f71f1f94c435d2459189873a26"),
    ("zoo:nonuniform?start_index=3", "exit_at_5", str(ZOO_P2 / "idle.strategy"), 200,
     "bdafde236d203c3d244a1660b9dc1849f1069229640046af665355fd6145f383"),
    ("zoo:a4guarded", "sigma_3", "p2_enter_1", 1000,
     "5577732f92d8e70538005d8d8607a02ef346cc043505bd71726698a3ee18ad3a"),
    ("zoo:a4", "delay_twice_exit", "p2_enter_2", 1000,
     "23f4f7518f4fe5b497b05691fe84edd719e467286385f0d0fc19e391110faa3e"),
], ids=["a4-sigma", "a4-always-delay", "a4-sigma-h1000", "a4-always-delay-h1000",
        "bitarena-opposite", "a1prime-match", "a2-match",
        "buchia-round-robin", "buchib-alternating", "nonuniform-exit",
        "a4guarded-sigma3-h1000", "a4-delay-twice-exit-h1000"])
def test_cli_simulate_matches_the_golden_digests(tmp_path, arena, p1, p2, horizon, digest):
    out = tmp_path / "play.csv"
    assert main(["simulate", "--arena", arena, "--p1", p1, "--p2", p2,
                 "--horizon", str(horizon), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of qg defeat's stdout (the --out path written as CERT) and of its
# certificate on zoo:a4, taken before the generator rows, the memory folds
# and the CSV writer were made leaner
@pytest.mark.parametrize("strategy, stdout_digest, cert_digest", [
    ("always_delay", "09248581c41715208dde972048b6076ede77090164ba3672dd7d8c5ab07a0840",
     "50c35a0b3f66308d00014a9be0ade29276cb49edc298a647c365a0e9acdb65a9"),
    ("delay_twice_exit", "d08c2a07e37a4acfbd463f98898bfe0b5143e1b0c298ee92209cc14faab97f33",
     "74e052b0bcf81c6c7432c9780bec22cfc8e277b5a9705f4d99ffc44f79ea0f96"),
])
def test_cli_defeat_on_a4_matches_the_golden_digests(tmp_path, capsys, strategy, stdout_digest,
                                                     cert_digest):
    cert = tmp_path / "cert.json"
    assert main(["defeat", "--arena", "zoo:a4", "--strategy", strategy,
                 "--out", str(cert)]) == 0
    out = capsys.readouterr().out.replace(str(cert), "CERT")
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == cert_digest


# the same digests on zoo:a4guarded, taken before the Ramsey adversary
# folded letter memories by runs
@pytest.mark.parametrize("strategy, stdout_digest, cert_digest", [
    ("always_delay", "09248581c41715208dde972048b6076ede77090164ba3672dd7d8c5ab07a0840",
     "d3efa8269a08d697614d59d54d3b500b1895ea9a6de7f6f847a079ff7b866f97"),
    ("delay_twice_exit", "d08c2a07e37a4acfbd463f98898bfe0b5143e1b0c298ee92209cc14faab97f33",
     "139b7957ab4c30c9bbe37bb680555066f6d7c4efb9f131f3dbeec0520c011900"),
])
def test_cli_defeat_on_a4guarded_matches_the_golden_digests(tmp_path, capsys, strategy,
                                                            stdout_digest, cert_digest):
    cert = tmp_path / "cert.json"
    assert main(["defeat", "--arena", "zoo:a4guarded", "--strategy", strategy,
                 "--out", str(cert)]) == 0
    out = capsys.readouterr().out.replace(str(cert), "CERT")
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == cert_digest


# qg simulate on an explicit arena with fractional weights, a zero total and
# negative totals, against a traced sc+k player 1, byte for byte
GOLDEN_SIMULATE = Path(__file__).parent / "data" / "simulate"


def test_cli_simulate_matches_the_golden_csv(capsysbinary):
    assert main(["simulate", "--arena", str(GOLDEN_SIMULATE / "arena.txt"),
                 "--p1", str(GOLDEN_SIMULATE / "p1.strategy"),
                 "--p2", str(GOLDEN_SIMULATE / "p2.strategy"), "--horizon", "16"]) == 0
    captured = capsysbinary.readouterr()
    assert captured.out == (GOLDEN_SIMULATE / "expected.csv").read_bytes()
    assert captured.err == b""


A3_STAY = str(Path(__file__).parent / "data" / "inconclusive" / "a3_stay.strategy")


@pytest.mark.parametrize("arena, p1, p2, refused, declared, requested", [
    ("zoo:a3", "delay_twice_exit", A3_STAY, A3_STAY, 1, 2),
    ("zoo:buchia", str(ZOO_P2 / "idle.strategy"), "round_robin", str(ZOO_P2 / "idle.strategy"),
     2, 1),
    ("zoo:a3", "p2_enter_0", "p2_enter_0", "p2_enter_0", 2, 1),
], ids=["p1-file-as-p2", "p2-file-as-p1", "p2-zoo-as-p1"])
def test_cli_holds_a_strategy_to_its_declared_player(capsys, arena, p1, p2, refused, declared,
                                                     requested):
    assert main(["simulate", "--arena", arena, "--p1", p1, "--p2", p2, "--horizon", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: strategy %r is for player %d, requested player %d\n" % (
        refused, declared, requested)
    assert captured.out == ""


def test_the_golden_simulate_play_adds_fractional_weights_to_an_int_start():
    arena = parse_arena((GOLDEN_SIMULATE / "arena.txt").read_text())
    assert {type(e.weight) for v in arena.vertices for e in arena.edges(v)} == {Fraction}
    p1 = parse_strategy((GOLDEN_SIMULATE / "p1.strategy").read_text())
    p2 = parse_strategy((GOLDEN_SIMULATE / "p2.strategy").read_text())
    p2.player = 2
    record = play(arena, arena.start, p1, p2, 16)
    assert record.tp_at(0) == 0 and type(record.tp_at(0)) is int
    expected = (GOLDEN_SIMULATE / "expected.csv").read_text()
    assert [str(tp) for tp in record.tp_trace] == [
        line.split(",")[4] for line in expected.splitlines()[1:]]
    # the integral totals along the way compare, hash and print as ints
    integral = [tp for tp in record.tp_trace if tp.denominator == 1]
    assert integral == [0, -1, -3, -7]
    assert [hash(tp) for tp in integral] == [hash(0), hash(-1), hash(-3), hash(-7)]
    assert record.to_csv() == expected


def test_parsed_weights_are_ints_when_integral_and_fractions_otherwise():
    arena = parse_arena("vertex a owner=1\nvertex b owner=2\nedge a b weight=-4/2\n"
                        "edge b a weight=3\nedge b b weight=1/2\nstart a\n")
    assert [(str(e.weight), type(e.weight)) for v in arena.vertices for e in arena.edges(v)] == [
        ("-2", int), ("3", int), ("1/2", Fraction)]
    sigma = parse_strategy("strategy s kind=sc+k states=2 horizon=2 player=1\n"
                           "move a state=0 step=0 -> b weight=6/3\n"
                           "bitupd state=0 step=1 edge=b->b weight=-2/4 -> 1\n"
                           "bitupd state=0 step=1 edge=b->a weight=3 -> 1\n")
    assert type(sigma.table[(V("a"), 0, 0)].weight) is int
    assert sorted((str(e.weight), type(e.weight).__name__) for _, _, e in sigma.bit_update) == [
        ("-1/2", "Fraction"), ("3", "int")]


@pytest.mark.parametrize("arena, name, have", [
    ("a3", "p2_enter", "delay_twice_exit, p2_enter_<int>"),
    ("nonuniform", "exit_at", "exit_at_<int>"),
], ids=["a3", "nonuniform"])
def test_cli_names_the_strategies_and_factories_of_an_unknown_name(capsys, arena, name, have):
    assert main(["simulate", "--arena", "zoo:" + arena, "--p1", name, "--p2", name,
                 "--horizon", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: entry %s has no strategy %r (have: %s)\n" % (arena, name, have)
    assert captured.out == ""


def test_cli_defeat_accepts_the_guarded_a4_exit(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(["defeat", "--arena", "zoo:a4guarded", "--strategy", "delay_twice_exit",
                 "--out", str(cert)]) == 0
    assert capsys.readouterr().out == (
        "plan: enter 3, route [3, 5, 7, 9, 11]\n"
        "note: exited after 2 delays from entry 3\n"
        "certificate written to %s\n"
        "defeat: certificate accepted\n" % cert)
    assert json.loads(cert.read_text())["body"]["final_tp"] == "-1"


def test_cli_defeat_verify_cycle(tmp_path, capsys):
    # a step-counter table on a3 that exits at its own pinned step loses
    # to the opponent entering exactly there
    t2, r0 = V("t", (2,)), V("r0")
    sc = StepCounterTable({(t2, 7, 0): Edge(t2, F(2), r0)}, 8, FIRST_EDGE,
                          name="exit2")
    strat = _write(tmp_path, "exit2.strategy", serialize_strategy(sc))
    cert = str(tmp_path / "cert.json")
    assert main(["defeat", "--arena", "zoo:a3", "--strategy", strat,
                 "--out", cert]) == 0
    capsys.readouterr()

    assert main(["verify", "--arena", "zoo:a3", "--cert", cert,
                 "--p1", strat, "--p2", "p2_enter_2"]) == 0
    assert "accepted" in capsys.readouterr().out

    tampered = json.loads(Path(cert).read_text())
    tampered["body"]["final_tp"] = "-5"
    bad = _write(tmp_path, "bad.json", json.dumps(tampered))
    assert main(["verify", "--arena", "zoo:a3", "--cert", bad,
                 "--p1", strat, "--p2", "p2_enter_2"]) == 1
    assert "refuted" in capsys.readouterr().out


def test_cli_defeat_without_out_writes_the_certificate_to_stdout(tmp_path, capsys):
    t2, r0 = V("t", (2,)), V("r0")
    sc = StepCounterTable({(t2, 7, 0): Edge(t2, F(2), r0)}, 8, FIRST_EDGE, name="exit2")
    strat = _write(tmp_path, "exit2.strategy", serialize_strategy(sc))
    cert = tmp_path / "cert.json"
    assert main(["defeat", "--arena", "zoo:a3", "--strategy", strat, "--out", str(cert)]) == 0
    assert capsys.readouterr().out == (
        "note: entered at index 2, the strategy's own exit step\n"
        "certificate written to %s\n"
        "defeat: certificate accepted\n" % cert)
    assert main(["defeat", "--arena", "zoo:a3", "--strategy", strat]) == 0
    assert capsys.readouterr().out == (
        "note: entered at index 2, the strategy's own exit step\n"
        + cert.read_text() + "defeat: certificate accepted\n")


def test_cli_defeat_claims_the_lasso_of_a_step_counter_on_buchib(tmp_path, capsys):
    # the table exits the decision vertex at steps 1, 4, 7, ... and loops
    # there at every other step below its horizon; padded by one step, the
    # play loops last at step 57, and from step 60 on fallback=first exits
    # at every arrival, so the lasso closes at step 62
    v, u = V("v", ()), V("u", ())
    table = {(v, s, 0): Edge(v, F(0), u) if s % 3 == 1 else Edge(v, F(1), v) for s in range(60)}
    strat = _write(tmp_path, "third.strategy",
                   serialize_strategy(StepCounterTable(table, 60, name="third")))
    assert main(["defeat", "--arena", "zoo:buchib", "--strategy", strat]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "note: the lasso closes at step 62; colour 1 does not occur from step 58 on\n"
        '{\n  "body": {\n    "after_step": 58,\n    "colour": "1",\n    "horizon": 62\n  },\n'
        '  "schema": "qg-cert/1",\n  "variant": "ColourStarvation"\n}\n'
        "defeat: certificate accepted\n")
    assert captured.err == ""


def test_cli_defeat_on_buchib_reads_the_rows_not_every_step_of_a_huge_table_horizon(
        tmp_path, capsys):
    # the file's horizon= is unbounded: the adversary's work follows the
    # table's rows, not the file's horizon
    strat = _write(tmp_path, "huge.strategy",
                   "strategy huge kind=sc horizon=1000000000 fallback=first\n"
                   "move v step=1 -> v weight=1\n")
    start = time.perf_counter()
    assert main(["defeat", "--arena", "zoo:buchib?b=1", "--strategy", strat,
                 "--horizon", "30"]) == 0
    assert time.perf_counter() - start < 5
    out = capsys.readouterr().out
    # no history meets the row: v is reached at even steps only
    assert out.startswith("note: the lasso closes at step 4; colour 1 does not occur from "
                          "step 0 on\n")
    assert out.endswith("defeat: certificate accepted\n")


def test_cli_defeat_on_buchib_asks_a_long_table_whether_it_settled_in_linear_time(
        tmp_path, capsys):
    # 20 000 rows: a lasso that rescanned every row at every step would
    # read 4 * 10^8 of them; v is met at even steps only, which all exit
    rows = "".join("move v step=%d -> %s\n" % (s, "v weight=1" if s % 2 else "u weight=0")
                   for s in range(20000))
    strat = _write(tmp_path, "long.strategy",
                   "strategy long kind=sc horizon=20000 fallback=first\n" + rows)
    start = time.perf_counter()
    assert main(["defeat", "--arena", "zoo:buchib?b=1", "--strategy", strat]) == 0
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out.startswith(
        "note: the lasso closes at step 20002; colour 1 does not occur from step 0 on\n")


def test_cli_verify_rechecks_the_levels_of_a_synthesized_strategy(tmp_path, capsys):
    strat = str(tmp_path / "bit.strategy")
    assert main(["synthesize", "--arena", "zoo:bitarena", "--objective", "tp:limsup:>=:0",
                 "--m-max", "3", "--out", strat]) == 0
    schedule = _schedule(capsys.readouterr().out)
    assert schedule == [(1, 1), (2, 4), (5, 8)]
    good = _write(tmp_path, "good.json", certificate_to_json(LevelSatisfaction(schedule)))
    argv = ["verify", "--arena", "zoo:bitarena", "--p1", strat, "--objective", "tp:limsup:>=:0"]
    assert main(argv + ["--cert", good]) == 0
    assert capsys.readouterr().out == (
        "m=1 certified at level 1 <= 1\nm=2 certified at level 4 <= 4\n"
        "m=5 certified at level 8 <= 8\nverify: accepted\n")
    tampered = _write(tmp_path, "bad.json",
                      certificate_to_json(LevelSatisfaction([(1, 1), (2, 3), (5, 8)])))
    assert main(argv + ["--cert", tampered]) == 1
    assert capsys.readouterr().out == (
        "m=1 certified at level 1 <= 1\n"
        "level (m=2, k=3) failed: depth cap 3 exhausted with 1 unsatisfied branch\n"
        "verify: refuted\n")


def _a3_with_a_general_strategy():
    """The a3 entry, also naming ``free``: a general ``Strategy``, which
    no strategy file or a3 zoo strategy is."""
    factory, declared = zoo._REGISTRY["a3"]

    def build():
        entry = factory()
        free = Strategy("free", None, lambda last, e: e, lambda ar, v, last: ar.edges(v)[0])
        return entry._replace(strategies={**entry.strategies, "free": free})

    return build, declared


@pytest.mark.parametrize("uri, strategy, err", [
    pytest.param("zoo:a3", "strategy ml kind=memoryless\nmove t(0) -> e(0,1) weight=0\n",
                 "defeat_sc_on_A3 needs a step-counter table, got Memoryless",
                 id="a3-memoryless-file"),
    pytest.param("zoo:a3", "delay_twice_exit",
                 "defeat_sc_on_A3 needs a step-counter table, got FiniteMemory",
                 id="a3-delay_twice_exit"),
    pytest.param("zoo:a3", "free", "defeat_sc_on_A3 needs a step-counter table, got Strategy",
                 id="a3-tracked"),
    pytest.param("zoo:buchib", "alternating",
                 "defeat_sc_buchi needs a step-counter table, got Strategy",
                 id="buchib-alternating"),
])
def test_cli_defeat_rejects_wrong_strategy_class(tmp_path, capsys, monkeypatch, uri, strategy,
                                                 err):
    if strategy.startswith("strategy "):
        strategy = _write(tmp_path, "ml.strategy", strategy)
    if strategy == "free":
        monkeypatch.setitem(zoo._REGISTRY, "a3", _a3_with_a_general_strategy())
    assert main(["defeat", "--arena", uri, "--strategy", strategy]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % err
    assert captured.out == ""


_WINS_THERE = "; match_plus_one is player 1's winning strategy there"


@pytest.mark.parametrize("uri, strategy, got", [
    pytest.param("zoo:a1prime", "match_plus_one", "'a1prime', got Strategy" + _WINS_THERE,
                 id="a1prime"),
    pytest.param("zoo:a2", "match_plus_one", "'a2', got Strategy" + _WINS_THERE, id="a2"),
    pytest.param("zoo:a1prime", "strategy sc kind=sc horizon=1\n",
                 "'a1prime', got StepCounterTable" + _WINS_THERE, id="a1prime-sc-file"),
    pytest.param("zoo:a4", "adaptive", "'a4', got Strategy", id="a4-adaptive"),
])
def test_cli_defeat_names_the_entry_of_a_scripted_strategy(tmp_path, capsys, uri, strategy, got):
    if strategy.startswith("strategy "):
        strategy = _write(tmp_path, "sc.strategy", strategy)
    assert main(["defeat", "--arena", uri, "--strategy", strategy]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: only finite-memory strategies can be defeated on zoo entry "
                            "%s\n" % got)
    assert captured.out == ""


def test_cli_defeat_lets_an_error_inside_an_adversary_propagate(monkeypatch):
    """A refusal is a ValueError, printed as ``error:``; any other
    exception an adversary raises is a fault of the program, not a
    refusal, and ``main`` does not turn it into exit 1."""
    def boom(*args, **kwargs):
        raise TypeError("boom")

    monkeypatch.setattr("qgames.cli.defeat_sc_on_A3", boom)
    with pytest.raises(TypeError, match="^boom$"):
        main(["defeat", "--arena", "zoo:a3", "--strategy", A3_STAY])


def test_cli_defeat_on_a4_names_a_step_counter_table(tmp_path, capsys):
    strat = _write(tmp_path, "sc.strategy", "strategy sc kind=sc horizon=1\n")
    assert main(["defeat", "--arena", "zoo:a4", "--strategy", strat]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: only finite-memory strategies can be defeated on zoo entry "
                            "'a4', got StepCounterTable\n")
    assert captured.out == ""


def _one_mode_stay(tmp_path, states=1):
    """``a3_stay.strategy`` as a ``kind=sc+k`` file with ``states`` modes."""
    text = Path(A3_STAY).read_text().replace("kind=sc ", "kind=sc+k states=%d " % states)
    return _write(tmp_path, "stay%d.strategy" % states, text)


@pytest.mark.parametrize("command", ["defeat", "simulate"])
def test_cli_a_one_mode_sc_k_file_plays_as_its_kind_sc_file(tmp_path, capsysbinary, command):
    out = str(tmp_path / "out")
    runs = []
    for path in (A3_STAY, _one_mode_stay(tmp_path)):
        argv = (["defeat", "--arena", "zoo:a3", "--strategy", path, "--out", out]
                if command == "defeat" else
                ["simulate", "--arena", "zoo:a3", "--p1", path, "--p2", "p2_enter_1",
                 "--horizon", "30", "--out", out])
        code = main(argv)
        captured = capsysbinary.readouterr()
        runs.append((code, captured.out, captured.err, Path(out).read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


@pytest.mark.parametrize("uri, routine", [("zoo:a3", "defeat_sc_on_A3"),
                                          ("zoo:buchib", "defeat_sc_buchi")])
def test_cli_defeat_needs_a_step_counter_table_with_one_mode(tmp_path, capsys, uri, routine):
    assert main(["defeat", "--arena", uri, "--strategy", _one_mode_stay(tmp_path, 2)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: %s needs a step-counter table with one mode, got 2 modes\n"
                            % routine)
    assert captured.out == ""


def test_cli_verify_names_the_missing_strategy(tmp_path, capsys):
    cert = str(tmp_path / "cert.json")
    assert main(["defeat", "--arena", "zoo:a4", "--strategy", "always_delay",
                 "--out", cert]) == 0
    capsys.readouterr()
    assert main(["verify", "--arena", "zoo:a4", "--cert", cert,
                 "--p1", "always_delay"]) == 1
    assert ("Divergence certificate needs the opponent strategy (--p2)"
            in capsys.readouterr().err)
    assert main(["verify", "--arena", "zoo:a4", "--cert", cert]) == 1
    err = capsys.readouterr().err
    assert "player-1 strategy (--p1) and the opponent strategy (--p2)" in err


def test_cli_verify_refuses_a_colour_starvation_from_before_step_0(tmp_path, capsys):
    """Colour 1 occurs at steps 0, 3 and 6 of this play; an after_step of
    -2 would have checked only its last two steps."""
    cert = _write(tmp_path, "cert.json", json.dumps({
        "schema": "qg-cert/1", "variant": "ColourStarvation",
        "body": {"colour": "1", "after_step": -2, "horizon": 8}}))
    pad1 = str(ZOO_P2 / "buchib_pad_1.strategy")
    assert main(["simulate", "--arena", "zoo:buchib?b=1", "--p1", "alternating", "--p2", pad1,
                 "--horizon", "9"]) == 0
    colours = [int(line.split(",")[3]) for line in capsys.readouterr().out.splitlines()[1:]]
    assert [step for step, c in enumerate(colours) if c == 1] == [0, 3, 6]
    assert main(["verify", "--arena", "zoo:buchib?b=1", "--p1", "alternating", "--p2", pad1,
                 "--cert", cert]) == 1
    assert capsys.readouterr() == ("after_step -2 is outside steps 0 to 8\nverify: refuted\n", "")


IDLE = str(ZOO_P2 / "idle.strategy")


# a loops with weight w or leaves for b at -1, and b returns at once; the
# player-1 file loops at a
def _loop_arena(tmp_path, w):
    arena = _write(tmp_path, "loop.txt", "vertex a owner=1\nvertex b owner=2\nedge a b weight=-1\n"
                   "edge a a weight=%s\nedge b a weight=0\nstart a\n" % w)
    return arena, _write(tmp_path, "loop.strategy",
                         "strategy loop kind=memoryless\nmove a -> a weight=%s\n" % w)


CERTIFICATES = Path(__file__).parent / "data" / "certificates"
_CAPPED = "depth cap %d exhausted with 1 unsatisfied branch"
# a tp-sup bound that the w = 1 loop reaches at level 999: the walk that
# re-derives it is linear in the level
_LONG_BOUND = {"schema": "qg-cert/1", "variant": "KoenigBound", "body": {"level": 999, "open_sub": {
    "colour": None, "family": "tp-sup", "i": 1, "m": 1, "threshold": "1000"}}}


@pytest.mark.parametrize("w, cert, objective, code, out", [
    # a tp-sup m=2 bound claimed at level 5
    ("0", "koenig_bound_tp_sup", None, 0, ["bound reproduced at level 2"]),
    ("-1", "koenig_bound_tp_sup", None, 1, ["bound did not reproduce: " + _CAPPED % 5]),
    ("1", _LONG_BOUND, None, 0, ["bound reproduced at level 999"]),
    ("0", "level_satisfaction", "tp:limsup:>=:0", 0,
     ["m=1 certified at level 1 <= 1", "m=2 certified at level 2 <= 4"]),
    ("-1", "level_satisfaction", "tp:limsup:>=:0", 1,
     ["m=1 certified at level 1 <= 1", "level (m=2, k=4) failed: " + _CAPPED % 4]),
    ("0", "level_satisfaction", "tp:limsup:>=:+inf", 1,
     ["level (m=1, k=1) failed: " + _CAPPED % 1]),
    ("0", "level_satisfaction", "buchi-all:1", 0,
     ["m=1 certified at level 1 <= 1", "m=2 certified at level 2 <= 4"]),
    ("0", "level_satisfaction", "buchi-all:2", 1,
     ["m=1 certified at level 1 <= 1",
      "level (m=2, k=4) failed: depth cap 4 exhausted with 1 unsatisfied branch"]),
    ("0", "sink_payoff", None, 1, ["play does not reach a sink within 1 steps"]),
], ids=["koenig-accepted", "koenig-pumped", "koenig-long", "levels-accepted", "levels-pumped",
        "levels-tp-inf", "levels-buchi-accepted", "levels-buchi-capped", "sink-never-reached"])
def test_cli_verify_rederives_bounds_levels_and_sinks_on_a_loop(tmp_path, capsys, w, cert,
                                                                 objective, code, out):
    arena, loop = _loop_arena(tmp_path, w)
    data = (cert if isinstance(cert, dict)
            else json.loads((CERTIFICATES / (cert + ".json")).read_text()))
    if cert == "koenig_bound_tp_sup":
        data["body"]["level"] = 5
    path = _write(tmp_path, "cert.json", json.dumps(data))
    argv = ["verify", "--arena", arena, "--p1", loop, "--p2", IDLE, "--cert", path]
    assert main(argv + (["--objective", objective] if objective else [])) == code
    verdict = "verify: %s" % ("accepted" if code == 0 else "refuted")
    assert capsys.readouterr() == ("\n".join(out + [verdict]) + "\n", "")


def test_cli_verify_accepts_a_sink_payoff_it_replays(tmp_path, capsys):
    arena = _write(tmp_path, "sink.txt", "vertex a owner=1\nvertex s owner=2\n"
                   "edge a s weight=-2\nedge s s weight=0\nstart a\n")
    none = _write(tmp_path, "none.strategy", "strategy none kind=memoryless\n")
    assert main(["verify", "--arena", arena, "--p1", none, "--p2", IDLE,
                 "--cert", str(CERTIFICATES / "sink_payoff.json")]) == 0
    assert capsys.readouterr() == ("sink s reached with TP -2\nverify: accepted\n", "")


def test_cli_verify_refuses_a_certificate_vertex_that_is_not_text(tmp_path, capsys):
    arena, loop = _loop_arena(tmp_path, "0")
    cert = _write(tmp_path, "cert.json", json.dumps({
        "schema": "qg-cert/1", "variant": "SinkPayoff",
        "body": {"final_tp": "-2", "sink": -1, "steps": 1}}))
    assert main(["verify", "--arena", arena, "--p1", loop, "--p2", IDLE, "--cert", cert]) == 1
    assert capsys.readouterr() == (
        "", "error: SinkPayoff certificate field sink: -1 is not a string\n")


@pytest.mark.parametrize("cap, steps, code, out", [
    (None, 10 ** 30, 2, "inconclusive: SinkPayoff claims %d steps; replaying them passes the "
                        "node cap 1000000\n" % 10 ** 30),
    ("5", 5, 2, "inconclusive: SinkPayoff claims 5 steps; replaying them passes the node "
                "cap 5\n"),
    ("5", 4, 1, "play does not reach a sink within 4 steps\nverify: refuted\n"),
], ids=["default-cap", "at-the-cap", "below-the-cap"])
def test_cli_verify_replays_a_claimed_play_only_below_the_node_cap(tmp_path, capsys,
                                                                  monkeypatch, cap, steps,
                                                                  code, out):
    # the loop never reaches a sink, so the replay runs to the claimed length
    if cap is not None:
        monkeypatch.setenv("QG_NODE_CAP", cap)
    arena, loop = _loop_arena(tmp_path, "0")
    cert = _write(tmp_path, "cert.json", json.dumps({
        "schema": "qg-cert/1", "variant": "SinkPayoff",
        "body": {"final_tp": "0", "sink": "a", "steps": steps}}))
    start = time.perf_counter()
    assert main(["verify", "--arena", arena, "--p1", loop, "--p2", IDLE, "--cert", cert]) == code
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("reader", ["arena", "strategy", "objective", "certificate"])
def test_cli_refuses_a_zero_denominator_with_one_error_line(tmp_path, capsys, reader):
    arena, loop = _loop_arena(tmp_path, "0")
    argv, message = {
        "arena": (["validate", "--arena", _write(tmp_path, "zero.txt", "vertex a owner=1\n"
                                                 "edge a a weight=1/0\nstart a\n")],
                  "line 2: zero denominator in '1/0'"),
        "strategy": (["simulate", "--arena", arena, "--p2", IDLE, "--p1", _write(
            tmp_path, "zero.strategy", "strategy zero kind=memoryless\nmove a -> a weight=1/0\n")],
                     "line 2: zero denominator in '1/0'"),
        "objective": (["synthesize", "--arena", arena, "--objective", "tp:limsup:>=:1/0"],
                      "zero denominator in '1/0'"),
        "certificate": (["verify", "--arena", arena, "--p1", loop, "--p2", IDLE, "--cert",
                         _write(tmp_path, "zero.json", json.dumps({
                             "schema": "qg-cert/1", "variant": "SinkPayoff",
                             "body": {"final_tp": "1/0", "sink": "a", "steps": 1}}))],
                        "SinkPayoff certificate field final_tp: zero denominator in '1/0'"),
    }[reader]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)


@pytest.mark.parametrize("reader, number, message", [
    ("arena", "1e999999999", "line 2: weight= must be a number, got '1e999999999'"),
    ("strategy", "1e9", "line 2: weight= must be a number, got '1e9'"),
    ("objective", "1e100000",
     "objective threshold must be a number, +inf or -inf, got '1e100000'"),
    ("certificate", '"1e99999999"',
     "SinkPayoff certificate field final_tp: not an exact number: '1e99999999'"),
    ("certificate", "1e999", "SinkPayoff certificate field final_tp: not an exact number: inf"),
    ("certificate", "-0.1", "SinkPayoff certificate field final_tp: not an exact number: -0.1"),
], ids=["arena", "strategy", "objective", "certificate-text", "certificate-float-overflow",
        "certificate-float"])
def test_cli_refuses_an_exponent_or_a_float_with_one_error_line(tmp_path, capsys, reader,
                                                                number, message):
    # an exponent's integer could take minutes to build, and a float is not exact
    arena, loop = _loop_arena(tmp_path, "0")
    argv = {
        "arena": ["validate", "--arena", _write(tmp_path, "exp.txt", "vertex a owner=1\n"
                                                "edge a a weight=%s\nstart a\n" % number)],
        "strategy": ["simulate", "--arena", arena, "--p2", IDLE, "--p1", _write(
            tmp_path, "exp.strategy", "strategy exp kind=memoryless\nmove a -> a weight=%s\n"
            % number)],
        "objective": ["synthesize", "--arena", arena, "--objective", "tp:limsup:>=:" + number],
        "certificate": ["verify", "--arena", arena, "--p1", loop, "--p2", IDLE, "--cert",
                        _write(tmp_path, "exp.json", '{"schema": "qg-cert/1", "variant": '
                               '"SinkPayoff", "body": {"final_tp": %s, "sink": "a", '
                               '"steps": 1}}' % number)],
    }[reader]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)


def test_cli_verify_refutes_a_level_satisfaction_that_claims_no_level(tmp_path, capsys):
    arena, loop = _loop_arena(tmp_path, "0")
    cert = _write(tmp_path, "empty.json", json.dumps({
        "schema": "qg-cert/1", "variant": "LevelSatisfaction", "body": {"levels": []}}))
    assert main(["verify", "--arena", arena, "--p1", loop, "--p2", IDLE, "--cert", cert,
                 "--objective", "tp:limsup:>=:0"]) == 1
    assert capsys.readouterr() == ("no level claimed\nverify: refuted\n", "")


@pytest.mark.parametrize("objective, message", [
    ("buchi-all:x", "buchi-all colour count must be an integer, got 'x'"),
    ("tp:limsup:>=:abc", "objective threshold must be a number, +inf or -inf, got 'abc'"),
    ("mp:limsup:>=:", "objective threshold must be a number, +inf or -inf, got ''"),
], ids=["colour-count", "threshold", "empty-threshold"])
def test_cli_names_an_objective_number_it_cannot_read(tmp_path, capsys, objective, message):
    arena, _ = _loop_arena(tmp_path, "0")
    assert main(["synthesize", "--arena", arena, "--objective", objective]) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)


@pytest.fixture(scope="module")
def defeat_certificates(tmp_path_factory):
    """The certificate JSON that qg defeat writes for an early exit and a
    stagnation on a3, a decrease on a4 and a colour starvation on buchib,
    each with the context that checks it."""
    tmp = tmp_path_factory.mktemp("defeat")
    t2, r0 = V("t", (2,)), V("r0")
    exit2 = StepCounterTable({(t2, 7, 0): Edge(t2, F(2), r0)}, 8, FIRST_EDGE, name="exit2")
    stay = StepCounterTable({}, 0, FIRST_EDGE, name="stay")  # t(i)'s first edge delays
    a3, a4, buchib = make("a3"), make("a4"), make("buchib")
    always_delay = a4.strategy("always_delay")
    runs = {"a3-exit": (a3, exit2, a3.strategy("p2_enter_2")),
            "a3-stay": (a3, stay, a3.strategy("p2_enter_0")),
            # v's first edge exits, so colour 1 starves from step 0
            "buchib-exit": (buchib, stay, defeat_sc_buchi(stay, buchib).p2),
            # qg defeat runs the Ramsey adversary at these window and horizon
            "a4-delay": (a4, always_delay,
                         ramsey_adversary(always_delay, a4, window=2000, horizon=2000)[1].p2)}
    found = {}
    for label, (entry, sigma, p2) in runs.items():
        spec = "always_delay" if sigma is always_delay else \
            _write(tmp, label + ".strategy", serialize_strategy(sigma))
        cert = tmp / (label + ".json")
        assert main(["defeat", "--arena", "zoo:" + entry.name, "--strategy", spec,
                     "--out", str(cert)]) == 0
        data = json.loads(cert.read_text())
        context = {"arena": entry.arena, "v0": entry.start, "sigma1": sigma, "sigma2": p2}
        assert check_certificate(certificate_from_json(cert.read_text()), context).ok
        found[label] = data, context
    return found


@pytest.mark.parametrize("source, changes, diagnostic", [
    ("a3-exit", {"variant": "SinkPayoff", "sink": "q"}, "sink mismatch: played r0, claimed q"),
    ("a3-exit", {"threshold": "-1"}, "final TP -1 is not below the threshold -1"),
    ("a3-stay", {"variant": "EarlyExitNegative", "final_tp": "-1", "threshold": "0",
                 "steps": 30}, "play does not reach a sink within 30 steps"),
    ("a3-stay", {"round_starts": [4, 1]},
     "round boundaries must be strictly increasing, >= 2 of them"),
    ("a3-stay", {"round_starts": [1, 4, 203]}, "round boundaries exceed the simulated horizon"),
    ("a4-delay", {"cycle_from": -1}, "cycle_from out of range"),
    # step 8 is the first delay vertex after t(2)
    ("a3-stay", {"round_starts": [1, 4, 8]},
     "round-start states differ: ('t', '-', '-') vs ('e', '-', '-')"),
    # step 6 is t(1), and its delay edge gains 1
    ("a4-delay", {"mode": "stagnation", "ceiling": "-1", "round_starts": [6, 7]},
     "round at step 6 gains payoff"),
    ("a4-delay", {"decrease": "2"}, "round at step 6 has payoff -1 > -2"),
    ("a4-delay", {"elevation": "1"}, "in-round spike 2 exceeds elevation bound 1"),
    ("a4-delay", {"ceiling": "-3"}, "TP reaches -2 above the ceiling -3"),
    ("a4-delay", {"mode": "sideways"}, "unknown divergence mode 'sideways'"),
    ("a4-delay", {"decrease": "1/2"}, "decrease certificates need a per-round decrease >= 1"),
    ("a4-delay", {"elevation": "-1"}, "decrease certificates need an elevation bound >= 0"),
    ("a4-delay", {"round_states": ["x"]}, "claimed round states do not match the replay"),
    ("a3-exit", {"variant": "Divergence", "mode": "decrease", "round_starts": [0, 1],
                 "horizon": 30}, "play reaches a sink; no divergence"),
    ("a3-stay", {"variant": "SinkPayoff", "final_tp": "0", "sink": "r0", "steps": 30},
     "play does not reach a sink within 30 steps"),
    # steps outside 0 to the horizon: the replay has no such position to check
    ("a3-stay", {"round_starts": [-2, 1, 4]}, "round boundary -2 is before step 0"),
    ("a3-stay", {"round_starts": [1, 4, 201]}, "round boundaries exceed the simulated horizon"),
    # the lasso closes at step 2: v exits to u, which pads back to v
    ("buchib-exit", {"after_step": -2}, "after_step -2 is outside steps 0 to 2"),
    ("buchib-exit", {"after_step": 3}, "after_step 3 is outside steps 0 to 2"),
], ids=["wrong-sink", "exit-not-below", "no-sink", "boundaries-out-of-order",
        "boundary-past-horizon", "cycle-from-out-of-range", "round-states-differ",
        "stagnation-round-gains", "round-loses-too-little", "spike-above-elevation",
        "above-ceiling", "unknown-mode", "decrease-below-one", "negative-elevation",
        "round-states-claimed-wrong", "divergence-reaches-a-sink", "sink-never-reached",
        "boundary-before-step-0", "boundary-one-past-horizon", "colour-after-step-before-0",
        "colour-after-step-past-horizon"])
def test_tampered_defeat_certificates_are_refuted_with_their_diagnostic(
        defeat_certificates, source, changes, diagnostic):
    data, context = defeat_certificates[source]
    tampered = json.loads(json.dumps(data))
    tampered["variant"] = changes.get("variant", data["variant"])
    tampered["body"].update((k, v) for k, v in changes.items() if k != "variant")
    # another variant keeps only the fields it declares, since the reader refuses the rest
    declared = getattr(engine, tampered["variant"])._fields
    tampered["body"] = {k: v for k, v in tampered["body"].items() if k in declared}
    check = check_certificate(certificate_from_json(json.dumps(tampered)), context)
    assert not check.ok
    assert check.diagnostics == [diagnostic]


def test_cli_defeat_reports_an_exhausted_window_as_inconclusive(capsys):
    assert main(["defeat", "--arena", "zoo:a4", "--strategy", "always_delay",
                 "--window", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == (
        "inconclusive: no monochromatic index clique of size 3 within window 1; enlarge the "
        "window (existence is guaranteed only in the infinite limit)\n")
    assert captured.err == ""


INCONCLUSIVE_CASES = Path(__file__).parent / "data" / "inconclusive"


@pytest.mark.parametrize("uri, strategy, options, reason", [
    # the responder descends 300 steps, past every challenge up to the cap
    ("zoo:a2", "a2_descend_300", [], "no losing challenge within the probe cap 256"),
    ("zoo:a3", "a3_stay", ["--horizon", "2"], "horizon too small to cover any decision vertex"),
    # exits at t(1), step 4: the horizon's last vertex, so the play never absorbs
    ("zoo:a3", "a3_exit_at_step_4", ["--horizon", "4"],
     "horizon too small to absorb after entering at 1"),
], ids=["a2-probe-cap", "a3-horizon", "a3-exit-at-horizon"])
def test_cli_defeat_reports_an_exhausted_cap_as_inconclusive(capsys, uri, strategy, options,
                                                             reason):
    path = str(INCONCLUSIVE_CASES / (strategy + ".strategy"))
    assert main(["defeat", "--arena", uri, "--strategy", path] + options) == 2
    captured = capsys.readouterr()
    assert captured.out == "inconclusive: %s\n" % reason
    assert captured.err == ""


@pytest.mark.parametrize("uri, strategy, options, after, closure", [
    # exits at steps 0 and 5 only, and loops at every other row up to 39
    ("zoo:buchib?b=1", "buchib_exit_at_0_and_5", ["--horizon", "20"], 40, 42),
    ("zoo:buchib?b=1", "buchib_exit_at_0_and_5", ["--horizon", "2"], 40, 42),
    # exits at steps 0 and 2, then loops at steps 4 to 6 before the rows end
    ("zoo:buchib?b=1", "buchib_exit_at_0_and_2", ["--horizon", "2"], 7, 9),
], ids=["buchib-padding", "buchib-padding-within-two-steps",
        "buchib-table-loops-past-the-horizon"])
def test_cli_defeat_claims_the_lasso_on_buchib_whatever_the_horizon(
        tmp_path, capsys, uri, strategy, options, after, closure):
    """Files once named as an exhausted horizon: the adversary plays
    ``pad_1`` until the lasso closes, and ``qg verify --p2 pad_1`` accepts
    the certificate, naming the step where it closes."""
    path, cert = str(INCONCLUSIVE_CASES / (strategy + ".strategy")), tmp_path / "cert.json"
    assert main(["defeat", "--arena", uri, "--strategy", path, "--out", str(cert)]
                + options) == 0
    assert capsys.readouterr() == (
        "note: the lasso closes at step %d; colour 1 does not occur from step %d on\n"
        "certificate written to %s\ndefeat: certificate accepted\n" % (closure, after, cert), "")
    assert certificate_from_json(cert.read_text()) == ColourStarvation(1, after, closure)
    assert main(["verify", "--arena", uri, "--p1", path, "--p2", "pad_1",
                 "--cert", str(cert)]) == 0
    assert capsys.readouterr() == (
        "colour 1 absent after step %d; the lasso closes at step %d, repeating steps %d to %d "
        "forever\nverify: accepted\n" % (after, closure, closure - 2, closure), "")


@pytest.mark.parametrize("strategy", ["a3_stay", "a3_exit_at_step_4"])
def test_cli_defeat_on_a3_never_writes_a_certificate_its_self_check_refutes(capsys, strategy):
    path = str(INCONCLUSIVE_CASES / (strategy + ".strategy"))
    for horizon in range(41):
        rc = main(["defeat", "--arena", "zoo:a3", "--strategy", path, "--horizon", str(horizon)])
        out = capsys.readouterr().out
        assert "self-check failed" not in out, (horizon, out)
        assert rc in (0, 2), (horizon, out)


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_cli_defeat_emits_no_certificate_its_self_check_refutes(tmp_path, capsys, to_file,
                                                                monkeypatch):
    # an adversary claiming colour-1 starvation over two steps, where the
    # table loops at step 2, fails its own replay; the refuted certificate
    # is not emitted
    def overclaiming(sigma, entry):
        p2 = Strategy("pad_one", 0, lambda step, e: step + 1, lambda ar, w, step: ar.edges(w)[0],
                      player=2)
        return DefeatResult(p2, ColourStarvation(1, 0, 2), None, False,
                            ["every arrival hits an exit step"])

    monkeypatch.setattr(cli, "defeat_sc_buchi", overclaiming)
    out = tmp_path / "cert.json"
    path = str(INCONCLUSIVE_CASES / "buchib_exit_at_0_and_5.strategy")
    argv = ["defeat", "--arena", "zoo:buchib?b=1", "--strategy", path, "--horizon", "2"]
    assert main(argv + (["--out", str(out)] if to_file else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == ("note: every arrival hits an exit step\n"
                            "self-check failed: colour 1 occurs again at step 2\n")
    assert captured.err == ""
    assert not out.exists()


def test_cli_defeat_reads_a_step_counter_table_and_never_writes_a_false_certificate():
    # every horizon-7 loop-or-exit table on buchib at b = 1 and 3, and 200
    # seeded a3 tables with 0-2 exit rows, many of them past the horizon
    runs = sweeps.buchib_runs([1, 3], [0, 2, 7]) + sweeps.a3_runs([4, 10, 20])
    assert len(runs) == 768 + 600
    assert sweeps.sweep(runs) == []


def test_cli_defeat_on_buchib_prints_the_same_bytes_at_every_horizon():
    # the buchib adversary reads no --horizon: a seeded sample of tables
    # exits alike and writes the same output and certificate at 0, 7 and 40
    pairs = random.Random(52).sample([("zoo:buchib?b=%d" % b, text) for b in (1, 3)
                                      for text in sweeps.buchib_tables(7)], 16)
    assert sweeps.horizon_blind(pairs) == []


def test_a_buchib_certificate_passes_qg_verify_with_pad_1_in_a_fresh_process(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    strategy, cert = str(INCONCLUSIVE_CASES / "buchib_exit_at_0_and_5.strategy"), str(tmp_path / "C")
    common = ["--arena", "zoo:buchib?b=3"]
    for argv, out in [(["defeat", "--strategy", strategy, "--out", cert],
                       "certificate written to %s\ndefeat: certificate accepted\n" % cert),
                      (["verify", "--p1", strategy, "--p2", "pad_1", "--cert", cert],
                       "colour 1 absent after step 40; the lasso closes at step 42, repeating "
                       "steps 40 to 42 forever\nverify: accepted\n")]:
        done = subprocess.run([sys.executable, "-m", "qgames.cli", *argv[:1], *common, *argv[1:]],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.endswith(out)


def test_cli_defeat_on_buchib_exits_0_exactly_where_player_2_starves_a_colour(tmp_path,
                                                                              capsys):
    # the exact oracle solves the finite game on (vertex, min(step, S));
    # on a two-vertex cycle whose colours both recur it finds no win
    a, b = V("a"), V("b")
    cycle = ArenaExplicit({a: 1, b: 2}, [Edge(a, 1, b), Edge(b, 0, a)], a)
    assert not oracles.starves_a_colour(cycle, StepCounterTable({}, 0))
    path = tmp_path / "t.strategy"
    for n in (1, 2, 3):
        arena = make("buchib", b=n).arena
        for text in sweeps.buchib_tables(7):
            path.write_text(text)
            wins = oracles.starves_a_colour(arena, parse_strategy(text))
            code = main(["defeat", "--arena", "zoo:buchib?b=%d" % n, "--strategy", str(path)])
            capsys.readouterr()
            assert (code == 0) == wins, text


def test_cli_synthesize_decides_a_seeded_sample_of_the_small_scope():
    # 300 of the 46 656 three-vertex arenas, each with 1-2 distinct
    # successors per vertex and weights -1 or +1: mp and tpsup values match
    # brute force, and qg synthesize --m-max 4 exits 0 exactly where the
    # start value is at least r, for r = -1, 0 and 1
    assert len(set(small_scope.ROWS)) == 36 and small_scope.SIZE == 46656
    assert small_scope.sweep(random.Random(19).sample(range(small_scope.SIZE), 300)) == []


@pytest.mark.parametrize("horizon, rc, first", [
    (10, 2, "inconclusive: horizon too small to absorb after entering at 5"),
    (20, 0, "note: entered at index 5, the strategy's own exit step")])
def test_cli_defeat_on_a3_reads_a_late_exit_row_off_the_table(tmp_path, capsys, horizon, rc,
                                                               first):
    late = _write(tmp_path, "late.strategy", "strategy late kind=sc horizon=40 fallback=first\n"
                  "move t(5) step=16 -> r0 weight=5\n")
    cert = tmp_path / "cert.json"
    assert main(["defeat", "--arena", "zoo:a3", "--strategy", late, "--horizon", str(horizon),
                 "--out", str(cert)]) == rc
    assert capsys.readouterr().out.splitlines()[0] == first
    if rc == 0:
        assert certificate_from_json(cert.read_text()) == EarlyExitNegative(-1, 0, 17)


def test_cli_defeat_notes_a_truncation_cap_that_binds_at_a_forced_challenge(capsys):
    # at b = 1 the challenge is forced, so the opponent is never asked for
    # it; the memoryless reply +1 still outgrows the cap
    path = str(INCONCLUSIVE_CASES / "a1prime_reply_1.strategy")
    assert main(["defeat", "--arena", "zoo:a1prime?b=1", "--strategy", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ("note: truncation cap bound the response\n"
                            "note: a round failed to lose at least 1; no certificate\n"
                            "defeat: no certificate (partial)\n")
    assert captured.err == ""


ZOO_P2 = Path(__file__).parent / "data" / "zoo_p2"


def _winnable_pool_arenas() -> list[tuple[str, str]]:
    """The first member of each perfbench pool cell whose start value is
    at least 0, as (cell, arena text)."""
    pool = json.loads((PERFBENCH / "pool.json").read_text())
    return [(cell, next(m["arena"] for m in members
                        if m["start_value"] == "+inf" or not m["start_value"].startswith("-")))
            for cell, members in sorted(pool.items())]


_CHOICE_RUNS = {
    "simulate-a1prime": (["simulate", "--arena", "zoo:a1prime", "--p1", "match_plus_one",
                          "--p2", str(ZOO_P2 / "a1prime_challenge_3.strategy")], 0),
    "simulate-a2": (["simulate", "--arena", "zoo:a2", "--p1", "match_plus_one",
                     "--p2", "p2_pick_3"], 0),
    "simulate-a3": (["simulate", "--arena", "zoo:a3", "--p1", "delay_twice_exit",
                     "--p2", "p2_enter_1"], 0),
    "simulate-a4": (["simulate", "--arena", "zoo:a4", "--p1", "adaptive", "--p2", "p2_enter_2"],
                    0),
    "simulate-a4guarded": (["simulate", "--arena", "zoo:a4guarded", "--p1", "sigma_3",
                            "--p2", "p2_enter_1"], 0),
    "simulate-bitarena-opposite": (["simulate", "--arena", "zoo:bitarena", "--p1", "opposite",
                                    "--p2", "allzero"], 0),
    "simulate-bitarena-safe": (["simulate", "--arena", "zoo:bitarena", "--p1", "safe",
                                "--p2", "allclimb"], 0),
    "simulate-buchia": (["simulate", "--arena", "zoo:buchia", "--p1", "round_robin",
                         "--p2", str(ZOO_P2 / "idle.strategy")], 0),
    "simulate-buchib": (["simulate", "--arena", "zoo:buchib", "--p1", "alternating",
                         "--p2", str(ZOO_P2 / "buchib_pad_4.strategy")], 0),
    "simulate-nonuniform": (["simulate", "--arena", "zoo:nonuniform?start_index=3",
                             "--p1", "exit_at_5", "--p2", str(ZOO_P2 / "idle.strategy")], 0),
    "defeat-a1prime-b1": (["defeat", "--arena", "zoo:a1prime?b=1", "--strategy",
                           str(INCONCLUSIVE_CASES / "a1prime_reply_1.strategy")], 2),
    "defeat-a1prime": (["defeat", "--arena", "zoo:a1prime", "--strategy",
                        str(INCONCLUSIVE_CASES / "a1prime_reply_1.strategy")], 0),
    "defeat-a2": (["defeat", "--arena", "zoo:a2", "--strategy",
                   str(INCONCLUSIVE_CASES / "a2_descend_300.strategy")], 2),
    "defeat-a3": (["defeat", "--arena", "zoo:a3", "--strategy",
                   str(INCONCLUSIVE_CASES / "a3_stay.strategy")], 0),
    "defeat-a4": (["defeat", "--arena", "zoo:a4", "--strategy", "delay_twice_exit"], 0),
    "defeat-a4guarded": (["defeat", "--arena", "zoo:a4guarded", "--strategy",
                          "delay_twice_exit"], 0),
    "defeat-buchib-b1": (["defeat", "--arena", "zoo:buchib?b=1", "--strategy",
                          str(INCONCLUSIVE_CASES / "buchib_exit_at_0_and_5.strategy"),
                          "--horizon", "20"], 0),
    "defeat-buchib": (["defeat", "--arena", "zoo:buchib", "--strategy",
                       str(INCONCLUSIVE_CASES / "buchib_exit_at_0_and_5.strategy")], 0),
    "bench": (["bench"], 0),
    "synthesize-bitarena": (["synthesize", "--arena", "zoo:bitarena",
                             "--objective", "tp:limsup:>=:0", "--m-max", "6"], 0),
    **{"synthesize-" + cell: (["synthesize", "--arena", text, "--objective",
                               cell[:2] + ":limsup:>=:0", "--m-max", "4"], 0)
       for cell, text in _winnable_pool_arenas()},
}


@pytest.mark.parametrize("run", sorted(_CHOICE_RUNS))
def test_choose_is_asked_only_where_its_player_has_a_choice(tmp_path, monkeypatch, capsys, run):
    """Every strategy class's ``choose`` is wrapped: the zoo's, the file
    kinds, the adversaries' opponents and the synthesizers' composites,
    step-counter tables with a tail.  Forced moves and the other player's
    vertices are the arena's."""
    argv, code = _CHOICE_RUNS[run]
    asked, misplaced = [], []

    def wrapped(cls, inner):
        def choose(self, arena, vertex, state):
            owner, out = arena.row(vertex)
            asked.append(vertex)
            if owner != self.player or len(out) < 2:
                misplaced.append("%s %s asked at %s, owner %d, %d edge(s)"
                                 % (cls.__name__, self.name, vertex, owner, len(out)))
            return inner(self, arena, vertex, state)
        return choose

    classes, todo = [], [Strategy]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "choose" in cls.__dict__:
            classes.append(cls)
    assert {"Strategy", "Memoryless", "StepCounterTable"} <= {cls.__name__ for cls in classes}
    for cls in classes:
        monkeypatch.setattr(cls, "choose", wrapped(cls, cls.__dict__["choose"]))
    if argv[0] == "synthesize" and not argv[2].startswith("zoo:"):
        argv = argv[:2] + [_write(tmp_path, "arena.txt", argv[2])] + argv[3:]
    assert main(argv + (["--out", str(tmp_path / "out")] if argv[0] != "bench" else [])) == code
    capsys.readouterr()
    assert asked
    assert misplaced[:3] == []


@pytest.mark.parametrize("cell", ["mp-n6-w2", "tp-n5-w6", "bitarena"])
def test_cli_synthesize_asks_the_oracle_once_at_the_start_pair(tmp_path, monkeypatch, capsys,
                                                               cell):
    # every bubble's composite plays the one continuation asked at (v0, 0)
    asked = []

    def counting(synthesize):
        def run(*args, **kw):
            args = [a._replace(winning_from=lambda v, r, ask=a.winning_from:
                               asked.append((v, r)) or ask(v, r))
                    if isinstance(a, WPrimeOracle) else a for a in args]
            return synthesize(*args, **kw)
        return run

    for name in ("bubble_synthesize", "sc1bit_synthesize"):
        monkeypatch.setattr(cli, name, counting(getattr(cli, name)))
    arena = ("zoo:bitarena" if cell == "bitarena"
             else _write(tmp_path, "arena.txt", dict(_winnable_pool_arenas())[cell]))
    family = "mp" if cell.startswith("mp") else "tp"
    assert main(["synthesize", "--arena", arena, "--objective", family + ":limsup:>=:0",
                 "--m-max", "4"]) == 0
    assert "certified: yes\n" in capsys.readouterr().out
    assert asked == [(make("bitarena").start if cell == "bitarena" else V("n", (0,)), 0)]


@pytest.mark.parametrize("text, message", [
    ("strategy x kind=sc+k states=2 horizon=4\nbitupd state=0 step=0 edge=a->b weight=1 ->\n",
     "line 2: bitupd line needs a target mode after ->"),
    ("strategy x kind=sc\n", "sc strategy header needs horizon="),
    ("strategy x kind=sc+k horizon=4\n", "sc+k strategy header needs states="),
    ("strategy x kind=sc+k states=2\n", "sc+k strategy header needs horizon="),
    ("strategy x kind=memoryless player=3\n",
     "memoryless strategy header player=3 must be 1 or 2"),
    ("strategy x kind=memoryless player=abc\n",
     "memoryless strategy header player=abc is not an integer"),
    ("strategy x kind=sc horizon=-3\n", "sc strategy header horizon=-3 must be at least 0"),
    ("strategy x kind=sc horizon=x\n", "sc strategy header horizon=x is not an integer"),
    ("strategy x kind=sc+k states=0 horizon=4\n",
     "sc+k strategy header states=0 must be at least 1"),
    ("strategy x kind=sc+k states=x horizon=4\n",
     "sc+k strategy header states=x is not an integer"),
    ("strategy x kind=sc+k states=2 horizon=4\nmove a state=5 step=0 -> b weight=1\n",
     "line 2: move state=5 is not below states=2"),
    ("strategy x kind=sc horizon=2\nmove a step=7 -> b weight=1\n",
     "line 2: move step=7 is not below horizon=2"),
    ("strategy x kind=sc horizon=2\nmove a step=-1 -> b weight=1\n",
     "line 2: move step=-1 is negative"),
    ("strategy x kind=memoryless\nmove a step=9 state=4 -> b weight=1\n",
     "line 2: memoryless move attributes must be none"),
    ("strategy x kind=sc horizon=4\nmove a state=0 step=0 -> b weight=1\n",
     "line 2: sc move attributes must be step="),
    ("strategy x kind=sc+k states=2 horizon=4\nmove a step=0 -> b weight=1\n",
     "line 2: sc+k move attributes must be state= and step="),
    ("strategy x kind=memoryless\nmove a -> b weight=1\nmove a -> c weight=0\n",
     "line 3: move repeats the cell of line 2"),
    ("strategy x kind=sc horizon=4\nmove a step=1 -> b weight=1\n\nmove a step=1 -> b weight=1\n",
     "line 4: move repeats the cell of line 2"),
    ("strategy x kind=sc horizon=4\nbitupd state=0 step=0 edge=a->b weight=1 -> 1\n",
     "line 2: a kind=sc strategy has no bitupd rows"),
    ("strategy x kind=memoryless\nbitupd state=0 step=0 edge=a->b weight=1 -> 1\n",
     "line 2: a kind=memoryless strategy has no bitupd rows"),
    ("strategy x kind=sc+k states=2 horizon=4\nbitupd state=0 step=0 edge=a->b weight=1 -> 2\n",
     "line 2: bitupd target mode 2 is not below states=2"),
    ("strategy x kind=sc+k states=2 horizon=4\nbitupd state=0 step=0 edge=a->b weight=1 -> -1\n",
     "line 2: bitupd target mode -1 is negative"),
    ("strategy x kind=sc+k states=2 horizon=4\nbitupd state=2 step=0 edge=a->b weight=1 -> 0\n",
     "line 2: bitupd state=2 is not below states=2"),
    ("strategy x kind=sc+k states=2 horizon=4\nbitupd state=-1 step=0 edge=a->b weight=1 -> 0\n",
     "line 2: bitupd state=-1 is negative"),
    ("strategy x kind=sc+k states=2 horizon=4\nbitupd state=0 step=4 edge=a->b weight=1 -> 0\n",
     "line 2: bitupd step=4 is not below horizon=4"),
    ("strategy x kind=sc+k states=2 horizon=4\nbitupd state=0 step=0 edge=a->b weight=1 -> 1\n"
     "bitupd step=0 state=0 weight=1 edge=a->b -> 0\n",
     "line 3: bitupd repeats the cell of line 2"),
    ("strategy x kind=memoryless horizon=5 fallback=error states=9 foo=bar\n",
     "memoryless strategy header takes no horizon="),
    ("strategy x kind=sc states=3 horizon=4\n", "sc strategy header takes no states="),
    ("strategy x kind=sc+k states=2 horizon=4 step=1\n", "sc+k strategy header takes no step="),
    ("strategy s kind=sc horizon=4 horizon=9\n", "line 1: strategy header repeats horizon="),
    ("strategy s kind=sc horizon=4\nmove t(0) step=1 step=3 -> e(0,1) weight=0\n",
     "line 2: move repeats step="),
    ("strategy x kind=sc horizon=4\nmove n(0) step=y -> n(1) weight=0\n",
     "line 2: step= must be an integer, got 'y'"),
    ("strategy x kind=sc+k states=2 horizon=4\nmove n(0) state=z step=0 -> n(1) weight=0\n",
     "line 2: state= must be an integer, got 'z'"),
    ("strategy x kind=sc horizon=4\nmove n(0) step=0 -> n(1) weight=zz\n",
     "line 2: weight= must be a number, got 'zz'"),
    ("strategy x kind=sc+k states=2 horizon=4\nbitupd state=0 step=0 edge=a->b weight=w -> 1\n",
     "line 2: weight= must be a number, got 'w'"),
    ("strategy x kind=sc+k states=2 horizon=4\nbitupd state=0 step=0 edge=a->b weight=1 -> q\n",
     "line 2: bitupd target mode must be an integer, got 'q'"),
    ("strategy x kind=memoryless\nmove n(x) -> n(1) weight=0\n",
     "line 2: vertex n(x) parameter must be an integer, got 'x'"),
], ids=["bitupd-without-target", "sc-without-horizon", "sc+k-without-states",
        "sc+k-without-horizon", "player-3", "player-not-an-integer", "horizon-negative",
        "horizon-not-an-integer", "states-0", "states-not-an-integer", "move-state-past-states",
        "move-step-past-horizon", "move-step-negative", "memoryless-move-with-step-and-state",
        "sc-move-with-state", "sc+k-move-without-state", "memoryless-move-repeated",
        "sc-move-repeated", "bitupd-in-sc", "bitupd-in-memoryless", "bitupd-mode-past-states",
        "bitupd-mode-negative", "bitupd-state-past-states", "bitupd-state-negative",
        "bitupd-step-past-horizon", "bitupd-repeated", "memoryless-header-with-horizon",
        "sc-header-with-states", "sc+k-header-with-step", "header-repeats-horizon",
        "move-repeats-step", "step-not-an-integer", "state-not-an-integer",
        "move-weight-not-a-number", "bitupd-weight-not-a-number", "bitupd-target-not-an-integer",
        "vertex-parameter-not-an-integer"])
def test_cli_names_what_a_malformed_strategy_file_lacks(tmp_path, capsys, text, message):
    strat = _write(tmp_path, "bad.strategy", text)
    assert main(["simulate", "--arena", "zoo:a3", "--p1", strat, "--p2", "p2_enter_0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "certificate must be a JSON object"),
    ('{"schema": "qg-cert/1", "variant": "SinkPayoff", "body": [1]}',
     "certificate body must be a JSON object"),
    ('{"schema": "qg-cert/1", "variant": "EarlyExitNegative", '
     '"body": {"final_tp": "-1", "steps": 5}}',
     "EarlyExitNegative certificate body lacks 'threshold'"),
    ('{"schema": "qg-cert/1", "variant": "KoenigBound", "body": {"level": 3, '
     '"open_sub": {"m": 1, "i": 0, "colour": null}}}',
     "KoenigBound certificate body lacks 'family'"),
    ('{"schema": "qg-cert/1", "variant": "KoenigBound", "body": {"level": 3, "open_sub": 3}}',
     "KoenigBound certificate field open_sub: 'int' object is not subscriptable"),
    ('{"schema": "qg-cert/1", "variant": "LevelSatisfaction", "body": {"levels": 5}}',
     "LevelSatisfaction certificate field levels: 'int' object is not iterable"),
    ("m=1 k=3\n", "certificate is not JSON: Expecting value: line 1 column 1 (char 0)"),
    ('{"schema": "qg-cert/1", "variant": "EarlyExitNegative", "extra": 1, '
     '"body": {"final_tp": "-1", "steps": 5, "threshold": "0"}}',
     "certificate has no field 'extra'"),
    ('{"schema": "qg-cert/1", "variant": "EarlyExitNegative", '
     '"body": {"final_tp": "-1", "steps": 5, "threshold": "0", "treshold": "-5"}}',
     "EarlyExitNegative certificate body has no field 'treshold'"),
    ('{"schema": "qg-cert/1", "variant": "KoenigBound", "body": {"level": 3, '
     '"open_sub": {"family": "tp-sup", "m": 1, "i": 1, "colour": null, "treshold": "1"}}}',
     "KoenigBound certificate field open_sub: open sub-objective has no field 'treshold'"),
    ('{"schema": "qg-cert/1", "variant": "EarlyExitNegative", '
     '"body": {"final_tp": "-1", "steps": 5, "threshold": "-5", "threshold": "0"}}',
     "certificate repeats key 'threshold'"),
    ('{"schema": "qg-cert/1", "schema": "qg-cert/1", "variant": "EarlyExitNegative", '
     '"body": {"final_tp": "-1", "steps": 5, "threshold": "0"}}',
     "certificate repeats key 'schema'"),
    ('{"schema": "qg-cert/1", "variant": "KoenigBound", "body": {"level": 3, '
     '"open_sub": {"family": "tp-sup", "m": 1, "m": 2, "i": 1, "colour": null}}}',
     "certificate repeats key 'm'"),
], ids=["not-an-object", "body-not-an-object", "missing-field", "missing-open-sub-field",
        "open-sub-not-an-object", "levels-not-a-list", "not-json", "unknown-top-level-key",
        "unknown-body-key", "unknown-open-sub-key", "body-repeats-key", "top-level-repeats-key",
        "open-sub-repeats-key"])
def test_cli_verify_names_what_a_malformed_certificate_lacks(tmp_path, capsys, text, message):
    cert = _write(tmp_path, "bad.json", text)
    assert main(["verify", "--arena", "zoo:a3", "--cert", cert]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""

OPEN_SUB = '"family": "tp-sup", "m": %s, "i": 1, "colour": null'


@pytest.mark.parametrize("body, message", [
    ('"KoenigBound", "body": {"level": true, "open_sub": {%s}}' % (OPEN_SUB % 1),
     "KoenigBound certificate field level: true is not an integer"),
    ('"ColourStarvation", "body": {"colour": "1", "after_step": 1.5, "horizon": 10}',
     "ColourStarvation certificate field after_step: 1.5 is not an integer"),
    ('"KoenigBound", "body": {"level": 3, "open_sub": {%s}}' % (OPEN_SUB % 1.5),
     "KoenigBound certificate field open_sub: 1.5 is not an integer"),
    ('"KoenigBound", "body": {"level": 3, "open_sub": {%s}}' % (OPEN_SUB % '"2"'),
     'KoenigBound certificate field open_sub: "2" is not an integer'),
], ids=["bool-level", "float-after-step", "float-open-sub-m", "string-open-sub-m"])
def test_cli_verify_refuses_a_certificate_integer_that_is_not_a_json_integer(
        tmp_path, capsys, body, message):
    cert = _write(tmp_path, "bad.json", '{"schema": "qg-cert/1", "variant": %s}' % body)
    assert main(["verify", "--arena", "zoo:bitarena", "--cert", cert,
                 "--p1", "opposite", "--p2", "allzero"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["true", "false"])
def test_cli_verify_refuses_a_bool_certificate_threshold(tmp_path, capsys, flag):
    # a JSON true once read as threshold 1, which this bound reproduces
    arena = _write(tmp_path, "loop.txt", "vertex a owner=1\nvertex b owner=2\n"
                   "edge a b weight=1\nedge b a weight=1\nstart a\n")
    go = _write(tmp_path, "go.strategy", "strategy go kind=memoryless\nmove a -> b weight=1\n")
    cert = _write(tmp_path, "bool.json", '{"schema": "qg-cert/1", "variant": "KoenigBound", '
                  '"body": {"level": 1, "open_sub": {%s, "threshold": %s}}}'
                  % (OPEN_SUB % 1, flag))
    assert main(["verify", "--arena", arena, "--cert", cert, "--p1", go]) == 1
    assert capsys.readouterr() == ("", "error: KoenigBound certificate field open_sub: "
                                   "not an exact number: %s\n" % flag.capitalize())


def test_cli_synthesize_writes_a_strategy(tmp_path, capsys):
    path = _write(tmp_path, "pos.txt", POS_ARENA)
    out = str(tmp_path / "pos.strategy")
    assert main(["synthesize", "--arena", path, "--objective",
                 "tp:limsup:>=:0", "--m-max", "2", "--out", out]) == 0
    assert "certified: yes" in capsys.readouterr().out
    sigma = parse_strategy(Path(out).read_text())
    assert isinstance(sigma, StepCounterTable) and sigma.k == 2


def test_cli_synthesize_is_deterministic(tmp_path):
    path = _write(tmp_path, "pos.txt", POS_ARENA)
    outs = []
    for name in ("s1", "s2"):
        out = str(tmp_path / name)
        assert main(["synthesize", "--arena", path, "--objective",
                     "mp:limsup:>=:0", "--m-max", "2", "--out", out]) == 0
        outs.append(Path(out).read_text())
    assert outs[0] == outs[1]


def test_cli_synthesize_rejects_strict_tp(capsys):
    # a generator's weights cannot all be read, so no common denominator
    # rewrites the strict threshold
    assert main(["synthesize", "--arena", "zoo:bitarena", "--objective",
                 "tp:limsup:>:0"]) == 1
    err = capsys.readouterr().err
    assert "rewrite" in err and "which a generator cannot list" in err


def test_cli_zoo_list_and_export(tmp_path, capsys):
    assert main(["zoo", "list"]) == 0
    out = capsys.readouterr().out
    assert "bitarena" in out and "a4guarded" in out
    path = str(tmp_path / "a4.txt")
    assert main(["zoo", "export", "--arena", "zoo:a4", "--depth", "6",
                 "--out", path]) == 0
    text = Path(path).read_text()
    assert serialize_arena(parse_arena(text)) == text


# (zoo entry, depth) -> (first 16 hex digits of the sha256 of the `qg zoo
# export` file, vertices `qg validate` explores)
ZOO_GOLDEN = {
    ("a1", 0): ("c1c361d1b57c2704", 2), ("a1", 5): ("34e30b4c338226d7", 3),
    ("a1", 12): ("34e30b4c338226d7", 3),
    ("a1prime", 0): ("2d55316e4bb0a447", 2), ("a1prime", 5): ("a584371aafa0f930", 2),
    ("a1prime", 12): ("a584371aafa0f930", 2),
    ("a2", 0): ("1cd772a65a0a7dfc", 3), ("a2", 5): ("dd6c5fb95c04bce9", 28),
    ("a2", 12): ("d8847e78e2812fa5", 105),
    ("a3", 0): ("37cafd26738751a8", 3), ("a3", 5): ("53f2dafb4cd5874b", 26),
    ("a3", 12): ("642683263d7ce824", 84),
    ("a4", 0): ("449e5c988676f264", 3), ("a4", 5): ("e1ef384ec782d05a", 31),
    ("a4", 12): ("db26c41556ee87bf", 154),
    ("a4guarded", 0): ("440d08639e2a752c", 2), ("a4guarded", 5): ("018c2bd4039bea4b", 24),
    ("a4guarded", 12): ("d1f52f42ae373c0b", 129),
    ("bitarena", 0): ("3bb9ce7868d2832a", 2), ("bitarena", 5): ("7f4728b58a12d2d5", 10),
    ("bitarena", 12): ("635f39e0e46bbaf8", 20),
    ("buchia", 0): ("37d6da209e348b3c", 2), ("buchia", 5): ("c0eaf244fa0fedb2", 12),
    ("buchia", 12): ("7cb1eda75a5bd255", 26),
    ("buchib", 0): ("78f946414bcc3589", 2), ("buchib", 5): ("160d26cda6337431", 17),
    ("buchib", 12): ("7a2b61140abacb3d", 17),
    ("nonuniform", 0): ("ab3493c26bc4bc83", 2), ("nonuniform", 5): ("873d5c38e7223d25", 8),
    ("nonuniform", 12): ("3acc3dbf075a030e", 15),
}


@pytest.mark.parametrize("name, depth", sorted(ZOO_GOLDEN),
                         ids=["%s-d%d" % key for key in sorted(ZOO_GOLDEN)])
def test_cli_zoo_export_and_validate_print_the_pinned_bytes(tmp_path, capsys, name, depth):
    digest, explored = ZOO_GOLDEN[name, depth]
    path = tmp_path / "arena.txt"
    assert main(["zoo", "export", "--arena", "zoo:" + name, "--depth", str(depth),
                 "--out", str(path)]) == 0
    assert main(["validate", "--arena", "zoo:" + name, "--depth", str(depth)]) == 0
    assert capsys.readouterr().out == "validate: ok (%d vertices explored)\n" % explored
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest
    assert main(["validate", "--arena", str(path)]) == 0


def test_cli_zoo_export_stops_when_the_walk_passes_the_vertex_cap(monkeypatch, capsys):
    monkeypatch.setattr("qgames.arena.DEFAULT_VERTEX_CAP", 500)
    entries = []

    def parse_uri(uri, parse=zoo.parse_uri):
        entries.append(parse(uri))
        return entries[-1]

    monkeypatch.setattr(zoo, "parse_uri", parse_uri)
    # a cap is no verdict: both commands name it and exit 2
    for command in (["zoo", "export"], ["validate"]):
        assert main(command + ["--arena", "zoo:a4", "--depth", "400"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "inconclusive: vertex cap 500 exceeded at distance 21\n"
        assert captured.err == ""
        assert len(entries[-1].arena._cache) <= 501
    assert len(entries) == 2


@pytest.mark.parametrize("uri, message", [
    ("zoo:nonuniform?start=3", "zoo entry 'nonuniform' takes no parameter 'start' "
                               "(accepted: start_index)"),
    ("zoo:a3?b=2", "zoo entry 'a3' takes no parameter 'b' (accepted: none)"),
    ("zoo:a1?repeated=1", "zoo entry 'a1' takes no parameter 'repeated' (accepted: b)"),
    ("zoo:a4?guarded=1", "zoo entry 'a4' takes no parameter 'guarded' (accepted: none)"),
], ids=["nonuniform-start", "a3-b", "a1-repeated", "a4-guarded"])
def test_cli_rejects_an_undeclared_zoo_parameter(tmp_path, capsys, uri, message):
    out = tmp_path / "arena.txt"
    assert main(["zoo", "export", "--arena", uri, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("uri, message", [
    ("zoo:a1?b=x", "zoo parameter 'b' must be an integer, got 'x'"),
    ("zoo:a1?b=2&b=3", "zoo parameter 'b' given twice"),
    ("zoo:a1?b=99999999", "zoo parameter 'b' must be between 1 and the vertex cap 1000000, "
                          "got 99999999"),
    ("zoo:a1prime?b=1000001", "zoo parameter 'b' must be between 1 and the vertex cap 1000000, "
                              "got 1000001"),
    ("zoo:buchib?b=99999999", "zoo parameter 'b' must be between 1 and the vertex cap 1000000, "
                              "got 99999999"),
], ids=["not-an-integer", "repeated", "a1-past-the-cap", "a1prime-past-the-cap",
        "buchib-past-the-cap"])
def test_cli_rejects_a_malformed_zoo_parameter(tmp_path, capsys, uri, message):
    out = tmp_path / "arena.txt"
    assert main(["zoo", "export", "--arena", uri, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""
    assert not out.exists()


def test_cli_bench_prints_grid(capsys):
    # the widths were read before the player-1 zoo strategies kept only
    # the summary they decide from; that change moved the class column
    assert main(["bench"]) == 0
    assert capsys.readouterr().out == (
        "arena            strategy          class             width  demonstrates\n"
        "zoo:a1prime?b=8  match_plus_one    Strategy          262144  "
        "unbounded replies win the repeated match game\n"
        "zoo:a2           match_plus_one    Strategy             64  "
        "answering one more wins the finitely branching rounds\n"
        "zoo:a3           delay_twice_exit  FiniteMemory         13  "
        "two delays then exit bank at least 1\n"
        "zoo:a4           adaptive          Strategy             30  "
        "adapting delays to the entry reaches exactly 0\n"
        "zoo:bitarena     opposite          FiniteMemory          8  "
        "one bit of memory tracks the opponent's round move\n"
        "zoo:buchia?k=3   round_robin       Memoryless            1  "
        "sweeping detours sees every colour\n"
        "zoo:buchib?b=6   alternating       Strategy             91  "
        "loop-then-exit alternates both colours\n")


def test_cli_error_paths(tmp_path, capsys, monkeypatch):
    assert main(["validate", "--arena", str(tmp_path / "missing.txt")]) == 1
    capsys.readouterr()
    monkeypatch.setenv("QG_NODE_CAP", "lots")
    assert main(["zoo", "list"]) == 1
    assert "QG_NODE_CAP" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_cli_rejects_a_node_cap_below_one(capsys, monkeypatch, value):
    monkeypatch.setenv("QG_NODE_CAP", value)
    assert main(["synthesize", "--arena", "zoo:bitarena", "--objective", "tp:limsup:>=:0",
                 "--m-max", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: QG_NODE_CAP must be a positive integer\n"
    assert captured.out == ""


@pytest.mark.parametrize("option, argv", [
    ("horizon", ["simulate", "--arena", "zoo:a4", "--p1", "always_delay", "--p2", "p2_enter_1",
                 "--horizon", "-5"]),
    ("depth", ["zoo", "export", "--arena", "zoo:a4", "--depth", "-1"]),
    ("depth", ["validate", "--arena", "zoo:a4", "--depth", "-2"]),
    ("depth", ["synthesize", "--arena", "zoo:bitarena", "--objective", "tp:limsup:>=:0",
               "--depth", "-3"]),
    ("window", ["defeat", "--arena", "zoo:a4", "--strategy", "always_delay", "--window", "-4"]),
], ids=["simulate-horizon", "export-depth", "validate-depth", "synthesize-depth",
        "defeat-window"])
def test_cli_rejects_a_negative_horizon_depth_or_window(capsys, option, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --%s must be at least 0\n" % option
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["validate", "--arena", "zoo:a3", "--horizon", "3"],
    ["validate", "--arena", "zoo:a3", "--out", "x"],
    ["simulate", "--arena", "zoo:a3", "--p1", "delay_twice_exit", "--p2", "p2_enter_1",
     "--depth", "3"],
    ["defeat", "--arena", "zoo:a3", "--strategy", "delay_twice_exit", "--depth", "3"],
    ["synthesize", "--arena", "zoo:bitarena", "--objective", "tp:limsup:>=:0",
     "--horizon", "3"],
    ["verify", "--arena", "zoo:a3", "--cert", "cert.json", "--horizon", "3"],
    ["verify", "--arena", "zoo:a3", "--cert", "cert.json", "--depth", "9"],
    ["verify", "--arena", "zoo:a3", "--cert", "cert.json", "--out", "x"],
    ["zoo", "export", "--arena", "zoo:a3", "--horizon", "3"],
    ["bench", "--depth", "3"],
    ["bench", "--out", "x"],
], ids=["validate-horizon", "validate-out", "simulate-depth", "defeat-depth",
        "synthesize-horizon", "verify-horizon", "verify-depth", "verify-out",
        "export-horizon", "bench-depth", "bench-out"])
def test_cli_refuses_an_option_its_handler_does_not_read(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: qg ")
    assert captured.err.endswith("error: unrecognized arguments: %s %s\n" % tuple(argv[-2:]))
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["validate", "--arena", "zoo:a3"],
    ["simulate", "--arena", "zoo:a3", "--p1", "delay_twice_exit", "--p2", "p2_enter_1"],
    ["defeat", "--arena", "zoo:a3", "--strategy", "delay_twice_exit"],
    ["synthesize", "--arena", "zoo:bitarena", "--objective", "tp:limsup:>=:0"],
    ["verify", "--arena", "zoo:a3", "--cert", "cert.json"],
    ["zoo", "export", "--arena", "zoo:a3"],
    ["bench"],
], ids=["validate", "simulate", "defeat", "synthesize", "verify", "export", "bench"])
def test_cli_refuses_the_seed_option(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: qg ")
    assert captured.err.endswith("error: unrecognized arguments: --seed 1\n")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_exits_1_on_a_malformed_command_line(capsys):
    assert main(["simulate", "--arena", "zoo:a4", "--p2", "p2_enter_1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "usage: qg simulate [-h] --arena ARENA [--horizon HORIZON] [--out OUT] --p1 P1\n"
        "                   --p2 P2\n"
        "qg simulate: error: the following arguments are required: --p1\n")
    assert captured.out == ""
    assert main(["synthesize", "--arena", "zoo:bitarena", "--objective", "tp:limsup:>=:0",
                 "--m-max", "two"]) == 1
    captured = capsys.readouterr()
    assert captured.err.endswith("error: argument --m-max: invalid int value: 'two'\n")
    assert captured.out == ""
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: qg [-h]")


def test_cli_defeat_help_says_which_adversaries_read_the_horizon(capsys):
    assert main(["defeat", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("--horizon is the horizon on a3; on a4 and a4guarded the play horizon is "
            "max(--horizon, 2000); a1prime, a2 and buchib do not read it") in text


# the options each subcommand takes, and nothing else
CLI_OPTIONS = {
    "validate": {"--arena", "--depth"},
    "simulate": {"--arena", "--horizon", "--out", "--p1", "--p2"},
    "defeat": {"--arena", "--horizon", "--out", "--strategy", "--window"},
    "synthesize": {"--arena", "--depth", "--out", "--objective", "--m-max"},
    "verify": {"--arena", "--cert", "--p1", "--p2", "--objective"},
    "zoo list": set(),
    "zoo export": {"--arena", "--depth", "--out"},
    "bench": {"--horizon"},
}


def _subcommands(parser, prefix=""):
    """(name, parser) for each leaf subcommand under ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _subcommands(child, prefix + name + " ")
            return
    yield prefix.strip(), parser


def _readme_command_lines():
    """(subcommand name, argv) for each line of README's command-line
    block, with ``N`` read as ``1``, and the line's own words."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    for line in block.strip().splitlines():
        words = [w.strip("[]") for w in line.split()]
        assert words[0] == "qg", line
        name = " ".join(itertools.takewhile(lambda w: not w.startswith("--"), words[1:]))
        yield name, ["1" if w == "N" else w for w in words[1:]], words


def test_cli_subcommands_declare_exactly_the_options_their_handlers_read():
    found = {name: {flag for action in p._actions for flag in action.option_strings
                    if flag not in ("-h", "--help")}
             for name, p in _subcommands(build_parser())}
    assert found == CLI_OPTIONS
    assert sum(len(options) for options in found.values()) == 26


def test_readme_command_lines_parse_with_every_option_of_their_subcommand():
    named = set()
    for name, argv, words in _readme_command_lines():
        build_parser().parse_args(argv)
        assert {w for w in words if w.startswith("--")} == CLI_OPTIONS[name], words
        named.add(name)
    assert named == set(CLI_OPTIONS)


def test_cli_builds_no_parser_for_a_canonical_line(monkeypatch, capsys):
    calls, parsers = [], []
    add_argument = argparse.ArgumentParser.add_argument
    construct = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    def constructed(self, *args, **kwargs):
        parsers.append(kwargs.get("prog"))
        return construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", constructed)
    argv = ["synthesize", "--arena", "zoo:bitarena", "--objective", "tp:limsup:>=:0",
            "--m-max", "1"]
    assert main(argv) == 0
    # the option table reads the line: no parser, no option declared
    assert (parsers, calls) == ([], [])
    canonical = capsys.readouterr()
    assert canonical.err == ""
    # argparse reads the same line spelled --m-max=1, to the same effect
    assert main(argv[:-2] + ["--m-max=1"]) == 0
    assert capsys.readouterr() == canonical
    # the whole parser: ten -h and the 26 options
    assert len(parsers) == 10 and len(calls) == 36


def _canonical_lines():
    """Every README command line, each subcommand with its required flags
    and every subset of its optional ones, in declared and reversed order
    (an int option given 4, any other x), and ``--m-max`` texts ``int``
    reads other than as they print."""
    lines = [argv for _, argv, _ in _readme_command_lines()]
    for name, p in _subcommands(build_parser()):
        options = [a for a in p._actions if a.option_strings and a.dest != "help"]
        required = [a for a in options if a.required]
        optional = [a for a in options if not a.required]
        for k in range(len(optional) + 1):
            for subset in itertools.combinations(optional, k):
                chosen = required + list(subset)
                for order in (chosen, chosen[::-1]):
                    lines.append(name.split() + [word for a in order for word in (
                        a.option_strings[0], "4" if a.type is int else "x")])
    synth = ["synthesize", "--arena", "x", "--objective", "mp:limsup:>=:0", "--m-max"]
    return lines + [synth + [text] for text in ("04", "+4", " 4", "4_0", "٣")]


_SYNTH = ["synthesize", "--arena", "x", "--objective", "mp:limsup:>=:0", "--m-max", "4"]
# lines the option table leaves to argparse
_DECLINED = [
    _SYNTH[:-2] + ["--m-max=4"], ["synthesize", "--ar", "x", "--objective", "mp:limsup:>=:0"],
    _SYNTH + ["--m-max", "5"], ["bench", "--horizon", "-1"], ["bench", "--horizon"],
    ["synthesize", "--arena", "x"], ["synthesize", "--arena", "x", "--objective", "o", "--p1", "y"],
    ["synthesize", "--arena", "x", "--objective", "o", "x"], _SYNTH[:-1] + ["four"],
    ["zoo"], ["zoo", "--arena", "x"], ["--arena", "x"], ["nosuch"], ["--"], _SYNTH + ["--"],
    _SYNTH[:1] + ["--"] + _SYNTH[1:], [],
] + [_SYNTH[:k] + ["-h"] + _SYNTH[k:] for k in range(len(_SYNTH) + 1)]


@pytest.mark.parametrize("argv", _canonical_lines() + _DECLINED,
                         ids=lambda argv: " ".join(argv) or "-")
def test_cli_option_table_reads_a_line_as_argparse_does_or_declines_it(monkeypatch, capsys,
                                                                       argv):
    monkeypatch.setenv("COLUMNS", "80")
    table = cli._canonical_args(argv)
    assert (table is None) == (argv in _DECLINED)
    try:
        want = vars(build_parser().parse_args(argv))
    except SystemExit as exc:  # help or an error: main prints argparse's text
        assert table is None
        printed = (cli.FAILED if exc.code else cli.OK, capsys.readouterr())
        assert (main(argv), capsys.readouterr()) == printed
        return
    if table is not None:  # the same namespace, its attributes in the same order
        assert list(vars(table).items()) == list(want.items())


PARSER_TEXT = json.loads((Path(__file__).parent / "data" / "parser_text.json").read_text())


@pytest.mark.parametrize("case", PARSER_TEXT["cases"],
                         ids=[" ".join(case["argv"]) or "-" for case in PARSER_TEXT["cases"]])
def test_cli_help_usage_and_errors_match_the_goldens(monkeypatch, capsys, case):
    # taken when every subcommand's parser was completed on every call;
    # argparse's own wording differs between Python versions
    if "%d.%d" % sys.version_info[:2] != PARSER_TEXT["python"]:
        pytest.skip("the goldens hold Python %s's argparse text" % PARSER_TEXT["python"])
    monkeypatch.setenv("COLUMNS", str(PARSER_TEXT["columns"]))
    assert main(list(case["argv"])) == case["exit_code"]
    assert capsys.readouterr() == (case["stdout"], case["stderr"])


def test_cli_reports_an_exhausted_node_cap(capsys, monkeypatch):
    monkeypatch.setenv("QG_NODE_CAP", "5")
    assert main(["synthesize", "--arena", "zoo:bitarena", "--objective", "tp:limsup:>=:0",
                 "--m-max", "3"]) == 2
    assert "failure: bubble m=2: node cap 5 exceeded at depth" in capsys.readouterr().out
    monkeypatch.setenv("QG_NODE_CAP", "1000")
    assert main(["bench"]) == 2
    assert "inconclusive: zoo:a1prime?b=8: node cap 1000 exceeded at depth" in \
        capsys.readouterr().out


@pytest.mark.parametrize("objective", ["mp:limsup:>=:1/2", "tp:limsup:>=:1"])
def test_cli_synthesize_shifts_a_nonzero_threshold(tmp_path, capsys, objective):
    path = _write(tmp_path, "shift.txt",
                  "arena shift\nvertex a owner=1\nvertex b owner=2\n"
                  "edge a b weight=1\nedge a a weight=0\nedge b a weight=0\n"
                  "edge b b weight=1\nstart a\n")
    out = str(tmp_path / "shift.strategy")
    assert main(["synthesize", "--arena", path, "--objective", objective,
                 "--m-max", "2", "--out", out]) == 0
    text = capsys.readouterr().out
    # the threshold rides in the sub-objectives: no arena is rewritten
    assert text.startswith("schedule:\n")
    assert "certified: yes" in text
    assert "move a " in Path(out).read_text()


def test_cli_synthesize_writes_a_shifted_tp_file_for_the_transformed_arena(tmp_path, capsys):
    path = _write(tmp_path, "shift.txt",
                  "arena shift\nvertex a owner=1\nvertex b owner=2\n"
                  "edge a b weight=1\nedge a a weight=0\nedge b a weight=0\n"
                  "edge b b weight=1\nstart a\n")
    out = str(tmp_path / "shift.strategy")
    assert main(["synthesize", "--arena", path, "--objective", "tp:limsup:>=:1",
                 "--m-max", "2", "--out", out]) == 0
    # the file names only edges of the input arena, and plays on it
    arena = parse_arena(Path(path).read_text())
    strategy = parse_strategy(Path(out).read_text())
    assert all(e in arena.edges(e.src) for e in table_edges(strategy))
    capsys.readouterr()
    p2 = _first_edge_p2(tmp_path, path)
    assert main(["simulate", "--arena", path, "--p1", out, "--p2", p2]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("step,")


def test_cli_synthesize_writes_a_shifted_mp_file_in_the_input_arenas_edges(tmp_path, capsys):
    arena_path = str(GOLDEN / "mp-n12-w6-win" / "arena.txt")
    out = str(tmp_path / "mp.strategy")
    assert main(["synthesize", "--arena", arena_path, "--objective", "mp:limsup:>=:-1/2",
                 "--m-max", "4", "--out", out]) == 0
    text = Path(out).read_text()
    # the edge of weight 2, as the input arena names it
    assert "move n(0) step=0 -> n(1) weight=2\n" in text
    p2 = _first_edge_p2(tmp_path, arena_path)
    capsys.readouterr()
    assert main(["simulate", "--arena", arena_path, "--p1", out, "--p2", p2,
                 "--horizon", "40"]) == 0
    assert capsys.readouterr().err == ""


def _first_edge_p2(tmp_path, arena_path: str) -> str:
    """A player-2 strategy file taking each vertex's first edge."""
    arena = parse_arena(Path(arena_path).read_text())
    lines = ["strategy first kind=memoryless player=2"]
    lines += ["move %s -> %s weight=%s" % (v, arena.edges(v)[0].dst, arena.edges(v)[0].weight)
              for v in arena.vertices if arena.owner(v) == 2]
    return _write(tmp_path, "p2.strategy", "\n".join(lines) + "\n")


def _schedule(out: str) -> list[tuple[int, int]]:
    """The (m, k) pairs of qg synthesize's schedule lines."""
    return [tuple(int(word[2:]) for word in line.split())
            for line in out.splitlines() if line.startswith("  m=")]


@pytest.mark.parametrize("case, objective", [("mp-n12-w6-win", "mp:limsup:>=:-1/2"),
                                             ("tp-n10-w2-win", "tp:limsup:>=:1")])
def test_a_nonzero_threshold_round_trips_through_synthesize_verify_and_simulate(
        tmp_path, case, objective):
    """In fresh processes: the file synthesized at a nonzero threshold
    passes qg verify with its own objective and schedule, and plays on its
    input arena."""
    arena = str(GOLDEN / case / "arena.txt")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))

    def qg(*argv):
        done = subprocess.run([sys.executable, "-m", "qgames.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert "Traceback" not in done.stderr
        return done

    p1, cert = str(tmp_path / "p1.strategy"), str(tmp_path / "levels.json")
    synth = qg("synthesize", "--arena", arena, "--objective", objective, "--m-max", "4",
               "--out", p1)
    assert synth.returncode == 0 and "certified: yes\n" in synth.stdout
    Path(cert).write_text(certificate_to_json(LevelSatisfaction(_schedule(synth.stdout))))
    verify = qg("verify", "--arena", arena, "--p1", p1, "--objective", objective, "--cert", cert)
    assert (verify.returncode, verify.stderr) == (0, "")
    assert verify.stdout.endswith("\nverify: accepted\n")
    simulate = qg("simulate", "--arena", arena, "--p1", p1,
                  "--p2", _first_edge_p2(tmp_path, arena))
    assert (simulate.returncode, simulate.stderr) == (0, "")


@pytest.mark.parametrize("cell", ["mp-n6-w2", "mp-n6-w6", "tp-n5-w6", "tp-n10-w2"])
def test_cli_synthesize_certifies_a_threshold_exactly_where_the_start_value_reaches_it(
        tmp_path, capsys, cell):
    # every member of the pool cell at six nonzero thresholds: exit 0 when
    # the brute-force start value is at least r, else 1, and every certified
    # file passes qg verify with its own objective and schedule
    family = "mp" if cell.startswith("mp") else "tpsup"
    for k, member in enumerate(json.loads((PERFBENCH / "pool.json").read_text())[cell]):
        path = _write(tmp_path, "%s-%d.txt" % (cell, k), member["arena"])
        arena = parse_arena(member["arena"])
        value = brute_force_values(arena, family)[arena.start]
        for r in ("-3/2", "-1", "-1/2", "1/2", "1", "2"):
            objective = "%s:limsup:>=:%s" % (cell[:2], r)
            code = main(["synthesize", "--arena", path, "--objective", objective,
                         "--m-max", "4", "--out", path + ".strategy"])
            captured = capsys.readouterr()
            assert code == (0 if value >= exact(r) else 1), (k, r)
            if code == 1:
                assert captured.err.startswith("error: start ")
                assert " is outside the " in captured.err
                continue
            cert = _write(tmp_path, "levels.json",
                          certificate_to_json(LevelSatisfaction(_schedule(captured.out))))
            assert main(["verify", "--arena", path, "--p1", path + ".strategy",
                         "--objective", objective, "--cert", cert]) == 0, (k, r)
            assert capsys.readouterr().out.endswith("\nverify: accepted\n")


def test_cli_certifies_a_strict_tp_threshold_exactly_where_the_start_value_exceeds_it(
        tmp_path, capsys):
    # on an explicit arena tp:limsup:>:r is rewritten as >= r + 1/D
    # (rewrite_strict_tp): exit 0 when the brute-force start value exceeds
    # r, else 1, and every certified file passes qg verify with the strict
    # objective and its own schedule; eight of these arenas have a start
    # value of exactly -1, 0 or 2, where >= r certifies and > r must not
    pool = json.loads((PERFBENCH / "pool.json").read_text())
    texts = [serialize_arena(arena) for arena in random_arenas(71, count=40)]
    texts += [m["arena"] for cell, ms in sorted(pool.items()) if cell.startswith("tp") for m in ms]
    codes = set()
    for k, text in enumerate(texts):
        path = _write(tmp_path, "arena-%d.txt" % k, text)
        arena = parse_arena(text)
        value = brute_force_values(arena, "tpsup")[arena.start]
        for r in ("-1", "0", "1/2", "2"):
            objective = "tp:limsup:>:" + r
            code = main(["synthesize", "--arena", path, "--objective", objective,
                         "--m-max", "4", "--out", path + ".strategy"])
            captured = capsys.readouterr()
            assert code == (0 if value > exact(r) else 1), (k, r)
            codes.add(code)
            if code == 1:
                threshold = rewrite_strict_tp(arena, parse_objective(objective)).threshold
                assert captured.err == ("error: start %s with sum 0 is outside the winning region"
                                        " at threshold %s (%s is read as tp:limsup:>=:%s)\n"
                                        % (arena.start, threshold, objective, threshold)), (k, r)
                continue
            cert = _write(tmp_path, "levels.json",
                          certificate_to_json(LevelSatisfaction(_schedule(captured.out))))
            assert main(["verify", "--arena", path, "--p1", path + ".strategy",
                         "--objective", objective, "--cert", cert]) == 0, (k, r)
            assert capsys.readouterr().out.endswith("\nverify: accepted\n")
    assert codes == {0, 1}


@pytest.mark.parametrize("arena, p1, p2, text, message", [
    ("zoo:a1prime?b=1", "match_plus_one", "P", "strategy challenge_3 kind=memoryless player=2\n"
     "move s -> t weight=-3\n", "names s --3-> t, which is not an edge of arena a1prime"),
    ("zoo:a1?b=1", "match_plus_one", "P", "strategy challenge_3 kind=memoryless player=2\n"
     "move s -> t weight=-3\n", "names s --3-> t, which is not an edge of arena a1"),
    ("zoo:a3", "P", "p2_enter_1", "strategy x kind=sc horizon=3\n"
     "move nowhere step=0 -> t weight=5\n", "names vertex nowhere, which is not in arena a3"),
    ("zoo:bitarena", "P", "allzero", "strategy x kind=sc+k states=2 horizon=2\n"
     "bitupd state=0 step=0 edge=v(0)->u(9) weight=0 -> 1\n",
     "names v(0) -0-> u(9), which is not an edge of arena bitarena"),
    # s(-1), a4guarded's guard, is the only negative index
    ("zoo:a4", "always_delay", "P", "strategy below kind=memoryless player=2\n"
     "move s(-5) -> s(0) weight=1\n", "names vertex s(-5), which is not in arena a4"),
    # a vertex of a4's and a3's families with parameters outside its domain
    ("zoo:a4", "P", "p2_enter_1", "strategy outside kind=memoryless\n"
     "move t(-4) -> g(-4,1) weight=1\n", "names vertex t(-4), which is not in arena a4"),
    ("zoo:a3", "delay_twice_exit", "P", "strategy outside kind=memoryless player=2\n"
     "move d(0,1) -> t(0) weight=-1\n", "names vertex d(0,1), which is not in arena a3"),
    # bitarena's rounds start at v(1): v(-3) is no vertex a play reaches
    ("zoo:bitarena", "opposite", "P", "strategy outside kind=memoryless player=2\n"
     "move v(-3) -> vz(-3) weight=0\n", "names vertex v(-3), which is not in arena bitarena"),
], ids=["a1prime-b1", "a1-b1", "a3-nowhere", "bitarena-bitupd", "a4-below-the-guard",
        "a4-outside-t", "a3-outside-d", "bitarena-outside-v"])
def test_cli_refuses_a_strategy_file_naming_a_non_edge_of_its_arena(tmp_path, capsys, arena, p1,
                                                                   p2, text, message):
    path = _write(tmp_path, "bad.strategy", text)
    p1, p2 = (path if p == "P" else p for p in (p1, p2))
    assert main(["simulate", "--arena", arena, "--p1", p1, "--p2", p2]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: strategy %r %s\n" % (path, message)
    assert captured.out == ""


def _wide_arena(tmp_path, weight):
    # nine player-1 vertices of out-degree 3 give 3^9 > 2^14 profiles
    lines = ["arena wide", "vertex y owner=2", "edge y x0 weight=%d" % weight]
    for i in range(9):
        lines += ["vertex x%d owner=1" % i, "edge x%d x%d weight=%d" % (i, (i + 1) % 9, weight),
                  "edge x%d x%d weight=%d" % (i, i, weight), "edge x%d y weight=%d" % (i, weight)]
    return _write(tmp_path, "wide.txt", "\n".join(lines + ["start x0"]) + "\n")


def _synthesize_and_verify(capsys, arena_path, objective="mp:limsup:>=:0"):
    """qg synthesize --objective <objective> --m-max 4 on an arena file
    <stem>.txt, then, if it certified, qg verify on the written strategy
    with its schedule as a LevelSatisfaction certificate; the synthesis's
    exit code.  Exit 1 must be a start outside the winning region at the
    objective's threshold."""
    stem = arena_path[:-len(".txt")]
    strategy_path, cert_path = stem + ".strategy", stem + ".json"
    threshold = objective.split(":")[3]
    refusal = " with sum 0 is outside the winning region at threshold %s\n" % threshold
    objective = ["--objective", objective]
    code = main(["synthesize", "--arena", arena_path, *objective, "--m-max", "4",
                 "--out", strategy_path])
    captured = capsys.readouterr()
    if code == 1:
        assert captured.err.startswith("error: start ") and captured.err.endswith(refusal)
    if code == 0:
        schedule = _schedule(captured.out)
        assert len(schedule) == 4
        Path(cert_path).write_text(certificate_to_json(LevelSatisfaction(schedule)))
        assert main(["verify", "--arena", arena_path, "--p1", strategy_path, *objective,
                     "--cert", cert_path]) == 0
        assert capsys.readouterr().out.endswith("\nverify: accepted\n")
    return code


@pytest.mark.parametrize("weight", [0, 1], ids=["tp-zero-region", "tp-whole-arena"])
def test_cli_synthesize_certifies_tp_past_the_profile_cap(tmp_path, capsys, weight):
    # the limsup-TP values and witness come from strategy improvement's own
    # profiles, so the wide arena's 3^9 player-1 profiles are never
    # enumerated: with weight 0 all of it is the zero region, with weight 1
    # all of it has value +inf
    assert _synthesize_and_verify(capsys, _wide_arena(tmp_path, weight),
                                  "tp:limsup:>=:0") == 0


def test_cli_synthesize_certifies_mp_past_the_profile_cap(tmp_path, capsys):
    # the mean-payoff witness is strategy improvement's own profile, so the
    # wide arena's 3^9 player-1 profiles are never enumerated
    assert _synthesize_and_verify(capsys, _wide_arena(tmp_path, 0)) == 0


def _make_pool():
    spec = importlib.util.spec_from_file_location("make_pool", PERFBENCH / "make_pool.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [24, 48, 100, 200])
def test_cli_synthesize_decides_mp_on_large_pool_shaped_arenas(tmp_path, capsys, n):
    # the benchmark pool's arena shape at W = 6: every start certifies and
    # re-verifies, or is refused as outside the winning region
    make_arena = _make_pool().make_arena
    codes = []
    for s in range(3):
        path = _write(tmp_path, "s%d.txt" % s, make_arena(random.Random(1000 * n + s), "b", n, 6))
        codes.append(_synthesize_and_verify(capsys, path))
    assert set(codes) <= {0, 1} and 0 in codes


def test_cli_simulate_reports_a_table_without_fallback(tmp_path, capsys):
    out = str(tmp_path / "bit.strategy")
    assert main(["synthesize", "--arena", "zoo:bitarena", "--objective", "tp:limsup:>=:0",
                 "--m-max", "2", "--out", out]) == 0
    text = Path(out).read_text()
    assert "fallback=first" in text
    _write(tmp_path, "bit.strategy", text.replace("fallback=first", "fallback=error"))
    capsys.readouterr()
    assert main(["simulate", "--arena", "zoo:bitarena", "--p1", out, "--p2", "allzero",
                 "--horizon", "50"]) == 1
    captured = capsys.readouterr()
    # the forced cell uc(1) at step 4 is taken without reading the table:
    # the error names the first cell with a choice that the table lacks
    assert captured.err == "error: no table entry for u(2) at step 7 and fallback is 'error'\n"
    assert captured.out == ""
    # with --out the play also fails part-way: no file is left, an old one
    # keeps its bytes, and no temporary file stays behind
    csv = tmp_path / "play.csv"
    for before in (None, b"an earlier play\n"):
        if before is not None:
            csv.write_bytes(before)
        assert main(["simulate", "--arena", "zoo:bitarena", "--p1", out, "--p2", "allzero",
                     "--horizon", "50", "--out", str(csv)]) == 1
        assert capsys.readouterr() == ("", captured.err)
        assert (csv.read_bytes() if csv.exists() else None) == before
        assert not list(tmp_path.glob(".qg-*"))


@pytest.mark.parametrize("n", [0, 1, cli.CHUNK_LINES - 1, cli.CHUNK_LINES, cli.CHUNK_LINES + 1,
                               2 * cli.CHUNK_LINES + 3])
def test_emit_writes_every_line_in_order_across_chunks_and_nothing_if_it_fails(tmp_path, capsys,
                                                                               n):
    lines = ["" if i % 7 == 3 else "line %d\n" % i for i in range(n)]  # empty ones too
    out = tmp_path / "out.txt"
    cli._emit(iter(lines), str(out))
    cli._emit(iter(lines), None)
    assert out.read_text() == capsys.readouterr().out == "".join(lines)

    def failing():  # fails after the chunks of the n lines are written
        yield from lines
        raise ValueError("part-way")

    for to in (str(out), None):
        with pytest.raises(ValueError, match="^part-way$"):
            cli._emit(failing(), to)
        assert out.read_text() == "".join(lines) and capsys.readouterr().out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("m_max", ["0", "-1"])
def test_cli_synthesize_rejects_fewer_than_one_bubble(tmp_path, capsys, m_max):
    path = _write(tmp_path, "pos.txt", POS_ARENA)
    out = tmp_path / "pos.strategy"
    assert main(["synthesize", "--arena", path, "--objective", "mp:limsup:>=:0",
                 "--m-max", m_max, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --m-max must be at least 1\n"
    assert captured.out == ""
    assert not out.exists()


def test_cli_synthesize_names_an_exhausted_depth_cap(tmp_path, capsys):
    path = _write(tmp_path, "pos.txt", POS_ARENA)
    assert main(["synthesize", "--arena", path, "--objective", "mp:limsup:>=:0",
                 "--depth", "0"]) == 2
    assert capsys.readouterr().out == (
        "schedule:\nregion preserved: not checked\ncertified: NO\n"
        "failure: bubble 1: depth cap 0 exhausted with 1 unsatisfied branch\n")


@pytest.mark.parametrize("uri, objective", [("zoo:a4", "tp:limsup:>=:0"),
                                            ("zoo:bitarena", "mp:limsup:>=:0")])
def test_cli_synthesize_names_a_zoo_entry_without_an_oracle(capsys, uri, objective):
    assert main(["synthesize", "--arena", uri, "--objective", objective]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: zoo entry %r has no winning-region oracle for %s\n" % (
        uri[len("zoo:"):], objective)
    assert captured.out == ""


SINK_CERT = ('{"schema": "qg-cert/1", "variant": "SinkPayoff", '
             '"body": {"final_tp": "0", "sink": "b", "steps": 1}}')


@pytest.mark.parametrize("argv, message", [
    (["defeat", "--arena", "{arena}", "--strategy", "x"],
     "defeat targets zoo entries; pass a zoo: URI"),
    (["defeat", "--arena", "zoo:bitarena", "--strategy", "opposite"],
     "no adversary routine for zoo entry 'bitarena'"),
    (["synthesize", "--arena", "zoo:bitarena", "--objective", "tp:limsup:>=:1"],
     "zoo entry 'bitarena' has no winning-region oracle for tp:limsup:>=:1"),
    (["synthesize", "--arena", "{arena}", "--objective", "mp:liminf:>=:0"],
     "objective mp:liminf:>=:0: Sigma03; sufficiency open"),
    (["synthesize", "--arena", "{arena}", "--objective", "mp:liminf:>=:1"],
     "objective mp:liminf:>=:1: Sigma03; sufficiency open"),
    (["synthesize", "--arena", "{arena}", "--objective", "mp:limsup:>:1/2"],
     "objective mp:limsup:>:1/2: Sigma03; sufficiency open"),
    (["synthesize", "--arena", "{arena}", "--objective", "tp:limsup:>=:+inf"],
     "synthesis supports tp:limsup:>=:<finite> and mp:limsup:>=:<finite> objectives"),
    (["verify", "--arena", "{arena}", "--cert", "{cert}", "--objective", "mp:liminf:>=:0"],
     "objective mp:liminf:>=:0: Sigma03; sufficiency open"),
    # an objective is named as typed, not in its canonical spelling +inf
    (["synthesize", "--arena", "{arena}", "--objective", "tp:liminf:>=:inf"],
     "objective tp:liminf:>=:inf: Sigma03; sufficiency open"),
    (["verify", "--arena", "{arena}", "--cert", "{cert}", "--objective", "tp:liminf:>=:inf"],
     "objective tp:liminf:>=:inf: Sigma03; sufficiency open"),
    (["zoo", "export", "--arena", "{arena}"], "zoo export takes a zoo: URI"),
    (["simulate", "--arena", "zoo:a3", "--p1", "delay_twice_exit", "--p2", "p2_enter_01"],
     "entry a3 strategy 'p2_enter_01' must end in an integer of at least 0, written as it prints"),
    (["validate", "--arena", "zoo:buchib?b=+8"], "zoo parameter 'b' must be written 8, got '+8'"),
    # the start value is 1: a strict objective is named as typed and as read
    (["synthesize", "--arena", "{arena}", "--objective", "tp:limsup:>:1"],
     "start a with sum 0 is outside the winning region at threshold 2 "
     "(tp:limsup:>:1 is read as tp:limsup:>=:2)"),
], ids=["defeat-arena-file", "defeat-no-routine", "synthesize-shift-generator",
        "synthesize-open-objective", "synthesize-open-objective-at-1",
        "synthesize-open-strict-objective", "synthesize-unsupported-objective",
        "verify-open-objective", "synthesize-objective-as-typed",
        "verify-objective-as-typed", "export-arena-file", "simulate-strategy-index-text",
        "validate-uri-value-text", "synthesize-strict-objective-as-typed"])
def test_cli_names_why_it_refuses_a_job(tmp_path, capsys, argv, message):
    files = {"arena": _write(tmp_path, "pos.txt", POS_ARENA),
             "cert": _write(tmp_path, "sink.json", SINK_CERT)}
    assert main([word.format(**files) for word in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""


# qg synthesize --m-max 4 on four benchmark pool arenas and on a 48-vertex
# arena of the pool's shape, whose player 1 has more than 2^14 profiles: the
# exit code, stdout, stderr and strategy file, byte for byte
GOLDEN = Path(__file__).parent / "data" / "synthesize"


@pytest.mark.parametrize("case", sorted(p.name for p in GOLDEN.iterdir()))
def test_cli_synthesize_matches_the_golden_files(tmp_path, capsysbinary, monkeypatch, case):
    golden = GOLDEN / case
    monkeypatch.chdir(tmp_path)
    (tmp_path / "arena.txt").write_bytes((golden / "arena.txt").read_bytes())
    code = main(["synthesize", "--arena", "arena.txt", "--objective",
                 "%s:limsup:>=:0" % case.split("-")[0], "--m-max", "4", "--out", "strategy.txt"])
    _assert_golden(golden, code, capsysbinary.readouterr(), tmp_path / "strategy.txt")


def _assert_golden(golden, code, captured, written):
    assert str(code) == (golden / "exit_code").read_text()
    assert captured.out == (golden / "stdout").read_bytes()
    assert captured.err == (golden / "stderr").read_bytes()
    expected = golden / "strategy.txt"
    assert written.exists() == expected.exists()
    if expected.exists():
        assert written.read_bytes() == expected.read_bytes()


# qg synthesize --m-max 16 on zoo:bitarena (sixteen sc1bit bubbles), byte
# for byte
GOLDEN_ZOO = Path(__file__).parent / "data" / "synthesize_zoo"


def test_cli_synthesize_bitarena_matches_the_golden_files(tmp_path, capsysbinary, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["synthesize", "--arena", "zoo:bitarena", "--objective", "tp:limsup:>=:0",
                 "--m-max", "16", "--out", "strategy.txt"])
    _assert_golden(GOLDEN_ZOO / "bitarena-m16", code, capsysbinary.readouterr(),
                   tmp_path / "strategy.txt")
