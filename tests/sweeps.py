"""Sweeps of small step-counter tables through ``qg defeat``.

``buchib_tables`` yields every ``kind=sc`` table of a horizon on buchib
(one loop-or-exit row per step, ``fallback=first``); ``a3_tables`` yields
seeded tables with 0-2 exit rows at a3's decision vertices.  ``defeat``
runs one table through ``cli.cmd_defeat``, the handler of ``qg defeat``
(an ``Inconclusive`` is its exit 2, as in ``cli.main``), and re-checks
the certificate it writes against the adversary's opponent.
``horizon_blind`` runs tables at ``--horizon`` 0, 7 and 40, which the
buchib adversary does not read, and names those whose output differs.

Run as a script, ``PYTHONPATH=src python tests/sweeps.py``, for the
larger buchib sweep: each table of b 1, 2, 3 and 6 once, and a seeded
sample of them at ``--horizon`` 0, 7 and 40, whose stdout, exit code and
certificate bytes must be the same at each.  It prints each failing run
and exits 1 if there is one.
"""

import argparse
import contextlib
import io
import os
import random
import sys
import tempfile

from qgames import cli, zoo
from qgames.adversaries import defeat_sc_on_A3
from qgames.engine import EarlyExitNegative, Inconclusive, check_certificate, certificate_from_json
from qgames.strategies import parse_strategy


def buchib_tables(horizon=7):
    """Every loop-or-exit table of the horizon on buchib, ``fallback=first``."""
    for bits in range(1 << horizon):
        rows = ["move v step=%d -> %s" % (s, "u weight=0" if bits >> s & 1 else "v weight=1")
                for s in range(horizon)]
        yield "\n".join(["strategy t%d kind=sc horizon=%d fallback=first" % (bits, horizon)]
                        + rows) + "\n"


def a3_tables(count=200, seed=7):
    """Seeded a3 tables: 0-2 exit rows and 0-2 delay rows at t(i), i < 10,
    each at the one step a history reaches t(i), 3i+1."""
    rng = random.Random(seed)
    for n in range(count):
        cells = rng.sample(range(10), rng.randint(0, 4))
        exits = cells[:rng.randint(0, min(2, len(cells)))]
        rows = ["move t(%d) step=%d -> %s" % (i, 3 * i + 1, "r0 weight=%d" % i if i in exits
                                               else "e(%d,1) weight=0" % i)
                for i in sorted(cells)]
        yield "\n".join(["strategy a%d kind=sc horizon=40 fallback=first" % n] + rows) + "\n"


def defeat(uri, text, horizon, workdir):
    """One ``qg defeat`` run of the table: (exit code, stdout + stderr,
    problem or None, the certificate text or None).  A problem is a
    printed self-check failure, a raise, or a written certificate that
    ``check_certificate`` refutes against the adversary's opponent.  On
    buchib it is also any exit but 0, since every table of
    ``buchib_tables`` loses, and a certificate whose check names no
    closed lasso."""
    path, cert = os.path.join(workdir, "t.strategy"), os.path.join(workdir, "cert.json")
    with open(path, "w") as fh:
        fh.write(text)
    if os.path.exists(cert):
        os.unlink(cert)
    out = io.StringIO()
    args = argparse.Namespace(arena=uri, strategy=path, horizon=horizon, out=cert, window=2000)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.cmd_defeat(args)
        except Inconclusive:
            code = cli.INCONCLUSIVE
        except Exception as exc:  # the sweep's point: no run raises
            return None, out.getvalue(), "raised %r" % (exc,), None
    text_out = out.getvalue()
    entry = zoo.parse_uri(uri)
    if "self-check failed" in text_out:
        return code, text_out, "self-check failed", None
    if entry.name == "buchib" and code != 0:
        return code, text_out, "exited %d" % code, None
    written_text = None
    if code == 0:
        sigma = parse_strategy(text)
        with open(cert) as fh:
            written_text = fh.read()
        written = certificate_from_json(written_text)
        p2 = (defeat_sc_on_A3(sigma, entry, horizon=horizon).p2 if entry.name == "a3"
              else entry.strategy("pad_1"))
        check = check_certificate(written, {"arena": entry.arena, "v0": entry.start,
                                            "sigma1": sigma, "sigma2": p2})
        if not check.ok:
            problem = "certificate refuted: %s" % "; ".join(check.diagnostics)
        elif entry.name == "buchib" and "the lasso closes at step" not in check.diagnostics[0]:
            problem = "no lasso closed: %s" % check.diagnostics[0]
        elif entry.name == "a3" and not isinstance(written, EarlyExitNegative) and "-> r0" in text:
            problem = "stagnation certified for a table with an exit row"
        else:
            problem = None
        return code, text_out, problem, written_text
    return code, text_out, None, None


def sweep(runs):
    """The problems of (uri, table, horizon) runs, as (uri, horizon, table, problem)."""
    with tempfile.TemporaryDirectory() as workdir:
        return [(uri, horizon, text, problem) for uri, text, horizon in runs
                for _, _, problem, _ in [defeat(uri, text, horizon, workdir)] if problem]


def horizon_blind(pairs):
    """The (uri, table) pairs whose exit code, output or certificate
    differs between runs at ``--horizon`` 0, 7 and 40."""
    with tempfile.TemporaryDirectory() as workdir:
        return [(uri, text) for uri, text in pairs
                if len({(code, out, cert) for h in (0, 7, 40)
                        for code, out, _, cert in [defeat(uri, text, h, workdir)]}) > 1]


def buchib_runs(bs, horizons, table_horizon=7):
    return [("zoo:buchib?b=%d" % b, text, h) for b in bs for h in horizons
            for text in buchib_tables(table_horizon)]


def a3_runs(horizons):
    return [("zoo:a3", text, h) for h in horizons for text in a3_tables()]


if __name__ == "__main__":
    runs = buchib_runs([1, 2, 3, 6], [0])
    problems = sweep(runs)
    for uri, horizon, text, problem in problems:
        print("%s --horizon %d: %s\n%s" % (uri, horizon, problem, text))
    pairs = random.Random(52).sample([(uri, text) for uri, text, _ in runs], 128)
    differ = horizon_blind(pairs)
    for uri, text in differ:
        print("%s: the output differs between --horizon 0, 7 and 40\n%s" % (uri, text))
    print("%d runs, %d problems; %d tables at --horizon 0, 7 and 40, %d differ"
          % (len(runs), len(problems), len(pairs), len(differ)))
    sys.exit(1 if problems or differ else 0)
