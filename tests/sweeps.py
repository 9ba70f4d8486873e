"""Sweeps of small step-counter tables through ``qg defeat``.

``buchib_tables`` yields every ``kind=sc`` table of a horizon on buchib
(one loop-or-exit row per step, ``fallback=first``); ``a3_tables`` yields
seeded tables with 0-2 exit rows at a3's decision vertices.  ``defeat``
runs one table through ``cli.cmd_defeat``, the handler of ``qg defeat``
(an ``Inconclusive`` is its exit 2, as in ``cli.main``), and re-checks
the certificate it writes against the adversary's opponent.

Run as a script, ``PYTHONPATH=src python tests/sweeps.py``, for the
larger buchib sweep (b 1, 2, 3 and 6, ``--horizon`` 0 to 40, which the
buchib adversary does not read); it prints each failing run and exits 1
if there is one.
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
    problem or None).  A problem is a printed self-check failure, a
    raise, or a written certificate that ``check_certificate`` refutes
    against the adversary's opponent.  On buchib it is also any exit but
    0, since every table of ``buchib_tables`` loses, and a certificate
    whose check names no closed lasso."""
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
            return None, out.getvalue(), "raised %r" % (exc,)
    text_out = out.getvalue()
    entry = zoo.parse_uri(uri)
    if "self-check failed" in text_out:
        return code, text_out, "self-check failed"
    if entry.name == "buchib" and code != 0:
        return code, text_out, "exited %d" % code
    if code == 0:
        sigma = parse_strategy(text)
        with open(cert) as fh:
            written = certificate_from_json(fh.read())
        p2 = (defeat_sc_on_A3(sigma, entry, horizon=horizon).p2 if entry.name == "a3"
              else entry.strategy("pad_1"))
        check = check_certificate(written, {"arena": entry.arena, "v0": entry.start,
                                            "sigma1": sigma, "sigma2": p2})
        if not check.ok:
            return code, text_out, "certificate refuted: %s" % "; ".join(check.diagnostics)
        if entry.name == "buchib" and "the lasso closes at step" not in check.diagnostics[0]:
            return code, text_out, "no lasso closed: %s" % check.diagnostics[0]
        if entry.name == "a3" and not isinstance(written, EarlyExitNegative) and "-> r0" in text:
            return code, text_out, "stagnation certified for a table with an exit row"
    return code, text_out, None


def sweep(runs):
    """The problems of (uri, table, horizon) runs, as (uri, horizon, table, problem)."""
    with tempfile.TemporaryDirectory() as workdir:
        return [(uri, horizon, text, problem) for uri, text, horizon in runs
                for _, _, problem in [defeat(uri, text, horizon, workdir)] if problem]


def buchib_runs(bs, horizons, table_horizon=7):
    return [("zoo:buchib?b=%d" % b, text, h) for b in bs for h in horizons
            for text in buchib_tables(table_horizon)]


def a3_runs(horizons):
    return [("zoo:a3", text, h) for h in horizons for text in a3_tables()]


if __name__ == "__main__":
    runs = buchib_runs([1, 2, 3, 6], range(41))
    problems = sweep(runs)
    for uri, horizon, text, problem in problems:
        print("%s --horizon %d: %s\n%s" % (uri, horizon, problem, text))
    print("%d runs, %d problems" % (len(runs), len(problems)))
    sys.exit(1 if problems else 0)
