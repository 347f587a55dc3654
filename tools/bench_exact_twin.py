"""Wall times of the exact rational twin on fixed chains and checks.

For each checkout given, and for 6 and 8 sites at series orders 2 and 3,
a fresh interpreter builds the Baxter operator (``yangian_q``), then
evaluates the TQ defect with that operator given (``tq_residual``), and
reports both wall times and its peak RSS.  Further runs per checkout time
the two fixed checks of the ``yangian-all`` suite: the exchange relation
(``rtt_residual``) on the suite's five modules together, and the
q-character interchange count (``qchar_interchange_mismatches``, l = 7/3,
u = 4/5) at depths 6 and 10, each with its result.  Two CLI jobs close the
list: ``yangian-tq`` at 8 sites, order 3, and ``yangian-all`` at 4 sites,
order 3, each with its exit code and report SHA-256.  Times are the best
of ``benchturns.BEST_OF`` runs in the interpreter.  The checkouts take
turns within every repeat, so a busy host slows them alike; the medians
over the repeats are reported, each beside its quartiles.

    python3 tools/bench_exact_twin.py --src change=src --src parent=../old/src \\
        --out BENCH_exact_twin.json
"""

from __future__ import annotations

import argparse
import sys

import benchturns

# The first eight sites of the exact-twin measurements in ROADMAP.md.
SITES = ("2/3", "-5/7", "9/4", "-1/6", "3/5", "7/2", "5/4", "-4/9")
CHAINS = ((6, 2), (6, 3), (8, 2), (8, 3))
INTERCHANGE_DEPTHS = (6, 10)
CLI_JOBS = (("yangian-tq", 8, 3), ("yangian-all", 4, 3))
# Medians of nine repeats: on a shared 2-core host, jobs under 0.1 s read
# 0.86-1.14x between identical code with three, and jobs of 2-8 ms still
# 0.93-1.05x with nine.
REPEATS = 9

_IN_PROCESS = """
import time
from fractions import Fraction
from elliptic_baxter import yangian

def measure(argv):
    sites = tuple(Fraction(a) for a in argv[0].split(","))
    order = int(argv[1])
    t0 = time.perf_counter()
    q = yangian.yangian_q(sites, order)
    t1 = time.perf_counter()
    res = yangian.tq_residual(sites, order, q=q)
    t2 = time.perf_counter()
    return {"yangian_q_s": t1 - t0, "tq_residual_s": t2 - t1, "residual": res}
"""

# the modules of the rtt-* records of cli.run_yangian_all
_RTT = """
import time
from fractions import Fraction
from elliptic_baxter import yangian

def measure(argv):
    modules = [yangian.build_module("finite", spin=m) for m in (1, 2, 3)]
    modules += [yangian.build_module("ladder", spin=Fraction(5, 3), levels=6),
                yangian.build_module("oscillator", levels=6)]
    t0 = time.perf_counter()
    res = max(yangian.rtt_residual(X) for X in modules)
    return {"rtt_residual_s": time.perf_counter() - t0, "residual": res}
"""

_INTERCHANGE = """
import time
from fractions import Fraction
from elliptic_baxter import yangian

def measure(argv):
    t0 = time.perf_counter()
    n = yangian.qchar_interchange_mismatches(Fraction(7, 3), Fraction(4, 5),
                                             int(argv[0]))
    return {"qchar_interchange_s": time.perf_counter() - t0, "mismatches": n}
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    benchturns.src_arguments(ap)
    args = ap.parse_args(argv)
    checkouts = dict(s.split("=", 1) for s in args.src)
    jobs = [(f"{n}site-o{o}", _IN_PROCESS, (",".join(SITES[:n]), o)) for n, o in CHAINS]
    jobs.append(("rtt-five-modules", _RTT, ()))
    jobs += [(f"interchange-depth{d}", _INTERCHANGE, (d,)) for d in INTERCHANGE_DEPTHS]
    jobs += [(f"cli-{suite}-{n}site-o{o}", benchturns.CLI_JOB,
              (suite, "--sites=" + ",".join(SITES[:n]), "--order", o))
             for suite, n, o in CLI_JOBS]
    runs = benchturns.take_turns(checkouts, jobs, REPEATS)
    exact = ("residual", "mismatches", "exit_code", "report_sha256")
    record = {
        "host": benchturns.host(),
        "sites": list(SITES),
        "repeats": REPEATS,
        "best_of": benchturns.BEST_OF,
        "median": {label: {name: benchturns.median(r, exact)
                           for name, r in by_job.items()}
                   for label, by_job in runs.items()},
    }
    benchturns.write(record, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
