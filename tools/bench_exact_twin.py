"""Wall times of the exact rational twin on fixed chains and checks.

For each checkout given, and for 6 and 8 sites at series orders 2 and 3,
a fresh interpreter builds the Baxter operator (``yangian_q``), then
evaluates the TQ defect with that operator given (``tq_residual``), and
reports both wall times and its peak RSS.  Further runs per checkout time
the two fixed checks of the ``yangian-all`` suite: the exchange relation
(``rtt_residual``, one ``packed.evaluate`` relation checked on residues
modulo word primes) on the suite's five modules together, and the
q-character interchange count (``qchar_interchange_mismatches``, l = 7/3,
u = 4/5) at depths 6 and 10, each with its result.  Two CLI jobs follow:
``yangian-tq`` at 8 sites, order 3, and ``yangian-all`` at 4 sites,
order 3, each with its exit code and report SHA-256.  The cold-plan jobs
close the list: at 8 and 10 sites, the contraction plans of both twins
(the elliptic one as the transfer trace of an order-2 ladder builds it)
and the exact Q build at order 2, each timed after every cache of
``dynamical``, ``transfer`` and ``yangian`` is cleared, so that no run
reads a plan an earlier run built; Q's SHA-256 shows the checkouts agree.
Times are the best of ``benchturns.BEST_OF`` runs in the interpreter.
The checkouts take turns within every repeat, so a busy host slows them
alike; the medians over the repeats are reported, each beside its
quartiles.  The 10-site, order-2 ``yangian-tq`` CLI job on the first ten
sites takes seconds: it takes turns ``SINGLE_REPEATS`` times as one run
per fresh interpreter (``single``, with the same medians and quartiles,
its peak RSS and ``py_peak_mb``).

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
# The first ten exact and elliptic sites of the measurements in ROADMAP.md.
COLD_SITES = (*SITES, "8/3", "-3/10")
COLD_ELLIPTIC_SITES = ("0.41+0.12j", "0.27-0.23j", "0.54+0.13j", "0.16-0.11j",
                       "0.71+0.05j", "0.88-0.2j", "0.33+0.21j", "0.62-0.07j",
                       "0.12+0.17j", "0.79-0.14j")
COLD_LENGTHS = (8, 10)
INTERCHANGE_DEPTHS = (6, 10)
CLI_JOBS = (("yangian-tq", 8, 3), ("yangian-all", 4, 3))
# (suite, L, order) of seconds per run: run once per repeat, not best of 3.
SINGLE = (("yangian-tq", 10, 2),)
SINGLE_REPEATS = 6
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

# `_sector_pairs(L)` returns the exact plan; on a checkout where it
# returns the string pairs instead, the plan is their `contraction_plan`.
_COLD_PLAN = """
import hashlib, time
from fractions import Fraction
import numpy as np
from elliptic_baxter import dynamical, transfer, yangian
from elliptic_baxter.modules import build_asymptotic
from elliptic_baxter.theta import EllipticParams

def cold(build):
    for module in (dynamical, transfer, yangian):
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
    t0 = time.perf_counter()
    out = build()
    return out, time.perf_counter() - t0

def exact_plan(L):
    plan = yangian._sector_pairs(L)[1]
    if not isinstance(plan[0], np.ndarray):
        dynamical.contraction_plan(plan, (1, 2))

def measure(argv):
    sites = tuple(Fraction(a) for a in argv[0].split(","))
    params = EllipticParams(1j, 0.31)
    space = transfer.QuantumSpace(tuple(complex(a) for a in argv[1].split(",")), params)
    W = build_asymptotic(0.7, 0.0, 2 + space.L // 2, params)
    _, elliptic = cold(lambda: transfer._GradedTrace(W, space, 2))
    _, exact = cold(lambda: exact_plan(len(sites)))
    q, build = cold(lambda: yangian.yangian_q(sites, 2))
    sha = hashlib.sha256()
    for qs in q:
        sha.update(repr((qs.shape.den, qs.slots().tolist())).encode())
    return {"elliptic_plan_s": elliptic, "exact_plan_s": exact,
            "yangian_q_s": build, "q_sha256": sha.hexdigest()}
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
    jobs += [(f"cold-plan-{n}site-o2", _COLD_PLAN,
              (",".join(COLD_SITES[:n]), ",".join(COLD_ELLIPTIC_SITES[:n])))
             for n in COLD_LENGTHS]
    runs = benchturns.take_turns(checkouts, jobs, REPEATS)
    exact = ("residual", "mismatches", "exit_code", "report_sha256", "q_sha256")
    singles = [(f"cli-{suite}-{n}site-o{o}", benchturns.CLI_JOB,
                (suite, "--sites=" + ",".join(COLD_SITES[:n]), "--order", o))
               for suite, n, o in SINGLE]
    single = benchturns.take_turns(checkouts, singles, SINGLE_REPEATS, 1)
    record = {
        "host": benchturns.host(),
        "sites": list(SITES),
        "repeats": REPEATS,
        "best_of": benchturns.BEST_OF,
        "median": {label: {name: benchturns.median(r, exact)
                           for name, r in by_job.items()}
                   for label, by_job in runs.items()},
        "single_repeats": SINGLE_REPEATS,
        "single": {label: {name: benchturns.median(r, exact)
                           for name, r in by_job.items()}
                   for label, by_job in single.items()},
    }
    benchturns.write(record, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
