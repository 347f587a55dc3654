"""Wall times of the exact rational twin on fixed chains.

For each checkout given, and for 6 and 8 sites at series orders 2 and 3,
a fresh interpreter builds the Baxter operator (``yangian_q``), then
evaluates the TQ defect with that operator given (``tq_residual``), and
reports both wall times and its peak RSS.  A last run per checkout times
the CLI ``yangian-tq`` job at 8 sites, order 3, with its exit code and
report SHA-256.  Times are the best of ``benchturns.BEST_OF`` runs in the
interpreter.  The checkouts take turns within every repeat, so a busy
host slows them alike; the medians over the repeats are reported.

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
CLI_CHAIN = (8, 3)
REPEATS = 3

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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    benchturns.src_arguments(ap)
    args = ap.parse_args(argv)
    checkouts = dict(s.split("=", 1) for s in args.src)
    jobs = [(f"{n}site-o{o}", _IN_PROCESS, (",".join(SITES[:n]), o)) for n, o in CHAINS]
    n, o = CLI_CHAIN
    jobs.append((f"cli-{n}site-o{o}", benchturns.CLI_JOB,
                 ("yangian-tq", "--sites=" + ",".join(SITES[:n]), "--order", o)))
    runs = benchturns.take_turns(checkouts, jobs, REPEATS)
    record = {
        "host": benchturns.host(),
        "sites": list(SITES),
        "repeats": REPEATS,
        "best_of": benchturns.BEST_OF,
        "median": {label: {name: benchturns.median(r, ("residual", "exit_code", "report_sha256"))
                           for name, r in by_job.items()}
                   for label, by_job in runs.items()},
    }
    benchturns.write(record, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
