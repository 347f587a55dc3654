"""Wall time, memory and reports of the elliptic transfer/TQ chains.

For each checkout given, a fresh interpreter runs the CLI suites
``transfer`` and ``tq`` on the first L elliptic sites of the ROADMAP.md
measurements (CLI defaults tau = 1i, hbar = 0.31, seed 7) for the chains
(L, order) = (4, 4), (6, 2), (8, 2) and (8, 4), and reports the job's wall
time (the best of ``benchturns.BEST_OF`` runs in the interpreter), its
peak RSS, its exit code and the SHA-256 of its ``--no-timestamp`` report.
The checkouts take turns within every repeat (``benchturns``); the medians
over the repeats are reported, each beside its quartiles, and
``same_reports`` says whether every checkout wrote byte-identical reports.

    python3 tools/bench_elliptic_chain.py --src change=src --src parent=../old/src \\
        --out BENCH_elliptic_chain.json
"""

from __future__ import annotations

import argparse
import sys

import benchturns

# The first eight elliptic sites of the chain measurements in ROADMAP.md.
SITES = ("0.41+0.12i", "0.27-0.23i", "0.54+0.13i", "0.16-0.11i",
         "0.71+0.05i", "0.88-0.2i", "0.33+0.21i", "0.62-0.07i")
CHAINS = ((4, 4), (6, 2), (8, 2), (8, 4))
SUITES = ("transfer", "tq")
REPEATS = 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    benchturns.src_arguments(ap)
    args = ap.parse_args(argv)
    checkouts = dict(s.split("=", 1) for s in args.src)
    jobs = [(f"{suite}-{n}site-o{o}", benchturns.CLI_JOB,
             (suite, "--sites=" + ",".join(SITES[:n]), "--order", o))
            for n, o in CHAINS for suite in SUITES]
    runs = benchturns.take_turns(checkouts, jobs, REPEATS)
    median = {label: {name: benchturns.median(r, ("exit_code", "report_sha256"))
                      for name, r in by_job.items()}
              for label, by_job in runs.items()}
    record = {
        "host": benchturns.host(),
        "sites": list(SITES),
        "repeats": REPEATS,
        "best_of": benchturns.BEST_OF,
        "same_reports": {name: len({by_job[name]["report_sha256"]
                                    for by_job in median.values()}) == 1
                         for name, _, _ in jobs},
        "median": median,
    }
    benchturns.write(record, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
