"""Wall times of the numeric certificate suites, parent against change.

For each checkout given, a fresh interpreter runs one CLI job of each of
the suites ``qchar``, ``rll``, ``ybe``, ``gauss``, ``interchange``,
``transfer`` and ``tq`` (2 sites, the CLI defaults) at each of the three
parameter sets of the ``suites-2site`` benchmark workload
(``perfbench/jobs.py``), with the CLI's default seed, and reports the job's
wall time (the best of ``benchturns.BEST_OF`` runs in the interpreter),
exit code, report SHA-256 and peak RSS.  The checkouts take turns within
every repeat (``benchturns``); the medians over the repeats are reported,
with their sum per checkout.

    python3 tools/bench_numeric_suites.py --src change=src --src parent=../old/src \\
        --out BENCH_numeric_suites.json
"""

from __future__ import annotations

import argparse
import os
import sys

import benchturns

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
from jobs import PARAM_SETS  # noqa: E402

SUITES = ("qchar", "rll", "ybe", "gauss", "interchange", "transfer", "tq")
REPEATS = 5

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    benchturns.src_arguments(ap)
    args = ap.parse_args(argv)
    checkouts = dict(s.split("=", 1) for s in args.src)
    jobs = [(f"{suite}@{pname}", benchturns.CLI_JOB, (suite, *params))
            for pname, params in PARAM_SETS for suite in SUITES]
    runs = benchturns.take_turns(checkouts, jobs, REPEATS)
    median = {label: {name: benchturns.median(r, ("exit_code", "report_sha256"))
                      for name, r in by_job.items()}
              for label, by_job in runs.items()}
    record = {
        "host": benchturns.host(),
        "param_sets": {pname: list(params) for pname, params in PARAM_SETS},
        "repeats": REPEATS,
        "best_of": benchturns.BEST_OF,
        "total_wall_s": {label: round(sum(j["wall_s"] for j in by_job.values()), 4)
                         for label, by_job in median.items()},
        "median": median,
    }
    benchturns.write(record, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
