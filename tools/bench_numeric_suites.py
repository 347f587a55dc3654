"""Wall times of the numeric certificate suites, parent against change.

For each checkout given, a fresh interpreter runs one CLI job of each of
the suites ``qchar``, ``rll``, ``ybe``, ``gauss`` and ``interchange`` at
each of the three parameter sets of the ``suites-2site`` benchmark workload
(``perfbench/jobs.py``), with the CLI's default seed, and reports the job's
wall time, exit code and peak RSS.  The checkouts take turns within every
repeat (``benchturns``); the medians over the repeats are reported, with
their sum per checkout.

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

SUITES = ("qchar", "rll", "ybe", "gauss", "interchange")
REPEATS = 5

_CLI = """
import contextlib, io, json, os, resource, sys, tempfile, time
from elliptic_baxter import cli
with tempfile.TemporaryDirectory() as tmp:
    argv = [*sys.argv[1:], "--no-timestamp", "--report", os.path.join(tmp, "r.json")]
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    wall = time.perf_counter() - t0
print(json.dumps({"wall_s": wall, "exit_code": code,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    benchturns.src_arguments(ap)
    args = ap.parse_args(argv)
    checkouts = dict(s.split("=", 1) for s in args.src)
    jobs = [(f"{suite}@{pname}", _CLI, (suite, *params))
            for pname, params in PARAM_SETS for suite in SUITES]
    runs = benchturns.take_turns(checkouts, jobs, REPEATS)
    median = {label: {name: benchturns.median(r, ("exit_code",))
                      for name, r in by_job.items()}
              for label, by_job in runs.items()}
    record = {
        "host": benchturns.host(),
        "param_sets": {pname: list(params) for pname, params in PARAM_SETS},
        "repeats": REPEATS,
        "total_wall_s": {label: round(sum(j["wall_s"] for j in by_job.values()), 4)
                         for label, by_job in median.items()},
        "median": median,
    }
    benchturns.write(record, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
