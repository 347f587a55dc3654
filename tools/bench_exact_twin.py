"""Wall times of the exact rational twin on fixed chains.

For each checkout given, and for 6 and 8 sites at series orders 2 and 3,
a fresh interpreter builds the Baxter operator (``yangian_q``), then
evaluates the TQ defect with that operator given (``tq_residual``), and
reports both wall times and its peak RSS.  A last run per checkout times
the CLI ``yangian-tq`` job at 8 sites, order 3, with its exit code.  The
checkouts take turns within every repeat, so a busy host slows them
alike; the medians over the repeats are reported.

    python3 tools/bench_exact_twin.py --src change=src --src parent=../old/src \\
        --out BENCH_exact_twin.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

# The first eight sites of the exact-twin measurements in ROADMAP.md.
SITES = ("2/3", "-5/7", "9/4", "-1/6", "3/5", "7/2", "5/4", "-4/9")
CHAINS = ((6, 2), (6, 3), (8, 2), (8, 3))
CLI_CHAIN = (8, 3)
REPEATS = 3

_IN_PROCESS = """
import json, resource, sys, time
from fractions import Fraction
from elliptic_baxter import yangian
sites = tuple(Fraction(a) for a in sys.argv[1].split(","))
order = int(sys.argv[2])
t0 = time.perf_counter()
q = yangian.yangian_q(sites, order)
t1 = time.perf_counter()
res = yangian.tq_residual(sites, order, q=q)
t2 = time.perf_counter()
print(json.dumps({"yangian_q_s": t1 - t0, "tq_residual_s": t2 - t1,
                  "residual": res,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""

_CLI = """
import contextlib, io, json, os, resource, sys, tempfile, time
from elliptic_baxter import cli
with tempfile.TemporaryDirectory() as tmp:
    argv = ["yangian-tq", "--sites=" + sys.argv[1], "--order", sys.argv[2],
            "--no-timestamp", "--report", os.path.join(tmp, "r.json")]
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    wall = time.perf_counter() - t0
print(json.dumps({"cli_yangian_tq_s": wall, "exit_code": code,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def _run(src: str, code: str, n_sites: int, order: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", code, ",".join(SITES[:n_sites]), str(order)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _median(runs: list[dict]) -> dict:
    out = {}
    for key in runs[0]:
        values = [r[key] for r in runs]
        if key in ("residual", "exit_code"):
            if len(set(values)) != 1:
                raise RuntimeError(f"{key} differs between repeats: {values}")
            out[key] = values[0]
        else:
            out[key] = round(statistics.median(values), 4)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", required=True,
                    metavar="LABEL=PATH",
                    help="a label and the src/ directory of a checkout")
    ap.add_argument("--out", help="write the JSON here instead of stdout")
    args = ap.parse_args(argv)
    checkouts = dict(s.split("=", 1) for s in args.src)
    runs = {label: {} for label in checkouts}
    jobs = [(f"{n}site-o{o}", _IN_PROCESS, n, o) for n, o in CHAINS]
    jobs.append((f"cli-{CLI_CHAIN[0]}site-o{CLI_CHAIN[1]}", _CLI, *CLI_CHAIN))
    for _ in range(REPEATS):
        for name, code, n, o in jobs:
            for label, src in checkouts.items():
                runs[label].setdefault(name, []).append(_run(src, code, n, o))
    record = {
        "host": {"platform": platform.platform(), "python": sys.version.split()[0],
                 "nproc": os.cpu_count()},
        "sites": list(SITES),
        "repeats": REPEATS,
        "median": {label: {name: _median(r) for name, r in by_job.items()}
                   for label, by_job in runs.items()},
    }
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
