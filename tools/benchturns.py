"""Take-turns runner shared by the benchmark tools in this directory.

Every measurement runs a code snippet in a fresh interpreter whose
``PYTHONPATH`` is one checkout's ``src/`` directory.  The snippet defines
``measure(argv) -> dict``; the interpreter calls it ``BEST_OF`` times and
the fastest run is kept, so that a job of a few tens of milliseconds is
not read off one run that the host happened to slow down.  The later runs
find the interpreter warm: its imports done and the package's module-level
caches (such as the contraction plans cached per chain length) filled.  Within every
repeat the checkouts take turns on each job, so a busy host slows them
alike; the order of the turns is reversed every other repeat, and the
medians over the repeats are reported, each beside its quartiles, so a
record shows its own spread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BEST_OF = 3

# Runs the snippet's measure() BEST_OF times.  Fields ending in "_s" are
# times (the fastest run is kept), minor_faults counts page faults (the
# fewest are kept, as the later runs may reuse pages the earlier ones
# freed), peak_rss_mb is the interpreter's peak over all runs, and every
# other field must be the same in all runs.
# py_peak_mb is the tracemalloc peak of one more, untimed run: the Python
# heap a job allocates, which the heap layout does not move as it moves
# the peak RSS.
_BEST_OF_LOOP = """
import json, resource, sys, tracemalloc
runs = [measure(sys.argv[1:]) for _ in range({best_of})]
best = {{}}
for key in runs[0]:
    values = [r[key] for r in runs]
    if key.endswith("_s") or key == "minor_faults":
        best[key] = min(values)
    elif len(set(map(json.dumps, values))) != 1:
        raise SystemExit(f"{{key}} differs between runs: {{values}}")
    else:
        best[key] = values[0]
best["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
tracemalloc.start()
measure(sys.argv[1:])
best["py_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
tracemalloc.stop()
print(json.dumps(best))
"""

# One CLI job: wall time, minor page faults, exit code and the SHA-256 of
# its --no-timestamp JSON report.  The report is written under a fixed
# relative name in a scratch directory, because the report records its own
# path.
CLI_JOB = """
import contextlib, hashlib, io, os, resource, tempfile, time
from elliptic_baxter import cli

def measure(argv):
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--no-timestamp", "--report", "report.json"])
            wall = time.perf_counter() - t0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
            with open("report.json", "rb") as fh:
                sha = hashlib.sha256(fh.read()).hexdigest()
        finally:
            os.chdir(cwd)
    return {"wall_s": wall, "minor_faults": faults, "exit_code": code,
            "report_sha256": sha}
"""


def src_arguments(ap: argparse.ArgumentParser) -> None:
    """Add the ``--src LABEL=PATH`` (repeatable) and ``--out`` options."""
    ap.add_argument("--src", action="append", required=True,
                    metavar="LABEL=PATH",
                    help="a label and the src/ directory of a checkout")
    ap.add_argument("--out", help="write the JSON here instead of stdout")


def run(src: str, code: str, args, best_of: int = BEST_OF) -> dict:
    """The best of ``best_of`` calls of the snippet's ``measure`` with
    ``args``, in a fresh interpreter on checkout ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    program = code + _BEST_OF_LOOP.format(best_of=best_of)
    out = subprocess.run([sys.executable, "-c", program, *map(str, args)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def take_turns(checkouts: dict[str, str], jobs, repeats: int,
               best_of: int = BEST_OF) -> dict:
    """Runs of every (name, code, args) job, as {label: {name: [run, ...]}}.
    The checkouts run each job in turn, in reversed order every other
    repeat, so that neither always runs first."""
    runs = {label: {} for label in checkouts}
    order = list(checkouts.items())
    for repeat in range(repeats):
        for name, code, args in jobs:
            for label, src in order if repeat % 2 == 0 else order[::-1]:
                runs[label].setdefault(name, []).append(run(src, code, args, best_of))
    return runs


def resolved(median: dict, field: str) -> dict:
    """Per job of a ``median`` record {label: {name: fields}}, whether the
    checkouts' quartile ranges of ``field`` are disjoint: a difference
    whose ranges overlap is unresolved."""
    names = next(iter(median.values()))
    out = {}
    for name in names:
        ranges = sorted(by_job[name][f"{field}_quartiles"] for by_job in median.values())
        out[name] = all(hi < lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))
    return out


def median(runs: list[dict], exact: tuple[str, ...]) -> dict:
    """Median of every field over the repeats, and beside it, under the
    field's name with ``_quartiles`` appended, its lower and upper
    quartiles (inclusive method); the ``exact`` fields must not differ
    between repeats and are reported as they are."""
    out = {}
    for key in runs[0]:
        values = [r[key] for r in runs]
        if key in exact:
            if len(set(values)) != 1:
                raise RuntimeError(f"{key} differs between repeats: {values}")
            out[key] = values[0]
        else:
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            out[key] = round(statistics.median(values), 4)
            out[f"{key}_quartiles"] = [round(q1, 4), round(q3, 4)]
    return out


def host() -> dict:
    return {"platform": platform.platform(), "python": sys.version.split()[0],
            "nproc": os.cpu_count()}


def write(record: dict, path: str | None) -> None:
    text = json.dumps(record, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
