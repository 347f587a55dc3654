"""Byte identity of the benchmark's reports, parent against change.

    python3 tools/report_identity.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory, the one that holds the
``elliptic_baxter`` package.  For each, a fresh interpreter with
``PYTHONPATH`` set to that directory runs every job of every workload of
``perfbench/jobs.py`` (seeds 1-3, the rounds of ``--seconds 20``) in
process, one ``cli.main`` call after another, as ``perfbench/run.py``
does.  Each job writes its ``--no-timestamp`` JSON report to the fixed
relative name ``report.json`` in a scratch working directory of its own:
a report records its own path, so both sides must name it alike.

The tool prints the job count per workload, the nonzero exit count of
each side and the label of every job whose exit code or report bytes
differ.  It exits 1 on any difference, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
from jobs import WORKLOADS  # noqa: E402

SEEDS = (1, 2, 3)
SECONDS = 20


def job_list() -> list[tuple[str, str, list[str]]]:
    """(workload, label, argv) of every job, labelled workload:seed:round:job."""
    out = []
    for name, w in WORKLOADS.items():
        for seed in SEEDS:
            for r, jobs in enumerate(w.inputs(seed, w.rounds_for(SECONDS))):
                out += [(name, f"{name}:{seed}:{r}:{job.label}", list(job.argv)) for job in jobs]
    return out


def run_jobs(src: str, jobs) -> list[tuple[int | None, str | None]]:
    """Run the (label, argv) jobs in this interpreter, on the package
    under src: each job's exit code (None when an exception escaped
    ``cli.main``) and its report text (None when it wrote none)."""
    from elliptic_baxter import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"elliptic_baxter imported from {cli.__file__}, not from {src}")
    home = os.getcwd()
    results = []
    for _, argv in jobs:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main([*argv, "--no-timestamp", "--report", "report.json"])
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code
            except Exception:  # noqa: BLE001 - a crash is a result to compare
                rc = None
            report = None
            if os.path.isfile("report.json"):
                with open("report.json", encoding="utf-8", newline="") as f:
                    report = f.read()
            os.chdir(home)
        results.append((rc, report))
    return results


def start_tree(src: str, jobs) -> subprocess.Popen:
    """A fresh interpreter, with ``PYTHONPATH`` set to src, that runs
    ``run_jobs`` and writes its results to standard output as JSON."""
    src = os.path.abspath(src)
    if not os.path.isfile(os.path.join(src, "elliptic_baxter", "__init__.py")):
        raise SystemExit(f"no elliptic_baxter package under {src}")
    code = ("import json, sys; sys.path.append(sys.argv[1]); import report_identity as r; "
            "json.dump(r.run_jobs(sys.argv[2], json.load(sys.stdin)), sys.stdout)")
    proc = subprocess.Popen([sys.executable, "-c", code, os.path.dirname(os.path.abspath(__file__)),
                             src], env=dict(os.environ, PYTHONPATH=src), text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    proc.stdin.write(json.dumps([(label, argv) for _, label, argv in jobs]))
    proc.stdin.close()
    return proc


def results_of(proc: subprocess.Popen) -> list[tuple[int | None, str | None]]:
    out = proc.stdout.read()
    if proc.wait() != 0:
        raise SystemExit(f"a job runner exited {proc.returncode}")
    return [tuple(r) for r in json.loads(out)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", metavar="PARENT_SRC")
    ap.add_argument("change", metavar="CHANGE_SRC")
    args = ap.parse_args(argv)
    jobs = job_list()
    # the two sides run side by side, one interpreter each
    procs = [start_tree(src, jobs) for src in (args.parent, args.change)]
    parent, change = map(results_of, procs)
    for name, count in Counter(name for name, _, _ in jobs).items():
        print(f"{name}: {count} jobs")
    for side, results in (("parent", parent), ("change", change)):
        print(f"{side}: {sum(rc != 0 for rc, _ in results)} nonzero exits")
    differ = [label for (_, label, _), a, b in zip(jobs, parent, change) if a != b]
    for label in differ:
        print(f"differs: {label}")
    print(f"{len(differ)} of {len(jobs)} jobs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
