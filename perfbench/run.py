#!/usr/bin/env python3
"""Layered benchmark of the elliptic-baxter certificate generator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports ``elliptic_baxter`` from this checkout's ``src/`` and runs the
workload's certificate jobs (see jobs.py), one ``cli.main([...])`` call
after another: a closed loop with one client, no queue, one process.  A
round runs every job of the workload once, on inputs drawn from (seed,
round index).  ``--seconds`` sizes the run: the number of rounds is fixed
from it and the workload's nominal round time, so that a run of the parent
and one of a change see the same inputs.

Every job's JSON report is checked (see ``check_job``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the gated
end-to-end ones: each job's best time over the rounds, scaled by a speed
probe to the nominal machine speed, plus set-up time and peak memory.  With
``--trace 1`` they are the per-layer metrics of tracer.py.  Lines before it,
each starting with ``#``, give provenance, the seven end-to-end figures of
NOTES.md and the failed jobs.  ``--workload all`` runs every workload in
its own process.  Per-job records and trace spans are written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from jobs import WORKLOADS
from tracer import UNITS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 7
# The speed probe times a fixed loop of the benchmark's own code every
# PROBE_INTERVAL_S while jobs run.  PROBE_NOMINAL_S is the loop's time on
# the box the benchmark was defined on (2-core Xeon at 2.1 GHz, Python
# 3.11) in its fast phases; slow phases there took 85-100 us.  Times are
# scaled in proportion to the probe's time (see NOTES.md).
PROBE_INTERVAL_S = 0.02
PROBE_WINDOW_S = 0.1
PROBE_NOMINAL_S = 55e-6
# No round starts after this many seconds, so that a run of a much slower
# program still ends within three minutes.
HARD_STOP_S = 120.0
TAIL_BEYOND = 10


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_cli():
    """Import elliptic_baxter.cli from this checkout's src/ and nowhere else."""
    if not (SRC / "elliptic_baxter" / "__init__.py").is_file():
        raise BenchmarkError(f"no elliptic_baxter package under {SRC}")
    sys.path.insert(0, str(SRC))
    import elliptic_baxter
    import elliptic_baxter.cli
    where = Path(elliptic_baxter.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"elliptic_baxter imported from {where}, not from {SRC}")
    return elliptic_baxter.cli


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _commit() -> str | None:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int) -> dict:
    import numpy
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Jobs and the per-job correctness gate
# ---------------------------------------------------------------------------

@dataclass
class JobRun:
    label: str
    start: float          # time.perf_counter() when the job started
    seconds: float
    rc: int | None        # None when an exception escaped cli.main
    error: str
    report: bytes | None


@dataclass
class Verdict:
    passed: bool          # the job produced a passing certificate
    consistent: bool      # every claim of the job's output holds
    worst_ratio: float    # max finite residual/tol over numeric checks (0 if none)
    reason: str


def run_job(cli, label: str, argv, report_path: Path) -> JobRun:
    report_path.unlink(missing_ok=True)
    sink, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            rc = cli.main([*argv, "--no-timestamp", "--report", str(report_path)])
        error = err.getvalue().strip()
    except SystemExit as exc:  # argparse rejects the arguments
        rc, error = exc.code, err.getvalue().strip()
    except Exception as exc:  # a crash is a failed job, not a failed run
        rc, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    report = report_path.read_bytes() if report_path.is_file() else None
    return JobRun(label, t0, seconds, rc, error, report)


def check_job(run: JobRun) -> Verdict:
    """Exit code 0/1 must match all_passed and the records; a numeric check passes when its
    residual is finite and below tol, an exact one when it is 0; each
    record's own ``passed`` flag must agree with that."""
    if run.rc is None:
        return Verdict(False, True, 0.0, f"raised {run.error}")
    if run.rc not in (0, 1):
        return Verdict(False, True, 0.0, f"exit {run.rc}: {run.error}")
    try:
        report = json.loads(run.report)
        results = report["results"]
        all_passed = report["all_passed"]
    except (TypeError, ValueError, KeyError) as exc:
        return Verdict(False, False, 0.0, f"exit {run.rc} without a readable report: {exc}")
    consistent = (all_passed == (run.rc == 0) == all(r["passed"] for r in results)
                  and len(results) == report.get("checks"))
    reason = "" if consistent else f"exit {run.rc}, all_passed={all_passed} disagree"
    passed = bool(results)
    worst = 0.0
    for rec in results:
        res, tol = float(rec["residual"]), float(rec["tol"])
        if rec["exact"]:
            ok = res == 0.0
        else:
            ok = math.isfinite(res) and res < tol
            if math.isfinite(res):
                worst = max(worst, res / tol)
        if ok != rec["passed"]:
            consistent = False
            reason = reason or f"{rec['suite']}/{rec['name']} claims passed={rec['passed']}"
        if not ok:
            passed = False
            reason = reason or (f"FAIL {rec['suite']}/{rec['name']} residual {res:.3g} "
                                f"tol {tol:.3g}")
    return Verdict(passed and consistent, consistent, worst, reason)


class SpeedProbe:
    """Measures how fast the shared machine runs while jobs run.

    Inside ``with SpeedProbe() as probe:`` an interval timer times a fixed
    loop every PROBE_INTERVAL_S, between two bytecodes of whatever runs, and
    once more on entry and on exit.  ``factor(t0, t1)`` scales a wall time
    measured in [t0, t1] to nominal machine speed, from the median loop
    time in [t0 - PROBE_WINDOW_S, t1 + PROBE_WINDOW_S].
    """

    def __init__(self):
        self.ends: list[float] = []
        self.times: list[float] = []

    def sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        s = 0j
        for j in range(300):
            s += cmath.exp(1j * (j % 97) * 0.01)
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.times.append(t1 - t0)

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def factor(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.ends, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.ends, t1 + PROBE_WINDOW_S)
        window = self.times[lo:hi] or self.times
        return PROBE_NOMINAL_S / statistics.median(window)


def run_round(cli, jobs, outdir: Path, tracer: Tracer | None = None, tag: str = ""):
    """Run one round; returns (seconds spent in jobs, [JobRun])."""
    runs = []
    for k, job in enumerate(jobs):
        path = outdir / f"job{k}.json"
        if tracer is None:
            runs.append(run_job(cli, job.label, job.argv, path))
        else:
            with tracer.job(f"{tag}.{k}:{job.label}"):
                runs.append(run_job(cli, job.label, job.argv, path))
    return sum(r.seconds for r in runs), runs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile); the maximum when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure_setup(workload: str, seed: int, seconds: int) -> float:
    """Median over fresh interpreters of importing elliptic_baxter.cli and
    building the workload's inputs, at nominal machine speed."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def setup_probe(workload: str, seed: int, seconds: int) -> None:
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        import_cli()
        w = WORKLOADS[workload]
        w.inputs(seed, w.rounds_for(seconds))
        t1 = time.perf_counter()
    print(repr((t1 - t0) * probe.factor(t0, t1)))


def summarize(runs, verdicts):
    failed = [(r, v) for r, v in zip(runs, verdicts) if not v.passed]
    worst = max((v.worst_ratio for v in verdicts), default=0.0)
    lines = []
    by_label = {}
    for r, v in failed:
        by_label.setdefault(r.label, []).append(v.reason)
    for label, reasons in sorted(by_label.items()):
        lines.append(f"# failed {len(reasons)}x {label}: {reasons[0]}")
    return failed, worst, lines


def _record(runs, verdicts):
    return [{"label": r.label, "seconds": r.seconds, "rc": r.rc, "passed": v.passed,
             "consistent": v.consistent, "worst_ratio": v.worst_ratio, "reason": v.reason}
            for r, v in zip(runs, verdicts)]


def _outdir(workload: str, seed: int) -> Path:
    outdir = OUT / f"{workload}-seed{seed}"
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _result(verdicts, failed, metrics) -> dict:
    return {"correct": all(v.consistent for v in verdicts),
            "attempted": len(verdicts), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def bench(workload: str, seed: int, seconds: int) -> dict:
    cli = import_cli()
    prov = provenance(workload, seed)
    w = WORKLOADS[workload]
    setup_s = measure_setup(workload, seed, seconds)
    inputs = w.inputs(seed, w.rounds_for(seconds))
    outdir = _outdir(workload, seed)

    start = time.perf_counter()
    runs, wall_rounds = [], []
    with SpeedProbe() as probe:
        for jobs in inputs:
            if time.perf_counter() - start > HARD_STOP_S:
                break
            dt, rr = run_round(cli, jobs, outdir)
            wall_rounds.append(dt)
            runs.extend(rr)
    verdicts = [check_job(r) for r in runs]
    failed, worst, fail_lines = summarize(runs, verdicts)
    n = len(runs)
    per_round = len(inputs[0])
    # Job times at nominal machine speed; the gated metrics use these.
    job_s = [r.seconds * probe.factor(r.start, r.start + r.seconds) for r in runs]
    round_s = [sum(job_s[i:i + per_round]) for i in range(0, n, per_round)]
    tail_s, pct = tail(job_s)
    metrics = {
        "setup_s": (setup_s, "s"),
        "round_s": (statistics.median(round_s), "s"),
        "job_p50_s": (statistics.median(job_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    margin = f"{math.log10(worst):.4f} log10" if worst > 0 else "n/a (no numeric checks)"
    lines = [
        f"# provenance {json.dumps(prov, sort_keys=True)}",
        f"# {workload}: {len(round_s)} rounds x {per_round} jobs = {n} jobs; "
        f"times at nominal speed (wall-clock in brackets)",
        f"# setup_s {setup_s:.4f} s (median of {SETUP_PROBES} fresh interpreters)",
        f"# round_s {metrics['round_s'][0]:.4f} s (median of {len(round_s)} rounds) "
        f"[{statistics.median(wall_rounds):.4f} s]",
        f"# job_p50_s {metrics['job_p50_s'][0]:.4f} s (median of {n} jobs) "
        f"[{statistics.median(r.seconds for r in runs):.4f} s]",
        f"# job_tail_s {tail_s:.4f} s (p{pct:.2f} of {n} jobs, "
        f"{TAIL_BEYOND if n > TAIL_BEYOND else 0} beyond)",
        f"# fail_ratio {len(failed) / n:.4f} 1 ({len(failed)}/{n} jobs)",
        f"# worst_margin_log10 {margin}",
        f"# peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB",
        f"# speed probe: median {statistics.median(probe.times) * 1e6:.1f} us over "
        f"{len(probe.times)} samples, nominal {PROBE_NOMINAL_S * 1e6:.1f} us",
        *fail_lines,
    ]
    (outdir / "untraced.json").write_text(json.dumps(
        {"provenance": prov, "wall_round_s": wall_rounds, "round_s": round_s,
         "probe_ends": probe.ends, "probe_s": probe.times,
         "jobs": [dict(rec, start=r.start, nominal_s=t) for rec, r, t
                  in zip(_record(runs, verdicts), runs, job_s)]},
        indent=1))
    return {"lines": lines, "result": _result(verdicts, failed, metrics)}


def bench_traced(workload: str, seed: int, seconds: int) -> dict:
    """Each round runs untraced, then traced on the same inputs; their
    reports must be byte-identical.  Half the rounds of an untraced run."""
    cli = import_cli()
    prov = provenance(workload, seed)
    w = WORKLOADS[workload]
    inputs = w.inputs(seed, math.ceil(w.rounds_for(seconds) / 2))
    outdir = _outdir(workload, seed)
    tracer = Tracer()

    start = time.perf_counter()
    plain_times, traced_times, snaps, runs, verdicts = [], [], [], [], []
    for r, jobs in enumerate(inputs):
        if time.perf_counter() - start > HARD_STOP_S:
            break
        dt, plain = run_round(cli, jobs, outdir)
        plain_times.append(dt)
        tracer.reset()
        with tracer:
            dt, traced = run_round(cli, jobs, outdir, tracer, tag=f"r{r}")
        traced_times.append(dt)
        snaps.append(tracer.snapshot())
        for a, b in zip(plain, traced):
            va, vb = check_job(a), check_job(b)
            same = a.report == b.report
            verdicts.append(Verdict(
                va.passed and vb.passed and same, va.consistent and vb.consistent and same,
                max(va.worst_ratio, vb.worst_ratio),
                va.reason or vb.reason or ("" if same else "traced report differs")))
            runs.append(a)
    failed, worst, fail_lines = summarize(runs, verdicts)

    metrics = {}
    for name in snaps[0]:
        stat = name.rsplit(".", 1)[1]
        if stat in ("self_s", "total_s"):
            value = statistics.median(s[name] for s in snaps)
        else:  # counts and ratios: the first round's, exact for a seed
            value = snaps[0][name]
        metrics[name] = (value, UNITS[stat])
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_times) / statistics.median(plain_times), "1")
    metrics["checks.fail_ratio"] = (len(failed) / len(runs), "1")
    metrics["checks.worst_tol_ratio"] = (worst, "1")

    lines = [
        f"# provenance {json.dumps(prov, sort_keys=True)}",
        f"# {workload} traced: {len(snaps)} rounds x {len(inputs[0])} jobs, "
        f"each run untraced then traced",
        f"# untraced round_s {statistics.median(plain_times):.4f} s, traced "
        f"{statistics.median(traced_times):.4f} s",
        *fail_lines,
    ]
    (outdir / "traced.json").write_text(json.dumps(
        {"provenance": prov, "untraced_round_s": plain_times, "traced_round_s": traced_times,
         "rounds": snaps, "jobs": _record(runs, verdicts), "spans": tracer.spans}))
    return {"lines": lines, "result": _result(verdicts, failed, metrics)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, args.seconds)
            return 0
        if args.workload == "all":
            return max(subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], cwd=ROOT, timeout=180).returncode
                for name in WORKLOADS)
        run = bench_traced if args.trace else bench
        out = run(args.workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
