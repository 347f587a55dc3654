"""Self-tests of the benchmark: tracer coverage and determinism, and the
per-job correctness gate.  Run with ``python3 -m pytest perfbench/tests``."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from jobs import WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402

cli = run.import_cli()
theta = sys.modules["elliptic_baxter.theta"]

# Reaches theta_eval through the bindings in cli (gauss), bethe, transfer
# (tq) and theta itself (ThetaExpression.eval).
ELLIPTIC = ("ybe", "gauss", "bethe", "tq", "--samples", "2", "--order", "1")
RATIONAL = ("yangian-tq", "--sites=2/3,-5/7", "--order", "1")


def traced(argv, tmp_path):
    tracer = Tracer()
    with tracer:
        with tracer.job("test"):
            job = run.run_job(cli, "test", argv, tmp_path / "report.json")
    assert run.check_job(job).consistent
    return tracer.snapshot(), job


def test_theta_eval_calls_equal_a_direct_count(tmp_path):
    code = theta.theta_eval.__code__
    direct = 0

    def profile(frame, event, arg):
        nonlocal direct
        if event == "call" and frame.f_code is code:
            direct += 1

    sys.setprofile(profile)
    try:
        snap, _ = traced(ELLIPTIC, tmp_path)
    finally:
        sys.setprofile(None)
    assert direct > 0
    assert snap["theta.theta_eval.calls"] == direct


def test_bypass_counts_are_zero(tmp_path):
    rational, _ = traced(RATIONAL, tmp_path)
    assert rational["theta.theta_eval.calls"] == 0
    assert rational["polyring.Poly.mul.calls"] > 0
    elliptic, _ = traced(ELLIPTIC, tmp_path)
    assert elliptic["polyring.Poly.mul.calls"] == 0
    assert elliptic["theta.ThetaExpression.mul.calls"] > 0


def test_two_traced_runs_give_identical_counts_and_reports(tmp_path):
    first, a = traced(ELLIPTIC, tmp_path)
    second, b = traced(ELLIPTIC, tmp_path)
    counts = [k for k in first if not k.endswith(("self_s", "total_s"))]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    plain = run.run_job(cli, "test", ELLIPTIC, tmp_path / "report.json")
    assert a.report == b.report == plain.report


def test_install_wraps_aliases_and_uninstall_restores_them():
    theta_eval = theta.theta_eval
    mul = vars(theta.ThetaExpression)["__mul__"]
    runner = cli.RUNNERS["tq"]
    with Tracer():
        assert cli.theta_eval is theta.theta_eval is not theta_eval
        assert vars(theta.ThetaExpression)["__rmul__"] is vars(theta.ThetaExpression)["__mul__"]
        assert vars(theta.ThetaExpression)["__mul__"] is not mul
        assert cli.RUNNERS["tq"] is not runner
    assert cli.theta_eval is theta.theta_eval is theta_eval
    assert vars(theta.ThetaExpression)["__rmul__"] is mul
    assert cli.RUNNERS["tq"] is runner


def test_benchmark_json_names_every_workload_and_traced_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    tracer = Tracer()
    with tracer:
        pass
    emitted = set(tracer.snapshot()) | {"trace.overhead_ratio", "checks.fail_ratio",
                                         "checks.worst_tol_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == emitted


def report(rc, results, all_passed=None):
    if all_passed is None:
        all_passed = all(r["passed"] for r in results)
    body = {"results": results, "checks": len(results), "all_passed": all_passed}
    return run.JobRun("t", 0.0, 0.1, rc, "", json.dumps(body).encode())


def check(residual, tol, passed, exact=False):
    return {"suite": "s", "name": "n", "residual": residual, "tol": tol,
            "passed": passed, "exact": exact}


@pytest.mark.parametrize("job, passed, consistent", [
    (report(0, [check(1e-12, 1e-9, True)]), True, True),
    (report(1, [check(2e-9, 1e-9, False)]), False, True),
    (report(0, [check(0.0, 0.0, True, exact=True)]), True, True),
    (report(1, [check(0.5, 0.0, False, exact=True)]), False, True),
    # a PASS claimed for a NaN or an out-of-tolerance residual
    (report(0, [check(float("nan"), 1e-9, True)]), False, False),
    (report(0, [check(2e-9, 1e-9, True)]), False, False),
    # the exit code disagrees with all_passed
    (report(1, [check(1e-12, 1e-9, True)]), False, False),
    (report(0, [check(2e-9, 1e-9, False)], all_passed=True), False, False),
    (run.JobRun("t", 0.0, 0.1, 3, "numerical breakdown", None), False, True),
    (run.JobRun("t", 0.0, 0.1, 2, "error", None), False, True),
    (run.JobRun("t", 0.0, 0.1, None, "OverflowError: math range error", None), False, True),
    (run.JobRun("t", 0.0, 0.1, 0, "", None), False, False),
])
def test_gate(job, passed, consistent):
    v = run.check_job(job)
    assert (v.passed, v.consistent) == (passed, consistent)


def test_speed_factor_uses_the_probes_around_the_job():
    probe = run.SpeedProbe()
    probe.ends = [1.0, 2.0, 3.0, 10.0]
    probe.times = [run.PROBE_NOMINAL_S] * 3 + [2 * run.PROBE_NOMINAL_S]
    assert probe.factor(1.5, 2.5) == 1.0
    assert probe.factor(9.5, 11.0) == 0.5
    assert probe.factor(5.0, 6.0) == 1.0  # no probe in the window: all of them


def test_a_crash_is_a_failed_job_not_an_abort(tmp_path):
    job = run.run_job(cli, "probe", ("transfer", "--hbar", "0.2+2i"),
                      tmp_path / "report.json")
    verdict = run.check_job(job)
    assert not verdict.passed
