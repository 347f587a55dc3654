import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from elliptic_baxter import cli, yangian
from elliptic_baxter.dynamical import SingularityError
from elliptic_baxter.modules import build_asymptotic, qdybe_residual, qdybe_residuals, rll_residual
from elliptic_baxter.reports import (
    CheckResult,
    build_report,
    render_csv,
    render_json,
    render_text,
)
from elliptic_baxter.theta import PoleError, SamplePlan

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from jobs import PARAM_SETS  # noqa: E402


def run(argv):
    return cli.main(argv)


class TestParsing:
    def test_complex_syntax(self):
        assert cli.parse_complex("0.41+0.12i") == 0.41 + 0.12j
        assert cli.parse_complex("1i") == 1j
        assert cli.parse_complex("-0.3-0.2i") == -0.3 - 0.2j
        assert cli.parse_complex("0.31") == 0.31
        with pytest.raises(cli.ConfigError):
            cli.parse_complex("not-a-number")

    def test_fraction_syntax(self):
        assert cli.parse_fraction("2/3") == Fraction(2, 3)
        assert cli.parse_fraction("-5/7") == Fraction(-5, 7)
        with pytest.raises(cli.ConfigError):
            cli.parse_fraction("1/0")

    def test_site_lists(self):
        assert cli.parse_site_list("1/2,2/3", rational=True) == (
            Fraction(1, 2), Fraction(2, 3))
        assert cli.parse_site_list("0.1+0.2i, 0.3", rational=False) == (
            0.1 + 0.2j, 0.3 + 0j)
        with pytest.raises(cli.ConfigError):
            cli.parse_site_list(" , ", rational=True)


class TestExitCodes:
    def test_empty_suite_selection_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run(["no-such-suite"]) == 2

    def test_bad_parameter_is_usage_error(self, capsys):
        assert run(["ybe", "--tau", "banana"]) == 2
        assert run(["ybe", "--order", "-3"]) == 2
        assert run(["tq", "--sites", "1.0,0.3"]) == 2  # site on the lattice
        for tol in ("banana", "nan", "inf", "-1"):
            assert run(["ybe", "--tol", tol]) == 2
        assert "tol" in capsys.readouterr().err
        for depth in ("0", "1"):
            assert run(["qchar", "--depth", depth]) == 2
            assert "error: depth:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, text", [
        (["ybe", "--hbar", "1e400"], "1e400"),
        (["tq", "--sites=1e400+0.1i,0.2+0.1i"], "1e400+0.1i"),
        (["ybe", "--tau", "nan+1i"], "nan+1i"),
        (["ybe", "--hbar", "nan"], "nan"),
        (["tq", "--sites=nan+0i,0.2+0.1i"], "nan+0i"),
        (["ybe", "--tau", "inf"], "inf"),
    ])
    def test_non_finite_complex_is_usage_error(self, argv, text, capsys):
        assert run([*argv, "--no-timestamp"]) == 2
        assert f"error: complex number {text!r} is not finite" in capsys.readouterr().err

    def test_zero_tol_is_valid(self):
        assert cli.RunConfig(["ybe"], {**cli._DEFAULTS, "tol": "0"}).tol == 0.0

    def test_pass_run_exits_zero(self, capsys):
        assert run(["ybe", "--samples", "4", "--seed",
                    "42", "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert out.count("\nPASS") == 4

    def test_identity_failure_exits_one(self, capsys):
        assert run(["ybe", "--samples", "3", "--tol", "1e-30",
                    "--no-timestamp"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_numerical_breakdown_exits_three(self, capsys, monkeypatch):
        def boom(cfg):
            raise PoleError("argument on the period lattice")
        monkeypatch.setitem(cli.RUNNERS, "ybe", boom)
        assert run(["ybe"]) == 3

    def test_theta_overflow_exits_three(self, capsys):
        assert run(["transfer", "--hbar", "0.2+2i", "--no-timestamp"]) == 3
        assert "numerical breakdown" in capsys.readouterr().err

    def test_unconverged_theta_series_exits_three(self, capsys):
        # sites far from the real axis against a small Im(tau): some theta
        # series miss their stopping rule by |j| = 64
        assert run(["transfer", "--tau", "0.03i", "--sites", "0.4+0.9i,0.3-0.8i",
                    "--no-timestamp"]) == 3
        assert "numerical breakdown" in capsys.readouterr().err

    def test_bethe_line_search_rejects_overflowing_trial(self, capsys):
        # a full Newton step from one of this seed's starts reaches an Im z
        # where the theta series' stopping bound overflows: the line search
        # rejects that trial point and goes on
        assert run(["bethe", "--seed", "1618019092", "--no-timestamp"]) == 0
        assert "\nPASS bethe/root-residual" in capsys.readouterr().out

    def test_singular_series_exits_three(self, capsys, monkeypatch):
        def boom(cfg):
            raise SingularityError("singular leading coefficient")
        monkeypatch.setitem(cli.RUNNERS, "ybe", boom)
        assert run(["ybe"]) == 3

    def test_linalg_error_exits_three_not_usage(self, capsys, monkeypatch):
        def boom(cfg):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setitem(cli.RUNNERS, "ybe", boom)
        assert run(["ybe"]) == 3

    def test_unwritable_report_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # the report directory is checked at config load, before any suite runs
        ran = []
        for suite, runner in list(cli.RUNNERS.items()):
            monkeypatch.setitem(cli.RUNNERS, suite,
                                lambda cfg, runner=runner: ran.append(cfg) or runner(cfg))
        assert run(["ybe", "--samples", "2", "--no-timestamp",
                    "--report", str(tmp_path / "missing" / "out.json")]) == 2
        assert "error: report:" in capsys.readouterr().err
        monkeypatch.setenv(cli.REPORT_DIR_ENV, str(tmp_path / "missing"))
        assert run(["ybe", "--samples", "2", "--no-timestamp"]) == 2
        assert "error: report:" in capsys.readouterr().err
        assert ran == []
        assert not (tmp_path / "missing").exists()

    def test_unexpected_exception_exits_four(self, capsys, monkeypatch):
        # a crash is an internal error, never exit 1 (an identity failed)
        def boom(cfg):
            raise IndexError("list index out of range")
        monkeypatch.setitem(cli.RUNNERS, "ybe", boom)
        assert run(["ybe"]) == 4
        assert "internal error: IndexError: list index out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [NotImplementedError, RecursionError])
    def test_runtime_error_subclass_is_internal_error(self, capsys, monkeypatch, error):
        # only a sampling failure among RuntimeErrors is a numerical breakdown
        def boom(cfg):
            raise error("not a breakdown")
        monkeypatch.setitem(cli.RUNNERS, "ybe", boom)
        assert run(["ybe"]) == 4
        assert f"internal error: {error.__name__}" in capsys.readouterr().err

    def test_sampling_failure_exits_three(self, capsys, monkeypatch):
        def starved(cfg):
            SamplePlan(cfg.seed, 1, 5e-2).points(cfg.params, guard=lambda z: (0j,))
        monkeypatch.setitem(cli.RUNNERS, "ybe", starved)
        assert run(["ybe"]) == 3
        assert "numerical breakdown: SamplePlan could not find" in capsys.readouterr().err

    def test_category_condition_at_small_im_tau_exits_three(self, capsys):
        # precision loss at tau = 0.1i makes a Gauss diagonal read as
        # x-dependent at the probe points: a breakdown, not a usage error
        assert run(["qchar", "--tau", "0.1i", "--no-timestamp"]) == 3
        assert "numerical breakdown: x-dependent Gauss diagonal" in capsys.readouterr().err
        assert run(["qchar", "--depth", "1", "--no-timestamp"]) == 2
        assert "error: depth" in capsys.readouterr().err

    def test_six_site_tq_quotient_keeps_its_digits(self, capsys):
        # the explicit series inverse lost about eight digits here (1.8e-8)
        sites = ("0.2618-0.1747i,0.7828+0.2225i,0.7296-0.2384i,"
                 "0.0915-0.0854i,0.1997-0.0053i,0.1195-0.0373i")
        assert run(["tq", "--sites=" + sites, "--order", "2",
                    "--seed", "1252347035", "--no-timestamp"]) == 0

    def test_yangian_suite_exact(self, capsys):
        assert run(["yangian-tq", "--sites", "1/2,2/3", "--order", "10",
                    "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert "exact" in out and "residual=0.000e+00" in out

    def test_yangian_all_builds_q_once(self, monkeypatch):
        # the degree, closed-form, TQ and oscillator checks share one
        # Baxter operator of the chain (the eigen example builds its own,
        # on its own sites)
        builds = []
        exact_q = yangian.yangian_q

        def counted(sites, order):
            builds.append((tuple(sites), order))
            return exact_q(sites, order)

        monkeypatch.setattr(yangian, "yangian_q", counted)
        assert run(["yangian-all", "--sites", "1/2,2/3", "--order", "3",
                    "--no-timestamp"]) == 0
        chain = (Fraction(1, 2), Fraction(2, 3))
        assert [order for sites, order in builds if sites == chain] == [3]


def config(suite, params):
    return cli.resolve_config(cli.build_parser().parse_args([suite, *params]))


class TestRobustnessProbes:
    """The outcomes of the small-Im(tau), large-order and complex-hbar
    probes at the default seed 7: the exit code, and the decade of the
    worst residual where one is pinned.  Each is a known outcome of theta
    series summed without argument reduction or of the TQ quotient; a
    change of outcome, in either direction, shows here."""

    PROBES = [
        (("ybe", "--tau", "0.05i"), 1, 7.6e-8),
        (("ybe", "--tau", "0.02i"), 1, None),
        (("ybe", "--tau", "0.08i"), 0, None),
        (("rll", "--tau", "0.05i"), 1, 2.5e-4),
        (("rll", "--tau", "0.08i"), 1, 2.8e-8),
        (("rll", "--tau", "0.15i"), 0, None),
        (("qchar", "--tau", "0.15i"), 1, 1.985e-9),
        (("tq", "--tau", "0.2i"), 1, 1.571e-8),
        (("tq", "--order", "12"), 1, 2.897e-6),
        (("tq", "--hbar", "0.5+0.9i", "--order", "2"), 1, 1.564e-5),
        (("tq", "--hbar", "0.5+0.9i"), 3, None),
    ]

    @pytest.mark.parametrize("argv, code, worst", PROBES,
                             ids=[" ".join(argv) for argv, _, _ in PROBES])
    def test_outcome(self, argv, code, worst, tmp_path, capsys):
        report = tmp_path / "probe.json"
        assert run([*argv, "--no-timestamp", "--report", str(report)]) == code
        if worst is not None:
            got = max(r["residual"] for r in json.loads(report.read_text())["results"])
            assert math.floor(math.log10(got)) == math.floor(math.log10(worst))


class TestBatchedTriples:
    """The ybe and rll jobs evaluate all their triples in one pass per
    table, with the residuals of one triple at a time."""

    @pytest.mark.parametrize("params", [p for _, p in PARAM_SETS],
                             ids=[name for name, _ in PARAM_SETS])
    def test_ybe_job_matches_per_triple_residuals(self, params):
        cfg = config("ybe", params)
        got = [r.residual for r in cli.run_ybe(cfg)]
        assert got == [qdybe_residual(z, w, x, cfg.params) for z, w, x in cli._triples(cfg)]

    @pytest.mark.parametrize("params", [p for _, p in PARAM_SETS],
                             ids=[name for name, _ in PARAM_SETS])
    def test_rll_job_matches_per_triple_residuals(self, params):
        cfg = config("rll", params)
        X = build_asymptotic(1.7 + 0.3j, 0.0, 8, cfg.params)
        got = [(r.params["index"], r.params["level"], r.residual) for r in cli.run_rll(cfg)]
        triples = cli._triples(cfg)[: max(4, cfg.samples // 3)]
        assert got == [(i, level, rll_residual(X, z, w, x, level))
                       for i, (z, w, x) in enumerate(triples) for level in (0, 2)]

    def test_pole_triple_raises_and_exits_three(self, capsys, monkeypatch):
        # x = 0 puts theta(x)^-1 of the L++ entries and theta(x)^-2 of R
        # on the lattice
        cfg = config("ybe", ())
        good, pole = cli._triples(cfg)[0], (0.3 + 0.1j, 0.2 - 0.2j, 0.0)
        with pytest.raises(PoleError):
            qdybe_residuals([good, pole], cfg.params)
        with pytest.raises(PoleError):
            qdybe_residual(*pole, cfg.params)
        with pytest.raises(PoleError):
            rll_residual(build_asymptotic(1.7 + 0.3j, 0.0, 8, cfg.params), *pole, 0)
        monkeypatch.setattr(cli, "_triples", lambda cfg: [good, pole])
        for suite in ("ybe", "rll"):
            assert run([suite, "--no-timestamp"]) == 3
            assert "numerical breakdown" in capsys.readouterr().err


class TestConfigFile:
    def test_file_values_and_cli_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# sample configuration\n"
            "seed = 42\n"
            "samples = 3\n"
            "tau = 1i\n",
        )
        rpt = tmp_path / "out.json"
        assert run(["ybe", "--config", str(cfgfile), "--samples", "2",
                    "--report", str(rpt), "--no-timestamp"]) == 0
        data = json.loads(rpt.read_text())
        assert data["config"]["seed"] == "42"      # from file
        assert data["config"]["samples"] == "2"    # CLI wins
        assert data["checks"] == 2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("banana = 3\n")
        assert run(["ybe", "--config", str(cfgfile)]) == 2

    def test_bad_tol_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("tol = abc\n")
        assert run(["ybe", "--config", str(cfgfile)]) == 2
        assert "tol" in capsys.readouterr().err


# Runs the calls of a JSON list of [directory, argv] one after another in
# this interpreter, each writing its report to report.json in its directory.
_CALLS = """
import json, os, sys
from elliptic_baxter import cli
for work, argv in json.loads(sys.argv[1]):
    os.chdir(work)
    assert cli.main([*argv, "--no-timestamp", "--report", "report.json"]) == 0
"""


def fresh_process_reports(tmp_path, name, calls):
    """The reports of the argv ``calls``, run back to back in one fresh
    interpreter, each in a directory of its own under tmp_path/name."""
    dirs = [tmp_path / name / str(i) for i in range(len(calls))]
    for d in dirs:
        d.mkdir(parents=True)
    src = Path(cli.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", _CALLS,
                    json.dumps([[str(d), argv] for d, argv in zip(dirs, calls)])],
                   env={**os.environ, "PYTHONPATH": str(src)}, check=True, capture_output=True)
    return [(d / "report.json").read_bytes() for d in dirs]


class TestSharedParser:
    """``build_parser`` builds one parser per process; no call's flags
    reach the next call."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_back_to_back_calls_write_the_reports_of_lone_calls(self, tmp_path):
        calls = [["tq", "--order", "2"], ["tq"]]
        both = fresh_process_reports(tmp_path, "both", calls)
        alone = [fresh_process_reports(tmp_path, f"alone{i}", [argv])[0]
                 for i, argv in enumerate(calls)]
        assert both == alone
        assert alone[0] != alone[1]


# The minor page faults of a second, identical `main` call in one
# interpreter, after a first call that warms it.
_REPEAT_FAULTS = """
import contextlib, io, os, resource, sys
from elliptic_baxter import cli
os.chdir(sys.argv[1])

def call():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*sys.argv[2:], "--no-timestamp", "--report", "report.json"]) == 0

call()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
call()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
class TestHeapPages:
    """``main`` keeps the heap pages a job frees, so a repeated job reuses
    them instead of faulting fresh ones in: with glibc's dynamic
    thresholds, which trim the heap top after each trace, the second
    calls read 562 and 1,223 faults (glibc 2.36, x86-64)."""

    @pytest.mark.parametrize("argv", [
        ["transfer", "--sites=0.41+0.12i,0.27-0.23i,0.54+0.13i,0.16-0.11i", "--order", "4"],
        ["yangian-tq", "--sites=2/3,-5/7,9/4,-1/6,3/5,7/2", "--order", "3"],
    ], ids=["transfer-4site", "yangian-tq-6site"])
    def test_a_repeated_job_faults_in_no_pages(self, argv, tmp_path):
        src = Path(cli.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", _REPEAT_FAULTS, str(tmp_path), *argv],
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True,
                             capture_output=True, text=True)
        assert int(out.stdout) < 50


class TestReports:
    def _report(self, tmp_path, fmt, extra=()):
        path = tmp_path / f"r.{fmt}"
        code = run(["gauss", "--samples", "4", "--report", str(path),
                    "--format", fmt, "--no-timestamp", *extra])
        assert code == 0
        return path.read_text()

    def test_json_round_trip_bit_exact(self, tmp_path, capsys):
        text = self._report(tmp_path, "json")
        data = json.loads(text)
        assert json.dumps(data, indent=2, sort_keys=True) + "\n" == text
        assert data["schema_version"] == 1
        assert data["all_passed"] is True

    def test_determinism(self, tmp_path, capsys):
        a = self._report(tmp_path, "json")
        b = self._report(tmp_path, "json")
        assert a == b

    def test_csv_one_row_per_identity(self, tmp_path, capsys):
        text = self._report(tmp_path, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "suite"
        assert len(rows) - 1 == 2  # gauss emits two identities

    def test_text_line_count_matches_identities(self, tmp_path, capsys):
        text = self._report(tmp_path, "text")
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(lines) == 2

    def test_env_var_report_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.REPORT_DIR_ENV, str(tmp_path))
        assert run(["interchange", "--depth", "4", "--no-timestamp"]) == 0
        assert (tmp_path / "report.json").exists()

    def test_timestamp_isolated(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        assert run(["interchange", "--depth", "4",
                    "--report", str(path)]) == 0
        data = json.loads(path.read_text())
        stamped = dict(data)
        stamped.pop("timestamp")
        stamped["config"].pop("report")
        bare = json.loads(self_or(path, tmp_path))
        bare["config"].pop("report")
        assert stamped == bare

    def test_empty_result_set_is_valid(self):
        report = build_report([], {"suites": []})
        assert json.loads(render_json(report))["results"] == []
        assert render_csv(report).splitlines()[0].startswith("suite")
        body = [ln for ln in render_text(report).splitlines()
                if not ln.startswith("#")]
        assert body == []

    def test_verdict_follows_residual_and_tol(self):
        assert CheckResult("s", "n", {}, 1e-10, 1e-9).passed is True
        assert CheckResult("s", "n", {}, np.float64(2e-9), 1e-9).passed is False
        assert not CheckResult("s", "n", {}, float("nan"), 1e-9).passed
        assert not CheckResult("s", "n", {}, float("inf"), float("inf")).passed
        assert CheckResult("s", "n", {}, Fraction(0), 0.0, exact=True).passed
        assert not CheckResult("s", "n", {}, 1e-30, 1.0, exact=True).passed

    def test_verdict_follows_the_written_residual_and_tol(self):
        # 9.9999999999996e-09 is below 1e-8, but a report writes 12
        # significant digits, 1e-08, equal to its tol: no PASS may read so
        for residual in (9.9999999999996e-09, 9.9999999999e-09, 1.0000000000004e-08, 1e-8):
            r = CheckResult("tq", "x", {}, residual, 1e-8)
            rec, = json.loads(render_json(build_report([r], {})))["results"]
            assert rec["passed"] is (rec["residual"] < rec["tol"])
        rec = CheckResult("tq", "x", {}, 9.9999999999996e-09, 1e-8).record()
        assert (rec["residual"], rec["tol"], rec["passed"]) == (1e-8, 1e-8, False)

    def test_exact_suites_ignore_tol(self):
        cfg = cli.RunConfig(["yangian-tq", "ybe"], {**cli._DEFAULTS, "tol": "0.5"})
        assert (cfg.tol_for("yangian-tq"), cfg.tol_for("ybe")) == (0.0, 0.5)

    def test_failure_records_carry_rerun_data(self):
        r = CheckResult("ybe", "check", {"z": 0.1 + 0.2j, "seed": 5}, 1.0, 1e-9)
        rec = build_report([r], {})["results"][0]
        assert rec["params"]["seed"] == 5
        assert rec["params"]["z"] == "0.1+0.2i"
        assert rec["passed"] is False


def self_or(path, tmp_path):
    """Re-run the same config without a timestamp and return the JSON."""
    bare = tmp_path / "bare.json"
    assert run(["interchange", "--depth", "4", "--report", str(bare),
                "--no-timestamp"]) == 0
    return bare.read_text()
