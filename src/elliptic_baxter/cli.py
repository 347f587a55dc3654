"""Batch verification driver.

Runs selected identity suites with configurable parameters and writes
deterministic machine-readable reports.  Exit codes: 0 all checks pass,
1 at least one identity check fails, 2 usage or configuration error
(including a report that cannot be written), 3 numerical breakdown (pole,
indeterminate value or unconverged theta series) during a run, 4 internal
error (any other exception)."""

from __future__ import annotations

import argparse
import cmath
import datetime
import math
import os
import sys
from fractions import Fraction
from functools import cache

import numpy as np

from . import bethe, qchar, transfer, yangian
from .modules import (
    build_asymptotic,
    dynamical_tensor,
    gauss_residuals,
    qdybe_residuals,
    rll_residuals,
)
from .dynamical import SingularityError
from .reports import Check, CheckResult, build_report, render_text, write_report
from .theta import (
    EllipticParams,
    ParameterError,
    PoleError,
    SamplePlan,
    SamplingError,
    theta_eval,  # read as cli.theta_eval by perfbench's tracer tests
)

DEFAULT_TOLS = {
    "ybe": 1e-9, "rll": 1e-8, "gauss": 1e-9, "qchar": 1e-9,
    "interchange": 1e-9, "transfer": 1e-8, "tq": 1e-8,
    "periodicity": 1e-7, "bethe": 1e-10,
    "yangian-all": 0.0, "yangian-tq": 0.0,
}

REPORT_DIR_ENV = "ELLIPTIC_BAXTER_REPORT_DIR"

# torus distance of every guarded sample argument from the zero lattice
_SAMPLE_MARGIN = 5e-2

_DEFAULTS = {
    "tau": "1i", "hbar": "0.31", "sites": None, "order": 4, "depth": 6,
    "samples": 12, "seed": 7, "tol": None, "report": None, "format": "json",
}


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def parse_complex(text: str) -> complex:
    """A finite complex number in re+imi syntax."""
    t = text.strip().replace(" ", "")
    try:
        z = complex(t[:-1] + "j" if t.endswith("i") else t)
    except ValueError:
        raise ConfigError(f"cannot parse complex number {text!r} "
                          "(expected re+imi syntax)") from None
    if not cmath.isfinite(z):
        raise ConfigError(f"complex number {text!r} is not finite")
    return z


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse rational number {text!r}") from None


def parse_site_list(text: str, rational: bool):
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError("sites: empty list")
    return tuple(parse_fraction(p) if rational else parse_complex(p)
                 for p in parts)


def read_config_file(path: str) -> dict:
    """Key = value lines; '#' starts a comment; keys match the CLI flags."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected key = value")
                key, val = (s.strip() for s in line.split("=", 1))
                if key not in _DEFAULTS:
                    raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
                out[key] = val.strip("\"'")
    except OSError as exc:
        raise ConfigError(f"config: {exc}") from None
    return out


class RunConfig:
    """Validated run parameters; re-checks genericity at load."""

    def __init__(self, suites, raw):
        self.suites = tuple(suites)
        self.raw = dict(raw)
        try:
            self.params = EllipticParams(
                tau=parse_complex(raw["tau"]),
                hbar=_as_real_or_complex(parse_complex(raw["hbar"])),
            )
        except ParameterError as exc:
            raise ConfigError(f"tau/hbar: {exc}") from None
        self.order = _as_int("order", raw["order"], lo=0)
        self.depth = _as_int("depth", raw["depth"], lo=0)
        if "qchar" in self.suites and self.depth < 2:
            raise ConfigError("depth: the qchar suite needs depth >= 2")
        self.samples = _as_int("samples", raw["samples"], lo=1)
        self.seed = _as_int("seed", raw["seed"], lo=0)
        self.tol = None if raw["tol"] is None else _as_tol(raw["tol"])
        self.format = raw["format"]
        if self.format not in ("json", "csv", "text"):
            raise ConfigError(f"format: unknown format {self.format!r}")
        self.report = raw["report"]
        if self.report is None and os.environ.get(REPORT_DIR_ENV):
            self.report = os.path.join(os.environ[REPORT_DIR_ENV], f"report.{self.format}")
        if self.report is not None:
            # fail before any suite runs; the file is written only at the end
            folder = os.path.dirname(self.report) or "."
            if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
                raise ConfigError(f"report: directory {folder!r} is missing or not writable")
        self.sites_raw = raw["sites"]

    def tol_for(self, suite: str) -> float:
        """``--tol`` if given, else the default; an exact suite (default 0)
        keeps 0."""
        default = DEFAULT_TOLS[suite]
        return default if self.tol is None or default == 0 else self.tol

    def elliptic_sites(self):
        if self.sites_raw is None:
            return (0.41 + 0.12j, 0.27 - 0.23j)
        return parse_site_list(self.sites_raw, rational=False)

    def rational_sites(self):
        if self.sites_raw is None:
            return (Fraction(2, 3), Fraction(-5, 7))
        return parse_site_list(self.sites_raw, rational=True)

    def config_record(self) -> dict:
        return {
            "suites": list(self.suites),
            **{k: v for k, v in self.raw.items()},
        }


def _as_real_or_complex(c: complex):
    return c.real if c.imag == 0 else c


def _as_tol(value) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"tol: expected a number, got {value!r}") from None
    if not math.isfinite(v) or v < 0:
        raise ConfigError(f"tol: must be finite and >= 0, got {value!r}")
    return v


def _as_int(name, value, lo):
    try:
        v = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: expected an integer, got {value!r}") from None
    if v < lo:
        raise ConfigError(f"{name}: must be >= {lo}")
    return v


# ---------------------------------------------------------------------------
# Suite runners
# ---------------------------------------------------------------------------

def _triples(cfg):
    P = cfg.params
    h = P.hbar
    zs = SamplePlan(cfg.seed, cfg.samples, _SAMPLE_MARGIN).points(P)
    ws = SamplePlan(cfg.seed + 1, cfg.samples, _SAMPLE_MARGIN).points(P)
    xs = SamplePlan(
        cfg.seed + 2, cfg.samples, _SAMPLE_MARGIN,
    ).points(P, guard=lambda x: [x + k * h for k in range(-2, 3)])
    return list(zip(zs, ws, xs))


def run_ybe(cfg) -> list[Check]:
    triples = _triples(cfg)
    residuals = qdybe_residuals(triples, cfg.params)
    return [Check("dynamical-yang-baxter",
                  {"index": i, "z": z, "w": w, "x": x, "seed": cfg.seed}, res)
            for i, ((z, w, x), res) in enumerate(zip(triples, residuals))]


def run_rll(cfg) -> list[Check]:
    P = cfg.params
    X = build_asymptotic(1.7 + 0.3j, 0.0, 8, P)
    triples = _triples(cfg)[: max(4, cfg.samples // 3)]
    levels = (0, 2)
    residuals = iter(rll_residuals(X, triples, levels))
    out = []
    for i, (z, w, x) in enumerate(triples):
        for level in levels:
            out.append(Check(
                "exchange-relation",
                {"index": i, "level": level, "z": z, "w": w, "x": x,
                 "spin": 1.7 + 0.3j, "seed": cfg.seed},
                next(residuals)))
    return out


def run_gauss(cfg) -> list[Check]:
    P = cfg.params
    h = P.hbar
    spin = 1.7 + 0.3j
    X = build_asymptotic(spin, 0.0, 8, P)
    pts = SamplePlan(cfg.seed, max(4, cfg.samples // 3), _SAMPLE_MARGIN).pairs(
        P, guard=lambda z, x: [x + k * h for k in range(-8, 9)])
    reconstruction, scalar_law = gauss_residuals(X, pts)
    return [Check("reconstruction", {"spin": spin, "points": len(pts), "seed": cfg.seed},
                  reconstruction),
            Check("diagonal-scalar-law", {"spin": spin, "levels": X.safe_levels, "seed": cfg.seed},
                  scalar_law)]


def run_qchar(cfg) -> list[Check]:
    P = cfg.params
    X = build_asymptotic(1.1 + 0.2j, 0.0, cfg.depth, P)
    Y = build_asymptotic(0.7 - 0.4j, 0.3, cfg.depth, P)
    T = dynamical_tensor(X, Y, max_level=cfg.depth)
    qT = qchar.qchar_of_module(T)
    qXY = qchar.mul(qchar.qchar_of_module(X), qchar.qchar_of_module(Y),
                    qT.depth)
    return [Check("multiplicativity",
                  {"depth": qT.depth, "spins": [1.1 + 0.2j, 0.7 - 0.4j]},
                  qchar.element_deviation(qT, qXY))]


def run_interchange(cfg) -> list[Check]:
    return [Check("shift-distribution",
                  {"l": 1.3 + 0.2j, "u": 0.57, "depth": cfg.depth},
                  qchar.interchange_check(1.3 + 0.2j, 0.57, cfg.depth, cfg.params))]


def _space(cfg):
    return transfer.QuantumSpace(cfg.elliptic_sites(), cfg.params)


def _sample_pairs(cfg, n=3):
    P = cfg.params
    h = P.hbar
    return SamplePlan(cfg.seed, n, _SAMPLE_MARGIN).pairs(
        P, guard=lambda z, x: [x + k * h for k in range(-6, 7)])


def run_transfer(cfg) -> list[Check]:
    P = cfg.params
    space = _space(cfg)
    order = cfg.order
    K = order + space.L // 2 + 2
    X = build_asymptotic(1.3 + 0.2j, 0.0, K, P)
    Y = build_asymptotic(0.7 - 0.3j, 0.0, K, P)
    pts = _sample_pairs(cfg)
    return [
        Check("tensor-product-rule", {"order": order, "sites": list(space.sites)},
              transfer.product_residual(
                  X, Y, dynamical_tensor(X, Y, max_level=K), space, order, pts)),
        Check("spin-shift-interchange", {"order": order, "l": 1.3 + 0.2j, "u": 0.57},
              transfer.interchange_transfer_residual(1.3 + 0.2j, 0.57, space, order, pts)),
        Check("commutativity", {"order": order, "sites": list(space.sites)},
              transfer.commutativity_residual(
                  X, Y, space, order, 0.37 + 0.21j, -0.12 + 0.43j,
                  [(0.0, x) for _, x in pts])),
    ]


def run_tq(cfg) -> list[Check]:
    space = _space(cfg)
    pts = _sample_pairs(cfg)
    xs = [x for _, x in pts]
    return [Check("two-dimensional-spin", {"order": cfg.order, "sites": list(space.sites)},
                  transfer.tq_residual(1, space, cfg.order, [0.37 + 0.21j], xs))]


def run_periodicity(cfg) -> list[Check]:
    a = cfg.elliptic_sites()[0]
    space = transfer.QuantumSpace((a, a), cfg.params)
    pts = _sample_pairs(cfg)
    xs = [x for _, x in pts]
    return [Check("normalized-q-double-periodicity", {"order": cfg.order, "site": a},
                  transfer.periodicity_residual(space, cfg.order, [0.37 + 0.21j], xs))]


def run_bethe(cfg) -> list[Check]:
    a = cfg.elliptic_sites()[0]
    p = cmath.exp(0.4j)
    rep = bethe.elliptic_bethe_solve(
        1, a, p, cfg.params, seed=cfg.seed, seed_count=max(10, cfg.samples))
    if not rep.solutions:
        return [Check("solver-found-roots", {"n": 1, "a": a, "p": p, "seed": cfg.seed},
                      float("inf"))]
    return [Check("root-residual",
                  {"n": 1, "a": a, "p": p, "roots": list(sol.roots), "seed": cfg.seed},
                  float(np.abs(bethe.elliptic_bethe_residual(sol, cfg.params)).max()))
            for sol in rep.solutions]


def run_yangian_tq(cfg) -> list[Check]:
    sites = cfg.rational_sites()
    return [Check("tq-relation", {"sites": list(sites), "order": cfg.order},
                  yangian.tq_residual(sites, cfg.order))]


def run_yangian_all(cfg) -> list[Check]:
    sites = cfg.rational_sites()
    order = cfg.order
    out = [Check("rtt-finite", {"spin": m},
                 yangian.rtt_residual(yangian.build_module("finite", spin=m)))
           for m in (1, 2, 3)]
    out.append(Check("rtt-ladder", {"spin": Fraction(5, 3), "levels": 6},
                     yangian.rtt_residual(
                         yangian.build_module("ladder", spin=Fraction(5, 3), levels=6))))
    out.append(Check("rtt-oscillator", {"levels": 6},
                     yangian.rtt_residual(yangian.build_module("oscillator", levels=6))))
    # the degree check reads levels 0..1, so Q holds at least those
    q = yangian.yangian_q(sites, max(order, 1))
    degs = yangian.q_degree_report(sites, order=1, q=q)
    ok = all(d.degree_matches and d.leading_nonzero
             and d.p0_upper_triangular and d.p0_diagonal_matches
             for d in degs)
    out.append(Check("q-degree-structure", {"sites": list(sites)}, 0.0 if ok else 1.0))
    if len(sites) == 2:
        out.append(Check("leading-coefficient-closed-form",
                         {"sites": list(sites), "order": order},
                         yangian.two_site_leading_residual(*sites, order, q=q)))
    out.append(Check("tq-relation", {"sites": list(sites), "order": order},
                     yangian.tq_residual(sites, order, q=q)))
    out.append(Check("oscillator-comparison", {"sites": list(sites), "order": order},
                     yangian.oscillator_comparison(sites, order, q=q)))
    out.append(Check("eigen-example",
                     {"a1": Fraction(2, 3), "a2": Fraction(9, 5), "p": Fraction(1, 3)},
                     yangian.eigen_example_residual(
                         Fraction(2, 3), Fraction(9, 5), Fraction(1, 3))))
    mism = yangian.qchar_interchange_mismatches(Fraction(7, 3), Fraction(4, 5), cfg.depth)
    out.append(Check("qchar-interchange",
                     {"l": Fraction(7, 3), "u": Fraction(4, 5), "depth": cfg.depth},
                     float(mism)))
    return out


RUNNERS = {
    "ybe": run_ybe,
    "rll": run_rll,
    "gauss": run_gauss,
    "qchar": run_qchar,
    "interchange": run_interchange,
    "transfer": run_transfer,
    "tq": run_tq,
    "periodicity": run_periodicity,
    "bethe": run_bethe,
    "yangian-all": run_yangian_all,
    "yangian-tq": run_yangian_tq,
}

SUITES = tuple(RUNNERS)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call shares it."""
    p = argparse.ArgumentParser(
        prog="elliptic-baxter",
        description="Run identity-verification suites and emit reports.",
    )
    p.add_argument("suites", nargs="*", metavar="SUITE",
                   help=f"one or more of: {', '.join(SUITES)}")
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--tau", help="lattice modulus, re+imi syntax")
    p.add_argument("--hbar", help="step parameter, re+imi syntax")
    p.add_argument("--sites", help="comma-separated inhomogeneities "
                                   "(complex for elliptic suites, rational "
                                   "for yangian suites)")
    p.add_argument("--order", help="series truncation order")
    p.add_argument("--depth", help="character depth")
    p.add_argument("--samples", help="number of sampled points")
    p.add_argument("--seed", help="sampling seed")
    p.add_argument("--tol", help="override the tolerance of every numeric suite "
                                 "(the exact yangian suites compare to 0)")
    p.add_argument("--report", help="report output path")
    p.add_argument("--format", choices=("json", "csv", "text"),
                   help="report format (default json)")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp field from the report")
    return p


def resolve_config(args) -> RunConfig:
    raw = dict(_DEFAULTS)
    if args.config:
        raw.update(read_config_file(args.config))
    for key in _DEFAULTS:
        val = getattr(args, key)
        if val is not None:
            raw[key] = val
    unknown = [s for s in args.suites if s not in SUITES]
    if unknown:
        raise ConfigError(f"suites: unknown suite(s) {', '.join(unknown)}")
    return RunConfig(args.suites, raw)


def run_suites(cfg: RunConfig) -> list[CheckResult]:
    """Run each selected suite and give its checks their tolerance and
    verdict; a suite whose default tolerance is 0 is exact."""
    return [CheckResult(suite, *check, cfg.tol_for(suite), exact=DEFAULT_TOLS[suite] == 0)
            for suite in cfg.suites for check in RUNNERS[suite](cfg)]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.suites:
        parser.print_usage(sys.stderr)
        print("error: no suite selected", file=sys.stderr)
        return 2
    try:
        return _run(args)
    except Exception as exc:  # a crash must not read as exit 1, a failed identity
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def _run(args) -> int:
    """Resolve the configuration, run the suites, write the report."""
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        results = run_suites(cfg)
    except (PoleError, ZeroDivisionError, SamplingError, OverflowError,
            SingularityError, np.linalg.LinAlgError, qchar.CategoryConditionError) as exc:
        # LinAlgError and CategoryConditionError (a category condition that
        # fails at the sample points) are ValueErrors, so they must be
        # caught before the next branch
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # includes ConfigError and validation errors raised by constructors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stamp = None if args.no_timestamp else (
        datetime.datetime.now(datetime.timezone.utc).isoformat())
    report = build_report(results, cfg.config_record(), timestamp=stamp)
    if cfg.report is not None:
        try:
            write_report(report, cfg.report, cfg.format)
        except OSError as exc:
            print(f"error: report: {exc}", file=sys.stderr)
            return 2
    sys.stdout.write(render_text(report))
    return 0 if report["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
