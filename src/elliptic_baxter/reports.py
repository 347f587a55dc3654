"""Structured check results and deterministic report rendering (JSON,
CSV, text).  Field ordering is stable: results are sorted by suite,
name, then serialized parameters, and JSON keys are sorted, so identical
inputs render byte-identically (the timestamp is an isolated top-level
field)."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

SCHEMA_VERSION = 1


def jsonable(v):
    """Map parameter values to JSON-stable primitives."""
    if isinstance(v, complex):
        return f"{v.real:.12g}{v.imag:+.12g}i"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    if isinstance(v, float):
        return float(f"{v:.12g}")
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): jsonable(x) for k, x in v.items()}
    return v


class Check(NamedTuple):
    """One identity evaluated by a suite runner, before any verdict."""

    name: str
    params: dict
    residual: float


@dataclass
class CheckResult:
    """A check with its tolerance and verdict: an exact check passes when
    its residual is 0, any other when the residual is finite and below tol."""

    suite: str
    name: str
    params: dict
    residual: float
    tol: float
    exact: bool = False
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = bool(self.residual == 0 if self.exact
                           else math.isfinite(self.residual) and self.residual < self.tol)

    def record(self) -> dict:
        """The fields in declaration order, params, residual and tol
        mapped to JSON-stable primitives."""
        return {"suite": self.suite, "name": self.name,
                "params": jsonable(self.params),
                "residual": jsonable(float(self.residual)),
                "tol": jsonable(float(self.tol)),
                "exact": self.exact, "passed": self.passed}


def _sort_key(rec: dict):
    return (rec["suite"], rec["name"], json.dumps(rec["params"], sort_keys=True))


def build_report(results, config: dict, timestamp: str | None = None) -> dict:
    recs = sorted((r.record() for r in results), key=_sort_key)
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": jsonable(config),
        "results": recs,
        "checks": len(recs),
        "all_passed": all(r["passed"] for r in recs),
    }
    if timestamp is not None:
        report["timestamp"] = timestamp
    return report


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


_CSV_FIELDS = ("suite", "name", "residual", "tol", "passed", "exact", "params")


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_CSV_FIELDS)
    for r in report["results"]:
        w.writerow([
            r["suite"], r["name"], r["residual"], r["tol"],
            r["passed"], r["exact"],
            json.dumps(r["params"], sort_keys=True),
        ])
    return buf.getvalue()


def render_text(report: dict) -> str:
    """One line per identity; commentary lines start with '#'."""
    lines = [f"# schema {report['schema_version']}, {report['checks']} checks, "
             f"{'all passed' if report['all_passed'] else 'FAILURES'}"]
    for r in report["results"]:
        mark = "PASS" if r["passed"] else "FAIL"
        exact = " exact" if r["exact"] else ""
        lines.append(
            f"{mark}{exact} {r['suite']}/{r['name']} "
            f"residual={r['residual']:.3e} tol={r['tol']:.1e} "
            f"params={json.dumps(r['params'], sort_keys=True)}"
        )
    return "\n".join(lines) + "\n"


RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


def write_report(report: dict, path: str, fmt: str) -> None:
    if fmt not in RENDERERS:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(RENDERERS[fmt](report))
