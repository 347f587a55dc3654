"""Take-turns runner shared by the benchmark tools in this directory.

Every measurement runs a code snippet in a fresh interpreter whose
``PYTHONPATH`` is one checkout's ``src/`` directory; the snippet prints one
JSON object.  Within every repeat the checkouts take turns on each job, so a
busy host slows them alike, and the medians over the repeats are reported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def src_arguments(ap: argparse.ArgumentParser) -> None:
    """Add the ``--src LABEL=PATH`` (repeatable) and ``--out`` options."""
    ap.add_argument("--src", action="append", required=True,
                    metavar="LABEL=PATH",
                    help="a label and the src/ directory of a checkout")
    ap.add_argument("--out", help="write the JSON here instead of stdout")


def run(src: str, code: str, args) -> dict:
    """Run ``code`` with ``args`` in a fresh interpreter on checkout ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def take_turns(checkouts: dict[str, str], jobs, repeats: int) -> dict:
    """Runs of every (name, code, args) job, as {label: {name: [run, ...]}}."""
    runs = {label: {} for label in checkouts}
    for _ in range(repeats):
        for name, code, args in jobs:
            for label, src in checkouts.items():
                runs[label].setdefault(name, []).append(run(src, code, args))
    return runs


def median(runs: list[dict], exact: tuple[str, ...]) -> dict:
    """Median of every field over the repeats; the ``exact`` fields must not
    differ between repeats and are reported as they are."""
    out = {}
    for key in runs[0]:
        values = [r[key] for r in runs]
        if key in exact:
            if len(set(values)) != 1:
                raise RuntimeError(f"{key} differs between repeats: {values}")
            out[key] = values[0]
        else:
            out[key] = round(statistics.median(values), 4)
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
