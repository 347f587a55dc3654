"""Workloads of the benchmark: the certificate jobs of each round.

A job is one command line of the ``elliptic-baxter`` CLI.  Every round
draws fresh inputs (sampling seeds, chain sites) from the workload seed
and the round index alone, so two runs with the same seed see identical
inputs while consecutive rounds share none.  Inputs are built with the
standard library only, so the program under test cannot change them.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

# The suites of the CLI at the time the benchmark was defined.  Fixed here
# rather than read from the program, so that parent and change run the
# same jobs.
SUITES = (
    "ybe", "rll", "gauss", "qchar", "interchange", "transfer", "tq",
    "periodicity", "bethe", "yangian-all", "yangian-tq",
)

# Parameter sets of the 2-site workload.  The small-Im(tau) set needs the
# most theta terms per evaluation.
PARAM_SETS = (
    ("default", ()),
    ("skew", ("--tau", "0.4+0.6i", "--hbar", "0.23+0.05i")),
    ("small-im-tau", ("--tau", "0.2i", "--samples", "24", "--depth", "8")),
)

# The chain jobs use the CLI defaults tau = 1i, hbar = 0.31.
_SITE_MARGIN = 0.05


@dataclass(frozen=True)
class Job:
    label: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    # Round time at nominal machine speed (run.py) at the commit that
    # defined the benchmark; only used to size a run from --seconds.
    nominal_round_s: float
    make_round: Callable[[random.Random], list[Job]]

    def rounds_for(self, seconds: float) -> int:
        """Rounds in one run: about ``seconds`` of work at nominal speed,
        and at least two."""
        return max(2, round(seconds / self.nominal_round_s))

    def inputs(self, seed: int, rounds: int) -> list[list[Job]]:
        return [self.make_round(random.Random(f"{self.name}:{seed}:{r}"))
                for r in range(rounds)]


def _sampling_seed(rng: random.Random) -> tuple[str, str]:
    return ("--seed", str(rng.randrange(1, 2**31)))


def _torus_distance(c: complex) -> float:
    """Distance from c to the lattice Z + Z*1i (tau = 1i)."""
    return abs(complex(c.real - round(c.real), c.imag - round(c.imag)))


def elliptic_sites(rng: random.Random, n: int) -> str:
    """n generic sites a = u + v*1i, rounded to four decimals, each away
    from the period lattice and from every other site modulo the lattice."""
    sites: list[complex] = []
    while len(sites) < n:
        a = complex(round(rng.uniform(0.02, 0.98), 4),
                    round(rng.uniform(-0.25, 0.25), 4))
        if _torus_distance(a) < _SITE_MARGIN:
            continue
        if any(_torus_distance(a - b) < _SITE_MARGIN for b in sites):
            continue
        sites.append(a)
    return ",".join(f"{a.real:.4f}{a.imag:+.4f}i" for a in sites)


def rational_sites(rng: random.Random, n: int) -> str:
    """n distinct nonzero Fractions of height at most 9.  The list may start
    with a minus sign, so pass it as ``--sites=...``."""
    sites: list[Fraction] = []
    while len(sites) < n:
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        if q not in sites:
            sites.append(q)
    return ",".join(str(q) for q in sites)


def _suites_2site(rng: random.Random) -> list[Job]:
    return [Job(f"{suite}@{pname}", (suite, *params, *_sampling_seed(rng)))
            for pname, params in PARAM_SETS for suite in SUITES]


def _chain_elliptic(rng: random.Random) -> list[Job]:
    return [
        Job("transfer-4site-o4", ("transfer", "--sites=" + elliptic_sites(rng, 4),
                                  "--order", "4", *_sampling_seed(rng))),
        Job("tq-4site-o4", ("tq", "--sites=" + elliptic_sites(rng, 4),
                            "--order", "4", *_sampling_seed(rng))),
        Job("tq-6site-o2", ("tq", "--sites=" + elliptic_sites(rng, 6),
                            "--order", "2", *_sampling_seed(rng))),
    ]


def _chain_rational(rng: random.Random) -> list[Job]:
    return [
        Job("yangian-tq-6site-o3", ("yangian-tq", "--sites=" + rational_sites(rng, 6),
                                    "--order", "3", *_sampling_seed(rng))),
        Job("yangian-all-4site-o3", ("yangian-all", "--sites=" + rational_sites(rng, 4),
                                     "--order", "3", *_sampling_seed(rng))),
    ]


# Why each workload is there is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("suites-2site", 2.8, _suites_2site),
        Workload("chain-elliptic", 7.2, _chain_elliptic),
        Workload("chain-rational", 5.0, _chain_rational),
    )
}
