"""Bethe-equation residuals and solvers: the elliptic homogeneous-chain
system with the sum-rule annotation, a damped Newton iteration on the
logarithmic residual, and the exact two-site polynomial system."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .theta import EllipticParams, PoleError, lattice_distance, lattice_reduce, theta_eval
from .yangian import two_site_quadratic

_POLE_GUARD = 1e-8
# Newton: iteration cap, log-residual norm to stop at, finite-difference step
_NEWTON_MAX_ITER = 80
_NEWTON_TOL = 1e-12
_FD_STEP = 1e-7
# an accepted root set must meet the multiplicative system to this norm
_RESIDUAL_TOL = 1e-10
# sum-rule defect below which the rule counts as met
_SUM_RULE_TOL = 1e-6
# leading coefficients below this count as zero in the two-site system
_DEGENERATE_TOL = 1e-12
# torus distance below which two roots count as the same root
_SAME_ROOT_TOL = 1e-6


@dataclass(frozen=True)
class BetheConfig:
    """A candidate root multiset for the homogeneous chain of length 2n."""

    n: int
    a: complex
    p: complex
    roots: tuple[complex, ...]
    sum_rule_defect: complex | None = None
    sum_rule_ok: bool | None = None

    def __post_init__(self):
        if len(self.roots) != self.n:
            raise ValueError("root count must equal n")

    def annotated(self, params: EllipticParams) -> "BetheConfig":
        d = sum(self.roots) - self.n * self.a
        defect = lattice_distance(d, params)
        return BetheConfig(self.n, self.a, self.p, self.roots,
                           sum_rule_defect=complex(d), sum_rule_ok=bool(defect < _SUM_RULE_TOL))


def _theta_ratio(z: complex, params: EllipticParams) -> complex:
    num = theta_eval(z, params)
    den_arg = z + params.hbar
    if lattice_distance(den_arg, params) < _POLE_GUARD:
        raise PoleError(f"denominator argument {den_arg} on the lattice")
    return num / theta_eval(den_arg, params)


def elliptic_bethe_residual(cfg: BetheConfig, params: EllipticParams) -> np.ndarray:
    """Componentwise defect of the multiplicative system; the empty
    interaction product at n=1 is 1."""
    n, a, p = cfg.n, cfg.a, cfg.p
    out = np.zeros(n, dtype=complex)
    for k, zk in enumerate(cfg.roots):
        lhs = p**2 * _theta_ratio(zk + a, params) ** (2 * n)
        rhs = 1.0 + 0j
        for j, zj in enumerate(cfg.roots):
            if j == k:
                continue
            num_arg, den_arg = zk - zj - params.hbar, zk - zj + params.hbar
            if lattice_distance(den_arg, params) < _POLE_GUARD:
                raise PoleError(f"interaction pole at roots {k},{j}")
            rhs *= theta_eval(num_arg, params) / theta_eval(den_arg, params)
        out[k] = lhs - rhs
    return out


def _log_residual(roots: np.ndarray, n: int, a: complex, p: complex,
                  params: EllipticParams) -> np.ndarray:
    """Principal-branch logarithm of (LHS/RHS) per component."""
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        zk = roots[k]
        val = p**2 * _theta_ratio(zk + a, params) ** (2 * n)
        for j in range(n):
            if j == k:
                continue
            val /= (theta_eval(zk - roots[j] - params.hbar, params)
                    / theta_eval(zk - roots[j] + params.hbar, params))
        if val == 0:
            raise PoleError("vanishing Bethe ratio")
        out[k] = cmath.log(val)
    return out


@dataclass
class SolveReport:
    solutions: list[BetheConfig]


def _same_solution(r1, r2, params) -> bool:
    """Unordered root-multiset match on the torus, greedy assignment."""
    left = list(r2)
    for z in r1:
        best, best_d = None, _SAME_ROOT_TOL
        for i, w in enumerate(left):
            d = lattice_distance(z - w, params)
            if d < best_d:
                best, best_d = i, d
        if best is None:
            return False
        left.pop(best)
    return not left


def _newton(seed, n, a, p, params):
    """The converged roots, or None when the iteration fails.  A pole or
    an overflow of the theta series at the iterate fails the run; at a
    trial point of the line search it rejects the trial."""
    roots = np.array(seed, dtype=complex)
    for _ in range(_NEWTON_MAX_ITER):
        try:
            r = _log_residual(roots, n, a, p, params)
        except (PoleError, OverflowError):
            return None
        nr = float(np.linalg.norm(r))
        if nr < _NEWTON_TOL:
            return roots
        jac = np.zeros((n, n), dtype=complex)
        try:
            for j in range(n):
                bumped = roots.copy()
                bumped[j] += _FD_STEP
                jac[:, j] = (_log_residual(bumped, n, a, p, params) - r) / _FD_STEP
            step = np.linalg.solve(jac, r)
        except (PoleError, OverflowError, np.linalg.LinAlgError):
            return None
        lam = 1.0
        for _ in range(25):
            cand = roots - lam * step
            try:
                if float(np.linalg.norm(_log_residual(cand, n, a, p, params))) < nr:
                    roots = cand
                    break
            except (PoleError, OverflowError):
                pass
            lam *= 0.5
        else:
            return None
    return None


def _default_seeds(n, a, params, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    tries = 0
    while len(out) < count and tries < 100 * count:
        tries += 1
        pts = rng.random(n) + rng.random(n) * params.tau
        ok = all(
            lattice_distance(z + a, params) > 5e-2
            and lattice_distance(z + a + params.hbar, params) > 5e-2
            for z in pts
        )
        ok = ok and all(
            lattice_distance(pts[i] - pts[j] + params.hbar, params) > 5e-2
            for i in range(n) for j in range(n) if i != j
        )
        if ok:
            out.append(tuple(pts))
    return out


def elliptic_bethe_solve(
    n: int, a: complex, p: complex, params: EllipticParams,
    seeds=None, seed: int = 7, seed_count: int = 40,
) -> SolveReport:
    """Damped Newton runs from many seeds, deduplicated as unordered root
    multisets on the torus, each annotated with the sum-rule defect."""
    if seeds is None:
        seeds = _default_seeds(n, a, params, seed_count, seed)
    solutions: list[BetheConfig] = []
    for s in seeds:
        roots = _newton(s, n, a, p, params)
        if roots is None:
            continue
        cfg = BetheConfig(n, complex(a), complex(p), tuple(roots))
        try:
            if float(np.linalg.norm(elliptic_bethe_residual(cfg, params))) > _RESIDUAL_TOL:
                continue
        except PoleError:
            continue
        if any(_same_solution(cfg.roots, other.roots, params) for other in solutions):
            continue
        solutions.append(cfg.annotated(params))
    solutions.sort(key=lambda c: tuple(
        (round(lattice_reduce(z, params)[0].real, 8), round(lattice_reduce(z, params)[0].imag, 8))
        for z in sorted(c.roots, key=lambda z: (lattice_reduce(z, params)[0].real,
                                                lattice_reduce(z, params)[0].imag))
    ))
    return SolveReport(solutions)


# ---------------------------------------------------------------------------
# Two-site polynomial system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class YangianBetheResult:
    roots: tuple[complex, ...]
    linear: bool
    degenerate_discriminant: bool


def yangian_bethe_solve(a1: complex, a2: complex, p: complex) -> YangianBetheResult:
    """Roots of p(z+a1+1)(z+a2+1) = (z+a1)(z+a2)."""
    a1, a2, p = complex(a1), complex(a2), complex(p)
    qc, qb, qa = map(two_site_quadratic(a1, a2, p).coefficient, range(3))
    if abs(qa) < _DEGENERATE_TOL:
        if abs(qb) < _DEGENERATE_TOL:
            raise ZeroDivisionError("degenerate system: no z dependence")
        return YangianBetheResult((-qc / qb,), True, False)
    disc = qb * qb - 4 * qa * qc
    crit = (a1 - a2) ** 2 + 4 * p / (1 - p) ** 2
    s = cmath.sqrt(disc)
    roots = ((-qb + s) / (2 * qa), (-qb - s) / (2 * qa))
    return YangianBetheResult(roots, False, bool(abs(crit) < _DEGENERATE_TOL))
