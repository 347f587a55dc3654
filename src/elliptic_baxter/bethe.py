"""Bethe-equation residuals and solvers: the elliptic homogeneous-chain
system with the sum-rule annotation, a damped Newton iteration on the
logarithmic residual, and the exact two-site polynomial system."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .theta import EllipticParams, PoleError, SamplePlan, lattice_distance, lattice_reduce, theta_eval
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


def _sides(roots, a: complex, p: complex, params: EllipticParams):
    """Each root's two sides (lhs, rhs) of the multiplicative system, in
    root order; the empty interaction product at n=1 is 1."""
    n = len(roots)
    for k, zk in enumerate(roots):
        lhs = p**2 * _theta_ratio(zk + a, params) ** (2 * n)
        rhs = 1.0 + 0j
        for j, zj in enumerate(roots):
            if j == k:
                continue
            num_arg, den_arg = zk - zj - params.hbar, zk - zj + params.hbar
            if lattice_distance(den_arg, params) < _POLE_GUARD:
                raise PoleError(f"interaction pole at roots {k},{j}")
            rhs *= theta_eval(num_arg, params) / theta_eval(den_arg, params)
        yield lhs, rhs


def elliptic_bethe_residual(cfg: BetheConfig, params: EllipticParams) -> np.ndarray:
    """Componentwise defect lhs - rhs of the multiplicative system."""
    return np.array([lhs - rhs for lhs, rhs in _sides(cfg.roots, cfg.a, cfg.p, params)],
                    dtype=complex)


def _log_residual(roots: np.ndarray, a: complex, p: complex,
                  params: EllipticParams) -> np.ndarray:
    """Principal-branch logarithm of lhs/rhs per component."""
    out = []
    for lhs, rhs in _sides(roots, a, p, params):
        val = lhs / rhs
        if val == 0:
            raise PoleError("vanishing Bethe ratio")
        out.append(cmath.log(val))
    return np.array(out, dtype=complex)


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
            r = _log_residual(roots, a, p, params)
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
                jac[:, j] = (_log_residual(bumped, a, p, params) - r) / _FD_STEP
            step = np.linalg.solve(jac, r)
        except (PoleError, OverflowError, np.linalg.LinAlgError):
            return None
        lam = 1.0
        for _ in range(25):
            cand = roots - lam * step
            try:
                if float(np.linalg.norm(_log_residual(cand, a, p, params))) < nr:
                    roots = cand
                    break
            except (PoleError, OverflowError):
                pass
            lam *= 0.5
        else:
            return None
    return None


def elliptic_bethe_solve(
    n: int, a: complex, p: complex, params: EllipticParams,
    seeds=None, seed: int = 7, seed_count: int = 40,
) -> SolveReport:
    """Damped Newton runs from many seeds, deduplicated as unordered root
    multisets on the torus, each annotated with the sum-rule defect."""
    if seeds is None:
        def guard(*zs):
            for z in zs:
                yield from (z + a, z + a + params.hbar)
            yield from (zi - zj + params.hbar for i, zi in enumerate(zs)
                        for j, zj in enumerate(zs) if i != j)

        seeds = SamplePlan(seed, seed_count, 5e-2).draw(params, n, guard, "seeds")
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
        (round(w.real, 8), round(w.imag, 8))
        for w in sorted((lattice_reduce(z, params)[0] for z in c.roots),
                        key=lambda w: (w.real, w.imag))
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
