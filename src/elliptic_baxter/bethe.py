"""Bethe-equation residuals and solvers: the elliptic homogeneous-chain
system, a damped Newton iteration on the logarithmic residual, and the
exact two-site polynomial system."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .theta import (
    EllipticParams,
    PoleError,
    SamplePlan,
    _theta_series,
    lattice_distance,
    lattice_distance_array,
    lattice_reduce,
    theta_eval,
)
from .yangian import two_site_quadratic

_POLE_GUARD = 1e-8
# Newton: iteration cap, log-residual norm to stop at, finite-difference step
_NEWTON_MAX_ITER = 80
_NEWTON_TOL = 1e-12
_FD_STEP = 1e-7
# halvings of the Newton step the line search tries
_LINE_SEARCH = 25
# an accepted root set must meet the multiplicative system to this norm
_RESIDUAL_TOL = 1e-10
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

    def __post_init__(self):
        if len(self.roots) != self.n:
            raise ValueError("root count must equal n")


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


def _log_residuals(roots: np.ndarray, a: complex, p: complex,
                   params: EllipticParams) -> tuple[np.ndarray, np.ndarray]:
    """Principal-branch logarithm of lhs/rhs per component, for each root
    set of ``roots`` [..., n], the sides those of ``_sides`` on the masked
    theta series; and the mask of the root sets at which ``_sides`` would
    raise (a denominator argument within the pole guard of the lattice, a
    theta series that overflows or does not converge) or a ratio vanishes."""
    n = roots.shape[-1]
    h = params.hbar
    za = roots + a
    off = ~np.eye(n, dtype=bool)
    diff = (roots[..., :, None] - roots[..., None, :])[..., off]  # zk - zj, j != k in order
    args = np.concatenate([za, za + h, diff - h, diff + h], axis=-1)
    dens = np.concatenate([za + h, diff + h], axis=-1)
    thetas = _theta_series(args, params)
    bad = ((lattice_distance_array(dens, params) < _POLE_GUARD).any(axis=-1)
           | ~np.isfinite(thetas).all(axis=-1))
    t1, t1h, t2, t2h = np.split(thetas, [n, 2 * n, 2 * n + n * (n - 1)], axis=-1)
    with np.errstate(all="ignore"):
        lhs = p**2 * (t1 / t1h) ** (2 * n)
        ratios = (t2 / t2h).reshape(*roots.shape, n - 1)
        rhs = np.ones(roots.shape, dtype=complex)
        for j in range(n - 1):
            rhs *= ratios[..., j]
        val = lhs / rhs
        bad |= (val == 0).any(axis=-1)
        return np.log(val), bad


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


def _solve_each(jac: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Newton steps jac^-1 r of a batch, and the mask of the ones that
    are defined: a singular matrix leaves its own step undefined only."""
    try:
        return np.linalg.solve(jac, r[..., None])[..., 0], np.ones(len(r), dtype=bool)
    except np.linalg.LinAlgError:
        steps, ok = np.zeros_like(r), np.ones(len(r), dtype=bool)
        for i in range(len(r)):
            try:
                steps[i] = np.linalg.solve(jac[i], r[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        return steps, ok


def _newton(seeds, n, a, p, params) -> list:
    """Per seed, the converged roots, or None when the iteration fails.

    Each damped Newton step runs for all live seeds at once: the
    logarithmic residual, its finite-difference Jacobian and all
    ``_LINE_SEARCH`` halvings of the step are each one ``_log_residuals``
    pass.  A pole or an overflow of the theta series at a seed's iterate
    fails that seed; at a trial point of the line search it rejects the
    trial, and the first halving accepted is taken."""
    roots = np.array(seeds, dtype=complex).reshape(-1, n)
    out = [None] * len(roots)
    r, bad = _log_residuals(roots, a, p, params)
    live = np.flatnonzero(~bad)
    roots, r = roots[live], r[live]
    lams = 0.5 ** np.arange(_LINE_SEARCH)
    diag = np.arange(n)
    for _ in range(_NEWTON_MAX_ITER):
        nr = np.linalg.norm(r, axis=1)
        done = nr < _NEWTON_TOL
        for i, z in zip(live[done], roots[done]):
            out[i] = z
        live, roots, r, nr = live[~done], roots[~done], r[~done], nr[~done]
        if not live.size:
            break
        bumped = np.repeat(roots[:, None], n, axis=1)
        bumped[:, diag, diag] += _FD_STEP
        rb, bad = _log_residuals(bumped, a, p, params)
        jac = ((rb - r[:, None]) / _FD_STEP).transpose(0, 2, 1)
        step, ok = _solve_each(jac, r)
        ok &= ~bad.any(axis=1)
        live, roots, r, nr, step = live[ok], roots[ok], r[ok], nr[ok], step[ok]
        cand = roots[:, None] - lams[None, :, None] * step[:, None]
        rc, bad = _log_residuals(cand, a, p, params)
        accepted = ~bad & (np.linalg.norm(rc, axis=2) < nr[:, None])
        first, ok = accepted.argmax(axis=1), accepted.any(axis=1)
        at = np.arange(len(live))
        live, roots, r = live[ok], cand[at, first][ok], rc[at, first][ok]
    return out


def elliptic_bethe_solve(
    n: int, a: complex, p: complex, params: EllipticParams,
    seeds=None, seed: int = 7, seed_count: int = 40,
) -> SolveReport:
    """Damped Newton runs from many seeds, deduplicated as unordered root
    multisets on the torus."""
    if seeds is None:
        def guard(*zs):
            for z in zs:
                yield from (z + a, z + a + params.hbar)
            yield from (zi - zj + params.hbar for i, zi in enumerate(zs)
                        for j, zj in enumerate(zs) if i != j)

        seeds = SamplePlan(seed, seed_count, 5e-2).draw(params, n, guard, "seeds")
    solutions: list[BetheConfig] = []
    for roots in _newton(seeds, n, a, p, params):
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
        solutions.append(cfg)
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
