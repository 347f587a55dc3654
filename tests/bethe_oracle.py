"""Test oracle: the damped Newton iteration one seed at a time.

``bethe.elliptic_bethe_solve`` runs each Newton step for all live seeds
at once on the masked theta series.  Here each seed is iterated on its
own on the scalar ``theta_eval``, as the solver was first written, so
that the batched solver can be checked against it seed by seed.  The
pole guard is read from ``bethe`` at call time, so a test that widens it
widens it for both.
"""

import cmath

import numpy as np

from elliptic_baxter import bethe
from elliptic_baxter.theta import PoleError


def log_residual(roots, a, p, params) -> np.ndarray:
    """Principal-branch logarithm of lhs/rhs per component."""
    out = []
    for lhs, rhs in bethe._sides(roots, a, p, params):
        val = lhs / rhs
        if val == 0:
            raise PoleError("vanishing Bethe ratio")
        out.append(cmath.log(val))
    return np.array(out, dtype=complex)


def newton(seed, n, a, p, params, trials=None):
    """The converged roots, or None when the iteration fails.  A pole or
    an overflow of the theta series at the iterate fails the run; at a
    trial point of the line search it rejects the trial, and is counted
    in ``trials`` (a list) when one is given."""
    roots = np.array(seed, dtype=complex)
    for _ in range(bethe._NEWTON_MAX_ITER):
        try:
            r = log_residual(roots, a, p, params)
        except (PoleError, OverflowError):
            return None
        nr = float(np.linalg.norm(r))
        if nr < bethe._NEWTON_TOL:
            return roots
        jac = np.zeros((n, n), dtype=complex)
        try:
            for j in range(n):
                bumped = roots.copy()
                bumped[j] += bethe._FD_STEP
                jac[:, j] = (log_residual(bumped, a, p, params) - r) / bethe._FD_STEP
            step = np.linalg.solve(jac, r)
        except (PoleError, OverflowError, np.linalg.LinAlgError):
            return None
        lam = 1.0
        for _ in range(25):
            cand = roots - lam * step
            try:
                if float(np.linalg.norm(log_residual(cand, a, p, params))) < nr:
                    roots = cand
                    break
            except (PoleError, OverflowError):
                if trials is not None:
                    trials.append(cand)
            lam *= 0.5
        else:
            return None
    return None
