import cmath

import numpy as np
import pytest

from elliptic_baxter import bethe
from elliptic_baxter.bethe import (
    BetheConfig,
    elliptic_bethe_residual,
    elliptic_bethe_solve,
    yangian_bethe_solve,
)
from elliptic_baxter.theta import EllipticParams, lattice_distance, theta_eval

import bethe_oracle

P = EllipticParams(tau=1j, hbar=0.31)
H = P.hbar
A = 0.41 + 0.12j
MODULUS = cmath.exp(0.4j)


def grid_scan_roots(a, p, params, grid=80):
    """Independent n=1 oracle: complex-Newton refinement of grid minima of
    theta(z+a) -+ (1/p) theta(z+a+h), deduplicated on the torus."""
    out = []
    for sgn in (1.0, -1.0):
        def g(z):
            return theta_eval(z + a, params) - sgn * (1 / p) * theta_eval(z + a + params.hbar, params)

        cells = sorted(
            ((abs(g(i / grid + (j / grid) * 1j)), i / grid + (j / grid) * 1j)
             for i in range(grid) for j in range(grid)),
            key=lambda t: t[0],
        )
        for _, z in cells[:25]:
            for _ in range(60):
                gv = g(z)
                dg = (g(z + 1e-7) - gv) / 1e-7
                z = z - gv / dg
            if abs(g(z)) < 1e-10 and all(lattice_distance(z - w, params) > 1e-6 for w in out):
                out.append(z)
    return out


class TestResidual:
    def test_n1_empty_product_convention(self):
        z1 = 0.23 + 0.17j
        cfg = BetheConfig(1, A, MODULUS, (z1,))
        ref = MODULUS**2 * (theta_eval(z1 + A, P) / theta_eval(z1 + A + H, P)) ** 2 - 1
        got = elliptic_bethe_residual(cfg, P)
        assert abs(got[0] - ref) < 1e-13 * (1 + abs(ref))

    def test_root_count_validated(self):
        with pytest.raises(ValueError):
            BetheConfig(2, A, MODULUS, (0.1 + 0.1j,))


class TestSolver:
    REPORT = elliptic_bethe_solve(1, A, MODULUS, P, seed_count=25)

    def test_solutions_have_tiny_residual(self):
        assert self.REPORT.solutions
        for c in self.REPORT.solutions:
            assert np.abs(elliptic_bethe_residual(c, P)).max() < 1e-10

    def test_matches_grid_scan_oracle(self):
        oracle = grid_scan_roots(A, MODULUS, P)
        assert oracle
        found = [c.roots[0] for c in self.REPORT.solutions]
        for z in oracle:
            assert min(lattice_distance(z - w, P) for w in found) < 1e-8

    def test_perturbed_root_negative_control(self):
        c = self.REPORT.solutions[0]
        bad = BetheConfig(1, A, MODULUS, (c.roots[0] + 0.1,))
        assert np.abs(elliptic_bethe_residual(bad, P)).max() > 1e-2

    def test_idempotence(self):
        c = self.REPORT.solutions[0]
        rerun = elliptic_bethe_solve(1, A, MODULUS, P, seeds=[c.roots])
        assert len(rerun.solutions) == 1
        assert abs(rerun.solutions[0].roots[0] - c.roots[0]) < 1e-12

    def test_unit_shift_gauge(self):
        # common integer shift leaves every residual magnitude unchanged
        c = self.REPORT.solutions[0]
        shifted = BetheConfig(1, A, MODULUS, tuple(z + 1 for z in c.roots))
        assert np.abs(elliptic_bethe_residual(shifted, P)).max() < 1e-10

    def test_default_seeds_are_the_guarded_draw(self, monkeypatch):
        # n = 1: each seed z = u + v*tau takes the next two uniform draws of
        # the seed's generator and keeps z + a and z + a + hbar off the lattice
        seen = []
        monkeypatch.setattr(bethe, "_newton",
                            lambda seeds, *args: seen.extend(seeds) or [None] * len(seeds))
        elliptic_bethe_solve(1, A, MODULUS, P, seed=3, seed_count=12)
        rng = np.random.default_rng(3)
        ref = []
        while len(ref) < 12:
            z = rng.random(1)[0] + rng.random(1)[0] * P.tau
            if min(lattice_distance(z + A, P), lattice_distance(z + A + H, P)) > 5e-2:
                ref.append((z,))
        assert seen == ref

    def test_two_roots(self):
        rep = elliptic_bethe_solve(2, A, MODULUS, P, seed_count=30)
        assert rep.solutions
        for c in rep.solutions:
            assert np.abs(elliptic_bethe_residual(c, P)).max() < 1e-10

    def test_conjugation_maps_to_inverse_modulus(self):
        # real sites, unimodular p: conjugated roots solve the system at 1/p
        rep = elliptic_bethe_solve(2, 0.41, MODULUS, P, seed_count=20)
        assert rep.solutions
        for c in rep.solutions[:4]:
            conj = BetheConfig(2, 0.41, 1 / MODULUS, tuple(z.conjugate() for z in c.roots))
            assert np.abs(elliptic_bethe_residual(conj, P)).max() < 1e-9


class TestBatchedNewton:
    """The Newton iteration run for all seeds at once against
    ``tests/bethe_oracle.py``, which iterates each seed on its own: on 200
    random seeds the same seeds converge and the same fail, to roots that
    agree within 1e-10 on the torus.  With the pole guard widened to 0.05
    many trial points of the line search fall inside it and are rejected
    by both."""

    CASES = {
        "default": (P, 1, 1e-8),
        "skew": (EllipticParams(0.4 + 0.6j, 0.23 + 0.05j), 1, 1e-8),
        "small-im-tau": (EllipticParams(0.2j, 0.31), 1, 1e-8),
        "two-roots": (P, 2, 1e-8),
        "wide-guard": (P, 1, 0.05),
        "two-roots-wide-guard": (P, 2, 0.05),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_same_outcome_seed_by_seed(self, case, monkeypatch):
        params, n, guard = self.CASES[case]
        monkeypatch.setattr(bethe, "_POLE_GUARD", guard)
        rng = np.random.default_rng(11)
        seeds = [tuple(complex(u + v * params.tau) for u, v in rng.random((n, 2)))
                 for _ in range(200)]
        got = bethe._newton(seeds, n, A, MODULUS, params)
        rejected = []
        ref = [bethe_oracle.newton(s, n, A, MODULUS, params, rejected) for s in seeds]
        assert [g is None for g in got] == [r is None for r in ref]
        assert sum(r is not None for r in ref) > 150
        for g, r in zip(got, ref):
            if r is not None:
                assert max(lattice_distance(x - y, params) for x, y in zip(g, r)) < 1e-10
        if guard > 1e-8:
            assert len(rejected) >= 4

    def test_a_singular_jacobian_fails_its_seed_alone(self):
        jac = np.array([[[0j]], [[2 + 0j]]])
        steps, ok = bethe._solve_each(jac, np.array([[1 + 0j], [4 + 0j]]))
        assert ok.tolist() == [False, True] and steps[1, 0] == 2

    def test_a_pole_at_the_seed_fails_it_alone(self):
        # z + a + hbar on the lattice: the seed's first residual is undefined
        seeds = [(-A - H,), (0.23 + 0.17j,)]
        got = bethe._newton(seeds, 1, A, MODULUS, P)
        assert got[0] is None and got[1] is not None
        assert bethe_oracle.newton(seeds[0], 1, A, MODULUS, P) is None


class TestYangianBethe:
    def test_p_zero_roots(self):
        r = yangian_bethe_solve(0.7, 1.9, 0.0)
        assert sorted(z.real for z in r.roots) == pytest.approx([-1.9, -0.7])
        assert not r.linear and not r.degenerate_discriminant

    def test_roots_satisfy_equation(self):
        r = yangian_bethe_solve(0.7, 1.9, 0.3)
        for z in r.roots:
            assert abs(0.3 * (z + 1.7) * (z + 2.9) - (z + 0.7) * (z + 1.9)) < 1e-12

    def test_p_one_linear(self):
        r = yangian_bethe_solve(0.7, 1.9, 1.0)
        assert r.linear and len(r.roots) == 1
        z = r.roots[0]
        assert abs((z + 1.7) * (z + 2.9) - (z + 0.7) * (z + 1.9)) < 1e-12

    def test_degenerate_discriminant_flag(self):
        # choose p so that (a1-a2)^2 + 4p/(1-p)^2 = 0
        a1, a2 = 0.7, 1.9
        k = -((a1 - a2) ** 2) / 4  # p/(1-p)^2 = k
        disc = (1 - 2 * k) ** 2 - 1  # from k p^2 - (2k+1) p + k = 0
        p = ((2 * k + 1) - cmath.sqrt((2 * k + 1) ** 2 - 4 * k * k)) / (2 * k)
        r = yangian_bethe_solve(a1, a2, p)
        assert r.degenerate_discriminant
        assert abs(r.roots[0] - r.roots[1]) < 1e-6
