import cmath
import math
import warnings

import numpy as np
import pytest

from elliptic_baxter.theta import (
    EllipticParams,
    GenericityError,
    ParameterError,
    PoleError,
    SamplePlan,
    ThetaExpression,
    ThetaSum,
    in_hbar_inv_lattice,
    lattice_distance,
    lattice_distance_array,
    lattice_reduce,
    nonneg_int_plus_hbar_inv_lattice,
    theta_eval,
    theta_eval_array,
)

P = EllipticParams(tau=1j, hbar=0.31)


def brute_theta(z, tau):
    # independent oracle: direct sum over j in [-30, 30]
    s = 0j
    for j in range(-30, 31):
        h = j + 0.5
        s += cmath.exp(1j * math.pi * h * h * tau + 2j * math.pi * h * (z + 0.5))
    return -s


class TestThetaEval:
    def test_zero_at_origin(self):
        assert abs(theta_eval(0.0, P)) < 1e-13

    def test_zeros_on_lattice(self):
        assert abs(theta_eval(1.0, P)) < 1e-12
        assert abs(theta_eval(1j, P)) < 1e-12

    def test_quarter_point_frozen_value(self):
        # brute-force oracle value for theta(0.25; tau=i)
        expected = 0.6435897640385858 + 0j
        got = theta_eval(0.25, P)
        assert abs(got - expected) < 1e-12 * abs(expected)

    def test_matches_bruteforce_at_random_points(self):
        for z in SamplePlan(seed=11, count=25).points(P):
            ref = brute_theta(z, P.tau)
            assert abs(theta_eval(z, P) - ref) <= 1e-12 * (1 + abs(ref))

    def test_bad_tau_rejected(self):
        with pytest.raises(ParameterError):
            EllipticParams(tau=-1j, hbar=0.31)
        bad = object.__new__(EllipticParams)
        object.__setattr__(bad, "tau", 1.0 + 0j)
        with pytest.raises(ParameterError):
            theta_eval(0.3, bad)

    def test_genericity_scan_rejects_collision(self):
        with pytest.raises(GenericityError):
            EllipticParams(tau=1j, hbar=0.5)  # 2*hbar = 1 on the lattice


class TestThetaEvalArray:
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.6j, 0.2j])
    def test_matches_scalar_on_grid(self, tau):
        params = EllipticParams(tau=tau, hbar=0.31)
        g = np.linspace(-1.45, 1.55, 21) + 0.013
        z = (g[:, None] + g[None, :] * tau).ravel()
        got = theta_eval_array(z, params)
        ref = np.array([theta_eval(c, params) for c in z])
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

    def test_keeps_shape(self):
        z = np.array([[0.1, 0.2 + 0.3j], [0.4j, -0.7]])
        got = theta_eval_array(z, P)
        assert got.shape == (2, 2)
        assert got[1, 0] == pytest.approx(theta_eval(0.4j, P), rel=1e-13)

    def test_overflow_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                theta_eval_array(np.array([0.3, 0.3 + 300j]), P)
            with pytest.raises(OverflowError):
                theta_eval_array(np.array([0.3, complex("nan")]), P)
        with pytest.raises(OverflowError):
            theta_eval(0.3 + 300j, P)

    def test_lattice_distance_array_matches_scalar(self):
        c = np.array([0.0, 3 + 2 * P.tau, 0.5, 0.123 - 2.456j, -0.7 + 0.2j])
        ref = [lattice_distance(v, P) for v in c]
        assert np.allclose(lattice_distance_array(c, P), ref, rtol=0, atol=1e-15)


class TestQuasiPeriodicity:
    def test_period_one_and_tau_and_oddness(self):
        for z in SamplePlan(seed=7, count=100).points(P):
            t = theta_eval(z, P)
            scale = 1 + abs(t)
            assert abs(theta_eval(z + 1, P) + t) < 1e-10 * scale
            shifted = theta_eval(z + P.tau, P)
            factor = cmath.exp(-1j * math.pi * P.tau - 2j * math.pi * z)
            assert abs(shifted + factor * t) < 1e-10 * (1 + abs(shifted) + abs(factor * t))
            assert abs(theta_eval(-z, P) + t) < 1e-12 * scale


class TestLattice:
    def test_reduce_trivial(self):
        assert lattice_reduce(0, P) == (0, 0, 0)

    def test_reduce_lattice_point(self):
        c0, m, n = lattice_reduce(1 + P.tau, P)
        assert (abs(c0), m, n) == (0, 1, 1)

    def test_reduce_reconstructs(self):
        c = 2.7 + 1.3 * P.tau
        c0, m, n = lattice_reduce(c, P)
        assert 0 <= c0.real < 1 and 0 <= c0.imag < P.tau.imag
        assert abs(c0 + m + n * P.tau - c) < 1e-12

    def test_distance_and_membership(self):
        assert lattice_distance(3 + 2 * P.tau, P) < 1e-12
        assert lattice_distance(0.5, P) == pytest.approx(0.5)
        assert in_hbar_inv_lattice((2 + P.tau) / P.hbar, P)
        assert not in_hbar_inv_lattice(0.123 + 0.456j, P)

    def test_nonneg_int_plus_lattice(self):
        assert nonneg_int_plus_hbar_inv_lattice(2.0, P) == 2
        assert nonneg_int_plus_hbar_inv_lattice(2 + (1 + P.tau) / P.hbar, P) == 2
        assert nonneg_int_plus_hbar_inv_lattice(2.31 + 0.1j, P) is None


def r_entry_expression():
    # theta(z)theta(x+h)theta(x-h) / (theta(z+h)theta(x)^2)
    h = P.hbar
    e = ThetaExpression.theta(1, 0, 0)
    e = e * ThetaExpression.theta(0, 1, h)
    e = e * ThetaExpression.theta(0, 1, -h)
    e = e * ThetaExpression.theta(1, 0, h, power=-1)
    e = e * ThetaExpression.theta(0, 1, 0, power=-2)
    return e


class TestThetaExpression:
    def test_empty_is_one(self):
        assert ThetaExpression().eval(0.37, 0.21j, P) == 1

    def test_single_factor_matches_theta_eval(self):
        e = ThetaExpression.theta(1, 1, 0)
        assert abs(e.eval(0.2, 0.3, P) - theta_eval(0.5, P)) < 1e-14

    def test_r_entry_matches_factorwise_oracle(self):
        e = r_entry_expression()
        h = P.hbar
        for z, x in SamplePlan(seed=3, count=10, pole_margin=5e-2).pairs(
            P, guard=lambda z, x: (z, x, z + h, x + h, x - h)
        ):
            ref = (
                theta_eval(z, P)
                * theta_eval(x + h, P)
                * theta_eval(x - h, P)
                / (theta_eval(z + h, P) * theta_eval(x, P) ** 2)
            )
            assert abs(e.eval(z, x, P) - ref) <= 1e-12 * (1 + abs(ref))

    def test_pole_error(self):
        e = ThetaExpression.theta(1, 0, 0, power=-1)
        with pytest.raises(PoleError):
            e.eval(0.0, 0.3, P)

    def test_shift_z_is_exact_substitution(self):
        e = r_entry_expression()
        c = 0.17 + 0.05j
        for z, x in SamplePlan(seed=5, count=8, pole_margin=5e-2).pairs(
            P, guard=lambda z, x: (z + c, x, z + c + P.hbar)
        ):
            a = e.shift_z(c).eval(z, x, P)
            b = e.eval(z + c, x, P)
            assert abs(a - b) <= 1e-12 * (1 + abs(b))

    def test_shift_x_moves_exponential_prefactor(self):
        e = ThetaExpression(scalar=2.0, exp_x=0.3 + 0.1j, factors=())
        c = 0.4j
        a = e.shift_x(c).eval(0.1, 0.2, P)
        b = e.eval(0.1, 0.2 + c, P)
        assert abs(a - b) < 1e-14 * (1 + abs(b))

    def test_canonical_mod_one_preserves_value(self):
        e = ThetaExpression.theta(1, 0, 2.6) * ThetaExpression.theta(-1, 1, -1.2 + 0.1j)
        c = e.canonical()
        for f in c.factors:
            assert 0 <= f.shift.real < 1
            assert f.cz > 0 or (f.cz == 0 and f.cx >= 0)
        for z, x in SamplePlan(seed=9, count=20, pole_margin=1e-3).pairs(P):
            a, b = e.eval(z, x, P), c.eval(z, x, P)
            assert abs(a - b) <= 1e-10 * (1 + abs(b))

    def test_canonical_mod_tau_preserves_value(self):
        e = ThetaExpression.theta(1, -1, 0.3 + 2 * P.tau, power=2)
        c = e.canonical(mod_tau=True, params=P)
        assert all(0 <= f.shift.imag < P.tau.imag for f in c.factors)
        for z, x in SamplePlan(seed=13, count=10, pole_margin=1e-2).pairs(P):
            a, b = e.eval(z, x, P), c.eval(z, x, P)
            assert abs(a - b) <= 1e-9 * (1 + abs(b))

    def test_mul_inv_cancel(self):
        e = r_entry_expression()
        u = e * e.inv()
        assert u.canonical().factors == ()
        assert abs(u.scalar - 1) < 1e-14


class TestThetaSum:
    def test_ring_ops(self):
        a = ThetaSum(ThetaExpression.theta(1, 0, 0.2))
        b = ThetaSum(ThetaExpression.theta(0, 1, 0.1))
        z, x = 0.31 + 0.12j, 0.45 + 0.27j
        lhs = ((a + b) * a).eval(z, x, P)
        rhs = a.eval(z, x, P) ** 2 + b.eval(z, x, P) * a.eval(z, x, P)
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))
        assert not ThetaSum.zero()
        assert (a - a).eval(z, x, P) == pytest.approx(0, abs=1e-14)

    def test_inv_single_term_only(self):
        a = ThetaSum(ThetaExpression.theta(1, 0, 0.2))
        b = a + ThetaSum(ThetaExpression.theta(0, 1, 0.1))
        z, x = 0.31 + 0.12j, 0.45 + 0.27j
        assert abs(a.inv().eval(z, x, P) * a.eval(z, x, P) - 1) < 1e-12
        with pytest.raises(ValueError):
            b.inv()


class TestSamplePlan:
    def test_deterministic_and_margin(self):
        plan = SamplePlan(seed=42, count=30, pole_margin=1e-2)
        pts1 = plan.points(P)
        pts2 = plan.points(P)
        assert pts1 == pts2
        assert all(lattice_distance(z, P) >= 1e-2 for z in pts1)

    def test_guard_applies_to_derived_arguments(self):
        plan = SamplePlan(seed=1, count=10, pole_margin=5e-2)
        pts = plan.points(P, guard=lambda z: (z, z + 0.5))
        assert all(lattice_distance(z + 0.5, P) >= 5e-2 for z in pts)
