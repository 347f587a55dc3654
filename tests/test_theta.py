import cmath
import functools
import math
import operator
import random
import re
import warnings

import numpy as np
import pytest

from elliptic_baxter import theta
from elliptic_baxter.modules import build_asymptotic
from elliptic_baxter.theta import (
    POLE_TOL,
    SEARCH_RADIUS,
    EllipticParams,
    GenericityError,
    ParameterError,
    PoleError,
    SamplePlan,
    ThetaExpression,
    ThetaFactor,
    ThetaSum,
    ThetaTable,
    flat_terms,
    in_hbar_inv_lattice,
    int_plus_hbar_inv_lattice,
    lattice_distance,
    lattice_distance_array,
    lattice_reduce,
    _theta_series,
    table_passes,
    theta_eval,
    theta_eval_array,
)

from coproduct_oracle import symbolic_tensor
from gauss_oracle import gauss_decompose
from ladder_oracle import expression_bits, th
from module_oracle import expression_shift_z
from rmatrix_oracle import r_matrix_symbolic

P = EllipticParams(tau=1j, hbar=0.31)
ONE_SUM = ThetaSum(ThetaExpression())


def sums_table(pairs, size, params):
    """The ThetaTable of (slot, ThetaSum) pairs."""
    return ThetaTable(flat_terms(pairs), size, params)


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


def first_collision(tau, hbar, tol=1e-9, r=6):
    """The genericity scan as a scalar loop in the order m, n, k."""
    for m in range(-r, r + 1):
        for n in range(-r, r + 1):
            for k in range(-r, r + 1):
                if (m, n, k) != (0, 0, 0) and abs(m + n * tau - k * hbar) < tol:
                    return m, n, k
    return None


class TestGenericityScan:
    @pytest.mark.parametrize("tau, hbar", [(1j, 0.5), (1j, 0.25j), (0.5 + 1j, 0.25 + 0.5j)])
    def test_names_the_first_collision_of_the_loop(self, tau, hbar):
        m, n, k = first_collision(tau, hbar)
        msg = f"lattice collision m={m}, n={n}, k={k} for tau={tau}, hbar={hbar}"
        with pytest.raises(GenericityError, match=f"^{re.escape(msg)}$"):
            EllipticParams(tau=tau, hbar=hbar)

    def test_generic_parameters_pass(self):
        assert first_collision(1j, 0.31) is None
        EllipticParams(tau=1j, hbar=0.31)

    def test_a_collision_at_the_window_edge(self):
        # m + n*tau = k*hbar only at (m, n, k) = +-(1, 1, 6): |k| = 6 is the
        # edge of the window, and (-1, -1, -6) comes first in its loop
        tau = 0.3 + 1.1j
        hbar = (1 + tau) / 6
        assert first_collision(tau, hbar) == (-1, -1, -6)
        msg = f"lattice collision m=-1, n=-1, k=-6 for tau={tau}, hbar={hbar}"
        with pytest.raises(GenericityError, match=f"^{re.escape(msg)}$"):
            EllipticParams(tau=tau, hbar=hbar)
        # |k| = 7 lies outside the window
        assert first_collision(tau, (1 + tau) / 7) is None
        EllipticParams(tau=tau, hbar=(1 + tau) / 7)


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

    @pytest.mark.parametrize("tau", [1j, 0.4 + 0.6j, 0.2j, 0.05j])
    def test_series_is_independent_of_the_batch(self, tau):
        # elements retire on different passes, and inf, NaN and unconverged
        # (0.1+3j at tau = 0.05i) elements never do
        params = EllipticParams(tau=tau, hbar=0.31)
        rng = np.random.default_rng(11)
        z = np.concatenate([
            rng.uniform(-3, 3, 1000) + 1j * tau.imag * rng.uniform(-3, 3, 1000),
            [0.3 + 300j, complex("nan"), 0.0, complex("inf"), 0.1 + 3j]])
        alone = np.array([_theta_series(z[i:i + 1], params)[0] for i in range(z.size)])
        assert np.array_equal(_theta_series(z, params), alone, equal_nan=True)
        assert _theta_series(z[:0], params).shape == (0,)

    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.6j, 0.4 + 0.6j, 0.2j])
    def test_both_kernels_match_mpmath(self, tau):
        mpmath = pytest.importorskip("mpmath")
        params = EllipticParams(tau=tau, hbar=0.31)
        z = (np.linspace(-1.437, 1.563, 13)[:, None]
             + 1j * tau.imag * np.linspace(-2, 2, 9)).ravel()
        with mpmath.workdps(30):
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
            ref = np.array([complex(mpmath.jtheta(1, mpmath.pi * mpmath.mpc(c), q)) for c in z])
        scalar = np.array([theta_eval(c, params) for c in z])
        for got in (theta_eval_array(z, params), scalar):
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

    def test_lattice_distance_array_matches_scalar(self):
        c = np.array([0.0, 3 + 2 * P.tau, 0.5, 0.123 - 2.456j, -0.7 + 0.2j])
        ref = [lattice_distance(v, P) for v in c]
        assert np.allclose(lattice_distance_array(c, P), ref, rtol=0, atol=1e-15)


class TestUnconvergedSeries:
    """At Im(tau) = 0.05 and |Im z| = 3 the series has not met its
    stopping rule by |j| = 64: both kernels refuse the partial sum, where
    a point one unit of Im z lower still converges to full accuracy."""

    P = EllipticParams(tau=0.05j, hbar=0.31)
    FAR, NEAR = 0.1 + 3j, 0.3 + 2.2j

    def test_both_kernels_raise(self):
        with pytest.raises(OverflowError, match="did not converge"):
            theta_eval(self.FAR, self.P)
        with pytest.raises(OverflowError):
            theta_eval_array(np.array([self.NEAR, self.FAR]), self.P)
        assert np.isnan(_theta_series(np.array([self.FAR]), self.P)).all()

    def test_table_raises_and_masks(self):
        table = sums_table([(0, ThetaSum(ThetaExpression.theta(1, 0, 0.0)))], 1, self.P)
        zs, xs = [self.NEAR, self.FAR], [0.0, 0.0]
        with pytest.raises(OverflowError):
            table.at(zs, xs)
        vals, bad = table.masked_at(zs, xs)
        assert bad.tolist() == [False, True]
        assert vals[0, 0] == table.at(zs[:1], xs[:1])[0, 0]

    def test_converged_point_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        z = self.NEAR
        ref = complex(mpmath.jtheta(1, mpmath.pi * z, mpmath.exp(1j * mpmath.pi * self.P.tau)))
        for got in (theta_eval(z, self.P), theta_eval_array(np.array([z]), self.P)[0]):
            assert abs(got - ref) <= 1e-12 * abs(ref)


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
        assert int_plus_hbar_inv_lattice(2.0, 0, P) == 2
        assert int_plus_hbar_inv_lattice(2 + (1 + P.tau) / P.hbar, 0, P) == 2
        assert int_plus_hbar_inv_lattice(2.31 + 0.1j, 0, P) is None
        # a negative l is found only from a negative lowest l
        c = -3 + (1 + P.tau) / P.hbar
        assert int_plus_hbar_inv_lattice(c, 0, P) is None
        assert int_plus_hbar_inv_lattice(c, -SEARCH_RADIUS, P) == -3
        assert int_plus_hbar_inv_lattice(2.0, -SEARCH_RADIUS, P) == 2


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

    @staticmethod
    def chain(factors):
        """theta(f_1) * theta(f_2) * ..., one ``*`` at a time."""
        ones = [ThetaExpression() if p == 0 else th(cz, cx, shift, p)
                for cz, cx, shift, p in factors]
        return functools.reduce(operator.mul, ones, ThetaExpression())

    def test_product_is_the_chain_of_products(self):
        # a factor that cancels and comes back goes to the end
        fs = [(1, 0, 0.2, 1), (0, 1, 0.2, -1), (1, 0, 0.2, -1), (1, 1, 0, 1), (1, 0, 0.2, 2)]
        got = ThetaExpression.product(fs)
        assert [(f.cz, f.cx, f.power) for f in got.factors] == [(0, 1, -1), (1, 1, 1), (1, 0, 2)]
        # few keys, so that powers merge, cancel and come back
        rng = random.Random(5)
        pool = [(1, 0, 0.2), (0, 1, 0.2), (1, 1, -0.31), (0, 0, 0.45), (1, -1, 0.2), (1, 0, 0.2 + 1e-14)]
        for _ in range(300):
            fs = [(*rng.choice(pool), rng.choice((-2, -1, 0, 1, 2))) for _ in range(rng.randint(0, 8))]
            assert expression_bits(ThetaExpression.product(fs)) == expression_bits(self.chain(fs))

    def test_product_rejects_bad_coefficients(self):
        with pytest.raises(ValueError):
            ThetaExpression.product([(1, 0, 0.2, 1), (2, 0, 0.1, 1)])

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
            a = expression_shift_z(e, c).eval(z, x, P)
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

    def test_mul_inv_cancel(self):
        e = r_entry_expression()
        u = e * e.inv()
        assert u.canonical().factors == ()
        assert abs(u.scalar - 1) < 1e-14

    def test_product_merges_shifts_equal_to_12_decimals(self):
        # factors merge when their shifts round alike at 12 decimals, and
        # the merged factor keeps the shift of the first one
        s = 0.3 + 0.1j
        a = ThetaExpression.theta(1, 0, s)
        near = ThetaExpression.theta(1, 0, s + 1e-14, 2)
        apart = ThetaExpression.theta(1, 0, s + 1e-9)
        p = a * near * apart
        assert p.factors == (ThetaFactor(1, 0, s, 3), ThetaFactor(1, 0, s + 1e-9, 1))
        assert (near * a).factors == (ThetaFactor(1, 0, s + 1e-14, 3),)
        assert (a * a.inv()).factors == ()

    def test_product_matches_factorwise_merge(self):
        # the merge rule spelled out with one rounding per factor occurrence
        def reference(x, y):
            merged = {}
            for f in x.factors + y.factors:
                k = (f.cz, f.cx, round(f.shift.real, 12), round(f.shift.imag, 12))
                merged.setdefault(k, [f, 0])[1] += f.power
            return tuple(ThetaFactor(f.cz, f.cx, f.shift, p)
                         for f, p in merged.values() if p)

        e = r_entry_expression()
        h = P.hbar
        exprs = [e, e.inv(), e.shift_x(h), e.shift_x(-h).inv(), expression_shift_z(e, 0.2),
                 ThetaExpression.theta(0, 1, h * (1 + 1e-13)),
                 ThetaExpression.theta(1, 0, 0.5e-12, -1) * ThetaExpression.theta(0, 1, 0, 3)]
        for x in exprs:
            for y in exprs:
                got = x * y
                assert got.factors == reference(x, y)
                assert [f.shift for f in got.factors] == [f.shift for f in reference(x, y)]
                assert (got.scalar, got.exp_z, got.exp_x) == (
                    x.scalar * y.scalar, x.exp_z + y.exp_z, x.exp_x + y.exp_x)


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


def _table_cases(params):
    """The R-matrix table, a ladder module's four L tables and the Gauss
    diagonals of a tensor module (sums of up to four terms)."""
    ladder = build_asymptotic(1.7 + 0.3j, 0.4, 6, params)
    tensor = symbolic_tensor(build_asymptotic(1.1 + 0.2j, 0.0, 4, params),
                             build_asymptotic(0.7 - 0.4j, 0.3, 4, params), max_level=4)
    g = gauss_decompose(tensor)
    return {
        "r-matrix": [s for row in r_matrix_symbolic(params) for s in row],
        "ladder": [s for key in ("++", "+-", "-+", "--") for s in ladder.L[key].entries.values()],
        "gauss-diagonal": [op.entries[(i, i)] for op in (g.kplus, g.kminus)
                           for i in range(tensor.basis.size)],
    }


class TestThetaTable:
    @pytest.mark.parametrize("tau", [1j, 0.2j, 0.4 + 0.6j])
    def test_matches_thetasum_eval(self, tau):
        params = EllipticParams(tau=tau, hbar=0.31)
        pts = SamplePlan(seed=5, count=8, pole_margin=5e-2).pairs(params)
        for sums in _table_cases(params).values():
            got = sums_table(enumerate(sums), len(sums), params).at(*zip(*pts))
            assert got.shape == (len(pts), len(sums))
            for row, (z, x) in zip(got, pts):
                for v, s in zip(row, sums):
                    # relative to the term scale, so that cancellation
                    # inside a multi-term sum does not count
                    scale = sum(abs(t.eval(z, x, params)) for t in s.terms)
                    assert abs(v - s.eval(z, x, params)) <= 1e-13 * scale

    def test_slots_add_and_empty_slots_are_zero(self):
        a = ThetaSum(ThetaExpression.theta(1, 0, 0.2))
        b = ThetaSum(ThetaExpression.theta(0, 1, 0.1, power=-1))
        got = sums_table([(2, a), (0, b), (2, b)], 4, P).at([0.3 + 0.1j], [0.4 + 0.2j])[0]
        z, x = 0.3 + 0.1j, 0.4 + 0.2j
        assert got[1] == got[3] == 0
        assert got[0] == pytest.approx(b.eval(z, x, P), rel=1e-13)
        assert got[2] == pytest.approx((a + b).eval(z, x, P), rel=1e-13)
        assert sums_table([], 2, P).at([0.1, 0.2], [0.3, 0.4]).tolist() == [[0, 0], [0, 0]]

    def test_a_pass_item_is_at_on_dest(self):
        a = ThetaSum(ThetaExpression.theta(1, 0, 0.2))
        b = ThetaSum(ThetaExpression.theta(0, 1, 0.1, power=-1))
        table = sums_table([(2, a), (0, b), (2, b)], 4, P)
        zs, xs = [0.3 + 0.1j, 0.5 - 0.2j], [0.4 + 0.2j, 0.1 + 0.3j]
        assert table.dest.tolist() == [0, 2]
        assert np.array_equal(TestTablePasses.alone((table, zs, xs, True)),
                              table.at(zs, xs)[:, table.dest])
        assert TestTablePasses.alone((sums_table([], 2, P), zs, xs, True)).shape == (2, 0)

    def test_only_a_table_with_an_exponent_multiplies_by_it(self):
        e = ThetaExpression(scalar=2.0, exp_z=0.3j, exp_x=-0.2) * ThetaExpression.theta(1, 0, 0.2)
        plain = ThetaSum(ThetaExpression.theta(0, 1, 0.1))
        table = sums_table([(0, ThetaSum(e)), (1, plain)], 2, P)
        assert table.exponential and not sums_table([(1, plain)], 2, P).exponential
        z, x = 0.3 + 0.1j, 0.4 + 0.2j
        got = table.at([z], [x])[0]
        assert got[0] == pytest.approx(e.eval(z, x, P), rel=1e-13)
        assert got[1] == pytest.approx(plain.eval(z, x, P), rel=1e-13)

    @pytest.mark.parametrize("masked", [False, True])
    def test_a_pass_is_independent_of_its_batch(self, masked):
        # numpy reduces a product over factors along a one-point batch in a
        # loop that rounds otherwise than the elementwise multiply of a
        # larger batch
        ladder = build_asymptotic(1.7 + 0.3j, 0.4, 6, P)
        table = ThetaTable(ladder.terms, 4 * ladder.basis.size ** 2, P)
        pts = SamplePlan(seed=11, count=100, pole_margin=5e-2).pairs(P)
        for (z1, x1), (z2, x2) in zip(pts[::2], pts[1::2]):
            one = TestTablePasses.alone((table, [z1], [x1], not masked))
            two = TestTablePasses.alone((table, [z1, z2], [x1, x2], not masked))
            assert one[0].tobytes() == two[0].tobytes()

    POLE = ThetaSum(ThetaExpression.theta(1, 0, -0.3, power=-1))   # pole at z = 0.3
    GROWS = ThetaSum(ThetaExpression.theta(0, 1, 0.0))             # overflows at x = 300i
    ZS = [0.1 + 0.2j, 0.3, 0.5 + 0.1j, 0.7 + 0.3j, 0.2 + 0.4j]
    XS = [0.3 + 0.1j, 0.4 + 0.2j, 0.1 + 0.1j, 0.2 + 300j, 0.6 + 0.3j]

    def test_strict_raises_pole_and_overflow(self):
        with pytest.raises(PoleError):
            sums_table([(0, self.POLE)], 1, P).at(self.ZS[:3], self.XS[:3])
        with pytest.raises(OverflowError):
            theta_eval(self.XS[3], P)
        with pytest.raises(OverflowError):
            sums_table([(0, self.GROWS)], 1, P).at(self.ZS[3:], self.XS[3:])

    def test_masked_marks_exactly_the_bad_points(self):
        table = sums_table([(0, self.POLE), (1, self.GROWS), (2, ONE_SUM)], 3, P)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, bad = table.masked_at(self.ZS, self.XS)
        assert bad.tolist() == [False, True, False, True, False]
        # a bad factor spoils only the slots whose terms use it
        assert np.isnan(vals[1, 0]) and np.isfinite(vals[1, 1:]).all()
        assert np.isnan(vals[3, 1]) and np.isfinite(vals[3, [0, 2]]).all()
        good = ~bad
        assert np.array_equal(vals[good], table.at(np.array(self.ZS)[good], np.array(self.XS)[good]))


def raw_table_values(table, zs, xs, strict):
    """The values of ``ThetaTable.at`` (strict) or ``masked_at`` with
    every raw argument summed and pole-checked on its own, each by a
    ``_theta_series`` call of its own, in [factor, point] order: no
    argument is deduped."""
    zs, xs = np.asarray(zs, dtype=complex), np.asarray(xs, dtype=complex)
    args = table.cz[:, None] * zs + table.cx[:, None] * xs + table.shift[:, None]
    neg = table.power < 0
    near = np.array([lattice_distance_array(a, table.params) < POLE_TOL
                     for a in args[neg].ravel()], dtype=bool).reshape(args[neg].shape)
    vals = np.array([_theta_series(a, table.params) for a in args.ravel()],
                    dtype=complex).reshape(args.shape)
    if strict:
        if near.any():
            raise PoleError(f"theta factor with negative power at lattice point {args[neg][near][0]}")
        if not np.isfinite(vals).all():
            raise OverflowError("theta series is not finite or does not "
                                "converge at some argument")
    else:
        vals[neg] = np.where(near, np.nan, vals[neg])
        vals[~np.isfinite(vals)] = np.nan
    out = np.zeros((len(zs), table.size), dtype=complex)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = np.vstack([vals ** table.power[:, None], np.ones((1, len(zs)))])
        terms = vals[table.index].prod(axis=1) * table.scalar[:, None]
        terms *= np.exp(table.exp_z[:, None] * zs + table.exp_x[:, None] * xs)
        out[:, table.dest] = np.add.reduceat(terms, table.starts, axis=0).T
    return out


def bits(a):
    """The bit patterns of a complex array, NaN payloads and zero signs
    included."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestDeduplicatedArguments:
    """Each distinct theta argument is evaluated once; the values must be
    those of evaluating every raw argument, bit for bit."""

    def grid_points(self):
        # a transfer-style grid: x-only factors repeat across the sites
        h = P.hbar
        z0, x0 = 0.37 + 0.21j, 0.12 + 0.33j
        zs = [z0 + a - h for a in (0.41 + 0.12j, 0.27 - 0.23j, 0.54 + 0.13j) for _ in range(3)]
        xs = [x0 + s * h for _ in range(3) for s in (-1, 0, 1)]
        return zs, xs

    def test_module_table_matches_raw_arguments(self):
        X = build_asymptotic(1.3 + 0.2j, 0.0, 5, P)
        table = X._table(X.basis.size)
        zs, xs = self.grid_points()
        args = table.cz[:, None] * np.array(zs) + table.cx[:, None] * np.array(xs) + table.shift[:, None]
        assert np.unique(args).size < args.size / 2
        assert np.array_equal(table.at(zs, xs), raw_table_values(table, zs, xs, strict=True))
        vals, bad = table.masked_at(zs, xs)
        assert not bad.any()
        assert np.array_equal(vals, raw_table_values(table, zs, xs, strict=False))

    POLE = TestThetaTable.POLE
    GROWS = TestThetaTable.GROWS

    def test_nan_slots_match_raw_arguments(self):
        table = sums_table([(0, self.POLE), (1, self.GROWS), (2, ONE_SUM),
                            (3, self.POLE * self.GROWS)], 4, P)
        zs = [0.3, 0.3, 0.1 + 0.2j, 0.5 + 0.1j, 0.5 + 0.1j, 0.3]
        xs = [0.4 + 0.2j, 0.2 + 300j, 0.2 + 300j, 0.1 + 0.1j, 0.2 + 300j, 0.4 + 0.2j]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, bad = table.masked_at(zs, xs)
        ref = raw_table_values(table, zs, xs, strict=False)
        assert np.array_equal(vals, ref, equal_nan=True)
        assert np.isnan(vals).any() and bad.tolist() == [True, True, True, False, True, True]

    def test_strict_errors_match_raw_arguments(self):
        table = sums_table([(0, self.POLE), (1, self.GROWS)], 2, P)
        for zs, xs, err in (([0.1, 0.3, 0.3 + 1j], [0.2, 0.1, 0.2], PoleError),
                            ([0.1, 0.2, 0.1], [0.2 + 300j, 0.1, 0.2 + 300j], OverflowError)):
            with pytest.raises(err) as got:
                table.at(zs, xs)
            with pytest.raises(err) as ref:
                raw_table_values(table, zs, xs, strict=True)
            assert str(got.value) == str(ref.value)


class TestKindDedupe:
    """The table dedupes each kind's point parts and its shifts before the
    exact dedupe of their sums; the values must be those of evaluating
    every raw argument on its own, bit for bit."""

    th = staticmethod(ThetaExpression.theta)
    # every kind, powers -2, -1, 1 and 2, shifts repeated within and
    # across kinds and powers, a constant factor; z - x - 0.1 is on the
    # lattice at z = 0.3, x = 0.2
    SUMS = [
        (0, ThetaSum(th(1, 0, 0.2) * th(0, 1, 0.2, -2) * th(0, 0, 0.37, 2))),
        (1, ThetaSum((th(1, 1, 0.2) * th(1, 0, 0.2, -1) * th(0, 1, -0.31),
                      th(1, -1, 0.2, 2) * th(0, 0, 0.37)))),
        (2, ThetaSum(th(1, -1, -0.1, -1) * th(1, 1, 0.45, 2) * th(0, 1, 0.2))),
        (1, ThetaSum(th(1, 0, 0.45) * th(1, 1, 0.2, -2) * th(0, 0, 0.2, -1))),
        (3, ThetaSum(th(1, -1, 0.45) * th(1, 0, -0.31, 2) * th(0, 1, 0.45, -1))),
        (4, ONE_SUM),
    ]
    # a grid: each z with each x, so zs and xs repeat; the pole is at
    # (0.3, 0.2), the fourth point
    ZS = [0.1 + 0.2j] * 3 + [0.3] * 3 + [0.55 - 0.1j] * 3
    XS = [0.2, 0.4 + 0.15j, 0.75 - 0.2j] * 3

    def table(self):
        return sums_table(self.SUMS, 5, P)

    def test_the_table_has_what_it_should_test(self):
        t = self.table()
        assert {(int(a), int(b)) for a, b in zip(t.cz, t.cx)} == {(1, 0), (0, 1), (1, 1), (1, -1), (0, 0)}
        assert set(t.power.tolist()) == {-2, -1, 1, 2}
        assert len(set(t.shift.tolist())) < len(t.shift)
        assert len(set(self.ZS)) < len(self.ZS) and len(set(self.XS)) < len(self.XS)

    def test_masked_values_are_the_raw_arguments_bit_for_bit(self):
        t = self.table()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, bad = t.masked_at(self.ZS, self.XS)
        ref = raw_table_values(t, self.ZS, self.XS, strict=False)
        assert np.array_equal(bits(vals), bits(ref))
        assert bad.tolist() == [i == 3 for i in range(9)]
        assert np.isnan(vals[3, 2]) and np.isfinite(np.delete(vals[3], 2)).all()

    def test_values_are_the_raw_arguments_bit_for_bit(self):
        t = self.table()
        keep = [i for i in range(9) if i != 3]
        zs, xs = np.array(self.ZS)[keep], np.array(self.XS)[keep]
        assert np.array_equal(bits(t.at(zs, xs)), bits(raw_table_values(t, zs, xs, strict=True)))

    def test_pole_message_is_the_raw_arguments(self):
        t = self.table()
        with pytest.raises(PoleError) as got:
            t.at(self.ZS, self.XS)
        with pytest.raises(PoleError) as ref:
            raw_table_values(t, self.ZS, self.XS, strict=True)
        assert str(got.value) == str(ref.value)
        assert re.fullmatch(r"theta factor with negative power at lattice point \(.*\)", str(got.value))

    def test_constant_terms_and_no_points(self):
        t = sums_table([(0, ONE_SUM), (1, ThetaSum(ThetaExpression.const(2.5)))], 2, P)
        assert t.at([0.1, 0.2 + 0.3j], [0.4, 0.5]).tolist() == [[1, 2.5], [1, 2.5]]
        assert self.table().at([], []).shape == (0, 5)
        vals, bad = self.table().masked_at([], [])
        assert vals.shape == (0, 5) and bad.shape == (0,)


class TestTablePasses:
    """One theta pass serves many items (table, zs, xs, strict) of one
    parameter set: each item's values are the bits of its own one-item
    pass, which are ``at`` or ``masked_at`` on the table's ``dest``, and
    an item that raises alone raises the same error, with the same
    message."""

    P2 = EllipticParams(tau=0.4 + 0.6j, hbar=0.31)

    @staticmethod
    def alone(item):
        finish, = table_passes([item])
        return finish()

    @staticmethod
    def series_sizes(monkeypatch):
        """The sizes of the ``_theta_series`` calls of the passes to come."""
        sizes, series = [], theta._theta_series
        monkeypatch.setattr(theta, "_theta_series",
                            lambda z, params: sizes.append(z.size) or series(z, params))
        return sizes

    def items(self):
        # two ladders of one layout and other shifts, a cut of the first
        # (another layout on the same arguments), every kind and power
        # with the pole at the fourth point, a table with no terms, and,
        # last, a ladder of other parameters; the points overlap from item
        # to item
        ladder = build_asymptotic(1.7 + 0.3j, 0.4, 6, P)
        other = build_asymptotic(0.7 - 0.4j, 0.4, 6, P)
        n = ladder.basis.size
        pts = SamplePlan(seed=13, count=6, pole_margin=5e-2).pairs(P)
        zs, xs = (np.array(v) for v in zip(*pts))
        kinds = sums_table(TestKindDedupe.SUMS, 5, P)
        tables = [(ThetaTable(ladder.terms, 4 * n * n, P), zs, xs),
                  (ThetaTable(other.terms, 4 * n * n, P), zs[:4], xs[:4] + P.hbar),
                  (ladder._table(3), np.r_[zs[2:], zs[:2]], np.r_[xs[2:], xs[:2] + P.hbar]),
                  (kinds, TestKindDedupe.ZS, TestKindDedupe.XS),
                  (sums_table([], 3, P), zs[:2], xs[:2]),
                  (ThetaTable(build_asymptotic(1.7 + 0.3j, 0.4, 6, self.P2).terms, 4 * n * n,
                              self.P2), zs, xs)]
        # the pole of the kinds table is its fourth point: strict only without it
        keep = [i for i in range(9) if i != 3]
        return [(t, np.asarray(z)[keep], np.asarray(x)[keep], True)
                if t is kinds and strict else (t, z, x, strict)
                for t, z, x in tables for strict in (True, False)]

    def test_every_item_is_its_pass_alone(self, monkeypatch):
        items = self.items()
        sizes = self.series_sizes(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the ladder of other parameters takes a pass of its own
            got = [finish() for p in (items[:-2], items[-2:]) for finish in table_passes(p)]
            # one series call per pass, over fewer arguments than the
            # items' own passes sum
            assert len(sizes) == 2
            shared = sum(sizes)
            want = [self.alone(item) for item in items]
        assert shared < sum(sizes[2:])
        for item, a, b in zip(items, got, want):
            assert a.shape == b.shape
            assert np.array_equal(bits(a), bits(b))
        for (table, zs, xs, strict), a in zip(items, got):
            ref = table.at(zs, xs) if strict else table.masked_at(zs, xs)[0]
            assert np.array_equal(bits(a), bits(ref[:, table.dest]))
        assert got[4 * 2].shape == got[4 * 2 + 1].shape == (2, 0)

    def test_a_pass_of_two_parameter_sets_raises(self):
        items = self.items()
        assert items[0][0].params != items[-1][0].params
        with pytest.raises(ValueError):
            table_passes([items[0], items[-1]])

    def test_an_item_raises_as_it_does_alone(self):
        pole = sums_table([(0, TestThetaTable.POLE)], 1, P)
        grows = sums_table([(0, TestThetaTable.GROWS), (1, TestThetaTable.POLE)], 2, P)
        zs, xs = TestThetaTable.ZS, TestThetaTable.XS
        items = [(grows, zs, xs, False),        # NaN where alone, raises nothing
                 (pole, zs[:3], xs[:3], True),  # PoleError
                 (grows, zs[3:], xs[3:], True),  # OverflowError
                 (grows, zs, xs, True),          # both: PoleError first
                 (grows, zs[4:], xs[4:], True)]  # good, beside an overflow
        errors = [None, PoleError, OverflowError, PoleError, None]
        for finish, item, err in zip(table_passes(items), items, errors):
            if err is None:
                assert np.array_equal(bits(finish()), bits(self.alone(item)))
                continue
            with pytest.raises(err) as got:
                finish()
            with pytest.raises(err) as ref:
                self.alone(item)
            assert str(got.value) == str(ref.value)


class TestUniqueRows:
    """The hashed dedupe of the shared pass and of a trace's grid points:
    rows equal under ``==`` share a position, zeros of either sign
    included, and a hash collision may repeat a row but never joins two."""

    def rows(self):
        rng = np.random.default_rng(3)
        vals = rng.random(50) + 1j * rng.random(50)
        a = vals[rng.integers(0, 50, 400)]
        a[:4] = [complex(-0.0, 0.0), 0j, complex(0.0, -0.0), complex(-0.0, -0.0)]
        return np.stack([a, a[::-1]], axis=1)

    @pytest.mark.parametrize("kind", ["quicksort", "stable"])
    def test_equal_rows_share_a_position(self, kind):
        rows = self.rows()
        for a in (rows, rows[:, :1]):
            distinct, number = theta._unique_rows(a, kind)
            assert np.array_equal(distinct[number], a)
            assert len(distinct) == len(set(map(tuple, a.tolist())))

    def test_stable_lists_the_first_row_of_each_value(self):
        a = self.rows()[:, :1]
        distinct, number = theta._unique_rows(a, "stable")
        first = {}
        for i, v in enumerate(a[:, 0].tolist()):
            first.setdefault(v, i)
        for row, n in zip(a, number):
            assert bits(distinct[n]).tolist() == bits(a[first[row[0]]]).tolist()

    def test_a_hash_collision_repeats_but_never_joins(self, monkeypatch):
        # with the multiplier 0 a row hashes to the bits of its last part:
        # every value of one imaginary part collides
        monkeypatch.setattr(theta, "_MIX", np.uint64(0))
        a = np.array([1 + 2j, 3 + 2j, 1 + 2j, 5 + 7j, 3 + 2j, 1 + 2j])[:, None]
        distinct, number = theta._unique_rows(a)
        assert np.array_equal(distinct[number], a) and len(distinct) >= 3


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

    def test_cap_counts_rejected_draws_only(self):
        # 2500 accepted draws exceed the rejection cap; a longer plan
        # extends a shorter one of the same seed
        pts = SamplePlan(seed=7, count=2500, pole_margin=5e-2).points(P)
        assert len(pts) == 2500
        assert pts[:1000] == SamplePlan(seed=7, count=1000, pole_margin=5e-2).points(P)

    def test_guard_rejecting_every_draw_raises(self):
        with pytest.raises(RuntimeError, match="generic points"):
            SamplePlan(seed=7, count=1, pole_margin=5e-2).points(P, guard=lambda z: (0j,))
