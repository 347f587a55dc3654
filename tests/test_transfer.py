import numpy as np
import pytest

from elliptic_baxter.dynamical import compose_module_ops
from elliptic_baxter.modules import (
    build_asymptotic,
    dynamical_tensor,
    one_dim_module,
    socle,
    spectral_shift,
)
from elliptic_baxter.theta import (
    EllipticParams,
    PoleError,
    SamplePlan,
    ThetaExpression,
    theta_eval,
)
from elliptic_baxter.transfer import (
    QuantumSpace,
    commutativity_residual,
    interchange_transfer_residual,
    periodicity_residual,
    product_residual,
    q_operator,
    qq_relation_residual,
    spectral_shift_residual,
    tq_residual,
    transfer_matrix,
)

P = EllipticParams(tau=1j, hbar=0.31)
H = P.hbar
A1, A2 = 0.41 + 0.12j, 0.27 - 0.23j
SPACE = QuantumSpace((A1, A2), P)
PTS = SamplePlan(seed=101, count=4, pole_margin=5e-2).pairs(P)
XS = [x for _, x in PTS]
ZS = [0.37 + 0.21j, -0.12 + 0.43j]


class TestQuantumSpace:
    def test_basis_and_dim(self):
        assert SPACE.basis == ((1, -1), (-1, 1))
        assert SPACE.dim == 2
        big = QuantumSpace((A1, A2, A1 + 0.1, A2 - 0.1j), P)
        assert big.dim == 6
        assert all(sum(s) == 0 for s in big.basis)

    def test_rejects_odd_length_and_lattice_sites(self):
        with pytest.raises(ValueError):
            QuantumSpace((A1,), P)
        with pytest.raises(ValueError):
            QuantumSpace((1.0 + 0j, A2), P)

    def test_homogeneous_detection_is_exact(self):
        hom = QuantumSpace((A1, A1), P)
        assert hom.homogeneous_site() == A1
        with pytest.raises(ValueError):
            SPACE.homogeneous_site()


def symbolic_transfer(X, space, order, points):
    """Oracle: compose the site operators symbolically, right to left, and
    take the level-block traces of the composite at each (z, x)."""
    h = X.params.hbar
    sign = {1: "+", -1: "-"}
    out = np.zeros((len(points), order + 1, space.dim, space.dim), dtype=complex)
    for row, istr in enumerate(space.basis):
        for col, jstr in enumerate(space.basis):
            comp = None
            for l in range(space.L - 1, -1, -1):
                op = X.L[sign[istr[l]] + sign[jstr[l]]].shift_z(space.sites[l] - h)
                comp = op if comp is None else compose_module_ops(op, comp)
            for k in range(order + 1):
                off = X.basis.offset(k)
                for i in range(X.basis.dims[k]):
                    d = comp.entries.get((off + i, off + i))
                    for p, (z, x) in enumerate(points):
                        if d:
                            out[p, k, row, col] += d.eval(z, x, X.params)
    return out


def oracle_module(name):
    """(module, order) of each kind the contraction must handle."""
    if name == "ladder":
        return build_asymptotic(1.3 + 0.2j, 0.4, 5, P), 3
    if name == "tensor":
        X = build_asymptotic(1.1 + 0.2j, 0.0, 4, P)
        Y = build_asymptotic(0.6 - 0.3j, 0.3, 4, P)
        return dynamical_tensor(X, Y, max_level=4), 2
    if name == "socle":
        return socle(build_asymptotic(2.0, 0.0, 3, P)), 2
    return one_dim_module(ThetaExpression.theta(1, 0, 0.4, 2), P), 0


class TestGradedTraceContraction:
    @pytest.mark.parametrize("sites", [(A1, A2), (A1, A2, A1 + 0.13, A2 - 0.11j)])
    @pytest.mark.parametrize("name", ["ladder", "tensor", "socle", "one-dim"])
    def test_matches_symbolic_composition(self, sites, name):
        X, order = oracle_module(name)
        space = QuantumSpace(sites, P)
        t = transfer_matrix(X, space, order)
        ref = symbolic_transfer(X, space, order, PTS[:2])
        for (z, x), r in zip(PTS[:2], ref):
            got = np.array([t.coefficient(k, z, x) for k in range(order + 1)])
            assert np.abs(got - r).max() <= 1e-13 * np.abs(r).max()

    def test_shift_z_offsets_the_spectral_argument(self):
        t = transfer_matrix(build_asymptotic(1.3 + 0.2j, 0.0, 6, P), SPACE, 3)
        z0, x0 = PTS[0]
        for k in range(4):
            assert np.array_equal(t.shift_z(0.25).coefficient(k, z0, x0),
                                  t.coefficient(k, z0 + 0.25, x0))

    def test_pole_on_lattice_raises(self):
        # the ++ entries of a ladder module carry theta(x)^-1; at site 0
        # the contraction evaluates them at x itself
        t = transfer_matrix(build_asymptotic(1.3 + 0.2j, 0.0, 4, P), SPACE, 0)
        with pytest.raises(PoleError):
            t.coefficient(0, 0.37 + 0.21j, 0.0)
        # a z-dependent pole: theta(z + a_0 - hbar + 0.4)^-1 vanishes at z0
        D = one_dim_module(ThetaExpression.theta(1, 0, 0.4, -1), P)
        z0 = H - A1 - 0.4
        with pytest.raises(PoleError):
            transfer_matrix(D, SPACE, 0).coefficient(0, z0, 0.3)


class TestTransferMatrix:
    def test_one_dim_module_gives_scalar_product(self):
        g = ThetaExpression.theta(1, 0, 0.4)
        tD = transfer_matrix(one_dim_module(g, P), SPACE, 0)
        z0, x0 = PTS[0]
        ref = g.eval(z0 + A1 - H, x0, P) * g.eval(z0 + A2 - H, x0, P)
        assert np.allclose(tD.coefficient(0, z0, x0), ref * np.eye(2), rtol=1e-12)

    def test_leading_coefficient_at_origin_is_site_product(self):
        t0 = transfer_matrix(build_asymptotic(0.0, 0.0, 8, P), SPACE, 6)
        ref = theta_eval(A1, P) * theta_eval(A2, P)
        assert np.allclose(t0.coefficient(0, 0.0, XS[0]), ref * np.eye(2), rtol=1e-12)

    def test_truncation_too_shallow_rejected(self):
        W = build_asymptotic(1.0 + 0.2j, 0.0, 4, P)
        with pytest.raises(ValueError):
            transfer_matrix(W, SPACE, 4)

    def test_spectral_shift_covariance(self):
        X = build_asymptotic(1.3 + 0.2j, 0.0, 8, P)
        res = spectral_shift_residual(X, spectral_shift(X, 0.57), 0.57, SPACE, 6, PTS)
        assert res < 1e-12

    def test_tensor_product_rule(self):
        X = build_asymptotic(1.3 + 0.2j, 0.0, 8, P)
        Y = build_asymptotic(0.7 - 0.3j, 0.0, 8, P)
        XY = dynamical_tensor(X, Y, max_level=8)
        assert product_residual(X, Y, XY, SPACE, 6, PTS) < 1e-8

    def test_commutativity(self):
        X = build_asymptotic(1.3 + 0.2j, 0.0, 8, P)
        Y = build_asymptotic(0.7 - 0.3j, 0.0, 8, P)
        res = commutativity_residual(X, Y, SPACE, 6, ZS[0], ZS[1], [(0.0, x) for x in XS])
        assert res < 1e-8


class TestQOperator:
    ZQ = 0.37 + 0.21j

    def test_l2_entries_match_closed_forms(self):
        # frozen oracle: the four entry series of the normalized Q matrix
        # on the two-string basis, checked coefficientwise to order 6
        zq = self.ZQ
        q = q_operator(SPACE, zq, 6)

        def entry_a(j, x):
            return (theta_eval(zq + A1 - j * H, P) * theta_eval(zq + x + (1 - j) * H, P)
                    * theta_eval(x - j * H, P) * theta_eval(A2 + j * H, P)
                    / (theta_eval(x, P) * theta_eval(zq + x + (1 - 2 * j) * H, P)))

        def entry_b(j, x):
            if j == 0:
                return 0.0
            return -(theta_eval(zq + A1 + x - j * H, P) * theta_eval(zq - (j - 1) * H, P)
                     * theta_eval(A2 - x + j * H, P) * theta_eval(j * H, P)
                     / (theta_eval(zq + x + (1 - 2 * j) * H, P) * theta_eval(x - H, P)))

        def entry_c(j, x):
            return -(theta_eval(A1 - x + j * H, P) * theta_eval((j + 1) * H, P)
                     * theta_eval(zq + A2 + x - j * H, P) * theta_eval(zq - j * H, P)
                     / (theta_eval(x, P) * theta_eval(zq + x - 2 * j * H, P)))

        def entry_d(j, x):
            return (theta_eval(A1 + j * H, P) * theta_eval(zq + A2 - j * H, P)
                    * theta_eval(zq + x - j * H, P) * theta_eval(x - (j + 1) * H, P)
                    / (theta_eval(x - H, P) * theta_eval(zq + x - 2 * j * H, P)))

        worst = 0.0
        for k in range(7):
            for x in XS:
                got = q.coefficient(k, 0.0, x)
                ref = np.array([
                    [entry_a(k, x), entry_b(k, x)],
                    [entry_c(k, x), entry_d(k, x)],
                ])
                scale = max(1.0, np.abs(ref).max())
                worst = max(worst, np.abs(got - ref).max() / scale)
        assert worst < 1e-9

    def test_leading_exponent(self):
        q = q_operator(SPACE, self.ZQ, 2)
        assert abs(q.alpha0 - self.ZQ / H) < 1e-12


class TestFunctionalRelations:
    def test_interchange_trivial(self):
        assert interchange_transfer_residual(1.3 + 0.2j, 0.0, SPACE, 4, PTS) < 1e-12

    def test_interchange_generic(self):
        assert interchange_transfer_residual(1.3 + 0.2j, 0.57, SPACE, 6, PTS) < 1e-8

    def test_interchange_negative_control(self):
        res = interchange_transfer_residual(
            1.3 + 0.2j, 0.57, SPACE, 4, PTS, flip_shift_sign=True
        )
        assert res > 1e-2

    def test_qq_relation_trivial(self):
        assert qq_relation_residual(0.0, SPACE, 4, ZS[:1], XS[:2]) < 1e-10

    def test_qq_relation_generic(self):
        assert qq_relation_residual(1.3 + 0.2j, SPACE, 6, ZS, XS) < 1e-8

    def test_qq_relation_mismatched_sites(self):
        bad = QuantumSpace((A1 + 0.1, A2), P)
        res = qq_relation_residual(1.3 + 0.2j, SPACE, 3, ZS[:1], XS[:2], rhs_sites=bad)
        assert res > 1e-2

    def test_tq_n0(self):
        assert tq_residual(0, SPACE, 6, ZS[:1], XS) < 1e-10

    def test_tq_n1(self):
        assert tq_residual(1, SPACE, 6, ZS, XS) < 1e-8

    def test_tq_n2(self):
        assert tq_residual(2, SPACE, 4, ZS[:1], XS) < 1e-7

    def test_periodicity_homogeneous(self):
        hom = QuantumSpace((A1, A1), P)
        assert periodicity_residual(hom, 6, ZS, XS) < 1e-7

    def test_l4_product_rule(self):
        big = QuantumSpace((A1, A2, A1 + 0.13, A2 - 0.11j), P)
        X = build_asymptotic(1.1 + 0.2j, 0.0, 5, P)
        Y = build_asymptotic(0.6 - 0.3j, 0.0, 5, P)
        XY = dynamical_tensor(X, Y, max_level=5)
        assert product_residual(X, Y, XY, big, 3, PTS[:2]) < 1e-8
