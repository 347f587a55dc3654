import cmath
import functools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from elliptic_baxter import cli, dynamical, qchar
from elliptic_baxter.dynamical import ModuleOperator
from elliptic_baxter.modules import (
    build_asymptotic,
    dynamical_tensor,
    gauss_decompose,
    one_dim_module,
    socle,
)
from elliptic_baxter.qchar import (
    _MIN_VALID_SAMPLES,
    _Stack,
    _deviations,
    _X_REF,
    CategoryConditionError,
    QCharElement,
    classify_highest_weight,
    element_add,
    element_deviation,
    generalized_baxter,
    interchange_check,
    monomial_deviation,
    monomials,
    mul,
    qchar_asymptotic,
    qchar_of_module,
    qchar_one_dim,
    qchar_unit,
    _zgrid,
)
from elliptic_baxter.theta import (
    EllipticParams,
    PoleError,
    SamplePlan,
    ThetaExpression,
    ThetaSum,
    ThetaTable,
    flat_terms,
    theta_eval,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from jobs import PARAM_SETS  # noqa: E402

from coproduct_oracle import symbolic_module
import gauss_oracle
from ladder_oracle import expression_bits
from module_oracle import with_L
import qchar_oracle

P = EllipticParams(tau=1j, hbar=0.31)
H = P.hbar


def mono(ap, am, w):
    return monomials([(ap, am, w)], P)[0]


def grid_values(e):
    """The values of an x-free expression on the z grid, NaN at its poles:
    a numeric (keyless) monomial component."""
    return mono(e, ThetaExpression(), 0.0).values[0]


class TestWeightMonomial:
    def test_scalar_rescaling_is_identified(self):
        a = ThetaExpression.theta(1, 0, 0.2)
        b = ThetaExpression.theta(1, 0, 0.5)
        m1 = mono(a, b, 1.0)
        m2 = mono(3.0 * a, (1 / 3.0) * b, 1.0)
        assert monomial_deviation(m1, m2) < 1e-12

    def test_integer_shift_is_identified(self):
        # theta(z+1) = -theta(z): a unit-lattice shift is a scalar
        m1 = mono(ThetaExpression.theta(1, 0, 0.2), ThetaExpression.theta(1, 0, 0.5), 1.0)
        m2 = mono(ThetaExpression.theta(1, 0, 1.2), -ThetaExpression.theta(1, 0, 0.5), 1.0)
        assert monomial_deviation(m1, m2) < 1e-12

    def test_tau_shift_is_distinct(self):
        m1 = mono(ThetaExpression.theta(1, 0, 0.2), ThetaExpression.theta(1, 0, 0.5), 1.0)
        m2 = mono(ThetaExpression.theta(1, 0, 0.2 + P.tau), ThetaExpression.theta(1, 0, 0.5), 1.0)
        assert monomial_deviation(m1, m2) > 1e-2

    def test_different_weights_never_equal(self):
        a = ThetaExpression.theta(1, 0, 0.2)
        assert monomial_deviation(mono(a, a, 1.0), mono(a, a, 3.0)) == math.inf

    def test_numeric_fallback_matches_symbolic(self):
        a = ThetaExpression.theta(1, 0, 0.2)
        num = mono(grid_values(2.0 * a), grid_values(0.5 * a), 0.0)
        assert num.key is None and num.pair is None
        assert monomial_deviation(mono(a, a, 0.0), num) < 1e-10

    def test_components_are_theta_expressions_or_grid_values(self):
        with pytest.raises(TypeError):
            mono(lambda z: theta_eval(z, P), ThetaExpression(), 0.0)
        with pytest.raises(TypeError):
            mono(ThetaSum(ThetaExpression.theta(1, 0, 0.2)), ThetaExpression(), 0.0)
        with pytest.raises(ValueError):
            mono(ThetaExpression.theta(1, 1, 0.2), ThetaExpression(), 0.0)

    def test_product_multiplies_values_and_pairs(self):
        a, b = ThetaExpression.theta(1, 0, 0.2), ThetaExpression.theta(1, 0, 0.5, -1)
        c, d = ThetaExpression.theta(1, 0, -0.3), 2.0 * ThetaExpression.theta(1, 0, 0.2)
        got = mono(a, b, 1.0) * mono(c, d, -0.5)
        ref = mono(a * c, b * d, 0.5)
        assert got.key == ref.key and got.ok.all()
        assert abs(got.values - ref.values).max() < 1e-13 * abs(ref.values).max()
        # a numeric factor makes a numeric product
        assert (mono(a, b, 1.0) * mono(grid_values(c), d, -0.5)).key is None



class TestRatioTestSkips:
    """Grid points where a component has a pole are skipped, not raised;
    too few points left gives inf."""

    B = ThetaExpression.theta(1, 0, 0.5)

    @staticmethod
    def _poles_on_grid(count):
        """theta(z + 0.2) times theta(z - g)^-1 for the first ``count`` grid points g."""
        e = ThetaExpression.theta(1, 0, 0.2)
        for g in _zgrid(P)[:count]:
            e = e * ThetaExpression.theta(1, 0, -g, power=-1)
        return e

    def test_pole_on_one_grid_point_is_skipped(self):
        a = self._poles_on_grid(1)
        m1 = mono(a, self.B, 1.0)
        assert m1.ok.tolist() == [False] + [True] * (len(_zgrid(P)) - 1)
        numeric = mono(grid_values(2.0 * a), grid_values(0.5 * self.B), 1.0)
        # a product with a numeric factor carries the factor's NaN
        product = (mono(grid_values(2.0 * a), grid_values(ThetaExpression.const(0.5)), 0.5)
                   * mono(ThetaExpression(), self.B, 0.5))
        with pytest.raises(PoleError):
            a.eval(_zgrid(P)[0], 0.0, P)
        assert numeric.key is None and product.key is None
        assert numeric.ok.tolist() == product.ok.tolist() == m1.ok.tolist()
        assert monomial_deviation(m1, numeric) < 1e-12
        assert monomial_deviation(product, m1) < 1e-12

    def test_too_few_valid_points_is_inf(self):
        n = len(_zgrid(P))
        enough = self._poles_on_grid(n - _MIN_VALID_SAMPLES)
        too_few = self._poles_on_grid(n - _MIN_VALID_SAMPLES + 1)
        for a, finite in ((enough, True), (too_few, False)):
            m1 = mono(a, self.B, 1.0)
            m2 = mono(grid_values(2.0 * a), grid_values(0.5 * self.B), 1.0)
            assert (monomial_deviation(m1, m2) < 1e-12) is finite
            assert (monomial_deviation(m1, m2) == math.inf) is not finite


class TestOneEquivalenceRule:
    """Key equality and the ratio test are one rule, applied the same way
    by merging (add_monomial) and by matching (element_deviation)."""

    B = ThetaExpression.theta(1, 0, 0.5)
    # theta(z+0.2+tau) and its quasi-periodic rewrite
    # -exp(-i*pi*tau - 2*pi*i*0.2) * exp(-2*pi*i*z) * theta(z+0.2)
    SHIFTED = ThetaExpression.theta(1, 0, 0.2 + P.tau)
    REWRITTEN = ThetaExpression(
        scalar=-cmath.exp(-1j * math.pi * P.tau - 2j * math.pi * 0.2),
        exp_z=-2j * math.pi) * ThetaExpression.theta(1, 0, 0.2)
    OTHER = ThetaExpression.theta(1, 0, 0.3)

    def test_rewrite_has_own_key_but_same_class(self):
        m1, m2 = mono(self.SHIFTED, self.B, 1.0), mono(self.REWRITTEN, self.B, 1.0)
        assert m1.key is not None and m2.key is not None and m1.key != m2.key
        assert monomial_deviation(m1, m2) < 1e-9
        assert monomial_deviation(m1, mono(2.0 * self.SHIFTED, 0.5 * self.B, 1.0)) == 0.0

    def test_add_monomial_merges_into_one_entry(self):
        el = QCharElement(1.0, 0, P)
        el.add_monomial(0, mono(self.SHIFTED, self.B, 1.0))
        el.add_monomial(0, mono(2.0 * self.SHIFTED, 0.5 * self.B, 1.0))   # by key
        el.add_monomial(0, mono(self.REWRITTEN, self.B, 1.0))              # by ratio
        el.add_monomial(0, mono(grid_values(self.SHIFTED), grid_values(self.B), 1.0), 3)  # numeric
        assert [n for _, n in el.term_list(0)] == [6]
        el.add_monomial(0, mono(self.OTHER, self.B, 1.0))
        assert [n for _, n in el.term_list(0)] == [6, 1]

    def _element(self, terms):
        el = QCharElement(1.0, 0, P)
        el.terms[0] = _Stack.of(terms)
        return el

    def _pair(self, rewritten_mult):
        # one entry of A splits over a key-equal and a ratio-equal entry of B
        A = self._element([(mono(self.SHIFTED, self.B, 1.0), 3),
                           (mono(self.OTHER, self.B, 1.0), 1)])
        B = self._element([(mono(2.0 * self.OTHER, 0.5 * self.B, 1.0), 1),
                           (mono(2.0 * self.SHIFTED, 0.5 * self.B, 1.0), 2),
                           (mono(self.REWRITTEN, self.B, 1.0), rewritten_mult)])
        return A, B

    def test_element_deviation_matches_key_and_ratio_pairs(self):
        A, B = self._pair(1)
        assert element_deviation(A, B) < 1e-9
        assert element_deviation(B, A) < 1e-9

    def test_element_deviation_leftover_multiplicity_is_inf(self):
        A, B = self._pair(2)
        assert element_deviation(A, B) == math.inf
        assert element_deviation(B, A) == math.inf

    def test_one_grid_draw_per_parameter_set(self, monkeypatch):
        calls = []
        draw = SamplePlan.points

        def counted(plan, params, guard=None):
            calls.append(params)
            return draw(plan, params, guard)

        monkeypatch.setattr(SamplePlan, "points", counted)
        assert interchange_check(1.3 + 0.2j, 0.57, 8, P) < 1e-9
        assert len(calls) <= 1


class TestRing:
    A = qchar_asymptotic(1.2, 0.1, 8, P)
    B = qchar_asymptotic(0.5, 0.7, 8, P)
    C = qchar_asymptotic(-0.3, 0.2, 8, P)

    def test_unit(self):
        assert element_deviation(mul(self.A, qchar_unit(P, 8), 8), self.A) == 0.0

    def test_commutative(self):
        assert element_deviation(mul(self.A, self.B, 8), mul(self.B, self.A, 8)) == 0.0

    def test_associative(self):
        lhs = mul(mul(self.A, self.B, 8), self.C, 8)
        rhs = mul(self.A, mul(self.B, self.C, 8), 8)
        assert element_deviation(lhs, rhs) == 0.0

    def test_addition_aligns_cosets(self):
        lower = qchar_asymptotic(1.2 - 2, 0.1, 8, P)  # same coset, two steps down
        s = element_add(self.A, lower)
        assert abs(s.alpha0 - 1.2) < 1e-12
        assert s.depth == 8
        assert sum(n for _, n in s.term_list(1)) == 2
        with pytest.raises(ValueError):
            element_add(self.A, self.B)  # 1.2 vs 0.5: different coset

    def test_convolution_order_oracle(self):
        # frozen count: step k of a product of two ladder series carries
        # k+1 monomial classes when no accidental merges occur
        prod = mul(self.A, self.B, 6)
        for k in range(7):
            assert sum(n for _, n in prod.term_list(k)) == k + 1


class TestExtraction:
    def test_ladder_matches_closed_form(self):
        W = build_asymptotic(1.7 + 0.3j, 0.4 - 0.1j, 8, P)
        qM = qchar_of_module(W)
        qA = qchar_asymptotic(1.7 + 0.3j, 0.4 - 0.1j, W.safe_levels, P)
        assert element_deviation(qA, qM) < 1e-9

    def test_one_dim(self):
        g = ThetaExpression.theta(1, 0, 0.4)
        dev = element_deviation(qchar_of_module(one_dim_module(g, P)), qchar_one_dim(g, P))
        assert dev < 1e-12

    def test_socle_finite_sum(self):
        S = socle(build_asymptotic(2.0, 0.0, 5, P))
        q = qchar_of_module(S)
        assert q.depth == 2 and all(len(q.term_list(k)) == 1 for k in range(3))
        # the step-0 term is the highest weight
        lead = q.term_list(0)[0][0]
        (got_p, got_m), ok = lead.values, lead.ok
        assert ok.all()
        for z, gp, gm in zip(_zgrid(P), got_p, got_m):
            ref_p = theta_eval(z + 3 * H, P)
            assert abs(gp - ref_p) < 1e-12 * (1 + abs(ref_p))
            assert abs(gm - theta_eval(z + H, P)) < 1e-12

    def test_multiplicativity(self):
        X = build_asymptotic(1.1 + 0.2j, 0.0, 6, P)
        Y = build_asymptotic(0.7 - 0.4j, 0.3, 6, P)
        T = dynamical_tensor(X, Y, max_level=6)
        qT = qchar_of_module(T)
        qXY = mul(qchar_of_module(X), qchar_of_module(Y), qT.depth)
        assert element_deviation(qT, qXY) < 1e-9

    def test_run_qchar_multiplicities_small_im_tau(self):
        # the modules of the CLI qchar suite at tau = 0.2i, depth 8: every
        # monomial class is distinct, step k of the tensor has k + 1
        p2 = EllipticParams(tau=0.2j, hbar=0.31)
        X = build_asymptotic(1.1 + 0.2j, 0.0, 8, p2)
        Y = build_asymptotic(0.7 - 0.4j, 0.3, 8, p2)
        T = dynamical_tensor(X, Y, max_level=8)

        def mults(M):
            q = qchar_of_module(M)
            return [[n for _, n in q.term_list(k)] for k in range(q.depth + 1)]

        assert mults(X) == mults(Y) == [[1]] * 8
        assert mults(T) == [[1] * (k + 1) for k in range(8)]

    def test_x_dependent_diagonal_rejected(self):
        from elliptic_baxter.dynamical import ModuleOperator

        X = build_asymptotic(1.3, 0.0, 4, P)
        op = X.L["--"]
        twist = ThetaExpression.theta(0, 1, 0.4)  # x-dependent scalar factor
        broken = dict(X.L)
        broken["--"] = ModuleOperator(
            op.alpha, op.beta, op.source, op.target,
            {k: s * twist for k, s in op.entries.items()}, P,
        )
        bad = with_L(X, broken)
        with pytest.raises(CategoryConditionError):
            qchar_of_module(bad)


class TestInterchange:
    def test_mul_makes_no_table_pass(self, monkeypatch):
        # the factors of interchange_check at tau = 0.2i, depth 8: products
        # multiply grid values, so no theta table is evaluated
        p2 = EllipticParams(tau=0.2j, hbar=0.31)
        factors = [qchar_asymptotic(l, u, 8, p2)
                   for l, u in ((1.3 + 0.2j, 0.0), (0.0, 0.57), (1.3 + 0.2j - 0.57, 0.57), (0.57, 0.0))]
        passes = []
        evaluate = ThetaTable._eval

        def counted(table, zs, xs, strict):
            passes.append(len(zs))
            return evaluate(table, zs, xs, strict)

        monkeypatch.setattr(ThetaTable, "_eval", counted)
        lhs, rhs = mul(*factors[:2], 8), mul(*factors[2:], 8)
        assert passes == []
        assert element_deviation(lhs, rhs, 8) < 1e-9

    def test_trivial_at_zero_shift(self):
        assert interchange_check(1.3 + 0.2j, 0.0, 6, P) == 0.0

    def test_generic(self):
        assert interchange_check(1.3 + 0.2j, 0.57, 8, P) < 1e-9

    def test_negative_control_one_sided_perturbation(self):
        lhs = mul(qchar_asymptotic(1.3, 0.0, 4, P), qchar_asymptotic(0.0, 0.57, 4, P), 4)
        rhs = mul(qchar_asymptotic(1.3 - 0.57, 0.57 + 0.11, 4, P),
                  qchar_asymptotic(0.57, 0.0, 4, P), 4)
        assert element_deviation(lhs, rhs) > 1e-2


class TestClassification:
    def test_single_theta_ratio(self):
        m = mono(ThetaExpression.theta(1, 0, 2.3 * H), ThetaExpression.theta(1, 0, 0.3 * H), 2.0)
        data = classify_highest_weight(m, P)
        assert data is not None
        assert data.alphas == ((2.3 + 0j),) and data.betas == ((0.3 + 0j),)
        assert abs(data.lam - 1) < 1e-12

    def test_constant_pair(self):
        m = mono(ThetaExpression.const(2.0), ThetaExpression.const(2.0), 0.0)
        data = classify_highest_weight(m, P)
        assert data.alphas == () and data.betas == ()
        assert abs(data.lam - 2.0) < 1e-12

    def test_stray_exponential_rejected(self):
        m = mono(ThetaExpression(exp_z=1.0) * ThetaExpression.theta(1, 0, 0.3),
                 ThetaExpression.theta(1, 0, 0.3), 0.0)
        assert classify_highest_weight(m, P) is None

    def test_unbalanced_factors_rejected(self):
        m = mono(ThetaExpression.theta(1, 0, 0.3) * ThetaExpression.theta(1, 0, 0.1),
                 ThetaExpression.theta(1, 0, 0.5), 0.3 / H + 0.1 / H - 0.5 / H)
        assert classify_highest_weight(m, P) is None

    def test_weight_mismatch_rejected(self):
        m = mono(ThetaExpression.theta(1, 0, 2.3 * H), ThetaExpression.theta(1, 0, 0.3 * H), 1.0)
        assert classify_highest_weight(m, P) is None


class TestGeneralizedBaxter:
    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_cleared_denominator_identity(self, l):
        assert generalized_baxter(l, 6, P) < 1e-9

    def test_perturbed_spin_fails(self):
        # replacing the finite-spin character with a wrong one must break it
        from elliptic_baxter.qchar import qchar_asymptotic as qa
        lhs = mul(qa(2.0, 0.0, 4, P), qa(1.0, 0.0, 4, P), 4)
        rhs = mul(qa(2.0, 0.13, 4, P), qa(1.0, 0.0, 4, P), 4)
        assert element_deviation(lhs, rhs) > 1e-2


def _ladder_tensor(params, depth):
    X = build_asymptotic(1.1 + 0.2j, 0.0, depth, params)
    Y = build_asymptotic(0.7 - 0.4j, 0.3, depth, params)
    return dynamical_tensor(X, Y, max_level=depth)


class TestNumericGaussDiagonal:
    """qchar_of_module reads the Gauss diagonal from the L values, level by
    level (``modules.gauss_decompose``); the symbolic decomposition of
    ``gauss_oracle`` is its oracle."""

    P2 = EllipticParams(tau=0.2j, hbar=0.31)
    MODULES = {
        "ladder": lambda: build_asymptotic(1.7 + 0.3j, 0.4 - 0.1j, 8, P),
        "socle": lambda: socle(build_asymptotic(3.0, 0.0, 5, P)),
        "tensor": lambda: _ladder_tensor(P, 6),
        "tensor-small-im-tau": lambda: _ladder_tensor(TestNumericGaussDiagonal.P2, 8),
    }

    @pytest.mark.parametrize("name", MODULES)
    def test_kplus_diagonal_matches_symbolic(self, name):
        M = self.MODULES[name]()
        params, top = M.params, M.safe_levels
        size = M.basis.offset(top + 1)
        zs = _zgrid(params)
        xs = [_X_REF] * len(zs)
        L = M.entry_matrices(zs, xs)[:, :, :size, :size]
        got = np.concatenate([np.diagonal(k, axis1=1, axis2=2)
                              for _, _, k, _, _ in gauss_decompose(L, M.basis, top)], axis=1)
        diag = [gauss_oracle.gauss_decompose(symbolic_module(M)).kplus.entries[(i, i)]
                for i in range(size)]
        ref = ThetaTable(flat_terms(enumerate(diag)), size, params).at(zs, xs)
        # the cancelling diagonals at tau = 0.2i are compared on the scale
        # of their largest term
        terms = [(i, ThetaSum(t)) for i, s in enumerate(diag) for t in s.terms]
        term_vals = ThetaTable(flat_terms(enumerate(s for _, s in terms)), len(terms),
                               params).at(zs, xs)
        scale = np.zeros(ref.shape)
        for k, (i, _) in enumerate(terms):
            scale[:, i] = np.maximum(scale[:, i], np.abs(term_vals[:, k]))
        assert (np.abs(got - ref) <= 1e-13 * scale).all()

    def test_no_symbolic_gauss_decomposition(self, monkeypatch, tmp_path):
        # qchar_of_module and the gauss CLI suite both read the numeric
        # factorization: no binding in the package of the composition
        # calculus, nor the oracle's decomposition, is called
        def forbidden(*args, **kwargs):
            raise AssertionError("symbolic Gauss decomposition")

        symbolic = (dynamical.compose_module_ops, dynamical.invert_weightwise)
        for mod in [m for n, m in sys.modules.items() if n.startswith("elliptic_baxter")]:
            for name, value in list(vars(mod).items()):
                if any(value is f for f in symbolic):
                    monkeypatch.setattr(mod, name, forbidden)
        monkeypatch.setattr(gauss_oracle, "gauss_decompose", forbidden)
        T = _ladder_tensor(self.P2, 8)
        assert [len(qchar_of_module(T).term_list(k)) for k in range(8)] == list(range(1, 9))
        assert cli.main(["gauss", "--samples", "4", "--no-timestamp",
                         "--report", str(tmp_path / "gauss.json")]) == 0

    @staticmethod
    def _with_entries(M, key, update):
        L = dict(M.L)
        op = M.L[key]
        L[key] = ModuleOperator(op.alpha, op.beta, op.source, op.target,
                                update(dict(op.entries)), M.params)
        return with_L(M, L)

    @pytest.mark.parametrize("idx", [0, 2])
    def test_x_dependent_kplus_diagonal_rejected(self, idx):
        # level 0 has no correction term, level 2 is solved numerically
        twist = ThetaExpression.theta(0, 1, 0.4)
        X = build_asymptotic(1.3, 0.0, 4, P)

        def update(entries):
            entries[(idx, idx)] = entries[(idx, idx)] * twist
            return entries

        qchar_of_module(X)
        with pytest.raises(CategoryConditionError, match="x-dependent"):
            qchar_of_module(self._with_entries(X, "++", update))

    def test_non_triangular_kplus_block_rejected(self):
        T = symbolic_module(_ladder_tensor(P, 4))
        a, b = T.basis.offset(2) + 1, T.basis.offset(2)

        def update(entries):
            entries[(a, b)] = entries.get((a, b), ThetaSum.zero()) + ThetaSum(
                ThetaExpression.theta(1, 0, 0.3))
            return entries

        qchar_of_module(T)
        with pytest.raises(CategoryConditionError, match=rf"not triangular at entry \({a},{b}\)"):
            qchar_of_module(self._with_entries(T, "++", update))

    def test_pole_at_probe_point_raises(self):
        # L++ of level 1 carries theta(x + (l - 1) hbar)^-1, on its zero
        # lattice at the probe x = _X_REF
        X = build_asymptotic(1 - _X_REF / H, 0.0, 4, P)
        with pytest.raises(PoleError):
            qchar_of_module(X)

    def test_monomial_component_from_grid_values(self):
        a = ThetaExpression.theta(1, 0, 0.2)
        b = ThetaExpression.theta(1, 0, 0.5, -1)
        ref = mono(a, b, 1.0)
        got = mono(ref.values[0].copy(), b, 1.0)
        assert got.key is None and (got.values == ref.values).all()
        assert monomial_deviation(got, ref) < 1e-15
        with pytest.raises(ValueError):
            mono(ref.values[0][:3], b, 1.0)


class TestRingOracle:
    """The stacked ring against ``tests/qchar_oracle.py``, the ring one
    monomial at a time: on random elements every step must hold the same
    multiplicities, keys, weights and values, and every deviation the
    same float, bit for bit."""

    GRID = np.array(_zgrid(P))
    # theta(z + 0.2 + tau) is theta(z + 0.2) up to a scalar and exp(-2 pi i z)
    SHIFTS = (0.1, 0.2, 1.2, -0.2, 0.2 + P.tau, 0.37 + 0.05j, 0.0)
    WEIGHTS = (1.0, 1.0 + 5e-10, 1.0 + 3e-9, -1.0)
    # deviations on either side of both tolerances
    EPS = (0.0, 0.9e-9, 1.1e-9, 0.9e-6, 1.1e-6)

    def _expression(self, rng):
        e = ThetaExpression(scalar=complex(rng.choice([1.0, 2.0, -0.5, 1j])),
                            exp_z=-2j * math.pi if rng.random() < 0.2 else 0j)
        for _ in range(rng.integers(1, 4)):
            e = e * ThetaExpression.theta(int(rng.choice([1, -1])), 0,
                                          complex(rng.choice(self.SHIFTS)),
                                          int(rng.choice([1, -1])))
        if rng.random() < 0.15:  # a pole on a grid point: NaN there
            e = e * ThetaExpression.theta(1, 0, -self.GRID[rng.integers(len(self.GRID))], -1)
        return e

    def _leaf(self, rng):
        """(a+, a-, weight): symbolic, or a numeric component perturbed by a
        relative eps*w(z), w = 0 at the first grid point and |w| <= 1."""
        ap, am = self._expression(rng), self._expression(rng)
        w = complex(rng.choice(self.WEIGHTS))
        if rng.random() < 0.4:
            g = self.GRID - self.GRID[0]
            ap = grid_values(ap) * (1 + rng.choice(self.EPS) * g / np.abs(g).max())
        return ap, am, w

    def _twin(self, rng, leaf):
        """A leaf of the same class as ``leaf``, rescaled or perturbed."""
        ap, am, w = leaf
        c = complex(rng.choice([1.0, 3.0, -2.0]))
        g = self.GRID - self.GRID[0]
        vp = ap if isinstance(ap, np.ndarray) else grid_values(ap)
        if isinstance(ap, ThetaExpression) and rng.random() < 0.5:
            return c * ap, (1 / c) * am, w
        return vp * c * (1 + rng.choice(self.EPS) * g / np.abs(g).max()), (1 / c) * am, w

    @staticmethod
    def _both(alpha0, depth, adds):
        new, old = QCharElement(alpha0, depth, P), qchar_oracle.Element(alpha0, depth, P)
        for k, m, n in adds:
            new.add_monomial(k, m, n)
            old.add_monomial(k, qchar_oracle.Monomial.of(m), n)
        return new, old

    @staticmethod
    def _assert_same(new, old):
        assert (new.alpha0, new.depth) == (old.alpha0, old.depth)
        assert sorted(new.terms) == sorted(old.terms)
        for k in old.terms:
            got, ref = new.term_list(k), old.term_list(k)
            assert [n for _, n in got] == [n for _, n in ref]
            for (m, _), (r, _) in zip(got, ref):
                assert m.key == r.key and m.weight == r.weight
                assert m.values.tobytes() == r.values.tobytes()
                assert m.ok.tolist() == r.ok.tolist()

    def _elements(self, rng, depth=3):
        leaves = [self._leaf(rng) for _ in range(8)]
        leaves += [self._twin(rng, leaves[i]) for i in rng.integers(8, size=6)]
        monos = monomials(leaves, P)
        adds = [(int(rng.integers(depth + 1)), monos[i], int(rng.integers(1, 4)))
                for i in rng.integers(len(monos), size=14)]
        # the same terms, each replaced by a twin, in another order
        twins = monomials([self._twin(rng, leaves[monos.index(m)]) for _, m, _ in adds], P)
        shuffled = [(k, t, n) for (k, _, n), t in zip(adds, twins)]
        shuffled = [shuffled[i] for i in rng.permutation(len(shuffled))]
        return self._both(1.0, depth, adds), self._both(1.0, depth, shuffled)

    @pytest.mark.parametrize("seed", range(24))
    def test_random_elements(self, seed):
        rng = np.random.default_rng(seed)
        (a, a_ref), (b, b_ref) = self._elements(rng)
        (c, c_ref), _ = self._elements(rng)
        self._assert_same(a, a_ref)
        self._assert_same(b, b_ref)
        for x, y, x_ref, y_ref in ((a, b, a_ref, b_ref), (a, c, a_ref, c_ref)):
            assert element_deviation(x, y) == qchar_oracle.element_deviation(x_ref, y_ref)
            ab, ab_ref = mul(x, y, 3), qchar_oracle.mul(x_ref, y_ref, 3)
            self._assert_same(ab, ab_ref)
            ba, ba_ref = mul(y, x), qchar_oracle.mul(y_ref, x_ref)
            assert element_deviation(ab, ba) == qchar_oracle.element_deviation(ab_ref, ba_ref)
            s, s_ref = element_add(x, y), qchar_oracle.element_add(x_ref, y_ref)
            self._assert_same(s, s_ref)
            assert element_deviation(s, ab) == qchar_oracle.element_deviation(s_ref, ab_ref)

    def test_deviation_matrix_is_the_rule(self):
        rng = np.random.default_rng(99)
        leaves = [self._leaf(rng) for _ in range(20)]
        monos = monomials(leaves + [self._twin(rng, leaf) for leaf in leaves], P)
        X, Y = _Stack.of([(m, 1) for m in monos[:25]]), _Stack.of([(m, 1) for m in monos[10:]])
        for tol in (1e-9, 1e-6):
            pairs = [(i, j) for i in range(len(X)) for j in range(len(Y))]
            at = _deviations([(X, Y, pairs)], tol)[0]
            dev = np.array([at(i, j) for i, j in pairs]).reshape(len(X), len(Y))
            ref = np.array([[qchar_oracle.monomial_deviation(
                qchar_oracle.Monomial.of(a), qchar_oracle.Monomial.of(b))
                for b in monos[10:]] for a in monos[:25]])
            below = ref < tol
            assert ((dev < tol) == below).all()
            assert dev[below].tobytes() == ref[below].tobytes()
            assert below.sum() > 10 and (~below).sum() > 10
            assert np.allclose(dev, ref, rtol=1e-12, atol=0)

    def test_deviations_do_not_depend_on_the_pair_block(self, monkeypatch):
        # 750 pairs: blocks of 7 (a short last block), 512 and all at once
        rng = np.random.default_rng(99)
        leaves = [self._leaf(rng) for _ in range(20)]
        monos = monomials(leaves + [self._twin(rng, leaf) for leaf in leaves], P)
        X, Y = _Stack.of([(m, 1) for m in monos[:25]]), _Stack.of([(m, 1) for m in monos[10:]])
        pairs = [(i, j) for i in range(len(X)) for j in range(len(Y))]
        got = []
        for block in (7, 512, len(pairs)):
            monkeypatch.setattr(qchar, "_PAIR_BLOCK", block)
            at = _deviations([(X, Y, pairs[:400]), (X, Y, pairs[400:])], 1e-9)
            got.append(np.array([at[n >= 400](*p) for n, p in enumerate(pairs)]).tobytes())
        assert got[0] == got[1] == got[2]

    @pytest.mark.parametrize("depth", [8, 12])
    def test_interchange(self, depth):
        l, u = 1.3 + 0.2j, 0.57

        def oracle(l, u):
            el = qchar_oracle.Element(complex(l), depth, P)
            for j, m in enumerate(qchar_asymptotic(l, u, depth, P).term_list(k)[0][0]
                                  for k in range(depth + 1)):
                el.add_monomial(j, qchar_oracle.Monomial.of(m))
            return el

        lhs = mul(qchar_asymptotic(l, 0.0, depth, P), qchar_asymptotic(0.0, u, depth, P), depth)
        lhs_ref = qchar_oracle.mul(oracle(l, 0.0), oracle(0.0, u), depth)
        rhs_ref = qchar_oracle.mul(oracle(l - u, u), oracle(u, 0.0), depth)
        self._assert_same(lhs, lhs_ref)
        got = interchange_check(l, u, depth, P)
        assert got == qchar_oracle.element_deviation(lhs_ref, rhs_ref, depth)
        assert got < 1e-9

    def test_products_build_no_expression(self, monkeypatch):
        # product keys merge the factors' canonical forms; the pair of a
        # product is built from its factors' pairs on first read only
        A, B = (qchar_asymptotic(l, u, 8, P) for l, u in ((1.3 + 0.2j, 0.0), (0.0, 0.57)))
        calls = []
        for name in ("__mul__", "canonical"):
            f = vars(ThetaExpression)[name]
            monkeypatch.setattr(ThetaExpression, name,
                                lambda *a, f=f, name=name: calls.append(name) or f(*a))
        prod = mul(A, B, 8)
        assert calls == []
        m = prod.term_list(3)[1][0]
        pair = m.pair
        assert calls == ["__mul__", "__mul__"]
        ref = (qchar_oracle.Monomial.of(A.term_list(1)[0][0])
               * qchar_oracle.Monomial.of(B.term_list(2)[0][0]))
        assert m.key == ref.key
        assert [expression_bits(e) for e in pair] == [expression_bits(e) for e in ref.pair]

    S9 = 0.1234567895  # rounds to 0.123456789, and S9 + 2e-13 to 0.12345679
    EDGES = {
        # * merges theta(z + 1 - 1e-16) with theta(z + 1 + 3e-13): one
        # reduces to 0.999..., the other to 3e-13
        "below-integer": (((1 - 1e-16, 1),), ((1 + 3e-13, -1),)),
        "integer": (((1.0, 1),), ((1 - 3e-13, -1),)),
        # A's two factors cancel in its canonical form, so the product's
        # class keeps B's shift, where A * B keeps A's
        "rounding-boundary": (((S9, 1), (S9 + 1, -1)), ((S9 + 2e-13, 1),)),
    }

    @pytest.mark.parametrize("name", EDGES)
    def test_products_near_an_edge_merge_their_forms(self, name):
        # a product's key is the merge of its factors' forms, also where
        # it is not the key of the canonical product pair: the two then
        # compare through their grid values, well within _MERGE_TOL
        a, b = (ThetaExpression.product([(1, 0, s, p) for s, p in f] + [(1, 0, 0.3, 1)])
                for f in self.EDGES[name])
        c = ThetaExpression.theta(1, 0, 0.7)
        ma, mb = monomials([(a, c, 1.0), (b, c, 1.0)], P)
        prod = ma * mb
        assert prod.sym.forms == tuple(map(qchar._form_product, ma.sym.forms, mb.sym.forms))
        ref = qchar_oracle.Monomial.of(ma) * qchar_oracle.Monomial.of(mb)
        canon = monomials([(*(e.canonical() for e in prod.pair), 2.0)], P)[0]
        assert canon.key == ref.key != prod.key
        dev = monomial_deviation(prod, canon)
        assert 0 < dev < 1e-11 < qchar._MERGE_TOL
        el, el_canon = QCharElement(2.0, 0, P), QCharElement(2.0, 0, P)
        el.add_monomial(0, prod)
        el_canon.add_monomial(0, canon)
        assert [n for _, n in element_add(el, el_canon).term_list(0)] == [2]
        assert element_deviation(el, el_canon) == dev
        ref_el, ref_canon = (qchar_oracle.Element(2.0, 0, P) for _ in range(2))
        ref_el.add_monomial(0, ref)
        ref_canon.add_monomial(0, qchar_oracle.Monomial.of(canon))
        assert [n for _, n in qchar_oracle.element_add(ref_el, ref_canon).term_list(0)] == [2]
        assert qchar_oracle.element_deviation(ref_el, ref_canon) == 0.0


class TestQCharJobViews:
    def test_qchar_job_builds_no_symbolic_view(self, monkeypatch, tmp_path):
        from elliptic_baxter.modules import EllipticModule

        built = []
        view = EllipticModule.L

        def counted(module):
            built.append(module.label)
            return view.func(module)

        monkeypatch.setattr(EllipticModule, "L", functools.cached_property(counted))
        EllipticModule.L.__set_name__(EllipticModule, "L")
        assert cli.main(["qchar", "--no-timestamp", "--report", str(tmp_path / "q.json")]) == 0
        assert built == []

    @pytest.mark.parametrize("params", [p for _, p in PARAM_SETS],
                             ids=[name for name, _ in PARAM_SETS])
    def test_qchar_job_multiplies_no_expression(self, params, monkeypatch, tmp_path):
        # product keys merge flat forms, and the tensor's diagonal is read
        # off its entry tables: no expression is multiplied or x-shifted
        calls = []
        for name in ("__mul__", "__rmul__", "shift_x"):
            f = vars(ThetaExpression)[name]
            monkeypatch.setattr(ThetaExpression, name,
                                lambda *a, f=f, name=name: calls.append(name) or f(*a))
        argv = ["qchar", *params, "--no-timestamp", "--report", str(tmp_path / "q.json")]
        assert cli.main(argv) == 0
        assert calls == []
