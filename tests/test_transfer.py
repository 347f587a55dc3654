import cmath
import math
from fractions import Fraction
from itertools import permutations
from math import comb

import numpy as np
import pytest

from elliptic_baxter import dynamical, transfer
from elliptic_baxter.dynamical import (
    compose_module_ops,
    graded_trace,
    series_add,
    series_compose,
    series_divide,
    series_max_residual,
    series_scale,
)
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
    _GradedTrace,
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
from elliptic_baxter.yangian import yangian_q

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

    @pytest.mark.parametrize("L", range(2, 9, 2))
    def test_basis_order_matches_permutation_construction(self, L):
        # the construction the basis had before: every arrangement of the
        # signs, sorted lexicographically with +1 before -1
        perms = set(permutations((1,) * (L // 2) + (-1,) * (L // 2)))
        ref = sorted(perms, key=lambda s: tuple(0 if c == 1 else 1 for c in s))
        assert QuantumSpace._make_basis(L) == ref

    @pytest.mark.parametrize("L", [10, 12])
    def test_basis_size_is_central_binomial(self, L):
        basis = QuantumSpace._make_basis(L)
        assert len(basis) == len(set(basis)) == comb(L, L // 2)
        assert all(sum(s) == 0 and len(s) == L for s in basis)

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

    def test_batch_size_does_not_change_the_traces(self, monkeypatch):
        # one prefix per batched matmul against the default single batch,
        # on the complex entries and on the exact twin's packed ints
        space = QuantumSpace((A1, A2, A1 + 0.13, A2 - 0.11j), P)
        X = dynamical_tensor(build_asymptotic(1.1 + 0.2j, 0.0, 4, P),
                             build_asymptotic(0.6 - 0.3j, 0.3, 4, P), max_level=4)
        sites = (Fraction(2, 3), Fraction(-5, 7), Fraction(9, 4), Fraction(-1, 6))

        def both():
            t = transfer_matrix(X, space, 2)
            return ([t.coefficient(k, *PTS[0]) for k in range(3)],
                    [s.tables for s in yangian_q(sites, 2)])

        ell, exact = both()
        monkeypatch.setattr(dynamical, "_BATCH_ITEMS", 1)
        ell_1, exact_1 = both()
        assert all(np.array_equal(a, b) for a, b in zip(ell, ell_1))
        assert exact == exact_1

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


SPACE4 = QuantumSpace((A1, A2, A1 + 0.13, A2 - 0.11j), P)


class TestPointBatches:
    """Batched evaluation must give the per-point values bit for bit."""

    def test_tiled_trace_matches_per_point_contraction(self):
        ladder = build_asymptotic(1.3 + 0.2j, 0.0, 5, P)
        tensor, _ = oracle_module("tensor")
        zs = [z for z, _ in PTS] + [PTS[0][0]]
        xs = XS + [XS[0]]
        for X, order in ((ladder, 3), (tensor, 2)):
            for group in (None, 1, 2):
                trace = transfer_matrix(X, SPACE4, order).trace
                trace.group = group or trace.group
                first = trace.at(zs[:2], xs[:2])
                got = trace.at(zs, xs)
                for z, x, g in zip(zs, xs, got):
                    m = X.entry_matrices(z + trace.z_off, x + trace.x_off)
                    ref = graded_trace(m, trace.plan, trace.levels).reshape(g.shape)
                    assert np.array_equal(g, ref)
                assert np.array_equal(first, got[:2])

    @staticmethod
    def series_graph():
        # transfer and Q series of a 4-site chain through every series operation
        z0 = 0.37 + 0.21j
        t = transfer_matrix(build_asymptotic(1.3 + 0.2j, 0.0, 5, P), SPACE4, 2).series
        q = {j: q_operator(SPACE4, z0 + j * H, 2).series for j in (-1, 0, 1)}
        num = series_compose(q[1], q[-1], 2)
        quo = [series_divide(num, series_compose(q[j], q[j - 1], 2), 2) for j in (0, 1)]
        scaled = series_scale(quo[0], 0.7 - 0.2j)
        total = series_add(scaled, series_scale(quo[1], -0.4 + 1.1j), 2)
        return {"compose": num, "mixed": series_compose(t.bound_z(0.0), q[0], 2),
                "divide": quo[1], "scale": scaled, "add": total, "transfer": t}

    def test_series_operations_match_per_point_eval(self):
        pts = [(0.0, x) for x in XS] + [(0.0, XS[1])]
        batched = self.series_graph()
        for name, s in batched.items():
            for k in range(3):
                got = s.terms[k].at(*zip(*pts))
                for (z, x), g in zip(pts, got):
                    # a fresh graph per point: no memo is shared
                    alone = self.series_graph()[name].terms[k].eval(z, x)
                    assert np.array_equal(g, alone), (name, k)
                    assert g.flags.f_contiguous == alone.flags.f_contiguous

    def test_residual_matches_per_point_residuals(self):
        pts = [(0.0, x) for x in XS]
        g = self.series_graph()
        got = series_max_residual(g["add"], g["scale"], 2, pts)
        alone = []
        for p in pts:
            h = self.series_graph()
            alone.append(series_max_residual(h["add"], h["scale"], 2, [p]))
        assert got == max(alone) > 0

    def test_periodicity_matches_per_point_coefficients(self):
        a = 0.41 + 0.12j
        hom = QuantumSpace((a, a), P)
        order, z0 = 3, 0.37 + 0.21j
        sign, fac = -1.0, -cmath.exp(-1j * math.pi * (P.tau + 2 * z0 + 2 * a))
        ref = []
        for k in range(order + 1):
            for x in XS:
                m, m1, mt = (q_operator(hom, z, order).coefficient(k, 0.0, x)
                             for z in (z0, z0 + 1, z0 + P.tau))
                scale = max(1.0, np.linalg.norm(m))
                ref += [np.linalg.norm(m1 - sign * m) / scale, np.linalg.norm(mt - fac * m) / scale]
        assert periodicity_residual(hom, order, [z0], XS) == max(ref)


class LeafSpy:
    """Records every `_GradedTrace._contract` call as (trace number, keys),
    the traces numbered in the order a relation builds them; ``group``
    overrides the points per contraction."""

    def __init__(self, monkeypatch, group=None):
        self.reset()
        init, contract = _GradedTrace.__init__, _GradedTrace._contract

        def spy_init(trace, *args):
            init(trace, *args)
            trace.group = group or trace.group
            self.group[len(self.group)] = trace.group
            self.number[trace] = len(self.number)

        def spy_contract(trace, keys):
            self.calls.setdefault(self.number[trace], []).append(list(keys))
            return contract(trace, keys)

        monkeypatch.setattr(_GradedTrace, "__init__", spy_init)
        monkeypatch.setattr(_GradedTrace, "_contract", spy_contract)

    def reset(self):
        self.number, self.group, self.calls = {}, {}, {}

    def points(self):
        return {n: {k for keys in calls for k in keys} for n, calls in self.calls.items()}


def compared(s1, s2, order):
    """The coefficients `series_max_residual` compares, both sides."""
    d = dynamical._coset_offset(s1.alpha0, s2.alpha0)
    if d < 0:
        s1, s2, d = s2, s1, -d
    return [t for k in range(order + 1) for t in (s1.term(k), s2.term(k - d))]


def relation_cases(sites):
    """The series relations of the transfer and tq suites at order 4 and
    three points, each a call that builds its graphs afresh."""
    space = QuantumSpace(sites, P)
    order = 4
    K = order + space.L // 2 + 2
    X = build_asymptotic(1.3 + 0.2j, 0.0, K, P)
    Y = build_asymptotic(0.7 - 0.3j, 0.0, K, P)
    XY = dynamical_tensor(X, Y, max_level=K)
    pts = SamplePlan(7, 3, 5e-2).pairs(P, guard=lambda z, x: [x + k * H for k in range(-6, 7)])
    xs = [x for _, x in pts]
    return {
        "product": lambda: product_residual(X, Y, XY, space, order, pts),
        "interchange": lambda: interchange_transfer_residual(1.3 + 0.2j, 0.57, space, order, pts),
        "commutativity": lambda: commutativity_residual(
            X, Y, space, order, ZS[0], ZS[1], [(0.0, x) for x in xs]),
        "tq": lambda: tq_residual(1, space, order, ZS[:1], xs),
    }


class TestRelationRequests:
    """A relation contracts each trace in one request, cut only into the
    trace's groups, at the points its coefficients read one at a time."""

    @pytest.mark.parametrize("sites, group", [((A1, A2), None), ((A1, A2), 2),
                                              ((A1, A2, A1 + 0.13, A2 - 0.11j), None)])
    @pytest.mark.parametrize("name", ["product", "interchange", "commutativity", "tq"])
    def test_one_grouped_pass_per_trace(self, sites, group, name, monkeypatch):
        relation = relation_cases(sites)[name]
        spy = LeafSpy(monkeypatch, group)
        relation()
        batched = spy.points()
        assert sorted(batched) == sorted(spy.group)
        for n, calls in spy.calls.items():
            sizes = [len(keys) for keys in calls]
            assert sum(sizes) == len(batched[n])
            assert sizes[:-1] == [spy.group[n]] * (len(sizes) - 1)
            assert 0 < sizes[-1] <= spy.group[n]

        # every compared coefficient asked alone at one point, with no
        # request, on graphs built afresh for each ask
        asks = []

        def list_asks(s1, s2, order, points):
            asks.extend((i, p) for i in range(len(compared(s1, s2, order))) for p in points)
            return 0.0

        monkeypatch.setattr(transfer, "series_max_residual", list_asks)
        relation()
        alone: dict = {}
        for i, (z, x) in asks:
            def ask(s1, s2, order, points, i=i, z=z, x=x):
                compared(s1, s2, order)[i].at([z], [x])
                return 0.0

            monkeypatch.setattr(transfer, "series_max_residual", ask)
            spy.reset()
            relation()
            for n, keys in spy.points().items():
                alone.setdefault(n, set()).update(keys)
        assert batched == alone

    def test_periodicity_contracts_each_trace_once(self, monkeypatch):
        spy = LeafSpy(monkeypatch)
        periodicity_residual(QuantumSpace((A1, A1), P), 4, ZS[:1], XS[:3])
        want = {(0j, complex(x)) for x in XS[:3]}
        assert all(len(calls) == 1 for calls in spy.calls.values())
        assert spy.points() == {0: want, 1: want, 2: want}


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
