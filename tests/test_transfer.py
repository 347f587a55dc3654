import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import comb
from pathlib import Path

import numpy as np
import pytest

from elliptic_baxter import cli, dynamical, theta, transfer
from elliptic_baxter.dynamical import (
    TermMatrix,
    block_graded_trace,
    compose_module_ops,
    request,
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

from chain_oracle import graded_trace, spell
from coproduct_oracle import symbolic_module
from module_oracle import shift_z

P = EllipticParams(tau=1j, hbar=0.31)
H = P.hbar
A1, A2 = 0.41 + 0.12j, 0.27 - 0.23j
SPACE = QuantumSpace((A1, A2), P)
PTS = SamplePlan(seed=101, count=4, pole_margin=5e-2).pairs(P)
XS = [x for _, x in PTS]
ZS = [0.37 + 0.21j, -0.12 + 0.43j]


class TestQuantumSpace:
    def test_basis_and_dim(self):
        assert spelled(SPACE) == [(1, -1), (-1, 1)]
        assert SPACE.dim == 2
        big = QuantumSpace((A1, A2, A1 + 0.1, A2 - 0.1j), P)
        assert big.dim == 6
        assert all(sum(s) == 0 for s in spelled(big))

    @pytest.mark.parametrize("L", range(2, 9, 2))
    def test_basis_order_matches_permutation_construction(self, L):
        # the construction the basis had before: every arrangement of the
        # signs, sorted lexicographically with +1 before -1
        perms = set(permutations((1,) * (L // 2) + (-1,) * (L // 2)))
        ref = sorted(perms, key=lambda s: tuple(0 if c == 1 else 1 for c in s))
        assert [spell(code, L, (1, -1)) for code in QuantumSpace._make_basis(L)] == ref

    @pytest.mark.parametrize("L", [10, 12])
    def test_basis_size_is_central_binomial(self, L):
        basis = [spell(code, L, (1, -1)) for code in QuantumSpace._make_basis(L)]
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


def spelled(space):
    """The basis strings of a chain space as sign tuples."""
    return [spell(code, space.L, (1, -1)) for code in space.basis]


def symbolic_transfer(X, space, order, points):
    """Oracle: compose the site operators symbolically, right to left, and
    take the level-block traces of the composite at each (z, x)."""
    h = X.params.hbar
    sign = {1: "+", -1: "-"}
    out = np.zeros((len(points), order + 1, space.dim, space.dim), dtype=complex)
    strings = spelled(space)
    for row, istr in enumerate(strings):
        for col, jstr in enumerate(strings):
            comp = None
            for l in range(space.L - 1, -1, -1):
                op = shift_z(X.L[sign[istr[l]] + sign[jstr[l]]], space.sites[l] - h)
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
        ref = symbolic_transfer(symbolic_module(X), space, order, PTS[:2])
        for (z, x), r in zip(PTS[:2], ref):
            got = np.array([t.terms[k].eval(z, x) for k in range(order + 1)])
            assert np.abs(got - r).max() <= 1e-13 * np.abs(r).max()

    @pytest.mark.parametrize("L", [2, 4, 6])
    @pytest.mark.parametrize("name", ["ladder", "tensor", "socle", "one-dim"])
    def test_block_trace_matches_dense_contraction(self, name, L):
        # the level-block contraction on complex entries, against the
        # dense one, relative to the largest trace
        X, order = oracle_module(name)
        sites = (A1, A2, A1 + 0.13, A2 - 0.11j, A1 - 0.21j, A2 + 0.17)[:L]
        trace = _GradedTrace(X, QuantumSpace(sites, P), order)
        z, x = PTS[0]
        m = X.entry_matrices(z + trace.z_off, x + trace.x_off)
        ref = graded_trace(m, trace.plan, trace.levels[:order + 2])
        got = TermMatrix(trace, trace.shape[0]).at([z], [x])[0].reshape(ref.shape)
        assert np.abs(ref).max() > 0
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("name", ["ladder", "socle", "one-dim"])
    def test_two_site_trace_is_the_dense_contraction(self, name):
        # on one-dimensional levels a 2-site trace is one product per
        # level, and the block contraction rounds it as the dense one
        X, order = oracle_module(name)
        trace = _GradedTrace(X, SPACE, order)
        term = TermMatrix(trace, SPACE.dim)
        for z, x in PTS:
            m = X.entry_matrices(z + trace.z_off, x + trace.x_off)
            ref = graded_trace(m, trace.plan, trace.levels[:order + 2])
            assert np.abs(ref).max() > 0
            assert np.array_equal(term.at([z], [x])[0].reshape(ref.shape), ref)

    def test_batch_size_does_not_change_the_traces(self, monkeypatch):
        # one prefix per batch of the level-block contraction against the
        # default batches, on the complex entries and on the exact twin's
        space = QuantumSpace((A1, A2, A1 + 0.13, A2 - 0.11j), P)
        X = dynamical_tensor(build_asymptotic(1.1 + 0.2j, 0.0, 4, P),
                             build_asymptotic(0.6 - 0.3j, 0.3, 4, P), max_level=4)
        sites = (Fraction(2, 3), Fraction(-5, 7), Fraction(9, 4), Fraction(-1, 6))

        def both():
            t = transfer_matrix(X, space, 2)
            return ([t.terms[k].eval(*PTS[0]) for k in range(3)],
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
            assert np.array_equal(t.shift_z(0.25).terms[k].eval(z0, x0),
                                  t.terms[k].eval(z0 + 0.25, x0))

    def test_pole_on_lattice_raises(self):
        # the ++ entries of a ladder module carry theta(x)^-1; at site 0
        # the contraction evaluates them at x itself
        t = transfer_matrix(build_asymptotic(1.3 + 0.2j, 0.0, 4, P), SPACE, 0)
        with pytest.raises(PoleError):
            t.terms[0].eval(0.37 + 0.21j, 0.0)
        # a z-dependent pole: theta(z + a_0 - hbar + 0.4)^-1 vanishes at z0
        D = one_dim_module(ThetaExpression.theta(1, 0, 0.4, -1), P)
        z0 = H - A1 - 0.4
        with pytest.raises(PoleError):
            transfer_matrix(D, SPACE, 0).terms[0].eval(z0, 0.3)


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
                trace = _GradedTrace(X, SPACE4, order)
                trace.group = group or trace.group
                term = TermMatrix(trace, SPACE4.dim)
                first = term.at(zs[:2], xs[:2])
                got = term.at(zs, xs)
                for z, x, g in zip(zs, xs, got):
                    values = X.slot_values(z + trace.z_off, x + trace.x_off)
                    ref = block_graded_trace(values, X.nonzeros(), trace.levels, trace.plan,
                                             order + 1, [range(len(values))])
                    assert np.array_equal(g, ref.reshape(g.shape))
                assert np.array_equal(first, got[:2])

    @staticmethod
    def series_graph():
        # transfer and Q series of a 4-site chain through every series operation
        z0 = 0.37 + 0.21j
        t = transfer_matrix(build_asymptotic(1.3 + 0.2j, 0.0, 5, P), SPACE4, 2)
        q = {j: q_operator(SPACE4, z0 + j * H, 2) for j in (-1, 0, 1)}
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
                m, m1, mt = (q_operator(hom, z, order).terms[k].eval(0.0, x)
                             for z in (z0, z0 + 1, z0 + P.tau))
                scale = max(1.0, np.linalg.norm(m))
                ref += [np.linalg.norm(m1 - sign * m) / scale, np.linalg.norm(mt - fac * m) / scale]
        assert periodicity_residual(hom, order, [z0], XS) == max(ref)


class LeafSpy:
    """Records every `_GradedTrace._contract` call as (trace number, points),
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

        def spy_contract(trace, z, x, *finished):
            self.calls.setdefault(self.number[trace], []).append(list(zip(z.tolist(), x.tolist())))
            return contract(trace, z, x, *finished)

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

    def test_tq_makes_one_request_per_sample(self, monkeypatch):
        # t_V has order 1 against the relation's 4: its missing terms are
        # zero terms, bound once with the rest
        calls = []
        ask = dynamical.request
        monkeypatch.setattr(dynamical, "request", lambda asks: calls.append(1) or ask(asks))
        tq_residual(1, SPACE, 4, ZS, XS[:3])
        assert len(calls) == len(ZS)

    def test_periodicity_contracts_each_trace_once(self, monkeypatch):
        spy = LeafSpy(monkeypatch)
        periodicity_residual(QuantumSpace((A1, A1), P), 4, ZS[:1], XS[:3])
        want = {(0j, complex(x)) for x in XS[:3]}
        assert all(len(calls) == 1 for calls in spy.calls.values())
        assert spy.points() == {0: want, 1: want, 2: want}


class TestSharedPass:
    """A request's traces share one theta pass: every contraction reads
    the values it reads when each table item has a pass of its own, and
    each trace's values are those of the trace evaluated alone."""

    @pytest.mark.parametrize("group", [None, 2])
    @pytest.mark.parametrize("sites", [(A1, A2), (A1, A2, A1 + 0.13, A2 - 0.11j)])
    @pytest.mark.parametrize("name", ["product", "interchange", "commutativity", "tq",
                                      "periodicity"])
    def test_request_values_are_each_trace_alone(self, name, sites, group, monkeypatch):
        if name == "periodicity":
            space = QuantumSpace((A1,) * len(sites), P)

            def relation():
                return periodicity_residual(space, 4, ZS[:1], XS[:3])
        else:
            relation = relation_cases(sites)[name]
        LeafSpy(monkeypatch, group)
        outs, contract = [], _GradedTrace._contract

        def spy(trace, z, x, *finished):
            out = contract(trace, z, x, *finished)
            outs.append((trace, z, x, out))
            return out

        monkeypatch.setattr(_GradedTrace, "_contract", spy)
        sizes, series = [], theta._theta_series
        monkeypatch.setattr(theta, "_theta_series",
                            lambda z, params: sizes.append(z.size) or series(z, params))
        shared = relation()
        n, shared_sizes = len(outs), sizes[:]
        # every table item its own pass
        passes = dynamical.table_passes
        monkeypatch.setattr(dynamical, "table_passes",
                            lambda items: [f for item in items for f in passes([item])])
        sizes.clear()
        assert relation() == shared
        assert len(shared_sizes) < len(sizes) and sum(shared_sizes) < sum(sizes)
        assert len(outs) == 2 * n
        for (_, z1, x1, a), (_, z2, x2, b) in zip(outs[:n], outs[n:]):
            assert np.array_equal(z1, z2) and np.array_equal(x1, x2)
            assert np.array_equal(a, b)
        for trace, z, x, out in outs[:n]:
            assert np.array_equal(TermMatrix(trace, trace.shape[0]).at(z, x), out)


def test_transfer_job_does_not_import_numpy_ma(tmp_path):
    # the block trace of the product record reads the tensor's nonzeros;
    # np.unique without index outputs would import numpy.ma, a megabyte
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\nfrom elliptic_baxter import cli\n"
            f"rc = cli.main(['transfer', '--report', {str(tmp_path / 'r.json')!r}])\n"
            "print(rc, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.split()[-2:] == ["0", "False"]


class TestTransferMatrix:
    def test_one_dim_module_gives_scalar_product(self):
        g = ThetaExpression.theta(1, 0, 0.4)
        tD = transfer_matrix(one_dim_module(g, P), SPACE, 0)
        z0, x0 = PTS[0]
        ref = g.eval(z0 + A1 - H, x0, P) * g.eval(z0 + A2 - H, x0, P)
        assert np.allclose(tD.terms[0].eval(z0, x0), ref * np.eye(2), rtol=1e-12)

    def test_leading_coefficient_at_origin_is_site_product(self):
        t0 = transfer_matrix(build_asymptotic(0.0, 0.0, 8, P), SPACE, 6)
        ref = theta_eval(A1, P) * theta_eval(A2, P)
        assert np.allclose(t0.terms[0].eval(0.0, XS[0]), ref * np.eye(2), rtol=1e-12)

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
                got = q.terms[k].eval(0.0, x)
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

    def test_evaluation_builds_no_symbolic_entries(self):
        # the ladder enters the trace as flat terms: its L view stays unbuilt
        q = q_operator(SPACE, self.ZQ, 2)
        request([(t, np.zeros(len(XS)), np.array(XS)) for t in q.terms])
        (trace, _), = q.terms[0].inputs
        ladder = trace._fn.module
        assert ladder._tables
        assert "L" not in vars(ladder)


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


class TestDivisionFreeTQ:
    """Spin-1/2 TQ without the quotient: t_V(z0) Q(z0) against
    s0 Q(z0+hbar) + s1 Q(z0-hbar), where s_j is the product over the sites
    of theta(z0 + a + j*hbar), on the tq suite's sites, z0 and sample
    points.  The quotient record reads 1.5e-8 to 1.6e-5 on all but the
    default configuration; this form reads 1e-14 to 1e-13 on each."""

    CONFIGS = [("--tau", "0.2i", "--seed", s) for s in ("7", "1", "2", "3")] + [
        ("--order", "12"), ("--hbar", "0.5+0.9i", "--order", "2"), ()]

    @staticmethod
    def residuals(argv):
        """The form, then its controls: w1 dropped, and the Q shifts flipped."""
        cfg = cli.resolve_config(cli.build_parser().parse_args(["tq", *argv]))
        space, params, order = cli._space(cfg), cfg.params, cfg.order
        h, z0 = params.hbar, 0.37 + 0.21j
        pts = [(0.0, x) for _, x in cli._sample_pairs(cfg)]
        t_v = transfer_matrix(socle(build_asymptotic(1.0, 0.0, 2, params)), space, 1)
        q = {j: q_operator(space, z0 + j * h, order) for j in (-1, 0, 1)}
        s0, s1 = (math.prod(theta_eval(z0 + a + j * h, params) for a in space.sites)
                  for j in (0, 1))
        lhs = series_compose(t_v.bound_z(z0), q[0], order)

        def against(w0, w1, up, down):
            rhs = series_add(series_scale(q[up], w0), series_scale(q[down], w1), order)
            return series_max_residual(lhs, rhs, order, pts)

        return against(s0, s1, 1, -1), against(s0, 0.0, 1, -1), against(s0, s1, -1, 1)

    @pytest.mark.parametrize("argv", CONFIGS, ids=lambda a: " ".join(a) or "defaults")
    def test_form_holds_and_controls_fail(self, argv):
        form, no_w1, flipped = self.residuals(argv)
        assert form <= 1e-12
        assert no_w1 >= 0.1
        assert flipped >= 0.1
