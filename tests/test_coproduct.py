"""The numeric coproduct of ``dynamical_tensor`` against the symbolic
and the dense coproducts of ``coproduct_oracle``: entry tables, masked
passes, no dense factor table, and no symbolic products per entry pair,
the tensor's character included."""

import numpy as np
import pytest

from elliptic_baxter import dynamical
from elliptic_baxter.modules import (
    EllipticModule,
    HighestWeightData,
    TensorModule,
    build_asymptotic,
    construct_simple,
    dynamical_tensor,
    one_dim_module,
    spectral_shift,
)
from elliptic_baxter.qchar import _X_REF, _zgrid, qchar_of_module
from elliptic_baxter.theta import (
    EllipticParams,
    PoleError,
    SamplePlan,
    ThetaExpression,
    ThetaSum,
    ThetaTable,
)
from elliptic_baxter.transfer import QuantumSpace, product_residual

from coproduct_oracle import dense_tables, symbolic_module
from module_oracle import build_vector_rep

# the parameter sets of the suite jobs of the benchmark (perfbench/jobs.py)
PARAM_SETS = {
    "default": EllipticParams(tau=1j, hbar=0.31),
    "skew": EllipticParams(tau=0.4 + 0.6j, hbar=0.23 + 0.05j),
    "small-im-tau": EllipticParams(tau=0.2j, hbar=0.31),
}
P = PARAM_SETS["default"]


def ladder_tensor(params, depth):
    """The tensor module of the qchar suite."""
    X = build_asymptotic(1.1 + 0.2j, 0.0, depth, params)
    Y = build_asymptotic(0.7 - 0.4j, 0.3, depth, params)
    return dynamical_tensor(X, Y, max_level=depth)


def nested_tensor(params, K):
    """D (x) three ladders, folded as ``construct_simple`` folds them."""
    T = one_dim_module(ThetaExpression.const(1.3), params)
    for l, u in ((1.1 + 0.2j, 0.0), (0.7 - 0.4j, 0.3), (0.4 + 0.1j, 0.6)):
        T = dynamical_tensor(T, build_asymptotic(l, u, K, params), max_level=K)
    return T


SLOT_TENSORS = {"ladders": lambda: ladder_tensor(P, 6), "nested": lambda: nested_tensor(P, 4)}


def slot_points(masked):
    """Four sample points, and with ``masked`` two more at x = 0, a pole of
    the last factor's L++ above level 0."""
    zs, xs = np.array(SamplePlan(seed=3, count=4, pole_margin=5e-2).pairs(P)).T
    if masked:
        zs, xs = np.r_[zs, _zgrid(P)[:2]], np.r_[xs, 0.0, 0.0]
    return zs, xs


def other_tensors():
    V = build_vector_rep(P)
    data = HighestWeightData(2.0, (2.3, 0.85), (0.3, 0.55), 2.3)
    return {
        "vector-ladder": dynamical_tensor(V, build_asymptotic(1.7 + 0.3j, 0.0, 8, P), max_level=5),
        "vector-shifted-vector": dynamical_tensor(V, spectral_shift(V, 0.77 + 0.1j)),
        "shifted-vector-vector": dynamical_tensor(spectral_shift(V, 1.0), V),
        # D (x) L (x) L, a tensor with a tensor factor
        "nested": construct_simple(data, 4, P).module,
    }


def assert_tables_match(T, S, pts, top=None):
    """Every table of T within 1e-13 of that table's largest entry in S,
    at every point, and the same structural nonzeros."""
    zs, xs = np.array(pts).T
    got, ref = T.entry_matrices(zs, xs, top), S.entry_matrices(zs, xs, top)
    assert got.shape == ref.shape
    scale = np.abs(ref).max(axis=(2, 3), keepdims=True)
    assert (scale > 0).all()
    assert (np.abs(got - ref) <= 1e-13 * scale).all()
    assert np.array_equal(T.nonzeros(), S._table(S.basis.size).dest)


# the (K, top) of the suites' tensor gathers: the qchar suite's ladders at
# K = 6 cut to level 5, the transfer suite's at K = 7 and 8 cut to 7
SUITE_GATHERS = [(6, 5), (7, 7), (8, 7)]


def fresh_gather(T, top):
    """``dynamical.tensor_gather`` of T's factors, uncached."""
    bx, by = T.X.basis, T.Y.basis
    return dynamical.tensor_gather(bx.dims, by.dims, top, T.X.nonzeros(min(top, bx.levels)),
                                   T.Y.nonzeros(min(top, by.levels)))


def assert_fresh(T, top):
    got = T._gather(top)
    assert not any(a.flags.writeable for a in got)
    for a, b in zip(got, fresh_gather(T, top)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    return got


class TestSharedGather:
    """A tensor's gathers are shared across the process by structure: each
    equals a fresh ``tensor_gather``, is read-only, and serves every
    tensor of its structure, whatever its spins, shifts and parameters."""

    @pytest.mark.parametrize("K, top", SUITE_GATHERS)
    def test_ladder_pairs_of_one_structure_share_one_gather(self, K, top):
        spins = [((1.1 + 0.2j, 0.0), (0.7 - 0.4j, 0.3)), ((2.0, 0.5), (-0.3 + 0.1j, -1.2)),
                 ((0.4 + 0.1j, 0.6), (1.9 - 0.2j, 0.0))]
        tensors = [dynamical_tensor(build_asymptotic(*a, K, params),
                                    build_asymptotic(*b, K, params), max_level=K)
                   for params in PARAM_SETS.values() for a, b in spins]
        first = assert_fresh(tensors[0], top)
        for T in tensors[1:]:
            assert all(a is b for a, b in zip(assert_fresh(T, top), first))

    def test_unequal_and_nested_factors_at_every_top(self):
        X = build_asymptotic(1.1 + 0.2j, 0.0, 4, P)
        Y = build_asymptotic(0.7 - 0.4j, 0.3, 6, P)
        for T in (dynamical_tensor(X, Y), dynamical_tensor(Y, X), nested_tensor(P, 4)):
            for top in range(T.basis.levels + 1):
                assert_fresh(T, top)

    def test_factors_of_one_shape_and_other_nonzeros_do_not_share(self):
        V = build_vector_rep(P)
        # V without its +- entries: the same level dimensions, fewer nonzeros
        W = EllipticModule(P, V.basis, [t for t in V.terms if t[0] // 4 != 1], spin=1.0)
        a, b = dynamical_tensor(V, V), dynamical_tensor(W, V)
        assert a.X.basis.dims == b.X.basis.dims
        assert len(assert_fresh(a, 2)[1][0]) > len(assert_fresh(b, 2)[1][0])


class TestEntryTables:
    @pytest.mark.parametrize("depth", range(2, 11))
    @pytest.mark.parametrize("name", PARAM_SETS)
    def test_ladder_tensor_matches_oracle(self, name, depth):
        params = PARAM_SETS[name]
        T = ladder_tensor(params, depth)
        S = symbolic_module(T)
        pts = SamplePlan(seed=depth, count=4, pole_margin=5e-2).pairs(params)
        assert_tables_match(T, S, pts)
        assert_tables_match(T, S, pts, T.safe_levels)

    @pytest.mark.parametrize("name", other_tensors())
    def test_other_tensors_match_oracle(self, name):
        T = other_tensors()[name]
        pts = SamplePlan(seed=3, count=4, pole_margin=5e-2).pairs(P)
        assert_tables_match(T, symbolic_module(T), pts)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("name", SLOT_TENSORS)
    def test_entries_are_the_dense_coproduct_bit_for_bit(self, name, masked):
        T = SLOT_TENSORS[name]()
        zs, xs = slot_points(masked)
        for top in [None, *range(T.basis.levels + 1)]:
            ref, slots = dense_tables(T, zs, xs, top, masked)
            assert T.nonzeros(top).tolist() == slots
            assert T.slot_values(zs, xs, top, masked).tobytes() == \
                ref.reshape(len(zs), -1)[:, slots].tobytes()
            got = T.entry_matrices(zs, xs, top, masked)
            assert got.tobytes() == ref.tobytes()
            assert T.entry_matrices([], [], top, masked).shape == (0, *ref.shape[1:])
            # the probes at x = 0 put NaN in the entries above level 0 only
            assert np.isnan(got).any() == (masked and top != 0)
            assert np.isfinite(got[:4]).all()

    @pytest.mark.parametrize("name", SLOT_TENSORS)
    def test_coproduct_reads_no_dense_table(self, name, monkeypatch):
        T = SLOT_TENSORS[name]()
        zs, xs = slot_points(masked=True)
        want = [T.entry_matrices(zs, xs, masked=True), T.slot_values(zs[:4], xs[:4])]
        dense = T.entry_matrices

        def forbidden(*args, **kwargs):
            raise AssertionError("dense table")

        for cls, attr in ((EllipticModule, "entry_matrices"), (TensorModule, "entry_matrices"),
                          (ThetaTable, "at"), (ThetaTable, "masked_at")):
            monkeypatch.setattr(cls, attr, forbidden)
        got = [dense(zs, xs, masked=True), T.slot_values(zs[:4], xs[:4])]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        T.slot_values(zs, xs, T.basis.levels - 1, masked=True)


class TestMaskedPass:
    """Probes on the factors' poles.  Y's L++ carries theta(x)^-1 above
    level 0.  X's L++ at level j carries theta(x + (l - 2j + 1)*hbar)^-1
    and is read at x + hbar*(weight of the target Y level jy), so that
    pole lies at x_c = -hbar*(alpha_Y + l + 1) + 2*hbar*c, c = j + jy, in
    the entries of total level c and no other."""

    T = ladder_tensor(P, 6)

    def probes(self):
        l, alpha_y = self.T.X.spin, self.T.Y.basis.alpha0
        xs = [_X_REF, 0.0, *(-P.hbar * (alpha_y + l + 1) + 2 * P.hbar * c for c in (3, 6, 7))]
        zs = _zgrid(P)[:3]
        return [z for z in zs for _ in xs], xs * len(zs)

    @pytest.mark.parametrize("top, flagged", [(6, [0, 1, 1, 1, 0]), (5, [0, 1, 1, 0, 0])])
    def test_flags_the_oracle_points(self, top, flagged):
        # level 7 is past the tensor's top, and level 6 past the cut: a
        # pole there is in no entry the pass reads
        S = symbolic_module(self.T)
        zs, xs = self.probes()
        vals = self.T.entry_matrices(zs, xs, top, masked=True)
        size = vals.shape[-1]
        ref, bad = S._table(size).masked_at(zs, xs)
        assert bad.tolist() == [bool(f) for f in flagged] * 3
        assert (~np.isfinite(vals).all(axis=(1, 2, 3)) == bad).all()
        ok = ~bad
        assert np.allclose(vals[ok], ref[ok].reshape(-1, 4, size, size), rtol=1e-12, atol=0)

    def test_strict_pass_raises_at_the_pole(self):
        zs, xs = self.probes()
        with pytest.raises(PoleError):
            symbolic_module(self.T)._table(self.T.basis.size).at(zs, xs)
        with pytest.raises(PoleError):
            self.T.entry_matrices(zs, xs)


def test_no_symbolic_products_per_entry_pair(monkeypatch):
    # the qchar suite's modules at tau = 0.2i, depth 8, and the transfer
    # suite's product rule on two sites
    p2 = PARAM_SETS["small-im-tau"]
    X = build_asymptotic(1.1 + 0.2j, 0.0, 8, p2)
    Y = build_asymptotic(0.7 - 0.4j, 0.3, 8, p2)
    K, order = 7, 4
    A = build_asymptotic(1.3 + 0.2j, 0.0, K, P)
    B = build_asymptotic(0.7 - 0.3j, 0.0, K, P)
    space = QuantumSpace((0.41 + 0.12j, 0.27 - 0.23j), P)
    pts = SamplePlan(7, 3, 5e-2).pairs(P, guard=lambda z, x: [x + k * P.hbar for k in range(-6, 7)])

    def forbidden(*args, **kwargs):
        raise AssertionError("symbolic product")

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(ThetaSum, name, forbidden)
    monkeypatch.setattr(dynamical, "compose_module_ops", forbidden)
    products = []
    mul = ThetaExpression.__mul__

    def counted(a, b):
        products.append(1)
        return mul(a, b)

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(ThetaExpression, name, counted)
    T = dynamical_tensor(X, Y, max_level=8)
    # the character reads the Gauss diagonal off the entry tables
    assert [len(qchar_of_module(T).term_list(k)) for k in range(8)] == list(range(1, 9))
    assert products == []
    AB = dynamical_tensor(A, B, max_level=K)
    assert product_residual(A, B, AB, space, order, pts) < 1e-8
    assert products == []
