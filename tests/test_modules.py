import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from elliptic_baxter import cli, modules, theta

from elliptic_baxter.dynamical import ModuleOperator, compose_module_ops
from elliptic_baxter.modules import (
    HighestWeightData,
    build_asymptotic,
    construct_simple,
    cyclicity_predicates,
    dynamical_tensor,
    gauss_decompose,
    gauss_reconstruction_residual,
    gauss_residuals,
    highest_vector_count,
    one_dim_module,
    qdybe_residual,
    r_matrices,
    rll_residual,
    rll_residuals,
    sigma_set,
    socle,
    spectral_shift,
)
from elliptic_baxter.theta import (
    EllipticParams,
    SamplePlan,
    ThetaExpression,
    ThetaSum,
    ThetaTable,
    flat_terms,
    theta_eval,
)

from coproduct_oracle import symbolic_tensor
import gauss_oracle
from ladder_oracle import chain_ladder_entries, expression_bits
import module_oracle
from module_oracle import build_vector_rep, with_L
import rll_oracle
from rmatrix_oracle import r_matrix_symbolic

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from jobs import PARAM_SETS  # noqa: E402

P = EllipticParams(tau=1j, hbar=0.31)
H = P.hbar


def triples(seed, count):
    plan = SamplePlan(seed=seed, count=count, pole_margin=5e-2)
    zs = plan.points(P, guard=lambda z: (z, z + H))
    ws = SamplePlan(seed=seed + 1, count=count, pole_margin=5e-2).points(
        P, guard=lambda w: (w, w + H)
    )
    xs = SamplePlan(seed=seed + 2, count=count, pole_margin=5e-2).points(
        P, guard=lambda x: (x, x + H, x - H)
    )
    return list(zip(zs, ws, xs))


class TestRMatrix:
    def test_unit_diagonal_corners(self):
        r = r_matrices([0.23 + 0.11j], [0.37 + 0.19j], P)[0]
        assert r[0, 0] == 1 and r[3, 3] == 1
        assert np.all(r[0, 1:] == 0) and np.all(r[1:, 0] == 0)

    def test_middle_block_matches_theta_oracle(self):
        z, x = 0.23 + 0.11j, 0.37 + 0.19j
        r = r_matrices([z], [x], P)[0]
        tz = theta_eval(z, P)
        ref11 = (
            tz * theta_eval(x + H, P) * theta_eval(x - H, P)
            / (theta_eval(z + H, P) * theta_eval(x, P) ** 2)
        )
        ref12 = theta_eval(z + x, P) * theta_eval(H, P) / (
            theta_eval(z + H, P) * theta_eval(x, P)
        )
        ref21 = -theta_eval(z - x, P) * theta_eval(H, P) / (
            theta_eval(z + H, P) * theta_eval(x, P)
        )
        ref22 = tz / theta_eval(z + H, P)
        for got, ref in ((r[1, 1], ref11), (r[1, 2], ref12), (r[2, 1], ref21), (r[2, 2], ref22)):
            assert abs(got - ref) <= 1e-12 * (1 + abs(ref))


class TestOnePassEntries:
    """Entries built as one product each are the chains of ``*`` of
    ``tests/ladder_oracle.py``: scalar, exponents and every factor's
    (cz, cx, shift, power), in order, bit for bit."""

    @pytest.mark.parametrize("K", [2, 5, 8])
    @pytest.mark.parametrize("u", [0, 0.57])
    @pytest.mark.parametrize("l", [-1, 0, 1, 2, 1.3 + 0.2j])
    def test_ladder_entries_are_the_chains(self, l, u, K):
        X = build_asymptotic(l, u, K, P)
        for key, ref in chain_ladder_entries(l, u, K, P).items():
            got = X.L[key].entries
            assert list(got) == list(ref)
            for k, e in ref.items():
                assert [expression_bits(t) for t in got[k].terms] == [expression_bits(e)]

    @pytest.mark.parametrize("l", [-1, 0, 1, 2])
    def test_integer_spins_cancel_factors(self, l):
        # the case the merge order matters for: some ++ entry loses factors
        pp = build_asymptotic(l, 0, 8, P).L["++"].entries
        assert min(len(s.terms[0].factors) for s in pp.values()) < 5


def table_state(table) -> dict:
    """Every attribute of a ThetaTable, arrays as their dtype and bytes."""
    def state(v):
        if isinstance(v, np.ndarray):
            return v.dtype.str, v.shape, v.tobytes()
        if isinstance(v, list):
            return [state(a) for a in v]
        return v
    return {k: state(v) for k, v in vars(table).items()}


class TestFlatLadder:
    """A ladder is built as flat terms, its table straight from them and
    its symbolic L as a view of them on first read.  The flat table must
    be the table of the view's ThetaSums array for array, and the view the
    chains of ``*`` of ``tests/ladder_oracle.py``.  Spin 0 and the integer
    spins merge and cancel factors of some L++ entries (level 0 always);
    with complex hbar numpy's complex multiply would round the shifts
    otherwise than Python's."""

    @pytest.mark.parametrize("params", [EllipticParams(1j, 0.31),
                                        EllipticParams(0.4 + 0.6j, 0.23 + 0.05j)],
                             ids=["real-hbar", "complex-hbar"])
    @pytest.mark.parametrize("K", [2, 6, 8])
    @pytest.mark.parametrize("u", [0, 0.3, 0.57])
    @pytest.mark.parametrize("l", [1.3 + 0.2j, 0.57, 0, 1, 2, -1])
    def test_flat_table_is_the_table_of_the_view(self, l, u, K, params):
        X = build_asymptotic(l, u, K, params)
        n = X.basis.size
        flat = X._table(n)
        assert "L" not in vars(X)
        sums = [((k * n + a) * n + b, s) for k, key in enumerate(("++", "+-", "-+", "--"))
                for (a, b), s in X.L[key].entries.items()]
        assert table_state(flat) == table_state(ThetaTable(flat_terms(sums), 4 * n * n, params))
        for key, ref in chain_ladder_entries(l, u, K, params).items():
            got = X.L[key].entries
            assert list(got) == list(ref)
            for k, e in ref.items():
                assert [expression_bits(t) for t in got[k].terms] == [expression_bits(e)]
        # level 0 merges: theta(x + (l+1) hbar) and theta(x) cancel
        assert len(X.L["++"].entries[(0, 0)].terms[0].factors) == 1

    @pytest.mark.parametrize("params", [EllipticParams(1j, 0.31),
                                        EllipticParams(0.4 + 0.6j, 0.23 + 0.05j)],
                             ids=["real-hbar", "complex-hbar"])
    @pytest.mark.parametrize("K", [2, 6, 8])
    @pytest.mark.parametrize("u", [0, 0.3, 0.57])
    @pytest.mark.parametrize("l", [1.3 + 0.2j, 0.57, 0, 1, 2, -1])
    def test_diagonal_terms_are_those_of_the_view(self, l, u, K, params):
        X = build_asymptotic(l, u, K, params)
        got = X.diagonal_terms
        assert "L" not in vars(X)
        ref = with_L(X, X.L).diagonal_terms
        for g, r in zip(got, ref):
            assert [None if e is None else expression_bits(e) for e in g] == \
                [None if e is None else expression_bits(e) for e in r]
        # K+ is symbolic only at level 0, the one column with no L-+ entry
        assert [e is None for e in got[0]] == [False] + [True] * K
        assert None not in got[1]

    def test_cut_tables_are_cut_from_the_terms(self):
        X = build_asymptotic(1.3 + 0.2j, 0.4, 6, P)
        Y = with_L(X, X.L)  # the same entries, flattened from L
        for n in (1, 3, 7):
            assert table_state(X._table(n)) == table_state(Y._table(n))


def bench_params(args) -> EllipticParams:
    """The parameters of a benchmark parameter set's CLI arguments."""
    return cli.resolve_config(cli.build_parser().parse_args(["rll", *args])).params


BENCH_PARAMS = [bench_params(args) for _, args in PARAM_SETS]
BENCH_IDS = [name for name, _ in PARAM_SETS]


def term_bits(terms) -> list:
    """Flat terms bit for bit: slot, the bits of the scalar and exponents,
    and per factor (cz, cx, the bits of the shift, power)."""
    def b(c):
        c = complex(c)
        return struct.pack("<dd", c.real, c.imag)
    return [(slot, b(s), b(ez), b(ex), tuple((cz, cx, b(sh), p) for cz, cx, sh, p in f))
            for slot, s, ez, ex, f in terms]


def assert_same_module(got, ref):
    """Two modules alike: terms bit for bit; table state, entry tables and
    the diagonal terms at six sample points, dtype, shape and bytes."""
    assert term_bits(got.terms) == term_bits(ref.terms)
    n = got.basis.size
    assert table_state(got._table(n)) == table_state(ref._table(n))
    zs, xs = zip(*SamplePlan(seed=11, count=6, pole_margin=5e-2).pairs(got.params))
    a, b = (M.entry_matrices(zs, xs, masked=True) for M in (got, ref))
    assert (a.dtype.str, a.shape, a.tobytes()) == (b.dtype.str, b.shape, b.tobytes())
    for g, r in zip(got.diagonal_terms, ref.diagonal_terms):
        assert [None if e is None else expression_bits(e) for e in g] == \
            [None if e is None else expression_bits(e) for e in r]


class TestFlatForms:
    """Every module constructor writes flat terms: the R-matrix table, the
    vector module, spectral shifts and one-dimensional modules against
    their routes through symbolic L tables (``tests/module_oracle.py``) at
    the parameter sets of the 2-site benchmark, bit for bit."""

    @pytest.mark.parametrize("params", BENCH_PARAMS, ids=BENCH_IDS)
    def test_r_table_is_the_table_of_the_symbolic_matrix(self, params):
        sym = r_matrix_symbolic(params)
        ref = flat_terms((4 * a + b, sym[a][b]) for a in range(4) for b in range(4))
        assert term_bits(modules.r_matrix_terms(params)) == term_bits(ref)
        assert table_state(modules._r_table(params)) == table_state(ThetaTable(ref, 16, params))

    @pytest.mark.parametrize("params", BENCH_PARAMS, ids=BENCH_IDS)
    def test_vector_module(self, params):
        assert_same_module(build_vector_rep(params), module_oracle.vector_rep_of_L(params))

    @pytest.mark.parametrize("u", [0, 1.0, 0.77 + 0.1j])
    @pytest.mark.parametrize("params", BENCH_PARAMS, ids=BENCH_IDS)
    def test_spectral_shifts(self, params, u):
        V = build_vector_rep(params)
        assert_same_module(spectral_shift(V, u), module_oracle.spectral_shift_of_L(V, u))
        # a ladder, one with integer spin, and a module with a z-exponential
        g = ThetaExpression(2.0, 0.3j) * ThetaExpression.theta(1, 0, 0.4)
        for X in (build_asymptotic(1.7 + 0.3j, 0.0, 6, params), build_asymptotic(2, 0.3, 4, params),
                  one_dim_module(g, params)):
            assert_same_module(spectral_shift(X, u), module_oracle.spectral_shift_of_L(X, u))
        assert spectral_shift(V, 0).terms is V.terms

    @pytest.mark.parametrize("params", BENCH_PARAMS, ids=BENCH_IDS)
    def test_one_dim_module(self, params):
        for g in (ThetaExpression.theta(1, 0, 0.4), ThetaExpression.theta(1, 0, 0.4, -1),
                  ThetaExpression.const(1.3 + 0.2j)):
            D = one_dim_module(g, params)
            assert_same_module(D, module_oracle.one_dim_of_L(g, params))
            assert D.diagonal_terms[1] == (g,)

    @pytest.mark.parametrize("params", BENCH_PARAMS, ids=BENCH_IDS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_socle_terms_are_the_cut_of_the_ladder_terms(self, params, n):
        # the socle flattens the ladder's L view; a direct cut of the
        # ladder's terms gives the same terms
        X = build_asymptotic(float(n - 1), 0.0, 4, params)
        m = X.basis.size
        cut = [((k * n + a) * n + b, *rest) for slot, *rest in X.terms
               for k, rc in [divmod(slot, m * m)] for a, b in [divmod(rc, m)] if a < n and b < n]
        S = socle(X)
        assert term_bits(S.terms) == term_bits(cut)
        assert table_state(S._table(n)) == table_state(X._table(n))


class TestRllLevel:
    """The batched exchange residual of a level against
    ``tests/rll_oracle.py``, which sums each component of each basis
    vector on its own: on the rll job's ladder and triples of every
    parameter set of the 2-site benchmark, at levels 0 and 2."""

    @pytest.mark.parametrize("params", [p for _, p in PARAM_SETS],
                             ids=[name for name, _ in PARAM_SETS])
    def test_matches_vector_by_vector(self, params, monkeypatch):
        cfg = cli.resolve_config(cli.build_parser().parse_args(["rll", *params]))
        X = build_asymptotic(1.7 + 0.3j, 0.0, 8, cfg.params)
        pairs = []
        level = modules._rll_level

        def both(basis, tables, r, lev):
            pairs.append((level(basis, tables, r, lev), rll_oracle.rll_level(basis, tables, r, lev)))
            return pairs[-1][0]

        monkeypatch.setattr(modules, "_rll_level", both)
        rll_residuals(X, cli._triples(cfg)[:6], (0, 2))
        assert len(pairs) == 12
        for got, ref in pairs:
            assert 0 < ref < 1e-9
            assert abs(got - ref) <= 1e-15 * ref


def embed_loop(slots, r_by_state):
    """The 8x8 embedding of ``modules._embed_r`` entry by entry:
    r_by_state[c] on the slot pair while the third slot is in state c."""
    m = np.zeros((8, 8), dtype=complex)
    idx = lambda a, b, c: 4 * a + 2 * b + c
    free = ({0, 1, 2} - set(slots)).pop()
    for a, b, ap, bp, c in np.ndindex(2, 2, 2, 2, 2):
        t = [0, 0, 0]
        s = [0, 0, 0]
        t[slots[0]], t[slots[1]], t[free] = a, b, c
        s[slots[0]], s[slots[1]], s[free] = ap, bp, c
        m[idx(*t), idx(*s)] = r_by_state[c][2 * a + b, 2 * ap + bp]
    return m


class TestDynamicalYangBaxter:
    def test_residual_small_on_samples(self):
        for z, w, x in triples(31, 20):
            if abs(theta_eval(z - w + H, P)) < 1e-2:
                continue
            assert qdybe_residual(z, w, x, P) < 1e-9

    @pytest.mark.parametrize("slots", [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
    def test_embedding_is_the_entry_loop(self, slots):
        rng = np.random.default_rng(sum(slots) + 3 * slots[0])
        r = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        got = modules._embed_r(slots, r)
        ref = embed_loop(slots, r)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    def test_negative_control_without_dynamical_shifts(self):
        # dropping every dynamical shift must break the identity
        z, w, x = 0.21 + 0.13j, -0.17 + 0.31j, 0.23 + 0.17j
        r12, r13, r23 = (embed_loop(slots, [r_matrices([a], [x], P)[0]] * 2)
                         for a, slots in ((z - w, (0, 1)), (z, (0, 2)), (w, (1, 2))))
        lhs, rhs = r12 @ r13 @ r23, r23 @ r13 @ r12
        dev = np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs))
        assert dev > 1e-2


LADDER = build_asymptotic(1.7 + 0.3j, 0.0, 8, P)


class TestExchangeRelations:
    @pytest.mark.parametrize("level", [0, 2, 5])
    def test_ladder(self, level):
        for z, w, x in triples(41, 4):
            assert rll_residual(LADDER, z, w, x, level) < 1e-9

    def test_ladder_with_spectral_shift(self):
        W = build_asymptotic(0.9 - 0.2j, 0.45 + 0.1j, 5, P)
        for z, w, x in triples(43, 3):
            assert rll_residual(W, z, w, x, 1) < 1e-9

    def test_vector_rep_all_levels(self):
        V = build_vector_rep(P)
        for level in (0, 1):
            for z, w, x in triples(47, 4):
                assert rll_residual(V, z, w, x, level) < 1e-9

    def test_socle_is_exact_at_top(self):
        S = socle(build_asymptotic(2.0, 0.0, 5, P))
        assert S.basis.levels == 2
        for z, w, x in triples(53, 3):
            assert rll_residual(S, z, w, x, 2) < 1e-9

    def test_one_dim_module(self):
        D = one_dim_module(ThetaExpression.theta(1, 0, 0.4), P)
        for z, w, x in triples(59, 3):
            assert rll_residual(D, z, w, x, 0) < 1e-12

    def test_tensor_module(self):
        T = dynamical_tensor(build_vector_rep(P), LADDER, max_level=5)
        for z, w, x in triples(61, 3):
            assert rll_residual(T, z, w, x, 1) < 1e-9

    def test_spectral_shift_preserves_relations(self):
        W = spectral_shift(LADDER, 0.73 + 0.21j)
        z, w, x = triples(67, 1)[0]
        assert rll_residual(W, z, w, x, 2) < 1e-9

    def test_negative_control_sign_flip(self):
        flipped = dict(LADDER.L)
        flipped["+-"] = gauss_oracle.negated(LADDER.L["+-"])
        broken = with_L(LADDER, flipped)
        z, w, x = triples(71, 1)[0]
        assert rll_residual(broken, z, w, x, 2) > 1e-2

    def test_negative_control_lattice_shift_one_entry(self):
        # shifting x by tau in a single entry table breaks the relation
        shifted = dict(LADDER.L)
        shifted["+-"] = gauss_oracle.shift_x(LADDER.L["+-"], P.tau)
        broken = with_L(LADDER, shifted)
        z, w, x = triples(73, 1)[0]
        assert rll_residual(broken, z, w, x, 2) > 1e-2


class TestGauss:
    def test_reconstruction_ladder(self):
        pts = SamplePlan(seed=81, count=6, pole_margin=5e-2).pairs(P)
        assert gauss_reconstruction_residual(LADDER, pts) < 1e-10

    def test_reconstruction_tensor(self):
        T = symbolic_tensor(build_vector_rep(P), LADDER, max_level=6)
        pts = SamplePlan(seed=83, count=4, pole_margin=5e-2).pairs(P)
        assert gauss_reconstruction_residual(T, pts) < 1e-10

    def test_reconstruction_tensor_module(self):
        T = dynamical_tensor(build_vector_rep(P), LADDER, max_level=6)
        pts = SamplePlan(seed=83, count=4, pole_margin=5e-2).pairs(P)
        assert gauss_reconstruction_residual(T, pts) < 1e-10

    @staticmethod
    def closed_e(z, x, j):
        """E_{j-1,j} of the ladder in the composition calculus."""
        return -(theta_eval(z - x + (j - 1) * H, P) * theta_eval(j * H, P)
                 / (theta_eval(z + j * H, P) * theta_eval(x + H, P)))

    @staticmethod
    def closed_f(z, x, j, l=LADDER.spin):
        """F_{j+1,j} of the ladder in the composition calculus."""
        return (theta_eval(z + x + (l - j) * H, P) * theta_eval((l - j) * H, P)
                / (theta_eval(z + (j + 1) * H, P) * theta_eval(x + (l - 2 * j - 1) * H, P)))

    def test_raising_lowering_closed_forms(self):
        # the numeric E at (z, x) is the closed form at x - hbar, the
        # composition rule's shift; F is the closed form at (z, x)
        pts = SamplePlan(seed=87, count=5, pole_margin=5e-2).pairs(P)
        zs, xs = zip(*pts)
        levels = gauss_decompose(LADDER.entry_matrices(zs, xs, 3), LADDER.basis, 3)
        for i, (z, x) in enumerate(pts):
            for j in (1, 2, 3):
                ref_e = self.closed_e(z, x - H, j)
                got_e = levels[j][3][i, 0, 0]
                assert abs(got_e - ref_e) <= 1e-10 * (1 + abs(ref_e))
            for j in (0, 1, 2):
                ref_f = self.closed_f(z, x, j)
                got_f = levels[j + 1][4][i, 0, 0]
                assert abs(got_f - ref_f) <= 1e-10 * (1 + abs(ref_f))

    def test_raising_lowering_closed_forms_symbolic(self):
        g = gauss_oracle.gauss_decompose(LADDER)
        for z, x in SamplePlan(seed=87, count=5, pole_margin=5e-2).pairs(P):
            for j in (1, 2, 3):
                ref_e = self.closed_e(z, x, j)
                got_e = g.e.entries[(j - 1, j)].eval(z, x, P)
                assert abs(got_e - ref_e) <= 1e-10 * (1 + abs(ref_e))
            for j in (0, 1, 2):
                ref_f = self.closed_f(z, x, j)
                got_f = g.f.entries[(j + 1, j)].eval(z, x, P)
                assert abs(got_f - ref_f) <= 1e-10 * (1 + abs(ref_f))

    def test_diagonal_product_is_scalar(self):
        # K_+(z) K_-(z - hbar) acts as theta(z + (l+1)h) theta(z) on every level
        l = LADDER.spin
        g = gauss_oracle.gauss_decompose(LADDER)
        prod = compose_module_ops(g.kplus, module_oracle.shift_z(g.kminus, -H))
        for z, x in SamplePlan(seed=89, count=5, pole_margin=5e-2).pairs(P):
            ref = theta_eval(z + (l + 1) * H, P) * theta_eval(z, P)
            for j in range(LADDER.basis.levels - 1):
                got = prod.entries[(j, j)].eval(z, x, P)
                assert abs(got - ref) <= 1e-10 * (1 + abs(ref))

    @pytest.mark.parametrize("u", [0.0, 0.45 + 0.1j])
    def test_scalar_law(self, u):
        X = build_asymptotic(LADDER.spin, u, 8, P)
        pts = SamplePlan(seed=89, count=5, pole_margin=5e-2).pairs(P)
        assert gauss_residuals(X, pts)[1] < 1e-10

    def test_both_records_from_one_pass_and_one_decomposition(self, monkeypatch):
        # the gauss job's two records: the reconstruction is the bits of
        # its own pass, from the one table pass and decomposition they share
        X = build_asymptotic(1.7 + 0.3j, 0.0, 8, P)
        pts = SamplePlan(seed=43, count=6, pole_margin=5e-2).pairs(
            P, guard=lambda z, x: [x + k * H for k in range(-8, 9)])
        rec = gauss_reconstruction_residual(X, pts)
        calls = []
        for module, name in ((theta, "_theta_series"), (modules, "gauss_decompose")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        got = gauss_residuals(X, pts)
        assert calls == ["_theta_series", "gauss_decompose"]
        assert got[0] == rec and 0 < got[1] < 1e-10

    def test_negative_control_scalar_law(self):
        # one L++ diagonal entry scaled by 1.5 breaks the law on its level
        op = LADDER.L["++"]
        entries = dict(op.entries)
        entries[(2, 2)] = entries[(2, 2)] * ThetaSum(ThetaExpression.const(1.5))
        L = dict(LADDER.L, **{"++": ModuleOperator(op.alpha, op.beta, op.source, op.target,
                                                   entries, P)})
        broken = with_L(LADDER, L)
        pts = SamplePlan(seed=89, count=5, pole_margin=5e-2).pairs(P)
        assert gauss_residuals(LADDER, pts)[1] < 1e-10
        assert gauss_residuals(broken, pts)[1] >= 1e-2


class TestSocle:
    def test_requires_integer_spin(self):
        with pytest.raises(ValueError):
            socle(LADDER)

    def test_lowering_vanishes_past_the_top(self):
        # at spin l the full ladder's lowering entry out of level l is zero
        W = build_asymptotic(3.0, 0.0, 6, P)
        s = W.L["+-"].entries[(4, 3)]
        for z, x in SamplePlan(seed=91, count=5, pole_margin=5e-2).pairs(P):
            assert abs(s.eval(z, x, P)) < 1e-12


class TestHighestWeightData:
    def test_validation(self):
        with pytest.raises(ValueError):
            HighestWeightData(0.0, (1.0,), (0.5,), 0.5)
        with pytest.raises(ValueError):
            HighestWeightData(1.0, (1.0,), (0.5, 0.2), 0.3)
        with pytest.raises(ValueError):
            HighestWeightData(1.0, (1.0,), (0.5,), 0.3)

    def test_sigma_set_integer_gap(self):
        s = sigma_set(2.3, 0.3 + 0j, depth=5, params=P)
        assert not s.truncated and s.l == 2
        assert s.values == (0.3 + 0j, 1.3 + 0j)

    def test_sigma_set_lattice_shifted_gap(self):
        s = sigma_set(2.3 + (1 + P.tau) / H, 0.3 + 0j, depth=5, params=P)
        assert not s.truncated and s.l == 2

    def test_sigma_set_generic_gap_truncates(self):
        s = sigma_set(0.85, 0.3, depth=4, params=P)
        assert s.truncated and s.l is None
        assert len(s.values) == 4

    def test_cyclicity_generic_pair(self):
        data = HighestWeightData(1.0, (2.3, 0.85), (0.3, 0.55), 2.3)
        assert cyclicity_predicates(data, 6, P) == (True, True)

    def test_cocyclicity_fails_on_collision(self):
        # alpha_2 lands in Sigma(alpha_1, beta_1) = {0.3, 1.3}
        data = HighestWeightData(1.0, (2.3, 1.3), (0.3, 0.55), 2.75)
        cocyclic, cyclic = cyclicity_predicates(data, 6, P)
        assert not cocyclic and not cyclic

    def test_cyclicity_fails_on_dual_collision(self):
        # beta_2 = alpha_1 - 1 hits the dual gap set; the direct one is clear
        data = HighestWeightData(1.0, (2.3, 0.85), (0.3, 1.3), 1.55)
        cocyclic, cyclic = cyclicity_predicates(data, 6, P)
        assert cocyclic and not cyclic


class TestHighestVectorCount:
    ZS = [0.21 + 0.13j, -0.37 + 0.29j, 0.11 - 0.05j]
    X0 = 0.23 + 0.17j

    def test_ladder_and_socle_have_one(self):
        assert highest_vector_count(LADDER, self.ZS, self.X0).dim == 1
        S = socle(build_asymptotic(2.0, 0.0, 5, P))
        assert highest_vector_count(S, self.ZS, self.X0).dim == 1

    def test_generic_tensor_has_one(self):
        V = build_vector_rep(P)
        T = dynamical_tensor(V, spectral_shift(V, 0.77 + 0.1j))
        assert highest_vector_count(T, self.ZS, self.X0).dim == 1

    def test_reducible_tensor_has_two(self):
        V = build_vector_rep(P)
        T = dynamical_tensor(spectral_shift(V, 1.0), V)
        assert highest_vector_count(T, self.ZS, self.X0).dim == 2


class TestConstructSimple:
    def test_rearrangement_minimizes_integer_gap(self):
        data = HighestWeightData(2.0, (2.3, 0.7), (0.7, 0.3), 2.0)
        cs = construct_simple(data, 3, P)
        assert cs.alphas == (0.7, 2.3)
        assert cs.betas == (0.7, 0.3)
        assert cs.finite_dimensional

    def test_generic_gap_is_infinite_dimensional(self):
        data = HighestWeightData(1.0 + 0j, (0.85,), (0.3,), 0.55)
        cs = construct_simple(data, 3, P)
        assert not cs.finite_dimensional

    def test_constructed_module_satisfies_exchange_relations(self):
        data = HighestWeightData(1.0 + 0j, (0.85,), (0.3,), 0.55)
        cs = construct_simple(data, 4, P)
        z, w, x = 0.21 + 0.13j, -0.17 + 0.31j, 0.23 + 0.17j
        assert rll_residual(cs.module, z, w, x, 0) < 1e-9
        assert rll_residual(cs.module, z, w, x, 1) < 1e-9

    def test_scalar_factor_scales_diagonal_entries(self):
        lam = 2.0
        data = HighestWeightData(lam, (2.3,), (0.3,), 2.0)
        cs = construct_simple(data, 3, P)
        plain = build_asymptotic(2.0, -0.7, 3, P)
        z, x = 0.21 + 0.13j, 0.23 + 0.17j
        got = cs.module.entry_matrices([z], [x])[0, 3]
        ref = lam * plain.entry_matrices([z], [x])[0, 3]
        assert np.allclose(got, ref, rtol=1e-10)
