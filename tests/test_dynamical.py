import numpy as np
import pytest

from elliptic_baxter.dynamical import (
    DiffOpSeries,
    GradingError,
    ModuleOperator,
    ShapeError,
    SingularityError,
    TermMatrix,
    WeightBasis,
    _keys,
    _read,
    block_graded_trace,
    cmatmul,
    compose_module_ops,
    contraction_plan,
    invert_weightwise,
    series_add,
    series_compose,
    series_divide,
    series_max_residual,
    series_scale,
    worst_residual,
)
from elliptic_baxter import transfer, yangian
from elliptic_baxter.modules import build_asymptotic
from elliptic_baxter.theta import EllipticParams, SamplePlan, ThetaExpression, ThetaSum

from chain_oracle import dict_walk_plan, spell

P = EllipticParams(tau=1j, hbar=0.31)
H = P.hbar


def sample_pairs(seed, count, margin=5e-2):
    return SamplePlan(seed=seed, count=count, pole_margin=margin).pairs(P)


class TestWeightBasis:
    def test_layout(self):
        b = WeightBasis(2.0, (1, 2, 1))
        assert b.size == 4
        assert b.levels == 2
        assert b.offset(1) + 1 == 2
        assert b.level_of(3) == 2
        assert b.index_levels == (0, 1, 1, 2)
        assert b.weight(2) == 2.0 - 4

    def test_rejects_empty_level(self):
        with pytest.raises(ShapeError):
            WeightBasis(0.0, (1, 0, 1))


def assert_same_plan(got, ref):
    (grid, steps), (ref_grid, ref_steps) = got, ref
    assert grid.dtype == ref_grid.dtype and np.array_equal(grid, ref_grid)
    assert len(steps) == len(ref_steps)
    for step, ref_step in zip(steps, ref_steps):
        for a, b in zip(step, ref_step):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestContractionPlan:
    @pytest.mark.parametrize("L", [2, 4, 6, 8])
    def test_elliptic_plan_matches_dict_walk(self, L):
        strings = [spell(code, L, (1, -1)) for code in transfer.QuantumSpace._make_basis(L)]
        ref = dict_walk_plan(tuple((i, j) for i in strings for j in strings), (1, -1))
        assert_same_plan(transfer._chain_plan(L), ref)

    @pytest.mark.parametrize("L", [2, 4, 6, 8])
    def test_exact_plan_matches_dict_walk(self, L):
        # rows in chain-basis order, each with the strings of its sector
        strings = [spell(code, L, (1, 2)) for code in yangian.chain_basis(L)]
        pairs = tuple((i, j) for i in strings for j in strings
                      if i.count(1) == j.count(1))
        bases, plan, sector = yangian._sector_pairs(L)
        assert_same_plan(plan, dict_walk_plan(pairs, (1, 2)))
        assert sector.tolist() == [i.count(1) for i, _ in pairs]
        assert [[spell(code, L, (1, 2)) for code in basis] for basis in bases] == \
            [[i for i in strings if i.count(1) == s] for s in range(L + 1)]


class TestBlockGradedTrace:
    def test_mixed_level_shift_rejected(self):
        # one key whose entries keep level 0 and also raise it to level 1
        plan = contraction_plan([0], [0], 1)
        values = np.array([[1, 2**70]], dtype=object)
        slots = [(0 * 3 + 0) * 3 + 0, (0 * 3 + 1) * 3 + 0]
        with pytest.raises(ValueError, match="key 0"):
            block_graded_trace(values, slots, [0, 1, 2, 3], plan, 1, [[0]])


class TestComposeModuleOps:
    def test_identity_neutral(self):
        W = build_asymptotic(1.3 + 0.2j, 0.0, 4, P)
        ident = ModuleOperator(0, 0, W.basis, W.basis,
                               {(i, i): ThetaSum(ThetaExpression()) for i in range(W.basis.size)},
                               P)
        for key in ("++", "+-", "-+", "--"):
            left = compose_module_ops(ident, W.L[key])
            right = compose_module_ops(W.L[key], ident)
            for z, x in sample_pairs(1, 3):
                ref = W.L[key].to_matrix(z, x)
                assert np.allclose(left.to_matrix(z, x), ref, atol=1e-12)
                assert np.allclose(right.to_matrix(z, x), ref, atol=1e-12)

    def test_weight_rule_enforced(self):
        b = WeightBasis(1.0, (1, 1))
        with pytest.raises(ShapeError, match=r"^entry \(1,0\) violates the weight rule for bidegree \(1,1\)$"):
            # a (+,+) bidegree operator must preserve weight
            ModuleOperator(1, 1, b, b, {(1, 0): ThetaSum(ThetaExpression())}, P)

    def test_matches_sequential_application_oracle(self):
        # Oracle: apply Psi, then Phi, by the defining property
        # Phi(g(x) v) = g(x + beta*hbar) Phi(v): the matrix of Psi is taken
        # at x + beta_Phi * hbar.
        W = build_asymptotic(0.8 - 0.4j, 0.0, 5, P)
        phi, psi = W.L["+-"], W.L["-+"]
        comp = compose_module_ops(phi, psi)
        zs, xs = np.array(sample_pairs(5, 4)).T
        direct = phi.to_matrices(zs, xs) @ psi.to_matrices(zs, xs + phi.beta * H)
        assert np.allclose(comp.to_matrices(zs, xs), direct, rtol=1e-10, atol=1e-12)

    def test_xshift_pattern_on_ladder(self):
        # (Phi o Psi)_{ac}(x) = Phi_{ab}(x) Psi_{bc}(x + beta_Phi * hbar)
        W = build_asymptotic(1.1 + 0.6j, 0.0, 5, P)
        lp, lm = W.L["-+"], W.L["+-"]
        comp = compose_module_ops(lm, lp)  # lowering o raising: diagonal
        for z, x in sample_pairs(7, 4):
            for j in (1, 2, 3):
                got = comp.entries[(j, j)].eval(z, x, P)
                ref = lm.entries[(j, j - 1)].eval(z, x, P) * lp.entries[
                    (j - 1, j)
                ].eval(z, x + lm.beta * H, P)
                assert abs(got - ref) <= 1e-12 * (1 + abs(ref))

    def test_invert_weightwise_roundtrip(self):
        W = build_asymptotic(1.3 + 0.2j, 0.0, 5, P)
        km = W.L["--"]
        inv = invert_weightwise(km)
        left = compose_module_ops(inv, km)
        right = compose_module_ops(km, inv)
        eye = np.eye(W.basis.size)
        for z, x in sample_pairs(3, 3):
            assert np.allclose(left.to_matrix(z, x), eye, atol=1e-10)
            assert np.allclose(right.to_matrix(z, x), eye, atol=1e-10)


def const_series(alpha0, mats, params=P):
    terms = [TermMatrix(lambda zs, xs, m=np.asarray(m, dtype=complex): np.broadcast_to(m, (len(zs), *m.shape)),
                        len(mats[0])) for m in mats]
    return DiffOpSeries(alpha0, terms, len(mats[0]), params)


def theta_series(alpha0, sums, params=P):
    # sums[k] is a square nested sequence of ThetaSum entries
    def term(mat):
        def fn(zs, xs):
            return np.array([[[s.eval(z, x, params) if s else 0j for s in row] for row in mat]
                             for z, x in zip(zs, xs)])

        return TermMatrix(fn, len(mat))

    return DiffOpSeries(alpha0, [term(m) for m in sums], len(sums[0]), params)


class TestSeries:
    def test_identity_neutral(self):
        s = theta_series(
            1.0,
            [
                [[ThetaSum(ThetaExpression.theta(1, 1, 0.1)), ThetaSum.zero()],
                 [ThetaSum.zero(), ThetaSum(ThetaExpression.theta(0, 1, 0.2))]],
            ],
        )
        ident = DiffOpSeries.identity(2, 3, P)
        prod = series_compose(s, ident, 3)
        pts = sample_pairs(11, 3)
        assert series_max_residual(prod, s, 3, pts) < 1e-12
        prod2 = series_compose(ident, s, 3)
        assert series_max_residual(prod2, s, 3, pts) < 1e-12

    def test_single_term_shift_rule_oracle(self):
        # (T_a M(x)) (T_b N(x)) = T_{a+b} M(x + b*hbar) N(x)
        a, b = 0.7 + 0.2j, -1.1 + 0.5j
        m = ThetaSum(ThetaExpression.theta(0, 1, 0.15))
        n = ThetaSum(ThetaExpression.theta(0, 1, 0.25))
        s1 = theta_series(a, [[[m]]])
        s2 = theta_series(b, [[[n]]])
        prod = series_compose(s1, s2, 0)
        assert abs(prod.alpha0 - (a + b)) < 1e-12
        for z, x in sample_pairs(13, 5):
            ref = m.eval(z, x + b * H, P) * n.eval(z, x, P)
            got = prod.terms[0].eval(z, x)[0, 0]
            assert abs(got - ref) <= 1e-12 * (1 + abs(ref))

    def test_associativity(self):
        rng = np.random.default_rng(3)
        mats = lambda: [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
        s1 = const_series(1.0, mats())
        s2 = const_series(-2.0, mats())
        s3 = const_series(0.5 + 0.1j, mats())
        left = series_compose(series_compose(s1, s2, 4), s3, 4)
        right = series_compose(s1, series_compose(s2, s3, 4), 4)
        pts = sample_pairs(17, 4)
        assert series_max_residual(left, right, 4, pts) < 1e-10

    def test_invert_single_term_matches_matrix_inverse(self):
        m = ThetaSum(ThetaExpression.theta(0, 1, 0.15))
        a = 0.9 - 0.3j
        s = theta_series(a, [[[m, ThetaSum.zero()], [ThetaSum.zero(), m.shift_x(0.2)]]])
        inv = series_divide(DiffOpSeries.identity(2, 2, P), s, 2)
        for z, x in sample_pairs(19, 4):
            # entrywise inverse with argument shifted by -a*hbar
            ref = 1.0 / m.eval(z, x - a * H, P)
            assert abs(inv.terms[0].eval(z, x)[0, 0] - ref) <= 1e-11 * (1 + abs(ref))
        ident = series_compose(s, inv, 2)
        pts = sample_pairs(23, 4)
        assert series_max_residual(ident, DiffOpSeries.identity(2, 2, P), 2, pts) < 1e-9

    def test_invert_full_series_roundtrip(self):
        rng = np.random.default_rng(5)
        mats = [np.eye(3) + 0.2 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
                for _ in range(4)]
        s = const_series(0.4 + 1.2j, mats)
        inv = series_divide(DiffOpSeries.identity(3, 3, P), s, 3)
        prod = series_compose(s, inv, 3)
        prod2 = series_compose(inv, s, 3)
        pts = sample_pairs(29, 3)
        ident = DiffOpSeries.identity(3, 3, P)
        assert series_max_residual(prod, ident, 3, pts) < 1e-9
        assert series_max_residual(prod2, ident, 3, pts) < 1e-9

    def test_invert_singular_leading_term(self):
        s = const_series(0.0, [np.zeros((2, 2))])
        inv = series_divide(DiffOpSeries.identity(2, 1, P), s, 1)
        with pytest.raises(SingularityError):
            inv.terms[0].eval(0.1, 0.2)

    def test_add_alignment_and_grading_error(self):
        s1 = const_series(2.0, [np.eye(2), 2 * np.eye(2)])
        s2 = const_series(0.0, [3 * np.eye(2)])
        tot = series_add(s1, s2, 2)
        assert abs(tot.alpha0 - 2.0) < 1e-12
        assert np.allclose(tot.terms[1].eval(0, 0), 2 * np.eye(2) + 3 * np.eye(2))
        with pytest.raises(GradingError):
            series_add(s1, const_series(0.3, [np.eye(2)]), 2)

    def test_scale(self):
        s = const_series(0.0, [np.eye(2), 2 * np.eye(2)])
        scaled = series_scale(s, 0.7 - 0.2j)
        assert scaled.alpha0 == s.alpha0
        for k in range(2):
            assert np.allclose(scaled.terms[k].eval(0.3, 0.4),
                               (0.7 - 0.2j) * s.terms[k].eval(0.3, 0.4))

    def test_divide_recovers_the_numerator(self):
        rng = np.random.default_rng(7)
        mats = lambda: [np.eye(3) + 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
                        for _ in range(4)]
        num = const_series(1.5 - 0.2j, mats())
        den = const_series(0.4 + 1.2j, mats())
        quo = series_divide(num, den, 3)
        assert abs(quo.alpha0 - (1.1 - 1.4j)) < 1e-12
        pts = sample_pairs(31, 3)
        assert series_max_residual(series_compose(quo, den, 3), num, 3, pts) < 1e-12
        via_inverse = series_compose(num, series_divide(DiffOpSeries.identity(3, 3, P), den, 3), 3)
        assert series_max_residual(quo, via_inverse, 3, pts) < 1e-9

    def test_divide_singular_leading_term(self):
        num = const_series(0.0, [np.eye(2)])
        quo = series_divide(num, const_series(0.0, [np.zeros((2, 2))]), 1)
        with pytest.raises(SingularityError):
            quo.terms[1].eval(0.1, 0.2)


class TestBatchedCalls:
    def test_batched_divide_names_the_singular_point(self):
        # the leading coefficient vanishes at one point of the batch only
        bad = 0.35 + 0.2j

        def lead(zs, xs):
            return np.where((xs == bad)[:, None, None], 0.0, np.eye(2))

        den = DiffOpSeries(0.0, [TermMatrix(lead, 2)], 2, P)
        quo = series_divide(const_series(0.0, [np.eye(2)]), den, 1)
        zs = [0.1, 0.2, 0.3, 0.4]
        xs = [0.2 + 0.1j, 0.4, bad, 0.1]
        with pytest.raises(SingularityError) as exc:
            quo.terms[1].at(zs, xs)
        assert exc.value.point == (0.3, bad)
        assert np.array_equal(quo.terms[0].at(zs[:2], xs[:2]), np.stack([np.eye(2)] * 2))

    def test_memo_answers_repeated_and_overlapping_points(self):
        calls = []

        def fn(zs, xs):
            calls.append(len(zs))
            return (np.asarray(zs) + 2 * np.asarray(xs))[:, None, None] * np.eye(2)

        t = TermMatrix(fn, 2)
        first = t.at([0.1, 0.2, 0.1], [0.3, 0.4, 0.3])
        again = t.at([0.2, 0.5], [0.4, 0.6])
        assert calls == [2, 1]
        assert np.array_equal(first[0], first[2]) and np.array_equal(again[0], first[1])
        assert np.array_equal(t.eval(0.5, 0.6), again[1])
        assert t.at([], []).shape == (0, 2, 2)

    def test_quotients_keep_their_memory_order(self):
        # a norm sums in memory order, so a quotient gathered from the memo
        # must stay column-major as when it is evaluated alone (np.stack
        # keeps it; np.array of the list would not)
        rng = np.random.default_rng(3)
        mats = [np.eye(3) + 0.3 * rng.normal(size=(3, 3)) for _ in range(2)]
        quo = series_divide(const_series(0.0, mats), const_series(0.0, mats[::-1]), 1)
        fresh = quo.terms[1].at([0.1, 0.2], [0.3, 0.4])
        gathered = quo.terms[1].at([0.2, 0.5, 0.1], [0.4, 0.6, 0.3])
        for m in (*fresh, *gathered):
            assert m.flags.f_contiguous and not m.flags.c_contiguous

    def test_cmatmul_is_matmul(self):
        # the clean-up multiply touches nothing of the product
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 3, 4)) + 1j * rng.normal(size=(6, 3, 4))
        b = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
        assert np.array_equal(cmatmul(a, b), np.matmul(a, b))
        out = np.zeros((9, 3, 4), dtype=complex)
        cmatmul(a[::-1], b, out=out[1:7])
        assert np.array_equal(out[1:7], np.matmul(a[::-1], b))
        assert not out[0].any() and not out[7:].any()


def spy_relation(calls):
    """Both sides of a relation over one spy series: each coefficient is a
    leaf (a TermMatrix without inputs) whose function appends the points
    of every call to calls[k]; the sides read it through shift_z, bound_z,
    series_compose, series_divide, series_add and series_scale."""
    rng = np.random.default_rng(11)

    def leaf(k, m):
        def fn(zs, xs):
            calls.setdefault(k, []).append(list(zip(zs.tolist(), xs.tolist())))
            return np.eye(2) + (zs + 2 * xs)[:, None, None] * m

        return TermMatrix(fn, 2)

    s = DiffOpSeries(0.5, [leaf(k, 0.2 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))))
                           for k in range(3)], 2, P)
    lhs = series_divide(series_compose(s.shift_z(0.2), s.bound_z(0.1), 2), s.shift_z(-0.3), 2)
    rhs = series_add(s.bound_z(0.3), series_scale(s.shift_z(0.4), 0.7 - 0.2j), 2)
    return lhs, rhs


def spy_terms(*sides):
    """The call lists of every term below the sides but the read terms,
    which call no function, in the order of a fixed walk: each term's
    function is wrapped to append the points of every call to its list."""
    calls: dict = {}
    todo = [t for side in sides for t in side.terms]
    while todo:
        t = todo.pop()
        if t not in calls:
            calls[t] = []
            todo += [s for s, _ in t.inputs]

    def spy(fn, c):
        def wrapped(zs, xs, *values):
            c.append(list(zip(zs.tolist(), xs.tolist())))
            return fn(zs, xs, *values)

        return wrapped

    spied = []
    for t, c in calls.items():
        if t._fn is not _read:
            t._fn = spy(t._fn, c)
            spied.append(c)
    return spied


class TestRequest:
    def test_a_leaf_is_called_once_on_the_union_of_its_points(self):
        pts = sample_pairs(37, 3)
        calls: dict = {}
        residual = series_max_residual(*spy_relation(calls), 2, pts)
        assert residual > 0
        # the points each leaf is asked for, every compared coefficient
        # asked alone at one point on a relation built afresh
        alone: dict = {}
        for k in range(3):
            for side in (0, 1):
                for z, x in pts:
                    fresh: dict = {}
                    spy_relation(fresh)[side].terms[k].at([z], [x])
                    for n, c in fresh.items():
                        alone.setdefault(n, set()).update(p for points in c for p in points)
        assert sorted(calls) == sorted(alone) == [0, 1, 2]
        for n, c in calls.items():
            assert len(c) == 1
            assert len(c[0]) == len(set(c[0])) and set(c[0]) == alone[n]

    def test_every_term_runs_once_on_the_union_of_its_points(self):
        pts = sample_pairs(37, 3)
        sides = spy_relation({})
        calls = spy_terms(*sides)
        assert series_max_residual(*sides, 2, pts) > 0
        # the points each term is asked for, every compared coefficient
        # asked alone at one point on a relation built afresh
        alone = [set() for _ in calls]
        for k in range(3):
            for side in (0, 1):
                for z, x in pts:
                    fresh = spy_relation({})
                    fresh_calls = spy_terms(*fresh)
                    fresh[side].terms[k].at([z], [x])
                    for a, c in zip(alone, fresh_calls):
                        a.update(p for points in c for p in points)
        assert len(calls) == len(fresh_calls) and all(alone)
        for c, a in zip(calls, alone):
            assert len(c) == 1
            assert len(c[0]) == len(set(c[0])) and set(c[0]) == a

    def test_read_terms_hold_views_of_their_source(self):
        # the shift_z and bound_z reads of the levels, and the levels'
        # reads of the leaf, at every point they hold
        pts = sample_pairs(37, 3)
        leaf, lhs, rhs = level_relation([])
        # the leaf holds the points in reverse order first, so that the
        # levels read them from its block in no order it was filled in
        leaf.at(*np.array(pts[::-1]).T)
        assert series_max_residual(lhs, rhs, 2, pts) > 0
        reads, todo = set(), [t for side in (lhs, rhs) for t in side.terms]
        while todo:
            t = todo.pop()
            if t._fn is _read:
                reads.add(t)
            todo += [s for s, _ in t.inputs]
        assert len(reads) == 3 * 3 + 3
        for t in reads:
            (source, args), = t.inputs
            for z, x in t._cache:
                zs, xs, *_ = args(np.array([z]), np.array([x]))
                assert np.shares_memory(t.at([z], [x]), source.at(zs, xs))


def level_relation(calls):
    """A leaf whose values are [point, 2, 2, level], as a chain trace's,
    the relation's coefficient k reading level k of it through an item,
    and both sides of a relation over that series; the leaf's function
    appends the points of every call to calls."""
    rng = np.random.default_rng(13)
    m = 0.2 * (rng.normal(size=(2, 2, 3)) + 1j * rng.normal(size=(2, 2, 3)))

    def fn(zs, xs):
        calls.append(list(zip(zs.tolist(), xs.tolist())))
        return np.eye(2)[..., None] + (zs + 2 * xs)[:, None, None, None] * m

    leaf = TermMatrix(fn, 2)
    s = DiffOpSeries(0.0, [TermMatrix.read(leaf, lambda zs, xs, k=k: (zs, xs, k), 2)
                           for k in range(3)], 2, P)
    lhs = series_compose(s.shift_z(0.2), s.bound_z(0.1), 2)
    rhs = series_add(s.bound_z(0.3), series_scale(s, 0.7 - 0.2j), 2)
    return leaf, lhs, rhs


class TestLeafItems:
    def test_an_item_is_that_item_of_the_values(self):
        calls: list = []
        leaf = level_relation(calls)[0]
        zs, xs = np.array(sample_pairs(41, 4)).T
        together = leaf.at(zs[:3], xs[:3])
        assert together.shape == (3, 2, 2, 3)
        for k in range(3):
            assert leaf.at(zs[:3], xs[:3], k).tobytes() == together[..., k].tobytes()
            assert leaf.at(zs, xs, k).tobytes() == leaf.at(zs, xs)[..., k].tobytes()
        assert len(calls) == 2
        # points computed together, in order, are a view of their block;
        # reordered, or mixed with points of another call, a copy
        assert np.shares_memory(leaf.at(zs[1:3], xs[1:3], 1), together)
        assert not np.shares_memory(leaf.at(zs[2::-1], xs[2::-1], 1), together)
        assert not np.shares_memory(leaf.at(zs[[3, 0]], xs[[3, 0]], 1), together)

    def test_a_residual_calls_the_leaf_once_on_the_union_of_its_points(self):
        pts = sample_pairs(37, 3)
        calls: list = []
        _, lhs, rhs = level_relation(calls)
        assert series_max_residual(lhs, rhs, 2, pts) > 0
        # every compared coefficient asked alone at one point, on a
        # relation built afresh
        alone: set = set()
        for k in range(3):
            for side in (1, 2):
                for z, x in pts:
                    fresh: list = []
                    level_relation(fresh)[side].terms[k].at([z], [x])
                    alone.update(p for points in fresh for p in points)
        assert len(calls) == 1
        assert len(calls[0]) == len(set(calls[0])) and set(calls[0]) == alone


class TestGather:
    """``at`` reads the memo as a view of one block's contiguous run, by
    one fancy index for other rows of one block, or as a stack of rows
    of several blocks; each gives the values, in the memory order, of
    stacking the rows one by one."""

    @staticmethod
    def stacked(term, zs, xs, item=slice(None)):
        return np.stack([b[i, ..., item] for b, i in map(term._cache.__getitem__, _keys(zs, xs))])

    @pytest.mark.parametrize("column_major", [False, True])
    def test_the_three_cases(self, column_major):
        def fn(zs, xs):  # a quotient's matrices are column-major
            m = np.eye(2) + (zs + 2 * xs)[:, None, None] * np.array([[1, 2j], [0.5, -1]])
            return np.ascontiguousarray(m.swapaxes(1, 2)).swapaxes(1, 2) if column_major else m

        leaf = TermMatrix(fn, 2)
        zs, xs = np.array(sample_pairs(43, 5)).T
        block = leaf.at(zs[:4], xs[:4])
        leaf.at(zs[4:], xs[4:])
        for rows, view in (([1, 2, 3], True), ([3, 0, 2], False), ([2, 4, 1], False)):
            got, ref = leaf.at(zs[rows], xs[rows]), self.stacked(leaf, zs[rows], xs[rows])
            assert np.array_equal(got, ref) and got.strides == ref.strides
            assert np.shares_memory(got, block) == view

    def test_an_item_of_the_three_cases(self):
        leaf = level_relation([])[0]
        zs, xs = np.array(sample_pairs(43, 5)).T
        block = leaf.at(zs[:4], xs[:4])
        leaf.at(zs[4:], xs[4:])
        for rows, view in (([1, 2, 3], True), ([3, 0, 2], False), ([2, 4, 1], False)):
            for k in (1, slice(1, 3)):
                got, ref = leaf.at(zs[rows], xs[rows], k), self.stacked(leaf, zs[rows], xs[rows], k)
                assert np.array_equal(got, ref)
                # a view keeps its block's strides, a copy has those of the stack
                assert np.shares_memory(got, block) if view else got.strides == ref.strides


class TestWorstResidual:
    def test_largest_finite_value(self):
        assert worst_residual([]) == 0.0
        assert worst_residual([1e-12, 3e-9, 2e-10]) == 3e-9

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_is_infinite(self, bad):
        assert worst_residual([1e-12, bad, 2e-10]) == float("inf")
        assert worst_residual([bad, 1e-12]) == float("inf")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf / inf
    def test_series_residual_against_non_finite_series(self, bad):
        ident = DiffOpSeries.identity(2, 1, P)
        broken = const_series(0.0, [np.full((2, 2), bad), np.zeros((2, 2))])
        pts = sample_pairs(37, 2)
        assert series_max_residual(ident, broken, 1, pts) == float("inf")
        assert series_max_residual(broken, ident, 1, pts) == float("inf")
