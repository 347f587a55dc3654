import weakref

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
    _gather,
    _read,
    block_graded_trace,
    cmatmul,
    compose_module_ops,
    contraction_plan,
    invert_weightwise,
    request,
    series_add,
    series_compose,
    series_divide,
    series_max_residual,
    series_scale,
    worst_residual,
)
from elliptic_baxter import dynamical, transfer, yangian
from elliptic_baxter.modules import build_asymptotic
from elliptic_baxter.theta import EllipticParams, SamplePlan, ThetaExpression, ThetaSum

from chain_oracle import dict_walk_plan, prefix_major_trace, spell

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


def random_trace_inputs(rng, sites, dtype, points):
    """Arguments of `block_graded_trace` for a random module and plan: 2-5
    levels of dimension 1-3, each key's slots a random part of the
    (row, col) pairs of its level shift (0, s, -s, 0 for s = +-1, as a
    ladder's keys move the level), 30 string pairs, 20 of them in one
    sector, so that their shifts can sum to zero, a `where` whose rows
    repeat and are out of point order, and two NaN complex entries, which
    reach only the products that read their blocks (a product that reads
    a zero block in their place stays finite)."""
    dims = rng.integers(1, 4, size=rng.integers(2, 6))
    levels = np.concatenate([[0], np.cumsum(dims)])
    n, level = int(levels[-1]), np.repeat(np.arange(len(dims)), dims)
    s, slots = rng.choice([-1, 1]), []
    for key, d in enumerate((0, s, -s, 0)):
        rows, cols = np.nonzero(level[:, None] - level[None, :] == d)
        keep = rng.random(len(rows)) < 0.6
        slots += ((key * n + rows[keep]) * n + cols[keep]).tolist()
    rows = rng.integers(0, 1 << sites, size=30)
    cols = [int("".join(rng.permutation(list(f"{code:0{sites}b}"))), 2) for code in rows[:20]]
    plan = contraction_plan(rows, [*cols, *rng.integers(0, 1 << sites, size=10)], sites)
    count = 2 * points  # fewer rows than (point, grid point) pairs
    if dtype == complex:
        values = rng.standard_normal((count, len(slots), 2)) @ [1, 1j]
        values[0, rng.integers(len(slots))] = values[1, rng.integers(len(slots))] = np.nan
    else:
        # int coefficient polynomials, one coefficient that no entry holds
        values = rng.integers(-5, 6, size=(count, len(slots), 3)).astype(dtype)
        values[..., 1] = 0
    where = rng.integers(0, count, size=(points, len(plan[0])))
    return values, slots, levels, plan, int(rng.integers(1, len(dims) + 1)), where


def same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


class TestBlockGradedTrace:
    @pytest.mark.parametrize("batch", [None, 1])
    @pytest.mark.parametrize("dtype", [complex, np.int64])
    @pytest.mark.parametrize("sites", [2, 4, 6])
    def test_point_inner_layout_is_the_prefix_major_one(self, sites, dtype, batch,
                                                        monkeypatch):
        # the point-inner blocks give the former layout's traces bit for
        # bit, whatever the batch, and each point's trace is that of a
        # one-point call
        if batch:
            monkeypatch.setattr(dynamical, "_BATCH_ITEMS", batch)
        rng = np.random.default_rng(sites)
        for _ in range(4):
            args = random_trace_inputs(rng, sites, dtype, points=3)
            got = block_graded_trace(*args)
            assert same_bits(got, prefix_major_trace(*args))
            values, slots, levels, plan, traced, where = args
            for p in range(len(where)):
                one = block_graded_trace(values, slots, levels, plan, traced, where[p:p + 1])
                assert same_bits(got[p], one[0])

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
        ident = const_series(0.0, [np.eye(2)] + [np.zeros((2, 2))] * 3)
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
        inv = series_divide(const_series(0.0, [np.eye(2)] + [np.zeros((2, 2))] * 2), s, 2)
        for z, x in sample_pairs(19, 4):
            # entrywise inverse with argument shifted by -a*hbar
            ref = 1.0 / m.eval(z, x - a * H, P)
            assert abs(inv.terms[0].eval(z, x)[0, 0] - ref) <= 1e-11 * (1 + abs(ref))
        ident = series_compose(s, inv, 2)
        pts = sample_pairs(23, 4)
        unit = const_series(0.0, [np.eye(2)] + [np.zeros((2, 2))] * 2)
        assert series_max_residual(ident, unit, 2, pts) < 1e-9

    def test_invert_full_series_roundtrip(self):
        rng = np.random.default_rng(5)
        mats = [np.eye(3) + 0.2 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
                for _ in range(4)]
        s = const_series(0.4 + 1.2j, mats)
        inv = series_divide(const_series(0.0, [np.eye(3)] + [np.zeros((3, 3))] * 3), s, 3)
        prod = series_compose(s, inv, 3)
        prod2 = series_compose(inv, s, 3)
        pts = sample_pairs(29, 3)
        ident = const_series(0.0, [np.eye(3)] + [np.zeros((3, 3))] * 3)
        assert series_max_residual(prod, ident, 3, pts) < 1e-9
        assert series_max_residual(prod2, ident, 3, pts) < 1e-9

    def test_invert_singular_leading_term(self):
        s = const_series(0.0, [np.zeros((2, 2))])
        inv = series_divide(const_series(0.0, [np.eye(2)] + [np.zeros((2, 2))] * 1), s, 1)
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
        unit = const_series(0.0, [np.eye(3)] + [np.zeros((3, 3))] * 3)
        via_inverse = series_compose(num, series_divide(unit, den, 3), 3)
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

    def test_an_ask_calls_the_function_once_on_its_distinct_points(self):
        calls = []

        def fn(zs, xs):
            calls.append(list(zip(zs.tolist(), xs.tolist())))
            return (np.asarray(zs) + 2 * np.asarray(xs))[:, None, None] * np.eye(2)

        t = TermMatrix(fn, 2)
        first, again = request([(t, [0.1, 0.2, 0.1], [0.3, 0.4, 0.3]), (t, [0.2, 0.5], [0.4, 0.6])])
        assert calls == [[(0.1, 0.3), (0.2, 0.4), (0.5, 0.6)]]
        assert np.array_equal(first[0], first[2]) and np.array_equal(again[0], first[1])
        # a term keeps no values: each ``at`` is a request of its own
        calls.clear()
        alone = t.at([0.1, 0.2, 0.1], [0.3, 0.4, 0.3])
        assert np.array_equal(t.at([0.2, 0.5], [0.4, 0.6]), again)
        assert calls == [[(0.1, 0.3), (0.2, 0.4)], [(0.2, 0.4), (0.5, 0.6)]]
        assert np.array_equal(alone, first)
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


def terms_below(*sides):
    """Every term below the sides' coefficients, in the order of a fixed
    walk."""
    found: dict = {}
    todo = [t for side in sides for t in side.terms]
    while todo:
        t = todo.pop()
        if t not in found:
            found[t] = None
            todo += [s for s, _ in t.inputs]
    return list(found)


def spy_terms(*sides):
    """The call lists of every term below the sides but the read terms,
    which call no function, in the order of a fixed walk: each term's
    function is wrapped to append the points of every call to its list."""
    calls = {t: [] for t in terms_below(*sides)}

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

    def test_values_die_with_the_request(self):
        # a term keeps no values: once the residual returns, no array that
        # its three leaves returned is alive
        pts = sample_pairs(37, 3)
        lhs, rhs = spy_relation({})
        leaves = [t for t in terms_below(lhs, rhs) if not t.inputs]
        assert len(leaves) == 3
        refs = []

        def keep_ref(fn):
            def wrapped(zs, xs):
                vals = fn(zs, xs)
                refs.append(weakref.ref(vals))
                return vals

            return wrapped

        for t in leaves:
            t._fn = keep_ref(t._fn)
        assert series_max_residual(lhs, rhs, 2, pts) > 0
        assert len(refs) == 3
        assert sum(r() is not None for r in refs) == 0

    def test_read_terms_hold_views_of_their_source(self):
        # every read below the sides asks the leaf at the same points in
        # the same order, so each read gathers a contiguous run: the level
        # values the sides' terms are given share the leaf's block
        pts = sample_pairs(37, 3)
        leaf, s = level_series([])
        lhs = series_scale(s.shift_z(0.2), 0.7 - 0.2j)
        rhs = series_add(s.shift_z(0.2), s.shift_z(0.2), 2)
        blocks: list = []
        inputs: list = []

        def spy(fn, values_of):
            def wrapped(zs, xs, *values):
                out = fn(zs, xs, *values)
                values_of(out, values)
                return out

            return wrapped

        leaf._fn = spy(leaf._fn, lambda block, _: blocks.append(block))
        for t in terms_below(lhs, rhs):
            if t.inputs and t._fn is not _read:
                t._fn = spy(t._fn, lambda _, values: inputs.extend(values))
        assert series_max_residual(lhs, rhs, 2, pts) > 0
        (block,) = blocks
        assert len(inputs) == 3 + 2 * 3
        assert all(np.shares_memory(v, block) for v in inputs)


def level_series(calls):
    """A leaf whose values are [point, 2, 2, level], as a chain trace's,
    and the series whose coefficient k reads level k of it through an
    item; the leaf's function appends the points of every call to calls."""
    rng = np.random.default_rng(13)
    m = 0.2 * (rng.normal(size=(2, 2, 3)) + 1j * rng.normal(size=(2, 2, 3)))

    def fn(zs, xs):
        calls.append(list(zip(zs.tolist(), xs.tolist())))
        return np.eye(2)[..., None] + (zs + 2 * xs)[:, None, None, None] * m

    leaf = TermMatrix(fn, 2)
    return leaf, DiffOpSeries(0.0, [TermMatrix.read(leaf, lambda zs, xs, k=k: (zs, xs, k), 2)
                                    for k in range(3)], 2, P)


def level_relation(calls):
    """The leaf of ``level_series`` and both sides of a relation over
    that series."""
    leaf, s = level_series(calls)
    lhs = series_compose(s.shift_z(0.2), s.bound_z(0.1), 2)
    rhs = series_add(s.bound_z(0.3), series_scale(s, 0.7 - 0.2j), 2)
    return leaf, lhs, rhs


class TestLeafItems:
    def test_an_item_is_that_item_of_the_values(self):
        calls: list = []
        leaf = level_relation(calls)[0]
        zs, xs = np.array(sample_pairs(41, 4)).T
        together = leaf.at(zs, xs)
        assert together.shape == (4, 2, 2, 3)
        for k in (0, 1, 2, slice(1, 3)):
            assert leaf.at(zs, xs, k).tobytes() == together[..., k].tobytes()
            assert leaf.at(zs[2::-1], xs[2::-1], k).tobytes() == together[2::-1, ..., k].tobytes()
        assert len(calls) == 9

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
    """``_gather`` reads a block's rows as a view of a contiguous run, or
    by one fancy index for any other order; either gives the values, in
    the memory order, of stacking the rows one by one."""

    @staticmethod
    def stacked(block, rows, item=slice(None)):
        return np.stack([block[i, ..., item] for i in rows])

    CASES = (([1, 2, 3], True), ([0], True), ([3, 0, 2], False), ([2, 4, 1], False),
             ([1, 1], False))

    @pytest.mark.parametrize("quotient", [False, True])
    def test_the_two_cases(self, quotient):
        zs, xs = np.array(sample_pairs(43, 5)).T
        rng = np.random.default_rng(3)
        mats = [np.eye(2) + 0.3 * rng.normal(size=(2, 2)) for _ in range(2)]
        if quotient:  # a quotient's matrices are column-major
            block = series_divide(const_series(0.0, mats), const_series(0.0, mats[::-1]), 1
                                  ).terms[1].at(zs, xs)
            assert all(m.flags.f_contiguous and not m.flags.c_contiguous for m in block)
        else:
            block = np.eye(2) + zs[:, None, None] * mats[0]
        for rows, view in self.CASES:
            got, ref = _gather(block, rows), self.stacked(block, rows)
            assert np.array_equal(got, ref) and got.strides == ref.strides
            assert np.shares_memory(got, block) == view

    def test_an_item_of_the_two_cases(self):
        zs, xs = np.array(sample_pairs(43, 5)).T
        block = level_relation([])[0].at(zs, xs)
        for rows, view in self.CASES:
            for k in (1, slice(1, 3)):
                got, ref = _gather(block, rows, k), self.stacked(block, rows, k)
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
        ident = const_series(0.0, [np.eye(2)] + [np.zeros((2, 2))] * 1)
        broken = const_series(0.0, [np.full((2, 2), bad), np.zeros((2, 2))])
        pts = sample_pairs(37, 2)
        assert series_max_residual(ident, broken, 1, pts) == float("inf")
        assert series_max_residual(broken, ident, 1, pts) == float("inf")
