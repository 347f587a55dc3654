import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from elliptic_baxter import dynamical, packed, yangian
from elliptic_baxter.packed import (
    Lead,
    Product,
    Residual,
    Shift,
    TimesP,
    Weighted,
    evaluate,
)
from elliptic_baxter.polyring import (
    Poly,
    RatFn,
    as_poly,
    denominator,
    exact_residual,
    max_abs,
    numerators,
    poly_rem,
)
from elliptic_baxter.yangian import (
    SPIN_VARIABLE,
    PSeriesMatrix,
    build_module,
    chain_basis,
    eigen_example_residual,
    oscillator_comparison,
    product_residual,
    q_degree_report,
    q_exact_at_p,
    qchar_finite_term,
    qchar_interchange_mismatches,
    qchar_ladder_term,
    qchar_oscillator_term,
    rtt_residual,
    sector_basis,
    tensor_module,
    tq_residual,
    two_site_leading_residual,
    two_site_quadratic,
    yangian_q,
    yangian_qchar,
    yangian_transfer,
)

from chain_oracle import graded_trace, spell
from rmatrix_oracle import matmul, qybe_residual, yangian_r

SITES = (F(2, 3), F(-5, 7))


def leaves(v):
    """The scalar leaves of a value of a nested polynomial ring."""
    if isinstance(v, Poly):
        return [leaf for c in v.coeffs for leaf in leaves(c)]
    return [v]


def leaf_types(v):
    """The nesting of a value with the type of each scalar leaf."""
    if isinstance(v, Poly):
        return tuple(leaf_types(c) for c in v.coeffs)
    return type(v)


def generator_add(p, q):
    """Reference sum: one generator over the indices of the longer
    polynomial, reading a missing coefficient as 0."""
    n = max(len(p.coeffs), len(q.coeffs))
    return Poly((p.coefficient(i) + q.coefficient(i) for i in range(n)))


class TestPolyRing:
    def test_arithmetic_and_shift(self):
        p = Poly((F(1), F(2), F(3)))  # 1 + 2x + 3x^2
        q = Poly((F(-1), F(1)))
        assert (p * q).coefficient(3) == 3
        assert p.shift(F(1, 2))(F(0)) == p(F(1, 2))
        assert p - p == Poly()
        assert poly_rem(p * q + Poly((F(5),)), q) == Poly((F(5),))

    @pytest.mark.parametrize("p,q", [
        (Poly((1, 2, 3)), Poly((4,))),
        (Poly((F(1, 2), F(1, 3))), Poly((F(1, 2), F(-1, 3), F(2)))),
        (Poly((1, F(1, 3), 5)), Poly((F(2, 3), 2))),
        (Poly((Poly((1, F(1, 2))), 2)),
         Poly((3, Poly((F(1, 3),)), Poly((0, 1))))),
        (Poly((1, Poly(), Poly((F(1, 2), 1)))), Poly((Poly((2,)),))),
        (Poly((F(1, 2), Poly((1, 2)))), -Poly((F(1, 2), Poly((1, 2))))),
        (Poly((1, 2, 3)), Poly((4, -2, -3))),
        (Poly(), Poly((Poly((F(1, 7),)),))),
    ], ids=["int", "fraction", "mixed", "nested", "nested-tail",
            "cancel-to-zero", "cancel-top", "zero"])
    def test_add_matches_generator_form(self, p, q):
        for x, y in ((p, q), (q, p)):
            got, ref = x + y, generator_add(x, y)
            assert got == ref
            assert leaf_types(got) == leaf_types(ref)

    def test_nested_coefficients(self):
        inner = Poly((F(1), F(1)))
        outer = Poly((inner, 2))  # (1 + t) + 2x
        assert (outer * outer).coefficient(1) == Poly((F(4), F(4)))
        assert outer.shift(F(1)).coefficient(0) == Poly((F(3), F(1)))

    def test_ratfn_cross_multiplication(self):
        a = RatFn(Poly((F(0), F(2))), Poly((F(2),)))
        b = RatFn(Poly((F(0), F(1))))
        assert a == b
        assert not a == RatFn(Poly((F(1), F(1))))

    def test_numerators_refuse_an_uncleared_leaf(self):
        # int() would truncate 1/3 * 2 to 0
        with pytest.raises(ValueError):
            numerators(F(1, 3), 2)
        with pytest.raises(ValueError):
            numerators(Poly((Poly((F(1, 2), F(1, 3))), F(1, 4))), 4)
        assert numerators(F(-5, 6), 12) == -10
        assert type(numerators(F(4, 2), 3)) is int

    def test_denominator_is_the_lcm_of_the_leaves(self):
        nested = Poly((Poly((F(1, 4), 3)), F(5, 6), Poly((F(7, 10),))))
        assert denominator([nested, F(1, 9), 2]) == 180
        assert denominator([Poly(), 0]) == 1

    @pytest.mark.parametrize("entries", [
        [e for tab in yangian_transfer(
            build_module("ladder", spin=SPIN_VARIABLE, shift=F(1, 4),
                         levels=4), (F(2, 3), F(-5, 7)), 2)[1].tables
         for row in tab for e in row],
        [Poly((F(10**400, 3), F(-1, 10**400))), F(7, 10**400),
         Poly((Poly((F(1, 7), F(10**400))), F(-3, 2 * 10**400)))],
    ], ids=["nested-spin", "magnitudes-1e400"])
    def test_over_inverts_numerators(self, entries):
        assert any(isinstance(c, Poly) for e in entries
                   for c in as_poly(e).coeffs)
        d = denominator(entries)
        assert d > 1
        for e in entries:
            n = numerators(e, d)
            assert all(type(leaf) is int for leaf in leaves(n))
            assert max_abs(n) == max_abs(e) * d


class TestRMatrix:
    def test_displayed_entries(self):
        r = yangian_r(F(3, 4))
        assert r[0][0] == 1 and r[3][3] == 1
        assert r[1][1] == F(3, 7) and r[1][2] == F(4, 7)
        assert r[2][1] == F(4, 7) and r[2][2] == F(3, 7)

    def test_large_argument_limit_is_identity(self):
        z = F(10**12)
        r = yangian_r(z)
        assert abs(r[1][1] - 1) < F(1, 10**11)
        assert abs(r[1][2]) < F(1, 10**11)

    def test_pole_rejected(self):
        with pytest.raises(ZeroDivisionError):
            yangian_r(F(-1))

    @pytest.mark.parametrize("z,w", [(F(3, 7), F(-2, 5)), (F(1, 2), F(5, 3)),
                                     (F(-4, 9), F(7, 11))])
    def test_yang_baxter_exact(self, z, w):
        assert qybe_residual(z, w) == 0

    @pytest.mark.parametrize("z,w", [(F(3, 7), F(-2, 5)), (F(1, 2), F(5, 3)),
                                     (F(-4, 9), F(7, 11)), (F(2), F(0))])
    def test_rtt_r_is_cleared_r(self, z, w):
        # _RTT_R column (a, b), row (c, d) is entry [2c+d-3][2a+b-3] of
        # (z - w + 1) R(z - w)
        r = yangian_r(z - w)
        for (a, b), col in yangian._RTT_R.items():
            for c in (1, 2):
                for d in (1, 2):
                    got = sum(k * z**i * w**j for k, i, j in col.get((c, d), ()))
                    assert got == (z - w + 1) * r[2 * c + d - 3][2 * a + b - 3]

    @pytest.mark.parametrize("z", [F(3, 4), F(-2, 5), F(7, 3)])
    def test_defining_module_is_cleared_r(self, z):
        # T_ab(z)_cd = (z + 1) R(z)_(a,c),(b,d): the spin-1 exchange record
        # is the Yang-Baxter equation of R
        V1 = build_module("finite", spin=1)
        r = yangian_r(z)
        for (a, b), table in V1.act.items():
            t = [[0, 0], [0, 0]]
            for d, images in table.items():
                for c, poly in images:
                    t[c][d] += poly(z)
            for c in (0, 1):
                for d in (0, 1):
                    assert t[c][d] == (z + 1) * r[2 * a + c - 2][2 * b + d - 2]


class TestModules:
    def test_defining_module_tables(self):
        V1 = build_module("finite", spin=1)
        assert V1.act[(1, 1)][0] == ((0, Poly((1, 1))),)
        assert V1.act[(2, 2)][1] == ((1, Poly((1, 1))),)
        assert V1.act[(1, 2)][0] == ((1, Poly((1,))),)
        assert V1.act[(2, 1)][1] == ((0, Poly((1,))),)
        assert (1, 2) not in V1.act or 1 not in V1.act[(1, 2)]

    def test_integer_spin_ladder_restricts_to_finite(self):
        m = 3
        fin = build_module("finite", spin=m)
        lad = build_module("ladder", spin=m, levels=m)
        assert lad.act == fin.act

    def test_commutator_on_lowest_vector(self):
        # lower-then-raise minus raise-then-lower acts as the spin on the
        # lowest vector, by direct expansion of the tables
        m = 4
        X = build_module("finite", spin=m)
        up = X.act[(1, 2)][0]
        down = X.act[(2, 1)][1]
        assert up[0][1] * down[0][1] == Poly((m,))
        assert 0 not in X.act[(2, 1)]

    def test_invalid_constructions(self):
        with pytest.raises(ValueError):
            build_module("finite", spin=F(3, 2))
        with pytest.raises(ValueError):
            build_module("ladder", spin=F(1, 2))
        with pytest.raises(ValueError):
            build_module("unknown")


def nested_rtt_sides(X):
    """Reference exchange walk on nested (w, z) Fraction polynomials, with
    a symbolic spin innermost: for each truncation-safe start vector, the
    two sides R(z - w) T1(z) T2(w) and T2(w) T1(z) R(z - w), with
    (z - w + 1) multiplied through, as dicts keyed (a, b, label)."""
    safe = [v for v in X.basis
            if X.exact or X.weight[v] <= X.levels - 2]

    def lift_z(p):
        # polynomial in z, constant in w
        return Poly((p,))

    def lift_w(p):
        # reinterpret the variable as w: coefficients become z-constants
        return Poly(tuple(Poly((c,)) for c in p.coeffs))

    corner = Poly((Poly((1, 1)), Poly((-1,))))   # z + 1 - w
    mid_d = Poly((Poly((0, 1)), Poly((-1,))))    # z - w
    mid_o = Poly((Poly((1,)),))                  # 1
    rc = {
        (0, 0): {(0, 0): corner},
        (0, 1): {(0, 1): mid_d, (1, 0): mid_o},
        (1, 0): {(0, 1): mid_o, (1, 0): mid_d},
        (1, 1): {(1, 1): corner},
    }

    def apply_slot(state, slot):
        lift = lift_w if slot else lift_z
        out = {}
        for (a, b, lab), poly in state.items():
            for c in (1, 2):
                for lab2, coeff in X.act[(c, b if slot else a)].get(lab, ()):
                    key = (a, c, lab2) if slot else (c, b, lab2)
                    out[key] = out.get(key, Poly()) + lift(coeff) * poly
        return out

    def apply_r(state):
        out = {}
        for (a, b, lab), poly in state.items():
            for (c, d), entry in rc[(a - 1, b - 1)].items():
                key = (c + 1, d + 1, lab)
                out[key] = out.get(key, Poly()) + entry * poly
        return out

    for v in safe:
        for a in (1, 2):
            for b in (1, 2):
                start = {(a, b, v): Poly((Poly((1,)),))}
                yield (apply_r(apply_slot(apply_slot(start, 1), 0)),
                       apply_slot(apply_slot(apply_r(start), 0), 1))


def nested_rtt_residual(X):
    return exact_residual(
        lhs.get(k, Poly()) - rhs.get(k, Poly())
        for lhs, rhs in nested_rtt_sides(X) for k in lhs.keys() | rhs.keys())


def bound_module(m):
    """Two labels of level zero; T11 e1 = m z e0, T12 e0 = m (1 + z) e0 +
    m (z - 1) e1, T22 e0 = -m e0 + m z e1, T21 = 0.  A side of the
    exchange relation attains the coefficient 3 m^2 where the two sides
    differ."""
    return yangian.YangianModule(
        "bound", (0, 1), {0: 0, 1: 0},
        {(1, 1): {1: ((0, Poly((0, m))),)},
         (1, 2): {0: ((0, Poly((m, m))), (1, Poly((-m, m))))},
         (2, 1): {},
         (2, 2): {0: ((0, Poly((-m,))), (1, Poly((0, m))))}},
        exact=True, levels=0)


def spin_module():
    """One label of level zero with T11 = s z, T12 = -z, T21 = -s - s z
    and T22 = -s + s z, s the spin variable: entries of spin degree one,
    so the sides of the exchange relation reach spin degree two."""
    s = SPIN_VARIABLE
    return yangian.YangianModule(
        "spin", (0,), {0: 0},
        {(1, 1): {0: ((0, Poly((0, s))),)},
         (1, 2): {0: ((0, Poly((0, -1))),)},
         (2, 1): {0: ((0, Poly((-s, -s))),)},
         (2, 2): {0: ((0, Poly((-s, s))),)}},
        exact=True, levels=0)


class TestExchangeRelation:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_finite_exact(self, m):
        assert rtt_residual(build_module("finite", spin=m)) == 0.0

    def test_ladder_rational_spin(self):
        assert rtt_residual(
            build_module("ladder", spin=F(5, 3), levels=6)) == 0.0

    def test_ladder_symbolic_spin(self):
        W = build_module("ladder", spin=SPIN_VARIABLE, levels=5)
        assert rtt_residual(W) == 0.0

    def test_oscillator(self):
        assert rtt_residual(build_module("oscillator", levels=6)) == 0.0

    def test_tensor_of_factors(self):
        T = tensor_module(build_module("finite", spin=2),
                          build_module("ladder", spin=F(-1, 2), levels=6))
        assert rtt_residual(T) == 0.0

    def test_flipped_raising_fails(self):
        bad = build_module("ladder", spin=F(5, 3), levels=6,
                           flip_raising=True)
        assert rtt_residual(bad) > 0
        assert rtt_residual(build_module("finite", spin=1, flip_raising=True)) > 0

    def test_too_shallow_rejected(self):
        with pytest.raises(ValueError):
            rtt_residual(build_module("oscillator", levels=1))

    @pytest.mark.parametrize("X", [
        build_module("ladder", spin=F(5, 3), levels=6, flip_raising=True),
        build_module("ladder", spin=F(5, 3), shift=F(1, 4), levels=6,
                     flip_raising=True),
        tensor_module(build_module("finite", spin=2),
                      build_module("ladder", spin=F(-1, 2), levels=6,
                                   flip_raising=True)),
        build_module("ladder", spin=SPIN_VARIABLE, levels=5),
        build_module("ladder", spin=SPIN_VARIABLE, levels=5,
                     flip_raising=True),
        build_module("oscillator", levels=6, flip_raising=True),
        build_module("finite", spin=1, flip_raising=True),
        build_module("ladder", spin=F(-10**18 - 9, 10**18 + 3),
                     shift=F(1, 10**20 + 39), levels=6, flip_raising=True),
        bound_module(2**64 + 1),
    ], ids=["flipped-ladder", "flipped-shifted-ladder", "flipped-tensor",
            "symbolic-ladder", "flipped-symbolic-ladder",
            "flipped-oscillator", "flipped-defining", "large-denominators",
            "python-int-slots"])
    def test_matches_nested_walk(self, X):
        assert rtt_residual(X) == nested_rtt_residual(X)

    def test_attained_bound(self):
        m = 2**40 - 1
        X = bound_module(m)
        worst = max(max_abs(v) for sides in nested_rtt_sides(X)
                    for side in sides for v in side.values())
        assert worst == 3 * m * m
        assert rtt_residual(X) == nested_rtt_residual(X) > 0

    def test_one_relation_read_from_residues(self, monkeypatch):
        # the exchange check is one `evaluate` relation, and one that holds
        # reads 0.0 from its residues alone, without a CRT readback
        calls = []
        for name in ("evaluate", "_crt"):
            f = getattr(packed, name)
            monkeypatch.setattr(packed, name, lambda *args, f=f, name=name:
                                calls.append(name) or f(*args))
        W = build_module("ladder", spin=SPIN_VARIABLE, levels=5)
        assert rtt_residual(W) == 0.0
        assert calls == ["evaluate"]

    def test_one_prime_fewer_is_detected(self, monkeypatch):
        # the primes' product exceeds twice the outline's bound by less
        # than their last prime: without it the largest coefficient of
        # `test_attained_bound` wraps in the symmetric range
        X = bound_module(2**40 - 1)
        ref = nested_rtt_residual(X)
        primes = packed._primes
        monkeypatch.setattr(packed, "_primes", lambda *args: primes(*args)[:-1])
        assert rtt_residual(X) != ref

    def test_spin_axis(self, monkeypatch):
        # the spin rides on the series axis: the sides differ in their top
        # spin coefficient, which an order one short does not read
        X = spin_module()
        assert rtt_residual(X) == nested_rtt_residual(X) == 2.0
        evaluate = packed.evaluate
        monkeypatch.setattr(packed, "evaluate",
                            lambda exprs, order: evaluate(exprs, order - 1))
        assert rtt_residual(X) == 1.0


class TestRandomExchange:
    """`rtt_residual` against the nested walk on random one- and
    two-label modules with entries a + b z, a and b in {0, +-1, +-spin}:
    equal on every module, whether the relation holds or not.  A third of
    the modules are constant in z, which on one label satisfies the
    relation; a second label of level one in an inexact module is not
    truncation-safe."""

    COUNT = 200
    VALUES = (0, 1, -1, SPIN_VARIABLE, -SPIN_VARIABLE)

    def module(self, rng):
        n = rng.randint(1, 2)
        constant = rng.random() < 1 / 3
        act = {}
        for ab in ((1, 1), (1, 2), (2, 1), (2, 2)):
            table = {}
            for lab in range(n):
                rows = []
                for lab2 in range(n):
                    p = Poly((rng.choice(self.VALUES),
                              0 if constant else rng.choice(self.VALUES)))
                    if p:
                        rows.append((lab2, p))
                if rows:
                    table[lab] = tuple(rows)
            act[ab] = table
        weight = {0: 0, 1: rng.randint(0, 1)}
        return yangian.YangianModule("random", tuple(range(n)),
                                     {lab: weight[lab] for lab in range(n)}, act,
                                     exact=rng.random() < 0.5, levels=2)

    def test_against_nested_walk(self):
        rng = random.Random(20261020)
        zero = nonzero = 0
        for _ in range(self.COUNT):
            X = self.module(rng)
            want = nested_rtt_residual(X)
            assert rtt_residual(X) == want
            zero, nonzero = zero + (want == 0), nonzero + (want != 0)
        assert zero > 20 and nonzero > 20


def per_pair_transfer(X, sites, order, skip_cross_sector=True):
    """Reference graded trace: for every pair of strings and every start
    label, propagate the label right to left through all sites."""
    L = len(sites)
    strings = [spell(code, L, (1, 2)) for code in chain_basis(L)]
    shifted = {
        ab: [
            {lab: tuple((lab2, p.shift(a)) for lab2, p in rows)
             for lab, rows in table.items()}
            for a in sites
        ]
        for ab, table in X.act.items()
    }
    by_weight = {}
    for lab, wt in X.weight.items():
        by_weight.setdefault(wt, []).append(lab)
    dim = len(strings)
    tables = [[[Poly() for _ in range(dim)] for _ in range(dim)]
              for _ in range(order + 1)]
    for col, jstr in enumerate(strings):
        for row, istr in enumerate(strings):
            if skip_cross_sector and istr.count(1) != jstr.count(1):
                continue
            ops = [shifted[(istr[l], jstr[l])][l] for l in range(L)]
            for k in range(order + 1):
                total = Poly()
                for lab in by_weight.get(k, ()):
                    state = {lab: Poly((1,))}
                    for l in range(L - 1, -1, -1):
                        nxt = {}
                        for lb, poly in state.items():
                            for lb2, c in ops[l].get(lb, ()):
                                nxt[lb2] = nxt.get(lb2, Poly()) + c * poly
                        state = nxt
                        if not state:
                            break
                    v = state.get(lab)
                    if v:
                        total = total + v
                if total:
                    tables[k][row][col] = total
    return PSeriesMatrix(chain_basis(L), tables, terminates=X.exact)


def sectors(t):
    """The number of indices equal to 1 in each string of the basis of a
    dense chain-basis series, the `chain_basis` of 2^L strings."""
    L = len(t.basis).bit_length() - 1
    return [spell(code, L, (1, 2)).count(1) for code in t.basis]


def oracle_block(t, s):
    """Entries of a dense chain-basis series between strings of sector s,
    in `sector_basis` order."""
    idx = [n for n, sector in enumerate(sectors(t)) if sector == s]
    return [[[tab[r][c] for c in idx] for r in idx] for tab in t.tables]


def cross_sector_entries(t):
    """Entries of a dense chain-basis series linking different sectors."""
    sector = sectors(t)
    return [tab[r][c]
            for tab in t.tables
            for r, rs in enumerate(sector)
            for c, cs in enumerate(sector)
            if rs != cs]


ORACLE_SITES = (F(2, 3), F(-5, 7), F(9, 4), F(-1, 6))
ORACLE_ORDER = 2
ORACLE_MODULES = {
    "finite-1": lambda L: build_module("finite", spin=1),
    "finite-2": lambda L: build_module("finite", spin=2),
    "ladder-rational": lambda L: build_module(
        "ladder", spin=F(5, 3), shift=F(1, 4), levels=ORACLE_ORDER + L),
    "ladder-symbolic": lambda L: build_module(
        "ladder", spin=SPIN_VARIABLE, levels=ORACLE_ORDER + L),
    "oscillator": lambda L: build_module(
        "oscillator", levels=ORACLE_ORDER + L),
    "tensor": lambda L: tensor_module(
        build_module("finite", spin=1),
        build_module("ladder", spin=F(-1, 2), levels=ORACLE_ORDER + L)),
}


class TestBlockTrace:
    """The exact twin's level-block contraction of int coefficient
    polynomials against the dense `chain_oracle.graded_trace` of the same
    entries as `Poly`s in the coefficient axis."""

    SITES = ORACLE_SITES + (F(3, 5), F(7, 2))

    @pytest.mark.parametrize("L", range(1, 7))
    @pytest.mark.parametrize("kind", sorted(ORACLE_MODULES) + ["q"])
    def test_equals_dense_contraction(self, monkeypatch, kind, L):
        seen = []

        def spy(values, slots, levels, plan, traced, where):
            got = dynamical.block_graded_trace(values, slots, levels, plan,
                                               traced, where)
            seen.append((values[where[0]], slots, levels, plan, traced, got[0]))
            return got

        monkeypatch.setattr(yangian, "block_graded_trace", spy)
        sites = self.SITES[:L]
        if kind == "q":
            yangian_q(sites, ORACLE_ORDER)
        else:
            yangian_transfer(ORACLE_MODULES[kind](L), sites, ORACLE_ORDER)
        ((values, slots, levels, plan, traced, got),) = seen
        # the dense entry matrices of the same coefficients, as polynomials
        n = levels[-1]
        polys = np.empty(values.shape[:2], dtype=object)
        polys[...] = [[Poly(c) for c in row] for row in values.tolist()]
        m = np.zeros((len(values), 4 * n * n), dtype=object)
        np.add.at(m, (slice(None), slots), polys)
        ref = graded_trace(m.reshape(-1, 4, n, n), plan, levels[:traced + 1])
        assert values.dtype == got.dtype == np.int64
        assert got.shape == ref.shape + values.shape[2:]
        assert any(v != 0 for v in ref.flat)
        assert all(Poly(c) == r for c, r in zip(got.reshape(-1, got.shape[-1]).tolist(),
                                                ref.flat))
        if kind == "tensor":
            # a tensor module's levels are wider than one label
            assert max(np.diff(levels)) > 1


def poly_site_values(X, a, bound):
    """Reference site values: every entry of X valued at the site a in
    Fraction arithmetic, p.shift(a), or with `bound` p(a) with the spin as
    the outer variable, then cleared over one denominator
    (`packed.cleared`); (d, numerators [cell, outer slot, inner slot]) in
    the order of `X.act`."""
    entries = [p for table in X.act.values() for rows in table.values()
               for _, p in rows]
    return packed.cleared(as_poly(p(a)) if bound else p.shift(a)
                          for p in entries)


SITE_VALUE_MODULES = {
    **{f"finite-{m}": build_module("finite", spin=m) for m in (1, 2, 3)},
    "ladder-int": build_module("ladder", spin=4, shift=F(-3, 11), levels=5),
    "ladder-rational": build_module("ladder", spin=F(5, 3), levels=5),
    "ladder-symbolic": build_module("ladder", spin=SPIN_VARIABLE,
                                    shift=F(1, 4), levels=5),
    "oscillator": build_module("oscillator", shift=F(5, 2), levels=5),
    "ladder-flipped": build_module("ladder", spin=F(5, 3), levels=5,
                                   flip_raising=True),
    "oscillator-flipped": build_module("oscillator", levels=5,
                                       flip_raising=True),
    "finite-ladder": tensor_module(
        build_module("finite", spin=2),
        build_module("ladder", spin=SPIN_VARIABLE * F(-3, 7) + F(2, 9),
                     levels=5)),
}


class TestSiteValues:
    """The integer-array site values of the trace against the entries
    valued in Fraction arithmetic: the same denominator and the same
    numerators, cut to the same slot counts."""

    @pytest.mark.parametrize("bound", [False, True], ids=["shift", "bound"])
    @pytest.mark.parametrize("site", [
        F(-97, 89), F(10**12 + 39, 7), F(2, 3), 3, -2, F(1, 10**20 + 39),
        F(-10**18 - 9, 10**18 + 3)])
    @pytest.mark.parametrize("kind", sorted(SITE_VALUE_MODULES))
    def test_equals_fraction_path(self, kind, site, bound):
        X = SITE_VALUE_MODULES[kind]
        d, nums = yangian._site_values(X, site, bound)
        ref_d, ref = poly_site_values(X, site, bound)
        assert d == ref_d and nums.shape == ref.shape
        assert all(type(v) is int for v in nums.flat)
        assert (nums == ref).all()

    @pytest.mark.parametrize("kind", sorted(SITE_VALUE_MODULES))
    def test_cells_follow_the_action_tables(self, kind):
        X = SITE_VALUE_MODULES[kind]
        labels, cells, _, _ = X.entry_cells
        assert [X.weight[lab] for lab in labels] == \
            sorted(X.weight[lab] for lab in X.basis)
        ref = [(2 * a + b - 3, labels.index(lab2), labels.index(lab))
               for (a, b), table in X.act.items()
               for lab, rows in table.items() for lab2, _ in rows]
        assert [tuple(cell) for cell in cells.tolist()] == ref


class TestTransfer:
    @pytest.mark.parametrize("skip", [True, False])
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", sorted(ORACLE_MODULES))
    def test_matches_per_pair_oracle(self, kind, L, skip):
        X = ORACLE_MODULES[kind](L)
        sites = ORACLE_SITES[:L]
        got = yangian_transfer(X, sites, ORACLE_ORDER)
        ref = per_pair_transfer(X, sites, ORACLE_ORDER, skip_cross_sector=skip)
        assert ref.basis == chain_basis(L) and len(got) == L + 1
        for s, block in enumerate(got):
            assert block.basis == sector_basis(L, s)
            assert block.terminates == ref.terminates
            assert block.tables == oracle_block(ref, s)
        if not skip:
            assert not any(cross_sector_entries(ref))

    def test_single_site_defining_module(self):
        a = F(3, 4)
        t2, t1 = yangian_transfer(build_module("finite", spin=1), (a,), 1)
        # one string per sector, so no entry links (1,) and (2,)
        assert [spell(code, 1, (1, 2)) for code in t1.basis] == [(1,)]
        assert [spell(code, 1, (1, 2)) for code in t2.basis] == [(2,)]
        assert t1.get(0)[0][0] == Poly((a + 1, 1))
        assert t2.get(0)[0][0] == Poly((a, 1))
        assert t1.get(1)[0][0] == Poly((a, 1))
        assert t2.get(1)[0][0] == Poly((a + 1, 1))

    def test_zero_site_rejected(self):
        with pytest.raises(ValueError):
            yangian_transfer(build_module("finite", spin=1), (F(0), F(1)), 0)

    @pytest.mark.parametrize("site", [0.5, 0.5 + 0j])
    def test_inexact_site_rejected(self, site):
        with pytest.raises(ValueError):
            yangian_transfer(build_module("finite", spin=1),
                             (F(2, 3), site), 1)
        with pytest.raises(ValueError):
            yangian_q((site, F(2, 3)), 1)

    def test_shallow_truncation_rejected(self):
        W = build_module("ladder", spin=F(5, 3), levels=3)
        with pytest.raises(ValueError):
            yangian_transfer(W, SITES, 3)

    def test_sector_preservation(self):
        W = build_module("ladder", spin=F(5, 3), levels=6)
        t = per_pair_transfer(W, SITES, 3, skip_cross_sector=False)
        assert not any(cross_sector_entries(t))

    def test_product_rule_exact(self):
        X = build_module("ladder", spin=F(5, 3), levels=7)
        Y = build_module("ladder", spin=F(-1, 2), shift=F(1, 5), levels=7)
        assert product_residual(X, Y, SITES, 4) == 0.0

    def test_product_rule_mixed_kinds(self):
        X = build_module("finite", spin=2)
        Y = build_module("oscillator", levels=6)
        assert product_residual(X, Y, SITES, 3) == 0.0


def fraction_mul(x, y, order):
    """Reference series product: `matmul` on the exact entries, with the
    sum over splittings accumulated in Fraction arithmetic."""
    tables = []
    for k in range(order + 1):
        acc = None
        for m in range(k + 1):
            prod = matmul(x.get(m), y.get(k - m))
            acc = prod if acc is None else [
                [a + b for a, b in zip(ra, rp)] for ra, rp in zip(acc, prod)]
        tables.append(acc)
    return PSeriesMatrix(x.basis, tables, x.terminates and y.terminates)


def entrywise_combine(x, y, f):
    """Reference entrywise f(a, b) of two series, to the lower order."""
    return PSeriesMatrix(x.basis, [
        [[f(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(ta, tb)]
        for ta, tb in zip(x.tables, y.tables)
    ])


def map_entries(x, f):
    """Reference series of f applied to every entry of the Fraction tables."""
    return PSeriesMatrix(x.basis, [[[f(e) for e in row] for row in tab] for tab in x.tables],
                         x.terminates)


def fraction_times_p(x):
    """Reference product by the grading variable: a zero coefficient, then
    the Fraction tables."""
    return PSeriesMatrix(x.basis, [[[Poly()] * x.dim] * x.dim] + x.tables,
                         x.terminates)


def fraction_shift(x, c):
    """Reference Taylor shift of every entry, in Fraction arithmetic."""
    return map_entries(x, lambda p: p.shift(c))


def assert_same_series(got, ref):
    assert got.basis == ref.basis and got.terminates == ref.terminates
    assert got.tables == ref.tables


def value(expr, order):
    """The value of one expression of the packed calculus."""
    return evaluate([expr], order)[0]


class TestIntegerSeriesCalculus:
    """Products, Taylor shifts, leading coefficients and weighted sums
    run on cleared numerators; each must equal its Fraction reference
    exactly."""

    ORDER = 2

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_baxter_and_transfer_sectors(self, L):
        sites = ORACLE_SITES[:L]
        q = yangian_q(sites, self.ORDER)
        t = yangian_transfer(build_module("finite", spin=1), sites, 1)
        osc = yangian_transfer(build_module("oscillator",
                                            levels=self.ORDER + L),
                               sites, self.ORDER)
        w0, w1 = (math.prod((Poly((a + c, 1)) for a in sites),
                            start=Poly((1,))) for c in (0, 1))
        order = self.ORDER
        for s, (qs, ts, bs) in enumerate(zip(q, t, osc)):
            assert_same_series(value(Product(qs, ts), order),
                               fraction_mul(qs, ts, order))
            assert_same_series(value(Product(ts, qs), order),
                               fraction_mul(ts, qs, order))
            for c in (1, -1, F(1, 3)):
                assert_same_series(value(Shift(qs, c), order),
                                   fraction_shift(qs, c))
                assert_same_series(value(Shift(ts, c), order),
                                   fraction_shift(ts, c))
            up, down = Shift(qs, 1), TimesP(Shift(qs, -1))
            for a, b in ((w0, w1), (w0, 0)):
                assert_same_series(
                    value(Weighted(up, down, a, b), order),
                    entrywise_combine(value(up, order), value(down, order),
                                      lambda x, y: x * a + y * b))
            lead = value(Lead(qs, s), order)
            damped = Weighted(Lead(qs, s), TimesP(Lead(qs, s)), 1, -1)
            assert_same_series(value(damped, order), entrywise_combine(
                lead, fraction_times_p(lead), lambda x, y: x - y))
            assert_same_series(value(Product(damped, bs), order),
                               fraction_mul(value(damped, order), bs, order))

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_nested_ladder_transfer(self, L):
        # entries are polynomials in z whose coefficients are polynomials
        # in the spin, as before the spectral variable is bound
        W = build_module("ladder", spin=SPIN_VARIABLE, shift=F(1, 4),
                         levels=self.ORDER + L)
        a, b = Poly((F(1, 3), 1)), Poly((F(-2, 7),))
        order = self.ORDER
        for ts in yangian_transfer(W, ORACLE_SITES[:L], order):
            assert_same_series(value(Product(ts, ts), order),
                               fraction_mul(ts, ts, order))
            for c in (1, F(2, 5)):
                assert_same_series(value(Shift(ts, c), order),
                                   fraction_shift(ts, c))
            assert_same_series(
                value(Weighted(Shift(ts, 1), TimesP(ts), a, b), order),
                entrywise_combine(value(Shift(ts, 1), order),
                                  fraction_times_p(ts),
                                  lambda x, y: x * a + y * b))

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_terminating_times_non_terminating(self, L):
        sites = ORACLE_SITES[:L]
        order = 3
        fin = yangian_transfer(build_module("finite", spin=2), sites, 1)
        osc = yangian_transfer(build_module("oscillator", levels=order + L),
                               sites, order)
        for fs, bs in zip(fin, osc):
            assert fs.terminates and not bs.terminates
            for x, y in ((fs, bs), (bs, fs), (fs, fs)):
                got = value(Product(x, y), order)
                assert_same_series(got, fraction_mul(x, y, order))
            assert value(Product(fs, fs), order).terminates
        with pytest.raises(IndexError):
            value(Product(osc[0], fin[0]), order + 1)


def fraction_residual(x, y, order):
    """Reference residual: the largest exact entry difference."""
    return exact_residual(a - b for k in range(order + 1)
                          for ra, rb in zip(x.get(k), y.get(k))
                          for a, b in zip(ra, rb))


def site_weights(sites):
    """The scalar weights of the TQ relation."""
    return [math.prod((Poly((a + c, 1)) for a in sites), start=Poly((1,)))
            for c in (0, 1)]


LARGE_SITES = (
    (F(1, 10**20 + 39), F(-7, 3**40)),
    (3, F(2**61 - 1, 2**64 + 13), -2, F(-10**18 - 9, 10**18 + 3)),
)


class TestCleared:
    """`packed.cleared`, the one way from exact values to integer
    coefficient arrays: the lcm of the leaf denominators, and each value
    times it as int coefficients [outer slot, inner slot], zero-padded to
    the most slots of any value."""

    SPIN = Poly((Poly((F(1, 2), 1)), 3, Poly((0, 0, F(1, 4)))))
    CASES = {
        "ints": ([3, -2, 0], 1, [[[3]], [[-2]], [[0]]]),
        "fractions": ([F(1, 2), F(-1, 3), 4], 6, [[[3]], [[-2]], [[24]]]),
        "nested-spin": ([SPIN], 4, [[[2, 4, 0], [12, 0, 0], [0, 0, 1]]]),
        "zero": ([Poly(), 0, Poly((Poly(),))], 1, [[[0]], [[0]], [[0]]]),
        "padding": ([Poly((1, F(2, 5), 3)), 5, Poly((Poly((0, 1)),))], 5,
                    [[[5, 0], [2, 0], [15, 0]],
                     [[25, 0], [0, 0], [0, 0]],
                     [[0, 5], [0, 0], [0, 0]]]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_values(self, case):
        values, den, coeffs = self.CASES[case]
        got_den, got = packed.cleared(iter(values))
        assert got_den == den and got.shape == np.shape(coeffs)
        assert all(type(v) is int for v in got.flat)
        assert got.tolist() == coeffs

    def test_three_variables_rejected(self):
        deep = Poly((Poly((Poly((1, 2)),)),))
        with pytest.raises(ValueError):
            packed.cleared([1, deep])
        with pytest.raises(ValueError):
            PSeriesMatrix(((1,),), [[[deep]]])


class TestPackedSeries:
    """The packed calculus against its Fraction references on entries
    with huge denominators, on inputs whose a-priori coefficient bound is
    attained, and on a trace in a dtype too narrow for its bound."""

    @pytest.mark.parametrize("sites", LARGE_SITES,
                             ids=["large-2site", "large-4site"])
    def test_large_denominators(self, sites):
        order = 2
        q = yangian_q(sites, order)
        t = yangian_transfer(build_module("finite", spin=1), sites, 1)
        w0, w1 = site_weights(sites)
        for ts, qs in zip(t, q):
            assert_same_series(value(Product(ts, qs), order),
                               fraction_mul(ts, qs, order))
            for c in (1, -1, F(1, 3), F(-2**64 - 13, 3**40)):
                assert_same_series(value(Shift(qs, c), order),
                                   fraction_shift(qs, c))
            up = value(Shift(qs, 1), order)
            down = value(TimesP(Shift(qs, -1)), order)
            combine = entrywise_combine(up, down, lambda x, y: x * w0 + y * w1)
            assert_same_series(value(Weighted(
                Shift(qs, 1), TimesP(Shift(qs, -1)), w0, w1), order), combine)
            # two series over different denominators
            assert_same_series(
                value(Weighted(Shift(qs, F(1, 3)), ts, w0, F(-1, 3)), order),
                entrywise_combine(fraction_shift(qs, F(1, 3)), ts,
                                  lambda x, y: x * w0 - y * F(1, 3)))
            for rhs in (combine, up):
                assert value(Residual(Product(ts, qs), rhs), order) == \
                    fraction_residual(fraction_mul(ts, qs, order), rhs, order)
            assert value(Residual(qs, ts), 1) == fraction_residual(qs, ts, 1)
        for drop in (False, True):
            # the TQ defect from the Fraction references alone
            ref = max(
                fraction_residual(
                    fraction_mul(ts, qs, order),
                    entrywise_combine(
                        fraction_shift(qs, 1),
                        PSeriesMatrix(qs.basis, [[[Poly()] * qs.dim] * qs.dim]
                                      + fraction_shift(qs, -1).tables),
                        lambda x, y: x * w0 + (0 if drop else y * w1)),
                    order)
                for ts, qs in zip(t, q))
            assert tq_residual(sites, order, drop_second_term=drop, q=q) == ref
            assert (ref > 0) == drop

    def tight(self, m):
        # every coefficient equal and positive: the bounds are attained
        dim, order = 3, 2
        tab = [[Poly((m, m, m))] * dim] * dim
        return PSeriesMatrix(tuple(range(dim)), [tab] * (order + 1)), order

    def diagonal_module(self, c):
        # every entry operator is c times the identity on three labels of
        # level zero: each site's largest row sum is c and every trace
        # sums three diagonal entries, so the contraction's bound
        # 3 * c^L is attained
        basis = (0, 1, 2)
        diag = {lab: ((lab, Poly((c,))),) for lab in basis}
        return yangian.YangianModule(
            "diagonal", basis, dict.fromkeys(basis, 0),
            {ab: diag for ab in ((1, 1), (1, 2), (2, 1), (2, 2))},
            exact=True, levels=0)

    def test_attained_bounds(self):
        x, order = self.tight(2**40 - 1)
        a = Poly((2**20 - 1,) * 3)
        assert_same_series(value(Product(x, x), order),
                           fraction_mul(x, x, order))
        assert_same_series(value(Weighted(x, x, a, a), order),
                           entrywise_combine(x, x, lambda u, v: u * a + v * a))
        assert_same_series(value(Shift(x, 1), order), fraction_shift(x, 1))
        neg = map_entries(x, lambda p: -p)
        assert value(Residual(x, neg), order) == \
            fraction_residual(x, neg, order)
        X = self.diagonal_module(2**40 - 1)
        ref = per_pair_transfer(X, SITES, 0)
        for s, block in enumerate(yangian_transfer(X, SITES, 0)):
            assert block.tables == oracle_block(ref, s)

    # 3 c^2 just below 2^63, and 3 (c + 1)^2 just above it
    EDGE = math.isqrt((2**63 - 1) // 3)

    @pytest.mark.parametrize("c, dtype", [(EDGE, np.int64), (EDGE + 1, object)],
                             ids=["int64", "object"])
    def test_trace_bound_is_attained_around_int64(self, monkeypatch, c, dtype):
        # the contraction's bound 3 c^2 on two sites, attained by every
        # trace: int64 up to 2^63 - 1, Python ints above
        assert (3 * c * c < 2**63) == (dtype is np.int64)
        seen = []

        def spy(values, *args):
            seen.append(values.dtype)
            return dynamical.block_graded_trace(values, *args)

        monkeypatch.setattr(yangian, "block_graded_trace", spy)
        X = self.diagonal_module(c)
        ref = per_pair_transfer(X, SITES, 0)
        got = yangian_transfer(X, SITES, 0)
        assert seen == [dtype]
        assert [block.tables for block in got] == \
            [oracle_block(ref, s) for s in range(len(got))]
        assert max(v for block in got for v in block.slots().flat) == 3 * c * c

    def test_narrow_dtype_is_detected(self, monkeypatch):
        # a trace whose bound is just above 2^63 contracted in int64: the
        # sum of three products wraps, so `test_trace_bound_is_attained_
        # around_int64` sees a dtype that is too narrow
        X = self.diagonal_module(self.EDGE + 1)
        trace = per_pair_transfer(X, SITES, 0)
        monkeypatch.setattr(packed, "int_dtype", lambda bound: np.int64)
        got = yangian_transfer(X, SITES, 0)
        assert [block.tables for block in got] != \
            [oracle_block(trace, s) for s in range(len(got))]

    def tight_relation(self):
        # the TQ shape on `tight` inputs: the product attains its bound,
        # the largest of the relation's, which sets the primes
        x, order = self.tight(2**40 - 1)
        a = Poly((2**20 - 1,) * 3)
        down = fraction_shift(x, -1)
        rhs = entrywise_combine(
            fraction_shift(x, 1),
            PSeriesMatrix(x.basis, [[[Poly()] * x.dim] * x.dim] + down.tables),
            lambda u, v: u * a - v * a)
        ref = fraction_residual(fraction_mul(x, x, order), rhs, order)
        tq = Residual(Product(x, x),
                      Weighted(Shift(x, 1), TimesP(Shift(x, -1)), a, -a))
        return lambda: value(tq, order), ref

    def test_relation_layout_holds_attained_bounds(self):
        relation, ref = self.tight_relation()
        assert relation() == ref > 0

    def attained(self):
        # (expression, reference) pairs of series and residuals whose
        # bounds and degrees are attained: every coefficient of x is
        # 2^40 - 1, and the difference of x and -x is 2x
        x, order = self.tight(2**40 - 1)
        a = Poly((2**20 - 1,) * 3)
        neg = map_entries(x, lambda p: -p)
        return order, {
            "mul": (Product(x, x), fraction_mul(x, x, order)),
            "weighted": (Weighted(x, x, a, a),
                         entrywise_combine(x, x, lambda u, v: u * a + v * a)),
            "residual": (Residual(x, neg), fraction_residual(x, neg, order)),
        }

    def read(self, expr, order):
        got = value(expr, order)
        return got if isinstance(expr, Residual) else got.tables

    def test_one_prime_fewer_is_detected(self, monkeypatch):
        # the primes' product exceeds twice each attained bound by less
        # than their last prime: without it the largest coefficients
        # wrap in the symmetric range
        relation, ref = self.tight_relation()
        order, cases = self.attained()
        primes = packed._primes
        monkeypatch.setattr(packed, "_primes",
                            lambda *args: primes(*args)[:-1])
        assert relation() != ref
        for expr, want in cases.values():
            assert self.read(expr, order) != getattr(want, "tables", want)

    @pytest.mark.parametrize("op", ["mul", "weighted", "residual"])
    def test_one_point_fewer_is_detected(self, monkeypatch, op):
        # D points for a result of outer degree D: the product and the
        # weighted sum read back wrong, and a difference m v (v - 1) that
        # vanishes at the points 0 and 1 reads as a false zero
        order, cases = self.attained()
        expr, want = cases[op]
        m = 2**40 - 1
        x = PSeriesMatrix(self.ONE, [[[Poly((0, -m, m))]]])
        zero = PSeriesMatrix(self.ONE, [[[Poly()]]])
        assert value(Residual(x, zero), 0) == m
        grid = packed._grid
        monkeypatch.setattr(packed, "_grid",
                            lambda results: (grid(results)[0] - 1, grid(results)[1]))
        assert self.read(expr, order) != getattr(want, "tables", want)
        assert value(Residual(x, zero), 0) == 0.0

    ONE = ((1,),)

    def values_of(self, monkeypatch, exprs, order):
        # the operands each residual of `evaluate` saw
        seen, residual = [], PSeriesMatrix.residual

        def spy(x, y, order):
            seen.append((x, y))
            return residual(x, y, order)

        monkeypatch.setattr(PSeriesMatrix, "residual", spy)
        evaluate(exprs, order)
        monkeypatch.setattr(PSeriesMatrix, "residual", residual)
        return seen

    REFUSED = {
        "mul": lambda x, y: x.mul(y, 0),
        "weighted": lambda x, y: x.weighted(y, 1, 1),
        "residual": lambda x, y: x.residual(y, 0),
    }

    @pytest.mark.parametrize("op", REFUSED)
    def test_different_layouts_are_refused(self, monkeypatch, op):
        # values of two evaluations, held at different primes: an
        # operation takes its operands at one evaluation's primes and
        # points
        small = PSeriesMatrix(self.ONE, [[[Poly((1,))]]])
        large = PSeriesMatrix(self.ONE, [[[Poly((2**40,))]]])
        (x, _), = self.values_of(monkeypatch, [Residual(small, small)], 0)
        (y, _), = self.values_of(monkeypatch, [Residual(large, large)], 0)
        assert len(x._chunk.p) != len(y._chunk.p)
        with pytest.raises(ValueError, match="different primes or points"):
            self.REFUSED[op](x, y)

    @pytest.mark.parametrize("op", [*REFUSED, "times_p"])
    def test_operation_outside_evaluate_is_refused(self, monkeypatch, op):
        # a series outside `evaluate` holds its slots and no residues
        x = PSeriesMatrix(self.ONE, [[[Poly((1,))]]])
        (term, _), = self.values_of(monkeypatch, [Residual(x, x)], 0)
        run = self.REFUSED.get(op, lambda x, y: x.times_p())
        for a, b in [(x, x)] if op == "times_p" else [(x, x), (x, term), (term, x)]:
            with pytest.raises(ValueError, match="packed.evaluate"):
                run(a, b)

    def test_prime_dividing_a_denominator_is_skipped(self, monkeypatch):
        # P, the first prime of these evaluations, divides in turn the
        # series' denominator, a shift's w and the weights' denominator;
        # the residues would invert it, so it is skipped
        P = packed._prime_below((1 << 25) - 2)
        assert packed._primes(4, 1, 1) == (P,)
        assert P not in packed._primes(4, 1, 3 * P)
        x = PSeriesMatrix(self.ONE, [[[Poly((1, 1))]]])
        y = PSeriesMatrix(self.ONE, [[[Poly((F(1, P), 1))]]])
        zero = PSeriesMatrix(self.ONE, [[[Poly()]]])
        a = Poly((F(2, P), 1))
        cases = [(Residual(y, zero), 1.0),
                 (Residual(Shift(x, F(1, P)), zero), float(1 + F(1, P))),
                 (Shift(x, F(1, P)), fraction_shift(x, F(1, P))),
                 (Weighted(x, x, a, F(-1, P)),
                  entrywise_combine(x, x, lambda u, v: u * a - v * F(1, P)))]
        chosen, primes = [], packed._primes

        def spy(sums, bound, units):
            chosen.append((primes(sums, bound, 1), primes(sums, bound, units)))
            return chosen[-1][1]

        monkeypatch.setattr(packed, "_primes", spy)
        for expr, ref in cases:
            got = value(expr, 0)
            if isinstance(expr, Residual):
                assert got == ref
            else:
                assert_same_series(got, ref)
        assert len(chosen) == len(cases)
        assert all(free[0] == P not in used for free, used in chosen)


def nested_then_bound_q(sites, order):
    """Reference Baxter operator: the transfer matrix of the symbolic-spin
    ladder, on nested (z, spin) entries, with every entry evaluated at
    z = 0 afterwards."""
    W = build_module("ladder", spin=SPIN_VARIABLE, levels=order + len(sites))
    return [map_entries(t, lambda p: as_poly(p(0)))
            for t in yangian_transfer(W, sites, order)]


class TestRandomExpressions:
    """Differential test of `evaluate` on random expressions over random
    series (one or two variables, terminating or not): every series
    value equals its Fraction oracle, and every residual float equals
    `fraction_residual`, whether the difference is zero or not."""

    COUNT = 200

    def scalar(self, rng):
        return F(rng.randint(-9, 9), rng.randint(1, 6))

    def entry(self, rng, inner):
        # a polynomial in the outer variable whose coefficients are
        # scalars, or polynomials in the inner variable
        coeff = ((lambda: Poly(self.scalar(rng) for _ in range(rng.randint(1, 2))))
                 if inner else (lambda: self.scalar(rng)))
        return Poly(coeff() for _ in range(rng.randint(0, 3)))

    def series(self, rng, dim, order):
        inner = rng.random() < 0.25
        terminates = rng.random() < 0.25
        levels = rng.randint(1, order + 1) if terminates else order + 1
        return PSeriesMatrix(tuple(range(dim)), [
            [[self.entry(rng, inner) for _ in range(dim)] for _ in range(dim)]
            for _ in range(levels)], terminates)

    def weight(self, rng):
        return rng.choice([0, 1, self.scalar(rng),
                           Poly(self.scalar(rng) for _ in range(rng.randint(1, 3)))])

    def expression(self, rng, leaves, depth, order):
        """(expression, oracle series) of a random expression."""
        x = rng.choice(leaves)
        kind = rng.choice(["leaf", "shift", "lead"] if depth == 0 else
                          ["leaf", "shift", "lead", "times_p", "product",
                           "weighted", "weighted"])
        if kind == "leaf":
            return x, x
        if kind == "shift":
            c = rng.choice([1, -1, F(rng.randint(-7, 7), rng.randint(2, 5))])
            return Shift(x, c), fraction_shift(x, c)
        if kind == "lead":
            s = rng.randint(0, 3)
            return Lead(x, s), map_entries(x, lambda p: as_poly(p.coefficient(s)))
        e, ref = self.expression(rng, leaves, depth - 1, order)
        if kind == "times_p":
            return TimesP(e), fraction_times_p(ref)
        f, other = self.expression(rng, leaves, depth - 1, order)
        if kind == "product" and all(r.order >= order or r.terminates
                                     for r in (ref, other)):
            return Product(e, f), fraction_mul(ref, other, order)
        a, b = self.weight(rng), self.weight(rng)
        return Weighted(e, f, a, b), entrywise_combine(
            ref, other, lambda u, v: u * a + v * b)

    # `evaluate`'s chunks: one per evaluation, or down to single (prime,
    # point) rows when a row may hold only one coefficient item
    @pytest.mark.parametrize("batch", [None, 1], ids=["whole", "rows"])
    def test_against_fraction_oracles(self, monkeypatch, batch):
        if batch:
            monkeypatch.setattr(packed, "_BATCH_ITEMS", batch)
        rng = random.Random(20261019)
        zero = nonzero = 0
        for _ in range(self.COUNT):
            dim, order = rng.randint(1, 2), rng.randint(0, 2)
            leaves = [self.series(rng, dim, order) for _ in range(3)]
            expr, ref = self.expression(rng, leaves, rng.randint(0, 3), order)
            got, = evaluate([expr], order)
            assert_same_series(got, ref)
            other = rng.choice([ref, *leaves])
            if all(r.order >= order or r.terminates for r in (ref, other)):
                want = fraction_residual(ref, other, order)
                assert evaluate([Residual(expr, other)], order) == [want]
                zero, nonzero = zero + (want == 0), nonzero + (want != 0)
        assert zero > 20 and nonzero > 20


class TestExactResidual:
    ONE = ((1,),)

    def test_underflowing_defect_is_not_zero(self):
        tiny = PSeriesMatrix(self.ONE, [[[Poly((F(1, 10**400),))]]])
        zero = PSeriesMatrix(self.ONE, [[[Poly()]]])
        assert value(Residual(tiny, zero), 0) > 0

    def test_overflowing_defect_reads_inf(self):
        huge = PSeriesMatrix(self.ONE, [[[Poly((F(10**400),))]]])
        zero = PSeriesMatrix(self.ONE, [[[Poly()]]])
        assert value(Residual(huge, zero), 0) == math.inf


def unpacked_degree_report(sites, order, q):
    """Reference degree report on the Fraction views of Q."""
    out = []
    for s, qs in enumerate(q):
        deg = max((e.degree for k in range(order + 1) for row in qs.get(k)
                   for e in row if e), default=-1)
        p0 = qs.get(0)
        expect = [math.prod((Poly((a, 1)) if il == 1 else Poly((a,))
                             for a, il in zip(sites, spell(code, len(sites), (1, 2)))),
                            start=Poly((1,)))
                  for code in qs.basis]
        out.append(yangian.SectorDegreeData(
            sector=s, degree=deg, degree_matches=(deg == s),
            leading_nonzero=all(p0[i][i].coefficient(s) != 0
                                for i in range(qs.dim)),
            p0_upper_triangular=all(not p0[r][c] for r in range(qs.dim)
                                    for c in range(r)),
            p0_diagonal_matches=all(p0[i][i] == e
                                    for i, e in enumerate(expect))))
    return out


def edited_q(q, edit):
    """Q with the entries an edit (level, cells, f) names replaced by
    f(sector, entry) in its Fraction tables, rebuilt through the
    constructor; cells is "diagonal" or (row, col) pairs, those outside a
    sector skipped."""
    level, cells, f = edit
    out = []
    for s, qs in enumerate(q):
        tables = [[list(row) for row in tab] for tab in qs.tables]
        at = ([(i, i) for i in range(qs.dim)] if cells == "diagonal" else
              [(r, c) for r, c in cells if max(r, c) < qs.dim])
        for r, c in at:
            tables[level][r][c] = f(s, tables[level][r][c])
        out.append(PSeriesMatrix(qs.basis, tables, qs.terminates))
    return out


DEGREE_EDITS = {
    "none": (0, (), None),
    "top-dropped": (0, "diagonal", lambda s, e: Poly(e.coeffs[:s])),
    "lower-entry": (0, ((1, 0),), lambda s, e: Poly((F(1, 3),))),
    "diagonal-off": (0, ((0, 0),), lambda s, e: e + Poly((0, 1))),
    "degree-up": (1, ((0, 0),),
                  lambda s, e: e + Poly((0,) * (s + 1) + (F(2, 5),))),
    # nested entries: a spin coefficient with an inner slot, or constant
    # inner polynomials (equal to the scalars they hold)
    "inner-slot": (0, ((0, 0),), lambda s, e: Poly(
        [Poly((c, F(1, 7))) if j == 0 else c for j, c in enumerate(e.coeffs)])),
    "inner-constant": (0, ((0, 0),),
                       lambda s, e: Poly([Poly((c,)) for c in e.coeffs])),
}


class TestBaxterOperator:
    def test_degree_and_triangularity(self):
        for L, sites in [(1, (F(3, 4),)), (2, SITES),
                         (3, (F(2, 3), F(-5, 7), F(9, 4)))]:
            for d in q_degree_report(sites, order=1):
                assert d.degree_matches and d.leading_nonzero
                assert d.p0_upper_triangular and d.p0_diagonal_matches

    def test_two_site_leading_closed_form(self):
        assert two_site_leading_residual(*SITES, 12) == 0

    @pytest.mark.parametrize("edit", sorted(DEGREE_EDITS))
    @pytest.mark.parametrize("sites", [
        (F(3, 4),), SITES, (F(2, 3), F(-5, 7), F(9, 4)),
        (F(-97, 89), F(10**12 + 39, 7), 3, F(-1, 6))],
        ids=["1site", "2site", "3site", "4site-large"])
    def test_degree_report_matches_fraction_views(self, sites, edit):
        q = edited_q(yangian_q(sites, 2), DEGREE_EDITS[edit])
        for order in (0, 1, 2):
            got = q_degree_report(sites, order, q=q)
            assert got == unpacked_degree_report(sites, order, q)
            assert all(type(getattr(d, verdict)) is bool for d in got
                       for verdict in ("degree_matches", "leading_nonzero",
                                       "p0_upper_triangular",
                                       "p0_diagonal_matches"))

    def test_sector_preservation(self):
        W = build_module("ladder", spin=SPIN_VARIABLE, levels=3 + len(SITES))
        ref = per_pair_transfer(W, SITES, 3, skip_cross_sector=False)
        ref = map_entries(ref, lambda p: as_poly(p(0)))
        assert not any(cross_sector_entries(ref))
        for s, block in enumerate(yangian_q(SITES, 3)):
            assert block.tables == oracle_block(ref, s)

    @pytest.mark.parametrize("sites", [
        ORACLE_SITES[:L] + (F(3, 5), F(7, 2))[:max(0, L - 4)]
        for L in range(1, 7)
    ] + [
        (F(1, 10**20 + 39), F(-7, 3**40)),
        (3, F(2**61 - 1, 2**64 + 13), -2, F(-10**18 - 9, 10**18 + 3)),
    ], ids=[f"{L}site" for L in range(1, 7)] + ["large-2site",
                                                "large-4site"])
    def test_bound_per_site_matches_nested_oracle(self, sites):
        order = 2 if len(sites) < 6 else 1
        got = yangian_q(sites, order)
        ref = nested_then_bound_q(sites, order)
        assert len(got) == len(ref) == len(sites) + 1
        for g, r in zip(got, ref):
            assert_same_series(g, r)

    def test_lower_orders_are_truncations(self):
        # the degree check reads levels 0..1 of a higher-order Q
        for L in range(1, 5):
            sites = ORACLE_SITES[:L]
            low = yangian_q(sites, 1)
            for order in (2, 3):
                high = yangian_q(sites, order)
                assert [qs.tables[:2] for qs in high] == \
                    [qs.tables for qs in low]
                assert q_degree_report(sites, 1, q=high) == \
                    q_degree_report(sites, 1)

    def test_leading_coefficient_is_read_from_q(self, monkeypatch):
        exact_q = yangian.yangian_q

        def top_dropped(sites, order):
            # zero the top spin coefficient of every level-zero diagonal;
            # a changed series is built through the constructor
            blocks = []
            for s, qs in enumerate(exact_q(sites, order)):
                tables = [[list(row) for row in tab] for tab in qs.tables]
                for i in range(qs.dim):
                    tables[0][i][i] = Poly(tables[0][i][i].coeffs[:s])
                blocks.append(PSeriesMatrix(qs.basis, tables, qs.terminates))
            return blocks

        monkeypatch.setattr(yangian, "yangian_q", top_dropped)
        report = q_degree_report(SITES, order=1)
        assert len(report) == len(SITES) + 1
        assert not any(d.leading_nonzero for d in report)

    def test_exact_summation_matches_series(self):
        p = F(1, 7)
        full = q_exact_at_p(SITES, p)
        q = yangian_q(SITES, 60)
        z0 = 0.37
        assert [len(block) for block in full] == [qs.dim for qs in q]
        for block, qs in zip(full, q):
            for r in range(qs.dim):
                for c in range(qs.dim):
                    exact = sum(float(cc) * z0**m
                                for m, cc in enumerate(block[r][c].coeffs))
                    approx = sum(
                        float(p)**k * sum(float(cc) * z0**m for m, cc in
                                          enumerate(qs.get(k)[r][c].coeffs))
                        for k in range(61)
                    )
                    assert abs(exact - approx) < 1e-12 * (1 + abs(exact))

    def test_exact_summation_checks_extra_levels(self, monkeypatch):
        exact_q = yangian.yangian_q

        def perturbed(sites, order):
            # the last level is an extra level of the degree check; a
            # changed series is built through the constructor
            blocks = exact_q(sites, order)
            qs = blocks[1]
            tables = [[list(row) for row in tab] for tab in qs.tables]
            tables[order][0][0] = tables[order][0][0] + Poly((1,))
            blocks[1] = PSeriesMatrix(qs.basis, tables, qs.terminates)
            return blocks

        monkeypatch.setattr(yangian, "yangian_q", perturbed)
        with pytest.raises(ValueError):
            q_exact_at_p(SITES, F(1, 7))

    def test_exact_summation_rejects_unit_point(self):
        with pytest.raises(ZeroDivisionError):
            q_exact_at_p(SITES, F(1))


class TestFunctionalRelations:
    def test_tq_single_site(self):
        assert tq_residual((F(3, 4),), 6) == 0.0

    def test_tq_two_sites(self):
        assert tq_residual(SITES, 6) == 0.0

    def test_tq_three_sites(self):
        assert tq_residual((F(2, 3), F(-5, 7), F(9, 4)), 3) == 0.0

    def test_tq_negative_control(self):
        # the exact magnitudes of the dropped term, so a defect divided by
        # the wrong denominator cannot pass
        assert tq_residual(SITES, 3, drop_second_term=True) \
            == 18.068027210884352
        assert tq_residual((F(2, 3), F(-5, 7), F(9, 4)), 3,
                           drop_second_term=True) == 269.609977324263

    def test_tq_six_sites(self):
        # the first six sites of the exact-twin measurements
        sites = (F(2, 3), F(-5, 7), F(9, 4), F(-1, 6), F(3, 5), F(7, 2))
        q = yangian_q(sites, 3)
        assert tq_residual(sites, 3, q=q) == 0.0
        assert tq_residual(sites, 3, drop_second_term=True, q=q) \
            == 453142.8720238095

    def test_shared_baxter_operator(self):
        sites = (F(2, 3), F(-5, 7), F(9, 4))
        q = yangian_q(sites, 3)
        assert tq_residual(sites, 3, q=q) == 0.0
        assert tq_residual(sites, 3, drop_second_term=True, q=q) \
            == 269.609977324263
        assert oscillator_comparison(sites, 3, q=q) == 0.0
        assert two_site_leading_residual(*SITES, 5,
                                         q=yangian_q(SITES, 5)) == 0

    def test_oscillator_comparison_two_sites(self):
        assert oscillator_comparison(SITES, 10) == 0.0

    def test_oscillator_comparison_three_sites(self):
        assert oscillator_comparison((F(2, 3), F(-5, 7), F(9, 4)), 4) == 0.0


class TestRelationLayout:
    """Each trace series is built once from its coefficient slots
    (`from_slots`); a relation builds none of the series it relates,
    reduces each input series' slots modulo its primes once, outside its
    operations, and reads back nothing inside them; each sector's product
    still runs through `mul`."""

    SITES = ORACLE_SITES
    X = build_module("ladder", spin=F(5, 3), levels=7)
    Y = build_module("ladder", spin=F(-1, 2), shift=F(1, 5), levels=7)

    # (relation, series built per sector: one per transfer series the
    # relation builds, none for the series it relates; input series per
    # sector)
    @pytest.mark.parametrize("relation, built, inputs", [
        (lambda q: tq_residual(ORACLE_SITES, 3, q=q), 1, 2),
        (lambda q: oscillator_comparison(ORACLE_SITES, 3, q=q), 1, 2),
        (lambda q: product_residual(TestRelationLayout.X,
                                    TestRelationLayout.Y, ORACLE_SITES, 3),
         3, 3),
    ], ids=["tq", "oscillator", "product"])
    def test_decode_count(self, monkeypatch, relation, built, inputs):
        q = yangian_q(self.SITES, 3)
        calls, inside, ran = [], [], []

        def spy(name, f):
            def run(*args, **kwargs):
                calls.append((name, bool(inside)))
                return f(*args, **kwargs)
            monkeypatch.setattr(packed, name, run)

        def traced(op):
            def run(*args, **kwargs):
                inside.append(op)
                ran.append(op.__name__)
                try:
                    return op(*args, **kwargs)
                finally:
                    inside.pop()
            return run

        for name in ("from_slots", "_slot_residues", "_crt", "_read"):
            spy(name, getattr(packed, name))
        for name in ("mul", "weighted", "residual", "times_p"):
            monkeypatch.setattr(PSeriesMatrix, name,
                                traced(getattr(PSeriesMatrix, name)))
        assert relation(q) == 0.0
        sectors = len(self.SITES) + 1
        assert calls.count(("from_slots", False)) == built * sectors
        assert calls.count(("_slot_residues", False)) == inputs * sectors
        assert ran.count("mul") == sectors
        # a zero residual is read from its residues alone
        assert ("_crt", False) not in calls
        assert not [name for name, op in calls if op]


class TestStoredForm:
    """Outside `evaluate` a series holds its coefficient slots and no
    residues, whether built by the constructor, by a trace from its
    coefficient slots or returned by a series-valued `evaluate`; slots that
    fit int64 are held as int64, and read as Python ints."""

    def test_every_series_holds_slots_only(self):
        sites, order = ORACLE_SITES[:3], 2
        q = yangian_q(sites, order)
        t = yangian_transfer(build_module("finite", spin=1), sites, 1)
        series = [PSeriesMatrix(((1,),), [[[Poly((F(3, 2), 1))]]]), *q, *t]
        for s, (qs, ts) in enumerate(zip(q, t)):
            series += evaluate([Product(ts, qs), Shift(qs, F(1, 3)),
                                TimesP(Lead(qs, s)), Weighted(qs, ts, 1, -1)],
                               order)
        for x in series:
            stored = set(vars(x))
            assert "_slots" in stored
            assert not stored & {"_res", "_chunk"}
            assert x._slots.dtype == np.int64
            assert all(type(v) is int for v in x.slots().flat)

    def test_large_slots_stay_python_ints(self):
        x = PSeriesMatrix(((1,),), [[[Poly((2**63, -1))]]])
        assert x._slots.dtype == object
        assert x.slots().tolist() == [[[[[2**63]]]], [[[[-1]]]]]
        assert value(Residual(x, x), 0) == 0.0

    def test_negative_coefficient_is_zero(self):
        qs = yangian_q((2, 3), 2)[1]
        zero = [[Poly()] * qs.dim] * qs.dim
        assert qs.get(-1) == zero and qs.get(2) != zero


class TestEigenExample:
    def test_exact_eigenrelation(self):
        assert eigen_example_residual(F(2, 3), F(9, 5), F(1, 3)) == 0.0

    def test_exact_eigenrelation_other_point(self):
        assert eigen_example_residual(F(1, 2), F(7, 4), F(2, 5)) == 0.0

    def test_series_point_zero(self):
        assert eigen_example_residual(F(2, 3), F(9, 5), F(0)) == 0.0

    def test_unit_point_rejected(self):
        with pytest.raises(ValueError):
            eigen_example_residual(F(2, 3), F(9, 5), F(1))

    def test_quadratic_roots_feed_numeric_eigenpair(self):
        a1, a2, p = 0.7, 1.9, 0.3
        quad = two_site_quadratic(F(7, 10), F(19, 10), F(3, 10))
        roots = np.roots([float(quad.coefficient(2)),
                          float(quad.coefficient(1)),
                          float(quad.coefficient(0))])
        A = np.array([
            [a1 + p / (1 - p), 1 / (1 - p)],
            [p / (1 - p), a2 + p / (1 - p)],
        ]) / (1 - p)
        for z1 in roots:
            v = np.array([z1 + a1 + 1, z1 + a2])
            lam = (a1 / (1 - p) + p / (1 - p)**2
                   + (z1 + a2) / ((z1 + a1 + 1) * (1 - p)**2))
            assert np.abs(A @ v - lam * v).max() < 1e-12

    def test_zero_point_root_alignment(self):
        # at the trivial grading point the roots are minus the sites and
        # one eigenvector is a coordinate direction
        a1, a2 = F(2, 3), F(9, 5)
        quad = two_site_quadratic(a1, a2, F(0))
        assert poly_rem(quad, Poly((a1, F(1)))) == Poly()
        assert poly_rem(quad, Poly((a2, F(1)))) == Poly()
        v = (-a2 + a1 + 1, -a2 + a2)  # root -a2
        assert v[1] == 0 and v[0] != 0


class TestQCharacters:
    def test_finite_family(self):
        got = yangian_qchar(build_module("finite", spin=3))
        assert len(got) == 4
        for i, (k1, k2) in enumerate(got):
            r1, r2 = qchar_finite_term(3, i)
            assert k1 == r1 and k2 == r2

    def test_ladder_family_with_shift(self):
        W = build_module("ladder", spin=F(5, 3), shift=F(1, 4), levels=6)
        for i, (k1, k2) in enumerate(yangian_qchar(W)):
            r1, r2 = qchar_ladder_term(F(5, 3), F(1, 4), i)
            assert k1 == r1 and k2 == r2

    def test_oscillator_family(self):
        B = build_module("oscillator", levels=6)
        for i, (k1, k2) in enumerate(yangian_qchar(B)):
            r1, r2 = qchar_oscillator_term(i)
            assert k1 == r1 and k2 == r2

    def test_tensor_not_single_banded(self):
        T = tensor_module(build_module("finite", spin=1),
                          build_module("finite", spin=1))
        with pytest.raises(ValueError):
            yangian_qchar(T)

    def test_interchange_identity(self):
        assert qchar_interchange_mismatches(F(7, 3), F(4, 5), 8) == 0

    def test_interchange_negative_control(self):
        assert qchar_interchange_mismatches(F(7, 3), F(4, 5), 2,
                                            rhs_shift=F(1, 9)) > 0

    def test_factor_multisets_match_cross_multiplication(self):
        # small spins and shifts make cancelling and coinciding factors
        # frequent
        rng = random.Random(5)
        values = [F(v) for v in (-2, -1, 0, 1, 2, 3)] + [F(1, 2), F(-3, 2)]

        def product(terms):
            out = (RatFn(Poly((1,))), RatFn(Poly((1,))))
            for t in terms:
                out = tuple(x * y for x, y in zip(out, qchar_ladder_term(*t)))
            return out

        def draw():
            return [(rng.choice(values), rng.choice(values), rng.randrange(4))
                    for _ in range(rng.randint(1, 3))]

        def scaled(terms):
            # the int triples of the ladders scaled by 2
            return [(int(2 * spin), int(2 * u), 2 * i) for spin, u, i in terms]

        seen = set()
        for _ in range(300):
            a = draw()
            # a reordering, a redraw, or a copy with one term redrawn
            b = rng.choice([rng.sample(a, len(a)), draw(),
                            a[:-1] + draw()[:1]])
            # each component alone: equal first components may cancel
            # different factors
            for x, y, mx, my in zip(product(a), product(b),
                                    yangian._factor_multisets(scaled(a), 2),
                                    yangian._factor_multisets(scaled(b), 2)):
                assert (mx == my) == (x == y)
            equal = product(a) == product(b)
            cancels = any(len(yangian._factor_multisets(scaled([t]), 2)[0]) < 2
                          for t in a)
            seen.add((equal, cancels))
        assert seen == {(True, True), (True, False), (False, True),
                        (False, False)}
