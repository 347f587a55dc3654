"""Truncated graded character ring: weight-monomial pairs up to scalar
equivalence, graded by formal t-powers, with extraction from modules via the
Gauss diagonal, multiplicativity, the spin/spectral interchange identity,
highest-weight classification, and the generalized Baxter decomposition."""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .dynamical import _coset_offset, worst_residual
from .modules import HighestWeightData, build_asymptotic, gauss_decompose, socle
from .theta import (
    EllipticParams,
    SamplePlan,
    ThetaExpression,
    ThetaSum,
    ThetaTable,
    _merge_key,
    flat_terms,
)

_MERGE_TOL = 1e-9
_MATCH_TOL = 1e-6
_MIN_VALID_SAMPLES = 5
_CATEGORY_TOL = 1e-8
# x and z exponents of a highest-weight ratio below this count as zero
_EXPONENT_TOL = 1e-9
_X_REF = 0.2337 + 0.1711j
# ``_deviations`` builds its [pair, component, point] arrays this many pairs at a time
_PAIR_BLOCK = 512


class CategoryConditionError(ValueError):
    """A module fails the triangularity / x-independence requirements that
    make its character well defined."""


@lru_cache(maxsize=32)
def _zgrid(params: EllipticParams) -> tuple[complex, ...]:
    """The z sample grid of every ratio test and probe under ``params``;
    drawn once per parameter set from the fixed seed."""
    return tuple(SamplePlan(seed=173, count=10, pole_margin=5e-2).points(params))


def _rounded(c: complex) -> tuple[float, float]:
    if not c:  # round keeps the sign of a zero
        return (c.real, c.imag)
    return (round(c.real, 9), round(c.imag, 9))


def _form(c: ThetaExpression) -> tuple:
    """The canonical flat form of a canonical expression: (scalar, exp_z,
    exp_x, classes), the classes a dict from each factor's ``_merge_key``
    to (its rounded shift parts, its power)."""
    return (c.scalar, c.exp_z, c.exp_x,
            {_merge_key(f.cz, f.cx, f.shift): (*_rounded(f.shift), f.power) for f in c.factors})


def _form_product(f: tuple, g: tuple) -> tuple:
    """The canonical flat form of the product of two expressions, from
    theirs: scalars multiplied, exponents added, and each class's powers
    summed, a class whose power sums to 0 dropped."""
    classes = dict(f[3])
    for k, (re, im, p) in g[3].items():
        held = classes.get(k)
        if held is None:
            classes[k] = (re, im, p)
        elif held[2] + p:
            classes[k] = (held[0], held[1], held[2] + p)
        else:
            del classes[k]
    return (f[0] * g[0], f[1] + g[1], f[2] + g[2], classes)


def _form_key(f: tuple) -> tuple:
    """The rounded exponents and factor multiset of a form, its classes in
    the order of ``ThetaExpression.canonical``."""
    return (_rounded(f[1]) + _rounded(f[2]),
            tuple((k[0], k[1], re, im, p) for k, (re, im, p) in sorted(f[3].items())))


class _Sym:
    """The symbolic side of a monomial: its class key, the canonical flat
    form of each component (``_form``) and the pair (a+, a-), which a
    product builds from its factors' pairs on first read.  A product's
    forms merge its factors' (``_form_product``); where two factors that
    ``*`` merges reduce or round apart, its key is not that of the
    canonical product pair, and the two compare by their grid values."""

    __slots__ = ("key", "forms", "_pair", "_factors")

    def __init__(self, forms: tuple, weight: complex, pair=None, factors=None):
        self.forms, self._pair, self._factors = forms, pair, factors
        fp, fm = forms
        self.key = (_form_key(fp), _form_key(fm), _rounded(fp[0] * fm[0]), _rounded(weight))

    @staticmethod
    def of_pair(ap: ThetaExpression, am: ThetaExpression, weight: complex) -> "_Sym":
        """The symbolic side of the pair (ap, am), its forms read off the
        canonical forms of its components."""
        return _Sym((_form(ap.canonical()), _form(am.canonical())), weight, pair=(ap, am))

    def times(self, other: "_Sym", weight: complex) -> "_Sym":
        """The symbolic side of the product: the merged forms."""
        return _Sym(tuple(map(_form_product, self.forms, other.forms)), weight,
                    factors=(self, other))

    @property
    def pair(self) -> tuple:
        if self._pair is None:
            a, b = (s.pair for s in self._factors)
            self._pair, self._factors = (a[0] * b[0], a[1] * b[1]), None
        return self._pair


class WeightMonomial:
    """A pair of z-functions carrying a t-weight; the pair is considered up
    to the rescaling (a+, a-) ~ (c*a+, a-/c).

    ``values`` holds both components on the z grid of one parameter set
    (``_zgrid``) as [component, point]; ``ok`` marks the points where both
    are finite.  ``pair`` is the symbolic pair (a+, a-) when both
    components are x-free ``ThetaExpression``s, else None, and ``key`` a
    hashable invariant of its class (None without a pair): the rounded
    factor multisets of the canonical forms of a+ and a-, the rounded
    product of their scalars and the rounded weight.  Build leaf monomials
    with ``monomials``; a product multiplies the values.
    """

    __slots__ = ("values", "ok", "weight", "sym")

    def __init__(self, values: np.ndarray, weight: complex, sym: _Sym | None = None,
                 ok: np.ndarray | None = None):
        self.values = values
        self.ok = np.isfinite(values).all(axis=0) if ok is None else ok
        self.weight = complex(weight)
        self.sym = sym

    @property
    def key(self) -> tuple | None:
        return None if self.sym is None else self.sym.key

    @property
    def pair(self) -> tuple | None:
        return None if self.sym is None else self.sym.pair

    def __mul__(self, other: "WeightMonomial") -> "WeightMonomial":
        weight = self.weight + other.weight
        sym = None
        if self.sym is not None and other.sym is not None:
            sym = self.sym.times(other.sym, weight)
        return WeightMonomial(self.values * other.values, weight, sym)


class _Stack:
    """The terms of one step, stacked in term order: ``values`` [term,
    component, point], ``ok`` [term, point], ``weights`` [term], and per
    term its multiplicity (``mults``) and its ``_Sym`` or None (``syms``)."""

    __slots__ = ("values", "ok", "weights", "mults", "syms")

    def __init__(self, values, ok, weights, mults: list, syms: list):
        self.values, self.ok, self.weights, self.mults, self.syms = values, ok, weights, mults, syms

    @staticmethod
    def of(terms) -> "_Stack":
        """The stack of [monomial, multiplicity] pairs."""
        monos = [m for m, _ in terms]
        return _Stack(np.array([m.values for m in monos]), np.array([m.ok for m in monos]),
                      np.array([m.weight for m in monos], dtype=complex),
                      [n for _, n in terms], [m.sym for m in monos])

    def __len__(self) -> int:
        return len(self.mults)

    def take(self, idx) -> "_Stack":
        idx = list(idx)
        return _Stack(self.values[idx], self.ok[idx], self.weights[idx],
                      [self.mults[i] for i in idx], [self.syms[i] for i in idx])

    def monomial(self, i: int) -> WeightMonomial:
        return WeightMonomial(self.values[i], self.weights[i], self.syms[i], self.ok[i])

    @staticmethod
    def concat(stacks) -> "_Stack":
        stacks = list(stacks)
        return _Stack(*(np.concatenate([getattr(s, a) for s in stacks])
                        for a in ("values", "ok", "weights")),
                      [n for s in stacks for n in s.mults], [y for s in stacks for y in s.syms])


def _leaf_stack(triples, params: EllipticParams) -> _Stack:
    """The monomials of (a+, a-, weight) triples, stacked with multiplicity
    1, every component on the z grid of ``params``, the symbolic ones from
    one masked ``ThetaTable`` pass."""
    triples = list(triples)
    comps = [c for ap, am, _ in triples for c in (ap, am)]
    zs = np.array(_zgrid(params))
    sums = []
    for n, c in enumerate(comps):
        if isinstance(c, np.ndarray):
            if c.shape != zs.shape:
                raise ValueError(f"a component array holds {zs.size} grid values")
        elif isinstance(c, ThetaExpression):
            if not c.is_x_free():
                raise ValueError("monomial components must not depend on x")
            sums.append((n, ThetaSum(c)))
        else:
            raise TypeError(f"a monomial component is a ThetaExpression or an array "
                            f"of grid values, not {type(c).__name__}")
    vals, _ = ThetaTable(flat_terms(sums), len(comps), params).masked_at(
        zs, np.full(zs.shape, _X_REF))
    for n, c in enumerate(comps):
        if isinstance(c, np.ndarray):
            vals[:, n] = c
    values = np.ascontiguousarray(vals.T.reshape(len(triples), 2, zs.size))
    weights = np.array([w for _, _, w in triples], dtype=complex)
    syms = [_Sym.of_pair(ap, am, complex(w))
            if isinstance(ap, ThetaExpression) and isinstance(am, ThetaExpression) else None
            for ap, am, w in triples]
    return _Stack(values, np.isfinite(values).all(axis=1), weights, [1] * len(triples), syms)


def monomials(triples, params: EllipticParams) -> list[WeightMonomial]:
    """The monomials of (a+, a-, weight) triples, every component on the z
    grid of ``params``, the symbolic ones from one masked ``ThetaTable``
    pass.

    A component is an x-free ``ThetaExpression`` or an array of its values
    on the grid; a symbolic component is NaN at a point where it has a
    pole or is not finite.
    """
    stack = _leaf_stack(triples, params)
    return [stack.monomial(i) for i in range(len(stack))]


def monomial_deviation(m1: WeightMonomial, m2: WeightMonomial) -> float:
    """The one equivalence rule of the ring: 0 for equal class keys;
    otherwise the worst ratio-constancy defect on the z grid: both
    component ratios must be z-independent with reciprocal constants.

    A grid point is skipped where a component has a pole or is not finite,
    where a component of m2 is below 1e-13 or any component above 1e13;
    with fewer than ``_MIN_VALID_SAMPLES`` points left the result is inf.
    """
    if abs(m1.weight - m2.weight) > _MERGE_TOL:
        return math.inf
    if m1.key is not None and m1.key == m2.key:
        return 0.0
    (p1, n1), (p2, n2) = m1.values, m2.values
    size = np.abs([p1, n1, p2, n2])
    ok = m1.ok & m2.ok & (size[2:].min(axis=0) >= 1e-13) & (size.max(axis=0) <= 1e13)
    if np.count_nonzero(ok) < _MIN_VALID_SAMPLES:
        return math.inf
    rp = p1[ok] / p2[ok]
    rm = n1[ok] / n2[ok]
    c = rp[0]
    return float(max(np.abs(rp - c).max() / max(1.0, abs(c)), np.abs(rm * c - 1.0).max()))


def _near(a: np.ndarray, bound: float) -> np.ndarray:
    return (a > bound / 4) & (a < bound * 4)


def _deviations(blocks, tol: float) -> list:
    """``monomial_deviation`` of term x of X against term y of Y for the
    (x, y) pairs of each block (X, Y, pairs), from arrays [pair, point]
    of ``_PAIR_BLOCK`` pairs at a time: per block a function of (x, y).
    An entry below 4*tol, or of a pair whose weight difference or some
    component size lies within a factor 4 of the rule's bounds, is
    recomputed by
    ``monomial_deviation`` itself on first read (save a pair of equal keys
    and weights, which it reads as 0): so every deviation below ``tol`` is
    its value, bit for bit, and no other entry is below it."""
    i, j, where, xo, yo = [], [], [], 0, 0
    for bx, by, pairs in blocks:
        where.append({p: len(i) + n for n, p in enumerate(pairs)})
        i += [xo + a for a, _ in pairs]
        j += [yo + b for _, b in pairs]
        xo, yo = xo + len(bx), yo + len(by)
    if not i:  # no pair to read
        return [None] * len(blocks)
    X, Y = (_Stack.concat(b[n] for b in blocks) for n in (0, 1))
    i, j = np.array(i, dtype=int), np.array(j, dtype=int)
    ids: dict[tuple, int] = {}
    kx, ky = (np.array([-1 if s is None else ids.setdefault(s.key, len(ids)) for s in S.syms],
                       dtype=int)[idx] for S, idx in ((X, i), (Y, j)))
    ax, ay = np.abs(X.values), np.abs(Y.values)
    with np.errstate(all="ignore"):
        # per term and point: finite, no component above 1e13, on Y none below 1e-13
        fine_x = X.ok & (ax.max(axis=1) <= 1e13)
        fine_y = Y.ok & (ay.max(axis=1) <= 1e13) & (ay.min(axis=1) >= 1e-13)
    devs = []
    for lo in range(0, len(i), _PAIR_BLOCK):
        bi, bj = i[lo:lo + _PAIR_BLOCK], j[lo:lo + _PAIR_BLOCK]
        x, y, ok = X.values[bi], Y.values[bj], fine_x[bi] & fine_y[bj]
        with np.errstate(all="ignore"):
            rp = x[:, 0] / y[:, 0]
            rm = x[:, 1] / y[:, 1]
            c = rp[np.arange(len(bi)), ok.argmax(axis=1)][:, None]
            dev = np.maximum(np.where(ok, np.abs(rp - c), 0.0).max(axis=1, initial=0.0)
                             / np.maximum(1.0, np.abs(c[:, 0])),
                             np.where(ok, np.abs(rm * c - 1.0), 0.0).max(axis=1, initial=0.0))
        dev[np.count_nonzero(ok, axis=1) < _MIN_VALID_SAMPLES] = np.inf
        devs.append(dev)
    dev = np.concatenate(devs)
    wd = np.abs(X.weights[i] - Y.weights[j])
    same = (kx == ky) & (kx >= 0)
    dev[same] = 0.0
    dev[wd > _MERGE_TOL] = np.inf
    edge_x, edge_y = ((_near(a, 1e-13) | _near(a, 1e13)).any(axis=(1, 2)) for a in (ax, ay))
    recheck = (dev < 4 * tol) | _near(wd, _MERGE_TOL) | edge_x[i] | edge_y[j]
    recheck[same & (wd < _MERGE_TOL / 4)] = False
    dev, recheck = dev.tolist(), recheck.tolist()

    def read(p: int) -> float:
        if recheck[p]:
            dev[p] = monomial_deviation(X.monomial(i[p]), Y.monomial(j[p]))
            recheck[p] = False
        return dev[p]

    return [lambda a, b, at=at: read(at[a, b]) for at in where]


class QCharElement:
    """Finite truncation of a graded character: terms[step] holds the
    terms at t-weight alpha0 - 2*step as a ``_Stack``; steps beyond
    ``depth`` are unknown rather than zero."""

    def __init__(self, alpha0: complex, depth: int, params: EllipticParams):
        self.alpha0, self.depth, self.params = alpha0, depth, params
        self.terms: dict[int, _Stack] = {}

    def add_monomial(self, step: int, mono: WeightMonomial, mult: int = 1) -> None:
        self._add([(step, _Stack.of([(mono, mult)]))])

    def _add(self, news) -> None:
        """Add the terms of each (step, stack) of ``news`` to that step one
        by one, as ``add_monomial`` adds them: a term merges into the first
        term held before it (the step's, then those appended before it)
        within ``_MERGE_TOL``, or is appended.  The [new, held] deviations
        of all steps come from one ``_deviations`` pass."""
        steps = []
        for k, new in news:
            if 0 <= k <= self.depth and len(new):
                kept = self.terms.get(k)
                held = new if kept is None else _Stack.concat((kept, new))
                steps.append((k, new, held, len(held) - len(new)))
        devs = _deviations([(new, held, [(t, j) for t in range(len(new)) for j in range(first + t)])
                            for _, new, held, first in steps], _MERGE_TOL)
        for (k, new, held, first), dev in zip(steps, devs):
            rows, mults = list(range(first)), list(held.mults[:first])
            for t, n in enumerate(new.mults):
                for r, j in enumerate(rows):
                    if dev(t, j) < _MERGE_TOL:
                        mults[r] += n
                        break
                else:
                    rows.append(first + t)
                    mults.append(n)
            self.terms[k] = held.take(rows)
            self.terms[k].mults = mults

    def term_list(self, step: int) -> list[list]:
        """The [monomial, multiplicity] pairs of a step, in term order."""
        s = self.terms.get(step)
        return [] if s is None else [[s.monomial(i), n] for i, n in enumerate(s.mults)]


def qchar_unit(params: EllipticParams, depth: int = 0) -> QCharElement:
    return qchar_one_dim(ThetaExpression(), params, depth)


def mul(A: QCharElement, B: QCharElement, depth: int | None = None) -> QCharElement:
    """The product truncated at the smaller depth (and at ``depth``): the
    products of each target step from one broadcast multiply, added in the
    order (step of A, term of A, term of B)."""
    if A.params != B.params:
        raise ValueError("mismatched parameters")
    top = min(A.depth, B.depth)
    if depth is not None:
        top = min(top, depth)
    out = QCharElement(A.alpha0 + B.alpha0, top, A.params)
    sa = [k for k in sorted(A.terms) if k <= top]
    sb = [k for k in sorted(B.terms) if k <= top]
    if not sa or not sb:
        return out
    a, b = (_Stack.concat(E.terms[k] for k in steps) for E, steps in ((A, sa), (B, sb)))
    oa, ob = ({k: at for k, at in zip(steps, accumulate([0] + [len(E.terms[k]) for k in steps]))}
              for E, steps in ((A, sa), (B, sb)))
    news = []
    for k in range(top + 1):
        ia, ib = [], []
        for ka in sa:
            kb = k - ka
            if kb in ob:
                na, nb = len(A.terms[ka]), len(B.terms[kb])
                ia += [oa[ka] + i for i in range(na) for _ in range(nb)]
                ib += [ob[kb] + j for _ in range(na) for j in range(nb)]
        if not ia:
            continue
        values = a.values[ia] * b.values[ib]
        weights = a.weights[ia] + b.weights[ib]
        syms = [None if x is None or y is None else x.times(y, complex(w))
                for x, y, w in zip((a.syms[i] for i in ia), (b.syms[j] for j in ib), weights)]
        news.append((k, _Stack(values, np.isfinite(values).all(axis=1), weights,
                               [a.mults[i] * b.mults[j] for i, j in zip(ia, ib)], syms)))
    out._add(news)
    return out


def element_add(A: QCharElement, B: QCharElement) -> QCharElement:
    d = _coset_offset(A.alpha0, B.alpha0)
    if d < 0:
        return element_add(B, A)
    top = min(A.depth, B.depth + d)
    out = QCharElement(A.alpha0, top, A.params)
    news = []
    for k in range(top + 1):
        parts = [s for s in (A.terms.get(k), B.terms.get(k - d)) if s is not None]
        if parts:
            news.append((k, _Stack.concat(parts)))
    out._add(news)
    return out


def element_deviation(
    A: QCharElement, B: QCharElement, depth: int | None = None
) -> float:
    """Worst monomial-matching deviation between two elements; inf when the
    term multisets cannot be matched.  Per step, each term of A in order
    takes the terms of B in order that are within ``_MATCH_TOL`` of it, as
    long as both have multiplicity left; the [A, B] deviations of all
    steps come from one ``_deviations`` pass."""
    try:
        d = _coset_offset(A.alpha0, B.alpha0)
    except ValueError:
        return math.inf
    if d < 0:
        return element_deviation(B, A, depth)
    top = min(A.depth, B.depth + d)
    if depth is not None:
        top = min(top, depth)
    steps = [(A.terms.get(k), B.terms.get(k - d) if k - d >= 0 else None)
             for k in range(top + 1)]
    devs = iter(_deviations([(X, Y, [(a, b) for a in range(len(X)) for b in range(len(Y))])
                             for X, Y in steps if X is not None and Y is not None], _MATCH_TOL))
    matched = []
    for X, Y in steps:
        la = list(X.mults) if X is not None else []
        lb = list(Y.mults) if Y is not None else []
        if la and lb:
            dev = next(devs)
            for a in range(len(la)):
                for b in range(len(lb)):
                    if not lb[b]:
                        continue
                    v = dev(a, b)
                    if v < _MATCH_TOL:
                        c = min(la[a], lb[b])
                        la[a] -= c
                        lb[b] -= c
                        matched.append(v)
                        if la[a] == 0:
                            break
        if any(la) or any(lb):
            return math.inf
    return worst_residual(matched)


# ---------------------------------------------------------------------------
# Characters of concrete modules
# ---------------------------------------------------------------------------

def _ladder_characters(specs, depth: int, params: EllipticParams) -> list[QCharElement]:
    """``qchar_asymptotic`` of each (l, u) of ``specs``, all leaves from
    one ``_leaf_stack`` pass."""
    h = params.hbar
    specs = list(specs)
    # the product of three factors is their chain of *: only the last one
    # can cancel a factor, so no merged power passes through 0 and back
    stack = _leaf_stack(((
        ThetaExpression.product(((1, 0, (u + l + 1) * h, 1), (1, 0, u * h, 1),
                                 (1, 0, (u + j) * h, -1))),
        ThetaExpression.theta(1, 0, (u + j + 1) * h),
        l - 2 * j,
    ) for l, u in specs for j in range(depth + 1)), params)
    out = []
    for n, (l, _) in enumerate(specs):
        el = QCharElement(complex(l), depth, params)
        el._add((j, stack.take([n * (depth + 1) + j])) for j in range(depth + 1))
        out.append(el)
    return out


def qchar_asymptotic(
    l: complex, u: complex, depth: int, params: EllipticParams
) -> QCharElement:
    """Closed-form character series of the ladder module of spin l with
    spectral shift u*hbar."""
    return _ladder_characters([(l, u)], depth, params)[0]


def qchar_one_dim(g: ThetaExpression, params: EllipticParams, depth: int = 0) -> QCharElement:
    el = QCharElement(0.0, depth, params)
    el.add_monomial(0, monomials([(g, g, 0.0)], params)[0])
    return el


def qchar_of_module(X) -> QCharElement:
    """Character extracted from the Gauss diagonal of a module.

    K- is L--, and K+ is read level by level off ``modules.gauss_decompose``
    of the module's entry matrices, cut to the levels up to
    ``safe_levels``, from one masked pass over the z grid at x = ``_X_REF``
    and the 3x3 probe points.  A diagonal component is the module's
    symbolic term (``diagonal_terms``) when that is x-free, else its grid
    values (all of a tensor module's, which has no symbolic term).

    Requires both diagonal Gauss blocks to be triangular per weight space
    with nonzero, x-independent diagonal entries; violations raise
    CategoryConditionError.  A pole or an overflow at a probe point raises,
    as ``ThetaTable.at``.
    """
    params = X.params
    basis = X.basis
    safe = X.safe_levels
    size = basis.offset(safe + 1)
    # the grid at _X_REF, then zprobe x xprobe: both conditions are probed
    # there, the strictly lower entries of the diagonal blocks must vanish
    # and the numeric diagonal entries must not depend on x
    grid = _zgrid(params)
    n = len(grid)
    zprobe = grid[:3]
    xprobe = [_X_REF, _X_REF + 0.2931 + 0.171j, _X_REF - 0.2113 + 0.0917j]
    zs = [*grid, *(z for z in zprobe for _ in xprobe)]
    xs = [_X_REF] * n + xprobe * len(zprobe)
    L = X.entry_matrices(zs, xs, safe, masked=True)
    finite = np.isfinite(L).all(axis=(1, 2, 3))
    if not finite[n:].all():
        X.entry_matrices(zs[n:], xs[n:], safe)  # raises PoleError or OverflowError
        raise OverflowError("an L entry overflows at a probe point")
    kplus = np.full((len(zs), size), np.nan, dtype=complex)
    for s, _, kp, _, _ in gauss_decompose(L[finite], basis, safe):
        # the probe points are the last rows of kp, all finite
        for op in (kp[n - len(zs):], L[n:, 3, s, s]):
            a, b = np.nonzero(np.abs(np.tril(op, -1)).max(axis=0) > _CATEGORY_TOL)
            if a.size:
                raise CategoryConditionError(
                    f"Gauss diagonal block is not triangular at entry "
                    f"({s.start + a[0]},{s.start + b[0]})")
        kplus[finite, s] = np.diagonal(kp, axis1=1, axis2=2)
    kminus = np.diagonal(L[:, 3], axis1=1, axis2=2)
    plus_terms, minus_terms = X.diagonal_terms
    # [point, component, index]; per component and index, whether it is
    # zero and whether it depends on x at the probe points
    diag = np.stack([kplus, kminus], axis=1)
    v = diag[n:].reshape(len(zprobe), len(xprobe), 2, size)
    scale = np.maximum(1.0, np.abs(v).max(axis=1))
    x_dependent = (np.abs(v - v[:, :1]).max(axis=1) > _CATEGORY_TOL * scale).any(axis=0)
    zero = ~diag.any(axis=0)
    triples = []
    for idx in range(size):
        comps = []
        for c, term in enumerate((plus_terms[idx], minus_terms[idx])):
            if term is not None and term.is_x_free():
                comps.append(term)
                continue
            if zero[c, idx]:
                raise CategoryConditionError(f"zero Gauss diagonal at index {idx}")
            if x_dependent[c, idx]:
                raise CategoryConditionError(f"x-dependent Gauss diagonal at index {idx}")
            comps.append(diag[:n, c, idx])
        triples.append((*comps, basis.weight(basis.level_of(idx))))
    el = QCharElement(basis.alpha0, safe, params)
    stack = _leaf_stack(triples, params)
    el._add((j, stack.take(range(basis.offset(j), basis.offset(j + 1)))) for j in range(safe + 1))
    return el


def interchange_check(
    l: complex, u: complex, depth: int, params: EllipticParams
) -> float:
    """Deviation between the two ways of distributing a spectral shift over
    a pair of ladder-module characters."""
    a, b, c, d = _ladder_characters(((l, 0.0), (0.0, u), (l - u, u), (u, 0.0)), depth, params)
    return element_deviation(mul(a, b, depth), mul(c, d, depth), depth)


def classify_highest_weight(
    m: WeightMonomial, params: EllipticParams
) -> HighestWeightData | None:
    """Recover (lambda, {alpha_k}, {beta_k}) from a symbolic monomial, or
    None when the component ratio is not a balanced product of z-shifted
    theta factors matching the t-weight."""
    if m.key is None:
        raise ValueError("classification needs symbolic components")
    aplus, aminus = m.pair
    ratio = aplus / aminus
    if abs(ratio.exp_z) > _EXPONENT_TOL or abs(ratio.exp_x) > _EXPONENT_TOL:
        return None
    alphas: list[complex] = []
    betas: list[complex] = []
    for f in ratio.factors:
        if f.cz != 1 or f.cx != 0:
            return None
        val = f.shift / params.hbar
        if f.power > 0:
            alphas.extend([val] * f.power)
        else:
            betas.extend([val] * (-f.power))
    if len(alphas) != len(betas):
        return None
    if abs(sum(alphas) - sum(betas) - m.weight) > 1e-6:
        return None
    lam = cmath.sqrt(aplus.scalar * aminus.scalar)
    if lam == 0:
        return None
    try:
        return HighestWeightData(lam, tuple(alphas), tuple(betas), complex(m.weight))
    except ValueError:
        return None


def generalized_baxter(l: int, depth: int, params: EllipticParams) -> float:
    """Residual of the finite-spin character decomposition into ladder-module
    character ratios, compared after clearing all denominators."""
    if l < 0:
        raise ValueError("spin must be a nonnegative integer")
    h = params.hbar
    qc_v = qchar_of_module(socle(build_asymptotic(float(l), 0.0, max(l, 2), params)))
    qc_w = {j: qchar_asymptotic(float(j), 0.0, depth, params) for j in range(-1, l + 1)}
    qc_d = {
        j: qchar_one_dim(ThetaExpression.theta(1, 0, (j + 1) * h), params)
        for j in range(l + 1)
    }

    def prod(elements):
        acc = None
        for e in elements:
            acc = e if acc is None else mul(acc, e, depth)
        return acc if acc is not None else qchar_unit(params, depth)

    lhs = prod([qc_v] + [qc_w[i] for i in range(l + 1)]
               + [qc_w[i] for i in range(-1, l)])
    rhs = None
    for j in range(l + 1):
        term = prod(
            [qc_d[j], qc_w[l], qc_w[-1]]
            + [qc_w[i] for i in range(l + 1) if i != j]
            + [qc_w[i] for i in range(-1, l) if i != j - 1]
        )
        rhs = term if rhs is None else element_add(rhs, term)
    return element_deviation(lhs, rhs, depth)
