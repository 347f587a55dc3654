"""Truncated graded character ring: weight-monomial pairs up to scalar
equivalence, graded by formal t-powers, with extraction from modules via the
Gauss diagonal, multiplicativity, the spin/spectral interchange identity,
highest-weight classification, and the generalized Baxter decomposition."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dynamical import _coset_offset, cmatmul, worst_residual
from .modules import HighestWeightData, build_asymptotic, socle
from .theta import (
    EllipticParams,
    SamplePlan,
    ThetaExpression,
    ThetaSum,
    ThetaTable,
)

_MERGE_TOL = 1e-9
_MATCH_TOL = 1e-6
_MIN_VALID_SAMPLES = 5
_CATEGORY_TOL = 1e-8
# x and z exponents of a highest-weight ratio below this count as zero
_EXPONENT_TOL = 1e-9
_X_REF = 0.2337 + 0.1711j


class CategoryConditionError(ValueError):
    """A module fails the triangularity / x-independence requirements that
    make its character well defined."""


@lru_cache(maxsize=32)
def _zgrid(params: EllipticParams) -> tuple[complex, ...]:
    """The z sample grid of every ratio test and probe under ``params``;
    drawn once per parameter set from the fixed seed."""
    return tuple(SamplePlan(seed=173, count=10, pole_margin=5e-2).points(params))


def _rounded(c: complex) -> tuple[float, float]:
    return (round(c.real, 9), round(c.imag, 9))


def _factor_key(c: ThetaExpression) -> tuple:
    """Rounded factor multiset of a canonical form, scalar excluded."""
    return (_rounded(c.exp_z) + _rounded(c.exp_x),
            tuple((f.cz, f.cx, *_rounded(f.shift), f.power) for f in c.factors))


def _fmt_c(c: complex) -> str:
    c = complex(c)
    if abs(c.imag) < 1e-12:
        r = c.real
        return str(int(r)) if abs(r - round(r)) < 1e-12 else f"{r:.6g}"
    return f"({c.real:.6g}{c.imag:+.6g}i)"


def format_component(comp) -> str:
    """Bracket-notation rendering of one monomial component."""
    if not isinstance(comp, ThetaExpression):
        return "<numeric(z)>"
    parts = []
    if abs(comp.scalar - 1) > 1e-12:
        parts.append(_fmt_c(comp.scalar))
    if comp.exp_z != 0 or comp.exp_x != 0:
        parts.append(f"exp({_fmt_c(comp.exp_z)}z+{_fmt_c(comp.exp_x)}x)")
    for f in comp.factors:
        terms = []
        if f.cz:
            terms.append("z" if f.cz > 0 else "-z")
        if f.cx:
            terms.append("x" if f.cx > 0 else "-x")
        if f.shift != 0 or not terms:
            terms.append(_fmt_c(f.shift))
        arg = terms[0] + "".join(
            t if t.startswith("-") else "+" + t for t in terms[1:])
        body = f"theta({arg})"
        parts.append(body if f.power == 1 else f"{body}^{f.power}")
    return "*".join(parts) if parts else "1"


class WeightMonomial:
    """A pair of z-functions carrying a t-weight; the pair is considered up
    to the rescaling (a+, a-) ~ (c*a+, a-/c).

    ``values`` holds both components on the z grid of one parameter set
    (``_zgrid``) as [component, point]; ``ok`` marks the points where both
    are finite.  ``pair`` is the symbolic pair (a+, a-) when both
    components are x-free ``ThetaExpression``s, else None, and ``key`` a
    hashable invariant of its class (None without a pair).  Build leaf
    monomials with ``monomials``; a product multiplies the values.
    """

    __slots__ = ("values", "ok", "weight", "pair", "key")

    def __init__(self, values: np.ndarray, weight: complex, pair=None):
        self.values = values
        self.ok = np.isfinite(values).all(axis=0)
        self.weight = complex(weight)
        self.pair = pair
        self.key = None
        if pair is not None:
            ap, am = (c.canonical() for c in pair)
            self.key = (_factor_key(ap), _factor_key(am),
                        _rounded(ap.scalar * am.scalar), _rounded(self.weight))

    def __mul__(self, other: "WeightMonomial") -> "WeightMonomial":
        pair = None
        if self.pair is not None and other.pair is not None:
            pair = (self.pair[0] * other.pair[0], self.pair[1] * other.pair[1])
        return WeightMonomial(self.values * other.values, self.weight + other.weight, pair)

    def __repr__(self):
        ap, am = self.pair or (None, None)
        return f"[{format_component(ap)}, {format_component(am)}]t^{_fmt_c(self.weight)}"


def monomials(triples, params: EllipticParams) -> list[WeightMonomial]:
    """The monomials of (a+, a-, weight) triples, every component on the z
    grid of ``params``, the symbolic ones from one masked ``ThetaTable``
    pass.

    A component is an x-free ``ThetaExpression``, a ``ThetaSum`` read at
    x = ``_X_REF``, or an array of its values on the grid; a symbolic
    component is NaN at a point where it has a pole or is not finite.
    """
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
        elif isinstance(c, ThetaSum):
            sums.append((n, c))
        else:
            raise TypeError(f"a monomial component is a ThetaExpression, a ThetaSum "
                            f"or an array of grid values, not {type(c).__name__}")
    vals, _ = ThetaTable(sums, len(comps), params).masked_at(zs, np.full(zs.shape, _X_REF))
    for n, c in enumerate(comps):
        if isinstance(c, np.ndarray):
            vals[:, n] = c
    out = []
    for v, (ap, am, w) in zip(vals.T.reshape(len(triples), 2, zs.size), triples):
        symbolic = isinstance(ap, ThetaExpression) and isinstance(am, ThetaExpression)
        out.append(WeightMonomial(v, w, (ap, am) if symbolic else None))
    return out


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


@dataclass
class QCharElement:
    """Finite truncation of a graded character: terms[step] is a list of
    [monomial, multiplicity] pairs at t-weight alpha0 - 2*step; steps beyond
    ``depth`` are unknown rather than zero."""

    alpha0: complex
    depth: int
    params: EllipticParams
    terms: dict[int, list[list]] = field(default_factory=dict)

    def add_monomial(self, step: int, mono: WeightMonomial, mult: int = 1) -> None:
        if step < 0 or step > self.depth:
            return
        row = self.terms.setdefault(step, [])
        for pair in row:
            if monomial_deviation(mono, pair[0]) < _MERGE_TOL:
                pair[1] += mult
                return
        row.append([mono, mult])

    def term_list(self, step: int) -> list[list]:
        return self.terms.get(step, [])

    def leading(self) -> WeightMonomial:
        for k in sorted(self.terms):
            row = self.terms[k]
            if row:
                return row[0][0]
        raise ValueError("empty element")

    def weight_of_step(self, step: int) -> complex:
        return self.alpha0 - 2 * step


def qchar_unit(params: EllipticParams, depth: int = 0) -> QCharElement:
    return qchar_one_dim(ThetaExpression(), params, depth)


def mul(A: QCharElement, B: QCharElement, depth: int | None = None) -> QCharElement:
    if A.params != B.params:
        raise ValueError("mismatched parameters")
    top = min(A.depth, B.depth)
    if depth is not None:
        top = min(top, depth)
    out = QCharElement(A.alpha0 + B.alpha0, top, A.params)
    for ka in sorted(A.terms):
        if ka > top:
            continue
        for kb in sorted(B.terms):
            k = ka + kb
            if k > top:
                continue
            for ma, na in A.terms[ka]:
                for mb, nb in B.terms[kb]:
                    out.add_monomial(k, ma * mb, na * nb)
    return out


def element_add(A: QCharElement, B: QCharElement) -> QCharElement:
    d = _coset_offset(A.alpha0, B.alpha0)
    if d < 0:
        return element_add(B, A)
    top = min(A.depth, B.depth + d)
    out = QCharElement(A.alpha0, top, A.params)
    for k, row in A.terms.items():
        if k <= top:
            for m, n in row:
                out.add_monomial(k, m, n)
    for k, row in B.terms.items():
        if k + d <= top:
            for m, n in row:
                out.add_monomial(k + d, m, n)
    return out


def element_deviation(
    A: QCharElement, B: QCharElement, depth: int | None = None
) -> float:
    """Worst monomial-matching deviation between two elements; inf when the
    term multisets cannot be matched."""
    try:
        d = _coset_offset(A.alpha0, B.alpha0)
    except ValueError:
        return math.inf
    if d < 0:
        return element_deviation(B, A, depth)
    top = min(A.depth, B.depth + d)
    if depth is not None:
        top = min(top, depth)
    matched = []
    for k in range(top + 1):
        la = [[m, n] for m, n in A.term_list(k)]
        lb = [[m, n] for m, n in B.term_list(k - d)] if k - d >= 0 else []
        for pa in la:
            for pb in lb:
                if not pb[1]:
                    continue
                dev = monomial_deviation(pa[0], pb[0])
                if dev < _MATCH_TOL:
                    c = min(pa[1], pb[1])
                    pa[1] -= c
                    pb[1] -= c
                    matched.append(dev)
                    if pa[1] == 0:
                        break
        if any(p[1] for p in la) or any(p[1] for p in lb):
            return math.inf
    return worst_residual(matched)


# ---------------------------------------------------------------------------
# Characters of concrete modules
# ---------------------------------------------------------------------------

def qchar_asymptotic(
    l: complex, u: complex, depth: int, params: EllipticParams
) -> QCharElement:
    """Closed-form character series of the ladder module of spin l with
    spectral shift u*hbar."""
    h = params.hbar
    el = QCharElement(complex(l), depth, params)
    leaves = monomials(((
        ThetaExpression.theta(1, 0, (u + l + 1) * h)
        * ThetaExpression.theta(1, 0, u * h)
        * ThetaExpression.theta(1, 0, (u + j) * h, -1),
        ThetaExpression.theta(1, 0, (u + j + 1) * h),
        l - 2 * j,
    ) for j in range(depth + 1)), params)
    for j, m in enumerate(leaves):
        el.add_monomial(j, m)
    return el


def qchar_one_dim(g: ThetaExpression, params: EllipticParams, depth: int = 0) -> QCharElement:
    el = QCharElement(0.0, depth, params)
    el.add_monomial(0, monomials([(g, g, 0.0)], params)[0])
    return el


def qchar_of_module(X) -> QCharElement:
    """Character extracted from the Gauss diagonal of a module.

    K- is L--, and K+ = L++ - L+- (L--)^-1 L-+ with every factor at the
    same (z, x): the x-shifts of the composition rule cancel.  On the
    diagonal block of level j only L--, L+- and L-+ of levels j-1 and j
    enter, so K+ is solved level by level on the module's L tables, cut to
    the levels up to ``safe_levels`` (``leading_table``), from one masked
    pass over the z grid at x = ``_X_REF`` and the 3x3 probe points.
    A diagonal component is its x-free symbolic term when it is one (every
    K- entry, and a K+ entry with no L-+ entry in its column), else its
    grid values.

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
    table = X.leading_table(size)
    L, bad = table.masked_at(zs, xs)
    L = L.reshape(len(zs), 4, size, size)
    finite = ~bad
    if bad[n:].any():
        table.at(zs[n:], xs[n:])  # raises PoleError or OverflowError
        raise OverflowError("an L entry overflows at a probe point")
    km = X.L["--"].entries
    for idx in range(size):
        if not km.get((idx, idx)):
            raise CategoryConditionError(f"zero Gauss diagonal at index {idx}")
    kplus = np.full((len(zs), size), np.nan, dtype=complex)
    for s, kp in _kplus_blocks(L[finite], basis, safe):
        # the probe points are the last rows of kp, all finite
        for op in (kp[n - len(zs):], L[n:, 3, s, s]):
            a, b = np.nonzero(np.abs(np.tril(op, -1)).max(axis=0) > _CATEGORY_TOL)
            if a.size:
                raise CategoryConditionError(
                    f"Gauss diagonal block is not triangular at entry "
                    f"({s.start + a[0]},{s.start + b[0]})")
        kplus[finite, s] = np.diagonal(kp, axis1=1, axis2=2)
    kminus = np.diagonal(L[:, 3], axis1=1, axis2=2)
    # a K+ diagonal entry with no L-+ entry in its column is its L++ entry
    corrected = {b for (_, b), t in X.L["-+"].entries.items() if t}
    triples = []
    for idx in range(size):
        plus = None if idx in corrected else X.L["++"].entries.get((idx, idx), ThetaSum.zero())
        comps = []
        for entry, vals in ((plus, kplus[:, idx]), (km[(idx, idx)], kminus[:, idx])):
            if not (vals.any() if entry is None else entry):
                raise CategoryConditionError(f"zero Gauss diagonal at index {idx}")
            term = None if entry is None else _x_free_term(entry)
            if term is not None:
                comps.append(term)
                continue
            v = vals[n:].reshape(len(zprobe), len(xprobe))
            scale = np.maximum(1.0, np.abs(v).max(axis=1))
            if (np.abs(v - v[:, :1]).max(axis=1) > _CATEGORY_TOL * scale).any():
                raise CategoryConditionError(f"x-dependent Gauss diagonal at index {idx}")
            comps.append(vals[:n])
        triples.append((*comps, basis.weight(basis.level_of(idx))))
    el = QCharElement(basis.alpha0, safe, params)
    for idx, m in enumerate(monomials(triples, params)):
        el.add_monomial(basis.level_of(idx), m)
    return el


def _kplus_blocks(L: np.ndarray, basis, top: int):
    """(slice, K+ block) of the levels 0..top from the L tables
    [point, key, row, col]: K+_j = L++_jj - L+-_{j,j-1} (L--_{j-1})^-1 L-+_{j-1,j}."""
    pp, pm, mp, mm = (L[:, k] for k in range(4))
    for j in range(top + 1):
        s = slice(basis.offset(j), basis.offset(j + 1))
        kp = pp[:, s, s]
        if j:
            r = slice(basis.offset(j - 1), s.start)
            kp = kp - cmatmul(pm[:, s, r], np.linalg.solve(mm[:, r, r], mp[:, r, s]))
        yield s, kp


def _x_free_term(s: ThetaSum) -> ThetaExpression | None:
    """The single term of a Gauss diagonal entry when it is x-free, else
    None."""
    t = s.single()
    return t if t is not None and t.is_x_free() else None


def interchange_check(
    l: complex, u: complex, depth: int, params: EllipticParams
) -> float:
    """Deviation between the two ways of distributing a spectral shift over
    a pair of ladder-module characters."""
    lhs = mul(qchar_asymptotic(l, 0.0, depth, params),
              qchar_asymptotic(0.0, u, depth, params), depth)
    rhs = mul(qchar_asymptotic(l - u, u, depth, params),
              qchar_asymptotic(u, 0.0, depth, params), depth)
    return element_deviation(lhs, rhs, depth)


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
