"""Truncated graded character ring: weight-monomial pairs up to scalar
equivalence, graded by formal t-powers, with extraction from modules via the
Gauss diagonal, multiplicativity, the spin/spectral interchange identity,
highest-weight classification, and the generalized Baxter decomposition."""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

from .dynamical import worst_residual
from .modules import (
    HighestWeightData,
    build_asymptotic,
    gauss_decompose,
    socle,
)
from .theta import (
    EllipticParams,
    PoleError,
    SamplePlan,
    ThetaExpression,
)

_MERGE_TOL = 1e-9
_MATCH_TOL = 1e-6
_MIN_VALID_SAMPLES = 5


class CategoryConditionError(ValueError):
    """A module fails the triangularity / x-independence requirements that
    make its character well defined."""


def _default_zpoints(params: EllipticParams) -> list[complex]:
    return SamplePlan(seed=173, count=10, pole_margin=5e-2).points(params)


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
        arg = []
        if f.cz:
            arg.append("z" if f.cz > 0 else "-z")
        if f.cx:
            arg.append("+x" if f.cx > 0 else "-x")
        if f.shift != 0 or not arg:
            arg.append(f"{'+' if f.shift.real >= 0 and f.shift.imag >= 0 else ''}{_fmt_c(f.shift)}")
        body = f"theta({''.join(arg)})"
        parts.append(body if f.power == 1 else f"{body}^{f.power}")
    return "*".join(parts) if parts else "1"


class WeightMonomial:
    """A pair of z-functions carrying a t-weight; the pair is considered up
    to the rescaling (a+, a-) ~ (c*a+, a-/c)."""

    __slots__ = ("aplus", "aminus", "weight", "_vals")

    def __init__(self, aplus, aminus, weight: complex):
        if isinstance(aplus, ThetaExpression) and not aplus.is_x_free():
            raise ValueError("monomial components must not depend on x")
        if isinstance(aminus, ThetaExpression) and not aminus.is_x_free():
            raise ValueError("monomial components must not depend on x")
        self.aplus = aplus
        self.aminus = aminus
        self.weight = complex(weight)
        self._vals: dict = {}

    @property
    def symbolic(self) -> bool:
        return isinstance(self.aplus, ThetaExpression) and isinstance(
            self.aminus, ThetaExpression
        )

    def canonical_key(self):
        """Hashable invariant of the scalar-equivalence class, or None for
        numeric components."""
        if not self.symbolic:
            return None
        ap = self.aplus.canonical()
        am = self.aminus.canonical()
        prod_scalar = ap.scalar * am.scalar
        return (
            self.aplus.factor_key(),
            self.aminus.factor_key(),
            (round(prod_scalar.real, 9), round(prod_scalar.imag, 9)),
            (round(self.weight.real, 9), round(self.weight.imag, 9)),
        )

    def values(self, z: complex, params: EllipticParams) -> tuple[complex, complex]:
        key = complex(z)
        hit = self._vals.get(key)
        if hit is None:
            hit = (_eval_component(self.aplus, z, params),
                   _eval_component(self.aminus, z, params))
            self._vals[key] = hit
        return hit

    def __mul__(self, other: "WeightMonomial") -> "WeightMonomial":
        def comb(a, b):
            if isinstance(a, ThetaExpression) and isinstance(b, ThetaExpression):
                return a * b
            return _ProductComponent(a, b)

        return WeightMonomial(
            comb(self.aplus, other.aplus),
            comb(self.aminus, other.aminus),
            self.weight + other.weight,
        )

    def __repr__(self):
        return (f"[{format_component(self.aplus)}, {format_component(self.aminus)}]"
                f"t^{_fmt_c(self.weight)}")


class _ProductComponent:
    """Deferred product of mixed symbolic/numeric components."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _eval_component(comp, z: complex, params: EllipticParams) -> complex:
    if isinstance(comp, ThetaExpression):
        return comp.eval(z, 0.0, params)
    if isinstance(comp, _ProductComponent):
        return _eval_component(comp.a, z, params) * _eval_component(comp.b, z, params)
    return comp(z)


def monomial_deviation(
    m1: WeightMonomial, m2: WeightMonomial, params: EllipticParams, zpoints=None
) -> float:
    """0 for equal scalar-equivalence classes; otherwise the worst
    ratio-constancy defect: both component ratios must be z-independent with
    reciprocal constants."""
    if abs(m1.weight - m2.weight) > _MERGE_TOL:
        return math.inf
    k1, k2 = m1.canonical_key(), m2.canonical_key()
    if k1 is not None and k1 == k2:
        return 0.0
    if zpoints is None:
        zpoints = _default_zpoints(params)
    rp, rm = [], []
    for z in zpoints:
        try:
            p1, n1 = m1.values(z, params)
            p2, n2 = m2.values(z, params)
        except (PoleError, ZeroDivisionError, OverflowError):
            continue
        if min(abs(p2), abs(n2)) < 1e-13 or max(abs(p1), abs(n1), abs(p2), abs(n2)) > 1e13:
            continue
        rp.append(p1 / p2)
        rm.append(n1 / n2)
    if len(rp) < _MIN_VALID_SAMPLES:
        return math.inf
    c = rp[0]
    scale = max(1.0, abs(c))
    dev = max(abs(r - c) / scale for r in rp)
    dev = max(dev, max(abs(r * c - 1.0) for r in rm))
    return dev


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
        key = mono.canonical_key()
        for pair in row:
            other = pair[0]
            if key is not None and key == other.canonical_key():
                pair[1] += mult
                return
        for pair in row:
            if monomial_deviation(mono, pair[0], self.params) < _MERGE_TOL:
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

    def to_text(self) -> str:
        out = []
        for k in sorted(self.terms):
            for mono, mult in self.terms[k]:
                prefix = "" if mult == 1 else f"{mult}*"
                out.append(f"{prefix}{mono!r}")
        return " + ".join(out) if out else "0"

    def to_json(self) -> str:
        data = {
            "alpha0": [self.alpha0.real, self.alpha0.imag],
            "depth": self.depth,
            "terms": [
                {
                    "step": k,
                    "weight": [self.weight_of_step(k).real, self.weight_of_step(k).imag],
                    "monomials": [
                        {
                            "mult": mult,
                            "aplus": format_component(m.aplus),
                            "aminus": format_component(m.aminus),
                        }
                        for m, mult in self.terms[k]
                    ],
                }
                for k in sorted(self.terms)
            ],
        }
        return json.dumps(data, sort_keys=True)


def qchar_unit(params: EllipticParams, depth: int = 0) -> QCharElement:
    el = QCharElement(0.0, depth, params)
    el.add_monomial(0, WeightMonomial(ThetaExpression(), ThetaExpression(), 0.0))
    return el


def _coset_steps(a1: complex, a2: complex) -> int:
    d = (a1 - a2) / 2
    di = round(d.real)
    if abs(d - di) > 1e-8:
        raise ValueError(f"t-weights {a1} and {a2} lie in different cosets")
    return di


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
    d = _coset_steps(A.alpha0, B.alpha0)
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
        d = _coset_steps(A.alpha0, B.alpha0)
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
        # symbolic fast path: cancel identical canonical keys
        for pa in la:
            ka = pa[0].canonical_key()
            if ka is None:
                continue
            for pb in lb:
                if pb[1] and pb[0].canonical_key() == ka:
                    c = min(pa[1], pb[1])
                    pa[1] -= c
                    pb[1] -= c
                    if pa[1] == 0:
                        break
        la = [p for p in la if p[1]]
        lb = [p for p in lb if p[1]]
        for pa in la:
            for pb in lb:
                if not pb[1]:
                    continue
                dev = monomial_deviation(pa[0], pb[0], A.params)
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
    for j in range(depth + 1):
        aplus = (
            ThetaExpression.theta(1, 0, (u + l + 1) * h)
            * ThetaExpression.theta(1, 0, u * h)
            * ThetaExpression.theta(1, 0, (u + j) * h, -1)
        )
        aminus = ThetaExpression.theta(1, 0, (u + j + 1) * h)
        el.add_monomial(j, WeightMonomial(aplus, aminus, l - 2 * j))
    return el


def qchar_one_dim(g: ThetaExpression, params: EllipticParams, depth: int = 0) -> QCharElement:
    el = QCharElement(0.0, depth, params)
    el.add_monomial(0, WeightMonomial(g, g, 0.0))
    return el


def qchar_of_module(
    X, tol: float = 1e-8, x_ref: complex = 0.2337 + 0.1711j, zpoints=None
) -> QCharElement:
    """Character extracted from the Gauss diagonal of a module.

    Requires both diagonal Gauss blocks to be triangular per weight space
    with x-independent diagonal entries; violations raise
    CategoryConditionError.
    """
    params = X.params
    g = gauss_decompose(X)
    basis = X.basis
    safe = X.safe_levels
    if zpoints is None:
        zpoints = _default_zpoints(params)
    zprobe = zpoints[:3]
    xprobe = [x_ref, x_ref + 0.2931 + 0.171j, x_ref - 0.2113 + 0.0917j]
    el = QCharElement(basis.alpha0, safe, params)
    for op in (g.kplus, g.kminus):
        for (a, b), s in op.entries.items():
            if a <= b or not s:
                continue
            la, lb = basis.level_of(a), basis.level_of(b)
            if la != lb or la > safe:
                continue
            bad = max(
                abs(s.eval(z, x, params)) for z in zprobe for x in xprobe
            )
            if bad > tol:
                raise CategoryConditionError(
                    f"Gauss diagonal block is not triangular at entry ({a},{b})"
                )
    for j in range(safe + 1):
        off = basis.offset(j)
        for i in range(basis.dims[j]):
            idx = off + i
            comps = []
            for op in (g.kplus, g.kminus):
                s = op.entries.get((idx, idx))
                if s is None or not s:
                    raise CategoryConditionError(f"zero Gauss diagonal at index {idx}")
                single = s.single()
                if single is not None and single.is_x_free():
                    comps.append(ThetaExpression(
                        single.scalar, single.exp_z, 0j, single.factors))
                    continue
                for z in zprobe:
                    vals = [s.eval(z, x, params) for x in xprobe]
                    scale = max(1.0, max(abs(v) for v in vals))
                    if max(abs(v - vals[0]) for v in vals) > tol * scale:
                        raise CategoryConditionError(
                            f"x-dependent Gauss diagonal at index {idx}"
                        )
                comps.append(lambda z, s=s, x0=x_ref, p=params: s.eval(z, x0, p))
            el.add_monomial(j, WeightMonomial(comps[0], comps[1], basis.weight(j)))
    return el


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
    m: WeightMonomial, params: EllipticParams, tol: float = 1e-9
) -> HighestWeightData | None:
    """Recover (lambda, {alpha_k}, {beta_k}) from a symbolic monomial, or
    None when the component ratio is not a balanced product of z-shifted
    theta factors matching the t-weight."""
    if not m.symbolic:
        raise ValueError("classification needs symbolic components")
    ratio = m.aplus / m.aminus
    if abs(ratio.exp_z) > tol or abs(ratio.exp_x) > tol:
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
    lam = cmath.sqrt(m.aplus.scalar * m.aminus.scalar)
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
