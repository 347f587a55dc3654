"""Shift-operator calculus: bidegree-labeled operators on weight-graded
modules, dynamical tensor products, and p-graded difference-operator series.

An operator of bidegree (alpha, beta) acting on functions of the dynamical
variable x obeys Phi(g(x) v) = g(x + beta*hbar) Phi(v) and maps the weight
space of weight gamma into weight gamma + beta - alpha.  Composition picks
up an x-shift on the right factor:

    (Phi o Psi)_{ac}(x) = sum_b Phi_{ab}(x) * Psi_{bc}(x + beta_Phi * hbar).

Series are graded by formal symbols p^alpha T_alpha with T_alpha acting as
g(x) |-> g(x - alpha*hbar) on coefficients, and coefficient matrices kept
to the right of T_alpha:

    (p^a T_a M(x)) (p^b T_b N(x)) = p^{a+b} T_{a+b} M(x + b*hbar) N(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .theta import EllipticParams, ThetaSum

_WEIGHT_TOL = 1e-9


class ShapeError(ValueError):
    """Basis or dimension mismatch between operators/series."""


class GradingError(ValueError):
    """Attempt to mix distinct p-exponent cosets."""


class SingularityError(ArithmeticError):
    """Leading series coefficient singular at an evaluation point."""

    def __init__(self, msg, point=None):
        super().__init__(msg)
        self.point = point


# ---------------------------------------------------------------------------
# Weight bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightBasis:
    """Basis indexed by (level j, index i); level j has weight alpha0 - 2j."""

    alpha0: complex
    dims: tuple[int, ...]  # dims[j] >= 1 for levels j = 0..K

    def __post_init__(self):
        if not self.dims or any(d < 1 for d in self.dims):
            raise ShapeError("every level must have dimension >= 1")

    @property
    def levels(self) -> int:
        """Highest stored level index."""
        return len(self.dims) - 1

    @property
    def size(self) -> int:
        return sum(self.dims)

    def offset(self, level: int) -> int:
        return sum(self.dims[:level])

    def index(self, level: int, i: int = 0) -> int:
        return self.offset(level) + i

    def level_of(self, idx: int) -> int:
        acc = 0
        for j, d in enumerate(self.dims):
            acc += d
            if idx < acc:
                return j
        raise IndexError(idx)

    def weight(self, level: int) -> complex:
        return self.alpha0 - 2 * level

    def weight_of_index(self, idx: int) -> complex:
        return self.weight(self.level_of(idx))


# ---------------------------------------------------------------------------
# Module operators
# ---------------------------------------------------------------------------

@dataclass
class ModuleOperator:
    """Sparse operator entries[(target, source)] = ThetaSum in (z, x)."""

    alpha: complex
    beta: complex
    source: WeightBasis
    target: WeightBasis
    entries: dict[tuple[int, int], ThetaSum]
    params: EllipticParams

    def __post_init__(self):
        shift = self.beta - self.alpha
        for (a, b), s in self.entries.items():
            if not s:
                continue
            wa = self.target.weight_of_index(a)
            wb = self.source.weight_of_index(b)
            if abs(wa - wb - shift) > _WEIGHT_TOL:
                raise ShapeError(
                    f"entry ({a},{b}) violates the weight rule for bidegree "
                    f"({self.alpha},{self.beta})"
                )

    @staticmethod
    def identity(basis: WeightBasis, params: EllipticParams) -> "ModuleOperator":
        return ModuleOperator(
            0.0, 0.0, basis, basis,
            {(i, i): ThetaSum.one() for i in range(basis.size)}, params,
        )

    def shift_z(self, c: complex) -> "ModuleOperator":
        return ModuleOperator(
            self.alpha, self.beta, self.source, self.target,
            {k: s.shift_z(c) for k, s in self.entries.items()}, self.params,
        )

    def shift_x(self, c: complex) -> "ModuleOperator":
        return ModuleOperator(
            self.alpha, self.beta, self.source, self.target,
            {k: s.shift_x(c) for k, s in self.entries.items()}, self.params,
        )

    def __add__(self, other: "ModuleOperator") -> "ModuleOperator":
        if (self.source, self.target) != (other.source, other.target):
            raise ShapeError("operator bases differ")
        if abs(self.alpha - other.alpha) > _WEIGHT_TOL or abs(self.beta - other.beta) > _WEIGHT_TOL:
            raise ShapeError("bidegrees differ; sum is not a homogeneous operator")
        out = dict(self.entries)
        for k, s in other.entries.items():
            out[k] = out[k] + s if k in out else s
        return ModuleOperator(self.alpha, self.beta, self.source, self.target, out, self.params)

    def __neg__(self) -> "ModuleOperator":
        return ModuleOperator(
            self.alpha, self.beta, self.source, self.target,
            {k: -s for k, s in self.entries.items()}, self.params,
        )

    def __sub__(self, other: "ModuleOperator") -> "ModuleOperator":
        return self + (-other)

    def to_matrix(self, z: complex, x: complex, eps: float = 1e-14) -> np.ndarray:
        """Dense numeric entry matrix at fixed (z, x)."""
        m = np.zeros((self.target.size, self.source.size), dtype=complex)
        for (a, b), s in self.entries.items():
            m[a, b] = s.eval(z, x, self.params, eps)
        return m

    def apply_to_function_vector(self, coeffs, z, x):
        """Apply to sum_b g_b(x) v_b with g_b given as callables of x.

        Returns numeric target coefficients at the point x; the defining
        property inserts g_b(x + beta*hbar).  Used by test oracles.
        """
        hb = self.params.hbar
        out = np.zeros(self.target.size, dtype=complex)
        for (a, b), s in self.entries.items():
            g = coeffs[b]
            if g is None:
                continue
            out[a] += s.eval(z, x, self.params) * g(x + self.beta * hb)
        return out


def compose_module_ops(phi: ModuleOperator, psi: ModuleOperator) -> ModuleOperator:
    """Operator composition phi o psi (psi applied first) with the x-shift
    of the right factor by beta_phi * hbar."""
    if phi.source is not psi.target and phi.source != psi.target:
        raise ShapeError("source basis of left factor must equal target of right factor")
    hb = phi.params.hbar
    shift = phi.beta * hb
    by_source: dict[int, list[tuple[int, ThetaSum]]] = {}
    for (b, c), s in psi.entries.items():
        by_source.setdefault(b, []).append((c, s.shift_x(shift)))
    out: dict[tuple[int, int], ThetaSum] = {}
    for (a, b), s_ab in phi.entries.items():
        for c, s_bc in by_source.get(b, ()):
            key = (a, c)
            term = s_ab * s_bc
            out[key] = out[key] + term if key in out else term
    return ModuleOperator(
        phi.alpha + psi.alpha, phi.beta + psi.beta, psi.source, phi.target, out, phi.params
    )


def invert_weightwise(op: ModuleOperator) -> ModuleOperator:
    """Invert a weight-preserving operator that is upper triangular in the
    basis order with single-term diagonal entries.

    Solving Phi o Psi = Id with Psi'(x) := Psi(x + beta*hbar) reduces to a
    plain triangular solve for Psi' in the ThetaSum ring, followed by the
    inverse x-shift.
    """
    if abs(op.beta - op.alpha) > _WEIGHT_TOL:
        raise ShapeError("only weight-preserving operators are invertible here")
    basis = op.source
    n = basis.size
    for (a, b) in op.entries:
        if a > b and op.entries[(a, b)]:
            raise SingularityError("operator is not upper triangular in the basis order")
    diag_inv: dict[int, ThetaSum] = {}
    for i in range(n):
        d = op.entries.get((i, i))
        if d is None or not d:
            raise SingularityError(f"zero diagonal entry at index {i}")
        diag_inv[i] = d.inv()
    prime: dict[tuple[int, int], ThetaSum] = {}
    for c in range(n):
        prime[(c, c)] = diag_inv[c]
        for a in range(c - 1, -1, -1):
            acc = ThetaSum.zero()
            for b in range(a + 1, c + 1):
                u = op.entries.get((a, b))
                p = prime.get((b, c))
                if u and p:
                    acc = acc + u * p
            if acc:
                prime[(a, c)] = -(diag_inv[a] * acc)
    hb = op.params.hbar
    entries = {k: s.shift_x(-op.beta * hb) for k, s in prime.items() if s}
    return ModuleOperator(-op.alpha, -op.beta, basis, basis, entries, op.params)


# ---------------------------------------------------------------------------
# Dynamical tensor product of module entry tables
# ---------------------------------------------------------------------------

def tensor_basis(bx: WeightBasis, by: WeightBasis, max_level: int | None = None):
    """Product basis graded by total level m = jx + jy.

    Within a level, pairs are ordered by increasing jx (decreasing
    X-weight), which makes L_{--} and K_+ upper triangular per weight
    space.  Returns (basis, list of (jx, ix, jy, iy) in global order).
    """
    top = bx.levels + by.levels if max_level is None else min(max_level, bx.levels + by.levels)
    layout: list[tuple[int, int, int, int]] = []
    dims = []
    for m in range(top + 1):
        d = 0
        for jx in range(max(0, m - by.levels), min(m, bx.levels) + 1):
            jy = m - jx
            for ix in range(bx.dims[jx]):
                for iy in range(by.dims[jy]):
                    layout.append((jx, ix, jy, iy))
                    d += 1
        dims.append(d)
    basis = WeightBasis(bx.alpha0 + by.alpha0, tuple(dims))
    return basis, layout


def tensor_entry_tables(
    Lx: dict[str, ModuleOperator],
    Ly: dict[str, ModuleOperator],
    params: EllipticParams,
    max_level: int | None = None,
) -> tuple[WeightBasis, dict[str, ModuleOperator]]:
    """Coproduct entry tables L_{ij} = sum_k L_{ik} (x) L_{kj}; the X-side
    entry is x-shifted by hbar * (weight of the target Y basis vector)."""
    some = next(iter(Lx.values()))
    bx, by = some.source, next(iter(Ly.values())).source
    basis, layout = tensor_basis(bx, by, max_level)
    pos = {q: i for i, q in enumerate(layout)}
    hb = params.hbar
    signs = ("+", "-")
    out: dict[str, ModuleOperator] = {}
    for i in signs:
        for j in signs:
            entries: dict[tuple[int, int], ThetaSum] = {}
            for k in signs:
                ox, oy = Lx[i + k], Ly[k + j]
                for (cy, dy), sy in oy.entries.items():
                    jy_t, iy_t = by.level_of(cy), cy - by.offset(by.level_of(cy))
                    jy_s, iy_s = by.level_of(dy), dy - by.offset(by.level_of(dy))
                    wy_target = by.weight(jy_t)
                    for (ax, bx_i), sx in ox.entries.items():
                        jx_t, ix_t = bx.level_of(ax), ax - bx.offset(bx.level_of(ax))
                        jx_s, ix_s = bx.level_of(bx_i), bx_i - bx.offset(bx.level_of(bx_i))
                        tgt = pos.get((jx_t, ix_t, jy_t, iy_t))
                        src = pos.get((jx_s, ix_s, jy_s, iy_s))
                        if tgt is None or src is None:
                            continue
                        term = sx.shift_x(hb * wy_target) * sy
                        key = (tgt, src)
                        entries[key] = entries[key] + term if key in entries else term
            bid = {"+": 1, "-": -1}
            out[i + j] = ModuleOperator(bid[i], bid[j], basis, basis, entries, params)
    return basis, out


# ---------------------------------------------------------------------------
# Difference-operator series
# ---------------------------------------------------------------------------

class TermMatrix:
    """A series coefficient matrix, evaluable at (z, x), with memoization.

    Composed and divided series hold closures over other TermMatrix
    objects.
    """

    __slots__ = ("_fn", "dim", "_cache")

    def __init__(self, fn, dim: int):
        self._fn = fn
        self.dim = dim
        self._cache: dict[tuple[complex, complex], np.ndarray] = {}

    def eval(self, z: complex, x: complex) -> np.ndarray:
        key = (complex(z), complex(x))
        hit = self._cache.get(key)
        if hit is None:
            hit = np.asarray(self._fn(key[0], key[1]), dtype=complex)
            self._cache[key] = hit
        return hit

    def bound_z(self, z0: complex) -> "TermMatrix":
        z0 = complex(z0)
        return TermMatrix(lambda z, x: self.eval(z0, x), self.dim)

    @staticmethod
    def zero(dim: int) -> "TermMatrix":
        return TermMatrix(lambda z, x: np.zeros((dim, dim), dtype=complex), dim)

    @staticmethod
    def identity(dim: int) -> "TermMatrix":
        return TermMatrix(lambda z, x: np.eye(dim, dtype=complex), dim)


@dataclass
class DiffOpSeries:
    """sum_k p^{alpha0 - 2k} T_{alpha0 - 2k} M_k(z, x), truncated."""

    alpha0: complex
    terms: list[TermMatrix]
    dim: int
    params: EllipticParams

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    def term(self, k: int) -> TermMatrix:
        return self.terms[k] if 0 <= k < len(self.terms) else TermMatrix.zero(self.dim)

    def bound_z(self, z0: complex) -> "DiffOpSeries":
        return DiffOpSeries(self.alpha0, [t.bound_z(z0) for t in self.terms], self.dim, self.params)

    @staticmethod
    def identity(dim: int, order: int, params: EllipticParams) -> "DiffOpSeries":
        terms = [TermMatrix.identity(dim)] + [TermMatrix.zero(dim) for _ in range(order)]
        return DiffOpSeries(0.0, terms, dim, params)


def _coset_offset(a1: complex, a2: complex) -> int:
    """Integer d with a1 - a2 = 2d, or raise GradingError."""
    d = (a1 - a2) / 2
    di = round(d.real)
    if abs(d - di) > 1e-8:
        raise GradingError(f"p-exponents {a1} and {a2} lie in different cosets")
    return di


def series_compose(s1: DiffOpSeries, s2: DiffOpSeries, order: int) -> DiffOpSeries:
    if s1.dim != s2.dim:
        raise ShapeError("series dimensions differ")
    hb = s1.params.hbar
    terms = []
    for m in range(order + 1):
        pairs = [
            (s1.terms[k1], s2.terms[k2], (s2.alpha0 - 2 * k2) * hb)
            for k1 in range(min(m, s1.order) + 1)
            for k2 in [m - k1]
            if k2 <= s2.order
        ]

        def fn(z, x, pairs=pairs, dim=s1.dim):
            out = np.zeros((dim, dim), dtype=complex)
            for t1, t2, shift in pairs:
                out += t1.eval(z, x + shift) @ t2.eval(z, x)
            return out

        terms.append(TermMatrix(fn, s1.dim))
    return DiffOpSeries(s1.alpha0 + s2.alpha0, terms, s1.dim, s1.params)


def series_divide(num: DiffOpSeries, den: DiffOpSeries, order: int) -> DiffOpSeries:
    """Right quotient R = num * den^{-1} to the truncation order, solved
    order by order from R * den = num without forming den^{-1}.

    With den = sum_k T_{b-2k} D_k the order-m condition reads
    sum_{k=0..m} R_k(x + (b-2(m-k))*hbar) D_{m-k}(x) = N_m(x), a linear
    solve against the leading coefficient D_0(x) for R_m at x + b*hbar.
    """
    if num.dim != den.dim:
        raise ShapeError("series dimensions differ")
    hb = den.params.hbar
    b = den.alpha0
    terms: list[TermMatrix] = []

    def make_term(m):
        def fn(z, y):
            x = y - b * hb
            acc = num.term(m).eval(z, x)
            for k in range(max(0, m - den.order), m):
                acc = acc - terms[k].eval(z, y - 2 * (m - k) * hb) @ den.terms[m - k].eval(z, x)
            try:
                return np.linalg.solve(den.terms[0].eval(z, x).T, acc.T).T
            except np.linalg.LinAlgError as exc:
                raise SingularityError("singular leading coefficient", point=(z, x)) from exc

        return TermMatrix(fn, num.dim)

    for m in range(order + 1):
        terms.append(make_term(m))
    return DiffOpSeries(num.alpha0 - b, terms, num.dim, num.params)


def series_invert(s: DiffOpSeries, order: int) -> DiffOpSeries:
    """Inverse to the truncation order: the quotient of the identity by s."""
    return series_divide(DiffOpSeries.identity(s.dim, order, s.params), s, order)


def series_add(s1: DiffOpSeries, s2: DiffOpSeries, order: int) -> DiffOpSeries:
    if s1.dim != s2.dim:
        raise ShapeError("series dimensions differ")
    d = _coset_offset(s1.alpha0, s2.alpha0)
    if d < 0:
        return series_add(s2, s1, order)
    terms = []
    for k in range(order + 1):
        t1 = s1.term(k)
        t2 = s2.term(k - d)

        def fn(z, x, t1=t1, t2=t2):
            return t1.eval(z, x) + t2.eval(z, x)

        terms.append(TermMatrix(fn, s1.dim))
    return DiffOpSeries(s1.alpha0, terms, s1.dim, s1.params)


def series_scale(s: DiffOpSeries, c) -> DiffOpSeries:
    """Multiply every coefficient by a constant or a scalar function f(z, x)."""
    fn_c = c if callable(c) else (lambda z, x, c=c: c)
    terms = [
        TermMatrix(lambda z, x, t=t: fn_c(z, x) * t.eval(z, x), s.dim) for t in s.terms
    ]
    return DiffOpSeries(s.alpha0, terms, s.dim, s.params)


def series_max_residual(
    s1: DiffOpSeries, s2: DiffOpSeries, order: int, points
) -> float:
    """Worst relative coefficient deviation over p-orders <= order and the
    sampled (z, x) points.  Exponent cosets must agree."""
    d = _coset_offset(s1.alpha0, s2.alpha0)
    if d < 0:
        return series_max_residual(s2, s1, order, points)
    return worst_residual(
        _relative_deviation(s1.term(k).eval(z, x), s2.term(k - d).eval(z, x))
        for k in range(order + 1)
        for (z, x) in points
    )


def _relative_deviation(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a), np.linalg.norm(b)))


def worst_residual(residuals) -> float:
    """Largest of the residuals, 0.0 for none.  Any NaN or inf among them
    gives +inf, so a breakdown never reads as a small residual."""
    worst = 0.0
    for r in residuals:
        r = float(r)
        worst = max(worst, r) if math.isfinite(r) else math.inf
    return worst
