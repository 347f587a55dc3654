"""Transfer matrices over the zero-weight chain space, the Baxter
Q-operator built from ladder modules at spectral point zero, and the
functional relations between them (product, interchange, commutativity,
TQ, and double periodicity of the normalized Q series)."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import permutations

import numpy as np

from .dynamical import (
    DiffOpSeries,
    ShapeError,
    TermMatrix,
    series_add,
    series_compose,
    series_divide,
    series_max_residual,
    series_scale,
    worst_residual,
)
from .modules import EllipticModule, build_asymptotic, socle
from .theta import (
    POLE_TOL,
    EllipticParams,
    PoleError,
    lattice_distance,
    lattice_distance_array,
    theta_eval,
    theta_eval_array,
)

_KEYS = ("++", "+-", "-+", "--")


@dataclass(frozen=True)
class QuantumSpace:
    """Zero-weight subspace of an even-length sign chain with one inhomogeneity
    per site; basis strings are ordered lexicographically with + first."""

    sites: tuple[complex, ...]
    params: EllipticParams

    def __post_init__(self):
        L = len(self.sites)
        if L == 0 or L % 2:
            raise ValueError("the chain length must be a positive even integer")
        for a in self.sites:
            if lattice_distance(a, self.params) < self.params.lattice_tol:
                raise ValueError(f"site {a} lies on the period lattice")
        object.__setattr__(self, "_basis", tuple(self._make_basis(L)))

    @staticmethod
    def _make_basis(L):
        half = L // 2
        seen = []
        for s in sorted(set(permutations((1,) * half + (-1,) * half))):
            seen.append(s)
        # lexicographic with +1 before -1
        return sorted(seen, key=lambda s: tuple(0 if c == 1 else 1 for c in s))

    @property
    def L(self) -> int:
        return len(self.sites)

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._basis)

    def homogeneous_site(self) -> complex:
        a = self.sites[0]
        if any(s != a for s in self.sites):
            raise ValueError("sites are not exactly homogeneous")
        return a


class _EntryTables:
    """The four L tables of a module flattened into factor arrays, so that
    all entries at a batch of (z, x) points come out of one numpy pass.

    An entry is a sum of terms scalar * exp(exp_z*z + exp_x*x) *
    prod theta(cz*z + cx*x + shift)**power.  Each distinct factor is stored
    once; terms are sorted by the entry they add to.
    """

    def __init__(self, X: EllipticModule):
        self.params = X.params
        self.size = n = X.basis.size
        factors: dict[tuple, int] = {}
        terms = []
        for key, name in enumerate(_KEYS):
            for (a, b), s in X.L[name].entries.items():
                for t in s.terms:
                    idx = [factors.setdefault((f.cz, f.cx, f.shift, f.power), len(factors))
                           for f in t.factors]
                    terms.append(((key * n + a) * n + b, t.scalar, t.exp_z, t.exp_x, idx))
        terms.sort(key=lambda t: t[0])
        dest, scalar, exp_z, exp_x, idx = zip(*terms)
        self.starts = np.flatnonzero(np.diff(dest, prepend=-1))
        self.dest = np.array(dest)[self.starts]
        self.scalar, self.exp_z, self.exp_x = (np.array(c, dtype=complex) for c in (scalar, exp_z, exp_x))
        self.cz, self.cx, self.shift, self.power = (np.array(c) for c in zip(*factors))
        # index len(factors) is a row of ones that pads shorter products
        width = max(map(len, idx))
        self.index = np.array([i + [len(factors)] * (width - len(i)) for i in idx])

    def at(self, zs: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Dense entry matrices [point, key, row, col] at the points (zs, xs)."""
        args = self.cz[:, None] * zs + self.cx[:, None] * xs + self.shift[:, None]
        poles = args[self.power < 0]
        near = lattice_distance_array(poles, self.params) < POLE_TOL
        if near.any():
            raise PoleError(f"theta factor with negative power at lattice point {poles[near][0]}")
        vals = theta_eval_array(args, self.params) ** self.power[:, None]
        vals = np.vstack([vals, np.ones((1, len(zs)))])
        terms = vals[self.index].prod(axis=1) * self.scalar[:, None]
        terms *= np.exp(self.exp_z[:, None] * zs + self.exp_x[:, None] * xs)
        out = np.zeros((len(zs), 4 * self.size * self.size), dtype=complex)
        out[:, self.dest] = np.add.reduceat(terms, self.starts, axis=0).T
        return out.reshape(len(zs), 4, self.size, self.size)


@lru_cache(maxsize=8)
def _contraction_plan(basis: tuple[tuple[int, ...], ...]):
    """Index arrays of the left-to-right contraction over the pairs (i, j)
    of chain strings, sharing products between pairs with equal prefixes.

    Site l of a pair multiplies in L_{i_l j_l} at the x-shift
    s = sum_{m<l} j_m; zero total weight bounds it by |s| <= min(l, L-l).
    Returns the reachable (site, shift) grid and, per site, the parent
    prefix, grid point and entry key of every prefix one site longer.  At
    the last site the prefixes are the full pairs in row-major order.
    """
    L = len(basis[0])
    grid = [(l, s) for l in range(L) for s in range(-min(l, L - l), min(l, L - l) + 1, 2)]
    where = {g: n for n, g in enumerate(grid)}
    pairs = [tuple(zip(i, j)) for i in basis for j in basis]
    steps = []
    prev = {(): 0}
    for l in range(L):
        cur: dict[tuple, int] = {}
        parent, point, key = [], [], []
        for pair in pairs:
            pre = pair[: l + 1]
            if pre in cur:
                continue
            cur[pre] = len(cur)
            parent.append(prev[pre[:-1]])
            point.append(where[(l, sum(j for _, j in pre[:-1]))])
            i, j = pre[-1]
            key.append(2 * (i < 0) + (j < 0))
        steps.append((np.array(parent), np.array(point), np.array(key)))
        prev = cur
    return np.array(grid), tuple(steps)


class _GradedTrace:
    """Level-block traces, levels 0..order, of the site-ordered product
    M_0(x) M_1(x + hbar*j_0) ... with M_l = L_{i_l j_l}(z + a_l - hbar; .),
    for every pair of chain strings, evaluated at a point and memoized."""

    def __init__(self, X: EllipticModule, space: QuantumSpace, order: int):
        self.entries = _EntryTables(X)
        grid, self.steps = _contraction_plan(space.basis)
        h = X.params.hbar
        self.z_off = np.array(space.sites, dtype=complex)[grid[:, 0]] - h
        self.x_off = h * grid[:, 1]
        self.levels = [X.basis.offset(k) for k in range(order + 1)]
        self.rows = X.basis.offset(order + 1)
        self.shape = (order + 1, space.dim, space.dim)
        self.memo: dict[tuple[complex, complex], np.ndarray] = {}

    def __call__(self, z: complex, x: complex) -> np.ndarray:
        key = (complex(z), complex(x))
        hit = self.memo.get(key)
        if hit is None:
            hit = self._contract(*key)
            hit.flags.writeable = False
            self.memo[key] = hit
        return hit

    def _contract(self, z: complex, x: complex) -> np.ndarray:
        m = self.entries.at(z + self.z_off, x + self.x_off)
        # only rows of levels <= order reach the traces
        acc = np.eye(self.entries.size, dtype=complex)[None, : self.rows]
        *inner, (parent, point, key) = self.steps
        for up, pt, k in inner:
            acc = acc[up] @ m[pt, k]
        diag = np.einsum("pab,pba->pa", acc[parent], m[point, key][:, :, : self.rows])
        return np.add.reduceat(diag, self.levels, axis=1).T.reshape(self.shape)


@dataclass(frozen=True)
class TransferSeries:
    """p-graded series of chain-space matrices in (z, x); alpha0 is the
    leading p-exponent.  All coefficients at a point come from one graded
    trace contraction, memoized per point; shift_z offsets z."""

    alpha0: complex
    order: int
    dim: int
    params: EllipticParams
    trace: _GradedTrace
    z_shift: complex = 0j
    label: str = ""

    def shift_z(self, c: complex) -> "TransferSeries":
        return replace(self, z_shift=self.z_shift + c)

    @property
    def series(self) -> DiffOpSeries:
        terms = [
            TermMatrix(lambda z, x, k=k: self.coefficient(k, z, x), self.dim)
            for k in range(self.order + 1)
        ]
        return DiffOpSeries(self.alpha0, terms, self.dim, self.params)

    def coefficient(self, k: int, z: complex, x: complex) -> np.ndarray:
        return self.trace(z + self.z_shift, x)[k]


def _max_transfer_order(X: EllipticModule, L: int) -> int:
    return X.basis.levels if X.exact else X.basis.levels - L // 2


def transfer_matrix(X: EllipticModule, space: QuantumSpace, order: int) -> TransferSeries:
    """Graded trace over the auxiliary module of the site-ordered product of
    its entry operators; only zero-weight strings act on the chain space."""
    if X.params != space.params:
        raise ShapeError("module and chain space parameters differ")
    top = _max_transfer_order(X, space.L)
    if order > top or order < 0:
        raise ValueError(
            f"truncation too shallow: order {order} needs more module levels"
        )
    return TransferSeries(
        X.basis.alpha0, order, space.dim, X.params, _GradedTrace(X, space, order),
        label=f"t[{X.label}]",
    )


def q_operator(space: QuantumSpace, spin_z: complex, order: int) -> TransferSeries:
    """Transfer series of the ladder module of spin z/hbar, bound at
    spectral point zero: evaluated at z = 0 it depends on x only."""
    params = space.params
    K = max(order + space.L // 2, 2)
    W = build_asymptotic(spin_z / params.hbar, 0.0, K, params)
    return replace(transfer_matrix(W, space, order), label=f"Q({spin_z})")


# ---------------------------------------------------------------------------
# Functional relations
# ---------------------------------------------------------------------------

def _pad_series(s: DiffOpSeries, order: int) -> DiffOpSeries:
    terms = list(s.terms) + [TermMatrix.zero(s.dim) for _ in range(order - s.order)]
    return DiffOpSeries(s.alpha0, terms, s.dim, s.params)


def product_residual(
    X: EllipticModule, Y: EllipticModule, XY: EllipticModule,
    space: QuantumSpace, order: int, points
) -> float:
    """t_X(z;p) t_Y(z;p) against t_{X (x) Y}(z;p)."""
    tx = transfer_matrix(X, space, order).series
    ty = transfer_matrix(Y, space, order).series
    txy = transfer_matrix(XY, space, order).series
    return series_max_residual(series_compose(tx, ty, order), txy, order, points)


def spectral_shift_residual(
    X: EllipticModule, Xshift: EllipticModule, u: complex,
    space: QuantumSpace, order: int, points
) -> float:
    """t of the spectrally twisted module against the z-shifted series."""
    lhs = transfer_matrix(Xshift, space, order)
    rhs = transfer_matrix(X, space, order).shift_z(u * X.params.hbar)
    return series_max_residual(lhs.series, rhs.series, order, points)


def commutativity_residual(
    X: EllipticModule, Y: EllipticModule, space: QuantumSpace,
    order: int, z0: complex, w0: complex, points
) -> float:
    tx = transfer_matrix(X, space, order).shift_z(z0).series.bound_z(0.0)
    ty = transfer_matrix(Y, space, order).shift_z(w0).series.bound_z(0.0)
    lhs = series_compose(tx, ty, order)
    rhs = series_compose(ty, tx, order)
    return series_max_residual(lhs, rhs, order, points)


def interchange_transfer_residual(
    l: complex, u: complex, space: QuantumSpace, order: int, points,
    flip_shift_sign: bool = False,
) -> float:
    """t_{W^l}(z) t_{W^0}(z+u*hbar) against t_{W^{l-u}}(z+u*hbar) t_{W^u}(z);
    flip_shift_sign applies the wrong-sign shift as a negative control."""
    params = space.params
    K = order + space.L // 2
    h = params.hbar
    c = (-u if flip_shift_sign else u) * h

    def t_of(spin, zshift):
        W = build_asymptotic(spin, 0.0, max(K, 2), params)
        return transfer_matrix(W, space, order).shift_z(zshift).series

    lhs = series_compose(t_of(l, 0.0), t_of(0.0, c), order)
    rhs = series_compose(t_of(l - u, c), t_of(u, 0.0), order)
    return series_max_residual(lhs, rhs, order, points)


def qq_relation_residual(
    l: complex, space: QuantumSpace, order: int, z_samples, xpoints,
    rhs_sites: QuantumSpace | None = None,
) -> float:
    """Q(z+l*hbar;p) t_{W^0}(z;p) against t_{W^l}(z;p) Q(z;p) at sampled z;
    rhs_sites substitutes a different chain on the right as a negative
    control."""
    params = space.params
    h = params.hbar
    K = max(order + space.L // 2, 2)
    other = rhs_sites if rhs_sites is not None else space
    residuals = []
    for z0 in z_samples:
        q_up = q_operator(space, z0 + l * h, order).series
        t0 = transfer_matrix(
            build_asymptotic(0.0, 0.0, K, params), space, order
        ).shift_z(z0).series.bound_z(0.0)
        tl = transfer_matrix(
            build_asymptotic(l, 0.0, K, params), other, order
        ).shift_z(z0).series.bound_z(0.0)
        q0 = q_operator(other, z0, order).series
        lhs = series_compose(q_up, t0, order)
        rhs = series_compose(tl, q0, order)
        pts = [(0.0, x) for x in xpoints]
        residuals.append(series_max_residual(lhs, rhs, order, pts))
    return worst_residual(residuals)


def tq_residual(
    n: int, space: QuantumSpace, order: int, z_samples, xpoints
) -> float:
    """Residual of the finite-spin transfer series against the two-sided
    Q-quotient sum with the site-product scalar weights."""
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    params = space.params
    h = params.hbar
    residuals = []
    pts = [(0.0, x) for x in xpoints]
    for z0 in z_samples:
        V = socle(build_asymptotic(float(n), 0.0, max(n, 2), params))
        t_v = transfer_matrix(V, space, n).shift_z(z0).series.bound_z(0.0)
        t_v = _pad_series(t_v, order)
        q_at = {
            j: q_operator(space, z0 + j * h, order).series
            for j in range(-1, n + 1)
        }
        rhs = None
        for j in range(n + 1):
            num = series_compose(q_at[n], q_at[-1], order)
            den = series_compose(q_at[j], q_at[j - 1], order)
            term = series_divide(num, den, order)
            scalar = 1.0 + 0j
            for a in space.sites:
                scalar *= theta_eval(z0 + a + j * h, params)
            term = series_scale(term, scalar)
            rhs = term if rhs is None else series_add(rhs, term, order)
        residuals.append(series_max_residual(t_v, rhs, order, pts))
    return worst_residual(residuals)


def periodicity_residual(
    space: QuantumSpace, order: int, z_samples, xpoints
) -> float:
    """Double periodicity of the normalized Q coefficients for a homogeneous
    chain: unit shift gives (-1)^n, lattice-period shift gives the
    exponential cocycle."""
    a = space.homogeneous_site()
    params = space.params
    tau = params.tau
    n = space.L // 2
    sign = (-1.0) ** n
    residuals = []
    for z0 in z_samples:
        q = q_operator(space, z0, order)
        q1 = q_operator(space, z0 + 1, order)
        qt = q_operator(space, z0 + tau, order)
        fac = sign * cmath.exp(-n * 1j * math.pi * (tau + 2 * z0 + 2 * a))
        for k in range(order + 1):
            for x in xpoints:
                m = q.coefficient(k, 0.0, x)
                m1 = q1.coefficient(k, 0.0, x)
                mt = qt.coefficient(k, 0.0, x)
                scale = max(1.0, np.linalg.norm(m))
                residuals.append(np.linalg.norm(m1 - sign * m) / scale)
                residuals.append(np.linalg.norm(mt - fac * m) / scale)
    return worst_residual(residuals)
