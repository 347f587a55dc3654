"""Transfer matrices over the zero-weight chain space, the Baxter
Q-operator built from ladder modules at spectral point zero, and the
functional relations between them (product, interchange, commutativity,
TQ, and double periodicity of the normalized Q series)."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .dynamical import (
    DiffOpSeries,
    ShapeError,
    TermMatrix,
    _BATCH_ITEMS,
    contraction_plan,
    graded_trace,
    series_add,
    series_compose,
    series_divide,
    series_max_residual,
    series_scale,
    tile_plan,
    worst_residual,
)
from .modules import EllipticModule, build_asymptotic, socle
from .theta import EllipticParams, lattice_distance, theta_eval


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
        # the up positions in lexicographic order are the strings in
        # lexicographic order with +1 before -1
        return [tuple(1 if i in up else -1 for i in range(L))
                for up in combinations(range(L), L // 2)]

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


class _GradedTrace:
    """Level-block traces, levels 0..order, of the site-ordered product
    M_0(x) M_1(x + hbar*j_0) ... with M_l = L_{i_l j_l}(z + a_l - hbar; .),
    for every pair of chain strings, row-major, memoized per point.

    The points missing from the memo are evaluated in groups of at most
    `_BATCH_ITEMS` entry and prefix items (and at least one point): one
    table pass over the group's points times the grid, and one
    `graded_trace` call on the plan tiled over them.  It is the leaf of
    the series' ``request``: ``fill`` takes every point a relation needs
    at once."""

    def __init__(self, X: EllipticModule, space: QuantumSpace, order: int):
        self.module = X
        basis = space.basis
        self.plan = contraction_plan(tuple((i, j) for i in basis for j in basis), (1, -1))
        grid, steps = self.plan
        h = X.params.hbar
        self.z_off = np.array(space.sites, dtype=complex)[grid[:, 0]] - h
        self.x_off = h * grid[:, 1]
        self.levels = [X.basis.offset(k) for k in range(order + 2)]
        self.shape = (space.dim, space.dim, order + 1)
        # complex items one point holds at once: its entry matrices, and
        # at the widest site the gathered entries and the prefix products
        n = X.basis.size
        widest = max(len(parent) for parent, _ in steps)
        items = 4 * len(grid) * n * n + widest * n * (n + 2 * self.levels[-1])
        self.group = max(1, _BATCH_ITEMS // items)
        # point: (block of the traces filled by one request, index in it)
        self.memo: dict[tuple[complex, complex], tuple[np.ndarray, int]] = {}

    def fill(self, keys) -> None:
        """Contract the points (z, x) of keys that the memo lacks."""
        miss = list(dict.fromkeys(k for k in keys if k not in self.memo))
        if miss:
            block = np.empty((len(miss), *self.shape), dtype=complex)
            for lo in range(0, len(miss), self.group):
                block[lo:lo + self.group] = self._contract(miss[lo:lo + self.group])
            self.memo.update((k, (block, i)) for i, k in enumerate(miss))

    def at(self, zs, xs, level=slice(None)) -> np.ndarray:
        """The traces of the levels at the points (zs, xs), as [point,
        row, col, level], or of one level as [point, row, col].  Points
        filled together in the requested order come back as a view of the
        memo, otherwise as a copy."""
        keys = [(complex(z), complex(x)) for z, x in zip(zs, xs)]
        self.fill(keys)
        where = [self.memo[k] for k in keys]
        block, first = where[0] if where else (np.empty((0, *self.shape)), 0)
        if all(b is block and i == first + n for n, (b, i) in enumerate(where)):
            return block[first:first + len(keys), ..., level]
        return np.stack([b[i, ..., level] for b, i in where])

    def _contract(self, keys) -> np.ndarray:
        z, x = np.array(keys, dtype=complex).T
        m = self.module.entry_matrices((z[:, None] + self.z_off).ravel(),
                                       (x[:, None] + self.x_off).ravel())
        traces = graded_trace(m, tile_plan(self.plan, len(keys)), self.levels)
        return traces.reshape(len(keys), *self.shape)


@dataclass(frozen=True)
class TransferSeries:
    """p-graded series of chain-space matrices in (z, x); alpha0 is the
    leading p-exponent.  All coefficients at a point come from one graded
    trace contraction, memoized per point; shift_z offsets z.  The
    coefficients of ``series`` declare the trace points they read."""

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
            TermMatrix(lambda zs, xs, k=k: self.coefficients(zs, xs, k), self.dim,
                       lambda zs, xs: [(self.trace, self._trace_zs(zs), xs)])
            for k in range(self.order + 1)
        ]
        return DiffOpSeries(self.alpha0, terms, self.dim, self.params)

    def _trace_zs(self, zs) -> np.ndarray:
        return np.asarray(zs, dtype=complex) + self.z_shift

    def coefficients(self, zs, xs, k=slice(None)) -> np.ndarray:
        """Coefficient k at the points, as [point, row, col]; by default
        every coefficient, as [point, row, col, k]."""
        return self.trace.at(self._trace_zs(zs), xs, k)

    def coefficient(self, k: int, z: complex, x: complex) -> np.ndarray:
        return self.coefficients([z], [x], k)[0]


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
        q_at = {
            j: q_operator(space, z0 + j * h, order).series
            for j in range(-1, n + 1)
        }
        num = series_compose(q_at[n], q_at[-1], order)
        rhs = None
        for j in range(n + 1):
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
        q, q1, qt = (q_operator(space, z, order).coefficients(np.zeros(len(xpoints)), xpoints)
                     for z in (z0, z0 + 1, z0 + tau))
        fac = sign * cmath.exp(-n * 1j * math.pi * (tau + 2 * z0 + 2 * a))
        for k in range(order + 1):
            for m, m1, mt in zip(q[..., k], q1[..., k], qt[..., k]):
                scale = max(1.0, np.linalg.norm(m))
                residuals.append(np.linalg.norm(m1 - sign * m) / scale)
                residuals.append(np.linalg.norm(mt - fac * m) / scale)
    return worst_residual(residuals)
