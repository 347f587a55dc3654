"""Transfer matrices over the zero-weight chain space, the Baxter
Q-operator built from ladder modules at spectral point zero, and the
functional relations between them (product, interchange, commutativity,
TQ, and double periodicity of the normalized Q series)."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .dynamical import (
    DiffOpSeries,
    ShapeError,
    TermMatrix,
    _BATCH_ITEMS,
    block_graded_trace,
    contraction_plan,
    request,
    series_add,
    series_compose,
    series_divide,
    series_max_residual,
    series_scale,
    worst_residual,
)
from .modules import GradedModule, build_asymptotic, socle
from .theta import (
    LATTICE_TOL,
    EllipticParams,
    _unique_rows,
    lattice_distance,
    table_passes,
    theta_eval,
)


@dataclass(frozen=True)
class QuantumSpace:
    """Zero-weight subspace of an even-length sign chain with one inhomogeneity
    per site.  A basis string is an int code, bit l set when site l
    carries -1; the strings are ordered lexicographically with + first,
    which is not the order of their codes."""

    sites: tuple[complex, ...]
    params: EllipticParams

    def __post_init__(self):
        L = len(self.sites)
        if L == 0 or L % 2:
            raise ValueError("the chain length must be a positive even integer")
        for a in self.sites:
            if lattice_distance(a, self.params) < LATTICE_TOL:
                raise ValueError(f"site {a} lies on the period lattice")
        object.__setattr__(self, "_basis", self._make_basis(L))

    @staticmethod
    def _make_basis(L) -> tuple:
        # the up positions in lexicographic order are the strings in
        # lexicographic order with +1 before -1
        return tuple((1 << L) - 1 - sum(1 << i for i in up)
                     for up in combinations(range(L), L // 2))

    @property
    def L(self) -> int:
        return len(self.sites)

    @property
    def basis(self) -> tuple[int, ...]:
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._basis)

    def homogeneous_site(self) -> complex:
        a = self.sites[0]
        if any(s != a for s in self.sites):
            raise ValueError("sites are not exactly homogeneous")
        return a


@lru_cache(maxsize=8)
def _chain_plan(L: int) -> tuple:
    """The `contraction_plan` of every pair of an L-site chain's strings,
    row-major."""
    codes = np.array(QuantumSpace._make_basis(L))
    return contraction_plan(np.repeat(codes, len(codes)), np.tile(codes, len(codes)), L)


class _GradedTrace:
    """Level-block traces, levels 0..order, of the site-ordered product
    M_0(x) M_1(x + hbar*j_0) ... with M_l = L_{i_l j_l}(z + a_l - hbar; .),
    for every pair of chain strings, row-major: the function of the
    transfer series' leaf `TermMatrix`, whose memo holds them.

    The points are contracted in groups of at most `_BATCH_ITEMS` entry
    and prefix items (and at least one point): the module's slot values
    at the group's distinct grid points, and one `block_graded_trace`
    call over its points.  The slot values of every group come from one
    theta pass (`theta_pass`, which a request shares among its traces),
    and are finished one group at a time, just before its contraction."""

    def __init__(self, X: GradedModule, space: QuantumSpace, order: int):
        self.module = X
        self.plan = _chain_plan(space.L)
        grid, steps = self.plan
        h = X.params.hbar
        self.z_off = np.array(space.sites, dtype=complex)[grid[:, 0]] - h
        self.x_off = h * grid[:, 1]
        self.levels = [X.basis.offset(k) for k in range(X.basis.levels + 2)]
        self.shape = (space.dim, space.dim, order + 1)
        # complex items one point holds: the entry tables (at most dense) and blocks
        # of its grid points, and the prefix blocks and products at the widest site
        dims, widest = X.basis.dims, max(len(parent) for parent, _ in steps)
        items = (len(grid) * 4 * (X.basis.size ** 2 + (len(dims) + 2) * max(dims) ** 2)
                 + 2 * widest * (order + 1) * max(dims[:order + 1]) * max(dims))
        self.group = max(1, _BATCH_ITEMS // items)

    def __call__(self, zs, xs) -> np.ndarray:
        """The traces at the points (zs, xs), as [point, row, col, level]."""
        items, finish = self.theta_pass(zs, xs)
        return finish(table_passes(items))

    def theta_pass(self, zs, xs) -> tuple:
        """(items, finish): the `theta.table_passes` items of the module's
        slot values at the distinct grid points of every group, and the
        function that maps their passes to the traces, contracting the
        groups in turn."""
        zs, xs = np.asarray(zs, dtype=complex), np.asarray(xs, dtype=complex)
        items, groups = [], []
        for lo in range(0, len(zs), self.group):
            g = slice(lo, lo + self.group)
            z, x = zs[g][:, None] + self.z_off, xs[g][:, None] + self.x_off
            # each distinct grid point is evaluated once: where[p, g] is its row
            grid, where = _unique_rows(np.stack([z.ravel(), x.ravel()], axis=1), "stable")
            part, values = self.module.theta_pass(*grid.T)
            groups.append((g, len(items), len(part), values, where.reshape(z.shape)))
            items += part

        def finish(passes):
            out = np.empty((len(zs), *self.shape), dtype=complex)
            for g, at, n, values, where in groups:
                out[g] = self._contract(zs[g], xs[g], values(passes[at:at + n]), where)
            return out

        return items, finish

    def _contract(self, z, x, values, where) -> np.ndarray:
        """The traces at the group's points (z, x) from the slot values at
        its grid points, whose row where[p, g] holds grid point g at point p."""
        traces = block_graded_trace(values, self.module.nonzeros(), self.levels, self.plan,
                                    self.shape[-1], where)
        return traces.reshape(len(z), *self.shape)


def _max_transfer_order(X: GradedModule, L: int) -> int:
    return X.basis.levels if X.exact else X.basis.levels - L // 2


def transfer_matrix(X: GradedModule, space: QuantumSpace, order: int) -> DiffOpSeries:
    """Graded trace over the auxiliary module of the site-ordered product of
    its entry operators; only zero-weight strings act on the chain space.
    Coefficient k reads level k of one memoized trace."""
    if X.params != space.params:
        raise ShapeError("module and chain space parameters differ")
    top = _max_transfer_order(X, space.L)
    if order > top or order < 0:
        raise ValueError(
            f"truncation too shallow: order {order} needs more module levels"
        )
    trace = TermMatrix(_GradedTrace(X, space, order), space.dim)
    terms = [TermMatrix.read(trace, lambda zs, xs, k=k: (zs, xs, k), space.dim)
             for k in range(order + 1)]
    return DiffOpSeries(X.basis.alpha0, terms, space.dim, X.params)


def _ladder_transfer(spin: complex, space: QuantumSpace, order: int) -> DiffOpSeries:
    """Transfer series of the ladder module of the spin at 0, with
    K = max(order + L/2, 2) levels: enough for the order on an L-site chain."""
    W = build_asymptotic(spin, 0.0, max(order + space.L // 2, 2), space.params)
    return transfer_matrix(W, space, order)


def q_operator(space: QuantumSpace, spin_z: complex, order: int) -> DiffOpSeries:
    """Transfer series of the ladder module of spin z/hbar, bound at
    spectral point zero: evaluated at z = 0 it depends on x only."""
    return _ladder_transfer(spin_z / space.params.hbar, space, order)


# ---------------------------------------------------------------------------
# Functional relations
# ---------------------------------------------------------------------------

def product_residual(
    X: GradedModule, Y: GradedModule, XY: GradedModule,
    space: QuantumSpace, order: int, points
) -> float:
    """t_X(z;p) t_Y(z;p) against t_{X (x) Y}(z;p)."""
    tx = transfer_matrix(X, space, order)
    ty = transfer_matrix(Y, space, order)
    txy = transfer_matrix(XY, space, order)
    return series_max_residual(series_compose(tx, ty, order), txy, order, points)


def spectral_shift_residual(
    X: GradedModule, Xshift: GradedModule, u: complex,
    space: QuantumSpace, order: int, points
) -> float:
    """t of the spectrally twisted module against the z-shifted series."""
    lhs = transfer_matrix(Xshift, space, order)
    rhs = transfer_matrix(X, space, order).shift_z(u * X.params.hbar)
    return series_max_residual(lhs, rhs, order, points)


def commutativity_residual(
    X: GradedModule, Y: GradedModule, space: QuantumSpace,
    order: int, z0: complex, w0: complex, points
) -> float:
    tx = transfer_matrix(X, space, order).bound_z(z0)
    ty = transfer_matrix(Y, space, order).bound_z(w0)
    lhs = series_compose(tx, ty, order)
    rhs = series_compose(ty, tx, order)
    return series_max_residual(lhs, rhs, order, points)


def interchange_transfer_residual(
    l: complex, u: complex, space: QuantumSpace, order: int, points,
    flip_shift_sign: bool = False,
) -> float:
    """t_{W^l}(z) t_{W^0}(z+u*hbar) against t_{W^{l-u}}(z+u*hbar) t_{W^u}(z);
    flip_shift_sign applies the wrong-sign shift as a negative control."""
    c = (-u if flip_shift_sign else u) * space.params.hbar

    def t_of(spin, zshift):
        return _ladder_transfer(spin, space, order).shift_z(zshift)

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
    h = space.params.hbar
    other = rhs_sites if rhs_sites is not None else space
    t0 = _ladder_transfer(0.0, space, order)
    tl = _ladder_transfer(l, other, order)
    residuals = []
    for z0 in z_samples:
        q_up = q_operator(space, z0 + l * h, order)
        q0 = q_operator(other, z0, order)
        lhs = series_compose(q_up, t0.bound_z(z0), order)
        rhs = series_compose(tl.bound_z(z0), q0, order)
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
    t_v = transfer_matrix(socle(build_asymptotic(float(n), 0.0, max(n, 2), params)), space, n)
    residuals = []
    pts = [(0.0, x) for x in xpoints]
    for z0 in z_samples:
        q_at = {j: q_operator(space, z0 + j * h, order) for j in range(-1, n + 1)}
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
        residuals.append(series_max_residual(t_v.bound_z(z0), rhs, order, pts))
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
    zeros = np.zeros(len(xpoints))
    for z0 in z_samples:
        # Q at z = 0 (z sets its spin) for the three z, from one request,
        # each as [point, row, col, k]
        terms = [t for z in (z0, z0 + 1, z0 + tau) for t in q_operator(space, z, order).terms]
        vals = request([(t, zeros, xpoints) for t in terms])
        q, q1, qt = (np.stack(vals[i:i + order + 1], axis=-1)
                     for i in range(0, len(vals), order + 1))
        fac = sign * cmath.exp(-n * 1j * math.pi * (tau + 2 * z0 + 2 * a))
        for k in range(order + 1):
            for m, m1, mt in zip(q[..., k], q1[..., k], qt[..., k]):
                scale = max(1.0, np.linalg.norm(m))
                residuals.append(np.linalg.norm(m1 - sign * m) / scale)
                residuals.append(np.linalg.norm(mt - fac * m) / scale)
    return worst_residual(residuals)
