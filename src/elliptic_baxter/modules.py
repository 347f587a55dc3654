"""Concrete representations: the dynamical R-matrix, the vector
representation, truncated asymptotic ladder modules, socles, one-dimensional
modules, residual checks for the dynamical Yang-Baxter and exchange
relations, Gauss decomposition, and the highest-weight predicates."""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .dynamical import (
    ModuleOperator,
    ShapeError,
    WeightBasis,
    cmatmul,
    relative_deviation,
    tensor_basis,
    tensor_entry_tables,
    tensor_gather,
    worst_residual,
)
from .theta import (
    MERGE_GAP,
    SEARCH_RADIUS,
    EllipticParams,
    ThetaExpression,
    ThetaSum,
    ThetaTable,
    flat_terms,
    in_hbar_inv_lattice,
    int_plus_hbar_inv_lattice,
    merged_factors,
    table_passes,
    theta_eval,
)

_KEYS = ("++", "+-", "-+", "--")
_BIDEG = {"+": 1, "-": -1}
# singular values below this share of the largest count as kernel; those
# between it and the second bound make the count indeterminate
_KERNEL_REL_TOL = 1e-8
_KERNEL_INDETERMINATE = 1e-6
# the scalars of a ladder or R-matrix term: that of ThetaExpression.product,
# and on -+ (R at slot 9) that of its unary minus
_ONE = 1.0 + 0j
_MINUS = _ONE * complex(-1.0)


# ---------------------------------------------------------------------------
# R-matrix
# ---------------------------------------------------------------------------

def r_matrix_terms(params: EllipticParams) -> list[tuple]:
    """The flat terms of the 4x4 R-matrix in the basis (++, +-, -+, --), at
    the slots 4*row + col: one term per nonzero entry, its factors merged
    by ``merged_factors``, the scalar -1 on the entry (-+, +-)."""
    h = params.hbar
    entries = (
        (0, ()),
        (5, ((1, 0, 0, 1), (0, 1, h, 1), (0, 1, -h, 1), (1, 0, h, -1), (0, 1, 0, -2))),
        (6, ((1, 1, 0, 1), (0, 0, h, 1), (1, 0, h, -1), (0, 1, 0, -1))),
        (9, ((1, -1, 0, 1), (0, 0, h, 1), (1, 0, h, -1), (0, 1, 0, -1))),
        (10, ((1, 0, 0, 1), (1, 0, h, -1))),
        (15, ()),
    )
    return [(slot, _MINUS if slot == 9 else _ONE, 0j, 0j, merged_factors(factors))
            for slot, factors in entries]


@lru_cache(maxsize=8)
def _r_table(params: EllipticParams) -> ThetaTable:
    return ThetaTable(r_matrix_terms(params), 16, params)


def r_matrices(zs, xs, params: EllipticParams) -> np.ndarray:
    """Numeric dynamical R-matrices [point, (m,n), (i,j)] at the points
    (zs, xs); entry [(m,n),(i,j)] is the coefficient of v_m (x) v_n in
    R(v_i (x) v_j)."""
    return _r_table(params).at(zs, xs).reshape(-1, 4, 4)


def _slot_weight(idx: int) -> int:
    return 1 if idx == 0 else -1


def _embed_r(slots, r_by_state) -> np.ndarray:
    """R on the slot pair ``slots`` of the 8-dimensional triple tensor
    space, acting as r_by_state[c] while the third slot is in state c:
    one indexed assignment into [row slots, col slots]."""
    i, j = slots
    k = 3 - i - j
    c, a, b, ap, bp = np.indices((2,) * 5)
    row, col = [None] * 3, [None] * 3
    row[i], row[j], row[k] = a, b, c
    col[i], col[j], col[k] = ap, bp, c
    m = np.zeros((2,) * 6, dtype=complex)
    m[(*row, *col)] = np.reshape(r_by_state, (2,) * 5)
    return m.reshape(8, 8)


# (slots, shifted) of the factors of lhs = R12 R13 R23, rhs = R23 R13 R12
_YBE_FACTORS = (((0, 1), True), ((0, 2), False), ((1, 2), True),
                ((1, 2), False), ((0, 2), True), ((0, 1), False))


def qdybe_residuals(triples, params: EllipticParams) -> list[float]:
    """Relative Frobenius-norm residual of the dynamical Yang-Baxter
    equation on the 8-dimensional triple tensor space at each (z, w, x) of
    triples; the dynamical argument of each two-slot R is shifted by hbar
    times the weight of the untouched slot.  The twelve R evaluations of
    every triple come from one table pass."""
    h = params.hbar
    zs, xs = [], []
    for z, w, x in triples:
        # the spectral arguments of the factors
        zs += [s for s in (z - w, z, w, w, z, z - w) for c in range(2)]
        xs += [x + h * _slot_weight(c) if shifted else x
               for _, shifted in _YBE_FACTORS for c in range(2)]
    out = []
    for r in r_matrices(zs, xs, params).reshape(-1, 6, 2, 4, 4):
        e = [_embed_r(slots, r[n]) for n, (slots, _) in enumerate(_YBE_FACTORS)]
        out.append(relative_deviation(cmatmul(cmatmul(e[0], e[1]), e[2]),
                                      cmatmul(cmatmul(e[3], e[4]), e[5])))
    return out


def qdybe_residual(z: complex, w: complex, x: complex, params: EllipticParams) -> float:
    """``qdybe_residuals`` at one triple."""
    return qdybe_residuals([(z, w, x)], params)[0]


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------

class GradedModule:
    """What the checks read of a module: ``params``, ``basis``, ``exact``,
    ``diagonal_terms`` and three readers: ``nonzeros(top)``, the slots
    (key*n + row)*n + col (keys ++, +-, -+, --) of the entries that are
    not zero in the L tables cut to the levels up to ``top``;
    ``slot_values(zs, xs, top, masked)``, those entries as [point, slot],
    evaluating no other, NaN where ``ThetaTable.masked_at`` gives it with
    ``masked``, else raising as ``ThetaTable.at``; and ``theta_pass``, the
    same in two steps, so that a caller can share one theta pass among
    modules."""

    def slot_values(self, zs, xs, top: int | None = None, masked: bool = False) -> np.ndarray:
        """The module's own ``theta_pass``, finished."""
        items, finish = self.theta_pass(zs, xs, top, masked)
        return finish(iter(table_passes(items)))

    @property
    def safe_levels(self) -> int:
        """Highest level at which one L-application is truncation-exact."""
        return self.basis.levels if self.exact else self.basis.levels - 1

    def entry_matrices(self, zs, xs, top: int | None = None, masked: bool = False) -> np.ndarray:
        """The four L tables at the points (zs, xs), cut to the levels up
        to ``top``, as [point, key, row, col]: ``slot_values`` at
        ``nonzeros``, zero elsewhere."""
        n = self.basis.size if top is None else self.basis.offset(top + 1)
        out = np.zeros((len(zs), 4 * n * n), dtype=complex)
        out[:, self.nonzeros(top)] = self.slot_values(zs, xs, top, masked)
        return out.reshape(len(zs), 4, n, n)

    @property
    def diagonal_terms(self) -> tuple:
        """(K+, K-): per basis index the single symbolic term of the Gauss
        diagonal entry, or None; a module without symbolic entries has
        none, and ``qchar_of_module`` reads its diagonal off the entry
        tables."""
        return ((None,) * self.basis.size,) * 2


def _expression(scalar, exp_z, exp_x, factors) -> ThetaExpression:
    """The expression of a flat term: ``ThetaExpression.product`` of its
    factors, times its scalar and exponential where they are not (1, 0, 0)."""
    e = ThetaExpression.product(factors)
    if (scalar, exp_z, exp_x) != (1, 0, 0):
        e = e * ThetaExpression(scalar, exp_z, exp_x)
    return e


class EllipticModule(GradedModule):
    """Weight-graded truncated module held as the flat ``ThetaTable`` terms
    of its four L-entry tables: ``terms``, (slot, scalar, exp_z, exp_x,
    factors) at the slots (key*n + row)*n + col, keys in the order ++, +-,
    -+, --.  Every numeric pass reads them.  ``L`` is a read-only symbolic
    view of them, read by ``socle`` and the oracles."""

    def __init__(self, params: EllipticParams, basis: WeightBasis, terms: list,
                 spin: complex | None = None, shift_u: complex = 0.0, label: str = "",
                 exact: bool = False):
        self.params, self.basis, self.terms, self.spin = params, basis, terms, spin
        self.shift_u, self.label, self.exact = shift_u, label, exact  # exact: no truncation edge
        self._tables: dict[int, ThetaTable] = {}

    @cached_property
    def L(self) -> dict[str, ModuleOperator]:
        """The symbolic view of ``terms``: per key, a ModuleOperator whose
        entry at (row, col) sums that slot's terms, each the
        ``ThetaExpression.product`` of its factors (times its scalar and
        exponential where they are not 1)."""
        n = self.basis.size
        entries: list[dict] = [{} for _ in _KEYS]
        for slot, *term in self.terms:
            k, rc = divmod(slot, n * n)
            at = divmod(rc, n)
            entries[k][at] = entries[k].get(at, ThetaSum.zero()) + ThetaSum(_expression(*term))
        return {key: ModuleOperator(_BIDEG[key[0]], _BIDEG[key[1]], self.basis, self.basis,
                                    ops, self.params) for key, ops in zip(_KEYS, entries)}

    def _table(self, n: int) -> ThetaTable:
        """The four L tables cut to their leading n x n block, slot
        (k*n + a)*n + b for key k in the order ++, +-, -+, --."""
        if n not in self._tables:
            m = self.basis.size
            terms = self.terms
            if n < m:
                terms = [((k * n + a) * n + b, *rest) for slot, *rest in terms
                         for k, rc in [divmod(slot, m * m)] for a, b in [divmod(rc, m)]
                         if a < n and b < n]
            self._tables[n] = ThetaTable(terms, 4 * n * n, self.params)
        return self._tables[n]

    def _cut(self, top: int | None) -> ThetaTable:
        return self._table(self.basis.size if top is None else self.basis.offset(top + 1))

    def nonzeros(self, top: int | None = None) -> np.ndarray:
        """The slots of the cut table that some term adds to."""
        return self._cut(top).dest

    def theta_pass(self, zs, xs, top: int | None = None, masked: bool = False) -> tuple:
        """(items, finish): the ``theta.table_passes`` item of the cut
        table, and the function that maps an iterator whose next pass is
        that item's to ``slot_values``."""
        return [(self._cut(top), zs, xs, not masked)], lambda passes: next(passes)()

    @cached_property
    def diagonal_terms(self) -> tuple:
        """(K+, K-): per basis index the single symbolic term of the Gauss
        diagonal entry, or None.  K- is L--; a K+ entry is its L++ entry
        when no L-+ entry is in its column, else None.  They are read off
        the terms, as ``L`` would read them, without building ``L``."""
        n = self.basis.size
        # per diagonal slot of L++ and L--, its one term, or None for several
        diag: dict[int, tuple | None] = {}
        corrected = set()
        for t in self.terms:
            k, rc = divmod(t[0], n * n)
            a, b = divmod(rc, n)
            if k == 2:
                corrected.add(b)
            elif k != 1 and a == b:
                diag[t[0]] = None if t[0] in diag else t[1:]

        def single(slot):
            term = diag.get(slot)
            return None if term is None else _expression(*term)

        return (tuple(None if i in corrected else single(i * n + i) for i in range(n)),
                tuple(single((3 * n + i) * n + i) for i in range(n)))


@lru_cache(maxsize=16)
def _shared_gather(dims_x: tuple, dims_y: tuple, top: int, zx: bytes, zy: bytes) -> tuple:
    """``tensor_gather`` keyed on structure only, the factors' level
    dimensions and the bytes of their cut nonzeros, so that tensors of
    one structure share it whatever their spins and shifts.  The arrays
    are read-only, as every such tensor shares them."""
    slots, products = tensor_gather(dims_x, dims_y, top, np.frombuffer(zx, dtype=int),
                                    np.frombuffer(zy, dtype=int))
    slots.flags.writeable = products.flags.writeable = False
    return slots, products


class TensorModule(GradedModule):
    """The dynamical tensor product X (x) Y truncated at total level
    ``max_level``, with no symbolic L: its slot values are the products
    of its factors' (``dynamical.tensor_entry_tables``), and its Gauss
    diagonal is read off them."""

    exact = False

    def __init__(self, X, Y, max_level: int | None = None):
        if X.params != Y.params:
            raise ShapeError("tensor factors must share parameters")
        self.X, self.Y, self.params, self.label = X, Y, X.params, f"({X.label})(x)({Y.label})"
        self.basis, self.layout = tensor_basis(X.basis, Y.basis, max_level)

    def _gather(self, top: int) -> tuple:
        bx, by = self.X.basis, self.Y.basis
        return _shared_gather(bx.dims, by.dims, top,
                              self.X.nonzeros(min(top, bx.levels)).tobytes(),
                              self.Y.nonzeros(min(top, by.levels)).tobytes())

    def nonzeros(self, top: int | None = None) -> np.ndarray:
        """The first slot of each run of the cut's sorted products."""
        return self._gather(self.basis.levels if top is None else top)[0]

    def theta_pass(self, zs, xs, top: int | None = None, masked: bool = False) -> tuple:
        """(items, finish): the ``theta.table_passes`` items of X at every
        Y level weight, L^X_{ik}(z, x + hbar*w) for w the weight of the
        target Y level, then those of Y (each cut to ``top``, ``masked`` as
        there), and the function that maps their passes to the sums of
        the cut's products (``dynamical.tensor_entry_tables``), reading
        X's passes and then Y's from one iterator."""
        top = self.basis.levels if top is None else top
        X, Y = self.X, self.Y
        zs, xs = np.asarray(zs, dtype=complex), np.asarray(xs, dtype=complex)
        ty = min(top, Y.basis.levels)
        shifts = self.params.hbar * np.array([Y.basis.weight(j) for j in range(ty + 1)])
        ix, fx = X.theta_pass(np.repeat(zs, ty + 1), (xs[:, None] + shifts).ravel(),
                              min(top, X.basis.levels), masked)
        iy, fy = Y.theta_pass(zs, xs, ty, masked)
        gather = self._gather(top)

        def finish(passes):
            vx = fx(passes)
            return tensor_entry_tables(vx.reshape(len(zs), (ty + 1) * vx.shape[1]),
                                       fy(passes), gather)

        return ix + iy, finish


def build_asymptotic(l: complex, u: complex, K: int, params: EllipticParams) -> EllipticModule:
    """Ladder module on w_0..w_K of weights l - 2j, with the spectral
    argument shifted by u*hbar, built flat: each entry is one term, the
    product of its (cz, cx, shift, power) theta factors merged by
    ``merged_factors`` (the rule of ``ThetaExpression.product``), the -+
    entries negated.  Only an L++ entry has factors of one kind, and it is
    merged only when two of their shifts lie within ``MERGE_GAP`` of each
    other: otherwise every factor keeps its own merge key."""
    if K < 2:
        raise ValueError("K must be >= 2")
    h = params.hbar
    n = K + 1
    pp, pm, mp, mm = [], [], [], []
    for j in range(n):
        a, b, d = (l - j + 1) * h, -j * h, (l - 2 * j + 1) * h
        factors = ((1, 0, (u + l - j + 1) * h, 1), (0, 1, a, 1), (0, 1, b, 1), (0, 1, 0, -1),
                   (0, 1, d, -1))
        ra, rb, rd = abs(a), abs(b), abs(d)
        if min(ra, rb, rd, abs(a - b), abs(a - d), abs(b - d)) < MERGE_GAP * (1 + ra + rb + rd):
            factors = merged_factors(factors)
        pp.append((j * n + j, _ONE, 0j, 0j, factors))
        mm.append(((3 * n + j) * n + j, _ONE, 0j, 0j, ((1, 0, (u + j + 1) * h, 1),)))
        if j + 1 <= K:
            pm.append(((n + j + 1) * n + j, _ONE, 0j, 0j, (
                (1, 1, (u + l - j) * h, 1), (0, 0, (l - j) * h, 1), (0, 1, (l - 2 * j - 1) * h, -1))))
        if j >= 1:
            mp.append(((2 * n + j - 1) * n + j, _MINUS, 0j, 0j, (
                (1, -1, (u + j) * h, 1), (0, 0, j * h, 1), (0, 1, 0, -1))))
    return EllipticModule(params, WeightBasis(complex(l), (1,) * n), pp + pm + mp + mm,
                          spin=complex(l), shift_u=complex(u), label=f"W({l},{u})[K={K}]")


def one_dim_module(g: ThetaExpression, params: EllipticParams) -> EllipticModule:
    """The module on one vector whose L++ and L-- are the x-free ``g``."""
    if not g.is_x_free():
        raise ValueError("one-dimensional module datum must not depend on x")
    return EllipticModule(params, WeightBasis(0.0, (1,)),
                          flat_terms((slot, ThetaSum(g)) for slot in (0, 3)),
                          spin=0.0, label="D", exact=True)


def dynamical_tensor(X: GradedModule, Y: GradedModule, max_level: int | None = None) -> TensorModule:
    return TensorModule(X, Y, max_level)


def spectral_shift(X: EllipticModule, u: complex) -> EllipticModule:
    """Twist by the spectral automorphism z -> z + c, c = u*hbar: each
    term's scalar times exp(exp_z*c) and each factor's shift plus cz*c."""
    c = complex(u * X.params.hbar)
    terms = X.terms if c == 0 else [
        (slot, scalar * cmath.exp(exp_z * c), exp_z, exp_x,
         tuple((cz, cx, shift + cz * c, power) for cz, cx, shift, power in factors))
        for slot, scalar, exp_z, exp_x, factors in X.terms]
    return EllipticModule(X.params, X.basis, terms, spin=X.spin,
                          shift_u=X.shift_u + u, label=f"Psi_{u}*{X.label}", exact=X.exact)


def socle(X: EllipticModule, l: int | None = None) -> EllipticModule:
    """Finite-dimensional submodule w_0..w_l at nonnegative integer spin:
    the entries of ``X.L`` whose row and column lie in it, flattened."""
    if l is None:
        if X.spin is None or abs(X.spin - round(X.spin.real)) > 1e-9:
            raise ValueError("socle requires a nonnegative integer spin")
        l = round(X.spin.real)
    if l < 0 or abs(complex(X.spin) - l) > 1e-9:
        raise ValueError(f"spin {X.spin} is not the nonnegative integer {l}")
    if l > X.basis.levels:
        raise ValueError("truncation too shallow for the requested socle")
    basis = WeightBasis(X.basis.alpha0, X.basis.dims[: l + 1])
    n = basis.size
    terms = flat_terms(((k * n + a) * n + b, s) for k, key in enumerate(_KEYS)
                       for (a, b), s in X.L[key].entries.items() if max(a, b) < n)
    return EllipticModule(X.params, basis, terms, spin=float(l), shift_u=X.shift_u,
                          label=f"V^{l}", exact=True)


# ---------------------------------------------------------------------------
# RLL residual
# ---------------------------------------------------------------------------

def rll_residuals(X: GradedModule, triples, levels) -> list[float]:
    """Max relative residual of the exchange relations

        sum_{p,q} R^{pq}_{mn}(z-w; x+hbar*h) L_{pi}(z;x) L_{qj}(w;x+i*hbar)
      = sum_{p,q} L_{nq}(w;x) L_{mp}(z;x+q*hbar) R^{ij}_{pq}(z-w;x)

    applied to basis vectors at each level, for each (z, w, x) of triples:
    triple by triple, a level inside.  The weight operator h acts on the
    result of the two L-applications.  The L tables of every triple come
    from one table pass, and so do its R-matrices.
    """
    basis = X.basis
    safe_top = basis.levels if X.exact else basis.levels - 2
    for level in levels:
        if level > safe_top or level < 0:
            raise ValueError(f"level {level} is not truncation-safe (K={basis.levels})")
    params = X.params
    h = params.hbar
    weights = [basis.weight(j) for j in range(basis.levels + 1)]
    # per triple: the four L tables at z and at w, each at x - hbar, x and
    # x + hbar; R(z - w; x + hbar*weight) at every level weight, then R(z - w; x)
    lz, lx, rz, rx = [], [], [], []
    for z, w, x in triples:
        lz += [z] * 3 + [w] * 3
        lx += [x + s * h for s in (-1, 0, 1)] * 2
        rz += [z - w] * (len(weights) + 1)
        rx += [x + h * wt for wt in weights] + [x]
    tables = X.entry_matrices(lz, lx).reshape(len(triples), 6, 4, basis.size, basis.size)
    r = r_matrices(rz, rx, params).reshape(len(triples), len(weights) + 1, 4, 4)
    return [_rll_level(basis, t, rt, level) for t, rt in zip(tables, r) for level in levels]


def rll_residual(
    X: GradedModule, z: complex, w: complex, x: complex, level: int
) -> float:
    """``rll_residuals`` at one triple and one level."""
    return rll_residuals(X, [(z, w, x)], (level,))[0]


def _rll_level(basis: WeightBasis, tables: np.ndarray, r: np.ndarray, level: int) -> float:
    """The exchange residual of ``rll_residuals`` at one level, from the
    six L tables and the R-matrices of one triple: tables[3*at_w + s + 1,
    key] is the L table at z (w when at_w) and x + s*hbar.

    Every (i, j, m, n) component of both sides is formed for all basis
    vectors of the level at once, a sign +1 at index 0 and -1 at index 1
    of its axis, a key (s1, s2) at 2*s1 + s2: the 16 products of L tables
    of each side are one stacked matmul on the level's columns, summed
    over (p, q) in the order (++, +-, -+, --) with their R weights."""
    n = basis.size
    cols = slice(basis.offset(level), basis.offset(level + 1))
    t = tables.reshape(6, 2, 2, n, n)
    # lhs: L_{pi}(z; x) L_{qj}(w; x + i*hbar) -> [p, i, q, j, row, col]
    lz = t[1][:, :, None, None]
    lw = t[[5, 3]][..., cols][None, :, :, :]
    prod_l = cmatmul(lz, lw)
    # rhs: L_{nq}(w; x) L_{mp}(z; x + q*hbar) -> [n, q, m, p, row, col]
    prod_r = cmatmul(t[4][:, :, None, None], t[[2, 0]][..., cols][None])
    # R^{pq}_{mn} at each row's level as [m, n, p, q, row], R^{ij}_{pq}(x) as [p, q, i, j]
    rt = r[list(basis.index_levels)].reshape(n, 2, 2, 2, 2).transpose(1, 2, 3, 4, 0)
    r0 = r[-1].reshape(2, 2, 2, 2)
    lhs = np.zeros((2, 2, 2, 2, n, cols.stop - cols.start), dtype=complex)
    rhs = np.zeros_like(lhs)
    for p, q in product(range(2), repeat=2):
        # [i, j, m, n, row, col]
        lhs += rt[None, None, :, :, p, q, :, None] * prod_l[p, :, q][:, :, None, None]
        rhs += r0[p, q][:, :, None, None, None, None] * prod_r[:, q, :, p].swapaxes(0, 1)[None, None]
    diff, a, b = (np.linalg.norm(v, axis=4) for v in (lhs - rhs, lhs, rhs))
    residuals = diff / np.maximum(1.0, np.maximum(a, b))
    return worst_residual(residuals.ravel())


# ---------------------------------------------------------------------------
# Gauss decomposition
# ---------------------------------------------------------------------------

def gauss_decompose(L: np.ndarray, basis: WeightBasis, top: int) -> list[tuple]:
    """Per level j = 0..top of the L tables [point, key, row, col] (keys
    ++, +-, -+, --): (s, r, K+_j, E_j, F_j), s the slice of level j and r
    that of level j-1 (empty at j = 0), K- being L--:

        E_j = (L--_{j-1})^-1 L-+_{j-1,j},  F_j = L+-_{j,j-1} (L--_{j-1})^-1,
        K+_j = L++_jj - L+-_{j,j-1} E_j,

    every factor at the point of its tables (the composition rule's
    x-shifts cancel in K+)."""
    out = []
    for j in range(top + 1):
        s = slice(basis.offset(j), basis.offset(j + 1))
        r = slice(basis.offset(j - 1) if j else s.start, s.start)
        pm, km = L[:, 1, s, r], L[:, 3, r, r]
        e = np.linalg.solve(km, L[:, 2, r, s])
        f = np.linalg.solve(km.swapaxes(1, 2), pm.swapaxes(1, 2)).swapaxes(1, 2)
        kp = L[:, 0, s, s] - cmatmul(pm, e) if j else L[:, 0, s, s]
        out.append((s, r, kp, e, f))
    return out


def gauss_reconstruction_residual(X: GradedModule, points) -> float:
    """Worst relative residual of L = (1 F; 0 1)(K+ 0; 0 K-)(1 0; E 1) at
    the sampled (z, x) points, restricted to truncation-safe levels: per
    point, the four tables of one entry-matrix pass, as one operator,
    against the band blocks rebuilt from their Gauss factors, L++ = K+ +
    F K- E, L+- = F K-, L-+ = K- E and L-- = K-."""
    zs, xs = zip(*points)
    L = X.entry_matrices(zs, xs, X.safe_levels)
    return _reconstruction_residual(L, gauss_decompose(L, X.basis, X.safe_levels))


def _reconstruction_residual(L: np.ndarray, levels: list) -> float:
    """``gauss_reconstruction_residual`` of the tables L [point, key, row,
    col] from their ``gauss_decompose`` levels."""
    rec = np.zeros_like(L)
    for s, r, kp, e, f in levels:
        fk = cmatmul(f, L[:, 3, r, r])
        rec[:, 0, s, s] = kp + cmatmul(fk, e)
        rec[:, 1, s, r] = fk
        rec[:, 2, r, s] = cmatmul(L[:, 3, r, r], e)
        rec[:, 3, s, s] = L[:, 3, s, s]
    return worst_residual(map(relative_deviation, L, rec))


def gauss_residuals(X: EllipticModule, points) -> tuple[float, float]:
    """The two Gauss identities of the ladder module X at the sampled (z,
    x) points, over the truncation-safe levels: its
    ``gauss_reconstruction_residual``, the same bits, and the worst
    relative residual of the diagonal scalar law of the ladder of spin l
    and spectral shift u*hbar, with w = z + u*hbar:

        K+_jj(z, x) K-_jj(z - hbar, x + hbar) = theta(w + (l+1) hbar) theta(w),

    K+ composed with K- at z - hbar, x + hbar being the composition rule's
    shift beta(K+) hbar.  One entry-matrix pass over the points and their
    (z - hbar, x + hbar) shifts and one ``gauss_decompose`` at the points
    serve both, as a pass does not depend on its batch.  The scalar law's
    reference is on the scalar ``theta_eval``, so the two theta kernels
    check each other."""
    h, top, n = X.params.hbar, X.safe_levels, len(points)
    zs, xs = zip(*points)
    L = X.entry_matrices([*zs, *(z - h for z in zs)], [*xs, *(x + h for x in xs)], top)
    levels = gauss_decompose(L[:n], X.basis, top)
    kplus = [np.diagonal(kp, axis1=1, axis2=2) for _, _, kp, _, _ in levels]
    got = np.concatenate(kplus, axis=1) * np.diagonal(L[n:, 3], axis1=1, axis2=2)
    ref = np.array([[theta_eval(w + (X.spin + 1) * h, X.params) * theta_eval(w, X.params)]
                    for w in (z + X.shift_u * h for z in zs)])
    return (_reconstruction_residual(L[:n], levels),
            worst_residual((np.abs(got - ref) / np.maximum(1.0, np.abs(ref))).ravel()))


# ---------------------------------------------------------------------------
# Highest-weight data and predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HighestWeightData:
    lam: complex
    alphas: tuple[complex, ...]
    betas: tuple[complex, ...]
    weight: complex

    def __post_init__(self):
        if len(self.alphas) != len(self.betas):
            raise ValueError("alpha and beta lists must have equal length")
        if self.lam == 0:
            raise ValueError("lambda must be nonzero")
        if abs(sum(self.alphas) - sum(self.betas) - self.weight) > 1e-9:
            raise ValueError("weight constraint sum(alpha)-sum(beta)=weight violated")


@dataclass(frozen=True)
class SigmaSet:
    values: tuple[complex, ...]
    truncated: bool
    l: int | None


def sigma_set(alpha: complex, beta: complex, depth: int, params: EllipticParams) -> SigmaSet:
    l = int_plus_hbar_inv_lattice(alpha - beta, 0, params)
    if l is not None:
        return SigmaSet(tuple(beta + p for p in range(l)), False, l)
    return SigmaSet(tuple(beta + p for p in range(depth)), True, None)


def cyclicity_predicates(
    data: HighestWeightData, depth: int, params: EllipticParams
) -> tuple[bool, bool]:
    n = len(data.alphas)
    cocyclic = True
    for i in range(n):
        for j in range(i + 1, n):
            for s in sigma_set(data.alphas[i], data.betas[i], depth, params).values:
                if in_hbar_inv_lattice(data.alphas[j] - s, params):
                    cocyclic = False
    cyclic = cocyclic
    if cocyclic:
        for i in range(n):
            for j in range(i + 1, n):
                for s in sigma_set(-data.betas[i], -data.alphas[i], depth, params).values:
                    if in_hbar_inv_lattice(data.betas[j] + s, params):
                        cyclic = False
    return cocyclic, cyclic


@dataclass(frozen=True)
class KernelCount:
    dim: int
    indeterminate: bool


def highest_vector_count(X: GradedModule, z_samples, x: complex) -> KernelCount:
    """Dimension of the joint kernel of L_{-+}(z_s) over the samples."""
    zs = list(z_samples)
    stacked = X.entry_matrices(zs, [x] * len(zs))[:, 2].reshape(-1, X.basis.size)
    sv = np.linalg.svd(stacked, compute_uv=False)
    smax = sv[0] if len(sv) else 1.0
    if smax == 0:
        return KernelCount(X.basis.size, False)
    rel = sv / smax
    dim = X.basis.size - int(np.sum(rel >= _KERNEL_REL_TOL))
    indet = bool(np.any((rel > _KERNEL_REL_TOL) & (rel < _KERNEL_INDETERMINATE)))
    return KernelCount(dim, indet)


@dataclass
class SimpleConstruction:
    module: GradedModule
    data: HighestWeightData
    alphas: tuple[complex, ...]
    betas: tuple[complex, ...]
    finite_dimensional: bool
    factors: list[EllipticModule]


def construct_simple(data: HighestWeightData, K: int, params: EllipticParams) -> SimpleConstruction:
    """Rearranged factorization D (x) L(a_1,b_1) (x) ... (x) L(a_n,b_n),
    truncated at total level K, with L(a,b) realized as the ladder module
    of spin a-b and spectral shift b-1."""
    a = list(data.alphas)
    b = list(data.betas)
    n = len(a)
    for k in range(n):
        best = None
        for p in range(k, n):
            for q in range(k, n):
                l = int_plus_hbar_inv_lattice(a[p] - b[q], -SEARCH_RADIUS, params)
                if l is None:
                    continue
                if best is None or l < best[0]:
                    best = (l, p, q)
        if best is not None:
            _, p, q = best
            a[k], a[p] = a[p], a[k]
            b[k], b[q] = b[q], b[k]
    finite = all(
        (l := int_plus_hbar_inv_lattice(a[k] - b[k], -SEARCH_RADIUS, params)) is not None and l >= 0
        for k in range(n)
    )
    factors = [one_dim_module(ThetaExpression.const(data.lam), params)]
    for k in range(n):
        factors.append(build_asymptotic(a[k] - b[k], b[k] - 1, K, params))
    module = factors[0]
    for fac in factors[1:]:
        module = dynamical_tensor(module, fac, max_level=K)
    return SimpleConstruction(module, data, tuple(a), tuple(b), finite, factors)
