"""Concrete representations: the dynamical R-matrix, the vector
representation, truncated asymptotic ladder modules, socles, one-dimensional
modules, residual checks for the dynamical Yang-Baxter and exchange
relations, Gauss decomposition, and the highest-weight predicates."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .dynamical import (
    ModuleOperator,
    ShapeError,
    WeightBasis,
    cmatmul,
    compose_module_ops,
    invert_weightwise,
    relative_deviation,
    tensor_entry_tables,
    worst_residual,
)
from .theta import (
    EllipticParams,
    ThetaExpression,
    ThetaSum,
    ThetaTable,
    in_hbar_inv_lattice,
)

_SIGNS = ("+", "-")
_KEYS = ("++", "+-", "-+", "--")
_BIDEG = {"+": 1, "-": -1}
# singular values below this share of the largest count as kernel; those
# between it and the second bound make the count indeterminate
_KERNEL_REL_TOL = 1e-8
_KERNEL_INDETERMINATE = 1e-6


def _th(cz, cx, shift, power=1):
    return ThetaExpression.theta(cz, cx, shift, power)


# ---------------------------------------------------------------------------
# R-matrix
# ---------------------------------------------------------------------------

def r_matrix_symbolic(params: EllipticParams):
    """4x4 table of ThetaExpressions in the basis (++, +-, -+, --)."""
    h = params.hbar
    one = ThetaSum.one()
    zero = ThetaSum.zero()
    b11 = ThetaSum(
        _th(1, 0, 0) * _th(0, 1, h) * _th(0, 1, -h)
        * _th(1, 0, h, -1) * _th(0, 1, 0, -2)
    )
    b12 = ThetaSum(_th(1, 1, 0) * _th(0, 0, h) * _th(1, 0, h, -1) * _th(0, 1, 0, -1))
    b21 = ThetaSum(
        (-1.0) * _th(1, -1, 0) * _th(0, 0, h) * _th(1, 0, h, -1) * _th(0, 1, 0, -1)
    )
    b22 = ThetaSum(_th(1, 0, 0) * _th(1, 0, h, -1))
    return [
        [one, zero, zero, zero],
        [zero, b11, b12, zero],
        [zero, b21, b22, zero],
        [zero, zero, zero, one],
    ]


@lru_cache(maxsize=8)
def _r_table(params: EllipticParams) -> ThetaTable:
    sym = r_matrix_symbolic(params)
    return ThetaTable(((4 * a + b, sym[a][b]) for a in range(4) for b in range(4)), 16, params)


def r_matrices(zs, xs, params: EllipticParams) -> np.ndarray:
    """Numeric dynamical R-matrices [point, (m,n), (i,j)] at the points
    (zs, xs); entry [(m,n),(i,j)] is the coefficient of v_m (x) v_n in
    R(v_i (x) v_j)."""
    return _r_table(params).at(zs, xs).reshape(-1, 4, 4)


def r_matrix(z: complex, x: complex, params: EllipticParams) -> np.ndarray:
    """The numeric dynamical R-matrix at one point (``r_matrices``)."""
    return r_matrices([z], [x], params)[0]


def _slot_weight(idx: int) -> int:
    return 1 if idx == 0 else -1


def _embed_r(slots, r_by_state) -> np.ndarray:
    """R on the slot pair ``slots`` of the 8-dimensional triple tensor
    space, acting as r_by_state[c] while the third slot is in state c."""
    i, j = slots
    k = 3 - i - j
    m = np.zeros((8, 8), dtype=complex)
    for c in range(2):
        r = r_by_state[c]
        for a, b, ap, bp in product(range(2), repeat=4):
            row, col = [0, 0, 0], [0, 0, 0]
            row[i], row[j], row[k] = a, b, c
            col[i], col[j], col[k] = ap, bp, c
            m[4 * row[0] + 2 * row[1] + row[2],
              4 * col[0] + 2 * col[1] + col[2]] = r[2 * a + b, 2 * ap + bp]
    return m


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

@dataclass
class EllipticModule:
    """Weight-graded truncated module with four L-entry tables."""

    params: EllipticParams
    basis: WeightBasis
    L: dict[str, ModuleOperator]
    spin: complex | None = None
    shift_u: complex = 0.0
    label: str = ""
    exact: bool = False  # finite module, no truncation edge

    @property
    def safe_levels(self) -> int:
        """Highest level at which one L-application is truncation-exact."""
        return self.basis.levels if self.exact else self.basis.levels - 1

    @cached_property
    def _table(self) -> ThetaTable:
        return self.leading_table(self.basis.size)

    def leading_table(self, size: int) -> ThetaTable:
        """The four L tables cut to their leading size x size block, slot
        (k*size + a)*size + b for key k in the order ++, +-, -+, --: a pass
        evaluates no entry outside the block."""
        return ThetaTable(
            (((k * size + a) * size + b, s) for k, name in enumerate(_KEYS)
             for (a, b), s in self.L[name].entries.items() if a < size and b < size),
            4 * size * size, self.params)

    def entry_matrices(self, zs, xs) -> np.ndarray:
        """The four L tables at the points (zs, xs), one table pass, as
        [point, key, row, col] with keys in the order ++, +-, -+, --."""
        n = self.basis.size
        return self._table.at(zs, xs).reshape(len(zs), 4, n, n)


def build_asymptotic(l: complex, u: complex, K: int, params: EllipticParams) -> EllipticModule:
    """Ladder module on w_0..w_K of weights l - 2j, with the spectral
    argument shifted by u*hbar."""
    if K < 2:
        raise ValueError("K must be >= 2")
    h = params.hbar
    basis = WeightBasis(complex(l), (1,) * (K + 1))
    pp, pm, mp, mm = {}, {}, {}, {}
    for j in range(K + 1):
        pp[(j, j)] = ThetaSum(
            _th(1, 0, (u + l - j + 1) * h)
            * _th(0, 1, (l - j + 1) * h)
            * _th(0, 1, -j * h)
            * _th(0, 1, 0, -1)
            * _th(0, 1, (l - 2 * j + 1) * h, -1)
        )
        mm[(j, j)] = ThetaSum(_th(1, 0, (u + j + 1) * h))
        if j + 1 <= K:
            pm[(j + 1, j)] = ThetaSum(
                _th(1, 1, (u + l - j) * h)
                * _th(0, 0, (l - j) * h)
                * _th(0, 1, (l - 2 * j - 1) * h, -1)
            )
        if j >= 1:
            mp[(j - 1, j)] = ThetaSum(
                (-1.0) * _th(1, -1, (u + j) * h) * _th(0, 0, j * h) * _th(0, 1, 0, -1)
            )
    L = {
        "++": ModuleOperator(1, 1, basis, basis, pp, params),
        "+-": ModuleOperator(1, -1, basis, basis, pm, params),
        "-+": ModuleOperator(-1, 1, basis, basis, mp, params),
        "--": ModuleOperator(-1, -1, basis, basis, mm, params),
    }
    return EllipticModule(params, basis, L, spin=complex(l), shift_u=complex(u),
                          label=f"W({l},{u})[K={K}]")


def build_vector_rep(params: EllipticParams) -> EllipticModule:
    """Two-dimensional module v_+, v_- of weights +1, -1 with entries read
    off the R-matrix."""
    basis = WeightBasis(1.0, (1, 1))
    sym = r_matrix_symbolic(params)

    def pair(m, a):  # slot signs to the 4-dim index, + -> 0, - -> 1
        return 2 * m + a

    L = {}
    for mi, m in enumerate(_SIGNS):
        for ii, i in enumerate(_SIGNS):
            entries = {}
            for a in range(2):
                for b in range(2):
                    s = sym[pair(mi, a)][pair(ii, b)]
                    if s:
                        entries[(a, b)] = s
            L[m + i] = ModuleOperator(_BIDEG[m], _BIDEG[i], basis, basis, entries, params)
    return EllipticModule(params, basis, L, spin=1.0, label="V", exact=True)


def one_dim_module(g: ThetaExpression, params: EllipticParams) -> EllipticModule:
    if not g.is_x_free():
        raise ValueError("one-dimensional module datum must not depend on x")
    basis = WeightBasis(0.0, (1,))
    gs = ThetaSum(g)
    L = {
        "++": ModuleOperator(1, 1, basis, basis, {(0, 0): gs}, params),
        "+-": ModuleOperator(1, -1, basis, basis, {}, params),
        "-+": ModuleOperator(-1, 1, basis, basis, {}, params),
        "--": ModuleOperator(-1, -1, basis, basis, {(0, 0): gs}, params),
    }
    return EllipticModule(params, basis, L, spin=0.0, label="D", exact=True)


def dynamical_tensor(X: EllipticModule, Y: EllipticModule, max_level: int | None = None) -> EllipticModule:
    if X.params != Y.params:
        raise ShapeError("tensor factors must share parameters")
    basis, L = tensor_entry_tables(X.L, Y.L, X.params, max_level)
    return EllipticModule(X.params, basis, L, label=f"({X.label})(x)({Y.label})")


def spectral_shift(X: EllipticModule, u: complex) -> EllipticModule:
    """Twist by the spectral automorphism z -> z + u*hbar."""
    c = u * X.params.hbar
    L = {k: op.shift_z(c) for k, op in X.L.items()}
    return EllipticModule(X.params, X.basis, L, spin=X.spin,
                          shift_u=X.shift_u + u, label=f"Psi_{u}*{X.label}", exact=X.exact)


def socle(X: EllipticModule, l: int | None = None) -> EllipticModule:
    """Finite-dimensional submodule w_0..w_l at nonnegative integer spin."""
    if l is None:
        if X.spin is None or abs(X.spin - round(X.spin.real)) > 1e-9:
            raise ValueError("socle requires a nonnegative integer spin")
        l = round(X.spin.real)
    if l < 0 or abs(complex(X.spin) - l) > 1e-9:
        raise ValueError(f"spin {X.spin} is not the nonnegative integer {l}")
    if l > X.basis.levels:
        raise ValueError("truncation too shallow for the requested socle")
    basis = WeightBasis(X.basis.alpha0, X.basis.dims[: l + 1])
    size = basis.size
    L = {}
    for key, op in X.L.items():
        entries = {
            (a, b): s for (a, b), s in op.entries.items() if a < size and b < size
        }
        L[key] = ModuleOperator(op.alpha, op.beta, basis, basis, entries, X.params)
    return EllipticModule(X.params, basis, L, spin=float(l), shift_u=X.shift_u,
                          label=f"V^{l}", exact=True)


# ---------------------------------------------------------------------------
# RLL residual
# ---------------------------------------------------------------------------

def rll_residuals(X: EllipticModule, triples, levels) -> list[float]:
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
    X: EllipticModule, z: complex, w: complex, x: complex, level: int
) -> float:
    """``rll_residuals`` at one triple and one level."""
    return rll_residuals(X, [(z, w, x)], (level,))[0]


def _rll_level(basis: WeightBasis, tables: np.ndarray, r: np.ndarray, level: int) -> float:
    """The exchange residual of ``rll_residuals`` at one level, from the
    six L tables and the R-matrices of one triple."""
    size = basis.size

    def lmat(key: str, at_w: bool, shift: int) -> np.ndarray:
        return tables[3 * at_w + shift + 1, _KEYS.index(key)]

    r_target = r[[basis.level_of(a) for a in range(size)]]
    r0 = r[-1]

    def ridx(s1: int, s2: int) -> int:  # signs +-1 to the 4-dim index
        return 2 * (0 if s1 == 1 else 1) + (0 if s2 == 1 else 1)

    cols = [basis.index(level, i) for i in range(basis.dims[level])]

    residuals = []
    for i, jj, m, n in product((1, -1), repeat=4):
        ki = "+" if i == 1 else "-"
        kj = "+" if jj == 1 else "-"
        km = "+" if m == 1 else "-"
        kn = "+" if n == 1 else "-"
        for b in cols:
            lhs = np.zeros(size, dtype=complex)
            for p, q in product((1, -1), repeat=2):
                kp = "+" if p == 1 else "-"
                kq = "+" if q == 1 else "-"
                v = lmat(kq + kj, True, i)[:, b]
                v = lmat(kp + ki, False, 0) @ v
                lhs += r_target[:, ridx(m, n), ridx(p, q)] * v
            rhs = np.zeros(size, dtype=complex)
            for p, q in product((1, -1), repeat=2):
                kp = "+" if p == 1 else "-"
                kq = "+" if q == 1 else "-"
                v = lmat(km + kp, False, q)[:, b]
                v = lmat(kn + kq, True, 0) @ v
                rhs += r0[ridx(p, q), ridx(i, jj)] * v
            residuals.append(relative_deviation(lhs, rhs))
    return worst_residual(residuals)


# ---------------------------------------------------------------------------
# Gauss decomposition
# ---------------------------------------------------------------------------

@dataclass
class GaussData:
    kplus: ModuleOperator
    kminus: ModuleOperator
    e: ModuleOperator
    f: ModuleOperator


def gauss_decompose(X: EllipticModule) -> GaussData:
    km = X.L["--"]
    km_inv = invert_weightwise(km)
    e = compose_module_ops(km_inv, X.L["-+"])
    f = compose_module_ops(X.L["+-"], km_inv)
    kp = X.L["++"] - compose_module_ops(X.L["+-"], e)
    return GaussData(kp, km, e, f)


def gauss_reconstruction_residual(
    X: EllipticModule, points, g: GaussData | None = None
) -> float:
    """Entrywise residual of L = (1 F; 0 1)(K+ 0; 0 K-)(1 0; E 1) at the
    sampled (z, x) points, restricted to truncation-safe levels; ``g`` is
    the decomposition of X, built here when not given."""
    if g is None:
        g = gauss_decompose(X)
    rec = {
        "++": g.kplus + compose_module_ops(g.f, compose_module_ops(g.kminus, g.e)),
        "+-": compose_module_ops(g.f, g.kminus),
        "-+": compose_module_ops(g.kminus, g.e),
        "--": g.kminus,
    }
    safe = X.basis.offset(X.safe_levels) + X.basis.dims[X.safe_levels]
    zs, xs = zip(*points)
    residuals = []
    for key in _KEYS:
        lhs = X.L[key].to_matrices(zs, xs)[:, :safe, :safe]
        rhs = rec[key].to_matrices(zs, xs)[:, :safe, :safe]
        residuals.extend(map(relative_deviation, lhs, rhs))
    return worst_residual(residuals)


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


def _int_part_mod_lattice(c: complex, params: EllipticParams) -> int | None:
    """Integer l (any sign) with c in l + hbar^{-1}(Z+Z*tau), if unique in
    the scan window."""
    for l in range(-params.search_radius, params.search_radius + 1):
        if in_hbar_inv_lattice(c - l, params):
            return l
    return None


def sigma_set(alpha: complex, beta: complex, depth: int, params: EllipticParams) -> SigmaSet:
    from .theta import nonneg_int_plus_hbar_inv_lattice

    l = nonneg_int_plus_hbar_inv_lattice(alpha - beta, params)
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


def highest_vector_count(X: EllipticModule, z_samples, x: complex) -> KernelCount:
    """Dimension of the joint kernel of L_{-+}(z_s) over the samples."""
    zs = list(z_samples)
    stacked = X.L["-+"].to_matrices(zs, [x] * len(zs)).reshape(-1, X.basis.size)
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
    module: EllipticModule
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
                l = _int_part_mod_lattice(a[p] - b[q], params)
                if l is None:
                    continue
                if best is None or l < best[0]:
                    best = (l, p, q)
        if best is not None:
            _, p, q = best
            a[k], a[p] = a[p], a[k]
            b[k], b[q] = b[q], b[k]
    finite = all(
        (l := _int_part_mod_lattice(a[k] - b[k], params)) is not None and l >= 0
        for k in range(n)
    )
    factors = [one_dim_module(ThetaExpression.const(data.lam), params)]
    for k in range(n):
        factors.append(build_asymptotic(a[k] - b[k], b[k] - 1, K, params))
    module = factors[0]
    for fac in factors[1:]:
        module = dynamical_tensor(module, fac, max_level=K)
    return SimpleConstruction(module, data, tuple(a), tuple(b), finite, factors)
