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
from functools import cached_property, lru_cache

import numpy as np

from .theta import EllipticParams, ThetaSum, ThetaTable

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

    @cached_property
    def _table(self) -> ThetaTable:
        cols = self.source.size
        return ThetaTable(((a * cols + b, s) for (a, b), s in self.entries.items()),
                          self.target.size * cols, self.params)

    def to_matrices(self, zs, xs) -> np.ndarray:
        """Dense numeric entry matrices [point, row, col] at the points
        (zs, xs), from one table pass."""
        return self._table.at(zs, xs).reshape(len(zs), self.target.size, self.source.size)

    def to_matrix(self, z: complex, x: complex) -> np.ndarray:
        """Dense numeric entry matrix at fixed (z, x)."""
        return self.to_matrices([z], [x])[0]

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


# Entry-matrix items gathered for one batched matmul of `graded_trace`:
# bounds the batch temporaries whatever the number of prefixes.
_BATCH_ITEMS = 1 << 18

# The complex item of `cmatmul`'s clean-up multiply.
_UNIT = np.ones(1, dtype=complex)
_UNIT_OUT = np.empty(1, dtype=complex)


def cmatmul(a, b, out=None) -> np.ndarray:
    """``np.matmul`` of complex matrices that leaves the vector unit clean.

    OpenBLAS's complex gemm kernels (scipy-openblas 0.3.31 on AVX-512
    Xeons) return with the upper halves of the vector registers dirty.
    Every legacy-SSE instruction after them (libm, the interpreter's float
    and complex arithmetic) then runs about four times slower, until some
    AVX code clears the registers; matrix-vector products do not dirty
    them.  One complex multiply in numpy's own vector loop clears them.
    Call it for every complex matrix product on a hot path.
    """
    out = np.matmul(a, b, out=out)
    np.multiply(_UNIT, _UNIT, out=_UNIT_OUT)
    return out


@lru_cache(maxsize=8)
def contraction_plan(pairs: tuple, letters: tuple) -> tuple:
    """Left-to-right plan of `graded_trace` over the pairs (i, j) of
    strings in two letters (up, down), sharing products between pairs
    with equal prefixes (an MPO-style sweep, Schollwoeck arXiv:1008.3477).

    Site l lists each distinct prefix (i[:l+1], j[:l+1]) once, in order
    of first appearance; at the last site the prefixes are the pairs, in
    order.  A prefix is its parent prefix at site l-1 times the entry
    (i_l, j_l) at the shift s = #up - #down of j[:l].  Returns the
    reachable (site, shift) grid, sorted, and per site the parent index
    and the entry 4*point + key of every prefix, with point the grid
    index and key 2*[i_l is down] + [j_l is down].
    """
    up, down = letters
    raw = []
    prev = {((), ()): (0, 0)}  # prefix: (index, shift after it)
    for l in range(len(pairs[0][0])):
        cur: dict[tuple, tuple] = {}
        parent, points, key = [], [], []
        for i, j in pairs:
            pre = (i[: l + 1], j[: l + 1])
            if pre not in cur:
                n, s = prev[i[:l], j[:l]]
                cur[pre] = (len(parent), s + (1 if j[l] == up else -1))
                parent.append(n)
                points.append((l, s))
                key.append(2 * (i[l] == down) + (j[l] == down))
        raw.append((parent, points, key))
        prev = cur
    grid = sorted({g for _, points, _ in raw for g in points})
    where = {g: n for n, g in enumerate(grid)}
    steps = tuple((np.array(parent), 4 * np.array([where[g] for g in points]) + key)
                  for parent, points, key in raw)
    return np.array(grid), steps


def tile_plan(plan: tuple, n: int) -> tuple:
    """The plan of `contraction_plan` repeated for n points: point p's
    prefixes follow point p-1's at every site, its parents are offset by
    p times the previous site's prefix count (site 0 shares the empty
    prefix) and its entries by p times 4 * len(grid), so that `graded_trace`
    reads m[point, grid, key] with points outermost."""
    grid, steps = plan
    p = np.arange(n)[:, None]
    tiled, prev = [], 0
    for parent, code in steps:
        tiled.append(((parent + p * prev).ravel(), (code + p * 4 * len(grid)).ravel()))
        prev = len(parent)
    return grid, tuple(tiled)


def graded_trace(m: np.ndarray, plan: tuple, levels) -> np.ndarray:
    """Level-block traces of the site-ordered products over the pairs of
    a `contraction_plan`, in any dtype: m[point, key] is the entry matrix
    at a grid point and rows levels[k]:levels[k+1] are level k, each
    level nonempty.  Returns [pair, level].

    Each site multiplies its prefixes' entries in batched matmuls of at
    most `_BATCH_ITEMS` gathered entry items; only the rows of the traced
    levels are carried, and the last site forms only the diagonal.
    """
    _, steps = plan
    rows, size = levels[-1], m.shape[-1]
    entries = m.reshape(-1, size, size)
    batch = max(1, _BATCH_ITEMS // (size * size))
    acc = np.eye(size, dtype=m.dtype)[None, :rows]
    *inner, (parent, code) = steps
    for up, key in inner:
        nxt = np.empty((len(up), rows, size), dtype=m.dtype)
        for lo in range(0, len(up), batch):
            b = slice(lo, lo + batch)
            cmatmul(acc[up[b]], entries[key[b]], out=nxt[b])
        acc = nxt
    diag = np.empty((len(parent), rows), dtype=m.dtype)
    for lo in range(0, len(parent), batch):
        b = slice(lo, lo + batch)
        diag[b] = np.einsum("pab,pba->pa", acc[parent[b]], entries[code[b]][:, :, :rows])
    return np.add.reduceat(diag, levels[:-1], axis=1)


# ---------------------------------------------------------------------------
# Difference-operator series
# ---------------------------------------------------------------------------

class TermMatrix:
    """A series coefficient matrix, evaluable at a batch of points, with a
    per-point memo.

    ``fn(zs, xs)`` maps arrays of n points to the stacked matrices
    [n, dim, dim].  ``at`` calls it once per request, on the distinct
    points not yet in the memo; composed and divided series hold closures
    over other TermMatrix objects.  Such a term also declares what it
    reads: ``reads(zs, xs)`` lists the (source, zs', xs') that ``fn``
    asks for at the points, a pure function of the points, so that
    ``request`` can fill the leaves below a whole relation before any
    arithmetic runs.  A term without ``reads`` is opaque to ``request``
    and evaluated when asked.  ``eval`` stays as a batch of one: the
    benchmark's tracer (``perfbench/tracer.py``) wraps it by name.
    """

    __slots__ = ("_fn", "dim", "_cache", "reads")

    def __init__(self, fn, dim: int, reads=None):
        self._fn = fn
        self.dim = dim
        self._cache: dict[tuple[complex, complex], np.ndarray] = {}
        self.reads = reads

    def at(self, zs, xs) -> np.ndarray:
        """The matrices at the points (zs, xs), as [point, dim, dim]."""
        keys = [(complex(z), complex(x)) for z, x in zip(zs, xs)]
        if not keys:
            return np.empty((0, self.dim, self.dim), dtype=complex)
        miss = list(dict.fromkeys(k for k in keys if k not in self._cache))
        if miss:
            mz, mx = np.array(miss, dtype=complex).T
            vals = np.asarray(self._fn(mz, mx), dtype=complex)
            vals.flags.writeable = False
            self._cache.update(zip(miss, vals))
            if miss == keys:
                return vals
        # np.stack keeps the matrices' memory order (a quotient is
        # column-major), and a norm sums a matrix in its memory order
        return np.stack([self._cache[k] for k in keys])

    def eval(self, z: complex, x: complex) -> np.ndarray:
        """The matrix at one point: a batch of one."""
        return self.at([z], [x])[0]

    def bound_z(self, z0: complex) -> "TermMatrix":
        z0 = complex(z0)
        return TermMatrix(lambda zs, xs: self.at(np.full(len(xs), z0), xs), self.dim,
                          lambda zs, xs: [(self, np.full(len(xs), z0), xs)])

    @staticmethod
    def zero(dim: int) -> "TermMatrix":
        return TermMatrix(lambda zs, xs: np.zeros((len(zs), dim, dim), dtype=complex), dim)

    @staticmethod
    def identity(dim: int) -> "TermMatrix":
        return TermMatrix(lambda zs, xs: np.broadcast_to(np.eye(dim, dtype=complex),
                                                         (len(zs), dim, dim)), dim)


def request(reads) -> None:
    """Fill the leaves below the reads (source, zs, xs) before any term is
    evaluated: walk the declared ``reads`` of every TermMatrix at the
    points missing from its memo, down to the sources that are not
    TermMatrix objects (the leaves), and hand each leaf the union of the
    points it is asked for in one ``fill`` call.  A (source, point) is
    entered once, so the recursion of a quotient stays linear."""
    seen: set = set()
    leaves: dict = {}
    todo = list(reads)
    while todo:
        src, zs, xs = todo.pop()
        keys = [k for k in dict.fromkeys(zip(map(complex, zs), map(complex, xs)))
                if (src, k) not in seen]
        seen.update((src, k) for k in keys)
        if not isinstance(src, TermMatrix):
            leaves.setdefault(src, []).extend(keys)
            continue
        keys = [k for k in keys if k not in src._cache]
        if keys and src.reads is not None:
            todo.extend(src.reads(*np.array(keys, dtype=complex).T))
    for leaf, keys in leaves.items():
        leaf.fill(keys)


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

        def fn(zs, xs, pairs=pairs, dim=s1.dim):
            out = np.zeros((len(zs), dim, dim), dtype=complex)
            for t1, t2, shift in pairs:
                out += cmatmul(t1.at(zs, xs + shift), t2.at(zs, xs))
            return out

        def reads(zs, xs, pairs=pairs):
            return [r for t1, t2, shift in pairs for r in ((t1, zs, xs + shift), (t2, zs, xs))]

        terms.append(TermMatrix(fn, s1.dim, reads))
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

    # term m holds the lower terms, not the list it joins: no reference
    # cycle, so a series and its memos are freed as soon as it is dropped
    def make_term(m, lower):
        inner = range(max(0, m - den.order), m)

        def fn(zs, ys):
            xs = ys - b * hb
            acc = num.term(m).at(zs, xs)
            for k in inner:
                acc = acc - cmatmul(lower[k].at(zs, ys - 2 * (m - k) * hb),
                                    den.terms[m - k].at(zs, xs))
            lead = den.terms[0].at(zs, xs).transpose(0, 2, 1)
            try:
                return np.linalg.solve(lead, acc.transpose(0, 2, 1)).transpose(0, 2, 1)
            except np.linalg.LinAlgError as exc:
                raise SingularityError("singular leading coefficient",
                                       point=_first_singular(lead, zs, xs)) from exc

        def reads(zs, ys):
            xs = ys - b * hb
            return [(num.term(m), zs, xs), (den.terms[0], zs, xs),
                    *(r for k in inner for r in ((lower[k], zs, ys - 2 * (m - k) * hb),
                                                 (den.terms[m - k], zs, xs)))]

        return TermMatrix(fn, num.dim, reads)

    for m in range(order + 1):
        terms.append(make_term(m, tuple(terms)))
    return DiffOpSeries(num.alpha0 - b, terms, num.dim, num.params)


def _first_singular(mats, zs, xs) -> tuple[complex, complex] | None:
    """The point of the first matrix of the stack that ``solve`` rejects."""
    for m, z, x in zip(mats, zs, xs):
        try:
            np.linalg.solve(m, m[:, :1])
        except np.linalg.LinAlgError:
            return complex(z), complex(x)
    return None


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

        def fn(zs, xs, t1=t1, t2=t2):
            return t1.at(zs, xs) + t2.at(zs, xs)

        def reads(zs, xs, t1=t1, t2=t2):
            return [(t1, zs, xs), (t2, zs, xs)]

        terms.append(TermMatrix(fn, s1.dim, reads))
    return DiffOpSeries(s1.alpha0, terms, s1.dim, s1.params)


def series_scale(s: DiffOpSeries, c) -> DiffOpSeries:
    """Multiply every coefficient by a constant or by a scalar function
    f(zs, xs) of the points, evaluated on arrays of them."""
    if callable(c):
        def fn_c(zs, xs):
            return np.asarray(c(zs, xs))[:, None, None]
    else:
        def fn_c(zs, xs):
            return c
    terms = [
        TermMatrix(lambda zs, xs, t=t: fn_c(zs, xs) * t.at(zs, xs), s.dim,
                   lambda zs, xs, t=t: [(t, zs, xs)])
        for t in s.terms
    ]
    return DiffOpSeries(s.alpha0, terms, s.dim, s.params)


def series_max_residual(
    s1: DiffOpSeries, s2: DiffOpSeries, order: int, points
) -> float:
    """Worst relative coefficient deviation over p-orders <= order and the
    sampled (z, x) points.  Exponent cosets must agree.  Every leaf below
    the coefficients of both sides is filled in one ``request`` first."""
    d = _coset_offset(s1.alpha0, s2.alpha0)
    if d < 0:
        return series_max_residual(s2, s1, order, points)
    zs, xs = np.array(points, dtype=complex).reshape(-1, 2).T
    request((t, zs, xs) for k in range(order + 1) for t in (s1.term(k), s2.term(k - d)))
    return worst_residual(
        relative_deviation(a, b)
        for k in range(order + 1)
        for a, b in zip(s1.term(k).at(zs, xs), s2.term(k - d).at(zs, xs))
    )


def relative_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """|a - b| / max(1, |a|, |b|) in the Frobenius norm."""
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a), np.linalg.norm(b)))


def worst_residual(residuals) -> float:
    """Largest of the residuals, 0.0 for none.  Any NaN or inf among them
    gives +inf, so a breakdown never reads as a small residual."""
    worst = 0.0
    for r in residuals:
        r = float(r)
        worst = max(worst, r) if math.isfinite(r) else math.inf
    return worst
