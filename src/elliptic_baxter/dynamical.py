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
from functools import cached_property, lru_cache, partial
from itertools import islice

import numpy as np

from .theta import EllipticParams, ThetaSum, ThetaTable, flat_terms, table_passes

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

    @cached_property
    def index_levels(self) -> tuple[int, ...]:
        """The level of every basis index, in index order."""
        return tuple(j for j, d in enumerate(self.dims) for _ in range(d))

    def level_of(self, idx: int) -> int:
        return self.index_levels[idx]

    def weight(self, level: int) -> complex:
        return self.alpha0 - 2 * level


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
        target, source = self.target.index_levels, self.source.index_levels
        for (a, b), s in self.entries.items():
            if not s:
                continue
            wa = self.target.weight(target[a])
            wb = self.source.weight(source[b])
            if abs(wa - wb - shift) > _WEIGHT_TOL:
                raise ShapeError(
                    f"entry ({a},{b}) violates the weight rule for bidegree "
                    f"({self.alpha},{self.beta})"
                )

    @cached_property
    def _table(self) -> ThetaTable:
        cols = self.source.size
        return ThetaTable(flat_terms((a * cols + b, s) for (a, b), s in self.entries.items()),
                          self.target.size * cols, self.params)

    def to_matrices(self, zs, xs) -> np.ndarray:
        """Dense numeric entry matrices [point, row, col] at the points
        (zs, xs), from one table pass."""
        return self._table.at(zs, xs).reshape(len(zs), self.target.size, self.source.size)

    def to_matrix(self, z: complex, x: complex) -> np.ndarray:
        """Dense numeric entry matrix at fixed (z, x)."""
        return self.to_matrices([z], [x])[0]


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
        level = [(jx, ix, m - jx, iy) for jx in range(max(0, m - by.levels), min(m, bx.levels) + 1)
                 for ix in range(bx.dims[jx]) for iy in range(by.dims[m - jx])]
        layout += level
        dims.append(len(level))
    basis = WeightBasis(bx.alpha0 + by.alpha0, tuple(dims))
    return basis, layout


def tensor_gather(dims_x: tuple, dims_y: tuple, top: int, zx, zy) -> tuple[np.ndarray, np.ndarray]:
    """The products whose sums are the coproduct L_{ij} = sum_k L^X_{ik}
    (x) L^Y_{kj} cut to total level ``top``, one per pair of the factors'
    structural nonzeros cut to ``top``: ``zx`` and ``zy``, the
    ``nonzeros`` of factors with level dimensions ``dims_x`` and
    ``dims_y``, cut to min(top, their top level).  No weight enters.
    Returns the tensor's structural nonzeros, sorted, and the products
    sorted by slot: column p holds product p's X entry as (level of its
    target Y vector) * (X's nonzero count) + its index among X's
    nonzeros, its Y entry as its index among Y's, and the index of its
    slot among the tensor's nonzeros."""
    bx, by = WeightBasis(0j, dims_x), WeightBasis(0j, dims_y)
    basis, layout = tensor_basis(bx, by, top)
    n = basis.size
    pos = np.full((bx.size, by.size), -1)
    for t, (jx, ix, jy, iy) in enumerate(layout):
        pos[bx.offset(jx) + ix, by.offset(jy) + iy] = t
    level_y = np.repeat(np.arange(len(by.dims)), by.dims)
    tx, ty = min(top, bx.levels), min(top, by.levels)

    def entries(nz, m, key):  # (index, row, col) of the nonzeros of one key, cut to m x m
        i = np.flatnonzero(nz // (m * m) == key)
        return (i, *np.divmod(nz[i] % (m * m), m))

    parts = []
    for i, j, k in np.ndindex(2, 2, 2):
        p, a, b = entries(zx, bx.offset(tx + 1), 2 * i + k)
        q, c, d = entries(zy, by.offset(ty + 1), 2 * k + j)
        tgt, src = pos[a, c[:, None]], pos[b, d[:, None]]  # [Y entry, X entry]
        parts.append(np.stack(np.broadcast_arrays(
            level_y[c, None] * len(zx) + p, q[:, None],
            ((2 * i + j) * n + tgt) * n + src))[:, (tgt >= 0) & (src >= 0)])
    parts = np.concatenate(parts, axis=1)
    parts = parts[:, np.argsort(parts[2], kind="stable")]
    first = np.diff(parts[2], prepend=-1) != 0  # np.unique would import numpy.ma
    return parts[2, first], np.vstack([parts[:2], np.cumsum(first) - 1])


def tensor_entry_tables(vx: np.ndarray, vy: np.ndarray, gather: tuple) -> np.ndarray:
    """The coproduct's entries at some points, in the slots of its
    ``tensor_gather``, as [point, slot]: L_{ij}(z, x) = sum_k L^X_{ik}(z,
    x + hbar*w) L^Y_{kj}(z, x), w the weight of the target Y level, from
    the factors' slot values there: vx[p, (level, slot)] those of X at
    every Y level weight, vy[p, slot] those of Y.  Only the products of
    ``tensor_gather`` are formed, so no dense table is built and a
    factor's NaN reaches the entries that read it and no other."""
    slots, (gx, gy, slot) = gather
    out = np.zeros((len(vy), len(slots)), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(out, (slice(None), slot), vx[:, gx] * vy[:, gy])
    return out


# Complex items one batch may hold: the point groups of
# `transfer._GradedTrace` and the prefix batches of `block_graded_trace`.
_BATCH_ITEMS = 1 << 18

# The complex item of `cmatmul`'s clean-up multiply.
_UNIT = np.ones(1, dtype=complex)
_UNIT_OUT = np.empty(1, dtype=complex)


def cmatmul(a, b, out=None) -> np.ndarray:
    """``np.matmul`` of matrices of any dtype that leaves the vector unit
    clean.

    OpenBLAS's complex gemm kernels (scipy-openblas 0.3.31 on AVX-512
    Xeons) return with the upper halves of the vector registers dirty.
    Every legacy-SSE instruction after them (libm, the interpreter's float
    and complex arithmetic) then runs about four times slower, until some
    AVX code clears the registers; matrix-vector products do not dirty
    them.  One complex multiply in numpy's own vector loop clears them.
    Call it for every complex matrix product on a hot path, the level
    blocks of `block_graded_trace` included.  The float64 gemm does not
    dirty them: a loop of 2000 `cmath.exp` steps read 387 us right after
    a [39, 20, 20] float64 matmul stack and 386 us clean, against 2238 us
    after the same stack in complex128 (medians of 300, same host).  The
    float64 products of `packed.evaluate` go through here all the same,
    so that every matrix product on a hot path has one entry point.
    """
    out = np.matmul(a, b, out=out)
    np.multiply(_UNIT, _UNIT, out=_UNIT_OUT)
    return out


def contraction_plan(rows, cols, sites: int) -> tuple:
    """Left-to-right plan of `block_graded_trace` over the pairs (rows[n],
    cols[n]) of strings of a chain of `sites` sites, sharing products
    between pairs with equal prefixes (an MPO-style sweep, Schollwoeck
    arXiv:1008.3477).  A string is an int code: bit l is set when site l
    carries the second (down) of its two letters.

    Site l lists each distinct prefix (i[:l+1], j[:l+1]) once, in order
    of first appearance; at the last site the prefixes are the pairs, in
    order.  A prefix is its parent prefix at site l-1 times the entry
    (i_l, j_l) at the shift s = #up - #down of j[:l].  Returns the
    reachable (site, shift) grid, sorted, and per site the parent index
    and the entry 4*point + key of every prefix, with point the grid
    index and key 2*[i_l is down] + [j_l is down].
    """
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    width = 2 * sites + 1  # the grid point (l, s) as the int l*width + s + sites
    prefix = np.zeros(len(rows), dtype=np.int64)  # each pair's index at l-1
    shift = np.zeros(len(rows), dtype=np.int64)  # each pair's s before site l
    raw = []
    for l in range(sites):
        mask = (2 << l) - 1
        _, first, inverse = np.unique(((rows & mask) << sites) | (cols & mask),
                                      return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        rep = first[order]
        key = 2 * ((rows[rep] >> l) & 1) + ((cols[rep] >> l) & 1)
        raw.append((prefix[rep], l * width + shift[rep] + sites, key))
        prefix = rank[inverse]
        shift = shift + 1 - 2 * ((cols >> l) & 1)
    # the sorted distinct points (np.unique without index outputs would
    # import numpy.ma, a megabyte of memory)
    grid = np.flatnonzero(np.bincount(np.concatenate([point for _, point, _ in raw])))
    steps = tuple((parent, 4 * np.searchsorted(grid, point) + key)
                  for parent, point, key in raw)
    return np.stack(np.divmod(grid, width), axis=1) - [0, sites], steps


@lru_cache(maxsize=8)
def _block_layout(slots: tuple, levels: tuple) -> tuple:
    """(index, shift, shape) of `block_graded_trace` for a module: the
    level shift of each key's slots (ValueError if a key's slots move the
    level by more than one shift), and where each slot's value goes in
    the blocks [key, level + 1, row, col] of `shape`, flattened, the
    module's levels between one zero block on either side.  The arrays
    are read-only, as every caller shares them."""
    levels = np.array(levels)
    dims = levels[1:] - levels[:-1]
    n, top, width = levels[-1], len(dims), int(dims.max())
    level = np.repeat(np.arange(top), dims)
    key, row, col = np.unravel_index(slots, (4, n, n))
    moves: dict[int, set] = {}
    for k, d in set(zip(key.tolist(), (level[row] - level[col]).tolist())):
        moves.setdefault(k, set()).add(d)
    for k, ds in moves.items():
        if len(ds) > 1:
            raise ValueError(f"the entries of key {k} move the level by "
                             f"{sorted(ds)}, not by one shift")
    shift = np.array([min(moves.get(k, {0})) for k in range(4)])
    shape = (4, top + 2, width, width)
    index = np.ravel_multi_index(
        (key, 1 + level[row], row - levels[level[row]], col - levels[level[col]]), shape)
    for a in (shift, index):
        a.flags.writeable = False
    return index, shift, shape


def _poly_product(product, a, e, out, span) -> np.ndarray:
    """out = the product of the polynomials a and e of blocks, their
    coefficients on the first axis, truncated to out's coefficients: e[j]
    is the coefficient span[j] of e, which is zero at the others, and a
    is zero past its own.  One `product` per coefficient of e."""
    out[...] = 0
    for j, m in enumerate(span):
        n = min(len(a), len(out) - m)
        if n > 0:
            out[m:m + n] += product(a[:n], e[j])
    return out


def block_graded_trace(values: np.ndarray, slots, levels, plan: tuple,
                       traced: int, where) -> np.ndarray:
    """Level-block traces of the site-ordered products over the pairs of
    a `contraction_plan` at a batch of points, from the entries'
    structural nonzeros: values[r, i] is the complex entry of the
    distinct slot slots[i] = (key*n + row)*n + col in row r, or values[r,
    i, c] the int coefficients c of a polynomial entry (int64, or Python
    ints); row where[p, g] holds grid point g at point p, rows
    levels[j]:levels[j+1] are level j of the module, and levels
    0..traced-1 are traced.  Returns [point, pair, level], or [point,
    pair, level, c].

    The slots of each key must move the level by one shift d (row level
    minus column level), else ValueError.  Each entry is then stored as
    its level blocks, from column level j - d to row level j, padded to
    the largest level dimension, between two zero blocks (the layout is
    cached per module, `_block_layout`).  A prefix maps level k to the
    one level k - D, D the sum of its keys' shifts, and is carried as
    one block per point and traced level, with the rows of the largest
    traced level; once k - D leaves the module's levels it is zero and
    reads a zero block.  A site gathers the entry blocks at the levels
    k - D and multiplies, in batches of at most `_BATCH_ITEMS` gathered
    items; the last site forms only the diagonal blocks, and a pair
    whose shifts do not sum to zero traces to zero: the U(1)
    block-sparse form of a tensor network with a conserved charge
    (Singh, Pfeifer, Vidal, arXiv:0907.2994).  Complex blocks are
    multiplied by `cmatmul` at every size and their diagonal formed by
    ``einsum``, as a dense contraction rounds them, so that on
    one-dimensional levels a 2-site trace is the dense one bit for bit.
    For polynomial entries every array of the contraction leads with
    the c axis, and a product is the polynomial product truncated to it
    (`_poly_product` over the coefficients some entry holds: 1x1 blocks
    multiply elementwise, wider ones by ``matmul``, and the diagonal by
    the same ``einsum``), exact while every partial sum fits the dtype.
    """
    _, steps = plan
    index, shift, shape = _block_layout(
        tuple(np.asarray(slots).tolist()), tuple(np.asarray(levels).tolist()))
    # polynomial entries lead every array with their c axis: pre indexes past it
    coeffs = values.shape[2:]
    exact, pre = bool(coeffs), (slice(None),) * len(coeffs)
    entries = np.zeros((*coeffs, len(values), math.prod(shape)), dtype=values.dtype)
    entries[..., index] = np.moveaxis(values, range(2, values.ndim), range(len(coeffs)))
    entries = entries.reshape(*coeffs, -1, *shape[1:])
    if exact:
        # only the coefficients some entry holds; a prefix of l sites is
        # zero past the coefficient l * step, so it holds no more
        span = np.flatnonzero(values.any(axis=(0, 1))).tolist()
        entries, step = entries[span], max(span, default=0)
        block = np.multiply if shape[-1] == 1 else np.matmul
    rows = 4 * np.asarray(where).T  # [grid point, point]: 4 times the row
    batch = max(1, _BATCH_ITEMS // (rows.shape[1] * traced * shape[-1] ** 2
                                    * math.prod(coeffs)))
    level, top = np.arange(traced), shape[1] - 2
    height = int(np.diff(np.asarray(levels)[:traced + 1]).max())  # rows of a prefix block

    def blocks(code, drift):  # [(c,) prefix, point, level]: the entry blocks at k - drift, or zero
        at = np.minimum(np.maximum(level - drift[:, None], -1), top) + 1
        return entries[(*pre, (rows[code // 4] + code[:, None] % 4)[..., None], at[:, None])]

    # the empty prefix (D = 0) is the identity: site 0's prefixes are its entry blocks
    acc = np.zeros((1,) * len(coeffs) + (1, 1, 1, height, shape[-1]), dtype=values.dtype)
    acc[(0,) * (len(coeffs) + 3)] = np.eye(shape[-1], dtype=values.dtype)[:height]
    drift = np.zeros(1, dtype=int)
    *inner, (parent, code) = steps
    for site, (up, key) in enumerate(inner):
        held = tuple(min(c, (site + 1) * step + 1) for c in coeffs)
        nxt = np.empty((*held, len(up), *rows.shape[1:], traced, height, shape[-1]),
                       values.dtype)
        for lo in range(0, len(up), batch):
            b = slice(lo, lo + batch)
            e = blocks(key[b], drift[up[b]])
            if exact:
                _poly_product(block, acc[:, up[b]], e, nxt[:, b], span)
            elif site:
                cmatmul(acc[up[b]], e, out=nxt[b])
            else:
                nxt[b] = e[..., :height, :]
        acc, drift = nxt, drift[up] + shift[key % 4]
    diag = np.empty((*coeffs, len(parent), *rows.shape[1:], traced), dtype=values.dtype)
    trace = partial(np.einsum, "...ab,...ba->...")
    for lo in range(0, len(parent), batch):
        b = slice(lo, lo + batch)
        e = blocks(code[b], drift[parent[b]])[..., :height]
        if exact:
            _poly_product(trace, acc[:, parent[b]], e, diag[:, b], span)
        else:
            diag[b] = trace(acc[parent[b]], e)
    diag[(*pre, drift[parent] + shift[code % 4] != 0)] = 0
    return np.moveaxis(diag, range(len(coeffs)), range(-len(coeffs), 0)).swapaxes(0, 1)


# ---------------------------------------------------------------------------
# Difference-operator series
# ---------------------------------------------------------------------------

class TermMatrix:
    """A series coefficient matrix, evaluable at a batch of points.

    A term declares what it reads once, as ``inputs``: (source, args)
    pairs, where ``args(zs, xs)`` gives the arguments of ``source.at`` at
    the points, a pure function of them.  ``fn(zs, xs, *values)`` maps
    arrays of n points and each input's values there to the stacked
    values [n, ...], matrices [n, dim, dim] for a series coefficient.
    ``request`` calls it once per request, on the distinct points the
    request asks of it, after it has evaluated the inputs there.  A term
    without inputs is a leaf, such as the chain trace, whose values are
    [n, dim, dim, level]; a leaf whose function has a ``theta_pass(zs,
    xs)`` method, (items, finish) with ``finish(theta.table_passes(items))``
    its values, shares one theta pass with the request's other such
    leaves.  A read term (``TermMatrix.read``) returns its
    one input unchanged, as a view of its source's values.  A term keeps
    no values: they live for one request.  ``eval`` stays as a batch of
    one: the benchmark's tracer (``perfbench/tracer.py``) wraps it by
    name.
    """

    __slots__ = ("_fn", "dim", "inputs")

    def __init__(self, fn, dim: int, inputs=()):
        self._fn = fn
        self.dim = dim
        self.inputs = tuple(inputs)

    @staticmethod
    def read(source: "TermMatrix", args, dim: int) -> "TermMatrix":
        """The term whose values are ``source.at(*args(zs, xs))``."""
        return TermMatrix(_read, dim, [(source, args)])

    def at(self, zs, xs, item=slice(None)) -> np.ndarray:
        """Item ``item`` of the values at the points (zs, xs), stacked
        [point, ...]: a request of one ask."""
        return request([(self, zs, xs, item)])[0]

    def eval(self, z: complex, x: complex) -> np.ndarray:
        """The matrix at one point: a batch of one."""
        return self.at([z], [x])[0]

    @staticmethod
    def zero(dim: int) -> "TermMatrix":
        return TermMatrix(lambda zs, xs: np.zeros((len(zs), dim, dim), dtype=complex), dim)


def _keys(zs, xs) -> list[tuple[complex, complex]]:
    """The keys of the points (zs, xs) in a request's table."""
    return list(zip(np.asarray(zs, dtype=complex).tolist(), np.asarray(xs, dtype=complex).tolist()))


def _read(zs, xs, value):
    """The function of a read term: its one input's values."""
    return value


def _here(zs, xs):
    """The arguments of an input read at the term's own points."""
    return zs, xs


def _gather(block, rows, item=slice(None)) -> np.ndarray:
    """Item ``item`` of the block's rows, stacked [row, ...]: a view for a
    contiguous run, else one fancy index.  Either way a matrix keeps the
    block's memory order (a quotient is column-major), since a norm sums
    a matrix in its memory order."""
    first = rows[0]
    if rows == list(range(first, first + len(rows))):
        return block[first:first + len(rows), ..., item]
    return block[rows, ..., item]


def request(asks) -> list[np.ndarray]:
    """The values of the asks (term, zs, xs[, item]), as ``at`` gives
    them, with every term below the asks evaluated once, on the union of
    its points.

    The walk from the asks puts the terms children first.  Parents first,
    each term is then given the ordered union of the points that the
    asks and its parents' ``args`` read of it, and each edge records the
    keys and item it reads.  Children first, each term's function runs on
    its union, as the point arrays its planning formed, its inputs
    gathered from the table just filled, which maps each term to its
    block and the row of each key.  A read term calls nothing: its entry
    is its source's block (with an item, a view of it), never a copy.
    The leaves with a ``theta_pass`` run theirs in one ``table_passes``
    call before any term runs, and each finishes in its turn, so that
    their shared theta arguments are summed once and their finished
    values are held one leaf at a time.  The table is dropped on return."""
    asks = list(asks)
    order: list[TermMatrix] = []  # children first
    seen: set = set()
    stack = [(t, False) for t, *_ in asks]
    while stack:
        t, done = stack.pop()
        if done:
            order.append(t)
        elif t not in seen:
            seen.add(t)
            stack += [(t, True), *((s, False) for s, _ in t.inputs)]
    # the leaves first, in the order the walk met them: no value above them
    # is held yet when they run, and a chain trace's contraction sets a
    # relation's peak memory
    order.sort(key=lambda t: bool(t.inputs))
    need: dict = {t: {} for t in order}  # term -> its points, as dict keys
    for t, zs, xs, *_ in asks:
        need[t].update(dict.fromkeys(_keys(zs, xs)))
    # (term, its points as keys and as arrays, (source, keys, item) of each
    # input), parents first
    plan = []
    for t in reversed(order):
        keys = list(need.pop(t))  # final: every parent has added to it
        if not keys:
            continue
        kz, kx = np.array(keys, dtype=complex).T
        reads = []
        for s, args in t.inputs:
            zs, xs, *item = args(kz, kx)
            sk = keys if zs is kz and xs is kx else _keys(zs, xs)
            reads.append((s, sk, *item))
            need[s].update(dict.fromkeys(sk))
        plan.append((t, keys, kz, kx, reads))
    # leaf -> (its finish, the passes of its items)
    split = {t: t._fn.theta_pass(kz, kx) for t, _, kz, kx, _ in plan
             if hasattr(t._fn, "theta_pass")}
    passes = iter(table_passes([item for items, _ in split.values() for item in items]))
    split = {t: (finish, list(islice(passes, len(items)))) for t, (items, finish) in split.items()}
    table: dict = {}  # term -> (block, {key: row})

    def values(t, keys, item=slice(None)):
        block, rows = table[t]
        return _gather(block, [rows[k] for k in keys], item)

    for t, keys, kz, kx, reads in reversed(plan):
        if t._fn is _read:
            (s, sk, *item), = reads
            block, rows = table[s]
            table[t] = (block[(..., *item)] if item else block,
                        dict(zip(keys, map(rows.__getitem__, sk))))
            continue
        if t in split:
            finish, done = split.pop(t)
            vals = np.asarray(finish(done), dtype=complex)
        else:
            vals = np.asarray(t._fn(kz, kx, *[values(s, sk, *item) for s, sk, *item in reads]),
                              dtype=complex)
        vals.flags.writeable = False
        table[t] = vals, {k: i for i, k in enumerate(keys)}
    out = []
    for t, zs, xs, *item in asks:
        keys = _keys(zs, xs)
        out.append(values(t, keys, *item) if keys
                   else np.empty((0, t.dim, t.dim), dtype=complex))
    return out


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
        """The series evaluated at the fixed spectral point z0."""
        z0 = complex(z0)
        return self._read_at(lambda zs, xs: (np.full(len(xs), z0), xs))

    def shift_z(self, c: complex) -> "DiffOpSeries":
        """The series evaluated at z + c."""
        c = complex(c)
        return self._read_at(lambda zs, xs: (np.asarray(zs) + c, xs))

    def _read_at(self, args) -> "DiffOpSeries":
        """The series whose coefficients read this one's at args(zs, xs)."""
        terms = [TermMatrix.read(t, args, self.dim) for t in self.terms]
        return DiffOpSeries(self.alpha0, terms, self.dim, self.params)


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
    hb, dim = s1.params.hbar, s1.dim

    def fn(zs, xs, *factors):
        out = np.zeros((len(zs), dim, dim), dtype=complex)
        for a, b in zip(factors[::2], factors[1::2]):
            out += cmatmul(a, b)
        return out

    terms = []
    for m in range(order + 1):
        inputs = []
        for k1 in range(min(m, s1.order) + 1):
            k2 = m - k1
            if k2 <= s2.order:
                inputs += [(s1.terms[k1], lambda zs, xs, c=(s2.alpha0 - 2 * k2) * hb: (zs, xs + c)),
                           (s2.terms[k2], _here)]
        terms.append(TermMatrix(fn, dim, inputs))
    return DiffOpSeries(s1.alpha0 + s2.alpha0, terms, dim, s1.params)


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

    def at_x(zs, ys):
        return zs, ys - b * hb

    def fn(zs, ys, acc, lead, *pairs):
        for r, d in zip(pairs[::2], pairs[1::2]):
            acc = acc - cmatmul(r, d)
        lead = lead.transpose(0, 2, 1)
        try:
            return np.linalg.solve(lead, acc.transpose(0, 2, 1)).transpose(0, 2, 1)
        except np.linalg.LinAlgError as exc:
            raise SingularityError("singular leading coefficient",
                                   point=_first_singular(lead, *at_x(zs, ys))) from exc

    # term m reads the lower terms, not the list it joins: no reference
    # cycle, so a series and its memos are freed as soon as it is dropped
    terms: list[TermMatrix] = []
    for m in range(order + 1):
        inputs = [(num.term(m), at_x), (den.terms[0], at_x)]
        for k in range(max(0, m - den.order), m):
            inputs += [(terms[k], lambda zs, ys, c=2 * (m - k) * hb: (zs, ys - c)),
                       (den.terms[m - k], at_x)]
        terms.append(TermMatrix(fn, num.dim, inputs))
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
    terms = [TermMatrix(lambda zs, xs, a, b: a + b, s1.dim,
                        [(s1.term(k), _here), (s2.term(k - d), _here)])
             for k in range(order + 1)]
    return DiffOpSeries(s1.alpha0, terms, s1.dim, s1.params)


def series_scale(s: DiffOpSeries, c: complex) -> DiffOpSeries:
    """Multiply every coefficient by the constant c."""
    terms = [TermMatrix(lambda zs, xs, v: c * v, s.dim, [(t, _here)]) for t in s.terms]
    return DiffOpSeries(s.alpha0, terms, s.dim, s.params)


def series_max_residual(
    s1: DiffOpSeries, s2: DiffOpSeries, order: int, points
) -> float:
    """Worst relative coefficient deviation over p-orders <= order and the
    sampled (z, x) points.  Exponent cosets must agree.  The coefficients
    of both sides are evaluated in one ``request``."""
    d = _coset_offset(s1.alpha0, s2.alpha0)
    if d < 0:
        return series_max_residual(s2, s1, order, points)
    zs, xs = np.array(points, dtype=complex).reshape(-1, 2).T
    vals = request((t, zs, xs) for k in range(order + 1) for t in (s1.term(k), s2.term(k - d)))
    return worst_residual(relative_deviation(a, b) for v1, v2 in zip(vals[::2], vals[1::2])
                          for a, b in zip(v1, v2))


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
