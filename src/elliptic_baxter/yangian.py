"""Rational-level counterpart of the elliptic machinery, in exact
arithmetic: the degree-one solution of the quantum Yang-Baxter equation,
three families of weight-graded modules over the RTT algebra (finite
spin chains, spin-parameter ladders, and the oscillator module), transfer
matrices as truncated power series with polynomial entries, the Baxter
operator obtained by promoting the ladder spin to a polynomial variable,
its degree and triangularity structure, the TQ relation, the comparison
against the oscillator transfer matrix, and rational q-characters."""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from typing import NamedTuple

import numpy as np

from .dynamical import block_graded_trace, contraction_plan
from .polyring import (
    Poly,
    RatFn,
    as_poly,
    denominator,
    exact_residual,
    is_zero,
    numerators,
    poly_rem,
)

SPIN_VARIABLE = Poly.variable()
# extra sample levels that verify the degree of the level trace in q_exact_at_p
_DEGREE_MARGIN = 2


# ---------------------------------------------------------------------------
# R-matrix and Yang-Baxter
# ---------------------------------------------------------------------------

def yangian_r(z):
    """4x4 rational solution on the tensor-square basis (11, 12, 21, 22)."""
    if z == -1:
        raise ZeroDivisionError("R-matrix pole at z = -1")
    d = z + 1
    w, e = z / d, 1 / d
    return [
        [1, 0, 0, 0],
        [0, w, e, 0],
        [0, e, w, 0],
        [0, 0, 0, 1],
    ]


def _embed(mat4, slots, z):
    """Embed a 4x4 two-slot matrix into the 8-dim triple tensor product."""
    out = [[0] * 8 for _ in range(8)]
    rest = [k for k in range(3) if k not in slots]
    r = yangian_r(z) if mat4 is None else mat4

    def bits(n):
        return ((n >> 2) & 1, (n >> 1) & 1, n & 1)

    def idx(b):
        return (b[0] << 2) | (b[1] << 1) | b[2]

    for col in range(8):
        cb = bits(col)
        cc = (cb[slots[0]] << 1) | cb[slots[1]]
        for rr in range(4):
            v = r[rr][cc]
            if v == 0:
                continue
            rb = list(cb)
            rb[slots[0]], rb[slots[1]] = (rr >> 1) & 1, rr & 1
            out[idx(rb)][col] = out[idx(rb)][col] + v
    return out


def _matmul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            v = a[i][t]
            if is_zero(v) if isinstance(v, Poly) else v == 0:
                continue
            for j in range(m):
                out[i][j] = out[i][j] + v * b[t][j]
    return out


def qybe_residual(z: Fraction, w: Fraction) -> float:
    """Exact defect of the three-slot braid relation at rational points."""
    r12 = _embed(None, (0, 1), z - w)
    r13 = _embed(None, (0, 2), z)
    r23 = _embed(None, (1, 2), w)
    lhs = _matmul(_matmul(r12, r13), r23)
    rhs = _matmul(_matmul(r23, r13), r12)
    return exact_residual(
        lhs[i][j] - rhs[i][j] for i in range(8) for j in range(8)
    )


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class YangianModule:
    """Weight-graded module given by sparse action tables: act[(a, b)]
    maps a basis label to its image as (label, polynomial-in-z) pairs."""

    kind: str
    basis: tuple
    weight: dict
    act: dict
    exact: bool
    levels: int
    label: str = ""

    def band_data(self):
        """Diagonal/raising/lowering entries for single-band modules,
        indexed by level; used by the q-character extraction."""
        d1, d2, up, down = {}, {}, {}, {}
        if not all(isinstance(i, int) for i in self.basis):
            raise ValueError("module is not single-banded")
        for i in self.basis:
            for (a, b), table in self.act.items():
                for j, c in table.get(i, ()):
                    if (a, b) == (1, 1) and j == i:
                        d1[i] = c
                    elif (a, b) == (2, 2) and j == i:
                        d2[i] = c
                    elif (a, b) == (1, 2) and j == i + 1:
                        up[i] = c
                    elif (a, b) == (2, 1) and j == i - 1:
                        down[i] = c
                    else:
                        raise ValueError("module is not single-banded")
        return d1, d2, up, down


def build_module(kind: str, spin=None, shift=0, levels: int | None = None,
                 flip_raising: bool = False) -> YangianModule:
    """Action tables for the three families; `spin` may be a number or a
    polynomial indeterminate, `shift` translates the spectral variable.
    `flip_raising` negates the weight-raising entries (negative control)."""
    if kind == "finite":
        if not isinstance(spin, int) or spin < 1:
            raise ValueError("finite family needs a positive integer spin")
        levels = spin
    elif kind == "ladder":
        if spin is None or levels is None:
            raise ValueError("ladder family needs a spin and a level cap")
    elif kind == "oscillator":
        if levels is None:
            raise ValueError("oscillator family needs a level cap")
    else:
        raise ValueError(f"unknown module kind {kind!r}")
    basis = tuple(range(levels + 1))
    t11, t12, t21, t22 = {}, {}, {}, {}
    sgn = -1 if flip_raising else 1
    for i in basis:
        if kind == "oscillator":
            t11[i] = ((i, Poly((shift - i, 1))),)
            t22[i] = ((i, Poly((1,))),)
            if i < levels:
                t12[i] = ((i + 1, Poly((-sgn,))),)
        else:
            t11[i] = ((i, Poly((spin - i + shift, 1))),)
            t22[i] = ((i, Poly((i + shift, 1))),)
            raise_c = sgn * (spin - i)
            if i < levels and not is_zero(raise_c):
                t12[i] = ((i + 1, Poly((raise_c,))),)
        if i > 0:
            t21[i] = ((i - 1, Poly((i,))),)
    return YangianModule(
        kind=kind,
        basis=basis,
        weight={i: i for i in basis},
        act={(1, 1): t11, (1, 2): t12, (2, 1): t21, (2, 2): t22},
        exact=(kind == "finite"),
        levels=levels,
        label=f"{kind}({spin},{shift})",
    )


def tensor_module(X: YangianModule, Y: YangianModule) -> YangianModule:
    """Coproduct action on pairs of labels: entry (a,b) is the sum over
    the middle index of products of the factors' entries."""
    basis = tuple(iproduct(X.basis, Y.basis))
    act = {}
    for a in (1, 2):
        for b in (1, 2):
            table = {}
            for (i, j) in basis:
                acc = {}
                for c in (1, 2):
                    for i2, p1 in X.act[(a, c)].get(i, ()):
                        for j2, p2 in Y.act[(c, b)].get(j, ()):
                            key = (i2, j2)
                            acc[key] = acc.get(key, Poly()) + p1 * p2
                rows = tuple((k, v) for k, v in acc.items() if v)
                if rows:
                    table[(i, j)] = rows
            act[(a, b)] = table
    # an exact factor imposes no truncation cap
    caps = [M.levels for M in (X, Y) if not M.exact]
    return YangianModule(
        kind="tensor",
        basis=basis,
        weight={(i, j): i + j for (i, j) in basis},
        act=act,
        exact=X.exact and Y.exact,
        levels=min(caps) if caps else min(X.levels, Y.levels),
        label=f"{X.label}(x){Y.label}",
    )


# cleared R(z - w), with its denominator (z - w + 1) multiplied through:
# column (a, b) maps to rows (c, d) with entries given as terms
# (coefficient, power of z, power of w)
_RTT_R = {
    (1, 1): {(1, 1): ((1, 1, 0), (1, 0, 0), (-1, 0, 1))},
    (1, 2): {(1, 2): ((1, 1, 0), (-1, 0, 1)), (2, 1): ((1, 0, 0),)},
    (2, 1): {(1, 2): ((1, 0, 0),), (2, 1): ((1, 1, 0), (-1, 0, 1))},
    (2, 2): {(2, 2): ((1, 1, 0), (1, 0, 0), (-1, 0, 1))},
}


def rtt_residual(X: YangianModule) -> float:
    """Exact defect of the cleared exchange relation
    R(z - w) T1(z) T2(w) = T2(w) T1(z) R(z - w) applied to all
    truncation-safe basis vectors of the two-fold auxiliary space.

    The sparse state walk runs on Kronecker-packed ints (see `_width`):
    the module's entries are cleared over one denominator d, and each
    state value is a polynomial in z, w and, for a symbolic-spin module,
    the spin variable (innermost), stored as its value at 2^width.  The
    two sides are compared as packed ints and read back only where they
    differ; both are quadratic in the entries, so the defect is the
    worst digit over d^2.

    The slot width holds both sides' coefficients.  With mu the largest
    entry coefficient, rho the largest sum of the entries' largest
    coefficients over one row of one entry operator, and n the spin
    slots of an entry: a coefficient of p(z) q(w) is at most
    n mu(p) mu(q), a sum over the middle labels of such products at most
    n rho mu, and the l1 norms of R's entries sum to at most 3 along each
    row and each column, so every coefficient of either side is at most
    3 n rho mu."""
    safe = [v for v in X.basis
            if X.exact or X.weight[v] <= X.levels - 2]
    if not safe:
        raise ValueError("module too shallow for the exchange check")
    cells = [(ab, lab, lab2, p) for ab, table in X.act.items()
             for lab, rows in table.items() for lab2, p in rows]
    d = denominator(p for *_, p in cells)
    entries = [numerators(p, d) for *_, p in cells]
    inner = _inner_slots(entries)
    flat = _coefficient_rows(entries, inner)
    outer = flat.shape[1] // inner
    mu = np.abs(flat).max(axis=1)
    row = {}
    for (ab, _, lab2, _), m in zip(cells, mu):
        row[ab, lab2] = row.get((ab, lab2), 0) + m
    width = _width(3 * inner * max(row.values()) * max(mu))
    # slot strides: the spin variable (degree below 2 * inner - 1), then
    # w and z (degree below outer in an entry, plus one from R)
    ws = 2 * inner - 1
    zs = ws * (outer + 1)
    count = zs * (outer + 1)
    # tables[slot][(a, b)][lab]: (lab2, packed entry in z for slot 0, in
    # w for slot 1)
    tables = [{ab: {} for ab in X.act} for _ in range(2)]
    for (ab, lab, lab2, _), p in zip(cells, entries):
        for slot, stride in ((0, zs), (1, ws)):
            tables[slot][ab].setdefault(lab, []).append(
                (lab2, _pack(_flatten(p, stride), width)))
    rc = {ab: {cd: sum(c << (width * (i * zs + j * ws)) for c, i, j in terms)
               for cd, terms in col.items()}
          for ab, col in _RTT_R.items()}

    def apply_slot(state, slot):
        # the first auxiliary slot carries z, the second w
        out = {}
        for (a, b, lab), v in state.items():
            for c in (1, 2):
                for lab2, coeff in tables[slot][(c, b if slot else a)].get(lab, ()):
                    key = (a, c, lab2) if slot else (c, b, lab2)
                    out[key] = out.get(key, 0) + coeff * v
        return out

    def apply_r(state):
        out = {}
        for (a, b, lab), v in state.items():
            for (c, e), entry in rc[(a, b)].items():
                key = (c, e, lab)
                out[key] = out.get(key, 0) + entry * v
        return out

    worst = 0
    for v in safe:
        for a in (1, 2):
            for b in (1, 2):
                start = {(a, b, v): 1}
                lhs = apply_r(apply_slot(apply_slot(start, 1), 0))
                rhs = apply_slot(apply_slot(apply_r(start), 0), 1)
                for key in lhs.keys() | rhs.keys():
                    x, y = lhs.get(key, 0), rhs.get(key, 0)
                    if x != y:
                        worst = max(worst, *(abs(dx - dy) for dx, dy in zip(
                            _digits(x, width, count), _digits(y, width, count))))
    return exact_residual((Fraction(worst, d * d),))


# ---------------------------------------------------------------------------
# Chain space and transfer matrices
# ---------------------------------------------------------------------------

def chain_basis(L: int) -> tuple:
    """Index strings over {1, 2}, totally ordered so that the last
    differing position decides (1 before 2); the level-zero part of the
    Baxter operator is upper triangular in this order."""
    return tuple(sorted(iproduct((1, 2), repeat=L),
                        key=lambda s: tuple(reversed(s))))


def sector_basis(L: int, s: int) -> tuple:
    """The strings of `chain_basis(L)` with s indices equal to 1, in that
    order: the basis of the weight sector s."""
    return tuple(string for string in chain_basis(L) if string.count(1) == s)


@lru_cache(maxsize=8)
def _sector_pairs(L: int) -> tuple:
    """(bases, pairs, sector) of the trace of an L-site chain: the
    `sector_basis` of every sector, the same-sector string pairs (rows in
    `chain_basis(L)` order) and the sector of each pair, read-only."""
    bases = tuple(sector_basis(L, s) for s in range(L + 1))
    pairs = tuple((i, j) for i in chain_basis(L) for j in bases[i.count(1)])
    sector = np.array([i.count(1) for i, _ in pairs])
    sector.flags.writeable = False
    return bases, pairs, sector


def _zero_table(dim: int) -> list:
    return [[Poly() for _ in range(dim)] for _ in range(dim)]


# A series entry is a polynomial with integer coefficients over the
# series' one denominator, stored as its value at X = 2^width: one Python
# int (Kronecker substitution).  An entry in two variables, sum c_ij x^i y^j
# with y the inner (coefficient-ring) variable, is stored as
# sum c_ij X^(i*stride + j).  Evaluation at X is a ring homomorphism, so
# sums, integer multiples and products of entries are sums, multiples and
# products of ints, and a matrix product is one object-array matmul.  The
# coefficients read back as balanced digits, which is exact only while each
# of them has magnitude below 2^(width-1): every operation takes the width
# of its result from an a-priori bound on the result's coefficients.  A
# coefficient too large for its slot carries into the next slot and leaves
# a packed int that reads back as other, valid digits, so no check on the
# packed values can see it: exactness rests on each bound being a true
# bound, which tests check on inputs that attain it.
#
# The width and the stride are the layout of a series.  An operation
# whose inputs share a layout that holds its result computes at that
# layout with no repacking; otherwise it repacks them at the least layout
# that does.  A relation (`tq_residual`, `oscillator_comparison`,
# `product_residual`) composes the bounds of all its operations up front,
# decodes each input series once and packs every term at the widest of
# them, so that none of its operations repacks.

class _Shape(NamedTuple):
    """What the a-priori bounds know of a series: its one denominator,
    the largest magnitude of its numerators' coefficients, and the outer
    and inner slots of an entry."""

    den: int
    bound: int
    outer: int
    inner: int

    def times(self, other: "_Shape", terms: int) -> "_Shape":
        """A sum of `terms` products of an entry of each: a coefficient
        of one product sums at most min(outer) * min(inner) products of
        coefficients."""
        return _Shape(self.den * other.den,
                      self.bound * other.bound * terms
                      * min(self.outer, other.outer)
                      * min(self.inner, other.inner),
                      self.outer + other.outer - 1,
                      self.inner + other.inner - 1)


class _Map(NamedTuple):
    """A series made from the digits of another: its shape, and the map
    from the other's digit rows to its own (see `PSeriesMatrix._decoded`)."""

    shape: _Shape
    apply: Callable[[list], list]


def _common(shapes, bound=max) -> _Shape:
    """The shapes rescaled to the lcm of their denominators and merged:
    the most outer and inner slots, and `bound` of the rescaled bounds
    (`max` for series compared, `sum` for series added)."""
    den = math.lcm(*(s.den for s in shapes))
    return _Shape(den, bound(s.bound * (den // s.den) for s in shapes),
                  max(s.outer for s in shapes), max(s.inner for s in shapes))


def _combination(shapes, coeffs) -> tuple:
    """(shape, [(numerator, rescale)]) of the sum of c * x over scalar
    polynomials c of `coeffs` and series x of `shapes`: each c a
    numerator over the coefficients' common denominator, each product
    rescaled to the result's denominator."""
    dw = denominator(coeffs)
    nums = [numerators(c, dw) for c in coeffs]
    terms = [_scalar_shape(n, dw).times(s, 1) for n, s in zip(nums, shapes)]
    shape = _common(terms, sum)
    return shape, [(n, shape.den // t.den) for n, t in zip(nums, terms)]


def _layout(series, shape: _Shape) -> tuple:
    """(width, stride) at which an operation on `series` computes a
    result of the given shape: the inputs' shared layout when it holds
    the result, else the least layout that does."""
    need = _width(shape.bound)
    shared = {(x._width, x._stride) for x in series}
    if len(shared) == 1:
        ((width, stride),) = shared
        if width >= need and stride >= shape.inner:
            return width, stride
    return need, shape.inner


def _joint_layout(shapes) -> tuple:
    """The least (width, stride) that holds every shape: the layout a
    relation packs its terms at."""
    return (_width(max(s.bound for s in shapes)),
            max(s.inner for s in shapes))


def _width(bound: int) -> int:
    """Bits per coefficient slot that hold every integer of magnitude at
    most `bound` as a balanced digit."""
    return bound.bit_length() + 1


def _digits(v, width: int, count: int) -> list:
    """The lowest `count` balanced digits base 2^width of an int, or of
    every int of an object array at once."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    # offset every digit by half: the offset value's plain digits
    u = v + _pack([half] * count, width)
    return [((u >> (width * n)) & mask) - half for n in range(count)]


def _pack(digits, width: int):
    """Inverse of `_digits`: the sum of digits[n] * 2^(width*n)."""
    v = 0
    for d in reversed(digits):
        v = (v << width) + d
    return v


def _pack_rows(rows, width: int, stride: int):
    """The packed value of the digits rows[i][j] of outer slot i and
    inner slot j < stride."""
    return _pack([d for row in rows for d in row + [0] * (stride - len(row))],
                 width)


def _inner_slots(values) -> int:
    """Slots of the inner variable among ints and int-leaf polynomials in
    at most two variables."""
    inner = [c for v in values if isinstance(v, Poly) for c in v.coeffs
             if isinstance(c, Poly)]
    if any(isinstance(leaf, Poly) for c in inner for leaf in c.coeffs):
        raise ValueError("series entries have at most two variables")
    return max((len(c.coeffs) for c in inner), default=1) or 1


def _flatten(v, stride: int) -> list:
    """Coefficients of an int or int-leaf polynomial, the inner variable's
    at offsets below `stride`."""
    if not isinstance(v, Poly):
        return [v]
    flat = [0] * (len(v.coeffs) * stride)
    for i, c in enumerate(v.coeffs):
        if isinstance(c, Poly):
            flat[i * stride:i * stride + len(c.coeffs)] = c.coeffs
        else:
            flat[i * stride] = c
    return flat


def _coefficient_rows(values, stride: int) -> np.ndarray:
    """One row per value: its coefficients as from `_flatten`, padded
    with zeros to the same whole number of outer slots."""
    flat = [_flatten(v, stride) for v in values]
    count = max(stride, max(map(len, flat)))
    return np.array([f + [0] * (count - len(f)) for f in flat],
                    dtype=object)


def _scalar_shape(v, den: int) -> _Shape:
    """The shape of an int or int-leaf polynomial as a numerator over
    `den`."""
    inner = _inner_slots((v,))
    flat = _flatten(v, inner)
    return _Shape(den, max(map(abs, flat), default=0),
                  max(1, len(flat) // inner), inner)


def _pack_tables(tables, den: int) -> tuple:
    """(num, width, stride, shape) of `PSeriesMatrix._set` for tables of
    ints and int-leaf polynomials, numerators over `den`."""
    entries = [e for tab in tables for row in tab for e in row]
    stride = _inner_slots(entries)
    num, *rest = _tight_pack(list(_coefficient_rows(entries, stride).T),
                             stride, den)
    return num.reshape(len(tables), len(tables[0]), len(tables[0])), *rest


def _tight_pack(digits, stride: int, den: int) -> tuple:
    """(num, width, stride, shape) of the numerators over `den` whose
    coefficient slots at inner stride `stride` are digits[0], digits[1],
    ..., packed at the least width, stride and outer slot count that
    hold them."""
    used = [k for k, dig in enumerate(digits) if dig.any()] or [0]
    inner = max(k % stride for k in used) + 1
    outer = max(k // stride for k in used) + 1
    bound = max(np.abs(dig).max() for dig in digits)
    width = _width(bound)
    rows = [digits[i * stride:i * stride + inner] for i in range(outer)]
    return (_pack_rows(rows, width, inner), width, inner,
            _Shape(den, bound, outer, inner))


class PSeriesMatrix:
    """Truncated power series of matrices with polynomial entries;
    tables[k][row][col] is the k-th coefficient.  `terminates` marks a
    series known to be a polynomial of the stored order.

    The entries are held as Kronecker-packed integer numerators over one
    denominator (see `_width`); `tables` and `get` are views unpacked to
    Fraction polynomials once per coefficient, on first read.  The views
    are for reading: the series operations read the packed numerators
    only, so an entry written into a view would be seen by readers of the
    view and by no series operation.  A changed series is built through
    the constructor."""

    def __init__(self, basis: tuple, tables: list, terminates: bool = False):
        d = denominator(e for tab in tables for row in tab for e in row)
        self._set(basis, terminates, *_pack_tables(
            [[[numerators(e, d) for e in row] for row in tab]
             for tab in tables], d))
        self._views.update(enumerate(tables))

    @classmethod
    def _packed(cls, basis, terminates, num, width, stride,
                shape) -> "PSeriesMatrix":
        self = cls.__new__(cls)
        self._set(basis, terminates, num, width, stride, shape)
        return self

    def _set(self, basis, terminates, num, width, stride, shape):
        """num[k][row][col] is the numerator over shape.den of the k-th
        coefficient, packed at `width` bits per slot with inner stride
        `stride` (at least shape.inner)."""
        self.basis, self.terminates = basis, terminates
        self._num, self._width, self._stride = num, width, stride
        self._shape = shape
        self._views = {}

    @property
    def order(self) -> int:
        return len(self._num) - 1

    @property
    def dim(self) -> int:
        return self._num.shape[1]

    @property
    def tables(self) -> list:
        return [self.get(k) for k in range(self.order + 1)]

    def get(self, k: int):
        if k <= self.order:
            if k not in self._views:
                self._views[k] = self._unpacked(k)
            return self._views[k]
        if self.terminates:
            return _zero_table(self.dim)
        raise IndexError(f"coefficient {k} beyond truncation order {self.order}")

    def _unpacked(self, k: int) -> list:
        d = self._shape.den
        rows = [[dig.tolist() for dig in row]
                for row in self._decoded(self._num[k])]

        def entry(r, c):
            if self._shape.inner == 1:
                return Poly(Fraction(row[0][r][c], d) for row in rows)
            return Poly(Poly(Fraction(dig[r][c], d) for dig in row)
                        for row in rows)

        return [[entry(r, c) for c in range(self.dim)]
                for r in range(self.dim)]

    def _decoded(self, num) -> list:
        """The balanced digits of packed numerators `num` of this series:
        [i][j] holds the coefficients of outer slot i, inner slot j."""
        s, inner = self._stride, self._shape.inner
        flat = _digits(num, self._width, (self._shape.outer - 1) * s + inner)
        return [flat[i * s:i * s + inner] for i in range(self._shape.outer)]

    def _repacked(self, layout, *maps) -> list:
        """The series each of `maps` makes from this one's digits, packed
        at layout = (width, stride); one decode serves them all."""
        rows = self._decoded(self._num)
        return [self._packed(self.basis, self.terminates,
                             _pack_rows(m.apply(rows), *layout), *layout,
                             m.shape)
                for m in maps]

    def _at(self, width: int, stride: int, order: int):
        """Numerators of coefficients 0..order packed at `width` and
        `stride`; levels past the stored order of a terminating series
        are zero."""
        if order > self.order and not self.terminates:
            raise IndexError(
                f"coefficient {order} beyond truncation order {self.order}")
        num = self._num[:order + 1]
        if (width, stride) != (self._width, self._stride):
            num = _pack_rows(self._decoded(num), width, stride)
        if order > self.order:
            pad = np.zeros((order - self.order, self.dim, self.dim),
                           dtype=object)
            num = np.concatenate([num, pad])
        return num

    def _shifted(self, c) -> _Map:
        """The Taylor shift v -> v + c of every entry: with c = u/w and D
        the outer degree, w^D p(v + c) has the integer coefficients
        sum_i C(i, k) u^(i-k) w^(D-i+k) p_i, a fixed matrix on the
        coefficient axis; w^D joins the denominator.  The shift by 0 is
        the series itself."""
        if c == 0:
            return _Map(self._shape, lambda rows: rows)
        c = Fraction(c)
        u, w = c.numerator, c.denominator
        n = self._shape.outer
        shift = [[math.comb(i, k) * u ** (i - k) * w ** (n - 1 - i + k)
                  for i in range(k, n)] for k in range(n)]
        shape = self._shape._replace(
            den=self._shape.den * w ** (n - 1),
            bound=self._shape.bound * max(sum(map(abs, row)) for row in shift))

        def apply(rows):
            out = []
            for k, row in enumerate(shift):
                terms = [[d if m == 1 else m * d for d in rows[k + i]]
                         for i, m in enumerate(row) if m]
                out.append([sum(col[1:], col[0]) for col in zip(*terms)])
            return out

        return _Map(shape, apply)

    def _coefficient(self, s: int) -> _Map:
        """The entrywise coefficient of the s-th power of the variable:
        the inner slots become the outer ones."""
        shape = self._shape._replace(outer=self._shape.inner, inner=1)

        def apply(rows):
            if s < len(rows):
                return [[d] for d in rows[s]]
            return [[np.zeros_like(rows[0][0])]]

        return _Map(shape, apply)

    def shift_var(self, c) -> "PSeriesMatrix":
        """Taylor shift v -> v + c of every entry (see `_shifted`)."""
        m = self._shifted(c)
        return self._repacked(_layout((self,), m.shape), m)[0]

    def coefficient(self, s: int) -> "PSeriesMatrix":
        """Entrywise coefficient of the s-th power of the variable."""
        m = self._coefficient(s)
        return self._repacked(_layout((self,), m.shape), m)[0]

    def times_p(self) -> "PSeriesMatrix":
        """The series multiplied by the grading variable p."""
        zero = np.zeros((1, self.dim, self.dim), dtype=object)
        return self._packed(self.basis, self.terminates,
                            np.concatenate([zero, self._num]), self._width,
                            self._stride, self._shape)

    def weighted(self, other: "PSeriesMatrix", a, b) -> "PSeriesMatrix":
        """Entrywise a*x + b*y of two series for scalar polynomials a and
        b, to the lower stored order, on packed numerators: a and b over
        their common denominator, x and y rescaled to the lcm of theirs."""
        if self.basis != other.basis:
            raise ValueError("mismatched chain bases")
        shape, terms = _combination((self._shape, other._shape), (a, b))
        width, stride = _layout((self, other), shape)
        order = min(self.order, other.order)
        num = sum(x._at(width, stride, order)
                  * (_pack(_flatten(n, stride), width) * scale)
                  for x, (n, scale) in zip((self, other), terms))
        return self._packed(self.basis, False, num, width, stride, shape)

    def _top(self, order: int) -> int:
        """The last coefficient a product to `order` reads of this
        factor: a terminating series is zero past its stored order."""
        return min(self.order, order) if self.terminates else order

    def _product(self, other: "PSeriesMatrix", order: int) -> _Shape:
        """The shape of the truncated product: each coefficient of an
        entry sums over the inner dimension and the split levels."""
        levels = min(self._top(order), other._top(order)) + 1
        return self._shape.times(other._shape, self.dim * levels)

    def mul(self, other: "PSeriesMatrix", order: int) -> "PSeriesMatrix":
        """Truncated product to the stated order: per output coefficient,
        a sum of object-array matmuls of the packed numerators, skipping
        the zero coefficients past a terminating factor's stored order;
        the denominator is the product of the factors'."""
        if self.basis != other.basis:
            raise ValueError("mismatched chain bases")
        top_a, top_b = self._top(order), other._top(order)
        shape = self._product(other, order)
        width, stride = _layout((self, other), shape)
        try:
            fa = self._at(width, stride, top_a)
            fb = other._at(width, stride, top_b)
        except IndexError:
            raise IndexError(
                f"product order {order} exceeds factor truncations"
            ) from None
        levels = []
        for k in range(order + 1):
            prods = [fa[m] @ fb[k - m]
                     for m in range(max(0, k - top_b), min(k, top_a) + 1)]
            levels.append(sum(prods[1:], prods[0]) if prods else
                          np.zeros((self.dim, self.dim), dtype=object))
        return self._packed(self.basis, self.terminates and other.terminates,
                            np.stack(levels), width, stride, shape)

    def residual(self, other: "PSeriesMatrix", order: int | None = None) -> float:
        """Largest coefficient magnitude of the difference to the stated
        order (both orders by default), exact.  Both numerators, rescaled
        to one denominator, are packed at one width that holds each of
        them, so they are equal exactly when their packed values are;
        otherwise the magnitude is read from their balanced digits."""
        if self.basis != other.basis:
            raise ValueError("mismatched chain bases")
        if order is None:
            order = min(self.order, other.order)
        shape = _common((self._shape, other._shape))
        width, stride = _layout((self, other), shape)
        x = self._at(width, stride, order) * (shape.den // self._shape.den)
        y = other._at(width, stride, order) * (shape.den // other._shape.den)
        if (x == y).all():
            return 0.0
        count = shape.outer * stride
        worst = max(np.abs(dx - dy).max() for dx, dy in
                    zip(_digits(x, width, count), _digits(y, width, count)))
        return exact_residual((Fraction(worst, shape.den),))


def yangian_transfer(X: YangianModule, sites,
                     order: int) -> list[PSeriesMatrix]:
    """Level-graded trace over the auxiliary module of the site-ordered
    product of its entry operators, acting on the index-string basis,
    with each site's entries shifted by the site.  Entries linking
    strings with different index counts vanish by the weight grading, so
    the result is one series per sector s = 0..L, on
    `sector_basis(L, s)`."""
    return _graded_trace(X, sites, order, lambda p, a: p.shift(a))


def yangian_q(sites, order: int) -> list[PSeriesMatrix]:
    """Baxter operator: ladder transfer matrix with the spin promoted to
    a polynomial variable and the spectral variable bound to zero, one
    series per sector; the entries are polynomials in that spin
    variable.  Evaluation at zero is a ring homomorphism, so each site's
    entries are evaluated at the site before the contraction."""
    L = len(sites)
    W = build_module("ladder", spin=SPIN_VARIABLE, levels=order + L)
    return _graded_trace(W, sites, order, lambda p, a: as_poly(p(a)))


def _graded_trace(X: YangianModule, sites, order: int,
                  at) -> list[PSeriesMatrix]:
    """The trace of `yangian_transfer`, with at(p, a) the value of the
    module entry p at the site a.

    `dynamical.block_graded_trace` over the same-sector string pairs, on
    the level blocks of Kronecker-packed ints: each site's entries are
    cleared over one denominator and packed at one width and stride for
    the whole contraction.  Each output coefficient is a sum of
    level-dimension many diagonal entries of the site product, so its
    magnitude is at most the largest level dimension times the product
    over sites of the largest row sum of the entries' coefficient l1
    norms (the l1 norm is submultiplicative); the inner degrees add up
    the same way.  Each sector is then repacked at its own tight width,
    stride and outer slot count, read from the digits."""
    L = len(sites)
    if L < 1:
        raise ValueError("need at least one site")
    if not all(isinstance(a, (int, Fraction)) for a in sites):
        raise ValueError("sites must be exact (int or Fraction)")
    if any(a == 0 for a in sites):
        raise ValueError("sites must be nonzero")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if not X.exact and X.levels < order + L:
        raise ValueError(
            f"truncation too shallow: order {order} with {L} sites needs "
            f"at least {order + L} levels, module has {X.levels}"
        )
    bases, pairs, sector = _sector_pairs(L)
    plan = contraction_plan(pairs, (1, 2))
    labels = sorted(X.basis, key=X.weight.__getitem__)
    pos = {lab: n for n, lab in enumerate(labels)}
    # levels past the module's top (a finite module) trace to zero
    top = min(order, X.weight[labels[-1]])
    # the offsets of all the module's levels: a prefix of the contraction
    # passes through levels above the traced ones
    levels = [sum(X.weight[lab] < k for lab in labels)
              for k in range(X.weight[labels[-1]] + 2)]
    n = len(labels)
    # T_ab e_lab = ... + p e_lab2 is entry (lab2, lab) of the ab matrix
    cells = [(2 * ab[0] + ab[1] - 3, pos[lab2], pos[lab], p)
             for ab, table in X.act.items()
             for lab, rows in table.items() for lab2, p in rows]
    dens, nums, shapes = [], [], []
    for a in sites:
        vals = [at(p, a) for *_, p in cells]
        d = denominator(vals)
        site = [numerators(v, d) for v in vals]
        inner = _inner_slots(site)
        flat = _coefficient_rows(site, inner)
        row_l1 = np.zeros((4, n), dtype=object)
        for (key, r, _, _), l1 in zip(cells, np.abs(flat).sum(axis=1)):
            row_l1[key, r] += l1
        dens.append(d)
        nums.append(site)
        shapes.append((inner, flat.shape[1] // inner, row_l1.max()))
    inner, slots, row_l1 = zip(*shapes)
    stride, outer = sum(inner) - L + 1, sum(slots) - L + 1
    width = _width(int(max(np.diff(levels[:top + 2]))) * math.prod(row_l1))
    values = np.empty((L, len(cells)), dtype=object)
    for l, site in enumerate(nums):
        values[l] = _pack(list(_coefficient_rows(site, stride).T), width)
    nonzeros = [(key * n + r) * n + c for key, r, c, _ in cells]
    # the exact entries do not depend on the shift: each grid point takes
    # its site's values
    traces = np.zeros((len(pairs), order + 1), dtype=object)
    traces[:, :top + 1] = block_graded_trace(values[plan[0][:, 0]], nonzeros,
                                             levels, plan, top + 1)
    denom = math.prod(dens)
    out = []
    for s, basis in enumerate(bases):
        num = traces[sector == s].T.reshape(order + 1, len(basis), len(basis))
        out.append(PSeriesMatrix._packed(basis, X.exact, *_tight_pack(
            _digits(num, width, outer * stride), stride, denom)))
    return out


# ---------------------------------------------------------------------------
# Structure of the Baxter operator
# ---------------------------------------------------------------------------

@dataclass
class SectorDegreeData:
    sector: int
    degree: int
    degree_matches: bool
    leading_nonzero: bool
    p0_upper_triangular: bool
    p0_diagonal_matches: bool


def q_degree_report(sites, order: int = 1,
                    q: list[PSeriesMatrix] | None = None
                    ) -> list[SectorDegreeData]:
    """Per-sector degree of the Baxter operator in its spin variable over
    levels 0..order, with the level-zero triangularity and diagonal
    checks; the leading check reads Q's own top spin coefficient on the
    diagonal.  `q` is `yangian_q(sites, n)` for some n >= order, built
    here at n = order when not given."""
    if q is None:
        q = yangian_q(sites, order)
    out = []
    for s, qs in enumerate(q):
        deg = max(
            (e.degree for k in range(order + 1) for row in qs.get(k)
             for e in row if e),
            default=-1,
        )
        p0 = qs.get(0)
        expect = [
            math.prod((Poly((a, 1)) if il == 1 else Poly((a,))
                       for a, il in zip(sites, string)), start=Poly((1,)))
            for string in qs.basis
        ]
        out.append(SectorDegreeData(
            sector=s,
            degree=deg,
            degree_matches=(deg == s),
            leading_nonzero=all(not is_zero(p0[i][i].coefficient(s))
                                for i in range(qs.dim)),
            p0_upper_triangular=all(not p0[r][c] for r in range(qs.dim)
                                    for c in range(r)),
            p0_diagonal_matches=all(p0[i][i] == e
                                    for i, e in enumerate(expect)),
        ))
    return out


def two_site_leading_closed_form(a1, a2, order: int) -> list:
    """Series coefficients of the one-index-sector leading matrix for two
    sites, on the basis (21, 12)."""
    return [
        [[a1 + k, k + 1], [k, a2 + k]]
        for k in range(order + 1)
    ]


def two_site_leading_residual(a1, a2, order: int,
                              q: list[PSeriesMatrix] | None = None) -> float:
    """The top spin coefficient of the one-index sector of Q, one matrix
    per series order, against the closed form.  `q` is
    `yangian_q((a1, a2), order)`, built here when not given."""
    if q is None:
        q = yangian_q((a1, a2), order)
    got = q[1].coefficient(1).tables
    ref = two_site_leading_closed_form(a1, a2, order)
    return exact_residual(
        got[k][i][j] - ref[k][i][j]
        for k in range(order + 1) for i in range(2) for j in range(2)
    )


# ---------------------------------------------------------------------------
# Functional relations
# ---------------------------------------------------------------------------

def tq_residual(sites, order: int, drop_second_term: bool = False,
                q: list[PSeriesMatrix] | None = None) -> float:
    """Exact defect of (two-dim transfer) x Q against the two shifted-Q
    terms weighted by the site products, the largest over the sectors;
    `drop_second_term` removes the series-graded term as a negative
    control.  `q` is `yangian_q(sites, order)`, built here when not
    given."""
    t1 = yangian_transfer(build_module("finite", spin=1), sites,
                          min(order, 1))
    w0, w1 = (math.prod((Poly((a + c, 1)) for a in sites), start=Poly((1,)))
              for c in (0, 1))
    if drop_second_term:
        w1 = 0
    if q is None:
        q = yangian_q(sites, order)
    return max(_tq_defect(ts, qs, w0, w1, order) for ts, qs in zip(t1, q))


def _tq_defect(ts: PSeriesMatrix, qs: PSeriesMatrix, w0, w1,
               order: int) -> float:
    """Exact defect of T x Q against w0 x Q(v + 1) + w1 x p x Q(v - 1)
    to the stated order, on one layout: the widest of the bounds of the
    two shifts, the product, the weighted sum and the residual.  T and Q
    are each decoded once, both shifts are taken from Q's digits, and
    every term is packed once at that layout, so no operation repacks."""
    same, up, down = (qs._shifted(c) for c in (0, 1, -1))
    rhs, _ = _combination((up.shape, down.shape), (w0, w1))
    prod = ts._product(qs, order)
    layout = _joint_layout((ts._shape, qs._shape, up.shape, down.shape, rhs,
                            prod, _common((prod, rhs))))
    (t,) = ts._repacked(layout, ts._shifted(0))
    q, up, down = qs._repacked(layout, same, up, down)
    return t.mul(q, order).residual(up.weighted(down.times_p(), w0, w1),
                                    order)


def product_residual(X: YangianModule, Y: YangianModule, sites,
                     order: int) -> float:
    """Transfer matrix of the coproduct module against the product of the
    factors' transfer matrices, exact to the stated order, the largest
    over the sectors.  Per sector the three series are decoded once and
    packed at the one layout that holds the product and the residual."""

    def sector(tx, ty, txy):
        prod = tx._product(ty, order)
        layout = _joint_layout((tx._shape, ty._shape, txy._shape, prod,
                                _common((prod, txy._shape))))
        tx, ty, txy = (x._repacked(layout, x._shifted(0))[0]
                       for x in (tx, ty, txy))
        return tx.mul(ty, order).residual(txy, order)

    return max(map(sector, yangian_transfer(X, sites, order),
                   yangian_transfer(Y, sites, order),
                   yangian_transfer(tensor_module(X, Y), sites, order)))


def oscillator_comparison(sites, order: int,
                          q: list[PSeriesMatrix] | None = None) -> float:
    """Per sector, the Baxter operator against (1 - p) x (its leading
    spin coefficient) x (oscillator transfer matrix); also checks that
    the oscillator leading spin coefficient is the identity at every
    series order.  Returns the largest exact defect.  `q` is
    `yangian_q(sites, order)`, built here when not given.

    Per sector, Q and the oscillator series are each decoded once, their
    leading coefficients taken from those digits, and every term packed
    at the one layout that holds all the bounds; the identity is the
    packed constant 1 on the diagonal, the same int at any layout."""
    L = len(sites)
    tb = yangian_transfer(
        build_module("oscillator", levels=order + L), sites, order
    )

    def sector(s, qs, ts):
        q_same, q_lead = qs._shifted(0), qs._coefficient(s)
        t_same, t_lead = ts._shifted(0), ts._coefficient(s)
        damped, _ = _combination((q_lead.shape,) * 2, (1, -1))
        # neither the weighted sum nor the oscillator series terminates
        prod = damped.times(ts._shape, ts.dim * (order + 1))
        one = _Shape(1, 1, 1, 1)
        layout = _joint_layout((qs._shape, q_lead.shape, ts._shape,
                                t_lead.shape, damped, prod,
                                _common((qs._shape, prod)),
                                _common((t_lead.shape, one))))
        q, lead = qs._repacked(layout, q_same, q_lead)
        t, t_lead = ts._repacked(layout, t_same, t_lead)
        eye = np.array([np.eye(ts.dim, dtype=object)] * (order + 1))
        flat = t_lead.residual(
            PSeriesMatrix._packed(ts.basis, False, eye, *layout, one))
        damped = lead.weighted(lead.times_p(), 1, -1)
        return max(flat, q.residual(damped.mul(t, order), order))

    if q is None:
        q = yangian_q(sites, order)
    return max(map(sector, range(L + 1), q, tb))


# ---------------------------------------------------------------------------
# Exact series summation at a rational grading point
# ---------------------------------------------------------------------------

def _stirling2(s: int, j: int) -> int:
    if j == 0:
        return 1 if s == 0 else 0
    if j > s:
        return 0
    return j * _stirling2(s - 1, j) + _stirling2(s - 1, j - 1)


def _power_sum(s: int, p: Fraction) -> Fraction:
    """Closed form of the level sum of i^s p^i over all levels, as a
    rational function of p evaluated at p != 1."""
    if p == 1:
        raise ZeroDivisionError("level sums diverge at p = 1")
    total = Fraction(0)
    fact = 1
    pj = Fraction(1)
    for j in range(s + 1):
        if j:
            fact *= j
            pj *= p
        total += _stirling2(s, j) * fact * pj / (1 - p) ** (j + 1)
    return total


def q_exact_at_p(sites, p: Fraction) -> list:
    """Baxter operator with the series summed exactly at a rational
    grading point, one matrix of polynomials in the spin variable per
    sector.  Each entry's level trace is a polynomial in the level index
    of degree at most the site count, so in the Lagrange basis on levels
    0..L its level sum (a finite combination of closed-form level sums)
    and its values on the extra sample levels are fixed rational
    combinations of its values on those levels; the extra levels verify
    the degree."""
    L = len(sites)
    nodes = range(L + 1)
    weights = [_power_sum(s, p) for s in nodes]
    lagrange = [
        math.prod((Poly((Fraction(-n, m - n), Fraction(1, m - n)))
                   for n in nodes if n != m), start=Poly((1,)))
        for m in nodes
    ]
    sum_weights = [sum(lag.coefficient(s) * weights[s] for s in nodes)
                   for lag in lagrange]
    checks = [(i, [lag(Fraction(i)) for lag in lagrange])
              for i in range(L + 1, L + 1 + _DEGREE_MARGIN)]

    def mix(values, coeffs):
        return sum((v.scale(c) for v, c in zip(values, coeffs)), Poly())

    def summed(values):
        if any(mix(values, w) != values[i] for i, w in checks):
            raise ValueError(
                "level trace is not polynomial of the expected degree"
            )
        return mix(values, sum_weights)

    return [
        [[summed([tab[r][c] for tab in qs.tables]) for c in range(qs.dim)]
         for r in range(qs.dim)]
        for qs in yangian_q(sites, L + _DEGREE_MARGIN)
    ]


# ---------------------------------------------------------------------------
# Two-site eigenvector example
# ---------------------------------------------------------------------------

def two_site_quadratic(a1: Fraction, a2: Fraction, p: Fraction) -> Poly:
    """Characteristic quadratic of the two-site system in the root
    variable."""
    return Poly((
        a1 * a2 - p * (a1 + 1) * (a2 + 1),
        (a1 + a2) * (1 - p) - 2 * p,
        1 - p,
    ))


def eigen_example_residual(a1: Fraction, a2: Fraction, p: Fraction) -> float:
    """Exact check, modulo the two-site quadratic, that the vector with
    components (root + a1 + 1, root + a2) on the basis (21, 12) is a
    common eigenvector of the leading-coefficient matrix and of the
    exactly summed Baxter operator, with the stated eigenvalues
    (denominators cleared by (1 - p)^2 and (root + a1 + 1)).

    The relation holds at the fixed grading point, not order by order in
    the series, because the root and the eigenvector depend on p."""
    if p == 1:
        raise ValueError("p = 1 degenerates the level sums")
    quad = two_site_quadratic(a1, a2, p)
    v = (Poly((a1 + 1, 1)), Poly((a2, 1)))  # linear in the root variable
    clear = Poly((a1 + 1, 1))

    def red(poly_t: Poly) -> Poly:
        return poly_rem(poly_t, quad)

    # leading-coefficient matrix, scaled by (1 - p)^2
    amat = [[a1 * (1 - p) + p, Fraction(1)], [p, a2 * (1 - p) + p]]
    lam = Poly((a1 * (1 - p) * (a1 + 1) + p * (a1 + 1) + a2,
                a1 * (1 - p) + p + 1))  # cleared eigenvalue, linear in root
    defects = [
        red(clear * (amat[i][0] * v[0] + amat[i][1] * v[1])) - red(lam * v[i])
        for i in range(2)
    ]
    # Baxter operator eigenrelation at the summed grading point:
    # (1-p)^2 (t+a1+1) Q(z;p) v == cleared-eigenvalue (z - t) v  mod quad
    qmat = q_exact_at_p((a1, a2), p)[1]  # basis (21, 12)
    scale = (1 - p) ** 2
    tvar = Poly.variable()
    for i in range(2):
        lhs = Poly()
        for j in range(2):
            lhs = lhs + qmat[i][j].map_coeffs(
                lambda c, j=j: red(clear * v[j] * (scale * c)))
        w = red(lam * v[i])
        rhs = Poly((red(-tvar * w), w))
        n = max(len(lhs.coeffs), len(rhs.coeffs))
        defects += [
            red(as_poly(lhs.coefficient(m)) - as_poly(rhs.coefficient(m)))
            for m in range(n)
        ]
    return exact_residual(defects)


# ---------------------------------------------------------------------------
# Rational q-characters
# ---------------------------------------------------------------------------

def yangian_qchar(X: YangianModule, depth: int | None = None) -> list:
    """Diagonal Gauss components per level as rational functions: the
    second is the lower-right entry, the first subtracts the band
    correction (raise after lower, divided by the shifted diagonal)."""
    d1, d2, up, down = X.band_data()
    top = X.levels if X.exact else X.levels - 1
    if depth is not None:
        top = min(top, depth)
    out = []
    for i in range(top + 1):
        k2 = RatFn(d2[i])
        if i == 0 or i - 1 not in up:
            k1 = RatFn(d1[i])
        else:
            k1 = RatFn(d1[i] * d2[i - 1] - up[i - 1] * down[i], d2[i - 1])
        out.append((k1, k2))
    return out


def _ladder_roots(spin, u, i: int) -> tuple:
    """The level-i character pair of a spectrally shifted ladder as
    quotients of monic linear factors z + r: for each component, the r of
    its numerator and of its denominator factors."""
    return ((u + spin, u - 1), (u + i - 1,)), ((u + i,), ())


def _linear_product(roots) -> Poly:
    return math.prod((Poly((r, 1)) for r in roots), start=Poly((1,)))


def qchar_ladder_term(spin, u, i: int) -> tuple:
    """Closed-form level-i character pair of a spectrally shifted
    ladder."""
    return tuple(RatFn(_linear_product(num), _linear_product(den))
                 for num, den in _ladder_roots(spin, u, i))


def qchar_finite_term(m: int, i: int) -> tuple:
    return qchar_ladder_term(Fraction(m), Fraction(0), i)


def qchar_oscillator_term(i: int) -> tuple:
    return RatFn(Poly((0, 1))), RatFn(Poly((1,)))


def _factor_multisets(terms, scale: int) -> tuple:
    """Both components of the product of the ladder character pairs of
    `terms`, (spin, u, i) triples, as reduced factor multisets: each root
    r of a factor z + r, times `scale`, which must make it an int, with
    its numerator count minus its denominator count, zero counts
    dropped.  By unique factorization two such products are equal as
    rational functions exactly when their multisets are."""
    out = []
    for comp in zip(*(_ladder_roots(*t) for t in terms)):
        count = {}
        for num, den in comp:
            for roots, sign in ((num, 1), (den, -1)):
                for r in roots:
                    r = int(r * scale)
                    count[r] = count.get(r, 0) + sign
        out.append(frozenset((r, n) for r, n in count.items() if n))
    return tuple(out)


def qchar_interchange_mismatches(l: Fraction, u: Fraction, depth: int,
                                 rhs_shift: Fraction = Fraction(0)) -> int:
    """Number of series levels at which the two tensor-product characters
    differ: ladder(l, 0) x ladder(0, u) against ladder(l-u, u) x
    ladder(u, 0), each level compared as a multiset of component pairs.
    `rhs_shift` is added to the spectral shift of the ladder(l-u, u)
    factor alone, as a negative control.  The roots are integer
    combinations of 1, l, u and `rhs_shift`, so the lcm of their
    denominators scales them to ints."""
    scale = math.lcm(*(Fraction(v).denominator for v in (l, u, rhs_shift)))
    zero = Fraction(0)
    bad = 0
    for k in range(depth + 1):
        lhs = Counter(_factor_multisets(((l, zero, i), (zero, u, k - i)), scale)
                      for i in range(k + 1))
        rhs = Counter(_factor_multisets(((l - u, u + rhs_shift, i),
                                         (u, zero, k - i)), scale)
                      for i in range(k + 1))
        bad += lhs != rhs
    return bad
