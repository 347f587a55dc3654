"""Exact integer series: the exact twin's series calculus.

A series entry is a polynomial with integer coefficients over the
series' one denominator.  A series holds its coefficients as coefficient
slots [outer slot, inner slot, k, row, col], the outer slot the power of
the outer variable and the inner slot that of the inner, coefficient-ring
variable: an int64 array when every coefficient fits it, else Python
ints.

`evaluate` checks relations on residues.  Every relation it computes is
an identity between polynomial matrices, and evaluation at a point
modulo a prime is a ring homomorphism, so each term and operation runs
on R[prime, point, k, row, col]: the values of the series at the points
of a grid modulo word-size primes, as float64.  A value is reduced to
|r| <= (p + 2)/2 after every step, so a sum of k products of values stays
below 2^52 and is exact in float64 while k (p + 2)^2 / 4 < 2^52 (FFLAS:
J.-G. Dumas, P. Giorgi, C. Pernet, arXiv:cs/0601133); matrix products
are float64 BLAS matmuls reduced once per output level.  The a-priori
bounds of the operations (`_Outline`) give the denominator, coefficient
bound and outer and inner degrees of every term and result, and so fix
the primes and the points: points 0..D (a grid (D+1) x (E+1) when an
inner degree E > 0 occurs) for the largest degrees D and E of a result,
and primes that divide no denominator the residues invert, until their
product exceeds twice the largest coefficient bound of a result.  A
polynomial of degree at most D that vanishes at D + 1 points modulo p is
zero modulo p, and an integer below half the primes' product that is
zero modulo each of them is zero (Chinese remainder theorem; von zur
Gathen and Gerhard, Modern Computer Algebra, ch. 5 and 10), so a
residual whose residues all vanish is exactly 0.  A nonzero residual,
and a series-valued result, is interpolated modulo each prime and read
back in the symmetric range.  Exactness rests on each bound being a true
bound, which tests check on inputs that attain it.

Every relation, the exchange relation of `yangian.rtt_residual`
included, is checked by `evaluate`; in the exchange check the symbolic
spin rides on the series axis k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .dynamical import _BATCH_ITEMS, cmatmul
from .polyring import (
    Poly,
    denominator,
    exact_residual,
    numerators,
    shift_matrix,
)


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


# the constant 1
_ONE = _Shape(1, 1, 1, 1)


class _Outline(NamedTuple):
    """A series as the a-priori bounds see it: its shape, stored order,
    termination and dimension, the largest number of products one
    residue sums while computing it (`sums`), and the lcm of the
    denominators its residues invert (`units`).  The operations on
    outlines are the shape rules of the operations of `PSeriesMatrix`:
    each gives the outline of its result."""

    shape: _Shape
    order: int
    terminates: bool
    dim: int
    sums: int
    units: int

    def top(self, order: int) -> int:
        """The last coefficient a product to `order` reads of this
        factor: a terminating series is zero past its stored order."""
        return min(self.order, order) if self.terminates else order

    def times_p(self) -> "_Outline":
        return self._replace(order=self.order + 1)

    def weighted(self, other: "_Outline", weights: tuple) -> "_Outline":
        """The sum of each series times its weight (`_weights`)."""
        dw, _, shapes = weights
        shape = _common([w.times(s.shape, 1) for w, s in zip(shapes, (self, other))])
        return _Outline(shape, min(self.order, other.order), False, self.dim,
                        max(self.sums, other.sums, 2),
                        math.lcm(self.units, other.units, dw))

    def mul(self, other: "_Outline", order: int) -> "_Outline":
        """Each coefficient of an entry of the truncated product sums
        over the inner dimension and the split levels."""
        terms = self.dim * (min(self.top(order), other.top(order)) + 1)
        return _Outline(self.shape.times(other.shape, terms), order,
                        self.terminates and other.terminates, self.dim,
                        max(self.sums, other.sums, terms),
                        math.lcm(self.units, other.units))

    def residual(self, other: "_Outline", order: int) -> "_Outline":
        """The difference of the two series: its coefficients are sums
        of theirs, rescaled to one denominator."""
        return _Outline(_common((self.shape, other.shape)), order, False,
                        self.dim, max(self.sums, other.sums, 2),
                        math.lcm(self.units, other.units))


def _common(shapes) -> _Shape:
    """The shape of a sum of series of `shapes`, rescaled to the lcm of
    their denominators: the most outer and inner slots, and the sum of
    the rescaled bounds."""
    den = math.lcm(*(s.den for s in shapes))
    return _Shape(den, sum(s.bound * (den // s.den) for s in shapes),
                  max(s.outer for s in shapes), max(s.inner for s in shapes))


@lru_cache(maxsize=16)
def _weights(coeffs: tuple) -> tuple:
    """(den, rows, shapes) of scalar polynomials: rows[value][outer
    slot][inner slot] their int numerators over the lcm den of their
    denominators (`cleared`), as tuples, and each one's `_Shape`.
    Cached: the weights of a relation recur in every sector."""
    dw, rows = cleared(coeffs)
    rows = tuple(tuple(map(tuple, row)) for row in rows.tolist())
    shapes = []
    for row in rows:
        used = [(i, j) for i, r in enumerate(row) for j, c in enumerate(r) if c]
        outer, inner = (max(u) + 1 for u in zip(*used)) if used else (1, 1)
        shapes.append(_Shape(dw, max(abs(c) for r in row for c in r), outer,
                             inner))
    return dw, rows, tuple(shapes)


def int_dtype(bound: int):
    """int64 when every int of magnitude at most `bound` fits it, else
    object (Python ints)."""
    return object if bound >> 63 else np.int64


def cleared(values) -> tuple:
    """(den, coeffs) of exact values: ints, Fractions and polynomials of
    them in at most two variables.  den is the lcm of their leaf
    denominators, and coeffs[value, outer slot, inner slot] the int
    coefficients of each value times den, zero-padded to the most outer
    and inner slots of any value."""
    values = list(values)
    den = denominator(values)
    rows = [[c.coeffs if isinstance(c, Poly) else (c,)
             for c in (v.coeffs if isinstance(v, Poly) else (v,))]
            for v in (numerators(v, den) for v in values)]
    if any(isinstance(leaf, Poly) for row in rows for c in row for leaf in c):
        raise ValueError("series entries have at most two variables")
    outer = max(map(len, rows), default=1) or 1
    inner = max((len(c) for row in rows for c in row), default=1) or 1
    flat = [[0] * (outer * inner) for _ in rows]
    for f, row in zip(flat, rows):
        for i, c in enumerate(row):
            f[i * inner:i * inner + len(c)] = c
    return den, np.array(flat, dtype=object).reshape(len(rows), outer, inner)


def _tight(slots, den: int) -> tuple:
    """(slots, shape) of the numerators over `den` with the int
    coefficient slots [outer slot, inner slot, k, row, col], an int64
    array or Python ints, cut to the least slot counts that hold them;
    Python ints that all fit int64 are converted."""
    mags = np.abs(slots).max(axis=(2, 3, 4))
    used = np.argwhere(mags != 0)
    outer, inner = used.max(axis=0) + 1 if len(used) else (1, 1)
    bound = int(mags.max())
    slots = np.ascontiguousarray(slots[:outer, :inner], int_dtype(bound))
    return slots, _Shape(den, bound, int(outer), int(inner))


def from_slots(basis: tuple, terminates: bool, slots, den: int) -> "PSeriesMatrix":
    """The series of the int coefficient slots [outer slot, inner slot, k,
    row, col], an int64 array or Python ints, of its numerators over
    `den`."""
    series = PSeriesMatrix.__new__(PSeriesMatrix)
    series._hold(basis, terminates, *_tight(slots, den))
    return series


def _zero_table(dim: int) -> list:
    return [[Poly() for _ in range(dim)] for _ in range(dim)]


# ---------------------------------------------------------------------------
# Residues
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    """Miller-Rabin on the bases 2, 7 and 61, deterministic for odd
    61 < n < 4759123141."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime_below(n: int) -> int:
    """The largest prime below n: one step down the fixed descending list
    of primes."""
    n -= 1
    while not _is_prime(n):
        n -= 1
    return n


def _primes(sums: int, bound: int, units: int) -> tuple:
    """The primes of an evaluation, descending from the largest p whose
    residues stay exact in sums of `sums` products, (p + 2)^2 / 4 * sums
    < 2^52, skipping every prime that divides `units`, until their
    product exceeds 2 * bound."""
    bits = (54 - sums.bit_length()) // 2
    out, product, p = [], 1, (1 << bits) - 2
    while not out or product <= 2 * bound:
        p = _prime_below(p)
        if units % p:
            out.append(p)
            product *= p
    return tuple(out)


def _grid(results) -> tuple:
    """(D + 1, E + 1): the points of the outer and the inner variable
    that determine every result of an evaluation."""
    return (max(o.shape.outer for o in results),
            max(o.shape.inner for o in results))


def _symmetric(rows, primes) -> np.ndarray:
    """Python ints [prime, ...] reduced modulo their prime into
    |r| <= p/2, as float64."""
    return np.array([[(r + p // 2) % p - p // 2 for r in row]
                     for row, p in zip(rows, primes)], dtype=float)


def _blocks(terms, outer: int) -> tuple:
    """(blocks, starts) of the `Shift`s and `Lead`s of one series: the
    row blocks of its power matrix, ("shift", c, n) at the outer points
    x + c and ("lead", s, n) at x, for x < n, and each term's block and
    first outer point in it.  The shifts by integers share one block,
    since the shift by c at the point x is the series at x + c."""
    whole = sorted({int(t.c) for t in terms
                    if isinstance(t, Shift) and t.c.denominator == 1})
    blocks = [("shift", whole[0], outer + whole[-1] - whole[0])] if whole else []
    starts = []
    for t in terms:
        if isinstance(t, Shift) and t.c.denominator == 1:
            starts.append((0, int(t.c) - whole[0]))
        else:
            starts.append((len(blocks), 0))
            blocks.append(("shift", t.c, outer) if isinstance(t, Shift)
                          else ("lead", t.s, outer))
    return tuple(blocks), starts


@lru_cache(maxsize=64)
def _powers(primes: tuple, inner: int, n: int, m: int, blocks: tuple) -> np.ndarray:
    """[prime, row, slot]: the matrices that take the residues of the
    slots i*m + j of a series (n outer and m inner slots) to those of its
    terms at the points (x, y) of the `_blocks`, y < inner, rows in
    order: (x + c)^i y^j in the block ("shift", c, count), and x^j in the
    slots of i = s in ("lead", s, count)."""
    rows = []
    for p in primes:
        row = []
        for kind, c, count in blocks:
            if kind == "shift":
                c = Fraction(c)
                cp = c.numerator * pow(c.denominator, -1, p)
            row += [(pow(x + cp, i, p) * pow(y, j, p) if kind == "shift"
                     else pow(x, j, p) if i == c else 0)
                    for x in range(count) for y in range(inner)
                    for i in range(n) for j in range(m)]
        rows.append(row)
    return _symmetric(rows, primes).reshape(len(primes), -1, n * m)


def _lagrange(n: int, p: int) -> list:
    """The inverse of the Vandermonde matrix of the points 0..n-1 modulo
    p: row l, column i the coefficient of x^l in the Lagrange basis
    polynomial of the point i."""
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        poly, scale = [1], 1
        for j in range(n):
            if j != i:
                poly = [((poly[l - 1] if l else 0)
                         - j * (poly[l] if l < len(poly) else 0)) % p
                        for l in range(len(poly) + 1)]
                scale = scale * (i - j) % p
        inv = pow(scale, -1, p)
        for l in range(n):
            out[l][i] = poly[l] * inv % p
    return out


@lru_cache(maxsize=16)
def _interpolation(primes: tuple, grid: tuple) -> np.ndarray:
    """[prime, slot, grid point]: the coefficients of the slots
    i*grid[1] + j from the values at the grid points, modulo each prime."""
    return _symmetric([np.kron(np.array(_lagrange(grid[0], p), dtype=object),
                               np.array(_lagrange(grid[1], p), dtype=object)
                               ).ravel().tolist() for p in primes],
                      primes).reshape(len(primes), grid[0] * grid[1], -1)


def _crt(residues, primes: tuple) -> np.ndarray:
    """The ints of magnitude below half the primes' product with the
    given residues [prime, ...], as an object array."""
    m = math.prod(primes)
    total = 0
    for r, p in zip(residues, primes):
        e = m // p * pow(m // p, -1, p)
        total = total + r.astype(np.int64).astype(object) * e
    total %= m
    return np.where(total > m // 2, total - m, total)


@lru_cache(maxsize=64)
def _block_rows(blocks: tuple, grid: tuple, lo: int, hi: int) -> tuple:
    """(rows, firsts): the rows of the power matrix of `_blocks` that the
    grid points lo..hi-1 read (all of them as a slice), and the first
    row of each block among them."""
    spans, at = [], 0
    for _, _, count in blocks:
        spans.append(np.arange(at + lo, at + hi + (count - grid[0]) * grid[1]))
        at += count * grid[1]
    firsts = np.cumsum([0] + [len(r) for r in spans])
    return (slice(None) if hi - lo == grid[0] * grid[1] else np.concatenate(spans),
            tuple(firsts.tolist()))


class _Chunk(NamedTuple):
    """The (prime, point) rows one pass of `evaluate` computes on: a
    slice of its primes and one of its grid points, their counts, and
    the primes as float64 columns."""

    primes: slice
    points: slice
    size: tuple
    p: np.ndarray
    pinv: np.ndarray

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """x, a contiguous array with the chunk's primes on its first
        axis, modulo them in place into |r| <= (p + 2)/2: exact for
        |x| < 2^52."""
        v = x.view()
        v.shape = (len(self.p), -1)  # refuses to copy
        q = v * self.pinv
        np.rint(q, out=q)
        q *= self.p
        v -= q
        return x


def _chunk(primes: tuple, rows: slice = slice(None), points: int = 1,
           cut: slice = slice(None)) -> _Chunk:
    p = np.array(primes[rows], dtype=float)[:, None]
    return _Chunk(rows, cut, (len(p), len(range(points)[cut])), p, 1 / p)


def _chunks(primes: tuple, points: int, rows: int) -> list:
    """The chunks of at most `rows` (prime, point) rows that cover the
    primes and points, prime by prime: whole primes while one holds all
    points."""
    if rows >= points:
        step = rows // points
        return [_chunk(primes, slice(i, i + step), points)
                for i in range(0, len(primes), step)]
    return [_chunk(primes, slice(i, i + 1), points, slice(j, j + rows))
            for i in range(len(primes)) for j in range(0, points, rows)]


def _zeros(res: np.ndarray, levels: int) -> np.ndarray:
    """Zero residues of `levels` coefficients, at the rows of res."""
    return np.zeros(res.shape[:2] + (levels,) + res.shape[3:])


class PSeriesMatrix:
    """Truncated power series of matrices with polynomial entries;
    tables[k][row][col] is the k-th coefficient.  `terminates` marks a
    series known to be a polynomial of the stored order.

    A series holds the coefficient slots of its entries' integer
    numerators over one denominator (see the module docstring).  Inside
    `evaluate` a value holds its residues instead, and only the
    operations read them.  `tables` and `get` are views unpacked to
    Fraction polynomials once per coefficient, on first read.  The views
    are for reading: the series operations read the numerators only, so
    an entry written into a view would be seen by readers of the view and
    by no series operation.  A changed series is built through the
    constructor."""

    def __init__(self, basis: tuple, tables: list, terminates: bool = False):
        d, coeffs = cleared(e for tab in tables for row in tab for e in row)
        dim = len(tables[0])
        slots = coeffs.transpose(1, 2, 0).reshape(
            coeffs.shape[1:] + (len(tables), dim, dim))
        self._hold(basis, terminates, *_tight(slots, d))
        self._views.update(enumerate(tables))

    def _hold(self, basis, terminates, slots, shape):
        """The series of the int coefficient slots [outer slot, inner
        slot, k, row, col] of the numerators over shape.den."""
        self._slots = slots
        self._views = {}
        self.basis, self.terminates = basis, terminates
        self.order, self.dim = slots.shape[2] - 1, slots.shape[3]
        self.shape = shape

    def slots(self) -> np.ndarray:
        """The coefficient slots as one array of Python ints
        [outer slot, inner slot, k, row, col] of numerators over
        shape.den."""
        return self._slots.astype(object)

    @property
    def tables(self) -> list:
        return [self.get(k) for k in range(self.order + 1)]

    def get(self, k: int):
        """The k-th coefficient: zero below 0 and past the stored order
        of a terminating series."""
        if k < 0 or (k > self.order and self.terminates):
            return _zero_table(self.dim)
        if k > self.order:
            raise IndexError(
                f"coefficient {k} beyond truncation order {self.order}")
        if k not in self._views:
            self._views[k] = self._unpacked(k)
        return self._views[k]

    def _unpacked(self, k: int) -> list:
        d = self.shape.den
        level = self._slots[:, :, k].tolist()

        def entry(r, c):
            if self.shape.inner == 1:
                return Poly(Fraction(row[0][r][c], d) for row in level)
            return Poly(Poly(Fraction(dig[r][c], d) for dig in row)
                        for row in level)

        return [[entry(r, c) for c in range(self.dim)]
                for r in range(self.dim)]

    # -- values of `evaluate` ------------------------------------------------

    @classmethod
    def _value(cls, basis, terminates, res, chunk) -> "PSeriesMatrix":
        """A value of `evaluate`: res[prime, point, k, row, col], the
        series at the chunk's grid points modulo its primes, reduced."""
        self = cls.__new__(cls)
        self._res, self._chunk = res, chunk
        self.basis, self.terminates = basis, terminates
        self.order, self.dim = res.shape[2] - 1, res.shape[3]
        return self

    def _residues(self) -> tuple:
        try:
            return self._res, self._chunk
        except AttributeError:
            raise ValueError("series operations run only on the values that "
                             "packed.evaluate computes") from None

    def _with(self, other: "PSeriesMatrix") -> tuple:
        """The residues of both operands and the chunk they are held at."""
        x, chunk = self._residues()
        y, other_chunk = other._residues()
        if other_chunk is not chunk:
            raise ValueError("operands held at different primes or points")
        if self.basis != other.basis:
            raise ValueError("mismatched chain bases")
        return x, y, chunk

    def _levels(self, res: np.ndarray, order: int) -> np.ndarray:
        """The residues res of coefficients 0..order; levels past the
        stored order of a terminating series are zero."""
        if order > self.order and not self.terminates:
            raise IndexError(
                f"coefficient {order} beyond truncation order {self.order}")
        if order > self.order:
            return np.concatenate([res, _zeros(res, order - self.order)], axis=2)
        return res[:, :, :order + 1]

    def times_p(self) -> "PSeriesMatrix":
        """The series multiplied by the grading variable p."""
        res, chunk = self._residues()
        return self._value(self.basis, self.terminates, np.concatenate(
            [_zeros(res, 1), res], axis=2), chunk)

    def weighted(self, other: "PSeriesMatrix", a, b) -> "PSeriesMatrix":
        """Entrywise a*x + b*y of two series, to the lower stored order;
        a and b are the residues [prime, point, 1, 1, 1] of the scalar
        polynomials at the operands' points."""
        x, y, chunk = self._with(other)
        top = min(self.order, other.order) + 1
        out = x[:, :, :top] * a
        out += y[:, :, :top] * b
        return self._value(self.basis, False, chunk.reduce(out), chunk)

    def mul(self, other: "PSeriesMatrix", order: int) -> "PSeriesMatrix":
        """Truncated product to the stated order, skipping the zero
        coefficients past a terminating factor's stored order: output
        coefficient k is one float64 matmul of the factors' levels side
        by side, [x_lo .. x_hi] times [y_(k-lo); ..; y_(k-hi)], and the
        product is reduced once."""
        x, y, chunk = self._with(other)
        top_a = min(self.order, order) if self.terminates else order
        top_b = min(other.order, order) if other.terminates else order
        try:
            fa, fb = self._levels(x, top_a), other._levels(y, top_b)
        except IndexError:
            raise IndexError(
                f"product order {order} exceeds factor truncations"
            ) from None
        rows, d = fa.shape[:2], self.dim
        # fa's levels side by side along the columns, fb's reversed down
        # the rows: y_(k-lo) sits at block row top_b - k + lo
        xs = fa.transpose(0, 1, 3, 2, 4).reshape(rows + (d, (top_a + 1) * d))
        ys = fb[:, :, ::-1].reshape(rows + ((top_b + 1) * d, d))
        out = np.zeros(rows + (order + 1, d, d))
        for k in range(min(order, top_a + top_b) + 1):
            lo, hi = max(0, k - top_b), min(k, top_a)
            cmatmul(xs[..., lo * d:(hi + 1) * d],
                    ys[..., (top_b - k + lo) * d:(top_b - k + hi + 1) * d, :],
                    out=out[:, :, k])
        return self._value(self.basis, self.terminates and other.terminates,
                           chunk.reduce(out), chunk)

    def residual(self, other: "PSeriesMatrix", order: int) -> "PSeriesMatrix":
        """The difference of the two series to the stated order, whose
        residues `evaluate` reads back as the exact defect."""
        x, y, chunk = self._with(other)
        out = self._levels(x, order) - other._levels(y, order)
        return self._value(self.basis, False, chunk.reduce(out), chunk)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

# `Shift` and `Lead` are the terms `evaluate` keys its series' residues by:
# as dataclasses, two of them are equal only if their classes are, where
# NamedTuples of equal fields would be
@dataclass(frozen=True)
class Shift:
    """The Taylor shift v -> v + c of every entry of a series: with
    c = u/w and D the outer degree, w^D p(v + c) has the integer
    coefficients sum_i C(i, k) u^(i-k) w^(D-i+k) p_i, a fixed matrix on
    the coefficient axis (`polyring.shift_matrix`); w^D joins the
    denominator.  Its residues are the series' slots evaluated at the
    shifted points.  The shift by 0 is the series itself."""

    x: PSeriesMatrix
    c: object

    @property
    def shape(self) -> _Shape:
        shape = self.x.shape
        if self.c == 0:
            return shape
        growth = max(sum(map(abs, row))
                     for row in shift_matrix(self.c, shape.outer))
        return shape._replace(
            den=shape.den * self.c.denominator ** (shape.outer - 1),
            bound=shape.bound * growth)


@dataclass(frozen=True)
class Lead:
    """The entrywise coefficient of the s-th power of the (outer)
    variable of a series: the inner slots become the outer ones."""

    x: PSeriesMatrix
    s: int

    @property
    def shape(self) -> _Shape:
        return self.x.shape._replace(outer=self.x.shape.inner, inner=1)


class Identity(NamedTuple):
    """The identity series on a basis, to the evaluation order."""

    basis: tuple


class TimesP(NamedTuple):
    """An expression times the grading variable p (`times_p`)."""

    x: object


class Product(NamedTuple):
    """The product of two expressions to the evaluation order (`mul`)."""

    x: object
    y: object


class Weighted(NamedTuple):
    """a*x + b*y for scalar polynomials a and b (`weighted`)."""

    x: object
    y: object
    a: object
    b: object


class Residual(NamedTuple):
    """The exact defect of x against y to the evaluation order
    (`residual`), a float."""

    x: object
    y: object


def _slot_residues(x: PSeriesMatrix, chunk: _Chunk, primes: tuple) -> np.ndarray:
    """[prime, slot, k*row*col]: the int slots of x modulo each of the
    chunk's primes: reduced as float64 when they are exact in it, else
    in 0..p-1 from int remainders."""
    flat = x._slots.reshape(x.shape.outer * x.shape.inner, -1)
    if x.shape.bound >> 52:
        return np.array([flat % p for p in primes], dtype=float)
    flat = flat.astype(float)
    q = flat * chunk.pinv[:, :, None]
    np.rint(q, out=q)
    q *= chunk.p[:, :, None]
    return flat - q


@lru_cache(maxsize=16)
def _weight_residues(weights: tuple, primes: tuple, grid: tuple) -> np.ndarray:
    """[weight, prime, grid point, 1, 1, 1]: the scalar polynomials of
    `_weights` at the grid points modulo each prime.  Cached, and
    read-only: a relation checked again on the same chain, at the same
    primes and grid, reads them again."""
    dw, rows, _ = weights
    values = []
    for x in range(grid[0]):
        for y in range(grid[1]):
            for row in rows:
                v = 0
                for r in reversed(row):
                    inner = 0
                    for c in reversed(r):
                        inner = inner * y + c
                    v = v * x + inner
                values.append(v)
    res = _symmetric([[v * inv for v in values] for inv in
                      (pow(dw, -1, p) for p in primes)], primes)
    res = res.reshape(len(primes), -1, 2, 1, 1, 1).transpose(2, 0, 1, 3, 4, 5)
    res.flags.writeable = False
    return res


def _read(values: list, outline: _Outline, primes: tuple, grid: tuple,
          residual: bool):
    """The result of a relation from its values on the chunks: the float
    of a `Residual`, 0.0 when every residue is zero, or the series.  The
    numerators over the outline's denominator are interpolated modulo
    each prime and read back in the symmetric range."""
    if residual and not any(v._res.any() for v in values):
        return 0.0
    first = values[0]
    full = np.zeros((len(primes), grid[0] * grid[1]) + first._res.shape[2:])
    for v in values:
        full[v._chunk.primes, v._chunk.points] = v._res
    whole = _chunk(primes)
    inv = whole.reduce(_interpolation(primes, grid) * _symmetric(
        [[outline.shape.den] for p in primes], primes)[:, :, None])
    coeffs = whole.reduce(cmatmul(inv, full.reshape(inv.shape[:2] + (-1,))))
    if residual:
        worst = np.abs(_crt(coeffs[:, coeffs.any(axis=0)], primes)).max()
        return exact_residual((Fraction(int(worst), outline.shape.den),))
    slots = _crt(coeffs, primes).reshape(grid + first._res.shape[2:])
    return from_slots(first.basis, first.terminates, slots, outline.shape.den)


def evaluate(exprs, order: int) -> list:
    """The value of each expression: a series, or the float of a
    `Residual`.  A bare series stands for its shift by 0.

    The expressions run first on the outlines of their terms (the
    `Shift`s and `Lead`s of input series, and the `Identity`s), which
    gives every result's denominator, bound and degrees and so the
    primes and the grid points (see the module docstring), then on
    residues, in chunks of (prime, point) rows whose values hold at most
    `dynamical._BATCH_ITEMS` coefficient items (at least one row).  Each
    input series' slots are reduced
    modulo the primes once, and all its terms come from one product with
    their stacked power matrices; a result is read back once, from all
    its chunks."""
    sources, weights = {}, {}

    def run(e, value, seen: list):
        # the value of e, with value(t) that of each term t and value(w)
        # the weights of each `Weighted` w; appends every value it
        # computes to `seen`
        match e:
            case PSeriesMatrix():
                return run(Shift(e, 0), value, seen)
            case TimesP(x):
                v = run(x, value, seen).times_p()
            case Product(x, y):
                v = run(x, value, seen).mul(run(y, value, seen), order)
            case Weighted(x, y):
                v = run(x, value, seen).weighted(run(y, value, seen), *value(e))
            case Residual(x, y):
                v = run(x, value, seen).residual(run(y, value, seen), order)
            case _:
                v = value(e)
        seen.append(v)
        return v

    def outline(e):
        if isinstance(e, Weighted):
            weights[id(e)] = _weights((e.a, e.b))
            return weights[id(e)],
        if isinstance(e, Identity):
            return _Outline(_ONE, order, False, len(e.basis), 1, 1)
        x = e.x
        sources.setdefault(x, {})[e] = None
        w = e.c.denominator if isinstance(e, Shift) else 1
        # a power matrix row (reduced) times slots in 0..p-1
        return _Outline(e.shape, x.order, x.terminates, x.dim,
                        2 * x.shape.outer * x.shape.inner,
                        math.lcm(x.shape.den, w))

    seen = []
    results = [run(e, outline, seen) for e in exprs]
    grid = _grid(results)
    points = grid[0] * grid[1]
    primes = _primes(max(points, *(o.sums for o in results)),
                     max(o.shape.bound for o in results),
                     math.lcm(*(o.units for o in results)))
    levels = max(o.order for o in seen) + 1
    chunks = _chunks(primes, points, max(1, _BATCH_ITEMS // (
        levels * results[0].dim ** 2)))
    whole = _chunk(primes)
    powers = {}
    for x, terms in sources.items():
        blocks, starts = _blocks(terms, grid[0])
        # the residues are values: numerators times the inverse of x's den
        inv = _symmetric([[pow(x.shape.den, -1, p)] for p in primes], primes)
        mats = _powers(primes, grid[1], x.shape.outer, x.shape.inner, blocks)
        powers[x] = whole.reduce(mats * inv[:, :, None]), blocks, starts
    slots, values = {}, [[] for _ in exprs]
    for chunk in chunks:
        part = primes[chunk.primes]
        terms = {}
        for x, (mats, blocks, starts) in powers.items():
            if slots.get(x, (None,))[0] != part:
                slots[x] = part, _slot_residues(x, chunk, part)
            rows, firsts = _block_rows(blocks, grid, *chunk.points.indices(points)[:2])
            res = chunk.reduce(cmatmul(mats[chunk.primes][:, rows], slots[x][1]))
            for t, (b, off) in zip(sources[x], starts):
                first = firsts[b] + off * grid[1]
                terms[t] = PSeriesMatrix._value(
                    x.basis, x.terminates, res[:, first:first + chunk.size[1]].reshape(
                        chunk.size + (x.order + 1, x.dim, x.dim)), chunk)

        def value(e):
            if isinstance(e, Weighted):
                return (w[chunk.primes, chunk.points]
                        for w in _weight_residues(weights[id(e)], primes, grid))
            if isinstance(e, Identity):
                return PSeriesMatrix._value(e.basis, False, np.broadcast_to(
                    np.eye(len(e.basis)),
                    chunk.size + (order + 1,) + (len(e.basis),) * 2), chunk)
            return terms[e]

        for out, e in zip(values, exprs):
            out.append(run(e, value, []))
    return [_read(v, o, primes, grid, isinstance(e, Residual))
            for v, o, e in zip(values, results, exprs)]
