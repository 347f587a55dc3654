"""Kronecker-packed integer series: the exact twin's series calculus.

A series entry is a polynomial with integer coefficients over the
series' one denominator, stored as its value at X = 2^width: one Python
int (Kronecker substitution).  An entry in two variables, sum c_ij x^i y^j
with y the inner (coefficient-ring) variable, is stored as
sum c_ij X^(i*stride + j).  Evaluation at X is a ring homomorphism, so
sums, integer multiples and products of entries are sums, multiples and
products of ints, and a matrix product is one object-array matmul.  The
coefficients read back as balanced digits, which is exact only while each
of them has magnitude below 2^(width-1): the width comes from an a-priori
bound on the coefficients (`slot_width`).  A coefficient too large for its
slot carries into the next slot and leaves a packed int that reads back as
other, valid digits, so no check on the packed values can see it:
exactness rests on each bound being a true bound, which tests check on
inputs that attain it.

The width and the stride are the layout of a series.  A series holds
its coefficients as coefficient slots, one int array per outer and inner
slot, at no layout.  `evaluate` is the one place that packs series: it
derives the shape of every term and result of its expressions from the
operations' rules, packs every term once, straight from its series'
slots, at the least layout that holds them all (`pack_slots`), and
decodes a series-valued result once (`from_packed`).  The operations run
on those packed terms: they compute at the layout their operands share,
and refuse operands packed at different layouts or a layout too narrow
for their result.  Two callers pack module entries with `pack_slots` at
a width from their own a-priori bound: `yangian._graded_trace` (the
largest level dimension times the product over sites of the largest
row sum of the entries' coefficient l1 norms) and `yangian.rtt_residual`
(3 n rho mu: spin slots, largest row sum of largest coefficients, and
largest coefficient of the entries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import NamedTuple

import numpy as np

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


# the packed constant 1: the same int at any layout
_ONE = _Shape(1, 1, 1, 1)


class _Outline(NamedTuple):
    """A series as the a-priori bounds see it: its shape, stored order,
    termination and dimension.  The operations on outlines are the shape
    rules of the operations of `PSeriesMatrix`: each gives the outline of
    its result."""

    shape: _Shape
    order: int
    terminates: bool
    dim: int

    def top(self, order: int) -> int:
        """The last coefficient a product to `order` reads of this
        factor: a terminating series is zero past its stored order."""
        return min(self.order, order) if self.terminates else order

    def times_p(self) -> "_Outline":
        return self._replace(order=self.order + 1)

    def weighted(self, other: "_Outline", a, b) -> "_Outline":
        return _Outline(_combination((self.shape, other.shape), (a, b))[0],
                        min(self.order, other.order), False, self.dim)

    def mul(self, other: "_Outline", order: int) -> "_Outline":
        """Each coefficient of an entry of the truncated product sums
        over the inner dimension and the split levels."""
        levels = min(self.top(order), other.top(order)) + 1
        return _Outline(self.shape.times(other.shape, self.dim * levels),
                        order, self.terminates and other.terminates, self.dim)

    def residual(self, other: "_Outline", order: int) -> "_Outline":
        return _Outline(_common((self.shape, other.shape)), order, False,
                        self.dim)


def _common(shapes, bound=max) -> _Shape:
    """The shapes rescaled to the lcm of their denominators and merged:
    the most outer and inner slots, and `bound` of the rescaled bounds
    (`max` for series compared, `sum` for series added)."""
    den = math.lcm(*(s.den for s in shapes))
    return _Shape(den, bound(s.bound * (den // s.den) for s in shapes),
                  max(s.outer for s in shapes), max(s.inner for s in shapes))


@lru_cache(maxsize=16)
def _combination(shapes: tuple, coeffs: tuple) -> tuple:
    """(shape, ((row, rescale), ...)) of the sum of c * x over scalar
    polynomials c of `coeffs` and series x of `shapes`: each c the row
    [outer slot, inner slot] of its numerator over the coefficients'
    common denominator (`cleared`), each product rescaled to the result's
    denominator.  Cached: `evaluate` asks for each weighted sum's once
    for its layout and once to compute it."""
    dw, rows = cleared(coeffs)
    rows, terms = rows.tolist(), []
    for row, s in zip(rows, shapes):
        used = [(i, j) for i, r in enumerate(row) for j, c in enumerate(r) if c]
        outer, inner = (max(u) + 1 for u in zip(*used)) if used else (1, 1)
        terms.append(_Shape(dw, max(abs(c) for r in row for c in r), outer,
                            inner).times(s, 1))
    shape = _common(terms, sum)
    return shape, tuple((row, shape.den // t.den) for row, t in zip(rows, terms))


def slot_width(bound: int) -> int:
    """Bits per coefficient slot that hold every integer of magnitude at
    most `bound` as a balanced digit."""
    return bound.bit_length() + 1


def digits(v, width: int, count: int) -> list:
    """The lowest `count` balanced digits base 2^width of an int, or of
    every int of an object array at once."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    # offset every digit by half: the offset value's plain digits
    u = v + pack([half] * count, width)
    return [((u >> (width * n)) & mask) - half for n in range(count)]


def pack(values, width: int):
    """Inverse of `digits`: the sum of values[n] * 2^(width*n)."""
    v = 0
    for d in reversed(values):
        v = (v << width) + d
    return v


def pack_slots(rows, width: int, stride: int):
    """The packed value of the coefficient slots rows[i][j] of outer slot
    i and inner slot j < stride: ints, or int arrays packed entrywise."""
    return pack([d for row in rows for d in [*row] + [0] * (stride - len(row))],
                width)


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


def defect(x, y, width: int, count: int, den: int) -> float:
    """The exact defect of the object arrays of packed ints x against y:
    0.0 where they are equal, else the largest magnitude of the
    difference of their lowest `count` balanced digits base 2^width, over
    `den` (`exact_residual`)."""
    if (x == y).all():
        return 0.0
    worst = max(np.abs(dx - dy).max() for dx, dy in
                zip(digits(x, width, count), digits(y, width, count)))
    return exact_residual((Fraction(worst, den),))


def _tight_rows(slots, stride: int, den: int) -> tuple:
    """(rows, shape) of the numerators over `den` whose coefficient slots
    at inner stride `stride` are slots[0], slots[1], ...: rows[i][j] is
    the slot of outer slot i and inner slot j, cut to the least outer and
    inner slot counts that hold them."""
    bounds = [np.abs(dig).max() for dig in slots]
    used = [k for k, b in enumerate(bounds) if b] or [0]
    inner = max(k % stride for k in used) + 1
    outer = max(k // stride for k in used) + 1
    rows = [slots[i * stride:i * stride + inner] for i in range(outer)]
    return rows, _Shape(den, max(bounds), outer, inner)


def from_packed(basis: tuple, terminates: bool, num, width: int,
                stride: int, outer: int, den: int) -> "PSeriesMatrix":
    """The series whose numerators over `den` are num[k][row][col],
    packed at `width` and `stride` with `outer` outer slots: decoded once
    into its coefficient slots, cut to the least slot counts."""
    series = PSeriesMatrix.__new__(PSeriesMatrix)
    series._hold(basis, terminates, *_tight_rows(
        digits(num, width, outer * stride), stride, den))
    return series


def _zero_table(dim: int) -> list:
    return [[Poly() for _ in range(dim)] for _ in range(dim)]


class PSeriesMatrix:
    """Truncated power series of matrices with polynomial entries;
    tables[k][row][col] is the k-th coefficient.  `terminates` marks a
    series known to be a polynomial of the stored order.

    A series holds the coefficient slots of its entries' integer
    numerators over one denominator (see the module docstring); only the
    terms that `evaluate` packs hold packed ints, and only the operations
    read them.  `tables` and `get` are views unpacked to Fraction
    polynomials once per coefficient, on first read.  The views are for
    reading: the series operations read the numerators only, so an entry
    written into a view would be seen by readers of the view and by no
    series operation.  A changed series is built through the
    constructor."""

    def __init__(self, basis: tuple, tables: list, terminates: bool = False):
        d, coeffs = cleared(e for tab in tables for row in tab for e in row)
        levels = (len(tables), len(tables[0]), len(tables[0]))
        self._hold(basis, terminates, *_tight_rows(
            [dig.reshape(levels) for dig in coeffs.reshape(len(coeffs), -1).T],
            coeffs.shape[2], d))
        self._views.update(enumerate(tables))

    def _hold(self, basis, terminates, rows, shape):
        """The series of coefficient slots rows[i][j]: as an int array
        [k, row, col], the coefficients of outer slot i and inner slot j
        of the numerators over shape.den."""
        self._rows = rows
        self._views = {}
        self._set(basis, terminates, rows[0][0].shape, shape)

    @classmethod
    def _packed(cls, basis, terminates, num, width, stride,
                shape) -> "PSeriesMatrix":
        """A term of `evaluate`: num[k][row][col], the numerator over
        shape.den of the k-th coefficient packed at `width` bits per slot
        with inner stride `stride` (at least shape.inner)."""
        self = cls.__new__(cls)
        self._num, self._width, self._stride = num, width, stride
        self._set(basis, terminates, num.shape, shape)
        return self

    def _set(self, basis, terminates, size, shape):
        # size: that of the [k, row, col] arrays of coefficients
        self.basis, self.terminates = basis, terminates
        self.order, self.dim = size[0] - 1, size[1]
        self.shape = shape

    def slots(self) -> np.ndarray:
        """The coefficient slots as one int array
        [outer slot, inner slot, k, row, col] of numerators over
        shape.den."""
        return np.array(self._rows, dtype=object)

    @property
    def _outline(self) -> _Outline:
        return _Outline(self.shape, self.order, self.terminates, self.dim)

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
        rows = [[dig[k].tolist() for dig in row] for row in self._rows]

        def entry(r, c):
            if self.shape.inner == 1:
                return Poly(Fraction(row[0][r][c], d) for row in rows)
            return Poly(Poly(Fraction(dig[r][c], d) for dig in row)
                        for row in rows)

        return [[entry(r, c) for c in range(self.dim)]
                for r in range(self.dim)]

    def _at(self, order: int):
        """Numerators of coefficients 0..order; levels past the stored
        order of a terminating series are zero."""
        if order > self.order and not self.terminates:
            raise IndexError(
                f"coefficient {order} beyond truncation order {self.order}")
        num = self._num[:order + 1]
        if order > self.order:
            pad = np.zeros((order - self.order, self.dim, self.dim),
                           dtype=object)
            num = np.concatenate([num, pad])
        return num

    @property
    def _layout(self) -> tuple:
        """(width, stride) of a term of `evaluate`, which every operation
        reads first: a series outside `evaluate` holds no packed ints."""
        try:
            return self._width, self._stride
        except AttributeError:
            raise ValueError("series operations run only on the terms that "
                             "packed.evaluate packs") from None

    def _shared_layout(self, other: "PSeriesMatrix", shape: _Shape) -> tuple:
        """(width, stride) of an operation on this series and `other` with
        a result of the given shape: the layout both are packed at, which
        must hold the result."""
        width, stride = self._layout
        if self.basis != other.basis:
            raise ValueError("mismatched chain bases")
        if (width, stride) != other._layout:
            raise ValueError("operands packed at different layouts")
        if width < slot_width(shape.bound) or stride < shape.inner:
            raise ValueError("the operands' layout cannot hold the result")
        return width, stride

    def times_p(self) -> "PSeriesMatrix":
        """The series multiplied by the grading variable p."""
        width, stride = self._layout
        zero = np.zeros((1, self.dim, self.dim), dtype=object)
        return self._packed(self.basis, self.terminates,
                            np.concatenate([zero, self._num]), width,
                            stride, self.shape)

    def weighted(self, other: "PSeriesMatrix", a, b) -> "PSeriesMatrix":
        """Entrywise a*x + b*y of two series for scalar polynomials a and
        b, to the lower stored order, on packed numerators: a and b over
        their common denominator, x and y rescaled to the lcm of theirs."""
        shape, terms = _combination((self.shape, other.shape), (a, b))
        width, stride = self._shared_layout(other, shape)
        order = min(self.order, other.order)
        num = sum(x._at(order) * (pack_slots(row, width, stride) * scale)
                  for x, (row, scale) in zip((self, other), terms))
        return self._packed(self.basis, False, num, width, stride, shape)

    def mul(self, other: "PSeriesMatrix", order: int) -> "PSeriesMatrix":
        """Truncated product to the stated order: per output coefficient,
        a sum of object-array matmuls of the packed numerators, skipping
        the zero coefficients past a terminating factor's stored order;
        the denominator is the product of the factors'."""
        a, b = self._outline, other._outline
        term = a.mul(b, order)
        width, stride = self._shared_layout(other, term.shape)
        top_a, top_b = a.top(order), b.top(order)
        try:
            fa, fb = self._at(top_a), other._at(top_b)
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
        return self._packed(self.basis, term.terminates, np.stack(levels),
                            width, stride, term.shape)

    def residual(self, other: "PSeriesMatrix", order: int) -> float:
        """Largest coefficient magnitude of the difference to the stated
        order, exact.  Both numerators, rescaled to one denominator, are
        packed at one width that holds each of them, so they are equal
        exactly when their packed values are; otherwise the magnitude is
        read from their balanced digits."""
        shape = _common((self.shape, other.shape))
        width, stride = self._shared_layout(other, shape)
        return defect(self._at(order) * (shape.den // self.shape.den),
                      other._at(order) * (shape.den // other.shape.den),
                      width, shape.outer * stride, shape.den)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

# `Shift` and `Lead` are the terms `evaluate` keys its packed series by: as
# dataclasses, two of them are equal only if their classes are, where
# NamedTuples of equal fields would be
@dataclass(frozen=True)
class Shift:
    """The Taylor shift v -> v + c of every entry of a series: with
    c = u/w and D the outer degree, w^D p(v + c) has the integer
    coefficients sum_i C(i, k) u^(i-k) w^(D-i+k) p_i, a fixed matrix on
    the coefficient axis (`polyring.shift_matrix`); w^D joins the
    denominator.  The shift by 0 is
    the series itself."""

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
            den=shape.den * Fraction(self.c).denominator ** (shape.outer - 1),
            bound=shape.bound * growth)

    def apply(self, rows: list) -> list:
        """The slot rows of the shift from those of the series (see
        `PSeriesMatrix._hold`)."""
        if self.c == 0:
            return rows
        out = []
        for row in shift_matrix(self.c, self.x.shape.outer):
            terms = [[d if m == 1 else m * d for d in rows[i]]
                     for i, m in enumerate(row) if m]
            out.append([sum(col[1:], col[0]) for col in zip(*terms)])
        return out


@dataclass(frozen=True)
class Lead:
    """The entrywise coefficient of the s-th power of the (outer)
    variable of a series: the inner slots become the outer ones."""

    x: PSeriesMatrix
    s: int

    @property
    def shape(self) -> _Shape:
        return self.x.shape._replace(outer=self.x.shape.inner, inner=1)

    def apply(self, rows: list) -> list:
        if self.s < len(rows):
            return [[d] for d in rows[self.s]]
        return [[np.zeros_like(rows[0][0])]]


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


def evaluate(exprs, order: int) -> list:
    """The value of each expression: a series, or the float of a
    `Residual`.  A bare series stands for its shift by 0.

    The expressions run twice: first on the outlines of their terms (the
    `Shift`s and `Lead`s of input series, and the `Identity`s), which
    gives the shape of every term and result, then on the terms packed
    at the least layout that holds all those shapes.  Each term is packed
    once from its series' coefficient slots, so no operation repacks and
    no input series is decoded; a series-valued result is decoded once,
    as `from_packed` decodes a trace."""
    sources = {}

    def run(e, value, seen: list):
        # the value of e, with value(t) that of each term t; appends every
        # value it computes to `seen`
        match e:
            case PSeriesMatrix():
                return run(Shift(e, 0), value, seen)
            case TimesP(x):
                v = run(x, value, seen).times_p()
            case Product(x, y):
                v = run(x, value, seen).mul(run(y, value, seen), order)
            case Weighted(x, y, a, b):
                v = run(x, value, seen).weighted(run(y, value, seen), a, b)
            case Residual(x, y):
                v = run(x, value, seen).residual(run(y, value, seen), order)
            case _:
                v = value(e)
        seen.append(v)
        return v

    def outline(e) -> _Outline:
        if isinstance(e, Identity):
            return _Outline(_ONE, order, False, len(e.basis))
        sources.setdefault(e.x, {})[e] = None
        return _Outline(e.shape, e.x.order, e.x.terminates, e.x.dim)

    seen = []
    for e in exprs:
        run(e, outline, seen)
    width = slot_width(max(t.shape.bound for t in seen))
    stride = max(t.shape.inner for t in seen)
    terms = {}
    for x, source_terms in sources.items():
        rows = x._rows
        for e in source_terms:
            terms[e] = PSeriesMatrix._packed(
                x.basis, x.terminates, pack_slots(e.apply(rows), width, stride),
                width, stride, e.shape)

    def packed_term(e) -> PSeriesMatrix:
        if isinstance(e, Identity):
            eye = np.array([np.eye(len(e.basis), dtype=object)] * (order + 1))
            return PSeriesMatrix._packed(e.basis, False, eye, width, stride,
                                         _ONE)
        return terms[e]

    def decoded(v):
        if isinstance(v, PSeriesMatrix):
            return from_packed(v.basis, v.terminates, v._num, v._width,
                               v._stride, v.shape.outer, v.shape.den)
        return v

    return [decoded(run(e, packed_term, [])) for e in exprs]
