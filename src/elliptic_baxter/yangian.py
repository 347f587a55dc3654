"""Rational-level counterpart of the elliptic machinery, in exact
arithmetic: the degree-one solution R(z) = (z + P)/(z + 1) of the quantum
Yang-Baxter equation (P the flip), held once, cleared, as `_RTT_R`, and
certified by the exchange check of the spin-1 defining module (the
`rtt-finite` record, `rtt_residual`); three families of weight-graded
modules over the RTT algebra (finite spin chains, spin-parameter
ladders, and the oscillator module), transfer matrices as truncated
power series with polynomial entries, the Baxter operator obtained by
promoting the ladder spin to a polynomial variable, its degree and
triangularity structure, the TQ relation, the comparison against the
oscillator transfer matrix, and rational q-characters.  The exchange,
product, TQ and oscillator relations are each one `packed.evaluate`
expression."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iproduct

import numpy as np

from . import packed
from .dynamical import block_graded_trace, contraction_plan
from .packed import (
    Identity,
    Lead,
    Product,
    PSeriesMatrix,
    Residual,
    Shift,
    TimesP,
    Weighted,
)
from .polyring import (
    Poly,
    RatFn,
    as_poly,
    exact_residual,
    is_zero,
    poly_rem,
    shift_matrix,
)

SPIN_VARIABLE = Poly.variable()
# extra sample levels that verify the degree of the level trace in q_exact_at_p
_DEGREE_MARGIN = 2


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

    @cached_property
    def entry_cells(self) -> tuple:
        """(labels, cells, den, coeffs) of the entry operators, built on
        first use: the labels in weight order; per nonzero entry (cell),
        the int row (key, row, col) of `cells`, with key 2a + b - 3 of
        T_ab and row and col positions in `labels` (T_ab e_lab = ... +
        p e_lab2 is entry (lab2, lab)); and coeffs[cell, j, s], the int
        coefficient of z^j spin^s of its entry times den, the entries' one
        denominator (`packed.cleared`)."""
        labels = tuple(sorted(self.basis, key=self.weight.__getitem__))
        pos = {lab: n for n, lab in enumerate(labels)}
        found = [((2 * a + b - 3, pos[lab2], pos[lab]), p)
                 for (a, b), table in self.act.items()
                 for lab, rows in table.items() for lab2, p in rows]
        den, coeffs = packed.cleared(p for _, p in found)
        return labels, np.array([cell for cell, _ in found]), den, coeffs

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


# the twin's one R-matrix: R(z - w) with its denominator (z - w + 1)
# multiplied through, i.e. (z - w) + P; column (a, b) maps to rows (c, d)
# with entries given as terms (coefficient, power of z, power of w)
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

    This is also the twin's Yang-Baxter certificate: the spin-1 defining
    module has entries T_ab(z)_cd = (z + 1) R(z)_(a,c),(b,d), so its
    relation is R12(z - w) R13(z) R23(w) = R23(w) R13(z) R12(z - w)
    cleared of (z - w + 1)(z + 1)(w + 1), checked as a polynomial
    identity in z and w.

    One `packed.evaluate` relation on the states (a, b, m), a and b the
    indices of the two auxiliary slots and m a label: (T1)(a,c,m),(b,c,n)
    = T_ab(z)_mn, T2 the same on the second slot in w, and R from
    `_RTT_R`, with z the outer variable, w the inner one and the spin of
    a symbolic-spin module on the series axis.  An entry has spin degree
    below `inner`, the spin slots of `YangianModule.entry_cells`, so a
    product to order 2 (inner - 1) truncates nothing.  The factor applied
    first on each side has its truncation-unsafe columns zeroed; the
    entries are cleared over one denominator d, so the sides are over
    d^2."""
    labels, cells, d, coeffs = X.entry_cells
    n, (_, outer, inner) = len(labels), coeffs.shape
    safe = np.array([X.exact or X.weight[lab] <= X.levels - 2 for lab in labels] * 4)
    if not safe.any():
        raise ValueError("module too shallow for the exchange check")
    dtype = packed.int_dtype(np.abs(coeffs).max(initial=0))
    # the entry operators [z power, spin power, a, m, b, n] of T_ab
    ops = np.zeros((4, n, n, outer, inner), dtype)
    np.add.at(ops, tuple(cells.T), coeffs)
    ops = ops.reshape(2, 2, n, n, outer, inner).transpose(4, 5, 0, 2, 1, 3)
    # slots [z power, w power, k, (a, b, m), (c, e, n)] of T1, T2 and R
    t1 = np.zeros((outer, 1, inner) + (2, 2, n) * 2, dtype)
    t2 = np.zeros((1, outer, inner) + (2, 2, n) * 2, dtype)
    r = np.zeros((2, 2, 1) + (2, 2, n) * 2, np.int64)
    for c in range(2):
        t1[:, 0, :, :, c, :, :, c] = ops
        t2[0, :, :, c, :, :, c] = ops
    eye = np.eye(n, dtype=int)
    for (a, b), col in _RTT_R.items():
        for (c, e), terms in col.items():
            for coeff, i, j in terms:
                r[i, j, 0, c - 1, e - 1, :, a - 1, b - 1] += coeff * eye
    basis, size = tuple(range(4 * n)), (4 * n,) * 2
    t1, t2, r = (x.reshape(x.shape[:3] + size) for x in (t1, t2, r))
    series = [packed.from_slots(basis, True, x, den)
              for x, den in ((t1, d), (t2, d), (r, 1))]
    # the factors applied first on each side, their unsafe columns zeroed
    series += (series[1:] if safe.all() else
               [packed.from_slots(basis, True, x * safe, den)
                for x, den in ((t2, d), (r, 1))])
    t1, t2, r, t2s, rs = series
    return packed.evaluate([Residual(Product(r, Product(t1, t2s)),
                                     Product(t2, Product(t1, rs)))], 2 * (inner - 1))[0]


# ---------------------------------------------------------------------------
# Chain space and transfer matrices
# ---------------------------------------------------------------------------

def chain_basis(L: int) -> range:
    """Index strings over {1, 2} as int codes, bit l set when position l
    holds 2, in ascending order: the last differing position decides (1
    before 2), and the level-zero part of the Baxter operator is upper
    triangular in this order."""
    return range(2 ** L)


def sector_basis(L: int, s: int) -> tuple:
    """The strings of `chain_basis(L)` with s indices equal to 1 (s zero
    bits), in that order: the basis of the weight sector s."""
    return tuple(c for c in chain_basis(L) if c.bit_count() == L - s)


@lru_cache(maxsize=8)
def _sector_pairs(L: int) -> tuple:
    """(bases, plan, sector) of the trace of an L-site chain: the
    `sector_basis` of every sector, the `contraction_plan` of the
    same-sector string pairs (rows in `chain_basis(L)` order) and the
    sector of each pair, read-only."""
    bases = tuple(sector_basis(L, s) for s in range(L + 1))
    row_sector = [L - i.bit_count() for i in chain_basis(L)]
    counts = [len(bases[s]) for s in row_sector]
    cols = np.concatenate([bases[s] for s in row_sector])
    sector = np.repeat(row_sector, counts)
    sector.flags.writeable = False
    return bases, contraction_plan(np.repeat(chain_basis(L), counts), cols, L), sector


def yangian_transfer(X: YangianModule, sites,
                     order: int) -> list[PSeriesMatrix]:
    """Level-graded trace over the auxiliary module of the site-ordered
    product of its entry operators, acting on the index-string basis,
    with each site's entries shifted by the site.  Entries linking
    strings with different index counts vanish by the weight grading, so
    the result is one series per sector s = 0..L, on
    `sector_basis(L, s)`."""
    return _graded_trace(X, sites, order, bound=False)


def yangian_q(sites, order: int) -> list[PSeriesMatrix]:
    """Baxter operator: ladder transfer matrix with the spin promoted to
    a polynomial variable and the spectral variable bound to zero, one
    series per sector; the entries are polynomials in that spin
    variable.  Evaluation at zero is a ring homomorphism, so each site's
    entries are evaluated at the site before the contraction."""
    L = len(sites)
    W = build_module("ladder", spin=SPIN_VARIABLE, levels=order + L)
    return _graded_trace(W, sites, order, bound=True)


def _site_values(X: YangianModule, a, bound: bool) -> tuple:
    """(d, nums) of the entries of X at the site a: nums[cell, i, j], the
    int coefficient of the i-th power of the outer variable and the j-th
    of the inner one over the least common denominator d, cut to the
    least slot counts that hold them.  The value of an entry p is
    p(z + a), z outer and the spin inner: the Taylor shift of
    `polyring.shift_matrix` on the z axis of `entry_cells`' coefficients.
    With `bound` it is p(a), the shift's constant term, with the spin
    outer."""
    _, _, den, coeffs = X.entry_cells
    n = coeffs.shape[1]
    shift = np.array(shift_matrix(a, n), dtype=object)
    nums = (shift[:1] @ coeffs).transpose(0, 2, 1) if bound else shift @ coeffs
    # the shift clears w^(n - 1) of a = u/w; each value's reduced
    # denominator divides the full one, so d is it over the common gcd
    full = den * Fraction(a).denominator ** (n - 1)
    g = math.gcd(full, *nums.flat)
    used = nums != 0
    outer, inner = (max(np.flatnonzero(used.any(axis=axes)), default=0) + 1
                    for axes in ((0, 2), (0, 1)))
    return full // g, nums[:, :outer, :inner] // g


def _graded_trace(X: YangianModule, sites, order: int,
                  bound: bool) -> list[PSeriesMatrix]:
    """The trace of `yangian_transfer`, or with `bound` of `yangian_q`,
    each entry valued at its site by `_site_values`.

    `dynamical.block_graded_trace` over the same-sector string pairs, on
    the level blocks of int coefficient polynomials: each site's entries
    are cleared over one denominator, and the slot (i, j) of an entry is
    coefficient i * stride + j of one axis that holds the outer and inner
    degrees of a product of one entry per site.  Each output coefficient
    is a sum of level-dimension many diagonal entries of the site
    product, so its magnitude, and that of every partial sum of the
    contraction, is at most the largest level dimension times the
    product over sites of the largest row sum of the entries'
    coefficient l1 norms (the l1 norm is submultiplicative): the
    contraction runs in int64 when that bound fits it, else on Python
    ints.  Each sector's coefficients are then its slots."""
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
    bases, plan, sector = _sector_pairs(L)
    labels, cells, _, _ = X.entry_cells
    # levels past the module's top (a finite module) trace to zero
    top = min(order, X.weight[labels[-1]])
    # the offsets of all the module's levels: a prefix of the contraction
    # passes through levels above the traced ones
    levels = [sum(X.weight[lab] < k for lab in labels)
              for k in range(X.weight[labels[-1]] + 2)]
    n = len(labels)
    key, row, col = cells.T
    dens, nums = zip(*(_site_values(X, a, bound) for a in sites))
    row_l1 = []
    for site in nums:
        sums = np.zeros(4 * n, dtype=object)
        np.add.at(sums, key * n + row, np.abs(site).sum(axis=(1, 2)))
        row_l1.append(sums.max())
    # the bound of every partial sum of the contraction
    largest = int(max(np.diff(levels[:top + 2]))) * math.prod(row_l1)
    # the outer and inner slots of a product of one entry per site; the
    # inner count is the stride of the outer
    stride = sum(site.shape[2] for site in nums) - L + 1
    outer = sum(site.shape[1] for site in nums) - L + 1
    values = np.zeros((L, len(cells), outer, stride), packed.int_dtype(largest))
    for v, site in zip(values, nums):
        v[:, :site.shape[1], :site.shape[2]] = site
    nonzeros = (key * n + row) * n + col
    # the exact entries do not depend on the shift: each grid point reads
    # its site's row
    traces = np.zeros((len(sector), order + 1, outer * stride), dtype=values.dtype)
    traces[:, :top + 1] = block_graded_trace(values.reshape(L, len(cells), -1), nonzeros,
                                             levels, plan, top + 1, plan[0][None, :, 0])[0]
    denom = math.prod(dens)
    return [packed.from_slots(basis, X.exact, traces[sector == s].reshape(
        len(basis), len(basis), order + 1, outer, stride).transpose(3, 4, 2, 0, 1), denom)
        for s, basis in enumerate(bases)]


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
    here at n = order when not given.  Everything is read from Q's
    coefficient slots [spin power, inner slot, level, row, col]."""
    if q is None:
        q = yangian_q(sites, order)
    out = []
    for s, qs in enumerate(q):
        if order > qs.order:
            raise IndexError(
                f"coefficient {order} beyond truncation order {qs.order}")
        slots = qs.slots()[:, :, :order + 1]
        used = np.flatnonzero((slots != 0).any(axis=(1, 2, 3, 4)))
        deg = int(used[-1]) if len(used) else -1
        p0 = slots[:, :, 0]
        diag = np.diagonal(p0, axis1=2, axis2=3)
        # the expected diagonal entry of a string, the product over the
        # sites a = u/w of a + spin at an index 1 and a at an index 2,
        # times the product of the w: int coefficients [spin power, string]
        want = np.zeros((max(len(diag), s + 1), qs.dim), dtype=object)
        want[0] = 1
        for l, a in enumerate(map(Fraction, sites)):
            up = np.zeros_like(want)
            up[1:] = want[:-1] * np.array(
                [a.denominator * (code >> l & 1 == 0) for code in qs.basis],
                dtype=object)
            want = want * a.numerator + up
        got = np.zeros_like(want)
        got[:len(diag)] = diag[:, 0]
        scale = math.prod(Fraction(a).denominator for a in sites)
        out.append(SectorDegreeData(
            sector=s,
            degree=deg,
            degree_matches=(deg == s),
            leading_nonzero=bool(s < len(diag)
                                 and diag[s].any(axis=0).all()),
            p0_upper_triangular=not np.tril((p0 != 0).any(axis=(0, 1)),
                                            -1).any(),
            p0_diagonal_matches=bool(
                not diag[:, 1:].any()
                and (got * scale == want * qs.shape.den).all()),
        ))
    return out


def two_site_leading_residual(a1, a2, order: int,
                              q: list[PSeriesMatrix] | None = None) -> float:
    """The top spin coefficient of the one-index sector of Q, one matrix
    per series order, against the closed form: on the basis (21, 12),
    level k is [[a1 + k, k + 1], [k, a2 + k]].  `q` is
    `yangian_q((a1, a2), order)`, built here when not given."""
    if q is None:
        q = yangian_q((a1, a2), order)
    ref = PSeriesMatrix(q[1].basis, [[[a1 + k, k + 1], [k, a2 + k]]
                                     for k in range(order + 1)])
    return max(packed.evaluate([Residual(Lead(q[1], 1), ref)], order))


# ---------------------------------------------------------------------------
# Functional relations
# ---------------------------------------------------------------------------

def tq_residual(sites, order: int, drop_second_term: bool = False,
                q: list[PSeriesMatrix] | None = None) -> float:
    """Exact defect of (two-dim transfer) x Q against the two shifted-Q
    terms weighted by the site products, T Q = w0 Q(v + 1) + w1 p Q(v - 1),
    the largest over the sectors; `drop_second_term` removes the
    series-graded term as a negative control.  `q` is
    `yangian_q(sites, order)`, built here when not given."""
    t1 = yangian_transfer(build_module("finite", spin=1), sites,
                          min(order, 1))
    w0, w1 = (math.prod((Poly((a + c, 1)) for a in sites), start=Poly((1,)))
              for c in (0, 1))
    if drop_second_term:
        w1 = 0
    if q is None:
        q = yangian_q(sites, order)
    return max(max(packed.evaluate([Residual(
        Product(ts, qs),
        Weighted(Shift(qs, 1), TimesP(Shift(qs, -1)), w0, w1))], order))
        for ts, qs in zip(t1, q))


def product_residual(X: YangianModule, Y: YangianModule, sites,
                     order: int) -> float:
    """Transfer matrix of the coproduct module against the product of the
    factors' transfer matrices, exact to the stated order, the largest
    over the sectors."""
    return max(max(packed.evaluate([Residual(Product(tx, ty), txy)], order))
               for tx, ty, txy in zip(
                   yangian_transfer(X, sites, order),
                   yangian_transfer(Y, sites, order),
                   yangian_transfer(tensor_module(X, Y), sites, order)))


def oscillator_comparison(sites, order: int,
                          q: list[PSeriesMatrix] | None = None) -> float:
    """Per sector, the Baxter operator against (1 - p) x (its leading
    spin coefficient) x (oscillator transfer matrix); also checks that
    the oscillator leading spin coefficient is the identity at every
    series order.  Returns the largest exact defect.  `q` is
    `yangian_q(sites, order)`, built here when not given."""
    L = len(sites)
    tb = yangian_transfer(
        build_module("oscillator", levels=order + L), sites, order
    )
    if q is None:
        q = yangian_q(sites, order)
    return max(max(packed.evaluate([
        Residual(Lead(ts, s), Identity(ts.basis)),
        Residual(qs, Product(Weighted(Lead(qs, s), TimesP(Lead(qs, s)), 1, -1),
                             ts))], order))
        for s, (qs, ts) in enumerate(zip(q, tb)))


# ---------------------------------------------------------------------------
# Exact series summation at a rational grading point
# ---------------------------------------------------------------------------

def q_exact_at_p(sites, p: Fraction) -> list:
    """Baxter operator with the series summed exactly at a rational
    grading point, one matrix of polynomials in the spin variable per
    sector.  Each entry's level trace f is a polynomial of degree at most
    the site count L in the level index, so by Newton's forward
    differences its level sum is sum_{m <= L} (D^m f)(0) p^m / (1-p)^(m+1);
    the differences of orders L+1 and L+2, which the extra levels L+1 and
    L+2 give, must vanish, which verifies the degree.  The differences
    are taken on Q's int coefficient slots."""
    if p == 1:
        raise ZeroDivisionError("level sums diverge at p = 1")
    L = len(sites)
    a, b = Fraction(p).as_integer_ratio()
    # p^m / (1-p)^(m+1) = a^m b (b-a)^(L-m) / (b-a)^(L+1)
    weights = [a ** m * b * (b - a) ** (L - m) for m in range(L + 1)]
    out = []
    for qs in yangian_q(sites, L + _DEGREE_MARGIN):
        # [spin power, level, row, col]: Q's entries have one inner slot
        f = qs.slots()[:, 0]
        heads = []
        for _ in range(L + 1 + _DEGREE_MARGIN):
            heads.append(f[:, 0])
            f = np.diff(f, axis=1)
        if any(h.any() for h in heads[L + 1:]):
            raise ValueError(
                "level trace is not polynomial of the expected degree"
            )
        total = sum(w * h for w, h in zip(weights, heads))
        den = qs.shape.den * (b - a) ** (L + 1)
        out.append([[Poly(Fraction(v, den) for v in total[:, r, c])
                     for c in range(qs.dim)] for r in range(qs.dim)])
    return out


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


def _ladder_roots(spin, u, i: int, one=1) -> tuple:
    """The level-i character pair of a spectrally shifted ladder as
    quotients of monic linear factors z + r: for each component, the r of
    its numerator and of its denominator factors.  With `one` = s, spin, u
    and i are those of the ladder times s, and so are the roots."""
    return ((u + spin, u - one), (u + i - one,)), ((u + i,), ())


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


def _factor_multisets(terms, one: int) -> tuple:
    """Both components of the product of the ladder character pairs of
    `terms`, (spin, u, i) int triples of ladders scaled by `one`
    (`_ladder_roots`), as reduced factor multisets: each int root r of a
    factor z + r/one with its numerator count minus its denominator
    count, zero counts dropped.  By unique factorization two such
    products are equal as rational functions exactly when their
    multisets are."""
    out = []
    for comp in zip(*(_ladder_roots(*t, one) for t in terms)):
        count = {}
        for num, den in comp:
            for roots, sign in ((num, 1), (den, -1)):
                for r in roots:
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
    combinations of 1, l, u and `rhs_shift`, so the lcm s of their
    denominators scales them to ints, and the ladders are compared scaled
    by s."""
    s = math.lcm(*(Fraction(v).denominator for v in (l, u, rhs_shift)))
    l, u, shift = (int(v * s) for v in (l, u, rhs_shift))
    bad = 0
    for k in range(depth + 1):
        lhs = Counter(_factor_multisets(((l, 0, i * s), (0, u, (k - i) * s)), s)
                      for i in range(k + 1))
        rhs = Counter(_factor_multisets(((l - u, u + shift, i * s),
                                         (u, 0, (k - i) * s)), s)
                      for i in range(k + 1))
        bad += lhs != rhs
    return bad
