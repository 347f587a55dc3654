"""Jacobi theta function, lattice utilities and symbolic theta expressions.

The odd Jacobi theta function used throughout is

    theta(z) = - sum_j exp(i*pi*(j+1/2)^2*tau + 2*i*pi*(j+1/2)*(z+1/2)),

an entire function with simple zeros exactly on Z + Z*tau and

    theta(z+1)   = -theta(z)
    theta(z+tau) = -exp(-i*pi*tau - 2*i*pi*z) * theta(z)
    theta(-z)    = -theta(z)

``ThetaExpression`` is the closed multiplicative class used for all
L-operator entries: a scalar times an exponential prefactor times a finite
product of theta factors ``theta(cz*z + cx*x + shift)**power``.  Shifting
``z`` or ``x`` by a constant stays inside the class, which is what makes
the difference-operator calculus exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import count
from operator import itemgetter

import numpy as np

_TWO_PI_I = 2j * math.pi
_MAX_J = 64
# the series stops once its next pair of terms is below this share of the partial sum
_SERIES_EPS = 1e-14
# a negative-power theta factor this close to Z + Z*tau raises PoleError
POLE_TOL = 1e-12
# a SamplePlan gives up after this many rejected draws
_MAX_REJECTIONS = 2000
# the OverflowError of a batch with a non-finite or unconverged theta value
_NOT_FINITE = "theta series is not finite or does not converge at some argument"
# distance threshold of every lattice-membership test
LATTICE_TOL = 1e-9
# integer window of the genericity scan and of every hbar-lattice test
SEARCH_RADIUS = 6
# every (m, n, k) of the genericity window, in the loop order m, n, k
_WINDOW = np.mgrid[(slice(-SEARCH_RADIUS, SEARCH_RADIUS + 1),) * 3].reshape(3, -1)
_WINDOW.flags.writeable = False


class ParameterError(ValueError):
    """Invalid modular or Planck data (e.g. Im(tau) <= 0)."""


class PoleError(ArithmeticError):
    """A theta factor with negative power was evaluated on its zero lattice."""


class GenericityError(ParameterError):
    """Z + Z*tau and hbar*Z intersect away from 0 inside the scan window."""


class SamplingError(RuntimeError):
    """A SamplePlan rejected more than ``_MAX_REJECTIONS`` draws."""


@dataclass(frozen=True)
class EllipticParams:
    """Global modular parameter tau and Planck constant hbar."""

    tau: complex
    hbar: complex

    def __post_init__(self) -> None:
        if self.tau.imag <= 0:
            raise ParameterError(f"Im(tau) must be positive, got tau={self.tau}")
        if self.hbar == 0:
            raise ParameterError("hbar must be nonzero")
        m, n, k = _WINDOW
        hit = np.abs(m + n * self.tau - k * self.hbar) < LATTICE_TOL
        hit[m.size // 2] = False  # (0, 0, 0)
        if hit.any():
            i = hit.argmax()
            raise GenericityError(
                f"lattice collision m={m[i]}, n={n[i]}, k={k[i]} for "
                f"tau={self.tau}, hbar={self.hbar}"
            )


def theta_eval(z: complex, params: EllipticParams) -> complex:
    """Evaluate theta(z) by its defining series.

    Terms are added in pairs (j, -1-j) of equal Gaussian decay; summation
    stops once the next pair is below ``_SERIES_EPS`` times the partial
    sum.  A series that has not met that rule by |j| = 64 (as at
    tau = 0.05i, z = 0.1 + 3i) raises OverflowError: its partial sum is not
    theta(z).
    """
    tau = params.tau
    if tau.imag <= 0:
        raise ParameterError(f"Im(tau) must be positive, got tau={tau}")
    s = 0j
    for j in range(_MAX_J + 1):
        half = j + 0.5
        t1 = cmath.exp(1j * math.pi * half * half * tau + _TWO_PI_I * half * (z + 0.5))
        # mirror term j' = -1-j has (j'+1/2) = -half
        t2 = cmath.exp(1j * math.pi * half * half * tau - _TWO_PI_I * half * (z + 0.5))
        s += t1 + t2
        # conservative magnitude of the next pair
        nxt = half + 1.0
        zi = complex(z).imag
        bound = 2.0 * math.exp(-math.pi * tau.imag * nxt * nxt + 2.0 * math.pi * nxt * abs(zi))
        if bound <= _SERIES_EPS * abs(s):
            break
    else:
        raise OverflowError(f"theta series did not converge at z={z}")
    return -s


def theta_eval_array(z, params: EllipticParams) -> np.ndarray:
    """Evaluate theta elementwise over an array of arguments.

    The series and the stopping rule are those of ``theta_eval``, applied
    per element: an element stops taking pairs once its next pair is below
    ``_SERIES_EPS`` times its own partial sum.  The series is summed at z - m with
    m the nearest integer to Re(z), which is exact, and the sign of
    theta(z + m) = (-1)^m theta(z) restored: the phases of the terms stay
    small, and with them the rounding of each term.  A non-finite value
    raises OverflowError, as ``theta_eval`` does, instead of returning inf
    or NaN, and so does an element whose series does not converge.
    """
    vals = _theta_series(z, params)
    if not np.isfinite(vals).all():
        raise OverflowError(_NOT_FINITE)
    return vals


def _theta_series(z, params: EllipticParams) -> np.ndarray:
    """``theta_eval_array`` without the finiteness check: an element whose
    series overflows comes back inf or NaN, one whose series has not met
    the stopping rule by |j| = 64 NaN.

    ``theta_eval``'s loop, run over the elements still summing: each pass
    adds pair j to every live element and retires those whose next pair
    meets the stopping rule.  An element's value does not depend on the
    batch it is in, and agrees with ``theta_eval`` within 1e-13.
    """
    tau = params.tau
    if tau.imag <= 0:
        raise ParameterError(f"Im(tau) must be positive, got tau={tau}")
    z = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.round(z.real).ravel()
        zp = z.ravel() - m + 0.5
        zi = np.abs(z.ravel().imag)
        out = np.full(zp.shape, np.nan, dtype=complex)
        live = np.arange(zp.size)
        s = np.zeros_like(zp)
        for j in range(_MAX_J + 1):
            if not live.size:
                break
            half = j + 0.5
            quad = 1j * math.pi * half * half * tau
            lin = (_TWO_PI_I * half) * zp
            s += np.exp(quad + lin) + np.exp(quad - lin)
            nxt = half + 1.0
            bound = 2.0 * np.exp(-math.pi * tau.imag * nxt * nxt + 2.0 * math.pi * nxt * zi)
            done = bound <= _SERIES_EPS * np.abs(s)
            if done.any():
                out[live[done]] = s[done]
                keep = ~done
                live, zp, zi, s = live[keep], zp[keep], zi[keep], s[keep]
        return np.where(m % 2, out, -out).reshape(z.shape)


def lattice_reduce(c: complex, params: EllipticParams) -> tuple[complex, int, int]:
    """Write c = c0 + m + n*tau with Re(c0) in [0,1) and Im(c0) in [0, Im tau)."""
    c = complex(c)
    n = math.floor(c.imag / params.tau.imag)
    c1 = c - n * params.tau
    m = math.floor(c1.real)
    return c1 - m, m, n


def lattice_distance(c: complex, params: EllipticParams) -> float:
    """Distance from c to the nearest point of Z + Z*tau."""
    c0, _, _ = lattice_reduce(c, params)
    tau = params.tau
    return min(abs(c0), abs(c0 - 1), abs(c0 - tau), abs(c0 - 1 - tau))


def lattice_distance_array(c, params: EllipticParams) -> np.ndarray:
    """Elementwise ``lattice_distance`` over an array of arguments."""
    c = np.asarray(c, dtype=complex)
    tau = params.tau
    c1 = c - np.floor(c.imag / tau.imag) * tau
    c0 = c1 - np.floor(c1.real)
    c0_1 = c0 - 1
    return np.minimum(np.minimum(np.abs(c0), np.abs(c0_1)),
                      np.minimum(np.abs(c0 - tau), np.abs(c0_1 - tau)))


def in_lattice(c: complex, params: EllipticParams) -> bool:
    return lattice_distance(c, params) < LATTICE_TOL


def in_hbar_inv_lattice(c: complex, params: EllipticParams) -> bool:
    """Test c in hbar^{-1} (Z + Z*tau), i.e. c*hbar on the period lattice."""
    return in_lattice(c * params.hbar, params)


def int_plus_hbar_inv_lattice(c: complex, lowest: int, params: EllipticParams) -> int | None:
    """Return l in lowest..SEARCH_RADIUS with c in l + hbar^{-1}(Z+Z*tau),
    or None.

    Under the standing genericity assumption the representative is
    unique in the scan window when it exists.
    """
    for l in range(lowest, SEARCH_RADIUS + 1):
        if in_hbar_inv_lattice(c - l, params):
            return l
    return None


@dataclass(frozen=True)
class ThetaFactor:
    cz: int
    cx: int
    shift: complex
    power: int

    def argument(self, z: complex, x: complex) -> complex:
        return self.cz * z + self.cx * x + self.shift

    @cached_property
    def key(self) -> tuple:
        """The factor's ``_merge_key``, rounded once per factor."""
        return _merge_key(self.cz, self.cx, self.shift)


def _merge_key(cz: int, cx: int, shift: complex) -> tuple:
    return (cz, cx, round(shift.real, 12), round(shift.imag, 12))


# two factors of one kind whose shifts p, q are at least MERGE_GAP * (1 +
# |p| + |q|) apart never share a ``_merge_key``, which rounds each part to
# 12 decimals
MERGE_GAP = 1e-11


def merged_factors(factors) -> tuple:
    """The theta factors (cz, cx, shift, power) of ``factors`` merged in
    one pass, the rule of ``ThetaExpression.product``: a factor adds its
    power to the first one of its ``_merge_key``, a merged power that
    reaches 0 drops the factor, and a later factor of that key starts
    again at the end.  Shifts come back complex."""
    merged: dict[tuple, list] = {}
    for cz, cx, shift, power in factors:
        if cz not in (-1, 0, 1) or cx not in (-1, 0, 1):
            raise ValueError("theta factor coefficients must lie in {-1,0,1}")
        shift = complex(shift)
        key = _merge_key(cz, cx, shift)
        entry = merged.get(key)
        if entry is None:
            entry = merged[key] = [cz, cx, shift, 0]
        entry[3] += power
        if not entry[3]:
            del merged[key]
    return tuple(map(tuple, merged.values()))


@dataclass(frozen=True)
class ThetaExpression:
    """scalar * exp(exp_z*z + exp_x*x) * prod theta(cz*z + cx*x + shift)^power."""

    scalar: complex = 1.0 + 0j
    exp_z: complex = 0j
    exp_x: complex = 0j
    factors: tuple[ThetaFactor, ...] = ()

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(c: complex) -> "ThetaExpression":
        return ThetaExpression(scalar=complex(c))

    @staticmethod
    def theta(cz: int, cx: int, shift: complex, power: int = 1) -> "ThetaExpression":
        return ThetaExpression.product(((cz, cx, shift, power),))

    @staticmethod
    def product(factors) -> "ThetaExpression":
        """The product of theta(cz*z + cx*x + shift)**power over the
        (cz, cx, shift, power) of ``factors``, merged by ``merged_factors``
        into the expression that the chain ``theta(f_1) * theta(f_2) * ...``
        of ``*`` gives, factor order and shifts included."""
        return ThetaExpression(factors=tuple(ThetaFactor(*f) for f in merged_factors(factors)))

    # -- ring operations ----------------------------------------------
    def __mul__(self, other: "ThetaExpression | complex") -> "ThetaExpression":
        if not isinstance(other, ThetaExpression):
            return ThetaExpression(self.scalar * complex(other), self.exp_z, self.exp_x, self.factors)
        merged: dict[tuple, list] = {}
        for f in self.factors + other.factors:
            k = f.key
            if k in merged:
                merged[k][1] += f.power
            else:
                merged[k] = [f, f.power]
        # an unmerged factor is kept as it is, with its key
        factors = tuple(
            f if p == f.power else ThetaFactor(f.cz, f.cx, f.shift, p)
            for f, p in merged.values() if p != 0
        )
        return ThetaExpression(
            self.scalar * other.scalar,
            self.exp_z + other.exp_z,
            self.exp_x + other.exp_x,
            factors,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "ThetaExpression":
        return self * (-1.0)

    def inv(self) -> "ThetaExpression":
        if self.scalar == 0:
            raise ZeroDivisionError("zero scalar in ThetaExpression.inv")
        return ThetaExpression(
            1.0 / self.scalar,
            -self.exp_z,
            -self.exp_x,
            tuple(ThetaFactor(f.cz, f.cx, f.shift, -f.power) for f in self.factors),
        )

    def __truediv__(self, other: "ThetaExpression") -> "ThetaExpression":
        return self * other.inv()

    # -- shifts --------------------------------------------------------
    def shift_x(self, c: complex) -> "ThetaExpression":
        """Substitute x -> x + c (exact)."""
        c = complex(c)
        if c == 0:
            return self
        factors = tuple(
            ThetaFactor(f.cz, f.cx, f.shift + f.cx * c, f.power) for f in self.factors
        )
        return ThetaExpression(
            self.scalar * cmath.exp(self.exp_x * c), self.exp_z, self.exp_x, factors
        )

    # -- evaluation -----------------------------------------------------
    def eval(self, z: complex, x: complex, params: EllipticParams) -> complex:
        val = self.scalar * cmath.exp(self.exp_z * z + self.exp_x * x)
        for f in self.factors:
            arg = f.argument(z, x)
            tv = theta_eval(arg, params)
            if f.power < 0 and lattice_distance(arg, params) < POLE_TOL:
                raise PoleError(f"theta factor {f} evaluated at lattice point {arg}")
            val *= tv ** f.power
        return val

    def is_x_free(self) -> bool:
        return self.exp_x == 0 and all(f.cx == 0 for f in self.factors)

    # -- canonical form --------------------------------------------------
    def canonical(self) -> "ThetaExpression":
        """Orient factors by oddness and reduce shifts modulo 1."""
        scalar = self.scalar
        out: dict[tuple, list] = {}
        for f in self.factors:
            cz, cx, shift, power = f.cz, f.cx, f.shift, f.power
            if cz < 0 or (cz == 0 and cx < 0):
                cz, cx, shift = -cz, -cx, -shift
                scalar *= (-1.0) ** power
            m = math.floor(shift.real)
            if m != 0:
                shift = shift - m
                scalar *= (-1.0) ** (m * power)
            k = _merge_key(cz, cx, shift)
            if k in out:
                out[k][1] += power
            else:
                out[k] = [ThetaFactor(cz, cx, shift, power), power]
        factors = tuple(
            sorted(
                (ThetaFactor(f.cz, f.cx, f.shift, p) for f, p in out.values() if p != 0),
                key=lambda f: (f.cz, f.cx, round(f.shift.real, 12), round(f.shift.imag, 12), f.power),
            )
        )
        return ThetaExpression(scalar, self.exp_z, self.exp_x, factors)


# ---------------------------------------------------------------------------
# ThetaSum: finite sums of ThetaExpressions (the entry ring of operators)
# ---------------------------------------------------------------------------

class ThetaSum:
    """A finite sum of ThetaExpression terms; the ring entries live in."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        if isinstance(terms, ThetaExpression):
            terms = (terms,)
        self.terms: tuple[ThetaExpression, ...] = tuple(terms)

    @staticmethod
    def zero() -> "ThetaSum":
        return ThetaSum(())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "ThetaSum") -> "ThetaSum":
        return ThetaSum(self.terms + other.terms)

    def __neg__(self) -> "ThetaSum":
        return ThetaSum(tuple(-t for t in self.terms))

    def __sub__(self, other: "ThetaSum") -> "ThetaSum":
        return self + (-other)

    def __mul__(self, other: "ThetaSum | ThetaExpression | complex") -> "ThetaSum":
        if isinstance(other, ThetaSum):
            return ThetaSum(tuple(a * b for a in self.terms for b in other.terms))
        return ThetaSum(tuple(t * other for t in self.terms))

    __rmul__ = __mul__

    def shift_x(self, c: complex) -> "ThetaSum":
        return ThetaSum(tuple(t.shift_x(c) for t in self.terms))

    def eval(self, z: complex, x: complex, params: EllipticParams) -> complex:
        return sum((t.eval(z, x, params) for t in self.terms), 0j)

    def inv(self) -> "ThetaSum":
        if len(self.terms) != 1:
            raise ValueError("only single-term ThetaSums are invertible exactly")
        return ThetaSum((self.terms[0].inv(),))

    def __repr__(self) -> str:
        return f"ThetaSum({len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# ThetaTable: many sums of flat terms at many points from one theta series pass
# ---------------------------------------------------------------------------

def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of each row of the 2-D array ``a`` under ``==``
    (exact equality): all of them, sorted within each row, row after row;
    their count per row; and, in the shape of ``a``, the position of each
    item's value in that list."""
    order = np.argsort(a, axis=1)
    order += a.shape[1] * np.arange(len(a))[:, None]
    ranked = a.take(order)
    first = np.ones(a.shape, dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=first[:, 1:])
    number = np.empty(a.shape, dtype=int)
    number.put(order, first.cumsum() - 1)
    return ranked[first], first.sum(axis=1), number


# odd 64-bit multiplier of ``_unique_rows``'s hash of a row's bits
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _unique_rows(a: np.ndarray, kind: str = "quicksort") -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the 2-D complex array ``a`` under ``==``, and
    the position of each row's value among them.

    The rows are sorted by a 64-bit hash of their bits, which an integer
    sort (``np.argsort`` of ``kind``) orders several times faster than
    numpy's complex sort orders values, and equal neighbours are merged;
    zeros are hashed as positive, so that equal rows hash alike.  Equal
    rows are then neighbours, unless the hashes of two other rows collide
    between them, which repeats a row in the list but never joins two.
    With a stable ``kind`` each listed row is the first of its value."""
    bits = (a + 0).view(np.uint64)
    key = bits[:, 0]
    for column in bits.T[1:]:
        key = key * _MIX ^ column
    order = np.argsort(key, kind=kind)
    ranked = a[order]
    first = np.ones(len(a), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    number = np.empty(len(a), dtype=int)
    number[order] = first.cumsum() - 1
    return ranked[first], number


def flat_terms(sums) -> list[tuple]:
    """The flat terms of (slot, ThetaSum) pairs: per term of each sum, in
    order, (slot, scalar, exp_z, exp_x, factors), its factors as (cz, cx,
    shift, power) tuples."""
    return [(slot, t.scalar, t.exp_z, t.exp_x,
             tuple((f.cz, f.cx, f.shift, f.power) for f in t.factors))
            for slot, s in sums for t in s.terms]


@lru_cache(maxsize=32)
def _table_layout(slots: tuple, counts: tuple, ids: tuple, cz: tuple, cx: tuple, power: tuple,
                  arg: tuple, arg_cz: tuple, arg_cx: tuple) -> tuple:
    """The arrays of a ``ThetaTable`` that do not depend on the values of
    its shifts, scalars and exponents, from: the slot and factor count of
    each term, sorted by slot; the number of each factor of each term
    among the distinct factors; per distinct factor, its cz, cx and power
    and the number of its argument (cz, cx, shift) among the distinct
    arguments; and the cz and cx of each distinct argument.  Also the
    order that groups the arguments by kind, in order of first appearance
    within a kind, and the end of each kind's group in it.  The arrays
    are read-only, as every table of the layout shares them."""
    starts = [i for i in range(len(slots)) if not i or slots[i] != slots[i - 1]]
    # index len(cz) is a row of ones that pads shorter products; every
    # product has a column, so a term of no factor reads that row
    width = max((1, *counts))
    rows, at = [], 0
    for n in counts:
        rows.append(list(ids[at:at + n]) + [len(cz)] * (width - n))
        at += n
    index = np.array(rows, dtype=int).reshape(len(counts), width)
    # each kind (cz, cx), numbered in order of first appearance, numbers
    # its distinct shifts once, in order
    kinds = list(zip(arg_cz, arg_cx))
    kind_of: dict[tuple, int] = {}
    for kind in kinds:
        kind_of.setdefault(kind, len(kind_of))
    groups: list[list[int]] = [[] for _ in kind_of]
    for a, kind in enumerate(kinds):
        groups[kind_of[kind]].append(a)
    place = {a: i for g in groups for i, a in enumerate(g)}
    kind_cz, kind_cx = np.array(list(kind_of), dtype=int).reshape(-1, 2).T[:, :, None]
    kind_width = np.array([len(g) for g in groups], dtype=int)
    power = np.array(power, dtype=int)
    arrays = (np.array(starts, dtype=int), np.array([slots[i] for i in starts], dtype=int),
              np.array(cz, dtype=int), np.array(cx, dtype=int), power, index,
              np.array([kind_of[kinds[a]] for a in arg], dtype=int),
              np.array([place[a] for a in arg], dtype=int), kind_cz, kind_cx, kind_width,
              np.flatnonzero(power < 0), np.flatnonzero(power != 1))
    for array in arrays:
        array.flags.writeable = False
    return arrays, [a for g in groups for a in g], np.cumsum(kind_width).tolist()


class ThetaTable:
    """Theta sums flattened into factor arrays, so that every sum at a
    batch of (z, x) points comes out of one theta series pass over the
    distinct theta arguments.

    Built from flat terms (slot, scalar, exp_z, exp_x, factors), each the
    term scalar * exp(exp_z*z + exp_x*x) * prod theta(cz*z + cx*x +
    shift)**power over its (cz, cx, shift, power) factors; ``flat_terms``
    flattens (slot, ThetaSum) pairs into them.  Slot k of the result is
    the sum of all terms given for k, zero when there are none.  Terms
    are sorted by the slot they add to, and each distinct factor is
    stored once, numbered in that order.  The factors
    are grouped by kind, their (cz, cx) pair, and each kind stores its
    distinct shifts once, so that the arguments of a batch are deduped as
    the distinct point parts cz*z + cx*x of each kind plus that kind's
    shifts.  Tables whose factors coincide alike share every array but
    the shifts, scalars and exponents (``_table_layout``), as the ladders
    of one K and spins of one coincidence pattern do.

    A pass has two steps, the arguments (``_arguments``) and the finish
    (``_finish``), and between them the theta values of the arguments,
    which ``table_passes`` sums for many tables at once; ``at``,
    ``at_dest`` and ``masked_at`` are its one-item case.  A pass is
    independent of its batch: the values at a point are the same bits
    whether it is evaluated alone, among other points or beside other
    tables.
    """

    def __init__(self, terms, size: int, params: EllipticParams):
        self.size = size
        self.params = params
        flat = sorted(terms, key=itemgetter(0))
        factors: dict[tuple, int] = {}
        ids = tuple([factors.setdefault(f, len(factors)) for t in flat for f in t[4]])
        # the distinct arguments (cz, cx, shift), numbered in order
        args = list(map(itemgetter(0, 1, 2), factors))
        arg_of = dict(zip(dict.fromkeys(args), count()))
        layout, order, ends = _table_layout(
            tuple(map(itemgetter(0), flat)), tuple(map(len, map(itemgetter(4), flat))), ids,
            *(tuple(map(itemgetter(i), factors)) for i in (0, 1, 3)),
            tuple(map(arg_of.__getitem__, args)),
            *(tuple(map(itemgetter(i), arg_of)) for i in (0, 1)))
        (self.starts, self.dest, self.cz, self.cx, self.power, self.index, self.kind,
         self.shift_index, self.kind_cz, self.kind_cx, self.kind_width, self.negative,
         self.raised) = layout
        self.shift = np.fromiter(map(itemgetter(2), factors), complex, len(factors))
        shifts = np.fromiter(map(itemgetter(2), arg_of), complex, len(arg_of))[order]
        self.kind_shifts = [shifts[lo:hi] for lo, hi in zip([0, *ends], ends)]
        _, scalar, exp_z, exp_x, _ = zip(*flat) if flat else ((),) * 5
        self.scalar, self.exp_z, self.exp_x = (np.array(c, dtype=complex) for c in (scalar, exp_z, exp_x))
        # only a table with some exponent multiplies its terms by exp(...)
        self.exponential = any(exp_z) or any(exp_x)

    def at(self, zs, xs) -> np.ndarray:
        """Every slot at the points (zs, xs), as an array [point, slot].

        A negative-power factor on the zero lattice raises PoleError and a
        non-finite theta value OverflowError, as ``ThetaExpression.eval``.
        """
        return self._eval(zs, xs, strict=True)

    def at_dest(self, zs, xs, masked: bool = False) -> np.ndarray:
        """The slots of ``dest`` at the points (zs, xs), as [point, slot]:
        ``at`` without the slots no term adds to, raising as it does, or
        with ``masked`` the values of ``masked_at`` there."""
        return self._eval(zs, xs, strict=not masked, dense=False)

    def masked_at(self, zs, xs) -> tuple[np.ndarray, np.ndarray]:
        """``at`` without raising: the values, NaN in every slot with a
        term that has a negative-power factor on the zero lattice or a
        non-finite theta value, and the mask of the points where some slot
        is not finite."""
        out = self._eval(zs, xs, strict=False)
        return out, ~np.isfinite(out).all(axis=1)

    def _eval(self, zs, xs, strict: bool, dense: bool = True) -> np.ndarray:
        """A pass of one item (``table_passes``), finished."""
        finish, = table_passes([(self, zs, xs, strict, dense)])
        return finish()

    def _arguments(self, zs, xs) -> tuple:
        """The arguments step of a pass at the points: the candidates,
        each kind's distinct point parts plus each of its shifts; as [kind,
        point], the number of the candidate of each point part with the
        kind's first shift, which ``_factor_candidates`` spreads over the
        factors; and the point parts, which name a pole's argument."""
        # an argument is (cz*z + cx*x) + shift, summed as one array over
        # all factors would sum it, so the candidates are every argument,
        # with far fewer repeats
        parts = self.kind_cz * zs + self.kind_cx * xs
        kind_parts, counts, number = _distinct_rows(parts)
        ends = counts.cumsum()
        cands = np.concatenate([np.empty(0, dtype=complex)] + [
            (kind_parts[e - c:e, None] + s).ravel()
            for e, c, s in zip(ends.tolist(), counts.tolist(), self.kind_shifts)])
        # kind k's candidates are a block, part-major: part number n of
        # kind k with shift 0 is candidate n*width_k + offset_k
        sizes = counts * self.kind_width
        offset = sizes.cumsum() - sizes - (ends - counts) * self.kind_width
        return cands, number * self.kind_width[:, None] + offset[:, None], parts

    def _factor_candidates(self, base, factors=slice(None)) -> np.ndarray:
        """[factor, point] -> the candidate of the factor's argument, for
        the factors ``factors``, from the [kind, point] numbers ``base``
        of ``_arguments``."""
        return base[self.kind[factors]] + self.shift_index[factors, None]

    def _pole(self, parts, near) -> str | None:
        """The PoleError message of the first factor that ``near``, [negative
        factor, point], puts on the zero lattice, from the point ``parts``
        of ``_arguments``; None for none."""
        if not near.any():
            return None
        row, point = np.argwhere(near)[0]
        f = self.negative[row]
        arg = parts[self.kind[f], point] + self.shift[f]
        return f"theta factor with negative power at lattice point {arg}"

    def _finish(self, zs, xs, base, thetas, near, pole, strict: bool,
                dense: bool) -> np.ndarray:
        """The finish step of a pass: the slots at the points from the
        theta values of the candidates, per negative-power factor and
        point whether its argument is on the zero lattice, and the
        ``_pole`` message of those flags."""
        if strict:
            if pole:
                raise PoleError(pole)
            if not np.isfinite(thetas).all():
                raise OverflowError(_NOT_FINITE)
        else:
            thetas[~np.isfinite(thetas)] = np.nan
        # the last row is ones, the pad of shorter products; every index is
        # in range, and "clip" writes into vals unbuffered
        vals = np.ones((len(self.kind) + 1, len(zs)), dtype=complex)
        np.take(thetas, self._factor_candidates(base), out=vals[:-1], mode="clip")
        if not strict:
            vals[self.negative] = np.where(near, np.nan, vals[self.negative])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # a factor of power 1 is its theta value: only other powers are taken
            vals[self.raised] **= self.power[self.raised, None]
            # the factor columns multiplied in turn: elementwise, as a
            # reduction over factors would not be on a one-point batch
            terms = vals[self.index[:, 0]]
            for column in self.index.T[1:]:
                terms *= vals[column]
            terms *= self.scalar[:, None]
            if self.exponential:
                terms *= np.exp(self.exp_z[:, None] * zs + self.exp_x[:, None] * xs)
            sums = np.add.reduceat(terms, self.starts, axis=0).T
        if not dense:
            return sums
        out = np.zeros((len(zs), self.size), dtype=complex)
        out[:, self.dest] = sums
        return out


def table_passes(items) -> list:
    """One theta pass for many tables: per item (table, zs, xs, strict,
    dense), the function of no arguments that returns the table's values
    at the points (zs, xs), as ``table.at`` gives them (strict, dense),
    ``table.at_dest`` (not dense, ``masked`` = not strict) or the values of
    ``table.masked_at`` (dense, not strict).

    The arguments step of every item runs here, and so does one
    ``_theta_series`` call, and one pole test, per parameter set over the
    union of the items' distinct arguments (``_unique_rows``, exact under
    ``==``); an item's finish step runs when its function is called, so
    that a caller holds the finished values of one item at a time.  A
    theta value and a lattice distance do
    not depend on the batch they are in, so each item's values are the
    bits of its own pass, and an item raises the error it raises alone,
    when its function is called: PoleError before OverflowError, as the
    one-item pass does.  A table with no terms takes no part."""
    items = [(table, np.asarray(zs, dtype=complex), np.asarray(xs, dtype=complex), *rest)
             for table, zs, xs, *rest in items]
    steps = [table._arguments(zs, xs) if table.dest.size else None
             for table, zs, xs, *_ in items]
    # per item: its [kind, point] candidate numbers, the union's theta
    # values and the union index of each of its candidates, and its
    # near-lattice flags and their pole message
    found: list = [None] * len(items)
    groups: dict = {}
    for i, (table, *_) in enumerate(items):
        if steps[i] is not None:
            groups.setdefault(table.params, []).append(i)
    for params, members in groups.items():
        # each distinct argument is summed and pole-checked once
        distinct, inverse = _unique_rows(np.concatenate([steps[i][0] for i in members])[:, None])
        distinct = distinct[:, 0]
        bounds = np.cumsum([0] + [len(steps[i][0]) for i in members]).tolist()
        inverse = [inverse[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        # only the arguments of negative-power factors are tested for poles
        neg = [at[items[i][0]._factor_candidates(steps[i][1], items[i][0].negative)]
               for i, at in zip(members, inverse)]
        pole = np.zeros(len(distinct), dtype=bool)
        for n in neg:
            pole[n] = True
        pole[pole] = lattice_distance_array(distinct[pole], params) < POLE_TOL
        thetas = _theta_series(distinct, params)
        for i, at, n in zip(members, inverse, neg):
            base, parts = steps[i][1:]
            found[i] = (base, thetas, at, pole[n], items[i][0]._pole(parts, pole[n]))

    def finish(i):  # called once: the item's arrays go with it
        table, zs, xs, strict, dense = items[i]
        if not table.dest.size:
            return np.zeros((len(zs), table.size if dense else 0), dtype=complex)
        (base, thetas, at, near, pole), found[i] = found[i], None
        return table._finish(zs, xs, base, thetas[at], near, pole, strict, dense)

    return [partial(finish, i) for i in range(len(items))]


# ---------------------------------------------------------------------------
# Seeded generic-point sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sampler of generic points in the fundamental cell.

    Every drawn point keeps each guarded argument at torus distance at
    least ``pole_margin`` from the zero lattice.
    """

    seed: int
    count: int = 20
    pole_margin: float = 1e-3

    def points(self, params: EllipticParams, guard=None) -> list[complex]:
        """Draw ``count`` points z = u + v*tau, u,v in [0,1).

        ``guard`` maps a candidate z to an iterable of arguments that must
        all stay ``pole_margin`` away from Z + Z*tau.
        """
        return [z for z, in self.draw(params, 1, guard, "points")]

    def pairs(self, params: EllipticParams, guard=None) -> list[tuple[complex, complex]]:
        """Draw ``count`` pairs (z, x); guard maps (z, x) to guarded args."""
        return self.draw(params, 2, guard, "pairs")

    def draw(self, params: EllipticParams, n: int, guard, what: str) -> list[tuple]:
        """The seeded rejection loop: ``count`` accepted n-tuples of points
        of the cell, each tuple from 2n uniform draws (u1, v1, u2, v2, ...);
        ``guard`` maps a tuple to its guarded arguments.  More than
        ``_MAX_REJECTIONS`` rejected tuples raise SamplingError, naming the
        tuples ``what``."""
        rng = np.random.default_rng(self.seed)
        out: list[tuple] = []
        rejected = 0
        while len(out) < self.count:
            uv = rng.random(2 * n)
            cand = tuple(complex(uv[i] + uv[i + 1] * params.tau) for i in range(0, 2 * n, 2))
            args = cand if guard is None else list(guard(*cand))
            if all(lattice_distance(a, params) >= self.pole_margin for a in args):
                out.append(cand)
                continue
            rejected += 1
            if rejected > _MAX_REJECTIONS:
                raise SamplingError(f"SamplePlan could not find enough generic {what}")
        return out
