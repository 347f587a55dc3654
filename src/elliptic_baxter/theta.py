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
from functools import cached_property

import numpy as np

_TWO_PI_I = 2j * math.pi
_MAX_J = 64
# the series stops once its next pair of terms is below this share of the partial sum
_SERIES_EPS = 1e-14
# a negative-power theta factor this close to Z + Z*tau raises PoleError
POLE_TOL = 1e-12
# a SamplePlan gives up after this many rejected draws
_MAX_REJECTIONS = 2000
# distance threshold of every lattice-membership test
LATTICE_TOL = 1e-9
# integer window of the genericity scan and of every hbar-lattice test
SEARCH_RADIUS = 6


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
        r = SEARCH_RADIUS
        # every (m, n, k) of the window at once, in the loop order m, n, k
        m, n, k = np.mgrid[-r:r + 1, -r:r + 1, -r:r + 1].reshape(3, -1)
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
        raise OverflowError("theta series is not finite or does not "
                            "converge at some argument")
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
    return np.minimum.reduce([np.abs(c0), np.abs(c0 - 1), np.abs(c0 - tau), np.abs(c0 - 1 - tau)])


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
        if cz not in (-1, 0, 1) or cx not in (-1, 0, 1):
            raise ValueError("theta factor coefficients must lie in {-1,0,1}")
        if power == 0:
            return ThetaExpression()
        return ThetaExpression(factors=(ThetaFactor(cz, cx, complex(shift), power),))

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
    def shift_z(self, c: complex) -> "ThetaExpression":
        """Substitute z -> z + c (exact)."""
        c = complex(c)
        if c == 0:
            return self
        factors = tuple(
            ThetaFactor(f.cz, f.cx, f.shift + f.cz * c, f.power) for f in self.factors
        )
        return ThetaExpression(
            self.scalar * cmath.exp(self.exp_z * c), self.exp_z, self.exp_x, factors
        )

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


ONE = ThetaExpression()


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

    @staticmethod
    def one() -> "ThetaSum":
        return ThetaSum((ONE,))

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

    def shift_z(self, c: complex) -> "ThetaSum":
        return ThetaSum(tuple(t.shift_z(c) for t in self.terms))

    def shift_x(self, c: complex) -> "ThetaSum":
        return ThetaSum(tuple(t.shift_x(c) for t in self.terms))

    def eval(self, z: complex, x: complex, params: EllipticParams) -> complex:
        return sum((t.eval(z, x, params) for t in self.terms), 0j)

    def single(self) -> ThetaExpression | None:
        """The unique term if this sum is a monomial, else None."""
        return self.terms[0] if len(self.terms) == 1 else None

    def inv(self) -> "ThetaSum":
        t = self.single()
        if t is None:
            raise ValueError("only single-term ThetaSums are invertible exactly")
        return ThetaSum((t.inv(),))

    def __repr__(self) -> str:
        return f"ThetaSum({len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# ThetaTable: many ThetaSums at many points from one theta series pass
# ---------------------------------------------------------------------------

class ThetaTable:
    """Theta sums flattened into factor arrays, so that every sum at a
    batch of (z, x) points comes out of one ``theta_eval_array`` pass over
    the distinct theta arguments.

    Built from (slot, ThetaSum) pairs; slot k of the result is the sum of
    all terms given for k, zero when there are none.  Each distinct factor
    theta(cz*z + cx*x + shift)**power is stored once; terms are sorted by
    the slot they add to.
    """

    def __init__(self, sums, size: int, params: EllipticParams):
        self.size = size
        self.params = params
        factors: dict[tuple, int] = {}
        terms = []
        for slot, s in sums:
            for t in s.terms:
                idx = [factors.setdefault((f.cz, f.cx, f.shift, f.power), len(factors))
                       for f in t.factors]
                terms.append((slot, t.scalar, t.exp_z, t.exp_x, idx))
        terms.sort(key=lambda t: t[0])
        dest, scalar, exp_z, exp_x, idx = zip(*terms) if terms else ((),) * 5
        self.starts = np.flatnonzero(np.diff(np.array(dest, dtype=int), prepend=-1))
        self.dest = np.array(dest, dtype=int)[self.starts]
        self.scalar, self.exp_z, self.exp_x = (np.array(c, dtype=complex) for c in (scalar, exp_z, exp_x))
        cz, cx, shift, power = zip(*factors) if factors else ((),) * 4
        self.cz, self.cx, self.power = (np.array(c, dtype=int) for c in (cz, cx, power))
        self.shift = np.array(shift, dtype=complex)
        # index len(factors) is a row of ones that pads shorter products
        width = max(map(len, idx), default=0)
        self.index = np.array([i + [len(factors)] * (width - len(i)) for i in idx],
                              dtype=int).reshape(len(idx), width)

    def at(self, zs, xs) -> np.ndarray:
        """Every slot at the points (zs, xs), as an array [point, slot].

        A negative-power factor on the zero lattice raises PoleError and a
        non-finite theta value OverflowError, as ``ThetaExpression.eval``.
        """
        return self._eval(zs, xs, strict=True)

    def masked_at(self, zs, xs) -> tuple[np.ndarray, np.ndarray]:
        """``at`` without raising: the values, NaN in every slot with a
        term that has a negative-power factor on the zero lattice or a
        non-finite theta value, and the mask of the points where some slot
        is not finite."""
        out = self._eval(zs, xs, strict=False)
        return out, ~np.isfinite(out).all(axis=1)

    def _eval(self, zs, xs, strict: bool) -> np.ndarray:
        zs = np.asarray(zs, dtype=complex)
        xs = np.asarray(xs, dtype=complex)
        out = np.zeros((len(zs), self.size), dtype=complex)
        if not self.dest.size:
            return out
        args = self.cz[:, None] * zs + self.cx[:, None] * xs + self.shift[:, None]
        # each distinct argument is summed and pole-checked once
        distinct, inverse = np.unique(args, return_inverse=True)
        inverse = inverse.reshape(args.shape)
        neg = self.power < 0
        # only the arguments of negative-power factors are tested for poles
        pole = np.zeros(len(distinct), dtype=bool)
        pole[inverse[neg]] = True
        pole[pole] = lattice_distance_array(distinct[pole], self.params) < POLE_TOL
        near = pole[inverse[neg]]
        if strict:
            if near.any():
                raise PoleError(f"theta factor with negative power at lattice point {args[neg][near][0]}")
            vals = theta_eval_array(distinct, self.params)[inverse]
        else:
            vals = _theta_series(distinct, self.params)[inverse]
            vals[neg] = np.where(near, np.nan, vals[neg])
            vals[~np.isfinite(vals)] = np.nan
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals = vals ** self.power[:, None]
            vals = np.vstack([vals, np.ones((1, len(zs)))])
            terms = vals[self.index].prod(axis=1) * self.scalar[:, None]
            terms *= np.exp(self.exp_z[:, None] * zs + self.exp_x[:, None] * xs)
            out[:, self.dest] = np.add.reduceat(terms, self.starts, axis=0).T
        return out


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
