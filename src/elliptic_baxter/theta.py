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
from dataclasses import dataclass, field

import numpy as np

_TWO_PI_I = 2j * math.pi
_MAX_J = 64
# a negative-power theta factor this close to Z + Z*tau raises PoleError
POLE_TOL = 1e-12


class ParameterError(ValueError):
    """Invalid modular or Planck data (e.g. Im(tau) <= 0)."""


class PoleError(ArithmeticError):
    """A theta factor with negative power was evaluated on its zero lattice."""


class GenericityError(ParameterError):
    """Z + Z*tau and hbar*Z intersect away from 0 inside the scan window."""


@dataclass(frozen=True)
class EllipticParams:
    """Global modular parameter tau and Planck constant hbar.

    ``lattice_tol`` is the distance threshold for all lattice-membership
    tests; ``search_radius`` bounds the integer window of the genericity
    scan and of every hbar-lattice test.
    """

    tau: complex
    hbar: complex
    lattice_tol: float = 1e-9
    search_radius: int = 6

    def __post_init__(self) -> None:
        if self.tau.imag <= 0:
            raise ParameterError(f"Im(tau) must be positive, got tau={self.tau}")
        if self.hbar == 0:
            raise ParameterError("hbar must be nonzero")
        r = self.search_radius
        for m in range(-r, r + 1):
            for n in range(-r, r + 1):
                for k in range(-r, r + 1):
                    if (m, n, k) == (0, 0, 0):
                        continue
                    if abs(m + n * self.tau - k * self.hbar) < self.lattice_tol:
                        raise GenericityError(
                            f"lattice collision m={m}, n={n}, k={k} for "
                            f"tau={self.tau}, hbar={self.hbar}"
                        )


def theta_eval(z: complex, params: EllipticParams, eps: float = 1e-14) -> complex:
    """Evaluate theta(z) by its defining series.

    Terms are added in pairs (j, -1-j) of equal Gaussian decay; summation
    stops once the next pair is below ``eps`` times the partial sum, with a
    hard cap at |j| <= 64 (never binding for Im(tau) >= 0.05).
    """
    tau = params.tau
    if tau.imag <= 0:
        raise ParameterError(f"Im(tau) must be positive, got tau={tau}")
    if eps <= 0:
        raise ParameterError("eps must be positive")
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
        if bound <= eps * abs(s):
            break
    return -s


def theta_eval_array(z, params: EllipticParams, eps: float = 1e-14) -> np.ndarray:
    """Evaluate theta elementwise over an array of arguments.

    The series and the stopping rule are those of ``theta_eval``, applied
    per element: an element stops taking pairs once its next pair is below
    ``eps`` times its own partial sum.  The series is summed at z - m with
    m the nearest integer to Re(z), which is exact, and the sign of
    theta(z + m) = (-1)^m theta(z) restored: the phases of the terms stay
    small, and with them the rounding of each term.  A non-finite value
    raises OverflowError, as ``theta_eval`` does, instead of returning inf
    or NaN.
    """
    tau = params.tau
    if tau.imag <= 0:
        raise ParameterError(f"Im(tau) must be positive, got tau={tau}")
    if eps <= 0:
        raise ParameterError("eps must be positive")
    z = np.asarray(z, dtype=complex)
    m = np.round(z.real).ravel()
    zp = z.ravel() - m + 0.5
    zi = np.abs(z.ravel().imag)
    s = np.zeros_like(zp)
    live = np.arange(zp.size)
    # pairs per block: at the largest |Im z| the bound of the next pair is
    # below eps * 1e-3 once pi*Im(tau)*nxt^2 - 2*pi*|Im z|*nxt > log(2e3/eps),
    # so one block serves every partial sum down to 1e-3
    a = math.pi * tau.imag
    c = 2.0 * math.pi * float(np.fmin(np.max(zi, initial=0.0), 1e3))
    block = math.ceil((c + math.sqrt(c * c + 4.0 * a * math.log(2e3 / eps))) / (2.0 * a))
    with np.errstate(over="ignore", invalid="ignore"):
        # a block of pairs for every live element at once; accumulate is
        # sequential, so the partial sums are those of the scalar loop
        for j0 in range(0, _MAX_J + 1, block):
            half = np.arange(j0, min(j0 + block, _MAX_J + 1))[:, None] + 0.5
            quad = 1j * math.pi * half * half * tau
            lin = (_TWO_PI_I * half) * zp[live]
            pairs = np.vstack([s[live], np.exp(quad + lin) + np.exp(quad - lin)])
            partial = np.add.accumulate(pairs, axis=0)[1:]
            nxt = half + 1.0
            bound = 2.0 * np.exp(-math.pi * tau.imag * nxt * nxt + 2.0 * math.pi * nxt * zi[live])
            done = bound <= eps * np.abs(partial)
            stop = np.where(done.any(axis=0), done.argmax(axis=0), len(half) - 1)
            s[live] = partial[stop, np.arange(live.size)]
            live = live[~done.any(axis=0)]
            if not live.size:
                break
    if not np.isfinite(s).all():
        raise OverflowError("theta series is not finite at some argument")
    return np.where(m % 2, s, -s).reshape(z.shape)


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


def in_lattice(c: complex, params: EllipticParams, tol: float | None = None) -> bool:
    return lattice_distance(c, params) < (params.lattice_tol if tol is None else tol)


def in_hbar_inv_lattice(c: complex, params: EllipticParams, tol: float | None = None) -> bool:
    """Test c in hbar^{-1} (Z + Z*tau), i.e. c*hbar on the period lattice."""
    return in_lattice(c * params.hbar, params, tol)


def nonneg_int_plus_hbar_inv_lattice(
    c: complex, params: EllipticParams, tol: float | None = None
) -> int | None:
    """Return l >= 0 with c in l + hbar^{-1}(Z+Z*tau), or None.

    The scan window for l is params.search_radius; under the standing
    genericity assumption the representative is unique when it exists.
    """
    for l in range(params.search_radius + 1):
        if in_hbar_inv_lattice(c - l, params, tol):
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
            k = _merge_key(f.cz, f.cx, f.shift)
            if k in merged:
                merged[k][1] += f.power
            else:
                merged[k] = [f, f.power]
        factors = tuple(
            ThetaFactor(f.cz, f.cx, f.shift, p) for f, p in merged.values() if p != 0
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
    def eval(self, z: complex, x: complex, params: EllipticParams, eps: float = 1e-14) -> complex:
        val = self.scalar * cmath.exp(self.exp_z * z + self.exp_x * x)
        for f in self.factors:
            arg = f.argument(z, x)
            tv = theta_eval(arg, params, eps)
            if f.power < 0 and lattice_distance(arg, params) < POLE_TOL:
                raise PoleError(f"theta factor {f} evaluated at lattice point {arg}")
            val *= tv ** f.power
        return val

    def is_x_free(self) -> bool:
        return self.exp_x == 0 and all(f.cx == 0 for f in self.factors)

    # -- canonical form --------------------------------------------------
    def canonical(self, mod_tau: bool = False, params: EllipticParams | None = None) -> "ThetaExpression":
        """Orient factors by oddness and reduce shifts modulo 1.

        Reduction modulo tau (``mod_tau=True``, requires params) folds
        theta(w+tau) = -exp(-i*pi*tau - 2*i*pi*w) theta(w) into the scalar
        and the exponential prefactor.
        """
        scalar = self.scalar
        exp_z, exp_x = self.exp_z, self.exp_x
        out: dict[tuple, list] = {}
        for f in self.factors:
            cz, cx, shift, power = f.cz, f.cx, f.shift, f.power
            if cz < 0 or (cz == 0 and cx < 0):
                cz, cx, shift = -cz, -cx, -shift
                scalar *= (-1.0) ** power
            if mod_tau:
                if params is None:
                    raise ValueError("mod_tau reduction needs params")
                n = math.floor(shift.imag / params.tau.imag)
                if n != 0:
                    # theta(w + n*tau) = (-1)^n exp(-i*pi*n^2*tau - 2*i*pi*n*w) theta(w)
                    shift = shift - n * params.tau
                    scalar *= ((-1.0) ** n) ** power
                    scalar *= cmath.exp(power * (-1j * math.pi * n * n * params.tau - _TWO_PI_I * n * shift))
                    exp_z += power * (-_TWO_PI_I * n * cz)
                    exp_x += power * (-_TWO_PI_I * n * cx)
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
        return ThetaExpression(scalar, exp_z, exp_x, factors)

    def factor_key(self) -> tuple:
        """Hashable key of the canonical factor multiset (scalar excluded)."""
        c = self.canonical()
        return (
            (round(c.exp_z.real, 9), round(c.exp_z.imag, 9),
             round(c.exp_x.real, 9), round(c.exp_x.imag, 9)),
            tuple(
                (f.cz, f.cx, round(f.shift.real, 9), round(f.shift.imag, 9), f.power)
                for f in c.factors
            ),
        )


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

    def eval(self, z: complex, x: complex, params: EllipticParams, eps: float = 1e-14) -> complex:
        return sum((t.eval(z, x, params, eps) for t in self.terms), 0j)

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
    max_tries: int = 2000

    def points(self, params: EllipticParams, guard=None) -> list[complex]:
        """Draw ``count`` points z = u + v*tau, u,v in [0,1).

        ``guard`` maps a candidate z to an iterable of arguments that must
        all stay ``pole_margin`` away from Z + Z*tau.
        """
        rng = np.random.default_rng(self.seed)
        pts: list[complex] = []
        tries = 0
        while len(pts) < self.count:
            tries += 1
            if tries > self.max_tries:
                raise RuntimeError("SamplePlan could not find enough generic points")
            u, v = rng.random(2)
            z = complex(u + v * params.tau)
            args = [z] if guard is None else list(guard(z))
            if all(lattice_distance(a, params) >= self.pole_margin for a in args):
                pts.append(z)
        return pts

    def pairs(self, params: EllipticParams, guard=None) -> list[tuple[complex, complex]]:
        """Draw ``count`` pairs (z, x); guard maps (z, x) to guarded args."""
        rng = np.random.default_rng(self.seed)
        out: list[tuple[complex, complex]] = []
        tries = 0
        while len(out) < self.count:
            tries += 1
            if tries > self.max_tries:
                raise RuntimeError("SamplePlan could not find enough generic pairs")
            u1, v1, u2, v2 = rng.random(4)
            z = complex(u1 + v1 * params.tau)
            x = complex(u2 + v2 * params.tau)
            args = [z, x] if guard is None else list(guard(z, x))
            if all(lattice_distance(a, params) >= self.pole_margin for a in args):
                out.append((z, x))
        return out
