"""Exact dense univariate polynomials over any coefficient ring that
supports +, *, unary -, and comparison with zero.  Rings nest: a
polynomial whose coefficients are themselves polynomials behaves as a
bivariate polynomial, as long as every cross-ring product goes through
coefficient arithmetic (scalar evaluation and Taylor shifts below are
written that way on purpose)."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache


def is_zero(v) -> bool:
    if isinstance(v, Poly):
        return not v.coeffs
    return v == 0


class Poly:
    """Dense univariate polynomial, coefficients low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and is_zero(c[-1]):
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def variable(cls) -> "Poly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            if len(self.coeffs) != len(other.coeffs):
                return False
            return all(a == b for a, b in zip(self.coeffs, other.coeffs))
        if not self.coeffs:
            return other == 0
        return len(self.coeffs) == 1 and self.coeffs[0] == other

    def __hash__(self):
        return hash(self.coeffs)

    def coefficient(self, k: int):
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def __add__(self, other) -> "Poly":
        if isinstance(other, Poly):
            a, b = self.coeffs, other.coeffs
            # pairwise sums, then the longer one's tail as it is
            return Poly(tuple(map(operator.add, a, b))
                        + a[len(b):] + b[len(a):])
        if not self.coeffs:
            return Poly((other,))
        return Poly((self.coeffs[0] + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        return self + (-other if isinstance(other, Poly) else -1 * other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if is_zero(a):
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Poly(out)
        return self.scale(other)

    def __rmul__(self, other) -> "Poly":
        return self.scale(other)

    def scale(self, c) -> "Poly":
        """Multiply every coefficient by a scalar of the coefficient ring."""
        if is_zero(c):
            return Poly()
        return Poly(tuple(a * c for a in self.coeffs))

    def __call__(self, v):
        """Evaluate at a scalar of the coefficient ring (Horner)."""
        res = 0
        for c in reversed(self.coeffs):
            res = res * v + c
        return res

    def shift(self, c) -> "Poly":
        """Taylor shift p(x) -> p(x+c) for a scalar c; binomial expansion,
        so nested coefficient rings are never mixed with the variable."""
        n = len(self.coeffs)
        out = [0] * n
        for i, coeff in enumerate(self.coeffs):
            if is_zero(coeff):
                continue
            ck = 1
            for k in range(i + 1):
                out[i - k] = out[i - k] + coeff * (math.comb(i, k) * ck)
                ck = ck * c
        return Poly(out)

    def map_coeffs(self, f) -> "Poly":
        return Poly(tuple(f(c) for c in self.coeffs))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def as_poly(v) -> Poly:
    return v if isinstance(v, Poly) else Poly((v,))


@lru_cache(maxsize=64)
def shift_matrix(c, n: int) -> tuple:
    """The coefficient map of the Taylor shift by c = u/w of polynomials
    with n coefficients, cleared by w^(n-1): entry (k, i) is the int
    multiplier C(i, k) u^(i-k) w^(n-1-i+k) of coefficient i in coefficient
    k of w^(n-1) p(v + c), zero for i < k.  Read-only."""
    c = Fraction(c)
    u, w = c.numerator, c.denominator
    return tuple(tuple(math.comb(i, k) * u ** (i - k) * w ** (n - 1 - i + k)
                       if i >= k else 0 for i in range(n)) for k in range(n))


def poly_rem(a: Poly, b: Poly) -> Poly:
    """Remainder of a by b; needs an invertible leading coefficient
    (Fraction coefficients)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead = b.coeffs[-1]
    r = list(a.coeffs)
    db = b.degree
    while len(r) - 1 >= db:
        if is_zero(r[-1]):
            r.pop()
            continue
        q = r[-1] / lead
        off = len(r) - 1 - db
        for i, c in enumerate(b.coeffs):
            r[off + i] = r[off + i] - q * c
        r.pop()
    return Poly(r)


def denominator(values) -> int:
    """Least common multiple of the leaf denominators of exact values
    (ints and Fractions), recursing through nested rings."""
    d = 1
    for v in values:
        d = math.lcm(d, denominator(v.coeffs) if isinstance(v, Poly)
                     else v.denominator)
    return d


def numerators(v, d: int):
    """v times d with int leaves, recursing through nested rings; raises
    ValueError when d does not clear a leaf's denominator."""
    if isinstance(v, Poly):
        return Poly(tuple(numerators(c, d) for c in v.coeffs))
    q, r = divmod(d, v.denominator)
    if r:
        raise ValueError(f"{d} does not clear the denominator of {v}")
    return v.numerator * q


def max_abs(v):
    """Largest coefficient magnitude, exact, recursing through nested
    rings."""
    if isinstance(v, Poly):
        return max((max_abs(c) for c in v.coeffs), default=0)
    return abs(v)


def exact_residual(values) -> float:
    """Largest coefficient magnitude among exact values, as a float that
    is 0.0 only when every value is zero.  A nonzero magnitude below the
    float range reads as the smallest positive float, one above it as inf,
    so neither reads as a pass nor raises."""
    worst = max(map(max_abs, values), default=0)
    if is_zero(worst):
        return 0.0
    try:
        return float(worst) or math.ulp(0.0)
    except OverflowError:
        return math.inf


class RatFn:
    """Rational function as an unreduced numerator/denominator pair;
    equality is exact cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly((1,))):
        num, den = as_poly(num), as_poly(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        self.num, self.den = num, den

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFn):
            other = RatFn(other)
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("unhashable: compare by cross-multiplication")

    def __mul__(self, other) -> "RatFn":
        if not isinstance(other, RatFn):
            other = RatFn(other)
        return RatFn(self.num * other.num, self.den * other.den)

    def __repr__(self):
        return f"RatFn({self.num!r}, {self.den!r})"
