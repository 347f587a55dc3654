"""Test oracle: the q-character ring one monomial at a time.

``qchar`` keeps the terms of a step stacked and merges or matches them from
one deviation matrix per step.  Here every monomial is an object with its
symbolic pair, its key is read off the canonical forms of the pair's
products, and every merge and match is one ``monomial_deviation`` call, in
the order ``add_monomial`` and ``element_deviation`` take them, as the ring
was first written, so that the stacked ring can be checked against it term
for term.
"""

import math

import numpy as np

from elliptic_baxter.dynamical import _coset_offset, worst_residual
from elliptic_baxter.qchar import _MATCH_TOL, _MERGE_TOL, _MIN_VALID_SAMPLES


def _rounded(c: complex) -> tuple[float, float]:
    return (round(c.real, 9), round(c.imag, 9))


def _factor_key(c) -> tuple:
    return (_rounded(c.exp_z) + _rounded(c.exp_x),
            tuple((f.cz, f.cx, *_rounded(f.shift), f.power) for f in c.factors))


class Monomial:
    """A monomial with its values [component, point], its weight and its
    symbolic pair (or None), the key computed from the pair."""

    def __init__(self, values, weight, pair=None):
        self.values = values
        self.ok = np.isfinite(values).all(axis=0)
        self.weight = complex(weight)
        self.pair = pair
        self.key = None
        if pair is not None:
            ap, am = (c.canonical() for c in pair)
            self.key = (_factor_key(ap), _factor_key(am),
                        _rounded(ap.scalar * am.scalar), _rounded(self.weight))

    @staticmethod
    def of(m) -> "Monomial":
        """The oracle monomial of a ``qchar.WeightMonomial``."""
        return Monomial(m.values, m.weight, m.pair)

    def __mul__(self, other):
        pair = None
        if self.pair is not None and other.pair is not None:
            pair = (self.pair[0] * other.pair[0], self.pair[1] * other.pair[1])
        return Monomial(self.values * other.values, self.weight + other.weight, pair)


def monomial_deviation(m1, m2) -> float:
    if abs(m1.weight - m2.weight) > _MERGE_TOL:
        return math.inf
    if m1.key is not None and m1.key == m2.key:
        return 0.0
    (p1, n1), (p2, n2) = m1.values, m2.values
    size = np.abs([p1, n1, p2, n2])
    ok = m1.ok & m2.ok & (size[2:].min(axis=0) >= 1e-13) & (size.max(axis=0) <= 1e13)
    if np.count_nonzero(ok) < _MIN_VALID_SAMPLES:
        return math.inf
    rp = p1[ok] / p2[ok]
    rm = n1[ok] / n2[ok]
    c = rp[0]
    return float(max(np.abs(rp - c).max() / max(1.0, abs(c)), np.abs(rm * c - 1.0).max()))


class Element:
    """terms[step] is a list of [Monomial, multiplicity] pairs."""

    def __init__(self, alpha0, depth, params):
        self.alpha0, self.depth, self.params = alpha0, depth, params
        self.terms = {}

    def add_monomial(self, step, mono, mult=1):
        if step < 0 or step > self.depth:
            return
        row = self.terms.setdefault(step, [])
        for pair in row:
            if monomial_deviation(mono, pair[0]) < _MERGE_TOL:
                pair[1] += mult
                return
        row.append([mono, mult])

    def term_list(self, step):
        return self.terms.get(step, [])


def mul(A, B, depth=None):
    top = min(A.depth, B.depth)
    if depth is not None:
        top = min(top, depth)
    out = Element(A.alpha0 + B.alpha0, top, A.params)
    for ka in sorted(A.terms):
        if ka > top:
            continue
        for kb in sorted(B.terms):
            k = ka + kb
            if k > top:
                continue
            for ma, na in A.terms[ka]:
                for mb, nb in B.terms[kb]:
                    out.add_monomial(k, ma * mb, na * nb)
    return out


def element_add(A, B):
    d = _coset_offset(A.alpha0, B.alpha0)
    if d < 0:
        return element_add(B, A)
    top = min(A.depth, B.depth + d)
    out = Element(A.alpha0, top, A.params)
    for k, row in A.terms.items():
        if k <= top:
            for m, n in row:
                out.add_monomial(k, m, n)
    for k, row in B.terms.items():
        if k + d <= top:
            for m, n in row:
                out.add_monomial(k + d, m, n)
    return out


def element_deviation(A, B, depth=None) -> float:
    try:
        d = _coset_offset(A.alpha0, B.alpha0)
    except ValueError:
        return math.inf
    if d < 0:
        return element_deviation(B, A, depth)
    top = min(A.depth, B.depth + d)
    if depth is not None:
        top = min(top, depth)
    matched = []
    for k in range(top + 1):
        la = [[m, n] for m, n in A.term_list(k)]
        lb = [[m, n] for m, n in B.term_list(k - d)] if k - d >= 0 else []
        for pa in la:
            for pb in lb:
                if not pb[1]:
                    continue
                dev = monomial_deviation(pa[0], pb[0])
                if dev < _MATCH_TOL:
                    c = min(pa[1], pb[1])
                    pa[1] -= c
                    pb[1] -= c
                    matched.append(dev)
                    if pa[1] == 0:
                        break
        if any(p[1] for p in la) or any(p[1] for p in lb):
            return math.inf
    return worst_residual(matched)
