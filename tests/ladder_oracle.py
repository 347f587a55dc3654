"""Test oracle: the ladder entries built as chains of ``*``.

``modules.build_asymptotic`` merges each entry's theta factors in one pass
(``ThetaExpression.product``).  Here every entry is the product of
one-factor ``ThetaExpression``s joined by binary ``*``, as the ladder was
first written, so that the one-pass build can be checked against it entry
for entry.
"""

import struct

from elliptic_baxter.theta import EllipticParams, ThetaExpression, ThetaFactor


def th(cz, cx, shift, power=1):
    """The one-factor expression theta(cz*z + cx*x + shift)**power."""
    return ThetaExpression(factors=(ThetaFactor(cz, cx, complex(shift), power),))


def chain_ladder_entries(l: complex, u: complex, K: int, params: EllipticParams) -> dict:
    """The entries of the ladder W(l, u) on levels 0..K, as
    {key: {(target, source): ThetaExpression}} for the keys ++, +-, -+, --."""
    h = params.hbar
    pp, pm, mp, mm = {}, {}, {}, {}
    for j in range(K + 1):
        pp[(j, j)] = (
            th(1, 0, (u + l - j + 1) * h)
            * th(0, 1, (l - j + 1) * h)
            * th(0, 1, -j * h)
            * th(0, 1, 0, -1)
            * th(0, 1, (l - 2 * j + 1) * h, -1)
        )
        mm[(j, j)] = th(1, 0, (u + j + 1) * h)
        if j + 1 <= K:
            pm[(j + 1, j)] = (
                th(1, 1, (u + l - j) * h)
                * th(0, 0, (l - j) * h)
                * th(0, 1, (l - 2 * j - 1) * h, -1)
            )
        if j >= 1:
            mp[(j - 1, j)] = (-1.0) * th(1, -1, (u + j) * h) * th(0, 0, j * h) * th(0, 1, 0, -1)
    return {"++": pp, "+-": pm, "-+": mp, "--": mm}


def expression_bits(e: ThetaExpression) -> tuple:
    """Everything of ``e`` bit for bit: its scalar and exponents as the
    bits of their parts, and per factor, in order, (cz, cx, the bits of the
    shift, power)."""
    def b(c):
        return tuple(struct.pack("<dd", c.real, c.imag))
    return (b(e.scalar), b(e.exp_z), b(e.exp_x),
            tuple((f.cz, f.cx, b(f.shift), f.power) for f in e.factors))
