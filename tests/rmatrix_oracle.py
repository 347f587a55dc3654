"""The R-matrices as tables of their entries.

The rational R-matrix as Fraction 4x4 matrices: the embedding into the
three-fold tensor product, a plain list matmul and the quantum Yang-Baxter
equation at rational points.  The reference for `yangian._RTT_R` and for
the defining module, whose exchange relation is the package's Yang-Baxter
certificate.

The dynamical elliptic R-matrix as a 4x4 table of ``ThetaSum``s, each
entry a chain of ``*`` of one-factor expressions: the reference for the
flat terms of ``modules.r_matrix_terms``."""

from elliptic_baxter.polyring import Poly, exact_residual, is_zero
from elliptic_baxter.theta import EllipticParams, ThetaExpression, ThetaSum


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


def embed(mat4, slots):
    """Embed a 4x4 two-slot matrix into the 8-dim triple tensor product."""
    out = [[0] * 8 for _ in range(8)]

    def bits(n):
        return ((n >> 2) & 1, (n >> 1) & 1, n & 1)

    def idx(b):
        return (b[0] << 2) | (b[1] << 1) | b[2]

    for col in range(8):
        cb = bits(col)
        cc = (cb[slots[0]] << 1) | cb[slots[1]]
        for rr in range(4):
            v = mat4[rr][cc]
            if v == 0:
                continue
            rb = list(cb)
            rb[slots[0]], rb[slots[1]] = (rr >> 1) & 1, rr & 1
            out[idx(rb)][col] = out[idx(rb)][col] + v
    return out


def matmul(a, b):
    """Product of two list matrices of numbers or `Poly` entries."""
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


def qybe_residual(z, w) -> float:
    """Exact defect of R12(z - w) R13(z) R23(w) = R23(w) R13(z) R12(z - w)."""
    r12 = embed(yangian_r(z - w), (0, 1))
    r13 = embed(yangian_r(z), (0, 2))
    r23 = embed(yangian_r(w), (1, 2))
    lhs = matmul(matmul(r12, r13), r23)
    rhs = matmul(matmul(r23, r13), r12)
    return exact_residual(
        lhs[i][j] - rhs[i][j] for i in range(8) for j in range(8)
    )


def _th(cz, cx, shift, power=1):
    return ThetaExpression.theta(cz, cx, shift, power)


def r_matrix_symbolic(params: EllipticParams):
    """4x4 table of ThetaSums in the basis (++, +-, -+, --)."""
    h = params.hbar
    one = ThetaSum(ThetaExpression())
    zero = ThetaSum.zero()
    b11 = ThetaSum(
        _th(1, 0, 0) * _th(0, 1, h) * _th(0, 1, -h)
        * _th(1, 0, h, -1) * _th(0, 1, 0, -2)
    )
    b12 = ThetaSum(_th(1, 1, 0) * _th(0, 0, h) * _th(1, 0, h, -1) * _th(0, 1, 0, -1))
    b21 = ThetaSum(
        (-1.0) * _th(1, -1, 0) * _th(0, 0, h) * _th(1, 0, h, -1) * _th(0, 1, 0, -1)
    )
    b22 = ThetaSum(_th(1, 0, 0) * _th(1, 0, h, -1))
    return [
        [one, zero, zero, zero],
        [zero, b11, b12, zero],
        [zero, b21, b22, zero],
        [zero, zero, zero, one],
    ]
