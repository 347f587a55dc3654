"""Test oracles: the dynamical coproduct built symbolically, and its
numeric entries from dense factor tables.

``symbolic_tensor`` builds the four L tables of X (x) Y as sums of
``ThetaSum`` products, L_{ij} = sum_k L^X_{ik} (x) L^Y_{kj}, with the X-side
entry x-shifted by hbar times the weight of the target Y basis vector.  The
numeric coproduct of ``modules.dynamical_tensor`` is checked against it,
and the checks that need a symbolic tensor (Gauss decomposition, symbolic
composition of transfer products, entry injections) use it.

``dense_tables`` evaluates the same sums numerically, one product of
dense factor-table entries at a time, in the order of the products'
gather, so a numeric coproduct must equal it bit for bit.
"""

from itertools import product

import numpy as np

from elliptic_baxter.dynamical import ModuleOperator, tensor_basis
from elliptic_baxter.modules import EllipticModule, TensorModule

from module_oracle import module_of_L


def symbolic_tensor(X, Y, max_level=None) -> EllipticModule:
    """X (x) Y truncated at total level max_level, with symbolic L tables;
    X and Y carry symbolic L tables themselves."""
    bx, by, params = X.basis, Y.basis, X.params
    basis, layout = tensor_basis(bx, by, max_level)
    pos = {q: i for i, q in enumerate(layout)}

    def split(b, idx):
        j = b.level_of(idx)
        return j, idx - b.offset(j)

    out = {}
    for i in "+-":
        for j in "+-":
            entries = {}
            for k in "+-":
                for (cy, dy), sy in Y.L[k + j].entries.items():
                    (jy_t, iy_t), (jy_s, iy_s) = split(by, cy), split(by, dy)
                    for (ax, bx_i), sx in X.L[i + k].entries.items():
                        (jx_t, ix_t), (jx_s, ix_s) = split(bx, ax), split(bx, bx_i)
                        tgt = pos.get((jx_t, ix_t, jy_t, iy_t))
                        src = pos.get((jx_s, ix_s, jy_s, iy_s))
                        if tgt is None or src is None:
                            continue
                        term = sx.shift_x(params.hbar * by.weight(jy_t)) * sy
                        key = (tgt, src)
                        entries[key] = entries[key] + term if key in entries else term
            out[i + j] = ModuleOperator(1 if i == "+" else -1, 1 if j == "+" else -1,
                                        basis, basis, entries, params)
    return module_of_L(params, basis, out, label=f"({X.label})(x)({Y.label})")



def symbolic_module(M):
    """M itself when it has symbolic L tables, else the symbolic oracle of
    the tensor module M, built from its factors' oracles."""
    if isinstance(M, TensorModule):
        return symbolic_tensor(symbolic_module(M.X), symbolic_module(M.Y), M.basis.levels)
    return M


def dense_tables(M, zs, xs, top=None, masked=False):
    """M's four L tables at the points (zs, xs) cut to the levels up to
    ``top``, as [point, key, row, col], and the sorted slots of its
    structural nonzeros.  A flat module is one dense ``ThetaTable`` pass
    (``masked_at`` with ``masked``); a tensor module X (x) Y sums, per
    entry, the products of the dense entries of X at x + hbar*(weight of
    the target Y level) and of Y, over k, then Y's nonzeros, then X's, in
    slot order, each factor evaluated once for all its points."""
    zs, xs = np.asarray(zs, dtype=complex), np.asarray(xs, dtype=complex)
    n = M.basis.size if top is None else M.basis.offset(top + 1)
    if not isinstance(M, TensorModule):
        table = M._table(n)
        vals = table.masked_at(zs, xs)[0] if masked else table.at(zs, xs)
        return vals.reshape(len(zs), 4, n, n), table.dest.tolist()
    X, Y = M.X, M.Y
    top = M.basis.levels if top is None else top
    tx, ty = min(top, X.basis.levels), min(top, Y.basis.levels)
    shifts = [M.params.hbar * Y.basis.weight(j) for j in range(ty + 1)]
    mx, nzx = dense_tables(X, np.repeat(zs, ty + 1), (xs[:, None] + shifts).ravel(), tx, masked)
    mx = mx.reshape(len(zs), ty + 1, *mx.shape[1:])
    my, nzy = dense_tables(Y, zs, xs, ty, masked)
    pos = {q: t for t, q in enumerate(M.layout[:n])}

    def entries(basis, m, nonzeros):  # (key, (level, index) of row, of col)
        for s in nonzeros:
            key, rc = divmod(s, m * m)
            yield key, *((basis.level_of(a), a - basis.offset(basis.level_of(a)))
                         for a in divmod(rc, m))

    ex = list(entries(X.basis, mx.shape[-1], nzx))
    ey = list(entries(Y.basis, my.shape[-1], nzy))
    out = np.zeros((len(zs), 4, n, n), dtype=complex)
    slots = set()
    for i, j, k in product(range(2), repeat=3):
        for key_y, (jy_t, iy_t), (jy_s, iy_s) in ey:
            if key_y != 2 * k + j:
                continue
            for key_x, (jx_t, ix_t), (jx_s, ix_s) in ex:
                tgt = pos.get((jx_t, ix_t, jy_t, iy_t))
                src = pos.get((jx_s, ix_s, jy_s, iy_s))
                if key_x != 2 * i + k or tgt is None or src is None:
                    continue
                a, b = X.basis.offset(jx_t) + ix_t, X.basis.offset(jx_s) + ix_s
                c, d = Y.basis.offset(jy_t) + iy_t, Y.basis.offset(jy_s) + iy_s
                with np.errstate(over="ignore", invalid="ignore"):
                    out[:, 2 * i + j, tgt, src] += mx[:, jy_t, key_x, a, b] * my[:, key_y, c, d]
                slots.add(((2 * i + j) * n + tgt) * n + src)
    return out, sorted(slots)
