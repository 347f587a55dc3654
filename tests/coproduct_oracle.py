"""Test oracle: the dynamical coproduct built symbolically.

``symbolic_tensor`` builds the four L tables of X (x) Y as sums of
``ThetaSum`` products, L_{ij} = sum_k L^X_{ik} (x) L^Y_{kj}, with the X-side
entry x-shifted by hbar times the weight of the target Y basis vector.  The
numeric coproduct of ``modules.dynamical_tensor`` is checked against it,
and the checks that need a symbolic tensor (Gauss decomposition, symbolic
composition of transfer products, entry injections) use it.
"""

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
