"""Test oracle: the Gauss decomposition built symbolically.

``gauss_decompose`` factors a module with symbolic L tables as

    L = (1 F; 0 1)(K+ 0; 0 K-)(1 0; E 1)

in the composition calculus of ``dynamical``: every product is
``compose_module_ops``, so a right factor is x-shifted by beta*hbar of the
left one, and (L--)^-1 is ``invert_weightwise``.  The numeric factors of
``modules.gauss_decompose`` are checked against it.  The ``ModuleOperator``
arithmetic it needs, and that the negative controls use to break a module,
is here as functions.
"""

from dataclasses import dataclass

from elliptic_baxter.dynamical import (
    ModuleOperator,
    ShapeError,
    compose_module_ops,
    invert_weightwise,
)


def _with_entries(op: ModuleOperator, entries) -> ModuleOperator:
    return ModuleOperator(op.alpha, op.beta, op.source, op.target, entries, op.params)


def shift_x(op: ModuleOperator, c: complex) -> ModuleOperator:
    """op with every entry x-shifted by c."""
    return _with_entries(op, {k: s.shift_x(c) for k, s in op.entries.items()})


def negated(op: ModuleOperator) -> ModuleOperator:
    return _with_entries(op, {k: -s for k, s in op.entries.items()})


def added(a: ModuleOperator, b: ModuleOperator) -> ModuleOperator:
    """a + b, for operators of one bidegree between the same bases."""
    if (a.source, a.target) != (b.source, b.target):
        raise ShapeError("operator bases differ")
    if (a.alpha, a.beta) != (b.alpha, b.beta):
        raise ShapeError("bidegrees differ; sum is not a homogeneous operator")
    out = dict(a.entries)
    for k, s in b.entries.items():
        out[k] = out[k] + s if k in out else s
    return _with_entries(a, out)


@dataclass
class GaussData:
    kplus: ModuleOperator
    kminus: ModuleOperator
    e: ModuleOperator
    f: ModuleOperator


def gauss_decompose(X) -> GaussData:
    """K- = L--, E = (L--)^-1 L-+, F = L+- (L--)^-1 and K+ = L++ - L+- E,
    as compositions; X has symbolic L tables."""
    km = X.L["--"]
    km_inv = invert_weightwise(km)
    e = compose_module_ops(km_inv, X.L["-+"])
    f = compose_module_ops(X.L["+-"], km_inv)
    kp = added(X.L["++"], negated(compose_module_ops(X.L["+-"], e)))
    return GaussData(kp, km, e, f)
