"""Test oracle: elliptic modules built through symbolic L tables.

``modules.EllipticModule`` holds flat terms only.  ``module_of_L``
flattens a table of ``ModuleOperator``s (one per key ++, +-, -+, --) into
them, key by key in entry order, as a module given its L was flattened
when it still took one.  The L-route modules below build their tables with
the ``ThetaSum`` and ``ModuleOperator`` arithmetic that the flat
constructors of ``modules`` replaced, so that those can be checked against
them term for term; ``expression_shift_z`` is the symbolic z-substitution.
``build_vector_rep`` is the vector module read off the flat R-matrix
terms.
"""

import cmath

from elliptic_baxter.dynamical import ModuleOperator, WeightBasis
from elliptic_baxter.modules import EllipticModule, r_matrix_terms
from elliptic_baxter.theta import (
    EllipticParams,
    ThetaExpression,
    ThetaFactor,
    ThetaSum,
    flat_terms,
)

from rmatrix_oracle import r_matrix_symbolic

KEYS = ("++", "+-", "-+", "--")
_BIDEG = {"+": 1, "-": -1}


def module_of_L(params: EllipticParams, basis: WeightBasis, L: dict, spin=None,
                shift_u=0.0, label: str = "", exact: bool = False) -> EllipticModule:
    """The module whose L tables are the ``ModuleOperator``s of ``L``."""
    n = basis.size
    terms = flat_terms(((k * n + a) * n + b, s) for k, key in enumerate(KEYS)
                       for (a, b), s in L[key].entries.items())
    return EllipticModule(params, basis, terms, spin, shift_u, label, exact)


def with_L(X: EllipticModule, L: dict) -> EllipticModule:
    """X with its L tables replaced by those of ``L``."""
    return module_of_L(X.params, X.basis, L, X.spin, X.shift_u, X.label, X.exact)


def expression_shift_z(e: ThetaExpression, c: complex) -> ThetaExpression:
    """e with z -> z + c substituted: the scalar times exp(exp_z*c), each
    factor's shift plus cz*c (e itself at c = 0)."""
    c = complex(c)
    if c == 0:
        return e
    factors = tuple(ThetaFactor(f.cz, f.cx, f.shift + f.cz * c, f.power) for f in e.factors)
    return ThetaExpression(e.scalar * cmath.exp(e.exp_z * c), e.exp_z, e.exp_x, factors)


def shift_z(op: ModuleOperator, c: complex) -> ModuleOperator:
    """op with every entry z-shifted by c (``expression_shift_z``)."""
    return ModuleOperator(op.alpha, op.beta, op.source, op.target,
                          {k: ThetaSum(tuple(expression_shift_z(t, c) for t in s.terms))
                           for k, s in op.entries.items()}, op.params)


def build_vector_rep(params: EllipticParams) -> EllipticModule:
    """Two-dimensional module v_+, v_- of weights +1, -1 with entries read
    off the flat R-matrix terms: L_{mi} has entry (a, b) = R[(m, a), (i, b)],
    the signs + -> 0, - -> 1."""
    r = {t[0]: t[1:] for t in r_matrix_terms(params)}
    terms = [((k * 2 + a) * 2 + b, *r[slot]) for k in range(4) for a in range(2)
             for b in range(2) if (slot := 4 * (2 * (k >> 1) + a) + 2 * (k & 1) + b) in r]
    return EllipticModule(params, WeightBasis(1.0, (1, 1)), terms, spin=1.0, label="V",
                          exact=True)


def vector_rep_of_L(params: EllipticParams) -> EllipticModule:
    """``build_vector_rep`` through ``r_matrix_symbolic`` and ModuleOperators."""
    basis = WeightBasis(1.0, (1, 1))
    sym = r_matrix_symbolic(params)
    L = {m + i: ModuleOperator(_BIDEG[m], _BIDEG[i], basis, basis,
                               {(a, b): s for a in range(2) for b in range(2)
                                if (s := sym[2 * mi + a][2 * ii + b])}, params)
         for mi, m in enumerate("+-") for ii, i in enumerate("+-")}
    return module_of_L(params, basis, L, spin=1.0, label="V", exact=True)


def spectral_shift_of_L(X: EllipticModule, u: complex) -> EllipticModule:
    """``modules.spectral_shift`` through the z-shift of X's L view."""
    L = {k: shift_z(op, u * X.params.hbar) for k, op in X.L.items()}
    return module_of_L(X.params, X.basis, L, X.spin, X.shift_u + u,
                       f"Psi_{u}*{X.label}", X.exact)


def one_dim_of_L(g: ThetaExpression, params: EllipticParams) -> EllipticModule:
    """``modules.one_dim_module`` through ModuleOperators."""
    basis = WeightBasis(0.0, (1,))
    entries = {"++": {(0, 0): ThetaSum(g)}, "--": {(0, 0): ThetaSum(g)}}
    L = {key: ModuleOperator(_BIDEG[key[0]], _BIDEG[key[1]], basis, basis,
                             entries.get(key, {}), params) for key in KEYS}
    return module_of_L(params, basis, L, spin=0.0, label="D", exact=True)
