"""Test oracle: the exchange residual of one level vector by vector.

``modules._rll_level`` forms every (i, j, m, n) component of both sides
for all basis vectors of a level at once.  Here each component of each
basis vector is summed over (p, q) on its own, as the residual was first
written, so that the batched level can be checked against it.
"""

from itertools import product

import numpy as np

from elliptic_baxter.dynamical import WeightBasis, relative_deviation, worst_residual


def rll_level(basis: WeightBasis, tables: np.ndarray, r: np.ndarray, level: int) -> float:
    r_target = r[[basis.level_of(a) for a in range(basis.size)]]
    r0 = r[-1]

    def ridx(s1: int, s2: int) -> int:  # signs +-1 to the 4-dim index and the key
        return 2 * (0 if s1 == 1 else 1) + (0 if s2 == 1 else 1)

    residuals = []
    for i, jj, m, n in product((1, -1), repeat=4):
        for b in range(basis.offset(level), basis.offset(level + 1)):
            lhs = np.zeros(basis.size, dtype=complex)
            rhs = np.zeros(basis.size, dtype=complex)
            for p, q in product((1, -1), repeat=2):
                lhs += r_target[:, ridx(m, n), ridx(p, q)] * (
                    tables[1, ridx(p, i)] @ tables[4 + i, ridx(q, jj)][:, b])
            for p, q in product((1, -1), repeat=2):
                rhs += r0[ridx(p, q), ridx(i, jj)] * (
                    tables[4, ridx(n, q)] @ tables[1 + q, ridx(m, p)][:, b])
            residuals.append(relative_deviation(lhs, rhs))
    return worst_residual(residuals)
