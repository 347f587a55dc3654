"""Chain strings spelled out: the decoding of the int codes both twins
use for a chain string, the contraction plan built by a dict walk over
spelled string pairs, the reference for `dynamical.contraction_plan`,
and the dense graded trace over that plan, the reference for
`dynamical.block_graded_trace`."""

import numpy as np


def spell(code: int, sites: int, letters: tuple) -> tuple:
    """The string of an int code over the letters (first, second): site l
    carries the second letter when bit l is set."""
    return tuple(letters[code >> l & 1] for l in range(sites))


def dict_walk_plan(pairs, letters: tuple) -> tuple:
    """`contraction_plan` of the spelled string pairs (i, j) over the
    letters (up, down): per site, a dict from each prefix pair to its
    index and the shift after it, filled in order of first appearance."""
    up, down = letters
    raw = []
    prev = {((), ()): (0, 0)}  # prefix: (index, shift after it)
    for l in range(len(pairs[0][0])):
        cur = {}
        parent, points, key = [], [], []
        for i, j in pairs:
            pre = (i[: l + 1], j[: l + 1])
            if pre not in cur:
                n, s = prev[i[:l], j[:l]]
                cur[pre] = (len(parent), s + (1 if j[l] == up else -1))
                parent.append(n)
                points.append((l, s))
                key.append(2 * (i[l] == down) + (j[l] == down))
        raw.append((parent, points, key))
        prev = cur
    grid = sorted({g for _, points, _ in raw for g in points})
    where = {g: n for n, g in enumerate(grid)}
    steps = tuple((np.array(parent), 4 * np.array([where[g] for g in points]) + key)
                  for parent, points, key in raw)
    return np.array(grid), steps


def graded_trace(m: np.ndarray, plan: tuple, levels) -> np.ndarray:
    """Level-block traces of the site-ordered products over the pairs of
    a `contraction_plan`, in any dtype, on dense entry matrices: m[point,
    key] is the entry matrix at a grid point and rows levels[k]:levels[k+1]
    are level k, each level nonempty.  Returns [pair, level].

    Each site multiplies its prefixes' entry matrices in one batched
    matmul; only the rows of the traced levels are carried, and the last
    site forms only the diagonal."""
    _, steps = plan
    rows, size = levels[-1], m.shape[-1]
    entries = m.reshape(-1, size, size)
    acc = np.eye(size, dtype=m.dtype)[None, :rows]
    *inner, (parent, code) = steps
    for up, key in inner:
        acc = np.matmul(acc[up], entries[key])
    diag = np.einsum("pab,pba->pa", acc[parent], entries[code][:, :, :rows])
    return np.add.reduceat(diag, levels[:-1], axis=1)
