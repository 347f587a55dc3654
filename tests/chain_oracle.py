"""Chain strings spelled out: the decoding of the int codes both twins
use for a chain string, the contraction plan built by a dict walk over
spelled string pairs, the reference for `dynamical.contraction_plan`,
the dense graded trace over that plan, and the level-block contraction
in its prefix-major layout: the references for
`dynamical.block_graded_trace`."""

import math
from functools import partial

import numpy as np

from elliptic_baxter.dynamical import _BATCH_ITEMS, _block_layout, _poly_product, cmatmul


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


def prefix_major_trace(values: np.ndarray, slots, levels, plan: tuple,
                       traced: int, where) -> np.ndarray:
    """`dynamical.block_graded_trace` in its former, prefix-major layout:
    the same arguments, plan, level blocks, batches, products and
    diagonal, with the entry blocks stored per row of values as [(row,
    key), level + 1, row, col] and each prefix carried as [prefix, point,
    level, rows, cols], so a site gathers its blocks with one index per
    prefix, point and level.  The reference that the point-inner layout
    must match bit for bit."""
    _, steps = plan
    index, shift, shape = _block_layout(
        tuple(np.asarray(slots).tolist()), tuple(np.asarray(levels).tolist()))
    # polynomial entries lead every array with their c axis: pre indexes past it
    coeffs = values.shape[2:]
    exact, pre = bool(coeffs), (slice(None),) * len(coeffs)
    entries = np.zeros((*coeffs, len(values), math.prod(shape)), dtype=values.dtype)
    entries[..., index] = np.moveaxis(values, range(2, values.ndim), range(len(coeffs)))
    entries = entries.reshape(*coeffs, -1, *shape[1:])
    if exact:
        # only the coefficients some entry holds; a prefix of l sites is
        # zero past the coefficient l * step, so it holds no more
        span = np.flatnonzero(values.any(axis=(0, 1))).tolist()
        entries, step = entries[span], max(span, default=0)
        block = np.multiply if shape[-1] == 1 else np.matmul
    rows = 4 * np.asarray(where).T  # [grid point, point]: 4 times the row
    batch = max(1, _BATCH_ITEMS // (rows.shape[1] * traced * shape[-1] ** 2
                                    * math.prod(coeffs)))
    level, top = np.arange(traced), shape[1] - 2
    height = int(np.diff(np.asarray(levels)[:traced + 1]).max())  # rows of a prefix block

    def blocks(code, drift):  # [(c,) prefix, point, level]: the entry blocks at k - drift, or zero
        at = np.minimum(np.maximum(level - drift[:, None], -1), top) + 1
        return entries[(*pre, (rows[code // 4] + code[:, None] % 4)[..., None], at[:, None])]

    # the empty prefix (D = 0) is the identity: site 0's prefixes are its entry blocks
    acc = np.zeros((1,) * len(coeffs) + (1, 1, 1, height, shape[-1]), dtype=values.dtype)
    acc[(0,) * (len(coeffs) + 3)] = np.eye(shape[-1], dtype=values.dtype)[:height]
    drift = np.zeros(1, dtype=int)
    *inner, (parent, code) = steps
    for site, (up, key) in enumerate(inner):
        held = tuple(min(c, (site + 1) * step + 1) for c in coeffs)
        nxt = np.empty((*held, len(up), *rows.shape[1:], traced, height, shape[-1]),
                       values.dtype)
        for lo in range(0, len(up), batch):
            b = slice(lo, lo + batch)
            e = blocks(key[b], drift[up[b]])
            if exact:
                _poly_product(block, acc[:, up[b]], e, nxt[:, b], span)
            elif site:
                cmatmul(acc[up[b]], e, out=nxt[b])
            else:
                nxt[b] = e[..., :height, :]
        acc, drift = nxt, drift[up] + shift[key % 4]
    diag = np.empty((*coeffs, len(parent), *rows.shape[1:], traced), dtype=values.dtype)
    trace = partial(np.einsum, "...ab,...ba->...")
    for lo in range(0, len(parent), batch):
        b = slice(lo, lo + batch)
        e = blocks(code[b], drift[parent[b]])[..., :height]
        if exact:
            _poly_product(trace, acc[:, parent[b]], e, diag[:, b], span)
        else:
            diag[b] = trace(acc[parent[b]], e)
    diag[(*pre, drift[parent] + shift[code % 4] != 0)] = 0
    return np.moveaxis(diag, range(len(coeffs)), range(-len(coeffs), 0)).swapaxes(0, 1)
