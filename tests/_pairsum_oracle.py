"""Oracles of the ball pair sums.

``ball_pair_sum_per_block`` evaluates a pair plan block by block: every
leaf block builds its in-ball mask from the vertex coordinates, and every
block is summed with the same sub-block split and the same numpy operations
the library's class-mask evaluator uses.  The library sums full blocks in
one of three forms: prefix moments at p = 2, sorted prefix power sums at an
integer p >= 3, tiles at a non-integer p.  So the two results are equal bit
for bit at p = 2, at a non-integer p and on every leaf class, and at an
integer p >= 3 agree within rounding; ``matches_per_block`` states that
rule.  Bit-equality holds also where the library sums K blocks' |d|^p at
once, by one ``np.einsum("ij,kijf->kf", ...)`` (or a sum over axes 1 and
2 without a mask), against this module's one einsum per block.  That was
checked on numpy 2.4.6 over l = 3 at m = 5, alternating(3, 5) at m = 4
and (5, 3) at m = 3, the ramp and ``random_affine(seed 3)``, n <= 3,
leaf_max 64, 256 and 1024, F = 1 and 3: every sum at p = 2, 2.5 and 1.5
equals this module's bit for bit, and every sum at p = 2, 3, 4, 2.5 and
1.5 equals the one-block-per-call tiles the batches replaced.  ``ball_rows_double_loop`` is a pure-Python double loop over every
vertex pair, the reference of the library's tiled brute-force route, and of
``ball_row_stats``, the same rows by the route's tiles (the per-vertex ball
means of the empirical estimator of Phi).
``cell_layouts`` partitions the cells of every depth by the coordinates of
the vertices they own, the reference of the pair index's layout types.
"""

from __future__ import annotations

import numpy as np

from vicsek_lab.energy import _abs_pow
from vicsek_lab.geometry import _cell_centers
from vicsek_lab.pairsum import _CHUNK, _LEAF_MAX, _ball_tiles, pair_plan


def ball_pair_sum_per_block(level, values, p, n: int, leaf_max: int = _LEAF_MAX):
    """Float pair sum over the plan of (level, n), one block at a time."""
    plan = pair_plan(level, n, leaf_max)
    vs = np.asarray(values, dtype=np.float64)
    squeeze = vs.ndim == 1
    if squeeze:
        vs = vs[:, None]
    pf = float(p)
    F = vs.shape[1]
    coords = tuple(level.coords.T.astype(np.int64))
    if pf == 2.0:
        P1 = np.zeros((vs.shape[0] + 1, F))
        P2 = np.zeros_like(P1)
        np.cumsum(vs, axis=0, out=P1[1:])
        np.cumsum(vs * vs, axis=0, out=P2[1:])
    is_leaf = plan.leaf_class >= 0
    total = np.zeros(F)
    step = max(1, _CHUNK // (4 * F))
    for s in range(0, len(plan.blocks), step):
        blocks = plan.blocks[s : s + step]
        leaf = is_leaf[s : s + step]
        terms = np.zeros((len(blocks), F))
        pairwise = leaf if pf == 2.0 else np.ones_like(leaf)
        if pf == 2.0:
            loa, hia, lob, hib, w = blocks[~leaf].T
            Sa = P1[hia] - P1[loa]
            Sb = P1[hib] - P1[lob]
            Qa = P2[hia] - P2[loa]
            Qb = P2[hib] - P2[lob]
            cnta = (hia - loa)[:, None]
            cntb = (hib - lob)[:, None]
            terms[~leaf] = w[:, None] * (cntb * Qa - 2.0 * Sa * Sb + cnta * Qb)
        for row in np.flatnonzero(pairwise).tolist():
            xy = coords if leaf[row] else None
            terms[row] = _pair_block(vs, xy, plan.radius2, pf, *blocks[row].tolist())
        terms[0] += total
        total = terms.cumsum(axis=0)[-1]
    return float(total[0]) if squeeze else total


def matches_per_block(got, want, p) -> bool:
    """Whether a float sum equals ``ball_pair_sum_per_block``'s: bit for
    bit, or within rel 1e-13 at an integer p >= 3, whose full blocks the
    library sums from sorted prefix power sums instead of pair by pair."""
    if float(p).is_integer() and p >= 3:
        return np.allclose(got, want, rtol=1e-13, atol=1e-300)
    return np.array_equal(got, want)


def _pair_block(vs, xy, R, pf, loa, hia, lob, hib, w):
    """w * sum of |v_i - v_j|^pf over one block's pairs, restricted to the
    ball when ``xy`` holds the coordinates, in sub-blocks of at most
    ``_CHUNK`` elements."""
    F = vs.shape[1]
    cols = max(1, min(hib - lob, _CHUNK // F))
    rows = max(1, _CHUNK // (cols * F))
    out = np.zeros(F)
    for j0 in range(lob, hib, cols):
        j1 = min(j0 + cols, hib)
        vb = vs[j0:j1]
        for i0 in range(loa, hia, rows):
            i1 = min(i0 + rows, hia)
            va = vs[i0:i1]
            mask = None
            if xy is not None:
                xs, ys = xy
                dx = xs[i0:i1, None] - xs[None, j0:j1]
                dy = ys[i0:i1, None] - ys[None, j0:j1]
                dx *= dx
                dy *= dy
                dx += dy
                mask = dx <= R
                if not mask.any():
                    continue
                if pf == 2.0:
                    # masked sum of (vi - vj)^2 via matrix products
                    M = mask.astype(np.float64)
                    out += M.sum(axis=1) @ (va * va) + M.sum(axis=0) @ (vb * vb)
                    out -= 2.0 * (va * (M @ vb)).sum(axis=0)
                    continue
            dv = va[:, None, :] - vb[None, :, :]
            _abs_pow(dv, pf)
            if mask is None:
                out += dv.sum(axis=(0, 1))
            else:
                out += np.einsum("ij,ijf->f", mask, dv)
    return w * out


def ball_rows_double_loop(level, values, p, n: int):
    """Per-vertex ball counts and row sums of |v_i - v_j|^p over the pairs
    (i, j) in the open ball of radius rho_n, by a pure-Python double loop
    with the predicate (dx^2 + dy^2) L_n^2 < 8 L_m^2 in Python ints.
    ``values`` is a list of ints (exact sums) or floats."""
    Ln = level.ratios.length_product(n)
    T = 8 * level.L * level.L
    xy = level.coords.tolist()
    counts, sums = [], []
    for (xi, yi), vi in zip(xy, values):
        count, total = 0, 0
        for (xj, yj), vj in zip(xy, values):
            if ((xi - xj) ** 2 + (yi - yj) ** 2) * Ln * Ln < T:
                count += 1
                total += abs(vi - vj) ** p
        counts.append(count)
        sums.append(total)
    return counts, sums


def ball_row_stats(level, values, p, n: int):
    """Per-vertex ball counts and |du|^p row sums over the brute-force
    route's tiles, in float."""
    vals = np.asarray(values, dtype=np.float64)
    counts = np.zeros(level.num_vertices, dtype=np.int64)
    sums = np.zeros(level.num_vertices)
    for i0, j0, mask in _ball_tiles(level, n, 1):
        i1 = i0 + mask.shape[0]
        dv = np.abs(vals[i0:i1, None] - vals[None, j0 : j0 + mask.shape[1]]) ** float(p)
        counts[i0:i1] += mask.sum(axis=1)
        sums[i0:i1] += (dv * mask).sum(axis=1)
    return counts, sums


def cell_layouts(level) -> np.ndarray:
    """Layout id of every cell (k, i), k = 0..m, in the pair index's row
    order: level by level, cells in word order.  Cell (k, i) owns the
    vertices whose owner cell descends from it, taken in id order; two
    cells share an id iff they are of one level and their vertices have
    equal coordinates relative to their centers."""
    ratios = level.ratios
    ids, out = {}, []
    for k in range(level.n + 1):
        num_k = ratios.num_words(k)
        anc = level.owner_word // (level.num_cells // num_k)
        order = np.argsort(anc, kind="stable")
        centers = _cell_centers(ratios, k) * (level.L // ratios.length_product(k))
        rel = level.coords[order] - centers[anc[order]]
        cells = np.split(rel, np.searchsorted(anc[order], np.arange(1, num_k)))
        out += [ids.setdefault((k, c.tobytes()), len(ids)) for c in cells]
    return np.array(out)


def same_partition(a, b) -> bool:
    """Whether two labellings of the same items group them alike."""
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
    return len(set(zip(a, b))) == len(set(a)) == len(set(b))
