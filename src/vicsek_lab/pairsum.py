"""Ball-restricted pair sums over level vertices.

Computes S = sum over ordered vertex pairs (x, y) with d(x, y) < rho_n of
|u(x) - u(y)|^p, the kernel behind every discrete Besov functional.  Two
routes are provided:

* a brute-force pass over every vertex pair in tiles, the oracle, kept
  deliberately simple;
* a cell-tree route in two parts.  A geometry-only dual-tree traversal
  builds a ``PairPlan`` for (level, n): vertices are grouped by the cell
  that first created them (an ownership partition), cells form nested
  axis-aligned squares on the scaled lattice, and square-vs-square distance
  bounds classify cell pairs as all-in (full blocks), all-out (pruned), or
  straddling (split, down to leaf blocks whose pairs are tested one by
  one).  Ratios depend only on depth, so a leaf block's in-ball mask
  depends only on the vertex layouts of its two cells and their offset:
  the plan groups leaf blocks into classes with one mask each.  The plan is
  cached on the level and shared by every value vector and both
  arithmetics.  One evaluator sums the blocks in either arithmetic.  Full
  blocks take one of three forms: p = 2 as one gather over prefix moments,
  an integer p >= 3 from sorted prefix power sums, one distinct B piece at
  a time (``_sorted_sums``), a non-integer p in tiles over sub-blocks.  Leaf
  blocks go class by class, K blocks at a time, as tiled full blocks do.
  No float temporary holds more than ``_CHUNK`` elements, so memory is
  bounded for every p.  Block sums are added in the plan's depth-first
  order, which keeps float results fixed; they equal the per-block
  oracle's bit for bit at p = 2, at a non-integer p and on every leaf
  class, and agree within rounding on the full blocks of an integer
  p >= 3.  The ``Arithmetic`` supplies the |d|^p sums of K blocks.

``ball_pair_sum_indexed`` takes the cell tree; the oracle is
``ball_pair_sum_bruteforce``.  Every route takes the ``Arithmetic`` its
values are held in.

All geometric predicates are exact integer comparisons, by the one
open-ball rule ``geometry.radius2``: at scale m the pair (x, y) qualifies
iff dx^2 + dy^2 <= radius2(L_m, rho_n).
In exact arithmetic values are integers over a common denominator and the
kernel returns an integer, so the result is independent of summation order
and can be compared bit-for-bit against the brute-force oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import _CHUNK, Arithmetic
from .errors import InvalidArgumentError, ScaleMismatchError
from .geometry import VicsekLevel, _cell_centers, radius2, square_vs_disk
from .words import arm_letter

_LEAF_MAX = 256


class CellPairIndex:
    """The cells of one level at every depth, over the level's vertex ids.

    Vertex ids follow first appearance cell by cell, so ``owner_word``
    never decreases and the vertices owned below cell (k, i) are one id
    range.  The cell is row ``start[k] + i`` of the flat per-cell tables:
    its scaled center, its id range [lo, hi) and its layout type.  Cells
    meet only at corners, so a cell owns every point of its subtree but
    the corners that earlier cells own, in the order its subtree first
    meets them.  Two cells of one level thus own the same coordinates
    relative to their centers, in the same order, iff the same corners of
    theirs are owned by earlier cells; the type is 16 k plus that mask.
    """

    def __init__(self, level: VicsekLevel):
        self.level = level
        ratios = level.ratios
        m = self.max_level = level.n
        owner = level.owner_word
        counts = [ratios.num_words(k) for k in range(m + 1)]
        self.start = np.cumsum([0] + counts)[:-1]
        self.lo, self.hi, self.cx, self.cy, self.cell_type = (
            np.zeros(sum(counts), dtype=np.int64) for _ in range(5)
        )
        self.half = np.array([level.L // ratios.length_product(k) for k in range(m + 1)])
        self.children = np.array([2 * ratios.ratio(k) - 1 for k in range(1, m + 1)] + [0])
        # corner j of cell (k, i) is slot j of its level-m descendant
        # i * stride + corner[j - 1], which takes the outermost arm-j child
        # at every depth t > k
        stride, corner = 1, np.zeros(4, dtype=owner.dtype)
        for k in range(m, -1, -1):
            rows = slice(self.start[k], self.start[k] + counts[k])
            # owner's dtype: counts[k] * stride is the level's cell count
            first = np.arange(counts[k] + 1, dtype=owner.dtype) * stride
            ids = np.searchsorted(owner, first)
            self.lo[rows], self.hi[rows] = ids[:-1], ids[1:]
            first = first[:-1]
            mask = self.cell_type[rows]
            for j in range(4):  # bit j: corner j + 1 is owned by an earlier cell
                mask += (owner[level.cell_vertices[first + corner[j], j + 1]] < first) << j
            size = np.zeros(16, dtype=np.int64)
            size[mask] = own = np.diff(ids)
            if not np.array_equal(size[mask], own):
                raise AssertionError("cells of one layout type own different vertex counts")
            mask += 16 * k
            centers = _cell_centers(ratios, k)
            self.cx[rows] = centers[:, 0] * self.half[k]
            self.cy[rows] = centers[:, 1] * self.half[k]
            if k:
                l = ratios.ratio(k)
                corner += arm_letter(l, np.arange(1, 5), (l - 1) // 2) * stride
                stride *= 2 * l - 1


def _row_ids(*cols: np.ndarray) -> np.ndarray:
    """Ids 0..K-1 of the distinct rows of equal-length integer columns."""
    ids = np.unique(cols[0], return_inverse=True)[1]
    for col in cols[1:]:
        ids *= ids.size + 1
        ids += np.unique(col, return_inverse=True)[1]
        ids = np.unique(ids, return_inverse=True)[1]
    return ids


def _pair_index(level: VicsekLevel) -> CellPairIndex:
    idx = getattr(level, "_pair_index_cache", None)
    if idx is None:
        idx = CellPairIndex(level)
        level._pair_index_cache = idx
    return idx


# ---------------------------------------------------------------------------
# brute force (oracle)
# ---------------------------------------------------------------------------


def ball_pair_sum_bruteforce(level: VicsekLevel, values, p, n: int, arith: Arithmetic):
    """Every ordered vertex pair, tile by tile, on values held in ``arith``:
    ``(den, ints)`` for EXACT, a float64 array (or F columns) for FLOAT.

    EXACT returns the integer sum of |di - dj|^p over qualifying pairs
    (denominators are applied by the caller), in int64 while every
    |di - dj|^p fits it and in Python ints past that; FLOAT returns a float.
    It uses no plan, cell tree or shared power sum, so it checks the
    cell-tree route independently.
    """
    p = arith.exponent(p)
    vals, squeeze, _ = arith._pair_values(values, p)
    total = np.zeros(vals.shape[1], dtype=arith._term_dtype)
    for i0, j0, mask in _ball_tiles(level, n, vals.shape[1]):
        d = vals[i0 : i0 + mask.shape[0], None] - vals[None, j0 : j0 + mask.shape[1]]
        total += arith._ball_total(mask, np.abs(d) ** p)
    return total.tolist()[0] if squeeze else total


def _ball_tiles(level: VicsekLevel, n: int, F: int):
    """(i0, j0, mask) over tiles of the V x V vertex pairs, whole rows when
    they fit, each of at most ``_CHUNK`` elements over F columns; ``mask``
    marks the tile's pairs in the open ball of radius rho_n."""
    if not 0 <= n <= level.n:
        raise ScaleMismatchError(f"radius index {n} invalid for level {level.n} vertices")
    R = radius2(level.L, level.ratios.rho(n))
    xs = level.coords[:, 0].astype(np.int64)
    ys = level.coords[:, 1].astype(np.int64)
    V = level.num_vertices
    cols = max(1, min(V, _CHUNK // F))
    rows = max(1, _CHUNK // (cols * F))
    for i0 in range(0, V, rows):
        for j0 in range(0, V, cols):
            dx = xs[i0 : i0 + rows, None] - xs[None, j0 : j0 + cols]
            dy = ys[i0 : i0 + rows, None] - ys[None, j0 : j0 + cols]
            yield i0, j0, dx * dx + dy * dy <= R


# ---------------------------------------------------------------------------
# cell-tree route: geometry-only plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PairPlan:
    """The blocks of one (level, n) pair sum, independent of the values.

    Each row of ``blocks`` is (lo_a, hi_a, lo_b, hi_b, weight): the ordered
    pairs between vertex id ranges [lo_a, hi_a) and [lo_b, hi_b), counted
    ``weight`` times.  Every pair of a full block lies in the ball; a pair
    of a leaf block lies in it iff dx^2 + dy^2 <= radius2, which is
    ``geometry.radius2`` of rho_n.  ``leaf_class`` is -1 on full blocks and
    a class id on leaf blocks: blocks of one class join cells of the same
    two layout types at the same center offset, so they share one in-ball
    mask.  Rows are in depth-first traversal order, the order float
    evaluation sums them in.
    """

    blocks: np.ndarray
    leaf_class: np.ndarray
    radius2: int


def pair_plan(level: VicsekLevel, n: int, leaf_max: int = _LEAF_MAX) -> PairPlan:
    """The plan for (level, n), built on first use and cached on the level."""
    cache = getattr(level, "_pair_plan_cache", None)
    if cache is None:
        cache = level._pair_plan_cache = {}
    plan = cache.get((n, leaf_max))
    if plan is None:
        if not 0 <= n <= level.n:
            raise ScaleMismatchError(f"radius index {n} invalid for level {level.n} vertices")
        plan = _build_plan(_pair_index(level), radius2(level.L, level.ratios.rho(n)), leaf_max)
        cache[(n, leaf_max)] = plan
    return plan


_OPEN, _FULL, _LEAF = 0, 1, 2


def _build_plan(idx: CellPairIndex, R: int, leaf_max: int) -> PairPlan:
    """Dual-tree traversal of cell pairs, one tree depth per numpy pass.

    The frontier holds cell pairs (ka, ia, kb, ib) with weight w; the
    unordered pair {A, B} with A != B stands for both orders.  An open pair
    is pruned (no pair in the ball, or an empty cell), closed as a full or
    leaf block, or replaced in place by its children: all child pairs of a
    self pair, else the children of its larger non-leaf side.  Closed blocks
    stay in place, so the final frontier is in depth-first order; children
    are laid out in the order a last-in-first-out stack visits them.
    """
    c = idx.children
    z = np.zeros(1, dtype=np.int64)
    ka, ia, kb, ib, w = z, z, z, z, z + 1
    kind = np.full(1, _OPEN, dtype=np.int8)
    while True:
        op = np.flatnonzero(kind == _OPEN)
        if not op.size:
            break
        a = idx.start[ka[op]] + ia[op]
        b = idx.start[kb[op]] + ib[op]
        hh = idx.half[ka[op]] + idx.half[kb[op]]
        near, inside = square_vs_disk(idx.cx[a] - idx.cx[b], idx.cy[a] - idx.cy[b], hh, R)
        sa = idx.hi[a] - idx.lo[a]
        sb = idx.hi[b] - idx.lo[b]
        near &= (sa > 0) & (sb > 0)
        inside &= near
        a_leaf = (ka[op] == idx.max_level) | (sa <= leaf_max)
        b_leaf = (kb[op] == idx.max_level) | (sb <= leaf_max)
        at_leaf = near & ~inside & a_leaf & b_leaf
        split = near & ~inside & ~at_leaf
        same = split & (a == b)
        split_a = split & ~same & ~a_leaf & (b_leaf | (sa >= sb))
        split_b = split & ~same & ~split_a
        kind[op[inside]] = _FULL
        kind[op[at_leaf]] = _LEAF
        ca = c[ka[op]]
        count = np.ones(ka.size, dtype=np.int64)
        count[op] = np.select(
            [~near, same, split_a, split_b],
            [0, ca * (ca + 1) // 2, ca, c[kb[op]]],
            1,
        )
        how = np.zeros(ka.size, dtype=np.int8)  # 1 self, 2 a, 3 b split
        how[op] = np.select([same, split_a, split_b], [1, 2, 3], 0)
        src = np.repeat(np.arange(ka.size), count)
        rank = np.arange(src.size) - np.repeat(np.cumsum(count) - count, count)
        ka, ia, kb, ib, w, kind, how = (
            x[src] for x in (ka, ia, kb, ib, w, kind, how)
        )
        s = how == 1
        # child pairs (i, j), i <= j, of a self pair in visiting order: rank
        # r = t (t + 1) / 2 + u, 0 <= u <= t, is (c - 1 - t, c - 1 - u)
        r = rank[s]
        t = ((np.sqrt(8 * r + 1) - 1) // 2).astype(np.int64)
        t -= t * (t + 1) // 2 > r
        t += (t + 1) * (t + 2) // 2 <= r
        u = r - t * (t + 1) // 2
        base = (ia[s] + 1) * c[ka[s]] - 1
        ia[s] = base - t
        ib[s] = base - u
        w[s] *= np.where(t == u, 1, 2)
        ka[s] += 1
        kb[s] += 1
        s = how == 2
        ia[s] = (ia[s] + 1) * c[ka[s]] - 1 - rank[s]
        ka[s] += 1
        s = how == 3
        ib[s] = (ib[s] + 1) * c[kb[s]] - 1 - rank[s]
        kb[s] += 1
    a = idx.start[ka] + ia
    b = idx.start[kb] + ib
    blocks = np.stack((idx.lo[a], idx.hi[a], idx.lo[b], idx.hi[b], w), axis=1, dtype=np.int32)
    leaf = kind == _LEAF
    a, b = a[leaf], b[leaf]
    leaf_class = np.full(kind.size, -1, dtype=np.int32)
    leaf_class[leaf] = _row_ids(
        idx.cell_type[a], idx.cell_type[b], idx.cx[a] - idx.cx[b], idx.cy[a] - idx.cy[b]
    )
    return PairPlan(blocks, leaf_class, R)


# ---------------------------------------------------------------------------
# cell-tree route: evaluator
# ---------------------------------------------------------------------------


def ball_pair_sum_indexed(
    level: VicsekLevel, values, p, n: int, arith: Arithmetic, leaf_max: int = _LEAF_MAX
):
    """Cell-tree pair sum; same contract as the brute-force route.

    Identical summands, different organization: the plan takes closed forms
    or plain sums on fully-inside blocks, and only tests pairs near the
    critical sphere.  At p != 2 every tile holds at least one pair's F
    columns in a buffer of ``_CHUNK`` elements, so F may be at most
    ``_CHUNK`` there; p = 2 and the brute-force route take any F >= 1.
    """
    plan = pair_plan(level, n, leaf_max)
    idx = _pair_index(level)
    vals, squeeze, top = arith._pair_values(values)
    p, F = arith.exponent(p), vals.shape[1]
    if p != 2 and F > _CHUNK:
        raise InvalidArgumentError(f"pair sums at p != 2 take F <= {_CHUNK} columns, got F = {F}")
    total = _evaluate(plan, idx, vals, p, arith, top)
    return total.tolist()[0] if squeeze else total


def _evaluate(plan: PairPlan, idx: CellPairIndex, vs: np.ndarray, p, arith: Arithmetic, top):
    """Sum over the plan's blocks of values ``vs``, one column per vector.

    Each block's sum goes to its row of ``terms``.  Full blocks take one of
    three forms: at p = 2 prefix moments in chunks of rows, at an integer
    p >= 3 ``_sorted_sums`` over sorted B sides, at a non-integer p tiles
    over the block's sub-blocks.  Leaf classes, from one mask built once per
    call, and tiled full blocks go through ``_class_sums`` (``top`` is max
    |v|), where ``arith`` sums the |d|^p of K blocks; the rows are added up
    one by one in plan order, in place, in either arithmetic.
    """
    F = vs.shape[1]
    terms = np.zeros((len(plan.blocks), F), dtype=arith._term_dtype)
    full = np.flatnonzero(plan.leaf_class < 0)
    groups = _class_rows(plan.leaf_class)  # then each full block summed in tiles
    if p == 2:
        v = vs.astype(terms.dtype, copy=False)
        P1 = np.zeros((v.shape[0] + 1, F), dtype=terms.dtype)
        P2 = np.zeros_like(P1)
        np.cumsum(v, axis=0, out=P1[1:])
        np.cumsum(v * v, axis=0, out=P2[1:])
        step = max(1, _CHUNK // (4 * F))
        for s in range(0, full.size, step):
            rows = full[s : s + step]
            loa, hia, lob, hib, w = plan.blocks[rows].T
            Sa = P1[hia] - P1[loa]
            Sb = P1[hib] - P1[lob]
            Qa = P2[hia] - P2[loa]
            Qb = P2[hib] - P2[lob]
            cnta = (hia - loa)[:, None]
            cntb = (hib - lob)[:, None]
            terms[rows] = w[:, None] * (cntb * Qa - 2 * Sa * Sb + cnta * Qb)
        del v, P1, P2
    elif float(p).is_integer():  # p >= 3, as p > 1
        terms[full] = _sorted_sums(vs, plan.blocks[full], int(p), top)
        terms[full] *= plan.blocks[full, 4:]  # in Python ints in exact
    else:
        groups += list(full[:, None])
    buf = np.empty(_CHUNK, dtype=vs.dtype)  # reused: fresh tiles re-fault pages, 2-3x slower
    for group in groups:
        blocks = plan.blocks[group]
        loa, hia, lob, hib = blocks[0, :4].tolist()
        if plan.leaf_class[group[0]] < 0:
            subs = _sub_blocks(hia - loa, hib - lob, F)
        else:
            subs = _class_mask(idx, plan.radius2, F, loa, hia, lob, hib)
        terms[group] = _class_sums(vs, subs, blocks, p, arith, top, buf)
        terms[group] *= blocks[:, 4:]  # in Python ints in exact
    return np.cumsum(terms, axis=0, out=terms)[-1]


def _class_rows(leaf_class: np.ndarray) -> list[np.ndarray]:
    """Rows of each leaf class, one ascending array per class."""
    rows = np.flatnonzero(leaf_class >= 0)
    rows = rows[np.argsort(leaf_class[rows], kind="stable")]
    return np.split(rows, np.flatnonzero(np.diff(leaf_class[rows])) + 1) if rows.size else []


def _in_ball(idx: CellPairIndex, R: int, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
    """Mask of the pairs of [i0, i1) x [j0, j1) with dx^2 + dy^2 <= R."""
    xy = idx.level.coords
    # |dx|, |dy| <= 2 (L + 1): int32 while 8 (L + 1)^2 < 2^31, int64 past it
    dtype = np.int32 if 8 * (idx.level.L + 1) ** 2 < 2**31 else np.int64
    dx = np.subtract(xy[i0:i1, None, 0], xy[None, j0:j1, 0], dtype=dtype)
    dy = np.subtract(xy[i0:i1, None, 1], xy[None, j0:j1, 1], dtype=dtype)
    dx *= dx
    dy *= dy
    dx += dy
    return dx <= R


def _sub_blocks(na: int, nb: int, F: int) -> list[tuple]:
    """(i0, i1, j0, j1, None) of the sub-blocks of an na x nb block, each of
    at most ``_CHUNK`` elements over F columns, in evaluation order; None
    stands for every pair."""
    cols = max(1, min(nb, _CHUNK // F))
    rows = max(1, _CHUNK // (cols * F))
    return [
        (i0, min(i0 + rows, na), j0, min(j0 + cols, nb), None)
        for j0 in range(0, nb, cols)
        for i0 in range(0, na, rows)
    ]


def _class_mask(idx: CellPairIndex, R: int, F: int, loa, hia, lob, hib):
    """The sub-blocks of one leaf class from a representative block, each
    with its bool in-ball mask; sub-blocks with no pair in the ball are left
    out."""
    subs = []
    for i0, i1, j0, j1, _ in _sub_blocks(hia - loa, hib - lob, F):
        mask = _in_ball(idx, R, loa + i0, loa + i1, lob + j0, lob + j1)
        if mask.any():
            subs.append((i0, i1, j0, j1, mask))
    return subs


def _class_sums(vs, subs, blocks, p, arith: Arithmetic, top, buf):
    """The sum of |v_i - v_j|^p over the in-ball pairs of each block of one
    leaf class (all pairs of a full block), unweighted, one row per block.

    Per sub-block, K blocks at a time are gathered into (K, na, F) and
    (K, nb, F) arrays of at most ``_CHUNK`` elements, summed at p = 2 as
    rows.va^2 + cols.vb^2 - 2 va.(M vb).  Ints (max |v| = ``top``) keep M vb
    in int64 while nb top < 2^63 and the sums while 4 top^2 na nb < 2^63,
    Python ints past that.  Floats are never cast, and the stacked products
    make one BLAS call per block, so each row keeps a lone block's bits.  At
    any other p ``arith`` sums the |d|^p of the K blocks' differences, which
    go into ``buf``, at most ``_CHUNK`` of them.
    """
    loa, lob = blocks[:, 0, None], blocks[:, 2, None]
    na, nb = int(blocks[0, 1] - blocks[0, 0]), int(blocks[0, 3] - blocks[0, 2])
    F = vs.shape[1]
    prod, acc = (vs.dtype if b < 2**63 else object for b in (nb * top, 4 * top * top * na * nb))
    out = np.zeros((len(blocks), F), dtype=acc if p == 2 else arith._term_dtype)
    for i0, i1, j0, j1, mask in subs:
        ia, jb = np.arange(i0, i1), np.arange(j0, j1)
        if p == 2:
            M = mask.astype(prod)
            rows = M.sum(axis=1).astype(acc)
            cols = M.sum(axis=0).astype(acc)
        # a batch's gathers (p = 2) or differences fit one tile
        K = max(1, _CHUNK // ((max(i1 - i0, j1 - j0) if p == 2 else (i1 - i0) * (j1 - j0)) * F))
        for k in range(0, len(blocks), K):
            va = vs[loa[k : k + K] + ia]
            vb = vs[lob[k : k + K] + jb]
            o = out[k : k + K]
            if p != 2:
                d = buf[: va.size * (j1 - j0)].reshape(len(va), i1 - i0, j1 - j0, F)
                o += arith._tile_sums(np.subtract(va[:, :, None], vb[:, None], out=d), p, mask)
                continue
            va = va.astype(acc, copy=False)
            o += rows @ (va * va) + cols @ np.square(vb, dtype=acc)
            o -= 2 * (va * (M @ vb.astype(prod, copy=False))).sum(axis=1)
    return out


def _sorted_sums(vs, blocks, p: int, top):
    """The sum of |v_a - v_b|^p over the pairs of each full block (A, B) at
    an integer p >= 3, unweighted, one row per block, in either arithmetic.

    B sides are cut into pieces of at most ``_CHUNK // (p + 1) - 1``
    vertices, and each distinct piece is taken once per column: its n values
    b are sorted and centred on their midrange c (its floor for ints), and
    row i of P, at most ``_CHUNK`` elements in all, holds P_i[k], the sum of
    (b - c)^i over its k smallest.  The a's of the A sides that meet it,
    ``_CHUNK // 8`` at a time, find k = #{b < a} by ``searchsorted``; with
    x = a - c, lo_i = P_i[k] and hi_i = P_i[n] - P_i[k], Horner's rule in x
    gives

        sum_b |a - b|^p = sum_i C(p, i) (-1)^i x^(p-i) (lo_i + (-1)^p hi_i).

    Ints stay in int64 while na nb (3 max|v| + 1)^p < 2^63 (``top`` is
    max |v|; that bounds every partial sum) and are Python ints past it.
    """
    loa, hia, lob, hib = blocks[:, :4].T.astype(np.int64)
    bound = int((hia - loa).max(initial=0)) * int((hib - lob).max(initial=0)) * (3 * top + 1) ** p
    acc = vs.dtype if bound < 2**63 else object
    out = np.zeros((len(blocks), vs.shape[1]), dtype=acc)
    # jobs (block, piece of its B side); distinct pieces ordered by (length, start)
    size = max(1, _CHUNK // (p + 1) - 1)
    cuts = -(-(hib - lob) // size)
    job = np.repeat(np.arange(len(blocks)), cuts)
    plo = lob[job] + (np.arange(job.size) - np.repeat(np.cumsum(cuts) - cuts, cuts)) * size
    ends = np.stack((np.minimum(plo + size, hib[job]) - plo, plo), axis=1)
    pieces, piece, count = np.unique(ends, axis=0, return_inverse=True, return_counts=True)
    users = np.split(job[np.argsort(piece.reshape(-1), kind="stable")], np.cumsum(count)[:-1])
    # C(p, i) (-1)^i for i = 0..p; lo_i + (-1)^p hi_i is lo_i -+ (P_i[n] - lo_i)
    coef = np.array([(-1) ** i * math.comb(p, i) for i in range(p + 1)], dtype=acc)
    combine, Q = np.subtract if p % 2 else np.add, _CHUNK // 8
    for (n, start), blk in zip(pieces.tolist(), users):
        last = np.cumsum(hia[blk] - loa[blk])  # a's are ranked block by block
        rank0 = np.concatenate(([0], last[:-1]))  # the rank of each block's first a
        for v, o in zip(vs.T, out.T):
            b = np.sort(v[start : start + n])
            y = b.astype(acc, copy=False)
            c = y[0] + y[-1]
            c = c / 2 if vs.dtype == np.float64 else c // 2
            P = np.zeros((p + 1, n + 1), dtype=acc)
            P[0, 1:] = 1
            np.subtract(y, c, out=P[1, 1:])
            for i in range(2, p + 1):
                np.multiply(P[i - 1, 1:], P[1, 1:], out=P[i, 1:])
            np.cumsum(P[:, 1:], axis=1, out=P[:, 1:])
            for q0 in range(0, last[-1], Q):
                q = np.arange(q0, min(q0 + Q, last[-1]))
                t = np.searchsorted(last, q, "right")
                a = v[q + (loa[blk] - rank0)[t]]  # rank q in block t is vertex q + loa - rank0
                k = np.searchsorted(b, a)
                x = a.astype(acc, copy=False) - c
                h = 0
                for P_i, c_i in zip(P, coef):  # Horner's rule
                    lo = P_i[k]
                    h = h * x + c_i * combine(lo, P_i[n] - lo)
                met = slice(t[0], t[-1] + 1)  # the blocks whose a's the chunk holds
                o[blk[met]] += np.add.reduceat(h, np.maximum(rank0[met] - q0, 0))
    return out
