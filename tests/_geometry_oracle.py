"""Reference geometry builder: plain dicts, tuples and a deque.

This is the level build and the transition maps as they were written before
the library build was vectorised, kept as an independent oracle for the
differential tests. It walks the 5 slots of every cell through a dict of
packed coordinates, numbers vertices in order of first appearance, runs a
FIFO breadth-first search from the origin, and looks every refined point up
in the dict. It is slow (pure Python per slot and per point) and meant for
small levels only.

``path_vertices`` and ``vertex_id_at`` are plain walks over a library level
or hierarchy, for the tests that check a path or a restriction vertex by
vertex; ``neighbors`` and ``true_distance_sq`` read a level's parent array
and a point's exact coordinates.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from vicsek_lab.errors import ScaleMismatchError
from vicsek_lab.ratios import RatioSequence
from vicsek_lab.words import enumerate_letters, letter_offset

SLOT_DX = (0, 1, -1, -1, 1)
SLOT_DY = (0, 1, 1, -1, -1)


def cell_centers(ratios: RatioSequence, n: int) -> list[tuple[int, int]]:
    """Scaled centers of all level-n cells in lexicographic word order."""
    centers = [(0, 0)]
    for k in range(1, n + 1):
        l = ratios.ratio(k)
        offsets = [letter_offset(s) for s in enumerate_letters(l)]
        centers = [(cx * l + ox, cy * l + oy) for cx, cy in centers for ox, oy in offsets]
    return centers


def oracle_level(ratios: RatioSequence, n: int) -> SimpleNamespace:
    """Every array of the level-n graph, plus its coordinate -> id dict."""
    L = ratios.length_product(n)
    coord_to_id: dict[tuple[int, int], int] = {}
    xs: list[int] = []
    ys: list[int] = []
    owner: list[int] = []
    mult: list[int] = []
    cells: list[list[int]] = []
    for w, (cx, cy) in enumerate(cell_centers(ratios, n)):
        row = []
        for slot in range(5):
            pt = (cx + SLOT_DX[slot], cy + SLOT_DY[slot])
            vid = coord_to_id.get(pt)
            if vid is None:
                vid = len(xs)
                coord_to_id[pt] = vid
                xs.append(pt[0])
                ys.append(pt[1])
                owner.append(w)
                mult.append(1)
            else:
                mult[vid] += 1
            row.append(vid)
        cells.append(row)

    V = len(xs)
    adj: list[list[int]] = [[] for _ in range(V)]
    for row in cells:  # CSR order: every center -> corner pair, then the reverses
        for j in range(1, 5):
            adj[row[0]].append(row[j])
    for row in cells:
        for j in range(1, 5):
            adj[row[j]].append(row[0])

    origin = coord_to_id[(0, 0)]
    depth = [-1] * V
    parent = [-1] * V
    depth[origin] = 0
    queue = deque([origin])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if depth[u] < 0:
                depth[u] = depth[v] + 1
                parent[u] = v
                queue.append(u)
    assert min(depth) >= 0

    tails: list[int] = []
    heads: list[int] = []
    for row in cells:
        for j in range(1, 5):
            a, b = row[0], row[j]
            assert abs(depth[a] - depth[b]) == 1
            tails.append(a if depth[a] < depth[b] else b)
            heads.append(b if depth[a] < depth[b] else a)

    as_array = lambda xs: np.asarray(xs, dtype=np.int64)  # noqa: E731
    return SimpleNamespace(
        coords=np.column_stack((as_array(xs), as_array(ys))).reshape(-1, 2),
        owner_word=as_array(owner),
        multiplicity=as_array(mult),
        cell_vertices=as_array(cells).reshape(-1, 5),
        depth=as_array(depth),
        parent=as_array(parent),
        edge_tail=as_array(tails),
        edge_head=as_array(heads),
        origin=origin,
        adj=adj,
        coord_to_id=coord_to_id,
    )


def oracle_transition(coarse: SimpleNamespace, fine: SimpleNamespace, l: int):
    """(lift, interior, hang, hang_waves) of the refinement coarse -> fine."""
    lookup = fine.coord_to_id
    lift = [lookup[(int(x) * l, int(y) * l)] for x, y in coarse.coords]
    interior = []
    for t, h in zip(coarse.edge_tail.tolist(), coarse.edge_head.tolist()):
        (tx, ty), (hx, hy) = coarse.coords[t].tolist(), coarse.coords[h].tolist()
        interior.append(
            [lookup[(tx * l + i * (hx - tx), ty * l + i * (hy - ty))] for i in range(1, l)]
        )

    # multi-source BFS from every valued vertex, ascending id; first discoverer wins
    seen = [False] * len(fine.adj)
    for v in lift:
        seen[v] = True
    for row in interior:
        for v in row:
            seen[v] = True
    queue = deque((v, 0) for v in range(len(seen)) if seen[v])
    hang: list[tuple[int, int]] = []
    dists: list[int] = []
    while queue:
        v, d = queue.popleft()
        for u in fine.adj[v]:
            if not seen[u]:
                seen[u] = True
                hang.append((u, v))
                dists.append(d + 1)
                queue.append((u, d + 1))
    waves = []
    start = 0
    for i in range(1, len(dists) + 1):
        if i == len(dists) or dists[i] != dists[i - 1]:
            waves.append((start, i))
            start = i
    return (
        np.asarray(lift, dtype=np.int64),
        np.asarray(interior, dtype=np.int64).reshape(-1, l - 1),
        np.asarray(hang, dtype=np.int64).reshape(-1, 2),
        waves,
    )


def path_vertices(level, a: int, b: int) -> list[int]:
    """Vertex ids along the tree path from a to b, inclusive, of a library
    level: both ends climb its parent array to their common ancestor."""
    up_a = [a]
    up_b = [b]
    da, db = int(level.depth[a]), int(level.depth[b])
    while da > db:
        a = int(level.parent[a])
        da -= 1
        up_a.append(a)
    while db > da:
        b = int(level.parent[b])
        db -= 1
        up_b.append(b)
    while a != b:
        a = int(level.parent[a])
        b = int(level.parent[b])
        up_a.append(a)
        up_b.append(b)
    return up_a + up_b[::-1][1:]


def vertex_id_at(hier, k_from: int, vid: int, k_to: int) -> int:
    """The id at level k_to of vertex ``vid`` of level k_from, through the
    library's lift maps one level at a time."""
    for k in range(k_from, k_to):
        vid = int(hier.lift_ids(k)[vid])
    return vid


def neighbors(level, vid: int) -> np.ndarray:
    """Ids adjacent to ``vid`` in a library level's tree, ascending."""
    adjacent = level.parent == vid
    if level.parent[vid] >= 0:
        adjacent[level.parent[vid]] = True
    return np.flatnonzero(adjacent)


def true_distance_sq(a, b, ratios: RatioSequence) -> Fraction:
    """Exact squared Euclidean distance of two lattice points of one level."""
    if a.level != b.level:
        raise ScaleMismatchError(f"points at levels {a.level} and {b.level}; rescale first")
    dx, dy = a.x - b.x, a.y - b.y
    L = ratios.length_product(a.level)
    return Fraction(dx * dx + dy * dy, 2 * L * L)
