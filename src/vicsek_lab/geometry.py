"""Exact finite-level geometry of a scale-irregular Vicsek set.

Coordinates are stored as integers: the level-n approximation lives on the
lattice obtained by multiplying true coordinates by sqrt(2) * L_n, where
L_n = l_1 * ... * l_n.  On this lattice every cell is an axis-aligned square
of half-side 1 centered at an even integer pair, every edge is a diagonal
step (+-1, +-1), and all distance comparisons reduce to exact integer
arithmetic: the true squared distance of two points at common scale n is
(dx^2 + dy^2) / (2 L_n^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DepthBudgetError, LevelError, LookupError_
from .ratios import RatioSequence
from .words import DIRECTION_VECTORS, arm_letter, enumerate_letters, letter_offset

DEFAULT_CELL_BUDGET = 5_000_000
# A level has at most 5 points per cell, so with this many cells every
# vertex id, cell id, coordinate and depth fits the int32 tables.
MAX_CELL_BUDGET = 400_000_000

_SLOTS = np.array(DIRECTION_VECTORS, dtype=np.int32)  # slot offsets from a cell's center


@dataclass(frozen=True)
class LatticePoint:
    """An exact point: true coordinates are (x, y) / (sqrt(2) * L_level)."""

    x: int
    y: int
    level: int


def radius2(L: int, r) -> int:
    """The one open-ball rule: the R with d(a, b) < r iff dx^2 + dy^2 <= R,
    on the lattice of scale L, for a rational r = rn / rd.  d^2 is
    (dx^2 + dy^2) / (2 L^2), so the test is (dx^2 + dy^2) rd^2 < 2 L^2 rn^2;
    for r = rho_n, R = (8 L^2 - 1) // L_n^2."""
    r = Fraction(r)
    return (2 * L * L * r.numerator**2 - 1) // r.denominator**2


def square_vs_disk(dx, dy, h, R):
    """(near, inside): whether some point, or every point, of the closed
    square of half-side h centered at (dx, dy) lies in the disk
    x^2 + y^2 <= R.  Elementwise on int64 or object arrays."""
    dx, dy = abs(dx), abs(dy)
    near = np.maximum(dx - h, 0) ** 2 + np.maximum(dy - h, 0) ** 2 <= R
    inside = (dx + h) ** 2 + (dy + h) ** 2 <= R
    return near, inside


class VicsekLevel:
    """The level-n graph: deduplicated vertices, oriented edges, cell index.

    Vertices carry integer ids; ``coords[i]`` is the scaled coordinate pair.
    Edges are stored tail -> head with the tail strictly closer to the
    origin vertex in the tree metric.  ``edge_word[e]`` is the index of the
    unique cell whose interior contains edge e (= e // 4 by construction).
    """

    def __init__(self, ratios: RatioSequence, n: int, cell_vertices: np.ndarray,
                 coords: np.ndarray, owner_word: np.ndarray, depth: np.ndarray):
        self.ratios = ratios
        self.n = n
        self.L = ratios.length_product(n)
        self.num_cells = cell_vertices.shape[0]
        self.cell_vertices = cell_vertices
        self.coords = coords
        self.owner_word = owner_word
        self.depth = depth
        V = self.num_vertices = coords.shape[0]
        # cell 0 is the all-center word, whose center is (0, 0)
        self.origin = int(cell_vertices[0, 0])

        # each cell's 4 edges join its center to its corners, tail nearer the origin
        center, corner = depth[cell_vertices[:, :1]], depth[cell_vertices[:, 1:]]
        if not np.all(np.abs(corner - center) == 1):
            raise AssertionError("orientation tie: endpoint depths do not differ by 1")
        swap = center > corner
        del center, corner
        cv = cell_vertices
        self.edge_tail = np.where(swap, cv[:, 1:], cv[:, :1]).reshape(-1)
        self.edge_head = np.where(swap, cv[:, :1], cv[:, 1:]).reshape(-1)
        del swap
        self.num_edges = 4 * self.num_cells

        # If every vertex but the origin is the head of exactly one edge, then
        # stepping to the tail lowers the depth by 1 and can only stop at the
        # origin: the graph is a tree and ``depth`` is the distance from it.
        heads = np.bincount(self.edge_head, minlength=V)
        heads[self.origin] += 1
        if depth[self.origin] != 0 or not np.all(heads == 1):
            raise AssertionError("graph is not connected")
        del heads
        self.parent = np.full(V, -1, dtype=np.int32)
        self.parent[self.edge_head] = self.edge_tail

    @property
    def multiplicity(self) -> np.ndarray:
        """Number of cells each vertex belongs to."""
        return np.bincount(self.cell_vertices.reshape(-1), minlength=self.num_vertices)

    @property
    def edge_word(self) -> np.ndarray:
        """Index of the cell whose interior contains each edge: e // 4."""
        return np.arange(self.num_edges, dtype=np.int64) // 4

    # -- lookups -----------------------------------------------------------

    def vertex_id(self, x: int, y: int) -> int:
        """The id of the vertex at scaled coordinates (x, y), found only inside
        the packing box and by an equal key, so a miss never yields a neighbour."""
        sorted_keys, ids = self._lookup
        pad = self.L + 1
        if abs(x) <= pad and abs(y) <= pad:
            key = self._pack(np.int64(x), np.int64(y))
            pos = int(np.searchsorted(sorted_keys, key))
            if pos < len(sorted_keys) and sorted_keys[pos] == key:
                return int(ids[pos])
        raise LookupError_(f"no vertex at scaled coordinates ({x}, {y})")

    def _pack(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """One int64 key per point: distinct for points with |x|, |y| <= L + 1,
        and within int64 because L <= num_cells."""
        pad = self.L + 1
        # int64 (object stays object), so int32 coordinates cannot overflow
        xs = xs.astype(np.promote_types(xs.dtype, np.int64), copy=False)
        ys = ys.astype(np.promote_types(ys.dtype, np.int64), copy=False)
        return (xs + pad) * (2 * self.L + 3) + (ys + pad)

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted vertex keys and the id of each, built on the first lookup."""
        keys = self._pack(self.coords[:, 0], self.coords[:, 1])
        order = np.argsort(keys)
        return keys[order], order

    def check_vertex_ids(self, *vids: int) -> None:
        """Raise ``LookupError_`` unless every id lies in 0..V-1."""
        for vid in vids:
            if not 0 <= vid < self.num_vertices:
                raise LookupError_(f"vertex id {vid} out of range")

    def vertex_point(self, vid: int) -> LatticePoint:
        self.check_vertex_ids(vid)
        return LatticePoint(int(self.coords[vid, 0]), int(self.coords[vid, 1]), self.n)

    # -- metrics -----------------------------------------------------------

    def path_edge_count(self, a: int, b: int) -> int:
        """Number of edges on the unique tree path between two vertices."""
        self.check_vertex_ids(a, b)
        da, db = int(self.depth[a]), int(self.depth[b])
        steps = 0
        while da > db:
            a = int(self.parent[a])
            da -= 1
            steps += 1
        while db > da:
            b = int(self.parent[b])
            db -= 1
            steps += 1
        while a != b:
            a = int(self.parent[a])
            b = int(self.parent[b])
            steps += 2
        return steps

    def geodesic_distance(self, a: int, b: int) -> Fraction:
        return Fraction(self.path_edge_count(a, b), self.L)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The level as a JSON document; arrays are written as nested lists."""
        return {
            "level": self.n,
            "ratios": list(self.ratios.prefix(self.n)),
            "length_product": self.L,
            "num_cells": self.num_cells,
            "vertices": self.coords,
            "edges": np.column_stack((self.edge_tail, self.edge_head, self.edge_word)),
            "cell_vertices": self.cell_vertices,
            "origin": int(self.origin),
            "geodesic_edge_counts": self.depth,
        }


def _cell_centers(ratios: RatioSequence, n: int) -> np.ndarray:
    """Scaled centers of all level-n cells in lexicographic word order.

    A read-only (C, 2) int64 table, cached per ratio prefix and shared by
    every caller.
    """
    return _prefix_centers(ratios.prefix(n))


@lru_cache(maxsize=64)
def _prefix_centers(prefix: tuple[int, ...]) -> np.ndarray:
    if prefix:
        l = prefix[-1]
        offsets = np.array([letter_offset(s) for s in enumerate_letters(l)], dtype=np.int64)
        centers = (_prefix_centers(prefix[:-1])[:, None] * l + offsets[None]).reshape(-1, 2)
    else:
        centers = np.zeros((1, 2), dtype=np.int64)
    centers.flags.writeable = False
    return centers


class Transition(NamedTuple):
    """How values on V_k extend to V_{k+1}.

    ``lift[i]`` is the level-(k+1) id of level-k vertex i; row e of
    ``interior`` holds the l - 1 points strictly inside coarse edge e, tail
    to head; ``hang`` has rows (vertex, parent) ordered by parent, and every
    parent is a child center on a coarse diagonal, already valued by
    ``lift`` or ``interior``, so one pass copies every hanging value.
    """

    lift: np.ndarray
    interior: np.ndarray
    hang: np.ndarray


@lru_cache(maxsize=64)
def _template(l: int) -> tuple[np.ndarray, ...]:
    """The refinement of one cell of ratio l, shared by every cell it refines.

    Its P points are the distinct points of the 5(2l - 1) child slots,
    numbered by first appearance in (child, slot) order.  Five O(l) tables:
    the point at each child slot, (2l - 1, 5); the child whose slot shows
    each point first, (P,); each point's offset from the cell's center at
    child scale, (P, 2); the segments, (4, l + 1), row j - 1 the points from
    the center to corner j; and (H, 2) rows (hanging point, its parent).
    """
    # Subcells meet only at corners: the inner corner of arm child m is the
    # outer corner of the child before it on the arm (the center child for
    # m = 1), and every other child slot is a point of its own.
    j = np.arange(1, 5)[:, None]
    m = np.arange(1, (l - 1) // 2 + 1)
    arm = arm_letter(l, j, m)
    slot = np.arange(5 * (2 * l - 1)).reshape(2 * l - 1, 5)
    twin = slot.copy()
    twin[arm, (j + 1) % 4 + 1] = slot[np.where(m > 1, arm - 1, 0), j]  # slot opposite(j)
    new = (twin == slot).reshape(-1)
    slot_point = (np.cumsum(new) - 1)[twin]
    first = np.flatnonzero(new)
    child_centers = _prefix_centers((l,))  # the level-1 centers of ratio l
    offset = (child_centers[first // 5] + _SLOTS[first % 5]).astype(np.int32)

    # Point i of the segment from the center to corner j is slot 0 of arm
    # child i/2 for even i (the center child for i = 0) and slot j of arm
    # child (i-1)/2 for odd i (the center child for i = 1).
    i = np.arange(l + 1)
    segment = slot_point[np.where(i > 1, arm_letter(l, j, i // 2), 0), np.where(i % 2, j, 0)]

    # every other point is an off-diagonal corner of an arm child, adjacent
    # only to that child's center, which lies on a diagonal
    on_diagonal = np.zeros(first.size, dtype=bool)
    on_diagonal[segment] = True
    child, corner = np.nonzero(~on_diagonal[slot_point[:, 1:]])
    hang = np.column_stack((slot_point[child, corner + 1], slot_point[child, 0]))
    if not on_diagonal[hang[:, 1]].all():
        raise AssertionError("a hanging point's parent is not on a diagonal")
    return slot_point, (first // 5).astype(np.int32), offset, segment, hang


def _refine(coarse: VicsekLevel) -> tuple[VicsekLevel, Transition]:
    """Level n + 1 and the maps n -> n + 1, in one pass over level n.

    Vertex ids follow first appearance in (coarse cell, template) order.
    Cells meet only at corners, so the points of coarse cell w are new but
    for its corners that an earlier cell owns (``owner_word < w``): a new
    point's id counts the new points before it, and an owned corner takes
    its owner's id through ``lift``.  Depths extend along the maps, and the
    level's own checks prove them the tree distance.
    """
    n = coarse.n + 1
    l = coarse.ratios.ratio(n)
    slot_point, first_child, offset, segment, hang_points = _template(l)
    C, P = coarse.num_cells, offset.shape[0]
    cv = coarse.cell_vertices
    corner = segment[:, l]

    owned = coarse.owner_word[cv[:, 1:]] < np.arange(C)[:, None]
    new = np.ones((C, P), dtype=bool)
    new[:, corner] = ~owned
    V = int(np.count_nonzero(new))
    ids = np.cumsum(new, dtype=np.int32).reshape(C, P)
    ids -= 1
    # the maps stay intp, since numpy converts an index of any other dtype
    # on every use, and extension gathers and scatters with them at every level
    lift = np.empty(coarse.num_vertices, dtype=np.intp)
    lift[cv[:, 0]] = ids[:, 0]
    lift[cv[:, 1:][~owned]] = ids[:, corner][~owned]
    ids[:, corner] = lift[cv[:, 1:]]

    # the l - 1 points strictly inside each coarse edge, tail to head
    interior = ids[:, segment[:, 1:l]].reshape(coarse.num_edges, l - 1).astype(np.intp)
    outward = coarse.edge_tail == np.repeat(cv[:, 0], 4)
    interior[~outward] = interior[~outward, ::-1]
    # rows in fine cell order, which is ascending parent order (a center, at
    # even coordinates, is no other cell's corner), and slot order within a cell
    hang = ids[:, hang_points].reshape(-1, 2).astype(np.intp)
    seen = np.bincount(np.concatenate((lift, interior.reshape(-1), hang[:, 0])), minlength=V)
    if not np.all(seen == 1):
        raise AssertionError("refinement maps do not cover the fine level once")
    del seen

    # each new point's owner and coordinates, written at its first slot
    owner_word = (np.arange(C, dtype=np.int32)[:, None] * (2 * l - 1) + first_child)[new]
    centers = coarse.coords[cv[:, 0]] * l
    coords = np.empty((V, 2), dtype=np.int32)
    for axis in (0, 1):
        coords[:, axis] = (centers[:, axis, None] + offset[:, axis])[new]

    # hanging points last: each parent lies on a diagonal, so it has a depth
    depth = np.empty(V, dtype=np.int32)
    depth[lift] = l * coarse.depth
    steps = np.arange(1, l, dtype=np.int32)
    depth[interior] = (l * coarse.depth[coarse.edge_tail])[:, None] + steps
    depth[hang[:, 0]] = depth[hang[:, 1]] + 1

    fine = VicsekLevel(
        coarse.ratios, n, ids[:, slot_point].reshape(-1, 5), coords, owner_word, depth
    )
    return fine, Transition(lift, interior, hang)


def _check_budget(ratios: RatioSequence, n: int, budget: int) -> None:
    num_cells = ratios.num_words(n)
    if num_cells > budget:
        raise DepthBudgetError(n, num_cells, budget)


def _root(ratios: RatioSequence) -> VicsekLevel:
    """Level 0: one cell, its center the origin and its corners one edge away."""
    return VicsekLevel(ratios, 0, np.arange(5, dtype=np.int32).reshape(1, 5), _SLOTS.copy(),
                       np.zeros(5, dtype=np.int32), np.array([0, 1, 1, 1, 1], dtype=np.int32))


def build_level(
    ratios: RatioSequence, n: int, budget: int = DEFAULT_CELL_BUDGET
) -> VicsekLevel:
    """Construct the exact level-n graph (tree) of the Vicsek approximation."""
    if n < 0:
        raise LevelError(f"level must be >= 0, got {n}")
    _check_budget(ratios, n, min(budget, MAX_CELL_BUDGET))
    level = _root(ratios)
    for _ in range(n):
        level = _refine(level)[0]
    return level


class Hierarchy:
    """Levels 0..N of one ratio sequence plus the refinement maps between them.

    For each transition k -> k+1 the hierarchy records, once, how values on
    V_k extend to V_{k+1}: which new ids coincide with old vertices, which
    lie in the interior of a subdivided old edge (with their position), and
    how the remaining hanging vertices attach to the already-valued set.
    Value extension then reduces to table-driven passes, shared by exact and
    floating-point arithmetic.

    The constructor only checks the cell budget of every level; level k + 1
    and the maps k -> k+1 are built together on first use of either, by
    refining level k, and then kept.
    """

    def __init__(self, ratios: RatioSequence, max_level: int, budget: int = DEFAULT_CELL_BUDGET):
        for k in range(max_level + 1):
            _check_budget(ratios, k, budget)
        self.ratios = ratios
        self.max_level = max_level
        self.budget = budget
        self._levels: dict[int, VicsekLevel] = {}
        self._transitions: dict[int, Transition] = {}

    def level(self, k: int) -> VicsekLevel:
        if not 0 <= k <= self.max_level:
            raise LevelError(f"level {k} not built (max {self.max_level})")
        if k not in self._levels:
            if k == 0:
                self._levels[0] = _root(self.ratios)
            else:
                self._transition_maps(k - 1)
        return self._levels[k]

    @property
    def levels(self) -> list[VicsekLevel]:
        """Every level 0..max_level, building those not built yet."""
        return [self.level(k) for k in range(self.max_level + 1)]

    def transition(self, k: int) -> Transition:
        """The refinement maps k -> k+1, built on first use."""
        if not 0 <= k < self.max_level:
            raise LevelError(f"transition {k} -> {k + 1} not in 0..{self.max_level}")
        if k not in self._transitions:
            self._transition_maps(k)
        return self._transitions[k]

    def lift_ids(self, k: int) -> np.ndarray:
        """Id at level k+1 of each level-k vertex (same geometric point)."""
        return self.transition(k).lift

    def _transition_maps(self, k: int) -> None:
        """The refine step: level k + 1 and the maps k -> k+1 from level k."""
        _check_budget(self.ratios, k + 1, min(self.budget, MAX_CELL_BUDGET))
        self._levels[k + 1], self._transitions[k] = _refine(self.level(k))
