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

from .errors import (
    DepthBudgetError,
    InvalidArgumentError,
    LevelError,
    LookupError_,
    ScaleMismatchError,
)
from .ratios import RatioSequence
from .words import (
    DIRECTION_VECTORS, Word, arm_letter, enumerate_letters, letter_offset, validate_word
)

DEFAULT_CELL_BUDGET = 5_000_000
# A level has at most 5 points per cell, so with this many cells every
# vertex id, cell id, coordinate and depth fits the int32 tables.
MAX_CELL_BUDGET = 400_000_000

_SLOTS = np.array(DIRECTION_VECTORS, dtype=np.int64)  # slot offsets from a cell's center


@dataclass(frozen=True)
class LatticePoint:
    """An exact point: true coordinates are (x, y) / (sqrt(2) * L_level)."""

    x: int
    y: int
    level: int

    def rescale(self, to_level: int, ratios: RatioSequence) -> "LatticePoint":
        """Exact change of scale level; refining multiplies coordinates."""
        if to_level >= self.level:
            f = ratios.length_product(to_level) // ratios.length_product(self.level)
            return LatticePoint(self.x * f, self.y * f, to_level)
        f = ratios.length_product(self.level) // ratios.length_product(to_level)
        if self.x % f or self.y % f:
            raise ScaleMismatchError(
                f"point {self} is not on the level-{to_level} lattice"
            )
        return LatticePoint(self.x // f, self.y // f, to_level)


def point_of_word(ratios: RatioSequence, word: Word, corner: int | str = 0) -> LatticePoint:
    """Image of a reference point of the unit cell under the word's map.

    ``corner`` 0 (or "center") gives the cell center, 1..4 the diagonal
    corners.  The result is exact, at scale level len(word).  This also
    evaluates the coding map on eventually-constant infinite words: a word
    ending in repeated centers is the finite prefix with corner 0, one
    ending in repeated maximal arm letters of direction j is the prefix
    with corner j; general infinite words are approximated by truncating
    to a prefix (error at most the cell diameter of the truncation level).
    """
    if corner == "center":
        corner = 0
    if corner not in (0, 1, 2, 3, 4):
        raise InvalidArgumentError(f"corner must be center or 1..4, got {corner!r}")
    validate_word(ratios, word)
    n = len(word)
    # accumulate center coordinates level by level: C_k = l_k * C_{k-1} + off_k
    x = 0
    y = 0
    for k, letter in enumerate(word, start=1):
        l = ratios.ratio(k)
        ox, oy = letter_offset(letter)
        x = x * l + ox
        y = y * l + oy
    dx, dy = DIRECTION_VECTORS[corner]
    return LatticePoint(x + dx, y + dy, n)


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


def within_open_ball(
    a: LatticePoint, b: LatticePoint, n_scale: int, ratios: RatioSequence
) -> bool:
    """Exact predicate d(a, b) < rho_{n_scale} for points at a common scale."""
    if a.level != b.level:
        raise ScaleMismatchError(
            f"points at levels {a.level} and {b.level}; rescale first"
        )
    if a.level < n_scale:
        raise ScaleMismatchError(
            f"points at level {a.level} are too coarse for radius index {n_scale}"
        )
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy <= radius2(ratios.length_product(a.level), ratios.rho(n_scale))


class VicsekLevel:
    """The level-n graph: deduplicated vertices, oriented edges, cell index.

    Vertices carry integer ids; ``coords[i]`` is the scaled coordinate pair.
    Edges are stored tail -> head with the tail strictly closer to the
    origin vertex in the tree metric.  ``edge_word[e]`` is the index of the
    unique cell whose interior contains edge e (= e // 4 by construction).
    """

    def __init__(self, ratios: RatioSequence, n: int, budget: int = DEFAULT_CELL_BUDGET):
        num_cells = ratios.num_words(n)
        budget = min(budget, MAX_CELL_BUDGET)
        if num_cells > budget:
            raise DepthBudgetError(n, num_cells, budget)
        self.ratios = ratios
        self.n = n
        self.L = ratios.length_product(n)
        self.num_cells = num_cells

        # The 5 slot points of every cell, cell-major (point 5w + s is slot s
        # of cell w), deduplicated by packed key.  Vertex ids number the
        # distinct points in order of first appearance, which a stable sort
        # puts at the head of each run of equal keys.
        centers = _cell_centers(ratios, n)
        slot_keys = _SLOTS @ (2 * self.L + 3, 1)  # key of each slot relative to its center
        keys = (self._pack(centers[:, 0], centers[:, 1])[:, None] + slot_keys).reshape(-1)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        head = np.empty(keys.size, dtype=bool)
        head[0] = True
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        del keys
        first = order[head]  # first appearance of each distinct key
        is_first = np.zeros(head.size, dtype=bool)
        is_first[first] = True
        ids = (np.cumsum(is_first, dtype=np.int32) - 1)[first]  # id of each distinct key
        cells = np.empty(head.size, dtype=np.int32)
        cells[order] = ids[np.cumsum(head, dtype=np.int32) - 1]
        del order, head, first, ids
        self.cell_vertices = cells.reshape(num_cells, 5)

        first = np.flatnonzero(is_first)  # slot point of each id
        del is_first
        V = self.num_vertices = first.size
        self.owner_word = (first // 5).astype(np.int32)
        slot = first - 5 * self.owner_word
        del first
        self.coords = np.empty((V, 2), dtype=np.int32)
        for axis in (0, 1):
            np.add(centers[self.owner_word, axis], _SLOTS[slot, axis], out=self.coords[:, axis])
        del slot

        # cell 0 is the all-center word, whose center is (0, 0)
        self.origin = int(self.cell_vertices[0, 0])

        # Tree depths come from the cell structure; shared corners must agree.
        slot_depth = _slot_depths(ratios, n)
        self.depth = np.empty(V, dtype=np.int32)
        self.depth[self.cell_vertices] = slot_depth
        if not np.array_equal(self.depth[self.cell_vertices], slot_depth):
            raise AssertionError("cells disagree on the depth of a shared corner")

        # each cell's 4 edges join its center to its corners, tail nearer the origin
        center, corner = slot_depth[:, :1], slot_depth[:, 1:]
        if not np.all(np.abs(corner - center) == 1):
            raise AssertionError("orientation tie: endpoint depths do not differ by 1")
        swap = center > corner
        del slot_depth, center, corner
        cv = self.cell_vertices
        self.edge_tail = np.where(swap, cv[:, 1:], cv[:, :1]).reshape(-1)
        self.edge_head = np.where(swap, cv[:, :1], cv[:, 1:]).reshape(-1)
        del swap
        self.num_edges = 4 * num_cells

        # If every vertex but the origin is the head of exactly one edge, then
        # stepping to the tail lowers the depth by 1 and can only stop at the
        # origin: the graph is a tree and ``depth`` is the distance from it.
        heads = np.bincount(self.edge_head, minlength=V)
        heads[self.origin] += 1
        if self.depth[self.origin] != 0 or not np.all(heads == 1):
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


def _slot_depths(ratios: RatioSequence, n: int) -> np.ndarray:
    """Tree distance from the origin of the 5 slot points of every level-n cell.

    Within a cell the graph is the cross of its two diagonals, one edge per
    unit step, and a refined cell is a chain of subcells along each arm
    joined by the center subcell.  So the shortest path from the origin
    enters each cell at one slot, its entry: the center for the cells that
    contain the origin, a corner for all others.  Refining a cell with entry
    ``e`` at depth ``D`` (parent scale) gives, at the child scale, where the
    parent center has depth ``b = D l + l [e != 0]``:

    - the center subcell: entry ``e``, depth ``b - [e != 0]``
    - arm ``e``, step ``m``: entry ``e`` (its outer corner), depth ``b - 2m - 1``
    - arm ``j != e``, step ``m``: entry ``opposite(j)``, depth ``b + 2m - 1``

    From the entry, the center lies one edge further (unless it is the
    entry) and every other corner one edge beyond the center.
    """
    entry = np.zeros(1, dtype=np.int32)
    depth = np.zeros(1, dtype=np.int32)
    for k in range(1, n + 1):
        l = ratios.ratio(k)
        letters = enumerate_letters(l)
        j = np.array([s.direction for s in letters], dtype=np.int32)[None]
        m = np.array([s.step for s in letters], dtype=np.int32)[None]
        e = entry[:, None]
        cornered = (e != 0).astype(np.int32)
        base = depth[:, None] * l + l * cornered
        inward = (j == 0) | (j == e)
        entry = np.where(inward, e, (j + 1) % 4 + 1).reshape(-1)  # opposite(j)
        depth = np.where(
            j == 0, base - cornered, np.where(j == e, base - 2 * m - 1, base + 2 * m - 1)
        ).reshape(-1)
    center = depth + (entry != 0)
    slots = np.empty((center.size, 5), dtype=np.int32)
    slots[:, 0] = center
    slots[:, 1:] = (center + 1)[:, None]
    cornered = np.flatnonzero(entry)
    slots[cornered, entry[cornered]] -= 2  # the entry corner lies before the center
    return slots


def build_level(
    ratios: RatioSequence, n: int, budget: int = DEFAULT_CELL_BUDGET
) -> VicsekLevel:
    """Construct the exact level-n graph (tree) of the Vicsek approximation."""
    if n < 0:
        raise LevelError(f"level must be >= 0, got {n}")
    return VicsekLevel(ratios, n, budget)


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


class Hierarchy:
    """Levels 0..N of one ratio sequence plus the refinement maps between them.

    For each transition k -> k+1 the hierarchy records, once, how values on
    V_k extend to V_{k+1}: which new ids coincide with old vertices, which
    lie in the interior of a subdivided old edge (with their position), and
    how the remaining hanging vertices attach to the already-valued set.
    Value extension then reduces to table-driven passes, shared by exact and
    floating-point arithmetic.

    The constructor only checks the cell budget of every level; a level and
    a transition are built on first use and then kept.
    """

    def __init__(self, ratios: RatioSequence, max_level: int, budget: int = DEFAULT_CELL_BUDGET):
        for k in range(max_level + 1):
            num_cells = ratios.num_words(k)
            if num_cells > budget:
                raise DepthBudgetError(k, num_cells, budget)
        self.ratios = ratios
        self.max_level = max_level
        self.budget = budget
        self._levels: dict[int, VicsekLevel] = {}
        self._transitions: dict[int, Transition] = {}

    def level(self, k: int) -> VicsekLevel:
        if not 0 <= k <= self.max_level:
            raise LevelError(f"level {k} not built (max {self.max_level})")
        lv = self._levels.get(k)
        if lv is None:
            lv = self._levels[k] = build_level(self.ratios, k, self.budget)
        return lv

    @property
    def levels(self) -> list[VicsekLevel]:
        """Every level 0..max_level, building those not built yet."""
        return [self.level(k) for k in range(self.max_level + 1)]

    def transition(self, k: int) -> Transition:
        """The refinement maps k -> k+1, built on first use."""
        if not 0 <= k < self.max_level:
            raise LevelError(f"transition {k} -> {k + 1} not in 0..{self.max_level}")
        t = self._transitions.get(k)
        if t is None:
            # build both levels first, so the maps' own time stands alone
            self.level(k)
            self.level(k + 1)
            t = self._transitions[k] = Transition(*self._transition_maps(k))
        return t

    def lift_ids(self, k: int) -> np.ndarray:
        """Id at level k+1 of each level-k vertex (same geometric point)."""
        return self.transition(k).lift

    def _transition_maps(self, k: int):
        coarse = self.level(k)
        fine = self.level(k + 1)
        l = self.ratios.ratio(k + 1)

        # Point i of the segment from a coarse center to its corner j is, at
        # the fine level, slot 0 of arm child i/2 for even i (the center
        # child for i = 0) and slot j of arm child (i-1)/2 for odd i (the
        # center child for i = 1).
        i = np.arange(l + 1)
        j = np.arange(1, 5)[:, None]
        child = np.where(i > 1, arm_letter(l, j, i // 2), 0)
        slot = np.where(i % 2 == 1, j, 0)
        fine_cells = fine.cell_vertices.reshape(coarse.num_cells, 2 * l - 1, 5)
        # (cells, arm j, point i); the maps stay intp, since numpy converts
        # an index of any other dtype on every use, and extension gathers
        # and scatters with them at every level
        seg = fine_cells[:, child, slot].astype(np.intp)

        lift = np.empty(coarse.num_vertices, dtype=np.intp)
        lift[coarse.cell_vertices[:, 0]] = seg[:, 0, 0]
        lift[coarse.cell_vertices[:, 1:]] = seg[:, :, l]

        # the l - 1 points strictly inside each coarse edge, tail to head
        interior = seg[:, :, 1:l].reshape(coarse.num_edges, l - 1)
        outward = coarse.edge_tail == np.repeat(coarse.cell_vertices[:, 0], 4)
        interior[~outward] = interior[~outward, ::-1]

        # every other fine vertex is an off-diagonal corner of an arm child,
        # adjacent only to that child's center, which lies on a diagonal;
        # rows are in cell order, which is ascending parent order (a center,
        # at even coordinates, is no other cell's corner, so it is numbered
        # in its own cell), and in slot order within a cell
        valued = np.zeros(fine.num_vertices, dtype=bool)
        valued[lift] = True
        valued[interior] = True
        corners = fine.cell_vertices[:, 1:]
        hanging = ~valued[corners]
        hang = np.column_stack(
            (corners[hanging], np.repeat(fine.cell_vertices[:, 0], hanging.sum(axis=1)))
        ).astype(np.intp)

        seen = np.bincount(
            np.concatenate((lift, interior.reshape(-1), hang[:, 0])),
            minlength=fine.num_vertices,
        )
        if not np.all(seen == 1) or not valued[hang[:, 1]].all():
            raise AssertionError("refinement maps do not cover the fine level once")
        return lift, interior, hang
