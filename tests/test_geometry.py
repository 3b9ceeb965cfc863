"""Geometry tests, pinned against independent exact-arithmetic oracles.

The oracle evaluates the contraction maps directly with Fractions in the
basis (a, b) -> (a + b i)/sqrt(2): a letter with direction j and step s
translates by 2 s u_j / l where u_j is the unit diagonal, and each map
divides by its ratio.  Scaled coordinates are then a * L_n exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from _geometry_oracle import (
    children,
    neighbors,
    path_vertices,
    point_of_word,
    rescale,
    within_open_ball,
)
from vicsek_lab.errors import (
    DepthBudgetError,
    InvalidArgumentError,
    LevelError,
    LookupError_,
    ScaleMismatchError,
)
from vicsek_lab.geometry import LatticePoint, build_level
from vicsek_lab.ratios import RatioSequence, constant_ratios
from vicsek_lab.words import (
    DIRECTION_VECTORS,
    Letter,
    enumerate_letters,
    word_from_index,
)


def oracle_point(ratios, word, corner):
    """F_w(q_corner) in the sqrt(2)-basis, composed map by map."""
    ax, ay = Fraction(0), Fraction(0)
    scale = Fraction(1)
    for k, letter in enumerate(word, start=1):
        l = ratios.ratio(k)
        ux, uy = DIRECTION_VECTORS[letter.direction]
        ax += scale * Fraction(2 * letter.step, l) * ux
        ay += scale * Fraction(2 * letter.step, l) * uy
        scale /= l
    cx, cy = DIRECTION_VECTORS[corner] if corner else (0, 0)
    ax += scale * cx
    ay += scale * cy
    return ax, ay


def assert_matches_oracle(ratios, word, corner):
    pt = point_of_word(ratios, word, corner)
    ax, ay = oracle_point(ratios, word, corner)
    L = ratios.length_product(len(word))
    assert Fraction(pt.x) == ax * L
    assert Fraction(pt.y) == ay * L


def test_point_of_word_examples():
    rs = constant_ratios(3, 4)
    assert point_of_word(rs, (), "center") == LatticePoint(0, 0, 0)
    # one arm step at level 1: sqrt2 * 3 * (2/3) q_1 = (2, 2)
    assert point_of_word(rs, (Letter(1, 1),), 0) == LatticePoint(2, 2, 1)
    assert point_of_word(rs, (), 1) == LatticePoint(1, 1, 0)


def test_point_of_word_against_oracle():
    rs = RatioSequence((3, 5, 3))
    for level in range(0, 4):
        words = [word_from_index(rs, level, i) for i in range(0, rs.num_words(level), 7)]
        for word in words:
            for corner in range(5):
                assert_matches_oracle(rs, word, corner)


def test_point_of_word_bad_corner():
    rs = constant_ratios(3, 2)
    with pytest.raises(InvalidArgumentError):
        point_of_word(rs, (), 5)


def enumeration_oracle_counts(ratios, n):
    """Distinct vertex count by brute-force dedup of exact oracle points."""
    seen = set()
    level_words = itertools.product(
        *[enumerate_letters(ratios.ratio(k)) for k in range(1, n + 1)]
    )
    for word in level_words:
        for corner in range(5):
            seen.add(oracle_point(ratios, tuple(word), corner))
    return len(seen)


@pytest.mark.parametrize(
    "ratios,n,vertices,edges",
    [
        (constant_ratios(3, 3), 0, 5, 4),
        (constant_ratios(3, 3), 1, 21, 20),
        (RatioSequence((3, 5)), 2, 181, 180),
    ],
)
def test_build_level_counts(ratios, n, vertices, edges):
    lv = build_level(ratios, n)
    assert lv.num_vertices == vertices
    assert lv.num_edges == edges
    assert enumeration_oracle_counts(ratios, n) == vertices


def test_build_level_budget_error():
    rs = constant_ratios(5, 12)
    with pytest.raises(DepthBudgetError) as err:
        build_level(rs, 12, budget=10_000)
    assert err.value.required_cells == 9**12


def test_vertex_count_formula_and_tree(hier3):
    for n in range(5):
        lv = hier3.level(n)
        w = hier3.ratios.num_words(n)
        assert lv.num_vertices == 4 * w + 1
        assert lv.num_edges == lv.num_vertices - 1
        assert int(lv.depth.min()) >= 0  # BFS reached everything (construction asserts)


def test_every_edge_has_squared_scaled_length_2(hier3, hier35):
    for hier in (hier3, hier35):
        for n in range(hier.max_level + 1):
            lv = hier.level(n)
            d = lv.coords[lv.edge_head] - lv.coords[lv.edge_tail]
            assert np.all((d * d).sum(axis=1) == 2)


def test_orientation_no_ties(hier3):
    for n in range(5):
        lv = hier3.level(n)
        dd = lv.depth[lv.edge_head] - lv.depth[lv.edge_tail]
        assert np.all(dd == 1)  # tail is strictly closer to the origin


def test_corner_multiplicity_at_most_2(hier3, hier35):
    for hier in (hier3, hier35):
        lv = hier.level(hier.max_level)
        assert int(lv.multiplicity.max()) <= 2


def test_refinement_vertices_nested(hier3):
    for k in range(4):
        coarse = hier3.level(k)
        fine = hier3.level(k + 1)
        l = hier3.ratios.ratio(k + 1)
        lift = hier3.lift_ids(k)
        assert np.array_equal(coarse.coords * l, fine.coords[lift])


def test_geodesic_examples(hier3):
    lv0 = hier3.level(0)
    q0 = lv0.vertex_id(0, 0)
    q1 = lv0.vertex_id(1, 1)
    q2 = lv0.vertex_id(-1, 1)
    assert lv0.geodesic_distance(q0, q0) == 0
    assert lv0.geodesic_distance(q0, q1) == 1
    assert lv0.geodesic_distance(q1, q2) == 2
    # tree distance dominates the euclidean distance (sqrt 2 here)
    with pytest.raises(LookupError_):
        lv0.geodesic_distance(0, 99)


def test_geodesic_path_and_symmetry(hier3):
    lv = hier3.level(2)
    a = lv.vertex_id(9, 9)
    b = lv.vertex_id(-9, -9)
    assert lv.geodesic_distance(a, b) == 2
    path = path_vertices(lv, a, b)
    assert path[0] == a and path[-1] == b
    assert len(path) == lv.path_edge_count(a, b) + 1
    assert lv.geodesic_distance(b, a) == lv.geodesic_distance(a, b)


def test_within_open_ball_boundary():
    rs = constant_ratios(3, 3)
    a = LatticePoint(0, 0, 1)
    b = LatticePoint(2, 2, 1)
    assert within_open_ball(a, a, 1, rs)
    # distance is exactly rho_1 = 2/3: excluded by the open ball
    assert not within_open_ball(a, b, 1, rs)
    assert within_open_ball(a, b, 0, rs)
    with pytest.raises(ScaleMismatchError):
        within_open_ball(a, LatticePoint(0, 0, 2), 1, rs)
    # points coarser than the radius index
    with pytest.raises(ScaleMismatchError, match="too coarse for radius index 2"):
        within_open_ball(a, b, 2, rs)


def test_lattice_point_rescale_exact():
    rs = constant_ratios(3, 4)
    p = LatticePoint(2, -4, 1)
    q = rescale(p, 3, rs)
    assert (q.x, q.y, q.level) == (18, -36, 3)
    assert rescale(q, 1, rs) == p
    with pytest.raises(ScaleMismatchError):
        rescale(LatticePoint(1, 1, 1), 0, rs)


def test_child_cells_inside_parent_square():
    rs = RatioSequence((3, 5))
    for parent_idx in range(rs.num_words(1)):
        parent = word_from_index(rs, 1, parent_idx)
        pc = point_of_word(rs, parent, 0)
        l = rs.ratio(2)
        for child in children(rs, parent):
            cc = point_of_word(rs, child, 0)
            # child square (half-side 1) inside parent square (half-side l) at scale 2
            assert abs(cc.x - pc.x * l) + 1 <= l
            assert abs(cc.y - pc.y * l) + 1 <= l


def test_cell_edges_and_index(hier3):
    lv = hier3.level(2)
    # each cell contributes exactly 4 edges, indexed consecutively
    assert np.array_equal(lv.edge_word, np.arange(lv.num_edges) // 4)
    # the cell index lists the center and the 4 corners
    for w in range(0, lv.num_cells, 5):
        ids = lv.cell_vertices[w]
        c = lv.coords[ids[0]]
        for j in range(1, 5):
            d = lv.coords[ids[j]] - c
            assert tuple(d) == DIRECTION_VECTORS[j]


def test_level_keeps_no_lookup_or_adjacency_tables():
    """The vertex lookup is built on the first lookup; edge words,
    multiplicities and neighbours are derived from the cell numbering and
    the parent array."""
    lv = build_level(constant_ratios(3, 6), 3)
    held = {name for name, value in vars(lv).items() if isinstance(value, np.ndarray)}
    assert held == {
        "coords", "owner_word", "cell_vertices",
        "depth", "edge_tail", "edge_head", "parent",
    }
    assert {vars(lv)[name].dtype for name in held} == {np.dtype(np.int32)}
    assert np.array_equal(lv.multiplicity, np.bincount(lv.cell_vertices.ravel()))
    assert "_lookup" not in vars(lv)
    assert lv.origin == lv.cell_vertices[0, 0] == lv.vertex_id(0, 0)
    assert "_lookup" in vars(lv)
    assert np.array_equal(lv.edge_word, np.arange(lv.num_edges) // 4)

    adjacent = [set() for _ in range(lv.num_vertices)]
    for a, b in zip(lv.edge_tail.tolist(), lv.edge_head.tolist()):
        adjacent[a].add(b)
        adjacent[b].add(a)
    for vid in range(lv.num_vertices):
        assert neighbors(lv, vid).tolist() == sorted(adjacent[vid])


def test_hierarchy_memory_is_bounded():
    """Traced memory of every level and transition of Hierarchy(l=3, 7):
    peak 22 MB measured, capped at 120 MB; 16.5 MB still held once all are
    built, capped at 40 MB."""
    import tracemalloc

    from vicsek_lab import geometry

    geometry._prefix_centers.cache_clear()  # count the center tables too
    tracemalloc.start()
    try:
        hier = geometry.Hierarchy(constant_ratios(3, 12), 7)
        for k in range(7):
            hier.transition(k)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 120 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert held <= 40 * 2**20, f"held {held / 2**20:.1f} MB"


def test_level_build_memory_per_vertex():
    """Traced memory of build_level(constant 3, 6), 62,501 vertices, center
    tables included: peak 69 B and held 33 B per vertex measured, capped at
    110 and 52 B.  The build refines level 5, whose maps it drops, into level
    6 (50 and 38 B with the earlier sort-based build, 193 and 79 B with
    int64 tables)."""
    import tracemalloc

    from vicsek_lab import geometry

    geometry._prefix_centers.cache_clear()
    tracemalloc.start()
    try:
        lv = build_level(constant_ratios(3, 8), 6)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    V = lv.num_vertices
    assert peak <= 110 * V, f"peak {peak / V:.1f} B per vertex"
    assert held <= 52 * V, f"held {held / V:.1f} B per vertex"


def test_hierarchy_to_level_8_memory_is_bounded():
    """Every level and transition of Hierarchy(l=3, 8), 1,562,501 vertices
    at level 8: peak 109 MB and held 82 MB measured (126 and 90 MB with the
    earlier sort-based build, 320 and 166 MB with int64 tables), capped at
    170 MB and 128 MB."""
    import tracemalloc

    from vicsek_lab import geometry

    geometry._prefix_centers.cache_clear()
    tracemalloc.start()
    try:
        hier = geometry.Hierarchy(constant_ratios(3, 12), 8)
        for k in range(8):
            hier.transition(k)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hier.level(8).num_vertices == 1_562_501
    assert peak <= 170 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert held <= 128 * 2**20, f"held {held / 2**20:.1f} MB"


def test_hierarchy_builds_levels_on_first_use(monkeypatch):
    from vicsek_lab import geometry
    from vicsek_lab.energy import diagonal_ramp, energy_limit

    refined = []
    real = geometry.Hierarchy._transition_maps

    def counting(self, k):
        refined.append(k + 1)
        return real(self, k)

    monkeypatch.setattr(geometry.Hierarchy, "_transition_maps", counting)
    hier = geometry.Hierarchy(constant_ratios(3, 12), 8)
    assert refined == []
    rep = energy_limit(hier, diagonal_ramp(), 2, 7)
    assert rep.limit == Fraction(1, 2)
    assert sorted(refined) == list(range(1, 8))  # each level once, none above 7
    assert hier.level(7) is hier.level(7)
    assert hier.transition(6) is hier.transition(6)
    assert sorted(refined) == list(range(1, 8))

    small = geometry.Hierarchy(constant_ratios(3, 12), 2)
    assert [lv.n for lv in small.levels] == [0, 1, 2]


def test_hierarchy_budget_checked_at_construction():
    from vicsek_lab.geometry import Hierarchy

    ratios = constant_ratios(3, 12)
    with pytest.raises(DepthBudgetError) as lazy:
        Hierarchy(ratios, 9, budget=1000)
    with pytest.raises(DepthBudgetError) as eager:
        build_level(ratios, 5, budget=1000)
    assert str(lazy.value) == str(eager.value) == "level 5 needs 3125 cells, budget is 1000"
    hier = Hierarchy(ratios, 4, budget=1000)
    with pytest.raises(LevelError):
        hier.level(5)
    with pytest.raises(LevelError):
        hier.transition(4)
