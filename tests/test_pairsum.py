from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from _pairsum_oracle import (
    ball_pair_sum_per_block,
    ball_row_stats,
    ball_rows_double_loop,
    cell_layouts,
    matches_per_block,
    same_partition,
)
from _geometry_oracle import within_open_ball

from vicsek_lab import pairsum
from vicsek_lab.besov import ball_energies, weak_monotonicity_report
from vicsek_lab.energy import (
    EXACT,
    FLOAT,
    diagonal_ramp,
    random_affine,
)
from vicsek_lab.errors import InvalidArgumentError
from vicsek_lab.geometry import Hierarchy, build_level
from vicsek_lab.pairsum import (
    ball_pair_sum_bruteforce,
    ball_pair_sum_indexed,
    pair_plan,
)
from vicsek_lab.ratios import alternating_ratios, constant_ratios, periodic_ratios


def test_auto_above_old_cutoff_matches_bruteforce():
    # V = 8101: float p != 2 at this size used to go to brute force
    hier = Hierarchy(alternating_ratios(3, 5, 8), 4)
    lv = hier.level(4)
    assert lv.num_vertices == 8101
    vals = FLOAT.values_at(hier, diagonal_ramp(), 4)
    got = ball_pair_sum_indexed(lv, vals, 3, 1, FLOAT)
    want = ball_pair_sum_bruteforce(lv, vals, 3, 1, FLOAT)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_indexed_memory_is_bounded(hier3):
    lv = hier3.level(5)
    assert lv.num_vertices == 12501
    vals = FLOAT.values_at(hier3, diagonal_ramp(), 5)
    tracemalloc.start()
    try:
        ball_pair_sum_indexed(lv, vals, 1.5, 0, FLOAT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_plan_is_built_once_per_level_and_radius(monkeypatch):
    built = []
    build = pairsum._build_plan

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(pairsum, "_build_plan", counting)
    hier = Hierarchy(constant_ratios(3, 6), 3)
    lv = hier.level(3)
    fa = FLOAT.values_at(hier, random_affine(hier, 1), 3)
    fb = FLOAT.values_at(hier, random_affine(hier, 2), 3)
    ea = EXACT.values_at(hier, random_affine(hier, 1), 3)
    eb = EXACT.values_at(hier, random_affine(hier, 2), 3)
    for vals, p, arith in ((fa, 2, FLOAT), (fb, 2.5, FLOAT), (ea, 2, EXACT), (eb, 3, EXACT)):
        ball_pair_sum_indexed(lv, vals, p, 1, arith)
    assert len(built) == 1
    plan = pair_plan(lv, 1)
    assert pair_plan(lv, 1) is plan
    other = pair_plan(lv, 2)
    assert other is not plan
    assert len(built) == 2
    ball_pair_sum_indexed(lv, fa, 2, 2, FLOAT)
    assert len(built) == 2


def test_float_pair_sum_bits_are_pinned(hier3, hier35):
    """Float pair sums and the weak-monotonicity ratio, pinned by repr.

    Any change in summation order shows here before it reaches an artifact
    compared as text.  The p = 2 sums and the ratio go through BLAS
    matrix-vector products, so their reprs hold for the BLAS kernel they
    were recorded with: numpy 2.4.6 with its bundled OpenBLAS 0.3.31
    (DYNAMIC_ARCH) on an x86-64 Xeon with AVX-512 and FMA.  A failure here
    on another CPU or BLAS alone is BLAS drift;
    ``test_indexed_float_is_per_block_oracle`` checks summation order on
    any host.  The p = 3 sum makes no BLAS call.
    """
    u = diagonal_ramp()
    vals = FLOAT.values_at(hier3, u, 6)
    got = [repr(ball_pair_sum_indexed(hier3.level(6), vals, 2, n, FLOAT)) for n in range(5)]
    assert got == [
        "372061020.6101766",
        "30714988.116696395",
        "483255.0054777939",
        "6758.3498265626195",
        "90.1805223910252",
    ]
    vals35 = FLOAT.values_at(hier35, u, 4)
    assert repr(ball_pair_sum_indexed(hier35.level(4), vals35, 3, 1, FLOAT)) == "122679.57027371347"
    # the README config: l = 3, p = 2, depth 4, vertex_level 6
    balls = ball_energies(hier3, u, 2, 6, 4, EXACT)
    wm = weak_monotonicity_report(hier3, 2, 6, (2, 4), balls, EXACT)
    assert repr(wm.ratio) == "1.0496848096751399"


def test_value_columns_past_the_tile_are_rejected(hier3):
    """The cell tree at p != 2 holds a pair's F columns in one tile of
    ``_CHUNK`` elements, so it names F and the limit past that (it used to
    raise a bare reshape error); no route takes zero columns (it used to
    divide by zero).  p = 2 and brute force at every p sum every column."""
    lv = hier3.level(1)
    vals = np.random.default_rng(5).random((lv.num_vertices, 70_000))
    for p in (2.5, 3):
        with pytest.raises(InvalidArgumentError, match="F <= 65536 .* F = 70000"):
            ball_pair_sum_indexed(lv, vals, p, 1, FLOAT)
    for route in (ball_pair_sum_indexed, ball_pair_sum_bruteforce):
        with pytest.raises(InvalidArgumentError, match="F >= 1 .* F = 0"):
            route(lv, vals[:, :0], 2, 1, FLOAT)
    want = ball_pair_sum_bruteforce(lv, vals, 2, 1, FLOAT)
    assert ball_pair_sum_indexed(lv, vals, 2, 1, FLOAT) == pytest.approx(want, rel=1e-12)
    cols = [0, 34_567, 69_999]
    for p in (2.5, 3):
        got = ball_pair_sum_bruteforce(lv, vals, p, 1, FLOAT)
        assert got.shape == (70_000,)
        one = [ball_pair_sum_indexed(lv, vals[:, j], p, 1, FLOAT) for j in cols]
        assert got[cols] == pytest.approx(one, rel=1e-12)


def test_leaf_classes_share_relative_coordinates(hier3):
    """Every leaf block of a class has byte-equal coordinates relative to
    its first vertex, and cell types are exactly the partition by relative
    coordinates."""
    lv = hier3.level(6)
    idx = pairsum._pair_index(lv)
    cells = cell_layouts(lv)
    assert same_partition(idx.cell_type, cells)
    assert len(set(cells.tolist())) == 41
    xy = lv.coords
    for n, want in ((1, 1736), (4, 31)):
        plan = pair_plan(lv, n)
        layouts = {}
        for (loa, hia, lob, hib, _), c in zip(plan.blocks.tolist(), plan.leaf_class.tolist()):
            if c < 0:
                continue
            rel = np.concatenate((xy[loa:hia], xy[lob:hib])) - xy[loa]
            assert layouts.setdefault(c, (hia - loa, rel.tobytes())) == (hia - loa, rel.tobytes())
        assert len(layouts) == plan.leaf_class.max() + 1 == want


def test_split_leaf_blocks_match_per_block_oracle():
    """At F = 20, 500 x 500 leaf blocks (leaf_max 1024) split into
    sub-blocks; the class masks keep every bit of the per-block route (the
    p = 3 full blocks agree within rounding)."""
    hier = Hierarchy(constant_ratios(3, 6), 4)
    lv = hier.level(4)
    plan = pair_plan(lv, 1, 1024)
    b = plan.blocks[plan.leaf_class >= 0]
    assert ((b[:, 1] - b[:, 0]) * (b[:, 3] - b[:, 2]) * 20 > pairsum._CHUNK).any()
    vals = np.random.default_rng(7).standard_normal((lv.num_vertices, 20))
    for p in (2, 3):
        got = ball_pair_sum_indexed(lv, vals, p, 1, FLOAT, 1024)
        assert matches_per_block(got, ball_pair_sum_per_block(lv, vals, p, 1, 1024), p), p


def test_batched_classes_and_tiled_full_blocks_match_oracles():
    """At F = 256 and n = 2 a p = 2 leaf class holds more blocks than one
    batch; at n = 0 full blocks span several tiles.  Both keep every bit of
    the per-block route (p = 3 full blocks within rounding), and a column
    agrees with brute force."""
    hier = Hierarchy(constant_ratios(3, 6), 4)
    lv = hier.level(4)
    chunk, F = pairsum._CHUNK, 256
    plan = pair_plan(lv, 2, 128)
    over = False
    step = chunk // (4 * F)  # plan rows per evaluation chunk
    for s in range(0, len(plan.blocks), step):
        b, lc = plan.blocks[s : s + step], plan.leaf_class[s : s + step]
        for c in np.unique(lc[lc >= 0]):
            rows = b[lc == c]
            # a batch holds at most chunk // (width * F) blocks of sub-block width `width`
            width = min(rows[0, 3] - rows[0, 2], chunk // F)
            over |= len(rows) > chunk // (width * F)
    assert over
    plan = pair_plan(lv, 0)
    full = plan.blocks[plan.leaf_class < 0]
    assert ((full[:, 1] - full[:, 0]) * (full[:, 3] - full[:, 2]) * 2 > 4 * chunk).any()
    vals = np.random.default_rng(11).standard_normal((lv.num_vertices, F))
    for p, n, leaf_max, f in ((2, 2, 128, F), (3, 0, 256, 2), (1.5, 0, 256, 2)):
        v = vals[:, :f]
        got = ball_pair_sum_indexed(lv, v, p, n, FLOAT, leaf_max)
        assert matches_per_block(got, ball_pair_sum_per_block(lv, v, p, n, leaf_max), p), (p, n)
        want = ball_pair_sum_bruteforce(lv, v[:, 0], p, n, FLOAT)
        assert got[0] == pytest.approx(want, rel=1e-12, abs=1e-300), (p, n)


def test_batched_classes_past_p2_match_oracles(hier35):
    """At F = 1 on the alternating(3, 5) plan of m = 4, n = 2, a leaf class
    holds more blocks than one batch of p != 2 differences (at most
    ``_CHUNK`` elements).  Float p = 3 and p = 2.5 keep the per-block
    route's sums, and exact p = 3 equals brute force."""
    lv = hier35.level(4)
    plan = pair_plan(lv, 2)
    lc = plan.leaf_class[plan.leaf_class >= 0]
    b = plan.blocks[plan.leaf_class >= 0]
    pairs = (b[:, 1] - b[:, 0]) * (b[:, 3] - b[:, 2])  # the blocks of a class share it
    assert (pairs <= pairsum._CHUNK).all()
    assert (np.bincount(lc)[lc] > pairsum._CHUNK // pairs).any()
    vals = np.random.default_rng(13).standard_normal(lv.num_vertices)
    for p in (3, 2.5):
        got = ball_pair_sum_indexed(lv, vals, p, 2, FLOAT)
        assert matches_per_block(got, ball_pair_sum_per_block(lv, vals, p, 2), p), p
    ints = EXACT.values_at(hier35, diagonal_ramp(), 4)  # int64 tiles: brute force < 1 s
    want = ball_pair_sum_bruteforce(lv, ints, 3, 2, EXACT)
    assert ball_pair_sum_indexed(lv, ints, 3, 2, EXACT) == want


def test_class_batches_take_each_blocks_weight(monkeypatch):
    """Weights that differ inside a leaf class are each applied to their own
    block."""
    build = pairsum._build_plan

    def reweighted(*args):
        plan = build(*args)
        blocks = plan.blocks.copy()
        blocks[:, 4] = 1 + np.arange(len(blocks)) % 3
        return pairsum.PairPlan(blocks, plan.leaf_class, plan.radius2)

    monkeypatch.setattr(pairsum, "_build_plan", reweighted)
    hier = Hierarchy(constant_ratios(3, 6), 4)
    lv = hier.level(4)
    plan = pair_plan(lv, 2, 64)
    sizes = np.bincount(plan.leaf_class[plan.leaf_class >= 0])
    assert (sizes >= 3).any()
    vals = np.random.default_rng(12).standard_normal((lv.num_vertices, 3))
    for p in (2, 3):
        got = ball_pair_sum_indexed(lv, vals, p, 2, FLOAT, 64)
        assert matches_per_block(got, ball_pair_sum_per_block(lv, vals, p, 2, 64), p), p


def test_irregular_sums_keep_memory_small(hier35):
    """The three p = 3 ball sums of the alternating(3, 5) config at m = 4,
    with their plans cached, hold no more than a few tiles at a time."""
    lv = hier35.level(4)
    vals = FLOAT.values_at(hier35, diagonal_ramp(), 4)
    for n in range(3):
        pair_plan(lv, n)
    tracemalloc.start()
    try:
        for n in range(3):
            ball_pair_sum_indexed(lv, vals, 3, n, FLOAT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_class_masks_keep_memory_small(hier3):
    """With the plan cached, a p = 2 sum at m = 6, n = 1 holds one class
    mask at a time."""
    lv = hier3.level(6)
    vals = FLOAT.values_at(hier3, diagonal_ramp(), 6)
    ball_pair_sum_indexed(lv, vals, 2, 1, FLOAT)
    tracemalloc.start()
    try:
        ball_pair_sum_indexed(lv, vals, 2, 1, FLOAT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_cell_types_keep_memory_small(hier3):
    """The index holds five int64 numbers per cell, 0.75 MiB at m = 6, and
    its type pass holds no per-vertex table."""
    lv = hier3.level(6)
    pairsum.CellPairIndex(lv)
    tracemalloc.start()
    try:
        pairsum.CellPairIndex(lv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_pair_index_memory_is_capped():
    """At l = 3, m = 7 the index holds 3.73 MiB of its own (five int64
    numbers for each of its 97,656 cells) and peaks at 5.9 MiB while it is
    built: the corner pass takes its temporaries one arm at a time."""
    lv = build_level(constant_ratios(3, 12), 7)
    pairsum.CellPairIndex(lv)
    tracemalloc.start()
    try:
        idx = pairsum.CellPairIndex(lv)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    own = sum(a.nbytes for a in (idx.lo, idx.hi, idx.cx, idx.cy, idx.cell_type))
    assert own == 40 * 97656
    assert held <= own + 2**16, f"held {held / 2**20:.2f} MB"
    assert peak <= 6.5 * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_indexed_exact_past_int64_is_bruteforce():
    """Exact sums equal brute force on values either side of each int64
    bound of the p = 2 leaf classes, whose largest block has ``pairs``
    pairs: 4 max|v|^2 pairs < 2^63 for the row, column and cross sums, and
    nb max|v| < 2^63 for M vb, which values near 2^61 pass while they are
    still int64; and on values past 2^62, which are Python ints throughout.
    Plans with leaf_max 16 mix classes on both sides of the first bound."""
    hier = Hierarchy(alternating_ratios(3, 5, 6), 3)
    lv = hier.level(2)
    den, ints = EXACT.values_at(hier, random_affine(hier, 5), 2)
    top = int(np.abs(ints).max())
    for leaf_max in (16, 256):
        sizes = set()
        for plan in (pair_plan(lv, n, leaf_max) for n in range(3)):
            b = plan.blocks[plan.leaf_class >= 0]
            sizes |= set(zip((b[:, 1] - b[:, 0]).tolist(), (b[:, 3] - b[:, 2]).tolist()))
        pairs = max(na * nb for na, nb in sizes)
        below = math.isqrt((2**63 - 1) // (4 * pairs)) // top
        assert 4 * (below * top) ** 2 * pairs < 2**63 <= 4 * ((below + 1) * top) ** 2 * pairs
        near = 2**61 // top
        assert 2 * near * top < 2**63 <= max(nb for _, nb in sizes) * near * top
        for c in (below, below + 1, near, 3**45):
            big = (den, [v * c for v in ints.tolist()])
            for p in (2, 3):
                for n in range(3):
                    want = ball_pair_sum_bruteforce(lv, big, p, n, EXACT)
                    assert ball_pair_sum_indexed(lv, big, p, n, EXACT, leaf_max) == want, (c, p, n)
                    assert want == ball_pair_sum_bruteforce(lv, (den, ints), p, n, EXACT) * c**p


def test_exact_p2_leaf_classes_take_the_square_form(hier3, monkeypatch):
    """Exact p = 2 leaf classes take ``_class_sums``'s stacked square form,
    as float ones do: ramp sums at l = 3, m = 5, n = 0..4 sum no |d|^p
    tile, while a p = 3 sum does."""
    calls = []
    tile_sums = EXACT._tile_sums
    monkeypatch.setattr(EXACT, "_tile_sums", lambda *args: calls.append(1) or tile_sums(*args))
    vals = EXACT.values_at(hier3, diagonal_ramp(), 5)
    for n in range(5):
        ball_pair_sum_indexed(hier3.level(5), vals, 2, n, EXACT)
    assert not calls
    ball_pair_sum_indexed(hier3.level(2), EXACT.values_at(hier3, diagonal_ramp(), 2), 3, 1, EXACT)
    assert calls


def test_integer_p_full_blocks_sum_no_tile(hier3, monkeypatch):
    """At an integer p >= 3 full blocks take sorted prefix power sums in
    both arithmetics, so no tile sum runs without a mask (on a full block),
    while leaf classes still tile; at p = 2.5 full blocks are tiled."""
    full_tiles = []
    for arith in (EXACT, FLOAT):

        def spy(d, p, mask, tile_sums=arith._tile_sums):
            full_tiles.append(mask is None)
            return tile_sums(d, p, mask)

        monkeypatch.setattr(arith, "_tile_sums", spy)
    lv = hier3.level(4)
    plan = pair_plan(lv, 1)
    assert (plan.leaf_class < 0).any() and (plan.leaf_class >= 0).any()
    for arith, p in ((EXACT, 3), (EXACT, 4), (FLOAT, 3), (FLOAT, 5), (FLOAT, 2.5)):
        full_tiles.clear()
        ball_pair_sum_indexed(lv, arith.values_at(hier3, diagonal_ramp(), 4), p, 1, arith)
        assert full_tiles, (arith, p)
        assert any(full_tiles) == (p == 2.5), (arith, p)


def test_integer_p_full_blocks_keep_memory_small(hier3):
    """Sorted prefix sums hold one sorted piece and one chunk of A values at
    a time.  With the plan cached, float p = 3 at l = 3, m = 6, n = 0
    peaked at 1.38 MiB and exact p = 3 at m = 5, n = 0 at 0.79 MiB
    (numpy 2.4, x86-64); the pair-by-pair tiles they replace took 1.58 and
    1.64 MiB."""
    for arith, m in ((FLOAT, 6), (EXACT, 5)):
        lv = hier3.level(m)
        vals = arith.values_at(hier3, diagonal_ramp(), m)
        pair_plan(lv, 0)
        tracemalloc.start()
        try:
            ball_pair_sum_indexed(lv, vals, 3, 0, arith)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, f"{arith}: peak {peak / 2**20:.2f} MB"


def test_each_class_mask_is_built_once(hier3, monkeypatch):
    """A float sum builds each leaf class's mask once, however many plan
    rows a chunk of F = 9 columns spans."""
    lv = hier3.level(6)
    plan = pair_plan(lv, 1)
    built = []
    mask = pairsum._class_mask

    def counting(*args):
        built.append(args)
        return mask(*args)

    monkeypatch.setattr(pairsum, "_class_mask", counting)
    vals = np.random.default_rng(3).standard_normal((lv.num_vertices, 9))
    ball_pair_sum_indexed(lv, vals, 2, 1, FLOAT)
    assert len(built) == plan.leaf_class.max() + 1 == 1736


@pytest.mark.parametrize("ratios", [constant_ratios(3, 6), alternating_ratios(5, 3, 6)])
def test_bruteforce_is_the_double_loop(ratios):
    """The tiled brute-force route equals a pure-Python double loop on
    levels <= 2, exactly in int64 and in Python ints, within float
    rounding on floats, and with F = 1024 columns split into column tiles."""
    hier = Hierarchy(ratios, 2)
    for m in range(3):
        lv = hier.level(m)
        den, ints = EXACT.values_at(hier, random_affine(hier, 4), m)
        ints = ints.tolist()
        fl = FLOAT.values_at(hier, random_affine(hier, 4), m)
        # just inside int64 for p = 3: (2 max|v|)^3 < 2^63, sums past it
        top = max(map(abs, ints))
        near = [v * ((2**20 - 1) // top) for v in ints]
        for n in range(m + 1):
            for p in (2, 3):
                for vals in (ints, near, [v * 3**45 for v in ints]):
                    want = sum(ball_rows_double_loop(lv, vals, p, n)[1])
                    assert ball_pair_sum_bruteforce(lv, (den, vals), p, n, EXACT) == want, (m, n, p)
                counts, sums = ball_rows_double_loop(lv, fl.tolist(), p + 0.5, n)
                got = ball_pair_sum_bruteforce(lv, fl, p + 0.5, n, FLOAT)
                assert got == pytest.approx(math.fsum(sums), rel=1e-12, abs=1e-300)
                got_counts, got_sums = ball_row_stats(lv, fl, p + 0.5, n)
                assert got_counts.tolist() == counts
                assert got_sums.tolist() == pytest.approx(sums, rel=1e-12, abs=1e-300)
    wide = np.random.default_rng(5).standard_normal((lv.num_vertices, 1024))
    assert pairsum._CHUNK // 1024 < lv.num_vertices
    got = ball_pair_sum_bruteforce(lv, wide, 3, 1, FLOAT)
    for f in (0, 1023):
        want = math.fsum(ball_rows_double_loop(lv, wide[:, f].tolist(), 3, 1)[1])
        assert got[f] == pytest.approx(want, rel=1e-12), f


def test_pair_index_squared_distances_past_int32():
    """At level 1 of constant ratio 23171, 4 L^2 > 2^31: the pair index's
    ball test at radius rho_0 agrees with Python ints on the rows of the
    four outer corners, whose farthest vertices are 8 L^2 apart."""
    lv = build_level(constant_ratios(23171, 3), 1)
    L = lv.L
    assert lv.num_cells == 46341 and 4 * L * L > 2**31
    idx = pairsum._pair_index(lv)
    R = 8 * L * L - 1  # rho_0 at level 1: dx^2 + dy^2 < 8 L^2
    xy = list(map(tuple, lv.coords.tolist()))
    corners = [xy.index((sx * L, sy * L)) for sx in (1, -1) for sy in (1, -1)]
    for i in corners:
        xi, yi = xy[i]
        want = [(xi - x) ** 2 + (yi - y) ** 2 <= R for x, y in xy]
        got = pairsum._in_ball(idx, R, i, i + 1, 0, len(xy))[0]
        assert got.tolist() == want
        assert want.count(False) == 1


@pytest.mark.parametrize("fixture", ("hier3", "hier35"))
def test_open_ball_rule_is_one_across_routes(fixture, request):
    """On level 3 of constant 3 and of alternating (3, 5), for every n and
    every ordered vertex pair: ``within_open_ball``, the brute-force tiles'
    mask and ``_in_ball`` at the plan's ``radius2`` agree.
    ``within_open_ball`` reads a pair only through (|dx|, |dy|), so it is
    called once per distinct offset, on a vertex pair of the level that
    has it."""
    lv = request.getfixturevalue(fixture).level(3)
    V = lv.num_vertices
    xy = lv.coords.astype(np.int64)
    offset = np.abs(xy[:, None] - xy[None]).reshape(V * V, 2)
    _, first, inverse = np.unique(offset, axis=0, return_index=True, return_inverse=True)
    idx = pairsum._pair_index(lv)
    for n in range(4):
        tiles = np.empty((V, V), dtype=bool)
        for i0, j0, mask in pairsum._ball_tiles(lv, n, 1):
            tiles[i0 : i0 + mask.shape[0], j0 : j0 + mask.shape[1]] = mask
        planned = pairsum._in_ball(idx, pair_plan(lv, n).radius2, 0, V, 0, V)
        verdict = np.array(
            [
                within_open_ball(lv.vertex_point(k // V), lv.vertex_point(k % V), n, lv.ratios)
                for k in first.tolist()
            ]
        )
        exact = verdict[inverse.reshape(-1)].reshape(V, V)
        assert np.array_equal(tiles, exact), n
        assert np.array_equal(planned, exact), n
        assert 0 < exact.sum() < V * V, n


def test_one_leaf_block_plan_tabulates_no_child_pairs():
    """At level 1 of constant ratio 23171 the root self pair has 46,341
    children, about 1.07e9 child pairs.  With leaf_max = V the root is one
    leaf block, and building that plan allocates nothing for those pairs."""
    lv = build_level(constant_ratios(23171, 3), 1)
    V = lv.num_vertices
    pairsum._pair_index(lv)
    tracemalloc.start()
    try:
        plan = pair_plan(lv, 0, V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.blocks.tolist() == [[0, V, 0, V, 1]]
    assert plan.leaf_class.tolist() == [0]
    assert peak <= 2**20, f"peak {peak / 2**20:.1f} MB"


def test_plan_past_int32_distances():
    """At level 2 of ratios (155, 151), 4 L^2 > 2^31, the plan of radius
    rho_0 leaves out exactly the 4 ordered pairs of opposite outer corners:
    the exact sum of (x_i - x_j)^2 over it equals the closed form over all
    pairs minus those four."""
    lv = build_level(periodic_ratios((155, 151), 4), 2)
    L = lv.L
    assert 4 * L * L > 2**31
    plan = pair_plan(lv, 0)
    assert plan.blocks.dtype == plan.leaf_class.dtype == np.int32
    xs = lv.coords[:, 0].tolist()
    V, S, Q = len(xs), sum(xs), sum(x * x for x in xs)
    want = 2 * V * Q - 2 * S * S - 4 * (2 * L) ** 2
    assert ball_pair_sum_indexed(lv, (1, xs), 2, 0, EXACT) == want
