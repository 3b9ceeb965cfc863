"""Differential property tests: the vectorised geometry against the dict oracle.

``_geometry_oracle`` builds each level with a dict of coordinates and a FIFO
breadth-first search, and each transition with one dict lookup per point.
The library refines each level from the one before through a per-ratio
template of one cell's children: vertex ids count the new points cell by
cell, the maps are gathers by the template, and depths extend along the
maps; every array, vertex ids included, must be equal.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from _geometry_oracle import cell_centers, oracle_level, oracle_transition  # noqa: E402
from vicsek_lab.errors import LookupError_  # noqa: E402
from vicsek_lab.geometry import Hierarchy, _cell_centers  # noqa: E402
from vicsek_lab.ratios import (  # noqa: E402
    alternating_ratios,
    constant_ratios,
    periodic_ratios,
)

LEVEL_FIELDS = (
    "coords",
    "owner_word",
    "multiplicity",
    "cell_vertices",
    "depth",
    "parent",
    "edge_tail",
    "edge_head",
)

odd = st.sampled_from((3, 5, 7, 9, 11))
sequences = st.one_of(
    odd.map(lambda l: constant_ratios(l, 6)),
    st.tuples(odd, odd).map(lambda ab: alternating_ratios(*ab, 6)),
    st.lists(odd, min_size=1, max_size=4).map(lambda b: periodic_ratios(b, 6)),
)

# the oracle is pure Python per slot and per point; ratio 7 has 8789
# vertices at level 3 and 114,245 at level 4
MAX_VERTICES = 10_000


@st.composite
def hierarchies(draw):
    ratios = draw(sequences)
    top = max(k for k in range(5) if ratios.num_vertices(k) <= MAX_VERTICES)
    return Hierarchy(ratios, draw(st.integers(0, top)))


@given(hierarchies())
def test_levels_and_transitions_match_oracle(hier):
    oracles = [oracle_level(hier.ratios, k) for k in range(hier.max_level + 1)]
    for lv, want in zip(hier.levels, oracles):
        assert lv.origin == want.origin
        for f in LEVEL_FIELDS:
            assert np.array_equal(getattr(lv, f), getattr(want, f)), f
    for k in range(hier.max_level):
        lift, interior, hang, waves = oracle_transition(
            oracles[k], oracles[k + 1], hier.ratios.ratio(k + 1)
        )
        t = hier.transition(k)
        assert np.array_equal(t.lift, lift)
        assert np.array_equal(t.interior, interior)
        assert np.array_equal(t.hang, hang)
        # every hanging vertex hangs off a vertex valued by lift or interior,
        # so value extension copies them all in one pass
        assert waves == ([(0, len(hang))] if len(hang) else [])


@given(hierarchies(), st.integers(0, 2**32 - 1))
def test_vertex_id_roundtrip_and_misses(hier, seed):
    lv = hier.level(hier.max_level)
    assert [lv.vertex_id(x, y) for x, y in lv.coords.tolist()] == list(range(lv.num_vertices))

    L = lv.L
    vertices = set(map(tuple, lv.coords.tolist()))
    rng = np.random.default_rng(seed)
    # random lattice points of both parities in and around the box
    for x, y in rng.integers(-L - 3, L + 4, size=(200, 2)).tolist():
        if (x, y) in vertices:
            assert tuple(lv.coords[lv.vertex_id(x, y)].tolist()) == (x, y)
        else:
            with pytest.raises(LookupError_):
                lv.vertex_id(x, y)
    # odd parity: one coordinate even, the other odd, is never a vertex
    for x, y in lv.coords[:50].tolist():
        with pytest.raises(LookupError_):
            lv.vertex_id(x + 1, y)
    # outside the box, including points whose packed key equals a vertex key
    stride = 2 * L + 3
    for x, y in lv.coords[:50].tolist():
        for px, py in ((x - 1, y + stride), (x + 1, y - stride), (x + stride, y)):
            with pytest.raises(LookupError_):
                lv.vertex_id(px, py)
    for px, py in ((L + 2, 0), (0, -L - 2), (10**30, 0), (-(10**30), 10**30)):
        with pytest.raises(LookupError_):
            lv.vertex_id(px, py)


def test_vectorised_lookup_rejects_any_miss(hier3):
    """Every vertex of the vectorised level is found at its coordinates, and
    a miss raises, whether its key is absent or equal to a vertex key."""
    lv = hier3.level(3)
    assert [lv.vertex_id(x, y) for x, y in lv.coords.tolist()] == list(range(lv.num_vertices))
    x, y = lv.coords[7].tolist()
    # a lattice point next to vertex 7 with no vertex of its own
    assert (x, y + 2) not in set(map(tuple, lv.coords.tolist()))
    with pytest.raises(LookupError_):
        lv.vertex_id(x, y + 2)
    # outside the box, with the packed key of vertex 7
    with pytest.raises(LookupError_):
        lv.vertex_id(x - 1, y + 2 * lv.L + 3)


@pytest.mark.parametrize(
    "ratios,n",
    [
        (constant_ratios(3, 6), 5),
        (alternating_ratios(3, 5, 4), 4),
        (periodic_ratios((7, 3, 5), 3), 3),
    ],
)
def test_cell_centers_shared_and_exact(ratios, n):
    for k in range(n + 1):
        centers = _cell_centers(ratios, k)
        assert centers.dtype == np.int64 and centers.shape == (ratios.num_words(k), 2)
        assert centers.tolist() == [list(c) for c in cell_centers(ratios, k)]
        assert _cell_centers(ratios, k) is centers
        assert not centers.flags.writeable
