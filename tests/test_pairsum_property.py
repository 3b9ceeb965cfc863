"""Differential property tests: the cell-tree route against brute force,
the float route against the per-block oracle, and the pair index's layout
types against the partition by owned coordinates."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
import numpy as np  # noqa: E402
from hypothesis import given, strategies as st  # noqa: E402

from _pairsum_oracle import (  # noqa: E402
    ball_pair_sum_per_block,
    cell_layouts,
    matches_per_block,
    same_partition,
)

from vicsek_lab.energy import (  # noqa: E402
    EXACT,
    FLOAT,
    random_affine,
)
from vicsek_lab.geometry import Hierarchy, build_level  # noqa: E402
from vicsek_lab.pairsum import (  # noqa: E402
    CellPairIndex,
    ball_pair_sum_bruteforce,
    ball_pair_sum_indexed,
)
from vicsek_lab.ratios import (  # noqa: E402
    alternating_ratios,
    constant_ratios,
    periodic_ratios,
)

odd = st.sampled_from((3, 5, 7))
sequences = st.one_of(
    odd.map(lambda l: constant_ratios(l, 6)),
    st.tuples(odd, odd).map(lambda ab: alternating_ratios(*ab, 6)),
    st.lists(odd, min_size=1, max_size=4).map(lambda b: periodic_ratios(b, 6)),
)


# the pure-Python exact oracle is O(V^2); ratio 7 reaches 8789 vertices at m = 3
MAX_VERTICES = 1500


@st.composite
def cases(draw):
    ratios = draw(sequences)
    hier = Hierarchy(ratios, 3)
    top = max(k for k in range(4) if hier.level(k).num_vertices <= MAX_VERTICES)
    m = draw(st.integers(0, top))
    n = draw(st.integers(0, m))
    seed = draw(st.integers(0, 2**32 - 1))
    return hier, hier.level(m), random_affine(hier, seed, max_base_level=m), m, n


@given(cases(), st.sampled_from((4, 64, 256)))
def test_indexed_exact_is_bruteforce(case, leaf_max):
    """Exact leaf classes, split self pairs and sub-blocks, down to leaves
    of at most 4 vertices, against brute force."""
    hier, lv, u, m, n = case
    vals = EXACT.values_at(hier, u, m)
    for p in (2, 3, 4, 5):
        got = ball_pair_sum_indexed(lv, vals, p, n, EXACT, leaf_max)
        assert got == ball_pair_sum_bruteforce(lv, vals, p, n, EXACT), p


@given(cases())
def test_indexed_float_matches_bruteforce(case):
    hier, lv, u, m, n = case
    vals = FLOAT.values_at(hier, u, m)
    for p in (1.5, 2, 2.7, 3):
        got = ball_pair_sum_indexed(lv, vals, p, n, FLOAT)
        want = ball_pair_sum_bruteforce(lv, vals, p, n, FLOAT)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


@given(cases())
def test_indexed_float_integer_p_is_bruteforce(case):
    """Sorted prefix power sums on integer p >= 3 full blocks keep the float
    route within rel 1e-13 of brute force."""
    hier, lv, u, m, n = case
    vals = FLOAT.values_at(hier, u, m)
    for p in (3, 4, 5):
        got = ball_pair_sum_indexed(lv, vals, p, n, FLOAT)
        want = ball_pair_sum_bruteforce(lv, vals, p, n, FLOAT)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-300), p


@st.composite
def float_cases(draw):
    ratios = draw(sequences)
    # V_k has 4 * #words + 1 vertices; levels are built only when drawn
    top = max(k for k in range(5) if 4 * ratios.num_words(k) + 1 <= 2 * MAX_VERTICES)
    hier = Hierarchy(ratios, 4)
    m = draw(st.integers(0, top))
    n = draw(st.integers(0, m))
    F = draw(st.sampled_from((1, 3, 20)))
    leaf_max = draw(st.sampled_from((64, 256, 1024)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (hier.level(m).num_vertices,) + ((F,) if F > 1 else ())  # F = 1: a vector
    return hier.level(m), rng.standard_normal(shape), n, leaf_max


@given(float_cases())
def test_indexed_float_is_per_block_oracle(case):
    """Class masks change no bit: the float route equals the per-block
    evaluation, which builds every leaf mask from coordinates (within
    rounding at p = 3, whose full blocks take sorted prefix sums)."""
    lv, vals, n, leaf_max = case
    for p in (1.5, 2, 3):
        got = ball_pair_sum_indexed(lv, vals, p, n, FLOAT, leaf_max)
        want = ball_pair_sum_per_block(lv, vals, p, n, leaf_max)
        assert matches_per_block(got, want, p), (p, got, want)


@st.composite
def levels(draw):
    ratios = draw(sequences)
    top = max(k for k in range(6) if ratios.num_words(k) <= 4000)
    return build_level(ratios, draw(st.integers(0, top)))


@given(levels())
def test_pair_index_types_are_the_layout_partition(lv):
    """The two invariants the pair index reads off the level: owner cells
    never decrease in vertex id, so the vertices below a cell are one id
    range, and the corner-ownership types partition each depth's cells
    exactly as their owned coordinates relative to the center do."""
    assert (np.diff(lv.owner_word) >= 0).all()
    assert same_partition(CellPairIndex(lv).cell_type, cell_layouts(lv))
