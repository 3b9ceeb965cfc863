"""Differential property tests: the cell-tree route against brute force."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from vicsek_lab.energy import float_values_at, random_affine, scaled_values_at  # noqa: E402
from vicsek_lab.geometry import Hierarchy  # noqa: E402
from vicsek_lab.pairsum import ball_pair_sum_bruteforce, ball_pair_sum_indexed  # noqa: E402
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


@given(cases())
def test_indexed_exact_is_bruteforce(case):
    hier, lv, u, m, n = case
    vals = scaled_values_at(hier, u, m)
    for p in (2, 3):
        assert ball_pair_sum_indexed(lv, vals, p, n) == ball_pair_sum_bruteforce(
            lv, vals, p, n
        )


@given(cases())
def test_indexed_float_matches_bruteforce(case):
    hier, lv, u, m, n = case
    vals = float_values_at(hier, u, m)
    for p in (1.5, 2, 2.7, 3):
        got = ball_pair_sum_indexed(lv, vals, p, n)
        want = ball_pair_sum_bruteforce(lv, vals, p, n)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
