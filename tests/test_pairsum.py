from __future__ import annotations

import tracemalloc

import pytest

from vicsek_lab import pairsum
from vicsek_lab.energy import diagonal_ramp, float_values_at, random_affine, scaled_values_at
from vicsek_lab.geometry import Hierarchy
from vicsek_lab.pairsum import (
    ball_pair_sum,
    ball_pair_sum_bruteforce,
    ball_pair_sum_indexed,
    pair_plan,
)
from vicsek_lab.ratios import alternating_ratios, constant_ratios


def test_auto_above_old_cutoff_matches_bruteforce():
    # V = 8101: float p != 2 at this size used to go to brute force
    hier = Hierarchy(alternating_ratios(3, 5, 8), 4)
    lv = hier.level(4)
    assert lv.num_vertices == 8101
    vals = float_values_at(hier, diagonal_ramp(), 4)
    got = ball_pair_sum(lv, vals, 3, 1, method="auto")
    want = ball_pair_sum_bruteforce(lv, vals, 3, 1)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_indexed_memory_is_bounded(hier3):
    lv = hier3.level(5)
    assert lv.num_vertices == 12501
    vals = float_values_at(hier3, diagonal_ramp(), 5)
    tracemalloc.start()
    try:
        ball_pair_sum_indexed(lv, vals, 1.5, 0)
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
    fa = float_values_at(hier, random_affine(hier, 1), 3)
    fb = float_values_at(hier, random_affine(hier, 2), 3)
    ea = scaled_values_at(hier, random_affine(hier, 1), 3)
    eb = scaled_values_at(hier, random_affine(hier, 2), 3)
    for vals, p in ((fa, 2), (fb, 2.5), (ea, 2), (eb, 3)):
        ball_pair_sum_indexed(lv, vals, p, 1)
    assert len(built) == 1
    plan = pair_plan(lv, 1)
    assert pair_plan(lv, 1) is plan
    other = pair_plan(lv, 2)
    assert other is not plan
    assert len(built) == 2
    ball_pair_sum_indexed(lv, fa, 2, 2)
    assert len(built) == 2
