from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from vicsek_lab import energy_measure
from vicsek_lab.energy import (
    EXACT,
    FLOAT,
    AffineFunction,
    add,
    diagonal_ramp,
    corner_indicator,
    energy_limit,
    random_affine,
)
from vicsek_lab.energy_measure import (
    chain_rule_check,
    coincidence_check,
    gamma_cells,
    pushforward_profile,
    triangle_check,
    word_energy_measure,
)
from vicsek_lab.errors import InvalidArgumentError, LevelError
from vicsek_lab.prng import SplitMix64


def test_gamma_cells_constant_zero(hier3):
    u = AffineFunction(0, [1] * 5)
    cm = gamma_cells(hier3, u, 2, 2)
    assert all(m == 0 for m in cm.masses)
    assert cm.total == 0


def test_gamma_cells_ramp_level1(hier3):
    cm = gamma_cells(hier3, diagonal_ramp(), 2, 1)
    # letter order: center, arm1, arm2, arm3, arm4; the diagonal runs 3 -> 1
    assert cm.masses == (
        Fraction(1, 6),
        Fraction(1, 6),
        Fraction(0),
        Fraction(1, 6),
        Fraction(0),
    )
    assert cm.total == Fraction(1, 2)


def test_gamma_total_equals_energy(hier3):
    for seed in (3, 4, 5):
        u = random_affine(hier3, seed)
        for p in (2, 3):
            cm = gamma_cells(hier3, u, p, 2)
            rep = energy_limit(hier3, u, p, max(2, u.base_level))
            assert cm.total == rep.limit


def test_gamma_zero_iff_constant(hier3):
    u = AffineFunction(1, [Fraction(5, 3)] * hier3.level(1).num_vertices)
    assert gamma_cells(hier3, u, 2, 2).total == 0
    v = diagonal_ramp()
    assert gamma_cells(hier3, v, 2, 2).total != 0


def test_word_measure_matches_gamma_and_refines(hier3):
    u = diagonal_ramp()
    wm1 = word_energy_measure(hier3, u, 2, 1)
    gm1 = gamma_cells(hier3, u, 2, 1)
    assert wm1.masses == gm1.masses
    wm2 = word_energy_measure(hier3, u, 2, 2)
    assert wm1.refinement_defect(wm2, 5) == 0


def test_refinement_additivity_random(hier3):
    for seed in (21, 22):
        u = random_affine(hier3, seed)
        for p in (2, 3):
            g1 = gamma_cells(hier3, u, p, 1)
            g2 = gamma_cells(hier3, u, p, 2)
            assert g1.refinement_defect(g2, 5) == 0


def test_coincidence_exact(hier3):
    assert coincidence_check(hier3, diagonal_ramp(), 2, 3) == 0
    for seed in (31, 32):
        assert coincidence_check(hier3, random_affine(hier3, seed), 2, 2) == 0
        assert coincidence_check(hier3, random_affine(hier3, seed), 3, 2) == 0


def test_coincidence_detects_a_misplaced_edge(hier3, monkeypatch):
    """The gradient route and the word route are separate computations.

    The patched stride sends one edge of the gradient route (the first edge
    with mass outside the center cell) to the center cell; the word route
    selects its edges without it, so the check must see the difference.
    """
    u = diagonal_ramp()
    stride = energy_measure.ancestor_index_stride

    def misplace_one(ratios, n, m):
        level = hier3.level(n)
        cells = level.edge_word // stride(ratios, n, m)
        vals = FLOAT.values_at(hier3, u, n)
        mass = vals[level.edge_head] != vals[level.edge_tail]
        e = int(np.flatnonzero(mass & (cells != 0))[0])
        strides = np.full(level.num_edges, stride(ratios, n, m))
        strides[e] = level.edge_word[e] + 1  # edge_word[e] // strides[e] == 0
        return strides

    assert coincidence_check(hier3, u, 2, 2) == 0
    monkeypatch.setattr(energy_measure, "ancestor_index_stride", misplace_one)
    assert coincidence_check(hier3, u, 2.5, 2, FLOAT) > 0
    assert coincidence_check(hier3, u, 2, 2) > 0
    assert gamma_cells(hier3, u, 2, 1).total == Fraction(1, 2)  # only moved


def test_coincidence_float_mode(hier3):
    u = random_affine(hier3, 33)
    dev = coincidence_check(hier3, u, 2.5, 2, FLOAT)
    assert dev <= 1e-12


def test_scaling_and_linear_chain_rule(hier3):
    u = random_affine(hier3, 40)
    c = Fraction(3, 2)
    for p in (2, 3):
        base = gamma_cells(hier3, u, p, 2)
        scaled = gamma_cells(hier3, u.scale(c), p, 2)
        assert all(s == c**p * b for s, b in zip(scaled.masses, base.masses))
        shifted = gamma_cells(hier3, u.scale(c).shift(7), p, 2)
        assert shifted.masses == scaled.masses


def test_leibniz_rule_midpoint_identity(hier3):
    # d(uv) on an edge equals u_mid dv + v_mid du exactly, at any level
    u = random_affine(hier3, 50)
    v = random_affine(hier3, 51)
    n = max(u.base_level, v.base_level, 2)
    den_u, uu = EXACT.values_at(hier3, u, n)
    den_v, vv = EXACT.values_at(hier3, v, n)
    uu = [Fraction(x, den_u) for x in uu.tolist()]
    vv = [Fraction(x, den_v) for x in vv.tolist()]
    lv = hier3.level(n)
    for e in range(0, lv.num_edges, 11):
        t = int(lv.edge_tail[e])
        h = int(lv.edge_head[e])
        lhs = uu[h] * vv[h] - uu[t] * vv[t]
        u_mid = (uu[h] + uu[t]) / 2
        v_mid = (vv[h] + vv[t]) / 2
        rhs = u_mid * (vv[h] - vv[t]) + v_mid * (uu[h] - uu[t])
        assert lhs == rhs


def test_chain_rule_identity_map(hier3):
    rep = chain_rule_check(hier3, diagonal_ramp(), lambda t: t, lambda t: 1.0, 2, 4)
    assert rep.total_relative_deviation <= 1e-12


def test_chain_rule_linear_exact(hier3):
    u = random_affine(hier3, 60)
    a = -2.5
    for p in (2, 3):
        base = gamma_cells(hier3, u, p, 1, arith=FLOAT)
        lin = gamma_cells(hier3, u.scale(Fraction(-5, 2)).shift(1), p, 1, arith=FLOAT)
        for b, s in zip(base.masses, lin.masses):
            assert s == pytest.approx(abs(a) ** p * b, rel=1e-12, abs=1e-300)


def test_chain_rule_square_quadrature(hier3):
    # f(t) = t^2 on the ramp: Gamma<f(u)> total is 2/3, discrete lower bound
    # converges from below; 32-node Simpson is exact for the cubic integrand
    rep = chain_rule_check(
        hier3, diagonal_ramp(), lambda t: t * t, lambda t: 2.0 * t, 2, 6,
        quadrature_nodes=32,
    )
    assert rep.total_quadrature == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert rep.total_relative_deviation <= 0.01
    assert rep.total_discrete <= rep.total_quadrature


def test_triangle_inequality_cases(hier3):
    u1 = random_affine(hier3, 70)
    zero = AffineFunction(0, [0] * 5)
    w = [Fraction(1)] * hier3.ratios.num_words(1)
    ok, lhs, rhs = triangle_check(hier3, u1, zero, w, 2, 1)
    assert ok and lhs == pytest.approx(rhs, rel=1e-12)
    ok, lhs, rhs = triangle_check(hier3, u1, u1, w, 2, 1)
    assert ok and lhs == pytest.approx(rhs, rel=1e-12)  # homogeneity case
    rng = SplitMix64(1234)
    for trial in range(25):
        a = random_affine(hier3, 1000 + trial)
        b = random_affine(hier3, 2000 + trial)
        weights = [rng.next_unit_fraction() + 1 for _ in w]  # in [0, 2)
        for p in (2, 3):
            ok, lhs, rhs = triangle_check(hier3, a, b, weights, p, 1)
            assert ok
    with pytest.raises(InvalidArgumentError):
        triangle_check(hier3, u1, zero, [-1] + w[1:], 2, 1)


def test_pushforward_ramp_uniform(hier3):
    for bins in (4, 10):
        hist = pushforward_profile(hier3, diagonal_ramp(), 2, bins)
        assert hist.total == Fraction(1, 2)
        assert all(m == Fraction(1, 2 * bins) for m in hist.masses)
        assert hist.bin_edges[0] == 0 and hist.bin_edges[-1] == 1
        assert not hist.point_mass_flags


def test_pushforward_corner_indicator(hier3):
    hist = pushforward_profile(hier3, corner_indicator(), 2, 8)
    assert hist.total == 1
    assert all(m == Fraction(1, 8) for m in hist.masses)


def test_pushforward_total_is_energy(hier3):
    for seed in (80, 81):
        u = random_affine(hier3, seed)
        if max(u.values) == min(u.values):
            continue
        hist = pushforward_profile(hier3, u, 2, 16)
        assert hist.total == energy_limit(hier3, u, 2, u.base_level).limit


def test_pushforward_constant_rejected(hier3):
    with pytest.raises(InvalidArgumentError):
        pushforward_profile(hier3, AffineFunction(0, [1] * 5), 2, 8)


def test_word_energy_measure_plateau_needs_the_next_level(hier3):
    with pytest.raises(LevelError, match="needs level 7; hierarchy stops at 6"):
        word_energy_measure(hier3, diagonal_ramp(), 2, 6)
