from __future__ import annotations

import math
from fractions import Fraction

import pytest

from _geometry_oracle import children
from _measure_oracle import doubling_bound, example_sequence_eta_bound_holds, mu_cell, phi_of
from vicsek_lab.errors import InvalidArgumentError, InvalidRatioError
from vicsek_lab.geometry import LatticePoint, build_level
from vicsek_lab.measure import (
    derived_constants,
    dimension_of_ratio,
    hausdorff_dimension,
    hausdorff_report,
    mu_ball_bounds,
    psi_of,
    psi_ratio_bounds,
    regularized_scales,
    scale_values,
)
from vicsek_lab.ratios import RatioSequence, constant_ratios, example_sequence_ratios
from vicsek_lab.words import CENTER, Letter, word_from_index


def test_scale_values_level0():
    for rs in (constant_ratios(3, 3), RatioSequence((5, 7), p=3)):
        rho, psi, phi = scale_values(rs, 0)
        assert rho == 2 and psi == 1
        assert phi == Fraction(2) ** (int(rs.p) - 1)


def test_scale_values_examples():
    rho, psi, phi = scale_values(constant_ratios(3, 3), 1)
    assert (rho, psi, phi) == (Fraction(2, 3), Fraction(1, 5), Fraction(2, 15))
    # oracle: phi = rho^(p-1) * psi evaluated by independent Fraction arithmetic
    rs = RatioSequence((3, 5))
    rho, psi, phi = scale_values(rs, 2)
    assert (rho, psi) == (Fraction(2, 15), Fraction(1, 45))
    assert phi == Fraction(2, 15) ** 1 * Fraction(1, 45) == Fraction(2, 675)


def test_phi_float_for_noninteger_p():
    rs = RatioSequence((3,), p=1.5)
    rho, psi, phi = scale_values(rs, 1)
    assert isinstance(phi, float)
    assert phi == pytest.approx(float(rho) ** 0.5 * float(psi), rel=1e-14)


def test_psi_phi_step_functions():
    rs = constant_ratios(3, 5)
    assert psi_of(rs, Fraction(5, 2)) == 1
    assert psi_of(rs, 2) == 1
    assert psi_of(rs, Fraction(2, 3)) == Fraction(1, 5)
    # right-open at rho_{n+1}: slightly above rho_2 still uses level-1 value
    assert psi_of(rs, Fraction(2, 9) + Fraction(1, 1000)) == Fraction(1, 5)
    assert phi_of(rs, Fraction(2, 3)) == Fraction(2, 15)


def test_mu_cell_masses():
    rs = RatioSequence((3, 5))
    assert mu_cell(rs, ()) == 1
    assert mu_cell(rs, (CENTER,)) == Fraction(1, 5)
    assert mu_cell(rs, (CENTER, Letter(1, 2))) == Fraction(1, 45)


def test_mu_cell_additive_over_children():
    rs = RatioSequence((3, 5, 3))
    for level in range(3):
        word = word_from_index(rs, level, min(2, rs.num_words(level) - 1))
        total = sum((mu_cell(rs, c) for c in children(rs, word)), Fraction(0))
        assert total == mu_cell(rs, word)


def test_mu_ball_whole_space():
    rs = constant_ratios(3, 4)
    origin = LatticePoint(0, 0, 0)
    lo, hi = mu_ball_bounds(rs, origin, Fraction(2), 2)
    assert lo == 1 and hi == 1


def test_mu_ball_central_cell_inside():
    rs = constant_ratios(3, 4)
    origin = LatticePoint(0, 0, 0)
    lo, hi = mu_ball_bounds(rs, origin, Fraction(34, 100), 1)
    assert lo >= Fraction(1, 5)
    # recursive-cover oracle at depth 4 pins the interval inside depth-1 bounds
    lo4, hi4 = mu_ball_bounds(rs, origin, Fraction(34, 100), 4)
    assert lo <= lo4 <= hi4 <= hi


def test_mu_ball_bounds_nested_and_bracketing():
    rs = constant_ratios(3, 5)
    lv1 = build_level(rs, 1)
    corner = lv1.vertex_point(lv1.vertex_id(3, 3))
    prev = None
    for d in range(5):
        lo, hi = mu_ball_bounds(rs, corner, Fraction(1, 2), d)
        assert lo <= hi
        if prev is not None:
            assert prev[0] <= lo and hi <= prev[1]
        prev = (lo, hi)
    assert prev[1] - prev[0] < Fraction(1, 10)


def test_mu_ball_invalid_radius():
    rs = constant_ratios(3, 3)
    with pytest.raises(InvalidArgumentError):
        mu_ball_bounds(rs, LatticePoint(0, 0, 0), 0, 2)


def test_psi_scaling_law_bounds():
    rs = RatioSequence((3, 5, 3, 5, 3, 5, 3, 5))
    c1, inf_a, c2, sup_a = psi_ratio_bounds(rs)
    rng_points = []
    r = Fraction(2)
    for _ in range(10):
        r *= Fraction(7, 10)
        rng_points.append(r)
    for i, r in enumerate(rng_points):
        for R in rng_points[:i]:
            ratio = psi_of(rs, R) / psi_of(rs, r)
            x = float(R / r)
            assert c1 * x**inf_a <= float(ratio) * (1 + 1e-12)
            assert float(ratio) <= c2 * x**sup_a * (1 + 1e-12)


def test_doubling_ratio_explicit_bound():
    rs = RatioSequence((3, 5, 3, 5, 3, 5))
    bound = doubling_bound(rs)
    lv = build_level(rs, 2)
    pts = [lv.vertex_point(lv.origin), lv.vertex_point(lv.vertex_id(15, 15))]
    for x in pts:
        r = Fraction(1, 2)
        for _ in range(4):
            lo, hi = mu_ball_bounds(rs, x, r, 4)
            lo2, hi2 = mu_ball_bounds(rs, x, 2 * r, 4)
            assert float(hi2) <= bound * float(lo)
            r /= 2


# ---------------------------------------------------------------------------
# Hausdorff diagnostics
# ---------------------------------------------------------------------------


def test_dimension_formula_values():
    a = hausdorff_dimension(3, 5, 1.0)
    assert a == pytest.approx(math.log(45) / math.log(15), abs=1e-15)
    assert a == pytest.approx(1.405684, abs=2e-6)
    a0 = hausdorff_dimension(3, 5, 0.0)
    assert a0 == pytest.approx(math.log(9) / math.log(5), abs=1e-15)
    assert a0 == pytest.approx(dimension_of_ratio(5), abs=1e-15)
    assert a0 == pytest.approx(1.365212, abs=2e-6)


def test_hausdorff_report_classification():
    prefix = [3, 3, 5, 3, 3, 3, 5, 5]
    rep = hausdorff_report(3, 5, prefix, 1.0, liminf_eta="+inf", limsup_eta="+inf")
    assert rep.hausdorff_measure_class == "infinite"
    assert rep.ahlfors_regular is False
    assert rep.non_self_similar is True
    rep2 = hausdorff_report(3, 5, prefix, 1.0, liminf_eta="real", limsup_eta="real")
    assert rep2.hausdorff_measure_class == "positive_finite"
    assert rep2.ahlfors_regular is True
    assert rep2.non_self_similar is False
    rep3 = hausdorff_report(3, 5, prefix, 1.0, liminf_eta="real", limsup_eta="+inf")
    assert rep3.non_self_similar is True
    # a > b uses the limsup column with flipped signs
    rep4 = hausdorff_report(5, 3, prefix, 1.0, liminf_eta="real", limsup_eta="+inf")
    assert rep4.hausdorff_measure_class == "zero"
    assert rep4.non_self_similar is None


def test_hausdorff_report_degenerate_and_errors():
    rep = hausdorff_report(3, 3, [3, 3], 1.0)
    assert rep.degenerate and rep.non_self_similar is False
    assert rep.theta_seq == (1.0, 1.0)  # every entry counts as both a and b
    for a in (4, 3.5):
        with pytest.raises(InvalidRatioError):
            hausdorff_report(a, 5, [a], 1.0)
    with pytest.raises(InvalidArgumentError):
        hausdorff_report(3, 5, [], 1.0)


def test_hausdorff_prefix_entries_are_the_ratios():
    # a 0/1 pattern is no prefix, and 3.5 is rejected, not truncated to 3
    for prefix in ([0, 1], [3, 5, 1], [3, 3.5]):
        with pytest.raises(InvalidArgumentError):
            hausdorff_report(3, 5, prefix, 1.0)


def test_hausdorff_sequences_match_block_formulas():
    # the block example: theta_{k^2+2k+t} = (k^2+3k+2t)/(k^2+k)
    rs = example_sequence_ratios(3, 5, 50)
    rep = hausdorff_report(3, 5, list(rs.prefix(50)), 1.0)
    for k in (1, 2, 3, 4):
        for t in range(1, k + 3):
            n = k * k + 2 * k + t
            if n > 50:
                continue
            expected_theta = (k * k + 3 * k + 2 * t) / (k * k + k)
            assert rep.theta_seq[n - 1] == pytest.approx(expected_theta, rel=1e-12)
            expected_eta = n * (expected_theta - 1.0)
            assert rep.eta_seq[n - 1] == pytest.approx(expected_eta, rel=1e-12)


def test_eta_lower_bound_small_range_exact():
    assert example_sequence_eta_bound_holds(3, 5, 5_000)


def eta_bound_by_block_walk(n_max: int) -> bool:
    """Reference: the eta_n >= (2/3) sqrt(n) check walked block by block
    (a repeated j + 1 times, then b repeated j times) with both counts."""
    count_a = count_b = n = 0
    j = 1
    while n < n_max:
        for is_a, run in ((True, j + 1), (False, j)):
            for _ in range(run):
                n += 1
                if n > n_max:
                    return True
                count_a += is_a
                count_b += not is_a
                if count_b == 0:
                    continue
                diff = count_a - count_b
                if diff < 0 or 9 * n * diff * diff < 4 * count_b * count_b:
                    return False
        j += 1
    return True


def test_eta_bound_matches_the_block_walk():
    for n_max in range(3_000):
        assert example_sequence_eta_bound_holds(3, 5, n_max) == eta_bound_by_block_walk(n_max)
    assert example_sequence_eta_bound_holds(5, 3, 10**6) == eta_bound_by_block_walk(10**6)


def test_xi_eta_log_correlation():
    # log xi_n tracks f'(theta) eta_n with a positive stable ratio (a < b)
    rs = example_sequence_ratios(3, 5, 400)
    rep = hausdorff_report(3, 5, list(rs.prefix(400)), 1.0)
    a, b, theta = 3, 5, 1.0
    fprime = (
        math.log(a) * math.log(b)
        / (theta * math.log(a) + math.log(b)) ** 2
        * (math.log(2 * a - 1) / math.log(a) - math.log(2 * b - 1) / math.log(b))
    )
    assert fprime > 0
    ratios = []
    for n in range(200, 400):
        eta = rep.eta_seq[n]
        if eta > 0 and math.isfinite(eta):
            ratios.append(math.log(rep.xi_seq[n] / 2**rep.alpha) / (fprime * eta))
    assert ratios
    assert all(r > 0 for r in ratios)
    assert max(ratios) / min(ratios) < 2.0


# ---------------------------------------------------------------------------
# derived constants and regularized scales
# ---------------------------------------------------------------------------


def test_derived_constants_alphabet3():
    c = derived_constants(constant_ratios(3, 4, p=2))
    assert c.t[3] == pytest.approx(15.0, abs=1e-12)
    alpha3 = math.log(5) / math.log(3)
    assert c.alpha[3] == pytest.approx(alpha3, abs=1e-15)
    assert c.alpha[3] == pytest.approx(1.464974, abs=2e-6)
    assert c.eps_p == pytest.approx(1.0 / (1.0 + 1.0 / alpha3), abs=1e-15)
    assert c.eps_p == pytest.approx(0.594316, abs=2e-6)
    assert c.beta[3] == pytest.approx(1 + alpha3, abs=1e-15)
    assert c.beta[3] == pytest.approx(2.464974, abs=2e-6)
    assert 0 < c.eps_p < 1 and c.t[3] > 1


def test_derived_constants_mixed_alphabet():
    c = derived_constants(RatioSequence((3, 5, 3), p=3))
    assert set(c.alpha) == {3, 5}
    assert c.inf_alpha == c.alpha[5] and c.sup_alpha == c.alpha[3]
    assert c.t[5] == pytest.approx(9 * 25.0)
    assert c.inf_t == pytest.approx(5 * 9.0) and c.sup_t == pytest.approx(225.0)


def test_regularized_scales_nodes_and_midpoint():
    rs = constant_ratios(3, 5)
    for n in range(4):
        rho = rs.rho(n)
        psi_t, phi_t = regularized_scales(rs, rho)
        assert psi_t == psi_of(rs, rho)
        assert phi_t == rho ** 1 * psi_t
    mid = (rs.rho(1) + rs.rho(0)) / 2
    psi_t, _ = regularized_scales(rs, mid)
    assert psi_t == Fraction(3, 5)
    psi_t, phi_t = regularized_scales(rs, Fraction(3))
    assert psi_t == Fraction(3, 2)  # r/2 branch for r >= 2
    with pytest.raises(InvalidArgumentError):
        regularized_scales(rs, Fraction(0))


def test_regularized_scales_strictly_increasing_and_sandwich():
    rs = RatioSequence((3, 5, 3, 5, 3, 5, 3))
    samples = []
    r = Fraction(5, 2)
    while r > rs.rho(6):
        samples.append(r)
        r *= Fraction(9, 11)
    values = [regularized_scales(rs, r) for r in samples]
    for (p1, f1), (p2, f2) in zip(values, values[1:]):
        assert p2 < p1 and f2 < f1  # samples decrease, so values must too
    sup_l = 5
    for r, (psi_t, phi_t) in zip(samples, values):
        if r <= 2:
            psi_r = psi_of(rs, r)
            phi_r = phi_of(rs, r)
            assert psi_r / (2 * sup_l - 1) <= psi_t <= psi_r
            assert phi_r / ((2 * sup_l - 1) * sup_l ** (int(rs.p) - 1)) <= phi_t <= phi_r
