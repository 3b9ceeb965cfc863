from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from _pairsum_oracle import ball_row_stats

from vicsek_lab.besov import (
    ball_arithmetic,
    ball_energies,
    ball_energy,
    bbm_curve,
    besov_seminorm,
    beta_arithmetic,
    critical_sweep,
    discrete_profiles,
    jump_kernel_energy,
    phi_profile,
    weak_monotonicity_report,
)
from vicsek_lab.energy import (
    EXACT,
    FLOAT,
    AffineFunction,
    arithmetic,
    diagonal_ramp,
    energy_limit,
    random_affine,
)
from vicsek_lab.errors import InvalidArgumentError, LevelError, ScaleMismatchError
from vicsek_lab.measure import derived_constants, scale_values
from vicsek_lab.pairsum import ball_pair_sum_bruteforce, ball_pair_sum_indexed
from vicsek_lab.ratios import RatioSequence

# Golden values pinned by the brute-force / first oracle runs.
I11_RAMP = Fraction(17, 3969)
WM_RATIO_M6 = 1.0314039176421022
PHI_PROXY_M6 = (
    0.047622286712736495,
    0.29485445050238657,
    0.34793247001590044,
    0.36493921248615746,
    0.36521942856844175,
    0.35409932260425364,
)
EQUIV_BAND = (0.2617039, 1.6957520)


def _E(hier, u, p, N, arith=EXACT):
    """E_{p,n} of u for n = 0..N in ``arith``."""
    return energy_limit(hier, u, p, N, arith).energies


def _phi(hier, u, p, beta, m, N, arith=EXACT):
    """The ball-functional profile of u from its I_{m,n}, n = 0..N."""
    return phi_profile(hier, p, beta, m, ball_energies(hier, u, p, m, N, arith), arith)


def test_ball_energy_constant_zero(hier3):
    u = AffineFunction(0, [5] * 5)
    den, ints = EXACT.values_at(hier3, u, 2)
    assert ball_energy(hier3.level(2), (den, ints), 2, 1) == 0


def test_ball_energy_golden_value(hier3):
    u = diagonal_ramp()
    den, ints = EXACT.values_at(hier3, u, 1)
    lv = hier3.level(1)
    s = ball_pair_sum_bruteforce(lv, (den, ints), 2, 1, EXACT)
    got = Fraction(s, den**2 * lv.num_vertices**2)
    assert got == I11_RAMP
    assert ball_energy(hier3.level(1), (den, ints), 2, 1) == I11_RAMP


def test_indexed_equals_bruteforce_exact(hier3):
    u = diagonal_ramp()
    for m in range(4):
        lv = hier3.level(m)
        vals = EXACT.values_at(hier3, u, m)
        for n in range(m + 1):
            for p in (2, 3):
                assert ball_pair_sum_indexed(lv, vals, p, n, EXACT) == ball_pair_sum_bruteforce(
                    lv, vals, p, n, EXACT
                )


def test_indexed_equals_bruteforce_seeded(hier3):
    for seed in (9, 10):
        u = random_affine(hier3, seed)
        m = 3
        lv = hier3.level(m)
        vals = EXACT.values_at(hier3, u, m)
        for n in range(m + 1):
            assert ball_pair_sum_indexed(lv, vals, 2, n, EXACT) == ball_pair_sum_bruteforce(
                lv, vals, 2, n, EXACT
            )
        fl = FLOAT.values_at(hier3, u, m)
        for n in range(m + 1):
            for p in (1.5, 2.7):
                a = ball_pair_sum_indexed(lv, fl, p, n, FLOAT)
                b = ball_pair_sum_bruteforce(lv, fl, p, n, FLOAT)
                assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


def test_ball_energy_scale_guard(hier3):
    u = diagonal_ramp()
    vals = FLOAT.values_at(hier3, u, 1)
    with pytest.raises(ScaleMismatchError):
        ball_energy(hier3.level(1), vals, 2, 2)


def test_batched_kernel_matches_single_columns(hier3):
    lv = hier3.level(4)
    cols = [FLOAT.values_at(hier3, random_affine(hier3, s), 4) for s in (1, 2, 3)]
    mat = np.column_stack(cols)
    for n in (1, 2, 3):
        batched = ball_pair_sum_indexed(lv, mat, 2, n, FLOAT)
        for j, col in enumerate(cols):
            single = ball_pair_sum_indexed(lv, col, 2, n, FLOAT)
            assert batched[j] == pytest.approx(single, rel=1e-12)


def test_phi_profile_values_and_guards(hier3):
    u = diagonal_ramp()
    prof = _phi(hier3, u, 2, 1.0, 6, 5)
    for got, want in zip(prof.phi_proxy, PHI_PROXY_M6):
        assert float(got) == pytest.approx(want, rel=1e-9)
    with pytest.raises(LevelError):
        ball_energies(hier3, u, 2, 3, 4, EXACT)
    const = AffineFunction(0, [1] * 5)
    prof0 = _phi(hier3, const, 2, 1.0, 4, 3)
    assert all(x == 0 for x in prof0.phi_proxy)


def test_phi_estimators_ratio_within_doubling_band(hier3):
    """Estimator (a), the proxy, against estimator (b), which normalizes
    each inner sum by the actual ball count: phi(rho_n)^(-beta/beta*) times
    the vertex mean of the per-vertex ball means of |du|^p."""
    u = diagonal_ramp()
    prof = _phi(hier3, u, 2, 1.0, 3, 3)
    lo = 1.0 / 5.0
    hi = float((2 * 3 - 1) ** 2)
    level = hier3.level(3)
    vals = FLOAT.values_at(hier3, u, 3)
    for n, a in enumerate(prof.phi_proxy):
        counts, sums = ball_row_stats(level, vals, 2, n)
        mean = math.fsum((sums / counts).tolist()) / level.num_vertices
        b = FLOAT.power(scale_values(hier3.ratios, n)[2], -1.0) * mean
        assert lo <= b / a <= hi


def test_phi_homogeneity(hier3):
    u = random_affine(hier3, 15)
    c = 2
    base = _phi(hier3, u, 2, 1.0, 4, 3)
    scaled = _phi(hier3, u.scale(c), 2, 1.0, 4, 3)
    for a, b in zip(base.phi_proxy, scaled.phi_proxy):
        assert float(b) == pytest.approx(c**2 * float(a), rel=1e-12, abs=1e-300)


def test_besov_seminorm_cases(hier3):
    const = AffineFunction(0, [3] * 5)
    for q in (2, 4, math.inf):
        assert besov_seminorm(hier3, const, 2, q, 1.0, 4, 3) == 0
    u = diagonal_ramp()
    # q = p agrees with the levelwise discretization of the dr/r integral
    prof = _phi(hier3, u, 2, 1.0, 5, 4)
    manual = math.fsum(float(x) * math.log(3) for x in prof.phi_proxy) ** 0.5
    assert besov_seminorm(hier3, u, 2, 2, 1.0, 5, 4) == pytest.approx(manual, rel=1e-12)
    # q = inf at beta* stays within a fixed band of the energy (golden)
    s_inf = besov_seminorm(hier3, u, 2, math.inf, 1.0, 6, 5)
    assert s_inf**2 / 0.5 == pytest.approx(0.7304388571368835, rel=1e-9)
    # scaling: [cu] = |c| [u]
    s1 = besov_seminorm(hier3, u, 2, 3, 1.0, 5, 4)
    s2 = besov_seminorm(hier3, u.scale(-3), 2, 3, 1.0, 5, 4)
    assert s2 == pytest.approx(3 * s1, rel=1e-11)
    with pytest.raises(InvalidArgumentError):
        besov_seminorm(hier3, u, 2, 1, 1.0, 5, 4)


def test_discrete_profiles_beta_star_identity(hier3):
    u = diagonal_ramp()
    prof = discrete_profiles(hier3, u, 2, 1.0, _E(hier3, u, 2, 5), EXACT)
    assert prof.beta_energies == prof.base_energies
    assert all(e == Fraction(1, 2) for e in prof.base_energies)
    assert prof.sup_energy == Fraction(1, 2)
    assert prof.sum_energy == Fraction(6, 2)


def test_discrete_profiles_scaling_identity_bitwise(hier3):
    from vicsek_lab.besov import _log_phi

    for seed in (16, 17):
        u = random_affine(hier3, seed)
        for beta in (0.65, 0.9, 1.1, 1.3):
            prof = discrete_profiles(hier3, u, 2, beta, _E(hier3, u, 2, 4), EXACT)
            for n in range(5):
                expo = 1.0 - beta / 1.0
                want = math.exp(expo * _log_phi(hier3.ratios, n)) * float(
                    prof.base_energies[n]
                )
                assert float(prof.beta_energies[n]) == want  # bit-exact


def test_bbm_plateau_tail_closed_form(hier3):
    # (beta* - beta) E_{p,p}^beta for the ramp on constant-3 ratios:
    # eps * 2^{eps-1} / (1 - 15^{-eps}), the sum up to N plus the tail past N
    from vicsek_lab.besov import _plateau_tail

    u = diagonal_ramp()
    curve = bbm_curve(hier3, u, 2, [0.01, 0.02], _E(hier3, u, 2, 6), EXACT)
    for pt in curve.points:
        closed = pt.epsilon * 2 ** (pt.epsilon - 1) / (1 - 15.0 ** (-pt.epsilon))
        assert pt.value == pytest.approx(closed, rel=1e-12)
    # the tail diverges at beta*, also where beta* - eps rounds to beta*
    with pytest.raises(InvalidArgumentError):
        _plateau_tail(hier3.ratios, 1.0, 4, 0.5)
    with pytest.raises(InvalidArgumentError):
        bbm_curve(hier3, u, 2, [1e-17], _E(hier3, u, 2, 4), EXACT)


def test_bbm_curve_needs_the_base_level_within_range(hier3):
    u = random_affine(hier3, 7)
    assert u.base_level > 1
    with pytest.raises(InvalidArgumentError):
        bbm_curve(hier3, u, 2, [0.1], _E(hier3, u, 2, 1), EXACT)
    curve = bbm_curve(hier3, u, 2, [0.1], _E(hier3, u, 2, u.base_level), EXACT)
    assert curve.points[0].within_bracket


def test_jump_kernel_identity(hier3):
    u = diagonal_ramp()
    # exact at beta = beta*: the plateau makes the sum 5 * (1/2)
    assert jump_kernel_energy(hier3, 2, 1.0, _E(hier3, u, 2, 4), EXACT) == Fraction(5, 2)
    for seed in (18, 19):
        w = random_affine(hier3, seed)
        base = _E(hier3, w, 2, 4)
        prof = discrete_profiles(hier3, w, 2, 1.0, base, EXACT)
        assert jump_kernel_energy(hier3, 2, 1.0, base, EXACT) == sum(
            prof.beta_energies, Fraction(0)
        )
        for beta in (0.8, 1.2):
            prof = discrete_profiles(hier3, w, 2, beta, base, EXACT)
            got = jump_kernel_energy(hier3, 2, beta, base, EXACT)
            assert got == pytest.approx(
                math.fsum(float(x) for x in prof.beta_energies), rel=1e-12
            )
    const = AffineFunction(0, [7] * 5)
    assert jump_kernel_energy(hier3, 2, 1.0, _E(hier3, const, 2, 3), EXACT) == 0


def test_jump_kernel_takes_phi_at_the_call_p(hier3):
    """hier3 carries p = 2; a call at p = 3 weighs with phi at p = 3 in both
    arithmetics, as a hierarchy built with p = 3 does."""
    from vicsek_lab.geometry import Hierarchy
    from vicsek_lab.ratios import constant_ratios

    hier_p3 = Hierarchy(constant_ratios(3, 12, p=3), 4)
    u = random_affine(hier3, 1)  # the same function on either hierarchy
    base, base_p3 = _E(hier3, u, 3, 4), _E(hier_p3, u, 3, 4)
    exact = jump_kernel_energy(hier3, 3, 1.0, base, EXACT)
    assert isinstance(exact, Fraction)
    assert exact == jump_kernel_energy(hier_p3, 3, 1.0, base_p3, EXACT)
    got = jump_kernel_energy(hier3, 3, 1.0, _E(hier3, u, 3, 4, FLOAT), FLOAT)
    assert got == pytest.approx(float(exact), rel=1e-12)
    got = jump_kernel_energy(hier3, 3, 0.8, base, EXACT)
    assert got == pytest.approx(72.5953043909, rel=1e-10)
    assert got == pytest.approx(jump_kernel_energy(hier_p3, 3, 0.8, base_p3, EXACT), rel=1e-12)
    prof = discrete_profiles(hier3, u, 3, 0.8, base, EXACT)
    assert got == pytest.approx(math.fsum(prof.beta_energies), rel=1e-12)


def test_jump_kernel_uses_given_energies(hier3):
    """The form is in the arithmetic of the given energies, exact only at
    beta*; its value is the beta-energy sum of ``discrete_profiles`` (a
    second route to the weights) and it is linear in the given energies."""
    u = random_affine(hier3, 7)
    exact_base = _E(hier3, u, 2, 4, EXACT)
    float_base = _E(hier3, u, 2, 4, FLOAT)
    for beta in (0.8, 1.0):
        want = discrete_profiles(hier3, u, 2, beta, exact_base, EXACT).sum_energy
        got = jump_kernel_energy(hier3, 2, beta, float_base, FLOAT)
        assert type(got) is float and got == pytest.approx(float(want), rel=1e-12)
        got = jump_kernel_energy(hier3, 2, beta, exact_base, EXACT)
        assert type(got) is (Fraction if beta == 1.0 else float)
        assert got == pytest.approx(float(want), rel=1e-12)
        if beta == 1.0:
            assert got == want
        tripled = jump_kernel_energy(hier3, 2, beta, [3 * e for e in exact_base], EXACT)
        assert float(tripled) == pytest.approx(3 * float(got), rel=1e-12)


def test_partial_sum_bracket(hier3):
    # sum_{k>=n} phi(rho_k)^delta within the two-sided geometric estimate
    from vicsek_lab.besov import _log_phis

    rs = RatioSequence((3, 5, 3, 5, 3, 5, 3, 5, 3, 5), p=2, extend=lambda k: (3, 5)[(k - 1) % 2])
    consts = derived_constants(rs)
    for delta in (0.5, 1.0, 2.0):
        for n in (0, 1, 2):
            terms = (math.exp(delta * x) for x in islice(_log_phis(rs), n, None))
            phi_n = total = next(terms)
            for term in terms:
                if term <= 1e-22 * max(total, 1.0):
                    break
                total += term
            lo = phi_n / (1.0 - consts.sup_t ** (-delta))
            hi = phi_n / (1.0 - consts.inf_t ** (-delta))
            assert lo * (1 - 1e-9) <= total <= hi * (1 + 1e-9)


def test_bbm_curve_golden(hier3):
    u = diagonal_ramp()
    eps_list = [0.2, 0.1, 0.05, 0.02, 0.01]
    curve = bbm_curve(hier3, u, 2, eps_list, _E(hier3, u, 2, 6), EXACT)
    by_eps = {pt.epsilon: pt for pt in curve.points}
    closed = lambda e: e * 2 ** (e - 1) / (1 - 15.0 ** (-e))
    for e in eps_list:
        assert by_eps[e].value == pytest.approx(closed(e), rel=1e-9)
        assert by_eps[e].within_bracket
    assert by_eps[0.01].value == pytest.approx(0.18845, abs=5e-5)
    limit = 0.5 / math.log(15)
    assert curve.limit_low == pytest.approx(limit, rel=1e-12)
    assert curve.limit_high == pytest.approx(limit, rel=1e-12)
    # decreasing toward the limit as eps decreases
    ordered = [by_eps[e].value for e in sorted(eps_list)]
    assert all(a < b for a, b in zip(ordered, ordered[1:]))
    assert abs(by_eps[0.01].value - limit) / limit < 0.025
    with pytest.raises(InvalidArgumentError):
        bbm_curve(hier3, u, 2, [1.5], _E(hier3, u, 2, 4), EXACT)


def test_critical_sweep_trends(hier3):
    u = diagonal_ramp()
    sweep = critical_sweep(hier3, u, 2, [0.8, 1.0, 1.2], _E(hier3, u, 2, 5), EXACT)
    rows = {r.beta: r for r in sweep}
    assert rows[1.2].classification == "divergent"
    assert rows[1.2].trend == "increasing"
    # E_n^beta = (2 * 15^{-n})^{-0.2} / 2 for beta = 1.2
    for n, v in enumerate(rows[1.2].beta_energies):
        assert v == pytest.approx((2 * 15.0 ** (-n)) ** (-0.2) * 0.5, rel=1e-12)
    assert rows[1.0].classification == "plateau"
    assert rows[1.0].trend == "constant"
    assert rows[0.8].classification == "vanishing"
    assert rows[0.8].trend == "decreasing"
    for n, v in enumerate(rows[0.8].beta_energies):
        assert v == pytest.approx((2 * 15.0 ** (-n)) ** (0.2) * 0.5, rel=1e-12)


def test_weak_monotonicity_golden_band(hier3):
    u = diagonal_ramp()
    balls = lambda w, m, N: ball_energies(hier3, w, 2, m, N, EXACT)
    rep = weak_monotonicity_report(hier3, 2, 6, (3, 5), balls(u, 6, 5), EXACT)
    assert rep.ratio == pytest.approx(WM_RATIO_M6, rel=1e-9)
    assert not rep.degenerate
    const = AffineFunction(0, [2] * 5)
    rep0 = weak_monotonicity_report(hier3, 2, 4, (1, 3), balls(const, 4, 3), EXACT)
    assert rep0.degenerate and rep0.ratio is None
    # scaling leaves the ratio unchanged
    rep2 = weak_monotonicity_report(hier3, 2, 6, (3, 5), balls(u.scale(2), 6, 5), EXACT)
    assert rep2.ratio == pytest.approx(rep.ratio, rel=1e-12)


def test_weak_monotonicity_window_within_the_energies(hier3):
    """The window is checked against N = len(energies) - 1, the scales the
    supremum runs over."""
    balls = ball_energies(hier3, diagonal_ramp(), 2, 4, 2, EXACT)
    assert weak_monotonicity_report(hier3, 2, 4, (1, 2), balls, EXACT).max_scale == 2
    for window in ((1, 3), (3, 3), (2, 1), (-1, 2)):
        with pytest.raises(InvalidArgumentError):
            weak_monotonicity_report(hier3, 2, 4, window, balls, EXACT)


def test_reports_read_max_scale_off_the_energies(hier3):
    """Every report's N is the length of the sequence it is given, less one."""
    u = random_affine(hier3, 5)
    for N in (0, 2, 4):
        base = _E(hier3, u, 2, N)
        balls = ball_energies(hier3, u, 2, 5, N, EXACT)
        assert len(base) == len(balls) == N + 1
        assert phi_profile(hier3, 2, 0.8, 5, balls, EXACT).max_scale == N
        assert discrete_profiles(hier3, u, 2, 0.8, base, EXACT).max_scale == N
        assert weak_monotonicity_report(hier3, 2, 5, (0, N), balls, EXACT).max_scale == N
        rows = critical_sweep(hier3, u, 2, [0.8, 1.2], base, EXACT)
        assert all(len(r.beta_energies) == len(r.growth_factors) == N + 1 for r in rows)


def test_equivalence_bands_recorded(hier3):
    u = diagonal_ramp()
    N, m = 4, 6
    lo, hi = EQUIV_BAND
    for beta in (1.0, 0.9, 1.1, 0.65):
        prof = _phi(hier3, u, 2, beta, m, N)
        d = discrete_profiles(hier3, u, 2, beta, _E(hier3, u, 2, N), EXACT)
        phis = [float(x) for x in prof.phi_proxy]
        es = [float(x) for x in d.beta_energies]
        for n in range(1, N - 1):
            r1 = phis[n] / max(es[n:])
            r2 = es[n] / max(phis[n:])
            assert lo * (1 - 1e-6) <= r1 <= hi * (1 + 1e-6)
            assert lo * (1 - 1e-6) <= r2 <= hi * (1 + 1e-6)


@pytest.mark.parametrize("m", (3, 4))  # 501 and 2501 vertices
@pytest.mark.parametrize("beta", (1.0, 0.8, 1.2))  # beta* = 1 on hier3
@pytest.mark.parametrize("p", (2, 3, 4, 2.5, 3.0))
@pytest.mark.parametrize("mode", ("rational", "float"))
def test_arithmetic_rule_table(hier3, mode, p, beta, m):
    """The README's mode rule: under rational a value is exact wherever p
    is an integer and the size allows, E_{p,n} always, I_{m,n} on at most
    600 vertices at every beta, what phi^(-beta/beta*) weighs (beta-energy
    sums, jump-kernel forms) only at beta = beta*, and the proxies only
    where both hold; under float everything is float.  Each exact value is
    within rel 1e-12 of its float twin."""
    assert hier3.level(m).num_vertices == {3: 501, 4: 2501}[m]
    energy_exact = mode == "rational" and p != 2.5
    beta_exact = energy_exact and beta == 1.0
    ball_exact = energy_exact and m == 3
    proxy_exact = ball_exact and beta_exact
    arith = arithmetic(mode, p)
    assert arith is (EXACT if energy_exact else FLOAT)
    assert beta_arithmetic(arith, hier3.ratios, beta) is (EXACT if beta_exact else FLOAT)
    assert ball_arithmetic(arith, hier3, m) is (EXACT if ball_exact else FLOAT)

    u = random_affine(hier3, 5)
    base = _E(hier3, u, p, 1, arith)
    assert type(base[1]) is (Fraction if energy_exact else float)
    prof = _phi(hier3, u, p, beta, m, 0, arith)
    cases = (
        (prof.ball_energies[0], ball_exact,
         lambda a: ball_energies(hier3, u, p, m, 0, a)[0]),
        (prof.phi_proxy[0], proxy_exact,
         lambda a: _phi(hier3, u, p, beta, m, 0, a).phi_proxy[0]),
        (discrete_profiles(hier3, u, p, beta, base, arith).sum_energy, beta_exact,
         lambda a: discrete_profiles(hier3, u, p, beta, _E(hier3, u, p, 1, a), a).sum_energy),
        (jump_kernel_energy(hier3, p, beta, base, arith), beta_exact,
         lambda a: jump_kernel_energy(hier3, p, beta, _E(hier3, u, p, 1, a), a)),
    )
    for value, exact, of in cases:
        assert type(value) is (Fraction if exact else float)
        assert float(value) == pytest.approx(of(FLOAT), rel=1e-12, abs=0)


def test_beta_weights_past_the_float_range_name_beta_and_n(hier3):
    """A weight phi(rho_n)^x past the float range is an error naming beta and
    n in every report that forms one.  At l = 3, p = 2, log phi(rho_n) =
    log 2 - n log 15, so beta = 100 takes phi(rho_3)^(-100) and
    phi(rho_3)^(-99) past exp(709.78), while beta = 60 stays in range."""
    u = diagonal_ramp()
    base = _E(hier3, u, 2, 4)
    balls = ball_energies(hier3, u, 2, 4, 4, EXACT)
    reports = (
        lambda beta: phi_profile(hier3, 2, beta, 4, balls, EXACT),
        lambda beta: discrete_profiles(hier3, u, 2, beta, base, EXACT),
        lambda beta: jump_kernel_energy(hier3, 2, beta, base, EXACT),
        lambda beta: critical_sweep(hier3, u, 2, [beta], base, EXACT),
    )
    for report in reports:
        with pytest.raises(InvalidArgumentError, match=r"beta = 100\.0, n = 3: "):
            report(100.0)
        report(60.0)
    prof = phi_profile(hier3, 2, 60.0, 4, balls, EXACT)
    assert prof.phi_proxy[4] == pytest.approx(
        math.exp(60 * (4 * math.log(15) - math.log(2))) / float(scale_values(hier3.ratios, 4)[1])
        * float(balls[4]), rel=1e-12)
