"""Invariant suite run by the CLI: every check returns (name, ok, detail).

The checks mirror the structural identities the library is built on:
counting and tree invariants of the geometry, exact mass additivity,
energy plateaus and gradient identities, energy-measure coincidence,
kernel-vs-oracle equality for ball sums, the beta-energy scaling identity,
and the BBM closed form on constant ratio sequences.  All exact statements
are asserted with equality in rational mode.
"""

from __future__ import annotations

import math
from fractions import Fraction
import numpy as np

from .besov import (
    ball_energies,
    bbm_curve,
    beta_arithmetic,
    discrete_profiles,
    jump_kernel_energy,
    weak_monotonicity_report,
    weak_monotonicity_window,
)
from .config import ExperimentConfig
from .energy import (
    EXACT,
    FLOAT,
    arithmetic,
    diagonal_ramp,
    energy_limit,
    energy_of_gradient,
    gradient_field,
    oracle_agrees,
    oracle_covers,
    random_affine,
    resistance,
    resistance_oracle,
)
from .energy_measure import coincidence_check, gamma_cells, pushforward_profile
from .measure import mu_ball_bounds, psi_of, regularized_scales, scale_values
from .pairsum import ball_pair_sum_bruteforce, ball_pair_sum_indexed

Check = tuple[str, bool, str]


def run_selftest(config: ExperimentConfig) -> tuple[list[Check], dict]:
    ratios = config.ratio_sequence()
    N = config.depth
    m = config.vertex_level
    p = config.p
    arith = arithmetic(config.mode, p)
    hier = config.hierarchy()
    checks: list[Check] = []
    artifacts: dict = {}

    def record(name: str, ok: bool, detail: str = ""):
        checks.append((name, bool(ok), detail))

    # -- geometry ---------------------------------------------------------
    ok = True
    detail = []
    for n in range(min(N, 4) + 1):
        lv = hier.level(n)
        w = ratios.num_words(n)
        if lv.num_vertices != 4 * w + 1 or lv.num_edges != 4 * w:
            ok = False
            detail.append(f"counts at level {n}")
        d = lv.coords[lv.edge_head] - lv.coords[lv.edge_tail]
        if not np.all((d * d).sum(axis=1) == 2):
            ok = False
            detail.append(f"edge length at level {n}")
        if int(lv.multiplicity.max()) > 2:
            ok = False
            detail.append(f"corner multiplicity at level {n}")
        dd = np.abs(lv.depth[lv.edge_head] - lv.depth[lv.edge_tail])
        if not np.all(dd == 1):
            ok = False
            detail.append(f"orientation at level {n}")
    record("geometry_invariants", ok, ";".join(detail))

    # -- measure ----------------------------------------------------------
    ok = True
    for n in range(min(N, 5)):
        parent = Fraction(1, ratios.num_words(n))
        child = Fraction(1, ratios.num_words(n + 1))
        if child * (2 * ratios.ratio(n + 1) - 1) != parent:
            ok = False
    record("measure_additivity", ok)

    rho0, psi0, phi0 = scale_values(ratios, 0)
    record("scale_level0", rho0 == 2 and psi0 == 1, f"{rho0},{psi0}")

    ok = True
    r = Fraction(2)
    for _ in range(3 * min(N, 3)):
        r = r * Fraction(9, 10)
        psi_t, _ = regularized_scales(ratios, r)
        psi_r = psi_of(ratios, r)
        sup_l = max(ratios.distinct_ratios())
        if not (psi_r / (2 * sup_l - 1) <= psi_t <= psi_r):
            ok = False
    record("regularized_sandwich", ok)

    lv0 = hier.level(0)
    origin = lv0.vertex_point(lv0.origin)
    prev = None
    ok = True
    for d in range(min(N, 3) + 1):
        lo, hi = mu_ball_bounds(ratios, origin, Fraction(1, 3), d)
        if prev is not None and not (prev[0] <= lo and hi <= prev[1]):
            ok = False
        prev = (lo, hi)
    record("ball_bounds_nested", ok, f"last=({prev[0]},{prev[1]})")

    # -- energy -----------------------------------------------------------
    u_star = diagonal_ramp()
    golden = arith.num(2) ** (1 - arith.exponent(p))
    rep = energy_limit(hier, u_star, p, N, arith)
    ok = all(arith.close(e, golden) for e in rep.energies)
    record("ramp_energy_golden", ok, f"limit={rep.limit}")
    artifacts["energy_report"] = rep

    g = gradient_field(hier, u_star, N, arith)
    eg = energy_of_gradient(g, p)
    record("gradient_energy_identity", arith.close(eg, rep.limit))

    def seed_mono(seed: int) -> bool:
        es = energy_limit(hier, random_affine(hier, seed), p, min(N, 4), arith).energies
        return all(arith.at_most(a, b) for a, b in zip(es, es[1:]))
    record("seeded_monotonicity", all(seed_mono(s) for s in config.seeds))

    if oracle_covers(p):
        lvr = hier.level(min(2, N))
        a = lvr.origin
        b = lvr.vertex_id(lvr.L, lvr.L)
        rf = float(resistance(lvr, a, b, p))
        ro = resistance_oracle(lvr, a, b, float(p))
        record("resistance_oracle", oracle_agrees(rf, ro), f"{rf} vs {ro}")

    # -- energy measure ---------------------------------------------------
    cm = gamma_cells(hier, u_star, p, 1, arith)
    record("energy_measure_total", arith.close(cm.total, rep.limit))
    # exact only: float routes agree only to rounding, and a float row would change float reports
    if arith is EXACT:
        dev = coincidence_check(hier, u_star, p, min(3, N))
        record("coincidence_exact", dev == 0, str(dev))
    hist = pushforward_profile(hier, u_star, p, config.bins, arith)
    hok = arith.close(hist.total, rep.limit)
    record("pushforward_total", hok and not hist.point_mass_flags)
    artifacts["histogram"] = hist

    # -- ball energies: indexed vs brute force ----------------------------
    ok = True
    for mm in range(min(3, m) + 1):
        lv = hier.level(mm)
        vals = arith.values_at(hier, u_star, mm)
        for n in range(mm + 1):
            bf = ball_pair_sum_bruteforce(lv, vals, p, n, arith)
            ix = ball_pair_sum_indexed(lv, vals, p, n, arith)
            ok = ok and arith.close(ix, bf)
    record("ball_kernel_vs_oracle", ok)

    # -- besov identities ---------------------------------------------------
    # E_n^beta = phi(rho_n)^{1 - beta/beta*} E_n^{beta*}, phi from the measure
    profiles = {}
    ok = True
    base = rep.energies  # the ramp's E_{p,n}, swept once above
    for beta in config.beta_grid:
        prof = discrete_profiles(hier, u_star, p, beta, base, arith)
        profiles[beta] = prof
        expo = 1.0 - float(beta) / float(ratios.beta_star)
        for n, (eb, estar) in enumerate(zip(prof.beta_energies, prof.base_energies)):
            phi = Fraction(scale_values(ratios, n)[2])
            log_phi = math.log(phi.numerator) - math.log(phi.denominator)
            rhs = math.exp(expo * log_phi) * float(estar)
            ok = ok and math.isclose(float(eb), rhs, rel_tol=1e-12, abs_tol=0.0)
    record("beta_scaling_identity", ok)
    artifacts["profiles"] = profiles

    ok = True
    for beta in config.beta_grid:
        jk = jump_kernel_energy(hier, p, beta, base, arith)
        at = beta_arithmetic(arith, ratios, beta)  # the arithmetic of both sides
        ok = ok and at.close(jk, profiles[beta].sum_energy)
    record("jump_kernel_identity", ok)

    # -- BBM ---------------------------------------------------------------
    distinct = ratios.distinct_ratios()
    curve = bbm_curve(hier, u_star, p, list(config.epsilons), base, arith)
    artifacts["bbm"] = curve
    ok = all(pt.within_bracket for pt in curve.points)
    vals = [pt.value for pt in sorted(curve.points, key=lambda q: q.epsilon)]
    ok = ok and all(FLOAT.at_most(a, b) for a, b in zip(vals, vals[1:]))
    if len(distinct) == 1:
        l = distinct[0]
        t = (2 * l - 1) * float(l) ** (float(p) - 1.0)
        E = curve.energy
        for pt in curve.points:
            closed = (
                pt.epsilon
                * E
                * 2.0 ** ((float(p) - 1.0) * pt.epsilon / float(ratios.beta_star))
                / (1.0 - t ** (-pt.epsilon / float(ratios.beta_star)))
            )
            if abs(pt.value - closed) > 1e-9 * max(1.0, closed):
                ok = False
    record("bbm_curve", ok)

    # -- weak monotonicity surrogate ----------------------------------------
    balls = ball_energies(hier, u_star, p, m, N, arith)  # I_{m,n}
    wm = weak_monotonicity_report(hier, p, m, weak_monotonicity_window(N), balls, arith)
    record("weak_monotonicity_finite", wm.ratio is not None and math.isfinite(wm.ratio),
           f"ratio={wm.ratio}")
    artifacts["weak_monotonicity"] = wm

    return checks, artifacts
