"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Golden bands marked "pinned" were recorded from the first oracle
runs and must reproduce within the stated tolerances.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from _energy_oracle import refinement_defect
from _geometry_oracle import children
from _measure_oracle import example_sequence_eta_bound_holds, mu_cell
from vicsek_lab.besov import _log_phi, bbm_curve, critical_sweep, discrete_profiles
from vicsek_lab.energy import (
    EXACT,
    FLOAT,
    arithmetic,
    compose,
    diagonal_ramp,
    energy_limit,
    energy_property_checks,
    morrey_constant,
    random_affine,
    resistance,
    resistance_oracle,
    restrict_to_arm,
)
from vicsek_lab.energy_measure import chain_rule_check, coincidence_check, gamma_cells
from vicsek_lab.geometry import Hierarchy, build_level
from vicsek_lab.measure import (
    hausdorff_dimension,
    mu_ball_bounds,
    psi_of,
    psi_ratio_bounds,
    scale_values,
)
from vicsek_lab.pairsum import ball_pair_sum_bruteforce, ball_pair_sum_indexed
from vicsek_lab.ratios import alternating_ratios, constant_ratios, periodic_ratios
from vicsek_lab.words import word_from_index


def report(num: int, name: str):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


SEQUENCES = {
    "const3": constant_ratios(3, 12),
    "const5": constant_ratios(5, 12),
    "alt35": alternating_ratios(3, 5, 12),
    "period335": periodic_ratios((3, 3, 5), 12),
}


def test_criterion_01_geometry_invariants(hier3):
    start = time.monotonic()
    for name, rs in SEQUENCES.items():
        for n in range(6):
            lv = build_level(rs, n)
            w = rs.num_words(n)
            assert lv.num_vertices == 4 * w + 1, (name, n)
            assert lv.num_edges == 4 * w, (name, n)
            assert int(lv.depth.min()) >= 0  # BFS spanned the whole graph
            assert lv.num_edges == lv.num_vertices - 1  # acyclic + connected = tree
            d = lv.coords[lv.edge_head] - lv.coords[lv.edge_tail]
            assert np.all((d * d).sum(axis=1) == 2), (name, n)
            assert int(lv.multiplicity.max()) <= 2, (name, n)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    report(1, "geometry invariants for (3), (5), (3,5,...), (3,3,5,...) up to n=5")


def test_criterion_02_measure(hier3):
    start = time.monotonic()
    for name, rs in SEQUENCES.items():
        # child masses refine parent masses exactly to depth 5
        for m in range(5):
            word = word_from_index(rs, m, rs.num_words(m) // 2)
            total = sum((mu_cell(rs, c) for c in children(rs, word)), Fraction(0))
            assert total == mu_cell(rs, word), (name, m)
    # psi scaling law on a 50-point (r, R) grid
    rs = SEQUENCES["alt35"]
    c1, inf_a, c2, sup_a = psi_ratio_bounds(rs)
    grid = []
    r = Fraction(2)
    for _ in range(11):
        r *= Fraction(3, 4)
        grid.append(r)
    pairs = [(r, R) for r in grid for R in grid if r < R]
    assert len(pairs) >= 50
    for r, R in pairs[:50]:
        ratio = float(psi_of(rs, R) / psi_of(rs, r))
        x = float(R / r)
        assert c1 * x**inf_a <= ratio * (1 + 1e-12)
        assert ratio <= c2 * x**sup_a * (1 + 1e-12)
    # ball-bound intervals nest under refinement
    lv = build_level(rs, 1)
    for vid in (lv.origin, lv.vertex_id(lv.L, lv.L)):
        center = lv.vertex_point(vid)
        prev = None
        for depth in range(5):
            lo, hi = mu_ball_bounds(rs, center, Fraction(2, 5), depth)
            assert lo <= hi
            if prev is not None:
                assert prev[0] <= lo and hi <= prev[1]
            prev = (lo, hi)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s"
    report(2, "measure additivity, scaling law, nested ball brackets")


def test_criterion_03_hausdorff_example():
    start = time.monotonic()
    assert example_sequence_eta_bound_holds(3, 5, 10**6)
    alpha = hausdorff_dimension(3, 5, 1.0)
    assert abs(alpha - math.log(45) / math.log(15)) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 3 took {elapsed:.1f}s"
    report(3, "example sequence eta_n >= (2/3) sqrt(n) to 1e6; alpha = log45/log15")


def test_criterion_04_energy_monotonicity(hier3):
    start = time.monotonic()
    for seed in range(200):
        u = random_affine(hier3, seed)
        for p in (2, 3):
            energies = energy_limit(hier3, u, p, 6, arith=EXACT).energies
            assert all(a <= b for a, b in zip(energies, energies[1:])), (seed, p)
            tail = energies[u.base_level :]
            assert all(e == tail[0] for e in tail), (seed, p)
        fl = energy_limit(hier3, u, 1.5, 6, arith=FLOAT).energies
        assert all(
            a <= b * (1 + 1e-12) + 1e-300 for a, b in zip(fl, fl[1:])
        ), seed
        tail = fl[u.base_level :]
        assert all(abs(e - tail[0]) <= 1e-12 * max(1.0, tail[0]) for e in tail), seed
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"
    report(4, "200 seeded functions: exact monotonicity and plateau, p in {3/2,2,3}")


def _ramp_golden_and_gradient(hier: Hierarchy, max_level: int):
    """E_p(ramp) = 2^{1-p} per level, against the gradient edge sums."""
    u = diagonal_ramp()
    for p in (2, 3):
        golden = Fraction(2) ** (1 - p)
        for n, (cur_den, cur) in EXACT.level_values(hier, u, 0, max_level):
            level = hier.level(n)
            e_direct = EXACT.energy(level, (cur_den, cur), p)
            assert e_direct == golden, (p, n)
            # gradient identity: sum |slope|^p * length from the same values
            tails, heads = level.edge_tail.tolist(), level.edge_head.tolist()
            s = sum(
                abs(cur[heads[e]] - cur[tails[e]]) ** p for e in range(level.num_edges)
            )
            e_grad = Fraction(s * level.L ** (p - 1), cur_den**p)
            assert e_grad == e_direct, (p, n)


def test_criterion_05_ramp_golden_all_sequences(hier3):
    _ramp_golden_and_gradient(hier3, 6)
    for name in ("alt35", "period335"):
        hier = Hierarchy(SEQUENCES[name], 6)
        _ramp_golden_and_gradient(hier, 6)
        del hier
        gc.collect()
    hier5 = Hierarchy(SEQUENCES["const5"], 6)
    _ramp_golden_and_gradient(hier5, 6)
    del hier5
    gc.collect()
    report(5, "diagonal ramp energy 2^{1-p} at levels 0..6, all tested sequences")


def test_criterion_06_resistance(hier3):
    lv0 = hier3.level(0)
    q1 = lv0.vertex_id(1, 1)
    q3 = lv0.vertex_id(-1, -1)
    assert resistance(lv0, q1, q3, 2) == 2
    for level_n in (0, 1, 2):
        lv = hier3.level(level_n)
        pairs = list(itertools.combinations(range(lv.num_vertices), 2))
        for p in (1.5, 2, 3):
            for a, b in pairs:
                want = float(resistance(lv, a, b, p))
                got = resistance_oracle(lv, a, b, float(p))
                assert abs(want - got) <= 1e-6 * max(1.0, want), (level_n, p, a, b)
    report(6, "resistance formula vs variational oracle on all pairs, levels <= 2")


def test_criterion_07_energy_measure(hier3):
    u = diagonal_ramp()
    cm = gamma_cells(hier3, u, 2, 1)
    assert sorted(cm.masses) == sorted(
        [Fraction(1, 6), Fraction(1, 6), Fraction(1, 6), Fraction(0), Fraction(0)]
    )
    assert cm.masses[0] == Fraction(1, 6)  # center cell lies on the diagonal
    assert cm.total == Fraction(1, 2)
    for seed in (0, 1, 2, 3):
        w = random_affine(hier3, seed)
        for p in (2, 3):
            g1 = gamma_cells(hier3, w, p, 1)
            g2 = gamma_cells(hier3, w, p, 2)
            assert refinement_defect(g1, g2, 5) == 0
            rep = energy_limit(hier3, w, p, max(2, w.base_level), arith=EXACT)
            assert g1.total == rep.limit
        assert coincidence_check(hier3, w, 2, 3) == 0
    assert coincidence_check(hier3, u, 2, 3) == 0
    report(7, "energy-measure totals, refinement additivity, coincidence to depth 3")


def test_criterion_08_chain_rule(hier3):
    rep = chain_rule_check(
        hier3, diagonal_ramp(), lambda t: t * t, lambda t: 2.0 * t, 2, 6,
        quadrature_nodes=32,
    )
    assert rep.total_relative_deviation <= 0.01
    # linear maps transform the measure exactly (rational arithmetic)
    u = random_affine(hier3, 9)
    a = Fraction(-5, 2)
    base = gamma_cells(hier3, u, 2, 1)
    lin = gamma_cells(hier3, compose(u.scale(a), lambda v: v + Fraction(1, 3)), 2, 1)
    assert all(s == a**2 * b for s, b in zip(lin.masses, base.masses))
    report(8, "chain rule: t^2 within 1% of quadrature at level 6; linear exact")


def test_criterion_09_ball_kernel_oracle(hier3, hier35):
    for hier in (hier3, hier35):
        for func_seed in (None, 13, 14):
            u = diagonal_ramp() if func_seed is None else random_affine(hier, func_seed)
            for m in range(4):
                lv = hier.level(m)
                vals = EXACT.values_at(hier, u, m)
                for n in range(m + 1):
                    for p in (2, 3):
                        assert ball_pair_sum_indexed(
                            lv, vals, p, n, EXACT
                        ) == ball_pair_sum_bruteforce(lv, vals, p, n, EXACT), (m, n, p)
    report(9, "indexed ball energy equals brute-force double loop bit-exactly, m <= 3")


def test_criterion_10_scaling_identity_and_sweep(hier3):
    u = diagonal_ramp()
    for seed in (None, 5, 6):
        w = u if seed is None else random_affine(hier3, seed)
        base = energy_limit(hier3, w, 2, 5).energies
        for beta in (0.65, 0.8, 0.9, 1.0, 1.1, 1.2):
            prof = discrete_profiles(hier3, w, 2, beta, base, EXACT)
            for n in range(6):
                expo = 1.0 - beta
                want = (
                    float(prof.base_energies[n])
                    if expo == 0.0
                    else math.exp(expo * _log_phi(hier3.ratios, n))
                    * float(prof.base_energies[n])
                )
                assert float(prof.beta_energies[n]) == want  # to the last bit
    base = energy_limit(hier3, u, 2, 5).energies
    rows = {r.beta: r for r in critical_sweep(hier3, u, 2, [0.8, 1.0, 1.2], base, EXACT)}
    assert rows[1.2].classification == "divergent" and rows[1.2].trend == "increasing"
    assert rows[1.0].classification == "plateau" and rows[1.0].trend == "constant"
    assert rows[0.8].classification == "vanishing" and rows[0.8].trend == "decreasing"
    report(10, "beta-energy scaling identity bitwise; critical sweep trends")


def test_criterion_11_bbm(hier3):
    start = time.monotonic()
    eps_list = [0.2, 0.1, 0.05, 0.02, 0.01]
    u = diagonal_ramp()
    curve = bbm_curve(hier3, u, 2, eps_list, energy_limit(hier3, u, 2, 6).energies, EXACT)
    by_eps = {pt.epsilon: pt for pt in curve.points}
    for e in eps_list:
        closed = e * 2 ** (e - 1) / (1 - 15.0 ** (-e))
        assert abs(by_eps[e].value - closed) <= 1e-9 * closed
    limit = 0.5 / math.log(15)
    assert abs(by_eps[0.01].value - limit) / limit <= 0.025
    ordered = [by_eps[e].value for e in sorted(eps_list)]
    assert all(a < b for a, b in zip(ordered, ordered[1:]))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 11 took {elapsed:.1f}s"
    report(11, "BBM curve matches the closed form and approaches the limit")


# Pinned at the first oracle run (vertex level 7, scales 0..5, window [3,5]).
WEAK_MONO_GOLDEN = {
    "ramp": 1.0141654791264483,
    "seed1": 1.0813382525915203,
    "seed2": 1.6439989099764971,
    "seed3": 1.1619180114033416,
    "seed4": 1.5268479005100155,
    "seed5": 1.621785906825382,
    "seed6": 1.0138343811018504,
    "seed7": 5.69402562892318,
    "seed8": 1.6333817440688436,
}


def test_criterion_12_weak_monotonicity_band():
    rs = constant_ratios(3, 12)
    hier = Hierarchy(rs, 7)
    lv7 = hier.level(7)
    names = ["ramp"] + [f"seed{s}" for s in range(1, 9)]
    funcs = [diagonal_ramp()] + [random_affine(hier, s) for s in range(1, 9)]
    mat = np.column_stack([FLOAT.values_at(hier, f, 7) for f in funcs])
    V2 = float(lv7.num_vertices) ** 2
    phis = np.empty((6, len(funcs)))
    for n in range(6):
        I = ball_pair_sum_indexed(lv7, mat, 2, n, FLOAT) / V2
        rho, psi, phi = scale_values(rs, n)
        phis[n] = I / (float(phi) * float(psi))
    for j, name in enumerate(names):
        col = phis[:, j]
        ratio = col.max() / col[3:6].min()
        assert ratio == pytest.approx(WEAK_MONO_GOLDEN[name], rel=1e-9), name
    del hier
    gc.collect()
    report(12, "weak-monotonicity surrogate reproduces the pinned band at m=7")


def test_criterion_13_form_properties(hier3):
    morrey_by_level = {4: [], 6: []}
    for k in range(10):
        u = random_affine(hier3, 300 + 2 * k)
        v = random_affine(hier3, 301 + 2 * k)
        for p in (1.5, 2, 3):
            rep = energy_property_checks(hier3, u, v, p, 4, arith=arithmetic("rational", p))
            assert rep.product_ok, (k, p)
            assert all(rep.contraction_ok), (k, p)
            assert rep.clarkson_ok, (k, p)
        morrey_by_level[4].append(energy_property_checks(hier3, u, v, 2, 4).morrey_constant)
        E6 = EXACT.energy(hier3.level(6), EXACT.values_at(hier3, u, 6), 2)
        morrey_by_level[6].append(morrey_constant(hier3, u, 2, 6, E6))
        # strong locality with separated supports, exact equality
        ua = restrict_to_arm(hier3, compose(u, lambda v: v + 1), 1)
        vb = restrict_to_arm(hier3, compose(v, lambda x: x - 1), 3)
        rep = energy_property_checks(hier3, ua, vb, 2, 4)
        assert rep.locality_exact and rep.locality_lhs == rep.locality_rhs, k
    for c4, c6 in zip(morrey_by_level[4], morrey_by_level[6]):
        assert 0.5 <= c4 / c6 <= 2.0
    report(13, "product, contraction, locality, Clarkson, Morrey stability")


def test_criterion_14_determinism(tmp_path):
    config = {
        "ratios": {"generator": "constant", "l": 3},
        "p": 2,
        "beta_star": 1.0,
        "depth": 4,
        "vertex_level": 6,
        "seeds": [1, 2, 3, 4],
        "mode": "rational",
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    digests = []
    for threads in (1, 4, 8):
        out = tmp_path / f"art{threads}"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "vicsek_lab.cli",
                "selftest",
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--threads",
                str(threads),
            ],
            capture_output=True,
            text=True,
            # the child imports vicsek_lab from wherever this process does
            env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        blobs = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        digests.append(blobs)
    assert digests[0] == digests[1] == digests[2]
    report(14, "selftest artifacts byte-identical across 1, 4, 8 threads")
