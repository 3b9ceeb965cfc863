from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from _energy_oracle import dense_resistance_oracle
from _geometry_oracle import true_distance_sq, vertex_id_at
from vicsek_lab.energy import (
    EXACT,
    FLOAT,
    ORACLE_P_RANGE,
    _cell_edges,
    AffineFunction,
    add,
    clarkson_residual,
    compose,
    corner_indicator,
    diagonal_ramp,
    energy_limit,
    energy_of_gradient,
    energy_property_checks,
    gradient_field,
    morrey_constant,
    multiply,
    random_affine,
    resistance,
    resistance_oracle,
    restrict_to_arm,
)
from vicsek_lab.errors import (
    ConvergenceError,
    InvalidArgumentError,
    LevelError,
    LookupError_,
    RegionError,
)
from vicsek_lab.geometry import Hierarchy, build_level
from vicsek_lab.ratios import alternating_ratios, constant_ratios
from vicsek_lab.words import CENTER, Letter, ancestor_index_stride, word_from_index, word_index


def fractions(hier, u, n) -> list[Fraction]:
    """u on V_n as Fractions, from ``EXACT.values_at``."""
    den, ints = EXACT.values_at(hier, u, n)
    return [Fraction(v, den) for v in ints.tolist()]


def test_evaluate_affine_constant(hier3):
    u = AffineFunction(0, [Fraction(3, 7)] * 5)
    for n in (0, 2, 4):
        vals = fractions(hier3, u, n)
        assert all(v == Fraction(3, 7) for v in vals)


def test_evaluate_affine_diag_ramp_interior_point(hier3):
    u = diagonal_ramp()
    lv1 = hier3.level(1)
    # geodesic arclength from the lower-left corner: vertex (2,2) sits at s = 5/3
    assert fractions(hier3, u, 1)[lv1.vertex_id(2, 2)] == Fraction(5, 6)


def test_evaluate_affine_hanging_branch_value(hier3):
    u = diagonal_ramp()
    lv1 = hier3.level(1)
    # branch cells hanging off the center carry the attachment value 1/2
    vals = fractions(hier3, u, 1)
    for coords in ((-2, 2), (-3, 3), (-1, 3), (-3, 1), (2, -2), (3, -3)):
        assert vals[lv1.vertex_id(*coords)] == Fraction(1, 2)


def test_restriction_reproduces_base_values(hier3):
    u = random_affine(hier3, 99)
    base = u.base_level
    for n in range(base):
        vals = fractions(hier3, u, n)
        lv = hier3.level(n)
        for vid in range(lv.num_vertices):
            lifted = vertex_id_at(hier3, n, vid, base)
            assert vals[vid] == u.values[lifted]


def test_discrete_energy_examples(hier3):
    lv0 = hier3.level(0)
    const = AffineFunction(0, [2] * 5)
    assert EXACT.energy(lv0, EXACT.values_at(hier3, const, 0), 2) == 0
    for p in (2, 3, 5):
        assert EXACT.energy(lv0, EXACT.values_at(hier3, corner_indicator(), 0), p) == 1
    assert EXACT.energy(lv0, EXACT.values_at(hier3, diagonal_ramp(), 0), 2) == Fraction(1, 2)


def test_discrete_energy_region(hier3):
    u = diagonal_ramp()
    lv1 = hier3.level(1)
    vals = EXACT.values_at(hier3, u, 1)
    arm = word_index(hier3.ratios, (Letter(1, 1),))
    # arm cells along the diagonal carry 1/6 each at level 1
    e_arm1 = EXACT.energy(lv1, vals, 2, cell=(1, arm))
    assert e_arm1 == Fraction(1, 6)
    assert FLOAT.energy(lv1, FLOAT.values_at(hier3, u, 1), 2, cell=(1, arm)) == pytest.approx(
        1 / 6, rel=1e-15
    )
    e_all = EXACT.energy(lv1, vals, 2)
    assert e_all == Fraction(1, 2)
    assert EXACT.energy(lv1, vals, 2, cell=(0, 0)) == e_all
    # a level-1 cell one level down: its edges are one slice of the level's,
    # so a cell outside 0..n or a word outside the level would select edges
    # of no cell or of another one
    lv2 = hier3.level(2)
    vals2 = EXACT.values_at(hier3, u, 2)
    assert EXACT.energy(lv2, vals2, 2, cell=(1, arm)) == e_arm1
    for bad in ((-1, 0), (3, 0), (1, -1), (1, lv1.num_cells), (2, lv2.num_cells)):
        with pytest.raises(RegionError):
            EXACT.energy(lv2, vals2, 2, cell=bad)


def test_cell_edges_are_the_edges_below_the_word(hier3, hier35):
    """The slice of cell (k, w) holds exactly the edges whose level-k
    ancestor word is w, for every cell at or above levels 0..4."""
    for hier in (hier3, hier35):
        for n in range(5):
            level = hier.level(n)
            edges = np.arange(level.num_edges)
            for k in range(n + 1):
                owner = level.edge_word // ancestor_index_stride(hier.ratios, n, k)
                for w in range(hier.ratios.num_words(k)):
                    got = edges[_cell_edges(level, k, w)]
                    assert np.array_equal(got, np.flatnonzero(owner == w)), (n, k, w)


@pytest.mark.parametrize("p", (2, 3))
def test_cell_energy_per_group_is_the_per_edge_loop(hier3, hier35, p):
    """With both ``cell=`` and ``group=``, each group's sum runs over the
    cell's edges only: a loop over the edges whose level-k ancestor is w,
    adding L^{p-1} |du|^p into the edge's group, in both arithmetics."""
    for hier in (hier3, hier35):
        level = hier.level(2)
        u = random_affine(hier, 11)
        den, ints = EXACT.values_at(hier, u, 2)
        fl = FLOAT.values_at(hier, u, 2)
        group, num = level.edge_word, level.num_cells
        for k in range(3):
            owner = level.edge_word // ancestor_index_stride(hier.ratios, 2, k)
            for w in range(hier.ratios.num_words(k)):
                want_exact, want_float = [Fraction(0)] * num, [0.0] * num
                for e in np.flatnonzero(owner == w).tolist():
                    a, b = level.edge_tail[e], level.edge_head[e]
                    d = int(ints[b]) - int(ints[a])
                    want_exact[group[e]] += Fraction(level.L ** (p - 1) * abs(d) ** p, den**p)
                    want_float[group[e]] += float(level.L) ** (p - 1) * abs(fl[b] - fl[a]) ** p
                kw = dict(cell=(k, w), group=group, num_groups=num)
                assert EXACT.energy(level, (den, ints), p, **kw) == want_exact, (k, w)
                got = FLOAT.energy(level, fl, p, **kw)
                assert got == pytest.approx(want_float, rel=1e-12, abs=1e-300), (k, w)


def test_gradient_field_slopes(hier3):
    u = diagonal_ramp()
    g0 = gradient_field(hier3, u, 0)
    slopes = g0.values
    assert sorted(map(abs, slopes)) == [0, 0, Fraction(1, 2), Fraction(1, 2)]
    # refinement keeps slope magnitude 1/2 on geodesic edges, 0 elsewhere
    g3 = gradient_field(hier3, u, 3)
    mags = {abs(s) for s in g3.values}
    assert mags == {Fraction(0), Fraction(1, 2)}
    with pytest.raises(LevelError):
        gradient_field(hier3, AffineFunction(2, [0] * hier3.level(2).num_vertices), 1)


def test_gradient_reconstructs_differences(hier3):
    u = random_affine(hier3, 5)
    n = max(u.base_level, 2)
    g = gradient_field(hier3, u, n)
    lv = hier3.level(n)
    vals = fractions(hier3, u, n)
    L = lv.L
    for e in range(0, lv.num_edges, 7):
        t = int(lv.edge_tail[e])
        h = int(lv.edge_head[e])
        assert vals[h] - vals[t] == g.values[e] * Fraction(1, L)


def test_energy_of_gradient_identity(hier3):
    for seed in (1, 2, 3):
        u = random_affine(hier3, seed)
        for p in (2, 3):
            for n in range(u.base_level, 5):
                g = gradient_field(hier3, u, n)
                vals = EXACT.values_at(hier3, u, n)
                assert energy_of_gradient(g, p) == EXACT.energy(hier3.level(n), vals, p)


def test_ramp_energy_plateau_all_levels(hier3, hier35):
    u = diagonal_ramp()
    for hier in (hier3, hier35):
        for p in (2, 3):
            rep = energy_limit(hier, u, p, hier.max_level)
            golden = Fraction(2) ** (1 - p)
            assert all(e == golden for e in rep.energies)
            assert rep.plateau_level == 0
            assert rep.limit == golden
        rep = energy_limit(hier, u, 1.5, min(4, hier.max_level), arith=FLOAT)
        assert all(abs(e - 2.0 ** (-0.5)) < 1e-12 for e in rep.energies)


def test_ramp_closed_form_p3_level4(hier3):
    g = gradient_field(hier3, diagonal_ramp(), 4)
    assert energy_of_gradient(g, 3) == Fraction(1, 4)


def test_seeded_monotonicity_exact(hier3):
    for seed in range(20):
        u = random_affine(hier3, seed)
        for p in (2, 3):
            energies = energy_limit(hier3, u, p, 5, arith=EXACT).energies
            assert all(a <= b for a, b in zip(energies, energies[1:]))
            # plateau from the base level onward, exactly
            tail = energies[u.base_level :]
            assert all(e == tail[0] for e in tail)


def test_energy_limit_region_restriction(hier3):
    """A cell's restricted energies, level by level, are ``energy(cell=)``
    on the values of ``level_values``; ``energy_limit`` sweeps whole levels."""
    u = diagonal_ramp()
    arm = word_index(hier3.ratios, (Letter(1, 1),))
    # the three diagonal cells exhaust the energy
    diag = [word_index(hier3.ratios, (s,)) for s in (Letter(1, 1), CENTER, Letter(3, 1))]
    whole = energy_limit(hier3, u, 2, 4)
    assert whole.levels == (0, 1, 2, 3, 4)
    for n, vals in EXACT.level_values(hier3, u, 1, 4):
        level = hier3.level(n)
        assert EXACT.energy(level, vals, 2, cell=(1, arm)) == Fraction(1, 6)
        restricted = [EXACT.energy(level, vals, 2, cell=(1, w)) for w in diag]
        assert sum(restricted) == Fraction(1, 2) == whole.energies[n]
        # a cell below the level, a negative level and a word past the
        # level's words are region errors
        for bad in ((n + 1, 0), (-1, 0), (1, hier3.ratios.num_words(1))):
            with pytest.raises(RegionError):
                EXACT.energy(level, vals, 2, cell=bad)


def test_float_and_exact_extensions_agree(hier3):
    u = random_affine(hier3, 123)
    for n in (u.base_level, u.base_level + 2):
        ex = fractions(hier3, u, n)
        fl = FLOAT.values_at(hier3, u, n)
        assert np.allclose([float(v) for v in ex], fl, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# resistance
# ---------------------------------------------------------------------------


def test_resistance_formula_values(hier3):
    lv0 = hier3.level(0)
    q0 = lv0.vertex_id(0, 0)
    q1 = lv0.vertex_id(1, 1)
    q3 = lv0.vertex_id(-1, -1)
    for p in (1.5, 2, 3):
        assert float(resistance(lv0, q0, q1, p)) == 1.0
    assert resistance(lv0, q1, q3, 2) == 2
    assert resistance(lv0, q1, q3, 3) == 4
    assert resistance(lv0, q1, q1, 2) == 0


def test_resistance_oracle_agreement(hier3):
    for level_n in (1, 2):
        lv = hier3.level(level_n)
        L = lv.L
        pairs = [
            (lv.origin, lv.vertex_id(L, L)),
            (lv.vertex_id(L, L), lv.vertex_id(-L, -L)),
            (lv.origin, lv.vertex_id(2, 2) if level_n == 1 else lv.vertex_id(6, 6)),
        ]
        for p in (1.5, 2, 3):
            for a, b in pairs:
                want = float(resistance(lv, a, b, p))
                got = resistance_oracle(lv, a, b, p)
                assert abs(want - got) <= 1e-6 * max(1.0, want)


def _cli_pairs(lv):
    """The four vertex pairs of ``vicsek-lab resistance``."""
    L = lv.L
    return [
        (lv.origin, lv.vertex_id(L, L)),
        (lv.vertex_id(L, L), lv.vertex_id(-L, -L)),
        (lv.vertex_id(-L, L), lv.vertex_id(L, -L)),
        (lv.origin, lv.vertex_id(-L, L)),
    ]


def test_resistance_oracle_rejects_p_outside_its_range(hier3):
    lv = hier3.level(1)
    a, b = _cli_pairs(lv)[0]
    for p in (1.05, ORACLE_P_RANGE[0] - 0.01, ORACLE_P_RANGE[1] + 0.5):
        with pytest.raises(InvalidArgumentError, match=r"p in \[1\.4, 8\.0\]"):
            resistance_oracle(lv, a, b, p)


def test_resistance_oracle_rejects_unknown_vertex_ids(hier3):
    """Ids outside 0..V-1 raise as ``resistance`` does, not wrap around to
    vertex V - 1, index past the arrays or divide by a zero energy; equal
    unknown ids too, before the zero resistance of a == b."""
    lv = hier3.level(1)
    V = lv.num_vertices
    for a, b in ((-1, 0), (V, 0), (0, -V), (V, V), (-1, -1)):
        with pytest.raises(LookupError_, match="out of range"):
            resistance(lv, a, b, 2)
        with pytest.raises(LookupError_, match="out of range"):
            resistance_oracle(lv, a, b, 2.0)


def test_resistance_oracle_converges_at_the_lower_bound(hier3, hier35):
    """At both ends of the supported p range the oracle matches the formula
    on every CLI pair of level 2 of constant 3, alternating (3, 5) and
    constant 7 (677 vertices), and of level 3 of constant 3."""
    lv7 = build_level(constant_ratios(7, 3), 2)
    for p in ORACLE_P_RANGE:
        for lv in (hier3.level(2), hier3.level(3), hier35.level(2), lv7):
            for a, b in _cli_pairs(lv):
                want = float(resistance(lv, a, b, p))
                got = resistance_oracle(lv, a, b, p)
                assert abs(want - got) <= 1e-6 * max(1.0, want), (lv.num_vertices, p)


def test_resistance_oracle_matches_the_dense_solve(hier3):
    """Eliminating each IRLS step on the tree gives the dense Laplacian
    solve's value on every pair of levels 0 and 1."""
    for level_n in (0, 1):
        lv = hier3.level(level_n)
        for a, b in itertools.combinations(range(lv.num_vertices), 2):
            for p in (1.5, 2.0, 3.0):
                want = dense_resistance_oracle(lv, a, b, p)
                assert resistance_oracle(lv, a, b, p) == pytest.approx(want, rel=1e-12, abs=0)


def test_resistance_oracle_memory_is_linear_in_the_level():
    """One p = 3 oracle call on level 2 of constant 15 (3,365 vertices)
    peaks at 2 MiB; a V x V float array alone would take 86 MiB."""
    lv = build_level(constant_ratios(15, 3), 2)
    a, b = _cli_pairs(lv)[1]
    tracemalloc.start()
    try:
        r = resistance_oracle(lv, a, b, 3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"
    assert r == pytest.approx(float(resistance(lv, a, b, 3)), rel=1e-6)


def test_resistance_oracle_reports_its_last_change(hier3):
    """A cut-off run reports the relative change between its last two
    energies, which is not zero while the iterates still move."""
    lv = hier3.level(2)
    a, b = _cli_pairs(lv)[0]
    for max_iter in (3, 10):
        with pytest.raises(ConvergenceError) as err:
            resistance_oracle(lv, a, b, 3, max_iter=max_iter)
        assert err.value.residual > 0, max_iter
        assert f"residual {err.value.residual:.3e}" in str(err.value)


def test_resistance_oracle_p2_series_circuit(hier3):
    # p = 2 is a series circuit along the tree path: R = sum of edge lengths
    lv = hier3.level(1)
    a = lv.origin
    b = lv.vertex_id(3, 3)
    assert resistance(lv, a, b, 2) == lv.geodesic_distance(a, b)
    assert resistance_oracle(lv, a, b, 2.0) == pytest.approx(1.0, abs=1e-9)


def test_resistance_euclidean_two_sided(hier3):
    lv = hier3.level(2)
    ids = [lv.origin, lv.vertex_id(9, 9), lv.vertex_id(-9, 9), lv.vertex_id(3, 1)]
    for p in (2, 3):
        for a in ids:
            for b in ids:
                if a == b:
                    continue
                pa = lv.vertex_point(a)
                pb = lv.vertex_point(b)
                d_eu = math.sqrt(float(true_distance_sq(pa, pb, hier3.ratios)))
                R = float(resistance(lv, a, b, p))
                # tree distance within [d, 3 d] on the cross: loose two-sided check
                assert d_eu ** (p - 1) * 0.99 <= R <= (4 * d_eu) ** (p - 1)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def test_sup_norm_exact():
    u = AffineFunction(0, [Fraction(-3, 4), Fraction(1, 2), 0, 0, 0])
    assert u.sup_norm() == Fraction(3, 4)


def test_product_inequality_random_pairs(hier3):
    for seed in range(6):
        u = random_affine(hier3, 2 * seed)
        v = random_affine(hier3, 2 * seed + 1)
        for p in (2, 3):
            rep = energy_property_checks(hier3, u, v, p, 4)
            assert rep.product_ok


def test_contraction_abs_and_clamp(hier3):
    u = diagonal_ramp().shift(Fraction(-1, 2))  # values straddle zero
    clamp = lambda t: max(Fraction(0), min(Fraction(1), t))
    rep = energy_property_checks(hier3, u, u, 2, 3, lipschitz_maps=(abs, clamp))
    assert all(rep.contraction_ok)
    w = compose(u, abs)
    assert energy_limit(hier3, w, 2, 3).limit <= energy_limit(hier3, u, 2, 3).limit


def test_exact_contraction_has_no_slack(hier3):
    """A map that stretches by 1 + 1e-15 raises the energy by about 2e-15,
    inside the float slack of 1e-12 but not an exact contraction."""
    u = random_affine(hier3, 5)
    stretch = lambda t: t * Fraction(10**15 + 1, 10**15)  # noqa: E731
    exact = energy_property_checks(hier3, u, u, 2, 3, lipschitz_maps=(stretch,), arith=EXACT)
    assert exact.contraction_ok == (False,)
    loose = energy_property_checks(hier3, u, u, 2, 3, lipschitz_maps=(stretch,), arith=FLOAT)
    assert loose.contraction_ok == (True,)


def test_strong_locality_exact(hier3):
    base = AffineFunction(1, [Fraction(1)] * hier3.level(1).num_vertices)
    u = restrict_to_arm(hier3, random_affine(hier3, 11).shift(2), 1)
    v = restrict_to_arm(hier3, random_affine(hier3, 12).shift(-2), 3)
    for p in (2, 3):
        rep = energy_property_checks(hier3, u, v, p, 4)
        assert rep.locality_exact
        assert rep.locality_lhs == rep.locality_rhs


def test_strong_locality_spec_example(hier3):
    # functions supported on opposite arms, zero on the shared attachment
    u = restrict_to_arm(hier3, diagonal_ramp(), 1)
    lv1 = hier3.level(1)
    vals = fractions(hier3, u, 1)
    assert vals[lv1.vertex_id(3, 3)] == 1  # the arm tip keeps its value
    assert vals[lv1.origin] == 0


def test_restrict_to_arm_matches_a_per_vertex_scan(hier3, hier35):
    """A base vertex keeps its value iff every cell holding it has a first
    letter on the arm, read from the cell words one vertex at a time (on
    base level 0, iff it is the arm's corner).  First ratios 5 and 7 give
    arms of two and three letters, so a wrong end of an arm's letter range
    shows."""
    hier5 = Hierarchy(constant_ratios(5, 6), 3)
    hier73 = Hierarchy(alternating_ratios(7, 3, 6), 2)
    for hier in (hier3, hier35, hier5, hier73):
        for base in range(min(4, hier.max_level + 1)):
            lv = hier.level(base)
            u = AffineFunction(base, range(1, lv.num_vertices + 1))
            first = [word_from_index(hier.ratios, base, w)[:1] for w in range(lv.num_cells)]
            for direction in range(1, 5):
                got = restrict_to_arm(hier, u, direction).values
                for vid, v in enumerate(u.values):
                    cells = np.flatnonzero((lv.cell_vertices == vid).any(axis=1))
                    keep = all(first[w] and first[w][0].direction == direction for w in cells)
                    if base == 0:
                        keep = vid == direction
                    assert got[vid] == (v if keep else 0), (base, direction, vid)


def test_arm_directions_outside_1_to_4_are_rejected(hier3):
    """0 used to keep the centre, -1 to wrap to arm 4, and 5 to raise an
    IndexError on base level 0 or zero every value on base level 2."""
    u2 = AffineFunction(2, range(hier3.level(2).num_vertices))
    for direction in (0, -1, 5):
        with pytest.raises(InvalidArgumentError, match="direction"):
            corner_indicator(direction)
        for u in (diagonal_ramp(), u2):
            with pytest.raises(InvalidArgumentError, match="direction"):
                restrict_to_arm(hier3, u, direction)


def test_clarkson_directions(hier3):
    level = hier3.level(3)

    def residual(f, g, p, arith):
        E = lambda w: arith.energy(level, arith.values_at(hier3, w, 3), p)
        return clarkson_residual(hier3, f, g, p, 3, (E(f), E(g)), arith)

    for seed in range(100):
        f = random_affine(hier3, 100 + seed)
        g = random_affine(hier3, 300 + seed)
        res2, ok2 = residual(f, g, 2, EXACT)
        assert ok2 and abs(res2) <= 1e-9
        res3, ok3 = residual(f, g, 3, EXACT)
        assert ok3 and res3 <= 1e-9
        res15, ok15 = residual(f, g, 1.5, FLOAT)
        assert ok15 and res15 >= -1e-9


def test_morrey_constant_stability(hier3):
    u = random_affine(hier3, 42)
    c4 = energy_property_checks(hier3, u, u, 2, 4).morrey_constant
    c6 = energy_property_checks(hier3, u, u, 2, 6).morrey_constant
    assert c4 > 0 and c6 > 0
    assert 0.5 <= c4 / c6 <= 2.0


def _dense_morrey(hier, u, p, n, E):
    """The pair-set maximum of ``morrey_constant`` from whole V_K x V_K arrays."""
    p = float(p)
    lvK = hier.level(min(3, n))
    vals = FLOAT.values_at(hier, u, lvK.n)
    coords = lvK.coords.astype(np.float64) / (math.sqrt(2.0) * lvK.L)
    dx = coords[:, 0][:, None] - coords[:, 0][None, :]
    dy = coords[:, 1][:, None] - coords[:, 1][None, :]
    dist = np.sqrt(dx * dx + dy * dy)
    dv = np.abs(vals[:, None] - vals[None, :])
    mask = dist > 0
    ratios_sq = np.zeros_like(dist)
    ratios_sq[mask] = dv[mask] ** p / (dist[mask] ** (p - 1.0) * E)
    best = float(ratios_sq.max())
    lvN = hier.level(n)
    valsN = FLOAT.values_at(hier, u, n)
    dv_e = np.abs(valsN[lvN.edge_head] - valsN[lvN.edge_tail])
    return max(best, float((dv_e**p).max()) / ((1.0 / lvN.L) ** (p - 1.0) * E))


def test_morrey_constant_tiles_keep_the_dense_maximum(hier3, hier35):
    """Row tiles give the dense maximum bit for bit and bound the memory."""
    for hier in (hier3, hier35):
        u = random_affine(hier, 9)
        for p in (2, 3, 1.5):
            E = float(FLOAT.energy(hier.level(4), FLOAT.values_at(hier, u, 4), p))
            assert morrey_constant(hier, u, p, 4, E) == _dense_morrey(hier, u, p, 4, E)
        tracemalloc.start()
        try:
            morrey_constant(hier, u, 3, 4, E)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_multiply_is_pointwise_at_common_base(hier3):
    u = random_affine(hier3, 7)
    v = random_affine(hier3, 8)
    w = multiply(hier3, u, v)
    base = w.base_level
    uu = fractions(hier3, u, base)
    vv = fractions(hier3, v, base)
    assert list(w.values) == [a * b for a, b in zip(uu, vv)]


def test_exact_routes_reject_non_integer_p(hier3):
    """Exact energies need an integer p; a fractional one is never truncated."""
    u = random_affine(hier3, 9)
    n = max(3, u.base_level)
    with pytest.raises(InvalidArgumentError):
        energy_limit(hier3, u, 2.5, n, arith=EXACT)
    with pytest.raises(InvalidArgumentError):
        EXACT.energy(hier3.level(n), EXACT.values_at(hier3, u, n), 2.5)
    # the float routes take it, and differ from the p = 2 energy
    e = energy_limit(hier3, u, 2.5, n, arith=FLOAT).limit
    assert isinstance(e, float)
    assert e != pytest.approx(float(energy_limit(hier3, u, 2, n).limit), rel=1e-6)
    assert FLOAT.energy(hier3.level(n), FLOAT.values_at(hier3, u, n), 2.5) == e


def test_function_with_the_wrong_number_of_values_is_rejected(hier3):
    u = AffineFunction(1, [0] * 20)  # level 1 has 21 vertices
    with pytest.raises(InvalidArgumentError, match="20 values, level 1 has 21 vertices"):
        energy_limit(hier3, u, 2, 2)


def test_random_affine_base_is_capped_at_the_hierarchy():
    """Seed 7 draws base 3; on a hierarchy that stops at level 2 the base is
    2, and the values are the same later draws."""
    deep = random_affine(Hierarchy(constant_ratios(3, 5), 4), 7)
    shallow = random_affine(Hierarchy(constant_ratios(3, 5), 2), 7)
    assert deep.base_level == 3 and shallow.base_level == 2
    assert shallow.values == deep.values[: len(shallow.values)]
