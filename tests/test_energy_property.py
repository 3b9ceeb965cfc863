"""Differential property tests: the integer-array exact route against lists.

``_energy_oracle`` extends values with one Python loop per vertex and per
edge and sums |du|^p edge by edge in Python ints, the route the library
took before exact values became int64 (or object) arrays.  Values and
energies must be equal, Fraction for Fraction.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import _energy_oracle as oracle  # noqa: E402
from vicsek_lab.besov import jump_kernel_energy  # noqa: E402
from vicsek_lab.energy import (  # noqa: E402
    EXACT,
    FLOAT,
    AffineFunction,
    add,
    compose,
    energy_limit,
    energy_of_gradient,
    gradient_field,
    multiply,
    random_affine,
)
from vicsek_lab.energy_measure import (  # noqa: E402
    gamma_cells,
    pushforward_profile,
    word_energy_measure,
)
from vicsek_lab.geometry import Hierarchy  # noqa: E402
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

# the list oracle is pure Python per vertex and reruns from the base level
# for every level; ratio 3 has 12,501 vertices at level 5
MAX_VERTICES = 15_000

# shifting by 1/3^40 gives integer numerators near 2^84: object dtype
HUGE_SHIFT = Fraction(1, 3**40)


@st.composite
def cases(draw):
    ratios = draw(sequences)
    top = max(k for k in range(6) if ratios.num_vertices(k) <= MAX_VERTICES)
    hier = Hierarchy(ratios, top)
    n = draw(st.integers(0, top))
    # shallow bases, so that most cases extend values over several levels
    max_base = draw(st.integers(0, min(2, top)))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2))
    u, v = (random_affine(hier, s, max_base_level=max_base) for s in seeds)
    kind = draw(st.sampled_from(("seeded", "multiply", "add", "huge")))
    if kind == "multiply":
        u = multiply(hier, u, v)
    elif kind == "add":
        u = add(hier, u, v)
    elif kind == "huge":
        u = compose(u, lambda v: v + HUGE_SHIFT)
    return hier, u, n, kind


@settings(max_examples=60)
@given(cases(), st.sampled_from((2, 3, 5, 8)))
def test_exact_route_matches_list_oracle(case, p):
    hier, u, n, kind = case
    den, vals = EXACT.values_at(hier, u, n)
    assert (vals.dtype == object) == (kind == "huge")
    want_den, want_vals = oracle.scaled_values(hier, u, n)
    assert (den, vals.tolist()) == (want_den, want_vals)

    want = oracle.energies(hier, u, p, n)
    got = energy_limit(hier, u, p, n, arith=EXACT).energies
    assert list(got) == want
    assert list(energy_limit(hier, u, 2, n).energies) == oracle.energies(hier, u, 2, n)
    oracle_vals = (want_den, np.array(want_vals, dtype=object))
    assert EXACT.energy(hier.level(n), oracle_vals, p) == want[n]
    beta_star = float(hier.ratios.beta_star)
    assert jump_kernel_energy(hier, p, beta_star, got, EXACT) == sum(want, Fraction(0))
    if n >= u.base_level:
        assert energy_of_gradient(gradient_field(hier, u, n), p) == want[n]


@pytest.mark.parametrize("n", (0, 4))
def test_int64_bound_is_sharp(n):
    """Values below 2^62 stay int64, larger ones take Python ints; both exact.

    The center and the corners differ in sign, so at the bound an edge
    difference reaches 2^63, one past the int64 range.
    """
    hier = Hierarchy(constant_ratios(3, 12), n)
    largest = (2**62 - 1) // 3**n  # largest base value whose level-n values fit
    for m, dtype in ((largest, "int64"), (largest + 1, "object")):
        u = AffineFunction(0, [-m, m, m, m, m])
        den, vals = EXACT.values_at(hier, u, n)
        assert vals.dtype == dtype
        assert (den, vals.tolist()) == oracle.scaled_values(hier, u, n)
        for p in (2, 3, 8):
            want = oracle.energies(hier, u, p, n)[n]
            assert energy_limit(hier, u, p, n, arith=EXACT).limit == want


@st.composite
def measure_cases(draw):
    """A function, a cell level m and a level one deeper than max(m, base)."""
    ratios = draw(sequences)
    top = max(k for k in range(6) if ratios.num_vertices(k) <= MAX_VERTICES)
    hier = Hierarchy(ratios, top)
    m = draw(st.integers(1, top - 1))
    max_base = draw(st.integers(0, min(2, top - 1)))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2))
    u, v = (random_affine(hier, s, max_base_level=max_base) for s in seeds)
    kind = draw(st.sampled_from(("seeded", "multiply", "huge")))
    if kind == "multiply":
        u = multiply(hier, u, v)
    elif kind == "huge":
        u = compose(u, lambda v: v + HUGE_SHIFT)
    return hier, u, m


@settings(max_examples=40)
@given(measure_cases(), st.sampled_from((2, 3, 5, 8)), st.integers(1, 8))
def test_energy_measures_match_list_oracle(case, p, bins):
    """Gradient-route, word-route and push-forward masses, exact and float.

    Exact masses equal the list oracle's Fractions.  Float cell masses are
    within rel 1e-12 of the oracle's edge loop over the same float values;
    float histogram bins within rel 1e-12 of the exact ones, with an
    absolute floor of 1e-12 of the total for bins that a float boundary
    cuts to a sliver.
    """
    hier, u, m = case
    want = oracle.cell_masses(hier, u, p, m)
    assert list(gamma_cells(hier, u, p, m).masses) == want
    assert list(word_energy_measure(hier, u, p, m).masses) == want

    n = max(m, u.base_level)
    level = hier.level(n)
    vals = FLOAT.values_at(hier, u, n)
    coef = float(level.L) ** (p - 1.0)
    want_float = [coef * s for s in oracle.cell_sums(hier, vals.tolist(), float(p), n, m)]
    for route in (gamma_cells, word_energy_measure):
        got = route(hier, u, p, m, arith=FLOAT).masses
        assert got == pytest.approx(want_float, rel=1e-12, abs=1e-300), route.__name__
    total = gamma_cells(hier, u, p, m, arith=FLOAT).total
    assert total == pytest.approx(FLOAT.energy(level, vals, p), rel=1e-12)

    if min(u.values) == max(u.values):
        return
    want_hist = oracle.pushforward_masses(hier, u, p, bins)
    assert list(pushforward_profile(hier, u, p, bins).masses) == want_hist
    got = pushforward_profile(hier, u, p, bins, arith=FLOAT).masses
    floor = 1e-12 * float(sum(want_hist))
    assert got == pytest.approx([float(x) for x in want_hist], rel=1e-12, abs=floor)
