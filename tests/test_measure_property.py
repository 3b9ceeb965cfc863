"""Property test: the ball-measure brackets against the per-cell loop."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from _measure_oracle import mu_ball_bounds_loop  # noqa: E402

from vicsek_lab.geometry import LatticePoint, _cell_centers, build_level  # noqa: E402
from vicsek_lab.measure import mu_ball_bounds  # noqa: E402
from vicsek_lab.ratios import alternating_ratios, constant_ratios  # noqa: E402

FAMILIES = (constant_ratios(3, 6), alternating_ratios(3, 5, 6))


@lru_cache(maxsize=None)
def _vertices(family: int, s: int) -> list:
    return build_level(FAMILIES[family], s).coords.tolist()


def corner_radii(ratios, center, d: int) -> list[Fraction]:
    """The rational radii that equal the distance from ``center`` to a
    corner of a depth-d cell, in increasing order: at the common scale t,
    d^2 = (dx^2 + dy^2) / (2 L_t^2) is the square of a rational iff
    2 (dx^2 + dy^2) is a perfect square."""
    t = max(center.level, d)
    Lt = ratios.length_product(t)
    fc = Lt // ratios.length_product(center.level)
    h = Lt // ratios.length_product(d)
    xy = _cell_centers(ratios, d).astype(object) * h
    radii = set()
    for sx in (-h, h):
        for sy in (-h, h):
            dx = xy[:, 0] + sx - center.x * fc
            dy = xy[:, 1] + sy - center.y * fc
            for s2 in set((2 * (dx * dx + dy * dy)).tolist()):
                if s2 and isqrt(s2) ** 2 == s2:
                    radii.add(Fraction(isqrt(s2), 2 * Lt))
    return sorted(radii)


@st.composite
def ball_cases(draw):
    family = draw(st.integers(0, len(FAMILIES) - 1))
    ratios = FAMILIES[family]
    s = draw(st.integers(0, 3))
    d = draw(st.integers(0, 4))
    if draw(st.booleans()):  # a vertex of level s
        vertices = _vertices(family, s)
        x, y = vertices[draw(st.integers(0, len(vertices) - 1))]
    else:  # any lattice point, near the set or far outside it
        bound = draw(st.sampled_from((ratios.length_product(s) + 2, 10**9)))
        x, y = draw(st.integers(-bound, bound)), draw(st.integers(-bound, bound))
    center = LatticePoint(x, y, s)
    kind = draw(st.sampled_from(("corner", "past corner", "fraction", "huge")))
    radii = corner_radii(ratios, center, d) if "corner" in kind else []
    if radii:
        # on a corner, or just past it: the corner's dx^2 + dy^2 is then
        # the largest one in the open ball
        r = draw(st.sampled_from(radii)) + (Fraction(1, 10**9) if "past" in kind else 0)
    elif kind == "huge":
        r = Fraction(10**6)
    else:
        r = Fraction(draw(st.integers(1, 10**4)), draw(st.integers(1, 10**3)))
    return ratios, center, r, d


@settings(max_examples=120)
@given(ball_cases())
# r = 10^6 about a centre outside the set: the ball holds all of it
@example((FAMILIES[1], LatticePoint(10**6, -3, 1), Fraction(10**6), 4))
# and about one whose ball misses it
@example((FAMILIES[0], LatticePoint(10**15, 10**15, 3), Fraction(10**6), 3))
# r = 1 is the distance from the origin to the corners of the level-0 cell
@example((FAMILIES[0], LatticePoint(0, 0, 0), Fraction(1), 2))
def test_mu_ball_bounds_is_the_per_cell_loop(case):
    ratios, center, r, d = case
    got = mu_ball_bounds(ratios, center, r, d)
    assert got == mu_ball_bounds_loop(ratios, center, r, d)
    assert 0 <= got[0] <= got[1] <= 1


def test_corner_radii_fall_on_corners():
    """The strategy's corner radii are exact corner distances, and every
    depth has some about a vertex on a diagonal of the level-1 cross; the
    two r = 10^6 examples hold all of the set and none of it."""
    ratios = FAMILIES[1]
    center = LatticePoint(3, 3, 2)
    assert [3, 3] in _vertices(1, 2)
    for d in range(5):
        radii = corner_radii(ratios, center, d)
        assert radii, d
        Lt = ratios.length_product(max(2, d))
        for r in radii:
            # 2 L_t^2 r^2 is the integer dx^2 + dy^2 of a corner
            assert (2 * Lt * Lt * r * r).denominator == 1
    assert mu_ball_bounds(FAMILIES[1], LatticePoint(10**6, -3, 1), 10**6, 4) == (1, 1)
    assert mu_ball_bounds(FAMILIES[0], LatticePoint(10**15, 10**15, 3), 10**6, 3) == (0, 0)
