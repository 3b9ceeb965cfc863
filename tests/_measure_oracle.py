"""Oracle of the ball-measure brackets.

``classify_cells_loop`` is the per-cell Python loop ``measure.mu_ball_bounds``
classified cells with before that became one array pass:
for every depth-d cell it finds the square's nearest point and farthest
corner to the centre and compares their squared distances with the radius
in Python ints.  ``mu_ball_bounds_loop`` turns its counts into the bracket.
"""

from __future__ import annotations

from fractions import Fraction

from vicsek_lab.geometry import _cell_centers


def classify_cells_loop(ratios, center, r, d: int) -> tuple[int, int]:
    """Counts (inside, straddling) of depth-d cells against the open ball."""
    r = Fraction(r)
    s = center.level
    t = max(s, d)
    Lt = ratios.length_product(t)
    # center coordinates and cell geometry at the common scale t
    fc = Lt // ratios.length_product(s)
    px = center.x * fc
    py = center.y * fc
    h = Lt // ratios.length_product(d)  # half-side of a depth-d square
    rn, rd = r.numerator, r.denominator
    # d(a, b) < r  <=>  (dx^2 + dy^2) * rd^2 < 2 * Lt^2 * rn^2
    rhs = 2 * Lt * Lt * rn * rn
    rd2 = rd * rd
    inside = 0
    straddle = 0
    for cx, cy in _cell_centers(ratios, d).tolist():
        bx = cx * h
        by = cy * h
        # nearest point of the square to the center
        nx = px if bx - h <= px <= bx + h else (bx - h if px < bx - h else bx + h)
        ny = py if by - h <= py <= by + h else (by - h if py < by - h else by + h)
        ddx = px - nx
        ddy = py - ny
        if (ddx * ddx + ddy * ddy) * rd2 >= rhs:
            continue  # square misses the open ball entirely
        # farthest corner of the square from the center
        fx = (bx - h) if abs(px - (bx - h)) >= abs(px - (bx + h)) else (bx + h)
        fy = (by - h) if abs(py - (by - h)) >= abs(py - (by + h)) else (by + h)
        ddx = px - fx
        ddy = py - fy
        if (ddx * ddx + ddy * ddy) * rd2 < rhs:
            inside += 1
        else:
            straddle += 1
    return inside, straddle


def mu_ball_bounds_loop(ratios, center, r, d: int) -> tuple[Fraction, Fraction]:
    """[lower, upper] bracket of mu(B(center, r)) from depth-d cells."""
    inside, straddle = classify_cells_loop(ratios, center, r, d)
    mass = Fraction(1, ratios.num_words(d))
    return inside * mass, (inside + straddle) * mass
