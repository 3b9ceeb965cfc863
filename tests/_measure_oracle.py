"""Oracle of the ball-measure brackets.

``classify_cells_loop`` is the per-cell Python loop ``measure.mu_ball_bounds``
classified cells with before that became one array pass:
for every depth-d cell it finds the square's nearest point and farthest
corner to the centre and compares their squared distances with the radius
in Python ints.  ``mu_ball_bounds_loop`` turns its counts into the bracket.

``phi_of``, ``mu_cell``, ``doubling_bound`` and
``example_sequence_eta_bound_holds`` moved here from ``vicsek_lab.measure``:
no command runs them (the commands read phi through ``measure.scale_values``
at the radii rho_n), so the library keeps only what its commands reach and
the tests keep these.
"""

from __future__ import annotations

from fractions import Fraction

from vicsek_lab.geometry import _cell_centers
from vicsek_lab.measure import _scale_index, scale_values
from vicsek_lab.ratios import _in_a_run


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


def phi_of(ratios, r):
    """phi(r) = rho_n^{p-1} psi(rho_n) on (rho_{n+1}, rho_n], 2^{p-1} for r >= 2."""
    return scale_values(ratios, _scale_index(ratios, r))[2]


def mu_cell(ratios, word) -> Fraction:
    """Mass of the cell addressed by the word: (#W_m)^{-1} at its level."""
    return Fraction(1, ratios.num_words(len(word)))


def doubling_bound(ratios) -> int:
    """Explicit constant with mu(B(x, 2r)) <= bound * mu(B(x, r))."""
    sup_l = max(ratios.distinct_ratios())
    return 5 * (2 * sup_l - 1) ** 3


def example_sequence_eta_bound_holds(a: int, b: int, n_max: int) -> bool:
    """Exact check of eta_n >= (2/3) sqrt(n) for n <= n_max over the block
    example sequence (the bound does not depend on the values of a and b).

    Works in integer arithmetic: eta_n = n (c_a - c_b) / c_b with theta = 1,
    and eta_n >= (2/3) sqrt(n)  <=>  9 n (c_a - c_b)^2 >= 4 c_b^2 (both
    sides nonnegative here).  Positions with c_b = 0 have eta_n = +inf.
    """
    count_b = 0
    for n in range(1, n_max + 1):
        count_b += not _in_a_run(n)
        diff = n - 2 * count_b  # c_a - c_b
        if count_b and (diff < 0 or 9 * n * diff * diff < 4 * count_b * count_b):
            return False
    return True
