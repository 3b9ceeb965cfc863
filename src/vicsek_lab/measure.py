"""The canonical measure, its scale functions, and dimension diagnostics.

All closed-form quantities are exact: rho_n = 2 / L_n, the level mass
psi(rho_n) = prod (2 l_k - 1)^{-1}, and the energy scale
phi(r) = r^{p-1} psi(r).  phi is an exact rational only when p is an
integer; other exponents fall back to floats with ~1e-14 relative error.

Ball measures have no closed form and are returned as exact interval
brackets obtained by classifying depth-d cells against the sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError, LevelError
from .geometry import LatticePoint, _cell_centers, radius2, square_vs_disk
from .ratios import REGIME_VALUES, RatioSequence, _check_ratio, p_is_integer


def _pow_p_minus_1(base: Fraction, p):
    """base^(p-1), exact for integer p, float otherwise."""
    if p_is_integer(p):
        return base ** (int(p) - 1)
    return float(base) ** (float(p) - 1.0)


def scale_values(ratios: RatioSequence, n: int):
    """(rho_n, psi(rho_n), phi(rho_n)) for one level."""
    if n < 0:
        raise LevelError(f"level must be >= 0, got {n}")
    rho = ratios.rho(n)
    psi = Fraction(1, ratios.num_words(n))
    phi = _pow_p_minus_1(rho, ratios.p) * psi
    return rho, psi, phi


def scale_table(ratios: RatioSequence, max_level: int) -> list[tuple]:
    """Rows (n, rho_n, psi(rho_n), phi(rho_n)) for n = 0..max_level."""
    return [(n, *scale_values(ratios, n)) for n in range(max_level + 1)]


def _scale_index(ratios: RatioSequence, r) -> int:
    """The n with rho_{n+1} < r <= rho_n, and 0 for r >= rho_0 = 2."""
    if r <= 0:
        raise InvalidArgumentError(f"radius must be > 0, got {r}")
    n = 0
    while ratios.rho(n + 1) >= r:
        n += 1
    return n


def psi_of(ratios: RatioSequence, r) -> Fraction:
    """psi(r): right-continuous step value, 1 for r >= 2."""
    return scale_values(ratios, _scale_index(ratios, r))[1]


# ---------------------------------------------------------------------------
# ball-measure interval brackets
# ---------------------------------------------------------------------------


def mu_ball_bounds(
    ratios: RatioSequence,
    center: LatticePoint,
    r,
    refine_depth: int,
) -> tuple[Fraction, Fraction]:
    """Exact interval [lower, upper] containing mu(B(center, r)), open ball.

    Depth-d cells are classified against the sphere in one array pass
    (``geometry.square_vs_disk``): a cell whose bounding
    square lies strictly inside the ball contributes to the lower bound; a
    cell whose square does not meet the open ball is excluded from the upper
    bound; straddling cells widen the bracket by psi(rho_d) each.
    """
    r = Fraction(r)
    if r <= 0:
        raise InvalidArgumentError(f"radius must be > 0, got {r}")
    if refine_depth < 0:
        raise LevelError("refine depth must be >= 0")
    d = refine_depth
    # center and depth-d squares (half-side h) at the common scale t, in
    # Python ints: the exact products overflow int64
    t = max(center.level, d)
    Lt = ratios.length_product(t)
    fc = Lt // ratios.length_product(center.level)
    h = Lt // ratios.length_product(d)
    xy = _cell_centers(ratios, d).astype(object) * h
    near, inside = square_vs_disk(
        xy[:, 0] - center.x * fc, xy[:, 1] - center.y * fc, h, radius2(Lt, r)
    )
    mass = Fraction(1, ratios.num_words(d))
    return np.count_nonzero(inside) * mass, np.count_nonzero(near) * mass


def psi_ratio_bounds(ratios: RatioSequence) -> tuple[float, float, float, float]:
    """(c1, inf_alpha, c2, sup_alpha) such that
    c1 (R/r)^{inf_alpha} <= psi(R)/psi(r) <= c2 (R/r)^{sup_alpha} on 0 < r < R <= 2.
    """
    alphas = [dimension_of_ratio(l) for l in ratios.distinct_ratios()]
    sup_l = max(ratios.distinct_ratios())
    inf_a, sup_a = min(alphas), max(alphas)
    return sup_l ** (-inf_a), inf_a, sup_l**sup_a, sup_a


# ---------------------------------------------------------------------------
# Hausdorff dimension diagnostics for two-ratio sequences
# ---------------------------------------------------------------------------


def dimension_of_ratio(l: int) -> float:
    """Similarity dimension log(2l-1)/log l of the single-ratio fractal."""
    return math.log(2 * l - 1) / math.log(l)


def hausdorff_dimension(a: int, b: int, theta: float) -> float:
    """(theta log(2a-1) + log(2b-1)) / (theta log a + log b)."""
    return (theta * math.log(2 * a - 1) + math.log(2 * b - 1)) / (
        theta * math.log(a) + math.log(b)
    )


@dataclass(frozen=True)
class HausdorffDiagnostics:
    a: int
    b: int
    theta: float
    alpha: float
    theta_seq: tuple[float, ...]
    eta_seq: tuple[float, ...]
    xi_seq: tuple[float, ...]
    hausdorff_measure_class: Optional[str]
    ahlfors_regular: Optional[bool]
    non_self_similar: Optional[bool]
    degenerate: bool = False
    note: str = "prefix sequences are diagnostic, not a limit"


def hausdorff_report(
    a: int,
    b: int,
    prefix: Sequence[int],
    theta: float,
    liminf_eta: Optional[str] = None,
    limsup_eta: Optional[str] = None,
) -> HausdorffDiagnostics:
    """Dimension value plus theta_n / eta_n / xi_n over a finite prefix.

    ``prefix`` is the sequence of the ratios l_1, l_2, ..., each a or b.
    The asymptotic regime of eta is an input: limits are not computable
    from finite data, so the classification of the Hausdorff measure,
    Ahlfors regularity, and the non-self-similarity
    conditions are evaluated from the supplied flags (each one of
    "-inf", "real", "+inf", or None for unknown).
    """
    for l in (a, b):
        _check_ratio(l)
    if theta < 0 or not math.isfinite(theta):
        raise InvalidArgumentError(f"theta must lie in [0, inf), got {theta}")
    for flag in (liminf_eta, limsup_eta):
        if flag is not None and flag not in REGIME_VALUES:
            raise InvalidArgumentError(f"regime flag {flag!r} not in {REGIME_VALUES}")
    if not prefix:
        raise InvalidArgumentError("prefix must be nonempty")
    for item in prefix:  # before any cast: 3.5 is rejected, not truncated
        if item not in (a, b):
            raise InvalidArgumentError(f"prefix entry {item!r} is neither ratio")

    degenerate = a == b
    alpha = (
        dimension_of_ratio(a) if degenerate else hausdorff_dimension(a, b, theta)
    )

    ls = np.array(prefix)
    n = np.arange(1, ls.size + 1)
    count_a, count_b = np.cumsum(ls == a), np.cumsum(ls == b)
    # theta_n = #a / #b; log(rho_n / 2) and log 1/psi(rho_n) are running sums
    theta_seq = np.where(count_b > 0, count_a / np.maximum(count_b, 1), math.inf)
    eta_seq = n * (theta_seq - theta)  # inf where theta_n is
    log_diam = np.cumsum(np.where(ls == a, -math.log(a), -math.log(b)))
    log_inv_psi = np.cumsum(np.where(ls == a, math.log(2 * a - 1), math.log(2 * b - 1)))
    xi = alpha * (math.log(2.0) + log_diam) + log_inv_psi
    theta_seq, eta_seq = theta_seq.tolist(), eta_seq.tolist()
    xi_seq = [math.exp(x) for x in xi.tolist()]

    if degenerate:
        return HausdorffDiagnostics(
            a, b, theta, alpha, tuple(theta_seq), tuple(eta_seq), tuple(xi_seq),
            hausdorff_measure_class="positive_finite",
            ahlfors_regular=True,
            non_self_similar=False,
            degenerate=True,
            note="single ratio: the set is self-similar",
        )

    measure_class = _measure_class(a, b, liminf_eta, limsup_eta)
    ahlfors = (
        None
        if liminf_eta is None or limsup_eta is None
        else (liminf_eta == "real" and limsup_eta == "real")
    )
    if a < b and liminf_eta is not None and limsup_eta is not None:
        non_ss = liminf_eta == "+inf" or (
            liminf_eta == "real" and limsup_eta == "+inf"
        )
    else:
        non_ss = None  # sufficient conditions are stated for a < b only
    return HausdorffDiagnostics(
        a, b, theta, alpha, tuple(theta_seq), tuple(eta_seq), tuple(xi_seq),
        hausdorff_measure_class=measure_class,
        ahlfors_regular=ahlfors,
        non_self_similar=non_ss,
    )


def _measure_class(a, b, liminf_eta, limsup_eta) -> Optional[str]:
    if a < b:
        flag = liminf_eta
        table = {"real": "positive_finite", "-inf": "zero", "+inf": "infinite"}
    else:
        flag = limsup_eta
        table = {"real": "positive_finite", "+inf": "zero", "-inf": "infinite"}
    return table.get(flag) if flag is not None else None


# ---------------------------------------------------------------------------
# constants attached to the alphabet
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivedConstants:
    p: float
    alpha: dict[int, float]  # per-ratio similarity dimension
    beta: dict[int, float]  # p - 1 + alpha_l
    t: dict[int, float]  # (2l-1) l^{p-1}
    inf_alpha: float
    sup_alpha: float
    inf_t: float
    sup_t: float
    eps_p: float


def derived_constants(ratios: RatioSequence) -> DerivedConstants:
    alphabet = ratios.distinct_ratios()
    if not alphabet:
        raise InvalidArgumentError("ratio sequence has an empty prefix")
    p = float(ratios.p)
    alpha = {l: dimension_of_ratio(l) for l in alphabet}
    beta = {l: p - 1 + alpha[l] for l in alphabet}
    t = {l: (2 * l - 1) * l ** (p - 1) for l in alphabet}
    sup_alpha = max(alpha.values())
    eps_p = 1.0 / (1.0 + (p - 1) / sup_alpha)
    return DerivedConstants(
        p=p,
        alpha=alpha,
        beta=beta,
        t=t,
        inf_alpha=min(alpha.values()),
        sup_alpha=sup_alpha,
        inf_t=min(t.values()),
        sup_t=max(t.values()),
        eps_p=eps_p,
    )


# ---------------------------------------------------------------------------
# strictly increasing regularizations
# ---------------------------------------------------------------------------


def regularized_scales(ratios: RatioSequence, r):
    """(psi~(r), phi~(r)): piecewise-linear strictly increasing versions.

    psi~ interpolates psi linearly between consecutive nodes (rho_{n+1},
    psi(rho_{n+1})) and (rho_n, psi(rho_n)), and equals r/2 for r >= 2;
    phi~(r) = r^{p-1} psi~(r).  r is read as a Fraction; psi~ is an exact
    rational, and phi~ too for integer p.
    """
    r = Fraction(r)
    n = _scale_index(ratios, r)
    if r >= 2:
        psi_t = r / 2
    else:
        r_hi, psi_hi, _ = scale_values(ratios, n)
        r_lo, psi_lo, _ = scale_values(ratios, n + 1)
        psi_t = psi_lo + (r - r_lo) / (r_hi - r_lo) * (psi_hi - psi_lo)
    phi_t = _pow_p_minus_1(r, ratios.p) * psi_t
    return psi_t, phi_t
