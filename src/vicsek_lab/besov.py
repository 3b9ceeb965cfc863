"""Besov-Lipschitz functionals, discrete beta-energies, and BBM curves.

Conventions.  The level-n beta-energy is defined through the energy scale
function: E_n^beta := phi(rho_n)^(1 - beta/beta*) * E_{p,n}, so that at
beta = beta* it coincides with the discrete p-energy exactly.  The ball
functional is estimated by the proxy

    Phi^beta(rho_n) = phi(rho_n)^(-beta/beta*) * psi(rho_n)^(-1) * I_{m,n}

with I_{m,n} the vertex-measure ball energy.  Every report is a function of
one energy sequence, E_{p,n} (``energy_limit``) or I_{m,n}
(``ball_energies``) for n = 0..N, and takes it with the ``Arithmetic`` it
was computed in; N is its length less one.  The float weights come from
one walk of log phi(rho_n), ``_log_phis``, in log space because
phi(rho_n) underflows doubles long before a geometric tail becomes
negligible; only ``bbm_curve`` sums a tail past N (``_plateau_tail``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Optional, Sequence

from .errors import InvalidArgumentError, LevelError
from .geometry import Hierarchy, VicsekLevel
from .measure import derived_constants, scale_values
from .ratios import RatioSequence
from .energy import EXACT, FLOAT, AffineFunction, Arithmetic

# relative and absolute slack of bbm_curve's bracket test, for float rounding
_BRACKET_TOL = 1e-9


def ball_energy(
    level: VicsekLevel, values, p, n: int, arith: Arithmetic = EXACT
) -> Fraction | float:
    """I_{m,n}: the double vertex-measure integral of |du|^p over open balls,
    of values held in ``arith``; a scale n past the level is rejected by the
    pair plan."""
    from .pairsum import ball_pair_sum_indexed

    s = arith.unscale(ball_pair_sum_indexed(level, values, p, n, arith), values, p)
    return s / arith.num(level.num_vertices) ** 2


@dataclass(frozen=True)
class BesovProfile:
    p: object
    beta: float
    beta_star: float
    vertex_level: int
    max_scale: int
    ball_energies: tuple  # I_{m,n} for n = 0..N
    phi_proxy: tuple


def beta_arithmetic(arith: Arithmetic, ratios: RatioSequence, beta) -> Arithmetic:
    """The arithmetic of what is weighted by phi(rho_n)^(-beta/beta*): ``arith``
    (that of the E_{p,n}) at beta = beta*, where E_n^beta = E_{p,n}; FLOAT
    elsewhere, where the weights are irrational."""
    return arith if float(beta) == float(ratios.beta_star) else FLOAT


def ball_arithmetic(arith: Arithmetic, hier: Hierarchy, m: int) -> Arithmetic:
    """The arithmetic of the ball energies I_{m,n} on vertex level m: ``arith``
    on at most 600 vertices, FLOAT otherwise.  Exact sums cost two to three
    times float ones at p = 2 and 3 (ramp and ``random_affine`` values at
    l = 3, m = 6), so the limit stays only because a higher one would change
    the rational ``besov`` artifacts of larger levels.  Like the I_{m,n}, it
    does not depend on beta."""
    return arith if hier.level(m).num_vertices <= 600 else FLOAT


def ball_energies(
    hier: Hierarchy, u: AffineFunction, p, m: int, max_scale: int, arith: Arithmetic
) -> tuple:
    """I_{m,n} for n = 0..max_scale in ``ball_arithmetic(arith, hier, m)``.

    They do not depend on beta, so one set serves every profile of (u, p, m).
    """
    if m < max_scale:
        raise LevelError(f"vertex level {m} must be >= max scale {max_scale}")
    arith = ball_arithmetic(arith, hier, m)
    level = hier.level(m)
    values = arith.values_at(hier, u, m)
    return tuple(ball_energy(level, values, p, n, arith) for n in range(max_scale + 1))


def phi_profile(
    hier: Hierarchy, p, beta: float, m: int, energies: Sequence, arith: Arithmetic
) -> BesovProfile:
    """Ball-functional proxies at scales rho_0 .. rho_N on V_m vertices.

    ``energies`` are the I_{m,n} for n = 0..N, ``ball_energies`` of
    (u, p, m, N) in ``arith``, so they are in ``ball_arithmetic(arith, hier,
    m)``; the proxies are in ``beta_arithmetic`` of it, so a proxy is exact
    only at beta = beta*.
    """
    ratios = hier.ratios.with_p(p)  # phi at this p
    at = beta_arithmetic(ball_arithmetic(arith, hier, m), ratios, beta)
    expo = -float(beta) / float(ratios.beta_star)
    proxy = []
    for n, I in enumerate(energies):
        rho, psi, phi = scale_values(ratios, n)
        proxy.append(_weight(beta, n, at.power, phi, expo) / at.num(psi) * at.num(I))
    return BesovProfile(
        p=p,
        beta=float(beta),
        beta_star=float(ratios.beta_star),
        vertex_level=m,
        max_scale=len(energies) - 1,
        ball_energies=tuple(energies),
        phi_proxy=tuple(proxy),
    )


def besov_seminorm(
    hier: Hierarchy,
    u: AffineFunction,
    p,
    q,
    beta: float,
    m: int,
    max_scale: int,
    arith: Arithmetic = EXACT,
) -> float:
    """[u]_{B_{p,q}^beta} discretized over the dyadic-like scale partition.

    For q < infinity the dr/r integral over (rho_{n+1}, rho_n] contributes
    log l_{n+1} with the functional frozen at rho_n; q = infinity takes the
    sup of the p-th roots.
    """
    if not (q == math.inf or q > 1):
        raise InvalidArgumentError(f"q must be in (1, inf], got {q}")
    balls = ball_energies(hier, u, p, m, max_scale, arith)
    prof = phi_profile(hier, p, beta, m, balls, arith)
    phis = [float(x) for x in prof.phi_proxy]
    pf = float(p)
    if q == math.inf:
        return max(x ** (1.0 / pf) for x in phis)
    qf = float(q)
    terms = [
        phis[n] ** (qf / pf) * math.log(hier.ratios.ratio(n + 1))
        for n in range(max_scale + 1)
    ]
    return math.fsum(terms) ** (1.0 / qf)


# ---------------------------------------------------------------------------
# discrete beta-energies
# ---------------------------------------------------------------------------


def _log_phis(ratios: RatioSequence) -> Iterator[float]:
    """log phi(rho_0), log phi(rho_1), ... as one running float sum (safe
    far past double underflow); the ratio l_n is read only when its term is."""
    p1 = float(ratios.p) - 1.0
    out = p1 * math.log(2.0)
    k = 0
    while True:
        yield out
        k += 1
        l = ratios.ratio(k)
        out -= p1 * math.log(l) + math.log(2 * l - 1)


def _log_phi(ratios: RatioSequence, n: int) -> float:
    """log phi(rho_n), the n-th term of ``_log_phis``."""
    return next(islice(_log_phis(ratios), n, None))


def _beta_factors(ratios: RatioSequence, beta, count: int) -> list[float]:
    """phi(rho_n)^(1 - beta/beta*) for n < count, in floats: exactly 1.0 at beta*."""
    expo = 1.0 - float(beta) / float(ratios.beta_star)
    logs = islice(_log_phis(ratios), count)
    return [_weight(beta, n, math.exp, expo * x) for n, x in enumerate(logs)]


def _weight(beta, n: int, power, *args):
    """``power(*args)``, a power of phi(rho_n) that weighs scale n at beta."""
    try:
        return power(*args)
    except OverflowError:
        raise InvalidArgumentError(f"beta = {beta}, n = {n}: phi(rho_n)^x exceeds the float range")


def _plateau_tail(ratios: RatioSequence, beta, N: int, plateau: float) -> float:
    """sum_{n>N} phi(rho_n)^(1 - beta/beta*) * plateau, summed until a term
    falls below 1e-18 of the total: the part past N of E_{p,p}^beta for
    energies equal to ``plateau`` beyond N.  It needs beta < beta* (in
    floats) and a ratio sequence extendable beyond the prefix."""
    beta_star = float(ratios.beta_star)
    if float(beta) >= beta_star:
        raise InvalidArgumentError("plateau tail diverges unless beta < beta_star")
    expo = 1.0 - float(beta) / beta_star
    acc = 0.0
    for n, log_phi in enumerate(islice(_log_phis(ratios), N + 1, None), start=N + 1):
        term = math.exp(expo * log_phi) * plateau
        acc += term
        if term <= 1e-18 * max(acc, 1e-300) and n > N + 4:
            return acc
        if n > N + 2_000_000:
            raise InvalidArgumentError("plateau tail did not converge")


@dataclass(frozen=True)
class DiscreteBetaProfile:
    p: object
    beta: float
    beta_star: float
    max_scale: int
    base_energies: tuple  # E_{p,n} = E_n^{beta*}
    beta_energies: tuple  # E_n^beta
    sup_energy: object  # E_{p,inf}^beta over n <= N
    sum_energy: object  # E_{p,p}^beta over n <= N


def discrete_profiles(
    hier: Hierarchy,
    u: AffineFunction,
    p,
    beta: float,
    energies: Sequence,
    arith: Arithmetic,
) -> DiscreteBetaProfile:
    """E_n^beta for n <= N plus their sup and sum over n <= N.

    ``energies`` are the E_{p,n} of u for n = 0..N in ``arith``
    (``energy_limit(...).energies``); they do not depend on beta, so one
    sequence serves every profile of (u, p).  The E_n^beta and their sum
    are in ``beta_arithmetic(arith, ratios, beta)``.  The part of the sum
    past N is ``bbm_curve``'s.
    """
    if beta < 0:
        raise InvalidArgumentError(f"beta must be >= 0, got {beta}")
    ratios = hier.ratios.with_p(p)  # phi at this p
    base = list(energies)
    at = beta_arithmetic(arith, ratios, beta)
    # at beta* every factor is exp(0) = 1 exactly, so E_n^beta = E_{p,n} in ``at``
    factors = _beta_factors(ratios, beta, len(base))
    beta_energies = [at.num(f) * at.num(e) for f, e in zip(factors, base)]
    return DiscreteBetaProfile(
        p=p,
        beta=float(beta),
        beta_star=float(ratios.beta_star),
        max_scale=len(base) - 1,
        base_energies=tuple(base),
        beta_energies=tuple(beta_energies),
        sup_energy=max(beta_energies),
        sum_energy=at.total(beta_energies),
    )


def jump_kernel_energy(
    hier: Hierarchy, p, beta: float, energies: Sequence, arith: Arithmetic
) -> Fraction | float:
    """The non-local pair-sum form: levelwise weighted sums of |du|^p.

    Each adjacent pair at level n carries kernel weight
    phi(rho_n)^(-beta/beta*) * 2^{p-1} * psi(rho_n), with phi taken at this
    p; summing over levels 0..N reproduces sum_{n<=N} E_n^beta.  The sum of
    |du|^p over the level-n edges is E_{p,n} / L_n^{p-1}, so the form is one
    pass over ``energies``, the E_{p,n} of u for n = 0..N in ``arith``.  The
    form is in
    ``beta_arithmetic(arith, ratios, beta)``: at beta = beta* in exact
    arithmetic the weight is the exact 2^{p-1} psi / phi, so the identity
    checks the scale constants rather than a sum against itself.
    """
    ratios = hier.ratios.with_p(p)  # phi at this p, in both arithmetics
    at = beta_arithmetic(arith, ratios, beta)
    expo = -float(beta) / float(ratios.beta_star)
    q1 = at.exponent(p) - 1
    total = at.num(0)
    for n, e in enumerate(energies):
        rho, psi, phi = scale_values(ratios, n)
        L = ratios.length_product(n)
        w = _weight(beta, n, at.power, phi, expo) * at.num(2) ** q1 * at.num(psi) / at.num(L) ** q1
        total += w * at.num(e)
    return total


# ---------------------------------------------------------------------------
# BBM convergence curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BBMPoint:
    epsilon: float
    beta: float
    value: float  # (beta* - beta) * E_{p,p}^beta
    bracket_low: float
    bracket_high: float
    within_bracket: bool


@dataclass(frozen=True)
class BBMCurve:
    points: tuple[BBMPoint, ...]
    limit_low: float  # E * beta* / log(sup t)
    limit_high: float  # E * beta* / log(inf t)
    energy: float  # E_{p,inf}^{beta*}(u) = E_p(u)


def bbm_curve(
    hier: Hierarchy,
    u: AffineFunction,
    p,
    epsilons: Sequence[float],
    energies: Sequence,
    arith: Arithmetic,
) -> BBMCurve:
    """(beta* - beta) E_{p,p}^beta for beta = beta* - epsilon, with brackets.

    The finite-epsilon brackets come from the geometric-sum estimate with
    per-level factors t_l = (2l-1) l^{p-1}: with delta = eps/beta* and n0
    the plateau level, the value lies in
    [eps E phi(rho_n0)^delta / (1 - sup_t^-delta),
     eps E phi(rho_0)^delta / (1 - inf_t^-delta)].
    As eps -> 0 both ends converge to E beta* / log t.  Each sum is
    sum_{n<=N} E_n^beta of ``discrete_profiles`` plus the closed tail past N
    (``_plateau_tail``), exact because the E_{p,n} of an affine function are
    constant from its base level on, which must lie within 0..N.
    ``energies`` are the E_{p,n} of u for n = 0..N in ``arith``, shared by
    every epsilon.
    """
    ratios = hier.ratios.with_p(p)  # phi and t_l at this p
    beta_star = float(ratios.beta_star)
    for eps in epsilons:
        if not 0 < eps < beta_star:
            raise InvalidArgumentError(
                f"epsilon must lie in (0, beta_star), got {eps}"
            )
    N = len(energies) - 1
    n0 = u.base_level
    if n0 > N:
        raise InvalidArgumentError(
            f"plateau tail needs the base level {n0} within the computed range 0..{N}"
        )
    consts = derived_constants(ratios)
    E = float(energies[-1])
    log_phi_0, log_phi_n0 = _log_phi(ratios, 0), _log_phi(ratios, n0)
    points = []
    for eps in epsilons:
        beta = beta_star - eps
        prof = discrete_profiles(hier, u, p, beta, energies, arith)
        value = eps * (float(prof.sum_energy) + _plateau_tail(ratios, beta, N, E))
        delta = eps / beta_star
        lo = eps * E * math.exp(delta * log_phi_n0) / (1.0 - consts.sup_t ** (-delta))
        hi = eps * E * math.exp(delta * log_phi_0) / (1.0 - consts.inf_t ** (-delta))
        tol = _BRACKET_TOL
        ok = lo * (1.0 - tol) - tol <= value <= hi * (1.0 + tol) + tol
        points.append(BBMPoint(eps, beta, value, lo, hi, bool(ok)))
    return BBMCurve(
        points=tuple(points),
        limit_low=E * beta_star / math.log(consts.sup_t),
        limit_high=E * beta_star / math.log(consts.inf_t),
        energy=E,
    )


# ---------------------------------------------------------------------------
# critical exponent sweep and weak monotonicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    beta: float
    classification: str  # divergent | plateau | vanishing
    trend: str  # increasing | constant | decreasing | flat-zero
    beta_energies: tuple[float, ...]
    growth_factors: tuple[float, ...]


def critical_sweep(
    hier: Hierarchy,
    u: AffineFunction,
    p,
    beta_grid: Sequence[float],
    energies: Sequence,
    arith: Arithmetic,
) -> list[SweepRow]:
    """Classify E_n^beta trends across a beta grid around beta*, from the
    E_{p,n} of u for n = 0..N in ``arith``."""
    ratios = hier.ratios.with_p(p)  # phi at this p
    beta_star = float(ratios.beta_star)
    max_scale = len(energies) - 1
    rows = []
    for beta in beta_grid:
        prof = discrete_profiles(hier, u, p, beta, energies, arith)
        vals = [float(x) for x in prof.beta_energies]
        growth = tuple(_beta_factors(ratios, beta, max_scale + 1))
        if beta > beta_star:
            cls = "divergent"
        elif beta == beta_star:
            cls = "plateau"
        else:
            cls = "vanishing"
        start = min(u.base_level, max_scale)
        seg = vals[start:]
        if all(v == 0.0 for v in seg):
            trend = "flat-zero"
        elif all(b > a * (1 + 1e-12) for a, b in zip(seg, seg[1:])):
            trend = "increasing"
        elif all(b < a * (1 - 1e-12) for a, b in zip(seg, seg[1:])):
            trend = "decreasing"
        elif all(abs(b - a) <= 1e-12 * max(abs(a), 1e-300) for a, b in zip(seg, seg[1:])):
            trend = "constant"
        else:
            trend = "mixed"
        rows.append(SweepRow(float(beta), cls, trend, tuple(vals), growth))
    return rows


@dataclass(frozen=True)
class WeakMonotonicityReport:
    vertex_level: int
    max_scale: int
    window: tuple[int, int]
    phi_values: tuple[float, ...]
    sup_value: float
    window_min: float
    ratio: Optional[float]
    degenerate: bool


def weak_monotonicity_window(N: int) -> tuple[int, int]:
    """The scales (lo, N) over which the commands' weak-monotonicity reports
    take their minimum at depth N; empty below N = 1."""
    return max(1, N - 2), N


def weak_monotonicity_report(
    hier: Hierarchy,
    p,
    m: int,
    window: tuple[int, int],
    energies: Sequence,
    arith: Arithmetic,
) -> WeakMonotonicityReport:
    """sup_n Phi(rho_n) / min over a window: finite surrogate of sup/liminf.

    ``energies`` and ``arith`` are passed on to ``phi_profile`` at beta = beta*.
    """
    lo, hi = window
    max_scale = len(energies) - 1
    if not (0 <= lo <= hi <= max_scale):
        raise InvalidArgumentError(f"window {window} not within [0, {max_scale}]")
    prof = phi_profile(hier, p, float(hier.ratios.beta_star), m, energies, arith)
    phis = [float(x) for x in prof.phi_proxy]
    sup_v = max(phis)
    win_min = min(phis[lo : hi + 1])
    degenerate = win_min == 0.0
    return WeakMonotonicityReport(
        vertex_level=m,
        max_scale=max_scale,
        window=(lo, hi),
        phi_values=tuple(phis),
        sup_value=sup_v,
        window_min=win_min,
        ratio=None if degenerate else sup_v / win_min,
        degenerate=degenerate,
    )
