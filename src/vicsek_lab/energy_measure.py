"""Energy measures on cells: gradient route, word route, and their checks.

The measure of a cell is the integral of |du|^p over the skeleton inside
it.  Two constructions are provided: integrating the per-edge slopes of the
gradient field (``gamma_cells``) and taking discrete energies restricted
to each cell, with plateau verification (``word_energy_measure``).  Each
edge is assigned to the unique cell containing its interior, so cell masses
form a true partition of the total energy.  All these measures are absolutely
continuous with respect to the skeleton length measure by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgumentError, LevelError
from .geometry import Hierarchy
from .words import ancestor_index_stride
from .energy import (
    EXACT,
    FLOAT,
    AffineFunction,
    Arithmetic,
    add,
)


@dataclass(frozen=True)
class CellMeasure:
    """Nonnegative mass per word of one level; total is their sum."""

    level: int
    masses: tuple

    @property
    def total(self):
        if not self.masses:
            return Fraction(0)
        s = self.masses[0]
        for m in self.masses[1:]:
            s = s + m
        return s

    def refinement_defect(self, finer: "CellMeasure", children_per_cell: int):
        """max |mass(w) - sum of children| over words (exact or float)."""
        worst = None
        for w, mass in enumerate(self.masses):
            lo = w * children_per_cell
            child_sum = sum(finer.masses[lo : lo + children_per_cell])
            d = abs(mass - child_sum)
            worst = d if worst is None else max(worst, d)
        return worst


def gamma_cells(
    hier: Hierarchy, u: AffineFunction, p, m: int, arith: Arithmetic = EXACT
) -> CellMeasure:
    """Energy-measure masses of all level-m cells via gradient integration.

    mass(w) = sum over edges with interior in the cell of |slope|^p * length,
    evaluated on the level max(m, base) edges where the slopes of the affine
    function are constant.  The total equals the p-energy.
    """
    n_eval = max(m, u.base_level)
    level = hier.level(n_eval)
    # |slope|^p * len = |du * L|^p / L = L^{p-1} |du|^p, summed per ancestor cell
    cells = level.edge_word // ancestor_index_stride(hier.ratios, n_eval, m)
    masses = arith.energy(
        level, arith.values_at(hier, u, n_eval), p,
        group=cells, num_groups=hier.ratios.num_words(m),
    )
    return CellMeasure(m, tuple(masses))


def word_energy_measure(
    hier: Hierarchy,
    u: AffineFunction,
    p,
    n: int,
    arith: Arithmetic = EXACT,
    verify_plateau: bool = True,
) -> CellMeasure:
    """Masses via discrete energies restricted to cells, at their plateau.

    For each level-n word w the mass is ``arith.energy(..., cell=(n, w))``
    at level max(n, base): the edges inside the cell, one index range, are
    selected first and then summed, independently of the per-cell grouping
    of ``gamma_cells``.  When ``verify_plateau``, the masses are recomputed
    one level deeper and required to agree (``arith.close``), which is the
    finite certificate that the restricted energies have reached their
    supremum.
    """
    n_eval = max(n, u.base_level)
    if verify_plateau and n_eval + 1 > hier.max_level:
        raise LevelError(
            f"plateau verification needs level {n_eval + 1}; hierarchy stops at "
            f"{hier.max_level}"
        )

    def restricted(k: int) -> list:
        level = hier.level(k)
        values = arith.values_at(hier, u, k)
        return [
            arith.energy(level, values, p, cell=(n, w))
            for w in range(hier.ratios.num_words(n))
        ]

    masses = restricted(n_eval)
    if verify_plateau:
        finer = restricted(n_eval + 1)
        for w, (a, b) in enumerate(zip(masses, finer)):
            if not arith.close(a, b):
                raise AssertionError(
                    f"restricted energy not at plateau for word {w}: {a} vs {b}"
                )
    return CellMeasure(n, tuple(masses))


def coincidence_check(
    hier: Hierarchy, u: AffineFunction, p, depth: int, arith: Arithmetic = EXACT
) -> Fraction | float:
    """max relative discrepancy between the two constructions, levels 1..depth,
    in ``arith``."""
    worst = arith.num(0)
    for m in range(1, depth + 1):
        g = gamma_cells(hier, u, p, m, arith)
        w = word_energy_measure(hier, u, p, m, arith, verify_plateau=False)
        total = g.total
        if total == 0:
            continue
        for a, b in zip(g.masses, w.masses):
            d = abs(a - b) / total
            if d > worst:
                worst = d
    return worst


# ---------------------------------------------------------------------------
# chain rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainRuleReport:
    level_discrete: int
    quadrature_nodes: int
    cell_level: int
    discrete_masses: tuple[float, ...]
    quadrature_masses: tuple[float, ...]
    total_discrete: float
    total_quadrature: float
    total_relative_deviation: float
    per_cell_relative_deviation: tuple[float, ...]


def chain_rule_check(
    hier: Hierarchy,
    u: AffineFunction,
    f: Callable[[float], float],
    f_prime: Callable[[float], float],
    p,
    n: int,
    quadrature_nodes: int = 32,
    cell_level: int = 1,
) -> ChainRuleReport:
    """Compare the energy measure of f(u) with its chain-rule prediction.

    The left side estimates each cell mass of the composed function by its
    level-n restricted discrete energy (a monotone lower bound); the right
    side integrates |f'(u)|^p |du|^p along the skeleton edges with composite
    Simpson quadrature.  Both converge to the same masses as n and the node
    count grow.
    """
    pf = float(p)
    level_n = hier.level(n)
    cells = level_n.edge_word // ancestor_index_stride(hier.ratios, n, cell_level)
    num_cells = hier.ratios.num_words(cell_level)

    fw = np.array([f(v) for v in FLOAT.values_at(hier, u, n).tolist()])
    discrete = np.array(FLOAT.energy(level_n, fw, pf, group=cells, num_groups=num_cells))

    # quadrature on the coarse edges where u is affine
    n_q = max(cell_level, u.base_level)
    level_q = hier.level(n_q)
    stride_q = ancestor_index_stride(hier.ratios, n_q, cell_level)
    vals_q = FLOAT.values_at(hier, u, n_q)
    quad = np.zeros(num_cells)
    q = quadrature_nodes
    if q % 2 == 1:
        q += 1
    ts = np.linspace(0.0, 1.0, q + 1)
    simpson = np.ones(q + 1)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    edge_len = 1.0 / level_q.L
    tails = level_q.edge_tail
    heads = level_q.edge_head
    words = level_q.edge_word.tolist()
    for e in range(level_q.num_edges):
        vt = float(vals_q[tails[e]])
        vh = float(vals_q[heads[e]])
        slope = (vh - vt) / edge_len
        if slope == 0.0:
            continue
        uvals = vt + ts * (vh - vt)
        integrand = np.array([abs(f_prime(x)) ** pf for x in uvals.tolist()])
        integral = (edge_len / (3.0 * q)) * float(np.dot(simpson, integrand))
        quad[words[e] // stride_q] += abs(slope) ** pf * integral

    td = float(discrete.sum())
    tq = float(quad.sum())
    total_dev = abs(td - tq) / tq if tq else abs(td - tq)
    per_cell = tuple(
        float(abs(a - b) / b) if b else float(abs(a - b))
        for a, b in zip(discrete.tolist(), quad.tolist())
    )
    return ChainRuleReport(
        level_discrete=n,
        quadrature_nodes=q,
        cell_level=cell_level,
        discrete_masses=tuple(discrete.tolist()),
        quadrature_masses=tuple(quad.tolist()),
        total_discrete=td,
        total_quadrature=tq,
        total_relative_deviation=total_dev,
        per_cell_relative_deviation=per_cell,
    )


def triangle_check(
    hier: Hierarchy,
    u1: AffineFunction,
    u2: AffineFunction,
    weights: Sequence,
    p,
    m: int,
    rel_tol: float = 1e-12,
) -> tuple[bool, float, float]:
    """Weighted Minkowski comparison of the three energy measures.

    Returns (holds, lhs, rhs) for (sum g Gamma<u1+u2>)^{1/p} <=
    (sum g Gamma<u1>)^{1/p} + (sum g Gamma<u2>)^{1/p} with piecewise
    constant nonnegative weights per level-m cell.
    """
    w = [Fraction(x) for x in weights]
    if len(w) != hier.ratios.num_words(m):
        raise InvalidArgumentError(
            f"need one weight per level-{m} word ({hier.ratios.num_words(m)})"
        )
    if any(x < 0 for x in w):
        raise InvalidArgumentError("weights must be nonnegative")
    pf = float(p)
    s = add(hier, u1, u2)
    ms = gamma_cells(hier, s, p, m)
    m1 = gamma_cells(hier, u1, p, m)
    m2 = gamma_cells(hier, u2, p, m)

    def weighted(cm: CellMeasure) -> float:
        return float(sum(wi * mi for wi, mi in zip(w, cm.masses)))

    lhs = weighted(ms) ** (1.0 / pf)
    rhs = weighted(m1) ** (1.0 / pf) + weighted(m2) ** (1.0 / pf)
    return lhs <= rhs * (1.0 + rel_tol) + 1e-300, lhs, rhs


# ---------------------------------------------------------------------------
# push-forward histogram
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PushforwardHistogram:
    bin_edges: tuple
    masses: tuple
    total: object
    point_mass_flags: tuple[int, ...]  # edges with positive mass but flat image

    def to_rows(self):
        return [
            (self.bin_edges[i], self.bin_edges[i + 1], self.masses[i])
            for i in range(len(self.masses))
        ]


def pushforward_profile(
    hier: Hierarchy, u: AffineFunction, p, bins: int, arith: Arithmetic = EXACT
) -> PushforwardHistogram:
    """Histogram of the image of the energy measure under the function.

    Each base-level edge carries mass |slope|^p * length spread uniformly
    over its value interval (the function is affine along the edge, so the
    push-forward density there is uniform).  Edges with a flat image and
    positive mass would concentrate on a point; they are flagged and cannot
    occur for affine functions.
    """
    if bins < 1:
        raise InvalidArgumentError("bins must be >= 1")
    base = u.base_level
    level = hier.level(base)
    lo = min(u.values)
    hi = max(u.values)
    if lo == hi:
        raise InvalidArgumentError("constant function: the value range is empty")
    # each edge its own group: the per-edge mass |slope|^p * length
    edge_masses = arith.energy(
        level, arith.values_at(hier, u, base), p,
        group=np.arange(level.num_edges), num_groups=level.num_edges,
    )
    tails, heads = level.edge_tail.tolist(), level.edge_head.tolist()

    num = arith.num
    width = (num(hi) - num(lo)) / bins
    edges = tuple(num(lo) + k * width for k in range(bins + 1))
    masses = [num(0)] * bins
    flags = []
    for e, mass in enumerate(edge_masses):
        if mass == 0:
            continue
        a, b = sorted(num(u.values[v]) for v in (tails[e], heads[e]))
        k0 = max(0, min(int((a - edges[0]) / width), bins - 1))
        if a == b:
            # positive mass on a flat edge: would contradict absolute continuity
            flags.append(e)
            masses[k0] += mass
            continue
        k1 = max(0, min(int((b - edges[0]) / width), bins - 1))
        for k in range(k0, k1 + 1):
            seg_lo = max(a, edges[k])
            seg_hi = min(b, edges[k + 1])
            if seg_hi > seg_lo:
                masses[k] += mass * (seg_hi - seg_lo) / (b - a)

    total = sum(masses, num(0))
    return PushforwardHistogram(
        bin_edges=edges,
        masses=tuple(masses),
        total=total,
        point_mass_flags=tuple(flags),
    )
