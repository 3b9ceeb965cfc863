"""The list-based exact value extension and edge sums, kept as a reference.

This is the pure-Python route the library used before exact values became
integer arrays: one Python loop per vertex and per edge, every sum in Python
ints.  It reads only the hierarchy's transition tables and edge lists, so it
checks the array route's arithmetic, dtype choice and power sums, not the
geometry.  ``cell_sums`` and ``pushforward_masses`` are the per-edge loops
the energy measures used before they shared one edge primitive.
``dense_resistance_oracle`` is the resistance oracle with each IRLS step
solved on the dense V x V weighted Laplacian, as it was before the steps
were eliminated on the tree.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from vicsek_lab.energy import FLOAT, AffineFunction
from vicsek_lab.errors import ConvergenceError
from vicsek_lab.geometry import Hierarchy, VicsekLevel


def _int_power_sum(diffs, p: int) -> int:
    if p == 2:
        return sum(d * d for d in diffs)
    return sum(abs(d) ** p for d in diffs)


def _extend_exact(hier: Hierarchy, vals: list[int], den: int, k: int):
    l = hier.ratios.ratio(k + 1)
    t = hier.transition(k)
    coarse = hier.level(k)
    new = [0] * hier.level(k + 1).num_vertices
    for i, nid in enumerate(t.lift.tolist()):
        new[nid] = vals[i] * l
    tails, heads = coarse.edge_tail.tolist(), coarse.edge_head.tolist()
    interior = t.interior.tolist()
    for e in range(coarse.num_edges):
        vt = vals[tails[e]]
        d = vals[heads[e]] - vt
        base_v = vt * l
        row = interior[e]
        for i in range(1, l):
            new[row[i - 1]] = base_v + i * d
    for v, par in t.hang.tolist():
        new[v] = new[par]
    return new, den * l


def scaled_values(hier: Hierarchy, u: AffineFunction, n: int) -> tuple[int, list[int]]:
    """Exact values on V_n as integers over a common denominator."""
    den, ints = u.scaled()
    base = u.base_level
    if n <= base:
        idx = list(range(hier.level(n).num_vertices))
        for k in range(n, base):
            lift = hier.lift_ids(k).tolist()
            idx = [lift[i] for i in idx]
        return den, [ints[i] for i in idx]
    vals = ints
    for k in range(base, n):
        vals, den = _extend_exact(hier, vals, den, k)
    return den, vals


def energies(hier: Hierarchy, u: AffineFunction, p: int, n: int) -> list[Fraction]:
    """E_{p,k}(u) = L_k^{p-1} / den^p * sum over edges |du|^p for k = 0..n."""
    out = []
    for k in range(n + 1):
        if k <= u.base_level:
            den, ints = scaled_values(hier, u, k)
        else:
            ints, den = _extend_exact(hier, ints, den, k - 1)
        level = hier.level(k)
        tails, heads = level.edge_tail.tolist(), level.edge_head.tolist()
        s = _int_power_sum((ints[heads[e]] - ints[tails[e]] for e in range(level.num_edges)), p)
        out.append(Fraction(level.L ** (p - 1) * s, den**p))
    return out


def cell_sums(hier: Hierarchy, vals, p, n: int, m: int) -> list:
    """Per level-m cell, sum of |du|^p over the level-n edges inside it.

    ``vals`` are the values on V_n as a list: Python ints give exact sums,
    floats give float sums in edge order.  An edge belongs to the ancestor
    of its cell word, whose index is the word index divided by the number
    of level-n words per level-m word.
    """
    level = hier.level(n)
    per_cell = hier.ratios.num_words(n) // hier.ratios.num_words(m)
    acc = [0] * hier.ratios.num_words(m)
    for t, h, w in zip(
        level.edge_tail.tolist(), level.edge_head.tolist(), level.edge_word.tolist()
    ):
        acc[w // per_cell] += abs(vals[h] - vals[t]) ** p
    return acc


def cell_masses(hier: Hierarchy, u: AffineFunction, p: int, m: int) -> list[Fraction]:
    """Exact energy-measure mass of every level-m cell, on level max(m, base)."""
    n = max(m, u.base_level)
    den, ints = scaled_values(hier, u, n)
    L = hier.level(n).L
    return [Fraction(L ** (p - 1) * s, den**p) for s in cell_sums(hier, ints, p, n, m)]


def pushforward_masses(hier: Hierarchy, u: AffineFunction, p: int, bins: int) -> list[Fraction]:
    """Exact push-forward histogram: each base edge's mass spread uniformly
    over its value interval, bin by bin."""
    level = hier.level(u.base_level)
    den, ints = scaled_values(hier, u, u.base_level)
    lo, hi = min(u.values), max(u.values)
    width = (hi - lo) / bins
    out = [Fraction(0)] * bins
    for t, h in zip(level.edge_tail.tolist(), level.edge_head.tolist()):
        a, b = sorted((Fraction(ints[t], den), Fraction(ints[h], den)))
        if a == b:
            continue
        mass = Fraction(level.L ** (p - 1) * abs(ints[h] - ints[t]) ** p, den**p)
        for k in range(bins):
            overlap = min(b, lo + (k + 1) * width) - max(a, lo + k * width)
            if overlap > 0:
                out[k] += mass * overlap / (b - a)
    return out


def dense_resistance_oracle(
    level: VicsekLevel, a: int, b: int, p: float, max_iter: int = 120, tol: float = 1e-10
) -> float:
    """``resistance_oracle``'s IRLS, each step one dense solve: O(V^2) memory,
    O(V^3) time, so for small levels only."""
    p = float(p)
    theta = 1.0 if p <= 2.0 else 1.0 / (p - 1.0)
    V = level.num_vertices
    tails = level.edge_tail.astype(np.intp)
    heads = level.edge_head.astype(np.intp)
    free = np.ones(V, dtype=bool)
    free[a] = free[b] = False
    u = np.full(V, 0.5)
    u[a] = 1.0
    u[b] = 0.0

    def irls_step(w: np.ndarray) -> np.ndarray:
        lap = np.zeros((V, V))
        np.add.at(lap, (tails, tails), w)
        np.add.at(lap, (heads, heads), w)
        np.add.at(lap, (tails, heads), -w)
        np.add.at(lap, (heads, tails), -w)
        A = lap[np.ix_(free, free)]
        rhs = -lap[np.ix_(free, ~free)] @ u[~free]
        return np.linalg.solve(A, rhs)

    if p == 2.0:
        u[free] = irls_step(np.ones(tails.size))
        return 1.0 / FLOAT.energy(level, u, p)

    eps = 0.01
    prev = cur = FLOAT.energy(level, u, p)
    for _ in range(max_iter):
        d = u[heads] - u[tails]
        w = (d * d + eps * eps) ** ((p - 2.0) / 2.0)
        sol = irls_step(w)
        u = u.copy()
        u[free] = (1.0 - theta) * u[free] + theta * sol
        prev, cur = cur, FLOAT.energy(level, u, p)
        if eps <= 1e-13 and abs(cur - prev) <= tol * max(cur, 1e-300):
            return 1.0 / cur
        eps = max(eps * 0.2, 1e-14)
    raise ConvergenceError("dense resistance oracle did not converge", abs(cur - prev) / cur)
