"""The list-based exact value extension and edge sums, kept as a reference.

This is the pure-Python route the library used before exact values became
integer arrays: one Python loop per vertex and per edge, every sum in Python
ints.  It reads only the hierarchy's transition tables and edge lists, so it
checks the array route's arithmetic, dtype choice and power sums, not the
geometry.
"""

from __future__ import annotations

from fractions import Fraction

from vicsek_lab.energy import AffineFunction
from vicsek_lab.geometry import Hierarchy


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
    tails, heads = coarse._edge_lists()
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
        tails, heads = level._edge_lists()
        s = _int_power_sum((ints[heads[e]] - ints[tails[e]] for e in range(level.num_edges)), p)
        out.append(Fraction(level.L ** (p - 1) * s, den**p))
    return out
