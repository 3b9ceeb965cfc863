"""Discrete p-energies, piecewise-affine functions, gradients, resistances.

The test-function class is the space of base-level piecewise-affine
functions: stored as exact rational values on the base-level vertices,
extended to finer levels by linear interpolation along subdivided edges and
constant continuation into hanging branches.  For these functions every
discrete energy is exact when p is an integer: values are carried as
integers over a common denominator, so monotonicity and plateau statements
can be asserted with equality rather than tolerances.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, InvalidArgumentError, LevelError, RegionError
from .geometry import Hierarchy, VicsekLevel
from .ratios import p_is_integer
from .words import ancestor_index_stride, arm_letter


class AffineFunction:
    """A base-level piecewise-affine function, one exact value per vertex."""

    def __init__(self, base_level: int, values: Sequence):
        self.base_level = base_level
        self.values = tuple(Fraction(v) for v in values)

    def __len__(self) -> int:
        return len(self.values)

    def scaled(self) -> tuple[int, list[int]]:
        """(denominator, integer numerators) over the common denominator."""
        den = math.lcm(*(v.denominator for v in self.values)) if self.values else 1
        return den, [int(v * den) for v in self.values]

    def sup_norm(self) -> Fraction:
        """Exact C(K)-norm: affine functions attain extrema on base vertices."""
        return max((abs(v) for v in self.values), default=Fraction(0))

    def scale(self, c) -> "AffineFunction":
        c = Fraction(c)
        return AffineFunction(self.base_level, [c * v for v in self.values])

    def shift(self, c) -> "AffineFunction":
        c = Fraction(c)
        return AffineFunction(self.base_level, [v + c for v in self.values])


def combine(hier: Hierarchy, a: AffineFunction, b: AffineFunction, fn) -> AffineFunction:
    """Pointwise combination at the common refinement of the base levels."""
    base = max(a.base_level, b.base_level)
    den_a, va = EXACT.values_at(hier, a, base)
    den_b, vb = EXACT.values_at(hier, b, base)
    pairs = zip(va.tolist(), vb.tolist())
    return AffineFunction(base, [fn(Fraction(x, den_a), Fraction(y, den_b)) for x, y in pairs])


def add(hier: Hierarchy, a: AffineFunction, b: AffineFunction) -> AffineFunction:
    return combine(hier, a, b, lambda x, y: x + y)


def subtract(hier: Hierarchy, a: AffineFunction, b: AffineFunction) -> AffineFunction:
    return combine(hier, a, b, lambda x, y: x - y)


def multiply(hier: Hierarchy, a: AffineFunction, b: AffineFunction) -> AffineFunction:
    """Pointwise product sampled at the common base level.

    The true product is not piecewise affine; this is its affine
    interpolation, which is what the level-n energies of the product are
    evaluated on (a monotone lower bound of the product's energy).
    """
    return combine(hier, a, b, lambda x, y: x * y)


def compose(u: AffineFunction, fn) -> AffineFunction:
    """fn applied to the base values (exact when fn maps rationals to rationals)."""
    return AffineFunction(u.base_level, [Fraction(fn(v)) for v in u.values])


def diagonal_ramp() -> AffineFunction:
    """The canonical ramp: 0 at the lower-left corner, 1 at the upper-right,
    1/2 at the center and on both side corners (base level 0).

    Level-0 vertex ids follow cell slot order: 0 center, then corners in
    diagonal directions 1..4.
    """
    h = Fraction(1, 2)
    return AffineFunction(0, [h, 1, h, 0, h])


def _check_direction(direction: int) -> None:
    if direction not in range(1, 5):
        raise InvalidArgumentError(f"direction must be one of 1..4, got {direction}")


def corner_indicator(direction: int = 1) -> AffineFunction:
    """1 at one level-0 corner, 0 elsewhere (base level 0)."""
    _check_direction(direction)
    vals = [Fraction(0)] * 5
    vals[direction] = Fraction(1)
    return AffineFunction(0, vals)


# ---------------------------------------------------------------------------
# value extension / restriction
# ---------------------------------------------------------------------------


def _check_function(hier: Hierarchy, u: AffineFunction) -> None:
    lv = hier.level(u.base_level)
    if len(u.values) != lv.num_vertices:
        raise InvalidArgumentError(
            f"function has {len(u.values)} values, level {u.base_level} has "
            f"{lv.num_vertices} vertices"
        )


# Exact values are int64 while every value is below 2^62 in magnitude, so
# every edge difference fits too; larger ones are Python ints in object
# arrays, through the same code.
_INT64_BOUND = 2**62

# Elements per temporary (512 KB of float64, so a tile stays in L2 cache):
# ``morrey_constant`` and the pair-sum evaluators build their pairwise arrays
# in tiles of at most this many elements.
_CHUNK = 1 << 16


def _int_array(ints: Sequence[int], growth: int = 1) -> np.ndarray:
    """Integers as an array: int64 if max |v| * growth < 2^62, else object."""
    bound = max(map(abs, ints), default=0) * growth
    return np.array(ints, dtype=np.int64 if bound < _INT64_BOUND else object)


def _abs_pow(d: np.ndarray, pf: float) -> None:
    """d <- |d|^pf in place; small integer pf by repeated products."""
    np.abs(d, out=d)
    if pf.is_integer() and pf <= 8.0:
        base = d.copy()
        for _ in range(int(pf) - 1):
            d *= base
    else:
        d **= pf


class Arithmetic:
    """How values are held and energies computed: ``EXACT`` or ``FLOAT``.

    ``EXACT`` holds the values of a function on V_n as ``(den, integer
    array)``, takes integer exponents only and returns Fractions; ``FLOAT``
    holds float64 arrays and returns floats.  Results compare within
    ``slack``, 0 in EXACT and 1e-12 in FLOAT: ``close(a, b)`` is |b - a| <=
    slack max(1, |b|) and ``at_most(a, b)`` is a <= b (1 + slack); ``num``,
    ``power``, ``total`` and ``unscale`` (of a pair sum) make its numbers.
    ``arithmetic`` picks one from (mode, p), and every energy routine takes it.

    The pair sums take from it only what differs: values as a (V, F) array
    and, if integer, their max |v|, the masked |d|^p sums of K blocks, the
    block terms' dtype, and a brute-force tile's in-ball power total; the
    block terms are added up in plan order alike in both.
    """

    name: str
    num: type  # the result number type
    slack: float  # 0 in EXACT, where close is == and at_most is <=

    def __repr__(self) -> str:
        return self.name

    def close(self, a, b) -> bool:
        return abs(b - a) <= self.slack * max(1, abs(b))

    def at_most(self, a, b) -> bool:
        return a <= b * (1 + self.slack)

    def level_values(self, hier: Hierarchy, u: AffineFunction, start: int, stop: int):
        """(n, values of u on V_n) for n = start..stop, extending one level at a time.

        Below the base level the values are restrictions through the lift maps.
        """
        _check_function(hier, u)
        base = u.base_level
        vals = cur = self._base_values(hier, u, max(stop, base))
        k = base
        for n in range(start, stop + 1):
            if n < base:
                idx = np.arange(hier.level(n).num_vertices, dtype=np.int64)
                for j in range(n, base):
                    idx = hier.lift_ids(j)[idx]
                yield n, self._take(vals, idx)
                continue
            while k < n:
                cur = self._extend(hier, cur, k)
                k += 1
            yield n, cur

    def values_at(self, hier: Hierarchy, u: AffineFunction, n: int):
        """u on V_n."""
        return next(self.level_values(hier, u, n, n))[1]

    def energy(
        self,
        level: VicsekLevel,
        values,
        p,
        cell: Optional[tuple[int, int]] = None,
        group: Optional[np.ndarray] = None,
        num_groups: int = 1,
    ):
        """E_{p,n} = L^{p-1} * sum over the level's edges of |du|^p.

        The one sum of edge powers: ``values`` are held as this arithmetic
        holds them, and the result is its number.  With ``cell=(k, w)``, the
        sum runs over the edges inside the level-k cell K_w (the energy
        restricted to K_w); with ``group``, one id below ``num_groups`` per
        edge of the level, the result is the list of per-group sums (over
        the cell's edges only, with both).
        """
        # int32 edge tables: ``take`` converts them faster than a fancy index
        tails, heads = level.edge_tail, level.edge_head
        if cell is not None:
            sel = _cell_edges(level, *cell)
            tails, heads = tails[sel], heads[sel]
            group = None if group is None else group[sel]
        return self._energies(level.L, values, tails, heads, p, group, num_groups)

    def power(self, x, e):
        """x^e as a number of this arithmetic."""
        return self.num(x) ** self.exponent(e)


class _Exact(Arithmetic):
    name, num, slack = "EXACT", Fraction, 0

    def exponent(self, p) -> int:
        """p as an int; a non-integer p is rejected, never rounded."""
        if not p_is_integer(p):
            raise InvalidArgumentError(f"exact energies need integer p, got {p}")
        return int(p)

    def total(self, xs) -> Fraction:
        return sum(xs, Fraction(0))

    def unscale(self, s: int, values, p) -> Fraction:
        """A sum of p-th powers of the held integers, as the sum over the values."""
        return Fraction(s, values[0] ** self.exponent(p))

    def _base_values(self, hier: Hierarchy, u: AffineFunction, deepest: int):
        # the dtype is chosen once, for the deepest level
        den, ints = u.scaled()
        lp = hier.ratios.length_product
        return den, _int_array(ints, lp(deepest) // lp(u.base_level))

    def _take(self, values, idx: np.ndarray):
        return values[0], values[1][idx]

    def _extend(self, hier: Hierarchy, values, k: int):
        l = hier.ratios.ratio(k + 1)
        return values[0] * l, _refine(hier, values[1], k, l, range(1, l))

    def _energies(self, L: int, values, tails, heads, p, group, num_groups):
        den, vals = values
        q = self.exponent(p)
        sums = _power_sums(vals.take(heads) - vals.take(tails), q, group, num_groups)
        out = [Fraction(L ** (q - 1) * s, den**q) for s in sums]
        return out if group is not None else out[0]

    def _slopes(self, level: VicsekLevel, values) -> tuple:
        diffs = (values[1][level.edge_head] - values[1][level.edge_tail]).tolist()
        return tuple(Fraction(d * level.L, values[0]) for d in diffs)

    def _gradient_energy(self, slopes: tuple, L: int, p) -> Fraction:
        q = self.exponent(p)
        return Fraction(sum(c * abs(s) ** q for s, c in Counter(slopes).items()), L)

    _term_dtype = object  # pair sums: Python-int block terms

    def _pair_values(self, values, p: int = 1):
        """(ints as a (V, 1) array, True, max |v|): int64 while every
        |v_i - v_j|^p fits it.  A list is read as Python ints: numpy would
        read negative ints beside ints past 2^63 as float64."""
        ints = np.asarray(values[1], dtype=getattr(values[1], "dtype", object))
        top = int(np.abs(ints).max(initial=0))
        return np.asarray(ints, np.int64 if (2 * top) ** p < 2**63 else object)[:, None], True, top

    def _tile_sums(self, d: np.ndarray, p: int, mask: np.ndarray) -> np.ndarray:
        return np.array([_power_sums(t, p) for t in d[:, mask]], dtype=object)

    def _ball_total(self, mask: np.ndarray, t: np.ndarray) -> int:
        # a tile has at most _CHUNK entries: their 32-bit halves sum in int64
        t = t[mask].ravel()
        if t.dtype == object:
            return sum(t.tolist())
        return (int((t >> 32).sum()) << 32) + int((t & 0xFFFFFFFF).sum())


class _Float(Arithmetic):
    name, num, slack = "FLOAT", float, 1e-12

    def exponent(self, p) -> float:
        return float(p)

    def total(self, xs) -> float:
        return math.fsum(float(x) for x in xs)

    def unscale(self, s, values, p):
        return s

    def _base_values(self, hier: Hierarchy, u: AffineFunction, deepest: int):
        return np.array([float(v) for v in u.values], dtype=np.float64)

    def _take(self, values: np.ndarray, idx: np.ndarray):
        return values[idx]

    def _extend(self, hier: Hierarchy, values: np.ndarray, k: int):
        l = hier.ratios.ratio(k + 1)
        return _refine(hier, values, k, 1, [i / l for i in range(1, l)])

    def _energies(self, L: int, values, tails, heads, p, group, num_groups):
        coef = float(L) ** (float(p) - 1.0)
        terms = np.abs(values.take(heads) - values.take(tails)) ** float(p)
        if group is None:
            return coef * math.fsum(terms.tolist())
        return np.bincount(group, terms * coef, num_groups).tolist()

    def _slopes(self, level: VicsekLevel, values: np.ndarray) -> np.ndarray:
        return (values[level.edge_head] - values[level.edge_tail]) * float(level.L)

    def _gradient_energy(self, slopes: np.ndarray, L: int, p) -> float:
        return math.fsum((np.abs(slopes) ** float(p) / float(L)).tolist())

    _term_dtype = np.float64

    def _pair_values(self, values, p: float = 1.0):
        """(values as a (V, F) float64 array, whether they were one vector, 0)."""
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim == 2 and not vals.shape[1]:
            raise InvalidArgumentError("pair sums need F >= 1 value columns, got F = 0")
        return (vals[:, None], True, 0) if vals.ndim == 1 else (vals, False, 0)

    def _tile_sums(self, d: np.ndarray, p: float, mask) -> np.ndarray:
        _abs_pow(d, p)
        return d.sum(axis=(1, 2)) if mask is None else np.einsum("ij,kijf->kf", mask, d)

    def _ball_total(self, mask: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ijf->f", mask, t)


EXACT = _Exact()
FLOAT = _Float()


def arithmetic(mode: str, p) -> Arithmetic:
    """The arithmetic of E_{p,n} and of everything built on it: EXACT in
    rational mode for an integer p, FLOAT otherwise."""
    return EXACT if mode == "rational" and p_is_integer(p) else FLOAT


def _refine(hier: Hierarchy, vals: np.ndarray, k: int, scale, weights) -> np.ndarray:
    """u on V_k -> u on V_{k+1}, the one extension pass of both arithmetics.

    Lifted vertices take ``vals * scale``, interior point i of a coarse edge
    ``tail * scale + weights[i - 1] * (head - tail)``, and hanging vertices
    copy their attachment point.  EXACT passes (l, 1..l-1) on numerators
    whose denominator grows by l (``_int_array`` chose a dtype that holds
    max |v| * l at the deepest level); FLOAT passes (1, i/l).
    """
    t = hier.transition(k)
    coarse = hier.level(k)
    new = np.empty(hier.level(k + 1).num_vertices, dtype=vals.dtype)
    new[t.lift] = vals * scale
    vt = vals[coarse.edge_tail]
    d = vals[coarse.edge_head] - vt
    vt = vt * scale
    for i, w in enumerate(weights):
        new[t.interior[:, i]] = vt + w * d
    new[t.hang[:, 0]] = new[t.hang[:, 1]]
    return new


# ---------------------------------------------------------------------------
# discrete energies
# ---------------------------------------------------------------------------


def _cell_edges(level: VicsekLevel, k: int, w: int) -> slice:
    """The edges inside the level-k cell w, as a slice of the level's edges.

    Cell v of the level holds edges 4v .. 4v + 3, and the level cells below
    w are w * stride .. (w + 1) * stride - 1, so its edges are one run.
    """
    if not 0 <= k <= level.n:
        raise RegionError(f"cell level {k} is outside 0..{level.n}")
    words = level.ratios.num_words(k)
    if not 0 <= w < words:
        raise RegionError(f"cell word {w} is outside 0..{words - 1} at level {k}")
    stride = ancestor_index_stride(level.ratios, level.n, k)
    return slice(4 * w * stride, 4 * (w + 1) * stride)


def _power_sums(
    d: np.ndarray, p: int, group: Optional[np.ndarray] = None, num_groups: int = 1
) -> list[int]:
    """sum |d|^p over an integer array, exactly, per group.

    Equal (group, |d|) pairs are counted first and each power is taken once
    per distinct |d| in Python ints, so no power can overflow.  Without
    ``group`` every entry is in group 0.
    """
    if group is None:
        values, counts = np.unique(np.abs(d), return_counts=True)
        groups, which = [0] * values.size, range(values.size)
    else:
        values, inverse = np.unique(np.abs(d), return_inverse=True)
        keys, counts = np.unique(group * values.size + inverse, return_counts=True)
        groups, which = (keys // values.size).tolist(), (keys % values.size).tolist()
    powers = [v**p for v in values.tolist()]
    acc = [0] * num_groups
    for g, i, c in zip(groups, which, counts.tolist()):
        acc[g] += c * powers[i]
    return acc


@dataclass(frozen=True)
class GradientField:
    """Constant slope per oriented level-n edge, tail-to-head direction:
    Fractions in exact arithmetic, a float64 array in float."""

    level: int
    length_product: int
    arith: Arithmetic
    values: object


def gradient_field(
    hier: Hierarchy, u: AffineFunction, n: int, arith: Arithmetic = EXACT
) -> GradientField:
    """Per-edge slopes of the affine extension at level n >= base level."""
    if n < u.base_level:
        raise LevelError(
            f"gradient level {n} below base level {u.base_level}"
        )
    level = hier.level(n)
    return GradientField(n, level.L, arith, arith._slopes(level, arith.values_at(hier, u, n)))


def energy_of_gradient(g: GradientField, p) -> Fraction | float:
    """sum_e |slope_e|^p * edge_length, from the slopes alone (not through
    ``Arithmetic.energy``); equals the discrete energy."""
    return g.arith._gradient_energy(g.values, g.length_product, p)


@dataclass(frozen=True)
class EnergyReport:
    """Per-level energies with plateau detection."""

    p: float | int
    levels: tuple[int, ...]
    energies: tuple
    plateau_level: Optional[int]
    limit: object

    def to_json_dict(self) -> dict:
        return {
            "p": str(self.p),
            "levels": list(self.levels),
            "energies": [str(e) for e in self.energies],
            "energies_float": [float(e) for e in self.energies],
            "plateau_level": self.plateau_level,
            "limit": str(self.limit),
            "limit_float": float(self.limit),
        }


def energy_limit(
    hier: Hierarchy, u: AffineFunction, p, max_level: int, arith: Arithmetic = EXACT
) -> EnergyReport:
    """E_{p,n} for n = 0..max_level; constant from the base level on.

    The plateau is the first level whose energy ``arith`` finds close to the next.
    """
    energies = [
        arith.energy(hier.level(n), values, p)
        for n, values in arith.level_values(hier, u, 0, max_level)
    ]
    plateau = next(
        (i for i, (a, b) in enumerate(zip(energies, energies[1:])) if arith.close(a, b)), None
    )
    return EnergyReport(
        p=p,
        levels=tuple(range(max_level + 1)),
        energies=tuple(energies),
        plateau_level=plateau,
        limit=energies[-1],
    )


# ---------------------------------------------------------------------------
# p-resistance
# ---------------------------------------------------------------------------


def resistance(level: VicsekLevel, a: int, b: int, p):
    """R_p(a, b) = geodesic(a, b)^{p-1} on vertices (exact for integer p)."""
    level.check_vertex_ids(a, b)
    arith = arithmetic("rational", p)
    if a == b:
        return arith.num(0)
    return arith.num(level.geodesic_distance(a, b)) ** (arith.exponent(p) - 1)


# p range of resistance_oracle.  Its IRLS stops converging as p falls to 1:
# on the four CLI pairs of level 3 it fails at p = 1.25 (constant 3 and
# alternating 3, 5) and converges from 1.3 up; the bound keeps 0.1 of margin.
ORACLE_P_RANGE = (1.4, 8.0)
# relative change of the energy between IRLS steps at which the oracle stops
_ORACLE_TOL = 1e-10


def oracle_covers(p) -> bool:
    """Whether p lies in ``ORACLE_P_RANGE``, where ``resistance_oracle`` runs."""
    lo, hi = ORACLE_P_RANGE
    return lo <= float(p) <= hi


def oracle_agrees(r, r_oracle: float) -> bool:
    """Whether R_p = r and its oracle value agree: |r - r_oracle| <= 1e-6 max(1, r)."""
    return abs(float(r) - r_oracle) <= 1e-6 * max(1.0, float(r))


def resistance_oracle(
    level: VicsekLevel,
    a: int,
    b: int,
    p: float,
    max_iter: int = 120,
) -> float:
    """Independent variational value: 1 / min E_p(u) over u(a)=1, u(b)=0.

    Iteratively reweighted least squares on the p-Dirichlet sum with an
    annealed smoothing parameter; the returned value uses the unsmoothed
    energy of the final iterate, hence is a certified lower bound of R_p up
    to solver accuracy.
    """
    if not oracle_covers(p):
        raise InvalidArgumentError(f"oracle supports p in {list(ORACLE_P_RANGE)}, got {p}")
    level.check_vertex_ids(a, b)
    if a == b:
        return 0.0
    p = float(p)
    theta = 1.0 if p <= 2.0 else 1.0 / (p - 1.0)  # damping; plain IRLS cycles for p > 2
    V = level.num_vertices
    parent = level.parent
    free = np.ones(V, dtype=bool)
    free[a] = free[b] = False
    u = np.full(V, 0.5)
    u[a] = 1.0
    u[b] = 0.0
    order = np.argsort(level.depth, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(level.depth[order])) + 1)
    steps = [(vs, parent[vs], free[vs]) for vs in groups]  # depth 0 (the root), 1, ...

    def irls_step(w: np.ndarray) -> np.ndarray:
        """Minimise sum w(v) (u(v) - u(parent v))^2 with u(a), u(b) held.

        The level is a tree: eliminating from the deepest vertices up writes
        each as u = s u(parent) + t, with no fill-in (s = 0 on a, b and the
        root, whose weight is 0); substitution from the root down gives u.
        """
        w[level.origin] = 0.0
        den, num, s, t, x = (np.zeros(V) for _ in range(5))
        for vs, par, fr in reversed(steps):
            wv = w[vs]
            dv = wv + den[vs]
            s[vs] = sv = np.divide(wv, dv, out=np.zeros_like(wv), where=fr)
            t[vs] = tv = np.divide(num[vs], dv, out=u[vs], where=fr)
            np.add.at(den, par, wv * (1.0 - sv))
            np.add.at(num, par, wv * tv)
        for vs, par, _ in steps:
            x[vs] = s[vs] * x[par] + t[vs]
        return x[free]

    if p == 2.0:
        u[free] = irls_step(np.ones(V))
        return 1.0 / FLOAT.energy(level, u, p)

    eps = 0.01
    prev = cur = FLOAT.energy(level, u, p)
    for _ in range(max_iter):
        d = u - u[parent]
        w = (d * d + eps * eps) ** ((p - 2.0) / 2.0)
        u[free] = (1.0 - theta) * u[free] + theta * irls_step(w)
        prev, cur = cur, FLOAT.energy(level, u, p)
        if eps <= 1e-13 and abs(cur - prev) <= _ORACLE_TOL * max(cur, 1e-300):
            return 1.0 / cur
        eps = max(eps * 0.2, 1e-14)
    residual = abs(cur - prev) / max(cur, 1e-300)  # between the last two energies
    raise ConvergenceError("resistance oracle did not converge", residual)


# ---------------------------------------------------------------------------
# structural property checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyCheckReport:
    p: object
    level: int
    product_lhs: object
    product_rhs: object
    product_ok: bool
    contraction_ok: tuple[bool, ...]
    spectral_gap_constant: float
    morrey_constant: float
    locality_lhs: object
    locality_rhs: object
    locality_exact: bool
    clarkson_residual: float
    clarkson_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "p": str(self.p),
            "level": self.level,
            "product": {
                "lhs": float(self.product_lhs),
                "rhs": float(self.product_rhs),
                "ok": self.product_ok,
            },
            "contraction_ok": list(self.contraction_ok),
            "spectral_gap_constant": self.spectral_gap_constant,
            "morrey_constant": self.morrey_constant,
            "locality": {
                "lhs": float(self.locality_lhs),
                "rhs": float(self.locality_rhs),
                "exact": self.locality_exact,
            },
            "clarkson": {
                "residual": self.clarkson_residual,
                "ok": self.clarkson_ok,
            },
        }


def morrey_constant(hier: Hierarchy, u: AffineFunction, p, n: int, energy) -> float:
    """max |u(x)-u(y)|^p / (d(x,y)^{p-1} E) over a deterministic pair set,
    with ``energy`` = E the energy of u at level n, in either arithmetic.

    The pair set is all pairs of V_K for K = min(3, n) (which captures the
    large-separation maximizers) plus all level-n adjacent pairs (the
    small-separation ones).  Euclidean distance in the denominator.
    """
    p = float(p)
    E = float(energy)
    if E == 0.0:
        return 0.0
    K = min(3, n)
    lvK = hier.level(K)
    vals = FLOAT.values_at(hier, u, K)
    coords = lvK.coords.astype(np.float64) / (math.sqrt(2.0) * lvK.L)
    best = 0.0
    step = max(1, _CHUNK // vals.size)
    for i in range(0, vals.size, step):  # row tiles of at most _CHUNK pairs
        dx = coords[i : i + step, 0][:, None] - coords[:, 0][None, :]
        dy = coords[i : i + step, 1][:, None] - coords[:, 1][None, :]
        dist = np.sqrt(dx * dx + dy * dy)
        dv = np.abs(vals[i : i + step, None] - vals[None, :])
        mask = dist > 0
        best = float((dv[mask] ** p / (dist[mask] ** (p - 1.0) * E)).max(initial=best))

    lvN = hier.level(n)
    valsN = FLOAT.values_at(hier, u, n)
    d_edge = 1.0 / lvN.L
    dv_e = np.abs(valsN[lvN.edge_head] - valsN[lvN.edge_tail])
    if dv_e.size:
        best = max(best, float((dv_e**p).max()) / (d_edge ** (p - 1.0) * E))
    return best


def spectral_gap_constant(hier: Hierarchy, u: AffineFunction, p, n: int, energy) -> float:
    """Empirical constant in the mean-deviation bound, vertex-uniform mean,
    with ``energy`` the energy of u at level n, in either arithmetic."""
    p = float(p)
    vals = FLOAT.values_at(hier, u, n)
    E = float(energy)
    if E == 0.0:
        return 0.0
    mean = math.fsum(vals.tolist()) / vals.size
    lhs = math.fsum((np.abs(vals - mean) ** p).tolist()) / vals.size
    return lhs / (2.0 ** (p - 1.0) * E)


def clarkson_residual(
    hier: Hierarchy,
    f: AffineFunction,
    g: AffineFunction,
    p,
    n: int,
    energies: tuple,
    arith: Arithmetic,
):
    """Signed residual of the p-Clarkson inequality at level n.

    Returns (residual, ok): residual = E(f+g) + E(f-g) - 2 (E(f)^{1/(p-1)}
    + E(g)^{1/(p-1)})^{p-1}; 'ok' checks the sign required by the case
    split (>= 0 for p <= 2, <= 0 for p >= 2; both at p = 2).  ``energies``
    are (E(f), E(g)) at level n in ``arith``; E(f+g) and E(f-g) are
    computed in it.
    """
    pf = float(p)
    level = hier.level(n)
    E = lambda w: float(arith.energy(level, arith.values_at(hier, w, n), p))
    lhs = E(add(hier, f, g)) + E(subtract(hier, f, g))
    q = 1.0 / (pf - 1.0)
    Ef, Eg = map(float, energies)
    rhs = 2.0 * (Ef ** q + Eg ** q) ** (pf - 1.0)
    residual = lhs - rhs
    slack = 1e-9 * max(1.0, abs(lhs), abs(rhs))
    if pf < 2.0:
        ok = residual >= -slack
    elif pf > 2.0:
        ok = residual <= slack
    else:
        ok = abs(residual) <= slack
    return residual, ok


def restrict_to_arm(hier: Hierarchy, u: AffineFunction, direction: int) -> AffineFunction:
    """Zero the function outside the open union of one arm's base cells.

    A base vertex keeps its value only if every cell containing it has a
    first letter pointing along ``direction``; attachment corners shared
    with other cells are zeroed, so two restrictions to different arms have
    disjoint supports separated by whole cells.
    """
    _check_direction(direction)
    base = u.base_level
    lv = hier.level(base)
    if base == 0:
        vals = [Fraction(0)] * 5
        vals[direction] = u.values[direction]
        return AffineFunction(0, vals)
    l = lv.ratios.ratio(1)
    arm = arm_letter(l, direction, np.arange(1, (l + 1) // 2))
    first = np.arange(lv.num_cells) // ancestor_index_stride(lv.ratios, base, 1)
    zero = np.zeros(lv.num_vertices, dtype=bool)
    zero[lv.cell_vertices[~np.isin(first, arm)]] = True
    return AffineFunction(base, [Fraction(0) if z else v for v, z in zip(u.values, zero.tolist())])


def energy_property_checks(
    hier: Hierarchy,
    u: AffineFunction,
    v: AffineFunction,
    p,
    n: int,
    lipschitz_maps: Sequence[Callable] = (abs,),
    arith: Arithmetic = EXACT,
) -> PropertyCheckReport:
    """Structural checks of the energy form at one truncation level.

    The product and contraction inequalities hold level-by-level, so the
    booleans are rigorous; the spectral-gap and Morrey constants are
    empirical values to be tracked across levels, not asserted against any
    particular constant.  The locality comparison is exact and meaningful
    when the caller supplies functions with separated supports.  Energies
    are computed in ``arith``.
    """
    level = hier.level(n)

    def E_of(w: AffineFunction):
        return arith.energy(level, arith.values_at(hier, w, n), p)

    Eu = E_of(u)
    Ev = E_of(v)
    num, q = arith.num, arith.exponent(p)
    lhs = E_of(multiply(hier, u, v))
    rhs = num(2) ** (q - 1) * (num(u.sup_norm()) ** q * Ev + num(v.sup_norm()) ** q * Eu)
    product_ok = arith.at_most(lhs, rhs)
    contraction = [arith.at_most(E_of(compose(u, fn)), Eu) for fn in lipschitz_maps]

    sg = spectral_gap_constant(hier, u, p, n, Eu)
    mc = morrey_constant(hier, u, p, n, Eu)

    s = add(hier, u, v)
    loc_lhs = E_of(s)
    loc_rhs = Eu + Ev
    locality_exact = arith.close(loc_lhs, loc_rhs)
    res, ok = clarkson_residual(hier, u, v, p, n, (Eu, Ev), arith)
    return PropertyCheckReport(
        p=p,
        level=n,
        product_lhs=lhs,
        product_rhs=rhs,
        product_ok=bool(product_ok),
        contraction_ok=tuple(bool(c) for c in contraction),
        spectral_gap_constant=sg,
        morrey_constant=mc,
        locality_lhs=loc_lhs,
        locality_rhs=loc_rhs,
        locality_exact=bool(locality_exact),
        clarkson_residual=float(res),
        clarkson_ok=bool(ok),
    )


def random_affine(hier: Hierarchy, seed: int, max_base_level: int = 3) -> AffineFunction:
    """Seeded test function: dyadic values i.i.d. in [-1, 1) on a random base.

    Values come from SplitMix64 (see prng module); the base level is the
    seed's first draw modulo (max_base_level + 1), capped at the
    hierarchy's deepest level.
    """
    from .prng import SplitMix64

    rng = SplitMix64(seed)
    base = min(rng.next_below(max_base_level + 1), hier.max_level)
    count = hier.level(base).num_vertices
    return AffineFunction(base, [rng.next_unit_fraction() for _ in range(count)])
