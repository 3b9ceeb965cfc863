"""Contraction-ratio sequences and the scale products derived from them.

A scale-irregular Vicsek set is determined by a sequence of odd integer
contraction ratios l_1, l_2, ... (l_0 := 1 by convention).  A
:class:`RatioSequence` carries a finite prefix of that sequence together
with the exponent p and the normalization exponent beta_star used by the
Besov-type functionals.  Named generators (``constant``, ``alternating``,
``example_sequence``) can extend the prefix to arbitrary depth, which the
geometric tail summations need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import InvalidArgumentError, InvalidRatioError, LevelError


# The asymptotic regimes of a Hausdorff eta sequence: the values of its
# liminf / limsup flags.
REGIME_VALUES = ("-inf", "real", "+inf")


def _check_ratio(l: int) -> int:
    if not isinstance(l, int) or isinstance(l, bool):
        raise InvalidRatioError(f"ratio must be an integer, got {l!r}")
    if l < 3 or l % 2 == 0:
        raise InvalidRatioError(f"ratio must be odd and >= 3, got {l}")
    return l


def _in_a_run(k: int) -> bool:
    """Whether position k (1-based) of the block sequence a^2 b^1 a^3 b^2 ...
    holds a: block pair j fills positions j^2 .. j^2 + 2j, and a its first
    j + 1, so with j = isqrt(k) the answer is k - j^2 <= j."""
    j = math.isqrt(k)
    return k - j * j <= j


def example_ratio(a: int, b: int, k: int) -> int:
    """k-th ratio (1-based) of the block sequence a^2 b^1 a^3 b^2 a^4 b^3 ..."""
    _check_ratio(a)
    _check_ratio(b)
    if k < 1:
        raise InvalidArgumentError("ratio index must be >= 1")
    return a if _in_a_run(k) else b


def example_prefix(a: int, b: int, n: int) -> tuple[int, ...]:
    """The first n ratios of the block sequence of ``example_ratio``."""
    _check_ratio(a)
    _check_ratio(b)
    return tuple(a if _in_a_run(k) else b for k in range(1, n + 1))


@dataclass(frozen=True)
class RatioSequence:
    """A finite prefix of the contraction ratios plus p and beta_star.

    ``extend`` optionally supplies l_k beyond the stored prefix; without it,
    asking for a deeper ratio raises :class:`LevelError`.
    """

    ratios: tuple[int, ...]
    p: float | int | Fraction = 2
    beta_star: float = 1.0
    extend: Optional[Callable[[int], int]] = field(default=None, repr=False)

    def __post_init__(self):
        for l in self.ratios:
            _check_ratio(l)
        if not self.p > 1:
            raise InvalidArgumentError(f"p must be > 1, got {self.p}")
        if not self.beta_star > 0:
            raise InvalidArgumentError(
                f"beta_star must be > 0, got {self.beta_star}"
            )

    # -- basic access ----------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.ratios)

    def ratio(self, k: int) -> int:
        """l_k with l_0 = 1; generator-backed beyond the stored prefix."""
        if k == 0:
            return 1
        if k < 0:
            raise LevelError(f"ratio index {k} < 0")
        if k <= len(self.ratios):
            return self.ratios[k - 1]
        if self.extend is not None:
            return _check_ratio(self.extend(k))
        raise LevelError(
            f"ratio l_{k} asked for, but only {len(self.ratios)} ratios were given"
        )

    def prefix(self, n: int) -> tuple[int, ...]:
        return tuple(self.ratio(k) for k in range(1, n + 1))

    def alphabet_sizes(self, n: int) -> tuple[int, ...]:
        return tuple(2 * self.ratio(k) - 1 for k in range(1, n + 1))

    # -- exact integer products ------------------------------------------

    def length_product(self, n: int) -> int:
        """L_n = l_1 * ... * l_n (exact)."""
        out = 1
        for k in range(1, n + 1):
            out *= self.ratio(k)
        return out

    def num_words(self, n: int) -> int:
        """Number of level-n words, prod_{k<=n} (2 l_k - 1)."""
        out = 1
        for k in range(1, n + 1):
            out *= 2 * self.ratio(k) - 1
        return out

    def num_vertices(self, n: int) -> int:
        return 4 * self.num_words(n) + 1

    def rho(self, n: int) -> Fraction:
        """Cell diameter rho_n = 2 / L_n."""
        return Fraction(2, self.length_product(n))

    # -- distinct ratios present -----------------------------------------

    def distinct_ratios(self) -> tuple[int, ...]:
        """Sorted distinct ratios of the whole sequence.

        An explicit list is stored whole, and the factories below store at
        least one full period of their generator, so the stored prefix
        already holds every ratio the sequence ever takes.
        """
        return tuple(sorted(set(self.ratios)))

    def with_p(self, p) -> "RatioSequence":
        return RatioSequence(self.ratios, p, self.beta_star, self.extend)


def constant_ratios(l: int, depth: int, p=2, beta_star: float = 1.0) -> RatioSequence:
    """l, l, l, ... extended indefinitely."""
    return periodic_ratios((l,), depth, p, beta_star)


def alternating_ratios(a: int, b: int, depth: int, p=2, beta_star: float = 1.0) -> RatioSequence:
    """a, b, a, b, ... extended indefinitely."""
    return periodic_ratios((a, b), depth, p, beta_star)


def periodic_ratios(block: Sequence[int], depth: int, p=2, beta_star: float = 1.0) -> RatioSequence:
    """Periodic repetition of ``block`` extended indefinitely; at least one
    whole block is stored."""
    block = tuple(_check_ratio(l) for l in block)
    if not block:
        raise InvalidArgumentError("block must be nonempty")
    seq = tuple(block[k % len(block)] for k in range(max(depth, len(block))))
    return RatioSequence(seq, p, beta_star, extend=lambda k: block[(k - 1) % len(block)])


def example_sequence_ratios(a: int, b: int, depth: int, p=2, beta_star: float = 1.0) -> RatioSequence:
    """The block sequence a^2 b a^3 b^2 a^4 b^3 ... as a RatioSequence; the
    first block pair a a b is always stored."""
    seq = example_prefix(a, b, max(depth, 3))
    return RatioSequence(seq, p, beta_star, extend=lambda k: example_ratio(a, b, k))


def p_is_integer(p) -> bool:
    """True when energies with exponent p admit exact rational arithmetic."""
    if isinstance(p, bool):
        return False
    if isinstance(p, int):
        return True
    if isinstance(p, Fraction):
        return p.denominator == 1
    return isinstance(p, float) and p.is_integer()
