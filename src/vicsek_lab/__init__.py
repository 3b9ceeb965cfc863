"""Exact finite approximations of scale-irregular Vicsek sets.

The package materializes the level-n graph and cable-system approximations
of a cross fractal with prescribed odd contraction ratios, and computes the
quantitative objects living on them: the canonical measure and its scale
functions, discrete p-energies and gradients, p-energy measures,
Besov-Lipschitz functionals, p-resistances, and the Bourgain-Brezis-
Mironescu convergence experiment.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DepthBudgetError,
    InvalidArgumentError,
    InvalidRatioError,
    LevelError,
    LookupError_,
    RegionError,
    ScaleMismatchError,
    VicsekError,
)
from .geometry import Hierarchy, LatticePoint, VicsekLevel, build_level
from .ratios import (
    RatioSequence,
    alternating_ratios,
    constant_ratios,
    example_sequence_ratios,
    periodic_ratios,
)
from .words import CENTER, Letter, Word, enumerate_letters

__all__ = [
    "CENTER",
    "ConfigError",
    "ConvergenceError",
    "DepthBudgetError",
    "Hierarchy",
    "InvalidArgumentError",
    "InvalidRatioError",
    "LatticePoint",
    "Letter",
    "LevelError",
    "LookupError_",
    "RatioSequence",
    "RegionError",
    "ScaleMismatchError",
    "VicsekError",
    "VicsekLevel",
    "Word",
    "alternating_ratios",
    "build_level",
    "constant_ratios",
    "enumerate_letters",
    "example_sequence_ratios",
    "periodic_ratios",
]
