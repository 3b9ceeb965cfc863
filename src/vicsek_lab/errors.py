"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class VicsekError(Exception):
    """Base class for all library errors."""


class InvalidRatioError(VicsekError):
    """A contraction ratio is even or smaller than 3."""


class InvalidArgumentError(VicsekError):
    """An argument is outside its documented domain."""


class DepthBudgetError(VicsekError):
    """A requested level would exceed the configured cell budget."""

    def __init__(self, level: int, required_cells: int, budget: int):
        self.level = level
        self.required_cells = required_cells
        self.budget = budget
        super().__init__(
            f"level {level} needs {required_cells} cells, budget is {budget}"
        )


class ScaleMismatchError(VicsekError):
    """Two lattice points were combined at incompatible scale levels."""


class LevelError(VicsekError):
    """A level argument is outside the valid range for the operation."""


class RegionError(VicsekError):
    """A cell (k, w) has k outside 0..n or w outside the level-k words."""


class LookupError_(VicsekError):
    """An id does not refer to an existing vertex or cell."""


class ConvergenceError(VicsekError):
    """An iterative solver did not reach its tolerance."""

    def __init__(self, message: str, residual: float):
        self.residual = residual
        super().__init__(f"{message} (residual {residual:.3e})")


class ConfigError(VicsekError):
    """An experiment configuration violates an invariant."""
