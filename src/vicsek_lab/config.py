"""Experiment configuration: one JSON document drives every CLI command.

The fields of ``ExperimentConfig`` and ``HausdorffConfig`` are the config
keys: a field's annotation picks the rule that reads its JSON value, and
its default fills an absent key.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Optional

from .errors import ConfigError, InvalidRatioError
from .geometry import DEFAULT_CELL_BUDGET, MAX_CELL_BUDGET, Hierarchy
from .ratios import (
    REGIME_VALUES,
    RatioSequence,
    _check_ratio,
    alternating_ratios,
    constant_ratios,
    example_sequence_ratios,
    periodic_ratios,
)


@dataclass(frozen=True)
class HausdorffConfig:
    a: int = 3
    b: int = 5
    theta: float = 1.0
    prefix_len: int = 10_000
    liminf_eta: Optional[str] = "+inf"
    limsup_eta: Optional[str] = "+inf"

    def __post_init__(self):
        for key in ("a", "b"):
            try:
                _check_ratio(getattr(self, key))
            except InvalidRatioError as e:
                raise ConfigError(f"hausdorff.{key}: {e}") from e
        if self.theta < 0:
            raise ConfigError(f"hausdorff.theta must be >= 0, got {self.theta}")
        if self.prefix_len < 1:
            raise ConfigError(f"hausdorff.prefix_len must be >= 1, got {self.prefix_len}")
        for key in ("liminf_eta", "limsup_eta"):
            flag = getattr(self, key)
            if flag is not None and flag not in REGIME_VALUES:
                raise ConfigError(f"hausdorff.{key} must be null or one of {REGIME_VALUES}, "
                                  f"got {flag!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    ratios: Any
    p: float | int = 2
    beta_star: float = 1.0
    depth: int = 4  # N: deepest scale index used by energies/profiles
    vertex_level: int = 6  # m: vertex-measure level for ball functionals
    beta_grid: tuple[float, ...] = (0.8, 1.0, 1.2)
    epsilons: tuple[float, ...] = (0.2, 0.1, 0.05, 0.02, 0.01)
    seeds: tuple[int, ...] = (1, 2, 3, 4)
    bins: int = 16
    mode: str = "rational"
    threads: Optional[int] = None  # validated, no effect: the library is single-threaded
    cell_budget: int = DEFAULT_CELL_BUDGET
    hausdorff: HausdorffConfig = field(default_factory=HausdorffConfig)

    def __post_init__(self):
        if not self.p > 1:
            raise ConfigError(f"p must be > 1, got {self.p}")
        if self.beta_star <= 0:
            raise ConfigError(f"beta_star must be > 0, got {self.beta_star}")
        if self.depth < 0:
            raise ConfigError(f"depth must be >= 0, got {self.depth}")
        if self.vertex_level < self.depth:
            raise ConfigError(
                f"vertex_level ({self.vertex_level}) must be >= depth ({self.depth})"
            )
        if self.mode not in ("rational", "float"):
            raise ConfigError(f"mode must be rational or float, got {self.mode!r}")
        if self.threads is not None and self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if not self.seeds:
            raise ConfigError("seeds must hold at least one seed")
        if not self.beta_grid:
            raise ConfigError("beta_grid must hold at least one beta")
        if not self.epsilons:
            raise ConfigError("epsilons must hold at least one epsilon")
        if min(self.beta_grid) < 0:
            raise ConfigError(f"beta_grid values must be >= 0, got {min(self.beta_grid)}")
        for eps in self.epsilons:
            if not 0 < eps < self.beta_star:
                raise ConfigError(f"epsilons must lie in (0, beta_star = {self.beta_star}), "
                                  f"got {eps}")
        if self.bins < 1:
            raise ConfigError(f"bins must be >= 1, got {self.bins}")
        if self.cell_budget > MAX_CELL_BUDGET:
            raise ConfigError(
                f"cell_budget {self.cell_budget} exceeds the limit of {MAX_CELL_BUDGET} cells"
            )
        if self.mode == "rational" and float(self.p) != int(float(self.p)):
            raise ConfigError(
                "rational mode requires an integer p; use mode=float"
            )

    def ratio_sequence(self) -> RatioSequence:
        depth = max(self.vertex_level + 1, self.depth + 2)
        spec = self.ratios
        p = self.p
        bs = self.beta_star
        try:
            if isinstance(spec, dict):
                kind = spec.get("generator")
                if kind == "constant":
                    return constant_ratios(_integer(spec["l"]), depth, p, bs)
                if kind in ("alternating", "example_sequence"):
                    make = alternating_ratios if kind == "alternating" else example_sequence_ratios
                    return make(_integer(spec["a"]), _integer(spec["b"]), depth, p, bs)
                if kind == "periodic":
                    return periodic_ratios([_integer(x) for x in spec["block"]], depth, p, bs)
                raise ConfigError(f"unknown ratio generator {kind!r}")
            seq = tuple(_integer(x) for x in spec)
            if len(seq) < depth:
                raise ConfigError(
                    f"explicit ratio list of length {len(seq)} shorter than the "
                    f"required depth {depth}; use a generator or a longer list"
                )
            return RatioSequence(seq, p, bs)
        except ConfigError:
            raise
        except Exception as e:  # invalid ratio values etc.
            raise ConfigError(f"invalid ratios field: {e}") from e

    def hierarchy(self) -> Hierarchy:
        """The hierarchy the commands share: levels up to the vertex level
        and at least one past the depth."""
        return Hierarchy(self.ratio_sequence(), max(self.vertex_level, self.depth + 1),
                         budget=self.cell_budget)

    def to_canonical_dict(self) -> dict:
        """Every field but ``threads``, which changes no result: what the
        artifact stamp hashes."""
        canon = asdict(self)
        del canon["threads"]
        return canon


def load_config(
    path: str | Path, mode: Optional[str] = None, threads: Optional[int] = None
) -> ExperimentConfig:
    """The config in the JSON file; ``mode`` and ``threads``, when given,
    replace the file's values before the config is validated."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"config file {path} cannot be read: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if isinstance(raw, dict):
        overrides = {"mode": mode, "threads": threads}
        raw.update((k, v) for k, v in overrides.items() if v is not None)
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    cfg = _build(ExperimentConfig, raw, "")
    cfg.ratio_sequence()  # surface invalid ratio specs at parse time
    return cfg


def _build(cls, raw, prefix: str):
    """A ``cls`` from its JSON object: each key read by the rule for its
    field's annotation, each absent key left to its field's default.
    ``prefix`` leads the key names in errors; a value its rule rejects is
    a malformed value of that key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{prefix.rstrip('.') or 'config'} must be a JSON object, "
                          f"got {type(raw).__name__}")
    declared = {f.name: f for f in fields(cls)}
    unknown = set(raw) - set(declared)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(prefix + k for k in unknown)}")
    for name, f in declared.items():
        if name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"config missing required field {prefix + name!r}")
    values = {}
    for k, v in raw.items():
        try:
            values[k] = _PARSE[declared[k].type](v)
        except (ValueError, OverflowError) as e:
            raise ConfigError(f"malformed config value for {prefix + k!r}: {e}") from e
    return cls(**values)


def _json(x, kind, what: str):
    """``x`` when it is a JSON value of ``kind`` (a bool is no number), else an error."""
    if isinstance(x, bool) or not isinstance(x, kind):
        raise ValueError(f"expected {what}, got {x!r}")
    return x


def _finite(x) -> float:
    """A float from a JSON number; infinities and NaN are rejected."""
    v = float(_json(x, (int, float), "a number"))
    if not math.isfinite(v):
        raise ValueError(f"numbers must be finite, got {x!r}")
    return v


def _integer(x) -> int:
    """An int from a JSON number; a fractional part, infinities and NaN are rejected."""
    if isinstance(_json(x, (int, float), "an integer"), float) and not x.is_integer():
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def _number(x):
    """An integral value as an int (rational mode needs an integer p), else a float."""
    return int(x) if _finite(x).is_integer() else float(x)


# How a JSON value becomes a field value, by the field's annotation as written
# (``from __future__ import annotations`` keeps each annotation a string).
_PARSE = {
    "Any": lambda x: x,
    "Optional[str]": lambda x: x if x is None else _json(x, str, "a string"),
    "float | int": _number,
    "float": _finite,
    "int": _integer,
    "Optional[int]": lambda x: x if x is None else _integer(x),
    "str": lambda x: _json(x, str, "a string"),
    "tuple[float, ...]": lambda xs: tuple(_finite(x) for x in _json(xs, list, "a list")),
    "tuple[int, ...]": lambda xs: tuple(_integer(x) for x in _json(xs, list, "a list")),
    "HausdorffConfig": lambda h: _build(HausdorffConfig, h, "hausdorff."),
}
