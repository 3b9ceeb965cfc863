"""Experiment configuration: one JSON document drives every CLI command."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .errors import ConfigError
from .geometry import MAX_CELL_BUDGET
from .ratios import (
    RatioSequence,
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


@dataclass(frozen=True)
class ExperimentConfig:
    ratios_spec: Any
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
    cell_budget: int = 5_000_000
    hausdorff: HausdorffConfig = field(default_factory=HausdorffConfig)

    def __post_init__(self):
        if not self.p > 1:
            raise ConfigError(f"p must be > 1, got {self.p}")
        if self.beta_star <= 0:
            raise ConfigError(f"beta_star must be > 0, got {self.beta_star}")
        if self.vertex_level < self.depth:
            raise ConfigError(
                f"vertex_level ({self.vertex_level}) must be >= depth ({self.depth})"
            )
        if self.mode not in ("rational", "float"):
            raise ConfigError(f"mode must be rational or float, got {self.mode!r}")
        if self.threads is not None and self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.cell_budget > MAX_CELL_BUDGET:
            raise ConfigError(
                f"cell_budget {self.cell_budget} exceeds the limit of {MAX_CELL_BUDGET} cells"
            )
        if self.mode == "rational" and float(self.p) != int(float(self.p)):
            raise ConfigError(
                "rational mode requires an integer p; use mode=float"
            )

    def ratio_sequence(self, min_depth: Optional[int] = None) -> RatioSequence:
        depth = max(
            self.vertex_level + 1, self.depth + 2, min_depth or 0
        )
        spec = self.ratios_spec
        p = self.p
        bs = self.beta_star
        try:
            if isinstance(spec, dict):
                kind = spec.get("generator")
                if kind == "constant":
                    return constant_ratios(int(spec["l"]), depth, p, bs)
                if kind == "alternating":
                    return alternating_ratios(int(spec["a"]), int(spec["b"]), depth, p, bs)
                if kind == "example_sequence":
                    return example_sequence_ratios(int(spec["a"]), int(spec["b"]), depth, p, bs)
                if kind == "periodic":
                    return periodic_ratios([int(x) for x in spec["block"]], depth, p, bs)
                raise ConfigError(f"unknown ratio generator {kind!r}")
            seq = tuple(int(x) for x in spec)
            if len(seq) < depth:
                raise ConfigError(
                    f"explicit ratio list of length {len(seq)} shorter than the "
                    f"required depth {depth}; use a generator or a longer list"
                )
            return RatioSequence(seq[:depth], p, bs)
        except ConfigError:
            raise
        except Exception as e:  # invalid ratio values etc.
            raise ConfigError(f"invalid ratios field: {e}") from e

    def to_canonical_dict(self) -> dict:
        return {
            "ratios": self.ratios_spec,
            "p": self.p,
            "beta_star": self.beta_star,
            "depth": self.depth,
            "vertex_level": self.vertex_level,
            "beta_grid": list(self.beta_grid),
            "epsilons": list(self.epsilons),
            "seeds": list(self.seeds),
            "bins": self.bins,
            "mode": self.mode,
            "cell_budget": self.cell_budget,
            "hausdorff": {
                "a": self.hausdorff.a,
                "b": self.hausdorff.b,
                "theta": self.hausdorff.theta,
                "prefix_len": self.hausdorff.prefix_len,
                "liminf_eta": self.hausdorff.liminf_eta,
                "limsup_eta": self.hausdorff.limsup_eta,
            },
        }


def load_config(path: str | Path, mode: Optional[str] = None) -> ExperimentConfig:
    """The config in the JSON file; ``mode``, when given, replaces the file's
    mode before the config is validated."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if mode is not None and isinstance(raw, dict):
        raw["mode"] = mode
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if "ratios" not in raw:
        raise ConfigError("config missing required field 'ratios'")
    known = {
        "ratios", "p", "beta_star", "depth", "vertex_level", "beta_grid",
        "epsilons", "seeds", "bins", "mode", "threads", "cell_budget",
        "hausdorff",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    h = raw.get("hausdorff", {})
    try:
        hcfg = HausdorffConfig(
            a=int(h.get("a", 3)),
            b=int(h.get("b", 5)),
            theta=float(h.get("theta", 1.0)),
            prefix_len=int(h.get("prefix_len", 10_000)),
            liminf_eta=h.get("liminf_eta", "+inf"),
            limsup_eta=h.get("limsup_eta", "+inf"),
        )
        p_raw = raw.get("p", 2)
        p = int(p_raw) if float(p_raw) == int(float(p_raw)) else float(p_raw)
        cfg = ExperimentConfig(
            ratios_spec=raw["ratios"],
            p=p,
            beta_star=float(raw.get("beta_star", 1.0)),
            depth=int(raw.get("depth", 4)),
            vertex_level=int(raw.get("vertex_level", 6)),
            beta_grid=tuple(float(x) for x in raw.get("beta_grid", (0.8, 1.0, 1.2))),
            epsilons=tuple(float(x) for x in raw.get("epsilons", (0.2, 0.1, 0.05, 0.02, 0.01))),
            seeds=tuple(int(x) for x in raw.get("seeds", (1, 2, 3, 4))),
            bins=int(raw.get("bins", 16)),
            mode=str(raw.get("mode", "rational")),
            threads=int(raw["threads"]) if "threads" in raw else None,
            cell_budget=int(raw.get("cell_budget", 5_000_000)),
            hausdorff=hcfg,
        )
        cfg.ratio_sequence()  # surface invalid ratio specs at parse time
        return cfg
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"malformed config value: {e}") from e
