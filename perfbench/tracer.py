"""Traced replay of one CLI command, and the per-layer metrics of its spans.

    python3 perfbench/tracer.py SPANS.json COMMAND --config CFG --out DIR ...

runs ``vicsek_lab.cli.main`` on the arguments after SPANS.json, with the
library functions listed in TARGETS wrapped in timing spans, so every call
the CLI handler makes into them is timed with its real arguments. The
library itself is not modified. Spans are kept in memory and written to
SPANS.json when the command ends; the exit code is the command's.

A span nested inside a span of the same name (``ball_pair_sum`` calling
``ball_pair_sum_indexed``) is not counted again. Spans of different names
nest freely, so each layer time is inclusive of the layers it calls.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import statistics
import sys
import time
from pathlib import Path


def _n_and_key(args, result):
    """The radius index, and a key that is equal for repeated pair sums."""
    import numpy as np

    values = args["values"]
    level = args["level"]
    if isinstance(values, tuple):
        digest = f"{values[0]}:{hash(tuple(values[1]))}"
    else:
        digest = hashlib.sha1(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()
    return {"n": args["n"], "key": f"{level.n}:{level.num_vertices}:{float(args['p'])}:"
            f"{args['n']}:{digest}"}


def _bytes_written(args, result):
    return {"bytes": Path(args["path"]).stat().st_size}


def _vertices(args, result):
    return {"level": args["n"], "vertices": result.num_vertices}


# (span name, module, attribute, attributes read from arguments and result)
TARGETS = (
    ("geometry.hierarchy", "vicsek_lab.geometry", "Hierarchy.__init__", None),
    ("geometry.build_level", "vicsek_lab.geometry", "build_level", _vertices),
    ("geometry.transition", "vicsek_lab.geometry", "Hierarchy._transition_maps", None),
    ("energy.extend_exact", "vicsek_lab.energy", "_extend_exact", None),
    ("energy.extend_float", "vicsek_lab.energy", "_extend_float_step", None),
    ("energy.energy_limit", "vicsek_lab.energy", "energy_limit", None),
    ("energy.property_checks", "vicsek_lab.energy", "energy_property_checks", None),
    ("energy.oracle", "vicsek_lab.energy", "resistance_oracle", None),
    ("energy_measure.gamma", "vicsek_lab.energy_measure", "gamma_cells", None),
    ("energy_measure.word", "vicsek_lab.energy_measure", "word_energy_measure", None),
    ("energy_measure.coincidence", "vicsek_lab.energy_measure", "coincidence_check", None),
    ("energy_measure.pushforward", "vicsek_lab.energy_measure", "pushforward_profile", None),
    ("pairsum.index", "vicsek_lab.pairsum", "CellPairIndex.__init__", None),
    ("pairsum.sum", "vicsek_lab.pairsum", "ball_pair_sum", _n_and_key),
    ("pairsum.sum", "vicsek_lab.pairsum", "ball_pair_sum_indexed", _n_and_key),
    ("pairsum.sum", "vicsek_lab.pairsum", "ball_pair_sum_bruteforce", _n_and_key),
    ("besov.phi_profile", "vicsek_lab.besov", "phi_profile", None),
    ("besov.discrete_profiles", "vicsek_lab.besov", "discrete_profiles", None),
    ("besov.bbm_curve", "vicsek_lab.besov", "bbm_curve", None),
    ("besov.weak_monotonicity", "vicsek_lab.besov", "weak_monotonicity_report", None),
    ("measure.scale_table", "vicsek_lab.measure", "scale_table", None),
    ("measure.ball_bounds", "vicsek_lab.measure", "mu_ball_bounds", None),
    ("measure.hausdorff", "vicsek_lab.measure", "hausdorff_report", None),
    ("io.write", "vicsek_lab.io", "write_csv", _bytes_written),
    ("io.write", "vicsek_lab.io", "write_json", _bytes_written),
    ("selftest.run", "vicsek_lab.selftest", "run_selftest", None),
)

PAIRSUM_SCALES = range(5)
SPAN_NAMES = ("cli.import",) + tuple(dict.fromkeys(t[0] for t in TARGETS))

# (metric, unit) in the order BENCHMARK.json lists them. A ``_s`` metric
# named after a span is the time in that span.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("geometry.hierarchy_s", "s"),
    ("geometry.build_level_s", "s"),
    ("geometry.transition_s", "s"),
    ("geometry.vertices", "count"),
    ("energy.extend_exact_s", "s"),
    ("energy.extend_float_s", "s"),
    ("energy.energy_limit_s", "s"),
    ("energy.property_checks_s", "s"),
    ("energy.oracle_ms", "ms"),
    ("energy.oracle_calls", "count"),
    ("energy_measure.gamma_s", "s"),
    ("energy_measure.word_s", "s"),
    ("energy_measure.coincidence_s", "s"),
    ("energy_measure.pushforward_s", "s"),
    ("pairsum.index_s", "s"),
    ("pairsum.sum_s", "s"),
    *((f"pairsum.sum_s.n{k}", "s") for k in PAIRSUM_SCALES),
    ("pairsum.calls", "count"),
    ("pairsum.distinct_calls", "count"),
    ("besov.phi_profile_s", "s"),
    ("besov.discrete_profiles_s", "s"),
    ("besov.bbm_curve_s", "s"),
    ("besov.weak_monotonicity_s", "s"),
    ("measure.scale_table_s", "s"),
    ("measure.ball_bounds_s", "s"),
    ("measure.hausdorff_s", "s"),
    ("io.write_s", "s"),
    ("io.bytes", "bytes"),
    ("selftest.run_s", "s"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_s", "s"),
)


class Recorder:
    """Spans as [name, start, end, parent index, attributes], in memory."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, attrs):
        sig = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if attrs:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[i][4] = attrs(bound.arguments, result)
            return result

        return traced


def install(rec: Recorder) -> list[str]:
    """Wrap every target, under every name the package binds it to."""
    missing = []
    for name, module, attr, attrs in TARGETS:
        mod = importlib.import_module(module)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = getattr(owner, fn_name, None)
        if fn is None:
            missing.append(f"{module}.{attr}")
            continue
        traced = rec.wrap(name, fn, attrs)
        if owner_name:
            setattr(owner, fn_name, traced)
            continue
        for mod_name, m in list(sys.modules.items()):
            if mod_name == "vicsek_lab" or mod_name.startswith("vicsek_lab."):
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)
    return missing


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    i = rec.open("cli.import")
    import vicsek_lab.cli as cli

    rec.close(i)
    missing = install(rec)
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        with open(spans_path, "w") as f:
            json.dump({"spans": rec.spans, "missing": missing}, f)
    return code


def _outermost(spans):
    """Indices of spans with no ancestor of the same name."""
    for i, (name, _, _, parent, _) in enumerate(spans):
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            yield i


def layer_metrics(docs: list[dict], traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one workload from its commands' span documents."""
    times: dict[str, float] = {}
    by_scale = {k: 0.0 for k in PAIRSUM_SCALES}
    oracle, keys = [], set()
    calls = vertices = written = 0
    top = 0.0
    for doc in docs:
        spans = doc["spans"]
        for i in _outermost(spans):
            name, t0, t1, parent, attrs = spans[i]
            times[name] = times.get(name, 0.0) + (t1 - t0)
            top += (t1 - t0) if parent < 0 else 0.0
            if name == "pairsum.sum":
                calls += 1
                keys.add(attrs["key"])
                if attrs["n"] in by_scale:
                    by_scale[attrs["n"]] += t1 - t0
            elif name == "energy.oracle":
                oracle.append(t1 - t0)
            elif name == "geometry.build_level":
                vertices += attrs["vertices"]
            elif name == "io.write":
                written += attrs["bytes"]
    out = {f"{name}_s": times.get(name, 0.0) for name in SPAN_NAMES}
    out.update({f"pairsum.sum_s.n{k}": v for k, v in by_scale.items()})
    out.update({
        "geometry.vertices": vertices,
        "energy.oracle_ms": 1000.0 * statistics.median(oracle) if oracle else 0.0,
        "energy.oracle_calls": len(oracle),
        "pairsum.calls": calls,
        "pairsum.distinct_calls": len(keys),
        "io.bytes": written,
        "trace.coverage": top / traced_wall if traced_wall else 0.0,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return {metric: out[metric] for metric, _ in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
