"""Benchmark of the vicsek-lab batch CLI.

    python3 perfbench/run.py --workload readme --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The workload's commands run one after
another, each as its own ``python -m vicsek_lab.cli`` process, the way a
researcher runs them; every artifact is checked against the references in
``perfbench/reference``. See ``perfbench/README.md`` for the workloads and
metrics.

``--trace 0`` makes as many whole passes over the commands as fit in
``--seconds`` (judged by the first pass; at least one), times set-up once
before each command of the first pass, and reports the end-to-end metrics
as medians. ``--trace 1``
makes one untraced pass and one traced pass (``tracer.py``) and reports the
per-layer metrics. The last line of standard output is the result as JSON;
the lines before it, and ``perfbench/_work/results/``, hold the per-command
table, the environment and the ROADMAP baseline comparison.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from artifacts import check_outputs, expected_outputs, load_reference
from tracer import PER_LAYER, layer_metrics
from workloads import (
    HERE, REFERENCE, ROOT, SRC, THREAD_VARS, WORK, WORKLOADS, config_for, run_child,
)

# Every run ends within 180 s; commands still pending at this point fail.
DEADLINE_S = 170.0

# The set-up a later change could move work into: a fresh process imports
# the package, loads the config and builds the Hierarchy the CLI builds.
SETUP_CODE = """
import sys
from vicsek_lab.config import load_config
from vicsek_lab.geometry import Hierarchy
cfg = load_config(sys.argv[1])
Hierarchy(cfg.ratio_sequence(), max(cfg.vertex_level, cfg.depth + 1), budget=cfg.cell_budget)
"""

# ROADMAP baseline figures, measured there by hand on this 2-CPU machine.
BASELINE = {
    "readme": {"besov_s": 8.05, "selftest_s": 2.5},
    "deep": {"geometry.build_level_s.level7": 0.83},
}


@dataclass
class Command:
    name: str
    wall_s: float
    maxrss_kb: int
    problems: list[str]


@dataclass
class Pass:
    commands: list[Command] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)


def run_pass(workload: str, cfg: Path, seeds: list[int], reference: dict,
             deadline: float, tag: str, traced: bool, setups: list[float] | None = None) -> Pass:
    """One pass over the workload's commands.

    Given a ``setups`` list, the pass also times one set-up before each
    command: the machine's speed drifts over seconds, so samples spread
    over the pass share less of one drift than samples taken back to back.
    """
    result = Pass()
    for name in WORKLOADS[workload].commands:
        if setups is not None:
            setups.append(time_setup(cfg, deadline, len(setups)))
        base = WORK / workload / tag / name
        out = base / "out"
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            result.commands.append(Command(name, 0.0, 0, ["not started before the deadline"]))
            continue
        cli = [name, "--config", str(cfg), "--out", str(out), "--threads", "1"]
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(base / "spans.json"), *cli]
        else:
            argv = [sys.executable, "-m", "vicsek_lab.cli", *cli]
        res = run_child(argv, remaining, base / "log.txt")
        if res.timed_out:
            problems = ["timed out"]
        elif res.code != 0:
            tail = (base / "log.txt").read_text(errors="replace").strip().splitlines()[-1:]
            problems = [f"exit {res.code}: {' '.join(tail)}"]
        else:
            problems = check_outputs(out, expected_outputs(reference, name, seeds))
        if traced and not problems:
            result.spans.append(json.loads((base / "spans.json").read_text()))
        shutil.rmtree(out, ignore_errors=True)
        result.commands.append(Command(name, res.wall_s, res.maxrss_kb, problems))
    return result


def time_setup(cfg: Path, deadline: float, i: int) -> float:
    log = cfg.parent / f"setup{i}.log"
    res = run_child([sys.executable, "-c", SETUP_CODE, str(cfg)],
                    deadline - time.perf_counter(), log)
    if res.code != 0 or res.timed_out:
        raise SystemExit(f"error: set-up failed; see {log}")
    return res.wall_s


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # a checkout without git metadata; src_sha256 identifies the code
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "vicsek_lab_threads": "--threads 1, VICSEK_LAB_THREADS unset",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
    }


def command_walls(passes: list[Pass]) -> dict:
    """Median wall time of each command over the passes, as ``<command>_s``."""
    walls: dict[str, list[float]] = {}
    for c in (c for p in passes for c in p.commands):
        walls.setdefault(c.name.replace("-", "_") + "_s", []).append(c.wall_s)
    return {name: statistics.median(w) for name, w in walls.items()}


def end_to_end(passes: list[Pass], setups: list[float]) -> dict:
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(c.maxrss_kb for p in passes for c in p.commands) / 1024,
        **command_walls(passes),
    }


def baseline_rows(workload: str, values: dict) -> list[str]:
    rows = []
    for name, base in BASELINE.get(workload, {}).items():
        if name in values:
            now = values[name]
            rows.append(f"baseline {name}: {now:.3f} s here, ROADMAP {base} s "
                        f"({100 * (now - base) / base:+.1f}%)")
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    if not (SRC / "vicsek_lab" / "cli.py").is_file():
        print(f"error: no vicsek_lab package under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    reference = load_reference(args.workload, REFERENCE)

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = config_for(args.workload, args.seed)
    cfg = work / "config.json"
    cfg.write_text(json.dumps(config))
    seeds = config["seeds"]
    env = environment()

    run = functools.partial(run_pass, args.workload, cfg, seeds, reference, deadline)
    if args.trace:
        passes = [run("untraced", False), run("traced", True)]
        values = layer_metrics(passes[1].spans, passes[1].wall_s, passes[0].wall_s)
        values.update(command_walls(passes[:1]))
        level7 = [end - begin for d in passes[1].spans
                  for name, begin, end, parent, attrs in d["spans"]
                  if name == "geometry.build_level" and parent < 0 and attrs["level"] == 7]
        if level7:
            values["geometry.build_level_s.level7"] = statistics.median(level7)
        missing = sorted({m for d in passes[1].spans for m in d["missing"]})
        if missing:
            print(f"warning: trace targets not found: {missing}")
    else:
        setups: list[float] = []
        passes = [run("pass0", False, setups)]
        wanted = max(1, int(args.seconds // max(passes[0].wall_s, 1e-3)))
        while (len(passes) < wanted and not any(c.problems for c in passes[-1].commands)
               and time.perf_counter() + 1.2 * passes[-1].wall_s < deadline):
            passes.append(run(f"pass{len(passes)}", False))
        values = end_to_end(passes, setups)

    undefined = [m["name"] for m in declared if m["name"] not in values]
    if undefined:
        print(f"error: BENCHMARK.json metrics not measured here: {undefined}", file=sys.stderr)
        return 2
    commands = [c for p in passes for c in p.commands]
    failed = [c for c in commands if c.problems]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    lines = [
        f"workload {args.workload}  seed {args.seed}  config seeds {seeds}  "
        f"passes {len(passes)}  trace {args.trace}",
        "environment " + json.dumps(env),
        f"{'command':16}{'wall_s':>10}{'max_rss_mb':>12}  result",
    ]
    for i, p in enumerate(passes):
        for c in p.commands:
            state = "; ".join(c.problems)[:300] if c.problems else "ok"
            lines.append(f"{c.name:16}{c.wall_s:10.3f}{c.maxrss_kb / 1024:12.1f}  "
                         f"{state}  (pass {i})")
    units = {name: unit for name, unit in PER_LAYER}
    units.update({m["name"]: m["unit"] for m in declared})
    lines += [f"{name:32}{value:>16.6g} {units.get(name, 's')}"
              for name, value in sorted(values.items())]
    lines.append(f"error_rate {len(failed)}/{len(commands)} = {len(failed) / len(commands):g}")
    lines += baseline_rows(args.workload, values)
    print("\n".join(lines))

    result = {"correct": not failed, "attempted": len(commands), "failed": len(failed),
              "metrics": metrics}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "config": config, "report": lines, "result": result},
                   indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
