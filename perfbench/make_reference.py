"""Regenerate the reference artifacts in ``perfbench/reference``.

    python3 perfbench/make_reference.py [workload ...]

The references define what a correct run outputs, so regenerate them only
at a commit whose outputs are known to be right. Each command runs once
with the pool's first four seeds; ``energy``, the only command whose
artifacts depend on the seeds, then runs once per pool seed so that any
seed choice can be checked.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys

from artifacts import check_outputs, expected_outputs, read_outputs
from workloads import REFERENCE, SEED_POOL, WORK, WORKLOADS, run_child

SEEDED_COMMAND = "energy"


def run_command(name: str, command: str, config: dict, tag: str):
    base = WORK / "reference" / name / tag
    shutil.rmtree(base, ignore_errors=True)
    out = base / "out"
    out.mkdir(parents=True)
    cfg = base / "config.json"
    cfg.write_text(json.dumps(config))
    argv = [sys.executable, "-m", "vicsek_lab.cli", command,
            "--config", str(cfg), "--out", str(out), "--threads", "1"]
    res = run_child(argv, 900, base / "log.txt")
    if res.code != 0:
        raise SystemExit(f"{name} {command} exited {res.code}; see {base / 'log.txt'}")
    return out


def _has_float(x) -> bool:
    if isinstance(x, float):
        return True
    if isinstance(x, dict):
        return any(_has_float(v) for v in x.values())
    if isinstance(x, list):
        return any(_has_float(v) for v in x)
    return False


def make(name: str) -> dict:
    wl = WORKLOADS[name]
    seeds = list(SEED_POOL[:4])
    commands = {}
    for command in wl.commands:
        out = run_command(name, command, {**wl.config, "seeds": seeds}, command)
        commands[command] = read_outputs(out)
        for fname, entry in commands[command].items():
            if entry["kind"] == "digest":
                data = json.loads((out / fname).read_text())["data"]
                if _has_float(data):
                    raise SystemExit(f"{fname} holds floats; it cannot be checked by digest")
        print(f"{name} {command}: {sorted(commands[command])}", flush=True)

    per_seed_report, per_seed_checks = {}, {}
    ramp = None
    for s in SEED_POOL:
        out = run_command(name, SEEDED_COMMAND, {**wl.config, "seeds": [s]}, f"seed{s}")
        files = read_outputs(out)
        report = files["energy_report.json"]["data"]
        ramp = ramp or report["ramp"]
        if report["ramp"] != ramp:
            raise SystemExit("the ramp energy report depends on the seeds")
        per_seed_report[str(s)] = report[f"seed{{{s}}}"]
        per_seed_checks[str(s)] = files["property_checks.json"]["data"]
        print(f"{name} seed {s}", flush=True)
    commands[SEEDED_COMMAND]["energy_report.json"] = {
        "kind": "per_seed", "fixed": {"ramp": ramp}, "key": "seed{{{}}}",
        "per_seed": per_seed_report,
    }
    commands[SEEDED_COMMAND]["property_checks.json"] = {
        "kind": "first_seed", "per_seed": per_seed_checks,
    }
    reference = {"workload": name, "seed_pool": list(SEED_POOL),
                 "source": _git_sha(), "commands": commands}
    # The run with the first four seeds must pass the check it defines.
    out = WORK / "reference" / name / SEEDED_COMMAND / "out"
    problems = check_outputs(out, expected_outputs(reference, SEEDED_COMMAND, seeds))
    if problems:
        raise SystemExit(f"{name}: reference is inconsistent: {problems}")
    return reference


def _git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True, cwd=REFERENCE).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(names: list[str]) -> None:
    REFERENCE.mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        reference = make(name)
        with gzip.GzipFile(REFERENCE / f"{name}.json.gz", "wb", mtime=0) as f:
            f.write(json.dumps(reference, sort_keys=True).encode())
        shutil.rmtree(WORK / "reference" / name, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
