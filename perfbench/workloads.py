"""Workload definitions and the child-process runner shared by the benchmark
scripts.

Every command runs as its own ``python -m vicsek_lab.cli`` process, one at a
time, with ``--threads 1`` and BLAS/OpenMP pinned to one thread, so a run
never loads more than one core with library work.
"""

from __future__ import annotations

import os
import random
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
REFERENCE = HERE / "reference"

# The config documented in README.md, exactly as written there.
README_CONFIG = {
    "ratios": {"generator": "constant", "l": 3},
    "p": 2,
    "beta_star": 1.0,
    "depth": 4,
    "vertex_level": 6,
    "beta_grid": [0.8, 1.0, 1.2],
    "epsilons": [0.2, 0.1, 0.05, 0.02, 0.01],
    "seeds": [1, 2, 3, 4],
    "mode": "rational",
    "threads": 1,
}

ALL_COMMANDS = (
    "build",
    "measure",
    "hausdorff",
    "energy",
    "energy-measure",
    "besov",
    "bbm",
    "resistance",
    "selftest",
)


@dataclass(frozen=True)
class Workload:
    config: dict
    commands: tuple[str, ...]


WORKLOADS = {
    "readme": Workload(README_CONFIG, ALL_COMMANDS),
    "deep": Workload(
        {**README_CONFIG, "depth": 7, "vertex_level": 7},
        ("build", "energy", "bbm"),
    ),
    "irregular": Workload(
        {
            **README_CONFIG,
            "ratios": {"generator": "alternating", "a": 3, "b": 5},
            "p": 3,
            "depth": 2,
            "vertex_level": 4,
        },
        ("besov", "energy", "energy-measure", "bbm", "resistance"),
    ),
}

# The workload seed picks the config's four ``seeds`` from this pool and
# nothing else; the reference artifacts cover every seed in it.
SEED_POOL = tuple(range(1, 17))

# BLAS/OpenMP thread variables fixed to 1 in every child process.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def config_for(name: str, seed: int) -> dict:
    seeds = random.Random(seed).sample(SEED_POOL, 4)
    return {**WORKLOADS[name].config, "seeds": seeds}


def child_env() -> dict:
    """The environment of every child: the checkout's ``src`` on the path,
    one BLAS/OpenMP thread, and no ``VICSEK_LAB_THREADS`` default."""
    env = {k: v for k, v in os.environ.items() if k != "VICSEK_LAB_THREADS"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class ChildResult:
    code: int
    wall_s: float
    maxrss_kb: int
    timed_out: bool


def run_child(argv: list[str], timeout: float, log: Path) -> ChildResult:
    """Run one process to completion, or kill it at ``timeout`` seconds.

    A thread blocks in ``wait4`` so the wall time ends when the process does
    (no polling interval) and its own ``ru_maxrss`` is read.
    """
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=child_env(), cwd=ROOT, stdout=out, stderr=subprocess.STDOUT
        )
        box = []
        waiter = threading.Thread(target=lambda: box.append(os.wait4(proc.pid, 0)))
        waiter.start()
        try:
            waiter.join(max(timeout, 0.0))
        finally:
            timed_out = waiter.is_alive()
            if timed_out:
                proc.kill()
            waiter.join()
        wall = time.perf_counter() - start
    _, status, usage = box[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss, timed_out)
