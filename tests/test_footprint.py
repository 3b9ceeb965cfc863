"""No command loads OpenSSL: the config stamp, the only digest a command
takes, uses the interpreter's built-in SHA-256, so a fresh ``vicsek-lab``
process never imports ``_hashlib`` or ``ssl`` (about 3.65 MB of RSS)."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from vicsek_lab.cli import COMMANDS

pytestmark = pytest.mark.skipif(
    importlib.util.find_spec("_sha2") is None and importlib.util.find_spec("_sha256") is None,
    reason="this interpreter has no built-in SHA-256",
)

SMALL_CONFIG = {
    "ratios": {"generator": "constant", "l": 3},
    "p": 2,
    "depth": 1,
    "vertex_level": 3,
    "seeds": [1],
    "epsilons": [0.1],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_does_not_load_openssl(command, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    out = tmp_path / "out"
    script = (
        "import sys\n"
        "from vicsek_lab.cli import main\n"
        f"code = main([{command!r}, '--config', {str(cfg)!r}, '--out', {str(out)!r}])\n"
        "print(code, ' '.join(m for m in ('_hashlib', 'ssl') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["0"], proc.stdout + proc.stderr
