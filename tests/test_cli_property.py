"""Property test over config space: every command, on small drawn configs.

Each drawn config runs all nine commands in process through ``cli.main``,
in rational mode at an integer p and in float mode always.  A command exits
0, or exits 2 with one of the documented preconditions below, and never
raises; exit 1 comes only from ``bbm``'s flagged epsilons (and from
``selftest``'s ``bbm_curve`` check, which reads the same brackets).  At an
integer p the two modes write the same files, whose numbers agree within
rel 1e-9.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vicsek_lab.cli import COMMANDS, main  # noqa: E402
from vicsek_lab.config import config_from_dict  # noqa: E402

# what a command may print when it exits 2 on a valid config, per README
DOCUMENTED = (
    "for a non-empty weak-monotonicity window",  # besov, selftest at depth 0
    "besov profiles need vertex_level >= depth + 2",
    "energy-measure verifies its level-1 word measure on level 2",
    "exceeds the float range",  # a beta weight phi(rho_n)^x
    "ratios were given",  # an explicit list too short for the BBM tail
)
MAX_VERTICES = 3000
ODD = st.sampled_from((3, 5, 7))


@st.composite
def configs(draw) -> dict:
    form = draw(st.sampled_from(("constant", "alternating", "periodic", "example_sequence",
                                 "list")))
    if form == "constant":
        ratios = {"generator": "constant", "l": draw(ODD)}
    elif form == "periodic":
        ratios = {"generator": "periodic", "block": draw(st.lists(ODD, min_size=1, max_size=3))}
    elif form == "list":  # long enough for the BBM tail, or not
        head = draw(st.lists(ODD, min_size=1, max_size=3))
        ratios = [head[k % len(head)] for k in range(draw(st.sampled_from((8, 3000))))]
    else:
        ratios = {"generator": form, "a": draw(ODD), "b": draw(ODD)}
    depth = draw(st.integers(0, 3))
    vertex_level = draw(st.integers(depth, depth + 3))
    seq = config_from_dict({"ratios": ratios, "depth": 0, "vertex_level": 6}).ratio_sequence()
    while 4 * seq.num_words(vertex_level) + 1 > MAX_VERTICES:
        vertex_level -= 1
    beta_star = draw(st.sampled_from((0.01, 0.5, 1.0, 2.0)))
    fractions = st.sampled_from((0.5, 0.2, 0.1, 0.02, 0.01))
    return {
        "ratios": ratios,
        "p": draw(st.sampled_from((2, 3, 2.5))),
        "beta_star": beta_star,
        "depth": min(depth, vertex_level),
        "vertex_level": vertex_level,
        "beta_grid": draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3)),
        "epsilons": [beta_star * f for f in draw(st.lists(fractions, min_size=1, max_size=2))],
        "seeds": draw(st.lists(st.integers(1, 1000), min_size=1, max_size=2)),
        "bins": draw(st.integers(1, 8)),
    }


def _run(cfg: dict, mode: str, root: Path) -> dict:
    """Run every command on ``cfg`` in ``mode``; {command: (exit code, stderr)}."""
    path = root / "config.json"
    path.write_text(json.dumps({**cfg, "mode": mode}))
    codes = {}
    for command in COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(root / mode)])
        codes[command] = (code, err.getvalue())
    return codes


def _check_codes(codes: dict) -> None:
    bbm_flagged = codes["bbm"][0] == 1 and "bracket violations" in codes["bbm"][1]
    for command, (code, err) in codes.items():
        if code == 2:
            assert any(msg in err for msg in DOCUMENTED), (command, err)
        elif code == 1 and command == "selftest":
            assert bbm_flagged and "failed: ['bbm_curve']" in err, err
        elif code == 1:
            assert command == "bbm" and bbm_flagged, (command, err)
        else:
            assert code == 0, (command, code, err)


def _numbers(x):
    """``x`` with every number and numeric string as a float, and the config
    stamp and the fields that cancel to 0 in exact arithmetic (and read
    rounding in floats) dropped."""
    if isinstance(x, dict):
        drop = ("config", "coincidence_max_relative_discrepancy", "residual")
        return {k: _numbers(v) for k, v in x.items() if k not in drop}
    if isinstance(x, list):
        return [_numbers(v) for v in x]
    if isinstance(x, str):
        try:
            return float(Fraction(x)) if "/" in x else float(x)
        except ValueError:
            return x
    return float(x) if isinstance(x, int) and not isinstance(x, bool) else x


def _body(path: Path) -> list[str]:
    """The file's lines but the one holding the config stamp."""
    return [line for line in path.read_text().splitlines() if "config" not in line]


def _read(path: Path):
    if path.suffix == ".json":
        return _numbers(json.loads(path.read_text()))
    rows = list(csv.reader(path.read_text().splitlines()[1:]))
    if path.name == "selftest_report.csv":  # details and the exact-only check aside
        return {row[0]: row[1] for row in rows[1:] if row[0] != "coincidence_exact"}
    return _numbers(rows)


def _assert_close(a, b, where: str) -> None:
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for k in a:
            _assert_close(a[k], b[k], f"{where}.{k}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_close(x, y, f"{where}[{i}]")
    elif isinstance(a, float) and isinstance(b, float):
        assert math.isclose(a, b, rel_tol=1e-9) or a == b, (where, a, b)
    else:
        assert a == b, (where, a, b)


@given(configs())
@example({"ratios": {"generator": "constant", "l": 3}, "p": 2, "beta_star": 0.005, "depth": 2,
          "vertex_level": 4, "epsilons": [0.002, 0.001]})
@example({"ratios": {"generator": "constant", "l": 3}, "p": 3, "depth": 2, "vertex_level": 4,
          "beta_grid": [200.0]})
def test_every_command_exits_0_or_a_documented_2(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        float_codes = _run(cfg, "float", root)
        _check_codes(float_codes)
        if float(cfg["p"]).is_integer():
            exact_codes = _run(cfg, "rational", root)
            _check_codes(exact_codes)
            assert {c: code for c, (code, _) in exact_codes.items()} == {
                c: code for c, (code, _) in float_codes.items()}
            files = sorted(f.name for f in (root / "rational").iterdir())
            assert files == sorted(f.name for f in (root / "float").iterdir())
            for name in files:
                if _body(root / "rational" / name) == _body(root / "float" / name):
                    continue
                _assert_close(_read(root / "rational" / name), _read(root / "float" / name), name)
