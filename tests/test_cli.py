from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from vicsek_lab import besov, cli, energy, pairsum, selftest
from vicsek_lab.cli import COMMANDS, main
from vicsek_lab.config import config_from_dict, load_config
from vicsek_lab.energy import (
    EXACT,
    FLOAT,
    diagonal_ramp,
    energy_property_checks,
    random_affine,
    restrict_to_arm,
)
from vicsek_lab.energy_measure import coincidence_check
from vicsek_lab.errors import ConfigError
from vicsek_lab.geometry import MAX_CELL_BUDGET, Hierarchy
from vicsek_lab.io import canonical_json, config_hash, write_csv, write_json

BASE_CONFIG = {
    "ratios": {"generator": "constant", "l": 3},
    "p": 2,
    "beta_star": 1.0,
    "depth": 2,
    "vertex_level": 4,
    "seeds": [1, 2],
    "epsilons": [0.1, 0.05],
    "mode": "rational",
    "threads": 1,
}


def write_config(tmp_path: Path, overrides=None) -> Path:
    cfg = dict(BASE_CONFIG)
    if overrides:
        cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# The package modules each command loads besides cli, config, errors,
# geometry, io, ratios and words.  Without a bytecode cache every process
# compiles each module it imports, so a stray import shows in every run.
FOOTPRINT = {
    "build": set(),
    "measure": {"measure"},
    "hausdorff": {"measure"},
    "energy": {"energy", "prng"},
    "energy-measure": {"energy", "energy_measure"},
    "resistance": {"energy"},
    "besov": {"besov", "energy", "measure", "pairsum"},
    "bbm": {"besov", "energy", "measure"},
    "selftest": {"besov", "energy", "energy_measure", "measure", "pairsum", "prng", "selftest"},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_what_it_runs(tmp_path, command):
    """A fresh process of each command imports exactly the package modules
    it runs."""
    cfg = write_config(tmp_path, {"depth": 1, "vertex_level": 3})
    out = tmp_path / "art"
    script = (
        "import sys\n"
        "from vicsek_lab.cli import main\n"
        f"assert main([{command!r}, '--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    loaded = {
        name.removeprefix("vicsek_lab.")
        for name in proc.stdout.splitlines()[-1].split()
        if name.startswith("vicsek_lab.")
    }
    base = {"cli", "config", "errors", "geometry", "io", "ratios", "words"}
    assert loaded == base | FOOTPRINT[command]


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="ratios"):
        config_from_dict({})
    with pytest.raises(ConfigError, match="vertex_level"):
        config_from_dict({"ratios": [3, 3, 3], "depth": 5, "vertex_level": 3})
    with pytest.raises(ConfigError, match="unknown config fields"):
        config_from_dict({"ratios": [3], "bogus": 1})
    with pytest.raises(ConfigError, match="p must be > 1"):
        config_from_dict({"ratios": {"generator": "constant", "l": 3}, "p": 1})
    with pytest.raises(ConfigError, match="rational mode"):
        config_from_dict(
            {"ratios": {"generator": "constant", "l": 3}, "p": 2.5, "mode": "rational"}
        )
    with pytest.raises(ConfigError, match="invalid ratios"):
        config_from_dict({"ratios": {"generator": "constant", "l": 4}})
    with pytest.raises(ConfigError, match="hausdorff"):
        config_from_dict({"ratios": [3, 3, 3, 3, 3, 3, 3, 3], "hausdorff": [1]})
    with pytest.raises(ConfigError, match="unknown config fields.*bogus"):
        config_from_dict({"ratios": {"generator": "constant", "l": 3},
                          "hausdorff": {"a": 3, "bogus": 1}})
    with pytest.raises(ConfigError, match="seeds"):
        config_from_dict({"ratios": {"generator": "constant", "l": 3}, "seeds": []})
    with pytest.raises(ConfigError, match="depth must be >= 0"):
        config_from_dict({"ratios": {"generator": "constant", "l": 3}, "depth": -1})
    # non-finite numbers, as Python's json reads Infinity and NaN
    for key, value in (("p", math.inf), ("p", math.nan), ("beta_star", math.inf),
                       ("beta_grid", [1.0, math.inf]), ("epsilons", [math.nan])):
        with pytest.raises(ConfigError, match="must be finite"):
            config_from_dict({"ratios": {"generator": "constant", "l": 3}, key: value})
    with pytest.raises(ConfigError, match="must be finite"):
        config_from_dict({"ratios": {"generator": "constant", "l": 3},
                          "hausdorff": {"theta": -math.inf}})
    for key in ("depth", "bins"):
        with pytest.raises(ConfigError, match="malformed config value"):
            config_from_dict({"ratios": {"generator": "constant", "l": 3}, key: math.inf})
    with pytest.raises(ConfigError, match="bins must be >= 1"):
        config_from_dict({"ratios": {"generator": "constant", "l": 3}, "bins": 0})
    for key in ("beta_grid", "epsilons"):
        with pytest.raises(ConfigError, match=f"{key} must hold at least one"):
            config_from_dict({"ratios": {"generator": "constant", "l": 3}, key: []})
    # integer keys take integral numbers only: no bool, no fractional part
    for key, value in (("depth", 2.5), ("depth", True), ("bins", 7.9), ("seeds", [1.5, 2]),
                       ("vertex_level", 6.5), ("threads", 1.5), ("cell_budget", False)):
        with pytest.raises(ConfigError, match="expected an integer"):
            config_from_dict({"ratios": {"generator": "constant", "l": 3}, key: value})
    with pytest.raises(ConfigError, match="expected an integer"):
        config_from_dict({"ratios": {"generator": "constant", "l": 3},
                          "hausdorff": {"prefix_len": 10.5}})
    for ratios in ({"generator": "constant", "l": 3.9}, {"generator": "constant", "l": True},
                   {"generator": "constant", "l": "3"},
                   {"generator": "alternating", "a": 3, "b": 5.5},
                   {"generator": "example_sequence", "a": 3.5, "b": 5},
                   {"generator": "periodic", "block": [3, 5.2]}, [3.5] * 8):
        with pytest.raises(ConfigError, match="invalid ratios field: expected an integer"):
            config_from_dict({"ratios": ratios})
    # number keys take JSON numbers and list keys JSON lists: no string, no bool
    for key, value in (("seeds", "12"), ("beta_grid", "12"), ("depth", "3"), ("p", "2"),
                       ("bins", "7"), ("beta_star", True), ("epsilons", [0.1, False]),
                       ("threads", "2"), ("mode", 5)):
        with pytest.raises(ConfigError, match=f"malformed config value for '{key}'"):
            config_from_dict({"ratios": {"generator": "constant", "l": 3}, key: value})
    for key, value in (("theta", True), ("liminf_eta", 5)):
        with pytest.raises(ConfigError, match=f"malformed config value for 'hausdorff.{key}'"):
            config_from_dict({"ratios": {"generator": "constant", "l": 3},
                              "hausdorff": {key: value}})
    # ranges are checked at parse time, so every command rejects the file
    for key, value, match in (("beta_grid", [-0.5, 1.0], "beta_grid values must be >= 0"),
                              ("epsilons", [1.5], r"epsilons must lie in \(0, beta_star"),
                              ("epsilons", [1.0], r"epsilons must lie in \(0, beta_star"),
                              ("epsilons", [0.1, 0.0], r"epsilons must lie in \(0, beta_star")):
        with pytest.raises(ConfigError, match=match):
            config_from_dict({"ratios": {"generator": "constant", "l": 3}, key: value})
    for key, value, match in (("a", 4, "hausdorff.a: ratio must be odd and >= 3"),
                              ("b", 1, "hausdorff.b: ratio must be odd and >= 3"),
                              ("theta", -1, "hausdorff.theta must be >= 0"),
                              ("prefix_len", 0, "hausdorff.prefix_len must be >= 1"),
                              ("liminf_eta", "bogus", "hausdorff.liminf_eta must be null or one"),
                              ("limsup_eta", "inf", "hausdorff.limsup_eta must be null or one")):
        with pytest.raises(ConfigError, match=match):
            config_from_dict({"ratios": {"generator": "constant", "l": 3},
                              "hausdorff": {key: value}})
    # null leaves an optional key unset
    cfg = config_from_dict({"ratios": {"generator": "constant", "l": 3}, "threads": None,
                            "hausdorff": {"limsup_eta": None}})
    assert cfg.threads is None and cfg.hausdorff.limsup_eta is None
    # integral floats still read as integers
    cfg = config_from_dict({"ratios": {"generator": "constant", "l": 3.0}, "depth": 2.0,
                            "seeds": [1.0, 2], "hausdorff": {"a": 5.0}})
    assert (cfg.depth, cfg.seeds, cfg.hausdorff.a) == (2, (1, 2), 5)
    assert type(cfg.depth) is int and cfg.ratio_sequence().ratio(1) == 3


# A config that sets every field, hausdorff included, to a value other
# than its default; the second one gives integers where floats are read.
FULL_CONFIG = {
    "ratios": {"generator": "alternating", "a": 3, "b": 5},
    "p": 2.5,
    "beta_star": 1.5,
    "depth": 2,
    "vertex_level": 5,
    "beta_grid": [0.5, 1.5],
    "epsilons": [0.3, 0.03],
    "seeds": [7, 11],
    "bins": 8,
    "mode": "float",
    "threads": 2,
    "cell_budget": 123456,
    "hausdorff": {"a": 5, "b": 7, "theta": 0.5, "prefix_len": 300,
                  "liminf_eta": "real", "limsup_eta": None},
}
INT_VALUED_CONFIG = {
    **FULL_CONFIG,
    "ratios": [3, 5, 3, 5, 3, 5, 3, 5],
    "p": 3,
    "beta_grid": [1, 2],
    "epsilons": [1],
    "hausdorff": {**FULL_CONFIG["hausdorff"], "theta": 2},
}


@pytest.mark.parametrize("raw, canon, stamp", [
    (FULL_CONFIG,
     '{"beta_grid":[0.5,1.5],"beta_star":1.5,"bins":8,"cell_budget":123456,"depth":2,'
     '"epsilons":[0.3,0.03],"hausdorff":{"a":5,"b":7,"liminf_eta":"real","limsup_eta":null,'
     '"prefix_len":300,"theta":0.5},"mode":"float","p":2.5,'
     '"ratios":{"a":3,"b":5,"generator":"alternating"},"seeds":[7,11],"vertex_level":5}',
     "754bc8b58ffe4ffd"),
    (INT_VALUED_CONFIG,
     '{"beta_grid":[1.0,2.0],"beta_star":1.5,"bins":8,"cell_budget":123456,"depth":2,'
     '"epsilons":[1.0],"hausdorff":{"a":5,"b":7,"liminf_eta":"real","limsup_eta":null,'
     '"prefix_len":300,"theta":2.0},"mode":"float","p":3,'
     '"ratios":[3,5,3,5,3,5,3,5],"seeds":[7,11],"vertex_level":5}',
     "63e739219cb389d2"),
])
def test_canonical_dict_of_a_config_setting_every_field(raw, canon, stamp):
    """The canonical dict holds every field but threads, each value as
    parsed; canonical JSON and stamp are pinned to their values before the
    dataclasses took over parsing."""
    got = config_from_dict(raw).to_canonical_dict()
    assert set(got) == set(raw) - {"threads"}
    assert canonical_json(got) == canon
    assert config_hash(got) == stamp


def test_explicit_ratio_list_too_short():
    with pytest.raises(ConfigError, match="shorter than"):
        config_from_dict({"ratios": [3, 5], "depth": 4, "vertex_level": 6}).ratio_sequence()


def test_unknown_ratio_generator_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {"ratios": {"generator": "fibonacci", "a": 3}})
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "art")]) == 2
    assert "unknown ratio generator 'fibonacci'" in capsys.readouterr().err


def _bbm_rows(out: Path) -> list[str]:
    return (out / "bbm_curve.csv").read_text().splitlines()[1:]


@pytest.mark.parametrize("ratios, depth, vertex_level, commands", [
    ({"generator": "periodic", "block": [3, 3, 3, 9]}, 1, 2, ("bbm", "selftest", "measure")),
    # selftest needs depth >= 1
    ({"generator": "example_sequence", "a": 3, "b": 9}, 0, 1, ("bbm", "measure")),
])
def test_bbm_bracket_takes_the_whole_alphabet(tmp_path, ratios, depth, vertex_level, commands):
    """The max(vertex_level + 1, depth + 2) ratios the config asks for end
    before the first 9: the bracket, the selftest and the derived constants
    still see it."""
    cfg = write_config(tmp_path, {"ratios": ratios, "depth": depth,
                                  "vertex_level": vertex_level})
    out = tmp_path / "art"
    for cmd in commands:
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0, cmd
    assert all(line.endswith(",true") for line in _bbm_rows(out)[1:])
    consts = json.loads((out / "derived_constants.json").read_text())["data"]
    assert set(consts["t_l"]) == set(consts["alpha"]) == {"3", "9"}


def test_explicit_ratio_list_is_used_whole(tmp_path):
    """bbm's plateau tail reads about 1,400 ratios past N at epsilon = 0.01:
    a long enough list of threes gives the rows of constant(3)."""
    rows = []
    for i, ratios in enumerate(([3] * 1500, {"generator": "constant", "l": 3})):
        cfg = write_config(tmp_path, {"ratios": ratios, "depth": 2, "vertex_level": 3,
                                      "epsilons": [0.2, 0.01]})
        out = tmp_path / f"art{i}"
        for cmd in ("bbm", "selftest"):
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0, cmd
        rows.append(_bbm_rows(out))
    assert rows[0] == rows[1]


def test_besov_needs_the_vertex_level_margin(tmp_path, capsys):
    cfg = write_config(tmp_path, {"depth": 2, "vertex_level": 3})
    assert main(["besov", "--config", str(cfg), "--out", str(tmp_path / "art")]) == 2
    err = capsys.readouterr().err
    assert "vertex_level=3" in err and "depth=2" in err


@pytest.mark.parametrize("command, vertex_level", [("besov", 2), ("besov", 3), ("selftest", 1)])
def test_depth_0_is_rejected_up_front(tmp_path, capsys, command, vertex_level):
    """besov and selftest read the weak-monotonicity window
    (max(1, N - 2), N), so depth 0 exits 2 naming the key and its minimum,
    before any artifact is written."""
    cfg = write_config(tmp_path, {"depth": 0, "vertex_level": vertex_level})
    out = tmp_path / "art"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{command} needs depth >= 1" in err and "got depth=0" in err
    assert not any(out.iterdir())


def test_energy_measure_needs_level_2(tmp_path, capsys):
    """The level-1 word measure is verified on level 2: at depth 0,
    energy-measure needs vertex_level >= 2."""
    out = tmp_path / "art"
    cfg = write_config(tmp_path, {"depth": 0, "vertex_level": 1})
    assert main(["energy-measure", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "vertex_level >= 2" in err and "vertex_level=1" in err
    assert not any(out.iterdir())
    cfg = write_config(tmp_path, {"depth": 0, "vertex_level": 2})
    assert main(["energy-measure", "--config", str(cfg), "--out", str(out)]) == 0


def test_bbm_exits_1_naming_the_flagged_epsilons(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(besov, "_BRACKET_TOL", -1.0)  # no value lies in its bracket
    cfg = write_config(tmp_path)
    out = tmp_path / "art"
    assert main(["bbm", "--config", str(cfg), "--out", str(out)]) == 1
    assert "bracket violations at epsilon = [0.1, 0.05]" in capsys.readouterr().err
    assert all(line.endswith(",false") for line in _bbm_rows(out)[1:])


def test_seeded_function_on_a_shallow_hierarchy(tmp_path):
    """Seed 7 draws base level 3; the hierarchy stops at level 2."""
    cfg = write_config(tmp_path, {"depth": 1, "vertex_level": 2, "seeds": [7]})
    for cmd in ("energy", "selftest"):
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "art")]) == 0, cmd


def test_build_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "art"
    assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "geometry_level2.json").read_text())
    data = doc["data"]
    assert data["num_cells"] == 25
    assert len(data["vertices"]) == 101
    assert len(data["edges"]) == 100
    tails = {e[0] for e in data["edges"]}
    assert data["origin"] in tails


def test_budget_exceeded_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {"depth": 9, "vertex_level": 9, "cell_budget": 1000})
    out = tmp_path / "art"
    assert main(["build", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "1953125" in err  # required cell count is named in the diagnostic


def test_cell_budget_over_the_id_limit_exit_code(tmp_path, capsys):
    """Vertex ids are int32, so a cell_budget past the cap is a config
    error that names the limit; the cap itself is accepted."""
    assert MAX_CELL_BUDGET == 400_000_000
    out = tmp_path / "art"
    cfg = write_config(tmp_path, {"cell_budget": MAX_CELL_BUDGET + 1})
    assert main(["build", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cell_budget" in err and "400000000" in err
    cfg = write_config(tmp_path, {"cell_budget": MAX_CELL_BUDGET})
    assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0


def test_missing_config_exit_code(tmp_path, capsys):
    assert main(["build", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_selftest_small_config(tmp_path):
    cfg = write_config(tmp_path, {"depth": 2, "vertex_level": 4})
    out = tmp_path / "art"
    assert main(["selftest", "--config", str(cfg), "--out", str(out)]) == 0
    report = (out / "selftest_report.csv").read_text().splitlines()
    assert report[0].startswith("# config=")
    assert report[1] == "check,ok,detail"
    assert all(",true" in line or line.startswith(("#", "check")) for line in report)


def test_selftest_threads_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {"depth": 2, "vertex_level": 4})
    outs = []
    for t in (1, 3):
        out = tmp_path / f"art{t}"
        assert main(
            ["selftest", "--config", str(cfg), "--out", str(out), "--threads", str(t)]
        ) == 0
        outs.append(out)
    files = sorted(p.name for p in outs[0].iterdir())
    assert files == sorted(p.name for p in outs[1].iterdir())
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_measure_energy_bbm_commands(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "art"
    for cmd in ("measure", "energy", "energy-measure", "besov", "bbm", "resistance"):
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0, cmd
    table = (out / "scale_table.csv").read_text().splitlines()
    assert table[1] == "n,rho,psi,phi"
    assert table[2] == "0,2,1,2"
    curve = (out / "bbm_curve.csv").read_text().splitlines()
    assert curve[1].startswith("epsilon,beta,value")
    assert all(line.endswith(",true") for line in curve[2:])


def test_hausdorff_command(tmp_path):
    cfg = write_config(tmp_path, {"hausdorff": {"a": 3, "b": 5, "theta": 1.0, "prefix_len": 200}})
    out = tmp_path / "art"
    assert main(["hausdorff", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "hausdorff_summary.json").read_text())["data"]
    assert summary["non_self_similar"] is True
    rows = (out / "hausdorff_diagnostics.csv").read_text().splitlines()
    assert len(rows) == 202  # comment + header + 200 rows


def test_config_hash_stamps_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "a1"
    out2 = tmp_path / "a2"
    assert main(["measure", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["measure", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "scale_table.csv").read_bytes() == (out2 / "scale_table.csv").read_bytes()
    cfg2 = write_config(tmp_path, {"depth": 1, "vertex_level": 3})
    assert main(["measure", "--config", str(cfg2), "--out", str(out2)]) == 0
    head1 = (out1 / "scale_table.csv").read_text().splitlines()[0]
    head2 = (out2 / "scale_table.csv").read_text().splitlines()[0]
    assert head1 != head2  # different config, different stamp


def test_config_hash_is_the_sha256_prefix(tmp_path):
    """The stamp is the first 16 hex digits of the sha256 of the canonical
    config JSON: checked against ``hashlib`` and against the stamp recorded
    before the digest moved to the interpreter's built-in SHA-256."""
    cfg = write_config(tmp_path)
    canon = load_config(cfg).to_canonical_dict()
    want = hashlib.sha256(canonical_json(canon).encode()).hexdigest()[:16]
    assert config_hash(canon) == want == "1f78072889d93945"
    assert main(["measure", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "scale_table.csv").read_text().startswith(f"# config={want}\n")


def test_resistance_below_the_oracle_range(tmp_path, capsys):
    """At p = 1.1 the oracle does not run: the formula values are written,
    ``oracle_agrees`` is blank, the command succeeds and a note on stderr
    says why."""
    cfg = write_config(tmp_path, {"p": 1.1, "mode": "float"})
    out = tmp_path / "art"
    assert main(["resistance", "--config", str(cfg), "--out", str(out)]) == 0
    reason = "p = 1.1 is outside [1.4, 8.0]"
    assert capsys.readouterr().err == f"note: resistance oracle skipped: {reason}\n"
    rows = _resistance_rows(out)
    assert len(rows) == 4
    assert all(row["oracle_agrees"] == "" and float(row["resistance"]) > 0 for row in rows)


def test_resistance_checks_every_level_size(tmp_path, capsys):
    """Level 2 of constant 7 has 677 vertices; the oracle runs there and
    agrees with the formula on all four pairs."""
    cfg = write_config(tmp_path, {"ratios": {"generator": "constant", "l": 7}, "vertex_level": 2})
    out = tmp_path / "art"
    assert main(["resistance", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = _resistance_rows(out)
    assert len(rows) == 4
    assert all(row["oracle_agrees"] == "true" for row in rows)


def _resistance_rows(out: Path) -> list[dict]:
    with open(out / "resistance_table.csv") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def test_out_of_memory_exit_code(tmp_path, monkeypatch, capsys):
    """A failed allocation exits 2 with numpy's message, which names the size."""
    msg = "Unable to allocate 8.00 GiB for an array with shape (1073741824,) and data type int64"

    def overrun(config, out, meta):
        raise MemoryError(msg)

    monkeypatch.setitem(cli._HANDLERS, "build", overrun)
    assert main(["build", "--config", str(write_config(tmp_path)), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: out of memory: {msg}\n"


def test_numpy_allocation_refusal_exits_2_naming_the_size(tmp_path, monkeypatch, capsys):
    """numpy refuses a 1 EiB request at once, allocating nothing; ``build``
    exits 2 with numpy's own message and writes no artifact."""

    def huge_level(*args, **kwargs):
        return np.empty(2**57, dtype=np.int64)

    monkeypatch.setattr(cli, "build_level", huge_level)
    out = tmp_path / "art"
    assert main(["build", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory: ")
    assert "1.00 EiB" in captured.err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({}, id="2501-vertices"),  # float I_{m,n}
        pytest.param({"depth": 1, "vertex_level": 3}, id="501-vertices"),  # exact I_{m,n}
    ],
)
def test_besov_computes_each_ball_energy_once(tmp_path, monkeypatch, overrides):
    """One set of I_{m,n} per (u, p, m), in the vertex level's arithmetic,
    serves every beta: each row of ``besov_profiles.csv`` carries the beta*
    row's ball energy."""
    calls = []
    pair_sum = pairsum.ball_pair_sum_indexed

    def counting(*args, **kwargs):
        calls.append(args[3])
        return pair_sum(*args, **kwargs)

    monkeypatch.setattr(pairsum, "ball_pair_sum_indexed", counting)
    path = write_config(tmp_path, overrides)
    out = tmp_path / "art"
    assert main(["besov", "--config", str(path), "--out", str(out)]) == 0
    monkeypatch.undo()
    config = load_config(path)
    N, m = config.depth, config.vertex_level
    assert sorted(calls) == list(range(N + 1))
    with open(out / "besov_profiles.csv") as f:
        table = list(csv.DictReader(line for line in f if not line.startswith("#")))
    at_star = {r["n"]: r["ball_energy"] for r in table if float(r["beta"]) == config.beta_star}
    assert len(table) == len(config.beta_grid) * (N + 1) and len(at_star) == N + 1
    assert all(r["ball_energy"] == at_star[r["n"]] for r in table)

    # the same artifacts from independent per-beta profiles
    hier = Hierarchy(config.ratio_sequence(), m)
    u = diagonal_ramp()
    rows = []
    balls = lambda: besov.ball_energies(hier, u, config.p, m, N, EXACT)
    for beta in config.beta_grid:
        prof = besov.phi_profile(hier, config.p, beta, m, balls(), EXACT)
        base = energy.energy_limit(hier, u, config.p, N, EXACT).energies
        dprof = besov.discrete_profiles(hier, u, config.p, beta, base, EXACT)
        for n in range(N + 1):
            rows.append((beta, n, float(prof.ball_energies[n]),
                         float(prof.phi_proxy[n]), float(dprof.beta_energies[n])))
    wm = besov.weak_monotonicity_report(hier, config.p, m, (max(1, N - 2), N), balls(), EXACT)
    ref = tmp_path / "ref"
    meta = config_hash(config.to_canonical_dict())
    write_csv(ref / "besov_profiles.csv",
              ("beta", "n", "ball_energy", "phi_proxy", "beta_energy"), rows, meta)
    write_json(ref / "weak_monotonicity.json", {
        "phi_values": list(wm.phi_values),
        "sup": wm.sup_value,
        "window_min": wm.window_min,
        "ratio": wm.ratio,
        "degenerate": wm.degenerate,
    }, meta)
    for name in ("besov_profiles.csv", "weak_monotonicity.json"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_energy_budget_exceeded_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {"depth": 9, "vertex_level": 9, "cell_budget": 1000})
    assert main(["energy", "--config", str(cfg), "--out", str(tmp_path / "art")]) == 2
    assert "level 5 needs 3125 cells, budget is 1000" in capsys.readouterr().err


def test_selftest_prints_details_on_pass(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "art"
    assert main(["selftest", "--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    # the detail is the rest of the line, commas included
    rows = [
        line.split(",", 2)
        for line in (out / "selftest_report.csv").read_text().splitlines()[2:]
    ]
    assert any(detail for _, _, detail in rows)
    for name, ok, detail in rows:
        assert ok == "true"
        assert f"PASS  {name}" + (f"  [{detail}]" if detail else "") in printed


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_beta_scaling_identity_catches_a_wrong_log_phi(tmp_path, monkeypatch, mode):
    """The selftest checks the beta-energy profiles against phi(rho_n) from
    the measure's scale values, not against the profiles' own walk
    ``_log_phis``, so a wrong walk fails the check."""
    config = load_config(write_config(tmp_path, {"depth": 2, "vertex_level": 2, "mode": mode}))

    def beta_scaling_ok():
        checks, _ = selftest.run_selftest(config)
        return {name: ok for name, ok, _ in checks}["beta_scaling_identity"]

    assert beta_scaling_ok()
    log_phis = besov._log_phis

    def wrong(ratios):
        return (x * (1.0 + 1e-9) for x in log_phis(ratios))

    monkeypatch.setattr(besov, "_log_phis", wrong)
    monkeypatch.setattr(selftest, "_log_phis", wrong, raising=False)
    assert not beta_scaling_ok()


def _float_table(path: Path) -> list[list[float]]:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [
        [1.0 if x == "true" else 0.0 if x == "false" else float(x) for x in row]
        for row in list(csv.reader(lines))[1:]
    ]


def test_besov_and_bbm_honour_float_mode(tmp_path, monkeypatch):
    # 501 vertices at the vertex level: rational mode sums every ball exactly
    path = write_config(tmp_path, {"depth": 1, "vertex_level": 3})
    calls, seen = [], {}
    pair_sum, sweep = pairsum.ball_pair_sum_indexed, energy.energy_limit

    def spy_pairs(level, values, *args, **kwargs):
        calls.append(("ball", isinstance(values, tuple)))
        return pair_sum(level, values, *args, **kwargs)

    def spy_levels(hier, u, p, max_level, arith):
        calls.append(("levels", arith is EXACT))
        return sweep(hier, u, p, max_level, arith)

    monkeypatch.setattr(pairsum, "ball_pair_sum_indexed", spy_pairs)
    monkeypatch.setattr(energy, "energy_limit", spy_levels)
    for mode in ("rational", "float"):
        for cmd in ("besov", "bbm"):
            calls.clear()
            args = [cmd, "--config", str(path), "--out", str(tmp_path / mode)]
            assert main(args + ["--mode", mode]) == 0
            seen[mode, cmd] = list(calls)
    # one sweep of the E_{p,n} per command, in the mode's arithmetic
    for mode, exact in (("rational", True), ("float", False)):
        for cmd in ("besov", "bbm"):
            assert [c for c in seen[mode, cmd] if c[0] == "levels"] == [("levels", exact)]
    assert {c for c in seen["rational", "besov"] if c[0] == "ball"} == {("ball", True)}
    assert {c for c in seen["float", "besov"] if c[0] == "ball"} == {("ball", False)}

    for name in ("besov_profiles.csv", "bbm_curve.csv"):
        want = _float_table(tmp_path / "rational" / name)
        got = _float_table(tmp_path / "float" / name)
        assert len(got) == len(want) > 0
        for a, b in zip(got, want):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-300), name
    for name in ("weak_monotonicity.json", "bbm_summary.json"):
        want = json.loads((tmp_path / "rational" / name).read_text())["data"]
        got = json.loads((tmp_path / "float" / name).read_text())["data"]
        assert got.keys() == want.keys(), name
        for key, value in want.items():
            if isinstance(value, bool):
                assert got[key] is value, (name, key)
            else:
                assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-300), (name, key)


def test_energy_commands_honour_float_mode(tmp_path, monkeypatch):
    """Under --mode float, energy and energy-measure compute no exact energy:
    neither the form checks nor the coincidence check."""
    path = write_config(tmp_path)
    calls = []
    primitive = energy.Arithmetic.energy

    def spy(arith, level, values, *args, **kwargs):
        calls.append(isinstance(values, tuple))
        return primitive(arith, level, values, *args, **kwargs)

    monkeypatch.setattr(energy.Arithmetic, "energy", spy)
    for mode, exact in (("rational", True), ("float", False)):
        for cmd in ("energy", "energy-measure"):
            calls.clear()
            args = [cmd, "--config", str(path), "--out", str(tmp_path / mode)]
            assert main(args + ["--mode", mode]) == 0
            assert set(calls) == {exact}, (mode, cmd)
    summary = json.loads((tmp_path / "float" / "energy_measure_summary.json").read_text())
    assert isinstance(summary["data"]["coincidence_max_relative_discrepancy"], float)

    # the same through direct calls
    config = load_config(path)
    hier = Hierarchy(config.ratio_sequence(), config.depth + 1)
    u = random_affine(hier, config.seeds[0])
    v1, v3 = restrict_to_arm(hier, u, 1), restrict_to_arm(hier, u, 3)
    for arith, kind in ((EXACT, Fraction), (FLOAT, float)):
        rep = energy_property_checks(hier, v1, v3, 2, config.depth, arith=arith)
        assert isinstance(rep.product_lhs, kind) and isinstance(rep.locality_lhs, kind)
        assert isinstance(coincidence_check(hier, diagonal_ramp(), 2, 2, arith), kind)


def test_selftest_honours_float_mode(tmp_path, monkeypatch):
    """selftest passes its arithmetic to the energy sweeps and the BBM curve."""
    path = write_config(tmp_path)
    seen = []
    sweep, curve = selftest.energy_limit, selftest.bbm_curve

    def spy_sweep(hier, u, p, max_level, arith):
        seen.append(("sweep", arith is EXACT))
        return sweep(hier, u, p, max_level, arith)

    def spy_curve(hier, u, p, epsilons, energies, arith):
        seen.append(("bbm", arith is EXACT))
        return curve(hier, u, p, epsilons, energies, arith)

    monkeypatch.setattr(selftest, "energy_limit", spy_sweep)
    monkeypatch.setattr(selftest, "bbm_curve", spy_curve)
    sweeps = 1 + len(BASE_CONFIG["seeds"])  # the ramp, then each seeded function
    for mode, exact in (("rational", True), ("float", False)):
        seen.clear()
        args = ["selftest", "--config", str(path), "--out", str(tmp_path / mode)]
        assert main(args + ["--mode", mode]) == 0
        assert seen == [("sweep", exact)] * sweeps + [("bbm", exact)], mode


def test_threads_is_validated_and_has_no_effect(tmp_path, capsys):
    """The library is single-threaded: a thread count above 1 is noted on
    stderr once and changes no artifact; a count below 1 is rejected."""
    outs = {}
    for flag, key in ((None, 1), (None, 4), ("1", 1), ("3", 1)):
        cfg = write_config(tmp_path, {"threads": key})
        out = tmp_path / f"art-{flag}-{key}"
        args = ["energy", "--config", str(cfg), "--out", str(out)]
        assert main(args + (["--threads", flag] if flag else [])) == 0
        threads = int(flag) if flag else key
        notes = [line for line in capsys.readouterr().err.splitlines() if "threads" in line]
        assert notes == ([f"note: vicsek-lab runs on one thread; threads={threads} has no effect"]
                         if threads > 1 else [])
        outs[flag, key] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    first = outs[None, 1]
    assert first and all(blobs == first for blobs in outs.values())

    for flag, key in (("0", 1), ("-2", 1), (None, 0)):
        cfg = write_config(tmp_path, {"threads": key})
        args = ["energy", "--config", str(cfg), "--out", str(tmp_path / "bad")]
        assert main(args + (["--threads", flag] if flag else [])) == 2
        assert "threads must be >= 1" in capsys.readouterr().err


def test_mode_override_applies_before_validation(tmp_path, capsys):
    """--mode float rescues a rational-mode file whose p is not an integer."""
    cfg = write_config(tmp_path, {"p": 2.5, "mode": "rational"})
    args = ["energy", "--config", str(cfg), "--out", str(tmp_path / "art")]
    assert main(args) == 2
    assert "rational mode requires an integer p" in capsys.readouterr().err
    assert main(args + ["--mode", "float"]) == 0
    float_cfg = write_config(tmp_path, {"p": 2.5, "mode": "float"})
    assert main(["energy", "--config", str(float_cfg), "--out", str(tmp_path / "want")]) == 0
    for name in ("energy_report.json", "property_checks.json"):
        assert (tmp_path / "art" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
    assert main(args + ["--mode", "rational"]) == 2


def test_selftest_sweeps_only_in_its_arithmetic(tmp_path, monkeypatch):
    """selftest makes one E_{p,n} sweep of the ramp, in the mode's arithmetic,
    shared by the suite, the profiles, the jump kernel and the BBM curve.

    A sweep is a pass of the values over more than one level; every energy
    sweep takes its values from ``Arithmetic.level_values``."""
    path = write_config(tmp_path)
    sweeps = []
    level_values, ramp = energy.Arithmetic.level_values, diagonal_ramp().values

    def spy(arith, hier, u, start, stop):
        if u.values == ramp and start < stop:
            sweeps.append((arith is EXACT, start, stop))
        return level_values(arith, hier, u, start, stop)

    monkeypatch.setattr(energy.Arithmetic, "level_values", spy)
    for mode, exact in (("rational", True), ("float", False)):
        sweeps.clear()
        args = ["selftest", "--config", str(path), "--out", str(tmp_path / mode)]
        assert main(args + ["--mode", mode]) == 0
        assert sweeps == [(exact, 0, BASE_CONFIG["depth"])], mode


def test_selftest_weak_monotonicity_honours_float_mode(tmp_path, monkeypatch):
    """Under --mode float the weak-monotonicity profile sums balls in floats,
    even on a level small enough for exact sums; under rational it is exact
    there."""
    path = write_config(tmp_path, {"depth": 1, "vertex_level": 3})
    exact_calls = []
    pair_sum = pairsum.ball_pair_sum_indexed

    def spy(level, values, p, n, arith):
        exact_calls.append(isinstance(values, tuple))
        return pair_sum(level, values, p, n, arith)

    monkeypatch.setattr(pairsum, "ball_pair_sum_indexed", spy)
    for mode, exact in (("rational", True), ("float", False)):
        exact_calls.clear()
        args = ["selftest", "--config", str(path), "--out", str(tmp_path / mode)]
        assert main(args + ["--mode", mode]) == 0
        assert exact_calls and set(exact_calls) == {exact}, mode


@pytest.mark.parametrize("command", ["besov", "selftest"])
@pytest.mark.parametrize(
    "overrides",
    [{"beta_star": 0.005, "epsilons": [0.002, 0.001]}, {"beta_grid": [200.0]}],
)
def test_beta_weight_past_the_float_range_exits_2(tmp_path, capsys, command, overrides):
    """At depth 2, beta / beta* = 160 (the default beta 0.8 over
    beta* = 0.005) or 200 takes the weight phi(rho_2)^(-beta/beta*) past the
    float range: the command exits 2 naming beta and n, and writes nothing."""
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "art"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "exceeds the float range" in err and "n = 2" in err
    assert not any(out.iterdir())


def test_unreadable_config_exits_2_naming_the_path(tmp_path, capsys):
    """A directory or a file that is not UTF-8 is a config error that names
    the path; a missing file keeps its own message."""
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"ratios": "é"}'.encode("latin-1"))
    out = tmp_path / "art"
    for path in (tmp_path, latin1):
        assert main(["build", "--config", str(path), "--out", str(out)]) == 2
        assert f"error: config file {path} cannot be read: " in capsys.readouterr().err
    missing = tmp_path / "nope.json"
    assert main(["build", "--config", str(missing), "--out", str(out)]) == 2
    assert f"error: config file not found: {missing}" in capsys.readouterr().err
    assert not out.exists()
