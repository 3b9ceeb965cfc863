"""Checks on the source tree and its documents, not on results.

The reach ratchet lists every public top-level function, class and method
of ``src/vicsek_lab`` whose name no code under ``src/`` mentions outside
its own definition (a name, an attribute or an import; re-exports in
``__init__.py`` do not count).  Such a routine is reached by no command,
so the list must equal ``UNREACHED``: a new unreached routine must be
wired in, deleted or listed with its reason, and a listed one that a
command starts to use must leave the list.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import re
import sys
from pathlib import Path

from vicsek_lab.config import config_from_dict, load_config

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vicsek_lab"

# a paper claim becomes an artifact (a selftest row or a besov table) only
# when the benchmark's pinned reference artifacts may change with it
_WAITS = "a paper claim whose artifact waits for new benchmark references"
_TESTS = "a helper used only by tests"
UNREACHED = {
    "besov.besov_seminorm": _WAITS,
    "besov.critical_sweep": _WAITS,
    "energy_measure.chain_rule_check": _WAITS,
    "energy_measure.triangle_check": _WAITS,
    "energy.corner_indicator": _TESTS,
    "energy.AffineFunction.shift": _TESTS,
    "energy_measure.CellMeasure.refinement_defect": _TESTS,
    "measure.phi_of": _TESTS,
    "measure.mu_cell": _TESTS,
    "measure.doubling_bound": _TESTS,
    "measure.example_sequence_eta_bound_holds": _TESTS,
    "geometry.point_of_word": _TESTS,
    "geometry.within_open_ball": _TESTS,
    # named only in an error message and a docstring, which call nothing
    "geometry.LatticePoint.rescale": _TESTS,
    "words.word_index": _TESTS,
}


def unreached_routines(package: Path) -> set[str]:
    """``module.name`` or ``module.Class.method`` of every public top-level
    function, class and method whose name no module of ``package`` but
    ``__init__`` mentions as a name, an attribute or an import."""
    defined: list[tuple[str, str]] = []
    mentioned: set[str] = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((f"{path.stem}.{node.name}", node.name))
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        defined.append((f"{path.stem}.{node.name}.{sub.name}", sub.name))
        if path.stem == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif isinstance(node, ast.alias):
                mentioned.add(node.name)
    return {where for where, name in defined if name not in mentioned}


def test_unreached_routines_are_exactly_the_allowlist():
    found = unreached_routines(PACKAGE)
    assert sorted(found - UNREACHED.keys()) == [], "unreached: wire in, delete or list it"
    assert sorted(UNREACHED.keys() - found) == [], "reached now: take off the allowlist"


def test_benchmark_readme_config_is_readme_as_written(tmp_path, monkeypatch):
    """``perfbench/workloads.README_CONFIG`` is README.md's JSON config
    block, key for key, and loads to the same config."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme_config.json"
    path.write_text(blocks[0], encoding="utf-8")

    # imported by path, writing no bytecode under perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)

    assert json.loads(blocks[0]) == workloads.README_CONFIG
    assert load_config(path) == config_from_dict(workloads.README_CONFIG)
