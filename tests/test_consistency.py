"""Checks on the source tree and its documents, not on results.

The reach ratchet lists every public top-level function, class and method
of ``src/vicsek_lab`` that no code under ``src/`` mentions outside its own
definition (re-exports in ``__init__.py`` do not count).  A top-level
function or class is mentioned only by its bare name or by an import of
it: the package imports its routines by name, so an attribute that shares
a routine's name (``self.children``) is some other object's.  A method is
mentioned by its name, an attribute of that name or an import.  Such a
routine is reached by no command, so the list must equal ``UNREACHED``: a
new unreached routine must be wired in or deleted (a helper that only tests
call lives with the test oracles), and a listed one that a command starts
to use must leave the list.  Only a paper claim whose artifact waits for new
benchmark references may be listed.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import re
import sys
from collections import Counter
from pathlib import Path

from vicsek_lab.config import config_from_dict, load_config

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vicsek_lab"

# a paper claim becomes an artifact (a selftest row or a besov table) only
# when the benchmark's pinned reference artifacts may change with it
_WAITS = "a paper claim whose artifact waits for new benchmark references"
UNREACHED = {
    "besov.besov_seminorm": _WAITS,
    "besov.critical_sweep": _WAITS,
    "energy_measure.chain_rule_check": _WAITS,
    "energy_measure.triangle_check": _WAITS,
}


def _mentions(tree: ast.AST) -> Counter:
    """How often each (name, kind) occurs under ``tree``: kind "name" for a
    bare name, "attribute" for an attribute and "import" for an import."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id, "name"] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr, "attribute"] += 1
        elif isinstance(node, ast.alias):
            found[node.name, "import"] += 1
    return found


def unreached_routines(package: Path) -> set[str]:
    """``module.name`` or ``module.Class.method`` of every public top-level
    function, class and method that no module of ``package`` but ``__init__``
    mentions outside its own definition: by a bare name or an import for a
    top-level routine, and also by an attribute for a method."""
    defined: list[tuple[str, str, tuple[str, ...], Counter]] = []
    mentioned: Counter = Counter()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem != "__init__":
            mentioned += _mentions(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                where = f"{path.stem}.{node.name}"
                defined.append((where, node.name, ("name", "import"), _mentions(node)))
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        kinds = ("name", "attribute", "import")
                        defined.append((f"{where}.{sub.name}", sub.name, kinds, _mentions(sub)))
    return {
        where
        for where, name, kinds, own in defined
        if all(mentioned[name, kind] <= own[name, kind] for kind in kinds)
    }


def test_unreached_routines_are_exactly_the_allowlist():
    found = unreached_routines(PACKAGE)
    assert sorted(found - UNREACHED.keys()) == [], "unreached: wire in, delete or move to the tests"
    assert sorted(UNREACHED.keys() - found) == [], "reached now: take off the allowlist"
    # only a paper claim waiting for its artifact may stay unreached in src/
    assert set(UNREACHED.values()) == {_WAITS}


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
