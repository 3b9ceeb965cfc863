"""Reading CLI artifacts and checking them against the stored references.

Every artifact carries a config stamp (``# config=<hash>`` in CSV, a
``"config"`` key in JSON). The stamp hashes the whole config, seeds
included, so it is left out of the comparison.

Exact fields must be equal: integers, ``a/b`` fractions, booleans and text.
Float fields must agree to the tolerance the README documents and the tests
use, ``pytest.approx(rel=1e-12, abs=1e-300)``. Large JSON files hold only
integers (the geometry dumps) and are compared by digest.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import re
from pathlib import Path

REL_TOL = 1e-12
ABS_TOL = 1e-300
DIGEST_MIN_BYTES = 64 * 1024

_STAMP = re.compile(rb'"config": "[0-9a-f]*"')
_INT = re.compile(r"-?\d+")


def _plain_digest(raw: bytes) -> str:
    """Digest of the file's bytes with the config stamp blanked."""
    return hashlib.sha256(_STAMP.sub(b'"config": ""', raw, count=1)).hexdigest()


def _canonical_digest(raw: bytes) -> str:
    """Digest of the file's data, independent of its JSON layout."""
    canon = json.dumps(json.loads(raw)["data"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def read_artifact(path: Path) -> dict:
    """One artifact as a reference entry."""
    raw = path.read_bytes()
    if path.suffix == ".csv":
        lines = raw.decode().splitlines()
        if not lines or not lines[0].startswith("# config="):
            raise ValueError(f"{path.name}: missing config stamp")
        return {
            "kind": "csv",
            "header": lines[1].split(","),
            "rows": [line.split(",") for line in lines[2:]],
        }
    if len(raw) >= DIGEST_MIN_BYTES:
        return {"kind": "digest", "plain": _plain_digest(raw), "canonical": _canonical_digest(raw)}
    doc = json.loads(raw)
    if not isinstance(doc.get("config"), str):
        raise ValueError(f"{path.name}: missing config stamp")
    return {"kind": "json", "data": doc["data"]}


def read_outputs(out: Path) -> dict:
    return {p.name: read_artifact(p) for p in sorted(out.iterdir()) if p.is_file()}


def load_reference(workload: str, directory: Path) -> dict:
    with gzip.open(directory / f"{workload}.json.gz", "rt") as f:
        return json.load(f)


def expected_outputs(reference: dict, command: str, seeds: list[int]) -> dict:
    """The entries a command must produce for the given config seeds."""
    files = {}
    for name, entry in reference["commands"][command].items():
        if entry["kind"] == "per_seed":
            data = dict(entry["fixed"])
            for s in seeds:
                data[entry["key"].format(s)] = entry["per_seed"][str(s)]
            entry = {"kind": "json", "data": data}
        elif entry["kind"] == "first_seed":
            entry = {"kind": "json", "data": entry["per_seed"][str(seeds[0])]}
        files[name] = entry
    return files


def check_outputs(out: Path, expected: dict) -> list[str]:
    """Mismatches between the files in ``out`` and the expected entries."""
    present = {p.name for p in out.iterdir() if p.is_file()} if out.is_dir() else set()
    problems = [f"missing {n}" for n in sorted(set(expected) - present)]
    problems += [f"unexpected {n}" for n in sorted(present - set(expected))]
    for name in sorted(set(expected) & present):
        want = expected[name]
        try:
            if want["kind"] == "digest":
                raw = (out / name).read_bytes()
                same = (_plain_digest(raw) == want["plain"]
                        or _canonical_digest(raw) == want["canonical"])
                problems += [] if same else [f"{name}: content digest differs"]
                continue
            got = read_artifact(out / name)
        except (ValueError, KeyError, IndexError) as e:
            problems.append(f"{name}: unreadable ({e})")
            continue
        problems += [f"{name}: {msg}" for msg in _compare_entry(want, got)]
    return problems


def _compare_entry(want: dict, got: dict) -> list[str]:
    if want["kind"] != got["kind"]:
        return [f"read as {got['kind']}, expected {want['kind']}"]
    if want["kind"] == "csv":
        if want["header"] != got["header"]:
            return [f"header {got['header']} != {want['header']}"]
        if len(want["rows"]) != len(got["rows"]):
            return [f"{len(got['rows'])} rows != {len(want['rows'])}"]
        out = []
        for i, (rw, rg) in enumerate(zip(want["rows"], got["rows"])):
            if len(rw) != len(rg) or not all(map(_same_cell, rw, rg)):
                out.append(f"row {i}: {rg} != {rw}")
                break
        return out
    return _compare_values(want["data"], got["data"], "")


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def _is_float_text(s: str) -> bool:
    if "/" in s or _INT.fullmatch(s) or s in ("true", "false", ""):
        return False
    try:
        float(s)
    except ValueError:
        return False
    return True


def _same_cell(want: str, got: str) -> bool:
    if want == got:
        return True
    return _is_float_text(want) and _is_float_text(got) and _close(float(want), float(got))


def _compare_values(want, got, where: str) -> list[str]:
    if type(want) is not type(got):
        return [f"{where or '/'}: type {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, float):
        return [] if _close(want, got) else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return [f"{where or '/'}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _compare_values(want[k], got[k], f"{where}/{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [
            m for i, (a, b) in enumerate(zip(want, got))
            for m in _compare_values(a, b, f"{where}/{i}")
        ]
    return [] if want == got else [f"{where}: {got!r} != {want!r}"]
