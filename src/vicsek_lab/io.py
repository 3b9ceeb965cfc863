"""Artifact emission: CSV tables and JSON reports with config stamps.

Every CSV starts with a comment line carrying the sha256 of the canonical
configuration JSON, then a header row.  Fractions are rendered as 'a/b' so
exact values survive the round trip; floats use repr (shortest faithful).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonify)


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def _jsonify(x):
    if isinstance(x, Fraction):
        return str(x)
    if hasattr(x, "to_json_dict"):
        return x.to_json_dict()
    if hasattr(x, "tolist"):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def format_cell(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def write_csv(path: Path, columns: Sequence[str], rows: Iterable[Sequence], meta: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# config={meta}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(format_cell(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, obj: Any, meta: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json_text({"config": meta, "data": obj}) + "\n")


def json_text(obj: Any, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, default=_jsonify)``, byte for byte.

    The standard encoder takes its pure-Python path whenever it indents.
    Integer arrays, which make up the geometry dumps, are rendered here with
    one format call each.
    """
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "iu" and obj.size and 1 <= obj.ndim <= 2:
        return _int_rows(obj, depth)
    pad = "\n" + "  " * (depth + 1)
    end = "\n" + "  " * depth
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (json_text(v, depth + 1) for v in obj)
        return "[" + pad + ("," + pad).join(items) + end + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{_json_key(k)}: {json_text(v, depth + 1)}" for k, v in sorted(obj.items()))
        return "{" + pad + ("," + pad).join(items) + end + "}"
    if obj is None or isinstance(obj, (str, int, float)):
        return json.dumps(obj)
    return json_text(_jsonify(obj), depth)


def _json_key(k) -> str:
    if not (k is None or isinstance(k, (str, int, float))):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return json.dumps(k if isinstance(k, str) else json.dumps(k))


def _int_rows(a: np.ndarray, depth: int) -> str:
    """Indented JSON of a non-empty 1-D or 2-D integer array."""
    pad = "\n" + "  " * (depth + 1)
    item = "%d"
    if a.ndim == 2:
        cell = "\n" + "  " * (depth + 2)
        item = "[" + cell + ("," + cell).join([item] * a.shape[1]) + pad + "]"
    text = "[" + pad + ("," + pad).join([item] * len(a)) + "\n" + "  " * depth + "]"
    return text % tuple(a.ravel().tolist())
