"""Artifact emission: CSV tables and JSON reports with config stamps.

Every CSV starts with a comment line carrying the sha256 of the canonical
configuration JSON, then a header row.  Fractions are rendered as 'a/b' so
exact values survive the round trip; floats use repr (shortest faithful).
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

# built-in SHA-256 first: hashlib loads OpenSSL's libcrypto, 3.65 MB of RSS per process
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

_CHUNK_ROWS = 2**14  # rows of an integer array per format call


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonify)


def config_hash(config: dict) -> str:
    return sha256(canonical_json(config).encode()).hexdigest()[:16]


def _jsonify(x):
    if isinstance(x, Fraction):
        return str(x)
    if hasattr(x, "to_json_dict"):
        return x.to_json_dict()
    if hasattr(x, "tolist"):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def format_cell(x) -> str:
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def write_csv(path: Path, columns: Sequence[str], rows: Iterable[Sequence], meta: str) -> None:
    lines = chain([[f"# config={meta}"], columns], rows)
    _write_chunks(path, ((",".join(map(format_cell, row)) + "\n").encode() for row in lines))


def write_json(path: Path, obj: Any, meta: str) -> None:
    _write_chunks(path, chain(_json_chunks({"config": meta, "data": obj}, 0), [b"\n"]))


def _write_chunks(path: Path, chunks: Iterable[bytes]) -> None:
    """Write to a temporary file beside ``path``, then move it onto ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def _json_chunks(obj: Any, depth: int) -> Iterator[bytes]:
    """The indented JSON of ``obj`` as ASCII chunks.

    The standard encoder takes its pure-Python path whenever it indents, so
    integer arrays, which make up the geometry dumps, are rendered here with
    one format call per ``_CHUNK_ROWS`` rows: memory is bounded by one chunk.
    """
    pad = b"\n" + b"  " * (depth + 1)
    end = b"\n" + b"  " * depth
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "iu" and obj.size and 1 <= obj.ndim <= 2:
        item = b"%d"
        if obj.ndim == 2:
            cell = pad + b"  "
            item = b"[" + cell + (b"," + cell).join([item] * obj.shape[1]) + pad + b"]"
        for i in range(0, len(obj), _CHUNK_ROWS):
            rows = obj[i : i + _CHUNK_ROWS]
            text = (b"," + pad).join([item] * len(rows)) % tuple(rows.ravel().tolist())
            yield (b"," if i else b"[") + pad + text
        yield end + b"]"
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield (b"," if i else b"[") + pad
            yield from _json_chunks(v, depth + 1)
        yield end + b"]" if obj else b"[]"
    elif isinstance(obj, dict):
        for i, (k, v) in enumerate(sorted(obj.items())):
            yield (b"," if i else b"{") + pad + _json_key(k) + b": "
            yield from _json_chunks(v, depth + 1)
        yield end + b"}" if obj else b"{}"
    elif obj is None or isinstance(obj, (str, int, float)):
        yield json.dumps(obj).encode()
    else:
        yield from _json_chunks(_jsonify(obj), depth)


def _json_key(k) -> bytes:
    if not (k is None or isinstance(k, (str, int, float))):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return json.dumps(k if isinstance(k, str) else json.dumps(k)).encode()
