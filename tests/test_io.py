"""The JSON writer renders exactly what ``json.dumps(indent=2, sort_keys=True)`` does."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from vicsek_lab.cli import main
from vicsek_lab.geometry import build_level
from vicsek_lab.io import _CHUNK_ROWS, _json_chunks, _jsonify, format_cell, sha256, write_json
from vicsek_lab.ratios import alternating_ratios, constant_ratios


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_jsonify)


@pytest.mark.parametrize("ratios", [constant_ratios(3, 6), alternating_ratios(3, 5, 6)])
def test_geometry_dump_is_byte_identical(ratios, tmp_path):
    for n in range(5):
        doc = build_level(ratios, n).to_json_dict()
        path = tmp_path / f"geometry_level{n}.json"
        write_json(path, doc, "cafe")
        assert path.read_bytes() == (reference({"config": "cafe", "data": doc}) + "\n").encode()


MIXED = {
    "empty": [[], {}, (), [[]]],
    "ints": [3, -1, 10**30],
    "bools": [True, 1, False],
    "bool rows": [[True, 1], [0, 1]],
    "ragged": [[1, 2], [3]],
    "float row": [[1, 2], [3, 4.0]],
    "tuples": [(1, 2), [3, 4]],
    "nested": [[1, [2]], [[3, 4]]],
    "floats": [1.5, -0.0, float("nan"), float("inf"), np.float64(0.1)],
    "numpy": {
        "matrix": np.arange(6).reshape(2, 3),
        "vector": np.arange(3, dtype=np.uint8),
        "empty": np.zeros((2, 0), dtype=np.int64),
        "bools": np.array([True, False]),
        "scalar": np.int64(7),
        "floats": np.linspace(0, 1, 3),
    },
    "exact": [Fraction(1, 3), Fraction(-2)],
    "text": ["é\n\"", None],
    "keys": {"b": {"z": 1, "a": [{"k": []}]}, "a": 0},
}


@pytest.mark.parametrize(
    "obj", [MIXED, [], {}, 0, "x", [[1]], [1], {3: 1, 1: 2}, [[1, 2], [3, 4]], [MIXED]]
)
def test_mixed_documents_are_byte_identical(obj):
    assert b"".join(_json_chunks(obj, 0)).decode() == reference(obj)


def int_arrays(rows: int):
    rng = np.random.default_rng(rows)
    wide = rng.integers(-(10**6), 10**6, size=(rows, 3))
    wide[0, 0] = np.iinfo(np.int64).min
    wide[-1, -1] = np.iinfo(np.int64).max
    return [wide, wide[:, 1].copy(), np.arange(2 * rows, dtype=np.uint8).reshape(rows, 2)]


@pytest.mark.parametrize("rows", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS])
def test_int_arrays_across_chunk_boundaries(rows, tmp_path):
    doc = {"arrays": int_arrays(rows), "tail": [int_arrays(1)]}
    assert b"".join(_json_chunks(doc, 0)).decode() == reference(doc)
    write_json(tmp_path / "a.json", doc, "cafe")
    want = reference({"config": "cafe", "data": doc}) + "\n"
    assert (tmp_path / "a.json").read_bytes() == want.encode()


def test_failed_write_leaves_no_file(tmp_path):
    doc = {"big": int_arrays(3 * _CHUNK_ROWS)[0], "z": object()}
    path = tmp_path / "doc.json"
    with pytest.raises(TypeError):
        write_json(path, doc, "cafe")
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        write_json(path, doc, "cafe")
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == b"old"


def test_geometry_dump_memory_is_bounded(tmp_path):
    doc = build_level(constant_ratios(3, 7), 6).to_json_dict()
    tracemalloc.start()
    try:
        write_json(tmp_path / "geometry_level6.json", doc, "cafe")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_format_cell_renders_numpy_scalars_as_python_values():
    cells = [np.float64(0.1), np.float32(0.5), np.bool_(True), np.bool_(False), np.int64(-3)]
    assert [format_cell(x) for x in cells] == ["0.1", "0.5", "true", "false", "-3"]


def test_bad_key_raises():
    with pytest.raises(TypeError):
        b"".join(_json_chunks({(1, 2): 0}, 0))


# sha256 of the file ``vicsek-lab build`` writes, recorded before the writer
# was last rewritten; the config hash in the file is part of what is pinned.
BUILD_PINS = [
    (
        {"generator": "constant", "l": 3},
        5,
        "7906f04066c36634adc6b8adf3e5e2333352204b265c4909b602d13de352fb6d",
    ),
    (
        {"generator": "alternating", "a": 3, "b": 5},
        4,
        "8d0d875184029f2585b10f796d9b317a955b927465a55ff1b0f6710535e2981d",
    ),
]


@pytest.mark.parametrize("ratios,depth,sha", BUILD_PINS)
def test_build_dump_bytes_are_pinned(ratios, depth, sha, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"ratios": ratios, "depth": depth}))
    out = tmp_path / "out"
    assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == [f"geometry_level{depth}.json"]
    data = (out / f"geometry_level{depth}.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == sha


def test_builtin_sha256_matches_hashlib():
    """The config stamp's SHA-256 agrees with ``hashlib``'s on arbitrary bytes."""
    hyp = pytest.importorskip("hypothesis")

    @hyp.given(hyp.strategies.binary(max_size=4096))
    def check(data):
        assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()

    check()
