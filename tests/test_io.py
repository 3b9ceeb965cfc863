"""The JSON writer renders exactly what ``json.dumps(indent=2, sort_keys=True)`` does."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from vicsek_lab.geometry import build_level
from vicsek_lab.io import _jsonify, json_text, write_json
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
    assert json_text(obj) == reference(obj)


def test_bad_key_raises():
    with pytest.raises(TypeError):
        json_text({(1, 2): 0})
