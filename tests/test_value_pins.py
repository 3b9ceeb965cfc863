"""Pinned digests of the value layer: u on V_n in both arithmetics.

Every energy, measure and pair sum reads its values through
``Arithmetic.level_values``, so a rewrite of the refinement step must
reproduce them bit for bit.  For each ratio sequence and arithmetic the pin
is one digest per level n = 0..m over the ramp and the seeded functions of
seeds 1..8, whose base levels range over 0..3: levels below a base are
restrictions through the lift maps, the others refinements.  A digest is
the first 16 hex digits of the sha256 of each function's values in turn:
for FLOAT the float64 bytes, for EXACT the denominator, the dtype and the
integer numerators.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from vicsek_lab.energy import EXACT, FLOAT, diagonal_ramp, random_affine
from vicsek_lab.geometry import Hierarchy
from vicsek_lab.ratios import alternating_ratios, constant_ratios, example_sequence_ratios

SEQUENCES = {
    "constant3": (lambda: constant_ratios(3, 12), 6),
    "alternating35": (lambda: alternating_ratios(3, 5, 10), 4),
    "example37": (lambda: example_sequence_ratios(3, 7, 10), 3),
    "constant7": (lambda: constant_ratios(7, 10), 3),
}


def _update(h, values) -> None:
    if isinstance(values, tuple):
        den, ints = values
        h.update(f"{den}:{ints.dtype}:".encode())
        h.update(ints.tobytes() if ints.dtype != object else repr(ints.tolist()).encode())
    else:
        h.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())


def level_digests(hier: Hierarchy, arith, m: int) -> tuple[str, ...]:
    funcs = [diagonal_ramp()] + [random_affine(hier, s) for s in range(1, 9)]
    hashes = [hashlib.sha256() for _ in range(m + 1)]
    for u in funcs:
        for n, values in arith.level_values(hier, u, 0, m):
            _update(hashes[n], values)
    return tuple(h.hexdigest()[:16] for h in hashes)


PINS = {
    ("constant3", "FLOAT"): (
        "a03d6f0f8b81b642", "420830cd62e99b2f", "9ff586d92518625d", "b0d4c8fd6ed3b1db",
        "44801d7904cfa9c0", "b01152fdf4265ce1", "5aadc88518cf659c",
    ),
    ("constant3", "EXACT"): (
        "a0818fc025ae2f43", "3458fa0cdd37443c", "d68850548ff6550b", "01d6e0b60f56a9e7",
        "3f6afc6a7c10c478", "8f2d5a4bb06a9925", "c508d477134f1f90",
    ),
    ("alternating35", "FLOAT"): (
        "ef26dcc26cb8d35a", "9e10bd7ba424393a", "50d2fb15c3b8947e", "c92efaeb1a754f92",
        "0f95c300cd903eb5",
    ),
    ("alternating35", "EXACT"): (
        "ee639f62991e5017", "0cf4eb33d6fe232e", "ad4b3eba57f34ccb", "84c778733158c463",
        "4c16d7a8fa83c27a",
    ),
    ("example37", "FLOAT"): (
        "7111e24bfe1e8b9b", "771deff7281be026", "f7506527aea03623", "c98c20d4975b3bb8",
    ),
    ("example37", "EXACT"): (
        "99b8a9a469ad9b3a", "303face666281c10", "de874c07e283adcd", "d58717287eb29c6f",
    ),
    ("constant7", "FLOAT"): (
        "2bd75f2a46265b38", "885ffe2e70db3e72", "784df58edb95da6d", "b5050924b59e2a22",
    ),
    ("constant7", "EXACT"): (
        "b74176177e7ebb80", "4cfc613e2fefa9a9", "aaa9dc890cba0382", "a4c52adc7668ab51",
    ),
}


@pytest.fixture(scope="module")
def hierarchies() -> dict:
    return {name: Hierarchy(make(), m) for name, (make, m) in SEQUENCES.items()}


@pytest.mark.parametrize("name, arith_name", sorted(PINS))
def test_level_values_pinned(hierarchies, name, arith_name):
    arith = {"EXACT": EXACT, "FLOAT": FLOAT}[arith_name]
    got = level_digests(hierarchies[name], arith, SEQUENCES[name][1])
    assert got == PINS[name, arith_name]
