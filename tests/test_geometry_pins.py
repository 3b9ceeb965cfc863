"""Pinned digests of every geometry array, vertex-id order included.

Seeded random functions, golden energies and the float pair-sum bits all
depend on the order in which vertices are numbered, so any rewrite of the
level build or of the transition maps must reproduce these arrays exactly.
Each digest is the first 16 hex digits of the sha256 of the array's shape
(as its repr) followed by its int64 bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from vicsek_lab.geometry import Hierarchy
from vicsek_lab.ratios import alternating_ratios, constant_ratios

LEVEL_FIELDS = (
    "coords",
    "owner_word",
    "multiplicity",
    "cell_vertices",
    "depth",
    "parent",
    "edge_tail",
    "edge_head",
)
TRANSITION_FIELDS = ("lift", "interior", "hang")


def digest(a) -> str:
    a = np.ascontiguousarray(np.asarray(a, dtype=np.int64))
    h = hashlib.sha256(repr(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def hier5() -> Hierarchy:
    return Hierarchy(constant_ratios(5, 12), 3)


PINS = {
    "constant3": {
        "coords": (
            "ccc8a4805a75f53d", "6de876bed4fb9c2b", "ee56020d19257da6", "53cf24493025effb",
            "9b1da05d2db60cdf", "b4edacd437c0360d", "d2201c7370ff19dc",
        ),
        "owner_word": (
            "2e6dda3eb90f453d", "3e24cff138d7e837", "ac8d03a6c285d50c", "3f07ff8dea7272c8",
            "bb1b263a2e6c99cf", "8ea045c8bc90509f", "cad5e5935e9c36b8",
        ),
        "multiplicity": (
            "d2cb13f59a853e75", "94350134d5255958", "3c8cc67532c2a251", "c1a03c70bbfd1dc4",
            "6265ffe368ba1aba", "44721d6470641d25", "3367120ea34ea48d",
        ),
        "cell_vertices": (
            "aa4027b7e9ea23b9", "c98a2858f9bfbae2", "e1b5a9001c83a95e", "13762548f95bb4e5",
            "3d401ae8b7a47ed9", "cabe8c60ba0ecae1", "fb7561e9a640e526",
        ),
        "depth": (
            "336ada9abc0089b2", "8180c44a562c6084", "1ec47f00c5822100", "33e2d39febf9a797",
            "d33242c134344af6", "30c90e8c741d0cd4", "6bc3eb25c319200b",
        ),
        "parent": (
            "bae14ddf04027631", "86eb3007e0e29978", "a5a4b9039e226264", "ae00c9ea63e841bf",
            "e2c6201ac4080883", "e858ea3173ba9dbe", "6becb81da89c68d3",
        ),
        "edge_tail": (
            "df006573c95d4779", "6055c0cc9984cc54", "3de97cd6cfc621ab", "9d87f390ab01e4e7",
            "96c10f344f0967c2", "4f19d78596aeb3db", "ad5ac50ed47a39ed",
        ),
        "edge_head": (
            "53d57dc38752a0c8", "94ab228fd5226864", "6571c5ca66dde2a1", "2042e83476ceb6d5",
            "b76bbe2129482599", "e5ccde527b4538d6", "780a339d255de63d",
        ),
        "lift": (
            "54cbf37bd53744d1", "6578ba6f90811cf3", "0ce5f356d190b076", "72ffa92ebaa01fb6",
            "f617f6e102625e3d", "88b2103d6733e209",
        ),
        "interior": (
            "1a09cdc8de992801", "e1ae6b37bd7bfe40", "928a4a1f8f5eba8b", "a436eeaa0a94b4e6",
            "36cbac5bed7581f3", "1c9466eab609f830",
        ),
        "hang": (
            "eb397d92c4c6848a", "30d4b045790db6c9", "0f289bb8ab5b6ce5", "82864ef00a244956",
            "0f918a2bf70cdc52", "d052a995c2e1016a",
        ),
    },
    "constant5": {
        "coords": (
            "ccc8a4805a75f53d", "a2d947e7575e7d17", "d0a802d6efd88953", "6ad49682b6409a3b",
        ),
        "owner_word": (
            "2e6dda3eb90f453d", "326e19a75b21844d", "7a4a77851568ae7b", "f3784783dee6a715",
        ),
        "multiplicity": (
            "d2cb13f59a853e75", "5421d569ed92507a", "6f4071abc23355e3", "97a07560d9da49dd",
        ),
        "cell_vertices": (
            "aa4027b7e9ea23b9", "9c1963f252952763", "36709b84ab8b8e4b", "f90e370927f151fa",
        ),
        "depth": (
            "336ada9abc0089b2", "7d97696db75c8e9b", "69360e83dbc10e2d", "320f74f66e0378d0",
        ),
        "parent": (
            "bae14ddf04027631", "4d2285f2bc77ffe6", "cdfcf1bc46e965a8", "bba96161083394eb",
        ),
        "edge_tail": (
            "df006573c95d4779", "6704819e51dadb82", "55afd1990e88b19b", "7500ab141031f3b4",
        ),
        "edge_head": (
            "53d57dc38752a0c8", "3f21821be5401f01", "4dcca5463f26efc3", "8be98725cbc82186",
        ),
        "lift": ("b0e6dff3ba475233", "e28702b6771e459c", "23e01f66cd97f630"),
        "interior": ("35f59085228a51d5", "29f32da4487cb01b", "d292bf8a7fd76092"),
        "hang": ("b35c2deede9ccc5b", "f9e96ad5c39d1dec", "9c03dadd90039e42"),
    },
    "alternating35": {
        "coords": (
            "ccc8a4805a75f53d", "6de876bed4fb9c2b", "6b3dc180c3292146", "4b6211489b70a749",
            "3820787994d330f7",
        ),
        "owner_word": (
            "2e6dda3eb90f453d", "3e24cff138d7e837", "480117227b420be4", "5fbbf3d569d106ef",
            "44235f1a0bcdf84a",
        ),
        "multiplicity": (
            "d2cb13f59a853e75", "94350134d5255958", "be7393407690c5c4", "4a9fe78f0bc8804e",
            "7e64e25ef6151651",
        ),
        "cell_vertices": (
            "aa4027b7e9ea23b9", "c98a2858f9bfbae2", "f503424dc318c937", "33d7a95181d7fb93",
            "e3ff10c4f160e7dc",
        ),
        "depth": (
            "336ada9abc0089b2", "8180c44a562c6084", "0d50c923a9d6bd48", "b356f4d47049d121",
            "edea5ea56d73f764",
        ),
        "parent": (
            "bae14ddf04027631", "86eb3007e0e29978", "14631f5ff7808bd4", "491450cf9ea57ff9",
            "e997fb14b34ba952",
        ),
        "edge_tail": (
            "df006573c95d4779", "6055c0cc9984cc54", "d81a9c60ce59e179", "842776dfa2954508",
            "6454c1271150020f",
        ),
        "edge_head": (
            "53d57dc38752a0c8", "94ab228fd5226864", "ddab53632f7d6309", "6b5312784df50d27",
            "3e7434663bbd25b6",
        ),
        "lift": (
            "54cbf37bd53744d1", "956eff953deb34d0", "cf76683d79d538dc", "8b7c3779894c64fa",
        ),
        "interior": (
            "1a09cdc8de992801", "58525c31f2ca456f", "d2d863911dc9953c", "11bae2cdb931eaef",
        ),
        "hang": (
            "eb397d92c4c6848a", "d424173ca3d8b0a8", "3b14658afd4bb2fd", "f642d667b6924358",
        ),
    },
}

FIXTURES = {"constant3": "hier3", "constant5": "hier5", "alternating35": "hier35"}


@pytest.mark.parametrize("config", sorted(PINS))
def test_geometry_arrays_are_pinned(config, request):
    hier = request.getfixturevalue(FIXTURES[config])
    pins = PINS[config]
    got = {f: tuple(digest(getattr(lv, f)) for lv in hier.levels) for f in LEVEL_FIELDS}
    for f in TRANSITION_FIELDS:
        got[f] = tuple(
            digest(getattr(hier.transition(k), f)) for k in range(hier.max_level)
        )
    assert len(pins["coords"]) == hier.max_level + 1
    for f in LEVEL_FIELDS + TRANSITION_FIELDS:
        assert got[f] == pins[f], f


# (digest of blocks, digest of leaf_class, radius2) of ``pair_plan(level, n)``
# at the default leaf size: the README config (constant 3, vertex level 6,
# n = 0..4) and alternating (3, 5) at vertex level 4, n = 0..2.
PLAN_PINS = {
    "constant3": (
        6,
        (
            ("e37631b39608e07b", "0d85002cc7403aa5", 4251527),
            ("95a07b063bb98b28", "1cbf07f1530bb5b7", 472391),
            ("8835efd9885b3aca", "34ab821319ec6a51", 52487),
            ("9c17fd281ed9fd72", "c744dfe8048e4dfd", 5831),
            ("4df2dd3d5a380745", "27643a28f0d039dc", 647),
        ),
    ),
    "alternating35": (
        4,
        (
            ("068369c7d3b5a454", "6567ab9b9f4e2fcb", 404999),
            ("533098864726865f", "68d4019ad70e81b4", 44999),
            ("afdb6f216d5342df", "6a30442058e91878", 1799),
        ),
    ),
}


@pytest.mark.parametrize("config", sorted(PLAN_PINS))
def test_pair_plans_are_pinned(config, request):
    """The pair plans, and so the float summation order, do not move when
    the in-ball rule is rewritten."""
    from vicsek_lab.pairsum import pair_plan

    m, pins = PLAN_PINS[config]
    lv = request.getfixturevalue(FIXTURES[config]).level(m)
    for n, want in enumerate(pins):
        plan = pair_plan(lv, n)
        assert (digest(plan.blocks), digest(plan.leaf_class), plan.radius2) == want, n
