from __future__ import annotations

import pytest

from vicsek_lab.geometry import Hierarchy
from vicsek_lab.ratios import constant_ratios


@pytest.fixture(scope="session")
def hier3() -> Hierarchy:
    """Constant-3 hierarchy to level 6 (p = 2, beta* = 1), shared by most tests."""
    return Hierarchy(constant_ratios(3, 12), 6)


@pytest.fixture(scope="session")
def hier35() -> Hierarchy:
    """Mixed-ratio hierarchy (3, 5, 3, 5, ...) to level 4."""
    from vicsek_lab.ratios import alternating_ratios

    return Hierarchy(alternating_ratios(3, 5, 10), 4)


try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves
    pass
else:
    # fixed examples and no example database: the suite stays deterministic
    settings.register_profile(
        "vicsek", derandomize=True, max_examples=30, deadline=None, database=None
    )
    settings.load_profile("vicsek")
